"""Exhaustive enumeration and the claim audit registry.

Counts are pinned against the published sequences for partial orders
(1, 2, 5, 16, 63, 318 and, past the public bound, 2045 up to
isomorphism; 1, 3, 19, 219, 4231 labeled) and cross-checked against the
brute-force relation filters in ``oracles.py``.  The canonical form and
the pinned isomorphism test are checked against brute force over all
n! orders.
"""

import collections
import hashlib
import importlib
import io
import itertools
import json
import math
import pathlib
import random

import pytest

from kleene_posets import (DomainError, InvolutivePoset, MeetDirectoid, Poset,
                           UsageError, enumerate_involutions, enumerate_posets,
                           figure, find_isomorphism, iter_assignments, run_cli)
from kleene_posets import audit, claim_ids, enumeration, replay_report, replay_witness
from kleene_posets.directoid import (_IdentityWalk, all_assignments,
                                     assignment_choices, assignment_count)
from kleene_posets.poset import _bits, _least_labelling
from kleene_posets.enumeration import (ALIASES, BOUNDED, BOUNDED_LU, CLAIMS,
                                       CONDITION7, DIRECTED_INVOLUTIVE_ASSIGNED,
                                       INVOLUTIVE, UNARY_MAPS, ANTITONE_MAPS,
                                       Claim, _RUNGS, _bounded, _bounded_lu,
                                       _condition7, _directoid_characterization,
                                       _involutive_representatives,
                                       _keeps_child, _representatives,
                                       _search_nodes,
                                       involutive_from_witness,
                                       isomorphic_with_pin, iter_directed,
                                       iter_involutive, iter_posets,
                                       poset_from_witness,
                                       resolve_claim, serialize_involutive,
                                       serialize_poset)

from oracles import (RefPoset, count_automorphisms, count_posets_bruteforce,
                     count_posets_vectorized, ref_involutions, ref_isomorphic_with_pin,
                     ref_least_natural_labelling)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
ISO_COUNTS = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}
LABELED_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}


def _labelled(n):
    """Every labelled poset on n elements: each representative under all
    n! relabellings, deduplicated and sorted by up-mask tuple."""
    labelled = set()
    for p in enumerate_posets(n):
        for perm in itertools.permutations(range(n)):
            up = [0] * n
            for i in range(n):
                for j in range(n):
                    if p.leq(i, j):
                        up[perm[i]] |= 1 << perm[j]
            labelled.add(tuple(up))
    return tuple(Poset(p.labels, up) for up in sorted(labelled))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_iso_counts_pinned(n):
    assert len(enumerate_posets(n)) == ISO_COUNTS[n]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_labeled_counts_pinned(n):
    assert len(_labelled(n)) == LABELED_COUNTS[n]


def test_n6_iso_count():
    assert len(enumerate_posets(6)) == 318


@pytest.mark.parametrize("n", [1, 2, 3])
def test_counts_match_bruteforce_oracle(n):
    labeled, iso = count_posets_bruteforce(n)
    assert len(_labelled(n)) == labeled
    assert len(enumerate_posets(n)) == iso


def test_labeled_count_matches_vectorized_oracle_n4():
    assert count_posets_vectorized(4) == 219


@pytest.mark.slow
def test_labeled_count_matches_vectorized_oracle_n5():
    assert count_posets_vectorized(5) == 4231


def test_enumeration_bounds():
    with pytest.raises(UsageError):
        enumerate_posets(0)
    with pytest.raises(DomainError):
        enumerate_posets(7)


def test_enumerated_posets_are_valid_and_distinct():
    seen = set()
    for p in enumerate_posets(4):
        assert p.n == 4
        key = tuple(p._up)
        assert key not in seen
        seen.add(key)


def test_involution_counts_small():
    """Antitone involutions found by the package match the permutation
    filter oracle, in order, on every poset with at most 5 elements and
    on a seeded relabelling of each."""
    rng = random.Random(5)
    for n in range(1, 6):
        for p in enumerate_posets(n):
            for q in (p, _shuffled(p, rng)):
                assert list(enumerate_involutions(q)) == ref_involutions(_ref(q))


@pytest.mark.parametrize("name", [f"fig{i}" for i in range(1, 10)])
def test_involutions_of_fixture_bases(name):
    """Oracle up to 8 elements; on every fixture, valid and distinct maps
    in lexicographic order, the fixture's own map among them, and the
    same maps moved along a relabelling."""
    obj = figure(name)
    p = obj.base if isinstance(obj, InvolutivePoset) else obj
    invs = enumerate_involutions(p)
    assert list(invs) == sorted(set(invs))
    assert all(InvolutivePoset(p, inv).check_antitone_involution().ok
               for inv in invs)
    if isinstance(obj, InvolutivePoset):
        assert obj.inv in invs
    if p.n <= 8:
        assert list(invs) == ref_involutions(_ref(p))
    perm = list(range(p.n))
    random.Random(name).shuffle(perm)
    moved = []
    for inv in invs:
        image = [None] * p.n
        for x in range(p.n):
            image[perm[x]] = perm[inv[x]]
        moved.append(tuple(image))
    assert enumerate_involutions(_moved(p, perm)) == tuple(sorted(moved))


INVOLUTIVE_COUNTS = (1, 3, 6, 21, 51, 190)
DIRECTED_INVOLUTIVE_COUNTS = (1, 1, 1, 3, 6, 21)


def test_involutive_representatives_pinned():
    reps = [_involutive_representatives(n) for n in range(1, 7)]
    assert tuple(map(len, reps)) == INVOLUTIVE_COUNTS
    assert sum(INVOLUTIVE_COUNTS) == 272
    assert tuple(sum(ip.base.is_downward_directed() for ip in r)
                 for r in reps) == DIRECTED_INVOLUTIVE_COUNTS
    assert all(_involutive_representatives(n) is reps[n - 1]
               for n in range(1, 7))


@pytest.mark.parametrize("n", range(1, 7))
def test_involutive_representatives_carry_their_verdict(n):
    """Each representative is built with its map's verdict already
    recorded, so no claim pays for the check; the recorded verdict is the
    one the check computes on a fresh instance."""
    for ip in _involutive_representatives.__wrapped__(n):
        recorded = ip._memo.get("check_antitone_involution")
        assert recorded is not None and recorded.ok
        assert ip.check_antitone_involution() is recorded
        assert InvolutivePoset(ip.base, ip.inv).check_antitone_involution() == recorded


def test_involutive_representatives_past_the_public_bound(monkeypatch):
    """119 of the 2,045 posets on 7 elements carry an antitone
    involution, 536 maps in all (the bound raised in this process only;
    CI pins n = 8 as well)."""
    monkeypatch.setattr("kleene_posets.enumeration.ENUMERATION_BOUND", 7)
    reps = _involutive_representatives.__wrapped__(7)
    assert (len({ip.base for ip in reps}), len(reps)) == (119, 536)


def test_map_spaces_search_each_poset_once(monkeypatch):
    """The map spaces read each poset's antitone involutions off
    ``_involutive_representatives``, so the five map claims run the search
    once per poset and process, through the module attribute that the
    benchmark's tracer wraps, and a second pass runs it no more."""
    calls = collections.Counter()

    def counted(p):
        calls[p] += 1
        return enumerate_involutions(p)

    monkeypatch.setattr("kleene_posets.enumeration.enumerate_involutions", counted)
    _involutive_representatives.cache_clear()
    try:
        for _ in range(2):
            for cid in ("Lem-4.1",) + MAP_CHARACTERISATIONS:
                assert audit(cid, n_bound=5).confirmed
    finally:
        _involutive_representatives.cache_clear()
    assert calls == collections.Counter(iter_posets(5))



@pytest.mark.parametrize("space", [UNARY_MAPS, ANTITONE_MAPS], ids=["unary", "antitone"])
def test_map_items_are_the_shared_representatives(space):
    """Each map item of an antitone involution carries the
    ``_involutive_representatives`` instance itself, so the map claims
    share its memoised verdicts with the involutive spaces.  At n <= 6
    both spaces evaluate exactly the 33 antitone involutions of the
    directed posets, in the representatives' order."""
    shared = [ip for n in range(1, 7) for ip in _involutive_representatives(n)
              if ip.base.is_downward_directed()]
    items = [inst for inst, _, _ in space.sweep(6, 3) if inst is not None]
    assert len(items) == len(shared) == 33
    for (ip, walk), rep in zip(items, shared):
        assert ip is rep
        assert walk.tables[0].labels == ip.labels


def test_map_claims_build_no_involutive_poset(monkeypatch):
    """With the representatives built, the five map claims at n <= 6
    construct no ``InvolutivePoset``: neither the spaces nor the
    evaluator build one for an antitone involution."""
    for n in range(1, 7):
        _involutive_representatives(n)

    def forbidden(self, *args):
        raise AssertionError("InvolutivePoset built")
    monkeypatch.setattr(InvolutivePoset, "__init__", forbidden)
    for cid in ("Lem-4.1",) + MAP_CHARACTERISATIONS:
        assert audit(cid, n_bound=6).confirmed


def _nested_involutive(posets):
    return [InvolutivePoset(p, inv) for p in posets
            for inv in enumerate_involutions(p)]


@pytest.mark.parametrize("space, keep", [
    (INVOLUTIVE, lambda ip: True), (BOUNDED, _bounded),
    (BOUNDED_LU, _bounded_lu), (CONDITION7, _condition7)])
def test_involutive_spaces_walk_the_nested_loop(space, keep):
    want = [ip for ip in _nested_involutive(iter_posets(6)) if keep(ip)]
    assert [inst for inst, _, _ in space.sweep(6, 1)] == want


def test_directed_involutive_space_walks_the_nested_loop():
    want = _nested_involutive(iter_directed(6))
    swept = DIRECTED_INVOLUTIVE_ASSIGNED.sweep(6, 1)
    assert [source for (source, _, _), _, _ in swept] == want


def test_involutions_of_figures():
    assert len(enumerate_involutions(figure("fig1").base)) == 2
    for p in enumerate_posets(2):
        n_inv = len(enumerate_involutions(p))
        if p.leq(0, 1) or p.leq(1, 0):
            assert n_inv == 1  # chain: only the flip
        else:
            assert n_inv == 2  # antichain: identity and flip


# -- serialization round-trip -------------------------------------------------

def test_witness_serialization_roundtrip():
    ip = figure("fig1")
    doc = serialize_involutive(ip)
    back = involutive_from_witness(doc)
    assert back.base == ip.base and back.inv == ip.inv
    p = figure("fig8")
    doc = serialize_poset(p)
    assert poset_from_witness(doc) == p


# -- the registry ---------------------------------------------------------------

EXPECTED_REFUTED = {"Thm-6.1-iii", "Twist-cone-product-unrestricted",
                    "U-pair-law-printed"}


def test_registry_contents():
    ids = claim_ids()
    assert len(ids) == len(CLAIMS) == 23
    assert EXPECTED_REFUTED < set(ids)
    for cid in ids:
        claim = CLAIMS[cid]
        assert claim.statement
        assert claim.space
        assert claim.default_n >= 2


def test_aliases_resolve():
    assert resolve_claim("Thm-2.2-unique-fixed-point") is CLAIMS["Lem-2.2"]
    assert resolve_claim("Theorem-3.1") is CLAIMS["Thm-3.1"]
    assert resolve_claim("Lemma-4.1") is CLAIMS["Lem-4.1"]
    for alias, target in ALIASES.items():
        assert resolve_claim(alias) is CLAIMS[target]


def test_unknown_claim():
    with pytest.raises(UsageError) as exc:
        audit("Nope-1.1")
    assert "known claims" in str(exc.value)


# -- audits at reduced bounds (fast) -------------------------------------------

# claim -> instances in its space at n_bound=3
CONFIRM_AT_3 = {
    "Distributivity-forms-equivalent": 8, "Lem-1.1": 3, "Lem-2.2": 10,
    "Thm-3.1": 10, "Thm-3.2": 10, "Lem-4.1": 59, "Thm-4.2": 59,
    "Thm-4.3": 59, "Lem-4.6": 10, "Thm-4.8": 59, "Thm-4.11": 59,
    "Thm-5.2": 3, "Thm-5.4": 3, "Derived-set-laws": 3,
    "Directoid-roundtrip": 4, "Strict-implies-strong": 3,
    "Boolean-implies-strict-kleene": 3,
}


@pytest.mark.parametrize("cid,instances", CONFIRM_AT_3.items(), ids=list(CONFIRM_AT_3))
def test_confirmed_claims_at_n3(cid, instances):
    report = audit(cid, n_bound=3)
    assert report.verdict == "Confirmed"
    assert report.confirmed
    assert not report.witnesses
    assert report.instances == instances


def test_twist_parts_confirmed():
    for cid in ("Thm-6.1-i", "Thm-6.1-ii", "Twist-cone-product-restricted"):
        report = audit(cid, n_bound=3)
        assert report.confirmed, cid


def test_refuted_claims_have_replayable_witnesses():
    for cid in EXPECTED_REFUTED:
        report = audit(cid, n_bound=3, collect_all=True)
        assert report.verdict == "Refuted"
        assert report.witnesses
        assert replay_report(report)
        for w in report.witnesses:
            assert replay_witness(cid, w)
            assert replay_witness(cid, json.loads(json.dumps(w)))


@pytest.mark.parametrize("cid", sorted(EXPECTED_REFUTED))
def test_altered_binding_does_not_replay(cid):
    witness = audit(cid, n_bound=3).witnesses[0]
    assert replay_witness(cid, witness)
    tampered = dict(witness, binding=dict(witness["binding"], detail="altered"))
    assert not replay_witness(cid, tampered)


def test_malformed_witness_is_a_usage_error():
    with pytest.raises(UsageError, match="Lem-2.2.*'elements'"):
        replay_witness("Lem-2.2", {})
    for cid in ("Thm-6.1-iii", "U-pair-law-printed"):
        witness = dict(audit(cid, n_bound=3).witnesses[0])
        del witness["binding"]
        with pytest.raises(UsageError, match=f"{cid}.*'binding'"):
            replay_witness(cid, witness)


@pytest.mark.parametrize("cid, fields, message", [
    ("U-pair-law-printed", [], "is not an object"),
    ("U-pair-law-printed", "x", "is not an object"),
    ("U-pair-law-printed", {"covers": [["x0"]]}, "is malformed"),
    ("U-pair-law-printed", {"involution": [["x0", "x1"]]}, "is malformed"),
    ("U-pair-law-printed", {"involution": {"zz": "x0"}},
     "is malformed: unknown element name 'zz'"),
    ("U-pair-law-printed", {"binding": None}, "is malformed"),
    ("Thm-6.1-iii", {"binding": None}, "binding is not an object"),
    ("U-pair-law-printed",
     lambda w: {"binding": dict(w["binding"], choices=dict(w["binding"]["choices"], zz="x0"))},
     "is malformed: choice for zz names no incomparable pair"),
])
def test_malformed_witness_json_names_the_claim(cid, fields, message):
    """The claim's first witness with ``fields`` replaced (or the fields
    that function of the witness returns), or ``fields`` itself when it
    is neither a dict nor a function."""
    witness = fields
    if isinstance(fields, dict) or callable(fields):
        witness = audit(cid, n_bound=3).witnesses[0]
        witness = dict(witness, **(fields(witness) if callable(fields) else fields))
    with pytest.raises(UsageError, match=f"^{cid} witness {message}") as exc:
        replay_witness(cid, witness)
    assert "no field" not in str(exc.value)


def test_lem11_replay_outside_its_space_is_a_domain_error():
    """An unbounded poset is outside Lem-1.1's space: replaying it gets
    ``lemma11_holds``'s DomainError, not a TypeError from a missing 0."""
    witness = {"elements": ["a", "b"], "covers": [],
               "involution": {"a": "a", "b": "b"}, "binding": {"a": "a", "b": "a"}}
    with pytest.raises(DomainError, match="requires a bounded poset"):
        replay_witness("Lem-1.1", witness)


@pytest.mark.parametrize("instance, message", [
    ({"elements": ["a", "b"], "covers": [], "involution": {"a": "b"}},
     "requires a bounded poset"),
    ({"elements": ["a", "b"], "covers": [], "involution": {"a": "a", "b": "b"}},
     "requires a bounded poset"),
    (serialize_involutive(figure("fig3")), "requires a distributive poset"),
])
def test_lem11_preconditions_are_checked_before_the_pair_scan(instance, message):
    """Lem-1.1 refuses an instance outside its space whether or not some
    pair has a one-element L(b, a'): the swapped antichain has none."""
    witness = dict(instance, binding={"a": instance["elements"][0],
                                      "b": instance["elements"][0]})
    with pytest.raises(DomainError, match=message):
        replay_witness("Lem-1.1", witness)
    with pytest.raises(DomainError, match=message):
        CLAIMS["Lem-1.1"].evaluate(involutive_from_witness(instance))


def test_unary_map_witness_must_cover_the_carrier():
    witness = {"elements": ["x0"], "covers": [], "unary_map": {},
               "binding": {"choices": {}}}
    with pytest.raises(UsageError, match="^Thm-4.2 witness is malformed: "
                                         "unary map does not cover: x0"):
        replay_witness("Thm-4.2", witness)
    witness["unary_map"] = {"x0": "x0", "zz": "x0"}
    with pytest.raises(UsageError, match="^Thm-4.2 witness is malformed: "
                                         "unknown element name 'zz'"):
        replay_witness("Thm-4.2", witness)


def test_first_witness_is_deterministic():
    a = audit("Thm-6.1-iii", n_bound=3)
    b = audit("Thm-6.1-iii", n_bound=3)
    assert a.witnesses == b.witnesses
    assert len(a.witnesses) == 1


def test_collect_all_finds_more():
    first = audit("Thm-6.1-iii", n_bound=3)
    everything = audit("Thm-6.1-iii", n_bound=3, collect_all=True)
    assert len(everything.witnesses) >= len(first.witnesses)
    assert everything.witnesses[0] == first.witnesses[0]


def test_smallest_twist_counterexample_is_two_antichain():
    report = audit("Thm-6.1-iii", n_bound=3)
    w = report.witnesses[0]
    assert len(w["elements"]) == 2
    assert w["covers"] == []  # the antichain


def test_report_to_dict_is_json_ready():
    report = audit("Lem-2.2", n_bound=3)
    encoded = json.dumps(report.to_dict(), sort_keys=True)
    assert '"Confirmed"' in encoded


def test_audit_n_bound_guard():
    with pytest.raises(DomainError):
        audit("Lem-2.2", n_bound=9)


@pytest.mark.parametrize("n_bound", [0, -3])
def test_audit_rejects_size_bound_below_1(n_bound):
    with pytest.raises(UsageError, match="size bound must be at least 1"):
        audit("Lem-2.2", n_bound=n_bound)


@pytest.mark.parametrize("cap", [0, -1])
def test_audit_rejects_cap_below_1(cap):
    with pytest.raises(UsageError, match="assignment cap must be at least 1"):
        audit("Thm-4.2", n_bound=3, assignment_cap=cap)


@pytest.mark.parametrize("claim_id", ["Directoid-roundtrip", "Lem-4.1"])
def test_audit_cap_above_maxsize_is_no_cap(claim_id):
    """A cap past ``sys.maxsize`` is above every space's count, so it acts
    as no cap: the report is the cap-1,000 one but for the cap itself."""
    huge = audit(claim_id, n_bound=3, assignment_cap=10**20).to_dict()
    want = audit(claim_id, n_bound=3, assignment_cap=1000).to_dict()
    assert huge.pop("assignment_cap") == 10**20
    del want["assignment_cap"]
    assert huge == want


def test_non_involutive_maps_fail_both_sides_on_every_table():
    """The argument that lets the map spaces skip a map (``_map_space``):
    on every assigned table, (1)/(2) hold exactly when the map is an
    antitone involution, checked for every map with n <= 4.  Without
    x'' = x it is identity (1) that fails."""
    checked = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            if not p.is_downward_directed():
                continue
            tables = [d.meet for d in itertools.islice(iter_assignments(p), 1000)]
            for unary in itertools.product(range(n), repeat=n):
                involutive = all(unary[unary[x]] == x for x in range(n))
                valid = InvolutivePoset(p, unary).check_antitone_involution().ok
                assert involutive or not valid
                for table in tables:
                    verdict = MeetDirectoid(table, inv=unary).check_identities_1_2()
                    assert verdict.ok == valid
                    if not involutive:
                        assert verdict.witness[0] == "(1)"
                    checked += 1
    assert checked > 1000


def _rank(u):
    return sum(v * len(u) ** (len(u) - 1 - i) for i, v in enumerate(u))


def _evaluated_maps(space, n_bound, cap):
    """``{poset: [maps]}`` of the maps ``space`` evaluates, after checking
    that each sits at its rank among the n^n maps of its poset with the
    poset's first ``cap`` tables, and that the items count every map of
    every directed poset."""
    offsets, total = {}, 0
    for p in iter_directed(n_bound):
        offsets[p] = total
        total += p.n ** p.n
    position, maps = 0, {p: [] for p in offsets}
    for instance, count, sampled in space.sweep(n_bound, cap):
        if instance is not None:
            ip, walk = instance
            p, unary = ip.base, ip.inv
            assert count == 1
            assert position == offsets[p] + _rank(unary)
            assert [d.meet for d in walk.tables] == [
                d.meet for d in itertools.islice(iter_assignments(p), cap)]
            signatures = [(tuple(d._order()[3]), tuple(d._order()[2]))
                          for d in walk.tables]
            first = list(dict.fromkeys(signatures))
            assert walk.group == [first.index(s) for s in signatures]
            assert sampled == (assignment_count(p) > cap)
            maps[p].append(unary)
        position += count
    assert position == total
    return maps


def _involutions(n):
    """Every involution of ``range(n)``, in product order."""
    return [u for u in itertools.product(range(n), repeat=n)
            if all(u[u[x]] == x for x in range(n))]


def _antitone_involution(p, u):
    return InvolutivePoset(p, u).check_antitone_involution().ok


def _passes_1_2(tables, u):
    """Whether the public checker finds (1)/(2) on one of ``tables``."""
    return any(MeetDirectoid(d.meet, inv=u).check_identities_1_2().ok
               for d in tables)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_unary_map_runs_are_the_involutions_in_product_order(n):
    """Lem-4.1's space evaluates, on each directed poset and in product
    order, the involutions that are antitone or pass (1)/(2) on one of
    the poset's tables, as filtering every map finds them, and its runs
    bring each poset to n^n maps.  On assigned tables the two sets
    agree: 12 maps at n <= 5 and 33 at n <= 6, of the 477 and 5,265
    involutions."""
    maps = _evaluated_maps(UNARY_MAPS, n, 3)
    for p, found in maps.items():
        tables = list(itertools.islice(iter_assignments(p), 3))
        assert found == [u for u in _involutions(p.n)
                         if _antitone_involution(p, u) or _passes_1_2(tables, u)]
    evaluated = sum(map(len, maps.values()))
    assert evaluated == {5: 12, 6: 33}.get(n, evaluated)


def test_unary_maps_evaluate_the_union_of_both_sides(monkeypatch):
    """Lem-4.1's space evaluates the antitone involutions and the walk's
    maps passing (1)/(2).  On assigned tables these agree, so with a
    stand-in table side that yields each poset's identity map, the space
    must evaluate the identity besides the antitone involutions."""
    order = _evaluated_maps(ANTITONE_MAPS, 5, 3)
    assert _evaluated_maps(UNARY_MAPS, 5, 3) == order
    monkeypatch.setattr(_IdentityWalk, "maps_passing",
                        lambda walk: [tuple(range(walk.tables[0].n))])
    assert _evaluated_maps(UNARY_MAPS, 5, 3) == {
        p: sorted(set(maps) | {tuple(range(p.n))}) for p, maps in order.items()}


def test_antitone_space_evaluates_exactly_the_antitone_involutions():
    maps = _evaluated_maps(ANTITONE_MAPS, 5, 3)
    assert sum(map(len, maps.values())) == 12
    for p, found in maps.items():
        assert found == [u for u in _involutions(p.n) if _antitone_involution(p, u)]


MAP_CHARACTERISATIONS = ("Thm-4.2", "Thm-4.3", "Thm-4.8", "Thm-4.11")


def _characterisations():
    """The four characterisations, a deliberately mismatched rung (Kleene
    order side against the pseudo-Kleene table side) that is refuted
    where a map is an antitone involution, and each one's claim over
    Lem-4.1's space instead, which the caller makes evaluate every
    involution of range(n) on every directed poset."""
    mismatched = Claim("Mismatched", "refuted", ANTITONE_MAPS,
                       _directoid_characterization("mismatched"))
    for claim in [CLAIMS[cid] for cid in MAP_CHARACTERISATIONS] + [mismatched]:
        assert claim.instance_space is ANTITONE_MAPS
        yield claim, claim._replace(instance_space=UNARY_MAPS)


@pytest.mark.parametrize("cap", [1000, 2])
@pytest.mark.parametrize("collect_all", [False, True])
def test_characterisations_match_their_sweep_over_every_involution(
        monkeypatch, cap, collect_all):
    monkeypatch.setitem(_RUNGS, "mismatched",
                        (_RUNGS["kleene"][0], _RUNGS["pk"][1]))
    # a stand-in table side: Lem-4.1's space then evaluates every involution
    monkeypatch.setattr(_IdentityWalk, "maps_passing",
                        lambda walk: _involutions(walk.tables[0].n))
    assert _evaluated_maps(UNARY_MAPS, 4, cap) == {
        p: _involutions(p.n) for p in iter_directed(4)}
    refuted = 0
    for antitone, every in _characterisations():
        for n in range(1, 6):
            got = antitone.run(n, cap, collect_all)
            want = every.run(n, cap, collect_all)
            assert got.to_dict() == want.to_dict()
            for w in want.witnesses:
                assert antitone.replay(w) and every.replay(w)
            refuted += not got.confirmed
    assert refuted > 0


def test_refuted_map_claim_counts_every_map_up_to_the_witness():
    """A claim refuted at one evaluated map counts the maps a plain
    product loop visits, up to and including the witness, in both map
    spaces.  At n <= 3 the only 3-element map either evaluates is the
    chain's reversal."""
    _check_one_map_refutation(
        UNARY_MAPS, (2, 1, 0),
        lambda p, u: (_antitone_involution(p, u)
                      or _passes_1_2(iter_assignments(p), u)))
    _check_one_map_refutation(ANTITONE_MAPS, (2, 1, 0), _antitone_involution)


def _check_one_map_refutation(space, target, evaluated):
    def evaluate(instance):
        ip, walk = instance
        if ip.inv != target:
            return None
        return {"choices": assignment_choices(walk.tables[0], ip.base)}

    claim = Claim("Synthetic", "refuted at one map", space, evaluate, 3)
    loop = [(p, u) for p in iter_directed(3)
            for u in itertools.product(range(p.n), repeat=p.n)]
    hits = [i for i, (p, u) in enumerate(loop) if u == target and evaluated(p, u)]
    first = claim.run()
    assert not first.confirmed and len(first.witnesses) == 1
    assert first.instances == 1 + hits[0]
    everything = claim.run(collect_all=True)
    assert everything.instances == len(loop) == sum(
        p.n ** p.n for p in iter_directed(3))
    assert len(everything.witnesses) == len(hits)

    witness = first.witnesses[0]
    assert witness["unary_map"] == {f"x{i}": f"x{target[i]}" for i in range(3)}
    assert claim.replay(witness)
    edited = dict(witness, unary_map=dict(witness["unary_map"], x1="x0"))
    assert not claim.replay(edited)


def test_map_witness_is_the_first_table_failing_2_across_groups():
    """Tables in two (2) groups: the assigned tables of a bounded poset
    with an antitone involution, where (2) holds, and the same tables
    with the top's row edited at one entry, where it fails though the
    order side holds.  The binding names the first failing table in
    table order, and it replays."""
    p = Poset.from_covers([f"x{i}" for i in range(6)], [
        ("x0", "x1"), ("x1", "x2"), ("x1", "x3"), ("x2", "x4"), ("x3", "x4"),
        ("x4", "x5")])
    unary = (5, 4, 2, 3, 1, 0)
    genuine = list(iter_assignments(p))
    edited = []
    for d in genuine:
        table = [list(row) for row in d.meet]
        table[5][4] = 0    # same column masks, x4 leaves lower[x5]
        edited.append(MeetDirectoid(table, labels=p.labels))
    tables = [genuine[0], edited[1], edited[0], genuine[1]]
    walk = _IdentityWalk(tables)
    assert walk.group == [0, 1, 1, 0]
    assert tables[0]._order()[3] == tables[1]._order()[3]
    choices = [assignment_choices(d, p) for d in tables]
    assert choices[1] != choices[2]

    def rebuild(witness):
        kept = [d for d, c in zip(tables, choices)
                if c == witness["binding"]["choices"]]
        return InvolutivePoset(p, unary), _IdentityWalk(kept)

    space = UNARY_MAPS._replace(sweep=lambda n_bound, cap: iter(
        [((InvolutivePoset(p, unary), walk), 1, False)]), rebuild=rebuild)
    claim = CLAIMS["Lem-4.1"]._replace(instance_space=space)
    report = claim.run(6)
    binding = {"order_side": True, "directoid_side": False, "choices": choices[1]}
    assert [w["binding"] for w in report.witnesses] == [binding]
    witness = report.witnesses[0]
    assert claim.replay(witness)
    assert not claim.replay(dict(witness, binding=dict(binding, directoid_side=True)))
    # with every table failing (2), the first one is the witness
    failing = edited[::-1]
    assert claim.evaluate((InvolutivePoset(p, unary), _IdentityWalk(failing))) == dict(
        binding, choices=assignment_choices(failing[0], p))


# sha256 over the reports of the five map claims at n <= 6, cap 1,000,
# with collect_all False then True, each with its witnesses' replays,
# and over those of a deliberately mismatched rung (Kleene order side,
# pseudo-Kleene table side) in both map spaces at caps 1,000 and 2;
# frozen from the per-table (1)/(2) scan the grouped kernel replaced.
MAP_REPORT_DIGESTS = {
    "claims": "90fb2a83bc46496af2b2bca918663ed3a39e52786aece15e277029160a04bfe3",
    "mismatched": "2ca0a50be6d8fa52a1051bc2f74634577b832cb56d3078c847c2f88e0fe45687",
}


def _report_digest(runs):
    docs = []
    for claim, cap, collect_all in runs:
        report = claim.run(6, cap, collect_all)
        doc = report.to_dict()
        doc["replays"] = [claim.replay(w) for w in report.witnesses]
        docs.append(doc)
    return hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()


def test_map_claim_reports_pinned(monkeypatch):
    claims = [CLAIMS[cid] for cid in ("Lem-4.1",) + MAP_CHARACTERISATIONS]
    assert _report_digest([(claim, 1000, collect_all) for claim in claims
                           for collect_all in (False, True)]
                          ) == MAP_REPORT_DIGESTS["claims"]
    monkeypatch.setitem(_RUNGS, "mismatched",
                        (_RUNGS["kleene"][0], _RUNGS["pk"][1]))
    mismatched = Claim("Mismatched", "refuted", ANTITONE_MAPS,
                       _directoid_characterization("mismatched"))
    assert _report_digest([
        (claim, cap, collect_all)
        for claim in (mismatched, mismatched._replace(instance_space=UNARY_MAPS))
        for cap in (1000, 2) for collect_all in (False, True)]
    ) == MAP_REPORT_DIGESTS["mismatched"]


def test_twist_audits_never_check_product_cones(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("product cones checked")
    for module in ("kleene_posets.twist", "kleene_posets.enumeration"):
        monkeypatch.setattr(importlib.import_module(module),
                            "check_product_cones", forbidden)
    for cid in ("Thm-6.1-i", "Thm-6.1-ii"):
        assert audit(cid, n_bound=3).confirmed
    assert len(audit("Thm-6.1-iii", n_bound=3, collect_all=True).witnesses) == 6


def test_roundtrips_never_build_the_induced_poset(monkeypatch):
    """Directoid-roundtrip and the CLI ``directoid`` compare each table's
    cached order view with the poset; neither builds a Poset per table."""
    def forbidden(self):
        raise AssertionError("induced poset built")
    monkeypatch.setattr(MeetDirectoid, "induced_poset", forbidden)
    assert audit("Directoid-roundtrip", n_bound=5).confirmed
    for name in ("fig1", "fig7"):
        out, err = io.StringIO(), io.StringIO()
        argv = ["directoid", str(FIXTURES / f"{name}.poset"), "--all-assignments", "50"]
        assert run_cli(argv, out, err) == 0, err.getvalue()
        assert "induces original order: yes" in out.getvalue()
        assert "induces original order: no" not in out.getvalue()


def test_map_claims_read_one_walk_per_poset(monkeypatch):
    """The four characterisations at n <= 6 (33 maps evaluated) read
    (3)-(6) through one identity walk per poset: the public (1)/(2), (3)
    and (4) checkers never run, one premise table is built per poset
    whose (4) is read, since its assigned tables pass the axioms and form
    one (2) group, and (5) and (6) run once per map.  The premise table
    is memoised, so a build is a call that finds none recorded; a memo
    hit is no build."""
    def forbidden(self, *args):
        raise AssertionError("per-table checker ran")
    for name in ("check_identities_1_2", "check_identity_3", "check_implication_4"):
        monkeypatch.setattr(MeetDirectoid, name, forbidden)
    built, ran = [], []
    premise_table = MeetDirectoid._premise_table

    def building(self):
        if premise_table.known(self) is None:
            built.append(self)
        return premise_table(self)
    monkeypatch.setattr(MeetDirectoid, "_premise_table", building)

    def counting(name, log):
        method = getattr(MeetDirectoid, name)
        monkeypatch.setattr(MeetDirectoid, name,
                            lambda self, *args: log.append(self) or method(self, *args))
    counting("check_implication_5", ran)
    counting("check_implication_6", ran)
    counts = {}
    for cid in MAP_CHARACTERISATIONS:
        del built[:], ran[:]
        assert audit(cid, n_bound=6).confirmed
        assert len(built) == len(set(map(id, built)))
        assert len(built) == len({d.induced_poset() for d in built})
        counts[cid] = len(built), len(ran)
    assert counts == {"Thm-4.2": (0, 0), "Thm-4.3": (14, 0), "Thm-4.8": (0, 33),
                      "Thm-4.11": (16, 33)}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_representatives_are_computed_once_per_size(n):
    first = enumerate_posets(n)
    assert enumerate_posets(n) is first
    assert len(_labelled(n)) == LABELED_COUNTS[n]
    assert enumerate_posets(n) is first


def test_enumerate_involutions_rejects_an_involutive_poset():
    with pytest.raises(UsageError, match="pass ip.base"):
        enumerate_involutions(figure("fig1"))


def test_isomorphic_with_pin_rejects_an_involutive_poset():
    with pytest.raises(UsageError, match="pass ip.base"):
        isomorphic_with_pin(figure("fig1"), "a", figure("fig1"), "a")


def test_isomorphic_with_pin():
    q = figure("fig8")
    assert isomorphic_with_pin(q, q.index("a"), q, q.index("a"))
    assert not isomorphic_with_pin(q, q.index("a"), q, q.index("b"))


def _ref(p):
    return RefPoset(p.labels, {(a, b) for a in p.labels for b in p.labels
                               if p.leq(a, b)})


def _strict_downs(p):
    return tuple(p._down[i] & ~(1 << i) for i in range(p.n))


def _shuffled(p, rng):
    """p with its elements moved to random indices, keeping the labels."""
    perm = list(range(p.n))
    rng.shuffle(perm)
    return _moved(p, perm)


def _moved(p, perm):
    """p with element i moved to index perm[i], keeping the labels."""
    up = [0] * p.n
    for i in range(p.n):
        for j in range(p.n):
            if p.leq(i, j):
                up[perm[i]] |= 1 << perm[j]
    return Poset(p.labels, up)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_least_labelling_matches_oracle_on_every_labelled_poset(n):
    """The oracle's least natural labelling of every labelled poset is a
    representative's sequence, every representative's is reached, the
    least labelling search finds it from every labelling, and its
    canonicity test agrees with the oracle on each naturally labelled
    one."""
    reps = {_strict_downs(p) for p in enumerate_posets(n)}
    least = set()
    for p in _labelled(n):
        ref = ref_least_natural_labelling(_ref(p))
        assert ref in reps
        least.add(ref)
        downs = _strict_downs(p)
        (seq, _, _), labelling = _least_labelling(downs)
        assert seq == ref
        assert tuple(sum(1 << labelling.index(j) for j in _bits(downs[v]))
                     for v in labelling) == ref
        if all(d >> k == 0 for k, d in enumerate(downs)):
            assert ((_least_labelling(downs, _stop_below=True) is not None)
                    == (ref == downs))
    assert least == reps


def test_relabelled_representatives_keep_their_least_labelling():
    rng = random.Random(6)
    for n in range(1, 7):
        for p in enumerate_posets(n):
            q = _shuffled(p, rng)
            assert ref_least_natural_labelling(_ref(q)) == _strict_downs(p)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_representatives_strictly_increase(n):
    seqs = [_strict_downs(p) for p in enumerate_posets(n)]
    assert len(set(seqs)) == len(seqs)
    assert all(a < b for a, b in zip(seqs, seqs[1:]))


def _down_set_children(parent):
    """The parent's strict down-masks and each down-set of it as the mask
    of a new last element, in increasing mask order."""
    downs = list(_strict_downs(parent))
    for d in range(1 << parent.n):
        if not any(downs[j] & ~d for j in _bits(d)):
            yield downs + [d]


def test_generation_tests_no_child_below_its_parents_last_mask(monkeypatch):
    """Every child whose last mask is below its parent's last fails the
    canonicity test, up to n = 7, so skipping them keeps the
    representatives; the generator tests only the others, 453 children
    at n = 6 and 2,860 at n = 7 (766 and 5,439 with the skipped ones),
    and runs the search on the 80 and 402 of them that tie at a node of
    their parent's search and fall below at none."""
    counts = {}
    for n in range(2, 8):
        children = [child for parent in _representatives(n - 1)
                    for child in _down_set_children(parent)]
        skipped = [child for child in children if child[-1] < child[-2]]
        assert all(_least_labelling(child, _stop_below=True) is None
                   for child in skipped)
        counts[n] = len(children), len(children) - len(skipped)
    assert (counts[6], counts[7]) == ((766, 453), (5439, 2860))

    want = {n: list(map(_strict_downs, _representatives(n))) for n in (6, 7)}
    tested = []

    def record(downs, *args, **kwargs):
        tested.append(list(downs))
        return _least_labelling(downs, *args, **kwargs)

    monkeypatch.setattr("kleene_posets.enumeration._least_labelling", record)
    searched = {}
    for n in (6, 7):
        del tested[:]
        assert list(map(_strict_downs, _representatives.__wrapped__(n))) == want[n]
        searched[n] = len(tested)
        assert all(child[-1] >= child[-2] for child in tested)
    assert searched == {6: 80, 7: 402}


def test_child_decision_matches_the_search():
    """Reading a child's canonicity off its parent's search nodes gives
    the canonicity search's answer on every down-set child of every
    representative up to n = 7, those below the parent's last mask
    included; nodes are shared by a parent's children, as in the
    generator."""
    decided = 0
    for n in range(2, 8):
        for parent in _representatives(n - 1):
            downs, nodes = list(_strict_downs(parent)), None
            for child in _down_set_children(parent):
                nodes = nodes or _search_nodes(downs)
                assert (_keeps_child(downs, nodes, child[-1])
                        == (_least_labelling(child, _stop_below=True) is not None)), child
                decided += 1
    assert decided == 6377      # 766 at n = 6, 5,439 at n = 7


def test_a_tie_the_search_rejects(monkeypatch):
    """Up to n = 7 every child that ties without falling below is least,
    so no smaller test tells a tie searched from a tie kept.  The first
    that is not comes at n = 8: a new element above x0, x2 and x5 of the
    parent below ties and is searched, and the search drops it."""
    downs, d = [0, 0, 0, 1, 2, 4, 11], 0b100101
    searched = []

    def record(child, *args, **kwargs):
        searched.append(child)
        return _least_labelling(child, *args, **kwargs)

    monkeypatch.setattr("kleene_posets.enumeration._least_labelling", record)
    assert _keeps_child(downs, _search_nodes(downs), d) is False
    assert searched == [downs + [d]]


def test_search_nodes_of_an_antichain_are_every_partial_labelling():
    """No twin skip: the three-element antichain's search lists each of
    its 1 + 3 + 6 + 6 partial labellings, the six full ones as leaves."""
    nodes = _search_nodes([0, 0, 0])
    assert len(nodes) == 16
    assert len({(placed, position) for placed, position, _ in nodes}) == 16
    assert sum(target is None for _, _, target in nodes) == 6


def test_representatives_are_the_posets_their_constructor_builds():
    """The generator builds each representative without the constructor:
    every slot but the verdict memo holds what the constructor, with its
    order checks, puts there."""
    for n in range(1, 7):
        for p in enumerate_posets(n):
            q = Poset(p.labels, p._up)
            assert all(getattr(p, name) == getattr(q, name)
                       for name in Poset.__slots__ if name != "_memo")


# OEIS A001035, posets on n labelled elements
LABELLED_POSETS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231, 6: 130023, 7: 6129859}


def _labelled_poset_count(n):
    """Σ n!/|Aut(P)| over the representatives on n elements, with
    automorphisms counted by the oracle: each class contributes its
    number of labellings."""
    return sum(math.factorial(n) // count_automorphisms(p._up, p._down)
               for p in enumeration._representatives(n))


@pytest.mark.parametrize("n", sorted(LABELLED_POSETS))
def test_representatives_cover_every_labelled_poset(n):
    assert _labelled_poset_count(n) == LABELLED_POSETS[n]


@pytest.mark.parametrize("tamper", ["drop", "duplicate"])
def test_labelled_count_catches_a_dropped_or_duplicated_representative(
        monkeypatch, tamper):
    reps = _representatives(5)
    tampered = (reps[:7] + reps[8:] if tamper == "drop"
                else reps[:8] + reps[7:])
    monkeypatch.setattr(enumeration, "_representatives", lambda n: tampered)
    assert _labelled_poset_count(5) != LABELLED_POSETS[5]


def test_generator_runs_past_the_public_bound():
    assert len(_representatives(7)) == 2045    # OEIS A000112
    with pytest.raises(DomainError):
        enumerate_posets(7)


def test_isomorphic_with_pin_matches_oracle():
    rng = random.Random(4)
    for n in range(1, 5):
        reps = enumerate_posets(n)
        posets = reps + tuple(_shuffled(p, rng) for p in reps)
        refs = [_ref(p) for p in posets]
        for p, rp in zip(reps, refs):
            for q, rq in zip(posets, refs):
                for a, b in itertools.product(range(n), repeat=2):
                    assert (isomorphic_with_pin(p, a, q, b)
                            == ref_isomorphic_with_pin(rp, p.labels[a],
                                                       rq, q.labels[b]))
    assert not isomorphic_with_pin(reps[0], 0, enumerate_posets(3)[0], 0)


def _shuffled_involutive(ip, rng):
    """ip with its elements moved to random indices, the map moved along."""
    perm = list(range(ip.n))
    rng.shuffle(perm)
    return _moved_involutive(ip, perm)


def _moved_involutive(ip, perm):
    """ip with element i moved to index perm[i], the map moved along."""
    inv = [0] * ip.n
    for i in range(ip.n):
        inv[perm[i]] = perm[ip.inv[i]]
    return InvolutivePoset(_moved(ip.base, perm), inv)


def _assert_isomorphism(f, ip, iq):
    """f is a bijection ip -> iq preserving the order both ways and
    commuting with the maps."""
    assert sorted(f) == list(range(iq.n))
    for x, y in itertools.product(range(ip.n), repeat=2):
        assert ip.leq(x, y) == iq.leq(f[x], f[y])
    assert all(f[ip.inv[x]] == iq.inv[f[x]] for x in range(ip.n))


def _ref_isomorphic(ip, iq):
    maps = [{r.labels[i]: r.labels[r.inv[i]] for i in range(r.n)} for r in (ip, iq)]
    return ref_isomorphic_with_pin(_ref(ip.base), None, _ref(iq.base), None, *maps)


def test_find_isomorphism_with_maps_matches_oracle():
    """Every pair of involutive instances up to n = 4, each also against a
    seeded shuffle of every instance, and at n = 5 each instance against
    its own shuffle: an isomorphism is found exactly when brute force
    finds one, and each one returned is an isomorphism."""
    rng = random.Random(17)

    def check(ip, iq):
        f = find_isomorphism(ip.base, iq.base, ip.inv, iq.inv)
        assert (f is not None) == _ref_isomorphic(ip, iq)
        if f is not None:
            _assert_isomorphism(f, ip, iq)

    small = list(iter_involutive(4))
    shuffled = [_shuffled_involutive(ip, rng) for ip in small]
    for ip in small:
        for iq in small + shuffled:
            check(ip, iq)
    for ip in _involutive_representatives(5):
        check(ip, _shuffled_involutive(ip, rng))


def test_find_isomorphism_with_any_total_map():
    """Maps that are not involutions too: each poset up to n = 4 with each
    total map is isomorphic to a seeded shuffle of itself, and up to n = 3
    the shuffled poset with every map agrees with brute force."""
    rng = random.Random(5)
    for n in range(1, 5):
        for p in enumerate_posets(n):
            for unary in itertools.product(range(n), repeat=n):
                ip = InvolutivePoset(p, unary)
                iq = _shuffled_involutive(ip, rng)
                f = find_isomorphism(ip.base, iq.base, ip.inv, iq.inv)
                assert f is not None
                _assert_isomorphism(f, ip, iq)
                if n > 3:
                    continue
                for other in itertools.product(range(n), repeat=n):
                    ir = InvolutivePoset(iq.base, other)
                    f = find_isomorphism(ip.base, ir.base, ip.inv, ir.inv)
                    assert (f is not None) == _ref_isomorphic(ip, ir)


@pytest.mark.parametrize("covers, unary", [
    ((), (1, 0, 0, 4, 3)),
    (((0, 3), (0, 4), (1, 3), (1, 4)), (4, 3, 3, 1, 0)),
], ids=["antichain", "two-levels"])
def test_find_isomorphism_when_a_map_hits_an_element_twice(covers, unary):
    """Two twin ties with twin mates are not exchanged by an automorphism
    when a third element maps onto one of the four, so neither may be
    skipped for the other: every relabelling is still found isomorphic."""
    ip = InvolutivePoset(Poset.from_covers(tuple(f"e{i}" for i in range(5)), covers),
                         unary)
    for perm in itertools.permutations(range(5)):
        iq = _moved_involutive(ip, perm)
        f = find_isomorphism(ip.base, iq.base, ip.inv, iq.inv)
        assert f is not None
        _assert_isomorphism(f, ip, iq)


@pytest.mark.parametrize("covers", [(), tuple((2 * i, 2 * i + 1) for i in range(6))],
                         ids=["antichain", "chains"])
def test_find_isomorphism_on_symmetric_inputs(covers):
    """A 12-element antichain with a fixed-point-free involution (46,080
    automorphisms) and six 2-element chains with the map swapping each
    chain's ends (720), each against a shuffled copy.  The search stays
    small only while it skips ties that an automorphism exchanges."""
    p = Poset.from_covers(tuple(f"e{i}" for i in range(12)), covers)
    ip = InvolutivePoset(p, tuple(i ^ 1 for i in range(12)))
    iq = _shuffled_involutive(ip, random.Random(12))
    f = find_isomorphism(ip.base, iq.base, ip.inv, iq.inv)
    assert f is not None
    _assert_isomorphism(f, ip, iq)


# sha256 of the JSON list of strict down-mask sequences of
# ``_representatives(n)``; the n = 8 digest is checked in CI.
REPRESENTATIVE_DIGESTS = {
    1: "db407f11d7ede59abaab0e98e097ff2dae10a048207b801745d7199ef19c2387",
    2: "a6cea289ce74ee858317f8c04a3f46f86555fc02fdb98b80ae216ec10789e825",
    3: "91ef6551ddab534fe458987e7fba50bfcdf9c39ae435145022da6db14a80d8a4",
    4: "a67805e288d995fc938404d1b8e95258157696986087fcc2cb3efafbb0ba5e8d",
    5: "683fa9848f867e9c7f9c5d777c700250a89a55ba1efc83894897aec4d24b2790",
    6: "c11146788b1c45d6cea2273b97442c6d89fea0bad59b5cb6b01b2279cb38a4c3",
    7: "1b36f826e190eca34ac281ca9680422e195c7e98444376596a7041f346363ca6",
}


@pytest.mark.parametrize("n", sorted(REPRESENTATIVE_DIGESTS))
def test_representatives_are_pinned(n):
    seqs = json.dumps([_strict_downs(p) for p in _representatives(n)])
    assert hashlib.sha256(seqs.encode()).hexdigest() == REPRESENTATIVE_DIGESTS[n]


def test_assigned_sweeps_build_one_base_table_per_source(monkeypatch):
    """The count behind ``sampled``, the cells and the lazy slice of
    tables come from one base table per source, and the slice builds only
    the tables the evaluator reads: none where the cells decide the claim
    (Directoid-roundtrip, and Derived-set-laws on its 33 sources), up to
    the first witness otherwise.  Tables are counted where every table is
    built, checked by the constructor or not (``MeetDirectoid._fill``)."""
    from kleene_posets import directoid
    built = {"base": 0, "table": 0}
    base_table, fill = directoid._base_table, MeetDirectoid._fill

    def count_base(p):
        built["base"] += 1
        return base_table(p)

    def count_table(self, *args):
        built["table"] += 1
        fill(self, *args)
    monkeypatch.setattr(directoid, "_base_table", count_base)
    monkeypatch.setattr(MeetDirectoid, "_fill", count_table)
    directed = sum(1 for _ in iter_directed(6))
    for claim, want in (("Directoid-roundtrip", {"base": directed, "table": 0}),
                        ("Derived-set-laws", {"base": 33, "table": 0}),
                        # two sources, and the witness's choices read one more
                        ("U-pair-law-printed", {"base": 3, "table": 2})):
        built.update(base=0, table=0)
        audit(claim, n_bound=6)
        assert built == want
    # all_assignments counts its space and builds it from one base table;
    # a chain has no incomparable pair, and so exactly one table
    for source, tables in ((figure("fig3"), 4),
                           (Poset.from_covers("abc", [("a", "b"), ("b", "c")]), 1)):
        built.update(base=0, table=0)
        assert len(all_assignments(source)) == tables
        assert built == {"base": 1, "table": tables}


# -- the assigned claims decided on candidate cells ---------------------------

_CELL_CLAIMS = ("Directoid-roundtrip", "Derived-set-laws")


def _walked(claim_id):
    """The claim with its instances stripped of their cells, so that the
    evaluator walks every table, as it does on a replay."""
    claim = CLAIMS[claim_id]
    space = claim.instance_space

    def sweep(n_bound, cap):
        for (source, tables, _), count, sampled in space.sweep(n_bound, cap):
            yield (source, tables, None), count, sampled
    return claim._replace(instance_space=space._replace(sweep=sweep))


@pytest.mark.parametrize("claim_id", _CELL_CLAIMS)
def test_cells_decide_as_the_table_walk_on_every_instance(monkeypatch, claim_id):
    """Every directed poset with n <= 7 (Directoid-roundtrip), and every
    bounded involutive poset with n <= 7 under each antitone involution
    (Derived-set-laws): the cells lie in their cones, so the evaluator
    reads no table, and the walk over every capped table agrees; the
    reports are identical.  The bound is raised in this process only."""
    monkeypatch.setattr("kleene_posets.enumeration.ENUMERATION_BOUND", 7)
    claim = CLAIMS[claim_id]
    instances = tables = 0
    for (source, assigned, cells), _, _ in claim.instance_space.sweep(7, 1024):
        assert enumeration._decided_on_cells((source, assigned, cells))
        assert claim.evaluate((source, iter(()), cells)) is None
        assigned = list(assigned)
        assert claim.evaluate((source, assigned, None)) is None
        instances += 1
        tables += len(assigned)
    assert (instances, tables) == {"Directoid-roundtrip": (406, 11728),
                                   "Derived-set-laws": (84, 143)}[claim_id]
    assert claim.run(7) == _walked(claim_id).run(7)


def _edited_base(edit):
    """``directoid._base_table`` with ``edit(p, table, pairs)`` applied to
    each base table it builds; an edit may leave a poset as it is."""
    from kleene_posets import directoid
    base_table = directoid._base_table

    def edited(p):
        table, pairs = base_table(p)
        edit(p, table, pairs)
        return table, pairs
    return edited


def _prepend_x(p, table, pairs):
    if pairs:
        (x, y), cands = pairs[0]
        pairs[0] = (x, y), (x,) + cands


def _append_outside(p, table, pairs):
    for k, ((x, y), cands) in enumerate(pairs):
        outside = [z for z in range(p.n) if z not in (x, y)
                   and not (p._down[x] & p._down[y]) >> z & 1]
        if outside:
            pairs[k] = (x, y), cands + (outside[-1],)
            return


def _raise_comparable(p, table, pairs):
    """The first comparable cell x < y with x not the least element now
    holds the least element on both sides."""
    for x, y in itertools.combinations(range(p.n), 2):
        if p._up[x] >> y & 1 and x != 0 and p._down[x] & 1:
            table[x][y] = table[y][x] = 0
            return


def _edit_diagonal(p, table, pairs):
    if p.n > 1:
        table[p.n - 1][p.n - 1] = 0


def _one_sided(p, table, pairs):
    """The first comparable cell x < y with x not the least element holds
    the least element on one side only."""
    for x, y in itertools.combinations(range(p.n), 2):
        if p._up[x] >> y & 1 and x != 0 and p._down[x] & 1:
            table[y][x] = 0
            return


@pytest.mark.parametrize("claim_id", _CELL_CLAIMS)
@pytest.mark.parametrize("edit", [_prepend_x, _append_outside, _raise_comparable,
                                  _edit_diagonal, _one_sided],
                         ids=["x-itself", "outside-the-cone", "comparable-cell",
                              "diagonal", "one-sided"])
def test_edited_base_tables_fall_back_to_the_table_walk(monkeypatch, claim_id, edit):
    """A base table whose candidates hold x itself or an element outside
    L(x) ∩ L(y), or whose comparable or diagonal cells are edited, fails
    the cell check, so the evaluator walks the tables: every report
    equals the walk's, which finds witnesses, and each witness replays
    (on the edited base table, which its rebuild reads too)."""
    from kleene_posets import directoid
    monkeypatch.setattr(directoid, "_base_table", _edited_base(edit))
    for n_bound in (4, 5):
        report = audit(claim_id, n_bound=n_bound, collect_all=True)
        assert report == _walked(claim_id).run(n_bound, collect_all=True)
        assert report.witnesses
        assert replay_report(report)


def test_a_map_that_is_no_antitone_involution_falls_back():
    """Derived-set-laws decides on the cells only under an antitone
    involution: under the identity map of a 2-chain, an involution that
    is not antitone, it walks the tables and returns their failure; under
    a map that is not involutive, the walk's join table raises."""
    from kleene_posets.directoid import _capped_assignments
    evaluate = CLAIMS["Derived-set-laws"].evaluate
    chain = Poset.from_covers("ab", [("a", "b")])
    ip = InvolutivePoset(chain, (0, 1))
    _, cells, tables = _capped_assignments(ip, 1024)
    want = evaluate((ip, list(iter_assignments(ip)), None))
    assert want == {"choices": {}, "detail": "{z join a} != U(a)"}
    assert evaluate((ip, tables, cells)) == want
    flat = InvolutivePoset(chain, (0, 0))
    _, cells, tables = _capped_assignments(flat, 1024)
    with pytest.raises(UsageError, match="involutive"):
        evaluate((flat, tables, cells))


def test_a_replay_evaluates_the_table_it_is_given(monkeypatch):
    """A Directoid-roundtrip witness rebuilds one table and evaluates it as
    given, never through its poset's cells, which all lie in their cones
    here.  With the rebuild handing back a hand-edited table (a ⊓ b = b
    on one side), the witness naming that table's failure replays; the
    same witness on the true table does not."""
    p = Poset.from_covers("abc", [("a", "b"), ("a", "c")])
    witness = serialize_poset(p)
    witness["binding"] = {"choices": {"b,c": "a"}}
    assert not replay_witness("Directoid-roundtrip", witness)
    rebuild = enumeration.directoid_from_choices

    def hand_edited(source, choices):
        meet = [list(row) for row in rebuild(source, choices).meet]
        meet[0][1] = 1
        return MeetDirectoid(meet, labels=source.labels)
    monkeypatch.setattr(enumeration, "directoid_from_choices", hand_edited)
    assert replay_witness("Directoid-roundtrip", witness)
