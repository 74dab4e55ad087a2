"""Residuated operations odot / arrow and their axioms.

Operator values are cross-checked pair-by-pair against the set-based
oracle; the adjointness case counts and the fig6 adjointness failure are
frozen pins.
"""

import itertools

import pytest

from kleene_posets import (DomainError, ResiduatedStructure, check_condition7,
                           enumerate_posets, figure)
from kleene_posets.involution import InvolutivePoset
from kleene_posets.poset import Verdict

from oracles import RefInvolutive, RefPoset, ref_involutions

BOUNDED_FIGS = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]


def ref_of(ip):
    p = ip.base
    covers = [(p.labels[a], p.labels[b]) for a, b in p.covers()]
    prime = {ip.labels[i]: ip.labels[ip.inv[i]] for i in range(ip.n)}
    return RefInvolutive.build(list(p.labels), covers, prime)


@pytest.mark.parametrize("name", BOUNDED_FIGS)
def test_operator_tables_match_oracle(name):
    ip = figure(name)
    r = ResiduatedStructure(ip)
    ref = ref_of(ip)
    for x, y in itertools.product(range(ip.n), repeat=2):
        lx, ly = ip.labels[x], ip.labels[y]
        assert set(r.odot(x, y).labels) == ref.odot(lx, ly), (lx, ly)
        assert set(r.arrow(x, y).labels) == ref.arrow(lx, ly), (lx, ly)


def test_fig7_pinned_values():
    ip = figure("fig7")
    r = ResiduatedStructure(ip)
    assert set(r.arrow(ip.index("b"), ip.index("a")).labels) == \
        {"b'", "a'", "1"}
    assert r.odot(ip.index("0"), ip.index("1")).labels == ("0",)
    assert r.arrow(ip.index("0"), ip.index("0")).labels == ("1",)


def test_fig7_all_axioms_and_case_counts():
    r = ResiduatedStructure(figure("fig7"))
    rep = r.verify_kleene_residuated()
    assert rep.zero_absorbing.ok
    assert rep.commutativity.ok
    assert rep.unit.ok
    assert rep.associativity.ok
    assert rep.adjointness.ok
    assert rep.all_ok
    assert dict(rep.case_counts) == \
        {1: 652, 2: 468, 3: 468, 4: 116, 5: 156, 6: 91, 7: 793}
    assert sum(rep.case_counts.values()) == 14 ** 3


def test_all_seven_cases_hit_on_fig7():
    r = ResiduatedStructure(figure("fig7"))
    seen = {r.adjointness_case(a, b, c)
            for a, b, c in itertools.product(range(14), repeat=3)}
    assert seen == {1, 2, 3, 4, 5, 6, 7}


def test_fig6_condition7_holds_but_adjointness_fails():
    ip = figure("fig6")
    r = ResiduatedStructure(ip)
    assert r.check_condition7().ok
    assert check_condition7(ip).ok
    rep = r.verify_kleene_residuated()
    assert not rep.adjointness.ok
    assert rep.adjointness.witness == \
        (ip.index("c"), ip.index("c"), ip.index("d"))
    assert rep.adjointness.detail == \
        "(c, c, d): c odot c = {0, a, b, c} !<= d but c <= c -> d = {b', a', 1}"


def test_strict_figures_fully_residuated():
    """Strictness is sufficient for the adjoint pair; fig1 (Kleene,
    non-strict) happens to satisfy it as well."""
    for name in ("fig4", "fig7", "fig1"):
        rep = ResiduatedStructure(figure(name)).verify_kleene_residuated()
        assert rep.all_ok, name


def test_adjointness_can_fail_without_strictness():
    """fig5 is a Kleene algebra but not strict, and adjointness fails;
    fig2/fig3 are only pseudo-Kleene and fail as well."""
    ip = figure("fig5")
    rep = ResiduatedStructure(ip).verify_kleene_residuated()
    assert not rep.adjointness.ok
    assert rep.adjointness.witness == \
        (ip.index("c"), ip.index("b'"), ip.index("a"))
    assert rep.adjointness.detail == \
        "(c, b', a): c odot b' = {0, a, b, c} !<= a but c <= b' -> a = {c, b', a', 1}"
    for name in ("fig2", "fig3"):
        rep = ResiduatedStructure(figure(name)).verify_kleene_residuated()
        assert not rep.all_ok, name


def test_theorem54_tiers_fig7():
    r = ResiduatedStructure(figure("fig7"))
    t = r.theorem54_checks()
    assert set(t.items) == {"i", "ii", "iii", "iv", "v"}
    for key, item in t.items.items():
        assert item.status == "pass", key
    assert t.items["i"].tier == "bounded antitone involution"
    assert t.items["iii"].tier == "condition (7)"
    assert t.items["v"].tier == "strict Kleene"
    assert t.condition7.ok
    assert t.strict_kleene
    assert not t.violations


def test_theorem54_tier_gating():
    """fig1 satisfies the base-tier dualities; the strict-Kleene tier is
    skipped because fig1 is not strict."""
    t = ResiduatedStructure(figure("fig1")).theorem54_checks()
    assert t.items["i"].status == "pass"
    assert t.items["ii"].status == "pass"
    assert t.items["v"].status == "skipped"
    assert not t.strict_kleene


def test_condition7_fails_where_atoms_meet_at_zero():
    ip = figure("fig1")  # L(a, b) = {0} with a, b nonzero
    v = ResiduatedStructure(ip).check_condition7()
    assert not v.ok


def test_zero_absorbing_everywhere():
    for name in BOUNDED_FIGS:
        assert ResiduatedStructure(figure(name)).check_zero_absorbing().ok


def test_odot_sets_and_empty_family_flag():
    ip = figure("fig4")
    r = ResiduatedStructure(ip)
    full, flagged = r.odot_sets_flagged([], ["a"])
    assert flagged
    assert full.labels == ip.labels
    got, flagged = r.odot_sets_flagged(["b"], ["b'"])
    assert not flagged
    assert set(got.labels) == set(r.odot(ip.index("b"), ip.index("b'")).labels)
    # every pair of nonempty sets against the oracle's intersection
    ref = ref_of(ip)
    subsets = [s for k in range(1, ip.n + 1) for s in itertools.combinations(ip.labels, k)]
    for a, b in itertools.product(subsets, repeat=2):
        got, flagged = r.odot_sets_flagged(a, b)
        want = set.intersection(*(ref.odot(x, y) for x in a for y in b))
        assert (set(got.labels), flagged) == (want, False), (a, b)


def test_requires_bounds():
    with pytest.raises(DomainError):
        ResiduatedStructure(figure("fig9"))
    with pytest.raises(DomainError):
        check_condition7(figure("fig9"))


def test_requires_involutive_poset():
    with pytest.raises(DomainError):
        ResiduatedStructure(figure("fig8"))


def test_condition7_requires_involutive_poset():
    with pytest.raises(DomainError, match=r"condition \(7\)"):
        check_condition7(figure("fig8"))


# -- associativity, adjointness and the case tally against the oracle ---------

def _bounded_involutive(max_n):
    """Every bounded poset with n <= max_n and every antitone involution
    of it, with its oracle twin."""
    for n in range(1, max_n + 1):
        for p in enumerate_posets(n):
            if None in p.bounds():
                continue
            base = RefPoset.from_covers(
                list(p.labels), [(p.labels[a], p.labels[b]) for a, b in p.covers()])
            for perm in ref_involutions(base):
                prime = {p.labels[i]: p.labels[perm[i]] for i in range(n)}
                yield (InvolutivePoset(p, perm),
                       RefInvolutive(base.elements, base.leq_pairs, prime))


def _as_labels(p, verdict):
    return (True, None) if verdict.ok else \
        (False, tuple(p.labels[i] for i in verdict.witness))


def _assert_residuation_matches_oracle(ip, ref):
    rep = ResiduatedStructure(ip).verify_kleene_residuated()
    assert _as_labels(ip.base, rep.associativity) == ref.associativity()
    assert _as_labels(ip.base, rep.adjointness) == ref.adjointness()
    assert rep.case_counts == ref.adjointness_cases()


def test_residuation_matches_oracle_on_small_bounded_posets():
    """Every bounded poset with n <= 5 and every antitone involution: the
    same first associativity and adjointness witnesses and case tally."""
    seen = 0
    for ip, ref in _bounded_involutive(5):
        _assert_residuation_matches_oracle(ip, ref)
        seen += 1
    assert seen == 12


@pytest.mark.parametrize("name", ["fig2", "fig5", "fig6", "fig7"])
def test_residuation_matches_oracle_on_figures(name):
    ip = figure(name)
    _assert_residuation_matches_oracle(ip, ref_of(ip))


def test_fig6_case_counts_pinned():
    rep = ResiduatedStructure(figure("fig6")).verify_kleene_residuated()
    assert rep.case_counts == {1: 731, 2: 459, 3: 459, 4: 111, 5: 156, 6: 86, 7: 742}


@pytest.mark.parametrize("x, y, value, witness, detail", [
    ("a", "b", "1", ("a", "a", "b"),
     "(a odot a) odot b = {0} != a odot (a odot b) = {0, a}"),
    ("1", "0", "a", ("1", "0", "0"),
     "(1 odot 0) odot 0 = {0} != 1 odot (0 odot 0) = {a}"),
])
def test_first_associativity_failure_on_an_edited_table(x, y, value, witness, detail):
    """Associativity holds on every constructed structure (each x ⊙ y
    holds 0, and 0 ⊙ z = {0}, so both sides are {0}).  Setting one entry
    x ⊙ y of fig4's table to {value} breaks it; the second edit also
    breaks commutativity, so the right side must read the row of x.
    The first failing triple, its detail and the oracle agree."""
    ip = figure("fig4")
    r = ResiduatedStructure(ip)
    odot = [list(row) for row in r._odot]
    odot[ip.index(x)][ip.index(y)] = 1 << ip.index(value)
    object.__setattr__(r, "_odot", tuple(tuple(row) for row in odot))    # past immutability
    rep = r.verify_kleene_residuated()
    table = ref_of(ip).odot_table()
    table[(x, y)] = {value}
    assert _as_labels(ip.base, rep.associativity) == \
        ref_of(ip).associativity(table) == (False, witness)
    assert rep.associativity.detail == detail


# -- the pair checks and Theorem 5.4 against the oracle -----------------------

PAIR_AXIOMS = ("zero_absorbing", "commutativity", "unit")


def _pair_checks(r):
    """Labelled (ok, first witness) of the pair axioms, and (status,
    (ok, first witness) or None) of each Theorem 5.4 item."""
    rep = r.verify_kleene_residuated()
    items = r.theorem54_checks().items
    return ({name: _as_labels(r.p, getattr(rep, name)) for name in PAIR_AXIOMS},
            {k: (item.status,
                 None if item.verdict is None else _as_labels(r.p, item.verdict))
             for k, item in items.items()})


def _oracle_pair_checks(ref, odot=None, arrow=None):
    t54 = ref.theorem54(odot, arrow)
    return ({name: getattr(ref, name)(odot) for name in PAIR_AXIOMS},
            {k: ("skipped" if v is None else "pass" if v[0] else "fail", v)
             for k, v in t54.items()})


def test_pair_checks_match_oracle_on_bounded_posets():
    """Every bounded poset with n <= 6 and every antitone involution:
    the same statuses and first witnesses for zero absorption,
    commutativity, unit and Theorem 5.4 (i)-(v)."""
    statuses = set()
    seen = 0
    for ip, ref in _bounded_involutive(6):
        axioms, items = _pair_checks(ResiduatedStructure(ip))
        assert (axioms, items) == _oracle_pair_checks(ref), ip.labels
        statuses |= {(k, status) for k, (status, _) in items.items()}
        seen += 1
    assert seen == 33
    assert {("iii", "skipped"), ("iii", "pass"), ("v", "skipped"),
            ("v", "pass")} <= statuses


def _scanned_theorem54(r):
    """Theorem 5.4 (i)-(v) by the per-pair scan the row masks replaced,
    each a first failure in row-major order with its detail."""
    p, inv, lab, n = r.p, r.ip.inv, r.p.labels, r.p.n
    odot, arrow, up, down = r._odot, r._arrow, p._up, p._down
    zero, one = 1 << r.bottom, 1 << r.top

    def primed(mask):
        return sum(1 << inv[z] for z in range(n) if mask >> z & 1)

    laws = {
        "i": (lambda a, b: odot[a][b] != primed(arrow[a][inv[b]]),
              lambda a, b: f"{lab[a]} odot {lab[b]} != ({lab[a]} -> {lab[b]}')'"),
        "ii": (lambda a, b: arrow[a][b] != primed(odot[a][inv[b]]),
               lambda a, b: f"{lab[a]} -> {lab[b]} != ({lab[a]} odot {lab[b]}')'"),
        "iii": (lambda a, b: (odot[a][b] == zero) != bool(up[a] >> inv[b] & 1),
                lambda a, b: f"({lab[a]} odot {lab[b]} = {{0}}) does not match "
                             f"{lab[a]} <= {lab[b]}'"),
        "iv": (lambda a, b: (arrow[a][b] == one) != bool(up[a] >> b & 1),
               lambda a, b: f"({lab[a]} -> {lab[b]} = {{1}}) does not match "
                            f"{lab[a]} <= {lab[b]}"),
        "v": (lambda a, b: a != b and up[a] >> b & 1 and down[inv[a]] & down[b] == zero,
              lambda a, b: f"{lab[a]} <= {lab[b]} and L({lab[a]}', {lab[b]}) = {{0}} "
                           f"but {lab[a]} != {lab[b]}"),
    }
    out = {}
    for key, (fails, detail) in laws.items():
        first = next(((a, b) for a, b in itertools.product(range(n), repeat=2)
                      if fails(a, b)), None)
        out[key] = Verdict(True) if first is None else Verdict(False, first, detail(*first))
    return out


def _edited_fig4_structures():
    """fig4's structure with one entry of its odot or arrow table set to
    {0} or {1}, each way that changes the entry."""
    ip = figure("fig4")
    for attr in ("_odot", "_arrow"):
        for x, y, value in itertools.product(range(ip.n), range(ip.n), ip.bounds()):
            r = ResiduatedStructure(ip)
            rows = [list(row) for row in getattr(r, attr)]
            if rows[x][y] != 1 << value:
                rows[x][y] = 1 << value
                object.__setattr__(r, attr, tuple(tuple(row) for row in rows))
                yield r


def test_theorem54_rows_match_the_pair_scan():
    """On every bounded antitone involution with n <= 6 and on fig4's
    edited tables: each active item has the per-pair scan's verdict,
    witness and detail, and (ii) fails at (a, b) exactly where (i) fails
    at (a, b')."""
    structures = [ResiduatedStructure(ip) for ip, _ in _bounded_involutive(6)]
    structures += list(_edited_fig4_structures())
    failing = set()
    for r in structures:
        scanned = _scanned_theorem54(r)
        for key, item in r.theorem54_checks().items.items():
            if item.verdict is not None:
                assert item.verdict == scanned[key], (r.p.labels, key)
                failing |= {key} if not item.verdict.ok else set()
    assert failing == {"i", "ii", "iii", "iv"}


def test_pair_checks_match_oracle_on_edited_tables():
    """Setting one entry of fig4's ⊙ or → table to {0} or {1}: every
    first failure of the pair axioms and of Theorem 5.4 (i)-(iv), with
    its status, agrees with the oracle on the same edited table."""
    ip = figure("fig4")
    ref = ref_of(ip)
    failing = set()
    for attr, table_of in (("_odot", ref.odot_table), ("_arrow", ref.arrow_table)):
        for x, y, value in itertools.product(ip.labels, ip.labels, ("0", "1")):
            r = ResiduatedStructure(ip)
            rows = [list(row) for row in getattr(r, attr)]
            if rows[ip.index(x)][ip.index(y)] == 1 << ip.index(value):
                continue
            rows[ip.index(x)][ip.index(y)] = 1 << ip.index(value)
            object.__setattr__(r, attr, tuple(tuple(row) for row in rows))
            edited = table_of()
            edited[(x, y)] = {value}
            tables = {"_odot": None, "_arrow": None, attr: edited}
            axioms, items = _pair_checks(r)
            assert (axioms, items) == _oracle_pair_checks(
                ref, tables["_odot"], tables["_arrow"]), (attr, x, y, value)
            failing |= {name for name, (ok, _) in axioms.items() if not ok}
            failing |= {k for k, (status, _) in items.items() if status == "fail"}
    assert failing == set(PAIR_AXIOMS) | {"i", "ii", "iii", "iv"}
