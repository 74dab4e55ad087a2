"""The twist construction over a pivot, checked against the pair oracle."""

import importlib
import itertools

import pytest

from kleene_posets import (DomainError, UsageError, audit_theorem61, classify,
                           enumerate_posets, figure, twist, twist_embedding)
from kleene_posets.enumeration import CLAIMS, Group
from kleene_posets.involution import InvolutivePoset
from kleene_posets.twist import (_part_i, _twist_kleene, check_embedding,
                                 check_product_cones)

from oracles import (RefPoset, ref_product_cone_failure, ref_twist_carrier,
                     ref_twist_leq)

# The package attribute ``twist`` is the function, not this module.
twist_module = importlib.import_module("kleene_posets.twist")


def ref_of(p):
    covers = [(p.labels[a], p.labels[b]) for a, b in p.covers()]
    return RefPoset.from_covers(list(p.labels), covers)


# One pivot per fixture; the cone tests below add fig7's two largest twists.
FIXTURE_PIVOTS = [
    ("fig1", "a'"), ("fig2", "c"), ("fig3", "a"), ("fig4", "b"),
    ("fig5", "a"), ("fig6", "c"), ("fig7", "0"), ("fig8", "b"),
    ("fig9", "(b,c)"),
]


def _plain(name):
    q = figure(name)
    return getattr(q, "base", q)


def _assert_carrier_matches_oracle(q, pivot):
    t = twist(q, pivot)
    want = ref_twist_carrier(ref_of(q), q.labels[t.pivot])
    assert {(q.labels[x], q.labels[y]) for x, y in t.pairs} == set(want)
    assert set(t.result.labels) == {f"({x},{y})" for x, y in want}
    return t


def _assert_order_matches_oracle(q, pivot):
    """The construction and the cone check share the coordinate masks, so
    this pair-by-pair oracle is what guards the construction."""
    t = twist(q, pivot)
    ref = ref_of(q)
    pairs = [(q.labels[x], q.labels[y]) for x, y in t.pairs]
    r = t.result.base
    for (i, a), (j, b) in itertools.product(enumerate(pairs), repeat=2):
        assert r.leq(i, j) == ref_twist_leq(ref, a, b), (q, pivot, a, b)


def test_carrier_matches_oracle_fig8():
    t = _assert_carrier_matches_oracle(figure("fig8"), "a")
    assert t.n == 13


def test_order_matches_oracle_fig8():
    _assert_order_matches_oracle(figure("fig8"), "a")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_carrier_and_order_match_oracle_at_every_pivot(n):
    for q in enumerate_posets(n):
        for pivot in range(n):
            _assert_carrier_matches_oracle(q, pivot)
            _assert_order_matches_oracle(q, pivot)


@pytest.mark.parametrize("name, pivot", FIXTURE_PIVOTS)
def test_carrier_and_order_match_oracle_on_fixture_twists(name, pivot):
    q = _plain(name)
    _assert_carrier_matches_oracle(q, pivot)
    _assert_order_matches_oracle(q, pivot)


@pytest.mark.parametrize("pivot", ["0", "a", "b", "c"])
def test_all_pivots_of_fig8_give_pseudo_kleene(pivot):
    q = figure("fig8")
    t, report = audit_theorem61(q, pivot)
    assert report.part_i.ok
    assert report.part_ii.ok
    assert report.asserted_ok
    c = classify(t.result)
    assert c.pseudo_kleene.ok
    assert list(c.fixed_points) == [f"({pivot},{pivot})"]


def test_twist_fig8_isomorphic_to_fig9():
    t = twist(figure("fig8"), "a")
    f9 = figure("fig9")
    assert t.result.isomorphic_to(f9) is not None
    # same labels, in fact: the fixture is the twist verbatim
    assert set(t.result.labels) == set(f9.labels)


def test_embedding_map_pinned():
    q = figure("fig8")
    t = twist(q, "a")
    emb = twist_embedding(t)
    got = {q.labels[x]: t.result.labels[i] for x, i in emb.items()}
    assert got == {"0": "(0,a)", "a": "(a,a)", "b": "(b,a)", "c": "(c,a)"}


def test_embedding_is_order_embedding():
    q = figure("fig8")
    t = twist(q, "a")
    emb = twist_embedding(t)
    r = t.result
    for x, y in itertools.product(range(q.n), repeat=2):
        assert q.leq(x, y) == r.leq(emb[x], emb[y])


def test_embedding_failure_witness_is_row_major_first():
    """The twist of a 3-chain doctored to the discrete order: every
    x < y breaks the embedding, and the first in row-major order is
    (x0, x1), not (x0, x2)."""
    from kleene_posets import Poset
    from kleene_posets.twist import TwistPoset
    q = Poset.from_covers(["x0", "x1", "x2"], [("x0", "x1"), ("x1", "x2")])
    t = twist(q, "x1")
    discrete = Poset(t.result.labels, [1 << k for k in range(t.n)])
    doctored = TwistPoset(q, t.pivot, t.pairs, InvolutivePoset(discrete, t.result.inv))
    v = check_embedding(doctored)
    assert (v.ok, v.witness, v.detail) == (
        False, (0, 1), "order not preserved/reflected at (x0, x1)")


def test_involution_swaps_components():
    t = twist(figure("fig8"), "a")
    r = t.result
    for i, lbl in enumerate(r.labels):
        x, y = lbl[1:-1].split(",")
        assert r.labels[r.inv[i]] == f"({y},{x})"


def test_agreement_fails_part_iii():
    """fig8 is distributive but its twist is not Kleene: the printed
    equivalence does not hold in this direction."""
    q = figure("fig8")
    t, report = audit_theorem61(q, "a")
    assert report.q_distributive.ok
    assert not report.twist_kleene.ok
    assert t.result.is_pseudo_kleene().ok
    assert not report.part_iii_agree
    # the audit records but never asserts part iii:
    assert report.asserted_ok


def test_twist_kleene_failure_pinned_triple():
    t = twist(figure("fig8"), "a")
    base = t.result.base
    x, y, z = "(0,a)", "(a,c)", "(a,b)"
    lhs = base.lower_cone(base.upper_cone([x, y]) | base.subset([z]))
    rhs = base.lower_cone(base.upper_cone(base.lower_cone([x, z])
                                          | base.lower_cone([y, z])))
    assert set(lhs.labels) == {"(0,b)", "(a,b)"}
    assert set(rhs.labels) == {"(0,b)"}


def test_two_antichain_counterexample():
    """Smallest instance where distributivity of the source does not
    transfer: the twist of the 2-antichain is pseudo-Kleene, not Kleene."""
    from kleene_posets import Poset
    q = Poset.from_covers(["x0", "x1"], [])
    t, report = audit_theorem61(q, "x0")
    assert t.n == 3
    assert report.q_distributive.ok
    assert report.part_i.ok and report.part_ii.ok
    assert not report.twist_kleene.ok
    assert not report.part_iii_agree


def test_product_cones_restricted_vs_unrestricted():
    _, report = audit_theorem61(figure("fig8"), "a")
    assert report.product_cones_restricted.ok
    assert not report.product_cones_unrestricted.ok
    assert "(0,0)" in report.product_cones_unrestricted.detail


@pytest.mark.parametrize("up_masks,kind,detail", [
    ((1, 2, 5), "L", "L({(x0,x0)}) != L(p1) x U(p2) restricted to the carrier"),
    ((1, 6, 4), "U", "U({(x0,x1)}) != U(p1) x L(p2) restricted to the carrier"),
])
def test_product_cone_failure_text(up_masks, kind, detail):
    """The twist of the 2-antichain at x0, its carrier reordered so that
    the product law fails in the restricted reading."""
    from kleene_posets import Poset
    from kleene_posets.twist import TwistPoset, check_product_cones
    q = Poset.from_covers(["x0", "x1"], [])
    t = twist(q, "x0")
    reordered = InvolutivePoset(Poset(t.result.labels, up_masks), t.result.inv)
    verdict = check_product_cones(TwistPoset(q, t.pivot, t.pairs, reordered))
    assert not verdict.ok
    assert verdict.witness[0] == kind
    assert verdict.detail == detail


def test_twist_takes_plain_poset():
    with pytest.raises(UsageError):
        twist(figure("fig1"), "a")


def test_unknown_pivot():
    with pytest.raises(UsageError):
        twist(figure("fig8"), "zz")


def test_twist_of_chain_is_kleene():
    """On a chain the twist is a Kleene poset, matching the printed
    equivalence (chains are distributive and the failure needs width)."""
    from kleene_posets import Poset
    q = Poset.from_covers(["x0", "x1", "x2"], [("x0", "x1"), ("x1", "x2")])
    t, report = audit_theorem61(q, "x1")
    assert report.part_i.ok and report.part_ii.ok
    assert report.q_distributive.ok
    assert report.twist_kleene.ok
    assert report.part_iii_agree


def test_pair_index():
    q = figure("fig8")
    t = twist(q, "a")
    i = t.pair_index("0", "a")
    assert t.result.labels[i] == "(0,a)"
    assert t.pair_index("b", "b") is None  # L(b,b) !<= {a}
    assert t.pair_index("0", "0") is None  # {a} !<= U(0,0)


# -- product cones against the subset-by-subset oracle ------------------------

# The failure text per kind, as the oracle's (kind, A, outside) renders it.
CONE_TEXT = {
    "L": "L({A}) != L(p1) x U(p2) restricted to the carrier",
    "U": "U({A}) != U(p1) x L(p2) restricted to the carrier",
    "L-unrestricted": "L(p1(A)) x U(p2(A)) for A = {A} contains {pair}, "
                      "which is not a member",
    "U-unrestricted": "U(p1(A)) x L(p2(A)) for A = {A} contains {pair}, "
                      "which is not a member",
}


def _assert_cones_match_oracle(q, pivot):
    t = twist(q, pivot)
    ref = ref_of(q)
    for restricted in (True, False):
        verdict = check_product_cones(t, restricted=restricted)
        want = ref_product_cone_failure(ref, q.labels[pivot], restricted)
        if want is None:
            assert verdict.ok, (q, pivot, restricted)
            continue
        kind, subset, outside = want
        mask = sum(1 << t.pair_index(x, y) for x, y in subset)
        rendered = "{" + ", ".join(f"({x},{y})" for x, y in subset) + "}"
        pair = f"({outside[0]},{outside[1]})" if outside else ""
        assert (verdict.ok, verdict.witness, verdict.detail) == \
            (False, (kind, mask), CONE_TEXT[kind].format(A=rendered, pair=pair))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_product_cones_match_oracle_at_every_pivot(n):
    """Every poset with n <= 4 at every pivot, both readings: the same
    first subset, kind and outside pair as the oracle, which walks every
    subset of a carrier of at most 12 pairs."""
    for q in enumerate_posets(n):
        for pivot in range(n):
            _assert_cones_match_oracle(q, pivot)


@pytest.mark.parametrize("name, pivot", FIXTURE_PIVOTS + [
    ("fig7", "a"), ("fig7", "f"),
])
def test_product_cones_match_oracle_on_fixture_twists(name, pivot):
    q = _plain(name)
    _assert_cones_match_oracle(q, q.index(pivot))


def test_fig6_unrestricted_cone_witness_pinned():
    t = twist(figure("fig6").base, "c")
    assert t.n == 81
    assert check_product_cones(t, restricted=True).ok
    v = check_product_cones(t, restricted=False)
    assert (v.ok, v.witness, v.detail) == (
        False, ("U-unrestricted", 1),
        "U(p1(A)) x L(p2(A)) for A = {(0,c)} contains (0,0), which is not a member")


# -- the part-only Thm 6.1 evaluators against the full audit -------------------

def _triple(verdict):
    return verdict.ok, verdict.witness, verdict.detail


def _assert_parts_match_audit(q, pivot):
    """``_part_i`` and ``check_embedding`` on the twist, and the two claim
    evaluators on the instance, equal the parts of ``audit_theorem61``."""
    _, report = audit_theorem61(q, pivot)
    t = twist_module.twist(q, pivot)
    assert _triple(_part_i(t)) == _triple(report.part_i)
    assert _triple(check_embedding(t)) == _triple(report.part_ii)
    assert _triple(_twist_kleene(t)) == _triple(report.twist_kleene)
    group = Group([(q, pivot)])
    for cid, want in (("Thm-6.1-i", report.part_i), ("Thm-6.1-ii", report.part_ii)):
        binding = CLAIMS[cid].evaluate(group, (q, pivot))
        assert binding == (None if want.ok else {"detail": want.detail})
    binding = CLAIMS["Thm-6.1-iii"].evaluate(group, (q, pivot))
    if report.part_iii_agree:
        assert binding is None
    else:
        assert binding["source_distributive"] == report.q_distributive.ok
        assert binding["twist_kleene"] == report.twist_kleene.ok
        assert binding["detail"].endswith(report.twist_kleene.detail or "")
    return report


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_part_only_evaluators_match_the_full_audit(n):
    for q in enumerate_posets(n):
        for pivot in range(n):
            _assert_parts_match_audit(q, pivot)


def test_part_only_evaluators_match_the_full_audit_when_parts_fail(monkeypatch):
    """No real twist fails part (i) or (ii), so the failing branches are
    reached through doctored twists of the 2-antichain at x0: its three
    pairs under every labelled order, with the swap, the identity or a
    swap that fixes another pair as the map.  The first failure of each
    kind was captured from the full audit before part (i) was factored
    out, and the first (K) failure of each kind before (K) got its own
    helper: an invalid swap reports the involution's verdict."""
    from kleene_posets import Poset
    from kleene_posets.twist import TwistPoset
    enumeration = importlib.import_module("kleene_posets.enumeration")
    q = Poset.from_covers(["x0", "x1"], [])
    real = twist(q, "x0")
    first, kleene = {}, {}
    for up in itertools.product(range(1, 8), repeat=3):
        try:
            order = Poset(real.result.labels, up)
        except UsageError:
            continue
        for inv in (real.result.inv, (0, 1, 2), (1, 0, 2)):
            doctored = TwistPoset(q, real.pivot, real.pairs, InvolutivePoset(order, inv))
            for module in (twist_module, enumeration):
                monkeypatch.setattr(module, "twist", lambda *_: doctored)
            report = _assert_parts_match_audit(q, 0)
            for part, v in (("i", report.part_i), ("ii", report.part_ii)):
                if not v.ok:
                    first.setdefault((part, v.detail.split(" ")[0]), (up, inv, _triple(v)))
            v = report.twist_kleene
            if not v.ok:
                kleene.setdefault(v.detail.split(":")[0], (up, inv, _triple(v)))
    assert first == {
        ("i", "not"): ((1, 2, 4), (0, 1, 2), (
            False, (0, 1), "not pseudo-Kleene: L((x0,x0),(x0,x0)') = {(x0,x0)} "
            "!<= {(x0,x1)} = U((x0,x1),(x0,x1)')")),
        ("i", "fixed"): ((1, 2, 4), (1, 0, 2), (
            False, None, "fixed points {(x1,x0)} != {(x0,x0)}")),
        ("i", "involution"): ((1, 2, 5), (0, 2, 1), (
            False, None, "involution invalid: not antitone: (x1,x0) <= (x0,x0) "
            "but (x0,x0)' = (x0,x0) !<= (x0,x1) = (x1,x0)'")),
        ("ii", "order"): ((1, 2, 5), (0, 2, 1), (
            False, (1, 0), "order not preserved/reflected at (x1, x0)")),
    }
    assert kleene == {
        "not distributive": ((1, 2, 4), (0, 2, 1), (
            False, (0, 1, 2), "not distributive: form LU fails at "
            "((x0,x0), (x0,x1), (x1,x0)): lhs = {(x1,x0)}, rhs = {}")),
        "not pseudo-Kleene": ((1, 2, 4), (0, 1, 2), (
            False, (0, 1), "not pseudo-Kleene: L((x0,x0),(x0,x0)') = {(x0,x0)} "
            "!<= {(x0,x1)} = U((x0,x1),(x0,x1)')")),
        "not antitone": ((1, 2, 5), (0, 2, 1), (
            False, (2, 0), "not antitone: (x1,x0) <= (x0,x0) but "
            "(x0,x0)' = (x0,x0) !<= (x0,x1) = (x1,x0)'")),
    }
