"""Classification ladder: antitone involutions up to Boolean posets.

The matrix of expected classifications was computed independently with
``oracles.py`` (see that module) and frozen here; the oracle is also run
live in ``test_ladder_matches_oracle``.
"""

import itertools

import pytest

from kleene_posets import (InvolutivePoset, Poset, UsageError, classify,
                           dedekind_macneille, enumerate_posets, figure,
                           involution_from_pairs, twist)
from kleene_posets.enumeration import iter_involutive, iter_posets
from kleene_posets.poset import Subset, Verdict, _meet_rows

from oracles import RefInvolutive, RefPoset, ref_involutions

INV_FIGS = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9"]


def ref_of(ip):
    p = ip.base
    covers = [(p.labels[a], p.labels[b]) for a, b in p.covers()]
    prime = {ip.labels[i]: ip.labels[ip.inv[i]] for i in range(ip.n)}
    return RefInvolutive.build(list(p.labels), covers, prime)


# verdict flags frozen from the oracle run:
#        (pk, kleene, strong, strict, boolean) -- None = not applicable
MATRIX = {
    "fig1": (True, True, False, False, False),
    "fig2": (True, False, False, False, None),
    "fig3": (True, False, False, False, None),
    "fig4": (True, True, True, True, False),
    "fig5": (True, True, False, False, False),
    "fig6": (True, False, True, False, None),
    "fig7": (True, True, True, True, False),
    "fig9": (True, False, False, None, None),
}

SUMMARY = {
    "fig1": "Kleene poset; not a lattice",
    "fig2": "pseudo-Kleene poset; not a lattice",
    "fig3": "pseudo-Kleene algebra; lattice",
    "fig4": "strict Kleene algebra; lattice",
    "fig5": "Kleene algebra; lattice",
    "fig6": "strong pseudo-Kleene poset; not a lattice",
    "fig7": "strict Kleene poset; not a lattice",
    "fig9": "pseudo-Kleene poset; not a lattice",
}

FIXED = {"fig1": (), "fig2": (), "fig3": (), "fig4": (), "fig5": ("c",),
         "fig6": (), "fig7": (), "fig9": ("(a,a)",)}


@pytest.mark.parametrize("name", INV_FIGS)
def test_frozen_matrix(name):
    c = classify(figure(name))
    pk, kleene, strong, strict, boolean = MATRIX[name]
    assert c.involution.ok
    assert c.pseudo_kleene.ok == pk
    assert c.kleene.ok == kleene
    assert c.strong.ok == strong
    assert (None if c.strict is None else c.strict.ok) == strict
    assert (None if c.boolean is None else c.boolean.ok) == boolean
    assert c.summary == SUMMARY[name]
    assert tuple(c.fixed_points) == FIXED[name]


@pytest.mark.parametrize("name", INV_FIGS)
def test_ladder_matches_oracle(name):
    ip = figure(name)
    ref = ref_of(ip)
    c = classify(ip)
    assert ref.valid_involution()
    assert c.pseudo_kleene.ok == ref.pseudo_kleene()[0]
    assert c.kleene.ok == ref.kleene()[0]
    assert c.strong.ok == ref.strong()[0]
    o_st, _ = ref.strict()
    assert (None if c.strict is None else c.strict.ok) == \
        (None if o_st is None else o_st)
    if c.boolean is not None:
        assert c.boolean.ok == ref.boolean()[0]
    assert list(c.fixed_points) == ref.fixed_points()


def test_ladder_implications():
    """Boolean => strict => strong, Kleene => pseudo-Kleene, on all figures."""
    for name in INV_FIGS:
        c = classify(figure(name))
        if c.kleene.ok:
            assert c.pseudo_kleene.ok
        if c.strict is not None and c.strict.ok:
            assert c.strong.ok
        if c.boolean is not None and c.boolean.ok:
            assert c.strict.ok and c.kleene.ok


# -- specific frozen witnesses ---------------------------------------------

def test_fig2_strong_first_witness():
    v = figure("fig2").is_strong()
    assert not v.ok
    assert v.witness == (1, 2)  # (a, b), the first incomparable pair
    assert v.detail == "a || b but L(a,a') = {0, a} != {0, b} = L(b,b')"


def test_fig1_not_strong():
    assert not classify(figure("fig1")).strong.ok


def _scanned_strong(ip):
    """Strongness by the pairwise scan the class masks replaced: each
    incomparable pair x < y, in order, compares L(x,x') and L(y,y')."""
    p, lab = ip.base, ip.labels
    lows, _ = ip._self_cone_masks()
    for x, y in itertools.combinations(range(ip.n), 2):
        if p.incomparable(x, y) and lows[x] != lows[y]:
            detail = (f"{lab[x]} || {lab[y]} but L({lab[x]},{lab[x]}') = "
                      f"{Subset(p, lows[x]).render()} != "
                      f"{Subset(p, lows[y]).render()} = L({lab[y]},{lab[y]}')")
            return Verdict(False, (x, y), detail)
    return Verdict(True)


def test_strong_matches_the_pairwise_scan():
    """Every antitone involution with n <= 6 and the involutive fixtures:
    the same verdict, first witness and detail as the pairwise scan."""
    instances = list(iter_involutive(6)) + [figure(name) for name in INV_FIGS]
    assert [ip.is_strong() for ip in instances] == \
        [_scanned_strong(ip) for ip in instances]
    assert {ip.is_strong().ok for ip in instances} == {True, False}


def test_strict_reason_when_unbounded():
    c = classify(figure("fig9"))
    assert c.strict is None
    assert "unbounded" in c.strict_reason


def test_boolean_reason_when_not_distributive():
    c = classify(figure("fig2"))
    assert c.boolean is None
    assert "not distributive" in c.boolean_reason


def test_at_most_one_fixed_point_on_figures():
    for name in INV_FIGS:
        c = classify(figure(name))
        if c.pseudo_kleene.ok:
            assert len(c.fixed_points) <= 1


# -- involution validity -----------------------------------------------------

def test_invalid_involution_not_total():
    p = Poset.from_covers(["a", "b"], [("a", "b")])
    with pytest.raises(UsageError):
        involution_from_pairs(p.labels, [("a", "a")])


def test_invalid_involution_not_antitone():
    ip = InvolutivePoset.from_covers(
        ["a", "b", "c"], [("a", "b"), ("b", "c")],
        [("a", "a"), ("b", "b"), ("c", "c")])
    v = ip.check_antitone_involution()
    assert not v.ok
    assert "not antitone" in v.detail
    c = classify(ip)
    assert c.summary == "not an antitone involution"
    assert c.pseudo_kleene is None


@pytest.mark.parametrize("inv, reason", [
    ((0, 1, 2), "not antitone"),        # an involution, but order-preserving
    ((1, 2, 0), "not involutive"),
])
def test_memos_never_hide_a_failed_involution_check(inv, reason):
    """The memoised (K) verdict and completion are stored only once the
    map is valid, so an invalid map raises on every call."""
    ip = InvolutivePoset(Poset.from_covers(["a", "b", "c"], [("a", "b"), ("b", "c")]), inv)
    for _ in range(2):
        for call in (ip.is_pseudo_kleene, ip.is_kleene, lambda: dedekind_macneille(ip)):
            with pytest.raises(UsageError, match=reason):
                call()



def test_classify_rejects_a_plain_poset():
    with pytest.raises(UsageError, match=r"pass InvolutivePoset\(p, inv\)"):
        classify(figure("fig8"))


def test_not_an_involution():
    p = Poset.from_covers(["a", "b", "c"], [])
    with pytest.raises(UsageError):
        involution_from_pairs(p.labels, [("a", "b"), ("b", "c"), ("c", "a")])


@pytest.mark.parametrize("pair, message", [
    ((0, -1), "out of range"),
    ((0, 5), "out of range"),
    (("a", "zz"), "unknown element name 'zz'"),
    (("a", 1.0), "out of range"),
])
def test_involution_pairs_must_name_elements(pair, message):
    with pytest.raises(UsageError, match=message):
        involution_from_pairs(("a", "b"), [pair])


def test_prime_and_prime_subset():
    ip = figure("fig1")
    assert ip.labels[ip.prime(ip.index("a"))] == "a'"
    primed = ip.prime_subset(["0", "a"])
    assert set(primed.labels) == {"1", "a'"}


def test_lemma11_cases():
    """Where the preconditions (a <= b, L(b,a') = {bottom}) hold on a
    bounded distributive figure, the conclusion holds; elsewhere the
    helper refuses with DomainError."""
    from kleene_posets import DomainError
    ip = figure("fig1")
    bottom = "0"
    hit = 0
    for a, b in itertools.product(range(ip.n), repeat=2):
        applicable = (ip.leq(a, b) and
                      ip.lower_cone([b, ip.prime(a)]).labels == (bottom,))
        if applicable:
            assert ip.lemma11_holds(a, b).ok
            hit += 1
        else:
            with pytest.raises(DomainError):
                ip.lemma11_holds(a, b)
    assert hit > 0


def test_lemma11_requires_distributive():
    from kleene_posets import DomainError
    with pytest.raises(DomainError):
        figure("fig3").lemma11_holds("0", "0")


def test_isomorphic_to_respects_involution():
    assert figure("fig1").isomorphic_to(figure("fig1")) is not None
    assert figure("fig1").isomorphic_to(figure("fig4")) is None


# -- involution validity and condition (K) against the oracle ---------------

def _ref_base(p):
    return RefPoset.from_covers(list(p.labels),
                                [(p.labels[a], p.labels[b]) for a, b in p.covers()])


def _with_prime(base, p, perm):
    prime = {p.labels[i]: p.labels[perm[i]] for i in range(p.n)}
    return RefInvolutive(base.elements, base.leq_pairs, prime)


def _labelled(p, verdict):
    return None if verdict.ok else tuple(p.labels[i] for i in verdict.witness)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_involution_check_matches_oracle_on_every_permutation(n):
    """Every poset with n <= 5 and every permutation of its carrier: the
    same first non-involutive x, or first antitone failure (x, y)."""
    for p in enumerate_posets(n):
        base = _ref_base(p)
        for perm in itertools.permutations(range(n)):
            verdict = InvolutivePoset(p, perm).check_antitone_involution()
            assert _labelled(p, verdict) == \
                _with_prime(base, p, perm).involution_failure(), (p, perm)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pseudo_kleene_matches_oracle_on_every_antitone_involution(n):
    """Every poset with n <= 5 and every antitone involution of it: the
    same (K) verdict and first failing (x, y)."""
    for p in enumerate_posets(n):
        base = _ref_base(p)
        for perm in ref_involutions(base):
            ok, witness = _with_prime(base, p, perm).pseudo_kleene()
            assert _labelled(p, InvolutivePoset(p, perm).is_pseudo_kleene()) == \
                (None if ok else witness), (p, perm)


def _scanned_pseudo_kleene(ip):
    """(K) by the scan the union test replaced: each distinct L(x,x')
    takes one upper cone and one scan for the first y whose U(y,y')
    leaves it, and the first x with such a y fails."""
    p, lab = ip.base, ip.labels
    lows, ups = ip._self_cone_masks()
    first_bad = {}
    for x in range(ip.n):
        low = lows[x]
        if low not in first_bad:
            cone = _meet_rows(p._up, p._full, low)
            first_bad[low] = next((y for y in range(ip.n) if ups[y] & ~cone), None)
        y = first_bad[low]
        if y is not None:
            detail = (f"L({lab[x]},{lab[x]}') = {Subset(p, low).render()} !<= "
                      f"{Subset(p, ups[y]).render()} = U({lab[y]},{lab[y]}')")
            return Verdict(False, (x, y), detail)
    return Verdict(True)


_PK_FAMILIES = {
    "involutive": lambda: list(iter_involutive(6)),
    "completions": lambda: [dedekind_macneille(ip).as_involutive_poset()
                            for ip in iter_involutive(6)],
    "twists": lambda: [twist(p, a).result for p in iter_posets(5) for a in range(p.n)],
    "fixtures": lambda: [figure(name) for name in INV_FIGS],
}


@pytest.mark.parametrize("family, count, failing", [
    ("involutive", 272, 164), ("completions", 272, 164), ("twists", 399, 0),
    ("fixtures", 8, 0)])
def test_pseudo_kleene_union_test_matches_the_scan_and_oracle(family, count, failing):
    """(K) holds iff the union of the U(y,y') lies in the upper cone of
    the union of the L(x,x'); where it fails, the verdict, first (x, y)
    and detail are the per-x scan's, and the oracle finds the same first
    (x, y).  Each instance is rebuilt, so nothing memoised is read."""
    instances = _PK_FAMILIES[family]()
    failed = 0
    for ip in instances:
        fresh = InvolutivePoset(ip.base, ip.inv)
        assert fresh.check_antitone_involution().ok
        got = fresh.is_pseudo_kleene()
        assert got == _scanned_pseudo_kleene(fresh), ip
        ok, witness = ref_of(fresh).pseudo_kleene()
        assert _labelled(fresh.base, got) == (None if ok else witness), ip
        failed += not got.ok
    assert (len(instances), failed) == (count, failing)
