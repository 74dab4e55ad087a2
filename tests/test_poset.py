"""Core poset behavior: cones, set order, lattices, distributivity.

Expected values were computed with the independent oracles in
``oracles.py`` and frozen here; several tests also run the oracle live
and compare exhaustively.
"""

import hashlib
import itertools

import pytest

from kleene_posets import poset as poset_module
from kleene_posets import (DISTRIBUTIVITY_FORMS, DomainError, MeetDirectoid,
                           Poset, UsageError, Verdict, assign_directoid,
                           dedekind_macneille, enumerate_involutions,
                           enumerate_posets, figure, find_isomorphism)
from kleene_posets.enumeration import (Group, _forms_equivalent, iter_involutive,
                                       iter_posets)
from kleene_posets.involution import InvolutivePoset
from kleene_posets.twist import twist

from oracles import RefPoset, ref_dm_completion


def ref_of(obj):
    if isinstance(obj, InvolutivePoset):
        obj = obj.base
    covers = [(obj.labels[a], obj.labels[b]) for a, b in obj.covers()]
    return RefPoset.from_covers(list(obj.labels), covers)


def base_of(obj):
    return obj.base if isinstance(obj, InvolutivePoset) else obj


ALL_FIGS = [f"fig{i}" for i in range(1, 10)]


# -- construction ---------------------------------------------------------

def test_duplicate_labels_rejected():
    with pytest.raises(UsageError):
        Poset.from_covers(["a", "a"], [])


def test_cycle_rejected():
    with pytest.raises(UsageError):
        Poset.from_covers(["a", "b"], [("a", "b"), ("b", "a")])


def test_unknown_cover_element_rejected():
    with pytest.raises(UsageError):
        Poset.from_covers(["a", "b"], [("a", "zz")])


def test_immutability():
    p = figure("fig8")
    with pytest.raises(AttributeError):
        p.labels = ()


def test_unknown_element_name():
    p = figure("fig8")
    with pytest.raises(UsageError):
        p.index("zz")
    with pytest.raises(UsageError):
        p.index(99)


def test_from_relation_matches_from_covers():
    p = Poset.from_covers(["x", "y", "z"], [("x", "y"), ("y", "z")])
    q = Poset.from_relation(
        ["x", "y", "z"], [("x", "y"), ("y", "z"), ("x", "z")])
    assert p == q


@pytest.mark.parametrize("build", [Poset.from_covers, Poset.from_relation])
@pytest.mark.parametrize("pair", [(-1, 0), (0, -2), (2, 0), (0, 5)])
def test_pair_index_out_of_range(build, pair):
    with pytest.raises(UsageError, match="out of range"):
        build(["a", "b"], [pair])


@pytest.mark.parametrize("build", [Poset.from_covers, Poset.from_relation])
def test_pair_unknown_name(build):
    with pytest.raises(UsageError, match="unknown element name 'zz'"):
        build(["a", "b"], [("a", "zz")])


# -- subsets --------------------------------------------------------------

def test_subset_algebra():
    p = figure("fig8")
    s = p.subset(["0", "a"])
    t = p.subset(["a", "b"])
    assert (s & t).labels == ("a",)
    assert (s | t).labels == ("0", "a", "b")
    assert (s - t).labels == ("0",)
    assert s.issubset(p.subset(["0", "a", "b"]))
    assert len(s) == 2
    assert s.render() == "{0, a}"


def test_subsets_are_owner_checked():
    s = figure("fig8").subset(["0"])
    t = figure("fig1").subset(["0"])
    with pytest.raises(UsageError):
        s & t


def test_subset_membership_resolves_items():
    p = figure("fig8")
    s = p.subset(["0", "a"])
    assert "a" in s and p.index("a") in s
    assert "b" not in s and p.index("b") not in s
    for item in (-1, p.n, p.n + 5, "nope", 1.0):
        with pytest.raises(UsageError):
            item in s


# -- cones: exhaustive agreement with the oracle --------------------------

@pytest.mark.parametrize("name", ALL_FIGS)
def test_cones_match_oracle(name):
    obj = figure(name)
    p = base_of(obj)
    ref = ref_of(obj)
    labels = p.labels
    singles = [()] + [(a,) for a in labels] + \
        list(itertools.combinations(labels, 2))
    for items in singles:
        assert set(p.lower_cone(items).labels) == ref.lower(items), items
        assert set(p.upper_cone(items).labels) == ref.upper(items), items


def test_empty_cone_is_full_carrier():
    p = figure("fig8")
    assert p.lower_cone([]).labels == p.labels
    assert p.upper_cone([]).labels == p.labels


@pytest.mark.parametrize("name", ["fig1", "fig4", "fig8"])
def test_set_order_matches_oracle(name):
    obj = figure(name)
    p = base_of(obj)
    ref = ref_of(obj)
    labels = p.labels
    pool = [(), (labels[0],), (labels[1], labels[2]), tuple(labels[:3])]
    for a, b in itertools.product(pool, repeat=2):
        assert p.leq_set(a, b) == ref.set_leq(a, b), (a, b)


def test_set_order_vacuous_on_empty():
    p = figure("fig1")
    assert p.leq_set([], ["0"])
    assert p.leq_set(["1"], [])
    assert p.leq_set([], [])


def test_frozen_pin_values():
    f2 = figure("fig2")
    assert f2.lower_cone(["c", "c'"]).labels == ("0",)
    f1 = figure("fig1")
    assert f1.lower_cone(["a", "b"]).labels == ("0",)
    assert f1.upper_cone(["a", "b"]).labels == ("b'", "a'", "1")


# -- joins, meets, bounds, lattice ----------------------------------------

LATTICE = {"fig1": False, "fig2": False, "fig3": True, "fig4": True,
           "fig5": True, "fig6": False, "fig7": False, "fig8": False,
           "fig9": False}


def assert_lattice_matches_oracle(p, ref):
    """Same verdict and first failing pair as the brute-force oracle,
    whose elements are p's in index order; a second call returns the
    memoised verdict."""
    verdict = p.is_lattice()
    ok, witness = ref.is_lattice()
    assert verdict.ok == ok
    assert verdict.witness == (None if ok else tuple(map(ref.elements.index, witness)))
    assert p.is_lattice() is verdict


@pytest.mark.parametrize("name", ALL_FIGS)
def test_lattice_matches_oracle_and_pin(name):
    obj = figure(name)
    p = base_of(obj)
    assert p.is_lattice().ok == LATTICE[name]
    assert_lattice_matches_oracle(p, ref_of(obj))


def test_lattice_matches_oracle_on_every_small_poset():
    posets = list(iter_posets(6))
    assert len(posets) == 405
    for p in posets:
        assert_lattice_matches_oracle(Poset(p.labels, p._up), ref_of(p))


def test_lattice_matches_oracle_on_every_small_completion():
    """Each completion of an n <= 6 instance, against the oracle on the
    oracle's own ideals ordered by inclusion."""
    instances = list(iter_involutive(6))
    assert len(instances) == 272
    for ip in instances:
        dm = dedekind_macneille(ip)
        ideals = sorted(ref_dm_completion(ref_of(ip)), key=dm.index_of)
        ref = RefPoset(ideals, {(a, b) for a in ideals for b in ideals if a <= b})
        assert_lattice_matches_oracle(dm.as_poset(), ref)


def test_lattice_witness_detail():
    """Each side's detail, the lower one on fig1's order dual."""
    p = figure("fig1").base
    v = p.is_lattice()
    assert not v.ok
    assert v.detail == ("{a, b} has no least upper bound "
                        "(minimal upper bounds: {b', a'})")
    assert Poset(p.labels, p._down).is_lattice().detail == (
        "{a, b} has no greatest lower bound (maximal lower bounds: {b', a'})")


def test_join_meet():
    p = figure("fig4").base
    assert p.labels[p.join("b", "b'")] == "a'"
    assert p.labels[p.meet("b", "b'")] == "a"
    q = figure("fig1").base
    assert q.join("a", "b") is None


def test_order_dual_swaps_every_l_u_pair():
    """On the order dual ``Poset(p.labels, p._down)`` of every poset with
    n <= 5, L and U trade places on every mask and join and meet on
    every pair.  A pair fails to have a join or a meet in p exactly when
    it does in the dual, so ``is_lattice`` keeps its verdict and
    witness.  An antitone involution of p is one of the dual, which
    swaps L(x,x') and U(x,x'), so strictness agrees where p is bounded."""
    posets = maps = 0
    for p in iter_posets(5):
        q = Poset(p.labels, p._down)
        for mask in range(1 << p.n):
            assert (q._lower(mask), q._upper(mask)) == (p._upper(mask), p._lower(mask))
        for x, y in itertools.product(range(p.n), repeat=2):
            assert (q.join(x, y), q.meet(x, y)) == (p.meet(x, y), p.join(x, y))
        assert q.is_lattice()[:2] == p.is_lattice()[:2]
        if None not in p.bounds():
            for inv in enumerate_involutions(p):
                assert (InvolutivePoset(q, inv).is_strict().ok
                        == InvolutivePoset(p, inv).is_strict().ok)
                maps += 1
        posets += 1
    assert (posets, maps) == (87, 12)    # 5 of the 12 maps are strict


BOUNDS = {"fig1": ("0", "1"), "fig2": ("0", "1"), "fig3": ("0", "1"),
          "fig4": ("0", "1"), "fig5": ("0", "1"), "fig6": ("0", "1"),
          "fig7": ("0", "1"), "fig8": ("0", None), "fig9": (None, None)}


@pytest.mark.parametrize("name", ALL_FIGS)
def test_bounds(name):
    obj = figure(name)
    p = base_of(obj)
    bottom, top = p.bounds()
    got = (p.labels[bottom] if bottom is not None else None,
           p.labels[top] if top is not None else None)
    assert got == BOUNDS[name] == ref_of(obj).bounds()


def test_downward_directed_is_having_a_bottom():
    """Differential: ``is_downward_directed`` (a bottom test) against the
    pairwise definition, on every poset with n <= 6 and the empty one."""
    posets = [Poset((), [])] + list(iter_posets(6))
    verdicts = set()
    for p in posets:
        ref = ref_of(p)
        pairwise = all(ref.lower([x, y]) for x in ref.elements for y in ref.elements)
        assert p.is_downward_directed() is pairwise
        verdicts.add(pairwise)
    assert verdicts == {True, False}


# -- distributivity --------------------------------------------------------

DISTRIBUTIVE = {"fig1": True, "fig2": False, "fig3": False, "fig4": True,
                "fig5": True, "fig6": False, "fig7": True, "fig8": True,
                "fig9": False}


@pytest.mark.parametrize("name", ALL_FIGS)
@pytest.mark.parametrize("form", DISTRIBUTIVITY_FORMS)
def test_distributivity_matches_oracle(name, form):
    obj = figure(name)
    p = base_of(obj)
    ok = p.is_distributive(form).ok
    assert ok == DISTRIBUTIVE[name]
    assert ok == ref_of(obj).distributive(form)[0]


@pytest.mark.parametrize("name", ALL_FIGS)
def test_all_forms_agree(name):
    obj = figure(name)
    p = base_of(obj)
    forms = p.distributivity_all_forms()
    assert set(forms) == set(DISTRIBUTIVITY_FORMS)
    assert len({v.ok for v in forms.values()}) == 1


def _all_forms_cases():
    """Every poset with n <= 6, every fixture, and every twist of a
    fixture at any pivot with at most 13 elements."""
    yield from iter_posets(6)
    for name in ALL_FIGS:
        p = base_of(figure(name))
        yield p
        for a in range(p.n):
            t = twist(p, a).result.base
            if t.n <= 13:
                yield t


def test_all_forms_equal_each_form_alone():
    """Sharing tables and closures between duals changes no verdict,
    witness or detail."""
    cases = list(_all_forms_cases())
    assert len(cases) == 405 + 9 + 8
    for p in cases:
        # fresh copies, so that neither side reads the other's memo
        assert list(Poset(p.labels, p._up).distributivity_all_forms().items()) == [
            (form, Poset(p.labels, p._up).is_distributive(form))
            for form in DISTRIBUTIVITY_FORMS]


def test_distributivity_verdicts_are_memoised_per_form(monkeypatch):
    """A second call returns the same verdict without scanning again, and
    ``distributivity_all_forms`` reads and fills the same memo: each
    scan covers the forms of one dual not yet decided, and each form is
    scanned once."""
    scans = []
    scan = Poset._distributivity_scan

    def counted(self, forms, *args):
        scans.append(forms)
        return scan(self, forms, *args)

    monkeypatch.setattr(Poset, "_distributivity_scan", counted)
    fig2 = base_of(figure("fig2"))
    p = Poset(fig2.labels, fig2._up)
    lu = p.is_distributive("LU")
    assert not lu.ok and scans == [("LU",)]
    assert p.is_distributive("LU") is lu and scans == [("LU",)]
    forms = p.distributivity_all_forms()
    assert forms["LU"] is lu and scans == [("LU",), ("ULU",), ("UL", "LUL")]
    assert p.distributivity_all_forms() == forms
    assert all(p.is_distributive(f) is forms[f] for f in DISTRIBUTIVITY_FORMS)
    assert [form for forms in scans for form in forms] == list(DISTRIBUTIVITY_FORMS)


def test_unknown_form_rejected():
    with pytest.raises(UsageError):
        figure("fig8").is_distributive("XY")


@pytest.mark.parametrize("n", range(1, 6))
def test_distributivity_matches_brute_force(n):
    """Same verdict and same first witness as the brute-force oracle on
    every poset with n elements, in all four forms."""
    for p in enumerate_posets(n):
        ref = ref_of(p)
        for form in DISTRIBUTIVITY_FORMS:
            verdict = p.is_distributive(form)
            ok, witness = ref.distributive(form)
            assert verdict.ok == ok
            want = None if ok else tuple(p.index(lbl) for lbl in witness)
            assert verdict.witness == want


@pytest.mark.parametrize("n", range(1, 5))
def test_comparable_triples_never_fail(n):
    """(x, y, z) with x <= y satisfies every form, which lets the kernel
    skip comparable pairs."""
    for p in enumerate_posets(n):
        ref = ref_of(p)
        for x, y in itertools.product(ref.elements, repeat=2):
            if not ref.leq(x, y):
                continue
            for z in ref.elements:
                for form in DISTRIBUTIVITY_FORMS:
                    assert ref.distributive_at(form, x, y, z)


@pytest.mark.parametrize("n", range(1, 6))
def test_skipped_z_never_fail(n):
    """For an incomparable pair (x, y), a z below x or below y or above
    both satisfies LU and ULU, and a z above x or above y or below both
    satisfies UL and LUL, which lets the kernel visit only the other z."""
    for p in enumerate_posets(n):
        ref = ref_of(p)
        for x, y in itertools.permutations(ref.elements, 2):
            if ref.leq(x, y) or ref.leq(y, x):
                continue
            for z in ref.elements:
                if ref.leq(z, x) or ref.leq(z, y) or ref.leq(x, z) and ref.leq(y, z):
                    assert ref.distributive_at("LU", x, y, z)
                    assert ref.distributive_at("ULU", x, y, z)
                if ref.leq(x, z) or ref.leq(y, z) or ref.leq(z, x) and ref.leq(z, y):
                    assert ref.distributive_at("UL", x, y, z)
                    assert ref.distributive_at("LUL", x, y, z)


@pytest.mark.parametrize("n", range(1, 5))
def test_diagonal_triples_never_fail(n):
    """(x, x, z) satisfies every form, which lets the kernel skip y = x."""
    for p in enumerate_posets(n):
        ref = ref_of(p)
        L, U = ref.lower, ref.upper
        for x, z in itertools.product(ref.elements, repeat=2):
            assert L(U([x]) | {z}) == L(U(L([x, z])))
            assert U(L(U([x]) | {z})) == U(L([x, z]))
            assert U(L([x]) | {z}) == U(L(U([x, z])))
            assert L(U(L([x]) | {z})) == L(U([x, z]))


FAILING_DETAILS = {
    ("fig2", "LU"): "form LU fails at (a, c, b): lhs = {0, b}, rhs = {0}",
    ("fig2", "ULU"): ("form ULU fails at (a, c, b): lhs = {b, b', a', 1}, "
                      "rhs = {0, a, b, c, c', b', a', 1}"),
    ("fig2", "UL"): "form UL fails at (a, b, c): lhs = {c, 1}, rhs = {1}",
    ("fig2", "LUL"): ("form LUL fails at (a, b, c): lhs = {0, c}, "
                      "rhs = {0, a, b, c, c', b', a', 1}"),
    ("fig9", "LU"): ("form LU fails at ((0,c), (a,b), (a,c)): "
                     "lhs = {(0,c), (a,c)}, rhs = {(0,c)}"),
    ("fig9", "ULU"): ("form ULU fails at ((0,c), (a,b), (a,c)): "
                      "lhs = {(a,c), (b,c), (a,a), (b,a), (c,a), (a,0), (b,0), (c,0)}, "
                      "rhs = {(0,c), (0,a), (a,c), (b,c), (a,a), (b,a), (c,a), "
                      "(a,0), (b,0), (c,0)}"),
    ("fig9", "UL"): ("form UL fails at ((a,c), (a,b), (0,c)): "
                     "lhs = {(0,c), (0,a), (a,c), (b,c), (a,a), (b,a), (c,a), "
                     "(a,0), (b,0), (c,0)}, "
                     "rhs = {(a,c), (b,c), (a,a), (b,a), (c,a), (a,0), (b,0), (c,0)}"),
    ("fig9", "LUL"): ("form LUL fails at ((a,c), (a,b), (0,c)): "
                      "lhs = {(0,c)}, rhs = {(0,c), (a,c)}"),
}


@pytest.mark.parametrize("name, form", sorted(FAILING_DETAILS))
def test_distributivity_failure_detail_pinned(name, form):
    verdict = figure(name).base.is_distributive(form)
    assert not verdict.ok
    assert verdict.detail == FAILING_DETAILS[name, form]


# sha256 over (form, ok, witness, detail) of ``distributivity_all_forms()``
# for every poset with n <= 6, captured from the kernel that rendered
# every detail eagerly.
ALL_FORMS_N6_SHA256 = "020a8a18d9d2be03ca50fb8f528bf45fa775037c2c331e98d7df2ba1a0eb8219"


def test_distributivity_details_pinned_for_every_small_poset():
    digest = hashlib.sha256()
    for p in iter_posets(6):
        for form, v in Poset(p.labels, p._up).distributivity_all_forms().items():
            digest.update(repr((form, v.ok, v.witness, v.detail)).encode())
    assert digest.hexdigest() == ALL_FORMS_N6_SHA256


def test_held_verdicts_render_as_a_fresh_poset_does(monkeypatch):
    """Distributivity-forms-equivalent reads whether each form holds and
    renders no detail; rendering them later gives the same verdicts."""
    rendered = []
    monkeypatch.setattr(poset_module, "_render", lambda *args: rendered.append(args))
    posets = [Poset(p.labels, p._up) for p in iter_posets(6)]
    assert all(_forms_equivalent(Group((q,)), q) is None for q in posets)
    assert rendered == []
    monkeypatch.undo()
    for q in posets:
        assert q.distributivity_all_forms() == \
            Poset(q.labels, q._up).distributivity_all_forms()


def test_forms_disagreement_binding_renders_the_failing_details():
    """No enumerated poset makes the forms disagree (the claim is
    Confirmed), so a disagreement is made by marking LU as holding on
    fig2 before anything is rendered."""
    fig2 = base_of(figure("fig2"))
    p = Poset(fig2.labels, fig2._up)
    p.distributivity_all_forms()
    Poset._distributivity_verdict.seed(p, Verdict(True), "LU")
    assert _forms_equivalent(Group((p,)), p) == {
        "forms": {"LU": True, "ULU": False, "UL": False, "LUL": False},
        "details": {form: FAILING_DETAILS["fig2", form] for form in ("ULU", "UL", "LUL")},
    }


# -- memoised verdicts and views ---------------------------------------------

def _table(name, inv=None):
    """A fresh assigned table of a figure, with ``inv`` as its map (the
    figure's own map by default)."""
    d = assign_directoid(figure(name))
    return MeetDirectoid(d.meet, inv=d.inv if inv is None else inv, labels=d.labels)


def _chain_with(inv):
    return InvolutivePoset(Poset.from_covers(["0", "1"], [("0", "1")]), inv)


# (fresh structure, method, arguments): every memoised method of Poset,
# InvolutivePoset and MeetDirectoid, on structures where its scan fails
# and, for the ladder, where it holds
MEMOISED = [
    (lambda: figure("fig8"), "is_lattice", ()),
    (lambda: figure("fig4").base, "is_lattice", ()),
    (lambda: figure("fig8"), "bounds", ()),
    *[(lambda: figure("fig2").base, "_distributivity_verdict", (form,))
      for form in DISTRIBUTIVITY_FORMS],
    *[(lambda name=name: figure(name), method, ())
      for name in ("fig1", "fig2", "fig4", "fig6", "fig7")
      for method in ("check_antitone_involution", "is_pseudo_kleene", "is_kleene",
                     "is_strong", "is_strict", "is_boolean_poset", "_self_cone_masks")
      if method != "is_boolean_poset" or figure(name).is_distributive().ok],
    (lambda: _chain_with((0, 1)), "check_antitone_involution", ()),
    *[(lambda name=name: _table(name), method, ())
      for name in ("fig1", "fig2")
      for method in ("_order", "join_table", "induced_poset", "check_directoid_axioms",
                     "check_identities_1_2", "check_identity_3", "check_implication_4",
                     "check_implication_5")],
    (lambda: _table("fig1", inv=tuple(range(6))), "check_identities_1_2", ()),
    (lambda: MeetDirectoid([[0, 0], [1, 1]]), "check_directoid_axioms", ()),
]


@pytest.mark.parametrize("make, method, args", MEMOISED,
                         ids=[f"{m}{a}-{i}" for i, (_, m, a) in enumerate(MEMOISED)])
def test_memoised_method_scans_once(monkeypatch, make, method, args):
    """A second call returns the identical object and builds no verdict,
    so it scans nothing again; the value is the one an unshared copy of
    the structure computes."""
    built = []
    new = Verdict.__new__
    monkeypatch.setattr(Verdict, "__new__",
                        lambda cls, *a, **k: built.append(a) or new(cls, *a, **k))
    obj = make()
    first = getattr(obj, method)(*args)
    after_first = len(built)
    assert getattr(obj, method)(*args) is first
    assert len(built) == after_first
    assert getattr(make(), method)(*args) == first


def test_memo_keys_carry_the_arguments():
    """fig2 fails all four forms, each with its own detail, so a key
    without its argument would hand one form's verdict to another."""
    p = figure("fig2").base
    got = [p.is_distributive(form).detail for form in DISTRIBUTIVITY_FORMS]
    assert got == [FAILING_DETAILS["fig2", form] for form in DISTRIBUTIVITY_FORMS]


# (fresh structure, method, arguments, error): preconditions that raise
RAISING = [
    *[(lambda: _chain_with((0, 1)), method, (), UsageError)
      for method in ("is_pseudo_kleene", "is_kleene", "is_strong", "is_strict",
                     "is_boolean_poset")],
    *[(lambda: InvolutivePoset(Poset.from_covers(["a", "b"], []), (1, 0)), method, (),
       DomainError) for method in ("is_strict", "is_boolean_poset")],
    (lambda: figure("fig2"), "is_boolean_poset", (), DomainError),
    (lambda: _table("fig1", inv=(1, 2, 0, 3, 4, 5)), "join_table", (), UsageError),
    (lambda: MeetDirectoid(_table("fig1").meet), "check_identities_1_2", (), UsageError),
    (lambda: _table("fig1", inv=tuple(range(6))), "check_identity_3", (), UsageError),
    (lambda: _table("fig1", inv=tuple(range(6))), "check_implication_4", (), UsageError),
    (lambda: MeetDirectoid([[0, 0], [1, 1]]), "induced_poset", (), DomainError),
]


@pytest.mark.parametrize("make, method, args, error", RAISING,
                         ids=[f"{m}-{i}" for i, (_, m, _a, _e) in enumerate(RAISING)])
def test_memoised_method_raises_on_every_call(make, method, args, error):
    """An exception is never kept: the memo holds nothing for the call,
    and the second call raises a new exception of its own."""
    obj = make()
    with pytest.raises(error) as first:
        getattr(obj, method)(*args)
    assert method not in obj._memo and (method, args) not in obj._memo
    with pytest.raises(error) as second:
        getattr(obj, method)(*args)
    assert second.value is not first.value


# -- isomorphism ------------------------------------------------------------

def test_isomorphism_found():
    p = Poset.from_covers(["x", "y", "z"], [("x", "y"), ("x", "z")])
    q = Poset.from_covers(["u", "v", "w"], [("v", "u"), ("v", "w")])
    iso = find_isomorphism(p, q)
    assert iso is not None
    assert iso[p.index("x")] == q.index("v")


def test_isomorphism_absent():
    p = Poset.from_covers(["x", "y", "z"], [("x", "y"), ("y", "z")])
    q = Poset.from_covers(["u", "v", "w"], [("v", "u"), ("v", "w")])
    assert find_isomorphism(p, q) is None


@pytest.mark.parametrize("bad", [(0,), (0, 1, 5), ("a", "b", "c")])
def test_isomorphism_rejects_malformed_maps(bad):
    """A map of the wrong length, with an index outside the carrier or
    with a non-integer entry is a usage error on either side."""
    p = Poset.from_covers(["x", "y", "z"], [("x", "y"), ("x", "z")])
    for p_inv, q_inv in ((bad, (0, 2, 1)), ((0, 2, 1), bad)):
        with pytest.raises(UsageError):
            find_isomorphism(p, p, p_inv, q_inv)


@pytest.mark.parametrize("with_maps", [False, True])
def test_isomorphism_rejects_involutive_posets(with_maps):
    """An InvolutivePoset in place of a Poset, on either side, with or
    without the maps, is one usage error saying to pass its base and map."""
    ip = figure("fig1")
    maps = (ip.inv, ip.inv) if with_maps else ()
    for pair in ((ip, ip.base), (ip.base, ip), (ip, ip)):
        with pytest.raises(UsageError, match=r"pass its \.base and its \.inv"):
            find_isomorphism(*pair, *maps)
    assert find_isomorphism(ip.base, ip.base, *maps) is not None


def test_equality_is_labeled():
    p = Poset.from_covers(["x", "y"], [("x", "y")])
    q = Poset.from_covers(["y", "x"], [("y", "x")])
    assert p != q
    assert p == Poset.from_covers(["x", "y"], [("x", "y")])
