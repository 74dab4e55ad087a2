"""Meet assignments: axioms, the induced order, identities, derived laws.

Identity expectations per figure are frozen from the classification
matrix (see test_involution.py): (3) tracks pseudo-Kleene, (4) Kleene,
(5) strong, (6) strict.  For the small figures every assignment is
checked exhaustively.  The first witness of each of (3)-(6) is compared
with the brute-force transcriptions in ``oracles.py``.
"""

import collections
import itertools
import random
import re

import pytest

from kleene_posets import (DomainError, InvolutivePoset, MeetDirectoid, Poset,
                           UsageError, all_assignments, assign_directoid,
                           assignment_choices, assignment_count,
                           check_derived_set_laws, check_printed_u_pair_law,
                           directoid_from_choices, enumerate_involutions,
                           enumerate_posets, figure, iter_assignments)

from kleene_posets import directoid
from kleene_posets.directoid import (ASSIGNMENT_CAP, _capped_assignments, _identity_2,
                                     _identity_2_maps, _IdentityWalk, _order_masks,
                                     _signature)
from kleene_posets.enumeration import _RUNGS, UNARY_MAPS

from oracles import (_ref_premise_table, ref_derived_set_laws, ref_directoid_axioms,
                     ref_identity_3, ref_implication_4, ref_implication_5,
                     ref_implication_6)

SMALL_FIGS = ["fig1", "fig2", "fig3", "fig4", "fig5"]

# (identity3, implication4, implication5, implication6) expected on every
# assignment, frozen from the ladder flags (pk, kleene, strong, strict):
IDENTITY_MATRIX = {
    "fig1": (True, True, False, False),
    "fig2": (True, False, False, False),
    "fig3": (True, False, False, False),
    "fig4": (True, True, True, True),
    "fig5": (True, True, False, False),
}

ASSIGNMENT_COUNTS = {"fig1": 3, "fig2": 3, "fig3": 4, "fig4": 2, "fig5": 4}


@pytest.mark.parametrize("name", SMALL_FIGS)
def test_assignment_count(name):
    assert assignment_count(figure(name)) == ASSIGNMENT_COUNTS[name]


def test_large_assignment_spaces():
    assert assignment_count(figure("fig6")) == 9685512225
    assert assignment_count(figure("fig7")) == 16986931200


def test_assignment_count_is_the_number_of_assignments():
    """On every directed poset with n <= 5 the count is the number of
    tables the generator yields."""
    posets = _directed(5)
    assert [assignment_count(p) for p in posets] == \
        [sum(1 for _ in iter_assignments(p)) for p in posets]
    assert len(posets) == 25


def test_assignment_count_is_the_cone_product(monkeypatch):
    """On every directed poset with n <= 7 (the bound raised in this
    process only) the count is the product of |L(x) ∩ L(y)| over the
    incomparable pairs x < y, counted element by element through
    ``leq``."""
    monkeypatch.setattr("kleene_posets.enumeration.ENUMERATION_BOUND", 7)
    posets = _directed(7)
    for p in posets:
        rng = range(p.n)
        want = 1
        for x, y in itertools.combinations(rng, 2):
            if not (p.leq(x, y) or p.leq(y, x)):
                want *= sum(p.leq(z, x) and p.leq(z, y) for z in rng)
        assert assignment_count(p) == want
    assert len(posets) == 406


@pytest.mark.parametrize("name", SMALL_FIGS)
def test_axioms_and_roundtrip_all_assignments(name):
    ip = figure(name)
    for d in all_assignments(ip):
        assert d.check_directoid_axioms().ok
        assert d.induced_poset() == ip.base


@pytest.mark.parametrize("name", SMALL_FIGS)
def test_identities_all_assignments(name):
    ip = figure(name)
    want3, want4, want5, want6 = IDENTITY_MATRIX[name]
    for d in all_assignments(ip):
        assert d.check_identities_1_2().ok
        assert d.check_identity_3().ok == want3
        assert d.check_implication_4().ok == want4
        assert d.check_implication_5().ok == want5
        assert d.check_implication_6("0", "1").ok == want6


def test_sampled_assignments_fig6_fig7():
    """First 25 assignments of the two large figures: (5) tracks strong,
    (6) tracks strict."""
    for name, want5, want6 in (("fig6", True, False), ("fig7", True, True)):
        ip = figure(name)
        for d in itertools.islice(iter_assignments(ip), 25):
            assert d.check_identities_1_2().ok
            assert d.check_implication_5().ok == want5
            assert d.check_implication_6("0", "1").ok == want6


def test_default_assignment_choices_fig1():
    d = assign_directoid(figure("fig1"))
    assert assignment_choices(d, figure("fig1")) == \
        {"a,b": "0", "b',a'": "0"}


def test_choices_roundtrip():
    ip = figure("fig3")
    for d in all_assignments(ip):
        choices = assignment_choices(d, ip)
        rebuilt = directoid_from_choices(ip, choices)
        assert rebuilt.meet == d.meet and rebuilt.inv == d.inv


def test_chooser_is_consulted_and_validated():
    ip = figure("fig1")
    picks = []

    def chooser(x, y, cands):
        picks.append((x, y, cands))
        return cands[-1]

    d = assign_directoid(ip, chooser)
    assert len(picks) == 2
    assert d.check_directoid_axioms().ok
    with pytest.raises(UsageError):
        assign_directoid(ip, lambda x, y, c: 999)


def test_cap_enforced():
    with pytest.raises(DomainError) as exc:
        all_assignments(figure("fig6"))
    assert "over the cap" in str(exc.value)


def test_cap_above_maxsize_is_no_cap():
    ip = figure("fig4")
    assert [d.meet for d in all_assignments(ip, cap=10**20)] == \
        [d.meet for d in all_assignments(ip)]


def test_not_downward_directed():
    p = Poset.from_covers(["x", "y"], [])
    with pytest.raises(DomainError) as exc:
        assign_directoid(p)
    assert "downward directed" in str(exc.value)


def test_join_table_duality():
    """x join y = (x' meet y')' and induced join order is dual."""
    ip = figure("fig1")
    d = assign_directoid(ip)
    join = d.join_table()
    inv = d.inv
    for x, y in itertools.product(range(d.n), repeat=2):
        assert join[x][y] == inv[d.meet[inv[x]][inv[y]]]


def test_join_requires_unary_map():
    d = assign_directoid(figure("fig8"))
    with pytest.raises(UsageError):
        d.join_table()


def test_plain_poset_assignment():
    p = figure("fig8")
    ds = all_assignments(p)
    assert len(ds) == 2
    for d in ds:
        assert d.check_directoid_axioms().ok
        assert d.induced_poset() == p
        assert d.inv is None


# -- axiom failure witnesses -------------------------------------------------

def test_idempotency_witness():
    d = MeetDirectoid([[1, 0], [0, 1]], labels=["p", "q"])
    v = d.check_directoid_axioms()
    assert not v.ok and v.witness[0] == "idempotency"


def test_commutativity_witness():
    d = MeetDirectoid([[0, 0, 0], [1, 1, 1], [0, 1, 2]])
    v = d.check_directoid_axioms()
    assert not v.ok and v.witness[0] == "commutativity"


def test_weak_associativity_witness():
    # idempotent, commutative, but (x0 m (x1 m x2)) m x2 breaks
    table = [[0, 0, 1], [0, 1, 1], [1, 1, 2]]
    d = MeetDirectoid(table)
    v = d.check_directoid_axioms()
    assert not v.ok and v.witness[0] == "weak associativity"


def _axiom_failure(table):
    v = MeetDirectoid(table).check_directoid_axioms()
    return None if v.ok else v.witness


@pytest.mark.parametrize("n, cap", [(1, None), (2, None), (3, None), (4, None),
                                    (5, 5)])
def test_directoid_axioms_match_oracle(n, cap):
    """The axioms against ``ref_directoid_axioms`` on every assignment of
    every directed poset of size n (the first ``cap`` of them), on a
    seeded relabelling of each, and on seeded edits of both: one cell set
    to a random value, and one cell and its mirror set to the same random
    value.  The edits reach every failure tag, weak associativity
    included, so the rescan that finds its witness runs."""
    rng = random.Random(100 + n)
    ident = list(range(n))
    tags = collections.Counter()
    for p in filter(Poset.is_downward_directed, enumerate_posets(n)):
        for base in itertools.islice(iter_assignments(p), cap):
            perm = ident[:]
            rng.shuffle(perm)
            tables = [base.meet, _relabelled(base.meet, ident, perm).meet]
            for table in tables[:2]:
                for mirrored in (False, True):
                    for _ in range(3):
                        edited = [list(row) for row in table]
                        x, y, v = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                        edited[x][y] = v
                        if mirrored:
                            edited[y][x] = v
                        tables.append(edited)
            for table in tables:
                want = ref_directoid_axioms(table)
                assert _axiom_failure(table) == want
                tags[want and want[0]] += 1
    assert tags[None] > 0
    if n >= 3:
        assert {"idempotency", "commutativity", "weak associativity"} <= set(tags)


def test_induced_relation_must_be_order():
    d = MeetDirectoid([[0, 0], [1, 1]])  # x<=y and y<=x, antisymmetry fails
    with pytest.raises(DomainError):
        d.induced_poset()


@pytest.mark.parametrize("n", range(1, 6))
def test_order_view_roundtrip_agrees_with_induced_poset(n):
    """``_induces(p)``, which reads the cached order view, agrees with
    ``induced_poset() == p`` on every capped table of every directed poset."""
    for p in enumerate_posets(n):
        try:
            tables = list(itertools.islice(iter_assignments(p), 1000))
        except DomainError:  # not downward directed
            continue
        for d in tables:
            assert d._induces(p) == (d.induced_poset() == p)


def test_order_view_roundtrip_rejects_other_orders():
    p = figure("fig8")
    d = assign_directoid(p)
    assert d._induces(p)
    assert not d._induces(Poset(["x0", "x1", "x2", "x3"], p._up))
    assert not d._induces(Poset(p.labels, [0b1111, 0b0010, 0b0100, 0b1000]))
    bad = MeetDirectoid([[0, 0], [1, 1]])  # no partial order is induced
    assert not bad._induces(Poset(bad.labels, [0b01, 0b10]))


def test_malformed_tables_rejected():
    with pytest.raises(UsageError):
        MeetDirectoid([[0, 1]])
    with pytest.raises(UsageError):
        MeetDirectoid([[0, 5], [0, 1]])
    with pytest.raises(UsageError):
        MeetDirectoid([[0, 0], [0, 1]], labels=["only-one"])
    with pytest.raises(UsageError):
        MeetDirectoid([[0, 0], [0, 1]], inv=[0])


def test_duplicate_labels_rejected():
    """As ``Poset`` does: a repeated name would resolve to its first
    element only."""
    with pytest.raises(UsageError, match="duplicate element names"):
        MeetDirectoid([[0, 0], [0, 1]], labels=("a", "a"))
    d = MeetDirectoid([[0, 0], [0, 1]], labels=("a", "b"))
    assert (d._element("a"), d._element("b")) == (0, 1)


@pytest.mark.parametrize("meet, inv", [
    ([[0, 0], [0, 1.5]], None),
    ([[0, 0], [0, 1]], [1, 0.5]),
    ([[0, 0], [0, "a"]], None),
    ([[0, 0], [0, 1.0]], None),
    ([[0, 0], [0, [1]]], None),
    ([[0, 0], [0, 1]], [1, "0"]),
])
def test_non_integer_entries_rejected(meet, inv):
    with pytest.raises(UsageError):
        MeetDirectoid(meet, inv=inv)


def test_implication6_validates_bounds():
    d = assign_directoid(figure("fig1"))
    with pytest.raises(UsageError):
        d.check_implication_6("a", "1")
    with pytest.raises(UsageError):
        d.check_implication_6("0", "b'")


def test_implication6_reads_the_top_in_the_induced_order():
    """x <= top means x ⊓ top = x.  In this non-commutative table every
    top ⊓ x = x, but x1 ⊓ x2 = x0, so x2 is not a top."""
    d = MeetDirectoid([[0, 0, 0], [0, 1, 0], [0, 1, 2]], inv=[2, 1, 0])
    with pytest.raises(UsageError, match="do not bound"):
        d.check_implication_6(0, 2)


@pytest.mark.parametrize("bounds", [("zz", "1"), ("0", "zz"), (-1, 5),
                                    (0, 6), (99, 5)])
def test_implication6_rejects_unknown_bounds(bounds):
    d = assign_directoid(figure("fig1"))
    assert d.labels[0] == "0" and d.labels[5] == "1"
    with pytest.raises(UsageError, match="unknown element name|out of range"):
        d.check_implication_6(*bounds)


# -- derived-set laws ----------------------------------------------------------

@pytest.mark.parametrize("name", SMALL_FIGS)
def test_derived_set_laws_hold(name):
    ip = figure(name)
    for d in all_assignments(ip):
        assert check_derived_set_laws(d, ip).ok


def test_derived_set_laws_sampled_large():
    for name in ("fig6", "fig7"):
        ip = figure(name)
        for d in itertools.islice(iter_assignments(ip), 5):
            assert check_derived_set_laws(d, ip).ok


def test_derived_set_laws_match_oracle_on_random_tables():
    """Seeded tables on every poset with n <= 4 under each of its antitone
    involutions, each entry x ∘ y drawn from L(y), so that the single
    cones often hold and the pair laws are reached; some tables are made
    idempotent, some keep the order's minimum on comparable pairs, and
    some are made commutative where a common lower bound allows it.
    Non-commutative tables fail the pair laws at pairs (x, y) with x > y
    whose mirror holds, which a scan of x <= y alone would miss."""
    rng = random.Random(11)
    mirrored = 0
    for n in range(1, 5):
        for p in enumerate_posets(n):
            leq = {(a, b) for a in range(n) for b in range(n) if p.leq(a, b)}
            downs = [[a for a in range(n) if p.leq(a, y)] for y in range(n)]
            for inv in enumerate_involutions(p):
                for k in range(30):
                    table = [[rng.choice(downs[y]) for y in range(n)]
                             for _ in range(n)]
                    if k % 3:
                        for x in range(n):
                            table[x][x] = x
                    if k % 3 == 2:
                        for x, y in leq:
                            table[x][y] = table[y][x] = x
                    if k % 2:
                        for x, y in itertools.combinations(range(n), 2):
                            if p.leq(table[x][y], x):
                                table[y][x] = table[x][y]
                    d = MeetDirectoid(table, inv=inv, labels=p.labels)
                    want = ref_derived_set_laws(table, list(inv), leq)
                    assert _first(check_derived_set_laws(d, p)) == want
                    mirrored += (want is not None and len(want) == 3
                                 and want[1] > want[2])
    assert mirrored >= 5


def test_derived_set_laws_commutative_table_fails_on_the_diagonal():
    """A commutative table on the chain 0 < 1 < 2 whose single cones hold
    but with 1 ∘ 1 = 0, so 1 ⊔ 1 = 2 under the reversal: the pair laws
    first fail at (0, 0), a diagonal pair that a scan of x < y alone
    would skip."""
    chain = Poset.from_covers(["0", "1", "2"], [("0", "1"), ("1", "2")])
    table = [[0, 0, 0], [0, 0, 1], [0, 1, 2]]
    d = MeetDirectoid(table, inv=(2, 1, 0), labels=chain.labels)
    leq = {(a, b) for a in range(3) for b in range(3) if a <= b}
    assert ref_derived_set_laws(table, [2, 1, 0], leq) == ("U(x,y)", 0, 0)
    verdict = check_derived_set_laws(d, chain)
    assert verdict.witness == ("U(x,y)", 0, 0)
    assert verdict.detail == "{(t join 0) join (t join 0)} != U(0,0)"


def test_printed_u_pair_law_fails_on_two_chain():
    """The inner-meet reading of the upper-pair law is refuted already on
    the two-element chain; the proof form (tested above) always holds."""
    from kleene_posets import InvolutivePoset
    chain = Poset.from_covers(["x0", "x1"], [("x0", "x1")])
    two = InvolutivePoset(chain, (1, 0))
    d = assign_directoid(two)
    v = check_printed_u_pair_law(d, two)
    assert not v.ok


# -- identities (3)-(6) against the brute-force oracles ------------------------

def _involutions(n):
    """Every map u of range(n) with u(u(x)) = x, antitone or not."""
    return [u for u in itertools.permutations(range(n))
            if all(u[u[x]] == x for x in range(n))]


def _first(verdict):
    return None if verdict.ok else verdict.witness


def _assert_matches_oracles(d, bound_pairs):
    """Every checker against its oracle.  On a commutative table the first
    failure of (4) must have x <= y, the argument that lets the checker
    skip y < x; returns whether that assertion ran."""
    meet, inv = [list(row) for row in d.meet], list(d.inv)
    half_scan = False
    if d.check_identities_1_2().ok:
        assert _first(d.check_identity_3()) == ref_identity_3(meet, inv)
        want4 = ref_implication_4(meet, inv)
        assert _first(d.check_implication_4()) == want4
        if want4 is not None and d.meet == tuple(zip(*d.meet)):
            _, _, x, y, _ = want4
            assert x <= y
            half_scan = True
    assert _first(d.check_implication_5()) == ref_implication_5(meet, inv)
    for bottom, top in bound_pairs:
        try:
            want = ref_implication_6(meet, inv, bottom, top)
        except ValueError:
            with pytest.raises(UsageError, match="do not bound"):
                d.check_implication_6(bottom, top)
        else:
            assert _first(d.check_implication_6(bottom, top)) == want
    return half_scan


def _relabelled(table, inv, perm):
    """The same directoid with element x moved to index perm[x]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x, y in itertools.product(range(n), repeat=2):
        out[perm[x]][perm[y]] = perm[table[x][y]]
    moved = [0] * n
    for x in range(n):
        moved[perm[x]] = perm[inv[x]]
    return MeetDirectoid(out, inv=moved)


@pytest.mark.parametrize("n, cap", [(1, None), (2, None), (3, None), (4, None),
                                    (5, 5)])
def test_identities_match_oracles_on_directed_posets(n, cap):
    """Every directed poset of size n, every involutive map (antitone or
    not) and every assignment, or the first ``cap`` of them; each table
    also under a seeded relabelling, so that index order is not the
    induced order and the scan order of a witness is exercised.  The
    directoid the map audits assemble (``_with_map`` on the validated
    table) must read exactly as the public constructor's.  Commutative
    tables failing (4) first occur at n = 5."""
    rng = random.Random(n)
    bound_pairs = list(itertools.product(range(n), repeat=2))
    half_scans = 0
    for p in filter(Poset.is_downward_directed, enumerate_posets(n)):
        tables = list(itertools.islice(iter_assignments(p), cap))
        for u in _involutions(n):
            for base in tables:
                perm = list(range(n))
                rng.shuffle(perm)
                public = MeetDirectoid(base.meet, inv=u)
                assembled = base._with_map(InvolutivePoset(p, u).inv)
                for d in (public, _relabelled(base.meet, u, perm), assembled):
                    half_scans += _assert_matches_oracles(d, bound_pairs)
                _assert_same_verdicts(assembled, public, bound_pairs)
                assert assembled._order() is base._order()
    assert (half_scans > 0) == (n == 5)


def _verdicts(d, bound_pairs):
    """Every checker's (ok, witness, detail), or the error it raises."""
    def outcome(check, *args):
        try:
            v = check(*args)
        except (UsageError, DomainError) as exc:
            return type(exc), str(exc)
        return v if isinstance(v, Poset) else (v.ok, v.witness, v.detail)
    checks = [(d.check_identities_1_2,), (d.check_identity_3,),
              (d.check_implication_4,), (d.check_implication_5,),
              (d.induced_poset,)]
    checks += [(d.check_implication_6, b, t) for b, t in bound_pairs]
    return [outcome(*c) for c in checks]


def _assert_same_verdicts(assembled, public, bound_pairs):
    """The (table, map) directoid an audit assembles from a validated
    table and a validated map reads exactly as the public constructor's."""
    assert (assembled.n, assembled.labels, assembled.meet, assembled.inv) == \
        (public.n, public.labels, public.meet, public.inv)
    assert _verdicts(assembled, bound_pairs) == _verdicts(public, bound_pairs)


@pytest.mark.parametrize("name", SMALL_FIGS + ["fig6", "fig7"])
def test_identities_match_oracles_on_figures(name):
    ip = figure(name)
    cap = None if name in SMALL_FIGS else 3
    half_scans = [_assert_matches_oracles(d, [(ip.index("0"), ip.index("1"))])
                  for d in itertools.islice(iter_assignments(ip), cap)]
    # every assignment is commutative, so (4) fails exactly off the Kleene figures
    assert all(half_scans) == (name in ("fig2", "fig3", "fig6"))


def _random_involution(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    inv = list(range(n))
    for a in range(0, n - 1, 2):
        if rng.random() < 0.7:
            inv[perm[a]], inv[perm[a + 1]] = perm[a + 1], perm[a]
    return inv


def _repair_identity_2(rng, table, inv):
    """Edit random cells until (x ⊓ y)' ⊓ y' = y' holds everywhere, or
    give up after 200 edits."""
    n = len(table)
    for _ in range(200):
        bad = [(x, y) for x, y in itertools.product(range(n), repeat=2)
               if table[inv[table[x][y]]][inv[y]] != inv[y]]
        if not bad:
            return
        x, y = rng.choice(bad)
        if rng.random() < 0.5:
            table[inv[table[x][y]]][inv[y]] = inv[y]
        else:
            table[x][y] = rng.randrange(n)


def test_identities_match_oracles_on_random_tables():
    """Seeded tables that need not be commutative or idempotent.  Some get
    a bottom row and an identity top row, so that (6) also runs past its
    bounds check; some get an involution and edits until (1) and (2)
    hold, so that (3) and (4) run on tables no poset assigns, where a
    failing (x, y, z) of (4) can have several failing w."""
    rng = random.Random(7)
    for _ in range(400):
        n = rng.randint(1, 5)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            inv = [rng.randrange(n) for _ in range(n)]
            bottom, top = rng.randrange(n), rng.randrange(n)
            table[bottom] = [bottom] * n
            table[top] = list(range(n))
        else:
            inv = _random_involution(rng, n)
            _repair_identity_2(rng, table, inv)
        d = MeetDirectoid(table, inv=inv)
        _assert_matches_oracles(d, list(itertools.product(range(n), repeat=2)))


def test_first_implication_4_witness_pinned():
    for name, witness, detail in (
            ("fig2", (2, 0, 1, 3, 2),
             "(4) fails at (w,s,x,y,z) = (b, 0, a, c, b): premises hold "
             "but b !<= 0"),
            ("fig6", (4, 2, 3, 5, 4),
             "(4) fails at (w,s,x,y,z) = (d, b, c, e, d): premises hold "
             "but d !<= b")):
        v = assign_directoid(figure(name)).check_implication_4()
        assert (v.ok, v.witness, v.detail) == (False, witness, detail)


def test_implication_4_reports_the_first_failing_w():
    """A table where (1) and (2) hold without commutativity and both w = x1
    and w = x2 fail at the first failing (x, y, z); the witness takes the
    first in scan order."""
    table = [[0, 2, 2, 3], [0, 1, 1, 3], [0, 2, 2, 3], [2, 2, 2, 3]]
    inv = [0, 3, 2, 1]
    v = MeetDirectoid(table, inv=inv).check_implication_4()
    assert v.witness == ref_implication_4(table, inv) == (1, 3, 0, 3, 1)


def _kernel_identities_1_2(d, u):
    """(1) as the map audits guard it, per map, and (2) as they decide
    it, from the table's order view (``_identity_2``)."""
    _, _, lower, cols = d._order()
    involutive = all(u[u[x]] == x for x in range(len(u)))
    return involutive and _identity_2((cols, lower), u)


def test_identity_2_kernel_on_every_map_of_every_directed_table():
    """Every directed poset with n <= 4, every one of its tables and every
    one of the n^n maps of the carrier, involutions or not."""
    held = checked = 0
    for n in range(1, 5):
        for p in filter(Poset.is_downward_directed, enumerate_posets(n)):
            for d in iter_assignments(p):
                for u in itertools.product(range(n), repeat=n):
                    want = MeetDirectoid(d.meet, inv=u).check_identities_1_2().ok
                    assert _kernel_identities_1_2(d, u) == want
                    held += want
                    checked += 1
    assert (held, checked) == (6, 1595)


def _ref_order_masks(table):
    n = len(table)
    return [[sum(1 << y for y in range(n) if table[x][y] == x) for x in range(n)],
            [sum(1 << x for x in range(n) if table[x][y] == x) for y in range(n)],
            [sum(1 << y for y in range(n) if table[x][y] == y) for x in range(n)],
            [sum(1 << v for v in {table[x][y] for x in range(n)}) for y in range(n)]]


@pytest.mark.parametrize("name, held, failed", [("fig1", 318, 40722),
                                                ("fig4", 224, 27136)])
def test_identity_2_kernel_on_single_entry_edits(name, held, failed):
    """Every single-entry edit of every assignment table of the figure,
    most of them not commutative, not idempotent or failing the axioms,
    under every involution of the carrier: the order view matches its
    brute-force transcription, and the kernel matches
    ``check_identities_1_2``."""
    n = figure(name).n
    maps = [u for u in itertools.product(range(n), repeat=n)
            if all(u[u[x]] == x for x in range(n))]
    outcomes = collections.Counter()
    for d in iter_assignments(figure(name)):
        for x, y, v in itertools.product(range(n), repeat=3):
            if v == d.meet[x][y]:
                continue
            table = [list(row) for row in d.meet]
            table[x][y] = v
            assert list(_order_masks(table)) == _ref_order_masks(table)
            edited = MeetDirectoid(table)
            for u in maps:
                want = edited._with_map(u).check_identities_1_2().ok
                assert _kernel_identities_1_2(edited, u) == want
                outcomes[want] += 1
    assert outcomes == {True: held, False: failed}


def _brute_identity_2_maps(signature):
    """Every involution of the carrier, filtered by ``_identity_2``."""
    return [u for u in _involutions(len(signature[0])) if _identity_2(signature, u)]


def test_identity_2_search_on_every_directed_poset():
    """The search equals the brute filter on the one (2) signature of the
    assigned tables of every directed poset with n <= 6 (``cols`` and
    ``lower`` are its down-sets whatever the choices), where it finds
    the antitone involutions: 33 maps in all, fixed points among them."""
    found = 0
    for n in range(1, 7):
        for p in filter(Poset.is_downward_directed, enumerate_posets(n)):
            (signature,) = set(map(_signature, iter_assignments(p)))
            got = _identity_2_maps(signature)
            assert got == _brute_identity_2_maps(signature)
            assert tuple(got) == enumerate_involutions(p)
            found += len(got)
    assert found == 33


@pytest.mark.parametrize("name, groups, found", [("fig1", 141, 68),
                                                 ("fig4", 143, 70)])
def test_identity_2_search_on_single_entry_edits(name, groups, found):
    """The search equals the brute filter on the (2) signature of every
    single-entry edit of the figure's assignment tables; the edits'
    signatures differ from the assigned ones, so the maps found need
    not be antitone involutions of the figure."""
    tables = list(iter_assignments(figure(name)))
    signatures = set(map(_signature, _single_entry_edits(tables)))
    signatures -= set(map(_signature, tables))
    total = 0
    for signature in signatures:
        got = _identity_2_maps(signature)
        assert got == _brute_identity_2_maps(signature)
        total += len(got)
    assert (len(signatures), total) == (groups, found)


def _maps_passing_some_table(tables):
    """The involutions under which the public checker finds (1)/(2) on
    one of ``tables``."""
    return [u for u in _involutions(tables[0].n)
            if any(d._with_map(u).check_identities_1_2().ok for d in tables)]


def _swept_walk(source, cap=ASSIGNMENT_CAP):
    """The walk over ``source``'s first ``cap`` tables, built as the map
    spaces' sweep and the CLI build it, and those tables."""
    walk = _capped_assignments(source, cap)
    return walk, list(walk.tables())


def test_walk_maps_passing_span_its_groups():
    """The walk's maps under which (1)/(2) hold on some table, against the
    public checker: on each of fig1's and fig4's assigned tables, walked
    as the sweep walks them (the first decides, one signature, the
    figure's two maps) and as a hand-built list (each alone), on the
    first table of each (two signatures, three maps), and on both
    figures' tables and their single-entry edits (286 signatures, five
    maps, more than any one signature gives), each walked forward and
    reversed."""
    firsts, every = [], []
    for name in ("fig1", "fig4"):
        walk, tables = _swept_walk(figure(name))
        want = _maps_passing_some_table(tables)
        assert walk.shared and walk.maps_passing() == want
        assert _IdentityWalk(tables).maps_passing() == want
        assert want == list(enumerate_involutions(figure(name).base))
        firsts.append(tables[0])
        every += tables + list(_single_entry_edits(tables))
    for tables, groups, found in ((firsts, 2, 3), (every, 286, 5)):
        want = _maps_passing_some_table(tables)
        for walk in (_IdentityWalk(tables), _IdentityWalk(tables[::-1])):
            assert walk.maps_passing() == want
        signatures = set(map(_signature, tables))
        assert (len(signatures), len(want)) == (groups, found)
    assert found > max(len(_identity_2_maps(s)) for s in signatures)


def test_identity_2_search_on_arbitrary_signatures():
    """The search's argument holds for any two lists of masks, so seeded
    arbitrary ``(cols, lower)`` with n <= 5 are checked against the brute
    filter as well.  Table signatures rarely need the constraints checked
    from the end mapped last through ``cols[m]``; these often do.  Two
    pinned signatures come first: without the ``into`` check of the
    search's ``fits`` it also returns (0, 2, 1, 3) on the first, and
    without the ``cols`` check it returns (2, 1, 0) on the second, where
    no map holds."""
    rng = random.Random(3)
    seeded = (tuple(tuple(rng.randrange(1 << n) for _ in range(n)) for _ in range(2))
              for n in (rng.randint(1, 5) for _ in range(2000)))
    pinned = [((9, 15, 12, 1), (15, 7, 12, 13)), ((0, 3, 7), (7, 3, 5))]
    found = 0
    for signature in itertools.chain(pinned, seeded):
        got = _identity_2_maps(signature)
        assert got == _brute_identity_2_maps(signature)
        found += len(got)
    assert found == 703 + 1


def _fresh_identity_verdicts(table, inv, bounds):
    """(1)/(2), (3), (4), (5) and (6) by fresh public checker calls on a
    newly constructed directoid, as the CLI ``directoid`` block reads them."""
    d = MeetDirectoid(table.meet, inv=inv, labels=table.labels)
    i12 = d.check_identities_1_2()
    if not i12.ok:
        return i12, None, None, None, None
    return (i12, d.check_identity_3(), d.check_implication_4(),
            d.check_implication_5(),
            None if None in bounds else d.check_implication_6(*bounds))


# Each map claim rung's table side past (1)/(2), as fresh public checks.
FRESH_RUNGS = {
    "involution": lambda d, bounds: True,
    "pk": lambda d, bounds: d.check_identity_3().ok,
    "kleene": lambda d, bounds: (d.check_identity_3().ok
                                 and d.check_implication_4().ok),
    "strong": lambda d, bounds: d.check_implication_5().ok,
    "strict": lambda d, bounds: d.check_implication_6(*bounds).ok,
    "strict-kleene": lambda d, bounds: (d.check_implication_4().ok
                                        and d.check_implication_6(*bounds).ok),
}


def _rungs(bounds):
    """The rungs readable under ``bounds``: those reading (6) need both."""
    return [rung for rung in FRESH_RUNGS
            if None not in bounds or 6 not in _RUNGS[rung][1]]


def _fresh_rung_sides(table, inv, bounds):
    """Each rung's table side on a newly constructed directoid."""
    d = MeetDirectoid(table.meet, inv=inv, labels=table.labels)
    held = d.check_identities_1_2().ok
    return {rung: held and FRESH_RUNGS[rung](d, bounds) for rung in _rungs(bounds)}


def _walk_reads(walk, tables, inv, bounds):
    """The walk's verdicts and rung sides on each of ``tables``, its own,
    under one map.  On every other table the rung sides are read first,
    so both orders of filling the memo are exercised."""
    walk.under(inv, bounds)
    got = []
    for i, table in enumerate(tables):
        def sides():
            return {rung: walk.holds(table, *_RUNGS[rung][1]) for rung in _rungs(bounds)}
        if i % 2:
            rung_sides = sides()
            verdicts = walk.verdicts(table)
        else:
            verdicts = walk.verdicts(table)
            rung_sides = sides()
        got.append((verdicts, rung_sides))
    return got


def _fresh_reads(tables, inv, bounds):
    return [(_fresh_identity_verdicts(t, inv, bounds), _fresh_rung_sides(t, inv, bounds))
            for t in tables]


def _assert_walk_matches_fresh_calls(tables, inv, bounds):
    """The walk over ``tables`` and over them reversed, each a hand-built
    list, matches fresh calls per table, verdicts and rung sides alike.
    Whether (3) holds is shared by a shared walk, so sharing it too widely
    shows only when a table where it holds is walked first."""
    assert set(FRESH_RUNGS) == set(_RUNGS)
    fresh = _fresh_reads(tables, inv, bounds)
    assert _walk_reads(_IdentityWalk(tables), tables, inv, bounds) == fresh
    assert _walk_reads(_IdentityWalk(tables[::-1]), tables[::-1], inv, bounds) == fresh[::-1]
    return [verdicts for verdicts, _ in fresh]


def test_identity_walk_matches_fresh_checks_on_figure_assignments(monkeypatch):
    """The first 200 assignment tables of every fixture figure that has a
    map and a bottom, walked as the sweep walks them, under the figure's
    map, and their first 20, so walked and as hand-built lists, under
    seeded other maps of the carrier (most failing (1) or (2)) and under
    the constant map onto the top.  The swept walk's first table decides
    for all, so (4) is decided once per walk under the figure's map."""
    decisions = []
    decide_4 = MeetDirectoid._implication_4
    monkeypatch.setattr(MeetDirectoid, "_implication_4",
                        lambda d, *a: decisions.append(d) or decide_4(d, *a))
    rng = random.Random(20)
    walked = []
    for name in [f"fig{i}" for i in range(1, 10)]:
        ip = figure(name)
        if not isinstance(ip, InvolutivePoset) or None in ip.bounds():
            continue
        walked.append(name)
        p = ip.base
        walk, tables = _swept_walk(p, 200)
        del decisions[:]
        got = _walk_reads(walk, tables, ip.inv, p.bounds())
        assert walk.shared and len(decisions) == 1
        assert got == _fresh_reads(tables, ip.inv, p.bounds())
        maps = [tuple(_random_involution(rng, p.n) if rng.random() < 0.5
                      else [rng.randrange(p.n) for _ in range(p.n)]) for _ in range(5)]
        # antitone, so (2) holds on every assigned table, but not (1)
        for u in maps + [(p.bounds()[1],) * p.n]:
            fresh = _assert_walk_matches_fresh_calls(tables[:20], u, p.bounds())
            assert [v for v, _ in _walk_reads(walk, tables[:20], u, p.bounds())] == fresh
    assert walked == ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"]


def test_one_walk_reads_each_map_afresh():
    """One walk over a figure's tables, read under its antitone
    involutions in turn and then under the first again, matches fresh
    checks under each.  fig4's two maps differ on (3), (5) and (6), and
    the first table decides for all, so a walk that kept one map's memo
    for the next would answer with the first map's verdicts."""
    for name in ("fig2", "fig4"):
        ip = figure(name)
        p = ip.base
        walk, tables = _swept_walk(p)
        maps = enumerate_involutions(p)
        reads = []
        for u in maps + maps[:1]:
            reads.append(_walk_reads(walk, tables, u, p.bounds()))
            assert reads[-1] == _fresh_reads(tables, u, p.bounds())
        assert reads[0] != reads[1]


def test_swept_walks_match_fresh_checks_on_every_directed_poset(monkeypatch):
    """The gate for the shared walk: every directed poset with n <= 6,
    walked as Lem-4.1's sweep walks it, under each map that Lem-4.1 or
    the characterisations evaluate on it, and read on every capped table
    as the CLI reads them: each verdict, witness and detail included,
    and each rung side, is what fresh public checks give.  The first
    table decides for all of them, and the cells are checked once per
    poset."""
    checked = []
    cells_in_cones = directoid._cells_in_cones
    monkeypatch.setattr(directoid, "_cells_in_cones",
                        lambda p, *cells: checked.append(p) or cells_in_cones(p, *cells))
    posets = maps = tables = 0
    for group in UNARY_MAPS.sweep(6, ASSIGNMENT_CAP):
        walk = group.walk
        swept = list(walk.tables())
        assert walk.shared and len(walk.deciding) == 1
        for ip in group.members:
            bounds = ip.bounds() if ip.check_antitone_involution().ok else (0, 0)
            fresh = _fresh_reads(swept, ip.inv, bounds)
            assert _walk_reads(walk, swept, ip.inv, bounds) == fresh
            maps += 1
        posets += 1
        tables += len(swept)
    assert len(checked) == len(set(checked)) == posets
    assert (posets, maps, tables) == (88, 33, 435)


def _single_entry_edits(tables):
    """Every table one entry away from one of ``tables`` and not among
    them, each once, in scan order."""
    seen = {d.meet for d in tables}
    for d in tables:
        n = d.n
        for x, y, v in itertools.product(range(n), repeat=3):
            table = [list(row) for row in d.meet]
            table[x][y] = v
            edited = MeetDirectoid(table, labels=d.labels)
            if edited.meet not in seen:
                seen.add(edited.meet)
                yield edited


@pytest.mark.parametrize("name, depth, passing, bounded", [
    ("fig1", 1, 153, 54), ("fig2", 1, 309, 132), ("fig3", 1, 464, 216),
    ("fig4", 1, 106, 38), ("fig5", 1, 344, 148), ("fig4", 2, 2727, 353)])
def test_identity_walk_matches_fresh_checks_on_edits(name, depth, passing, bounded):
    """The figure's assignment tables and their single-entry edits (with
    depth 2, the single-entry edits of those edits that pass (1)/(2)),
    walked under the figure's map.  Edits that still pass (1)/(2) break
    commutativity, so they fail the axioms, and may keep (2)'s signature
    while changing ``lset`` and ``above``; the other edits change (2)'s
    signature.  The walks are hand-built lists, so each table decides
    alone: a walk that shared the first table's verdicts without checking
    cells fails on every case.  (6) rejects bounds that no longer bound an
    edited table's order, so the walk with the figure's bounds takes only
    the passing edits that keep them, and the walks before leave (6) out."""
    ip = figure(name)
    tables = level = list(iter_assignments(ip.base))
    for _ in range(depth - 1):
        level = [d for d in _single_entry_edits(level)
                 if d._with_map(ip.inv).check_identities_1_2().ok]
    kept, within = _walk_edits(ip, tables, list(_single_entry_edits(level)))
    assert (len(kept), len(within)) == (passing, bounded)


def _walk_edits(ip, tables, edits):
    """The walk over ``tables + edits`` under ``ip``'s map, without
    bounds, and over ``tables`` plus the edits passing (1)/(2) that keep
    ``ip``'s bounds, with them, against fresh calls; the edits passing
    (1)/(2), and those of them within the bounds."""
    got = _assert_walk_matches_fresh_calls(tables + edits, ip.inv, (None, None))
    kept = [d for d, verdicts in zip(edits, got[len(tables):]) if verdicts[0].ok]
    assert len({tuple(v.ok for v in verdicts[1:4])
                for verdicts in got if verdicts[0].ok}) >= 2
    bottom, top = ip.bounds()
    full = (1 << ip.n) - 1
    within = [d for d in kept
              if d._order()[0][bottom] == full and d._order()[1][top] == full]
    _assert_walk_matches_fresh_calls(tables + within, ip.inv, (bottom, top))
    return kept, within


def _symmetric_edits(tables):
    """Every table that gives one pair of mirrored entries of one of
    ``tables`` a common new value and is not among them, each once, in
    scan order."""
    seen = {d.meet for d in tables}
    for d in tables:
        for (x, y), v in itertools.product(itertools.combinations(range(d.n), 2),
                                           range(d.n)):
            table = [list(row) for row in d.meet]
            table[x][y] = table[y][x] = v
            edited = MeetDirectoid(table, labels=d.labels)
            if edited.meet not in seen:
                seen.add(edited.meet)
                yield edited


@pytest.mark.parametrize("name, passing, bounded, axioms", [
    ("fig1", 11, 8, 4), ("fig2", 17, 14, 10), ("fig3", 22, 18, 5),
    ("fig4", 8, 6, 2), ("fig5", 16, 12, 0)])
def test_identity_walk_matches_fresh_checks_on_symmetric_edits(name, passing, bounded,
                                                               axioms):
    """The figure's assignment tables and their symmetric two-entry edits,
    walked under the figure's map as in the single-entry case.  These are
    the only walked tables that pass the directoid axioms without being
    assigned, and each decides alone; ``axioms`` of the passing edits
    pass the axioms."""
    ip = figure(name)
    tables = list(iter_assignments(ip.base))
    kept, within = _walk_edits(ip, tables, list(_symmetric_edits(tables)))
    assert (len(kept), len(within), sum(d.check_directoid_axioms().ok for d in kept)
            ) == (passing, bounded, axioms)


def test_commutative_tables_failing_the_axioms_decide_alone():
    """Two commutative, idempotent tables on seven elements, equal but at
    the mirrored pair (x5, x6), with one (2) signature and passing (1)/(2)
    under ``u``.  Their relation x ⊓ y = x is no order (x1 <= x0 <= x4 <=
    x1), so both fail weak associativity, and (4) holds on the first
    alone: a walk that shared verdicts by signature, or took
    commutativity for the axioms, would share it.  An exhaustive search
    finds no such pair of idempotent tables below seven elements."""
    first = [[0, 1, 2, 1, 0, 0, 0], [1, 1, 4, 1, 4, 5, 6], [2, 4, 2, 3, 4, 5, 6],
             [1, 1, 3, 3, 3, 3, 3], [0, 4, 4, 3, 4, 0, 0], [0, 5, 5, 3, 0, 5, 3],
             [0, 6, 6, 3, 0, 3, 6]]
    second = [list(row) for row in first]
    second[5][6] = second[6][5] = 0
    tables = [MeetDirectoid(first), MeetDirectoid(second)]
    u = (1, 0, 3, 2, 4, 5, 6)
    assert _signature(tables[0]) == _signature(tables[1])
    got = _assert_walk_matches_fresh_calls(tables, u, (None, None))
    assert [(v[0].ok, v[2].ok) for v in got] == [(True, True), (True, False)]
    assert not any(d.check_directoid_axioms().ok for d in tables)


def test_premise_table_matches_its_definition():
    """(4)'s premise table against its n³ definition
    (``_ref_premise_table``), on (a) every assigned table of every
    directed poset with n <= 6, (b) fig1-fig5's assigned tables and their
    single-entry edits, none of which passes the axioms, so all take the
    scan, and (c) every symmetric two-entry edit of those tables.  Set
    (c) holds the only edits that pass the axioms without being assigned
    tables, so it is what tells the axioms from a weaker certificate for
    L(x) ∩ L(y), such as commutativity alone."""
    assigned = [d for n in range(1, 7)
                for p in filter(Poset.is_downward_directed, enumerate_posets(n))
                for d in iter_assignments(p)]
    figures = [d for name in SMALL_FIGS for d in iter_assignments(figure(name))]
    sets = assigned, figures, list(_single_entry_edits(figures)), \
        list(_symmetric_edits(figures))
    for d in itertools.chain.from_iterable(sets):
        assert d._premise_table()[0] == _ref_premise_table(d.meet)
    counts = [(len(tables), sum(d.check_directoid_axioms().ok for d in tables))
              for tables in sets]
    assert counts == [(435, 435), (16, 16), (5178, 0), (2164, 265)]


def _directed(n_bound):
    return [p for n in range(1, n_bound + 1)
            for p in filter(Poset.is_downward_directed, enumerate_posets(n))]


def _edit_sets():
    figures = [d for name in SMALL_FIGS for d in iter_assignments(figure(name))]
    return figures, list(_single_entry_edits(figures)), list(_symmetric_edits(figures))


def _n2_directoid_axioms(d):
    """``check_directoid_axioms`` with weak associativity prefiltered per
    entry, (y, z) failing when column y ⊓ z's value mask leaves
    ``below[z]``, then the same witness scan."""
    meet, lab, rng = d.meet, d.labels, range(d.n)
    for x in rng:
        if meet[x][x] != x:
            return (False, ("idempotency", x),
                    f"{lab[x]} meet {lab[x]} = {lab[meet[x][x]]}")
    for x in rng:
        for y in rng:
            if meet[x][y] != meet[y][x]:
                return (False, ("commutativity", x, y),
                        f"{lab[x]} meet {lab[y]} = {lab[meet[x][y]]} but "
                        f"{lab[y]} meet {lab[x]} = {lab[meet[y][x]]}")
    _, below, _, cols = _ref_order_masks(meet)
    if any(cols[v] & ~below[z] for row in meet for z, v in enumerate(row)):
        for x, y, z in itertools.product(rng, repeat=3):
            m = meet[x][meet[y][z]]
            if meet[m][z] != m:
                return (False, ("weak associativity", x, y, z),
                        f"(({lab[x]} meet ({lab[y]} meet {lab[z]})) meet {lab[z]}) "
                        f"= {lab[meet[m][z]]} != {lab[m]}")
    return True, None, ""


def test_weak_associativity_per_column_matches_per_entry():
    """The axioms verdict, witness and detail included, with the
    per-column test against the per-entry one, on fig1-fig5's assigned
    tables and their single-entry and symmetric two-entry edits, and on
    every assigned table of every directed poset with n <= 6."""
    outcomes = collections.Counter()
    for d in itertools.chain(*_edit_sets(), (d for p in _directed(6)
                                             for d in iter_assignments(p))):
        got = tuple(d.check_directoid_axioms())
        assert got == _n2_directoid_axioms(d)
        outcomes[got[1] and got[1][0]] += 1
    assert outcomes == {None: 716, "idempotency": 710, "commutativity": 4468,
                        "weak associativity": 1899}


def test_colliding_pair_keys_are_usage_errors():
    """Labels holding commas can render two incomparable pairs as one
    "x,y" key; reading or rebuilding choices then names both pairs."""
    p = Poset.from_covers(["0", "a,b", "c", "a", "b,c", "1"],
                          [("0", "a,b"), ("0", "c"), ("0", "a"), ("0", "b,c"),
                           ("a,b", "1"), ("c", "1"), ("a", "1"), ("b,c", "1")])
    d = assign_directoid(p)
    message = "pairs ('a,b', 'c') and ('a', 'b,c') both render as 'a,b,c'"
    with pytest.raises(UsageError, match=re.escape(message)):
        assignment_choices(d, p)
    with pytest.raises(UsageError, match=re.escape(message)):
        directoid_from_choices(p, {"a,b,c": "0"})
