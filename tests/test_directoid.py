"""Meet assignments: axioms, the induced order, identities, derived laws.

Identity expectations per figure are frozen from the classification
matrix (see test_involution.py): (3) tracks pseudo-Kleene, (4) Kleene,
(5) strong, (6) strict.  For the small figures every assignment is
checked exhaustively.  The first witness of each of (3)-(6) is compared
with the brute-force transcriptions in ``oracles.py``.
"""

import itertools
import random

import pytest

from kleene_posets import (DomainError, InvolutivePoset, MeetDirectoid, Poset,
                           UsageError, all_assignments, assign_directoid,
                           assignment_choices, assignment_count,
                           check_derived_set_laws, check_printed_u_pair_law,
                           directoid_from_choices, enumerate_involutions,
                           enumerate_posets, figure, iter_assignments)

from oracles import (ref_derived_set_laws, ref_identity_3, ref_implication_4,
                     ref_implication_5, ref_implication_6)

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
    meet, inv = [list(row) for row in d.meet], list(d.inv)
    if d.check_identities_1_2().ok:
        assert _first(d.check_identity_3()) == ref_identity_3(meet, inv)
        assert _first(d.check_implication_4()) == ref_implication_4(meet, inv)
    assert _first(d.check_implication_5()) == ref_implication_5(meet, inv)
    for bottom, top in bound_pairs:
        try:
            want = ref_implication_6(meet, inv, bottom, top)
        except ValueError:
            with pytest.raises(UsageError, match="do not bound"):
                d.check_implication_6(bottom, top)
        else:
            assert _first(d.check_implication_6(bottom, top)) == want


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
    table) must read exactly as the public constructor's."""
    rng = random.Random(n)
    bound_pairs = list(itertools.product(range(n), repeat=2))
    for p in filter(Poset.is_downward_directed, enumerate_posets(n)):
        tables = list(itertools.islice(iter_assignments(p), cap))
        for u in _involutions(n):
            for base in tables:
                perm = list(range(n))
                rng.shuffle(perm)
                public = MeetDirectoid(base.meet, inv=u)
                assembled = base._with_map(InvolutivePoset(p, u).inv)
                for d in (public, _relabelled(base.meet, u, perm), assembled):
                    _assert_matches_oracles(d, bound_pairs)
                _assert_same_verdicts(assembled, public, bound_pairs)
                assert assembled._order() is base._order()


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
    for d in itertools.islice(iter_assignments(ip), cap):
        _assert_matches_oracles(d, [(ip.index("0"), ip.index("1"))])


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
