"""Residuated operators on bounded posets with antitone involution.

The two operators map element pairs to subsets:

    x ⊙ y = {0}      if x <= y'        x → y = {1}      if x <= y
          = L(x, y)   otherwise               = U(x', y)  otherwise

with the set extension  A ⊙ B = ⋂ {x ⊙ y : x ∈ A, y ∈ B}  (an empty
family intersects to the full carrier; reports flag when that convention
fires).  Comparisons between a subset and an element use the set order:
A <= {c} iff every member of A is below c, and {a} <= B iff a is below
every member of B.
"""

from __future__ import annotations

from itertools import chain, combinations
from collections import namedtuple

from .errors import DomainError
from .involution import InvolutivePoset, _image
from .poset import _HOLDS, Subset, _bits, _failing, _meet_rows, _render

# The residuated-poset axioms of Theorem 5.2, in report order.
AXIOMS = ("zero_absorbing", "commutativity", "unit", "associativity", "adjointness")
# The precondition tiers gating Theorem 5.4's items.
_ANY_TIER, _COND7_TIER, _STRICT_KLEENE_TIER = (
    "bounded antitone involution", "condition (7)", "strict Kleene")


def _first(cells, fails, detail):
    """The first cell where ``fails(*cell)`` holds, as a failing verdict
    with that cell as witness and ``detail(*cell)``, rendered on first
    read; else a pass."""
    for cell in cells:
        if fails(*cell):
            return _failing(lambda: (cell, detail(*cell)))
    return _HOLDS


def _first_in_rows(n, bad, detail):
    """The first pair (a, b) in row-major order with b in the mask
    ``bad(a)``, as a failing verdict with that pair as witness and
    ``detail(a, b)``, rendered on first read; else a pass."""
    for a in range(n):
        cols = bad(a)
        if cols:
            b = (cols & -cols).bit_length() - 1
            return _failing(lambda: ((a, b), detail(a, b)))
    return _HOLDS


def _differing(row, other):
    """The mask of the columns where two rows differ."""
    return sum(1 << b for b, (u, v) in enumerate(zip(row, other)) if u != v)


def _matching(row, value):
    """The mask of the columns of ``row`` holding ``value``."""
    return sum(1 << b for b, cell in enumerate(row) if cell == value)


def _primed(table, inv):
    """Row a holds (table[a][b'])' at each column b; each distinct cell
    is imaged once."""
    images = {m: _image(inv, m) for m in set(chain.from_iterable(table))}
    return tuple([tuple([images[row[c]] for c in inv]) for row in table])


def check_condition7(ip):
    """Condition (7): L(x, y) != {0} for all nonzero x, y.  Requires a
    bounded carrier; witness is the first failing pair (x, y), x <= y
    by index."""
    if not isinstance(ip, InvolutivePoset):
        raise DomainError("condition (7) requires a unary map on the carrier")
    ip._require_involution()
    bottom, top = ip.bounds()
    if bottom is None or top is None:
        raise DomainError("condition (7) requires bounds")
    down = ip.base._down
    zero = 1 << bottom
    nonzero = [x for x in range(ip.n) if x != bottom]
    for i, x in enumerate(nonzero):
        dx = down[x]
        for y in nonzero[i:]:
            if dx & down[y] == zero:
                return _failing(_zero_meet, ip.labels, bottom, x, y)
    return _HOLDS


def _zero_meet(lab, bottom, x, y):
    return (x, y), f"L({lab[x]}, {lab[y]}) = {{{lab[bottom]}}}"


def _not_associative(lab, x, y, z, lhs, rhs):
    return (x, y, z), (f"({lab[x]} odot {lab[y]}) odot {lab[z]} = {_render(lab, lhs)} != "
                       f"{lab[x]} odot ({lab[y]} odot {lab[z]}) = {_render(lab, rhs)}")


def _not_adjoint(lab, a, b, bad, lefts, oab, arrow_b):
    """The first failing (a, b, c) of adjointness at (a, b), with c the
    first of the ``bad`` columns, and its detail: which side holds at c
    is read off ``lefts``, the c above a ⊙ b."""
    c = (bad & -bad).bit_length() - 1
    left = (lefts >> c) & 1
    return (a, b, c), (f"({lab[a]}, {lab[b]}, {lab[c]}): "
                       f"{lab[a]} odot {lab[b]} = {_render(lab, oab)} "
                       f"{'<=' if left else '!<='} {lab[c]} but {lab[a]} "
                       f"{'!<=' if left else '<='} {lab[b]} -> {lab[c]} = "
                       f"{_render(lab, arrow_b[c])}")


class ResiduationReport(namedtuple("ResiduationReport", (*AXIOMS, "case_counts"))):
    """Outcome of the residuated-poset axiom check: one verdict per axiom."""

    __slots__ = ()

    @property
    def all_ok(self):
        return all(getattr(self, name).ok for name in AXIOMS)


class Theorem54Item(namedtuple("Theorem54Item", "tier verdict", defaults=(None,))):
    """``tier`` is the precondition tier gating the item, ``verdict`` None
    when the tier does not hold."""

    __slots__ = ()

    @property
    def status(self):
        if self.verdict is None:
            return "skipped"
        return "pass" if self.verdict.ok else "fail"


_SKIPPED_COND7 = Theorem54Item(_COND7_TIER)


class Theorem54Report(namedtuple("Theorem54Report", "items condition7 strict_kleene")):
    """``items`` maps "i".."v" to their :class:`Theorem54Item`."""

    __slots__ = ()

    @property
    def violations(self):
        return {k: v for k, v in self.items.items() if v.status == "fail"}


class ResiduatedStructure:
    """Both operator tables over a bounded carrier with validated
    antitone involution; all checks read the precomputed tables, which
    are fixed when it is built: the structure is immutable."""

    __slots__ = ("ip", "p", "bottom", "top", "_odot", "_arrow")

    def __init__(self, ip):
        if not isinstance(ip, InvolutivePoset):
            raise DomainError("residuation requires a unary map on the carrier")
        ip._require_involution()
        bottom, top = ip.bounds()
        if bottom is None or top is None:
            raise DomainError("residuation requires bounds")
        p, inv = ip.base, ip.inv
        up, down = p._up, p._down
        zero, one = 1 << bottom, 1 << top
        odot, arrow = [], []
        for x, (ux, dx) in enumerate(zip(up, down)):
            meets = [dx & dy for dy in down]
            uix = up[inv[x]]
            joins = [uix & uy for uy in up]
            while ux:    # each z >= x: x odot z' = {0} and x -> z = {1}
                low = ux & -ux
                z = low.bit_length() - 1
                meets[inv[z]], joins[z] = zero, one
                ux ^= low
            odot.append(tuple(meets))
            arrow.append(tuple(joins))
        for name, value in zip(self.__slots__, (ip, p, bottom, top, tuple(odot), tuple(arrow))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ResiduatedStructure is immutable")

    # -- operators ---------------------------------------------------------
    def odot(self, x, y):
        p = self.p
        return Subset(p, self._odot[p.index(x)][p.index(y)])

    def arrow(self, x, y):
        p = self.p
        return Subset(p, self._arrow[p.index(x)][p.index(y)])

    def odot_sets_flagged(self, a_items, b_items):
        """(A ⊙ B, flag); the flag is true when the empty-family
        convention produced the full carrier."""
        p = self.p
        am = p._mask_of(a_items)
        bm = p._mask_of(b_items)
        if not am or not bm:
            return Subset(p, p._full), True
        acc = p._full
        for x in _bits(am):
            acc = _meet_rows(self._odot[x], acc, bm)
        return Subset(p, acc), False

    # -- condition (7) and the axiom checks ---------------------------------
    def check_condition7(self):
        return check_condition7(self.ip)

    def check_zero_absorbing(self):
        """x ⊙ 0 = 0 ⊙ x = {0} for every x."""
        odot, bottom, lab = self._odot, self.bottom, self.p.labels
        zero = 1 << bottom
        return _first(((x,) for x in range(self.p.n)),
                      lambda x: odot[x][bottom] != zero or odot[bottom][x] != zero,
                      lambda x: f"{lab[x]} odot {lab[bottom]} != {{{lab[bottom]}}}")

    def adjointness_case(self, a, b, c):
        """Tag a triple with its proof case, first match of:
        1: a<=b', b<=c   2: a<=b', b!<=c   3: a!<=b', b<=c   4: +a=1
        5: +b=1          6: +c=0           7: the rest."""
        p = self.p
        return self._case(p.index(a), p.index(b), p.index(c))

    def _case(self, a, b, c):
        """:meth:`adjointness_case` of three indices."""
        up = self.p._up
        ab = (up[a] >> self.ip.inv[b]) & 1
        bc = (up[b] >> c) & 1
        if ab and bc:
            return 1
        if ab:
            return 2
        if bc:
            return 3
        if a == self.top:
            return 4
        if b == self.top:
            return 5
        if c == self.bottom:
            return 6
        return 7

    def verify_kleene_residuated(self):
        """Check the four residuated-poset axioms (plus 0-absorption)
        over every pair/triple; adjointness triples are tagged with
        their proof case for coverage reporting."""
        p, odot, top, lab = self.p, self._odot, self.top, self.p.labels
        commutativity = _first(
            combinations(range(p.n), 2),
            lambda x, y: odot[x][y] != odot[y][x],
            lambda x, y: f"{lab[x]} odot {lab[y]} = {_render(lab, odot[x][y])} but "
                         f"{lab[y]} odot {lab[x]} = {_render(lab, odot[y][x])}")
        unit = _first(
            ((x,) for x in range(p.n)),
            lambda x: odot[x][top] != p._down[x] or odot[top][x] != p._down[x],
            lambda x: f"{lab[x]} odot {lab[top]} = {_render(lab, odot[x][top])} != "
                      f"L({lab[x]}) = {_render(lab, p._down[x])}")
        adjointness, case_counts = self._adjointness()
        return ResiduationReport(
            zero_absorbing=self.check_zero_absorbing(),
            commutativity=commutativity,
            unit=unit,
            associativity=self._associativity(),
            adjointness=adjointness,
            case_counts=case_counts)

    def _associativity(self):
        """(x ⊙ y) ⊙ z = x ⊙ (y ⊙ z), first failure in (x, y, z) order.
        The two sides intersect a column of the table over x ⊙ y and a
        row of it over y ⊙ z; both are memoised by their mask, and an
        empty family intersects to the full carrier."""
        p, odot, lab = self.p, self._odot, self.p.labels
        n, full = p.n, p._full
        by_column = list(zip(*odot))    # by_column[z][w] = w ⊙ z
        columns = {}
        for x in range(n):
            rows = {}
            for y in range(n):
                inner = odot[x][y]
                lhs_row = columns.get(inner)
                if lhs_row is None:
                    lhs_row = columns[inner] = [_meet_rows(col, full, inner)
                                                for col in by_column]
                for z in range(n):
                    outer = odot[y][z]
                    rhs = rows.get(outer)
                    if rhs is None:
                        rhs = rows[outer] = _meet_rows(odot[x], full, outer)
                    if lhs_row[z] != rhs:
                        return _failing(_not_associative, lab, x, y, z, lhs_row[z], rhs)
        return _HOLDS

    def _adjointness(self):
        """a ⊙ b <= {c} iff {a} <= b → c, first failure in (a, b, c)
        order, and the count of triples per :meth:`adjointness_case`.

        The left side holds for the c in U(a ⊙ b) and the right side
        for the c with a in L(b → c), so per (a, b) the failing c form
        one mask.  A triple's case depends on c only through b <= c and
        c = 0, so each (a, b) adds the size of each of those classes to
        the case of one of its members."""
        p, odot, arrow, lab = self.p, self._odot, self._arrow, self.p.labels
        n, up, down, full, bottom = p.n, p._up, p._down, p._full, self.bottom
        adjoint = [[0] * n for _ in range(n)]    # adjoint[b][a] = {c | a <= b -> c}
        for b in range(n):
            for c in range(n):
                for a in _bits(_meet_rows(down, full, arrow[b][c])):
                    adjoint[b][a] |= 1 << c
        verdict = _HOLDS
        case_counts = {k: 0 for k in range(1, 8)}
        for a in range(n):
            for b in range(n):
                oab = odot[a][b]
                lefts = _meet_rows(up, full, oab)    # {c | a odot b <= c}
                bad = lefts ^ adjoint[b][a]
                if bad and verdict.ok:
                    verdict = _failing(_not_adjoint, lab, a, b, bad, lefts, oab, arrow[b])
                case_counts[self._case(a, b, b)] += up[b].bit_count()
                if b != bottom:
                    case_counts[self._case(a, b, bottom)] += 1
                others = full & ~up[b] & ~(1 << bottom)
                if others:
                    c = (others & -others).bit_length() - 1
                    case_counts[self._case(a, b, c)] += others.bit_count()
        return verdict, case_counts

    def theorem54_checks(self):
        """Tier-gated pairwise properties:

          (i)  a ⊙ b = (a → b')'          [any bounded carrier]
          (ii) a → b = (a ⊙ b')'          [any bounded carrier]
          (iii) a ⊙ b = {0} iff a <= b'   [needs condition (7)]
          (iv)  a → b = {1} iff a <= b    [needs condition (7)]
          (v)  a <= b and L(a', b) = {0} imply a = b   [needs strict Kleene]

        Each is a first-failure scan over (a, b) in row-major order: the
        b failing in row a form one mask, whose lowest bit is the witness.
        (i) images each distinct cell of the arrow table once.  (ii) fails
        at (a, b) exactly when (i) fails at (a, b'): priming a mask is a
        bijection that undoes itself, so a -> b != (a odot b')' iff
        (a -> b)' != a odot b', which, as b'' = b, is (i) at (a, b').  So
        the b failing (ii) in row a are the image of those failing (i),
        and where the odot table equals the primed arrow table neither is
        scanned.  Checks whose tier preconditions fail are reported as
        skipped, and no scan is built for them.
        """
        ip, p = self.ip, self.p
        n, inv, lab = p.n, ip.inv, p.labels
        odot, arrow, up, down = self._odot, self._arrow, p._up, p._down
        zero, one = 1 << self.bottom, 1 << self.top
        cond7 = check_condition7(ip)
        strict_kleene = ip.is_strict().ok and ip.is_distributive("LU").ok
        arrow_primed = _primed(arrow, inv)
        if odot == arrow_primed:
            first_i = first_ii = _HOLDS
        else:
            failing_i = [_differing(row, other) for row, other in zip(odot, arrow_primed)]
            first_i = _first_in_rows(
                n, failing_i.__getitem__,
                lambda a, b: f"{lab[a]} odot {lab[b]} != ({lab[a]} -> {lab[b]}')'")
            first_ii = _first_in_rows(
                n, lambda a: _image(inv, failing_i[a]),
                lambda a, b: f"{lab[a]} -> {lab[b]} != ({lab[a]} odot {lab[b]}')'")
        items = {"i": Theorem54Item(_ANY_TIER, first_i),
                 "ii": Theorem54Item(_ANY_TIER, first_ii)}
        if cond7.ok:
            # (iii): b' lies in U(a) iff b lies in its image, inv being an involution
            items["iii"] = Theorem54Item(_COND7_TIER, _first_in_rows(
                n, lambda a: _matching(odot[a], zero) ^ _image(inv, up[a]),
                lambda a, b: f"({lab[a]} odot {lab[b]} = {{0}}) does not match "
                             f"{lab[a]} <= {lab[b]}'"))
            items["iv"] = Theorem54Item(_COND7_TIER, _first_in_rows(
                n, lambda a: _matching(arrow[a], one) ^ up[a],
                lambda a, b: f"({lab[a]} -> {lab[b]} = {{1}}) does not match "
                             f"{lab[a]} <= {lab[b]}"))
        else:
            items["iii"] = items["iv"] = _SKIPPED_COND7
        items["v"] = Theorem54Item(_STRICT_KLEENE_TIER, _first_in_rows(
            n, lambda a: sum(1 << b for b in _bits(up[a] & ~(1 << a))
                             if down[inv[a]] & down[b] == zero),
            lambda a, b: f"{lab[a]} <= {lab[b]} and L({lab[a]}', {lab[b]}) = {{0}} "
                         f"but {lab[a]} != {lab[b]}") if strict_kleene else None)
        return Theorem54Report(items=items, condition7=cond7, strict_kleene=strict_kleene)
