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

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Optional

from .errors import DomainError
from .involution import InvolutivePoset
from .poset import Subset, Verdict, _bits


def check_condition7(ip):
    """Condition (7): L(x, y) != {0} for all nonzero x, y.  Requires a
    bounded carrier; witness is the first failing pair."""
    ip._require_involution()
    bottom, top = ip.bounds()
    if bottom is None or top is None:
        raise DomainError("condition (7) requires bounds")
    p = ip.base
    zero = 1 << bottom
    for x in range(p.n):
        if x == bottom:
            continue
        for y in range(x, p.n):
            if y == bottom:
                continue
            if p._down[x] & p._down[y] == zero:
                return Verdict(False, (x, y),
                               f"L({p.labels[x]}, {p.labels[y]}) = {{{p.labels[bottom]}}}")
    return Verdict(True)


@dataclass(frozen=True)
class ResiduationReport:
    """Outcome of the residuated-poset axiom check."""
    zero_absorbing: Verdict
    commutativity: Verdict
    unit: Verdict
    associativity: Verdict
    adjointness: Verdict
    case_counts: dict

    @property
    def all_ok(self):
        return (self.zero_absorbing.ok and self.commutativity.ok and self.unit.ok
                and self.associativity.ok and self.adjointness.ok)


@dataclass(frozen=True)
class Theorem54Item:
    status: str                       # "pass" | "fail" | "skipped"
    tier: str                         # precondition tier that was active
    verdict: Optional[Verdict] = None


@dataclass(frozen=True)
class Theorem54Report:
    items: dict                       # keys "i".."v" -> Theorem54Item
    condition7: Verdict
    strict_kleene: bool

    @property
    def violations(self):
        return {k: v for k, v in self.items.items() if v.status == "fail"}


class ResiduatedStructure:
    """Both operator tables over a bounded carrier with validated
    antitone involution; all checks read the precomputed tables."""

    __slots__ = ("ip", "p", "bottom", "top", "_odot", "_arrow")

    def __init__(self, ip):
        if not isinstance(ip, InvolutivePoset):
            raise DomainError("residuation requires a unary map on the carrier")
        ip._require_involution()
        bottom, top = ip.bounds()
        if bottom is None or top is None:
            raise DomainError("residuation requires bounds")
        self.ip = ip
        self.p = ip.base
        self.bottom = bottom
        self.top = top
        p, inv = self.p, ip.inv
        n = p.n
        up, down = p._up, p._down
        zero = 1 << bottom
        one = 1 << top
        odot = []
        arrow = []
        for x in range(n):
            orow = []
            arow = []
            for y in range(n):
                if (up[x] >> inv[y]) & 1:
                    orow.append(zero)
                else:
                    orow.append(down[x] & down[y])
                if (up[x] >> y) & 1:
                    arow.append(one)
                else:
                    arow.append(up[inv[x]] & up[y])
            odot.append(tuple(orow))
            arrow.append(tuple(arow))
        self._odot = tuple(odot)
        self._arrow = tuple(arrow)

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
            row = self._odot[x]
            for y in _bits(bm):
                acc &= row[y]
        return Subset(p, acc), False

    # -- condition (7) and the axiom checks ---------------------------------
    def check_condition7(self):
        return check_condition7(self.ip)

    def check_zero_absorbing(self):
        """x ⊙ 0 = 0 ⊙ x = {0} for every x."""
        zero = 1 << self.bottom
        lab = self.p.labels
        for x in range(self.p.n):
            if self._odot[x][self.bottom] != zero or self._odot[self.bottom][x] != zero:
                return Verdict(False, (x,),
                               f"{lab[x]} odot {lab[self.bottom]} != {{{lab[self.bottom]}}}")
        return Verdict(True)

    def adjointness_case(self, a, b, c):
        """Tag a triple with its proof case, first match of:
        1: a<=b', b<=c   2: a<=b', b!<=c   3: a!<=b', b<=c   4: +a=1
        5: +b=1          6: +c=0           7: the rest."""
        p, inv = self.p, self.ip.inv
        a, b, c = p.index(a), p.index(b), p.index(c)
        ab = p.leq(a, inv[b])
        bc = p.leq(b, c)
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
        p = self.p
        n = p.n
        lab = p.labels
        odot = self._odot

        commutativity = Verdict(True)
        for x in range(n):
            for y in range(x + 1, n):
                if odot[x][y] != odot[y][x]:
                    commutativity = Verdict(
                        False, (x, y),
                        f"{lab[x]} odot {lab[y]} = {Subset(p, odot[x][y]).render()} but "
                        f"{lab[y]} odot {lab[x]} = {Subset(p, odot[y][x]).render()}")
                    break
            else:
                continue
            break

        unit = Verdict(True)
        top = self.top
        for x in range(n):
            if odot[x][top] != p._down[x] or odot[top][x] != p._down[x]:
                unit = Verdict(False, (x,),
                               f"{lab[x]} odot {lab[top]} = "
                               f"{Subset(p, odot[x][top]).render()} != L({lab[x]}) = "
                               f"{p.lower_cone([x]).render()}")
                break

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
        columns = {}
        for x in range(n):
            rows = {}
            for y in range(n):
                inner = odot[x][y]
                lhs_row = columns.get(inner)
                if lhs_row is None:
                    lhs_row = columns[inner] = [
                        reduce(and_, (odot[w][z] for w in _bits(inner)), full)
                        for z in range(n)]
                for z in range(n):
                    outer = odot[y][z]
                    rhs = rows.get(outer)
                    if rhs is None:
                        rhs = rows[outer] = reduce(and_, (odot[x][w] for w in _bits(outer)), full)
                    if lhs_row[z] != rhs:
                        return Verdict(
                            False, (x, y, z),
                            f"({lab[x]} odot {lab[y]}) odot {lab[z]} = "
                            f"{Subset(p, lhs_row[z]).render()} != {lab[x]} odot "
                            f"({lab[y]} odot {lab[z]}) = {Subset(p, rhs).render()}")
        return Verdict(True)

    def _adjointness(self):
        """a ⊙ b <= {c} iff {a} <= b → c, first failure in (a, b, c)
        order, and the count of triples per :meth:`adjointness_case`.

        The left side holds for the c in U(a ⊙ b) and the right side
        for the c with a in L(b → c), so per (a, b) the failing c form
        one mask.  A triple's case depends on c only through b <= c and
        c = 0, so each (a, b) adds the size of each of those classes to
        the case of one of its members."""
        p, odot, arrow, lab = self.p, self._odot, self._arrow, self.p.labels
        n, up, bottom = p.n, p._up, self.bottom
        adjoint = [[0] * n for _ in range(n)]    # adjoint[b][a] = {c | a <= b -> c}
        for b in range(n):
            for c in range(n):
                for a in _bits(p._lower(arrow[b][c])):
                    adjoint[b][a] |= 1 << c
        verdict = Verdict(True)
        case_counts = {k: 0 for k in range(1, 8)}
        for a in range(n):
            for b in range(n):
                oab = odot[a][b]
                lefts = p._upper(oab)               # {c | a odot b <= c}
                bad = lefts ^ adjoint[b][a]
                if bad and verdict.ok:
                    c = (bad & -bad).bit_length() - 1
                    left = (lefts >> c) & 1
                    verdict = Verdict(
                        False, (a, b, c),
                        f"({lab[a]}, {lab[b]}, {lab[c]}): "
                        f"{lab[a]} odot {lab[b]} = {Subset(p, oab).render()} "
                        f"{'<=' if left else '!<='} {lab[c]} but {lab[a]} "
                        f"{'!<=' if left else '<='} {lab[b]} -> {lab[c]} = "
                        f"{Subset(p, arrow[b][c]).render()}")
                case_counts[self.adjointness_case(a, b, b)] += up[b].bit_count()
                if b != bottom:
                    case_counts[self.adjointness_case(a, b, bottom)] += 1
                others = p._full & ~up[b] & ~(1 << bottom)
                if others:
                    c = (others & -others).bit_length() - 1
                    case_counts[self.adjointness_case(a, b, c)] += others.bit_count()
        return verdict, case_counts

    def theorem54_checks(self):
        """Tier-gated pairwise properties:

          (i)  a ⊙ b = (a → b')'          [any bounded carrier]
          (ii) a → b = (a ⊙ b')'          [any bounded carrier]
          (iii) a ⊙ b = {0} iff a <= b'   [needs condition (7)]
          (iv)  a → b = {1} iff a <= b    [needs condition (7)]
          (v)  a <= b and L(a', b) = {0} imply a = b   [needs strict Kleene]

        Checks whose tier preconditions fail are reported as skipped.
        """
        p, inv = self.p, self.ip.inv
        n = p.n
        lab = p.labels
        items = {}

        primed = self.ip._image

        verdict_i = Verdict(True)
        verdict_ii = Verdict(True)
        for a in range(n):
            for b in range(n):
                if self._odot[a][b] != primed(self._arrow[a][inv[b]]):
                    if verdict_i.ok:
                        verdict_i = Verdict(
                            False, (a, b),
                            f"{lab[a]} odot {lab[b]} != ({lab[a]} -> {lab[b]}')'")
                if self._arrow[a][b] != primed(self._odot[a][inv[b]]):
                    if verdict_ii.ok:
                        verdict_ii = Verdict(
                            False, (a, b),
                            f"{lab[a]} -> {lab[b]} != ({lab[a]} odot {lab[b]}')'")
        items["i"] = Theorem54Item("fail" if not verdict_i.ok else "pass",
                                   "bounded antitone involution", verdict_i)
        items["ii"] = Theorem54Item("fail" if not verdict_ii.ok else "pass",
                                    "bounded antitone involution", verdict_ii)

        cond7 = self.check_condition7()
        if cond7.ok:
            zero = 1 << self.bottom
            one = 1 << self.top
            verdict_iii = Verdict(True)
            verdict_iv = Verdict(True)
            for a in range(n):
                for b in range(n):
                    if (self._odot[a][b] == zero) != p.leq(a, inv[b]):
                        if verdict_iii.ok:
                            verdict_iii = Verdict(
                                False, (a, b),
                                f"({lab[a]} odot {lab[b]} = {{0}}) does not match "
                                f"{lab[a]} <= {lab[b]}'")
                    if (self._arrow[a][b] == one) != p.leq(a, b):
                        if verdict_iv.ok:
                            verdict_iv = Verdict(
                                False, (a, b),
                                f"({lab[a]} -> {lab[b]} = {{1}}) does not match "
                                f"{lab[a]} <= {lab[b]}")
            items["iii"] = Theorem54Item("fail" if not verdict_iii.ok else "pass",
                                         "condition (7)", verdict_iii)
            items["iv"] = Theorem54Item("fail" if not verdict_iv.ok else "pass",
                                        "condition (7)", verdict_iv)
        else:
            items["iii"] = Theorem54Item("skipped", "condition (7)")
            items["iv"] = Theorem54Item("skipped", "condition (7)")

        strict = self.ip.is_strict()
        distributive = self.ip.is_distributive("LU")
        strict_kleene = strict.ok and distributive.ok
        if strict_kleene:
            zero = 1 << self.bottom
            verdict_v = Verdict(True)
            for a in range(n):
                for b in range(n):
                    if a != b and p.leq(a, b) and p._down[inv[a]] & p._down[b] == zero:
                        verdict_v = Verdict(
                            False, (a, b),
                            f"{lab[a]} <= {lab[b]} and L({lab[a]}', {lab[b]}) = {{0}} "
                            f"but {lab[a]} != {lab[b]}")
                        break
                else:
                    continue
                break
            items["v"] = Theorem54Item("fail" if not verdict_v.ok else "pass",
                                       "strict Kleene", verdict_v)
        else:
            items["v"] = Theorem54Item("skipped", "strict Kleene")

        return Theorem54Report(items=items, condition7=cond7,
                               strict_kleene=strict_kleene)
