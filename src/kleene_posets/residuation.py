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
        zero = 1 << bottom
        one = 1 << top
        odot = []
        arrow = []
        for x in range(n):
            orow = []
            arow = []
            for y in range(n):
                if p.leq(x, inv[y]):
                    orow.append(zero)
                else:
                    orow.append(p._down[x] & p._down[y])
                if p.leq(x, y):
                    arow.append(one)
                else:
                    arow.append(p._up[inv[x]] & p._up[y])
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
        p, inv = self.p, self.ip.inv
        n = p.n
        lab = p.labels
        odot = self._odot
        zero = self.bottom

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

        associativity = Verdict(True)
        for x in range(n):
            for y in range(n):
                left_inner = Subset(p, odot[x][y])
                for z in range(n):
                    lhs, _ = self.odot_sets_flagged(left_inner, Subset(p, 1 << z))
                    rhs, _ = self.odot_sets_flagged(Subset(p, 1 << x),
                                                    Subset(p, odot[y][z]))
                    if lhs.mask != rhs.mask:
                        associativity = Verdict(
                            False, (x, y, z),
                            f"({lab[x]} odot {lab[y]}) odot {lab[z]} = {lhs.render()} "
                            f"!= {lab[x]} odot ({lab[y]} odot {lab[z]}) = {rhs.render()}")
                        break
                else:
                    continue
                break
            else:
                continue
            break

        adjointness = Verdict(True)
        case_counts = {k: 0 for k in range(1, 8)}
        arrow = self._arrow
        down = p._down
        up = p._up
        for a in range(n):
            up_a = up[a]
            for b in range(n):
                oab = odot[a][b]
                arrow_b = arrow[b]
                for c in range(n):
                    case_counts[self.adjointness_case(a, b, c)] += 1
                    left = oab & ~down[c] == 0          # a odot b <= c (set order)
                    right = arrow_b[c] & ~up_a == 0     # a <= b -> c (set order)
                    if left != right and adjointness.ok:
                        adjointness = Verdict(
                            False, (a, b, c),
                            f"({lab[a]}, {lab[b]}, {lab[c]}): "
                            f"{lab[a]} odot {lab[b]} = {Subset(p, oab).render()} "
                            f"{'<=' if left else '!<='} {lab[c]} but {lab[a]} "
                            f"{'<=' if right else '!<='} {lab[b]} -> {lab[c]} = "
                            f"{Subset(p, arrow_b[c]).render()}")
        return ResiduationReport(
            zero_absorbing=self.check_zero_absorbing(),
            commutativity=commutativity,
            unit=unit,
            associativity=associativity,
            adjointness=adjointness,
            case_counts=case_counts)

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

        def primed(mask):
            out = 0
            for i in _bits(mask):
                out |= 1 << inv[i]
            return out

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
