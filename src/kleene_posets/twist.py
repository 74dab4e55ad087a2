"""The twist construction over an arbitrary poset.

Given a poset Q and a pivot element a, the carrier is

    {(x, y) ∈ Q² : L(x, y) <= {a} and {a} <= U(x, y)}

(both comparisons in the set order, so an empty cone passes vacuously),
ordered by (x, y) <= (z, v) iff x <= z and v <= y, with the swap
involution (x, y)' = (y, x).  The pair (a, a) always belongs to the
carrier and is a fixed point, and x -> (x, a) embeds Q.

The constructed order is pseudo-Kleene for every Q and every pivot.  The
further claim that distributivity of Q coincides with the result being a
Kleene poset is *measured*, never assumed: the audit reports agreement
or disagreement with full witnesses, and the bundled four-element fan
fixture is a documented disagreement case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import DomainError, UsageError
from .involution import InvolutivePoset
from .poset import Poset, Subset, Verdict, _bits


class TwistPoset:
    """Result of the construction, with projections back to the source."""

    __slots__ = ("source", "pivot", "pairs", "result", "_pair_index")

    def __init__(self, source, pivot, pairs, result):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "_pair_index", {p: k for k, p in enumerate(pairs)})

    def __setattr__(self, name, value):
        raise AttributeError("TwistPoset is immutable")

    @property
    def n(self):
        return len(self.pairs)

    def p1(self, k):
        return self.pairs[k][0]

    def p2(self, k):
        return self.pairs[k][1]

    def pair_index(self, x, y):
        """Index of the element (x, y), or None when it is not a member."""
        q = self.source
        return self._pair_index.get((q.index(x), q.index(y)))

    def __repr__(self):
        return (f"TwistPoset({self.n} pairs over {self.source.n} elements, "
                f"pivot {self.source.labels[self.pivot]})")


def twist(q, a):
    """Build the twist of ``q`` at pivot ``a`` (label or index)."""
    if isinstance(q, InvolutivePoset):
        raise UsageError("twist takes a plain poset; pass ip.base")
    pivot = q.index(a)
    down, up = q._down, q._up
    da, ua = down[pivot], up[pivot]
    pairs = []
    for x in range(q.n):
        dx, ux = down[x], up[x]
        for y in range(q.n):
            lcone = dx & down[y]
            ucone = ux & up[y]
            if lcone & ~da == 0 and ucone & ~ua == 0:
                pairs.append((x, y))
    pairs = tuple(pairs)
    labels = tuple(f"({q.labels[x]},{q.labels[y]})" for x, y in pairs)
    n = len(pairs)
    up_masks = []
    for x, y in pairs:
        m = 0
        ux, dy = up[x], down[y]
        for k, (z, v) in enumerate(pairs):
            if (ux >> z) & 1 and (dy >> v) & 1:
                m |= 1 << k
        up_masks.append(m)
    result_poset = Poset(labels, up_masks, _validated=True)
    index = {p: k for k, p in enumerate(pairs)}
    inv = tuple(index[(y, x)] for x, y in pairs)
    result = InvolutivePoset(result_poset, inv)
    return TwistPoset(q, pivot, pairs, result)


def check_embedding(t):
    """Is x -> (x, a) a well-defined order-embedding?  Returns the
    verdict; a failure here refutes the construction's embedding claim
    rather than signalling bad input."""
    q = t.source
    a = t.pivot
    images = []
    for x in range(q.n):
        k = t._pair_index.get((x, a))
        if k is None:
            return Verdict(False, (x,),
                           f"({q.labels[x]},{q.labels[a]}) is not a member of the twist")
        images.append(k)
    r = t.result
    for x in range(q.n):
        for y in range(q.n):
            if q.leq(x, y) != r.leq(images[x], images[y]):
                return Verdict(False, (x, y),
                               f"order not preserved/reflected at "
                               f"({q.labels[x]}, {q.labels[y]})")
    return Verdict(True)


def twist_embedding(t):
    """The map x -> (x, a) as an index map into the result."""
    verdict = check_embedding(t)
    if not verdict.ok:
        raise DomainError(f"embedding claim fails on this instance: {verdict.detail}")
    a = t.pivot
    return {x: t._pair_index[(x, a)] for x in range(t.source.n)}


# Failure text per kind; the subset label is rendered only on failure.
_CONE_FAILURES = {
    "L": "L({A}) != L(p1) x U(p2) restricted to the carrier",
    "U": "U({A}) != U(p1) x L(p2) restricted to the carrier",
    "L-unrestricted": ("L(p1(A)) x U(p2(A)) for A = {A} contains {pair}, "
                       "which is not a member"),
    "U-unrestricted": ("U(p1(A)) x L(p2(A)) for A = {A} contains {pair}, "
                       "which is not a member"),
}


def check_product_cones(t, restricted=True):
    """The cone-of-a-subset formulas

        L(A) = (L(p1(A)) x U(p2(A)))  [∩ carrier when restricted]
        U(A) = (U(p1(A)) x L(p2(A)))  [∩ carrier when restricted]

    checked for every nonempty subset A of the twist when the carrier is
    small, else for all singletons and pairs.  The unrestricted reading
    demands that every product pair already belong to the carrier."""
    q = t.source
    r = t.result
    n = t.n
    if n <= 12:
        subsets = range(1, 1 << n)
    else:
        singles = [1 << i for i in range(n)]
        doubles = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
        subsets = singles + doubles
    for am in subsets:
        p1m = p2m = 0
        for k in _bits(am):
            x, y = t.pairs[k]
            p1m |= 1 << x
            p2m |= 1 << y
        l1 = q._lower(p1m)
        u2 = q._upper(p2m)
        u1 = q._upper(p1m)
        l2 = q._lower(p2m)
        lcone = r.base._lower(am)
        ucone = r.base._upper(am)
        lprod_mask = 0
        uprod_mask = 0
        l_outside = u_outside = None
        for x in _bits(l1):
            for y in _bits(u2):
                k = t._pair_index.get((x, y))
                if k is not None:
                    lprod_mask |= 1 << k
                elif l_outside is None:
                    l_outside = (x, y)
        for x in _bits(u1):
            for y in _bits(l2):
                k = t._pair_index.get((x, y))
                if k is not None:
                    uprod_mask |= 1 << k
                elif u_outside is None:
                    u_outside = (x, y)
        if lcone != lprod_mask:
            kind, outside = "L", None
        elif ucone != uprod_mask:
            kind, outside = "U", None
        elif not restricted and l_outside is not None:
            kind, outside = "L-unrestricted", l_outside
        elif not restricted and u_outside is not None:
            kind, outside = "U-unrestricted", u_outside
        else:
            continue
        pair = (f"({q.labels[outside[0]]},{q.labels[outside[1]]})"
                if outside else "")
        return Verdict(False, (kind, am), _CONE_FAILURES[kind].format(
            A=Subset(r.base, am).render(), pair=pair))
    return Verdict(True)


@dataclass(frozen=True)
class TwistAuditReport:
    """Three-part audit of one (Q, pivot) instance.  Parts (i) and (ii)
    carry pass/fail verdicts; part (iii) is recorded as agreement data
    because the bundled corpus contains a genuine disagreement.  The two
    product-cone verdicts are computed on first access."""
    part_i: Verdict
    part_ii: Verdict
    q_distributive: Verdict
    twist_kleene: Verdict
    twist_pseudo_kleene: Verdict
    part_iii_agree: bool
    _twist: TwistPoset = field(repr=False, compare=False)

    @cached_property
    def product_cones_restricted(self):
        return check_product_cones(self._twist, restricted=True)

    @cached_property
    def product_cones_unrestricted(self):
        return check_product_cones(self._twist, restricted=False)

    @property
    def asserted_ok(self):
        return self.part_i.ok and self.part_ii.ok


def audit_theorem61(q, a):
    """Audit one instance: (i) the twist is pseudo-Kleene with exactly
    the fixed point (a, a); (ii) x -> (x, a) is an order-embedding;
    (iii) record whether distributivity of Q coincides with the twist
    being a Kleene poset."""
    t = twist(q, a)
    r = t.result
    inv_verdict = r.check_antitone_involution()
    pivot_pair = t._pair_index[(t.pivot, t.pivot)]
    if not inv_verdict.ok:
        part_i = Verdict(False, None, f"involution invalid: {inv_verdict.detail}")
        pk = inv_verdict
        kleene = inv_verdict
    else:
        pk = r.is_pseudo_kleene()
        fixed = r.fixed_points()
        expected = 1 << pivot_pair
        if not pk.ok:
            part_i = Verdict(False, pk.witness, f"not pseudo-Kleene: {pk.detail}")
        elif fixed.mask != expected:
            part_i = Verdict(False, None,
                             f"fixed points {fixed.render()} != "
                             f"{{{r.labels[pivot_pair]}}}")
        else:
            part_i = Verdict(True)
        kleene = r.is_kleene()
    part_ii = check_embedding(t)
    q_dist = q.is_distributive("LU")
    agree = q_dist.ok == kleene.ok
    return t, TwistAuditReport(
        part_i=part_i,
        part_ii=part_ii,
        q_distributive=q_dist,
        twist_kleene=kleene,
        twist_pseudo_kleene=pk,
        part_iii_agree=agree,
        _twist=t)
