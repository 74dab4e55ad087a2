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
    demands that every product pair already belong to the carrier.

    Everything is a mask over the carrier: with ``first[x]`` and
    ``second[y]`` the pairs whose first/second coordinate is x/y, the
    carrier part of X x Y is ``OR first[X] & OR second[Y]``.  Each pair
    belongs to one k, so X x Y leaves the carrier exactly when
    |X|·|Y| exceeds that mask's popcount, and only then is the first
    outside pair looked for.  A subset's projections and cones extend
    those of the subset without its lowest element, which every subset
    order below visits first; the Q-cones and ORs are memoised by mask."""
    q = t.source
    r = t.result.base
    n = t.n
    if n <= 12:
        subsets = range(1, 1 << n)
    else:
        singles = [1 << i for i in range(n)]
        doubles = [(1 << i) | (1 << j) for i in range(n) for j in range(i + 1, n)]
        subsets = singles + doubles
    first = [0] * q.n
    second = [0] * q.n
    for k, (x, y) in enumerate(t.pairs):
        first[x] |= 1 << k
        second[y] |= 1 << k
    lower, upper = _memoised(q._lower), _memoised(q._upper)
    or_first = _memoised(lambda m: _union(first, m))
    or_second = _memoised(lambda m: _union(second, m))
    proj = {0: (0, 0, r._full, r._full)}
    for am in subsets:
        low = am & -am
        k = low.bit_length() - 1
        p1m, p2m, lcone, ucone = proj[am ^ low]
        x, y = t.pairs[k]
        p1m, p2m = p1m | 1 << x, p2m | 1 << y
        lcone, ucone = lcone & r._down[k], ucone & r._up[k]
        if n <= 12 or am == low:    # a pair is no later subset's rest
            proj[am] = (p1m, p2m, lcone, ucone)
        l1, u2, u1, l2 = lower(p1m), upper(p2m), upper(p1m), lower(p2m)
        lprod = or_first(l1) & or_second(u2)
        uprod = or_first(u1) & or_second(l2)
        if lcone != lprod:
            kind, outside = "L", None
        elif ucone != uprod:
            kind, outside = "U", None
        elif not restricted and (outside := _outside(t, l1, u2, lprod)):
            kind = "L-unrestricted"
        elif not restricted and (outside := _outside(t, u1, l2, uprod)):
            kind = "U-unrestricted"
        else:
            continue
        pair = (f"({q.labels[outside[0]]},{q.labels[outside[1]]})"
                if outside else "")
        return Verdict(False, (kind, am), _CONE_FAILURES[kind].format(
            A=Subset(r, am).render(), pair=pair))
    return Verdict(True)


def _memoised(fn):
    """``fn`` of a mask, memoised by the mask."""
    memo = {}

    def get(mask):
        value = memo.get(mask)
        if value is None:
            value = memo[mask] = fn(mask)
        return value
    return get


def _union(table, mask):
    out = 0
    for x in _bits(mask):
        out |= table[x]
    return out


def _outside(t, xs, ys, inside):
    """The first (x, y) of xs × ys outside the carrier, or None when the
    carrier mask ``inside`` already holds all of them."""
    if xs.bit_count() * ys.bit_count() == inside.bit_count():
        return None
    for x in _bits(xs):
        for y in _bits(ys):
            if (x, y) not in t._pair_index:
                return (x, y)


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


def _part_i(t):
    """Part (i) of the Thm 6.1 audit: the twist is pseudo-Kleene with
    exactly the fixed point (a, a).  Returns the part's verdict and the
    twist's (K) verdict, which is the involution's verdict when the swap
    is not a valid antitone involution."""
    r = t.result
    inv_verdict = r.check_antitone_involution()
    if not inv_verdict.ok:
        part_i = Verdict(False, None, f"involution invalid: {inv_verdict.detail}")
        return part_i, inv_verdict
    pivot_pair = t._pair_index[(t.pivot, t.pivot)]
    pk = r.is_pseudo_kleene()
    fixed = r.fixed_points()
    if not pk.ok:
        part_i = Verdict(False, pk.witness, f"not pseudo-Kleene: {pk.detail}")
    elif fixed.mask != 1 << pivot_pair:
        part_i = Verdict(False, None,
                         f"fixed points {fixed.render()} != "
                         f"{{{r.labels[pivot_pair]}}}")
    else:
        part_i = Verdict(True)
    return part_i, pk


def audit_theorem61(q, a):
    """Audit one instance: (i) the twist is pseudo-Kleene with exactly
    the fixed point (a, a); (ii) x -> (x, a) is an order-embedding;
    (iii) record whether distributivity of Q coincides with the twist
    being a Kleene poset."""
    t = twist(q, a)
    part_i, pk = _part_i(t)
    kleene = t.result.is_kleene() if t.result.check_antitone_involution().ok else pk
    q_dist = q.is_distributive("LU")
    return t, TwistAuditReport(
        part_i=part_i,
        part_ii=check_embedding(t),
        q_distributive=q_dist,
        twist_kleene=kleene,
        twist_pseudo_kleene=pk,
        part_iii_agree=q_dist.ok == kleene.ok,
        _twist=t)
