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

from collections import namedtuple

from .errors import DomainError, UsageError
from .involution import InvolutivePoset
from .poset import Poset, Subset, Verdict, _bits, _join_rows


class TwistPoset:
    """Result of the construction, with projections back to the source.
    ``_first[x]`` and ``_second[y]`` are the masks of the carrier pairs
    whose first coordinate is x and whose second coordinate is y."""

    __slots__ = ("source", "pivot", "pairs", "result", "_pair_index",
                 "_first", "_second")

    def __init__(self, source, pivot, pairs, result):
        first = [0] * source.n
        second = [0] * source.n
        for k, (x, y) in enumerate(pairs):
            first[x] |= 1 << k
            second[y] |= 1 << k
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "pivot", pivot)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "_pair_index", {p: k for k, p in enumerate(pairs)})
        object.__setattr__(self, "_first", first)
        object.__setattr__(self, "_second", second)

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
    """Build the twist of ``q`` at pivot ``a`` (label or index).  The
    up-set of (x, y) is the carrier part of U(x) x L(y), the pairs with
    first coordinate in U(x) and second coordinate in L(y)."""
    if isinstance(q, InvolutivePoset):
        raise UsageError("twist takes a plain poset; pass ip.base")
    pivot = q.index(a)
    down, up = q._down, q._up
    da, ua = down[pivot], up[pivot]
    pairs = tuple((x, y) for x in range(q.n) for y in range(q.n)
                  if down[x] & down[y] & ~da == 0 and up[x] & up[y] & ~ua == 0)
    labels = tuple(f"({q.labels[x]},{q.labels[y]})" for x, y in pairs)
    # The order reads the pair masks, so the result is set once they exist.
    t = TwistPoset(q, pivot, pairs, None)
    first_up, second_down = _lift(t._first, up), _lift(t._second, down)
    up_masks = [first_up[x] & second_down[y] for x, y in pairs]
    inv = tuple(t._pair_index[(y, x)] for x, y in pairs)
    object.__setattr__(t, "result", InvolutivePoset(
        Poset(labels, up_masks, _validated=True), inv))
    return t


def check_embedding(t):
    """Is x -> (x, a) a well-defined order-embedding?  Returns the
    verdict; a failure here refutes the construction's embedding claim
    rather than signalling bad input.  The up-set of each image, pulled
    back to the source, must equal the source's up-set; the first
    difference in row-major order is the witness."""
    q = t.source
    a = t.pivot
    images = []
    for x in range(q.n):
        k = t._pair_index.get((x, a))
        if k is None:
            return Verdict(False, (x,),
                           f"({q.labels[x]},{q.labels[a]}) is not a member of the twist")
        images.append(k)
    r_up = t.result.base._up
    for x in range(q.n):
        row = r_up[images[x]]
        pulled = sum(1 << y for y, k in enumerate(images) if (row >> k) & 1)
        diff = pulled ^ q._up[x]
        if diff:
            y = (diff & -diff).bit_length() - 1
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

    for every nonempty subset A of the twist.  The unrestricted reading
    demands that every product pair already belong to the carrier.

    Singletons decide every subset.  A cone of A is the intersection of
    its members' cones, and a product of intersections is the
    intersection of the products, so if every singleton passes, every
    subset passes, in both readings.  Any mask below ``1 << j`` uses only
    elements below j, so the first failing subset in mask order is the
    lowest failing singleton, with the same kind and the same outside
    pair; only singletons are scanned, in increasing order.

    The products are read off Q's own cones.  With ``_first[x]`` and
    ``_second[y]`` the pairs whose first/second coordinate is x/y, the
    carrier part of X x Y is ``OR first[X] & OR second[Y]``, each OR
    taken once per cone of Q (``_lift``).  ``twist`` builds its up-sets
    from the same masks, so the pair-by-pair oracle of the tests, not
    this check, is what guards the construction.  Each carrier pair is
    one bit, so X x Y leaves the carrier exactly when |X|·|Y| exceeds
    that mask's popcount, and only then is the first outside pair looked
    for."""
    q = t.source
    r = t.result.base
    first_down, first_up = _lift(t._first, q._down), _lift(t._first, q._up)
    second_down, second_up = _lift(t._second, q._down), _lift(t._second, q._up)
    for k, (x, y) in enumerate(t.pairs):
        l1, u2, u1, l2 = q._down[x], q._up[y], q._up[x], q._down[y]
        lprod = first_down[x] & second_up[y]
        uprod = first_up[x] & second_down[y]
        if r._down[k] != lprod:
            kind, outside = "L", None
        elif r._up[k] != uprod:
            kind, outside = "U", None
        elif not restricted and (outside := _outside(t, l1, u2, lprod)):
            kind = "L-unrestricted"
        elif not restricted and (outside := _outside(t, u1, l2, uprod)):
            kind = "U-unrestricted"
        else:
            continue
        pair = (f"({q.labels[outside[0]]},{q.labels[outside[1]]})"
                if outside else "")
        return Verdict(False, (kind, 1 << k), _CONE_FAILURES[kind].format(
            A=Subset(r, 1 << k).render(), pair=pair))
    return Verdict(True)


def _lift(coordinate, cones):
    """Per element z of Q, the mask of carrier pairs whose coordinate (a
    ``_first`` or ``_second`` table) lies in ``cones[z]``."""
    return [_join_rows(coordinate, cone) for cone in cones]


def _outside(t, xs, ys, inside):
    """The first (x, y) of xs × ys outside the carrier, or None when the
    carrier mask ``inside`` already holds all of them."""
    if xs.bit_count() * ys.bit_count() == inside.bit_count():
        return None
    for x in _bits(xs):
        for y in _bits(ys):
            if (x, y) not in t._pair_index:
                return (x, y)


class TwistAuditReport(namedtuple("TwistAuditReport", (
        "part_i part_ii q_distributive twist_kleene part_iii_agree "
        "product_cones_restricted product_cones_unrestricted"))):
    """Three-part audit of one (Q, pivot) instance.  Parts (i) and (ii)
    carry pass/fail verdicts; part (iii) is recorded as agreement data
    because the bundled corpus contains a genuine disagreement."""

    __slots__ = ()

    @property
    def asserted_ok(self):
        return self.part_i.ok and self.part_ii.ok


def _part_i(t):
    """Part (i) of the Thm 6.1 audit: the twist is pseudo-Kleene with
    exactly the fixed point (a, a)."""
    r = t.result
    inv_verdict = r.check_antitone_involution()
    if not inv_verdict.ok:
        return Verdict(False, None, f"involution invalid: {inv_verdict.detail}")
    pivot_pair = t._pair_index[(t.pivot, t.pivot)]
    pk = r.is_pseudo_kleene()
    if not pk.ok:
        return Verdict(False, pk.witness, f"not pseudo-Kleene: {pk.detail}")
    fixed = r.fixed_points()
    if fixed.mask != 1 << pivot_pair:
        return Verdict(False, None,
                       f"fixed points {fixed.render()} != "
                       f"{{{r.labels[pivot_pair]}}}")
    return Verdict(True)


def _twist_kleene(t):
    """The twist's Kleene verdict, or the involution's verdict when the
    swap is not a valid antitone involution."""
    r = t.result
    inv_verdict = r.check_antitone_involution()
    return r.is_kleene() if inv_verdict.ok else inv_verdict


def audit_theorem61(q, a):
    """Audit one instance: (i) the twist is pseudo-Kleene with exactly
    the fixed point (a, a); (ii) x -> (x, a) is an order-embedding;
    (iii) record whether distributivity of Q coincides with the twist
    being a Kleene poset.  The product-cone verdicts of both readings
    ride along."""
    t = twist(q, a)
    kleene = _twist_kleene(t)
    q_dist = q.is_distributive("LU")
    return t, TwistAuditReport(
        part_i=_part_i(t),
        part_ii=check_embedding(t),
        q_distributive=q_dist,
        twist_kleene=kleene,
        part_iii_agree=q_dist.ok == kleene.ok,
        product_cones_restricted=check_product_cones(t, restricted=True),
        product_cones_unrestricted=check_product_cones(t, restricted=False))
