"""Posets equipped with a unary map intended as an antitone involution,
and the classification ladder built on the condition

    (K)  L(x, x') <= U(y, y')   for all x, y.

The ladder: Boolean poset -> strict -> strong -> pseudo-Kleene, with
"Kleene" meaning pseudo-Kleene plus distributivity.  Every predicate
returns a :class:`Verdict`; structural falsity never raises.  Operations
that are meaningless without a valid antitone involution raise
:class:`UsageError`, and ones that need bounds raise :class:`DomainError`.
The one search for such maps (:func:`_constrained_involutions`) also
finds the maps under which a meet-directoid satisfies identity (2).
"""

from __future__ import annotations

from collections import namedtuple

from .errors import DomainError, UsageError
from .poset import (Poset, Subset, Verdict, _meet_rows, _memoised, _render, _resolve_pairs,
                    find_isomorphism)


def involution_from_pairs(labels, pairs):
    """Total involutive map from pairs given by name or index,
    symmetrically closed; an unknown name or index is a usage error."""
    inv = [None] * len(labels)
    for x, y in _resolve_pairs(labels, pairs, "involution pair"):
        for s, t in ((x, y), (y, x)):
            if inv[s] is not None and inv[s] != t:
                raise UsageError(f"conflicting involution pairing for {labels[s]!r}")
            inv[s] = t
    missing = [labels[i] for i, v in enumerate(inv) if v is None]
    if missing:
        raise UsageError(f"involution does not cover: {', '.join(missing)}")
    return tuple(inv)


def _image(inv, mask):
    """The mask of ``inv[x]`` over the bits x of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << inv[low.bit_length() - 1]
        mask ^= low
    return out


def _constrained_involutions(cols, into, lower, upper):
    """Every involution u of ``range(n)`` with u[y] in ``lower[u[m]]``
    for every y and every m in ``cols[y]``, in lexicographic order.
    ``into`` and ``upper`` are the transposes of ``cols`` and ``lower``
    (``into[m] = {y | m in cols[y]}``, ``upper[b] = {a | b in
    lower[a]}``), so the constraint also reads u[m] in ``upper[u[y]]``.
    On a poset's own masks, ``(down, up, down, up)``, it says m <= y
    implies u[y] <= u[m]: the maps are the antitone involutions
    (``enumeration.enumerate_involutions``).  On the masks of a table's
    order view it is identity (2) (``directoid._identity_2_maps``).

    A pairing search.  The least unpaired x is paired with each unpaired
    v >= x in increasing order (v == x makes x a fixed point), so the
    maps come out in lexicographic order.  A pairing stands when x and v
    each meet every constraint whose other end is mapped: for y in
    {x, v}, u[m] in ``upper[u[y]]`` for each mapped m in ``cols[y]``,
    and u[m] in ``lower[u[y]]`` for each mapped m in ``into[y]``.  x and
    v count as mapped, so the constraints between them, and of each with
    itself, are checked too.  So each constraint is checked when the
    later of its two ends is mapped, and one that fails there fails in
    every completion: a map is output exactly when it meets them all.

    Each pairing is tested on sizes before its constraints, which skips
    only pairings that no output holds.  u maps ``cols[z]`` one-to-one
    into ``upper[u[z]]``, and ``into[z]`` one-to-one into
    ``lower[u[z]]``.  So u[z] is only ever a v whose two sets are at
    least as large, and x and v pair only if each is such a candidate
    for the other.  On a poset this says the pair swaps cone sizes:
    |L(x)| = |U(v)| and |U(x)| = |L(v)|."""
    n = len(cols)
    need_up = [m.bit_count() for m in cols]
    need_low = [m.bit_count() for m in into]
    has_up = [m.bit_count() for m in upper]
    has_low = [m.bit_count() for m in lower]
    out, u = [], [0] * n
    directions = ((cols, upper), (into, lower))

    def fits(y, mapped):
        for ends_of, allowed_of in directions:
            ends, allowed = ends_of[y] & mapped, allowed_of[u[y]]
            while ends:
                b = ends & -ends
                if not allowed >> u[b.bit_length() - 1] & 1:
                    return False
                ends ^= b
        return True

    def extend(free):
        if not free:
            out.append(tuple(u))
            return
        bx = free & -free
        x = bx.bit_length() - 1
        pairs = free
        while pairs:
            bv = pairs & -pairs
            pairs ^= bv
            v = bv.bit_length() - 1
            if (has_up[v] < need_up[x] or has_low[v] < need_low[x]
                    or has_up[x] < need_up[v] or has_low[x] < need_low[v]):
                continue
            u[x], u[v] = v, x
            rest = free & ~(bx | bv)
            if fits(x, ~rest) and (v == x or fits(v, ~rest)):
                extend(rest)

    extend((1 << n) - 1)
    return out


class InvolutivePoset:
    """A finite poset together with a total unary map ``inv``.

    The map is stored as given; :meth:`check_antitone_involution` validates
    it, and the classification predicates insist on validity.  Each
    verdict that takes no argument is memoised (``poset._memoised``).
    """

    __slots__ = ("base", "inv", "_memo")

    def __init__(self, base, inv):
        if not isinstance(base, Poset):
            raise UsageError("base must be a Poset")
        inv = tuple(inv)
        if len(inv) != base.n:
            raise UsageError("involution must be a total map on the carrier")
        for v in inv:
            if not isinstance(v, int) or not (0 <= v < base.n):
                raise UsageError("involution maps outside the carrier")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("InvolutivePoset is immutable")

    @classmethod
    def _antitone(cls, base, inv):
        """``cls(base, inv)`` for a map already known to be an antitone
        involution of ``base`` (one of :func:`enumerate_involutions`, or
        the star of a cut completion): its verdict is recorded rather
        than checked again."""
        ip = cls(base, inv)
        cls.check_antitone_involution.seed(ip, Verdict(True))
        return ip

    @classmethod
    def from_covers(cls, labels, covers, involution_pairs):
        base = Poset.from_covers(labels, covers)
        return cls(base, involution_from_pairs(base.labels, involution_pairs))

    # -- delegation ------------------------------------------------------
    @property
    def labels(self):
        return self.base.labels

    @property
    def n(self):
        return self.base.n

    def index(self, item):
        return self.base.index(item)

    def label(self, x):
        return self.base.labels[x]

    def leq(self, x, y):
        return self.base.leq(x, y)

    def incomparable(self, x, y):
        return self.base.incomparable(x, y)

    def subset(self, items=()):
        return self.base.subset(items)

    def lower_cone(self, items):
        return self.base.lower_cone(items)

    def upper_cone(self, items):
        return self.base.upper_cone(items)

    def leq_set(self, a, b):
        return self.base.leq_set(a, b)

    def bounds(self):
        return self.base.bounds()

    def is_lattice(self):
        return self.base.is_lattice()

    def is_distributive(self, form="LU"):
        return self.base.is_distributive(form)

    def __eq__(self, other):
        if not isinstance(other, InvolutivePoset):
            return NotImplemented
        return self.base == other.base and self.inv == other.inv

    def __hash__(self):
        return hash((self.base, self.inv))

    def __repr__(self):
        return f"InvolutivePoset({self.n} elements: {', '.join(self.labels)})"

    # -- the involution --------------------------------------------------
    def prime(self, x):
        """x' as an element index."""
        return self.inv[self.base.index(x)]

    def prime_subset(self, items):
        """Elementwise image A' of a subset."""
        return Subset(self.base, _image(self.inv, self.base._mask_of(items)))

    @_memoised
    def check_antitone_involution(self):
        """x'' = x for all x, and x <= y implies y' <= x'."""
        lab, inv = self.labels, self.inv
        for x in range(self.n):
            if inv[inv[x]] != x:
                return Verdict(
                    False, (x,),
                    f"not involutive: {lab[x]}'' = {lab[inv[inv[x]]]} != {lab[x]}")
        # The map is an involution here, so {y | y' <= x'} is the image
        # of the down-set of x'; y fails when it lies above x and outside
        # that image (x itself, x'' = x, lies inside).
        up, down = self.base._up, self.base._down
        for x in range(self.n):
            bad = up[x] & ~_image(inv, down[inv[x]])
            if bad:
                y = (bad & -bad).bit_length() - 1
                return Verdict(
                    False, (x, y),
                    f"not antitone: {lab[x]} <= {lab[y]} but "
                    f"{lab[y]}' = {lab[inv[y]]} !<= {lab[inv[x]]} = {lab[x]}'")
        return Verdict(True)

    def _require_involution(self):
        verdict = self.check_antitone_involution()
        if not verdict.ok:
            raise UsageError(f"operation requires a valid antitone involution ({verdict.detail})")

    def fixed_points(self):
        return Subset(self.base, sum(1 << x for x, v in enumerate(self.inv) if v == x))

    # -- cone shorthands ---------------------------------------------------
    @_memoised
    def _self_cone_masks(self):
        """Masks of L(x, x') and U(x, x') for every x."""
        down, up, inv = self.base._down, self.base._up, self.inv
        lows = tuple(down[x] & down[inv[x]] for x in range(self.n))
        ups = tuple(up[x] & up[inv[x]] for x in range(self.n))
        return lows, ups

    # -- classification ladder -----------------------------------------------
    @_memoised
    def is_pseudo_kleene(self):
        """Condition (K): L(x,x') <= U(y,y') for all pairs x, y.  A set
        lies above L(x,x') in the set order iff it lies inside
        U(L(x,x')).  So (K) says every element of A, the union of the
        L(x,x'), lies below every element of B, the union of the U(y,y'):
        it holds iff B lies inside U(A), one cone.  A is {z | z <= z'}:
        z <= x and z <= x' give x' <= z' by antitony, so z <= z', and
        z <= z' puts z in L(z,z').  Dually B is {z | z' <= z}.  Only on a
        failure is each distinct L(x,x') given its upper cone, for the
        first x whose cone leaves B, and y is scanned at that x alone."""
        self._require_involution()
        p, lab = self.base, self.labels
        up = p._up
        low_union = up_union = 0    # A and B
        for z, iz in enumerate(self.inv):
            if up[z] >> iz & 1:
                low_union |= 1 << z
            if up[iz] >> z & 1:
                up_union |= 1 << z
        if not up_union & ~_meet_rows(up, p._full, low_union):
            return Verdict(True)
        lows, ups = self._self_cone_masks()
        cones = {}
        for x, low in enumerate(lows):
            cone = cones.get(low)
            if cone is None:
                cone = cones[low] = _meet_rows(up, p._full, low)
            if up_union & ~cone:
                break
        y = next(y for y in range(self.n) if ups[y] & ~cone)
        detail = (f"L({lab[x]},{lab[x]}') = {_render(p.labels, low)} !<= "
                  f"{_render(p.labels, ups[y])} = U({lab[y]},{lab[y]}')")
        return Verdict(False, (x, y), detail)

    @_memoised
    def is_kleene(self):
        """Pseudo-Kleene plus the distributivity identity (form LU)."""
        pk = self.is_pseudo_kleene()
        if not pk.ok:
            return Verdict(False, pk.witness, f"not pseudo-Kleene: {pk.detail}")
        dist = self.base.is_distributive("LU")
        if not dist.ok:
            return Verdict(False, dist.witness, f"not distributive: {dist.detail}")
        return Verdict(True)

    @_memoised
    def is_strong(self):
        """x || y implies L(x,x') = L(y,y').  The elements sharing one
        L(x,x') form a class, so x fails with each y incomparable to x
        and outside its class.  At the first x that fails, every such y
        lies after x: the relation is symmetric, so a y before x would
        have failed first.
        Only the L(x,x') masks are built, not the U(x,x') ones."""
        self._require_involution()
        p, lab, inv = self.base, self.labels, self.inv
        up, down = p._up, p._down
        lows = [down[x] & down[inv[x]] for x in range(self.n)]
        classes = {}
        for x, low in enumerate(lows):
            classes[low] = classes.get(low, 0) | 1 << x
        for x, low in enumerate(lows):
            bad = p._full & ~(up[x] | down[x] | classes[low])
            if bad:
                y = (bad & -bad).bit_length() - 1
                detail = (f"{lab[x]} || {lab[y]} but L({lab[x]},{lab[x]}') = "
                          f"{_render(lab, low)} != "
                          f"{_render(lab, lows[y])} = L({lab[y]},{lab[y]}')")
                return Verdict(False, (x, y), detail)
        return Verdict(True)

    @_memoised
    def is_strict(self):
        """Bounded, and all non-extremal x, y share the same L(x,x') and
        U(x,x')."""
        self._require_involution()
        bottom, top = self.base.bounds()
        if bottom is None or top is None:
            raise DomainError("strictness requires bounds")
        p, lab = self.base, self.labels
        sides = tuple(zip("LU", self._self_cone_masks()))
        inner = [x for x in range(self.n) if x not in (bottom, top)]
        for i, x in enumerate(inner):
            for y in inner[i + 1:]:
                for cone, masks in sides:
                    if masks[x] != masks[y]:
                        detail = (f"{cone}({lab[x]},{lab[x]}') = {_render(p.labels, masks[x])}"
                                  f" != {_render(p.labels, masks[y])} = "
                                  f"{cone}({lab[y]},{lab[y]}')")
                        return Verdict(False, (x, y), detail)
        return Verdict(True)

    @_memoised
    def is_boolean_poset(self):
        """Bounded distributive poset where the involution complements:
        L(x,x') = {0} and U(x,x') = {1} for every x."""
        self._require_involution()
        bottom, top = self.base.bounds()
        if bottom is None or top is None:
            raise DomainError("Boolean poset check requires bounds")
        if not self.base.is_distributive("LU").ok:
            raise DomainError("Boolean poset check requires distributivity")
        p, lab = self.base, self.labels
        sides = tuple(zip("LU", self._self_cone_masks(), (bottom, top)))
        for x in range(self.n):
            for cone, masks, bound in sides:
                if masks[x] != 1 << bound:
                    detail = (f"{cone}({lab[x]},{lab[x]}') = {_render(p.labels, masks[x])}"
                              f" != {{{lab[bound]}}}")
                    return Verdict(False, (x,), detail)
        return Verdict(True)

    def _lemma11_bounds(self):
        """The bounds (0, 1), once the preconditions of Lemma 1.1 that do
        not depend on the pair are met: a valid involution on a bounded
        distributive poset.  Otherwise :class:`DomainError` (or
        :class:`UsageError` for the involution)."""
        self._require_involution()
        bottom, top = self.base.bounds()
        if bottom is None or top is None:
            raise DomainError("requires a bounded poset")
        if not self.base.is_distributive("LU").ok:
            raise DomainError("requires a distributive poset")
        return bottom, top

    def lemma11_holds(self, a, b):
        """On a bounded distributive involutive poset: a <= b together with
        L(b, a') = {0} forces L(a,a') = L(b,b') = {0} and
        U(a,a') = U(b,b') = {1}.  Precondition violations raise
        :class:`DomainError`."""
        bottom, top = self._lemma11_bounds()
        p, lab = self.base, self.labels
        a, b = p.index(a), p.index(b)
        if not p.leq(a, b):
            raise DomainError(f"requires {lab[a]} <= {lab[b]}")
        low = p._lower((1 << b) | (1 << self.inv[a]))
        if low != 1 << bottom:
            raise DomainError(f"requires L({lab[b]}, {lab[a]}') = {{{lab[bottom]}}}; "
                              f"got {_render(p.labels, low)}")
        sides = tuple(zip("LU", self._self_cone_masks(), (bottom, top)))
        for x in (a, b):
            for cone, masks, bound in sides:
                if masks[x] != 1 << bound:
                    return Verdict(False, (a, b),
                                   f"{cone}({lab[x]},{lab[x]}') = {_render(p.labels, masks[x])}")
        return Verdict(True)

    def isomorphic_to(self, other):
        """Isomorphism respecting the involutions, or ``None``."""
        return find_isomorphism(self.base, other.base, self.inv, other.inv)

    def classify(self):
        return classify(self)


class Classification(namedtuple("Classification", (
        "involution bounded lattice distributive distributive_forms_agree "
        "pseudo_kleene kleene strong strict strict_reason boolean "
        "boolean_reason fixed_points summary"))):
    """Full classification report for an involutive poset; the verdicts
    from ``pseudo_kleene`` to ``boolean`` are None where they do not
    apply."""

    __slots__ = ()


def _summary(involution, lattice_ok, pk, kleene, strong, strict, boolean):
    if not involution.ok:
        name = "not an antitone involution"
    elif boolean is not None and boolean.ok:
        name = "Boolean"
    elif strict is not None and strict.ok and kleene.ok:
        name = "strict Kleene"
    elif strict is not None and strict.ok:
        name = "strict pseudo-Kleene"
    elif strong.ok and kleene.ok:
        name = "strong Kleene"
    elif kleene.ok:
        name = "Kleene"
    elif strong.ok:
        name = "strong pseudo-Kleene"
    elif pk.ok:
        name = "pseudo-Kleene"
    else:
        name = "involutive (not pseudo-Kleene)"
    if involution.ok:
        word = "algebra" if lattice_ok else "poset"
        name = f"{name} {word}"
    return f"{name}; {'lattice' if lattice_ok else 'not a lattice'}"


def classify(ip):
    """Classify without throwing on structural falsity; only malformed
    input raises."""
    if not isinstance(ip, InvolutivePoset):
        raise UsageError("classify takes an InvolutivePoset; for a plain Poset p "
                         "pass InvolutivePoset(p, inv)")
    involution = ip.check_antitone_involution()
    bottom, top = ip.base.bounds()
    lab = ip.labels
    bounded = (lab[bottom] if bottom is not None else None,
               lab[top] if top is not None else None)
    lattice = ip.base.is_lattice()
    distributive = ip.base.distributivity_all_forms()
    forms_agree = len({v.ok for v in distributive.values()}) == 1

    pk = kleene = strong = strict = boolean = None
    strict_reason = boolean_reason = ""
    fixed = ()
    if involution.ok:
        pk = ip.is_pseudo_kleene()
        kleene = ip.is_kleene()
        strong = ip.is_strong()
        if bottom is None or top is None:
            strict_reason = boolean_reason = "not applicable: poset is unbounded"
        else:
            strict = ip.is_strict()
            if distributive["LU"].ok:
                boolean = ip.is_boolean_poset()
            else:
                boolean_reason = "not applicable: poset is not distributive"
        fixed = ip.fixed_points().labels

    summary = _summary(involution, lattice.ok, pk, kleene, strong, strict, boolean) \
        if involution.ok else "not an antitone involution"
    return Classification(
        involution=involution, bounded=bounded, lattice=lattice,
        distributive=distributive, distributive_forms_agree=forms_agree,
        pseudo_kleene=pk, kleene=kleene, strong=strong,
        strict=strict, strict_reason=strict_reason,
        boolean=boolean, boolean_reason=boolean_reason,
        fixed_points=fixed, summary=summary)
