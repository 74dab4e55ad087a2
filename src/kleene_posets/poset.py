"""Finite posets and the lower/upper cone calculus.

A :class:`Poset` stores its order relation as per-element bitmasks, which
keeps the cone operators L and U cheap enough for exhaustive audits.  All
element subsets handed to callers are :class:`Subset` value objects tied to
their owning poset; mixing subsets across posets is a usage error.

Conventions used throughout the package:

* ``L(A)`` (``lower_cone``) is the set of common lower bounds of ``A`` and
  ``U(A)`` (``upper_cone``) the set of common upper bounds.  ``L({}) `` is
  the full carrier, dually for ``U``.
* the set-order ``A <= B`` (``leq_set``) holds when every element of ``A``
  is below every element of ``B``; it is vacuously true when either side
  is empty.
* predicates that can fail return a :class:`Verdict` carrying a witness in
  canonical (lowest-index-first) order rather than raising.
"""

from __future__ import annotations

import functools
from operator import and_
from typing import NamedTuple

from .errors import UsageError

DISTRIBUTIVITY_FORMS = ("LU", "ULU", "UL", "LUL")


class Verdict(NamedTuple):
    """Boolean check outcome plus a reproducible witness when it fails."""

    ok: bool
    witness: tuple | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "Verdict(ok)"
        return f"Verdict(fail: {self.detail})"


def _bits(mask):
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_UNSET = object()


def _memoised(method):
    """Run ``method`` once per object and argument tuple, keep the result
    in the object's one ``_memo`` dict (under the method's name, or
    ``(name, args)`` given arguments) and return that same object on
    every later call.  Sharing is exact: ``Poset``, ``InvolutivePoset``
    and ``MeetDirectoid`` are immutable, and a memoised result is a
    function of the arguments and of the order, map or table alone, so
    no caller, in any order, could compute another value.  An exception
    is never kept, so a precondition check raises on every call.
    ``seed(obj, value, *args)`` records a value known when ``obj`` is
    built, under the key that call would use.  Arguments are dict keys,
    so a method is memoised only where its arguments are validated first
    (``Poset._distributivity_verdict``)."""
    name = method.__name__

    @functools.wraps(method)
    def memoised(self, *args):
        key = (name, args) if args else name
        value = self._memo.get(key, _UNSET)
        if value is _UNSET:
            value = self._memo[key] = method(self, *args)
        return value

    def seed(obj, value, *args):
        obj._memo[(name, args) if args else name] = value

    memoised.seed = seed
    return memoised


def _transpose(masks):
    """The transpose of a relation given by rows of bitmasks:
    ``out[b] = {a | b in masks[a]}``."""
    out = [0] * len(masks)
    for a, mask in enumerate(masks):
        bit = 1 << a
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return out


class Subset:
    """An immutable subset of a poset's carrier, tied to its owner."""

    __slots__ = ("owner", "mask")

    def __init__(self, owner, mask):
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):
        raise AttributeError("Subset is immutable")

    # -- set protocol -------------------------------------------------
    def __iter__(self):
        return _bits(self.mask)

    def __len__(self):
        return self.mask.bit_count()

    def __contains__(self, item):
        return bool((self.mask >> self.owner.index(item)) & 1)

    def __eq__(self, other):
        if not isinstance(other, Subset):
            return NotImplemented
        return self.owner is other.owner and self.mask == other.mask

    def __hash__(self):
        return hash((id(self.owner), self.mask))

    def _check_owner(self, other):
        if self.owner is not other.owner:
            raise UsageError("subsets belong to different posets")

    def __and__(self, other):
        self._check_owner(other)
        return Subset(self.owner, self.mask & other.mask)

    def __or__(self, other):
        self._check_owner(other)
        return Subset(self.owner, self.mask | other.mask)

    def __sub__(self, other):
        self._check_owner(other)
        return Subset(self.owner, self.mask & ~other.mask)

    def issubset(self, other):
        self._check_owner(other)
        return not (self.mask & ~other.mask)

    # -- rendering ----------------------------------------------------
    @property
    def indices(self):
        return tuple(_bits(self.mask))

    @property
    def labels(self):
        lab = self.owner.labels
        return tuple(lab[i] for i in _bits(self.mask))

    def render(self):
        return "{" + ", ".join(self.labels) + "}"

    def __repr__(self):
        return f"Subset({self.render()})"


class Poset:
    """A finite partially ordered set with named elements."""

    __slots__ = ("labels", "n", "_up", "_down", "_index", "_full", "_memo")

    def __init__(self, labels, up_masks, *, _validated=False):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise UsageError("duplicate element names")
        n = len(labels)
        up = tuple(up_masks)
        if len(up) != n:
            raise UsageError("relation size does not match element count")
        full = (1 << n) - 1
        if not _validated:
            _validate_order(up, n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_down", tuple(_transpose(up)))
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(labels)})
        object.__setattr__(self, "_full", full)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("Poset is immutable")

    # -- construction --------------------------------------------------
    @classmethod
    def from_covers(cls, labels, covers):
        """Build a poset from cover pairs; the reflexive-transitive closure
        is computed and antisymmetry validated afterwards."""
        labels = tuple(labels)
        n = len(labels)
        up = [1 << x for x in range(n)]
        for a, b in _resolve_pairs(labels, covers, "cover"):
            up[a] |= 1 << b
        for k in range(n):
            bit = 1 << k
            for i in range(n):
                if up[i] & bit:
                    up[i] |= up[k]
        return cls(labels, up)

    @classmethod
    def from_relation(cls, labels, leq_pairs):
        """Build a poset from an explicit <= relation given as index or
        name pairs; reflexivity is added, the other axioms are validated."""
        labels = tuple(labels)
        up = [1 << x for x in range(len(labels))]
        for a, b in _resolve_pairs(labels, leq_pairs, "pair"):
            up[a] |= 1 << b
        return cls(labels, up)

    # -- basic queries ---------------------------------------------------
    def index(self, item):
        if isinstance(item, str):
            try:
                return self._index[item]
            except KeyError:
                raise UsageError(f"unknown element name {item!r}") from None
        if not isinstance(item, int) or not (0 <= item < self.n):
            raise UsageError(f"element index {item!r} out of range")
        return item

    def label(self, x):
        return self.labels[x]

    def leq(self, x, y):
        return bool((self._up[self.index(x)] >> self.index(y)) & 1)

    def incomparable(self, x, y):
        x, y = self.index(x), self.index(y)
        return not ((self._up[x] >> y) & 1 or (self._up[y] >> x) & 1)

    def __eq__(self, other):
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self._up == other._up

    def __hash__(self):
        return hash((self.labels, self._up))

    def __repr__(self):
        return f"Poset({self.n} elements: {', '.join(self.labels)})"

    # -- subsets ---------------------------------------------------------
    def _mask_of(self, items):
        if isinstance(items, Subset):
            if items.owner is not self:
                raise UsageError("subset belongs to a different poset")
            return items.mask
        if isinstance(items, (str, int)):
            return 1 << self.index(items)
        mask = 0
        for item in items:
            mask |= 1 << self.index(item)
        return mask

    def subset(self, items=()):
        return Subset(self, self._mask_of(items))

    @property
    def empty(self):
        return Subset(self, 0)

    @property
    def full(self):
        return Subset(self, self._full)

    # -- cone calculus -----------------------------------------------------
    def _lower(self, mask):
        res = self._full
        down = self._down
        while mask and res:
            low = mask & -mask
            res &= down[low.bit_length() - 1]
            mask ^= low
        return res if mask == 0 else 0

    def _upper(self, mask):
        res = self._full
        up = self._up
        while mask and res:
            low = mask & -mask
            res &= up[low.bit_length() - 1]
            mask ^= low
        return res if mask == 0 else 0

    def lower_cone(self, items):
        """L(A): common lower bounds of A.  L({}) is the full carrier."""
        return Subset(self, self._lower(self._mask_of(items)))

    def upper_cone(self, items):
        """U(A): common upper bounds of A.  U({}) is the full carrier."""
        return Subset(self, self._upper(self._mask_of(items)))

    def _leq_set(self, amask, bmask):
        up = self._up
        while amask:
            low = amask & -amask
            if bmask & ~up[low.bit_length() - 1]:
                return False
            amask ^= low
        return True

    def leq_set(self, a, b):
        """Set order: every element of ``a`` below every element of ``b``
        (vacuously true when either side is empty)."""
        return self._leq_set(self._mask_of(a), self._mask_of(b))

    # -- structure predicates ----------------------------------------------
    def is_downward_directed(self):
        """Every pair of elements has a common lower bound.  A finite
        nonempty poset has this property exactly when it has a least
        element.  A bottom bounds every pair.  Conversely, if z lies below
        x1..xk, a common lower bound of z and x(k+1) lies below all k + 1
        elements; by induction some element lies below the whole carrier,
        and it is the bottom.  The empty poset is vacuously directed."""
        return self.n == 0 or self._full in self._up

    @_memoised
    def bounds(self):
        """Return (bottom, top) element indices, each ``None`` if absent."""
        full = self._full
        return (next((x for x, up in enumerate(self._up) if up == full), None),
                next((x for x, down in enumerate(self._down) if down == full), None))

    def covers(self):
        """Cover pairs (x, y) with x covered by y, in index order."""
        out = []
        for x in range(self.n):
            strict = self._up[x] & ~(1 << x)
            above = 0
            for z in _bits(strict):
                above |= self._up[z] & ~(1 << z)
            for y in _bits(strict & ~above):
                out.append((x, y))
        return out

    def _minimal_of(self, mask):
        res = []
        for x in _bits(mask):
            if not (self._down[x] & ~(1 << x) & mask):
                res.append(x)
        return res

    def _maximal_of(self, mask):
        res = []
        for x in _bits(mask):
            if not (self._up[x] & ~(1 << x) & mask):
                res.append(x)
        return res

    def _least_of(self, mask):
        for x in _bits(mask):
            if not (mask & ~self._up[x]):
                return x
        return None

    def _greatest_of(self, mask):
        for x in _bits(mask):
            if not (mask & ~self._down[x]):
                return x
        return None

    def join(self, x, y):
        """Least upper bound index, or ``None`` if it does not exist."""
        return self._least_of(self._up[self.index(x)] & self._up[self.index(y)])

    def meet(self, x, y):
        return self._greatest_of(self._down[self.index(x)] & self._down[self.index(y)])

    @_memoised
    def is_lattice(self):
        """Every pair has a least upper and greatest lower bound; the
        witness is the first failing pair in index order, its upper
        bounds tested before its lower ones.

        U(x,y) has a least element l exactly when U(x,y) = U(l): l in
        U(x,y) puts U(l) inside U(x,y), and l below every element of
        U(x,y) puts U(x,y) inside U(l).  Dually L(x,y) has a greatest
        element exactly when it is some L(g).  So each pair is two
        membership tests in the sets of principal cones."""
        up, down = self._up, self._down
        ups, downs = set(up), set(down)
        lab = self.labels
        for x in range(self.n):
            for y in range(x + 1, self.n):
                um = up[x] & up[y]
                if um not in ups:
                    if um:
                        cands = "{" + ", ".join(lab[m] for m in self._minimal_of(um)) + "}"
                        detail = (f"{{{lab[x]}, {lab[y]}}} has no least upper bound "
                                  f"(minimal upper bounds: {cands})")
                    else:
                        detail = f"{{{lab[x]}, {lab[y]}}} has no common upper bound"
                    return Verdict(False, (x, y), detail)
                lm = down[x] & down[y]
                if lm not in downs:
                    if lm:
                        cands = "{" + ", ".join(lab[m] for m in self._maximal_of(lm)) + "}"
                        detail = (f"{{{lab[x]}, {lab[y]}}} has no greatest lower bound "
                                  f"(maximal lower bounds: {cands})")
                    else:
                        detail = f"{{{lab[x]}, {lab[y]}}} has no common lower bound"
                    return Verdict(False, (x, y), detail)
        return Verdict(True)

    def is_distributive(self, form="LU"):
        """Check the selected distributivity identity on all element
        triples; the witness is the first failing triple in index order.

        With ``L(A, z)`` for ``L(A | {z})`` the four forms are

        - LU:  L(U(x,y), z)    = L(U(L(x,z), L(y,z)))
        - ULU: U(L(U(x,y), z)) = U(L(x,z), L(y,z))
        - UL:  U(L(x,y), z)    = U(L(U(x,z), U(y,z)))
        - LUL: L(U(L(x,y), z)) = L(U(x,z), U(y,z))

        Take (inner, outer) = (U, L) for LU and ULU, (L, U) for UL and
        LUL.  Since L(A | B) = L(A) & L(B) and U(A | B) = U(A) & U(B),
        every side is built from two tables, ``pair[x][y] =
        outer(inner(x,y))`` and ``back[x][z] = inner(outer(x,z))``, and
        ``cone[z] = outer(z)``:

        - LU, UL:   lhs = pair[x][y] & cone[z],
                    rhs = outer(back[x][z] & back[y][z])
        - ULU, LUL: lhs = inner(pair[x][y] & cone[z]),
                    rhs = back[x][z] & back[y][z]

        Both sides are symmetric in x and y, so (x, y, z) fails exactly
        when (y, x, z) does.  A failing triple with x > y thus has a
        failing twin (y, x, z) earlier in index order, and the first
        failing triple has x <= y.  Nor does it have x = y: pair[x][x]
        is cone[x] (x is the least element of U(x), dually) and
        outer(inner(outer(A))) = outer(A), so both sides of (x, x, z)
        are outer(x,z) for LU and UL, and back[x][z] for ULU and LUL.
        Nor are x and y comparable.  Say inner(y) is inside inner(x), so
        outer(x) is inside outer(y).  Then pair[x][y] = outer(inner(y)) =
        cone[y], and back[x][z] contains back[y][z], so the sides of
        (x, y, z) are those of (y, y, z).  Scanning the y > x
        incomparable to x therefore finds the first failing triple.  For
        each such pair the sides are compared as rows over z.
        """
        if form not in DISTRIBUTIVITY_FORMS:
            raise UsageError(f"unknown distributivity form {form!r}; "
                             f"expected one of {DISTRIBUTIVITY_FORMS}")
        return self._distributivity_verdict(form)

    def distributivity_all_forms(self):
        """Evaluate all four distributivity identities.  LU and ULU read
        the same tables and closures, and so do UL and LUL; the closures
        are functions of a mask alone, so sharing their memos is exact
        and each verdict equals ``is_distributive(form)``."""
        self._distributivity(DISTRIBUTIVITY_FORMS)
        return {form: self._distributivity_verdict(form)
                for form in DISTRIBUTIVITY_FORMS}

    @_memoised
    def _distributivity_verdict(self, form):
        """The :class:`Verdict` of ``form``.  Its detail is rendered from
        the failing masks the scan kept, on the first request for it."""
        failure = self._distributivity((form,))[form]
        if failure is None:
            return Verdict(True)
        x, y, z, lhs, rhs = failure
        lab = self.labels
        detail = (f"form {form} fails at ({lab[x]}, {lab[y]}, {lab[z]}): "
                  f"lhs = {Subset(self, lhs).render()}, "
                  f"rhs = {Subset(self, rhs).render()}")
        return Verdict(False, (x, y, z), detail)

    def _distributivity(self, forms):
        """The kernel of :meth:`is_distributive`: for each of ``forms``,
        ``None`` where it holds, else its first failing triple with the
        two sides at z as ``(x, y, z, lhs, rhs)`` masks, each scanned at
        most once and kept in ``_memo`` under ``("_distributivity", form)``
        (:func:`_memoised` says why that is exact).

        Each dual (LU and ULU, UL and LUL) shares one set of tables, and
        nothing is closed before the scan asks for it: ``back[x]`` when
        the scan first reaches a pair holding x, ``pair[x][y]`` when it
        reaches (x, y), and each closure once per distinct mask.  A
        table entry is a function of the order alone, so when it is
        built cannot change its value, and the scan order is that of
        :meth:`is_distributive`; the first failure is the same."""
        memo = self._memo
        duals = ((("LU", "ULU"), self._upper, self._lower, self._up, self._down),
                 (("UL", "LUL"), self._lower, self._upper, self._down, self._up))
        for dual, inner, outer, inner_cone, cone in duals:
            wanted = [form for form in dual
                      if form in forms and ("_distributivity", form) not in memo]
            if not wanted:
                continue
            close_inner, close_outer = _Memo(inner), _Memo(outer)
            back = _rows(cone, close_inner)
            for form in wanted:
                memo["_distributivity", form] = self._distributivity_scan(
                    form, inner_cone, cone, back, close_inner, close_outer)
        return {form: memo["_distributivity", form] for form in forms}

    def _distributivity_scan(self, form, inner_cone, cone, back, close_inner,
                             close_outer):
        n = self.n
        closes_lhs = form in ("ULU", "LUL")
        up, down = self._up, self._down
        for x in range(n):
            ys = self._full >> (x + 1) << (x + 1) & ~(up[x] | down[x])
            if not ys:
                continue
            back_x, inner_x = back[x], inner_cone[x]
            for y in _bits(ys):
                pxy = close_outer[inner_x & inner_cone[y]]
                lhs = [pxy & c for c in cone]
                rhs = list(map(and_, back_x, back[y]))
                if closes_lhs:
                    lhs = list(map(close_inner.__getitem__, lhs))
                else:
                    rhs = list(map(close_outer.__getitem__, rhs))
                if lhs != rhs:
                    z = next(z for z in range(n) if lhs[z] != rhs[z])
                    return x, y, z, lhs[z], rhs[z]
        return None


def _resolve_pairs(labels, pairs, kind):
    """Yield the index pairs of element pairs given by name or index.  An
    unknown name or an index outside ``0..n-1`` is a usage error naming
    the offending ``kind`` of pair."""
    index = {name: i for i, name in enumerate(labels)}
    n = len(labels)
    for lo, hi in pairs:
        try:
            a = index[lo] if isinstance(lo, str) else lo
            b = index[hi] if isinstance(hi, str) else hi
        except KeyError as missing:
            raise UsageError(f"unknown element name {missing.args[0]!r} "
                             f"in {kind} ({lo}, {hi})") from None
        if not (isinstance(a, int) and isinstance(b, int)
                and 0 <= a < n and 0 <= b < n):
            raise UsageError(f"{kind} ({lo}, {hi}) out of range")
        yield a, b


class _Memo(dict):
    """``memo[key]`` is ``fn(key)``, computed on the first lookup of key."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _rows(cone, close):
    """``rows[x][z] = close[cone[x] & cone[z]]``, each row built on its
    first lookup."""
    return _Memo(lambda x: list(map(close.__getitem__, [cone[x] & c for c in cone])))


def _validate_order(up, n):
    full = (1 << n) - 1
    for x in range(n):
        if up[x] & ~full:
            raise UsageError("relation mask out of range")
        if not (up[x] >> x) & 1:
            raise UsageError(f"relation is not reflexive at index {x}")
    for x in range(n):
        m = up[x] & ~(1 << x)
        for y in _bits(m):
            if (up[y] >> x) & 1:
                raise UsageError(f"relation is not antisymmetric on ({x}, {y})")
            if up[y] & ~up[x]:
                raise UsageError(f"relation is not transitive at ({x}, {y})")


def _least_labelling(downs, inv=None, pin=None, _stop_below=False):
    """The least key of the order whose strict down-masks are ``downs``
    (bit j of ``downs[i]`` set when j is below i), with an optional map
    tuple ``inv`` and ``pin`` index, and a labelling (the elements by
    position, a linear extension) that reaches it.

    A labelling's key is the strict down-mask sequence it gives (bit k of
    entry i set when the element at position k is below the one at i),
    then the position of each position's image under ``inv``, then the
    pin's position (``None`` for a part not given).  Isomorphisms
    preserve keys, so two structures are isomorphic exactly when their
    least keys are equal, and one labelling composed with the inverse of
    the other is then an isomorphism.  The least sequence alone is the
    canonical form of ``enumerate_posets``.

    Each position takes the least mask a placeable element gives, as any
    other makes the sequence larger there; ties branch, and a branch whose
    sequence rises above the best key's is dropped.  With ``_stop_below``
    (the canonicity test of ``_representatives``: no map, no pin) the best
    key starts as ``downs`` itself, which must be naturally labelled, and
    the search returns ``None`` at the first branch that falls below it.

    A tie w is skipped when a tie v already tried has its class: v and w
    are twins (equal strict up- and down-sets); with a map, so are their
    mates v' and w', which are fixed exactly when v is and are not
    placed; and none of the four is the pin, lies outside the map's
    2-cycles and fixed points or is hit twice (no element of an
    involution is).  Then swapping v with w and v' with w' (one swap if
    v' is w or v is fixed) preserves the order and commutes with the map:
    an automorphism of order, map and pin that fixes every placed
    element.  It sends each labelling in w's branch to one in v's with
    the same key, so skipping w cannot change the least key."""
    n = len(downs)
    ups = _transpose(downs)
    # besides the placed elements, those the swap behind a skipped tie may not move
    frozen = sum(1 << x for x in range(n) if x == pin or inv is not None
                 and (inv[inv[x]] != x or inv.count(x) != 1))
    position = [0] * n      # bit of the position each placed element holds
    seq, labelling = [0] * n, [0] * n
    best_seq, best_rest, best_labelling = (
        (downs, (None, None), tuple(range(n))) if _stop_below else (None, None, None))

    def descend(k, placed, below):
        # ``below``: the sequence so far is below the best key's (or
        # there is none yet).  True ends the search under _stop_below.
        nonlocal best_seq, best_rest, best_labelling
        if k == n:
            if not _stop_below:     # else the key reached is ``downs``'s own
                rest = (None if inv is None else
                        tuple(position[inv[v]].bit_length() - 1 for v in labelling),
                        None if pin is None else position[pin].bit_length() - 1)
                if below or rest < best_rest:
                    best_seq, best_rest = tuple(seq), rest
                    best_labelling = tuple(labelling)
            return False
        least, ties, unplaced = 1 << n, [], ~placed
        for v in range(n):
            if (placed >> v) & 1 or downs[v] & unplaced:
                continue
            mask, d = 0, downs[v]
            while d:
                low = d & -d
                mask |= position[low.bit_length() - 1]
                d ^= low
            if mask < least:
                least, ties = mask, [v]
            elif mask == least:
                ties.append(v)
        if not below and least != best_seq[k]:
            if least > best_seq[k]:
                return False
            if _stop_below:
                return True
            below = True
        seq[k] = least
        tried = set()
        for v in ties:
            if len(ties) > 1:
                m = v if inv is None else inv[v]
                tie_class = (v if ((placed | frozen) >> m | frozen >> v) & 1
                             else (downs[v], ups[v], downs[m], ups[m], m == v))
                if tie_class in tried:
                    continue
                tried.add(tie_class)
            position[v] = 1 << k
            labelling[k] = v
            if descend(k + 1, placed | 1 << v, below):
                return True
            below = False
        return False

    if descend(0, 0, not _stop_below):
        return None
    return (tuple(best_seq),) + best_rest, best_labelling


def _canonical(p, inv=None, pin=None):
    """:func:`_least_labelling` of p's order."""
    return _least_labelling([d & ~(1 << i) for i, d in enumerate(p._down)], inv, pin)


def find_isomorphism(p, q, p_inv=None, q_inv=None):
    """Return a mapping tuple f with f[x] in q for x in p preserving the
    order both ways (and commuting with the maps when given), or
    ``None`` when no isomorphism exists: q's least labelling composed
    with the inverse of p's (:func:`_least_labelling`)."""
    if not (isinstance(p, Poset) and isinstance(q, Poset)):
        raise UsageError("find_isomorphism compares Posets; for an "
                         "InvolutivePoset pass its .base and its .inv as the map")
    if (p_inv is None) != (q_inv is None):
        raise UsageError("either both involutions or neither must be given")
    if p_inv is not None:       # its constructor's length, integer and range checks
        from .involution import InvolutivePoset     # here: it imports this module
        p_inv, q_inv = InvolutivePoset(p, p_inv).inv, InvolutivePoset(q, q_inv).inv
    (p_key, p_labelling), (q_key, q_labelling) = (_canonical(p, p_inv),
                                                  _canonical(q, q_inv))
    if p_key != q_key:
        return None
    return tuple(y for _, y in sorted(zip(p_labelling, q_labelling)))
