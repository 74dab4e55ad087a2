"""Commutative meet-directoids assigned to downward directed posets.

An *assignment* turns a downward directed poset P into a groupoid
``(P, ⊓)``: comparable pairs meet at their minimum, and every
incomparable pair {x, y} gets one chosen element of L(x, y).  The induced
order ``x <= y  iff  x ⊓ y = x`` recovers P exactly.  When P carries a
unary map, the dual operation is ``x ⊔ y = (x' ⊓ y')'``.

The identity / implication checkers evaluate the following conditions on
the operation tables only (never on the source poset), so they can serve
as one side of the equivalence audits:

  (1)  x'' = x
  (2)  (x ⊓ y)' ⊓ y' = y'
  (3)  (z ⊓ x) ⊓ (z ⊓ x')  <=  (w ⊔ y) ⊔ (w ⊔ y')
  (4)  [forall t: w ⊓ ((t⊔x)⊔(t⊔y)) = w], w ⊓ z = w,
       [forall t: s ⊔ ((t⊓x)⊓(t⊓z)) = s] and
       [forall t: s ⊔ ((t⊓y)⊓(t⊓z)) = s]   imply   w <= s
  (5)  x != x ⊓ y != y and x ⊓ z = x' ⊓ z = z
       imply y ⊓ z = y' ⊓ z = z
  (6)  the same implication restricted to x, y outside the bounds

where ``<=`` always means the induced order (read off the table).
Every checker reads it from one memoised order view of the meet table
(:func:`_order_masks`): the bitmasks of which entries equal their row or
column index, and of each column's values, built in one pass.  The map
audits and the CLI read one poset's assignment space as one walk
(:class:`_IdentityWalk`), which holds its count, its capped tables and
whether its cells lie in their cones (:func:`_cells_in_cones`), and
decide (1)–(6) through it: on its first table for all of them where the
cells lie in their cones, and on each table alone otherwise.
Witnesses are deterministic: the checkers scan in a fixed order and
report the first violation they encounter.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

from .errors import DomainError, UsageError
from .involution import InvolutivePoset, _constrained_involutions, _image
from .poset import (_HOLDS, Poset, Verdict, _bits, _failing, _join_rows, _meet_rows,
                    _memoised, _render, _transpose)


def default_chooser(x, y, candidates):
    """Pick the candidate with the lowest canonical index."""
    return candidates[0]


def _split_source(source):
    if isinstance(source, InvolutivePoset):
        return source.base, source.inv
    if isinstance(source, Poset):
        return source, None
    raise UsageError("source must be a Poset or InvolutivePoset")


def _order_masks(table):
    """The order view of a table in one pass, as ``(above, below, lower,
    cols)``: ``above[x] = {y | x∘y = x}``, ``below[y] = {x | x∘y = x}``,
    ``lower[x] = {y | x∘y = y}`` and ``cols[y] = {x∘y | x}``, the value
    mask of column y, each a bitmask."""
    n = len(table)
    below, cols = [0] * n, [0] * n
    above, lower = [], []
    for x, row in enumerate(table):
        bx = 1 << x
        a = low = 0
        for y, v in enumerate(row):
            cols[y] |= 1 << v
            if v == x:
                a |= 1 << y
                below[y] |= bx
            elif v == y:
                low |= 1 << y
        above.append(a)
        lower.append(low | (a & bx))    # the elif skips y == x: x∘x = x counts here
    return above, below, lower, cols


def _signature(table):
    """The ``(cols, lower)`` of a table's order view, which (2) reads."""
    _, _, lower, cols = table._order()
    return tuple(cols), tuple(lower)


def _identity_2(signature, inv):
    """Identity (2) (x ⊓ y)' ⊓ y' = y' under the map ``inv`` on any table
    whose order view has the signature ``(cols, lower)``.  For a fixed y,
    m = x ⊓ y runs over exactly ``cols[y]`` as x runs over the carrier,
    and a ⊓ b = b iff b is in ``lower[a]``, so (2) holds iff y' is in
    ``lower[m']`` for every y and every m in ``cols[y]``; neither
    commutativity nor x'' = x enters."""
    cols, lower = signature
    for y, col in enumerate(cols):
        iy = inv[y]
        while col:
            low = col & -col
            if not lower[inv[low.bit_length() - 1]] >> iy & 1:
                return False
            col ^= low
    return True


def _identity_2_maps(signature):
    """Every involution u of ``range(n)`` under which (2) holds on any
    table whose order view has the signature ``(cols, lower)``, in
    lexicographic order: by :func:`_identity_2`, those with u[y] in
    ``lower[u[m]]`` for every y and every m in ``cols[y]``, which
    ``_constrained_involutions`` finds from the two masks and their
    transposes."""
    cols, lower = signature
    return _constrained_involutions(cols, _transpose(cols), lower, _transpose(lower))


def _lmask(meet, inv):
    """(3)'s left side per x: ``lmask[x] = {(z ⊓ x) ⊓ (z ⊓ x') | z}``."""
    lmask = [0] * len(meet)
    for x, ix in enumerate(inv):
        for mz in meet:
            lmask[x] |= 1 << meet[mz[x]][mz[ix]]
    return lmask


def _identity_3_failures(lmask, above, inv):
    """The (x, y) at which (3) fails, in scan order, read off
    :func:`_lmask`, the induced order ``above`` and the map alone."""
    rng = range(len(inv))
    # By (1), (w ⊔ y) ⊔ (w ⊔ y') = ((w' ⊓ y') ⊓ (w' ⊓ y))', so
    # rmask[y] = {(w ⊔ y) ⊔ (w ⊔ y') | w} is the image of lmask[y'].
    rmask = [_image(inv, lmask[inv[y]]) for y in rng]
    memo = {}
    for x in rng:
        common = _common(above, lmask[x], memo)    # above every lhs value
        for y in rng:
            if rmask[y] & ~common:
                yield x, y


def _common(masks, sel, memo):
    """The intersection of ``masks[i]`` over the bits i of ``sel``
    (:func:`poset._meet_rows`), memoised by ``sel``."""
    acc = memo.get(sel)
    if acc is None:
        acc = memo[sel] = _meet_rows(masks, -1, sel)
    return acc


def _join(meet, inv):
    """The join table x ⊔ y = (x' ⊓ y')' of ``meet`` under the involution
    ``inv``."""
    rng = range(len(meet))
    return tuple(tuple(inv[meet[inv[x]][inv[y]]] for y in rng) for x in rng)


# -- the witnesses and details of failing checks, computed on first read
# (poset._failing) from the tables, maps and labels alone

def _not_idempotent(lab, meet, x):
    return ("idempotency", x), f"{lab[x]} meet {lab[x]} = {lab[meet[x][x]]}"


def _not_commutative(lab, meet):
    """The first (x, y) with x ⊓ y != y ⊓ x, in row order."""
    rng = range(len(meet))
    x, y = next((x, y) for x in rng for y in rng if meet[x][y] != meet[y][x])
    return ("commutativity", x, y), (f"{lab[x]} meet {lab[y]} = {lab[meet[x][y]]} but "
                                     f"{lab[y]} meet {lab[x]} = {lab[meet[y][x]]}")


def _not_weakly_associative(lab, meet):
    """The first (x, y, z) with (x ⊓ (y ⊓ z)) ⊓ z != x ⊓ (y ⊓ z)."""
    rng = range(len(meet))
    for x in rng:
        row_x = meet[x]
        for y in rng:
            row_y = meet[y]
            for z in rng:
                m = row_x[row_y[z]]
                if meet[m][z] != m:
                    return ("weak associativity", x, y, z), (
                        f"(({lab[x]} meet ({lab[y]} meet {lab[z]})) meet {lab[z]}) "
                        f"= {lab[meet[m][z]]} != {lab[m]}")


def _identity_3_failure(lab, meet, inv, x, y):
    """(3) at (x, y), the first pair :func:`_identity_3_failures` yields:
    its first failing (z, w), which exists since that pair fails."""
    join = _join(meet, inv)
    rng = range(len(meet))
    for z, w in itertools.product(rng, rng):
        lhs = meet[meet[z][x]][meet[z][inv[x]]]
        rhs = join[join[w][y]][join[w][inv[y]]]
        if meet[lhs][rhs] != lhs:
            return (x, y, z, w), (f"(3) fails at (x,y,z,w) = ({lab[x]}, {lab[y]}, "
                                  f"{lab[z]}, {lab[w]}): {lab[lhs]} !<= {lab[rhs]}")


def _implication_4_failure(lab, above, x, y, z, ws, ss):
    """(4) at the failing (x, y, z): the first w of ``ws``, the w of
    (x, y) below z, that some s of ``ss``, the s of both (x, z) and
    (y, z), is not above, and the first such s."""
    w = next(w for w in _bits(ws) if ss & ~above[w])
    bad = ss & ~above[w]
    s = (bad & -bad).bit_length() - 1
    return (w, s, x, y, z), (f"(4) fails at (w,s,x,y,z) = ({lab[w]}, {lab[s]}, "
                             f"{lab[x]}, {lab[y]}, {lab[z]}): premises hold "
                             f"but {lab[w]} !<= {lab[s]}")


def _shared_lower_failure(name, lab, x, y, bad):
    """(5) or (6) at (x, y), with z the least of the elements ``bad``."""
    z = (bad & -bad).bit_length() - 1
    return (x, y, z), (f"{name} fails at (x,y,z) = ({lab[x]}, {lab[y]}, {lab[z]}): "
                       f"z <= x and z <= x' but not (z <= y and z <= y')")


def _base_table(p):
    """Comparable part of the meet table plus the incomparable pairs with
    their candidate meets (in canonical order)."""
    n = p.n
    up = p._up
    down = p._down
    table = [[-1] * n for _ in range(n)]
    pairs = []
    for x, row in enumerate(table):
        row[x] = x
        ux, dx = up[x], down[x]
        for y in range(x + 1, n):
            if ux >> y & 1:
                row[y] = table[y][x] = x
            elif dx >> y & 1:
                row[y] = table[y][x] = y
            else:
                cands = tuple(_bits(dx & down[y]))
                if not cands:
                    raise DomainError(
                        f"poset is not downward directed: "
                        f"{p.labels[x]} and {p.labels[y]} have no common lower bound")
                pairs.append(((x, y), cands))
    return table, pairs


def _cells_in_cones(p, table, pairs):
    """Whether every cell of the tables :func:`_assignments` fills into the
    base ``table`` from ``pairs`` lies in its cone of ``p``: the diagonal
    holds x, a comparable cell the minimum, ``pairs`` lists each
    incomparable pair once and no other, and each candidate lies in
    L(x) ∩ L(y).  It reads every comparable cell and every candidate and
    builds no table; the generator writes only the cells of ``pairs``, so
    the verdict is the same before and after tables are pulled.

    Where it holds, every assigned table, whatever the choices, is a
    commutative meet-directoid that induces ``p``:
      - It is idempotent, and commutative: a comparable cell holds the
        minimum on both sides, and each pick is written at (x, y) and
        (y, x).
      - A common lower bound of incomparable x and y is neither, so
        x ⊓ y = x iff x <= y: ``above[x]`` is the up-set U(x) (the table
        induces ``p``), and ``below[y]`` and ``lower[y]`` are L(y).
      - z ⊓ y is z for z <= y, y for z >= y and in L(y) otherwise, so
        ``cols[y]`` is L(y).
      - It is weakly associative: v = y ⊓ z <= z and m = x ⊓ v <= v, so
        m <= z, and m ⊓ z = m is a comparable cell or the diagonal.
    So Directoid-roundtrip holds on it.  Under an antitone involution '
    of ``p``, which maps L(x') onto U(x), every condition of
    :func:`check_derived_set_laws` holds as well, with x ⊔ y = (x' ⊓ y')':
      - L(x) = ``cols[x]``, and U(x) is the image of L(x').
      - L(x, y) is the premise table, ``below[x] & below[y]`` on a table
        passing the axioms (:meth:`MeetDirectoid._premise_table`), and
        U(x, y) the image of L(x', y').
      - On x <= y the meet is x, and y' <= x' makes the join (y')' = y.
      - An incomparable pair's meet lies in L(x, y); x' and y' are
        incomparable too, so its join is the image of a cell in
        L(x', y'), and lies in U(x, y).
      - Duality, x ⊓ y = x iff x ⊔ y = y: both hold on x <= y, neither on
        y < x, and on an incomparable pair the meet is not x and the
        join, the image of a cell that is not y', is not y.
    Its one reader is :class:`_IdentityWalk`, as ``shared``: the audits
    decide both claims from it and walk the tables only where it fails,
    which only an edited base table produces, or, for the derived set
    laws, where the map is no antitone involution; the walk decides
    (1)–(6) on the first table for all of them where it holds, and the
    CLI ``directoid`` reads the axioms and the induced order off it.  A
    replayed witness carries one table, which is evaluated as given."""
    up, down = p._up, p._down
    n = p.n
    listed = [0] * n    # listed[x]: the y of the pairs (x, y)
    for (x, y), cands in pairs:
        if not 0 <= x < y < n or (listed[x] | up[x] | down[x]) >> y & 1:
            return False
        common = down[x] & down[y]
        for c in cands:
            if not common >> c & 1:
                return False
        listed[x] |= 1 << y
    if len(table) != n:
        return False
    full = (1 << n) - 1
    for x, row in enumerate(table):
        ux, dx = up[x], down[x]
        after = full & ~((2 << x) - 1)    # the y > x
        if row[x] != x or listed[x] != after & ~(ux | dx):
            return False
        for y in _bits(ux & after):
            if row[y] != x or table[y][x] != x:
                return False
        for y in _bits(dx & after):
            if row[y] != y or table[y][x] != y:
                return False
    return True


@functools.cache
def _carrier(n):
    return frozenset(range(n))


def _all_ints(values):
    return all(map(isinstance, values, itertools.repeat(int)))


class MeetDirectoid:
    """A groupoid table, optionally with a unary map, on named elements."""

    __slots__ = ("n", "labels", "meet", "inv", "_memo")

    def __init__(self, meet, inv=None, labels=None):
        meet = tuple(tuple(row) for row in meet)
        n = len(meet)
        carrier = _carrier(n)
        # Types first: a float equal to an index (1.0) passes the set
        # test, and an unhashable entry would raise inside it.
        if not _all_ints(itertools.chain.from_iterable(meet)) or any(
                len(row) != n or not carrier.issuperset(row) for row in meet):
            raise UsageError("meet table is not a total binary operation")
        if labels is None:
            labels = tuple(f"x{i}" for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise UsageError("label count does not match table size")
            if len(set(labels)) != n:
                raise UsageError("duplicate element names")
        if inv is not None:
            inv = tuple(inv)
            if len(inv) != n or not _all_ints(inv) or not carrier.issuperset(inv):
                raise UsageError("unary map is not total on the carrier")
        self._fill(meet, inv, labels)

    def _fill(self, meet, inv, labels):
        object.__setattr__(self, "n", len(meet))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "meet", meet)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "_memo", {})

    @classmethod
    def _unchecked(cls, meet, inv, labels):
        """A table from a tuple of row tuples, a map and labels, checking
        none of them; each caller says why they are valid."""
        d = object.__new__(cls)
        d._fill(meet, inv, labels)
        return d

    def _with_map(self, inv):
        """This table with the unary map ``inv``, sharing its map-free
        :meth:`_order` view and validating nothing again: the table is
        valid since ``self`` is, and ``inv`` must be a tuple that
        ``InvolutivePoset`` has accepted on a poset of this size."""
        d = MeetDirectoid._unchecked(self.meet, inv, self.labels)
        MeetDirectoid._order.seed(d, self._order())
        return d

    def __setattr__(self, name, value):
        raise AttributeError("MeetDirectoid is immutable")

    def _element(self, item):
        """Index of an element given by label or index."""
        if isinstance(item, str):
            try:
                return self.labels.index(item)
            except ValueError:
                raise UsageError(f"unknown element name {item!r}") from None
        if not isinstance(item, int) or not (0 <= item < self.n):
            raise UsageError(f"element index {item!r} out of range")
        return item

    # -- directoid axioms -------------------------------------------------
    @_memoised
    def check_directoid_axioms(self):
        """Idempotency, commutativity and the weak associativity
        (x ⊓ (y ⊓ z)) ⊓ z = x ⊓ (y ⊓ z).

        x ⊓ (y ⊓ z) ranges over the column v = y ⊓ z, so weak
        associativity holds at (y, z) iff that column's value mask
        ``cols[v]`` lies in ``below[z]``.  As y runs over the carrier, v
        runs over exactly ``cols[z]``, so it holds at every (y, z) iff the
        union of ``cols[v]`` over v in ``cols[z]`` lies in ``below[z]``
        for every z.  The (x, y) and (x, y, z) scans run only to find the
        first witness of a failure, once it is read."""
        meet = self.meet
        for x in range(self.n):
            if meet[x][x] != x:
                return _failing(_not_idempotent, self.labels, meet, x)
        if meet != tuple(zip(*meet)):
            return _failing(_not_commutative, self.labels, meet)
        _, below, _, cols = self._order()
        if any(_join_rows(cols, col) & ~below[z] for z, col in enumerate(cols)):
            return _failing(_not_weakly_associative, self.labels, meet)
        return _HOLDS

    @_memoised
    def _order(self):
        """The :func:`_order_masks` of the meet table."""
        return _order_masks(self.meet)

    @_memoised
    def induced_poset(self):
        """The order x <= y iff x ⊓ y = x; domain error when the table
        does not induce a partial order."""
        try:
            return Poset(self.labels, self._order()[0])
        except UsageError as exc:
            raise DomainError(f"induced relation is not a partial order: {exc}") from None

    def _induces(self, p):
        """``induced_poset() == p``, read off the memoised order view without
        building a poset.  A relation that is no partial order differs
        from ``p._up`` and reads False where ``induced_poset`` raises."""
        return self.labels == p.labels and self._order()[0] == list(p._up)

    # -- the dual operation --------------------------------------------------
    def _require_inv(self):
        if self.inv is None:
            raise UsageError("operation requires the unary map")

    @_memoised
    def join_table(self):
        """x ⊔ y = (x' ⊓ y')'; requires an involutive unary map."""
        self._require_inv()
        inv = self.inv
        for x in range(self.n):
            if inv[inv[x]] != x:
                raise UsageError("join requires an involutive unary map (x'' = x)")
        return _join(self.meet, inv)

    # -- identities ---------------------------------------------------------
    @_memoised
    def check_identities_1_2(self):
        """(1) x'' = x and (2) (x ⊓ y)' ⊓ y' = y'."""
        self._require_inv()
        meet, inv, lab = self.meet, self.inv, self.labels
        for x in range(self.n):
            if inv[inv[x]] != x:
                return _failing(lambda: (
                    ("(1)", x), f"(1) fails: {lab[x]}'' = {lab[inv[inv[x]]]}"))
        for x in range(self.n):
            row = meet[x]
            for y in range(self.n):
                iy = inv[y]
                if meet[inv[row[y]]][iy] != iy:
                    return _failing(lambda: (
                        ("(2)", x, y), f"(2) fails at ({lab[x]}, {lab[y]}): "
                                       f"({lab[x]} meet {lab[y]})' meet {lab[y]}' = "
                                       f"{lab[meet[inv[row[y]]][iy]]} != {lab[iy]}"))
        return _HOLDS

    def _require_identities_1_2(self):
        verdict = self.check_identities_1_2()
        if not verdict.ok:
            raise UsageError(f"operation requires identities (1) and (2); {verdict.detail}")

    @_memoised
    def check_identity_3(self):
        """(z ⊓ x) ⊓ (z ⊓ x') <= (w ⊔ y) ⊔ (w ⊔ y') for all
        x, y, z, w; witness is the first failing (x, y, z, w).  The first
        failing (x, y) decides; its (z, w) are scanned once the witness or
        the detail is read (:func:`_identity_3_failure`)."""
        self._require_identities_1_2()
        meet, inv = self.meet, self.inv
        pair = next(_identity_3_failures(_lmask(meet, inv), self._order()[0], inv), None)
        if pair is None:
            return _HOLDS
        return _failing(_identity_3_failure, self.labels, meet, inv, *pair)

    @_memoised
    def check_implication_4(self):
        """The distributivity implication; witness is the first violating
        (w, s, x, y, z) in the checker's scan order.

        One premise table serves both premises.  With ``lset[x][y] =
        {(t ⊓ x) ⊓ (t ⊓ y) | t}`` (:meth:`_premise_table`, which says why
        it is L(x) ∩ L(y) on a table passing the axioms), identity (1)
        gives (t ⊔ x) ⊔ (t ⊔ y) = ((t' ⊓ x') ⊓ (t' ⊓ y'))' and s ⊔ v = s
        iff s' <= v', without commutativity.  So with ``low(m)`` the u
        with u <= v' for every v in m, the w of (x, y) are
        ``low(lset[x'][y'])`` and the s of (x, z) are the images of
        ``low(lset[x][z])``; each distinct mask is reduced once.
        (x, y, z) fails iff some s of both (x, z) and (y, z) is not above
        every w of (x, y) with w <= z; the z of one (x, y) are tested at
        once, on n-bit blocks, one block per z.
        Whenever ``lset`` is symmetric, (x, y, z) fails exactly when
        (y, x, z) does, with the same w and s, so the full scan's first
        failure has x <= y.  On a commutative table ``lset`` is
        symmetric, and both loops skip y < x."""
        self._require_identities_1_2()
        return self._implication_4(*self._premise_table())

    @_memoised
    def _premise_table(self):
        """(4)'s premise table ``lset[x][y] = {(t ⊓ x) ⊓ (t ⊓ y) | t}`` and
        whether the table is commutative (``symmetric``); then so is
        ``lset``, and only y >= x is scanned.

        On a table that passes :meth:`check_directoid_axioms`, ``lset[x][y]``
        is L(x) ∩ L(y) of the induced order, ``below[x] & below[y]``, the
        pair law of commutative meet-directoids (Ježek & Quackenbush 1990):
          - z in L(x) ∩ L(y) is in the set: z ⊓ x = z ⊓ y = z, and z ⊓ z = z
            by idempotency, so the term for t = z is z.
          - Every term is in L(x) ∩ L(y).  Let a = t ⊓ x and b = t ⊓ y.
            Weak associativity at (b, t, x) gives (b ⊓ a) ⊓ x = b ⊓ a, and
            commutativity turns that into a ⊓ b, so the term a ⊓ b is below
            x; weak associativity at (a, t, y) puts it below y.
        Only a table failing the axioms takes the n³ scan of the definition.
        Memoised, so a map-free table's premise table serves every map that
        :class:`_IdentityWalk` reads it under."""
        if self.check_directoid_axioms().ok:
            below = self._order()[1]
            return [[bx & by for by in below] for bx in below], True
        meet = self.meet
        n = self.n
        symmetric = meet == tuple(zip(*meet))
        lset = [[0] * n for _ in range(n)]
        for x in range(n):
            row = lset[x]
            for y in range(x if symmetric else 0, n):
                m = 0
                for mt in meet:
                    m |= 1 << meet[mt[x]][mt[y]]
                row[y] = m
                if symmetric:
                    lset[y][x] = m
        return lset, symmetric

    def _implication_4(self, lset, symmetric):
        """(4)'s verdict from its premise table (:meth:`_premise_table`),
        the induced order and the map alone."""
        inv = self.inv
        n = self.n
        above, below = self._order()[:2]
        rng = range(n)
        low = [below[inv[v]] for v in rng]    # low[v] = {u | u <= v'}
        wred = {}    # wred[m] = low(m), the memo _common fills
        sred = {m: _image(inv, _common(low, m, wred))
                for m in set(itertools.chain.from_iterable(lset))}
        full = (1 << n) - 1
        # block z of packed[x]: the s of (x, z)
        packed = [sum(sred[m] << n * z for z, m in enumerate(row)) for row in lset]
        # block z of spread[w]: the s not above w, when w <= z
        spread = [(full & ~above[w]) * sum(1 << n * z for z in _bits(above[w]))
                  for w in rng]
        outside = {}
        for x in rng:
            lrow = lset[inv[x]]
            px = packed[x]
            for y in range(x if symmetric else 0, n):
                wxy = wred[lrow[inv[y]]]
                out = outside.get(wxy)
                if out is None:
                    # block z: the s not above every w of (x, y) with w <= z
                    out = outside[wxy] = _join_rows(spread, wxy)
                fails = px & packed[y] & out
                if fails:
                    z = ((fails & -fails).bit_length() - 1) // n
                    return _failing(
                        _implication_4_failure, self.labels, above, x, y, z,
                        wxy & below[z], sred[lset[x][z]] & sred[lset[y][z]])
        return _HOLDS

    def _shared_lower_body(self, name, xs, require_incomparable):
        """The first (x, y, z) over x, y in ``xs`` with z <= x, x' but not
        z <= y, y'; z is the least such element.  With
        ``require_incomparable`` it skips the y with x ⊓ y in {x, y},
        that is, y in ``above[x] | lower[x]``: it reads the order view
        and the map only."""
        inv, lab = self.inv, self.labels
        above, _, lower, _ = self._order()
        for x in xs:
            shared = lower[x] & lower[inv[x]]
            skip = above[x] | lower[x] if require_incomparable else 0
            for y in xs:
                if skip >> y & 1:
                    continue
                bad = shared & ~(lower[y] & lower[inv[y]])
                if bad:
                    return _failing(_shared_lower_failure, name, lab, x, y, bad)
        return _HOLDS

    @_memoised
    def check_implication_5(self):
        """x != x ⊓ y != y and x ⊓ z = x' ⊓ z = z imply
        y ⊓ z = y' ⊓ z = z."""
        self._require_inv()
        return self._shared_lower_body("(5)", range(self.n), require_incomparable=True)

    def check_implication_6(self, bottom, top):
        """x, y outside the designated bounds and x ⊓ z = x' ⊓ z = z
        imply y ⊓ z = y' ⊓ z = z.  Unlike (5) there is no
        incomparability premise.  The bounds must really bound the
        induced order."""
        self._require_inv()
        bottom, top = self._element(bottom), self._element(top)
        above, below = self._order()[:2]
        full = (1 << self.n) - 1
        if above[bottom] != full or below[top] != full:
            raise UsageError("designated bounds do not bound the induced order")
        inner = [x for x in range(self.n) if x not in (bottom, top)]
        return self._shared_lower_body("(6)", inner, require_incomparable=False)

    def __repr__(self):
        return f"MeetDirectoid({self.n} elements)"


class _IdentityWalk:
    """One source's assignment space, the one view of it that the
    assigned audits, the map audits and the CLI ``directoid`` read, and
    identities (1)–(6) on its tables, read under one map and its bounds
    at a time (:meth:`under`).  :func:`_capped_assignments` builds it
    from the poset ``p`` and the ``cells`` its tables are filled from,
    one base table and ``pairs``, the incomparable pairs with their
    candidate meets; ``count`` is the product of the candidate lists'
    sizes.  ``shared``, whether the cells lie in their cones, is checked
    on first read, and the capped tables are built on the first read of
    ``deciding`` or :meth:`tables`, so a reader that stops at ``shared``
    builds none.  A walk over a hand-built list (a replay's one table)
    has no cells, no ``pairs``, a ``count`` of 1 and is never ``shared``.

    Each verdict :meth:`verdicts` returns, witness and detail included,
    is the one the public checker returns on ``table._with_map(inv)``.
    The tables are valid by construction in the assignment generator and
    validated by the constructor in ``directoid_from_choices`` (a
    replay), and ``InvolutivePoset`` validated the map; ``_with_map``
    joins the two without checking either again.  Where ``shared``, the
    first table alone decides (``deciding``): every table then is a
    commutative meet-directoid with the order view of ``p``
    (:func:`_cells_in_cones` says why), on which (4)'s premise table
    ``lset[x][y]`` is ``below[x] & below[y]``
    (:meth:`MeetDirectoid._premise_table`), and so is (3)'s
    ``lmask[x] = lset[x][x']`` (:func:`_lmask`).  Each verdict reads only
    those, the map, the bounds and the labels, as each checker's
    docstring says; only the witnesses of a failing (1)/(2) or (3) read
    the meet and join entries, so each table gets its own.  Any other
    tables, an edited base table's or a hand-built list, decide each
    alone, and ``deciding`` keeps them all for the next map."""

    def __init__(self, tables, p=None, cells=None):
        self._rest, self._p, self._cells = iter(tables), p, cells
        self.pairs = () if cells is None else cells[1]
        self.count = math.prod(len(cands) for _, cands in self.pairs)

    @functools.cached_property
    def shared(self):
        return self._cells is not None and _cells_in_cones(self._p, *self._cells)

    @functools.cached_property
    def deciding(self):
        return list(itertools.islice(self._rest, 1 if self.shared else None))

    def tables(self):
        """Every table, in order, for one pass: ``deciding``, then the
        others as they are pulled, kept by no one."""
        return itertools.chain(self.deciding, self._rest)

    def maps_passing(self):
        """The maps under which (1)/(2) hold on some table, in
        lexicographic order: the union of :func:`_identity_2_maps` over
        the deciding tables' signatures, since (1) holds under every
        involution.  Where ``shared``, the one signature's ``cols``
        and ``lower`` are the down-sets of ``p``, and this is the search
        that finds its antitone involutions (``enumeration._map_space``
        says why)."""
        signatures = set(map(_signature, self.deciding))
        return sorted(set().union(*map(_identity_2_maps, signatures)))

    def under(self, inv, bounds):
        """Read the walk under the map ``inv`` with its ``bounds`` (index
        pairs, None where absent), with an empty memo of verdicts."""
        self.inv, self.bounds, self._memo = inv, bounds, {}

    def _verdict(self, condition, table):
        """(1)/(2) as condition 2, or (3), (4), (5) or (6) where (1)/(2)
        hold, decided on the first table where ``shared`` and on
        ``table`` otherwise; a failing (1)/(2) or (3) carries no witness."""
        if self.shared:
            table = self.deciding[0]
        key = condition, table
        verdict = self._memo.get(key)
        if verdict is None:
            inv = self.inv
            if condition == 2:    # (1) x'' = x, then (2)
                verdict = Verdict(all(inv[v] == x for x, v in enumerate(inv))
                                  and _identity_2(_signature(table), inv))
            elif condition == 3:
                failures = _identity_3_failures(_lmask(table.meet, inv), table._order()[0], inv)
                verdict = Verdict(next(failures, None) is None)
            else:
                d = table._with_map(inv)
                verdict = (d._implication_4(*table._premise_table()) if condition == 4
                           else d.check_implication_5() if condition == 5
                           else d.check_implication_6(*self.bounds))
            self._memo[key] = verdict
        return verdict

    def holds(self, table, *conditions):
        """Whether (1)/(2) and each of ``conditions`` (3 to 6) hold on
        ``table``."""
        return all(self._verdict(c, table).ok for c in (2, *conditions))

    def verdicts(self, table):
        """The (1)/(2), (3), (4), (5) and (6) verdicts on ``table``: (3)–(6)
        None where (1)/(2) fail, and (6) where a bound is None.  Only a
        failing (1)/(2) or (3) reads ``table`` itself, for its witness."""
        if not self.holds(table):
            return table._with_map(self.inv).check_identities_1_2(), None, None, None, None
        v3 = self._verdict(3, table)
        return (_HOLDS, v3 if v3.ok else table._with_map(self.inv).check_identity_3(),
                self._verdict(4, table), self._verdict(5, table),
                None if None in self.bounds else self._verdict(6, table))


# -- assignments ------------------------------------------------------------

# The default number of assignments built per poset: by audits, where a
# poset with more is ``sampled``, by the CLI's ``audit --cap``, and by
# :func:`all_assignments`, which refuses a larger space.  1,024 is the
# most tables any directed poset with n <= 7 has (one at n = 7; 64 at
# n <= 6), so a map audit up to n = 7 is exhaustive at the default.
ASSIGNMENT_CAP = 1024


def assignment_count(source):
    """The number of assignments, the product of |L(x) ∩ L(y)| over the
    incomparable pairs (:class:`_IdentityWalk`'s ``count``); a domain
    error where the poset is not downward directed."""
    return _capped_assignments(source, 0).count


def assign_directoid(source, chooser=default_chooser):
    """Assign one meet table; ``chooser(x, y, candidates)`` is consulted
    once per incomparable pair {x, y} (x < y canonically)."""
    p, inv = _split_source(source)
    table, pairs = _base_table(p)
    for (x, y), cands in pairs:
        pick = chooser(x, y, cands)
        if pick not in cands:
            raise UsageError(
                f"chooser picked {pick!r} outside L({p.labels[x]}, {p.labels[y]})")
        table[x][y] = table[y][x] = pick
    return MeetDirectoid(table, inv=inv, labels=p.labels)


def iter_assignments(source):
    """All assignments, lexicographic in the canonical pair/candidate
    order.  No cap: callers slice as needed."""
    p, inv = _split_source(source)
    yield from _assignments(p, inv, *_base_table(p))


def _assignments(p, inv, table, pairs):
    """:func:`iter_assignments` from a built base table, which it fills
    in place; with no incomparable pairs, the one table it holds.  The
    tables are valid by construction, so none is checked: every entry is
    an index of ``p``, a comparable pair's minimum or a candidate of
    ``pairs``, and ``p`` and ``inv`` were validated when built."""
    keys = [pair for pair, _ in pairs]
    for picks in itertools.product(*(cands for _, cands in pairs)):
        for (x, y), pick in zip(keys, picks):
            table[x][y] = table[y][x] = pick
        yield MeetDirectoid._unchecked(tuple(map(tuple, table)), inv, p.labels)


def _capped_assignments(source, cap):
    """The :class:`_IdentityWalk` over the first ``cap`` tables of
    ``iter_assignments(source)``, filled lazily from one base table,
    whose cells it carries.  A cap past ``sys.maxsize`` is no cap."""
    p, inv = _split_source(source)
    table, pairs = _base_table(p)
    tables = itertools.islice(_assignments(p, inv, table, pairs), min(cap, sys.maxsize))
    return _IdentityWalk(tables, p, (table, pairs))


def all_assignments(source, cap=ASSIGNMENT_CAP):
    """Materialize every assignment; domain error when the space exceeds
    the cap (the count is reported in the message)."""
    walk = _capped_assignments(source, cap)
    if walk.count > cap:
        raise DomainError(f"assignment space has {walk.count} tables, over the cap {cap}")
    return list(walk.tables())


def assignment_choices(directoid, source):
    """Recover the choice made for each incomparable pair as a label map
    (used to serialize audit witnesses)."""
    p, _ = _split_source(source)
    pairs = _base_table(p)[1]
    keys = _pair_keys(p.labels, [pair for pair, _ in pairs])
    return _choices(directoid, p.labels, keys, pairs)


def _choices(directoid, labels, keys, pairs):
    """The label chosen at each incomparable pair, under its ``"x,y"`` key
    from :func:`_pair_keys`; every table of one poset shares the keys."""
    meet = directoid.meet
    return {key: labels[meet[x][y]] for key, ((x, y), _) in zip(keys, pairs)}


def _pair_keys(labels, pairs):
    """The ``"x,y"`` key of each pair of indices, in order.  Labels may
    hold commas, so two pairs can render to one key; that is a usage
    error naming both, not a silently dropped entry."""
    seen = {}
    for x, y in pairs:
        key = f"{labels[x]},{labels[y]}"
        a, b = seen.setdefault(key, (x, y))
        if (a, b) != (x, y):
            raise UsageError(
                f"pairs ({labels[a]!r}, {labels[b]!r}) and "
                f"({labels[x]!r}, {labels[y]!r}) both render as {key!r}")
    return list(seen)


def directoid_from_choices(source, choices):
    """Rebuild an assignment from :func:`assignment_choices` output; a
    missing or unknown key is a usage error."""
    p, inv = _split_source(source)
    table, pairs = _base_table(p)
    keys = _pair_keys(p.labels, [pair for pair, _ in pairs])
    for key, ((x, y), cands) in zip(keys, pairs):
        try:
            pick = p.index(choices[key])
        except KeyError:
            raise UsageError(f"missing choice for incomparable pair {key}") from None
        if pick not in cands:
            raise UsageError(f"choice for {key} is not a common lower bound")
        table[x][y] = table[y][x] = pick
    for key in choices:
        if key not in keys:
            raise UsageError(f"choice for {key} names no incomparable pair")
    return MeetDirectoid(table, inv=inv, labels=p.labels)


# -- derived-set laws ---------------------------------------------------------

def check_derived_set_laws(directoid, poset):
    """Cones recovered from the operation tables:

      L(x)    = {z ⊓ x | z}
      U(x)    = {z ⊔ x | z}
      L(x,y)  = {(z ⊓ x) ⊓ (z ⊓ y) | z}
      U(x,y)  = {(t ⊔ x) ⊔ (t ⊔ y) | t}

    plus the duality laws: x ⊓ y = min for comparable pairs and dually
    for ⊔; x ⊓ y = x iff x ⊔ y = y; the meet/join of an
    incomparable pair lands in the corresponding cone.
    """
    meet = directoid.meet
    join = directoid.join_table()
    n = directoid.n
    lab = directoid.labels
    poset, _ = _split_source(poset)
    if poset.n != n:
        raise UsageError("poset and directoid sizes differ")
    down, up = poset._down, poset._up
    # {z ⊓ x | z} is column x's value mask, and {(z ⊓ x) ⊓ (z ⊓ y) | z}
    # (4)'s premise table at (x, y).  By (1), z ⊔ x = (z' ⊓ x')' and
    # (t ⊔ x) ⊔ (t ⊔ y) = ((t' ⊓ x') ⊓ (t' ⊓ y'))', so the join sets are
    # the images of the meet sets at x' and at (x', y').
    inv, cols = directoid.inv, directoid._order()[3]
    for x in range(n):
        if cols[x] != down[x]:
            return _failing(lambda: (("L(x)", x), f"{{z meet {lab[x]}}} != L({lab[x]})"))
        if _image(inv, cols[inv[x]]) != up[x]:
            return _failing(lambda: (("U(x)", x), f"{{z join {lab[x]}}} != U({lab[x]})"))
    # On a table passing the axioms the premise table is L(x) ∩ L(y) of
    # the induced order (MeetDirectoid._premise_table says why).  In a
    # commutative table both pair laws give the same set at (x, y) and
    # (y, x), and the first failing pair in row order has x <= y.
    lset, symmetric = directoid._premise_table()
    for x in range(n):
        for y in range(x if symmetric else 0, n):
            if lset[x][y] != down[x] & down[y]:
                return _failing(lambda: (
                    ("L(x,y)", x, y),
                    f"{{(z meet {lab[x]}) meet (z meet {lab[y]})}} != L({lab[x]},{lab[y]})"))
            if _image(inv, lset[inv[x]][inv[y]]) != up[x] & up[y]:
                return _failing(lambda: (
                    ("U(x,y)", x, y),
                    f"{{(t join {lab[x]}) join (t join {lab[y]})}} != U({lab[x]},{lab[y]})"))
    for x in range(n):
        for y in range(n):
            m, j = meet[x][y], join[x][y]
            lo = x if up[x] >> y & 1 else y if up[y] >> x & 1 else None
            if lo is not None:
                hi = y if lo == x else x
                if m != lo or j != hi:
                    return _failing(lambda: (
                        ("comparable", x, y),
                        f"{lab[lo]} <= {lab[hi]} but meet/join differ from min/max"))
            else:
                if not (down[x] >> m & 1 and down[y] >> m & 1):
                    return _failing(lambda: (
                        ("meet-cone", x, y),
                        f"{lab[x]} meet {lab[y]} outside L({lab[x]},{lab[y]})"))
                if not (up[x] >> j & 1 and up[y] >> j & 1):
                    return _failing(lambda: (
                        ("join-cone", x, y),
                        f"{lab[x]} join {lab[y]} outside U({lab[x]},{lab[y]})"))
            if (m == x) != (j == y):
                return _failing(lambda: (
                    ("duality", x, y),
                    f"x meet y = x iff x join y = y fails at ({lab[x]}, {lab[y]})"))
    return _HOLDS


def check_printed_u_pair_law(directoid, poset):
    """The alternative pair-cone reading U(x,y) = {(z ⊔ x) ⊓
    (z ⊔ y) | z} (inner meet).  Kept separate because the derived-set
    audit tracks which of the two readings actually holds."""
    meet = directoid.meet
    join = directoid.join_table()
    n = directoid.n
    lab = directoid.labels
    poset, _ = _split_source(poset)
    if poset.n != n:
        raise UsageError("poset and directoid sizes differ")
    for x in range(n):
        for y in range(n):
            got = 0
            for z in range(n):
                jz = join[z]
                got |= 1 << meet[jz[x]][jz[y]]
            expect = poset._up[x] & poset._up[y]
            if got != expect:
                return _failing(lambda: (
                    ("U(x,y) printed", x, y),
                    f"{{(z join {lab[x]}) meet (z join {lab[y]})}} = "
                    f"{_render(poset.labels, got)} != "
                    f"{_render(poset.labels, expect)} = U({lab[x]},{lab[y]})"))
    return _HOLDS
