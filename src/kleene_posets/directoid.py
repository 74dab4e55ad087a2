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
Every checker reads it from one cached order view of the meet table
(:func:`_order_masks`): the bitmasks of which entries equal their row or
column index, built in one pass.  Witnesses are deterministic: the
checkers scan in a fixed order and report the first violation they
encounter.
"""

from __future__ import annotations

import functools
import itertools

from .errors import DomainError, UsageError
from .involution import InvolutivePoset
from .poset import Poset, Subset, Verdict, _bits


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
    """The order view of a table in one pass, as ``(above, below, lower)``:
    ``above[x] = {y | x∘y = x}``, ``below[y] = {x | x∘y = x}`` and
    ``lower[x] = {y | x∘y = y}``, each a bitmask."""
    n = len(table)
    above, below, lower = [0] * n, [0] * n, [0] * n
    for x in range(n):
        row = table[x]
        for y in range(n):
            v = row[y]
            if v == x:
                above[x] |= 1 << y
                below[y] |= 1 << x
            if v == y:
                lower[x] |= 1 << y
    return above, below, lower


def _common(masks, sel, memo):
    """The intersection of ``masks[i]`` over the bits i of ``sel``,
    memoised by ``sel``."""
    acc = memo.get(sel)
    if acc is None:
        acc = -1
        for i in _bits(sel):
            acc &= masks[i]
        memo[sel] = acc
    return acc


def _base_table(p):
    """Comparable part of the meet table plus the incomparable pairs with
    their candidate meets (in canonical order)."""
    n = p.n
    up = p._up
    table = [[-1] * n for _ in range(n)]
    pairs = []
    for x in range(n):
        table[x][x] = x
        for y in range(x + 1, n):
            if (up[x] >> y) & 1:
                table[x][y] = table[y][x] = x
            elif (up[y] >> x) & 1:
                table[x][y] = table[y][x] = y
            else:
                cands = tuple(_bits(p._down[x] & p._down[y]))
                if not cands:
                    raise DomainError(
                        f"poset is not downward directed: "
                        f"{p.labels[x]} and {p.labels[y]} have no common lower bound")
                pairs.append(((x, y), cands))
    return table, pairs


@functools.cache
def _carrier(n):
    return frozenset(range(n))


def _all_ints(values):
    return all(map(isinstance, values, itertools.repeat(int)))


class MeetDirectoid:
    """A groupoid table, optionally with a unary map, on named elements."""

    __slots__ = ("n", "labels", "meet", "inv", "_join", "_i12", "_masks")

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
        if inv is not None:
            inv = tuple(inv)
            if len(inv) != n or not _all_ints(inv) or not carrier.issuperset(inv):
                raise UsageError("unary map is not total on the carrier")
        self._fill(meet, inv, labels, None)

    def _fill(self, meet, inv, labels, masks):
        object.__setattr__(self, "n", len(meet))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "meet", meet)
        object.__setattr__(self, "inv", inv)
        object.__setattr__(self, "_join", None)
        object.__setattr__(self, "_i12", None)
        object.__setattr__(self, "_masks", masks)

    def _with_map(self, inv):
        """This table with the unary map ``inv``, sharing its cached
        :meth:`_order` view; nothing is validated again.  The table was
        validated when ``self`` was built.  ``inv`` must be a tuple that
        ``InvolutivePoset`` has accepted on a poset of this table's
        size, which runs the constructor's length, integer and range
        checks on it."""
        d = object.__new__(MeetDirectoid)
        d._fill(self.meet, inv, self.labels, self._order())
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
    def check_directoid_axioms(self):
        """Idempotency, commutativity and the weak associativity
        (x ⊓ (y ⊓ z)) ⊓ z = x ⊓ (y ⊓ z)."""
        meet = self.meet
        lab = self.labels
        rng = range(self.n)
        for x in rng:
            if meet[x][x] != x:
                return Verdict(False, ("idempotency", x),
                               f"{lab[x]} meet {lab[x]} = {lab[meet[x][x]]}")
        for x in rng:
            for y in rng:
                if meet[x][y] != meet[y][x]:
                    return Verdict(False, ("commutativity", x, y),
                                   f"{lab[x]} meet {lab[y]} = {lab[meet[x][y]]} but "
                                   f"{lab[y]} meet {lab[x]} = {lab[meet[y][x]]}")
        for x in rng:
            row_x = meet[x]
            for y in rng:
                row_y = meet[y]
                for z in rng:
                    m = row_x[row_y[z]]
                    if meet[m][z] != m:
                        return Verdict(
                            False, ("weak associativity", x, y, z),
                            f"(({lab[x]} meet ({lab[y]} meet {lab[z]})) meet {lab[z]}) "
                            f"= {lab[meet[m][z]]} != {lab[m]}")
        return Verdict(True)

    def _order(self):
        """The cached :func:`_order_masks` of the meet table."""
        masks = self._masks
        if masks is None:
            masks = _order_masks(self.meet)
            object.__setattr__(self, "_masks", masks)
        return masks

    def induced_poset(self):
        """The order x <= y iff x ⊓ y = x; domain error when the table
        does not induce a partial order."""
        try:
            return Poset(self.labels, self._order()[0])
        except UsageError as exc:
            raise DomainError(f"induced relation is not a partial order: {exc}") from None

    def _induces(self, p):
        """``induced_poset() == p``, read off the cached order view without
        building a poset.  A relation that is no partial order differs
        from ``p._up`` and reads False where ``induced_poset`` raises."""
        return self.labels == p.labels and self._order()[0] == list(p._up)

    # -- the dual operation --------------------------------------------------
    def _require_inv(self):
        if self.inv is None:
            raise UsageError("operation requires the unary map")

    def join_table(self):
        """x ⊔ y = (x' ⊓ y')'; requires an involutive unary map."""
        self._require_inv()
        cached = self._join
        if cached is not None:
            return cached
        inv = self.inv
        for x in range(self.n):
            if inv[inv[x]] != x:
                raise UsageError("join requires an involutive unary map (x'' = x)")
        meet = self.meet
        join = tuple(tuple(inv[meet[inv[x]][inv[y]]] for y in range(self.n))
                     for x in range(self.n))
        object.__setattr__(self, "_join", join)
        return join

    # -- identities ---------------------------------------------------------
    def check_identities_1_2(self):
        """(1) x'' = x and (2) (x ⊓ y)' ⊓ y' = y'."""
        self._require_inv()
        cached = self._i12
        if cached is not None:
            return cached
        meet, inv, lab = self.meet, self.inv, self.labels
        verdict = Verdict(True)
        for x in range(self.n):
            if inv[inv[x]] != x:
                verdict = Verdict(False, ("(1)", x),
                                  f"(1) fails: {lab[x]}'' = {lab[inv[inv[x]]]}")
                break
        else:
            for x in range(self.n):
                row = meet[x]
                for y in range(self.n):
                    iy = inv[y]
                    if meet[inv[row[y]]][iy] != iy:
                        verdict = Verdict(
                            False, ("(2)", x, y),
                            f"(2) fails at ({lab[x]}, {lab[y]}): "
                            f"({lab[x]} meet {lab[y]})' meet {lab[y]}' = "
                            f"{lab[meet[inv[row[y]]][iy]]} != {lab[iy]}")
                        break
                else:
                    continue
                break
        object.__setattr__(self, "_i12", verdict)
        return verdict

    def _require_identities_1_2(self):
        verdict = self.check_identities_1_2()
        if not verdict.ok:
            raise UsageError(f"operation requires identities (1) and (2); {verdict.detail}")

    def check_identity_3(self):
        """(z ⊓ x) ⊓ (z ⊓ x') <= (w ⊔ y) ⊔ (w ⊔ y') for all
        x, y, z, w; witness is the first failing (x, y, z, w)."""
        self._require_identities_1_2()
        meet, inv = self.meet, self.inv
        join = self.join_table()
        rng = range(self.n)
        above = self._order()[0]
        lmask = [0] * self.n    # lmask[x] = {(z ⊓ x) ⊓ (z ⊓ x') | z}
        rmask = [0] * self.n    # rmask[y] = {(w ⊔ y) ⊔ (w ⊔ y') | w}
        for x in rng:
            ix = inv[x]
            for mz, jz in zip(meet, join):
                lmask[x] |= 1 << meet[mz[x]][mz[ix]]
                rmask[x] |= 1 << join[jz[x]][jz[ix]]
        memo = {}
        for x in rng:
            common = _common(above, lmask[x], memo)    # above every lhs value
            for y in rng:
                if not rmask[y] & ~common:
                    continue
                # (x, y) is the first failing pair: scan its (z, w)
                for z, w in itertools.product(rng, rng):
                    lhs = meet[meet[z][x]][meet[z][inv[x]]]
                    rhs = join[join[w][y]][join[w][inv[y]]]
                    if meet[lhs][rhs] != lhs:
                        lab = self.labels
                        return Verdict(
                            False, (x, y, z, w),
                            f"(3) fails at (x,y,z,w) = ({lab[x]}, {lab[y]}, "
                            f"{lab[z]}, {lab[w]}): {lab[lhs]} !<= {lab[rhs]}")
        return Verdict(True)

    def check_implication_4(self):
        """The distributivity implication; witness is the first violating
        (w, s, x, y, z) in the checker's scan order."""
        self._require_identities_1_2()
        meet = self.meet
        join = self.join_table()
        n = self.n
        above, below, _ = self._order()
        sfix = _order_masks(join)[1]    # sfix[l] = {s | s join l = s}
        wset = [[0] * n for _ in range(n)]   # {w | forall t: w meet ((t v x) v (t v y)) = w}
        sset = [[0] * n for _ in range(n)]   # {s | forall t: s join ((t ^ x) ^ (t ^ z)) = s}
        wmemo, smemo, amemo = {}, {}, {}
        rng = range(n)
        for x in rng:
            for y in rng:
                um = lm = 0
                for mt, jt in zip(meet, join):
                    um |= 1 << join[jt[x]][jt[y]]
                    lm |= 1 << meet[mt[x]][mt[y]]
                wset[x][y] = _common(below, um, wmemo)
                sset[x][y] = _common(sfix, lm, smemo)
        for x in rng:
            wrow = wset[x]
            srow = sset[x]
            for y in rng:
                wxy = wrow[y]
                if not wxy:
                    continue
                sy = sset[y]
                for z in rng:
                    wc = wxy & below[z]
                    if not wc:
                        continue
                    sc = srow[z] & sy[z]
                    # (x, y, z) fails iff some s in sc is not above every w in wc
                    if sc and sc & ~_common(above, wc, amemo):
                        w = next(w for w in _bits(wc) if sc & ~above[w])
                        bad = sc & ~above[w]
                        s = (bad & -bad).bit_length() - 1
                        lab = self.labels
                        return Verdict(
                            False, (w, s, x, y, z),
                            f"(4) fails at (w,s,x,y,z) = ({lab[w]}, {lab[s]}, "
                            f"{lab[x]}, {lab[y]}, {lab[z]}): premises hold "
                            f"but {lab[w]} !<= {lab[s]}")
        return Verdict(True)

    def _shared_lower_body(self, name, xs, require_incomparable):
        """The first (x, y, z) over x, y in ``xs`` with z <= x, x' but not
        z <= y, y'; z is the least such element."""
        meet, inv, lab = self.meet, self.inv, self.labels
        lower = self._order()[2]
        for x in xs:
            shared = lower[x] & lower[inv[x]]
            for y in xs:
                if require_incomparable and meet[x][y] in (x, y):
                    continue
                bad = shared & ~(lower[y] & lower[inv[y]])
                if bad:
                    z = (bad & -bad).bit_length() - 1
                    return Verdict(
                        False, (x, y, z),
                        f"{name} fails at (x,y,z) = ({lab[x]}, {lab[y]}, {lab[z]}): "
                        f"z <= x and z <= x' but not (z <= y and z <= y')")
        return Verdict(True)

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
        above, below, _ = self._order()
        full = (1 << self.n) - 1
        if above[bottom] != full or below[top] != full:
            raise UsageError("designated bounds do not bound the induced order")
        inner = [x for x in range(self.n) if x not in (bottom, top)]
        return self._shared_lower_body("(6)", inner, require_incomparable=False)

    def __repr__(self):
        return f"MeetDirectoid({self.n} elements)"


# -- assignments ------------------------------------------------------------

def assignment_count(source):
    p, _ = _split_source(source)
    return _count(_base_table(p)[1])


def _count(pairs):
    count = 1
    for _, cands in pairs:
        count *= len(cands)
    return count


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
    in place."""
    if not pairs:
        yield MeetDirectoid(table, inv=inv, labels=p.labels)
        return
    keys = [pair for pair, _ in pairs]
    for picks in itertools.product(*(cands for _, cands in pairs)):
        for (x, y), pick in zip(keys, picks):
            table[x][y] = table[y][x] = pick
        yield MeetDirectoid(table, inv=inv, labels=p.labels)


def all_assignments(source, cap=1000):
    """Materialize every assignment; domain error when the space exceeds
    the cap (the count is reported in the message)."""
    count = assignment_count(source)
    if count > cap:
        raise DomainError(f"assignment space has {count} tables, over the cap {cap}")
    return list(iter_assignments(source))


def assignment_choices(directoid, source):
    """Recover the choice made for each incomparable pair as a label map
    (used to serialize audit witnesses)."""
    p, _ = _split_source(source)
    return _choices(directoid, p, _base_table(p)[1])


def _choices(directoid, p, pairs):
    return {f"{p.labels[x]},{p.labels[y]}": p.labels[directoid.meet[x][y]]
            for (x, y), _ in pairs}


def directoid_from_choices(source, choices):
    """Rebuild an assignment from :func:`assignment_choices` output."""
    p, inv = _split_source(source)
    table, pairs = _base_table(p)
    for (x, y), cands in pairs:
        key = f"{p.labels[x]},{p.labels[y]}"
        try:
            pick = p.index(choices[key])
        except KeyError:
            raise UsageError(f"missing choice for incomparable pair {key}") from None
        if pick not in cands:
            raise UsageError(f"choice for {key} is not a common lower bound")
        table[x][y] = table[y][x] = pick
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
    for x in range(n):
        got = 0
        for row in meet:
            got |= 1 << row[x]
        if got != down[x]:
            return Verdict(False, ("L(x)", x),
                           f"{{z meet {lab[x]}}} != L({lab[x]})")
        got = 0
        for row in join:
            got |= 1 << row[x]
        if got != up[x]:
            return Verdict(False, ("U(x)", x),
                           f"{{z join {lab[x]}}} != U({lab[x]})")
    # In a commutative table both pair laws give the same set at (x, y)
    # and (y, x), and the first failing pair in row order has x <= y.
    symmetric = meet == tuple(zip(*meet))
    for x in range(n):
        for y in range(x if symmetric else 0, n):
            got = 0
            for mz in meet:
                got |= 1 << meet[mz[x]][mz[y]]
            if got != down[x] & down[y]:
                return Verdict(False, ("L(x,y)", x, y),
                               f"{{(z meet {lab[x]}) meet (z meet {lab[y]})}} != "
                               f"L({lab[x]},{lab[y]})")
            got = 0
            for jt in join:
                got |= 1 << join[jt[x]][jt[y]]
            if got != up[x] & up[y]:
                return Verdict(False, ("U(x,y)", x, y),
                               f"{{(t join {lab[x]}) join (t join {lab[y]})}} != "
                               f"U({lab[x]},{lab[y]})")
    for x in range(n):
        for y in range(n):
            m, j = meet[x][y], join[x][y]
            if up[x] >> y & 1:
                if m != x or j != y:
                    return Verdict(False, ("comparable", x, y),
                                   f"{lab[x]} <= {lab[y]} but meet/join differ from min/max")
            elif up[y] >> x & 1:
                if m != y or j != x:
                    return Verdict(False, ("comparable", x, y),
                                   f"{lab[y]} <= {lab[x]} but meet/join differ from min/max")
            else:
                if not (down[x] >> m & 1 and down[y] >> m & 1):
                    return Verdict(False, ("meet-cone", x, y),
                                   f"{lab[x]} meet {lab[y]} outside L({lab[x]},{lab[y]})")
                if not (up[x] >> j & 1 and up[y] >> j & 1):
                    return Verdict(False, ("join-cone", x, y),
                                   f"{lab[x]} join {lab[y]} outside U({lab[x]},{lab[y]})")
            if (m == x) != (j == y):
                return Verdict(False, ("duality", x, y),
                               f"x meet y = x iff x join y = y fails at "
                               f"({lab[x]}, {lab[y]})")
    return Verdict(True)


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
                return Verdict(
                    False, ("U(x,y) printed", x, y),
                    f"{{(z join {lab[x]}) meet (z join {lab[y]})}} = "
                    f"{Subset(poset, got).render()} != "
                    f"{Subset(poset, expect).render()} = U({lab[x]},{lab[y]})")
    return Verdict(True)
