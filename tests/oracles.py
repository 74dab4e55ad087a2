"""Independent reference implementations used to freeze expected values.

Everything here is written against plain Python sets and dicts, with no
imports from the package under test, so the two codebases can only agree
by computing the same mathematics.  Tests call these oracles (or values
frozen from running them) and compare against the package.
"""

from __future__ import annotations

import itertools


class RefPoset:
    """A poset as a frozenset of (x, y) pairs meaning x <= y."""

    def __init__(self, elements, leq_pairs):
        self.elements = list(elements)
        self.leq_pairs = frozenset(leq_pairs)

    @classmethod
    def from_covers(cls, elements, covers, strict=False):
        elements = list(elements)
        leq = {(x, x) for x in elements}
        leq.update(covers)
        changed = True
        while changed:
            changed = False
            for (a, b), (c, d) in itertools.product(list(leq), repeat=2):
                if b == c and (a, d) not in leq:
                    leq.add((a, d))
                    changed = True
        if strict:
            for x, y in list(leq):
                assert (y, x) not in leq or x == y, "not antisymmetric"
        return cls(elements, leq)

    def leq(self, x, y):
        return (x, y) in self.leq_pairs

    def lower(self, items):
        items = list(items)
        if not items:
            return set(self.elements)
        return {z for z in self.elements if all(self.leq(z, a) for a in items)}

    def upper(self, items):
        items = list(items)
        if not items:
            return set(self.elements)
        return {z for z in self.elements if all(self.leq(a, z) for a in items)}

    def set_leq(self, a_items, b_items):
        """A <= B iff every a is below every b (vacuous on empty sides)."""
        return all(self.leq(a, b) for a in a_items for b in b_items)

    def bounds(self):
        bottom = [x for x in self.elements
                  if all(self.leq(x, y) for y in self.elements)]
        top = [x for x in self.elements
               if all(self.leq(y, x) for y in self.elements)]
        return (bottom[0] if bottom else None, top[0] if top else None)

    def is_lattice(self):
        """(ok, witness|None); the witness is the first pair (x, y), x
        before y in element order, whose common upper bounds have no
        least element or whose common lower bounds no greatest one."""
        if not self.elements:
            return False, None
        for x, y in itertools.combinations(self.elements, 2):
            ub = self.upper([x, y])
            if not any(all(self.leq(z, w) for w in ub) for z in ub):
                return False, (x, y)
            lb = self.lower([x, y])
            if not any(all(self.leq(w, z) for w in lb) for z in lb):
                return False, (x, y)
        return True, None

    def distributive(self, form):
        """form in {"LU","ULU","UL","LUL"}; returns (ok, witness|None).

        The identities relate mixed cones of three elements, with
        ``L(A, z)`` meaning ``L(A | {z})``:

        - LU:  L(U(x,y), z)    = L(U(L(x,z), L(y,z)))
        - ULU: U(L(U(x,y), z)) = U(L(x,z), L(y,z))
        - UL:  U(L(x,y), z)    = U(L(U(x,z), U(y,z)))
        - LUL: L(U(L(x,y), z)) = L(U(x,z), U(y,z))
        """
        for x, y, z in itertools.product(self.elements, repeat=3):
            if not self.distributive_at(form, x, y, z):
                return False, (x, y, z)
        return True, None

    def distributive_at(self, form, x, y, z):
        """Does ``form`` hold at the triple (x, y, z)?"""
        L, U = self.lower, self.upper
        if form == "LU":
            return L(U([x, y]) | {z}) == L(U(L([x, z]) | L([y, z])))
        if form == "ULU":
            return U(L(U([x, y]) | {z})) == U(L([x, z]) | L([y, z]))
        if form == "UL":
            return U(L([x, y]) | {z}) == U(L(U([x, z]) | U([y, z])))
        if form == "LUL":
            return L(U(L([x, y]) | {z})) == L(U([x, z]) | U([y, z]))
        raise ValueError(form)


class RefInvolutive(RefPoset):
    def __init__(self, elements, leq_pairs, prime):
        super().__init__(elements, leq_pairs)
        self.prime = dict(prime)

    @classmethod
    def build(cls, elements, covers, prime):
        p = RefPoset.from_covers(elements, covers)
        return cls(p.elements, p.leq_pairs, prime)

    def valid_involution(self):
        pr = self.prime
        if set(pr) != set(self.elements):
            return False
        if any(pr[pr[x]] != x for x in self.elements):
            return False
        return all(self.leq(pr[y], pr[x])
                   for x, y in itertools.product(self.elements, repeat=2)
                   if self.leq(x, y))

    def involution_failure(self):
        """First x with x'' != x as ``(x,)``, else the first (x, y) with
        x != y, x <= y and not y' <= x', scanning x then y in element
        order; None for an antitone involution."""
        pr = self.prime
        for x in self.elements:
            if pr[pr[x]] != x:
                return (x,)
        for x, y in itertools.product(self.elements, repeat=2):
            if x != y and self.leq(x, y) and not self.leq(pr[y], pr[x]):
                return (x, y)
        return None

    def pseudo_kleene(self):
        pr = self.prime
        for x, y in itertools.product(self.elements, repeat=2):
            lx = self.lower([x, pr[x]])
            uy = self.upper([y, pr[y]])
            if not self.set_leq(lx, uy):
                return False, (x, y)
        return True, None

    def kleene(self):
        ok, w = self.pseudo_kleene()
        if not ok:
            return False, w
        ok, w = self.distributive("LU")
        return ok, w

    def strong(self):
        pr = self.prime
        for x, y in itertools.product(self.elements, repeat=2):
            if self.leq(x, y) or self.leq(y, x):
                continue
            if self.lower([x, pr[x]]) != self.lower([y, pr[y]]):
                return False, (x, y)
        return True, None

    def strict(self):
        bottom, top = self.bounds()
        if bottom is None or top is None:
            return None, "unbounded"
        pr = self.prime
        inner = [x for x in self.elements if x not in (bottom, top)]
        for x, y in itertools.product(inner, repeat=2):
            if self.lower([x, pr[x]]) != self.lower([y, pr[y]]):
                return False, (x, y)
        return True, None

    def boolean(self):
        bottom, top = self.bounds()
        if bottom is None or top is None:
            return None, "unbounded"
        pr = self.prime
        for x in self.elements:
            if self.lower([x, pr[x]]) != {bottom}:
                return False, x
            if self.upper([x, pr[x]]) != {top}:
                return False, x
        return True, None

    def fixed_points(self):
        return sorted(x for x in self.elements if self.prime[x] == x)

    # -- residuation ----------------------------------------------------
    def odot(self, x, y):
        bottom, _ = self.bounds()
        if self.leq(x, self.prime[y]):
            return {bottom}
        return self.lower([x, y])

    def arrow(self, x, y):
        _, top = self.bounds()
        if self.leq(x, y):
            return {top}
        return self.upper([self.prime[x], y])

    def odot_table(self):
        return {(x, y): self.odot(x, y)
                for x, y in itertools.product(self.elements, repeat=2)}

    def arrow_table(self):
        return {(x, y): self.arrow(x, y)
                for x, y in itertools.product(self.elements, repeat=2)}

    def associativity(self, odot=None):
        """First (x, y, z) with (x ⊙ y) ⊙ z != x ⊙ (y ⊙ z), where
        A ⊙ B is the intersection of a ⊙ b over a in A and b in B, and
        an empty family gives every element.  ``odot`` replaces the
        table, so that an edited operation can be checked."""
        odot = self.odot_table() if odot is None else odot

        def sets(a_items, b_items):
            out = set(self.elements)
            for a in a_items:
                for b in b_items:
                    out &= odot[(a, b)]
            return out

        for x, y, z in itertools.product(self.elements, repeat=3):
            if sets(odot[(x, y)], [z]) != sets([x], odot[(y, z)]):
                return False, (x, y, z)
        return True, None

    def adjointness(self):
        """First (a, b, c) where a ⊙ b <= {c} and {a} <= b → c disagree
        (both in the set order)."""
        odot, arrow = self.odot_table(), self.arrow_table()
        for a, b, c in itertools.product(self.elements, repeat=3):
            left = all(self.leq(w, c) for w in odot[(a, b)])
            right = all(self.leq(a, w) for w in arrow[(b, c)])
            if left != right:
                return False, (a, b, c)
        return True, None

    def adjointness_cases(self):
        """How many triples (a, b, c) fall in each proof case, the first
        that applies of 1: a <= b' and b <= c, 2: a <= b', 3: b <= c,
        4: a = 1, 5: b = 1, 6: c = 0, 7: the rest."""
        bottom, top = self.bounds()
        pr = self.prime
        counts = {k: 0 for k in range(1, 8)}
        for a, b, c in itertools.product(self.elements, repeat=3):
            ab, bc = self.leq(a, pr[b]), self.leq(b, c)
            if ab and bc:
                case = 1
            elif ab:
                case = 2
            elif bc:
                case = 3
            elif a == top:
                case = 4
            elif b == top:
                case = 5
            elif c == bottom:
                case = 6
            else:
                case = 7
            counts[case] += 1
        return counts

    def condition7(self):
        bottom, _ = self.bounds()
        for x, y in itertools.product(self.elements, repeat=2):
            if x != bottom and y != bottom and self.lower([x, y]) == {bottom}:
                return False, (x, y)
        return True, None

    # Each check below returns (True, None) or (False, its first failing
    # cell); ``odot``/``arrow`` replace the tables, as in associativity.
    def zero_absorbing(self, odot=None):
        """First (x,) with x ⊙ 0 or 0 ⊙ x other than {0}."""
        odot = self.odot_table() if odot is None else odot
        bottom, _ = self.bounds()
        for x in self.elements:
            if odot[(x, bottom)] != {bottom} or odot[(bottom, x)] != {bottom}:
                return False, (x,)
        return True, None

    def commutativity(self, odot=None):
        """First (x, y), x before y, with x ⊙ y != y ⊙ x."""
        odot = self.odot_table() if odot is None else odot
        for x, y in itertools.combinations(self.elements, 2):
            if odot[(x, y)] != odot[(y, x)]:
                return False, (x, y)
        return True, None

    def unit(self, odot=None):
        """First (x,) with x ⊙ 1 or 1 ⊙ x other than L(x)."""
        odot = self.odot_table() if odot is None else odot
        _, top = self.bounds()
        for x in self.elements:
            if odot[(x, top)] != self.lower([x]) or odot[(top, x)] != self.lower([x]):
                return False, (x,)
        return True, None

    def theorem54(self, odot=None, arrow=None):
        """Theorem 5.4's items "i".."v", each the first failing (a, b)
        in element order, or None where its tier does not hold: (iii)
        and (iv) need condition (7), (v) a strict Kleene poset (strict
        and LU-distributive)."""
        odot = self.odot_table() if odot is None else odot
        arrow = self.arrow_table() if arrow is None else arrow
        bottom, top = self.bounds()
        pr = self.prime

        def primed(items):
            return {pr[w] for w in items}

        laws = {
            "i": lambda a, b: odot[(a, b)] == primed(arrow[(a, pr[b])]),
            "ii": lambda a, b: arrow[(a, b)] == primed(odot[(a, pr[b])]),
            "iii": lambda a, b: (odot[(a, b)] == {bottom}) == self.leq(a, pr[b]),
            "iv": lambda a, b: (arrow[(a, b)] == {top}) == self.leq(a, b),
            "v": lambda a, b: not (self.leq(a, b) and self.lower([pr[a], b]) == {bottom})
            or a == b,
        }
        active = self._theorem54_tiers()
        out = {}
        for key, holds in laws.items():
            out[key] = None if not active[key] else next(
                ((False, (a, b)) for a, b in itertools.product(self.elements, repeat=2)
                 if not holds(a, b)), (True, None))
        return out

    def _theorem54_tiers(self):
        if not hasattr(self, "_tiers"):
            cond7 = self.condition7()[0]
            strict_kleene = self.strict()[0] is True and self.distributive("LU")[0]
            self._tiers = {"i": True, "ii": True, "iii": cond7, "iv": cond7,
                           "v": strict_kleene}
        return self._tiers


def ref_dm_completion(p):
    """All distinct L(A) over every subset A, as frozensets."""
    ideals = set()
    elems = list(p.elements)
    for r in range(len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            ideals.add(frozenset(p.lower(combo)))
    return ideals


def ref_dm_star(p, prime, ideal):
    return frozenset(p.lower({prime[x] for x in ideal})) if ideal else \
        frozenset(p.lower(set()))


def ref_twist_carrier(p, a):
    """Pairs (x, y) with L(x,y) <= {a} <= U(x,y) in the set order."""
    out = []
    for x, y in itertools.product(p.elements, repeat=2):
        lo = p.lower([x, y])
        hi = p.upper([x, y])
        if all(p.leq(z, a) for z in lo) and all(p.leq(a, z) for z in hi):
            out.append((x, y))
    return out


def ref_twist_leq(p, pair1, pair2):
    (x, y), (z, v) = pair1, pair2
    return p.leq(x, z) and p.leq(v, y)


def ref_product_cone_failure(p, a, restricted=True):
    """The first subset A of the twist at ``a`` where

        L(A) = L(p1(A)) x U(p2(A))   and   U(A) = U(p1(A)) x L(p2(A))

    fail, the products cut down to the carrier when ``restricted``;
    unrestricted, a product pair outside the carrier fails too, L before
    U.  A carrier of at most 12 pairs has every nonempty subset checked,
    in the order of their bitmasks over the carrier order of
    ``ref_twist_carrier``; a larger one has its singletons, then its
    pairs.  Returns (kind, A, outside pair or None), or None."""
    carrier = ref_twist_carrier(p, a)
    members = set(carrier)
    n = len(carrier)
    if n <= 12:
        subsets = [[carrier[k] for k in range(n) if (m >> k) & 1]
                   for m in range(1, 1 << n)]
    else:
        subsets = ([[s] for s in carrier]
                   + [list(pair) for pair in itertools.combinations(carrier, 2)])
    below = {t: {s for s in carrier if ref_twist_leq(p, s, t)} for t in carrier}
    above = {t: {s for s in carrier if ref_twist_leq(p, t, s)} for t in carrier}
    cones = {}

    def cone(side, items):
        key = (side, frozenset(items))
        if key not in cones:
            cones[key] = (p.lower if side == "L" else p.upper)(items)
        return cones[key]

    for subset in subsets:
        firsts = [x for x, _ in subset]
        seconds = [y for _, y in subset]
        lower = set.intersection(*(below[t] for t in subset))
        upper = set.intersection(*(above[t] for t in subset))
        l1, u2 = cone("L", firsts), cone("U", seconds)
        u1, l2 = cone("U", firsts), cone("L", seconds)
        lprod = [(x, y) for x in p.elements if x in l1
                 for y in p.elements if y in u2]
        uprod = [(x, y) for x in p.elements if x in u1
                 for y in p.elements if y in l2]
        if lower != members.intersection(lprod):
            return "L", subset, None
        if upper != members.intersection(uprod):
            return "U", subset, None
        if not restricted:
            for kind, prod in (("L-unrestricted", lprod), ("U-unrestricted", uprod)):
                outside = [pair for pair in prod if pair not in members]
                if outside:
                    return kind, subset, outside[0]
    return None


# -- labeled / unlabeled poset counting (independent of the package) ------

def count_posets_bruteforce(n):
    """(labeled, iso) counts by filtering all reflexive relations on n
    points for antisymmetry + transitivity.  Feasible for n <= 4."""
    import numpy as np
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    m = len(pairs)
    count_labeled = 0
    reps = []
    for bits in range(1 << m):
        rel = [[i == j for j in range(n)] for i in range(n)]
        for k in range(m):
            if (bits >> k) & 1:
                i, j = pairs[k]
                rel[i][j] = True
        ok = True
        for i, j in pairs:
            if rel[i][j] and rel[j][i]:
                ok = False
                break
        if ok:
            for i in range(n):
                if not ok:
                    break
                for j in range(n):
                    if not rel[i][j]:
                        continue
                    for k in range(n):
                        if rel[j][k] and not rel[i][k]:
                            ok = False
                            break
                    if not ok:
                        break
        if not ok:
            continue
        count_labeled += 1
        canon = min(
            tuple(sorted((perm[i], perm[j]) for i in range(n)
                         for j in range(n) if rel[i][j]))
            for perm in itertools.permutations(range(n)))
        reps.append(canon)
    return count_labeled, len(set(reps))


def count_posets_vectorized(n):
    """Labeled poset count via numpy over all 2^(n(n-1)) candidate strict
    orders, checking antisymmetry and transitivity in bulk.  Handles n=5
    (2^20 candidates) in a few seconds."""
    import numpy as np
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    m = len(pairs)
    total = 1 << m
    rel = np.zeros((total, n, n), dtype=bool)
    codes = np.arange(total, dtype=np.uint32)
    for k, (i, j) in enumerate(pairs):
        rel[:, i, j] = (codes >> k) & 1
    eye = np.eye(n, dtype=bool)
    rel |= eye
    antisym = ~np.any(rel & rel.transpose(0, 2, 1) & ~eye, axis=(1, 2))
    rel = rel[antisym]
    comp = np.einsum("bij,bjk->bik", rel.astype(np.uint8),
                     rel.astype(np.uint8)) > 0
    transitive = ~np.any(comp & ~rel, axis=(1, 2))
    return int(np.count_nonzero(transitive))


def count_automorphisms(up, down):
    """The number of order automorphisms of the poset whose up-sets and
    down-sets are the bitmasks ``up`` and ``down`` (bit j of ``up[i]``
    set when i <= j, of ``down[i]`` when j <= i).  A backtracking search
    maps 0, 1, ... in turn, each to an unused element with as many
    elements above and as many below, whose order relations with every
    element mapped so far are those of the element it replaces."""
    n = len(up)
    degree = [(bin(up[x]).count("1"), bin(down[x]).count("1")) for x in range(n)]
    image = []

    def extend(used):
        i = len(image)
        if i == n:
            return 1
        total = 0
        for y in range(n):
            if (used >> y) & 1 or degree[y] != degree[i]:
                continue
            if all((up[j] >> i) & 1 == (up[fj] >> y) & 1
                   and (down[j] >> i) & 1 == (down[fj] >> y) & 1
                   for j, fj in enumerate(image)):
                image.append(y)
                total += extend(used | 1 << y)
                image.pop()
        return total

    return extend(0)


def ref_involutions(p):
    """All antitone involutions of a RefPoset, as sorted tuples of the
    images in element order."""
    elems = list(p.elements)
    n = len(elems)
    out = []
    for perm in itertools.permutations(range(n)):
        img = {elems[i]: elems[perm[i]] for i in range(n)}
        if any(img[img[x]] != x for x in elems):
            continue
        if all(p.leq(img[y], img[x]) for x in elems for y in elems
               if p.leq(x, y)):
            out.append(tuple(perm))
    return sorted(out)


# -- canonical form and pinned isomorphism, by trying all n! orders --------

def ref_least_natural_labelling(p):
    """The lexicographically least sequence of strict down-masks over all
    natural labellings of a RefPoset.  Every order of the elements is
    tried and kept only when it is a linear extension; entry k has bit i
    set when the element at position i is strictly below the one at k."""
    best = None
    for order in itertools.permutations(p.elements):
        pos = {x: i for i, x in enumerate(order)}
        if any(pos[x] > pos[y] for x, y in p.leq_pairs):
            continue
        seq = tuple(sum(1 << pos[x] for x in order if x != y and p.leq(x, y))
                    for y in order)
        if best is None or seq < best:
            best = seq
    return best


def ref_isomorphic_with_pin(p, pin_p, q, pin_q, p_map=None, q_map=None):
    """Is there an order isomorphism p -> q sending pin_p to pin_q and,
    when the maps are given (dicts on the elements), carrying p_map to
    q_map?  A pin of ``None`` pins nothing.  Every bijection between the
    two RefPosets' elements is tried."""
    if len(p.elements) != len(q.elements):
        return False
    for image in itertools.permutations(q.elements):
        f = dict(zip(p.elements, image))
        if pin_p is not None and f[pin_p] != pin_q:
            continue
        if p_map is not None and any(f[p_map[x]] != q_map[f[x]]
                                     for x in p.elements):
            continue
        if all(p.leq(x, y) == q.leq(f[x], f[y])
               for x in p.elements for y in p.elements):
            return True
    return False


# -- directoid identities (3)-(6), read literally off the operation tables --
#
# ``meet`` is a list of rows and ``inv`` a list; ``a <= b`` means
# ``meet[a][b] == a`` and ``x ⊓ z`` means ``meet[x][z]`` even when the
# table is not commutative.  Each returns the first violation in the
# package checker's scan order, or None.

def ref_directoid_axioms(meet):
    """Idempotency x ⊓ x = x, then commutativity x ⊓ y = y ⊓ x, then weak
    associativity (x ⊓ (y ⊓ z)) ⊓ z = x ⊓ (y ⊓ z); the first failing tag
    ``("idempotency", x)``, ``("commutativity", x, y)`` or
    ``("weak associativity", x, y, z)`` in that scan order, or None."""
    elems = range(len(meet))
    for x in elems:
        if meet[x][x] != x:
            return ("idempotency", x)
    for x, y in itertools.product(elems, repeat=2):
        if meet[x][y] != meet[y][x]:
            return ("commutativity", x, y)
    for x, y, z in itertools.product(elems, repeat=3):
        m = meet[x][meet[y][z]]
        if meet[m][z] != m:
            return ("weak associativity", x, y, z)
    return None


def ref_join(meet, inv):
    """x ⊔ y = (x' ⊓ y')'."""
    n = len(meet)
    return [[inv[meet[inv[x]][inv[y]]] for y in range(n)] for x in range(n)]


def _ref_premise_table(meet):
    """(4)'s premise table by its definition: ``lset[x][y]`` is the
    bitmask of {(t ⊓ x) ⊓ (t ⊓ y) | t}, for every (x, y)."""
    elems = range(len(meet))
    return [[sum(1 << v for v in {meet[meet[t][x]][meet[t][y]] for t in elems})
             for y in elems] for x in elems]


def ref_identity_3(meet, inv):
    """(z ⊓ x) ⊓ (z ⊓ x') <= (w ⊔ y) ⊔ (w ⊔ y'); first failing (x, y, z, w)."""
    join = ref_join(meet, inv)
    for x, y, z, w in itertools.product(range(len(meet)), repeat=4):
        lhs = meet[meet[z][x]][meet[z][inv[x]]]
        rhs = join[join[w][y]][join[w][inv[y]]]
        if meet[lhs][rhs] != lhs:
            return (x, y, z, w)
    return None


def ref_implication_4(meet, inv):
    """[forall t: w ⊓ ((t⊔x)⊔(t⊔y)) = w], w ⊓ z = w,
    [forall t: s ⊔ ((t⊓x)⊓(t⊓z)) = s] and [forall t: s ⊔ ((t⊓y)⊓(t⊓z)) = s]
    imply w <= s; first failing (w, s, x, y, z) over x, y, z, then w,
    then the least s."""
    join = ref_join(meet, inv)
    elems = range(len(meet))
    for x, y, z in itertools.product(elems, repeat=3):
        ws = [w for w in elems
              if all(meet[w][join[join[t][x]][join[t][y]]] == w for t in elems)
              and meet[w][z] == w]
        ss = [s for s in elems
              if all(join[s][meet[meet[t][x]][meet[t][z]]] == s
                     and join[s][meet[meet[t][y]][meet[t][z]]] == s
                     for t in elems)]
        for w in ws:
            for s in ss:
                if meet[w][s] != w:
                    return (w, s, x, y, z)
    return None


def _ref_shared_lower(meet, inv, xs, premise):
    for x, y in itertools.product(xs, repeat=2):
        for z in range(len(meet)):
            if (premise(x, y) and meet[x][z] == z and meet[inv[x]][z] == z
                    and not (meet[y][z] == z and meet[inv[y]][z] == z)):
                return (x, y, z)
    return None


def ref_implication_5(meet, inv):
    """x != x ⊓ y != y and x ⊓ z = x' ⊓ z = z imply y ⊓ z = y' ⊓ z = z;
    first failing (x, y, z)."""
    return _ref_shared_lower(meet, inv, range(len(meet)),
                             lambda x, y: x != meet[x][y] != y)


def ref_implication_6(meet, inv, bottom, top):
    """For x, y other than the bounds, x ⊓ z = x' ⊓ z = z imply
    y ⊓ z = y' ⊓ z = z; first failing (x, y, z).  ValueError unless
    bottom ⊓ x = bottom and x ⊓ top = x for every x, that is, unless
    bottom <= x <= top in the order a <= b iff a ⊓ b = a."""
    elems = range(len(meet))
    if any(meet[bottom][x] != bottom or meet[x][top] != x for x in elems):
        raise ValueError("the designated bounds do not bound the order")
    inner = [x for x in elems if x not in (bottom, top)]
    return _ref_shared_lower(meet, inv, inner, lambda x, y: True)


def ref_derived_set_laws(meet, inv, leq):
    """The derived-set laws of a table against the order ``leq`` (a set
    of pairs (a, b) meaning a <= b): L(x), U(x) for each x, then L(x,y),
    U(x,y) for each (x, y), then the comparable / cone / duality laws for
    each (x, y); the first failing tag, as ``(law, x)`` or
    ``(law, x, y)``, in that scan order."""
    join = ref_join(meet, inv)
    elems = range(len(meet))
    down = [{a for a in elems if (a, x) in leq} for x in elems]
    up = [{b for b in elems if (x, b) in leq} for x in elems]
    for x in elems:
        if {meet[z][x] for z in elems} != down[x]:
            return ("L(x)", x)
        if {join[z][x] for z in elems} != up[x]:
            return ("U(x)", x)
    for x, y in itertools.product(elems, repeat=2):
        if {meet[meet[z][x]][meet[z][y]] for z in elems} != down[x] & down[y]:
            return ("L(x,y)", x, y)
        if {join[join[t][x]][join[t][y]] for t in elems} != up[x] & up[y]:
            return ("U(x,y)", x, y)
    for x, y in itertools.product(elems, repeat=2):
        m, j = meet[x][y], join[x][y]
        if (x, y) in leq:
            if (m, j) != (x, y):
                return ("comparable", x, y)
        elif (y, x) in leq:
            if (m, j) != (y, x):
                return ("comparable", x, y)
        else:
            if m not in down[x] & down[y]:
                return ("meet-cone", x, y)
            if j not in up[x] & up[y]:
                return ("join-cone", x, y)
        if (m == x) != (j == y):
            return ("duality", x, y)
    return None
