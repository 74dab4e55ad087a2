"""Completion by cut ideals (the Dedekind-MacNeille construction).

The completion of a finite poset P is the family of all cone intersections
``L(A)`` for ``A ⊆ P``, ordered by inclusion.  Each ``L(A)`` is the
intersection of the principal ideals ``L(a)``, ``a ∈ A``, so meeting every
ideal found so far with each ``L(x)`` in turn, starting from the full
carrier ``L({})``, closes the family in one pass over the elements.  Meets
are intersections; joins are ``L(U(.))`` of unions.  When P is an
:class:`InvolutivePoset` with a valid antitone involution, the completion
inherits one:

    star(I) = L(I')     (elementwise prime, then lower cone)

and the canonical embedding ``x -> L(x)`` commutes with the involutions.
"""

from __future__ import annotations

from .errors import UsageError
from .involution import InvolutivePoset
from .poset import Poset, Subset, _bits


class CompletionLattice:
    """The lattice of cut ideals of a finite poset."""

    __slots__ = ("base", "ideals", "labels", "_index", "_embed", "_poset",
                 "_involutive")

    def __init__(self, base):
        ip = None
        if isinstance(base, InvolutivePoset):
            base._require_involution()
            ip, base = base, base.base
        if not isinstance(base, Poset):
            raise UsageError("base must be a Poset or InvolutivePoset")
        object.__setattr__(self, "base", base)

        found = {base._full}
        for down in base._down:
            found |= {m & down for m in found}
        ideals = sorted(found, key=lambda m: (m.bit_count(), tuple(_bits(m))))
        index = {m: i for i, m in enumerate(ideals)}
        object.__setattr__(self, "ideals", tuple(ideals))
        object.__setattr__(self, "_index", index)
        lab = base.labels
        object.__setattr__(
            self, "labels",
            tuple("{" + ",".join(lab[x] for x in _bits(m)) + "}" for m in ideals))
        # L({x}) is the down-set of x.
        object.__setattr__(self, "_embed", tuple(index[d] for d in base._down))

        up = [sum(1 << j for j, other in enumerate(ideals) if m & ~other == 0)
              for m in ideals]
        poset = Poset(self.labels, up, _validated=True)
        object.__setattr__(self, "_poset", poset)
        involutive = None
        if ip is not None:
            star = [index[base._lower(ip._image(m))] for m in ideals]
            involutive = InvolutivePoset(poset, star)
        object.__setattr__(self, "_involutive", involutive)

    def __setattr__(self, name, value):
        raise AttributeError("CompletionLattice is immutable")

    # -- basic access -----------------------------------------------------
    @property
    def n(self):
        return len(self.ideals)

    @property
    def has_involution(self):
        return self._involutive is not None

    def ideal(self, i):
        """The i-th ideal as a subset of the base poset."""
        return Subset(self.base, self.ideals[i])

    def index_of(self, items):
        """Index of an ideal given as a base subset; usage error if the
        set is not a cut ideal."""
        mask = self.base._mask_of(items)
        try:
            return self._index[mask]
        except KeyError:
            raise UsageError(
                f"{Subset(self.base, mask).render()} is not a cut ideal") from None

    def leq(self, i, j):
        return self.ideals[i] & ~self.ideals[j] == 0

    # -- lattice structure ---------------------------------------------------
    def embed(self, x):
        """Index of the principal ideal L(x)."""
        return self._embed[self.base.index(x)]

    def meet(self, i, j):
        return self._index[self.ideals[i] & self.ideals[j]]

    def join(self, i, j):
        union = self.ideals[i] | self.ideals[j]
        return self._index[self.base._lower(self.base._upper(union))]

    def star(self, i):
        """The inherited involution L(I')."""
        return self.as_involutive_poset().inv[i]

    # -- views (built once, in the constructor) ---------------------------
    def as_poset(self):
        """The completion as a poset ordered by inclusion."""
        return self._poset

    def as_involutive_poset(self):
        """The completion with its star, over :meth:`as_poset`."""
        if self._involutive is None:
            raise UsageError("completion of a plain poset has no involution")
        return self._involutive

    def fixed_ideals(self):
        """Labels of the star-fixed ideals."""
        star = self.as_involutive_poset().inv
        return tuple(self.labels[i] for i in range(self.n) if star[i] == i)

    def __repr__(self):
        return f"CompletionLattice({self.n} ideals over {self.base.n} elements)"


def dedekind_macneille(base):
    """Build the completion of a poset or involutive poset."""
    return CompletionLattice(base)
