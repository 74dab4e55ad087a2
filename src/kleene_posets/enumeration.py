"""Exhaustive generation of small instances and the claim-audit engine.

Every quantified statement the library implements is registered here as a
claim: a bounded instance space plus an evaluator that checks both sides
of the statement on one instance and returns ``None`` or the violation's
binding.  An audit walks the space in canonical order and reports either
Confirmed (with the instance count) or Refuted (with witnesses: the
serialized instance plus its binding).  :func:`replay_witness` rebuilds
the instance, re-evaluates it and compares bindings, so a witness with
an altered binding no longer replays.

Instance spaces are combinations of
  - all posets on up to ``n_bound`` elements, one representative per
    isomorphism class: its least natural labelling, generated from the
    representatives one size smaller (``_representatives``),
  - all unary maps or all antitone involutions on each poset, the
    latter built once per size (``_involutive_representatives``),
  - all meet-operation assignments, capped per poset (deterministic
    first-k sampling in canonical order; reports carry a sampled flag).

Spaces yield one ``Group`` per source.  A map group evaluates only some
of its poset's maps, with the verdicts, witnesses and instance counts of
the full n^n sweep (``_map_space`` says why): for Lem-4.1 the antitone
involutions and the maps under which (1)/(2) hold on some table, both
sets found by one pairing search (``involution._constrained_involutions``)
on different masks; for the four characterisations the antitone involutions.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import namedtuple

from .completion import dedekind_macneille
from .directoid import (ASSIGNMENT_CAP, _capped_assignments, _cells_in_cones,
                        _IdentityWalk, assignment_choices, check_derived_set_laws,
                        check_printed_u_pair_law, directoid_from_choices)
from .errors import DomainError, UsageError
from .involution import (InvolutivePoset, _constrained_involutions,
                         involution_from_pairs)
from .poset import (DISTRIBUTIVITY_FORMS, Poset, Verdict, _bits, _canonical,
                    _least_labelling)
from .residuation import AXIOMS, ResiduatedStructure, check_condition7
from .twist import (_part_i, _twist_kleene, check_embedding,
                    check_product_cones, twist)

ENUMERATION_BOUND = 6


# ---------------------------------------------------------------------------
# poset generation
# ---------------------------------------------------------------------------

def _search_nodes(downs):
    """Every node of ``_least_labelling``'s search on the least sequence
    ``downs`` (no map, no pin), without its twin skip and with its dead
    ends: each partial labelling whose sequence so far is ``downs``'s,
    as ``(placed, position, target)``, the mask of the placed elements,
    the bit of the position each holds, and ``downs[k]``, the mask the
    next position k must take (``None`` at a leaf, every element placed)."""
    n = len(downs)
    below = [tuple(_bits(d)) for d in downs]
    nodes, position = [], [0] * n

    def descend(k, placed):
        if k == n:
            nodes.append((placed, tuple(position), None))
            return
        target, unplaced = downs[k], ~placed
        nodes.append((placed, tuple(position), target))
        # no placeable element's mask is below ``target``, as ``downs`` is
        # least: the node is a dead end iff none has it
        for v in range(n):
            if (placed >> v) & 1 or downs[v] & unplaced:
                continue
            mask = 0
            for j in below[v]:
                mask |= position[j]
            if mask == target:
                position[v] = 1 << k
                descend(k + 1, placed | 1 << v)
                position[v] = 0

    descend(0, 0)
    return nodes


def _keeps_child(downs, nodes, d):
    """Whether ``downs + [d]`` is a least sequence, given ``nodes``, the
    ``_search_nodes`` of the least sequence ``downs``, and a down-set d
    of it: ``_representatives`` says why the answer is read off the
    nodes that place all of d, and searched only on a tie."""
    bits, tie = tuple(_bits(d)), False
    for placed, position, target in nodes:
        if d & ~placed:
            continue
        m = 0
        for j in bits:
            m |= position[j]
        if target is None:
            if m < d:
                return False
        elif m <= target:
            if m < target:
                return False
            tie = True
    return not tie or _least_labelling(downs + [d], _stop_below=True) is not None


@functools.cache
def _representatives(n):
    """One poset per isomorphism class on n elements, computed once per
    size; posets are immutable, so every caller shares the same tuple.

    A poset's canonical form is its least natural labelling: the
    lexicographically least sequence of strict down-masks over all its
    linear extensions.  Representatives are those least sequences, in
    increasing order, generated by canonical augmentation (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each
    (n - 1)-element representative, the parent, is extended by every
    down-set d of it as a new last element e, in increasing mask order,
    and the child is kept iff its sequence is least.

    - The first n - 1 entries of the least sequence of P are the least
      sequence of P minus its last element, which is maximal: a smaller
      labelling of that suborder, followed by the same last element,
      would be a smaller labelling of P.  So every class is reached from
      exactly one parent with exactly one mask, and no class twice.
    - Parents come in increasing order and masks in increasing order, so
      the children come in increasing order too.  That is the order, and
      the set, of keeping the first poset of each class while walking
      every natural labelling in lexicographic order.
    - Least sequences are nondecreasing, so the masks start at the
      parent's last.  The least labelling places at each position the
      least mask any placeable element gives.  An element placeable then
      but not placed keeps its mask, which is no smaller; an element that
      the placement at position k makes placeable is above that element,
      so its mask has bit k and exceeds the mask placed at k, which has
      bits below k only.  A child whose last mask is below its parent's
      last is not least, and would be tested only to be dropped.
    - d is a down-set iff the union of the strict down-sets of its
      elements lies in d; that union is one table per parent,
      ``closure[s] = closure[s - low] | downs[low]`` for the lowest bit
      low of s.

    Whether a child is least is read off its parent's search
    (``_search_nodes``), built once per parent and shared by its
    children.  The child is least iff its own search never falls below:
    at no node (a partial labelling whose sequence so far is the
    child's) is the least mask of a placeable element below the child's
    next entry.  e is below no element of the parent, so at a node that
    has not placed e each parent element is placeable with the mask it
    has at the same node of the parent's search, and e is placeable iff
    the node has placed all of d, with the mask m of d's positions.
    - At each parent node the parent's least mask is at least
      ``downs[k]``, as ``downs`` is least.  Where m is not below
      ``downs[k]``, the child's least mask is therefore ``downs[k]``
      wherever the parent's is, and the parent's ties are among the
      child's.  So, down the parent's tree, the child's search reaches
      every parent node, dead ends (least mask above ``downs[k]``)
      included, unless it fell below at an earlier one.
    - Hence the child is not least if m is below the target at some
      parent node: ``downs[k]`` at an inner node, d at a leaf, where e
      is the one element left.
    - Otherwise the child's search falls below at no parent node, and
      leaves the parent's tree only where e ties: at an inner node with
      m equal to ``downs[k]`` (at a leaf, m equal to d completes the
      child's own sequence).  With no tie the child is least; with one,
      only that child is decided by ``_least_labelling`` itself, whose
      twin skip holds for the child's own order.
    - The parent's nodes are listed without the twin skip: d can hold
      one of two parent twins and not the other, so the branch the skip
      would drop may be the one where m falls below."""
    if n == 0:
        return (Poset((), (), _validated=True),)
    labels, full, top = tuple(f"x{i}" for i in range(n)), (1 << n) - 1, 1 << (n - 1)
    index = {name: i for i, name in enumerate(labels)}
    reps = []
    for parent in _representatives(n - 1):
        downs = [parent._down[i] & ~(1 << i) for i in range(n - 1)]
        nodes = _search_nodes(downs)
        closure = [0]
        for s in range(1, 1 << (n - 1)):
            low = s & -s
            closure.append(closure[s ^ low] | downs[low.bit_length() - 1])
        for d in range(downs[-1] if downs else 0, 1 << (n - 1)):
            if closure[d] & ~d or not _keeps_child(downs, nodes, d):
                continue
            # the Poset its constructor would build, without transposing:
            # e is above the elements of d and below none
            child = object.__new__(Poset)
            for name, value in (
                    ("labels", labels), ("n", n), ("_index", index), ("_full", full),
                    ("_down", parent._down + (d | top,)),
                    ("_up", tuple(u | top if d >> i & 1 else u
                                  for i, u in enumerate(parent._up)) + (top,)),
                    ("_memo", {})):
                object.__setattr__(child, name, value)
            reps.append(child)
    return tuple(reps)


def enumerate_posets(n):
    """One representative of each isomorphism class of posets on n
    elements, in increasing order of the canonical form (see
    :func:`_representatives`)."""
    if n < 1:
        raise UsageError("element count must be at least 1")
    if n > ENUMERATION_BOUND:
        raise DomainError(f"n={n} exceeds the enumeration bound {ENUMERATION_BOUND}")
    return _representatives(n)


def enumerate_involutions(p):
    """All antitone involutions of p, lexicographic by the map tuple: the
    involutions u with m <= y implying u[y] <= u[m]
    (``involution._constrained_involutions`` on p's own masks)."""
    if not isinstance(p, Poset):
        raise UsageError("enumerate_involutions takes a plain Poset; pass ip.base")
    return tuple(_constrained_involutions(p._down, p._up, p._down, p._up))


@functools.cache
def _involutive_representatives(n):
    """Each representative on n elements with each of its antitone
    involutions, in that nested order, built once per size and shared by
    every involutive space and the map spaces: all an instance carries
    between claims are memoised verdicts (``poset._memoised`` says why
    that changes no result).  Each map comes from
    ``enumerate_involutions``, so its involution verdict is recorded as
    valid when built, and no claim pays for checking it."""
    return tuple(InvolutivePoset._antitone(p, inv) for p in enumerate_posets(n)
                 for inv in enumerate_involutions(p))


@functools.cache
def _involutive_groups(n):
    """``_involutive_representatives(n)`` by base poset, in order: the
    one grouping every space reads its involutive instances from."""
    return {p: tuple(ips) for p, ips in itertools.groupby(
        _involutive_representatives(n), lambda ip: ip.base)}


# ---------------------------------------------------------------------------
# instance spaces and witness serialization
# ---------------------------------------------------------------------------

def iter_posets(n_bound):
    for n in range(1, n_bound + 1):
        yield from enumerate_posets(n)


def iter_directed(n_bound):
    return filter(Poset.is_downward_directed, iter_posets(n_bound))


def iter_involutive(n_bound):
    for n in range(1, n_bound + 1):
        yield from _involutive_representatives(n)


def serialize_poset(p):
    return {
        "elements": list(p.labels),
        "covers": [[p.labels[a], p.labels[b]] for a, b in p.covers()],
    }


def serialize_involutive(ip):
    doc = serialize_poset(ip.base)
    doc["involution"] = {ip.labels[i]: ip.labels[ip.inv[i]]
                         for i in range(ip.n) if i <= ip.inv[i]}
    return doc


def poset_from_witness(doc):
    return Poset.from_covers(tuple(doc["elements"]),
                             tuple((a, b) for a, b in doc["covers"]))


def involutive_from_witness(doc):
    p = poset_from_witness(doc)
    inv = involution_from_pairs(p.labels, tuple(doc["involution"].items()))
    return InvolutivePoset(p, inv)


class Group:
    """One source's instances in sweep order (``members``) and what they
    share: ``count``, the instances they stand for (n^n in a map group,
    else one per member), with each member's rank among them in ``ranks``
    where it is not its index; ``sampled``; its source's ``tables``,
    ``cells`` and identity ``walk``; and its base poset's plain
    ``completion``, built on first read.  A group lives for one sweep."""

    def __init__(self, members, sampled=False, tables=None, cells=None,
                 walk=None, count=None, ranks=None):
        self.members, self.sampled, self.ranks = members, sampled, ranks
        self.tables, self.cells, self.walk, self._completion = tables, cells, walk, None
        self.count = len(members) if count is None else count

    @property
    def completion(self):
        if self._completion is None:
            self._completion = dedekind_macneille(self.members[0].base)
        return self._completion


class InstanceSpace(namedtuple("InstanceSpace",
                               "description sweep serialize rebuild capped",
                               defaults=(False,))):
    """``sweep(n_bound, cap)`` yields one ``Group`` per source in
    canonical order.  ``capped`` if it cuts assignments at ``cap``;
    ``serialize`` turns an instance into witness fields, and ``rebuild``
    turns them back into ``(group, instance)``."""

    __slots__ = ()


def _alone(build):
    """A rebuild: the instance ``build`` makes, in a group of its own."""
    def rebuild(witness):
        instance = build(witness)
        return Group((instance,)), instance
    return rebuild


def _involutive(description, keep_base=None, keep=None):
    """Posets with an antitone involution: a group per poset that passes
    ``keep_base``, holding those of its instances that pass ``keep``."""
    def sweep(n_bound, cap):
        for n in range(1, n_bound + 1):
            for p, ips in _involutive_groups(n).items():
                if keep_base is None or keep_base(p):
                    yield Group(ips if keep is None else [ip for ip in ips if keep(ip)])
    return InstanceSpace(description, sweep, serialize_involutive,
                         _alone(involutive_from_witness))


def _bounded(p):
    return None not in p.bounds()


def _bounded_lu(p):
    return _bounded(p) and p.is_distributive("LU").ok


def _condition7(ip):
    return (_bounded(ip)
            and ip.is_strict().ok and ip.base.is_distributive("LU").ok
            and check_condition7(ip).ok)


# A plain poset shares nothing with another, so its size is its source.
POSETS = InstanceSpace(
    "all posets up to isomorphism",
    lambda n_bound, cap: (Group(enumerate_posets(n)) for n in range(1, n_bound + 1)),
    serialize_poset, _alone(poset_from_witness))
INVOLUTIVE = _involutive("all posets with an antitone involution")
BOUNDED = _involutive("bounded posets with an antitone involution", _bounded)
BOUNDED_LU = _involutive(
    "bounded distributive posets with an antitone involution", _bounded_lu)
CONDITION7 = _involutive(
    "bounded strict Kleene posets satisfying condition (7)", _bounded, _condition7)


def _assigned(description, sources, serialize, source_from_witness):
    """Each source alone in its group, with a lazy iterator over its first
    ``cap`` assignments and its cells (``directoid._cells_in_cones``), all
    from one base table.  A rebuilt witness's group holds its one table
    and no cells, so a replay evaluates the table it is given."""
    def sweep(n_bound, cap):
        for source in sources(n_bound):
            count, cells, tables = _capped_assignments(source, cap)
            yield Group((source,), count > cap, tables, cells)

    def rebuild(witness):
        source = source_from_witness(witness)
        table = directoid_from_choices(source, witness["binding"]["choices"])
        return Group((source,), tables=[table]), source

    return InstanceSpace(description, sweep, serialize, rebuild, capped=True)


DIRECTED_ASSIGNED = _assigned(
    "downward directed posets x assignments (capped)",
    iter_directed, serialize_poset, poset_from_witness)
# An antitone involution sends a least element to a greatest one, so an
# involutive poset is downward directed (has a bottom) iff it is bounded.
DIRECTED_INVOLUTIVE_ASSIGNED = _assigned(
    "downward directed posets with antitone involution x assignments (capped)",
    lambda n: (ip for group in BOUNDED.sweep(n, None) for ip in group.members),
    serialize_involutive, involutive_from_witness)


def _map_space(table_side=False):
    """Every unary map on each directed poset p, of which only p's
    antitone involutions are built and evaluated, on p's capped tables,
    in lexicographic order; with ``table_side``, so are the maps under
    which (1)/(2) hold on some of those tables
    (``_IdentityWalk.maps_passing``).  Each poset is one group of count
    n^n, the maps a full product loop visits, whose members are the
    evaluated maps, each ranked sum(u[i] * n^(n-1-i)) in that loop, and
    whose ``walk`` is one identity walk over p's map-free tables.  A
    member is the shared instance of ``_involutive_groups``
    (``poset._memoised``), so the search behind it runs once per poset
    and process; only a map found on the table side alone is fresh.

    A skipped map cannot change a verdict if both sides of every rung are
    False on every table.  Its order side is False if it is not an
    antitone involution of p: every rung's order side requires one.
      - ``UNARY_MAPS`` (Lem-4.1) evaluates the antitone involutions (the
        order side) and, as its table side, the maps under which (1)/(2)
        hold on some table.  Outside both, (1)/(2) fail on every table,
        so every table side is False as well.
      - ``ANTITONE_MAPS`` (the four characterisations) evaluates the
        antitone involutions alone, and builds no table on a poset
        without one.  The skip rests on Lemma 4.1, at the bounds Lem-4.1
        confirms.  Whatever the choices, ``lower[a]`` and ``cols[a]`` are
        the down-set L(a) on an assigned table
        (``directoid._cells_in_cones`` says why).  Then (2) holds iff y'
        is in ``lower[m']`` for every y and m in ``cols[y]``
        (``directoid._IdentityWalk`` says why), that is, iff m <= y
        implies y' <= m': iff the map is antitone.  Without x'' = x, (1)
        fails.  So (1)/(2) hold exactly when the map is an antitone
        involution of p."""
    def sweep(n_bound, cap):
        for p in iter_directed(n_bound):
            chosen = {ip.inv: ip for ip in _involutive_groups(p.n).get(p, ())}
            total, _, tables = _capped_assignments(p, cap if chosen or table_side else 0)
            walk = _IdentityWalk(tables)
            if table_side:
                for unary in walk.maps_passing():
                    if unary not in chosen:
                        chosen[unary] = InvolutivePoset(p, unary)
            maps = sorted(chosen)
            yield Group([chosen[u] for u in maps], total > cap, walk=walk, count=p.n ** p.n,
                        ranks=[functools.reduce(lambda r, v: r * p.n + v, u, 0) for u in maps])
    return InstanceSpace(
        "downward directed posets x all unary maps x assignments (capped)",
        sweep, _map_serialize, _map_rebuild, capped=True)


def _map_serialize(ip):
    doc = serialize_poset(ip.base)
    doc["unary_map"] = {ip.labels[i]: ip.labels[ip.inv[i]] for i in range(ip.n)}
    return doc


def _map_rebuild(witness):
    p = poset_from_witness(witness)
    unary_map = witness["unary_map"]
    missing = [lab for lab in p.labels if lab not in unary_map]
    if missing:
        raise UsageError(f"unary map does not cover: {', '.join(missing)}")
    for lab in unary_map:
        if lab not in p.labels:
            raise UsageError(f"unknown element name {lab!r}")
    ip = InvolutivePoset(p, tuple(p.index(unary_map[lab]) for lab in p.labels))
    table = directoid_from_choices(p, witness["binding"]["choices"])
    return Group((ip,), walk=_IdentityWalk([table])), ip


UNARY_MAPS = _map_space(table_side=True)
ANTITONE_MAPS = _map_space()


def _pivot_serialize(instance):
    p, a = instance
    doc = serialize_poset(p)
    doc["pivot"] = p.labels[a]
    return doc


def _pivot_rebuild(witness):
    p = poset_from_witness(witness)
    return p, p.index(witness["pivot"])


PIVOTS = InstanceSpace(
    "all posets x all pivots",
    lambda n_bound, cap: (Group([(q, a) for a in range(q.n)]) for q in iter_posets(n_bound)),
    _pivot_serialize, _alone(_pivot_rebuild))


# ---------------------------------------------------------------------------
# the claim registry
# ---------------------------------------------------------------------------

class AuditReport(namedtuple("AuditReport", (
        "claim statement n_bound assignment_cap space instances confirmed "
        "witnesses sampled"))):
    """``assignment_cap`` is None on a space that cuts no assignments."""

    __slots__ = ()

    @property
    def verdict(self):
        return "Confirmed" if self.confirmed else "Refuted"

    def to_dict(self):
        return {
            "claim": self.claim,
            "statement": self.statement,
            "n_bound": self.n_bound,
            "assignment_cap": self.assignment_cap,
            "space": self.space,
            "instances": self.instances,
            "verdict": self.verdict,
            "sampled": self.sampled,
            "witnesses": [dict(w) for w in self.witnesses],
        }


class Claim:
    """A statement checked over ``instance_space``: ``evaluate(group,
    instance)`` returns ``None`` where it holds on a member of a group,
    and otherwise the violation's binding.  Immutable, with its fields in
    the instance ``__dict__``: ``benchmarks/tracing.py`` finds the
    evaluators' closures through ``vars(claim)``."""

    def __init__(self, claim_id, statement, instance_space, evaluate, default_n=5):
        vars(self).update(claim_id=claim_id, statement=statement,
                          instance_space=instance_space, evaluate=evaluate,
                          default_n=default_n)

    def __setattr__(self, name, value):
        raise AttributeError("Claim is immutable")

    def _replace(self, **changes):
        return Claim(**{**vars(self), **changes})

    @property
    def space(self):
        return self.instance_space.description

    def run(self, n_bound=None, assignment_cap=ASSIGNMENT_CAP, collect_all=False):
        n_bound = self.default_n if n_bound is None else n_bound
        if n_bound < 1:
            raise UsageError("size bound must be at least 1")
        if assignment_cap < 1:
            raise UsageError("assignment cap must be at least 1")
        if n_bound > ENUMERATION_BOUND:
            raise DomainError(
                f"n={n_bound} exceeds the enumeration bound {ENUMERATION_BOUND}")
        space, evaluate = self.instance_space, self.evaluate
        instances, witnesses, sampled = 0, [], False
        for group in space.sweep(n_bound, assignment_cap):
            sampled = sampled or group.sampled
            for i, instance in enumerate(group.members):
                binding = evaluate(group, instance)
                if binding is not None:
                    witness = space.serialize(instance)
                    witness["binding"] = binding
                    witnesses.append(witness)
                    if not collect_all:
                        break
            else:
                instances += group.count
                continue
            instances += 1 + (i if group.ranks is None else group.ranks[i])
            break
        return AuditReport(
            claim=self.claim_id,
            statement=self.statement,
            n_bound=n_bound,
            assignment_cap=assignment_cap if space.capped else None,
            space=self.space,
            instances=instances,
            confirmed=not witnesses,
            witnesses=tuple(witnesses),
            sampled=sampled)

    def replay(self, witness):
        """Re-evaluate the rebuilt instance; True when its binding comes back.
        A malformed witness is a usage error that names the claim."""
        if not isinstance(witness, dict):
            raise UsageError(f"{self.claim_id} witness is not an object")
        try:
            group, instance = self.instance_space.rebuild(witness)
            binding = witness["binding"]
        except KeyError as missing:
            raise UsageError(f"{self.claim_id} witness has no field "
                             f"{missing.args[0]!r}") from None
        except (UsageError, TypeError, ValueError, AttributeError) as exc:
            raise UsageError(f"{self.claim_id} witness is malformed: {exc}") from None
        if not isinstance(binding, dict):
            raise UsageError(f"{self.claim_id} witness binding is not an object")
        return (json.dumps(self.evaluate(group, instance), sort_keys=True)
                == json.dumps(binding, sort_keys=True))


# -- per-claim evaluators -----------------------------------------------------

def _forms_equivalent(_, p):
    """Reads whether each form holds; the details are rendered only for
    a binding."""
    failures = p._distributivity(DISTRIBUTIVITY_FORMS)
    oks = {form: failures[form] is None for form in DISTRIBUTIVITY_FORMS}
    if len(set(oks.values())) == 1:
        return None
    verdicts = p.distributivity_all_forms()
    return {
        "forms": oks,
        "details": {form: verdicts[form].detail
                    for form in DISTRIBUTIVITY_FORMS if not oks[form]},
    }


def _lem11(_, ip):
    """Every pair with a <= b and L(b, a') one element, which in a bounded
    order is 0.  An unbounded or non-distributive instance (a replay
    outside the space) gets ``lemma11_holds``'s ``DomainError`` before the
    scan, whether or not some pair qualifies."""
    ip._lemma11_bounds()
    p = ip.base
    for a, b in itertools.product(range(p.n), repeat=2):
        if (p.leq(a, b) and (p._down[b] & p._down[ip.inv[a]]).bit_count() == 1
                and not ip.lemma11_holds(a, b).ok):
            return {"a": p.labels[a], "b": p.labels[b]}
    return None


def _lem22(_, ip):
    if not ip.is_pseudo_kleene().ok:
        return None
    fixed = ip.fixed_points()
    if len(fixed) <= 1:
        return None
    return {"fixed_points": list(fixed.labels)}


def _completion_agreement(predicate_name):
    """Thm-3.1 and Thm-3.2 compare a predicate on an instance and on its
    cut completion.  Only the star of a completion depends on the map, so
    each instance adds its star to its group's plain completion
    (``CompletionLattice._with_involution``), and the lattice and
    distributivity verdicts memoised on that completion's order are
    shared by the poset's involutions."""
    def evaluate(group, ip):
        dm = group.completion._with_involution(ip)
        dm_ip = dm.as_involutive_poset()
        side_p = getattr(ip, predicate_name)().ok
        side_dm = getattr(dm_ip, predicate_name)().ok and dm_ip.is_lattice().ok
        if side_p == side_dm:
            return None
        return {
            "base": side_p,
            "completion": side_dm,
            "completion_elements": [dm.ideal(i).render() for i in range(dm.n)],
        }
    return evaluate


# Directoid characterisations: rung -> (order property, read on a valid
# antitone involution; the conditions past (1)/(2) its table side needs).
_RUNGS = {
    "involution": (lambda ip: True, ()),
    "pk": (lambda ip: ip.is_pseudo_kleene().ok, (3,)),
    "kleene": (lambda ip: ip.is_kleene().ok, (3, 4)),
    "strong": (lambda ip: ip.is_strong().ok, (5,)),
    "strict": (lambda ip: ip.is_strict().ok, (6,)),
    "strict-kleene": (lambda ip: (ip.is_strict().ok
                                  and ip.base.is_distributive("LU").ok), (4, 6)),
}


def _directoid_characterization(*rungs):
    """Each rung's two sides must agree on every table; with two rungs the
    binding names the failing one as ``part`` i or ii.  Lem-4.1 runs on
    the maps either side can satisfy, the rest only on antitone
    involutions (``_map_space`` says why skipping the others is exact).
    The order sides read the shared instance (``poset._memoised``), the
    table sides its group's identity walk; tables are walked in order, so
    the first mismatch and its ``choices`` (read off the map-free table)
    are those of a per-table scan."""
    def evaluate(group, ip):
        walk = group.walk
        valid = ip.check_antitone_involution().ok
        # A finite directed order has a bottom; a valid map sends it to a top.
        bounds = ip.bounds() if valid else (0, 0)   # read only if (1)/(2) hold
        order_sides = [valid and _RUNGS[r][0](ip) for r in rungs]
        # a replayed map need not be involutive; then (1) fails on every table
        walk.under(ip.inv, bounds)
        if not any(walk.passing + order_sides):
            return None    # every side of every table is False
        for i, table in enumerate(walk.tables):
            for part, order_side, rung in zip(("i", "ii"), order_sides, rungs):
                directoid_side = walk.holds(i, *_RUNGS[rung][1])
                if order_side != directoid_side:
                    binding = {"part": part} if len(rungs) > 1 else {}
                    binding.update(order_side=order_side,
                                   directoid_side=directoid_side,
                                   choices=assignment_choices(table, ip))
                    return binding
        return None
    return evaluate


def _lem46(_, ip):
    if not ip.is_strong().ok:
        return None
    pk = ip.is_pseudo_kleene()
    if pk.ok:
        return None
    return {"strong": True, "pseudo_kleene": False, "detail": pk.detail}


def _strict_implies_strong(_, ip):
    if not ip.is_strict().ok or ip.is_strong().ok:
        return None
    return {"strict": True, "strong": False}


def _boolean_implies_strict_kleene(_, ip):
    if not ip.is_boolean_poset().ok:
        return None
    if ip.is_strict().ok and ip.is_kleene().ok:
        return None
    return {"boolean": True, "strict": ip.is_strict().ok,
            "kleene": ip.is_kleene().ok}


def _thm52(_, ip):
    report = ResiduatedStructure(ip).verify_kleene_residuated()
    if report.all_ok:
        return None
    failing = [name for name in AXIOMS if not getattr(report, name).ok]
    return {
        "failing": failing,
        "detail": getattr(report, failing[0]).detail,
    }


def _thm54(_, ip):
    failing = ResiduatedStructure(ip).theorem54_checks().violations
    if not failing:
        return None
    return {"failing": {k: v.verdict.detail for k, v in failing.items()}}


def _decided_on_cells(group, source):
    """Whether an assigned instance is decided on its group's cells: they
    lie in their cones, and a map, if any, is an antitone involution;
    then every table passes Directoid-roundtrip and Derived-set-laws
    (``directoid._cells_in_cones`` says why).  A replay has no cells."""
    if group.cells is None:
        return False
    if isinstance(source, InvolutivePoset):
        if not source.check_antitone_involution().ok:
            return False
        source = source.base
    return _cells_in_cones(source, *group.cells)


def _assignment_law(checker, on_cells=False):
    """The first table failing ``checker``, with the failure's detail if
    it has one; with ``on_cells``, none where the instance is decided on
    its cells (:func:`_decided_on_cells`)."""
    def evaluate(group, source):
        if on_cells and _decided_on_cells(group, source):
            return None
        for d in group.tables:
            verdict = checker(d, source)
            if not verdict.ok:
                detail = {"detail": verdict.detail} if verdict.detail else {}
                return {"choices": assignment_choices(d, source), **detail}
        return None
    return evaluate


def _roundtrip(d, p):
    """``d`` induces ``p`` (a failure without detail) and is a
    commutative meet-directoid."""
    return d.check_directoid_axioms() if d._induces(p) else Verdict(False)


def _twist_kleene_agreement(_, instance):
    q, a = instance
    kleene = _twist_kleene(twist(q, a))
    q_dist = q.is_distributive("LU")
    if q_dist.ok == kleene.ok:
        return None
    detail = (f"source distributive: {q_dist.ok}; twist Kleene: {kleene.ok}"
              + (f"; {kleene.detail}" if kleene.detail else ""))
    return {
        "detail": detail,
        "source_distributive": q_dist.ok,
        "twist_kleene": kleene.ok,
    }


def _twist_check(check):
    """A claim read off the twist alone by ``check``, which returns a
    verdict; computes only that part, not the whole Thm 6.1 audit."""
    def evaluate(_, instance):
        verdict = check(twist(*instance))
        return None if verdict.ok else {"detail": verdict.detail}
    return evaluate


# -- registry ------------------------------------------------------------------

CLAIMS = {claim_id: Claim(claim_id, *spec) for claim_id, spec in {
    "Distributivity-forms-equivalent": (
        "the four cone-identity forms of distributivity hold or fail together",
        POSETS, _forms_equivalent),
    "Lem-1.1": (
        "in a bounded distributive order with antitone involution, a <= b with "
        "L(b,a') = {0} forces L(a,a') = L(b,b') = {0} and U(a,a') = U(b,b') = {1}",
        BOUNDED_LU._replace(description=BOUNDED_LU.description
                            + ", all valid pairs"), _lem11),
    "Lem-2.2": (
        "a pseudo-Kleene order has at most one fixed point",
        INVOLUTIVE, _lem22),
    "Thm-3.1": (
        "the cut completion is a pseudo-Kleene lattice exactly when the base "
        "order is pseudo-Kleene",
        INVOLUTIVE, _completion_agreement("is_pseudo_kleene")),
    "Thm-3.2": (
        "the cut completion is a Kleene lattice exactly when the base order "
        "is Kleene",
        INVOLUTIVE, _completion_agreement("is_kleene")),
    "Lem-4.1": (
        "identities (1) and (2) hold in every assigned meet operation exactly "
        "when the unary map is an antitone involution",
        UNARY_MAPS, _directoid_characterization("involution"),
        ENUMERATION_BOUND),
    "Thm-4.2": (
        "identities (1)-(3) characterize the pseudo-Kleene property",
        ANTITONE_MAPS, _directoid_characterization("pk"),
        ENUMERATION_BOUND),
    "Thm-4.3": (
        "identities (1)-(3) plus implication (4) characterize the Kleene "
        "property",
        ANTITONE_MAPS, _directoid_characterization("kleene"),
        ENUMERATION_BOUND),
    "Lem-4.6": (
        "every strong pseudo-Kleene order is pseudo-Kleene",
        INVOLUTIVE, _lem46),
    "Thm-4.8": (
        "identities (1), (2) plus implication (5) characterize the strong "
        "pseudo-Kleene property",
        ANTITONE_MAPS, _directoid_characterization("strong"),
        ENUMERATION_BOUND),
    "Thm-4.11": (
        "identities (1), (2) plus implication (6) characterize strictness, "
        "and adding implication (4) characterizes strict Kleene",
        ANTITONE_MAPS, _directoid_characterization("strict", "strict-kleene"),
        ENUMERATION_BOUND),
    "Thm-5.2": (
        "on a bounded strict Kleene order where nonzero pairs have nonzero "
        "lower bounds, the two operators form a residuated structure",
        CONDITION7, _thm52),
    "Thm-5.4": (
        "the tiered operator dualities: (i)/(ii) always, (iii)/(iv) under "
        "condition (7), (v) under strict Kleene",
        BOUNDED, _thm54),
    "Derived-set-laws": (
        "cones are recoverable from any assigned meet operation (inner-join "
        "reading of the pair law)",
        DIRECTED_INVOLUTIVE_ASSIGNED, _assignment_law(check_derived_set_laws, on_cells=True)),
    "U-pair-law-printed": (
        "the inner-meet reading of the pair law U(x,y) = {(z v x) ^ (z v y)}",
        DIRECTED_INVOLUTIVE_ASSIGNED, _assignment_law(check_printed_u_pair_law)),
    "Directoid-roundtrip": (
        "every assignment is a commutative meet-directoid and induces the "
        "original order",
        DIRECTED_ASSIGNED, _assignment_law(_roundtrip, on_cells=True)),
    "Thm-6.1-i": (
        "every twist is pseudo-Kleene with exactly the pivot pair fixed",
        PIVOTS, _twist_check(_part_i), 4),
    "Thm-6.1-ii": (
        "x -> (x, a) embeds the source into its twist",
        PIVOTS, _twist_check(check_embedding), 4),
    "Thm-6.1-iii": (
        "the source is distributive exactly when its twist is Kleene",
        PIVOTS, _twist_kleene_agreement, 4),
    "Twist-cone-product-restricted": (
        "twist cones equal the product cones intersected with the carrier",
        PIVOTS, _twist_check(lambda t: check_product_cones(t, restricted=True)),
        3),
    "Twist-cone-product-unrestricted": (
        "twist cones equal the unrestricted product cones",
        PIVOTS, _twist_check(lambda t: check_product_cones(t, restricted=False)),
        3),
    "Strict-implies-strong": (
        "every strict pseudo-Kleene order is strong",
        BOUNDED, _strict_implies_strong),
    "Boolean-implies-strict-kleene": (
        "every Boolean order is a strict Kleene order",
        BOUNDED_LU, _boolean_implies_strict_kleene),
}.items()}

# Every lemma and theorem also answers to its spelled-out name.
ALIASES = {"Thm-2.2-unique-fixed-point": "Lem-2.2"}
ALIASES.update((cid.replace("Lem-", "Lemma-").replace("Thm-", "Theorem-"), cid)
               for cid in CLAIMS if cid.startswith(("Lem-", "Thm-")))


def isomorphic_with_pin(p, pin_p, q, pin_q):
    """Is there an order isomorphism p -> q sending pin_p to pin_q?"""
    if not (isinstance(p, Poset) and isinstance(q, Poset)):
        raise UsageError("isomorphic_with_pin compares plain Posets; pass ip.base")
    return _canonical(p, pin=p.index(pin_p))[0] == _canonical(q, pin=q.index(pin_q))[0]


def claim_ids():
    return tuple(sorted(CLAIMS))


def resolve_claim(claim_id):
    name = ALIASES.get(claim_id, claim_id)
    claim = CLAIMS.get(name)
    if claim is None:
        known = ", ".join(claim_ids())
        raise UsageError(f"unknown claim {claim_id!r}; known claims: {known}")
    return claim


def audit(claim_id, n_bound=None, assignment_cap=ASSIGNMENT_CAP, collect_all=False):
    """Run one registered claim's audit over its bounded instance space."""
    return resolve_claim(claim_id).run(n_bound=n_bound,
                                       assignment_cap=assignment_cap,
                                       collect_all=collect_all)


def replay_witness(claim_id, witness):
    """Rebuild and re-evaluate one serialized witness; True when it yields
    the same binding."""
    return resolve_claim(claim_id).replay(witness)


def replay_report(report):
    """Every witness of a report must reproduce its violation."""
    return all(replay_witness(report.claim, w) for w in report.witnesses)
