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
    isomorphism class (canonical-form deduplication),
  - all unary maps or all antitone involutions on each poset,
  - all meet-operation assignments, capped per poset (deterministic
    first-k sampling in canonical order; reports carry a sampled flag).

The unary-map space builds only the involutive maps (x'' = x) and counts
every other map in runs without evaluating it (``_map_sweep`` gives the
argument); verdicts, witnesses and instance counts are those of the full
n^n sweep, and the five directoid claims default to n =
``ENUMERATION_BOUND``.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, replace
from typing import Callable, Optional

from .completion import dedekind_macneille
from .directoid import (MeetDirectoid, assignment_choices, assignment_count,
                        check_derived_set_laws, check_printed_u_pair_law,
                        directoid_from_choices, iter_assignments)
from .errors import DomainError, UsageError
from .involution import InvolutivePoset, involution_from_pairs
from .poset import DISTRIBUTIVITY_FORMS, Poset, _bits
from .residuation import ResiduatedStructure, check_condition7
from .twist import audit_theorem61, check_product_cones, twist

ENUMERATION_BOUND = 6


# ---------------------------------------------------------------------------
# poset generation
# ---------------------------------------------------------------------------

def _natural_strict_downs(n):
    """All transitively closed strict orders in which the element index
    order is a linear extension; yields lists of down-masks."""
    downs = [0] * n

    def extend(k):
        if k == n:
            yield list(downs)
            return
        for d in range(1 << k):
            ok = True
            for j in _bits(d):
                if downs[j] & ~d:
                    ok = False
                    break
            if ok:
                downs[k] = d
                yield from extend(k + 1)

    yield from extend(0)


def _labels(n):
    return tuple(f"x{i}" for i in range(n))


def _poset_from_strict_downs(n, downs):
    up = [1 << i for i in range(n)]
    for k in range(n):
        for j in _bits(downs[k]):
            up[j] |= 1 << k
    return Poset(_labels(n), up, _validated=True)


def _signatures(p):
    """Iterated iso-invariant colouring (degree refinement)."""
    n = p.n
    colors = [(p._down[i].bit_count(), p._up[i].bit_count()) for i in range(n)]
    for _ in range(n):
        sigs = []
        for i in range(n):
            below = sorted(colors[j] for j in _bits(p._down[i]))
            above = sorted(colors[j] for j in _bits(p._up[i]))
            sigs.append((colors[i], tuple(below), tuple(above)))
        ranks = {s: r for r, s in enumerate(sorted(set(sigs)))}
        new = [ranks[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _encode_under(p, perm):
    """Relation matrix of p relabelled by perm, packed into one int."""
    n = p.n
    key = 0
    bit = 1
    for i in range(n):
        oi = perm[i]
        for j in range(n):
            if p.leq(oi, perm[j]):
                key |= bit
            bit <<= 1
    return key


def canonical_key(p):
    """Minimum relation encoding over all colour-respecting relabellings;
    two posets are isomorphic iff their keys are equal."""
    colors = _signatures(p)
    blocks = {}
    for i, c in enumerate(colors):
        blocks.setdefault(c, []).append(i)
    ordered_blocks = [blocks[c] for c in sorted(blocks)]
    best = None
    for parts in itertools.product(*(itertools.permutations(b) for b in ordered_blocks)):
        perm = [i for part in parts for i in part]
        key = _encode_under(p, perm)
        if best is None or key < best:
            best = key
    return (p.n, best)


@functools.cache
def _representatives(n):
    """One poset per isomorphism class on n elements, computed once per
    size; posets are immutable, so every caller shares the same tuple."""
    reps = []
    seen = set()
    for downs in _natural_strict_downs(n):
        p = _poset_from_strict_downs(n, downs)
        key = canonical_key(p)
        if key not in seen:
            seen.add(key)
            reps.append(p)
    return tuple(reps)


def enumerate_posets(n, up_to_iso=True):
    """All posets on n elements in a deterministic order.  With
    ``up_to_iso`` (default) exactly one representative per isomorphism
    class is returned; otherwise every labelled poset."""
    if n < 1:
        raise UsageError("element count must be at least 1")
    if n > ENUMERATION_BOUND:
        raise DomainError(f"n={n} exceeds the enumeration bound {ENUMERATION_BOUND}")
    reps = _representatives(n)
    if up_to_iso:
        return reps
    labelled = set()
    for p in reps:
        for perm in itertools.permutations(range(n)):
            up = [0] * n
            for i in range(n):
                m = 0
                for j in _bits(p._up[i]):
                    m |= 1 << perm[j]
                up[perm[i]] = m
            labelled.add(tuple(up))
    return tuple(Poset(_labels(n), list(up), _validated=True)
                 for up in sorted(labelled))


def enumerate_involutions(p):
    """All antitone involutions of p, lexicographic by the map tuple."""
    n = p.n
    out = []
    mapping = [-1] * n

    def antitone_ok(x, y):
        # check x -> y against all previously assigned points
        for u in range(n):
            v = mapping[u]
            if v < 0:
                continue
            if p.leq(u, x) and not p.leq(y, v):
                return False
            if p.leq(x, u) and not p.leq(v, y):
                return False
        return True

    def extend():
        x = next((i for i in range(n) if mapping[i] < 0), -1)
        if x < 0:
            out.append(tuple(mapping))
            return
        for y in range(n):
            if y != x and mapping[y] >= 0:
                continue
            # pair x <-> y
            if p._down[x].bit_count() != p._up[y].bit_count():
                continue
            if p._up[x].bit_count() != p._down[y].bit_count():
                continue
            if not (antitone_ok(x, y) and (x == y or antitone_ok(y, x))):
                continue
            mapping[x] = y
            mapping[y] = x
            extend()
            mapping[x] = -1
            if y != x:
                mapping[y] = -1

    extend()
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# instance spaces and witness serialization
# ---------------------------------------------------------------------------

def iter_posets(n_bound):
    for n in range(1, n_bound + 1):
        yield from enumerate_posets(n)


def iter_directed(n_bound):
    return filter(Poset.is_downward_directed, iter_posets(n_bound))


def _with_involutions(posets):
    for p in posets:
        for inv in enumerate_involutions(p):
            yield InvolutivePoset(p, inv)


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


@dataclass(frozen=True)
class InstanceSpace:
    """``sweep(n_bound, cap)`` yields ``(instance, count, sampled)`` in
    canonical order: one instance with count 1, or ``None`` for a run of
    ``count`` instances settled without evaluation (see ``_map_sweep``).
    ``capped`` if it cuts assignments at ``cap``; ``serialize`` and
    ``rebuild`` turn an instance into witness fields and back."""
    description: str
    sweep: Callable
    serialize: Callable
    rebuild: Callable
    capped: bool = False


def _uncapped(iterate):
    return lambda n_bound, cap: ((inst, 1, False) for inst in iterate(n_bound))


def _involutive(description, keep):
    """Posets with an antitone involution, those failing ``keep`` dropped."""
    def iterate(n_bound):
        return filter(keep, _with_involutions(iter_posets(n_bound)))
    return InstanceSpace(description, _uncapped(iterate),
                         serialize_involutive, involutive_from_witness)


def _bounded(ip):
    return None not in ip.bounds()


def _bounded_lu(ip):
    return _bounded(ip) and ip.base.is_distributive("LU").ok


def _condition7(ip):
    return (_bounded(ip)
            and ip.is_strict().ok and ip.base.is_distributive("LU").ok
            and check_condition7(ip).ok)


POSETS = InstanceSpace("all posets up to isomorphism", _uncapped(iter_posets),
                       serialize_poset, poset_from_witness)
INVOLUTIVE = _involutive("all posets with an antitone involution",
                         lambda ip: True)
BOUNDED = _involutive("bounded posets with an antitone involution", _bounded)
BOUNDED_LU = _involutive(
    "bounded distributive posets with an antitone involution", _bounded_lu)
CONDITION7 = _involutive(
    "bounded strict Kleene posets satisfying condition (7)", _condition7)


def _assigned(description, sources, serialize, source_from_witness):
    """Each source with a lazy iterator over its first ``cap`` assignments."""
    def sweep(n_bound, cap):
        for source in sources(n_bound):
            yield ((source, itertools.islice(iter_assignments(source), cap)),
                   1, assignment_count(source) > cap)

    def rebuild(witness):
        source = source_from_witness(witness)
        choices = witness["binding"]["choices"]
        return source, [directoid_from_choices(source, choices)]

    return InstanceSpace(description, sweep, lambda inst: serialize(inst[0]),
                         rebuild, capped=True)


DIRECTED_ASSIGNED = _assigned(
    "downward directed posets x assignments (capped)",
    iter_directed, serialize_poset, poset_from_witness)
DIRECTED_INVOLUTIVE_ASSIGNED = _assigned(
    "downward directed posets with antitone involution x assignments (capped)",
    lambda n: _with_involutions(iter_directed(n)),
    serialize_involutive, involutive_from_witness)


@functools.cache
def _unary_map_runs(n):
    """All n^n maps of ``range(n)`` in lexicographic order as ``(map,
    count)`` items: each involution u (u(u(x)) = x) is its own item with
    count 1, and each maximal run of non-involutive maps between them
    (and after the last) is one ``(None, length)`` item.  The involutions
    are built as matchings with fixed points; a map's position in the
    order is its rank sum(u[i] * n^(n-1-i))."""
    def matchings(u, free):
        # Every entry before the lowest free point is settled, and that
        # point's partner is tried in increasing order, so the maps come
        # out in lexicographic order.
        if not free:
            yield tuple(u)
            return
        i = free[0]
        for j in free:
            u[i], u[j] = j, i
            yield from matchings(u, [k for k in free if k != i and k != j])

    items = []
    next_rank = 0
    for u in matchings([0] * n, list(range(n))):
        rank = 0
        for v in u:
            rank = rank * n + v
        if rank > next_rank:
            items.append((None, rank - next_rank))
        items.append((u, 1))
        next_rank = rank + 1
    if n ** n > next_rank:
        items.append((None, n ** n - next_rank))
    return tuple(items)


def _map_sweep(n_bound, cap):
    """Every unary map on each directed poset, sharing its capped tables.

    Only the involutive maps are built; each run of non-involutive maps
    is one item that counts its length and carries no instance.  This
    cannot change a verdict: without x'' = x, identity (1) fails in every
    assigned table and the map is not an antitone involution, so both
    sides of every rung are False and the map is never a witness.  The
    runs keep the lexicographic order, so ``instances`` counts exactly
    the maps a full product loop would have visited."""
    for p in iter_directed(n_bound):
        sampled = assignment_count(p) > cap
        tables = [d.meet for d in itertools.islice(iter_assignments(p), cap)]
        for unary, count in _unary_map_runs(p.n):
            yield (None if unary is None else (p, unary, tables)), count, sampled


def _map_serialize(instance):
    p, unary, _ = instance
    doc = serialize_poset(p)
    doc["unary_map"] = {p.labels[i]: p.labels[unary[i]] for i in range(p.n)}
    return doc


def _map_rebuild(witness):
    p = poset_from_witness(witness)
    unary = tuple(p.index(witness["unary_map"][lab]) for lab in p.labels)
    base = directoid_from_choices(p, witness["binding"]["choices"])
    return p, unary, [base.meet]


UNARY_MAPS = InstanceSpace(
    "downward directed posets x all unary maps x assignments (capped)",
    _map_sweep, _map_serialize, _map_rebuild, capped=True)


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
    _uncapped(lambda n: ((p, a) for p in iter_posets(n) for a in range(p.n))),
    _pivot_serialize, _pivot_rebuild)


# ---------------------------------------------------------------------------
# the claim registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditReport:
    claim: str
    statement: str
    n_bound: int
    assignment_cap: Optional[int]
    space: str
    instances: int
    confirmed: bool
    witnesses: tuple
    sampled: bool

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


@dataclass(frozen=True)
class Claim:
    """A statement checked over ``instance_space``: ``evaluate(instance)``
    returns ``None`` where the statement holds and otherwise the
    violation's binding."""
    claim_id: str
    statement: str
    instance_space: InstanceSpace
    evaluate: Callable
    default_n: int = 5

    @property
    def space(self):
        return self.instance_space.description

    def run(self, n_bound=None, assignment_cap=1000, collect_all=False):
        n_bound = self.default_n if n_bound is None else n_bound
        if n_bound < 1:
            raise UsageError("size bound must be at least 1")
        if assignment_cap < 1:
            raise UsageError("assignment cap must be at least 1")
        if n_bound > ENUMERATION_BOUND:
            raise DomainError(
                f"n={n_bound} exceeds the enumeration bound {ENUMERATION_BOUND}")
        space = self.instance_space
        instances = 0
        witnesses = []
        sampled = False
        for instance, count, capped in space.sweep(n_bound, assignment_cap):
            instances += count
            sampled = sampled or capped
            if instance is None:
                continue
            binding = self.evaluate(instance)
            if binding is not None:
                witness = space.serialize(instance)
                witness["binding"] = binding
                witnesses.append(witness)
                if not collect_all:
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
        """Re-evaluate the rebuilt instance; True when its binding comes back."""
        try:
            instance = self.instance_space.rebuild(witness)
            binding = witness["binding"]
        except KeyError as missing:
            raise UsageError(f"{self.claim_id} witness has no field "
                             f"{missing.args[0]!r}") from None
        return (json.dumps(self.evaluate(instance), sort_keys=True)
                == json.dumps(binding, sort_keys=True))


# -- per-claim evaluators -----------------------------------------------------

def _forms_equivalent(p):
    verdicts = p.distributivity_all_forms()
    oks = {form: verdicts[form].ok for form in DISTRIBUTIVITY_FORMS}
    if len(set(oks.values())) == 1:
        return None
    return {
        "forms": oks,
        "details": {form: verdicts[form].detail
                    for form in DISTRIBUTIVITY_FORMS if not verdicts[form].ok},
    }


def _lem11(ip):
    p = ip.base
    bottom, top = ip.bounds()
    zero = 1 << bottom
    one = 1 << top
    for a in range(p.n):
        for b in range(p.n):
            if not p.leq(a, b):
                continue
            if p._down[b] & p._down[ip.inv[a]] != zero:
                continue
            la = p._down[a] & p._down[ip.inv[a]]
            lb = p._down[b] & p._down[ip.inv[b]]
            ua = p._up[a] & p._up[ip.inv[a]]
            ub = p._up[b] & p._up[ip.inv[b]]
            if not (la == zero and lb == zero and ua == one and ub == one):
                return {"a": p.labels[a], "b": p.labels[b]}
    return None


def _lem22(ip):
    if not ip.is_pseudo_kleene().ok:
        return None
    fixed = ip.fixed_points()
    if len(fixed) <= 1:
        return None
    return {"fixed_points": list(fixed.labels)}


def _completion_agreement(predicate_name):
    def evaluate(ip):
        dm = dedekind_macneille(ip)
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
# antitone involution; directoid condition, read once (1)/(2) hold).
_RUNGS = {
    "involution": (lambda ip: True, lambda d, bounds: True),
    "pk": (lambda ip: ip.is_pseudo_kleene().ok,
           lambda d, bounds: d.check_identity_3().ok),
    "kleene": (lambda ip: ip.is_kleene().ok,
               lambda d, bounds: (d.check_identity_3().ok
                                  and d.check_implication_4().ok)),
    "strong": (lambda ip: ip.is_strong().ok,
               lambda d, bounds: d.check_implication_5().ok),
    "strict": (lambda ip: ip.is_strict().ok,
               lambda d, bounds: d.check_implication_6(*bounds).ok),
    "strict-kleene": (lambda ip: (ip.is_strict().ok
                                  and ip.base.is_distributive("LU").ok),
                      lambda d, bounds: (d.check_implication_4().ok
                                         and d.check_implication_6(*bounds).ok)),
}


def _directoid_characterization(*rungs):
    """Each rung's two sides must agree on every table; with two rungs the
    binding names the failing one as ``part`` i or ii."""
    def evaluate(instance):
        p, unary, tables = instance
        # The sweep yields only involutive maps; a replayed witness can
        # carry any map, and without x'' = x both sides are False.
        if any(unary[unary[x]] != x for x in range(p.n)):
            return None
        ip = InvolutivePoset(p, unary)
        valid = ip.check_antitone_involution().ok
        # A finite directed order has a bottom; a valid map sends it to a top.
        bounds = p.bounds() if valid else (0, 0)   # read only if (2) holds
        order_sides = [valid and _RUNGS[r][0](ip) for r in rungs]
        for table in tables:
            d = MeetDirectoid(table, inv=unary, labels=p.labels)
            holds = d.check_identities_1_2().ok
            directoid_sides = [holds and _RUNGS[r][1](d, bounds) for r in rungs]
            for part, order_side, directoid_side in zip(
                    ("i", "ii"), order_sides, directoid_sides):
                if order_side != directoid_side:
                    binding = {"part": part} if len(rungs) > 1 else {}
                    binding.update(order_side=order_side,
                                   directoid_side=directoid_side,
                                   choices=assignment_choices(d, p))
                    return binding
        return None
    return evaluate


def _lem46(ip):
    if not ip.is_strong().ok:
        return None
    pk = ip.is_pseudo_kleene()
    if pk.ok:
        return None
    return {"strong": True, "pseudo_kleene": False, "detail": pk.detail}


def _strict_implies_strong(ip):
    if not ip.is_strict().ok or ip.is_strong().ok:
        return None
    return {"strict": True, "strong": False}


def _boolean_implies_strict_kleene(ip):
    if not ip.is_boolean_poset().ok:
        return None
    if ip.is_strict().ok and ip.is_kleene().ok:
        return None
    return {"boolean": True, "strict": ip.is_strict().ok,
            "kleene": ip.is_kleene().ok}


def _thm52(ip):
    report = ResiduatedStructure(ip).verify_kleene_residuated()
    if report.all_ok:
        return None
    failing = [name for name in ("zero_absorbing", "commutativity", "unit",
                                 "associativity", "adjointness")
               if not getattr(report, name).ok]
    return {
        "failing": failing,
        "detail": getattr(report, failing[0]).detail,
    }


def _thm54(ip):
    failing = ResiduatedStructure(ip).theorem54_checks().violations
    if not failing:
        return None
    return {"failing": {k: v.verdict.detail for k, v in failing.items()}}


def _assignment_law(checker):
    def evaluate(instance):
        ip, assignments = instance
        for d in assignments:
            verdict = checker(d, ip.base)
            if not verdict.ok:
                return {
                    "choices": assignment_choices(d, ip),
                    "detail": verdict.detail,
                }
        return None
    return evaluate


def _roundtrip(instance):
    p, assignments = instance
    for d in assignments:
        if d.induced_poset() != p:
            return {"choices": assignment_choices(d, p)}
        verdict = d.check_directoid_axioms()
        if not verdict.ok:
            return {"choices": assignment_choices(d, p), "detail": verdict.detail}
    return None


def _twist_part(part):
    def evaluate(instance):
        _, report = audit_theorem61(*instance)
        verdict = report.part_i if part == "i" else report.part_ii
        return None if verdict.ok else {"detail": verdict.detail}
    return evaluate


def _twist_kleene_agreement(instance):
    _, report = audit_theorem61(*instance)
    if report.part_iii_agree:
        return None
    detail = (f"source distributive: {report.q_distributive.ok}; "
              f"twist Kleene: {report.twist_kleene.ok}"
              + (f"; {report.twist_kleene.detail}"
                 if report.twist_kleene.detail else ""))
    return {
        "detail": detail,
        "source_distributive": report.q_distributive.ok,
        "twist_kleene": report.twist_kleene.ok,
    }


def _twist_cones(restricted):
    def evaluate(instance):
        verdict = check_product_cones(twist(*instance), restricted=restricted)
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
        replace(BOUNDED_LU, description=BOUNDED_LU.description
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
        UNARY_MAPS, _directoid_characterization("pk"),
        ENUMERATION_BOUND),
    "Thm-4.3": (
        "identities (1)-(3) plus implication (4) characterize the Kleene "
        "property",
        UNARY_MAPS, _directoid_characterization("kleene"),
        ENUMERATION_BOUND),
    "Lem-4.6": (
        "every strong pseudo-Kleene order is pseudo-Kleene",
        INVOLUTIVE, _lem46),
    "Thm-4.8": (
        "identities (1), (2) plus implication (5) characterize the strong "
        "pseudo-Kleene property",
        UNARY_MAPS, _directoid_characterization("strong"),
        ENUMERATION_BOUND),
    "Thm-4.11": (
        "identities (1), (2) plus implication (6) characterize strictness, "
        "and adding implication (4) characterizes strict Kleene",
        UNARY_MAPS, _directoid_characterization("strict", "strict-kleene"),
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
        DIRECTED_INVOLUTIVE_ASSIGNED, _assignment_law(check_derived_set_laws)),
    "U-pair-law-printed": (
        "the inner-meet reading of the pair law U(x,y) = {(z v x) ^ (z v y)}",
        DIRECTED_INVOLUTIVE_ASSIGNED, _assignment_law(check_printed_u_pair_law)),
    "Directoid-roundtrip": (
        "every assignment is a commutative meet-directoid and induces the "
        "original order",
        DIRECTED_ASSIGNED, _roundtrip),
    "Thm-6.1-i": (
        "every twist is pseudo-Kleene with exactly the pivot pair fixed",
        PIVOTS, _twist_part("i"), 4),
    "Thm-6.1-ii": (
        "x -> (x, a) embeds the source into its twist",
        PIVOTS, _twist_part("ii"), 4),
    "Thm-6.1-iii": (
        "the source is distributive exactly when its twist is Kleene",
        PIVOTS, _twist_kleene_agreement, 4),
    "Twist-cone-product-restricted": (
        "twist cones equal the product cones intersected with the carrier",
        PIVOTS, _twist_cones(True), 3),
    "Twist-cone-product-unrestricted": (
        "twist cones equal the unrestricted product cones",
        PIVOTS, _twist_cones(False), 3),
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
    """Is there an order isomorphism p -> q sending pin_p to pin_q?
    Brute force over permutations; meant for small audit witnesses."""
    if p.n != q.n:
        return False
    pin_p = p.index(pin_p)
    pin_q = q.index(pin_q)
    idx = list(range(p.n))
    for perm in itertools.permutations(idx):
        if perm[pin_p] != pin_q:
            continue
        if all(p.leq(i, j) == q.leq(perm[i], perm[j])
               for i in idx for j in idx):
            return True
    return False


def claim_ids():
    return tuple(sorted(CLAIMS))


def resolve_claim(claim_id):
    name = ALIASES.get(claim_id, claim_id)
    claim = CLAIMS.get(name)
    if claim is None:
        known = ", ".join(claim_ids())
        raise UsageError(f"unknown claim {claim_id!r}; known claims: {known}")
    return claim


def audit(claim_id, n_bound=None, assignment_cap=1000, collect_all=False):
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
