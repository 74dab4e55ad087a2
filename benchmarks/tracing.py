"""Per-layer spans recorded around the library's public entry points.

The benchmark wraps a fixed list of entry points, one list per package
module, and aggregates their spans in memory: call count, self time (the
span's duration minus the time its child spans cover) and a few
outcome counts.  Nothing inside the library changes.  The cone kernels
(``_lower``/``_upper``/``_leq_set``) and ``Poset.leq`` are private or
called millions of times, so they are not wrapped: their cost shows in
the self time of whichever wrapped span calls them.

Names bound at import (``enumeration.MeetDirectoid``,
``enumeration.audit_theorem61``, the package-level re-exports) are
replaced in every ``kleene_posets.*`` namespace that holds them, and so
are the checker functions captured in the claim registry's closures.
"""

import functools
import sys
import time

# module -> entry points, as "function" or "Class.method".
ENTRY_POINTS = {
    "enumeration": ("audit", "enumerate_posets", "canonical_key",
                    "enumerate_involutions", "replay_witness"),
    "poset": ("Poset.is_distributive", "Poset.is_lattice",
              "Poset.from_covers"),
    "involution": ("InvolutivePoset.check_antitone_involution",
                   "InvolutivePoset.is_pseudo_kleene",
                   "InvolutivePoset.is_kleene", "InvolutivePoset.is_strong",
                   "InvolutivePoset.is_strict",
                   "InvolutivePoset.is_boolean_poset", "classify"),
    "directoid": ("MeetDirectoid.__init__",
                  "MeetDirectoid.check_identities_1_2",
                  "MeetDirectoid.check_identity_3",
                  "MeetDirectoid.check_implication_4",
                  "MeetDirectoid.check_implication_5",
                  "MeetDirectoid.check_implication_6",
                  "MeetDirectoid.check_directoid_axioms",
                  "check_derived_set_laws", "check_printed_u_pair_law"),
    "completion": ("dedekind_macneille",),
    "residuation": ("ResiduatedStructure.__init__",
                    "ResiduatedStructure.verify_kleene_residuated",
                    "ResiduatedStructure.theorem54_checks",
                    "check_condition7"),
    "twist": ("twist", "audit_theorem61", "check_product_cones"),
    "fileformat": ("parse", "render", "build"),
    "dot": ("to_dot",),
    "cli": ("run_cli",),
}


def span_name(module, target):
    """``module.fn``; a constructor is named after its class."""
    cls, _, attr = target.rpartition(".")
    return f"{module}.{cls if attr == '__init__' else attr}"


def metric_names(claims):
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for module, targets in ENTRY_POINTS.items():
        for target in targets:
            name = span_name(module, target)
            names += [f"{name}.calls", f"{name}.self_s"]
        names.append(f"{module}.self_s")
    names += [f"claim.{c}.s" for c in claims]
    names += ["involution.check_antitone_involution.ok_ratio",
              "enumeration.canonical_key.keep_ratio",
              "enumeration.instances", "enumeration.witnesses",
              "trace.overhead_ratio", "trace.uncovered_s"]
    return names


class Tracer:
    """In-memory span aggregates for one traced pass."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.covered_s = 0.0    # time inside outermost spans
        self.claim_s = {}
        self.involution_ok = 0
        self.representatives = 0
        self.instances = 0
        self.witnesses = 0
        self.missing = []
        self._stack = []        # child time accumulated per open span

    def wrap(self, name, fn):
        after = {
            "enumeration.audit": self._after_audit,
            "enumeration.enumerate_posets": self._after_enumerate,
            "involution.check_antitone_involution": self._after_involution,
        }.get(name)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - child
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
            if after is not None:
                after(result, elapsed)
            return result
        return span

    def _after_audit(self, report, elapsed):
        self.claim_s[report.claim] = self.claim_s.get(report.claim, 0.0) + elapsed
        self.instances += report.instances
        self.witnesses += len(report.witnesses)

    def _after_enumerate(self, posets, elapsed):
        self.representatives += len(posets)

    def _after_involution(self, verdict, elapsed):
        self.involution_ok += bool(verdict.ok)

    def install(self):
        """Wrap every entry point in the loaded ``kleene_posets`` package.

        An entry point the package no longer has is listed in
        ``self.missing`` and reports zero calls; its work then shows in
        its caller's self time."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "kleene_posets" or name.startswith("kleene_posets.")]
        registry = getattr(sys.modules.get("kleene_posets.enumeration"), "CLAIMS", {})
        closures = [cell for claim in registry.values()
                    for fn in vars(claim).values()
                    for cell in getattr(fn, "__closure__", None) or ()]
        for module, targets in ENTRY_POINTS.items():
            mod = sys.modules.get(f"kleene_posets.{module}")
            for target in targets:
                name = span_name(module, target)
                self.calls[name] = 0
                self.self_s[name] = 0.0
                cls_name, _, attr = target.rpartition(".")
                owner = getattr(mod, cls_name, None) if cls_name else mod
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                if cls_name:
                    if isinstance(original, classmethod):
                        setattr(owner, attr, classmethod(self.wrap(name, original.__func__)))
                    else:
                        setattr(owner, attr, self.wrap(name, original))
                    continue
                wrapped = self.wrap(name, original)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, key, wrapped)
                for cell in closures:
                    if cell.cell_contents is original:
                        cell.cell_contents = wrapped

    def summary(self, wall_s):
        """Aggregates keyed by metric name, plus the ``missing`` entry
        points; the untraced comparison is made by the caller."""
        out = {}
        for module, targets in ENTRY_POINTS.items():
            total = 0.0
            for target in targets:
                name = span_name(module, target)
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
                total += self.self_s[name]
            out[f"{module}.self_s"] = total
        for claim, seconds in self.claim_s.items():
            out[f"claim.{claim}.s"] = seconds
        checks = self.calls["involution.check_antitone_involution"]
        keys = self.calls["enumeration.canonical_key"]
        out["involution.check_antitone_involution.ok_ratio"] = (
            self.involution_ok / checks if checks else 0.0)
        out["enumeration.canonical_key.keep_ratio"] = (
            self.representatives / keys if keys else 0.0)
        out["enumeration.instances"] = self.instances
        out["enumeration.witnesses"] = self.witnesses
        out["trace.uncovered_s"] = wall_s - self.covered_s
        out["missing"] = self.missing
        return out
