"""Command-line surface.

Subcommands: check, complete, twist, residuate, directoid, audit.  Every
subcommand accepts ``--json`` for a stable machine-readable report.

Exit codes: 0 when the command ran and every asserted check passed, 1
when an asserted check failed (witnesses are printed), 2 for usage or
parse errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys

from . import enumeration
from .directoid import _assignments, _base_table, _choices, _count
from .dot import to_dot
from .completion import dedekind_macneille
from .errors import DomainError, FixtureParseError, UsageError
from .fileformat import build, parse
from .involution import InvolutivePoset, classify
from .poset import DISTRIBUTIVITY_FORMS, Poset
from .residuation import ResiduatedStructure, check_condition7
from .twist import audit_theorem61


def _verdict_json(v):
    if v is None:
        return None
    return {"ok": v.ok, "detail": v.detail}


def _verdict_text(v, reason=""):
    if v is None:
        reason = reason.removeprefix("not applicable: ")
        return f"not applicable ({reason})" if reason else "not applicable"
    if v.ok:
        return "yes"
    return f"no — {v.detail}" if v.detail else "no"


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    return build(parse(text))


def _classification_json(c):
    return {
        "summary": c.summary,
        "involution": _verdict_json(c.involution),
        "bounds": {"bottom": c.bounded[0], "top": c.bounded[1]},
        "lattice": _verdict_json(c.lattice),
        "distributive": {form: _verdict_json(c.distributive[form])
                         for form in DISTRIBUTIVITY_FORMS},
        "distributive_forms_agree": c.distributive_forms_agree,
        "pseudo_kleene": _verdict_json(c.pseudo_kleene),
        "kleene": _verdict_json(c.kleene),
        "strong": _verdict_json(c.strong),
        "strict": _verdict_json(c.strict),
        "strict_reason": c.strict_reason,
        "boolean": _verdict_json(c.boolean),
        "boolean_reason": c.boolean_reason,
        "fixed_points": list(c.fixed_points),
    }


def _poset_only_json(p):
    bottom, top = p.bounds()
    lattice = p.is_lattice()
    forms = p.distributivity_all_forms()
    return {
        "summary": ("lattice" if lattice.ok else "not a lattice"),
        "involution": None,
        "bounds": {"bottom": p.labels[bottom] if bottom is not None else None,
                   "top": p.labels[top] if top is not None else None},
        "lattice": _verdict_json(lattice),
        "distributive": {form: _verdict_json(forms[form])
                         for form in DISTRIBUTIVITY_FORMS},
        "distributive_forms_agree": len({v.ok for v in forms.values()}) == 1,
        "pseudo_kleene": None, "kleene": None, "strong": None,
        "strict": None, "strict_reason": "not applicable: no unary map",
        "boolean": None, "boolean_reason": "not applicable: no unary map",
        "fixed_points": [],
    }


def _print_classification(out, data):
    out.write(f"summary: {data['summary']}\n")
    inv = data["involution"]
    if inv is not None:
        out.write("involution: " + ("valid" if inv["ok"]
                                    else f"invalid — {inv['detail']}") + "\n")
    b = data["bounds"]
    out.write(f"bounds: bottom={b['bottom']} top={b['top']}\n")
    lat = data["lattice"]
    out.write("lattice: " + ("yes" if lat["ok"] else f"no — {lat['detail']}") + "\n")
    forms = " ".join(f"{form}={'yes' if data['distributive'][form]['ok'] else 'no'}"
                     for form in DISTRIBUTIVITY_FORMS)
    agree = "agree" if data["distributive_forms_agree"] else "DISAGREE"
    out.write(f"distributive: {forms} (forms {agree})\n")
    for key, label in (("pseudo_kleene", "pseudo-Kleene"), ("kleene", "Kleene"),
                       ("strong", "strong"), ("strict", "strict"),
                       ("boolean", "Boolean")):
        v = data[key]
        if v is None:
            reason = {"strict": data["strict_reason"],
                      "boolean": data["boolean_reason"]}.get(key, "")
            out.write(f"{label}: {_verdict_text(None, reason)}\n")
        else:
            out.write(f"{label}: {_verdict_text_from_json(v)}\n")
    if data["fixed_points"]:
        out.write("fixed points: " + " ".join(data["fixed_points"]) + "\n")
    else:
        out.write("fixed points: none\n")


def _verdict_text_from_json(v):
    if v["ok"]:
        return "yes"
    return f"no — {v['detail']}" if v["detail"] else "no"


def _emit(args, out, data, text_fn):
    if args.json:
        out.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        text_fn()


# -- subcommands ---------------------------------------------------------------

def _cmd_check(args, out):
    obj = _load(args.file)
    if isinstance(obj, InvolutivePoset):
        c = classify(obj)
        data = _classification_json(c)
        failed = not c.involution.ok
        labels = obj.labels
    else:
        data = _poset_only_json(obj)
        failed = False
        labels = obj.labels
    payload = {"command": "check", "file": args.file,
               "elements": list(labels), "classification": data}

    def text():
        out.write(f"file: {args.file}\n")
        out.write(f"elements ({len(labels)}): " + " ".join(labels) + "\n")
        _print_classification(out, data)
    _emit(args, out, payload, text)
    return 1 if failed else 0


def _cmd_complete(args, out):
    obj = _load(args.file)
    failed = False
    if isinstance(obj, InvolutivePoset):
        verdict = obj.check_antitone_involution()
        if not verdict.ok:
            out.write(f"involution invalid — {verdict.detail}\n")
            return 1
        dm = dedekind_macneille(obj)
        dm_obj = dm.as_involutive_poset()
        c = classify(dm_obj)
        cls_data = _classification_json(c)
        failed = not c.involution.ok or not c.lattice.ok
    else:
        dm = dedekind_macneille(obj)
        dm_obj = dm.as_poset()
        cls_data = _poset_only_json(dm_obj)
        failed = not dm_obj.is_lattice().ok
    payload = {
        "command": "complete", "file": args.file,
        "ideals": list(dm.labels), "count": dm.n,
        "embedding": {obj.labels[x]: dm.labels[dm.embed(x)]
                      for x in range(obj.n)},
        "fixed_ideals": list(dm.fixed_ideals()) if dm.has_involution else None,
        "classification": cls_data,
    }
    if args.dot:
        payload["dot"] = to_dot(dm, graph_name="completion")

    def text():
        out.write(f"completion of {args.file}: {dm.n} ideals\n")
        out.write("ideals: " + " ".join(dm.labels) + "\n")
        if dm.has_involution:
            out.write("fixed ideals: " +
                      (" ".join(dm.fixed_ideals()) or "none") + "\n")
        _print_classification(out, cls_data)
        if args.dot:
            out.write(payload["dot"])
    _emit(args, out, payload, text)
    return 1 if failed else 0


def _cmd_twist(args, out):
    obj = _load(args.file)
    if isinstance(obj, InvolutivePoset):
        obj = obj.base
    try:
        t, report = audit_theorem61(obj, args.at)
    except KeyError:
        raise UsageError(f"unknown pivot {args.at!r}") from None
    payload = {
        "command": "twist", "file": args.file, "pivot": args.at,
        "count": t.n, "elements": list(t.result.labels),
        "part_i": _verdict_json(report.part_i),
        "part_ii": _verdict_json(report.part_ii),
        "agreement": {
            "source_distributive": report.q_distributive.ok,
            "twist_kleene": report.twist_kleene.ok,
            "twist_kleene_detail": report.twist_kleene.detail,
            "agree": report.part_iii_agree,
        },
        "product_cones": {
            "restricted": _verdict_json(report.product_cones_restricted),
            "unrestricted": _verdict_json(report.product_cones_unrestricted),
        },
    }

    def text():
        out.write(f"twist of {args.file} at {args.at}: {t.n} elements\n")
        out.write("elements: " + " ".join(t.result.labels) + "\n")
        out.write("pseudo-Kleene with pivot fixed point: "
                  + _verdict_text(report.part_i) + "\n")
        out.write("embedding x -> (x, pivot): " + _verdict_text(report.part_ii) + "\n")
        agree = "AGREE" if report.part_iii_agree else "DISAGREE"
        out.write(f"source distributive: {report.q_distributive.ok}; "
                  f"twist Kleene: {report.twist_kleene.ok} -> {agree}\n")
        if report.twist_kleene.detail:
            out.write(f"  twist Kleene detail: {report.twist_kleene.detail}\n")
        out.write("product cones (restricted to carrier): "
                  + _verdict_text(report.product_cones_restricted) + "\n")
        out.write("product cones (unrestricted): "
                  + _verdict_text(report.product_cones_unrestricted) + "\n")
    _emit(args, out, payload, text)
    return 0 if report.asserted_ok else 1


def _cmd_residuate(args, out):
    obj = _load(args.file)
    if not isinstance(obj, InvolutivePoset):
        raise DomainError("residuation requires an involution line in the fixture")
    r = ResiduatedStructure(obj)
    report = r.verify_kleene_residuated()
    t54 = r.theorem54_checks()
    cond7 = r.check_condition7()
    labels = obj.labels
    odot_table = {f"{labels[x]},{labels[y]}": r.odot(x, y).labels
                  for x in range(obj.n) for y in range(obj.n)}
    arrow_table = {f"{labels[x]},{labels[y]}": r.arrow(x, y).labels
                   for x in range(obj.n) for y in range(obj.n)}
    axioms = {
        "zero_absorbing": _verdict_json(report.zero_absorbing),
        "commutativity": _verdict_json(report.commutativity),
        "unit": _verdict_json(report.unit),
        "associativity": _verdict_json(report.associativity),
        "adjointness": _verdict_json(report.adjointness),
    }
    payload = {
        "command": "residuate", "file": args.file,
        "condition7": _verdict_json(cond7),
        "axioms": axioms,
        "adjointness_case_counts": {str(k): v
                                    for k, v in report.case_counts.items()},
        "tiered": {k: {"status": item.status, "tier": item.tier,
                       "detail": item.verdict.detail if item.verdict else ""}
                   for k, item in t54.items.items()},
        "odot": {k: list(v) for k, v in odot_table.items()},
        "arrow": {k: list(v) for k, v in arrow_table.items()},
    }

    def text():
        out.write(f"residuation on {args.file} ({obj.n} elements)\n")
        out.write("condition (7): " + _verdict_text(cond7) + "\n")
        for name in ("zero_absorbing", "commutativity", "unit",
                     "associativity", "adjointness"):
            out.write(f"{name.replace('_', ' ')}: "
                      + _verdict_text_from_json(axioms[name]) + "\n")
        out.write("adjointness case counts: "
                  + " ".join(f"{k}:{v}" for k, v in sorted(report.case_counts.items()))
                  + "\n")
        for k in ("i", "ii", "iii", "iv", "v"):
            item = t54.items[k]
            line = f"duality ({k}): {item.status} [{item.tier}]"
            if item.status == "fail":
                line += f" — {item.verdict.detail}"
            out.write(line + "\n")
        for name, table in (("odot", odot_table), ("arrow", arrow_table)):
            out.write(f"{name} table:\n")
            for x in labels:
                row = " ".join(
                    f"{y}={{{','.join(table[f'{x},{y}'])}}}" for y in labels)
                out.write(f"  {x}: {row}\n")
    _emit(args, out, payload, text)
    return 0 if report.all_ok else 1


def _identity_block(d, bounds):
    i12 = d.check_identities_1_2()
    block = {"1_2": _verdict_json(i12)}
    if i12.ok:
        block["3"] = _verdict_json(d.check_identity_3())
        block["4"] = _verdict_json(d.check_implication_4())
        block["5"] = _verdict_json(d.check_implication_5())
        if bounds[0] is not None and bounds[1] is not None:
            block["6"] = _verdict_json(d.check_implication_6(*bounds))
        else:
            block["6"] = None
    else:
        block["3"] = block["4"] = block["5"] = block["6"] = None
    return block


def _cmd_directoid(args, out):
    obj = _load(args.file)
    has_map = isinstance(obj, InvolutivePoset)
    p, inv = (obj.base, obj.inv) if has_map else (obj, None)
    # One base table serves the count, the assignments and every
    # assignment's choices; without --all-assignments the first
    # assignment is the canonical one.
    table, pairs = _base_table(p)
    total = _count(pairs)
    cap = 1 if args.all_assignments is None else args.all_assignments
    if cap < 1:
        raise UsageError("assignment cap must be at least 1")
    chosen = list(itertools.islice(_assignments(p, inv, table, pairs), cap))
    sampled = total > cap
    bounds = p.bounds()
    failed = False
    entries = []
    for d in chosen:
        axioms = d.check_directoid_axioms()
        roundtrip = d._induces(p)
        if not axioms.ok or not roundtrip:
            failed = True
        entry = {
            "choices": _choices(d, p, pairs),
            "directoid_axioms": _verdict_json(axioms),
            "induces_original_order": roundtrip,
            "identities": _identity_block(d, bounds) if has_map else None,
        }
        entries.append(entry)
    payload = {
        "command": "directoid", "file": args.file,
        "assignment_count": total,
        "assignments_checked": len(chosen),
        "sampled": sampled,
        "assignments": entries,
    }

    def text():
        out.write(f"meet assignments of {args.file}: {total} total, "
                  f"{len(chosen)} checked"
                  + (" (sampled)" if sampled else "") + "\n")
        for i, entry in enumerate(entries, start=1):
            choices = entry["choices"]
            rendered = " ".join(f"{{{k}}}->{v}" for k, v in sorted(choices.items()))
            out.write(f"assignment {i}: {rendered or '(no incomparable pairs)'}\n")
            out.write("  directoid axioms: "
                      + _verdict_text_from_json(entry["directoid_axioms"]) + "\n")
            out.write(f"  induces original order: "
                      f"{'yes' if entry['induces_original_order'] else 'no'}\n")
            idents = entry["identities"]
            if idents is None:
                out.write("  identities: not applicable (no unary map)\n")
                continue
            for key, label in (("1_2", "(1)(2)"), ("3", "(3)"), ("4", "(4)"),
                               ("5", "(5)"), ("6", "(6)")):
                v = idents[key]
                if v is None:
                    reason = ("requires (1)(2)" if not idents["1_2"]["ok"]
                              else "requires bounds")
                    out.write(f"  {label}: not applicable ({reason})\n")
                else:
                    out.write(f"  {label}: " + _verdict_text_from_json(v) + "\n")
    _emit(args, out, payload, text)
    return 1 if failed else 0


def _cmd_audit(args, out):
    report = enumeration.audit(args.claim, n_bound=args.max_n,
                               assignment_cap=args.cap,
                               collect_all=args.all_witnesses)
    payload = dict(report.to_dict())
    payload["command"] = "audit"
    if not report.confirmed:
        payload["replay"] = enumeration.replay_report(report)

    def text():
        out.write(f"claim {report.claim}: {report.statement}\n")
        out.write(f"space: {report.space} (n <= {report.n_bound}"
                  + (f", assignments capped at {report.assignment_cap}"
                     if report.assignment_cap else "") + ")\n")
        out.write(f"instances: {report.instances}\n")
        out.write(f"sampled: {'yes' if report.sampled else 'no'}\n")
        out.write(f"verdict: {report.verdict}\n")
        for i, w in enumerate(report.witnesses, start=1):
            out.write(f"witness {i}: elements=" + " ".join(w["elements"]) + "\n")
            out.write("  covers: "
                      + (" ".join(f"{a}<{b}" for a, b in w["covers"]) or "(none)")
                      + "\n")
            for key in ("involution", "unary_map"):
                if key in w:
                    out.write(f"  {key}: "
                              + " ".join(f"{a}:{b}" for a, b in sorted(w[key].items()))
                              + "\n")
            if "pivot" in w:
                out.write(f"  pivot: {w['pivot']}\n")
            out.write(f"  binding: {json.dumps(w.get('binding', {}), sort_keys=True)}\n")
        if not report.confirmed:
            out.write("replay: "
                      + ("violations reproduce" if payload["replay"]
                         else "REPLAY FAILED") + "\n")
    _emit(args, out, payload, text)
    return 0 if report.confirmed else 1


@functools.cache
def _build_parser():
    """Built once per process; ``parse_args`` leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="kleene-posets",
        description="Finite order-theory toolkit: cone calculus, completions, "
                    "meet-directoids, residuation, twists, and claim audits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--json", action="store_true",
                        help="emit a stable JSON report")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("check", _cmd_check, "classify a fixture")
    sp.add_argument("file")

    sp = add("complete", _cmd_complete, "cut completion of a fixture")
    sp.add_argument("file")
    sp.add_argument("--dot", action="store_true", help="include DOT output")

    sp = add("twist", _cmd_twist, "twist a fixture at a pivot")
    sp.add_argument("file")
    sp.add_argument("--at", required=True, metavar="NAME", help="pivot element")

    sp = add("residuate", _cmd_residuate,
             "operator tables and residuation axioms")
    sp.add_argument("file")

    sp = add("directoid", _cmd_directoid,
             "meet assignments and their identities")
    sp.add_argument("file")
    sp.add_argument("--all-assignments", type=int, metavar="CAP",
                    help="check every assignment up to CAP")

    sp = add("audit", _cmd_audit, "audit a registered claim")
    sp.add_argument("claim")
    sp.add_argument("--max-n", type=int, default=None,
                    help="largest carrier size to enumerate")
    sp.add_argument("--cap", type=int, default=1000,
                    help="assignment cap per poset")
    sp.add_argument("--all-witnesses", action="store_true",
                    help="collect every witness instead of stopping at the first")
    return parser


def run_cli(argv, out=None, err=None):
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        return args.fn(args, out)
    except FixtureParseError as exc:
        err.write(f"parse error: {exc}\n")
        return 2
    except (UsageError, DomainError) as exc:
        err.write(f"error: {exc}\n")
        return 2


def main(argv=None):
    return run_cli(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
