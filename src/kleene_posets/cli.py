"""Command-line surface.

Subcommands: check, complete, twist, residuate, directoid, audit.  Each
builds one report, the payload that ``--json`` prints with sorted keys,
and prints its text form from that same payload; so every subcommand
answers ``--json`` with JSON, on failure too.

Exit codes: 0 when the command ran and every asserted check passed, 1
when an asserted check failed (witnesses are printed) or the reader of
standard output went away, 2 for usage or parse errors.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import os
import sys

from . import enumeration
from .directoid import ASSIGNMENT_CAP, _capped_assignments, _choices, _pair_keys
from .dot import to_dot
from .completion import dedekind_macneille
from .errors import DomainError, FixtureParseError, UsageError
from .fileformat import build, parse
from .involution import InvolutivePoset, classify
from .poset import _HOLDS, DISTRIBUTIVITY_FORMS
from .residuation import AXIOMS, ResiduatedStructure
from .twist import audit_theorem61

# The classification ladder: payload key and text label.
_LADDER = (("pseudo_kleene", "pseudo-Kleene"), ("kleene", "Kleene"),
           ("strong", "strong"), ("strict", "strict"), ("boolean", "Boolean"))
_NO_MAP = "not applicable: no unary map"
# The directoid identity block: payload key and text label, in the order
# of _IdentityWalk.verdicts.
_IDENTITIES = (("1_2", "(1)(2)"), ("3", "(3)"), ("4", "(4)"), ("5", "(5)"),
               ("6", "(6)"))


def _verdict_json(v):
    if v is None:
        return None
    return {"ok": v.ok, "detail": v.detail}


def _verdict_text(v, reason=""):
    """The text of a verdict's JSON form; ``None`` is not applicable."""
    if v is None:
        reason = reason.removeprefix("not applicable: ")
        return f"not applicable ({reason})" if reason else "not applicable"
    if v["ok"]:
        return "yes"
    return f"no — {v['detail']}" if v["detail"] else "no"


def _fails(v):
    """A verdict's JSON form is present and false."""
    return v is not None and not v["ok"]


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None
    return build(parse(text))


def _classification_json(obj):
    """The classification of a ``Poset`` or an ``InvolutivePoset``.  A
    plain poset has no unary map: its ladder entries are null and both
    reasons say so."""
    if isinstance(obj, InvolutivePoset):
        c = classify(obj)
        p = obj.base
        data = {"summary": c.summary, "involution": _verdict_json(c.involution),
                "strict_reason": c.strict_reason, "boolean_reason": c.boolean_reason,
                "fixed_points": list(c.fixed_points)}
        data.update((key, _verdict_json(getattr(c, key))) for key, _ in _LADDER)
    else:
        p = obj
        data = {"summary": "lattice" if p.is_lattice().ok else "not a lattice",
                "involution": None, "strict_reason": _NO_MAP,
                "boolean_reason": _NO_MAP, "fixed_points": []}
        data.update((key, None) for key, _ in _LADDER)
    bottom, top = p.bounds()
    forms = p.distributivity_all_forms()
    data.update(
        bounds={"bottom": None if bottom is None else p.labels[bottom],
                "top": None if top is None else p.labels[top]},
        lattice=_verdict_json(p.is_lattice()),
        distributive={form: _verdict_json(forms[form]) for form in DISTRIBUTIVITY_FORMS},
        distributive_forms_agree=len({v.ok for v in forms.values()}) == 1)
    return data


def _print_classification(out, data):
    out.write(f"summary: {data['summary']}\n")
    inv = data["involution"]
    if inv is not None:
        out.write("involution: " + ("valid" if inv["ok"]
                                    else f"invalid — {inv['detail']}") + "\n")
    b = data["bounds"]
    out.write(f"bounds: bottom={b['bottom']} top={b['top']}\n")
    out.write(f"lattice: {_verdict_text(data['lattice'])}\n")
    forms = " ".join(f"{form}={'yes' if data['distributive'][form]['ok'] else 'no'}"
                     for form in DISTRIBUTIVITY_FORMS)
    agree = "agree" if data["distributive_forms_agree"] else "DISAGREE"
    out.write(f"distributive: {forms} (forms {agree})\n")
    for key, label in _LADDER:
        reason = data.get(f"{key}_reason", "")
        out.write(f"{label}: {_verdict_text(data[key], reason)}\n")
    out.write("fixed points: " + (" ".join(data["fixed_points"]) or "none") + "\n")


def _emit(args, out, data, text_fn):
    if args.json:
        out.write(json.dumps(data, sort_keys=True, indent=2) + "\n")
    else:
        text_fn()


# -- subcommands ---------------------------------------------------------------

def _cmd_check(args, out):
    obj = _load(args.file)
    payload = {"command": "check", "file": args.file,
               "elements": list(obj.labels),
               "classification": _classification_json(obj)}

    def text():
        elements = payload["elements"]
        out.write(f"file: {args.file}\n")
        out.write(f"elements ({len(elements)}): " + " ".join(elements) + "\n")
        _print_classification(out, payload["classification"])
    _emit(args, out, payload, text)
    return 1 if _fails(payload["classification"]["involution"]) else 0


def _cmd_complete(args, out):
    obj = _load(args.file)
    payload = {"command": "complete", "file": args.file}
    if isinstance(obj, InvolutivePoset):
        verdict = obj.check_antitone_involution()
        if not verdict.ok:
            payload["involution"] = _verdict_json(verdict)
            _emit(args, out, payload,
                  lambda: out.write(f"involution invalid — {verdict.detail}\n"))
            return 1
    dm = dedekind_macneille(obj)
    cls = _classification_json(dm.as_involutive_poset() if dm.has_involution
                               else dm.as_poset())
    payload.update(
        ideals=list(dm.labels), count=dm.n,
        embedding={obj.labels[x]: dm.labels[dm.embed(x)] for x in range(obj.n)},
        fixed_ideals=list(dm.fixed_ideals()) if dm.has_involution else None,
        classification=cls)
    if args.dot:
        payload["dot"] = to_dot(dm, graph_name="completion")

    def text():
        out.write(f"completion of {args.file}: {payload['count']} ideals\n")
        out.write("ideals: " + " ".join(payload["ideals"]) + "\n")
        if payload["fixed_ideals"] is not None:
            out.write("fixed ideals: " +
                      (" ".join(payload["fixed_ideals"]) or "none") + "\n")
        _print_classification(out, cls)
        if args.dot:
            out.write(payload["dot"])
    _emit(args, out, payload, text)
    return 1 if _fails(cls["involution"]) or _fails(cls["lattice"]) else 0


def _cmd_twist(args, out):
    obj = _load(args.file)
    if isinstance(obj, InvolutivePoset):
        obj = obj.base
    t, report = audit_theorem61(obj, args.at)
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
        agreement, cones = payload["agreement"], payload["product_cones"]
        out.write(f"twist of {args.file} at {args.at}: {payload['count']} elements\n")
        out.write("elements: " + " ".join(payload["elements"]) + "\n")
        out.write("pseudo-Kleene with pivot fixed point: "
                  + _verdict_text(payload["part_i"]) + "\n")
        out.write("embedding x -> (x, pivot): " + _verdict_text(payload["part_ii"]) + "\n")
        agree = "AGREE" if agreement["agree"] else "DISAGREE"
        out.write(f"source distributive: {agreement['source_distributive']}; "
                  f"twist Kleene: {agreement['twist_kleene']} -> {agree}\n")
        if agreement["twist_kleene_detail"]:
            out.write(f"  twist Kleene detail: {agreement['twist_kleene_detail']}\n")
        out.write("product cones (restricted to carrier): "
                  + _verdict_text(cones["restricted"]) + "\n")
        out.write("product cones (unrestricted): "
                  + _verdict_text(cones["unrestricted"]) + "\n")
    _emit(args, out, payload, text)
    return 0 if report.asserted_ok else 1


def _cmd_residuate(args, out):
    obj = _load(args.file)
    if not isinstance(obj, InvolutivePoset):
        raise DomainError("residuation requires an involution line in the fixture")
    r = ResiduatedStructure(obj)
    report = r.verify_kleene_residuated()
    t54 = r.theorem54_checks()
    labels = obj.labels
    pairs = list(itertools.product(range(obj.n), repeat=2))
    cells = list(zip(_pair_keys(labels, pairs), pairs))
    payload = {
        "command": "residuate", "file": args.file,
        "condition7": _verdict_json(t54.condition7),
        "axioms": {name: _verdict_json(getattr(report, name)) for name in AXIOMS},
        "adjointness_case_counts": {str(k): v
                                    for k, v in report.case_counts.items()},
        "tiered": {k: {"status": item.status, "tier": item.tier,
                       "detail": item.verdict.detail if item.verdict else ""}
                   for k, item in t54.items.items()},
        "odot": {key: list(r.odot(x, y).labels) for key, (x, y) in cells},
        "arrow": {key: list(r.arrow(x, y).labels) for key, (x, y) in cells},
    }

    def text():
        out.write(f"residuation on {args.file} ({len(labels)} elements)\n")
        out.write("condition (7): " + _verdict_text(payload["condition7"]) + "\n")
        for name in AXIOMS:
            out.write(f"{name.replace('_', ' ')}: "
                      + _verdict_text(payload["axioms"][name]) + "\n")
        out.write("adjointness case counts: "
                  + " ".join(f"{k}:{v}" for k, v
                             in sorted(payload["adjointness_case_counts"].items()))
                  + "\n")
        for k, item in payload["tiered"].items():
            line = f"duality ({k}): {item['status']} [{item['tier']}]"
            if item["status"] == "fail":
                line += f" — {item['detail']}"
            out.write(line + "\n")
        # The rows follow the element order, which the "x,y" keys alone
        # do not give back: labels may contain commas.
        for name in ("odot", "arrow"):
            table = payload[name]
            out.write(f"{name} table:\n")
            for x in labels:
                row = " ".join(
                    f"{y}={{{','.join(table[f'{x},{y}'])}}}" for y in labels)
                out.write(f"  {x}: {row}\n")
    _emit(args, out, payload, text)
    return 0 if report.all_ok else 1


def _cmd_directoid(args, out):
    obj = _load(args.file)
    has_map = isinstance(obj, InvolutivePoset)
    p = obj.base if has_map else obj
    # Without --all-assignments the first assignment, the canonical one,
    # is checked.
    cap = 1 if args.all_assignments is None else args.all_assignments
    if cap < 1:
        raise UsageError("assignment cap must be at least 1")
    walk = _capped_assignments(p, cap)
    keys = _pair_keys(p.labels, [pair for pair, _ in walk.pairs])
    if has_map:
        walk.under(obj.inv, p.bounds())
    entries = []
    for table in walk.tables():
        # where the walk is shared, its cells decide the axioms and the
        # order for every table (directoid._IdentityWalk says why)
        verdicts = walk.verdicts(table) if has_map else None
        entries.append({
            "choices": _choices(table, p.labels, keys, walk.pairs),
            "directoid_axioms": _verdict_json(
                _HOLDS if walk.shared else table.check_directoid_axioms()),
            "induces_original_order": walk.shared or table._induces(p),
            "identities": None if verdicts is None else dict(
                zip((key for key, _ in _IDENTITIES), map(_verdict_json, verdicts))),
        })
    payload = {
        "command": "directoid", "file": args.file,
        "assignment_count": walk.count,
        "assignments_checked": len(entries),
        "sampled": walk.count > cap,
        "assignments": entries,
    }

    def text():
        out.write(f"meet assignments of {args.file}: "
                  f"{payload['assignment_count']} total, "
                  f"{payload['assignments_checked']} checked"
                  + (" (sampled)" if payload["sampled"] else "") + "\n")
        for i, entry in enumerate(payload["assignments"], start=1):
            choices = entry["choices"]
            rendered = " ".join(f"{{{k}}}->{v}" for k, v in sorted(choices.items()))
            out.write(f"assignment {i}: {rendered or '(no incomparable pairs)'}\n")
            out.write("  directoid axioms: "
                      + _verdict_text(entry["directoid_axioms"]) + "\n")
            out.write(f"  induces original order: "
                      f"{'yes' if entry['induces_original_order'] else 'no'}\n")
            idents = entry["identities"]
            if idents is None:
                out.write("  identities: not applicable (no unary map)\n")
                continue
            reason = "requires (1)(2)" if not idents["1_2"]["ok"] else "requires bounds"
            for key, label in _IDENTITIES:
                out.write(f"  {label}: {_verdict_text(idents[key], reason)}\n")
    _emit(args, out, payload, text)
    failed = any(_fails(e["directoid_axioms"]) or not e["induces_original_order"]
                 for e in entries)
    return 1 if failed else 0


def _cmd_audit(args, out):
    report = enumeration.audit(args.claim, n_bound=args.max_n,
                               assignment_cap=args.cap,
                               collect_all=args.all_witnesses)
    payload = report.to_dict()
    payload["command"] = "audit"
    if not report.confirmed:
        payload["replay"] = enumeration.replay_report(report)

    def text():
        cap = payload["assignment_cap"]
        out.write(f"claim {payload['claim']}: {payload['statement']}\n")
        out.write(f"space: {payload['space']} (n <= {payload['n_bound']}"
                  + (f", assignments capped at {cap}" if cap else "") + ")\n")
        out.write(f"instances: {payload['instances']}\n")
        out.write(f"sampled: {'yes' if payload['sampled'] else 'no'}\n")
        out.write(f"verdict: {payload['verdict']}\n")
        for i, w in enumerate(payload["witnesses"], start=1):
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
        if "replay" in payload:
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
    sp.add_argument("--cap", type=int, default=ASSIGNMENT_CAP,
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


class _Stdout:
    """Standard output as :func:`main` writes it: each piece, encoded,
    straight to the binary buffer, where a count short of the piece
    means the reader went away.  A reader that leaves during one write
    larger than the pipe (a ``--json`` report is one write) makes the
    buffered writer return a short count without raising, and the text
    layer would drop that count."""

    def write(self, text):
        data = text.encode(sys.stdout.encoding, sys.stdout.errors)
        if sys.stdout.buffer.write(data) != len(data):
            raise BrokenPipeError(errno.EPIPE, "standard output closed during a write")


def main(argv=None):
    """The console entry point.  When the reader of standard output
    closes it early (``| head``), exit 1 without a traceback; stdout is
    pointed at the null device so that the flush at exit cannot fail
    again (the recipe of the Python documentation's note on SIGPIPE)."""
    try:
        code = run_cli(sys.argv[1:] if argv is None else argv, _Stdout())
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
