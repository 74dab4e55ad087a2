"""Pinned workload inputs and the execution of one benchmark operation.

Every input a workload feeds the library is written out here instead of
being read from the library: the per-claim size bounds, the assignment
cap, the claim lists and the CLI argument lists.  Raising a claim's
default bound or renaming an alias therefore cannot silently change what
a workload measures.

The seed changes only the order of the operations within a pass and, on
``cli-corpus``, which element of each fixture is the twist pivot.  It
never changes the set of claims or fixtures.
"""

import hashlib
import io
import json
import random

ASSIGNMENT_CAP = 1000

# Every registered claim with the size bound the registry uses for it.
REGISTRY_N_BOUND = {
    "Boolean-implies-strict-kleene": 5,
    "Derived-set-laws": 5,
    "Directoid-roundtrip": 5,
    "Distributivity-forms-equivalent": 5,
    "Lem-1.1": 5,
    "Lem-2.2": 5,
    "Lem-4.1": 5,
    "Lem-4.6": 5,
    "Strict-implies-strong": 5,
    "Thm-3.1": 5,
    "Thm-3.2": 5,
    "Thm-4.11": 5,
    "Thm-4.2": 5,
    "Thm-4.3": 5,
    "Thm-4.8": 5,
    "Thm-5.2": 5,
    "Thm-5.4": 5,
    "Thm-6.1-i": 4,
    "Thm-6.1-ii": 4,
    "Thm-6.1-iii": 4,
    "Twist-cone-product-restricted": 3,
    "Twist-cone-product-unrestricted": 3,
    "U-pair-law-printed": 5,
}

# The designed refutations; every other registry claim is Confirmed.
PINNED_REFUTED = ("Thm-6.1-iii", "Twist-cone-product-unrestricted",
                  "U-pair-law-printed")

# The claims whose instance space is posets or involutive posets (no
# unary-map or pivot sweep), audited at n = 6 with every witness.
SWEEP_N_BOUND = 6
SWEEP_CLAIMS = (
    "Boolean-implies-strict-kleene",
    "Derived-set-laws",
    "Directoid-roundtrip",
    "Distributivity-forms-equivalent",
    "Lem-1.1",
    "Lem-2.2",
    "Lem-4.6",
    "Strict-implies-strong",
    "Thm-3.1",
    "Thm-3.2",
    "Thm-5.2",
    "Thm-5.4",
    "U-pair-law-printed",
)

# Unlabelled posets on 1..6 elements (OEIS A000112).
OEIS_A000112 = (1, 2, 5, 16, 63, 318)

# Fixture -> twist pivot candidates.  Each list is one orbit of the
# fixture order's automorphism group, so every seed twists isomorphic
# instances and a pass does the same work whatever pivot the seed draws.
# fig3 is rigid.  On fig7 every pivot except the bounds costs 4-8 s per
# twist (the product-cone walk is exponential in the twist's size), which
# would make a single operation most of the pass; its bottom is pinned.
FIXTURES = {
    "fig1": ("a'", "b'"),
    "fig2": ("a'", "b'"),
    "fig3": ("a",),
    "fig4": ("b", "b'"),
    "fig5": ("a", "b"),
    "fig6": ("c", "d", "e", "f"),
    "fig7": ("0",),
    "fig8": ("b", "c"),
    "fig9": ("(a,b)", "(a,c)"),
}

# Per fixture: every subcommand form except twist, which takes a pivot.
CLI_FORMS = (
    ("check",),
    ("complete", "--dot"),
    ("residuate",),
    ("directoid",),
    ("directoid", "--all-assignments", "50"),
)

# The CLI audits of the pinned refutations, with their bounds spelled out.
CLI_AUDITS = tuple(
    ("audit", claim, "--max-n", str(REGISTRY_N_BOUND[claim]),
     "--cap", str(ASSIGNMENT_CAP), "--all-witnesses", "--json")
    for claim in PINNED_REFUTED)

WORKLOADS = ("registry", "sweep-n6", "cli-corpus")


def fixture_path(name):
    return f"fixtures/{name}.poset"


def _audit_op(claim, n_bound, collect_all):
    return {"id": claim, "kind": "audit", "claim": claim, "n_bound": n_bound,
            "collect_all": collect_all}


def _cli_op(argv):
    return {"id": " ".join(argv), "kind": "cli", "argv": list(argv)}


def _with_formats(argv):
    return [_cli_op(argv), _cli_op(argv + ("--json",))]


def _cli_ops(pivots):
    ops = []
    for name in FIXTURES:
        path = fixture_path(name)
        for form in CLI_FORMS:
            ops += _with_formats((form[0], path) + form[1:])
        for pivot in pivots[name]:
            ops += _with_formats(("twist", path, "--at", pivot))
    return ops + [_cli_op(argv) for argv in CLI_AUDITS]


def operations(workload, seed):
    """The operations of one pass, in the order the seed gives."""
    rng = random.Random(seed)
    if workload == "registry":
        ops = [_audit_op(c, n, False) for c, n in REGISTRY_N_BOUND.items()]
    elif workload == "sweep-n6":
        ops = [_audit_op(c, SWEEP_N_BOUND, True) for c in SWEEP_CLAIMS]
    elif workload == "cli-corpus":
        ops = _cli_ops({name: (rng.choice(pivots),)
                        for name, pivots in FIXTURES.items()})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def reference_operations(workload):
    """Every operation some seed can produce: every pivot on cli-corpus."""
    if workload == "cli-corpus":
        return _cli_ops(FIXTURES)
    return operations(workload, 0)


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)


def _first_witness(witnesses):
    return _canonical(witnesses[0]) if witnesses else None


def run_operation(kp, op, clock):
    """Run one operation through the public API; returns its duration in
    seconds and the digest the reference holds for it."""
    if op["kind"] == "audit":
        claim = op["claim"]
        start = clock()
        report = kp.audit(claim, n_bound=op["n_bound"],
                          assignment_cap=ASSIGNMENT_CAP,
                          collect_all=op["collect_all"])
        doc = report.to_dict()
        replays = [kp.replay_witness(claim, w) for w in report.witnesses]
        elapsed = clock() - start
        return elapsed, {"verdict": doc["verdict"],
                         "first_witness": _first_witness(doc["witnesses"]),
                         "replay": all(replays) if replays else None}
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    code = kp.run_cli(op["argv"], out=out, err=err)
    elapsed = clock() - start
    text = out.getvalue()
    if op["argv"][0] == "audit":
        payload = json.loads(text)
        return elapsed, {"exit": code, "verdict": payload["verdict"],
                         "first_witness": _first_witness(payload["witnesses"]),
                         "replay": payload.get("replay")}
    return elapsed, {"exit": code,
                     "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
