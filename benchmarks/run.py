"""The repository benchmark: end-to-end and per-layer numbers for one workload.

    python3 benchmarks/run.py --workload registry --seed 1 --seconds 20 --trace 0

Workloads (see benchmarks/README.md for why each was chosen):
  registry    all 23 claims, first witness, pinned bounds, cap 1000
  sweep-n6    the 13 poset / involutive-poset claims at n = 6, every witness
  cli-corpus  111 ``run_cli`` operations over the nine fixtures

Load is one closed-loop client: a single process with one thread runs
the operations back to back.  Every pass runs in a fresh interpreter, so
no in-process cache carries over between passes.  Passes repeat until
``--seconds`` have been measured; each pass's outcomes are checked
against ``benchmarks/reference/``.  With ``--trace 0`` the end-to-end
metrics are reported; with ``--trace 1`` untraced and traced passes
alternate and the per-layer metrics are reported.  The last line of
standard output is the JSON result; the line before it records the
machine, the samples and any mismatching operation.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads
from capture_reference import reference_path, refuted
from tracing import metric_names

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

SETUP_RUNS = 9          # fresh-interpreter set-ups per run; the median is reported
# Times are reported in seconds of a host on which one calibration slice
# (child.calibrate) takes this long: each child's measured times are
# multiplied by NOMINAL_SLICE_S / (its mean slice time).
NOMINAL_SLICE_S = 0.005
RUN_LIMIT_S = 170       # a run never starts work it cannot finish by this time
REPORT_CLAIMS = tuple(sorted(workloads.REGISTRY_N_BOUND))

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_ms.p50": "ms",
                    "op_ms.p90": "ms", "peak_rss_mb": "MB",
                    "match_ratio": "ratio"}


class BenchmarkError(Exception):
    pass


def layer_unit(name):
    if name.endswith(".calls") or name in ("enumeration.instances",
                                           "enumeration.witnesses"):
        return "count"
    return "ratio" if name.endswith("ratio") else "s"


def machine_record():
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu_model": cpu,
            "loadavg_start": os.getloadavg()}


def check_layout():
    required = [os.path.join("src", "kleene_posets", "__init__.py")]
    required += [workloads.fixture_path(name) for name in workloads.FIXTURES]
    missing = [p for p in required if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        raise BenchmarkError(f"not a kleene-posets checkout, missing: {missing}")


def load_reference(workload):
    with open(reference_path(workload), encoding="utf-8") as fh:
        reference = json.load(fh)
    wanted = {op["id"] for op in workloads.reference_operations(workload)}
    if set(reference["ops"]) != wanted:
        raise BenchmarkError(f"reference for {workload} does not match its operations")
    if workload == "registry" and refuted(reference) != sorted(workloads.PINNED_REFUTED):
        raise BenchmarkError("registry reference does not refute exactly the pinned claims")
    return reference["ops"]


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"     # same string hashing, so the same work, every pass
    return env


def rescaled(result, seconds):
    return seconds * NOMINAL_SLICE_S / statistics.fmean(result["slice_s"])


def run_child(job, deadline):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before a pass could start")
    try:
        proc = subprocess.run(
            [sys.executable, "-s", os.path.join(BENCH_DIR, "child.py")],
            input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
            env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError("a pass did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"a pass exited with {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(ops, args, started):
    """Alternate untraced and (with --trace 1) traced passes until the
    measuring time is used up; at least one of each kind."""
    deadline = started + RUN_LIMIT_S
    kinds = [0, 1] if args.trace else [0]
    passes = {0: [], 1: []}
    begin = time.monotonic()
    longest = 0.0
    while True:
        for trace in kinds:
            job = {"mode": "pass", "trace": trace, "ops": ops,
                   "count_posets": (args.workload == "sweep-n6"
                                    and not passes[0] and not trace)}
            t = time.monotonic()
            passes[trace].append(run_child(job, deadline))
            longest = max(longest, time.monotonic() - t)
        now = time.monotonic()
        if now - begin >= args.seconds or now + len(kinds) * longest > deadline:
            return passes


def check_outcomes(ops, passes, reference):
    mismatched = []
    for result in passes:
        for op, digest in zip(ops, result["digests"]):
            if digest != reference[op["id"]]:
                mismatched.append(op["id"])
    return mismatched


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(setups, passes, failed, attempted):
    # Each operation's latency is its mean over the run's passes and the
    # percentiles are taken over operations: with two to seven passes a
    # run, this was the steadiest of the pooled, per-operation median and
    # per-operation mean readings tried.
    op_ms = [statistics.fmean(rescaled(p, p["op_s"][i]) * 1000 for p in passes)
             for i in range(len(passes[0]["op_s"]))]
    return {
        "setup_s": statistics.median(rescaled(s, s["setup_s"]) for s in setups),
        "wall_s": statistics.median(rescaled(p, p["wall_s"]) for p in passes),
        "op_ms.p50": statistics.median(op_ms),
        "op_ms.p90": quantile(op_ms, 90),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "match_ratio": 1 - failed / attempted,
    }


def per_layer(untraced, traced):
    names = metric_names(REPORT_CLAIMS)
    traces = [p["trace"] for p in traced]
    values = {}
    for name in names:
        if layer_unit(name) == "s":
            values[name] = statistics.median(rescaled(p, p["trace"].get(name, 0))
                                             for p in traced)
        else:
            values[name] = traces[0].get(name, 0)
    values["trace.overhead_ratio"] = (
        statistics.median(rescaled(p, p["wall_s"]) for p in traced)
        / statistics.median(rescaled(p, p["wall_s"]) for p in untraced))
    calls_repeat = all({k: v for k, v in t.items() if k.endswith(".calls")}
                       == {k: v for k, v in traces[0].items() if k.endswith(".calls")}
                       for t in traces)
    return {name: (values[name], layer_unit(name)) for name in names}, calls_repeat


def check_declared(metrics, trace):
    """The reported names and units must be the ones BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    if {m["name"]: m["unit"] for m in declared} != {k: u for k, (_, u) in metrics.items()}:
        raise BenchmarkError("metrics differ from those BENCHMARK.json declares")


def measure(args):
    started = time.monotonic()
    check_layout()
    reference = load_reference(args.workload)
    machine = machine_record()
    deadline = started + RUN_LIMIT_S
    run_child({"mode": "setup"}, deadline)     # writes the bytecode caches
    setups = [run_child({"mode": "setup"}, deadline) for _ in range(SETUP_RUNS)]
    ops = workloads.operations(args.workload, args.seed)
    passes = run_passes(ops, args, started)
    checked = passes[0] + passes[1]
    mismatched = check_outcomes(ops, checked, reference)
    attempted = len(ops) * len(checked)
    counts = next((p["poset_counts"] for p in passes[0] if "poset_counts" in p), None)
    counts_ok = counts is None or tuple(counts) == workloads.OEIS_A000112
    calls_repeat = True
    if args.trace:
        metrics, calls_repeat = per_layer(passes[0], passes[1])
    else:
        values = end_to_end(setups, passes[0], len(mismatched), attempted)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    check_declared(metrics, args.trace)
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine,
        "passes": {"untraced": len(passes[0]), "traced": len(passes[1])},
        "operations_per_pass": len(ops), "op_ms_samples": len(ops) * len(passes[0]),
        "pass_wall_s": [p["wall_s"] for p in checked],
        "pass_mean_slice_s": [statistics.fmean(p["slice_s"]) for p in checked],
        "setup_s_samples": [s["setup_s"] for s in setups],
        "mismatch_ratio": len(mismatched) / attempted,
        "mismatched": sorted(set(mismatched))[:20],
        "poset_counts": counts, "calls_repeat": calls_repeat,
        "untraced_entry_points": passes[1][0]["trace"]["missing"] if passes[1] else [],
    }
    print(json.dumps(detail))
    return {"correct": not mismatched and counts_ok and calls_repeat,
            "attempted": attempted, "failed": len(mismatched),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = measure(args)
    except (BenchmarkError, OSError) as exc:
        sys.exit(f"benchmark failed: {exc}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
