"""One benchmark pass in a fresh interpreter.

Reads a JSON job from stdin and prints one JSON result line.  The job's
``mode`` is ``setup`` (time ``import kleene_posets`` plus parsing and
building the nine fixtures, then exit) or ``pass`` (set up, then run the
operations in the given order, optionally traced).  A fresh interpreter
per pass means no in-process cache carries over from one pass to the
next.

Before the first operation, after the last, and between operations at
most every ``CALIBRATION_EVERY_S``, the child times a fixed slice of
interpreter work (and once on each side of the set-up).  On a shared
host the speed of a core drifts by tens of percent over minutes; the
parent rescales the pass's times by its mean slice time (see
``run.NOMINAL_SLICE_S``), so a pass on a slowed host is not read as a
slower program.  Slices are excluded from every measured time.
"""

import json
import os
import resource
import sys
import time

import workloads
from tracing import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

CALIBRATION_STEPS = 20000
CALIBRATION_EVERY_S = 0.05


def calibrate():
    """Seconds for a fixed slice of integer bit operations, tuple
    building and dict stores, the kind of work the library's kernels do."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(CALIBRATION_STEPS):
        mask = (i * 2654435761) & 0xFFFF
        acc ^= mask >> (mask.bit_count() & 7)
        table[i & 255] = (mask, acc)
    return time.perf_counter() - start


def set_up():
    start = time.perf_counter()
    import kleene_posets as kp
    for name in workloads.FIXTURES:
        with open(os.path.join(ROOT, workloads.fixture_path(name)),
                  encoding="utf-8") as fh:
            kp.build(kp.parse(fh.read()))
    return kp, time.perf_counter() - start


def run_pass(kp, job):
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    clock = time.perf_counter
    durations, digests, slices = [], [], []
    next_slice = clock()
    for op in job["ops"]:
        if clock() >= next_slice:
            slices.append(calibrate())
            next_slice = clock() + CALIBRATION_EVERY_S
        op_start = clock()
        try:
            elapsed, digest = workloads.run_operation(kp, op, clock)
        except Exception as exc:    # a raising operation is a mismatch, not a crash
            elapsed = clock() - op_start
            digest = {"raised": f"{type(exc).__name__}: {exc}"}
        durations.append(elapsed)
        digests.append(digest)
    slices.append(calibrate())
    wall_s = sum(durations)
    result = {"wall_s": wall_s, "op_s": durations, "digests": digests,
              "slice_s": slices,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        result["trace"] = tracer.summary(wall_s)
    if job.get("count_posets"):
        result["poset_counts"] = [
            len(kp.enumerate_posets(n))
            for n in range(1, len(workloads.OEIS_A000112) + 1)]
    return result


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, SRC)
    before = calibrate()
    kp, setup_s = set_up()
    slices = [before, calibrate()]
    package = os.path.join(SRC, "kleene_posets", "")
    if not os.path.abspath(kp.__file__).startswith(package):
        sys.exit(f"kleene_posets was imported from {kp.__file__}, not {package}")
    result = {"setup_s": setup_s, "slice_s": slices}
    if job["mode"] == "pass":
        result.update(run_pass(kp, job))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
