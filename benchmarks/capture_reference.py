"""Write the reference outcomes the benchmark checks every pass against.

    python3 benchmarks/capture_reference.py

Runs every operation any seed can produce (on ``cli-corpus``, every
pinned twist pivot) once through the library in ``src/`` and writes
``benchmarks/reference/<workload>.json``.  Before writing, it checks the
outcomes against facts that do not come from the library: the number of
unlabelled posets on 1..6 elements (OEIS A000112) and the set of claims
the registry is designed to refute.  Re-run it only when a change is
meant to alter a verdict, a first witness or a CLI output.
"""

import json
import os
import sys
import time

import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def reference_path(workload):
    return os.path.join(BENCH_DIR, "reference", f"{workload}.json")


def refuted(reference):
    return sorted(op for op, digest in reference["ops"].items()
                  if digest["verdict"] == "Refuted")


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    import kleene_posets as kp

    counts = [len(kp.enumerate_posets(n))
              for n in range(1, len(workloads.OEIS_A000112) + 1)]
    if tuple(counts) != workloads.OEIS_A000112:
        sys.exit(f"enumerate_posets counts {counts} differ from OEIS A000112")
    for workload in workloads.WORKLOADS:
        start = time.perf_counter()
        ops = {op["id"]: workloads.run_operation(kp, op, time.perf_counter)[1]
               for op in workloads.reference_operations(workload)}
        reference = {"workload": workload, "ops": ops}
        if (workload == "registry"
                and refuted(reference) != sorted(workloads.PINNED_REFUTED)):
            sys.exit(f"registry refutes {refuted(reference)}, "
                     f"expected {sorted(workloads.PINNED_REFUTED)}")
        with open(reference_path(workload), "w", encoding="utf-8") as fh:
            json.dump(reference, fh, indent=1, sort_keys=True, ensure_ascii=False)
            fh.write("\n")
        print(f"{workload}: {len(ops)} operations in "
              f"{time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
