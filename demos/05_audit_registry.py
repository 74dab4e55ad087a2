#!/usr/bin/env python3
"""Audit every registered claim by exhaustive small-instance search.

Each claim in the registry quantifies over all posets (or involutive
posets, or directoid assignments) up to a size bound and is checked on
every instance up to isomorphism.  A claim is Confirmed when no
instance violates it and Refuted with a replayable witness otherwise.
Three claims are expected to be Refuted:

  Thm-6.1-iii                      twist Kleene <-> source distributive
  Twist-cone-product-unrestricted  cones of a twist as unrestricted
                                   products of component cones
  U-pair-law-printed               the inner-meet form of the derived
                                   upper-cone law for directoids

The five directoid claims (Lem-4.1, Thm-4.2/4.3/4.8/4.11) run at n = 6,
the others at n = 5 or less.  Run as ``python3 demos/05_audit_registry.py``
(about 0.1 s: three runs on a 2-vCPU host with CPython 3.11 printed
totals of 0.0-0.1 s, of which Lem-4.1 took 0.02-0.03 s and
Thm-4.2/4.3/4.8/4.11 0.01 s or less each).
"""

import time

from kleene_posets import audit, claim_ids
from kleene_posets.enumeration import replay_report


def main():
    t0 = time.monotonic()
    refuted = []
    for cid in claim_ids():
        t1 = time.monotonic()
        report = audit(cid)
        dt = time.monotonic() - t1
        line = f"  {cid:42s} {report.verdict:9s} {dt:6.2f}s"
        if report.verdict == "Refuted":
            line += f"  ({len(report.witnesses)} witness)"
            refuted.append(report)
        print(line, flush=True)
    print(f"total: {time.monotonic() - t0:.1f}s")

    print("\nreplaying refuted claims from serialized witnesses:")
    for report in refuted:
        print(f"  {report.claim}: replay ok = {replay_report(report)}")
        w = report.witnesses[0]
        print(f"    witness: elements {w['elements']}, "
              f"covers {w['covers']}")
        print(f"    {w['binding']['detail']}")


if __name__ == "__main__":
    main()
