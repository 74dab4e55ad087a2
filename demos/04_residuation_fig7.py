#!/usr/bin/env python3
"""Exercise the set-valued residuated structure on the strict Kleene
poset fig7.

The operations are

    x (.) y = {0}       if x <= y'   else  L(x, y)
    x  ->  y = {1}       if x <= y    else  U(x', y)

and adjointness means  x (.) y <= z  iff  x <= y -> z  in the set
order.  On fig7 every axiom holds over all 14^3 = 2744 triples; the
adjointness proof splits into seven first-match cases, all of which are
exercised.  Strictness is sufficient but not necessary: fig1 (a Kleene
poset that is not strict) also passes, while the Kleene algebra fig5
fails.  Run as ``python3 demos/04_residuation_fig7.py``.
"""

from kleene_posets import ResiduatedStructure, figure


def main():
    ip = figure("fig7")
    r = ResiduatedStructure(ip)
    rep = r.verify_kleene_residuated()
    print(f"fig7: all residuation axioms hold = {rep.all_ok}")
    print("adjointness proof case counts over 2744 triples:")
    for case in sorted(rep.case_counts):
        print(f"  case {case}: {rep.case_counts[case]}")
    t54 = r.theorem54_checks()
    print(f"condition (7) (L(x,y) != {{0}} for x,y != 0): "
          f"{t54.condition7.ok}")
    print("tiered dualities:")
    for name, item in t54.items.items():
        print(f"  {name}: {item.status}  [{item.tier}]")

    print("\nsample tables (labels joined by commas):")
    for lx, ly in (("b", "a"), ("a", "b"), ("c", "c'")):
        x, y = ip.index(lx), ip.index(ly)
        od = ",".join(r.odot(x, y).labels)
        ar = ",".join(r.arrow(x, y).labels)
        print(f"  {lx} (.) {ly} = {{{od}}}    {lx} -> {ly} = {{{ar}}}")

    print("\nstrictness is not necessary — fig1 is not strict yet "
          "passes:")
    rep1 = ResiduatedStructure(figure("fig1")).verify_kleene_residuated()
    print(f"  fig1 all axioms hold = {rep1.all_ok}")
    rep5 = ResiduatedStructure(figure("fig5")).verify_kleene_residuated()
    print("and being a Kleene algebra is not sufficient — fig5 fails:")
    print(f"  fig5 all axioms hold = {rep5.all_ok}")
    print(f"  adjointness: {rep5.adjointness.detail}")


if __name__ == "__main__":
    main()
