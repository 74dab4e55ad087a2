"""Acceptance gate: eight end-to-end criteria over the bundled corpus.

Each criterion is one test; the conftest plugin prints one PASS/FAIL
line per criterion in the terminal summary.  Expected values were
derived with the independent oracles in ``oracles.py`` and frozen.
"""

import io
import itertools
import json
import pathlib
import random
import time

from kleene_posets import (ResiduatedStructure, all_assignments, audit,
                           classify, dedekind_macneille, figure,
                           iter_assignments, run_cli, twist, twist_embedding)
from kleene_posets import build, parse, render, document_from
from kleene_posets.enumeration import (CLAIMS, isomorphic_with_pin,
                                       poset_from_witness, replay_report,
                                       replay_witness)
from kleene_posets.involution import InvolutivePoset

from oracles import RefInvolutive, RefPoset

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
ALL_FIGS = [f"fig{i}" for i in range(1, 10)]
INV_FIGS = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig9"]


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return str(FIXTURES / f"{name}.poset")


def ref_of(obj):
    p = obj.base if isinstance(obj, InvolutivePoset) else obj
    covers = [(p.labels[a], p.labels[b]) for a, b in p.covers()]
    if isinstance(obj, InvolutivePoset):
        prime = {obj.labels[i]: obj.labels[obj.inv[i]] for i in range(obj.n)}
        return RefInvolutive.build(list(p.labels), covers, prime)
    return RefPoset.from_covers(list(p.labels), covers)


def test_AC1_classification_ladder():
    """Every fixture classifies to its frozen ladder position, and the
    command line reproduces the reports."""
    expected_summary = {
        "fig1": "Kleene poset; not a lattice",
        "fig2": "pseudo-Kleene poset; not a lattice",
        "fig3": "pseudo-Kleene algebra; lattice",
        "fig4": "strict Kleene algebra; lattice",
        "fig5": "Kleene algebra; lattice",
        "fig6": "strong pseudo-Kleene poset; not a lattice",
        "fig7": "strict Kleene poset; not a lattice",
        "fig9": "pseudo-Kleene poset; not a lattice",
    }
    for name in INV_FIGS:
        ip = figure(name)
        c = classify(ip)
        assert c.summary == expected_summary[name], name
        # agreement with the independent oracle on every rung
        ref = ref_of(ip)
        assert c.pseudo_kleene.ok == ref.pseudo_kleene()[0]
        assert c.kleene.ok == ref.kleene()[0]
        assert c.strong.ok == ref.strong()[0]
        o_st, _ = ref.strict()
        got_st = None if c.strict is None else c.strict.ok
        assert got_st == (None if o_st is None else o_st)
        code, out, _ = run("check", fx(name))
        assert code == 0
        assert f"summary: {expected_summary[name]}" in out
    code, out, _ = run("check", fx("fig1"))
    assert "summary: Kleene poset; not a lattice" in out


def test_AC2_cut_completion_of_fig1():
    """The completion of fig1 is the 7-ideal Kleene algebra fig5, with
    the unique star-fixed ideal {0,a,b} and a faithful embedding."""
    ip = figure("fig1")
    dm = dedekind_macneille(ip)
    assert dm.n == 7
    assert dm.fixed_ideals() == ("{0,a,b}",)
    dm_ip = dm.as_involutive_poset()
    assert classify(dm_ip).summary == "Kleene algebra; lattice"
    iso = dm_ip.isomorphic_to(figure("fig5"))
    assert iso is not None
    for x, y in itertools.product(range(ip.n), repeat=2):
        assert ip.leq(x, y) == dm.leq(dm.embed(x), dm.embed(y))
    for x in range(ip.n):
        assert dm.star(dm.embed(x)) == dm.embed(ip.inv[x])
    code, out, _ = run("complete", fx("fig1"))
    assert code == 0 and "7 ideals" in out


def test_AC3_directoid_equivalences_within_30s():
    """Order-side ladder flags equal operation-side identity outcomes on
    every assignment of the small figures and on 1000 sampled
    assignments of fig6 and fig7."""
    t0 = time.monotonic()
    expected = {  # (identity3, impl4, impl5, impl6) == (pk, kleene, strong, strict)
        "fig1": (True, True, False, False),
        "fig2": (True, False, False, False),
        "fig3": (True, False, False, False),
        "fig4": (True, True, True, True),
        "fig5": (True, True, False, False),
        "fig6": (True, False, True, False),
        "fig7": (True, True, True, True),
    }
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5"):
        ip = figure(name)
        for d in all_assignments(ip):
            got = (d.check_identity_3().ok, d.check_implication_4().ok,
                   d.check_implication_5().ok,
                   d.check_implication_6("0", "1").ok)
            assert d.check_identities_1_2().ok
            assert got == expected[name], (name, got)
    for name in ("fig6", "fig7"):
        ip = figure(name)
        for d in itertools.islice(iter_assignments(ip), 1000):
            got = (d.check_identity_3().ok, d.check_implication_4().ok,
                   d.check_implication_5().ok,
                   d.check_implication_6("0", "1").ok)
            assert d.check_identities_1_2().ok
            assert got == expected[name], (name, got)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_AC4_full_audit_registry_within_10min():
    """Every registered claim audits to its expected verdict at default
    bounds; refuted claims replay."""
    t0 = time.monotonic()
    expected_refuted = {"Thm-6.1-iii", "Twist-cone-product-unrestricted",
                        "U-pair-law-printed"}
    # Instance counts at the default bounds, captured before the map
    # claims reused their validated tables and the twist claims stopped
    # building the whole Thm 6.1 report.
    pinned = {cid: 2990667 for cid in ("Lem-4.1", "Thm-4.2", "Thm-4.3",
                                       "Thm-4.8", "Thm-4.11")}
    pinned.update({"Thm-6.1-i": 84, "Thm-6.1-ii": 84})
    verdicts = {}
    for cid in CLAIMS:
        report = audit(cid)
        verdicts[cid] = report.verdict
        if report.verdict == "Refuted":
            assert replay_report(report), cid
        if cid in pinned:
            assert report.instances == pinned[cid], cid
            assert report.sampled is False, cid
    assert {cid for cid, v in verdicts.items() if v == "Refuted"} == \
        expected_refuted
    assert all(v == "Confirmed" for cid, v in verdicts.items()
               if cid not in expected_refuted)
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_AC5_residuation_on_fig7():
    """All residuation axioms hold on fig7 over all 2744 triples, every
    adjointness proof case is exercised, and the tier checks pass."""
    ip = figure("fig7")
    r = ResiduatedStructure(ip)
    rep = r.verify_kleene_residuated()
    assert rep.all_ok
    assert dict(rep.case_counts) == \
        {1: 652, 2: 468, 3: 468, 4: 116, 5: 156, 6: 91, 7: 793}
    assert sum(rep.case_counts.values()) == ip.n ** 3
    t54 = r.theorem54_checks()
    assert all(item.status == "pass" for item in t54.items.values())
    ref = ref_of(ip)
    for x, y in itertools.product(range(ip.n), repeat=2):
        assert set(r.odot(x, y).labels) == \
            ref.odot(ip.labels[x], ip.labels[y])
        assert set(r.arrow(x, y).labels) == \
            ref.arrow(ip.labels[x], ip.labels[y])
    code, _, _ = run("residuate", fx("fig7"))
    assert code == 0


def test_AC6_twist_of_fig8():
    """The twist of fig8 at a is the 13-element fig9: pseudo-Kleene with
    unique fixed point (a,a), embedded copy of fig8, and not Kleene
    (the source is distributive — the printed equivalence fails)."""
    q = figure("fig8")
    t = twist(q, "a")
    assert t.n == 13
    f9 = figure("fig9")
    assert t.result.isomorphic_to(f9) is not None
    emb = twist_embedding(t)
    got = {q.labels[x]: t.result.labels[i] for x, i in emb.items()}
    assert got == {"0": "(0,a)", "a": "(a,a)", "b": "(b,a)", "c": "(c,a)"}
    c = classify(t.result)
    assert c.pseudo_kleene.ok and not c.kleene.ok
    assert list(c.fixed_points) == ["(a,a)"]
    base = t.result.base
    x, y, z = "(0,a)", "(a,c)", "(a,b)"
    lhs = base.lower_cone(base.upper_cone([x, y]) | base.subset([z]))
    rhs = base.lower_cone(base.upper_cone(base.lower_cone([x, z])
                                          | base.lower_cone([y, z])))
    assert set(lhs.labels) == {"(0,b)", "(a,b)"}
    assert set(rhs.labels) == {"(0,b)"}
    code, out, _ = run("twist", fx("fig8"), "--at", "a")
    assert code == 0 and "13 elements" in out


def test_AC7_refutation_workflow_thm61iii():
    """Collecting all n<=4 witnesses for the refuted twist equivalence
    yields a witness isomorphic to fig8 with the pivot pinned to a; both
    replay paths reproduce the violation."""
    report = audit("Thm-6.1-iii", n_bound=4, collect_all=True)
    assert report.verdict == "Refuted"
    assert len(report.witnesses) == 20
    q = figure("fig8")
    matches = []
    for w in report.witnesses:
        p = poset_from_witness(w)
        pin = p.index(w["pivot"])
        if isomorphic_with_pin(p, pin, q, q.index("a")):
            matches.append(w)
    assert len(matches) == 1
    assert replay_witness("Thm-6.1-iii", matches[0])
    assert replay_report(report)
    # the first (smallest) counterexample is the 2-antichain
    first = report.witnesses[0]
    assert len(first["elements"]) == 2 and first["covers"] == []


def test_AC8_fixture_roundtrip_and_randomized_cone_agreement():
    """Each fixture file round-trips bit-identically through
    parse/render, rebuilds to the bundled structure, and agrees with the
    set-based oracle on 1000 seeded random cone/set-order queries."""
    for idx, name in enumerate(ALL_FIGS):
        path = FIXTURES / f"{name}.poset"
        text = path.read_text()
        doc = parse(text)
        assert render(doc) == text, name
        obj = build(doc)
        bundled = figure(name)
        if isinstance(bundled, InvolutivePoset):
            assert obj.base == bundled.base and obj.inv == bundled.inv
        else:
            assert obj == bundled
        p = obj.base if isinstance(obj, InvolutivePoset) else obj
        ref = ref_of(obj)
        rng = random.Random(20260814 + idx)
        labels = p.labels
        for _ in range(1000):
            a = [lbl for lbl in labels if rng.random() < 0.3]
            b = [lbl for lbl in labels if rng.random() < 0.3]
            assert set(p.lower_cone(a).labels) == ref.lower(a)
            assert set(p.upper_cone(a).labels) == ref.upper(a)
            assert p.leq_set(a, b) == ref.set_leq(a, b)
