"""Completion by cut ideals, checked against the all-subsets oracle."""

import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

from kleene_posets import (CompletionLattice, UsageError, classify,
                           dedekind_macneille, figure, find_isomorphism)
from kleene_posets.enumeration import (_involutive_representatives,
                                       enumerate_posets, iter_involutive)
from kleene_posets.involution import InvolutivePoset

from oracles import RefPoset, ref_dm_completion, ref_dm_star

ALL_FIGS = [f"fig{i}" for i in range(1, 10)]


def ref_of(obj):
    p = obj.base if isinstance(obj, InvolutivePoset) else obj
    covers = [(p.labels[a], p.labels[b]) for a, b in p.covers()]
    return RefPoset.from_covers(list(p.labels), covers)


@pytest.mark.parametrize("name", ALL_FIGS)
def test_ideals_match_all_subsets_oracle(name):
    """The iterative closure equals { L(A) : A any subset }."""
    obj = figure(name)
    dm = dedekind_macneille(obj)
    ref = ref_of(obj)
    expected = ref_dm_completion(ref)
    got = {frozenset(dm.ideal(i).labels) for i in range(dm.n)}
    assert got == expected


def test_fig1_completion_pinned():
    dm = dedekind_macneille(figure("fig1"))
    assert dm.n == 7
    assert dm.labels == ("{0}", "{0,a}", "{0,b}", "{0,a,b}", "{0,a,b,b'}",
                         "{0,a,b,a'}", "{0,a,b,b',a',1}")
    assert dm.fixed_ideals() == ("{0,a,b}",)


def test_fig1_completion_is_kleene_algebra():
    dm = dedekind_macneille(figure("fig1"))
    c = classify(dm.as_involutive_poset())
    assert c.summary == "Kleene algebra; lattice"


def test_fig1_completion_isomorphic_to_fig5():
    dm = dedekind_macneille(figure("fig1")).as_involutive_poset()
    f5 = figure("fig5")
    iso = dm.isomorphic_to(f5)
    # the mapping demo 02 prints; fig5 has a second automorphism that
    # respects the involution, so this pins which one the search returns
    assert iso == (0, 1, 2, 3, 4, 5, 6)
    # the unique fixed ideal must land on the unique fixed point of fig5
    fixed_idx = dm.labels.index("{0,a,b}")
    assert f5.labels[iso[fixed_idx]] == "c"


def test_embedding_is_order_faithful():
    for name in ALL_FIGS:
        obj = figure(name)
        p = obj.base if isinstance(obj, InvolutivePoset) else obj
        dm = dedekind_macneille(obj)
        for x, y in itertools.product(range(p.n), repeat=2):
            assert p.leq(x, y) == dm.leq(dm.embed(x), dm.embed(y))


def test_embedding_commutes_with_involution():
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                 "fig9"):
        ip = figure(name)
        dm = dedekind_macneille(ip)
        for x in range(ip.n):
            assert dm.star(dm.embed(x)) == dm.embed(ip.inv[x])


def test_star_matches_oracle_and_is_involutive_antitone():
    for name in ("fig1", "fig3", "fig9"):
        ip = figure(name)
        dm = dedekind_macneille(ip)
        ref = ref_of(ip)
        prime = {ip.labels[i]: ip.labels[ip.inv[i]] for i in range(ip.n)}
        for i in range(dm.n):
            ideal = frozenset(dm.ideal(i).labels)
            want = ref_dm_star(ref, prime, ideal)
            assert frozenset(dm.ideal(dm.star(i)).labels) == want
            assert dm.star(dm.star(i)) == i
        for i, j in itertools.product(range(dm.n), repeat=2):
            if dm.leq(i, j):
                assert dm.leq(dm.star(j), dm.star(i))


def test_completion_is_always_a_lattice():
    for name in ALL_FIGS:
        dm = dedekind_macneille(figure(name))
        assert dm.as_poset().is_lattice().ok


def test_meet_is_intersection_join_is_cut():
    dm = dedekind_macneille(figure("fig1"))
    for i, j in itertools.product(range(dm.n), repeat=2):
        meet = dm.meet(i, j)
        assert set(dm.ideal(meet).labels) == \
            set(dm.ideal(i).labels) & set(dm.ideal(j).labels)
        join = dm.join(i, j)
        assert dm.leq(i, join) and dm.leq(j, join)
        for k in range(dm.n):
            if dm.leq(i, k) and dm.leq(j, k):
                assert dm.leq(join, k)


def test_pseudo_kleene_preserved_and_reflected():
    """Base is pseudo-Kleene iff its completion is (on the figure corpus)."""
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                 "fig9"):
        ip = figure(name)
        dm_ip = dedekind_macneille(ip).as_involutive_poset()
        assert ip.is_pseudo_kleene().ok == dm_ip.is_pseudo_kleene().ok


def test_kleene_preserved_and_reflected():
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
                 "fig9"):
        ip = figure(name)
        dm_ip = dedekind_macneille(ip).as_involutive_poset()
        assert ip.is_kleene().ok == dm_ip.is_kleene().ok


def test_completion_of_lattice_keeps_size():
    for name in ("fig3", "fig4", "fig5"):
        obj = figure(name)
        assert dedekind_macneille(obj).n == obj.n


def test_plain_poset_has_no_star():
    dm = dedekind_macneille(figure("fig8"))
    assert not dm.has_involution
    with pytest.raises(UsageError):
        dm.fixed_ideals()
    with pytest.raises(UsageError):
        dm.as_involutive_poset()


def test_index_of_and_ideal_roundtrip():
    dm = dedekind_macneille(figure("fig1"))
    for i in range(dm.n):
        assert dm.index_of(dm.ideal(i).labels) == i


def test_usage_errors():
    with pytest.raises(UsageError):
        CompletionLattice("not a poset")


def test_invalid_involution_is_refused():
    """The star comes only from an InvolutivePoset whose map is a valid
    antitone involution."""
    with pytest.raises(UsageError, match="valid antitone involution"):
        dedekind_macneille(InvolutivePoset(figure("fig8"), (0, 0, 0, 0)))


def _assert_matches_oracle(obj):
    p, inv = (obj.base, obj.inv) if isinstance(obj, InvolutivePoset) else (obj, None)
    dm = dedekind_macneille(obj)
    ref = RefPoset(p.labels, {(p.labels[x], p.labels[y])
                              for x in range(p.n) for y in range(p.n)
                              if p.leq(x, y)})
    ideals = [frozenset(dm.ideal(i).labels) for i in range(dm.n)]
    assert set(ideals) == ref_dm_completion(ref) and len(set(ideals)) == dm.n
    order = dm.as_poset()
    for i, j in itertools.product(range(dm.n), repeat=2):
        assert order.leq(i, j) == (ideals[i] <= ideals[j])
    for x in range(p.n):
        assert ideals[dm.embed(x)] == frozenset(p.lower_cone([x]).labels)
    if inv is None:
        assert not dm.has_involution
        return
    prime = {p.labels[x]: p.labels[inv[x]] for x in range(p.n)}
    star = dm.as_involutive_poset()
    for i in range(dm.n):
        assert ideals[dm.star(i)] == ref_dm_star(ref, prime, ideals[i])
        assert star.inv[i] == dm.star(i)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_small_poset_matches_oracle(n):
    for p in enumerate_posets(n):
        _assert_matches_oracle(p)


@pytest.mark.parametrize("n", range(1, 7))
def test_every_involutive_representative_matches_oracle(n):
    for ip in _involutive_representatives(n):
        _assert_matches_oracle(ip)


@pytest.mark.parametrize("name", ALL_FIGS)
def test_views_are_built_once(name):
    dm = dedekind_macneille(figure(name))
    assert dm.as_poset() is dm.as_poset()
    if dm.has_involution:
        ip = dm.as_involutive_poset()
        assert dm.as_involutive_poset() is ip
        assert dm.as_poset() is ip.base


def test_star_added_to_a_plain_completion():
    """On every n <= 6 instance and every involutive figure, adding the
    star to the base's plain completion gives the completion of the
    involutive poset (same ideals, labels, order and star), and the
    star, recorded as an antitone involution, passes the full check."""
    instances = list(iter_involutive(6))
    assert len(instances) == 272
    figures = [figure(name) for name in ALL_FIGS]
    for ip in instances + [f for f in figures if isinstance(f, InvolutivePoset)]:
        plain = dedekind_macneille(ip.base)
        shared, direct = plain._with_involution(ip), dedekind_macneille(ip)
        assert shared.as_poset() is plain.as_poset()
        assert (shared.ideals, shared.labels) == (direct.ideals, direct.labels)
        assert shared.as_poset()._up == direct.as_poset()._up
        assert [shared.embed(x) for x in ip.labels] == [direct.embed(x) for x in ip.labels]
        star = shared.as_involutive_poset()
        assert star.inv == direct.as_involutive_poset().inv
        assert InvolutivePoset(star.base, star.inv).check_antitone_involution().ok


def test_completion_with_involution_refuses_a_foreign_or_invalid_map():
    ip = figure("fig1")
    plain = dedekind_macneille(ip.base)
    with pytest.raises(UsageError, match="over this completion's base"):
        dedekind_macneille(figure("fig2").base)._with_involution(ip)
    bad = InvolutivePoset(ip.base, (0,) * ip.n)
    for _ in range(2):
        with pytest.raises(UsageError, match="valid antitone involution"):
            plain._with_involution(bad)


SHARED_CLAIMS = ("Thm-3.1", "Thm-3.2", "Lem-2.2", "Distributivity-forms-equivalent")


def _reports_in_fresh_interpreter(claims):
    """``audit(c, n_bound=6, collect_all=True).to_dict()`` as JSON for
    each claim in turn, all in one new interpreter."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    code = ("import json, sys\n"
            "from kleene_posets import audit\n"
            "print(json.dumps([audit(c, n_bound=6, collect_all=True).to_dict()\n"
            "                  for c in sys.argv[1:]]))")
    proc = subprocess.run([sys.executable, "-c", code, *claims],
                          capture_output=True, text=True, timeout=300,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return [json.dumps(d, sort_keys=True) for d in json.loads(proc.stdout)]


def test_sharing_changes_no_report():
    """Each claim's report is the same whether it runs alone or after
    the claims that fill the caches it reads, in either order."""
    alone = {c: _reports_in_fresh_interpreter([c])[0] for c in SHARED_CLAIMS}
    for order in (SHARED_CLAIMS, SHARED_CLAIMS[::-1]):
        assert _reports_in_fresh_interpreter(order) == [alone[c] for c in order]
