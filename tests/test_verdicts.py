"""Every checker's verdict, witness and detail against digests captured
from checkers that computed each failing verdict's witness and detail
at once, and the tuple protocol of each failing verdict against a plain
``Verdict`` of the same fields; then when a failing verdict is explained
(on first read, once) and what its explanation may hold (never the
structure that memoises it)."""

import collections
import copy
import gc
import hashlib
import itertools
import json
import pickle
import sys
import types
import weakref

from kleene_posets import poset as poset_module
from kleene_posets import (DISTRIBUTIVITY_FORMS, DomainError, InvolutivePoset,
                           MeetDirectoid, Poset, ResiduatedStructure, Subset, UsageError,
                           check_condition7, check_derived_set_laws,
                           check_printed_u_pair_law, dedekind_macneille, enumerate_posets,
                           figure, iter_assignments, twist)
from kleene_posets.cli import _verdict_json
from kleene_posets.enumeration import _involutive_representatives
from kleene_posets.poset import Verdict, _failing
from kleene_posets.residuation import AXIOMS
from kleene_posets.twist import _part_i, _twist_kleene, check_embedding, check_product_cones


def _copy(s):
    """A copy of a poset or involutive poset with memos of its own."""
    if isinstance(s, Poset):
        return Poset(s.labels, s._up)
    return InvolutivePoset(_copy(s.base), s.inv)


def _poset_checkers():
    yield "lattice", lambda p: p.is_lattice()
    for form in DISTRIBUTIVITY_FORMS:
        yield f"distributive {form}", lambda p, form=form: p.is_distributive(form)
        yield f"all forms {form}", lambda p, form=form: p.distributivity_all_forms()[form]


def _residuation_checkers():
    """(name, checker) over a residuated structure: the axioms, and the
    Theorem 5.4 items (None where skipped)."""
    for name in AXIOMS:
        yield name, lambda r, name=name: getattr(r.verify_kleene_residuated(), name)
    for key in ("i", "ii", "iii", "iv", "v"):
        yield f"theorem 5.4 ({key})", lambda r, key=key: r.theorem54_checks().items[key].verdict


def _involutive_checkers(ip):
    """(name, checker) over an involutive poset: the ladder, the base's
    lattice and distributivity verdicts, condition (7), the residuation
    axioms and Theorem 5.4 where bounded, and Lemma 1.1 at each pair it
    applies to."""
    yield "involution", lambda s: s.check_antitone_involution()
    for name, check in _poset_checkers():
        yield name, lambda s, check=check: check(s.base)
    for name in ("is_pseudo_kleene", "is_kleene", "is_strong", "is_strict",
                 "is_boolean_poset"):
        yield name, lambda s, name=name: getattr(s, name)()
    yield "condition (7)", check_condition7
    if not ip.check_antitone_involution().ok or None in ip.bounds():
        return
    for name, check in _residuation_checkers():
        yield name, lambda s, check=check: check(ResiduatedStructure(s))
    p = ip.base
    if not p.is_distributive("LU").ok:
        return
    for a, b in itertools.product(range(p.n), repeat=2):
        if p.leq(a, b) and (p._down[b] & p._down[ip.inv[a]]).bit_count() == 1:
            yield f"lemma 1.1 {a} {b}", lambda s, a=a, b=b: s.lemma11_holds(a, b)


def _directoid_checkers(d, source):
    yield "axioms", lambda t: t.check_directoid_axioms()
    if d.inv is None:
        return
    yield "(1)(2)", lambda t: t.check_identities_1_2()
    yield "(3)", lambda t: t.check_identity_3()
    yield "(4)", lambda t: t.check_implication_4()
    yield "(5)", lambda t: t.check_implication_5()
    bottom, top = source.bounds()
    if None not in (bottom, top):
        yield "(6)", lambda t: t.check_implication_6(bottom, top)
    yield "derived-set laws", lambda t: check_derived_set_laws(t, source)
    yield "printed U pair law", lambda t: check_printed_u_pair_law(t, source)


def _table_copy(d):
    return MeetDirectoid(d.meet, inv=d.inv, labels=d.labels)


def _involutive_structures():
    """(tag, structure): every involutive instance with n <= 6 and its
    completion's involutive poset, then the nine fixtures and the
    completions of the involutive ones."""
    for n in range(1, 7):
        for k, ip in enumerate(_involutive_representatives(n)):
            ip = _copy(ip)
            yield f"n{n}.{k}", ip
            yield f"n{n}.{k} completion", dedekind_macneille(ip).as_involutive_poset()
    for name in sorted(f"fig{i}" for i in range(1, 10)):
        f = figure(name)
        if isinstance(f, InvolutivePoset):
            yield name, f
            if f.check_antitone_involution().ok:
                yield f"{name} completion", dedekind_macneille(f).as_involutive_poset()


def _edited_fig4_residuation():
    """fig4's structure with one entry of its odot or arrow table set to
    {0} or {1}, each way that changes the entry, as a maker of fresh
    copies: (i)-(iv) and the pair axioms fail on some of them."""
    ip = figure("fig4")
    for attr in ("_odot", "_arrow"):
        for x, y, value in itertools.product(range(ip.n), range(ip.n), ip.bounds()):
            if getattr(ResiduatedStructure(ip), attr)[x][y] == 1 << value:
                continue

            def make(attr=attr, x=x, y=y, value=value):
                r = ResiduatedStructure(ip)
                rows = [list(row) for row in getattr(r, attr)]
                rows[x][y] = 1 << value
                object.__setattr__(r, attr, tuple(tuple(row) for row in rows))
                return r
            yield f"fig4 {attr}[{x}][{y}] = {value}", make


def _edited_fig4_tables():
    """fig4's assigned tables and their single-entry edits under fig4's
    map, each once: the axioms and identities fail on many of them."""
    ip = figure("fig4")
    tables = list(iter_assignments(ip.base))
    seen = set()
    for d in tables:
        for x, y, v in itertools.product(range(d.n), repeat=3):
            table = [list(row) for row in d.meet]
            table[x][y] = v
            edited = MeetDirectoid(table, inv=ip.inv, labels=d.labels)
            if edited.meet not in seen:
                seen.add(edited.meet)
                yield edited


def _cases():
    """(tag, checker name, maker): each maker computes the checker's
    verdict afresh, on structures that share no memo with any other."""
    for tag, ip in _involutive_structures():
        for name, check in _involutive_checkers(ip):
            yield tag, name, lambda ip=ip, check=check: check(_copy(ip))
    fig8 = figure("fig8")
    for name, check in _poset_checkers():
        yield "fig8", name, lambda check=check: check(_copy(fig8))
    for n in range(1, 5):
        for k, q in enumerate(enumerate_posets(n)):
            for a in range(n):
                tag = f"n{n}.{k} twist at {a}"
                for name, check in (("part (i)", _part_i), ("embedding", check_embedding),
                                    ("cones", check_product_cones),
                                    ("cones unrestricted",
                                     lambda t: check_product_cones(t, restricted=False)),
                                    ("twist Kleene", _twist_kleene)):
                    yield tag, name, lambda q=q, a=a, check=check: check(twist(q, a))
                r = twist(q, a).result
                for name, check in _involutive_checkers(r):
                    yield tag, name, lambda r=r, check=check: check(_copy(r))
    for name in ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
        source = figure(name)
        for i, d in enumerate(itertools.islice(iter_assignments(source), 4)):
            for check_name, check in _directoid_checkers(d, source):
                yield f"{name} table {i}", check_name, \
                    lambda d=d, check=check: check(_table_copy(d))
    for tag, make in _edited_fig4_residuation():
        for name, check in _residuation_checkers():
            yield tag, name, lambda make=make, check=check: check(make())
    ip = figure("fig4")
    for i, d in enumerate(_edited_fig4_tables()):
        for name, check in _directoid_checkers(d, ip):
            yield f"fig4 edit {i}", name, lambda d=d, check=check: check(_table_copy(d))


def _outcome(make):
    """The verdict ``make`` computes, or the error it raises."""
    try:
        return make()
    except (UsageError, DomainError) as exc:
        return exc


def _record(tag, name, v):
    if isinstance(v, Exception):
        return repr((tag, name, "raises", type(v).__name__, str(v)))
    if v is None:
        return repr((tag, name, None))
    return repr((tag, name, v.ok, v.witness, v.detail, repr(v),
                 json.dumps(_verdict_json(v))))


# sha256 over _record of every case, captured from checkers that
# computed each failing verdict's witness and detail when they decided it
CASES_SHA256 = "9695f0f4e9bca49a53154b11e4286f5483b397a4e1d6378910e8afedb216ad3c"
# cases, failing verdicts, checkers with a failing verdict
CASE_COUNTS = (18362, 9351, 34)
# failing verdicts per checker read through the whole protocol
PROTOCOL_CASES = 3


def _protocol(ref):
    """What a verdict is read as, each read taken on a fresh verdict."""
    return (
        lambda v: v.ok, lambda v: v.witness, lambda v: v.detail, bool, repr,
        _verdict_json, tuple, len, list,
        lambda v: (v == ref, ref == v, v != ref, ref != v, v == tuple(ref), tuple(ref) == v),
        lambda v: hash(v) == hash(ref),
        lambda v: v in {ref: 0},
        lambda v: (lambda ok, witness, detail: (ok, witness, detail))(*v),
        lambda v: (v[0], v[1], v[2], v[-1], v[:2], v[::-1]),
        lambda v: (type(v._replace(ok=True)) is Verdict, v._replace(ok=True)),
        lambda v: v._replace(detail="x") == (False, ref.witness, "x"),
        lambda v: v._asdict(),
    )


def test_every_verdict_matches_the_captured_one():
    """Each case's verdict, witness, detail, repr and CLI JSON, in order,
    against ``CASES_SHA256``; and the first failing verdicts of each
    checker, read each way ``_protocol`` lists, each read on a fresh
    copy, read as the plain ``Verdict`` of their fields."""
    digest = hashlib.sha256()
    cases, failing = 0, collections.Counter()
    for tag, name, make in _cases():
        v = _outcome(make)
        digest.update(_record(tag, name, v).encode())
        cases += 1
        if isinstance(v, Verdict) and not v.ok:
            failing[name] += 1
            if failing[name] <= PROTOCOL_CASES:
                ref = Verdict(v.ok, v.witness, v.detail)
                for read in _protocol(ref):
                    assert read(make()) == read(ref), (tag, name)
    assert (cases, sum(failing.values()), len(failing)) == CASE_COUNTS
    assert digest.hexdigest() == CASES_SHA256


# -- laziness and lifetime ----------------------------------------------------

def _count_renders(monkeypatch):
    """Count the calls of ``poset._render``, under every name the package
    imports it by, and of ``Subset.render``."""
    calls = []
    render = poset_module._render

    def counted(*args):
        calls.append(args)
        return render(*args)
    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("kleene_posets")
                and getattr(module, "_render", None) is render):
            monkeypatch.setattr(module, "_render", counted)
    monkeypatch.setattr(Subset, "render", lambda s: counted(s.owner.labels, s.mask))
    return calls


def _ladder(s):
    """The failing ladder, lattice and distributivity verdicts of an
    involutive poset, as (name, verdict)."""
    p = s.base
    verdicts = [("pseudo-Kleene", s.is_pseudo_kleene()), ("strong", s.is_strong()),
                ("lattice", p.is_lattice()), ("LU alone", p.is_distributive("LU")),
                *p.distributivity_all_forms().items()]
    if None not in p.bounds():
        verdicts.append(("strict", s.is_strict()))
    verdicts.append(("Kleene", s.is_kleene()))    # last: it reads (K) and LU
    return [(name, v) for name, v in verdicts if not v.ok]


def test_failing_verdicts_render_only_when_read(monkeypatch):
    """Computing the failing (K), Kleene, strong, strict, lattice and
    distributivity verdicts of every involutive instance with n <= 6 and
    of its completion renders nothing; reading a detail renders it, and
    reading it again renders nothing more."""
    calls = _count_renders(monkeypatch)
    failing = []
    for n in range(1, 7):
        for ip in map(_copy, _involutive_representatives(n)):
            for s in (ip, dedekind_macneille(ip).as_involutive_poset()):
                failing += _ladder(s)
    assert calls == []
    assert {name for name, _ in failing} == {"pseudo-Kleene", "Kleene", "strong", "strict",
                                             "lattice", "LU alone", *DISTRIBUTIVITY_FORMS}
    read = set()
    for name, v in failing:
        before = len(calls)
        detail = v.detail
        after = len(calls)
        assert (v.detail, v.witness, tuple(v)) == (detail, v.witness, (False, v.witness, detail))
        assert len(calls) == after, name
        # is_distributive("LU") is the all-forms scan's LU verdict
        if name != "lattice" and name != "Kleene" and id(v) not in read:
            assert after > before, name
        read.add(id(v))


def test_an_explanation_runs_once():
    """Every read of a failing verdict but ``ok`` runs its ``explain``
    the first time and never again."""
    runs = []
    v = _failing(lambda: runs.append(1) or ((0, 1), "detail"))
    assert not v.ok and not v and runs == []
    assert v.detail == "detail" and runs == [1]
    assert (v.witness, v.detail, v[1], tuple(v), hash(v)) == (
        (0, 1), "detail", (0, 1), (False, (0, 1), "detail"), hash((False, (0, 1), "detail")))
    assert v == Verdict(False, (0, 1), "detail") and runs == [1]


def test_explanations_pass_arguments_and_copy_as_plain_verdicts():
    v = _failing(lambda x, y: ((x, y), f"{x} and {y}"), 2, 3)
    assert v == (False, (2, 3), "2 and 3")
    assert type(copy.copy(v)) is Verdict and copy.copy(v) == v
    assert pickle.loads(pickle.dumps(v)) == v


def _completion_failing_k():
    """A fresh completion whose (K) fails, as the involutive poset of its
    cut completion and the completion itself."""
    for n in range(1, 7):
        for ip in _involutive_representatives(n):
            dm = dedekind_macneille(_copy(ip))
            if not dm.as_involutive_poset().is_pseudo_kleene().ok:
                return ip
    raise AssertionError("no completion fails (K)")


def test_a_discarded_completion_dies_without_the_collector():
    """A completion's involutive poset whose memo holds failing (K),
    Kleene and strong verdicts is freed by reference counting alone, and
    the verdicts still explain themselves after it is gone: no
    explanation holds the structure that memoises it."""
    ip = _completion_failing_k()
    want = {}
    fresh = dedekind_macneille(_copy(ip)).as_involutive_poset()
    for name, v in _ladder(fresh):
        want[name] = tuple(v)
    enabled = gc.isenabled()
    gc.disable()
    try:
        dm = dedekind_macneille(_copy(ip))
        s = dm.as_involutive_poset()
        verdicts = _ladder(s)
        owner = weakref.ref(s)
        del dm, s
        assert owner() is None
    finally:
        if enabled:
            gc.enable()
    assert {name: tuple(v) for name, v in verdicts} == want
    assert "pseudo-Kleene" in want


def _reaches(obj, target, seen):
    """Whether ``target`` is reachable from ``obj``, following a
    function's closure and defaults but not its globals."""
    if obj is target:
        return True
    if id(obj) in seen or isinstance(obj, (str, int, type, types.ModuleType)):
        return False
    seen.add(id(obj))
    if isinstance(obj, types.FunctionType):
        refs = [cell.cell_contents for cell in obj.__closure__ or ()]
        refs += obj.__defaults__ or ()
    else:
        refs = gc.get_referents(obj)
    return any(_reaches(ref, target, seen) for ref in refs)


def _memoised_failures():
    """(owner, method name, arguments) of memoised checkers that fail on
    fresh structures: the ladders, lattice and distributivity verdicts of
    fixtures and of a completion failing (K), and fig4's edited tables'
    axioms and identities."""
    completion = dedekind_macneille(_copy(_completion_failing_k())).as_involutive_poset()
    for f in (figure("fig1"), figure("fig2"), figure("fig4"), figure("fig6"), figure("fig7"),
              figure("fig9"), completion):
        for method in ("check_antitone_involution", "is_pseudo_kleene", "is_kleene",
                       "is_strong", "is_strict"):
            if method != "is_strict" or None not in f.bounds():
                yield f, method, ()
        yield f.base, "is_lattice", ()
        for form in DISTRIBUTIVITY_FORMS:
            yield f.base, "_distributivity_verdict", (form,)
    yield InvolutivePoset(_copy(figure("fig1").base), (1, 0, 2, 3, 4, 5)), \
        "check_antitone_involution", ()
    for d in itertools.islice(_edited_fig4_tables(), 0, None, 7):
        for method in ("check_directoid_axioms", "check_identities_1_2"):
            yield d, method, ()
        if d.check_identities_1_2().ok:
            for method in ("check_identity_3", "check_implication_4", "check_implication_5"):
                yield _table_copy(d), method, ()


def test_no_memoised_explanation_holds_its_owner():
    """The explanation of every failing memoised verdict, arguments and
    closure included, reaches neither the structure that memoises it nor
    that structure's memo."""
    kinds = set()
    for owner, method, args in _memoised_failures():
        v = getattr(owner, method)(*args)
        if v.ok:
            continue
        kinds.add(method)
        explanation = tuple.__getitem__(v, 1)
        assert not _reaches(explanation, owner, set()), method
        assert not _reaches(explanation, owner._memo, set()), method
    assert kinds == {"check_antitone_involution", "is_pseudo_kleene", "is_kleene", "is_strong",
                     "is_strict", "is_lattice", "_distributivity_verdict",
                     "check_directoid_axioms", "check_identities_1_2", "check_identity_3",
                     "check_implication_4", "check_implication_5"}
