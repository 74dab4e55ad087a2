"""Command-line surface: exit codes, text reports, JSON stability."""

import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from kleene_posets import run_cli
from kleene_posets.cli import _build_parser

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


def fx(name):
    return str(FIXTURES / f"{name}.poset")


# -- check ----------------------------------------------------------------

def test_check_fig1_report():
    code, out, err = run("check", fx("fig1"))
    assert code == 0 and err == ""
    assert "summary: Kleene poset; not a lattice" in out
    assert "involution: valid" in out
    assert "bounds: bottom=0 top=1" in out
    assert "strong: no" in out


def test_readme_check_example_matches(monkeypatch):
    """The README's ``kleene-posets check fixtures/fig1.poset`` example is
    the command's output, line for line."""
    root = FIXTURES.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    prompt = "$ kleene-posets check fixtures/fig1.poset\n"
    assert prompt in readme
    block = readme.split(prompt, 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    assert run("check", "fixtures/fig1.poset") == (0, block, "")


def test_check_plain_poset():
    code, out, _ = run("check", fx("fig8"))
    assert code == 0
    assert "pseudo-Kleene: not applicable" in out


def test_check_invalid_involution_exits_1(tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("elements a b c\ncovers a<b b<c\n"
                   "involution a:a b:b c:c\n")
    code, out, _ = run("check", str(bad))
    assert code == 1
    assert "invalid" in out


def test_check_json_golden():
    code, out, _ = run("check", fx("fig4"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["command"] == "check"
    assert data["elements"] == ["0", "a", "b", "b'", "a'", "1"]
    c = data["classification"]
    assert c["summary"] == "strict Kleene algebra; lattice"
    assert c["kleene"] == {"ok": True, "detail": ""}
    assert c["strict"]["ok"] is True
    assert c["boolean"]["ok"] is False
    assert c["bounds"] == {"bottom": "0", "top": "1"}
    # keys are sorted for byte-stable goldens
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"


# -- complete ---------------------------------------------------------------

def test_complete_fig1():
    code, out, _ = run("complete", fx("fig1"))
    assert code == 0
    assert "completion of" in out and "7 ideals" in out
    assert "fixed ideals: {0,a,b}" in out
    assert "summary: Kleene algebra; lattice" in out


def test_complete_dot_flag():
    code, out, _ = run("complete", fx("fig8"), "--dot")
    assert code == 0
    assert 'digraph "completion"' in out


def test_complete_json_embedding():
    code, out, _ = run("complete", fx("fig1"), "--json")
    data = json.loads(out)
    assert data["count"] == 7
    assert data["embedding"]["0"] == "{0}"
    assert data["embedding"]["1"] == "{0,a,b,b',a',1}"
    assert data["fixed_ideals"] == ["{0,a,b}"]


# -- twist --------------------------------------------------------------------

def test_twist_fig8():
    code, out, _ = run("twist", fx("fig8"), "--at", "a")
    assert code == 0
    assert "13 elements" in out
    assert "pseudo-Kleene with pivot fixed point: yes" in out
    assert "DISAGREE" in out  # source distributive, twist not Kleene


def test_twist_requires_pivot():
    code, _, _ = run("twist", fx("fig8"))
    assert code == 2


def test_twist_unknown_pivot():
    code, _, err = run("twist", fx("fig8"), "--at", "zz")
    assert code == 2
    assert "error:" in err


def test_twist_json():
    code, out, _ = run("twist", fx("fig8"), "--at", "a", "--json")
    data = json.loads(out)
    assert data["count"] == 13
    assert data["part_i"]["ok"] and data["part_ii"]["ok"]
    assert data["agreement"]["source_distributive"] is True
    assert data["agreement"]["twist_kleene"] is False
    assert data["product_cones"]["restricted"]["ok"] is True
    assert data["product_cones"]["unrestricted"]["ok"] is False


# -- residuate -------------------------------------------------------------------

def test_residuate_fig7_passes():
    code, out, _ = run("residuate", fx("fig7"))
    assert code == 0
    assert "adjointness: yes" in out
    assert "condition (7): yes" in out
    assert "duality (v): pass [strict Kleene]" in out
    assert "odot table:" in out and "arrow table:" in out


def test_residuate_fig6_fails():
    code, out, _ = run("residuate", fx("fig6"))
    assert code == 1
    assert "adjointness: no" in out
    assert "condition (7): yes" in out


def test_residuate_requires_involution():
    code, _, err = run("residuate", fx("fig8"))
    assert code == 2
    assert "involution" in err


def test_residuate_json_tables():
    code, out, _ = run("residuate", fx("fig4"), "--json")
    data = json.loads(out)
    assert data["odot"]["b,b"] == ["0", "a", "b"]
    assert data["arrow"]["b,0"] == ["b'", "a'", "1"]
    assert data["adjointness_case_counts"]["7"] == 17
    assert data["axioms"]["adjointness"]["ok"] is True


# -- directoid ---------------------------------------------------------------------

def test_directoid_default():
    code, out, _ = run("directoid", fx("fig1"))
    assert code == 0
    assert "3 total, 1 checked (sampled)" in out
    assert "{a,b}->0" in out
    assert "(5): no" in out  # fig1 is not strong


def test_directoid_all_assignments():
    code, out, _ = run("directoid", fx("fig4"), "--all-assignments", "10")
    assert code == 0
    assert "2 total, 2 checked" in out
    assert "(sampled)" not in out
    assert out.count("(6): yes") == 2  # fig4 is strict


@pytest.mark.parametrize("argv, header", [
    ((), "2 total, 1 checked (sampled)"),
    (("--all-assignments", "1"), "2 total, 1 checked (sampled)"),
    (("--all-assignments", "2"), "2 total, 2 checked\n"),
])
def test_directoid_sampled_only_below_the_count(argv, header):
    code, out, _ = run("directoid", fx("fig4"), *argv)
    assert code == 0
    assert out.startswith(f"meet assignments of {fx('fig4')}: {header}")


def test_directoid_plain_poset():
    code, out, _ = run("directoid", fx("fig8"))
    assert code == 0
    assert "identities: not applicable (no unary map)" in out


def test_directoid_json():
    code, out, _ = run("directoid", fx("fig1"), "--json")
    data = json.loads(out)
    assert data["assignment_count"] == 3
    assert data["sampled"] is True
    entry = data["assignments"][0]
    assert entry["choices"] == {"a,b": "0", "b',a'": "0"}
    assert entry["directoid_axioms"]["ok"] is True
    assert entry["induces_original_order"] is True
    assert entry["identities"]["4"]["ok"] is True
    assert entry["identities"]["5"]["ok"] is False


# -- audit -------------------------------------------------------------------------

def test_audit_confirmed_exit_0():
    code, out, _ = run("audit", "Lem-2.2", "--max-n", "3")
    assert code == 0
    assert "verdict: Confirmed" in out


def test_audit_refuted_exit_1_and_witness_printed():
    code, out, _ = run("audit", "Thm-6.1-iii", "--max-n", "3")
    assert code == 1
    assert "verdict: Refuted" in out
    assert "witness 1:" in out
    assert "replay: violations reproduce" in out


def test_audit_alias():
    code, out, _ = run("audit", "Theorem-4.2", "--max-n", "3")
    assert code == 0


def test_audit_unknown_claim():
    code, _, err = run("audit", "Nope")
    assert code == 2
    assert "known claims" in err


def test_audit_json():
    code, out, _ = run("audit", "U-pair-law-printed", "--max-n", "3", "--json")
    data = json.loads(out)
    assert data["verdict"] == "Refuted"
    assert data["replay"] is True
    assert data["witnesses"]


@pytest.mark.parametrize("argv,message", [
    (("audit", "Lem-2.2", "--max-n", "0"), "size bound must be at least 1"),
    (("audit", "Lem-2.2", "--max-n", "-3"), "size bound must be at least 1"),
    (("audit", "Thm-4.2", "--max-n", "3", "--cap", "0"),
     "assignment cap must be at least 1"),
    (("audit", "Thm-4.2", "--max-n", "3", "--cap", "-1"),
     "assignment cap must be at least 1"),
    (("directoid", fx("fig1"), "--all-assignments", "0"),
     "assignment cap must be at least 1"),
    (("directoid", fx("fig1"), "--all-assignments", "-1"),
     "assignment cap must be at least 1"),
], ids=["max-n-0", "max-n-neg", "cap-0", "cap-neg", "all-assignments-0",
        "all-assignments-neg"])
def test_bounds_below_1_are_usage_errors(argv, message):
    code, out, err = run(*argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# -- usage ---------------------------------------------------------------------------

def test_missing_file():
    code, _, err = run("check", "no-such-file.poset")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [("check",), ("complete",), ("complete", "--dot"),
                                  ("twist", "--at", "a"), ("residuate",),
                                  ("directoid",), ("directoid", "--json")],
                         ids="-".join)
def test_non_utf8_fixture_is_usage_error(tmp_path, argv):
    bad = tmp_path / "bad.poset"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(argv[0], str(bad), *argv[1:])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: ")
    assert "codec can't decode" in err and err.count("\n") == 1


def test_parse_error_reported():
    import tempfile, os
    with tempfile.NamedTemporaryFile("w", suffix=".poset",
                                     delete=False) as fh:
        fh.write("elements a b\ncovers a<zz\n")
        path = fh.name
    try:
        code, _, err = run("check", path)
        assert code == 2
        assert "parse error: line 2" in err
    finally:
        os.unlink(path)


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run()
    assert code == 2


def test_help_exits_0(capsys):
    code, _, _ = run("--help")
    assert code == 0


def test_one_parser_serves_every_call(capsys):
    """The cached parser gives each call the output a freshly built one
    gives, whatever ran before it, and still rejects a bad argument."""
    calls = [("check", fx("fig1"), "--json"), ("check", fx("fig1")),
             ("directoid", fx("fig2"), "--json"), ("directoid", fx("fig2")),
             ("check", fx("fig4"), "--nonsense"), ("check", fx("fig4"))]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(*argv))
    parser = _build_parser()
    assert [run(*argv) for argv in calls] == fresh
    assert _build_parser() is parser
    assert fresh[4][0] == 2 and fresh[5][0] == 0
    assert fresh[0][1] != fresh[1][1] and fresh[0][1].startswith("{")


def test_directoid_on_undirected_poset_is_usage_error(tmp_path):
    path = tmp_path / "v.poset"
    path.write_text("elements a b c\ncovers a<c\ncovers b<c\n")
    code, out, err = run("directoid", str(path))
    assert code == 2 and out == ""
    assert "not downward directed" in err


@pytest.mark.parametrize("name, exit_code", [("fig7", 0), ("fig6", 1)])
def test_python_m_runs_the_cli(name, exit_code):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "kleene_posets", "residuate", fx(name)],
                          capture_output=True, text=True, env=env)
    code, out, _ = run("residuate", fx(name))
    assert (proc.returncode, proc.stdout) == (exit_code, out) == (code, out)
