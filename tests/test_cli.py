"""Command-line surface: exit codes, text reports, JSON stability."""

import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from kleene_posets import cli, directoid, run_cli
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


def test_readme_cli_lines_parse(monkeypatch):
    """Every ``kleene-posets`` line of the README's CLI block is accepted
    by the parser and runs from the repository root."""
    root = FIXTURES.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command-line interface", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()
             if line.startswith("kleene-posets ")]
    assert lines
    monkeypatch.chdir(root)
    for argv in lines:
        code, _, err = run(*argv[1:])
        assert code != 2, (argv, err)


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


def test_complete_invalid_involution_exits_1_in_both_forms(tmp_path):
    bad = tmp_path / "bad.poset"
    bad.write_text("elements a b c\ncovers a<b b<c\n"
                   "involution a:a b:b c:c\n")
    code, out, err = run("complete", str(bad), "--json")
    assert (code, err) == (1, "")
    data = json.loads(out)
    assert data == {"command": "complete", "file": str(bad),
                    "involution": {"ok": False, "detail": data["involution"]["detail"]}}
    assert data["involution"]["detail"].startswith("not antitone")
    assert run("complete", str(bad)) == (
        1, f"involution invalid — {data['involution']['detail']}\n", "")


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
    assert "'zz'" in err


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


# sha256 of stdout + stderr, with the exit code, of ``directoid
# fixtures/NAME.poset --all-assignments 50`` (text, then ``--json``), run
# from the repository root; captured before the identities were decided
# once per table signature.  fig9 is not downward directed.
DIRECTOID_50_DIGESTS = {
    ("fig1", False): (0, "a2f0e7922004a4de43ab7a3dd0f947e89cfc015b35040a16f4afd014de7627bf"),
    ("fig1", True): (0, "e6469e15e65dcabb40cbbe93848dd9758ddab95437ad82fcb3a872b21030f1fb"),
    ("fig2", False): (0, "e6ee269a7f81755c4860e5e8b711c421d20f934ab14fe9ce365150257a955ec8"),
    ("fig2", True): (0, "5b591545d6ab5ea48d91530bf17115985fc51457d89f5b1952f15b6cd6662e06"),
    ("fig3", False): (0, "4ab178b953f9408928e34df62b6f630f38ba9bc5e34ea3783447420a4cbe5689"),
    ("fig3", True): (0, "58d720a8d9800d8fe615971a53320d120d13102adf1653bc74a1edcf555f3b59"),
    ("fig4", False): (0, "78921b44d919cceef663a5f716d1896cebefcfb2b71ad0077a11ac5a5dd67352"),
    ("fig4", True): (0, "6fed157bb7672e8ea75badcc7300cc6bff7cddf8fd14003070dfc2c6de3ae87a"),
    ("fig5", False): (0, "4e5dce6f4ead6ebb88c0b8bc225dd82ed34c5b57f565cef64c55fe49cbf19649"),
    ("fig5", True): (0, "50feb7b15fe4aa7bb9ed9668b6e9a9d29b0b60ec822a1045d89c5ddd6c71d840"),
    ("fig6", False): (0, "f486ae9e7f46c054465c199be949e93821f2f6dc92d5fa7b1e0e845c5638d8a6"),
    ("fig6", True): (0, "2be66df49d73010b9dbe251680ffcd02434342a768ed0a89bdc7502a4b25a948"),
    ("fig7", False): (0, "f556c9e3ff77c8d219197360b004456ae8483e91a28f22696c70a894cbc97466"),
    ("fig7", True): (0, "d1faebe6d8a7c8faf0105b18ea1a525661f87c93d3a0d00a1e3ffe411353b3c6"),
    ("fig8", False): (0, "1db392eab7610bd736982487c6280d527b119d446eb1029274c51d26d8fb3135"),
    ("fig8", True): (0, "459cf6c7738542d2aa759caac3c4cb546ebc997069b2f2faf6728ad90b3ec6d7"),
    ("fig9", False): (2, "0851e498c79a957aac83ae2f8ebe08583627b53e041e27e77e60241f5d8d444d"),
    ("fig9", True): (2, "0851e498c79a957aac83ae2f8ebe08583627b53e041e27e77e60241f5d8d444d"),
}


@pytest.mark.parametrize("name, as_json", sorted(DIRECTOID_50_DIGESTS))
def test_directoid_all_assignments_pinned(monkeypatch, name, as_json):
    monkeypatch.chdir(FIXTURES.parent)
    argv = ("directoid", f"fixtures/{name}.poset", "--all-assignments", "50")
    code, out, err = run(*argv, *(("--json",) if as_json else ()))
    digest = hashlib.sha256((out + err).encode()).hexdigest()
    assert (code, digest) == DIRECTOID_50_DIGESTS[name, as_json]


@pytest.mark.parametrize("as_json", [False, True])
def test_directoid_cap_above_maxsize_is_no_cap(monkeypatch, as_json):
    """A cap past ``sys.maxsize`` is above fig4's two tables: no cap."""
    monkeypatch.chdir(FIXTURES.parent)
    flags = ("--json",) if as_json else ()
    huge = run("directoid", "fixtures/fig4.poset", "--all-assignments", str(10**20), *flags)
    assert huge == run("directoid", "fixtures/fig4.poset", "--all-assignments", "1000",
                       *flags)
    assert (huge[0], huge[2]) == (0, "")


def test_directoid_renders_pair_keys_once(monkeypatch):
    """Every table of one poset has the same incomparable pairs, so the
    command renders their keys once, not once per table."""
    calls, render = [], directoid._pair_keys

    def counted(labels, pairs):
        calls.append(pairs)
        return render(labels, pairs)

    for module in (cli, directoid):
        monkeypatch.setattr(module, "_pair_keys", counted)
    monkeypatch.chdir(FIXTURES.parent)
    code, out, _ = run("directoid", "fixtures/fig7.poset", "--all-assignments", "50")
    assert code == 0 and out.count("\nassignment ") == 50
    assert len(calls) == 1


def test_commands_in_one_process_print_their_lone_bytes(tmp_path):
    """The identity verdicts are shared within one command's walk only:
    commands run one after another in one process print exactly what
    each prints in a process of its own.  fig1 with renamed elements has
    the same table signatures as fig1, but other witness details."""
    renamed = tmp_path / "renamed.poset"
    renamed.write_text((FIXTURES / "fig1.poset").read_text()
                       .replace("a", "p").replace("b", "q"))
    commands = [("directoid", "fixtures/fig6.poset", "--all-assignments", "20", "--json"),
                ("directoid", "fixtures/fig6.poset", "--all-assignments", "20"),
                ("directoid", "fixtures/fig7.poset", "--all-assignments", "20"),
                ("directoid", "fixtures/fig1.poset", "--all-assignments", "3"),
                ("directoid", str(renamed), "--all-assignments", "3"),
                ("directoid", "fixtures/fig6.poset", "--all-assignments", "5")]
    root = FIXTURES.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    script = ("import io, json, sys\n"
              "from kleene_posets import run_cli\n"
              "outs = []\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    out = io.StringIO()\n"
              "    outs.append([run_cli(argv, out, io.StringIO()), out.getvalue()])\n"
              "print(json.dumps(outs))\n")

    def in_one_process(argvs):
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                              capture_output=True, text=True, env=env, cwd=root,
                              check=True)
        return json.loads(proc.stdout)

    together = in_one_process(commands + commands[::-1])
    alone = [in_one_process([argv])[0] for argv in commands]
    assert together == alone + alone[::-1]
    assert len({out for _, out in alone}) == len(commands)


# Labels holding commas: a ⊙ "b,c" and "a,b" ⊙ c both key as "a,b,c".
COMMA_LABELS = ("elements 0 a c a,b b,c 1\n"
                "covers 0<a 0<c 0<a,b 0<b,c a<1 c<1 a,b<1 b,c<1\n"
                "involution 0:1 a:c a,b:b,c\n")


@pytest.mark.parametrize("as_json", [False, True])
def test_residuate_rejects_colliding_cell_keys(tmp_path, as_json):
    path = tmp_path / "commas.poset"
    path.write_text(COMMA_LABELS)
    code, out, err = run("residuate", str(path), *(("--json",) if as_json else ()))
    assert (code, out) == (2, "")
    assert err == ("error: pairs ('a', 'b,c') and ('a,b', 'c') both render "
                   "as 'a,b,c'\n")


@pytest.mark.parametrize("as_json", [False, True])
def test_directoid_rejects_colliding_pair_keys(tmp_path, as_json):
    """Only incomparable pairs x < y (in element order) are keyed, so the
    fixture above has six distinct keys; listing "a,b" before a makes
    ("a,b", c) and (a, "b,c") both such pairs."""
    flag = ("--json",) if as_json else ()
    path = tmp_path / "commas.poset"
    path.write_text(COMMA_LABELS)
    code, out, err = run("directoid", str(path), "--json")
    assert code == 0 and err == ""
    assert len(json.loads(out)["assignments"][0]["choices"]) == 6
    path.write_text(COMMA_LABELS.replace("0 a c a,b", "0 a,b c a"))
    code, out, err = run("directoid", str(path), "--all-assignments", "3", *flag)
    assert (code, out) == (2, "")
    assert err == ("error: pairs ('a,b', 'c') and ('a', 'b,c') both render "
                   "as 'a,b,c'\n")


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


@pytest.mark.parametrize("flags, exit_code", [([], 1), (["--json"], 1)])
def test_closed_pipe_ends_the_command_without_a_traceback(flags, exit_code):
    """A reader that closes stdout after one line (``| head -1``) leaves
    nothing on stderr, and the command exits 1.  Both forms write more
    than a pipe holds: the text form line by line, the JSON form in one
    write, which CPython's buffered writer may cut short without
    raising, so the console entry point checks the count it returns."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kleene_posets", "directoid", fx("fig6"),
         "--all-assignments", "300", *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    code = proc.wait()
    assert err == b""
    assert code == exit_code
