"""What each CLI process loads: a command run as a program imports only the
modules it runs and builds only its own arguments; a library import of
`jortwist.cli` loads every module; the package's public names resolve.
Neither loads `fractions` (nor `decimal`, which it imports): the kernel's
ints are the only rationals of a run, and a `--u` that is not a plain
ratio loads `fractions` on demand."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jortwist import cli

SRC = Path(cli.__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
MODULES = ["jortwist." + m for m in ("borel", "cli", "exactalg", "identities",
                                     "report", "twists")]
# what loaded() reports: the package's modules and these two
PROBED = "m.startswith('jortwist.') or m in ('decimal', 'fractions')"
TWIST_SIDE = ["jortwist.borel", "jortwist.exactalg", "jortwist.report",
              "jortwist.twists"]
IDENTITIES_SIDE = ["jortwist.exactalg", "jortwist.identities",
                   "jortwist.report"]


def python(*args):
    """A fresh interpreter on the checkout's source: (stdout bytes, stderr
    text); it must exit 0."""
    res = subprocess.run([sys.executable, *args], env=ENV, capture_output=True,
                         check=True)
    return res.stdout, res.stderr.decode()


def loaded(argv):
    """The jortwist modules, and `decimal` and `fractions` if loaded, in
    sys.modules when the program `jortwist.cli` exits after running argv
    (run as `python -m jortwist.cli` runs it)."""
    probe = ("import atexit, runpy, sys; atexit.register(lambda: "
             "sys.stderr.write(repr(sorted(m for m in sys.modules "
             "if %s)))); "
             "runpy.run_module('jortwist.cli', run_name='__main__', "
             "alter_sys=True)" % PROBED)
    _, err = python("-c", probe, *argv)
    return err


@pytest.mark.parametrize("argv", [
    ["identities", "--chain", "R", "--bound", "0", "--format", "json"],
    ["identities", "--det", "5"],
], ids=["chain", "det"])
def test_identities_run_loads_neither_borel_nor_twists(argv):
    _, err = python("-X", "importtime", "-m", "jortwist.cli", *argv)
    assert "jortwist.borel" not in err and "jortwist.twists" not in err
    assert loaded(argv) == repr(IDENTITIES_SIDE)


@pytest.mark.parametrize("argv", [
    ["expand", "--family", "R", "--order", "1", "--format", "json"],
    ["expand", "--family", "L", "--order", "3", "--u", "-2/5"],
    ["verify", "--check", "lr", "--order", "1", "--format", "json"],
    ["verify", "--all", "--order", "2"],
    ["--help"],
])
def test_twist_runs_do_not_load_identities(argv):
    _, err = python("-X", "importtime", "-m", "jortwist.cli", *argv)
    assert "jortwist.identities" not in err
    assert loaded(argv) == repr(TWIST_SIDE)


def test_benchmark_operations_load_neither_fractions_nor_decimal(bench_run):
    # every operation of every workload, at each u the workloads draw
    workloads = [w["name"] for w in json.loads(
        (SRC.parent / "BENCHMARK.json").read_text())["workloads"]]
    argvs = {op.argv for name in workloads
             for op in bench_run.workload_ops(name, 1)}
    argvs |= {op.argv for u in bench_run.U_SET
              for op in bench_run.series_ops(u)}
    found = {" ".join(argv): loaded(argv) for argv in sorted(argvs)}
    assert len(found) > len(bench_run.U_SET) * 2
    for argv, modules in found.items():
        side = IDENTITIES_SIDE if argv.startswith("identities") else TWIST_SIDE
        assert modules == repr(side), argv


def test_a_u_in_decimal_notation_loads_fractions_on_demand():
    argv = ["expand", "--family", "R", "--order", "3", "--format", "json"]
    out, _ = python("-m", "jortwist.cli", *argv, "--u", "0.4")
    assert out == python("-m", "jortwist.cli", *argv, "--u", "2/5")[0]
    assert loaded(argv + ["--u", "0.4"]) == repr(["decimal", "fractions"]
                                                 + TWIST_SIDE)


def test_library_import_loads_every_module():
    # perfbench/tracer.py wraps what `import jortwist.cli` has loaded
    out, _ = python("-c", "import sys, jortwist.cli; print(sorted(m for m in "
                          "sys.modules if %s))" % PROBED)
    assert out.decode().strip() == repr(MODULES)


def test_every_public_name_resolves_to_its_module_object():
    probe = """if True:
        import importlib, json, sys
        import jortwist
        before = sorted(m for m in sys.modules if m.startswith("jortwist."))
        found = {}
        for name in jortwist.__all__:
            obj = getattr(jortwist, name)
            home = importlib.import_module(obj.__module__)
            found[name] = [obj.__module__, getattr(home, name) is obj]
        cached = sorted(set(jortwist.__all__) & set(vars(jortwist)))
        found["twists"] = [jortwist.twists.__name__,
                           jortwist.twists is sys.modules["jortwist.twists"]]
        try:
            jortwist.no_such_name
            missing = "resolved"
        except AttributeError:
            missing = "AttributeError"
        print(json.dumps([before, found, cached, missing]))
    """
    out, _ = python("-c", probe)
    before, found, cached, missing = json.loads(out)
    assert before == ["jortwist.exactalg", "jortwist.report"]
    assert set(found) == {
        "DPoly", "UPoly", "binom_poly", "TensorElement", "conjugate",
        "exp_series", "first_difference", "geometric_inverse",
        "log1p_series", "series_apply", "VerificationReport", "build_twist",
        "twists"}
    assert all(same for _, same in found.values())
    assert found["build_twist"][0] == "jortwist.twists"
    assert found["geometric_inverse"][0] == "jortwist.borel"
    # the lazy names are read through, never stored in the package
    assert cached == ["DPoly", "UPoly", "VerificationReport", "binom_poly"]
    assert missing == "AttributeError"


@pytest.mark.parametrize("argv", [
    ["expand", "--family", "L", "--order", "2", "--u", "1/3"],
    ["verify", "--check", "lr", "--order", "2", "--format", "json"],
    ["identities", "--chain", "R", "--bound", "1", "--format", "json"],
])
def test_program_output_equals_main(argv, capsys):
    assert cli.main(argv) == 0
    out, _ = python("-m", "jortwist.cli", *argv)
    assert out == capsys.readouterr().out.encode()


@pytest.mark.parametrize("argv", [
    ["expand", "--family", "0", "--order", "1", "--u", "1/2"],
    ["expand", "--family", "1", "--order", "1", "--u", "1/2"],
    ["expand", "--family", "0", "--order", "1", "--form", "product"],
    ["verify", "--check", "lr", "--order", "0"],
    ["identities", "--det", "32768"],
])
def test_program_refusal_equals_main(argv, capsys):
    # the library's ValueError is a usage error both ways, the program
    # having loaded only its command's layer
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    expected = capsys.readouterr().err.splitlines()[-1]
    res = subprocess.run([sys.executable, "-m", "jortwist.cli", *argv],
                         env=ENV, capture_output=True, text=True)
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines()[-1] == expected


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, (help_text, *_) in cli.COMMANDS.items():
        assert "%s  " % name in out and help_text in out


@pytest.mark.parametrize("name", ["expand", "verify", "identities"])
def test_each_command_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([name, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: jortwist %s " % name)
    assert "--format" in out


def _arguments(parser):
    sub = next(a for a in parser._actions if a.dest == "command")
    return {name: [a.dest for a in p._actions if a.dest != "help"]
            for name, p in sub.choices.items()}


def test_parser_builds_only_the_chosen_commands_arguments():
    chosen = _arguments(cli._build_parser("identities"))
    assert list(chosen) == list(cli.COMMANDS)
    assert chosen["expand"] == chosen["verify"] == []
    assert "chain" in chosen["identities"]
    every = _arguments(cli._build_parser())
    assert all(every[name] for name in cli.COMMANDS)
    assert every["identities"] == chosen["identities"]
