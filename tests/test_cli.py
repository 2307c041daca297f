import argparse
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from jortwist import cli, identities, twists
from jortwist.cli import element_from_dict, element_to_dict, element_to_text
from jortwist.report import VerificationReport


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestExpand:
    def test_text_first_order(self, capsys):
        code, out = run(["expand", "--family", "L", "--order", "1",
                         "--u", "symbolic", "--format", "text"], capsys)
        assert code == 0
        assert out.splitlines() == [
            "1 · 1⊗1",
            "(-u)/κ · D⊗P",
            "(-u+1)/κ · P⊗D",
        ]

    def test_trivial_expansion(self, capsys):
        code, out = run(["expand", "--family", "0", "--order", "0"], capsys)
        assert code == 0
        assert out.strip() == "1 · 1⊗1"

    def test_ascii_mode(self, capsys):
        code, out = run(["expand", "--family", "L", "--order", "1",
                         "--ascii"], capsys)
        assert code == 0
        assert "κ" not in out and "⊗" not in out
        assert "kappa" in out and "(x)" in out

    def test_json_rational_u(self, capsys):
        code, out = run(["expand", "--family", "R", "--inverse",
                         "--order", "1", "--u", "1/2", "--format", "json"],
                        capsys)
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        grade1 = [t for t in data["terms"] if t["kappa_power"] == 1]
        coeffs = {c for t in grade1 for m in t["dpoly"]
                  for _, c in m["upoly"]}
        assert coeffs == {"1/2", "-1/2"}

    def test_json_round_trip(self, capsys):
        code, out = run(["expand", "--family", "L", "--order", "3",
                         "--format", "json"], capsys)
        data = json.loads(out)
        assert element_from_dict(data) == twists.build_twist("L", "twist", 3)

    def test_output_deterministic(self, capsys):
        argv = ["expand", "--family", "R", "--order", "2", "--format", "json"]
        _, first = run(argv, capsys)
        _, second = run(argv, capsys)
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "twist.json"
        code, out = run(["expand", "--family", "1", "--order", "2",
                         "--format", "json", "--out", str(path)], capsys)
        assert code == 0 and out == ""
        data = json.loads(path.read_text())
        assert element_from_dict(data) == twists.build_twist("1", "twist", 2)

    def test_bad_form_for_family(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "--family", "0", "--order", "1",
                      "--form", "product"])
        assert exc.value.code == 2

    def test_unwritable_out_is_a_clean_error(self, capsys, tmp_path):
        missing = tmp_path / "missing" / "x"
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "--family", "L", "--order", "1",
                      "--out", str(missing)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err == ("jortwist: error: cannot write %s: "
                       "No such file or directory\n" % missing)

    @pytest.mark.parametrize("family", ["0", "1"])
    def test_u_for_a_family_without_u_is_a_usage_error(self, family, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "--family", family, "--order", "1",
                      "--u", "1/2"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "jortwist expand: error: u applies to families L and R "
            "only; family %s has no u" % family)
        code, out = run(["expand", "--family", family, "--order", "1",
                         "--u", "symbolic"], capsys)
        assert code == 0 and out == run(["expand", "--family", family,
                                         "--order", "1"], capsys)[1]

    def test_bad_rational(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["expand", "--family", "L", "--order", "1",
                      "--u", "1/0"])
        assert exc.value.code == 2

    def test_zero_denominator_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--check", "lr", "--order", "1",
                      "--u", "3/0"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == ("jortwist verify: error: argument --u: "
                       "bad rational '3/0': zero denominator")


def _fraction_parse_u(text):
    """--u as Fraction alone reads it, the reference for cli._parse_u: the
    value, or the ArgumentTypeError that argparse reports."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            "bad rational %r: zero denominator" % (text,)) from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError("bad rational %r: %s" % (text, exc))


@pytest.mark.parametrize("text", [
    "2/5", "-3/2", "+7", "0", "007/014", "1/0", " 1/3 ", "1_0/3", "0.25",
    "1e-2", "\u0663/\u0664", "abc", "2/-5", "",
    pytest.param("9" * 5000, id="past-the-int-digit-limit"),
])
def test_parse_u_reads_what_fraction_reads(text):
    # plain ASCII ratios are read with int(), everything else by Fraction
    try:
        want = _fraction_parse_u(text)
    except argparse.ArgumentTypeError as exc:
        with pytest.raises(argparse.ArgumentTypeError) as got:
            cli._parse_u(text)
        assert str(got.value) == str(exc)
    else:
        got = cli._parse_u(text)
        assert got == want
        assert got.legs == 0 and not any(got.num)  # a constant UPoly


@pytest.mark.parametrize("argv", [
    ["verify", "--check", "lr", "--order", "1", "--ascii"],
    ["identities", "--det", "2", "--ascii"],
])
def test_ascii_is_an_expand_option_only(argv, capsys):
    # only expand writes Unicode text
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "jortwist: error: unrecognized arguments: --ascii")


class TestVerify:
    def test_single_check_passes(self, capsys):
        code, out = run(["verify", "--check", "cocycle", "--family", "L",
                         "--order", "1"], capsys)
        assert code == 0
        assert "cocycle" in out and "pass" in out

    def test_order_zero_is_a_usage_error(self, capsys):
        # at order 0 every twist is 1 (x) 1, so every check would pass
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--check", "lr", "--order", "0"])
        assert exc.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    def test_check_choices_are_the_registry(self):
        parser = cli._build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        check = next(a for a in sub.choices["verify"]._actions
                     if a.dest == "checks")
        assert tuple(check.choices) == tuple(twists.CHECKS)

    def test_endpoints_report_cites_both_limits(self, capsys):
        code, out = run(["verify", "--check", "endpoints", "--family", "L",
                         "--order", "4"], capsys)
        assert code == 0
        assert "u=0: twist equals F0" in out
        assert "u=1: twist equals F1" in out

    def test_json_report(self, capsys):
        code, out = run(["verify", "--check", "normalization",
                         "--order", "2", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert all(r["status"] == "pass" for r in data["reports"])

    def test_option_no_selected_check_applies_is_a_usage_error(self, capsys):
        for argv in (["--family", "L", "--u", "1/2"], ["--u", "1/2"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify", "--check", "vfamily", "--order", "1"]
                         + argv)
            assert exc.value.code == 2
        assert "error: u applies to none of the checks vfamily" in (
            capsys.readouterr().err)

    def test_option_a_check_does_not_apply_is_noted(self, capsys):
        code, out = run(["verify", "--check", "cocycle", "--check", "lr",
                         "--family", "L", "--u", "1/2", "--order", "1",
                         "--format", "json"], capsys)
        assert code == 0
        notes = {(r["check"], r["params"].get("family")): r["notes"]
                 for r in json.loads(out)["reports"]}
        assert notes == {
            ("cocycle", "L"): ["per-order convolution decomposition matches"],
            ("lr-relation", None): ["family not applied"]}

    def test_negative_u_in_either_form(self, capsys):
        # argparse alone would read a separate "-3/2" as an option
        for u in (["--u=-3/2"], ["--u", "-3/2"]):
            code, out = run(["verify", "--check", "forms", "--order", "1"]
                            + u, capsys)
            assert code == 0
            assert "family=L order=1 u=-3/2" in out
        expanded = [run(["expand", "--family", "L", "--order", "1"] + u,
                        capsys) for u in (["--u=-3/2"], ["--u", "-3/2"])]
        assert expanded[0] == expanded[1] == (
            0, "1 · 1⊗1\n3/2/κ · D⊗P\n5/2/κ · P⊗D\n")

    def test_repeated_check_runs_once(self, capsys):
        code, out = run(["verify", "--check", "lr", "--check", "lr",
                         "--order", "1"], capsys)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == [
            "lr-relation"]

    def test_requires_selection(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify"])
        assert exc.value.code == 2

    def test_deleted_inverse_check_is_a_usage_error(self, capsys):
        # F F^-1 = 1 holds by construction of the series inverse, and so
        # does the product-against-series comparison of the direction the
        # paper does not print; "forms" compares the printed one
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--check", "inverse", "--order", "1"])
        assert exc.value.code == 2
        assert "invalid choice: 'inverse'" in capsys.readouterr().err

    def test_failure_flips_exit_code(self, capsys, monkeypatch):
        failing = VerificationReport("cocycle", {}, False, {2: False},
                                     {"grade": 2})
        monkeypatch.setattr(cli.twists, "run_suite",
                            lambda **kw: [failing])
        code, out = run(["verify", "--all"], capsys)
        assert code == 1
        assert "FAIL" in out


class TestIdentities:
    def test_bigident(self, capsys):
        code, out = run(["identities", "--bigident", "--bound", "2"], capsys)
        assert code == 0

    def test_det_zero(self, capsys):
        code, out = run(["identities", "--det", "0"], capsys)
        assert code == 0
        assert out.splitlines() == ["independence   pass order=0",
                                    "    note: det = 1"]

    def test_det_one(self, capsys):
        code, out = run(["identities", "--det", "1"], capsys)
        assert code == 0
        assert out.splitlines() == ["independence   pass order=1",
                                    "    note: det = -1"]

    def test_det_json_with_other_suites(self, capsys):
        code, out = run(["identities", "--chain", "R", "--bound", "1",
                         "--det", "2", "--format", "json"], capsys)
        assert code == 0
        reports = json.loads(out)["reports"]
        assert [r["check"] for r in reports] == ["chain-R", "independence"]
        assert reports[1]["params"] == {"order": "2"}
        assert reports[1]["notes"] == ["det = -1"]
        assert reports[1]["status"] == "pass"

    def test_det_not_unimodular_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.identities, "independence_det",
                            lambda n: Fraction(2))
        code, out = run(["identities", "--det", "3"], capsys)
        assert code == 1
        assert "FAIL" in out and "det = 2" in out

    def test_det_past_the_largest_u_degree_is_a_usage_error(self, capsys):
        # (u-1)^k u^(N-k) has u-degree N, and a key holds at most 32767
        with pytest.raises(SystemExit) as exc:
            cli.main(["identities", "--det", "32768"])
        assert exc.value.code == 2
        assert "must be at most 32767, the largest u-degree" in (
            capsys.readouterr().err)

    def test_default_bound_is_reported(self, capsys):
        code, out = run(["identities", "--chain", "R", "--format", "json"],
                        capsys)
        assert code == 0
        assert json.loads(out)["reports"][0]["params"] == {"bound": "3"}

    def test_every_default_bound_is_reported(self, capsys, monkeypatch):
        # small defaults keep this fast; the CLI must not apply its own
        for name in ("bigident", "L", "R"):
            monkeypatch.setitem(identities.DEFAULT_BOUNDS, name, 1)
        for argv in (["--bigident"], ["--chain", "L"], ["--chain", "R"]):
            code, out = run(["identities", *argv, "--format", "json"],
                            capsys)
            assert code == 0
            report, = json.loads(out)["reports"]
            assert report["params"] == {"bound": "1"}

    def test_chain(self, capsys):
        code, out = run(["identities", "--chain", "L", "--bound", "2"],
                        capsys)
        assert code == 0

    def test_bound_without_a_bounded_suite_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["identities", "--det", "2", "--bound", "7"])
        assert exc.value.code == 2
        assert "--bound applies to --bigident and --chain only" in (
            capsys.readouterr().err)

    def test_requires_selection(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["identities"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["expand", "--family", "L", "--order", "-1"],
    ["verify", "--check", "cocycle", "--family", "L", "--order", "-1"],
    ["identities", "--bigident", "--bound", "-1"],
    ["identities", "--chain", "L", "--bound", "-1"],
])
def test_negative_order_or_bound_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "must be nonnegative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["identities", "--det", "2", "--bound", "7"],
    ["verify", "--check", "vfamily", "--u", "1/2"],
    ["expand", "--family", "0", "--order", "1", "--form", "product"],
    ["expand", "--family", "L", "--order", "1", "--form", "closed"],
    ["expand", "--family", "R", "--order", "1", "--form", "inverted-closed"],
])
def test_usage_error_prints_the_subcommand_usage(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: jortwist %s " % argv[0])


class TestSerialization:
    def test_round_trip_random_forms(self):
        for fam, direction in (("L", "twist"), ("R", "inverse"),
                               ("0", "inverse"), ("1", "twist")):
            e = twists.build_twist(fam, direction, 3)
            assert element_from_dict(element_to_dict(e)) == e
            eu = e.specialize_u(Fraction(2, 5))
            assert element_from_dict(element_to_dict(eu)) == eu

    def test_schema_version_checked(self):
        data = element_to_dict(twists.build_twist("0", "twist", 1))
        data["schema"] = 99
        with pytest.raises(ValueError):
            element_from_dict(data)

    def test_round_trip_is_byte_identical(self):
        data = element_to_dict(twists.build_twist("L", "twist", 3))
        text = json.dumps(data, indent=2)
        assert json.dumps(element_to_dict(element_from_dict(json.loads(text))),
                          indent=2) == text

    @pytest.mark.parametrize("corrupt,field", [
        (lambda d: d.pop("legs"), "legs: missing"),
        (lambda d: d.update(legs=4), "legs: must be between 1 and 3"),
        (lambda d: d.update(legs=True), "legs: expected int"),
        (lambda d: d.pop("truncation"), "truncation: missing"),
        (lambda d: d.update(truncation=-1), "truncation: must be nonneg"),
        (lambda d: d.update(terms={}), "terms: expected list"),
        (lambda d: d["terms"].__setitem__(1, 7), "terms[1]: expected dict"),
        (lambda d: d["terms"][1]["legs"].pop(),
         "terms[1].legs: expected 2 entries"),
        (lambda d: d["terms"][1]["legs"][0].pop("q"), "terms[1].legs[0].q"),
        (lambda d: d["terms"][1]["legs"][1].update(p=-1),
         "terms[1].legs[1].p: must be nonnegative"),
        (lambda d: d["terms"][1].pop("dpoly"), "terms[1].dpoly: missing"),
        (lambda d: d["terms"][1]["dpoly"][0].pop("exps"),
         "terms[1].dpoly[0].exps: missing"),
        (lambda d: d["terms"][1]["dpoly"][0]["exps"].append(0),
         "terms[1].dpoly[0].exps: expected 2 entries"),
        (lambda d: d["terms"][1]["dpoly"][0]["exps"].__setitem__(1, 0.5),
         "terms[1].dpoly[0].exps[1]: expected int"),
        (lambda d: d["terms"][1]["dpoly"][0].update(upoly=None),
         "terms[1].dpoly[0].upoly: expected list"),
        (lambda d: d["terms"][1]["dpoly"][0]["upoly"][0].pop(),
         "terms[1].dpoly[0].upoly[0][1]: missing"),
        (lambda d: d["terms"][1]["dpoly"][0]["upoly"][0].__setitem__(0, "1"),
         "terms[1].dpoly[0].upoly[0][0]: expected int"),
        (lambda d: d["terms"][1]["dpoly"][0]["upoly"][0].__setitem__(1, "x"),
         "terms[1].dpoly[0].upoly[0][1]: bad fraction 'x'"),
        (lambda d: d["terms"][1]["dpoly"][0]["upoly"][0].__setitem__(1, "1/0"),
         "terms[1].dpoly[0].upoly[0][1]: bad fraction '1/0'"),
        (lambda d: d["terms"][1]["dpoly"][0]["upoly"][0].__setitem__(1, 0.5),
         "terms[1].dpoly[0].upoly[0][1]: expected str"),
        (lambda d: d["terms"].append(d["terms"][1]),
         "terms[6].legs: ((0, 0), (1, 0)) repeats"),
        (lambda d: d["terms"][1]["dpoly"].append(d["terms"][1]["dpoly"][0]),
         "terms[1].dpoly[1].exps: (1, 0) repeats"),
        (lambda d: d["terms"][1]["dpoly"][0]["upoly"].append([1, "1/2"]),
         "terms[1].dpoly[0].upoly[1][0]: 1 repeats"),
    ])
    def test_malformed_field_is_named(self, corrupt, field):
        data = element_to_dict(twists.build_twist("L", "twist", 2))
        corrupt(data)
        with pytest.raises(ValueError, match=re.escape(field)):
            element_from_dict(data)

    @pytest.mark.parametrize("corrupt,field", [
        (lambda d: d["terms"][1].update(kappa_power=7),
         "terms[1].kappa_power: expected 1, the sum of the legs' p, got 7"),
        (lambda d: d["terms"][1].pop("kappa_power"),
         "terms[1].kappa_power: missing"),
        (lambda d: d.update(truncation=1),
         "terms[3].legs: grade 2 exceeds the truncation 1"),
    ])
    def test_inconsistent_term_is_named(self, corrupt, field):
        # kappa_power used to go unread, and a term above the truncation
        # used to be dropped without a word
        data = element_to_dict(twists.build_twist("L", "twist", 2))
        corrupt(data)
        with pytest.raises(ValueError, match=re.escape(field)):
            element_from_dict(data)

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            element_from_dict([])

    def test_text_of_zero(self):
        from jortwist.borel import TensorElement
        assert element_to_text(TensorElement(1, 2)) == "0"


def _buildable():
    """(family, direction, form, u) for each expansion that builds, u at
    symbolic and, for the families with a u, at 1/3."""
    for family in twists.FAMILIES:
        us = (None, "1/3") if family in twists.INTERPOLATING else (None,)
        for direction in twists.DIRECTIONS:
            for form in (None,) + twists.FORMS:
                try:
                    twists.build_twist(family, direction, 0, form=form)
                except ValueError:
                    continue
                for u in us:
                    yield family, direction, form, u


@pytest.mark.parametrize("family,direction,form,u", list(_buildable()))
def test_ascii_text_keeps_every_line(family, direction, form, u, capsys):
    # the goldens pin the text at order 5 only
    argv = ["expand", "--family", family, "--order", "6"]
    argv += ["--inverse"] if direction == "inverse" else []
    argv += ["--form", form] if form else []
    argv += ["--u", u] if u else []
    _, text = run(argv, capsys)
    _, ascii_text = run(argv + ["--ascii"], capsys)
    assert ascii_text.isascii() and not text.isascii()
    assert len(ascii_text.splitlines()) == len(text.splitlines())


def test_import_loads_neither_dataclasses_nor_inspect():
    # every command is a fresh process, which would pay for these imports
    probe = ("import sys, jortwist.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = Path(cli.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
