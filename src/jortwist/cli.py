"""Command-line front end: expand twists, run verification suites, check
the combinatorial identities.  Also owns the JSON wire format for elements.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":
    # Run as a program, the module loads only the layers its command runs,
    # and loads them before argparse: compiled after argparse, `twists`
    # raised the peak RSS of a `verify` or `expand` process by 0.2-0.35 MiB.
    # Without a command, `--help` adds the arguments of expand and verify,
    # which read twists.
    if sys.argv[1:2] == ["identities"]:
        from . import identities
    else:
        from . import twists
else:
    # Imported as a library, it loads every layer, because
    # perfbench/tracer.py wraps the functions of the jortwist modules it
    # finds in sys.modules and imports none itself.
    from . import borel, identities, twists  # noqa: F401

import argparse
import json
from itertools import groupby

from .exactalg import (MAX_DEGREE, MAX_LEGS, DPoly, UPoly, _EveryDigit,
                       refuse_degree)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def element_to_dict(e):
    terms = []
    with _EveryDigit():
        for (grade, key), group in groupby(e.monomials(), key=lambda m: m[:2]):
            dpoly = [{"exps": list(exps),
                      "upoly": [[deg, "%d/%d" % (n, d)]
                                for deg, n, d in coef.ratios()]}
                     for _, _, exps, coef in group]
            terms.append({"kappa_power": grade,
                          "legs": [{"p": p, "q": q} for p, q in key],
                          "dpoly": dpoly})
    return {
        "schema": SCHEMA_VERSION,
        "legs": e.legs,
        "truncation": e.truncation,
        "terms": terms,
    }


def _field(obj, key, kind, path):
    """obj[key], which must be a `kind` (an int must be nonnegative); else
    a ValueError naming the field `path`."""
    try:
        value = obj[key]
    except (KeyError, IndexError, TypeError):
        raise ValueError("%s: missing" % path) from None
    if type(value) is not kind:  # JSON true is a bool, not an int
        raise ValueError("%s: expected %s, got %r"
                         % (path, kind.__name__, value))
    if kind is int and value < 0:
        raise ValueError("%s: must be nonnegative, got %d" % (path, value))
    return value


def _entries(obj, key, kind, path, count=None):
    """(path[i], item) for the items of the list obj[key], each a `kind`,
    and `count` of them when a count is given."""
    items = _field(obj, key, list, path)
    if count is not None and len(items) != count:
        raise ValueError("%s: expected %d entries, got %d"
                         % (path, count, len(items)))
    paths = ["%s[%d]" % (path, i) for i in range(len(items))]
    return [(at, _field(items, i, kind, at)) for i, at in enumerate(paths)]


def _unique(key, seen, path):
    if key in seen:
        raise ValueError("%s: %r repeats an earlier entry" % (path, key))


def element_from_dict(data):
    """Inverse of element_to_dict.  Malformed data raises ValueError naming
    the field at fault, e.g. terms[2].dpoly[0].exps."""
    from fractions import Fraction

    from .borel import TensorElement
    with _EveryDigit():
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object, got %r" % (data,))
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError("unsupported schema version %r"
                             % data.get("schema"))
        legs = _field(data, "legs", int, "legs")
        refuse_degree(legs, "legs", 1, MAX_LEGS)
        truncation = _field(data, "truncation", int, "truncation")
        refuse_degree(truncation, "truncation")
        terms = {}
        for at, t in _entries(data, "terms", dict, "terms"):
            key = tuple((_field(leg, "p", int, lat + ".p"),
                         _field(leg, "q", int, lat + ".q"))
                        for lat, leg in _entries(t, "legs", dict, at + ".legs",
                                                 legs))
            grade = sum(p for p, _ in key)
            if grade > truncation:
                raise ValueError("%s.legs: grade %d exceeds the truncation %d"
                                 % (at, grade, truncation))
            power = _field(t, "kappa_power", int, at + ".kappa_power")
            if power != grade:
                raise ValueError("%s.kappa_power: expected %d, the sum of the "
                                 "legs' p, got %d" % (at, grade, power))
            dterms = {}
            for mat, mono in _entries(t, "dpoly", dict, at + ".dpoly"):
                coeffs = {}
                for cat, pair in _entries(mono, "upoly", list, mat + ".upoly"):
                    text = _field(pair, 1, str, cat + "[1]")
                    try:
                        value = Fraction(text)
                    except (ValueError, ZeroDivisionError):
                        raise ValueError("%s[1]: bad fraction %r"
                                         % (cat, text)) from None
                    deg = _field(pair, 0, int, cat + "[0]")
                    refuse_degree(deg, cat + "[0]")
                    _unique(deg, coeffs, cat + "[0]")
                    coeffs[deg] = value
                exps = _entries(mono, "exps", int, mat + ".exps", legs)
                for eat, e in exps:
                    refuse_degree(e, eat)
                exps = tuple(e for _, e in exps)
                _unique(exps, dterms, mat + ".exps")
                dterms[exps] = UPoly(coeffs)
            _unique(key, terms, at + ".legs")
            terms[key] = DPoly(legs, dterms)
        return TensorElement(legs, truncation, terms)


def _coef_str(coef):
    """str(coef), in parentheses when it has several terms, a u-term with a
    coefficient other than 1, or a leading minus and more than two
    characters."""
    s = str(coef)
    ratios = coef.ratios()
    if len(ratios) > 1 or (ratios and ratios[0][0]
                           and ratios[0][1:] != (1, 1)):
        return "(%s)" % s
    if s.startswith("-") and len(s) > 2:
        return "(%s)" % s
    return s


def _leg_str(p, q, e):
    parts = []
    for sym, deg in (("P", p), ("Q", q), ("D", e)):
        if deg == 1:
            parts.append(sym)
        elif deg > 1:
            parts.append("%s^%d" % (sym, deg))
    return "·".join(parts) if parts else "1"


def element_to_text(e, ascii_only=False):
    """One line per monomial; ascii_only transliterates the Unicode."""
    lines = []
    for grade, key, exps, coef in e.monomials():
        kappa = "" if grade == 0 else "/κ" if grade == 1 else "/κ^%d" % grade
        legs = "⊗".join(_leg_str(p, q, x) for (p, q), x in zip(key, exps))
        lines.append("%s%s · %s" % (_coef_str(coef), kappa, legs))
    text = "\n".join(lines) or "0"
    if ascii_only:
        text = text.translate({ord("κ"): "kappa", ord("⊗"): "(x)",
                               ord("·"): "*"})
    return text


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _parse_u(text):
    """None for "symbolic", else the rational `text` as a constant UPoly.
    ASCII [+-]digits[/digits] with a nonzero denominator is read with
    int(); any other text goes to Fraction(text), so every value and every
    error message is the one Fraction gives."""
    if text == "symbolic":
        return None
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    try:
        if (text.isascii() and digits.isdigit()
                and (den.isdigit() or not slash) and int(den or 1)):
            return DPoly.from_num(0, {0: int(num)}, int(den or 1))
    except ValueError:  # past int()'s digit limit, which Fraction reports
        pass
    from fractions import Fraction
    try:
        return UPoly.const(Fraction(text))
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(
            "bad rational %r: zero denominator" % (text,)) from None
    except ValueError as exc:
        raise argparse.ArgumentTypeError("bad rational %r: %s" % (text, exc))


def _expand_arguments(p):
    p.add_argument("--family", required=True, choices=twists.FAMILIES)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--form", choices=twists.FORMS)
    p.add_argument("--order", type=int, required=True,
                   help="truncation order, 0..%d" % MAX_DEGREE)
    p.add_argument("--u", type=_parse_u, default=None,
                   help="'symbolic' (default) or a rational like 1/2; "
                        "families %s only"
                        % " and ".join(twists.INTERPOLATING))
    p.add_argument("--ascii", action="store_true",
                   help="ASCII-only text output")


def _verify_arguments(p):
    p.add_argument("--all", action="store_true", dest="run_all")
    p.add_argument("--check", action="append", dest="checks",
                   choices=tuple(twists.CHECKS))
    p.add_argument("--family", choices=tuple(twists.INTERPOLATING))
    p.add_argument("--order", type=int,
                   help="truncation order, 1..%d; default: each check's own"
                        % MAX_DEGREE)
    p.add_argument("--u", type=_parse_u, default=None)


def _identities_arguments(p):
    p.add_argument("--bigident", action="store_true")
    p.add_argument("--chain", choices=("L", "R"))
    p.add_argument("--det", type=int, metavar="N",
                   help="check the independence determinant for order N, "
                        "0..%d" % MAX_DEGREE)
    p.add_argument("--bound", type=int,
                   help="largest index of the identities, 0..%d; default: "
                        "each suite's own" % MAX_DEGREE)


def _output_arguments(p):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", help="write output to this file")


def _build_parser(command=None):
    """The parser of every command; with `command`, only that command's
    subparser gets its arguments (every add_argument costs a formatter and
    a terminal-size query), the others keep just their name and help."""
    parser = argparse.ArgumentParser(
        prog="jortwist",
        description="Exact verification of interpolating Jordanian twists.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, run) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_arguments(p)
            _output_arguments(p)
            p.set_defaults(run=run, parser=p)
    return parser


def _emit(text, out_path):
    if not out_path:
        print(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print("jortwist: error: cannot write %s: %s"
              % (out_path, exc.strerror), file=sys.stderr)
        sys.exit(2)


def _report_lines(reports):
    lines = []
    for rep in reports:
        params = " ".join("%s=%s" % (k, v)
                          for k, v in sorted(rep.params.items()))
        status = "pass" if rep.passed else "FAIL"
        line = "%-14s %-4s %s" % (rep.check, status, params)
        if rep.failure:
            line += "  first failure: %s" % (rep.failure,)
        for note in rep.notes:
            line += "\n    note: %s" % note
        lines.append(line)
    return lines


def _emit_reports(reports, args):
    if args.format == "json":
        payload = {"schema": SCHEMA_VERSION,
                   "reports": [r.to_dict() for r in reports]}
        _emit(json.dumps(payload, indent=2, sort_keys=True), args.out)
    else:
        _emit("\n".join(_report_lines(reports)), args.out)
    return 0 if all(r.passed for r in reports) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_expand(args, parser):
    element = twists.build_twist(
        args.family, "inverse" if args.inverse else "twist", args.order,
        args.u, args.form)
    if args.format == "json":
        _emit(json.dumps(element_to_dict(element), indent=2), args.out)
    else:
        _emit(element_to_text(element, ascii_only=args.ascii), args.out)
    return 0


def _cmd_verify(args, parser):
    if not args.run_all and not args.checks:
        parser.error("give --all or at least one --check")
    reports = twists.run_suite(checks=None if args.run_all else args.checks,
                               order=args.order, family=args.family, u=args.u)
    return _emit_reports(reports, args)


def _cmd_identities(args, parser):
    if args.bound is not None and not (args.bigident or args.chain):
        parser.error("--bound applies to --bigident and --chain only")
    # every given input is refused before the first suite runs, by the rule
    # and with the message that the library applies to each report
    for value, what in ((args.bound, "bound"), (args.det, "order")):
        if value is not None:
            refuse_degree(value, what)
    reports = []
    if args.bigident:
        reports.append(identities.verify_identity_chain("bigident", args.bound))
    if args.chain:
        reports.append(identities.verify_identity_chain(args.chain, args.bound))
    if args.det is not None:
        reports.append(identities.check_independence(args.det))
    if not reports:
        parser.error("give --bigident, --chain or --det")
    return _emit_reports(reports, args)


# name: (help, add_arguments, runner)
COMMANDS = {
    "expand": ("expand a twist to a given order", _expand_arguments,
               _cmd_expand),
    "verify": ("run twist verification checks", _verify_arguments,
               _cmd_verify),
    "identities": ("verify the binomial identities", _identities_arguments,
                   _cmd_identities),
}


def main(argv=None):
    """Run the command argv[0].  The parser gets only that command's
    arguments; without a command (e.g. `--help`) every command gets its
    arguments.  `--u V` is read as `--u=V`, so V may be a negative
    rational.  The library refuses bad input with a ValueError, which
    becomes a usage error of the command (exit 2)."""
    with _EveryDigit():
        argv = sys.argv[1:] if argv is None else list(argv)
        while "--u" in argv[:-1]:  # argparse reads "-3/2" as an option
            i = argv.index("--u")
            argv[i:i + 2] = ["--u=" + argv[i + 1]]
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = _build_parser(command).parse_args(argv)
        try:
            return args.run(args, args.parser)
        except ValueError as exc:
            args.parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
