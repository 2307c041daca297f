"""Write tests/golden.json: the SHA-256 of the stdout of every command line
in ARGVS that exits 0 (`expand`, `identities` and `verify`, each with
`--format json`), and of each identity chain's instance sequence, every
instance's (chain, params, str(lhs), str(rhs), equal) in order, for the L
and R chains at bounds 0 to 3.

    PYTHONPATH=src python3 tests/golden.py

Run it at a commit whose outputs are trusted; the tests
test_golden_{expand,identities,verify}.py, one per SECTIONS entry, then fail
on any output whose bytes differ from these digests, and on any chain that
produces other instances or the same ones in another order.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from jortwist import cli, identities, twists

GOLDEN = Path(__file__).resolve().parent / "golden.json"
JSON = ["--format", "json"]
ARGVS = tuple(
    [["expand", "--family", family] + (["--inverse"] if inverse else [])
     + ["--form", form, "--order", "5"] + JSON
     for family in twists.FAMILIES for inverse in (False, True)
     for form in twists.FORMS]
    + [["identities"] + suite + JSON for suite in (
        ["--bigident", "--bound", "2"], ["--bigident", "--bound", "3"],
        ["--bigident", "--bound", "4"],
        ["--chain", "L", "--bound", "2"], ["--chain", "L", "--bound", "3"],
        ["--chain", "R", "--bound", "3"], ["--det", "5"])]
    + [["verify"] + check + JSON for check in (
        ["--all", "--order", "3"],
        ["--check", "cocycle", "--family", "L", "--order", "5"],
        ["--check", "hopf", "--order", "4"],
        ["--check", "forms", "--order", "4"],
        ["--check", "hopf", "--order", "6", "--u", "1/3"],
        ["--check", "normalization", "--order", "8"],
        ["--check", "cocycle", "--family", "R", "--order", "6"],
        ["--check", "cocycle", "--family", "L", "--order", "7"],
        ["--check", "cocycle", "--order", "6", "--u", "2/7"])])
CHAIN_BOUNDS = {"L": range(4), "R": range(4)}
# The first words of the keys of each section of golden.json.
SECTIONS = {"expand": ("expand",), "identities": ("identities", "instances"),
            "verify": ("verify",)}


def digests_of(argvs):
    """{command line: digest of its stdout} for each argv that exits 0."""
    out = {}
    for argv in argvs:
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        if code == 0:
            text = buf.getvalue().encode()
            out[" ".join(argv)] = hashlib.sha256(text).hexdigest()
    return out


def instance_digest(instances):
    """SHA-256 of an instance sequence, params in their own key order."""
    h = hashlib.sha256()
    for inst in instances:
        h.update(json.dumps([inst.chain, inst.params, str(inst.lhs),
                             str(inst.rhs), inst.equal]).encode() + b"\n")
    return h.hexdigest()


def instance_digests():
    """{"instances CHAIN BOUND": digest} for every chain and bound."""
    return {"instances %s %d" % (chain, bound):
            instance_digest(identities.SUITES[chain][1](bound))
            for chain, bounds in CHAIN_BOUNDS.items() for bound in bounds}


def digests(section):
    """The output digests of the argvs of one SECTIONS entry (those that exit
    0), with the instance sequence digests for "identities"."""
    heads = SECTIONS[section]
    out = digests_of([argv for argv in ARGVS if argv[0] in heads])
    if "instances" in heads:
        out.update(instance_digests())
    return out


def golden(section):
    """The entries of golden.json in one SECTIONS entry."""
    with open(GOLDEN) as fh:
        return {key: digest for key, digest in json.load(fh).items()
                if key.split()[0] in SECTIONS[section]}


def main():
    with open(GOLDEN, "w") as fh:
        json.dump({key: digest for section in SECTIONS
                   for key, digest in digests(section).items()},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
