"""Write tests/golden_identities.json: the SHA-256 of `jortwist identities
--format json` for the bigident suite at bounds 2 and 3, the L chain at
bounds 2 and 3, the R chain at bound 3 and the determinant at order 5.

    PYTHONPATH=src python3 tests/make_golden_identities.py

Run it at a commit whose outputs are trusted; test_golden_identities.py
then fails on any report whose bytes differ from these digests.
"""

import json
from pathlib import Path

from make_golden_expand import digests_of

GOLDEN = Path(__file__).resolve().parent / "golden_identities.json"
SUITES = (["--bigident", "--bound", "2"], ["--bigident", "--bound", "3"],
          ["--chain", "L", "--bound", "2"], ["--chain", "L", "--bound", "3"],
          ["--chain", "R", "--bound", "3"], ["--det", "5"])


def argvs():
    for suite in SUITES:
        yield ["identities"] + suite + ["--format", "json"]


def digests():
    """{command line: digest of its stdout} for every argv that exits 0."""
    return digests_of(argvs())


def main():
    with open(GOLDEN, "w") as fh:
        json.dump(digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
