"""Write tests/golden_verify.json: the SHA-256 of `jortwist verify --all
--order 3 --format json`, of `jortwist verify --check cocycle --family L
--order 5 --format json`, of `jortwist verify --check hopf|forms
--order 4 --format json`, of `jortwist verify --check hopf --order 6
--u 1/3 --format json`, of `jortwist verify --check normalization --order 8
--format json`, of `jortwist verify --check cocycle --family R --order 6
--format json`, of `jortwist verify --check cocycle --family L --order 7
--format json` and of `jortwist verify --check cocycle --order 6 --u 2/7
--format json`.

    PYTHONPATH=src python3 tests/make_golden_verify.py

Run it at a commit whose outputs are trusted; test_golden_verify.py then
fails on any verify report whose bytes differ from these digests.
"""

import json
from pathlib import Path

from make_golden_expand import digests_of

GOLDEN = Path(__file__).resolve().parent / "golden_verify.json"
ARGVS = (["verify", "--all", "--order", "3", "--format", "json"],
         ["verify", "--check", "cocycle", "--family", "L", "--order", "5",
          "--format", "json"],
         ["verify", "--check", "hopf", "--order", "4", "--format", "json"],
         ["verify", "--check", "forms", "--order", "4", "--format", "json"],
         ["verify", "--check", "hopf", "--order", "6", "--u", "1/3",
          "--format", "json"],
         ["verify", "--check", "normalization", "--order", "8", "--format",
          "json"],
         ["verify", "--check", "cocycle", "--family", "R", "--order", "6",
          "--format", "json"],
         ["verify", "--check", "cocycle", "--family", "L", "--order", "7",
          "--format", "json"],
         ["verify", "--check", "cocycle", "--order", "6", "--u", "2/7",
          "--format", "json"])


def digests():
    """{command line: digest of its stdout} for every argv that exits 0."""
    return digests_of(ARGVS)


def main():
    with open(GOLDEN, "w") as fh:
        json.dump(digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
