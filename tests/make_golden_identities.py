"""Write tests/golden_identities.json: the SHA-256 of `jortwist identities
--format json` for the bigident suite at bounds 2, 3 and 4, the L chain at
bounds 2 and 3, the R chain at bound 3 and the determinant at order 5; and
the SHA-256 of each chain's instance sequence, every instance's
(chain, params, str(lhs), str(rhs), equal) in order, for the L and R
chains at bounds 0 to 3.

    PYTHONPATH=src python3 tests/make_golden_identities.py

Run it at a commit whose outputs are trusted; test_golden_identities.py
then fails on any report whose bytes differ from these digests, and on any
chain that produces other instances or the same ones in another order.
"""

import hashlib
import json
from pathlib import Path

from make_golden_expand import digests_of

from jortwist import identities

GOLDEN = Path(__file__).resolve().parent / "golden_identities.json"
SUITES = (["--bigident", "--bound", "2"], ["--bigident", "--bound", "3"],
          ["--bigident", "--bound", "4"],
          ["--chain", "L", "--bound", "2"], ["--chain", "L", "--bound", "3"],
          ["--chain", "R", "--bound", "3"], ["--det", "5"])
CHAIN_BOUNDS = {"L": range(4), "R": range(4)}


def argvs():
    for suite in SUITES:
        yield ["identities"] + suite + ["--format", "json"]


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


def digests():
    """Every report digest (for each argv that exits 0) and every instance
    sequence digest."""
    return {**digests_of(argvs()), **instance_digests()}


def main():
    with open(GOLDEN, "w") as fh:
        json.dump(digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
