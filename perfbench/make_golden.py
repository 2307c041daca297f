"""Write perfbench/golden.json: the SHA-256 of every expansion output.

    python3 perfbench/make_golden.py

Run it at a commit whose outputs are trusted; the benchmark then fails
any operation whose output differs from these digests.
"""

import hashlib
import json

import run


def main():
    golden = {}
    for u in run.U_SET:
        for op in run.series_ops(u):
            rc, out = run.run_subprocess(op)[:2]
            if rc != 0:
                raise SystemExit("%s exited with %d" % (" ".join(op.argv), rc))
            golden[" ".join(op.argv)] = hashlib.sha256(out).hexdigest()
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
