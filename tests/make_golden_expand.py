"""Write tests/golden_expand.json: the SHA-256 of `jortwist expand --format
json` at order 5 with symbolic u, for every family, direction and form
that builds.

    PYTHONPATH=src python3 tests/make_golden_expand.py

Run it at a commit whose outputs are trusted; test_golden_expand.py then
fails on any expansion whose output differs from these digests.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from jortwist import cli, twists

GOLDEN = Path(__file__).resolve().parent / "golden_expand.json"
ORDER = 5


def argvs():
    for family in twists.FAMILIES:
        for inverse in (False, True):
            for form in twists.FORMS:
                yield (["expand", "--family", family]
                       + (["--inverse"] if inverse else [])
                       + ["--form", form, "--order", str(ORDER),
                          "--format", "json"])


def digests():
    """{command line: digest of its stdout} for every argv that exits 0."""
    return digests_of(argvs())


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


def main():
    with open(GOLDEN, "w") as fh:
        json.dump(digests(), fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
