"""The notes the benchmark's correctness gate reads, checked in tier-1.

perfbench/run.py's gate fails an operation whose reports lack a note it
expects: the instance counts of the identity suites, counted there from the
suites' definitions, and the cocycle check's convolution note.  The file is
loaded and read here, never changed, so a change to those notes fails the
tier-1 suite as well as the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from jortwist import identities, twists

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def run():
    # run.py imports its sibling tracer.py by plain name, and its dataclass
    # needs the module registered while it executes
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run",
                                                  PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.modules.pop(spec.name, None)
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("chain", ["L", "R"])
@pytest.mark.parametrize("bound", range(5))
def test_chain_instance_counts_match_the_benchmark(run, chain, bound):
    report = identities.verify_identity_chain(chain, bound)
    assert report.notes == ["%d instances checked"
                            % run.chain_instances(chain, bound)]


@pytest.mark.parametrize("bound", range(4))
def test_bigident_counts_every_instance_once(bound):
    pairs = (bound + 1) * (bound + 2) // 2  # 0 <= A <= k <= bound, same for C
    report = identities.verify_identity_chain("bigident", bound)
    assert report.passed
    assert report.notes == ["%d instances checked" % (pairs * pairs)]


def test_cocycle_note_is_the_one_the_benchmark_expects(run):
    op, = [op for op in run.workload_ops("twists", 1)
           if op.argv[:3] == ("verify", "--check", "cocycle")]
    reports = twists.run_suite(checks=["cocycle"], order=2)
    notes = {note for report in reports for note in report.notes}
    assert op.notes and set(op.notes) <= notes
    assert "per-order convolution decomposition matches" in notes
