"""The notes the benchmark's correctness gate reads, checked in tier-1.

perfbench/run.py's gate fails an operation whose reports lack a note it
expects: the instance counts of the identity suites, counted there from the
suites' definitions, and the cocycle check's convolution note.  The file is
loaded and read here, never changed, so a change to those notes fails the
tier-1 suite as well as the benchmark.
"""

import pytest

from jortwist import identities, twists


@pytest.mark.parametrize("chain", ["L", "R"])
@pytest.mark.parametrize("bound", range(5))
def test_chain_instance_counts_match_the_benchmark(bench_run, chain, bound):
    report = identities.verify_identity_chain(chain, bound)
    assert report.notes == ["%d instances checked"
                            % bench_run.chain_instances(chain, bound)]


@pytest.mark.parametrize("bound", range(4))
def test_bigident_counts_every_instance_once(bound):
    pairs = (bound + 1) * (bound + 2) // 2  # 0 <= A <= k <= bound, same for C
    report = identities.verify_identity_chain("bigident", bound)
    assert report.passed
    assert report.notes == ["%d instances checked" % (pairs * pairs)]


def test_cocycle_note_is_the_one_the_benchmark_expects(bench_run):
    op, = [op for op in bench_run.workload_ops("twists", 1)
           if op.argv[:3] == ("verify", "--check", "cocycle")]
    reports = twists.run_suite(checks=["cocycle"], order=2)
    notes = {note for report in reports for note in report.notes}
    assert op.notes and set(op.notes) <= notes
    assert "per-order convolution decomposition matches" in notes
