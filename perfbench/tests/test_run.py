"""The benchmark's correctness gate and its traced/untraced agreement,
on small operations that run in well under a second each."""

import hashlib
import json

import run

SMALL = (run.Op(("expand", "--family", "R", "--order", "3", "--u", "2/5",
                 "--format", "json"), "element", order=3),
         run.Op(("verify", "--check", "cocycle", "--order", "2",
                 "--format", "json"), "reports", order=2,
                notes=("per-order convolution decomposition matches",)),
         run.Op(("identities", "--chain", "R", "--bound", "2",
                 "--format", "json"), "reports",
                notes=("%d instances checked" % run.chain_instances("R", 2),)))


def _golden():
    rc, out = run.run_subprocess(SMALL[0])[:2]
    assert rc == 0
    return {" ".join(SMALL[0].argv): hashlib.sha256(out).hexdigest()}


def test_chain_instance_counts_match_the_program():
    from jortwist import identities
    for chain, bound in (("L", 2), ("L", 4), ("R", 3)):
        report = identities.verify_identity_chain(chain, bound)
        assert report.notes == ["%d instances checked"
                                % run.chain_instances(chain, bound)]


def test_untraced_run_passes_the_gate():
    result = run.measure(SMALL, 0, _golden())
    assert (result["attempted"], result["failed"]) == (3, 0)
    assert result["metrics"]["wall_s"] > 0
    assert result["metrics"]["setup_s"] > 0
    assert result["metrics"]["peak_rss_mb"] > 1


def test_corrupted_golden_digest_fails_but_still_reports():
    golden = _golden()
    key = " ".join(SMALL[0].argv)
    golden[key] = golden[key][::-1]
    result = run.measure(SMALL, 0, golden)
    assert result["failed"] == 1 and result["attempted"] == 3
    assert "golden" in result["problems"][0]["problems"][0]
    line = run.result_line(result["failed"] == 0, result["attempted"],
                           result["failed"], result["metrics"],
                           dict.fromkeys(result["metrics"], "x"))
    parsed = json.loads(line)
    assert parsed["correct"] is False and parsed["failed"] == 1


def test_gate_rejects_failing_reports():
    op = SMALL[1]
    bad = {"reports": [{"check": "cocycle", "status": "pass",
                        "grades": {"0": "pass", "1": "fail", "2": "pass"},
                        "notes": []}]}
    problems = run.gate(op, 0, json.dumps(bad).encode(), {})
    assert len(problems) == 2  # a failing grade and the missing note
    assert run.gate(op, 1, b"", {}) == ["exit code 1"]


def test_traced_and_untraced_outputs_agree():
    result = run.measure_traced(SMALL, _golden())
    # measure_traced counts a digest mismatch between the passes as failed
    assert (result["attempted"], result["failed"]) == (6, 0), result["problems"]
    metrics = run.per_layer(["trace.overhead_ratio", "cli.output_bytes",
                             "identities.instances",
                             "exactalg.DPoly.shift.calls"], result)
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["cli.output_bytes"] > 1000
    assert metrics["identities.instances"] == run.chain_instances("R", 2)
    assert metrics["exactalg.DPoly.shift.calls"] > 0
