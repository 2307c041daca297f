import json

import make_golden_verify


def test_verify_reports_match_golden_digests():
    with open(make_golden_verify.GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == len(make_golden_verify.ARGVS)
    assert make_golden_verify.digests() == golden
