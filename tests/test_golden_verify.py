import golden


def test_verify_reports_match_golden_digests():
    want = golden.golden("verify")
    assert len(want) == 9
    assert golden.digests("verify") == want
