import golden


def test_identity_reports_match_golden_digests():
    want = golden.golden("identities")
    # 7 identity reports and 12 instance sequences
    assert len(want) == 19
    assert golden.digests("identities") == want
