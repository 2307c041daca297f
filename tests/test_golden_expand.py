import golden


def test_expand_outputs_match_golden_digests():
    want = golden.golden("expand")
    # 12 of the 24 family, direction and form combinations build, plus
    # three text expansions
    assert len(want) == 15
    assert golden.digests("expand") == want
