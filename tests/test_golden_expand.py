import golden


def test_expand_outputs_match_golden_digests():
    want = golden.golden("expand")
    # 12 of the 16 family, direction and form combinations build (the
    # series of each, the product form of L and R), plus three text
    # expansions
    assert len(want) == 15
    assert golden.digests("expand") == want
