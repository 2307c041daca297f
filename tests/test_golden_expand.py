import json

import make_golden_expand


def test_expand_outputs_match_golden_digests():
    with open(make_golden_expand.GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == 12
    assert make_golden_expand.digests() == golden
