import json

import make_golden_identities


def test_identity_reports_match_golden_digests():
    with open(make_golden_identities.GOLDEN) as fh:
        golden = json.load(fh)
    assert len(golden) == (len(make_golden_identities.SUITES)
                           + sum(map(len, make_golden_identities
                                     .CHAIN_BOUNDS.values())))
    assert make_golden_identities.digests() == golden
