"""Every refusal of the CLI against the recorded refusal corpus.

Re-record with `python3 tests/record_refusals.py` only when a change of a
refusal is intended, and name each changed argv in CHANGES.md.
"""

import record_refusals


def test_every_refusal_matches_the_recorded_corpus():
    with open(record_refusals.REFUSALS) as fh:
        recorded = record_refusals.parse(fh.read())
    assert [r["argv"] for r in recorded] == record_refusals.ARGVS
    for want in recorded:
        got = record_refusals.outcome(want["argv"])
        assert got == want, f"refusal changed: satkit {' '.join(want['argv'])}"
    assert all(r["exit"] in (2, 3) for r in recorded)
