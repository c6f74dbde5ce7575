"""Byte-identity of every benchmark job, seeds 0..19, against the recorded corpus.

Re-record with `python3 tests/record_corpus.py` only when a change of output
is intended, and name each changed job in CHANGES.md.
"""

import json

import record_corpus


def test_every_job_matches_the_recorded_corpus():
    with open(record_corpus.CORPUS) as fh:
        corpus = json.load(fh)
    count = 0
    for workload, seed, i, argv in record_corpus.jobs():
        want = corpus[workload][str(seed)][i]
        assert record_corpus.digest(argv) == want, (
            f"{workload} seed {seed} job {i} changed: satkit {' '.join(argv)}"
        )
        count += 1
    assert count == sum(len(digests) for seeds in corpus.values() for digests in seeds.values())
