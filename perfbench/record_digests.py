"""Record the SHA-256 digest of every job's stdout for the default seed.

    python3 perfbench/record_digests.py

Run from the root of a checkout.  Runs one plain pass of each workload,
refuses to write anything if a job fails its checks, and otherwise rewrites
perfbench/digests.json.
"""

import json
import os
import sys

import run
import workloads


def main() -> int:
    src = os.path.abspath("src")
    digests = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.generate(workload, workloads.DEFAULT_SEED)
        judge = run.Judge(jobs, None)
        result = run.spawn(src, workload, workloads.DEFAULT_SEED, "plain")
        judge.judge_pass(result)
        if judge.failures:
            sys.stderr.write("\n".join(judge.failures) + "\n")
            return 1
        digests[workload] = {run.job_label(argv): digest for argv, digest in zip(jobs, judge.first)}
    with open(run.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
