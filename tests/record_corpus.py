"""Record the behaviour corpus: one SHA-256 per benchmark job.

    python3 tests/record_corpus.py

The jobs are those of perfbench/workloads.py for every workload and seeds
0..SEEDS-1, each run in this process through satkit.cli.run.  A job's digest
covers its argv, its exit code and its stdout; stderr carries the wall-time
line and is not pinned.  The script rewrites tests/golden/corpus.json, and
tests/test_corpus.py checks the library against it.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
CORPUS = os.path.join(TESTS, "golden", "corpus.json")
SEEDS = 20


def load_workloads():
    """perfbench/workloads.py, found from this file; it is stdlib-only."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("corpus_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(argv) -> str:
    """The SHA-256 of one job's (argv, exit code, stdout)."""
    from satkit.cli import run

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    record = json.dumps([list(argv), code, out.getvalue()], separators=(",", ":"))
    return hashlib.sha256(record.encode()).hexdigest()


def jobs():
    """Every (workload, seed, index, argv) of the corpus, in a fixed order."""
    workloads = load_workloads()
    for workload in workloads.WORKLOADS:
        for seed in range(SEEDS):
            for i, argv in enumerate(workloads.generate(workload, seed)):
                yield workload, seed, i, argv


def record() -> dict:
    corpus = {}
    for workload, seed, _, argv in jobs():
        corpus.setdefault(workload, {}).setdefault(str(seed), []).append(digest(argv))
    return corpus


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    corpus = record()
    with open(CORPUS, "w") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
