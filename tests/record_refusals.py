"""Record the refusal corpus: what the CLI prints when it refuses an argv.

    python3 tests/record_refusals.py

Each argv of ARGVS is run in this process through satkit.cli.run.  Its record
in tests/golden/refusals.txt holds the argv, the exit code, stdout and, for a
precondition violation (exit 3), stderr: `run` writes the error line and
returns before the wall-time line, so that stderr is exact.  A usage error
(exit 2) pins only the code and stdout, since argparse's usage text differs
across Python versions.  Each field is one line of JSON, and records are
separated by a blank line, so a diff of the file shows the message that
changed.  tests/test_refusals.py checks the CLI against the file.
"""

import contextlib
import io
import json
import os
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
REFUSALS = os.path.join(TESTS, "golden", "refusals.txt")
FIELDS = ("argv", "exit", "stdout", "stderr")

# test_cli.py: test_precondition_violation_exit_code and, last, test_truncate_refuses_a_negative_q_by_name
PRECONDITIONS = [
    ["transfer", "--n", "3", "--endo", "2-1", "--json"],
    ["constant-term", "--n", "3", "--levi-s", "1", "--alpha", "1", "--levi-kottwitz", "--json"],
    ["constant-term", "--n", "4", "--levi-s", "3", "--alpha", "2", "--json"],
    ["constant-term", "--n", "4", "--levi-s", "3", "--alpha", "2", "--levi-kottwitz", "--json"],
    ["twisted-transfer", "--n", "4", "--endo", "2-2", "--place", "inert", "--d", "3", "--json"],
    ["subsets", "--n", "0", "--p", "1", "--json"],
    ["subsets", "--n", "4097", "--p", "1024", "--json"],
    ["weight-transfer", "--endo", "1-0,0-0", "--omega=1;", "--C", "1", "--weight", "0:5/", "--json"],
    ["truncate", "--pq", "3,-1", "--sprime=", "--weight", "0:2,1", "--dir", "gt", "--json"],
]

# test_cli.py: test_exponents_past_32_bits_exit_3
EXPONENTS = [
    ["satake-kottwitz", "--n", "2", "--s", "1", "--d", "3000000000", "--json"],
    ["constant-term", "--n", "4", "--levi-s", "1", "--alpha", "2", "--levi-kottwitz", "--d", "3000000000", "--json"],
    ["frobenius-trace", "--sig", "1+1", "--m", "3000000000", "--place", "split", "--field", "E", "--json"],
    ["frobenius-trace", "--sig", "1+1", "--m", "1500000000", "--place", "inert", "--field", "E", "--json"],
    ["base-change", "--n", "2", "--d", "3000000000", "--json"],
    ["base-change", "--n", "2", "--place", "inert", "--d", "6000000000", "--json"],
    ["twisted-transfer", "--n", "4", "--endo", "2-2", "--d", "3000000000", "--json"],
]

# test_cli.py: test_suite_parameters_are_checked_before_any_case
SUITE_PARAMETERS = [
    ["verify", *argv, "--json"]
    for argv in [
        ["phi-identity", "--pq", "3,-1", "--s", "0", "--count", "0", "--seed", "1"],
        ["phi-identity", "--pq", "2,1", "--s", "1", "--count", "0", "--seed", "1"],
        ["phi-identity", "--pq", "30,30", "--s", "1", "--count", "1", "--seed", "1"],
        ["rotation-count", "--count", "-5", "--seed", "1", "--n-max", "5"],
        ["rotation-count", "--count", "5", "--seed", "1", "--n-max", "-2"],
        ["partition-lemmas", "--n-max", "-1"],
        ["transfer-square", "--n-max", "-3"],
        ["partition-lemmas", "--n-max", "0"],
        ["partition-lemmas", "--n-max", "8"],
        ["rotation-count", "--count", "0", "--seed", "1"],
        ["rotation-count", "--n-max", "21", "--count", "1", "--seed", "1"],
        ["phi-identity", "--pq", "2,1", "--s", "0", "--seed", "1"],
        ["phi-identity", "--pq", "30,20", "--s", "1", "--seed", "1"],
        ["transfer-square", "--n", "4"],
        ["transfer-square", "--n-max", "1"],
        ["transfer-square", "--endo", "2-2", "--levi-s", "3", "--A", "1,2"],
        ["transfer-square", "--endo", "2-2"],
        ["transfer-square", "--levi-s", "1"],
        ["transfer-square", "--A", ""],
        ["transfer-square", "--n", "4", "--endo", "2-2", "--n-max", "6"],
        ["phi-identity", "--pq", "1,3", "--s", "3", "--seed", "1"],
        ["phi-identity", "--pq", "0,2", "--s", "2", "--seed", "1"],
    ]
]

# The refusals README.md describes that the lists above do not already hold: usage
# errors (`--n a`, `--sig 3`, an unknown flag, a missing --seed), a weight whose
# character may exceed 2^22 terms, and the single transfer-square case's checks of
# the Levi datum, in the order verify_transfer_square makes them.
README = [
    ["endoscopy", "--n", "a", "--json"],
    ["invariants", "--sig", "3", "--json"],
    ["satake-kottwitz", "--nope", "1", "--json"],
    ["verify", "rotation-count", "--n-max", "3", "--json"],
    ["weyl-char", "--size", "12", "--weight", "40,36,33,30,27,24,20,17,13,10,6,0", "--json"],
    ["verify", "transfer-square", "--n", "2,2", "--endo", "2-0,2-0", "--json"],
    ["verify", "transfer-square", "--n", "4", "--endo", "2-2", "--levi-s", "3", "--json"],
    ["verify", "transfer-square", "--n", "4", "--endo", "2-2", "--levi-s", "1", "--A", "2", "--json"],
    ["verify", "transfer-square", "--n", "3", "--endo", "1-2", "--levi-s", "1", "--json"],
    ["verify", "transfer-square", "--n", "4", "--endo", "2-4", "--levi-s", "1", "--json"],
]

# One argv per satkit error class not yet raised above.  ValueError, ParityError,
# PlaceError and ExponentOverflowError are.  HypothesisError and SubstitutionError
# have no path from the CLI: rotation-count draws only vectors that satisfy the
# hypothesis, and every substitution the CLI applies is built by the library.
ERROR_CLASSES = [
    ["truncate", "--pq", "2,2", "--sprime", "2", "--weight", "0:3,2,1,0", "--dir", "gt", "--json"],  # WallError
    ["frobenius-trace", "--sig", "1+1", "--m", "1", "--place", "inert", "--field", "Q", "--json"],  # UnsupportedCaseError
    ["weyl-char", "--size", "2", "--weight", "2147483647,0", "--json"],  # ExponentOverflowError
]

ARGVS = PRECONDITIONS + EXPONENTS + SUITE_PARAMETERS + README + ERROR_CLASSES


def outcome(argv) -> dict:
    """The record of one argv: its exit code and stdout, and stderr unless it exited 2."""
    from satkit.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    record = {"argv": list(argv), "exit": code, "stdout": out.getvalue()}
    if code != 2:
        record["stderr"] = err.getvalue()
    return record


def format_record(record: dict) -> str:
    return "".join(f"{key}: {json.dumps(record[key])}\n" for key in FIELDS if key in record)


def parse(text: str) -> list:
    """The records of a refusals file, in order."""
    records = []
    for block in text.split("\n\n"):
        lines = [line for line in block.splitlines() if line and not line.startswith("#")]
        if lines:
            records.append({key: json.loads(value) for key, value in (line.split(": ", 1) for line in lines)})
    return records


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    header = "# Refusals of the satkit CLI; re-record with `python3 tests/record_refusals.py`.\n\n"
    with open(REFUSALS, "w") as fh:
        fh.write(header + "\n".join(format_record(outcome(argv)) for argv in ARGVS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
