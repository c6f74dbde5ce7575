"""satkit's benchmark: CLI workloads end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload poly-build --seed 0 --seconds 35 --trace 0

Run from the root of a checkout; the library is imported from ./src.  One
client runs the workload's jobs in a closed loop, each job starting when the
previous one has finished, in-process through satkit.cli.run.  Every pass
over the job list runs in a fresh worker process (see worker.py).  Passes
are repeated until --seconds is used up, and at least until the run has 100
job samples, so that job_p90_ms has 10 samples beyond it.  Reported times
are scaled to a nominal host speed (see REFERENCE_S); the measured ones are
printed beside them.

Every job's output is checked (checks.py), must be byte-identical across the
passes of the run, and for the default seed must match the SHA-256 digests
in digests.json.  A job fails when it exits nonzero or fails a check.

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 adds
traced passes (spans on every public satkit function) and count passes
(LaurentPoly.__add__/__mul__), reports the per-layer metrics, and writes the
spans to perfbench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import checks
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
OUT_DIR = os.path.join(HERE, "out")

SETUP_SAMPLES = 9  # extra start-ups, beyond one per pass, for a steady setup_s median
MIN_SAMPLES = 100  # job samples per run: p90 then has at least 10 beyond it
PASS_TIMEOUT_S = 120
# Nominal duration of worker.reference().  Reported times are measured times
# scaled by REFERENCE_S / (duration of the reference work measured next to
# them): seconds on a host that runs the reference work in 3.5 ms.
REFERENCE_S = 0.0035


class WorkerError(RuntimeError):
    """A worker process died or printed something unreadable."""


def spawn(src: str, workload: str, seed: int, mode: str) -> Dict:
    """Run one worker to completion; returns its set-up time, jobs and final record.

    Each job record gets `t`, its time `s` scaled by the reference timings
    taken just before and just after it.
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), src, workload, str(seed), mode]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=PASS_TIMEOUT_S)
    wall = time.monotonic() - started
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.decode()[-2000:]}")
    records = [json.loads(line) for line in lines]
    result = {"wall_s": wall, "jobs": records[1:-1], **records[-1]}
    refs = result["refs"]
    result["setup_raw_s"] = records[0]["ready"] - started
    result["setup_s"] = result["setup_raw_s"] * REFERENCE_S / refs[0]
    result["speed"] = REFERENCE_S / statistics.median(refs)
    for j, rec in enumerate(result["jobs"]):
        rec["t"] = rec["s"] * 2 * REFERENCE_S / (refs[j] + refs[j + 1])
    return result


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def job_label(argv: Sequence[str]) -> str:
    return " ".join(argv)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Judge:
    """Checks every job of every pass; a job fails on a nonzero exit, a failed
    closed-form check, output that differs from the first pass, or, for the
    default seed, output that does not match the stored digest."""

    def __init__(self, jobs: Sequence[tuple], digests: Optional[Dict[str, str]]):
        self.jobs = jobs
        self.digests = digests
        self.first: List[Optional[str]] = [None] * len(jobs)
        self.verdict: Dict[tuple, Optional[str]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def judge(self, i: int, exit_code, stdout: str) -> Optional[str]:
        argv = self.jobs[i]
        digest = sha256(stdout)
        key = (i, digest, exit_code)  # each job's own checks, even for output another job printed
        if key not in self.verdict:
            reason = checks.check_job(argv, exit_code, stdout)
            if reason is None and self.digests is not None and self.digests.get(job_label(argv)) != digest:
                reason = "stdout does not match the stored digest"
            self.verdict[key] = reason
        reason = self.verdict[key]
        if self.first[i] is None:
            self.first[i] = digest
        elif reason is None and digest != self.first[i]:
            reason = "stdout differs from the first pass"
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{job_label(argv)}: {reason}")
        return reason

    def judge_pass(self, result: Dict) -> None:
        if len(result["jobs"]) != len(self.jobs):
            raise WorkerError(f"worker ran {len(result['jobs'])} of {len(self.jobs)} jobs")
        for rec in result["jobs"]:
            reason = self.judge(rec["job"], rec["exit"], rec["out"])
            if reason is not None and rec["err"].strip():
                self.failures[-1] += f" ({rec['err'].strip().splitlines()[-1]})"
            rec["bytes"] = len(rec.pop("out").encode())
            del rec["err"]


def run_passes(args, src: str, jobs, judge: Judge) -> Dict[str, List[Dict]]:
    """Fresh worker per pass until the time is used up; plain passes alone, or
    plain, traced and counting passes in turn with --trace 1."""
    modes = ["plain", "trace", "count"] if args.trace else ["plain"]
    min_plain = 1 if args.trace else math.ceil(MIN_SAMPLES / len(jobs))
    passes: Dict[str, List[Dict]] = {m: [] for m in modes}
    longest = {m: 0.0 for m in modes}
    started = time.monotonic()
    k = 0
    while True:
        mode = modes[k % len(modes)]
        k += 1
        needed = len(passes["plain"]) < min_plain or any(not passes[m] for m in modes)
        elapsed = time.monotonic() - started
        if not needed and elapsed + longest[mode] > args.seconds:
            break
        result = spawn(src, args.workload, args.seed, mode)
        longest[mode] = max(longest[mode], result["wall_s"])
        judge.judge_pass(result)
        passes[mode].append(result)
    return passes


def end_to_end(plain: List[Dict], setups: List[float], key: str = "t") -> Dict[str, float]:
    """The end-to-end metrics from the plain passes, on scaled (`t`) or measured (`s`) times."""
    samples = [rec[key] for p in plain for rec in p["jobs"]]
    return {
        "wall_s": statistics.median(sum(rec[key] for rec in p["jobs"]) for p in plain),
        "job_p50_ms": 1000 * statistics.median(samples),
        "job_p90_ms": 1000 * percentile(samples, 90),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in plain) / 1024,
    }


UNITS = {"wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


# -- per-layer metrics ---------------------------------------------------------------------

# Self-time metrics: metric stem -> span names whose self time it sums.
SELF_TIMES = {
    "laurent.serialize_poly": ["laurent.serialize_poly"],
    "laurent.parse_poly": ["laurent.parse_poly"],
    "laurent.symmetrize": ["laurent.symmetrize"],
    "laurent.is_invariant": ["laurent.is_invariant"],
    "laurent.substitute": ["laurent.substitute"],
    "satake.kottwitz_function": ["satake.kottwitz_function"],
    "satake.levi_kottwitz_function": ["satake.levi_kottwitz_function"],
    "satake.HeckeRing.weyl": ["satake.HeckeRing.weyl"],
    "satake.HeckeRing.contains": ["satake.HeckeRing.contains"],
    "satake.maps": [
        "satake.base_change_map",
        "satake.transfer_map",
        "satake.twisted_transfer_map",
        "satake.levi_twisted_transfer",
    ],
    "satake.verify_transfer_square": ["satake.verify_transfer_square"],
    "characters.KostantDatum.coset_reps": ["characters.KostantDatum.coset_reps"],
    "characters.verify_phi_identity": ["characters.verify_phi_identity"],
    "characters.partial_sum_signature": ["characters.partial_sum_signature"],
    "characters.ordered_partition_sum": ["characters.ordered_partition_sum"],
    "characters.positive_rotation_count": ["characters.positive_rotation_count"],
    "characters.weyl_character": ["characters.weyl_character"],
    "characters.frobenius_trace": ["characters.frobenius_trace"],
    "rootdata.enumerate_endoscopic": ["rootdata.enumerate_endoscopic"],
    "rootdata.iota_gh": ["rootdata.iota_gh"],
}

# Which end-to-end metric, on which workload, each layer metric should move
# (printed beside each per-layer metric; NOTES.md refers here).
MOVES = {
    "laurent.add": "wall_s, job_p90_ms on poly-build; none on discrete-series",
    "laurent.mul": "wall_s, job_p90_ms on poly-build; none on discrete-series",
    "laurent.serialize_poly": "wall_s, job_p90_ms on poly-build; none on discrete-series",
    "laurent.parse_poly": "wall_s, job_p90_ms on poly-build; none on discrete-series",
    "laurent.weyl_group": "wall_s, job_p90_ms on weyl-orbits; little on poly-build",
    "laurent.group_act": "wall_s, job_p90_ms on weyl-orbits; little on poly-build",
    "laurent.symmetrize": "wall_s, job_p90_ms on weyl-orbits; little on poly-build",
    "laurent.is_invariant": "wall_s, job_p90_ms on weyl-orbits; little on poly-build",
    "laurent.substitute": "wall_s, job_p90_ms on weyl-orbits; little on poly-build",
    "satake.kottwitz_function": "wall_s on poly-build",
    "satake.levi_kottwitz_function": "wall_s on poly-build",
    "satake.HeckeRing": "wall_s on weyl-orbits",
    "satake.maps": "wall_s on weyl-orbits",
    "satake.verify_transfer_square": "wall_s on weyl-orbits",
    "characters.KostantDatum": "wall_s on discrete-series",
    "characters.verify_phi_identity": "wall_s on discrete-series",
    "characters.partial_sum_signature": "wall_s on discrete-series",
    "characters.ordered_partition_sum": "wall_s on discrete-series",
    "characters.positive_rotation_count": "wall_s on discrete-series",
    "characters.weyl_character": "wall_s on poly-build",
    "characters.frobenius_trace": "wall_s on poly-build",
    "rootdata": "job_p50_ms on weyl-orbits",
    "cli": "job_p50_ms on all three workloads, and setup_s",
    "trace": "none: the cost of tracing itself",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(passes: Dict[str, List[Dict]]) -> Dict[str, tuple]:
    """name -> (value, unit, note), averaged per pass."""
    traced, counted, plain = passes["trace"], passes["count"], passes["plain"]
    n_traced = len(traced)
    table: Dict[str, Dict] = {}
    traced_wall = 0.0  # measured: self_pct compares times taken in the same passes
    speeds: List[float] = []
    counters: Dict[str, float] = {}
    for p in traced:
        traced_wall += sum(rec["s"] for rec in p["jobs"])
        speeds.append(p["speed"])
        for name, row in spans.summarize(p["spans"]).items():
            agg = table.setdefault(name, {"calls": 0, "self_s": 0.0, "errors": 0, "walls": 0})
            agg["calls"] += row["calls"]
            agg["self_s"] += row["self_s"]
            agg["errors"] += sum(row["errors"].values())
            agg["walls"] += row["errors"].get("WallError", 0)
        for key, value in p["counters"].items():
            counters[key] = counters.get(key, 0) + value
    for p in counted:
        for key, value in p["counters"].items():
            counters[key] = counters.get(key, 0) + value / len(counted) * n_traced

    def row(name):
        return table.get(name, {"calls": 0, "self_s": 0.0, "errors": 0, "walls": 0})

    def count(key):
        return counters.get(key, 0) / n_traced

    out: Dict[str, tuple] = {}
    out["laurent.add.calls"] = (count("laurent.add.calls"), "count", "")
    out["laurent.add.terms_copied"] = (count("laurent.add.terms_copied"), "count", "")
    out["laurent.mul.term_pairs"] = (count("laurent.mul.term_pairs"), "count", "")
    out["laurent.weyl_group.elements"] = (count("laurent.weyl_group.elements"), "count", "")
    out["laurent.group_act.calls"] = (row("laurent.group_act")["calls"] / n_traced, "count", "")
    useful, attempts = count("laurent.symmetrize.useful"), count("laurent.symmetrize.attempts")
    out["laurent.symmetrize.useful_ratio"] = (
        _ratio(useful, attempts), "ratio", f"{useful:.0f} distinct terms / {attempts:.0f} term images")
    kept, tried = count("characters.KostantDatum.coset_reps.kept"), count("characters.KostantDatum.coset_reps.tried")
    out["characters.KostantDatum.coset_reps.useful_ratio"] = (
        _ratio(kept, tried), "ratio", f"{kept:.0f} reps kept / {tried:.0f} permutations tried")
    phi = row("characters.verify_phi_identity")
    out["characters.verify_phi_identity.walls"] = (phi["walls"] / n_traced, "count", "WallError raises")
    out["characters.verify_phi_identity.useful_ratio"] = (
        _ratio(phi["calls"] - phi["errors"], phi["calls"]), "ratio",
        f"{phi['calls'] - phi['errors']} successful / {phi['calls']} calls")
    out["satake.verify_transfer_square.cases"] = (count("satake.verify_transfer_square.cases"), "count", "")
    for stem, names in SELF_TIMES.items():
        self_s = sum(row(n)["self_s"] for n in names)
        calls = sum(row(n)["calls"] for n in names)
        out[f"{stem}.self_pct"] = (
            100 * _ratio(self_s, traced_wall), "%",
            f"self {self_s / n_traced:.4f} s per pass over {calls / n_traced:.0f} calls")
    speed = statistics.mean(speeds)
    parse = speed * sum(r["self_s"] for n, r in table.items() if n in ("cli.build_parser", "argparse.parse_args"))
    cli_rest = speed * sum(r["self_s"] for n, r in table.items() if n.startswith("cli.") and n != "cli.build_parser")
    out["cli.parse.self_s"] = (parse / n_traced, "s", "build_parser and parse_args")
    out["cli.run.self_s"] = (cli_rest / n_traced, "s", "cli spans minus their library children")
    out["cli.stdout_bytes"] = (
        statistics.mean(sum(r["bytes"] for r in p["jobs"]) for p in plain), "bytes", "")
    out["cli.exit3"] = (statistics.mean(sum(1 for r in p["jobs"] if r["exit"] == 3) for p in plain), "count", "")
    plain_wall = statistics.median(sum(r["t"] for r in p["jobs"]) for p in plain)
    traced_median = statistics.median(sum(r["t"] for r in p["jobs"]) for p in traced)
    out["trace.overhead_s"] = (
        traced_median - plain_wall, "s", f"traced wall_s {traced_median:.4f} minus untraced {plain_wall:.4f}")
    return out


def moves(name: str) -> str:
    for prefix in sorted(MOVES, key=len, reverse=True):
        if name.startswith(prefix):
            return MOVES[prefix]
    return ""


def write_trace(args, jobs, passes) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    fields = ["name", "start", "end", "parent", "job", "error"]
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "jobs": [job_label(j) for j in jobs],
                "span_fields": fields,
                "passes": [p["spans"] for p in passes["trace"]],
            },
            fh,
            separators=(",", ":"),
        )
    return path


def load_digests(workload: str, seed: int) -> Optional[Dict[str, str]]:
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(DIGESTS) as fh:
        return json.load(fh)[workload]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "satkit", "cli.py")):
        sys.stderr.write(f"no satkit sources under {src}: run from the root of a satkit checkout\n")
        return 2
    jobs = workloads.generate(args.workload, args.seed)
    judge = Judge(jobs, load_digests(args.workload, args.seed))

    spawn(src, args.workload, args.seed, "setup")  # warm-up: byte-compile, fill the file cache
    starts = [spawn(src, args.workload, args.seed, "setup") for _ in range(SETUP_SAMPLES)]
    passes = run_passes(args, src, jobs, judge)
    starts += passes["plain"]
    plain = passes["plain"]
    e2e = end_to_end(plain, [p["setup_s"] for p in starts])
    measured = end_to_end(plain, [p["setup_raw_s"] for p in starts], key="s")

    repeats, keyed = workloads.repeat_share(jobs)
    failed = len(judge.failures)
    samples = len(plain) * len(jobs)
    print(f"workload {args.workload}, seed {args.seed}: {len(jobs)} jobs per pass, one client, closed loop")
    print(f"  why: {workloads.WHY[args.workload]}")
    print(f"  jobs repeating an earlier job's group or (p,q,S') parameters: {repeats} of {keyed}")
    print(f"  plain passes: {len(plain)}; job samples: {samples}; start-ups: {len(starts)}; "
          f"host speed {statistics.median(p['speed'] for p in plain):.3f} of nominal")
    print(f"  {'metric':<12} {'reported':>12}  {'measured':>12}")
    for name, unit in UNITS.items():
        print(f"  {name:<12} {e2e[name]:>12.4f}  {measured[name]:>12.4f} {unit}")
    print(f"  {'fail_frac':<12} {failed / judge.attempted:>12.4f}  ({failed} of {judge.attempted} jobs)")
    print(f"  job_p90_ms is the nearest-rank p90 of {samples} samples, {samples - math.ceil(0.9 * samples)} beyond it")
    for line in judge.failures[:20]:
        print(f"  FAILED {line}")

    if args.trace:
        layers = per_layer(passes)
        path = write_trace(args, jobs, passes)
        print(f"  traced passes: {len(passes['trace'])}, count passes: {len(passes['count'])}; spans in {path}")
        for name, (value, unit, note) in layers.items():
            print(f"  {name:<52} {value:>14.6g} {unit:<6} {note}; should move {moves(name)}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in UNITS.items()}
    print(json.dumps({"correct": failed == 0, "attempted": judge.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
