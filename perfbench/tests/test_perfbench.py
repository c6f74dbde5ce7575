"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q

Run from the root of a checkout (the traced-run test imports satkit from ./src).
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed_and_differs_across_seeds(workload):
    first = workloads.generate(workload, 5)
    assert workloads.generate(workload, 5) == first
    assert workloads.generate(workload, 6) != first
    assert all(argv[-1] == "--json" for argv in first)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_seed_draws_the_same_job_kinds(workload):
    def shape(argv):
        return (argv[0], argv[1] if argv[0] == "verify" else "")

    kinds = [sorted(shape(a) for a in workloads.generate(workload, s)) for s in range(5)]
    assert all(k == kinds[0] for k in kinds)


def test_readme_examples_are_each_in_one_workload():
    labels = [" ".join(a[:-1]) for w in workloads.WORKLOADS for a in workloads.generate(w, 0)]
    for w, examples in workloads.README.items():
        for example in examples:
            assert labels.count(example) == 1


def test_off_wall_detects_disjoint_equal_sums():
    assert not workloads.off_wall([9, 5, 2, 1, -3, -7], [2])  # 9 + -3 == 5 + 1
    assert workloads.off_wall([9, 5, 2, 1, -3, -7], [1])
    assert workloads.off_wall([8, 4, 2, 1], [2])


def test_repeat_share_counts_later_jobs_with_a_seen_key():
    jobs = [
        ("endoscopy", "--n", "4", "--json"),
        ("transfer", "--n", "4", "--endo", "2-2", "--json"),
        ("verify", "partition-lemmas", "--n-max", "3", "--json"),
        ("kostant", "--pq", "2,1", "--sprime", "1", "--weight", "0:3,1,-2", "--json"),
    ]
    assert workloads.repeat_share(jobs) == (1, 3)


KOTTWITZ = ("satake-kottwitz", "--n", "2", "--s", "1", "--d", "1", "--json")
KOTTWITZ_OUT = [
    {"q": 1, "num": 1, "den": 1, "exps": {"X": -1, "X_1_1": -1}},
    {"q": 1, "num": 1, "den": 1, "exps": {"X": -1, "X_1_2": -1}},
]


def _stdout(payload):
    return json.dumps(payload, separators=(",", ":")) + "\n"


def test_check_accepts_a_correct_output():
    assert checks.check_job(KOTTWITZ, 0, _stdout({"poly": KOTTWITZ_OUT})) is None


def test_check_rejects_a_flipped_coefficient():
    flipped = [dict(KOTTWITZ_OUT[0], num=-1), KOTTWITZ_OUT[1]]
    assert checks.check_job(KOTTWITZ, 0, _stdout({"poly": flipped})) is not None

    argv = ("weyl-char", "--size", "2", "--weight", "1,0", "--json")
    good = [{"q": 0, "num": 1, "den": 1, "exps": {"X_1_1": 1}}, {"q": 0, "num": 1, "den": 1, "exps": {"X_1_2": 1}}]
    assert checks.check_job(argv, 0, _stdout({"poly": good})) is None
    bad = [good[0], dict(good[1], num=-1)]
    assert checks.check_job(argv, 0, _stdout({"poly": bad})) is not None


def test_check_rejects_a_nonzero_exit():
    assert checks.check_job(KOTTWITZ, 3, "") == "exit code 3"
    assert checks.check_job(KOTTWITZ, 1, _stdout({"poly": KOTTWITZ_OUT})) is not None


def test_check_rejects_a_failed_suite():
    argv = ("verify", "phi-identity", "--pq", "2,1", "--s", "1", "--count", "2", "--seed", "1", "--json")
    ok = {"suite": "phi-identity", "cases": 2, "failures": []}
    assert checks.check_job(argv, 0, _stdout(ok)) is None
    assert checks.check_job(argv, 0, _stdout(dict(ok, failures=[{"weight": [1]}]))) is not None
    assert checks.check_job(argv, 0, _stdout(dict(ok, cases=1))) is not None


def test_judge_fails_output_that_changes_between_passes():
    judge = run.Judge([KOTTWITZ], None)
    good = _stdout({"poly": KOTTWITZ_OUT})
    assert judge.judge(0, 0, good) is None
    assert judge.judge(0, 0, good.replace("\n", " \n")) is not None
    assert judge.attempted == 2 and len(judge.failures) == 1


def test_judge_applies_each_jobs_own_digest_to_output_another_job_printed():
    other = KOTTWITZ[:-1] + ("--place", "split", "--json")  # passes the same closed-form check
    good = _stdout({"poly": KOTTWITZ_OUT})
    digests = {run.job_label(KOTTWITZ): run.sha256(good), run.job_label(other): run.sha256(good + " ")}
    judge = run.Judge([KOTTWITZ, other], digests)
    assert judge.judge(0, 0, good) is None
    assert judge.judge(1, 0, good) is not None


class _Poly:
    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __add__(self, other):
        return _Poly(self.n + other.n) if isinstance(other, _Poly) else NotImplemented

    def __mul__(self, other):
        return _Poly(self.n * other.n) if isinstance(other, _Poly) else NotImplemented


def test_install_counts_wraps_only_defined_operators_and_skips_not_implemented():
    rec = spans.Recorder()
    spans.install_counts(_Poly, rec)
    assert "__rmul__" not in vars(_Poly) and "__radd__" not in vars(_Poly)
    with pytest.raises(TypeError):
        2 * _Poly(3)
    assert _Poly(2).__mul__("x") is NotImplemented
    _Poly(2) * _Poly(3)
    _Poly(2) + _Poly(3)
    assert rec.counters["laurent.mul.calls"] == 1 and rec.counters["laurent.mul.term_pairs"] == 6
    assert rec.counters["laurent.add.calls"] == 1 and rec.counters["laurent.add.terms_copied"] == 7


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_child_coverage():
    tree = [
        _span("root", 0.0, 10.0, -1),  # children cover [1,3] and [4,8]
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),  # child covers [5,6] and [6.5,7]
        _span("b1", 5.0, 6.0, 2),
        _span("b2", 6.5, 7.0, 2),
        _span("leaf", 20.0, 21.5, -1),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 2.5, 1.0, 0.5, 1.5])
    table = spans.summarize(tree + [_span("a", 30.0, 31.0, -1)])
    assert table["a"]["calls"] == 2 and table["a"]["self_s"] == pytest.approx(3.0)


def test_self_time_clips_children_to_the_parent_and_merges_overlaps():
    tree = [
        _span("root", 0.0, 4.0, -1),
        _span("x", 1.0, 3.0, 0),
        _span("y", 2.0, 5.0, 0),  # overlaps x and runs past the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 50) == 50
    assert run.percentile([7.0], 90) == 7.0


TRACED = r"""
import io, contextlib, json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import satkit.cli, spans
rec = spans.Recorder()
plain = io.StringIO()
with contextlib.redirect_stdout(plain):
    satkit.cli.run(["transfer", "--n", "3", "--endo", "1-2", "--json"])
spans.install_spans([sys.modules[m] for m in spans.MODULES], rec)
traced = io.StringIO()
with contextlib.redirect_stdout(traced):
    satkit.cli.run(["transfer", "--n", "3", "--endo", "1-2", "--json"])
import satkit.satake, satkit.laurent
print(json.dumps({
    "same": plain.getvalue() == traced.getvalue(),
    "shared": satkit.satake.substitute is satkit.laurent.substitute,
    "names": sorted({s[0] for s in rec.spans}),
    "nested": [(s[0], rec.spans[s[3]][0]) for s in rec.spans if s[3] >= 0],
}))
"""


def test_traced_run_wraps_import_bound_names_and_keeps_stdout():
    proc = subprocess.run(
        [sys.executable, "-c", TRACED, os.path.join(ROOT, "src"), BENCH],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["same"] and out["shared"]
    assert {"cli.run", "cli.cmd_transfer", "satake.transfer_map", "laurent.pretty"} - set(out["names"]) == set()
    assert ["cli.cmd_transfer", "cli.run"] in out["nested"]
    assert ["satake.transfer_map", "cli.cmd_transfer"] in out["nested"]


def _fake_pass(mode):
    jobs = [{"job": 0, "s": 0.01, "t": 0.01, "exit": 0, "bytes": 10}]
    p = {"jobs": jobs, "refs": [0.0035, 0.0035], "speed": 1.0, "peak_rss_kb": 20480, "counters": {}, "spans": []}
    if mode == "trace":
        p["spans"] = [_span("cli.run", 0.0, 0.01, -1), _span("cli.build_parser", 0.0, 0.004, 0)]
    return p


def test_result_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    passes = {m: [_fake_pass(m)] for m in ("plain", "trace", "count")}
    layers = run.per_layer(passes)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, v[1]) for k, v in layers.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.UNITS.items())
    assert set(run.end_to_end(passes["plain"], [0.05])) == set(run.UNITS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert layers["cli.parse.self_s"][0] == pytest.approx(0.004)
    assert layers["cli.run.self_s"][0] == pytest.approx(0.006)
