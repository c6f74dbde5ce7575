"""Exit codes, deterministic output and the documented JSON shapes."""

import contextlib
import importlib
import io
import json
import os
import pkgutil
import random
import sys
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satkit
from satkit import characters, cli, satake
from satkit.characters import two_partition_hypothesis
from satkit.cli import build_parser, run
from satkit.rootdata import EndoTriple, GroupDatum, PlaceContext

import oracles
import record_corpus
import record_refusals

SPLIT = PlaceContext(split=True, d=1)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_satake_kottwitz_example(capsys):
    code, out = invoke(capsys, ["satake-kottwitz", "--n", "2", "--s", "1", "--d", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == [
        {"q": 1, "num": 1, "den": 1, "exps": {"X": -1, "X_1_1": -1}},
        {"q": 1, "num": 1, "den": 1, "exps": {"X": -1, "X_1_2": -1}},
    ]


def test_invariants_example(capsys):
    code, out = invoke(capsys, ["invariants", "--sig", "3+0", "--json"])
    assert code == 0
    assert json.loads(out) == {"tau": 1, "k": 4, "d": 1, "kt_check": "2^2"}


def test_endoscopy_output(capsys):
    code, out = invoke(capsys, ["endoscopy", "--n", "4", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 2
    assert sorted(c["outer_order"] for c in payload["classes"]) == [1, 2]


def test_verify_partition_lemmas(capsys):
    code, out = invoke(capsys, ["verify", "partition-lemmas", "--n-max", "5", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == [] and payload["cases"] == 1364


def test_verify_transfer_square_single(capsys):
    code, out = invoke(
        capsys,
        ["verify", "transfer-square", "--n", "3", "--endo", "1-2", "--levi-s", "1", "--A", "1", "--json"],
    )
    assert code == 0
    assert json.loads(out)["failures"] == []
    # one slot and no linear pair: the generators are X, one basic function, e_1 and p_2
    code, out = invoke(capsys, ["verify", "transfer-square", "--n", "1", "--endo", "1-0", "--levi-s", "0", "--json"])
    assert (code, json.loads(out)) == (0, {"suite": "transfer-square", "cases": 4, "failures": []})


def test_byte_identical_reruns(capsys):
    argv = ["verify", "rotation-count", "--n-max", "4", "--count", "20", "--seed", "7", "--json"]
    _, first = invoke(capsys, argv)
    _, second = invoke(capsys, argv)
    assert first == second
    argv2 = ["twisted-transfer", "--n", "4", "--endo", "2-2", "--json"]
    _, a = invoke(capsys, argv2)
    _, b = invoke(capsys, argv2)
    assert a == b


def test_precondition_violation_exit_code(capsys):
    # parity violation in the endoscopic datum
    code, _ = invoke(capsys, ["transfer", "--n", "3", "--endo", "2-1", "--json"])
    assert code == 3
    # alpha out of range for the Levi-level basic function
    code, _ = invoke(
        capsys,
        ["constant-term", "--n", "3", "--levi-s", "1", "--alpha", "1", "--levi-kottwitz", "--json"],
    )
    assert code == 3
    # a Levi that GU(4) does not have (2s > n), for either constant-term function
    for levi_kottwitz in ([], ["--levi-kottwitz"]):
        argv = ["constant-term", "--n", "4", "--levi-s", "3", "--alpha", "2", *levi_kottwitz, "--json"]
        assert invoke(capsys, argv) == (3, "")
    # twisted transfer at an odd-degree inert place
    code, _ = invoke(
        capsys,
        ["twisted-transfer", "--n", "4", "--endo", "2-2", "--place", "inert", "--d", "3", "--json"],
    )
    assert code == 3
    # a subset family needs n >= 1
    code, out = invoke(capsys, ["subsets", "--n", "0", "--p", "1", "--json"])
    assert code == 3 and out == ""
    # a subset family past the entry ceiling
    code, out = invoke(capsys, ["subsets", "--n", "4097", "--p", "1024", "--json"])
    assert code == 3 and out == ""
    # an endoscopic datum with a factor of size 0
    argv = ["weight-transfer", "--endo", "1-0,0-0", "--omega=1;", "--C", "1", "--weight", "0:5/", "--json"]
    assert invoke(capsys, argv) == (3, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["satake-kottwitz", "--n", "2", "--s", "1", "--d", "3000000000"],
        ["constant-term", "--n", "4", "--levi-s", "1", "--alpha", "2", "--levi-kottwitz", "--d", "3000000000"],
        ["frobenius-trace", "--sig", "1+1", "--m", "3000000000", "--place", "split", "--field", "E"],
        ["frobenius-trace", "--sig", "1+1", "--m", "1500000000", "--place", "inert", "--field", "E"],
        # maps: the refusal names an exponent of the image (a = d at a split place, 2a = d for
        # the inert similitude of even factors), not an intermediate square of a power
        ["base-change", "--n", "2", "--d", "3000000000"],
        ["base-change", "--n", "2", "--place", "inert", "--d", "6000000000"],
        ["twisted-transfer", "--n", "4", "--endo", "2-2", "--d", "3000000000"],
    ],
)
def test_exponents_past_32_bits_exit_3(capsys, argv):
    assert invoke(capsys, argv + ["--json"]) == (3, "")


def test_subsets_past_the_recursion_limit(capsys):
    code, out = invoke(capsys, ["subsets", "--n", "1200", "--p", "1", "--json"])
    assert code == 0 and len(json.loads(out)["subsets"]) == 1200


LEMMAS = ("partial_sum_signature", "ordered_partition_sum", "positive_rotation_count", "rotation_orbit_hits")


def _must_not_run(*args):
    raise AssertionError("the suite started its work")


WORKERS = [(characters, name) for name in LEMMAS] + [
    (cli, "sample_rotation_vector"),
    (characters, "verify_phi_identity"),
    (satake, "levi_sign_data"),
    (satake, "verify_transfer_square"),
]


@pytest.mark.parametrize(
    "argv",
    [
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
        # a flag of the single case without --n, and --n-max with it
        ["transfer-square", "--endo", "2-2", "--levi-s", "3", "--A", "1,2"],
        ["transfer-square", "--endo", "2-2"],
        ["transfer-square", "--levi-s", "1"],
        ["transfer-square", "--A", ""],
        ["transfer-square", "--n", "4", "--endo", "2-2", "--n-max", "6"],
        # 2s > p + q: GU(p, q) has no Levi with s linear slots
        ["phi-identity", "--pq", "1,3", "--s", "3", "--seed", "1"],
        ["phi-identity", "--pq", "0,2", "--s", "2", "--seed", "1"],
    ],
)
def test_suite_parameters_are_checked_before_any_case(capsys, monkeypatch, argv):
    # below a floor a suite would report 0 cases and exit 0, past a ceiling it would run
    # away; the suites are generators, so each refusal must come before the first case
    for module, name in WORKERS:
        monkeypatch.setattr(module, name, _must_not_run)
    code, out = invoke(capsys, ["verify", *argv, "--json"])
    assert code == 3 and out == ""


def test_rotation_count_reaches_n_12(capsys):
    started = time.monotonic()
    code, out = invoke(
        capsys, ["verify", "rotation-count", "--n-max", "12", "--count", "3", "--seed", "1", "--json"]
    )
    assert time.monotonic() - started < 10
    payload = json.loads(out)
    assert code == 0 and payload["failures"] == [] and payload["cases"] == 36


def test_phi_identity_reaches_n_10(capsys):
    # the outer slots of GU(5, 5) with s = 1 have 90 orderings; all of W has 10!
    started = time.monotonic()
    code, out = invoke(
        capsys, ["verify", "phi-identity", "--pq", "5,5", "--s", "1", "--count", "2", "--seed", "1", "--json"]
    )
    assert time.monotonic() - started < 5
    payload = json.loads(out)
    assert code == 0 and payload["failures"] == [] and payload["cases"] == 2


@pytest.mark.parametrize("pq", ["4,4", "5,4"])
def test_phi_identity_falls_back_to_a_wider_weight_range(capsys, monkeypatch, pq):
    # at these shapes with s = 2, most weights drawn from -24..24 hit a coweight wall
    weights = []
    identity = characters.verify_phi_identity

    def recorded(p, q, s, weight, **kw):
        report = identity(p, q, s, weight, **kw)
        weights.append(weight.blocks[0])
        return report

    monkeypatch.setattr(characters, "verify_phi_identity", recorded)
    argv = ["verify", "phi-identity", "--pq", pq, "--s", "2", "--count", "5", "--seed", "1", "--json"]
    code, out = invoke(capsys, argv)
    assert code == 0 and json.loads(out) == {"suite": "phi-identity", "cases": 5, "failures": []}
    assert len(weights) == 5 and any(max(map(abs, w)) > 24 for w in weights)


def test_phi_identity_gives_up_after_a_fixed_number_of_draws(capsys, monkeypatch):
    draws = []

    def on_a_wall(p, q, s, weight, **kw):
        draws.append(weight)
        raise characters.WallError("on a wall")

    monkeypatch.setattr(characters, "verify_phi_identity", on_a_wall)
    code = run(["verify", "phi-identity", "--pq", "2,1", "--s", "1", "--count", "3", "--seed", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and "could not sample an off-wall weight" in err
    assert len(draws) == 2 * cli.WEIGHT_DRAWS


def _lemma_stub(lam):
    """The value both partition lemmas take on lam."""
    return (-1) ** len(lam) if all(x > 0 for x in lam) else 0


@pytest.mark.parametrize(
    "argv, ceiling",
    [
        (["verify", "partition-lemmas", "--json"], cli.MAX_PARTITION_N),
        (["verify", "rotation-count", "--count", "1", "--seed", "1", "--json"], cli.MAX_ROTATION_N),
    ],
)
def test_suite_size_ceilings(capsys, monkeypatch, argv, ceiling):
    for name in LEMMAS:
        monkeypatch.setattr(characters, name, _must_not_run)
    monkeypatch.setattr(cli, "sample_rotation_vector", _must_not_run)
    started = time.monotonic()
    code = run(argv + ["--n-max", str(ceiling + 1)])
    assert time.monotonic() - started < 1
    out, err = capsys.readouterr()
    assert code == 3 and out == "" and f"--n-max must be at most {ceiling}" in err
    # the ceiling itself is accepted; the lemmas are stubbed, so only the loop runs
    monkeypatch.setattr(characters, "partial_sum_signature", _lemma_stub)
    monkeypatch.setattr(characters, "ordered_partition_sum", _lemma_stub)
    monkeypatch.setattr(characters, "positive_rotation_count", lambda lam: factorial(len(lam) - 1))
    monkeypatch.setattr(characters, "rotation_orbit_hits", lambda lam: 1)
    monkeypatch.setattr(cli, "sample_rotation_vector", lambda rng, n: [1] * n)
    code, out = invoke(capsys, argv + ["--n-max", str(ceiling)])
    assert code == 0 and json.loads(out)["failures"] == []


def test_weyl_char_refuses_a_weight_with_too_many_terms(capsys):
    started = time.monotonic()
    code = run(["weyl-char", "--size", "3", "--weight", "2147483645,0,0"])
    assert time.monotonic() - started < 1
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "2305843005992468481 terms" in err


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 12))
def test_sampled_rotation_vectors_satisfy_the_hypothesis(seed, n):
    assert two_partition_hypothesis(cli.sample_rotation_vector(random.Random(seed), n))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, 2**32), st.integers(1, 12))
def test_sampled_rotation_vectors_scale_the_fraction_draws(seed, n):
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    lam = cli.sample_rotation_vector(rng, n)
    want = oracles.sample_rotation_vector_by_fractions(oracle_rng, n)
    assert all(type(x) is int for x in lam)
    assert lam == [cli.ROTATION_SCALE * x for x in want]
    # the stream is left where the Fraction sampler left it, so every later case is unchanged
    assert rng.getstate() == oracle_rng.getstate()


def test_rotation_failure_records_print_the_fractions(capsys, monkeypatch):
    monkeypatch.setattr(characters, "rotation_orbit_hits", lambda lam: 0)
    code, out = invoke(
        capsys, ["verify", "rotation-count", "--n-max", "6", "--count", "4", "--seed", "5", "--json"]
    )
    rng = random.Random(5)
    want = [
        [str(x) for x in oracles.sample_rotation_vector_by_fractions(rng, n)]
        for n in range(1, 7)
        for _ in range(4)
    ]
    assert code == 1 and [f["lambda"] for f in json.loads(out)["failures"]] == want
    assert any("/" in x for lam in want for x in lam)


def test_rotation_suite_builds_no_fraction(capsys, monkeypatch):
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    code, out = invoke(
        capsys, ["verify", "rotation-count", "--n-max", "8", "--count", "15", "--seed", "3", "--json"]
    )
    assert code == 0 and json.loads(out)["cases"] == 120
    assert built == []
    assert Fraction(1, 2) and built == [(1, 2)]  # the counter sees a construction


def transfer_square_cases(n_max):
    """Every (group, datum, Levi linear count s, A) case of `verify transfer-square --n-max`."""
    for n in range(2, n_max + 1):
        g = GroupDatum((n,))
        for n2 in range(0, n + 1, 2):
            h = EndoTriple((n - n2,), (n2,))
            for s in range(1, n // 2 + 1):
                for bits in range(2**s):
                    a_set = [j + 1 for j in range(s) if bits >> j & 1]
                    try:
                        satake.levi_sign_data(g, h, s, a_set)
                    except ValueError:
                        continue
                    yield g, h, s, a_set


@pytest.mark.parametrize("variant", ["s_M", "s'_M"])
def test_transfer_square_suite_matches_per_case_reports(capsys, monkeypatch, variant):
    # the s'_M control makes some cases fail, so that failure records are compared too
    if variant == "s'_M":
        monkeypatch.setattr(satake, "levi_twisted_transfer", oracles.levi_twisted_transfer_s_prime)
    code, out = invoke(capsys, ["verify", "transfer-square", "--n-max", "6", "--json"])
    cases, failures = 0, []
    for g, h, s, a_set in transfer_square_cases(6):
        report = satake.verify_transfer_square(g, h, s, a_set, SPLIT)
        cases += report["cases"]
        keys = {k: report[k] for k in ("group", "endo", "levi_s", "A")}
        failures += [{**keys, **fail} for fail in report["failures"]]
    assert json.loads(out) == {"suite": "transfer-square", "cases": cases, "failures": failures}
    assert code == (1 if failures else 0)
    assert (cases, bool(failures)) == (354, variant == "s'_M")


def test_transfer_square_sweep_to_n_12_passes(capsys):
    # each case decides the square on the whole invariant ring, n >= 5 included
    code, out = invoke(capsys, ["verify", "transfer-square", "--n-max", "12", "--json"])
    assert (code, json.loads(out)) == (0, {"suite": "transfer-square", "cases": 6980, "failures": []})


def test_square_cases_are_the_consistent_cases_in_the_same_order():
    for n_max in range(1, 13):
        assert list(cli.square_cases(n_max)) == list(transfer_square_cases(n_max))


def test_a_sweep_checks_each_case_at_most_twice(capsys, monkeypatch):
    """The enumeration checks no case: verify_transfer_square checks each once, and
    the Levi map once more.  No inconsistent (s, A) reaches levi_sign_data."""
    consistent = {(g, h, s, tuple(a_set)) for g, h, s, a_set in transfer_square_cases(6)}
    checked, verified = [], []
    sign_data, verify = satake.levi_sign_data, satake.verify_transfer_square

    def counted_sign_data(g, h, s, a_set):
        checked.append((g, h, s, tuple(a_set)))
        return sign_data(g, h, s, a_set)

    def counted_verify(*args):
        verified.append(args)
        return verify(*args)

    monkeypatch.setattr(satake, "levi_sign_data", counted_sign_data)
    monkeypatch.setattr(satake, "verify_transfer_square", counted_verify)
    code, out = invoke(capsys, ["verify", "transfer-square", "--n-max", "6", "--json"])
    assert (code, json.loads(out)["cases"]) == (0, 354)
    assert len(verified) == len(consistent) == 42
    assert len(checked) <= 2 * len(verified)
    assert set(checked) <= consistent


def test_every_satkit_error_class_is_a_precondition_error():
    # an error class outside the tuple would escape `run` as a traceback, not exit 3
    names = [m.name for m in pkgutil.iter_modules(satkit.__path__)]
    modules = [satkit] + [importlib.import_module(f"satkit.{name}") for name in names]
    errors = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__.startswith("satkit.")
    }
    assert {"ExponentOverflowError", "ParityError", "PlaceError", "WallError"} <= {e.__name__ for e in errors}
    assert [e.__name__ for e in errors if not issubclass(e, cli.PRECONDITION_ERRORS)] == []


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["satake-kottwitz", "--nope", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--sig", "3"],
        ["endoscopy", "--n", "a"],
        ["transfer", "--n", "3", "--endo", "1"],
        ["kostant", "--pq", "2", "--sprime", "1", "--weight", "0:3,1,-2"],
        ["weyl-char", "--size", "3", "--weight", "2,x,0"],
    ],
)
def test_malformed_flag_syntax_is_usage_error(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--json"])
    assert exc.value.code == 2


def test_seed_is_mandatory_on_random_suites():
    with pytest.raises(SystemExit) as exc:
        run(["verify", "rotation-count", "--n-max", "3"])
    assert exc.value.code == 2


def test_weight_transfer_cli(capsys):
    code, out = invoke(
        capsys,
        ["weight-transfer", "--endo", "1-2", "--omega", "1", "--C", "1", "--weight", "0:2,1,0", "--json"],
    )
    assert code == 0
    assert json.loads(out) == {"a": 0, "blocks": [[2], [1, 0]]}


@pytest.mark.parametrize(
    "argv",
    [
        # fewer omega subsets than factors
        ["weight-transfer", "--endo", "1-2,1-0", "--omega", "1", "--C", "1", "--weight", "0:2,1,0/1"],
        # more omega subsets than factors
        ["weight-transfer", "--endo", "1-2", "--omega", "1;2", "--C", "1", "--weight", "0:2,1,0"],
    ],
)
def test_weight_transfer_omega_count_is_precondition(capsys, argv):
    code, out = invoke(capsys, argv + ["--json"])
    assert code == 3 and out == ""


def test_kostant_and_truncate_cli(capsys):
    code, out = invoke(
        capsys, ["kostant", "--pq", "1,1", "--sprime", "1", "--weight", "0:1,-1", "--json"]
    )
    assert code == 0
    assert len(json.loads(out)["entries"]) == 2
    code, out = invoke(
        capsys,
        ["truncate", "--pq", "1,1", "--sprime", "1", "--weight", "0:1,-1", "--dir", "gt", "--json"],
    )
    assert code == 0
    kept = json.loads(out)["kept"]
    assert len(kept) == 1 and kept[0]["omega"] == [1, 2]


def test_frobenius_trace_cli(capsys):
    code, out = invoke(
        capsys,
        ["frobenius-trace", "--sig", "1+0", "--m", "3", "--place", "inert", "--field", "E", "--json"],
    )
    assert code == 0
    assert json.loads(out)["poly"] == [
        {"q": 0, "num": 1, "den": 1, "exps": {"X": -3, "X_1_1": -6}}
    ]


def test_parser_is_built_once(capsys):
    parser = build_parser()
    invoke(capsys, ["invariants", "--sig", "3+0", "--json"])
    invoke(capsys, ["endoscopy", "--n", "2"])
    assert build_parser() is parser


def test_route_table_is_built_once_with_one_route_per_row(capsys):
    top, routes = cli.build_parsers()
    invoke(capsys, ["endoscopy", "--n", "2"])
    invoke(capsys, ["verify", "partition-lemmas", "--n-max", "1"])
    assert cli.build_parsers()[1] is routes and build_parser() is top
    rows = [((name,), {"command": name}, handler) for name, _, handler, _ in cli.COMMANDS]
    rows += [
        (("verify", name), {"command": "verify", "suite": name}, handler)
        for name, _, handler, _ in cli.SUITES
    ]
    assert sorted(routes) == sorted(path for path, _, _ in rows)
    for path, preset, handler in rows:
        parser, route_preset = routes[path]
        assert route_preset == preset
        assert parser.prog == "satkit " + " ".join(path)
        assert parser.get_default("handler") == handler


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["satkit", "endoscopy", "--n", "4", "--json"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    with open(README_GOLDEN) as fh:
        transcript = fh.read()
    assert "$ satkit endoscopy --n 4 --json\n" + capsys.readouterr().out in transcript
    monkeypatch.setattr(sys, "argv", ["satkit", "endoscopy", "--n", "4", "--bogus"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err


def test_handler_is_looked_up_when_the_command_runs(capsys, monkeypatch):
    build_parser()
    monkeypatch.setattr(cli, "cmd_subsets", lambda args: ({"stub": args.n}, "stub"))
    assert invoke(capsys, ["subsets", "--n", "3", "--p", "2", "--json"]) == (0, '{"stub":3}\n')


def readme_commands():
    """The argv of every `satkit ...` line in README's Command line block."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    assert all(line[0] == "satkit" for line in lines)
    return [line[1:] for line in lines]


README_GOLDEN = os.path.join(ROOT, "tests", "golden", "readme.out")


def readme_transcript():
    """Each README command line, prefixed by `$ satkit`, followed by its stdout.  A
    command that prints a polynomial is run a second time without --json, so the
    human form of the canonical order is pinned too."""
    chunks = []
    for argv in readme_commands():
        runs = [argv]
        for args in runs:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = run(args)
            assert code == 0, args
            chunks.append("$ satkit " + " ".join(args) + "\n" + out.getvalue())
            if args is argv and out.getvalue().startswith('{"poly":'):
                runs.append([a for a in argv if a != "--json"])
    return "".join(chunks)


def test_readme_examples_print_the_golden_stdout():
    with open(README_GOLDEN) as fh:
        assert readme_transcript() == fh.read()


def test_readme_examples_run_and_cover_every_command(capsys):
    seen = set()
    for argv in readme_commands():
        code, out = invoke(capsys, argv)
        assert code == 0, argv
        json.loads(out)  # exactly one JSON document
        assert out.count("\n") == 1, argv
        seen.add(" ".join(argv[:2]) if argv[0] == "verify" else argv[0])
    table = {" ".join(path) for path, _ in ROWS}
    assert seen == table


# -- argv fuzzing over the command table ------------------------------------------------

SMALL = st.integers(-1, 3).map(str)
LIST = st.lists(st.integers(-1, 3), min_size=1, max_size=3).map(lambda xs: ",".join(map(str, xs)))


def joined(sep, part):
    return st.lists(part, min_size=1, max_size=2).map(sep.join)


WELL_FORMED = {
    int: SMALL,
    cli.int_list: LIST,
    cli.int_pair: st.tuples(SMALL, SMALL).map(",".join),
    cli.sig_pairs: joined(",", st.tuples(SMALL, SMALL).map("+".join)),
    cli.endo_blocks: joined(",", st.tuples(SMALL, SMALL).map("-".join)),
    cli.weight_spec: st.tuples(SMALL, joined("/", LIST)).map(":".join),
    cli.subset_list: joined(";", LIST),
}
MALFORMED = st.sampled_from(["a", "2-1", "", "1,a", "3+", ":", "1;"])
COST_FLAGS = ("--n-max", "--count")  # always passed, so that a suite stays small
ROWS = [([name], flags) for name, _, _, flags in cli.COMMANDS]
ROWS += [(["verify", name], flags) for name, _, _, flags in cli.SUITES]


@st.composite
def argvs(draw):
    path, flags = draw(st.sampled_from(ROWS))
    argv = list(path)
    for option, kw in flags:
        if kw.get("action") == "store_true":
            argv += [option] if draw(st.booleans()) else []
            continue
        if option not in COST_FLAGS and draw(st.integers(0, 9)) >= (9 if kw.get("required") else 5):
            continue
        if option in COST_FLAGS:
            value = draw(SMALL)
        elif draw(st.integers(0, 5)) == 5:
            value = draw(MALFORMED)
        elif "choices" in kw:
            value = draw(st.sampled_from(kw["choices"]))
        else:
            value = draw(WELL_FORMED[kw["type"]])
        argv.append(f"{option}={value}")
    return argv + (["--json"] if draw(st.booleans()) else [])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs())
@example(["subsets", "--n", "0", "--p", "1", "--json"])
def test_fuzzed_argv_keeps_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            assert run(argv) in (0, 1, 3), argv
        except SystemExit as exc:
            assert exc.code == 2, argv
    assert "Traceback" not in err.getvalue()
    if "--json" in argv and out.getvalue():
        json.loads(out.getvalue())


# -- the routed parse against the top parser ------------------------------------------


def parsed(parse, argv):
    """(namespace, exit code, stdout, stderr) of one parse of argv; the namespace is
    None when the parse exits, and the exit code None when it returns."""
    out, err = io.StringIO(), io.StringIO()
    args = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
    return args, code, out.getvalue(), err.getvalue()


def assert_routed_parse_is_the_top_parse(argv):
    assert parsed(cli.parse_args, argv) == parsed(build_parser().parse_args, argv), argv


def test_routed_parse_matches_the_top_parser_on_every_recorded_argv():
    argvs_seen = [argv for _, _, _, argv in record_corpus.jobs()]
    assert len(argvs_seen) == 1800
    argvs_seen += record_refusals.ARGVS + readme_commands()
    for argv in argvs_seen:
        assert_routed_parse_is_the_top_parse(argv)


NOISE = ["--bogus", "--bogus=1", "extra", "7", "--", "-h", "--help", "-x", "--json", "verify"]
HEADS = [[], ["nope"], ["verify"], ["verify", "nope"], ["verify", "-h"], ["-h"], ["--", "endoscopy"]]


@st.composite
def mistyped_argvs(draw):
    """argvs() as typed by hand: values after a space, flags abbreviated (`--n-m 4`) or
    repeated, unknown flags, extra positionals, `--` and `-h` anywhere, and now and then
    an unknown or missing command in place of the command."""
    argv = draw(argvs())
    depth = 2 if argv[0] == "verify" else 1
    head, rest = argv[:depth], []
    for word in argv[depth:]:
        option, eq, value = word.partition("=")
        if draw(st.integers(0, 3)) == 3:
            option = option[: draw(st.integers(3, len(option)))]
        rest += [option, value] if eq and draw(st.booleans()) else [option + eq + value]
    if rest and draw(st.booleans()):
        rest.insert(draw(st.integers(0, len(rest))), draw(st.sampled_from(rest)))
    for _ in range(draw(st.integers(0, 2))):
        rest.insert(draw(st.integers(0, len(rest))), draw(st.sampled_from(NOISE)))
    if draw(st.integers(0, 4)) == 4:
        head = draw(st.sampled_from(HEADS))
    return head + rest


@settings(max_examples=500, deadline=None, derandomize=True)
@given(mistyped_argvs())
@example([])
@example(["transfer", "--n", "3", "--endo", "1-2", "--", "--json"])
@example(["verify", "transfer-square", "--n-m", "4", "--json"])
@example(["constant-term", "--levi", "1"])
@example(["endoscopy", "-h"])
def test_routed_parse_matches_the_top_parser_on_mistyped_argv(argv):
    assert_routed_parse_is_the_top_parse(argv)
