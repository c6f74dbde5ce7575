"""Command-line front end: parses group/place/endoscopy descriptors,
dispatches computations, runs verification suites, and emits deterministic
JSON.

Every command is one row of COMMANDS or SUITES: its name, help, handler and
flags.  A handler returns its result and `run` prints it: a LaurentPoly or a
(payload, human) pair.  A suite's handler instead yields (cases, failure
records) per unit of work, and `run_suite` reports the stream as such a
pair.  The parsers are built once per process.  An argv that starts with a
command, or with `verify` and a suite, is parsed by that command's own parser;
top-level help, unknown commands and arguments the command does not know go
through the top parser, which prints their help and usage errors.

Exit codes: 0 on success, 1 when a verification suite reports failures,
2 on usage errors (argparse), 3 on precondition violations.  Output on
stdout is byte-identical across runs for identical flags and seed; timing
goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Iterator, List, Optional

from . import characters, laurent, rootdata, satake
from .characters import KostantDatum, WallError, Weight
from .laurent import LaurentPoly, _var_name, pretty, serialize_poly
from .rootdata import EndoTriple, GroupDatum, PlaceContext, SignedGroupDatum

# Every other satkit error class subclasses ValueError.
PRECONDITION_ERRORS = (ValueError, laurent.ExponentOverflowError)


# -- flag parsing ---------------------------------------------------------------


def int_list(text: str) -> tuple:
    """'1,2,3' -> (1, 2, 3); the empty string is the empty tuple."""
    return tuple(int(x) for x in text.split(",")) if text else ()


def int_pair(text: str) -> tuple:
    """'2,1' -> (2, 1)."""
    p, q = int_list(text)
    return p, q


def sig_pairs(text: str) -> tuple:
    """'2+1,1+0' -> ((2, 1), (1, 0))."""
    pairs = [part.split("+") for part in text.split(",")]
    return tuple((int(p), int(q)) for p, q in pairs)


def endo_blocks(text: str) -> tuple:
    """'1-2,2-0' -> ((1, 2), (2, 0)): the plus parts, then the minus parts."""
    pairs = [part.split("-") for part in text.split(",")]
    return tuple(int(a) for a, _ in pairs), tuple(int(b) for _, b in pairs)


def weight_spec(text: str) -> tuple:
    """'a:x,y/z' -> (a, ((x, y), (z,))); the similitude part a defaults to 0."""
    a_text, rest = text.split(":", 1) if ":" in text else ("0", text)
    return int(a_text), tuple(int_list(block) for block in rest.split("/"))


def subset_list(text: str) -> tuple:
    """'1;2,3' -> ((1,), (2, 3))."""
    return tuple(int_list(part) for part in text.split(";"))


def make_ctx(place: str, d: int) -> PlaceContext:
    return PlaceContext(split=(place == "split"), d=d)


# -- computation subcommands -------------------------------------------------------


def cmd_satake_kottwitz(args) -> LaurentPoly:
    return satake.kottwitz_function(GroupDatum(args.n), args.s, make_ctx(args.place, args.d))


def cmd_transfer(args) -> tuple:
    """The variable images of a morphism of Satake models: the handler of
    base-change, transfer and twisted-transfer, which differ only in the map."""
    g = GroupDatum(args.n)
    ctx = make_ctx(args.place, args.d)
    if args.command == "base-change":
        sub = satake.base_change_map(g, ctx)
    else:
        build = satake.transfer_map if args.command == "transfer" else satake.twisted_transfer_map
        sub = build(g, EndoTriple(*args.endo), ctx)
    human = "\n".join(f"{_var_name(v)} -> {pretty(img)}" for v, img in sorted(sub.images.items()))
    return {"images": sub.as_json_dict()}, human


def cmd_constant_term(args) -> LaurentPoly:
    g = GroupDatum(args.n)
    ctx = make_ctx(args.place, args.d)
    if args.levi_kottwitz:
        return satake.levi_kottwitz_function(g, args.levi_s, args.alpha, ctx)
    f = satake.kottwitz_function(g, (args.alpha,), ctx)
    return satake.levi_constant_term(f, g, args.levi_s, ctx)


def cmd_endoscopy(args) -> tuple:
    g = GroupDatum(args.n)
    classes = rootdata.enumerate_endoscopic(g)
    payload = {
        "group": list(g.sizes),
        "classes": [
            {"plus": list(t.nplus), "minus": list(t.nminus), "outer_order": o}
            for t, o in classes
        ],
    }
    human = "\n".join(
        f"({','.join(map(str, t.nplus))} | {','.join(map(str, t.nminus))})"
        f"  outer order {o}"
        for t, o in classes
    )
    return payload, human


def cmd_invariants(args) -> tuple:
    g = SignedGroupDatum(args.sig)
    datum = g.datum
    tau = rootdata.tamagawa(datum)
    k = rootdata.k_invariant(g)
    d = rootdata.packet_size_signed(g)
    payload = {"tau": tau, "k": k, "d": d, "kt_check": f"2^{g.n - 1}"}
    if args.endo:
        h = EndoTriple(*args.endo)
        payload["iota"] = str(rootdata.iota(datum, h))
        payload["iota_GH"] = str(rootdata.iota_gh(g, h))
    return payload, " ".join(f"{k_}={v}" for k_, v in payload.items())


def cmd_kostant(args) -> tuple:
    """Kostant cohomology summands: all of them for kostant, the ones kept by
    the weight truncation for truncate."""
    s_set = frozenset(args.sprime)
    entries = characters.kostant_cohomology(KostantDatum(*args.pq, s_set), Weight(*args.weight))

    def records(es):
        return [
            {"degree": e.degree, "omega": list(e.omega), "weight2": list(e.weight2)} for e in es
        ]

    if args.command == "kostant":
        human = "\n".join(
            f"k={e.degree} omega={e.omega} 2(w(lambda)-rho)={e.weight2}" for e in entries
        )
        return {"entries": records(entries)}, human
    kept = characters.truncate_cohomology(entries, s_set, ">" if args.dir == "gt" else "<")
    human = "\n".join(f"k={e.degree} omega={e.omega}" for e in kept) or "(none)"
    return {"direction": args.dir, "kept": records(kept)}, human


def cmd_weyl_char(args) -> LaurentPoly:
    return characters.weyl_character(args.size, args.weight)


def cmd_weight_transfer(args) -> tuple:
    h = EndoTriple(*args.endo)
    out = characters.endoscopic_weight_transfer(Weight(*args.weight), h, args.omega, args.C)
    blocks = [list(b) for b in out.blocks]
    return {"a": out.a, "blocks": blocks}, f"a={out.a} blocks={blocks}"


def cmd_frobenius_trace(args) -> LaurentPoly:
    g = SignedGroupDatum(args.sig)
    return characters.frobenius_trace(g, args.m, make_ctx(args.place, args.d), field=args.field)


def cmd_subsets(args) -> tuple:
    subsets, det = characters.nonsingular_subsets(args.n, args.p)
    subsets = [list(s) for s in subsets]
    return {"subsets": subsets, "det": det}, f"subsets={subsets} det={det}"


# -- verification suites: each yields (cases, failure records) per unit of work --------


def at_least(low: int, **flags) -> None:
    """Refuse a size or count flag below low, with which a suite would run no case."""
    for name, value in flags.items():
        if value < low:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {low}")


def at_most(high: int, **flags) -> None:
    """Refuse a size flag above high, past which a suite's time or memory runs away."""
    for name, value in flags.items():
        if value > high:
            raise ValueError(f"--{name.replace('_', '-')} must be at most {high}")


MAX_PARTITION_N = 7  # partition-lemmas runs 4^n cases of n, each walking 3^n subset pairs
MAX_ROTATION_N = 20  # rotation-count holds two lists of 2^n subset sums per case


def cmd_verify_partition_lemmas(args) -> Iterator[tuple]:
    at_least(1, n_max=args.n_max)
    at_most(MAX_PARTITION_N, n_max=args.n_max)
    # the signature sums over every ordering of lam, so it depends only on the multiset
    signature = functools.cache(characters.partial_sum_signature)
    for n in range(1, args.n_max + 1):
        for lam in product((-2, -1, 1, 2), repeat=n):
            lhs = signature(tuple(sorted(lam)))
            mid = characters.ordered_partition_sum(lam)
            expect = (-1) ** n if all(x > 0 for x in lam) else 0
            ok = lhs == mid and lhs == expect
            yield 1, [] if ok else [
                {"lambda": list(lam), "signature": str(lhs), "partitions": mid, "expected": expect}
            ]


ROTATION_SCALE = 420  # lcm(1..7), a multiple of every denominator the sampler draws


def sample_rotation_vector(rng: random.Random, n: int) -> List[int]:
    """Hypothesis-satisfying vector: one large positive entry, negative rest.

    No check is needed: the total is positive, and of two complementary blocks
    the one without the positive entry has a negative sum.  The entries are
    fractions with denominators in 1..7, drawn in that order and scaled by
    ROTATION_SCALE to integers: a positive rescaling keeps every sign the
    rotation lemma tests, and spares it all Fraction arithmetic."""
    rest = [-rng.randint(1, 40) * (ROTATION_SCALE // rng.randint(1, 7)) for _ in range(n - 1)]
    big = -sum(rest) + rng.randint(1, 30) * (ROTATION_SCALE // rng.randint(1, 7))
    lam = [big] + rest
    rng.shuffle(lam)
    return lam


def cmd_verify_rotation(args) -> Iterator[tuple]:
    at_least(1, n_max=args.n_max, count=args.count)
    at_most(MAX_ROTATION_N, n_max=args.n_max)
    rng = random.Random(args.seed)
    for n in range(1, args.n_max + 1):
        for _ in range(args.count):
            lam = sample_rotation_vector(rng, n)
            got = characters.positive_rotation_count(lam)
            hits = characters.rotation_orbit_hits(lam)
            if got != factorial(n - 1) or hits != 1:
                lam_text = [str(Fraction(x, ROTATION_SCALE)) for x in lam]
                yield 1, [{"lambda": lam_text, "count": got, "rotation_hits": hits}]
            else:
                yield 1, []


WEIGHT_ENTRIES = range(-24, 25)
# Entries of the fallback draws, taken only once every draw from WEIGHT_ENTRIES hit a
# wall: at p + q >= 8 with s = 2 few weights of the narrow range are off every wall.
WIDE_ENTRIES = range(-1000, 1001)
WEIGHT_DRAWS = 50  # per range and per case


def off_wall_identity(rng: random.Random, p: int, q: int, s: int) -> tuple:
    """The first sampled regular weight off every wall, with its phi-identity report."""
    for entries in (WEIGHT_ENTRIES, WIDE_ENTRIES):
        for _ in range(WEIGHT_DRAWS):
            weight = Weight(0, (tuple(sorted(rng.sample(entries, p + q), reverse=True)),))
            try:
                return weight, characters.verify_phi_identity(p, q, s, weight, direction=">")
            except WallError:
                continue
    raise WallError("could not sample an off-wall weight")


def cmd_verify_phi_identity(args) -> Iterator[tuple]:
    p, q = args.pq
    if p < 0 or not 1 <= args.s <= q:
        raise ValueError("need p >= 0 and 1 <= s <= q")
    if 2 * args.s > p + q:
        raise ValueError(f"need 2s <= p + q, got s = {args.s} and p + q = {p + q}")
    if p + q > len(WEIGHT_ENTRIES):
        raise ValueError(
            f"--pq: p + q must be at most {len(WEIGHT_ENTRIES)}, the distinct entries in -24..24"
        )
    at_least(1, count=args.count)
    rng = random.Random(args.seed)
    for _ in range(args.count):
        weight, report = off_wall_identity(rng, p, q, args.s)
        yield 1, [] if report["equal"] else [
            {"weight": list(weight.blocks[0]), "differences": report["differences"]}
        ]


def square_cases(n_max: int) -> Iterator[tuple]:
    """Every (group, datum, s, A) with a consistent Levi sign set, n = 2..n_max, s the
    Levi's linear count, in the order of n, n^-, s and the bits of A.  Consistent means
    that the s - |A| and |A| linear pairs fit the blocks: 2(s - |A|) <= n^+ and
    2|A| <= n^-, the condition satake.levi_sign_data checks (each case is checked
    there, when it is run)."""
    for n in range(2, n_max + 1):
        g = GroupDatum((n,))
        for n2 in range(0, n + 1, 2):
            h = EndoTriple((n - n2,), (n2,))
            for s in range(1, n // 2 + 1):
                for bits in range(2**s):
                    size = bin(bits).count("1")  # |A|
                    if 2 * (s - size) <= n - n2 and 2 * size <= n2:
                        yield g, h, s, [j + 1 for j in range(s) if bits >> j & 1]


def cmd_verify_transfer_square(args) -> Iterator[tuple]:
    """One case with --n (and --endo, --levi-s, --A), else the sweep up to --n-max;
    a flag of the other mode is refused rather than ignored."""
    if args.n is None:
        for name, value in (("endo", args.endo), ("levi-s", args.levi_s), ("A", args.A)):
            if value is not None:
                raise ValueError(f"--{name} needs --n")
        n_max = 4 if args.n_max is None else args.n_max
        at_least(2, n_max=n_max)
        combos = square_cases(n_max)
    elif args.n_max is not None:
        raise ValueError("--n-max sets the sweep and cannot be combined with --n")
    elif not args.endo:
        raise ValueError("--endo is required together with --n")
    else:
        s = 1 if args.levi_s is None else args.levi_s
        combos = [(GroupDatum(args.n), EndoTriple(*args.endo), s, list(args.A or ()))]
    ctx = PlaceContext(split=True, d=1)
    for g, h, s, a_set in combos:
        report = satake.verify_transfer_square(g, h, s, a_set, ctx)
        case = {k: report[k] for k in ("group", "endo", "levi_s", "A")}
        yield report["cases"], [{**case, **fail} for fail in report["failures"]]


def run_suite(name: str, stream) -> tuple:
    """The (payload, human) pair of a suite: its cases counted, its failures in order."""
    cases, failures = 0, []
    for count, fails in stream:
        cases += count
        failures += fails
    payload = {"suite": name, "cases": cases, "failures": failures}
    lines = [f"suite {name}: {cases} cases, {len(failures)} failures"]
    return payload, "\n".join(lines + [json.dumps(f, separators=(",", ":")) for f in failures])


# -- command table and parser ---------------------------------------------------------


def flag(name: str, parse=int, **kw) -> tuple:
    """One add_argument call: the flag and its keyword arguments."""
    return name, {"type": parse, **kw}


def required(name: str, parse=int, **kw) -> tuple:
    return flag(name, parse, required=True, **kw)


N = required("--n", int_list)
ENDO = required("--endo", endo_blocks)
PLACE = (flag("--d", default=1), flag("--place", str, choices=("split", "inert"), default="split"))
SIG = required("--sig", sig_pairs)
PQ = required("--pq", int_pair)
KOSTANT = (PQ, required("--sprime", int_list), required("--weight", weight_spec))
SEED = required("--seed")

# (name, help, handler, flags in add_argument order); `--json` follows the flags.
# Handlers are named, not bound, and looked up in this module when a command runs.
COMMANDS = (
    ("satake-kottwitz", "Satake transform of a basic spherical function", "cmd_satake_kottwitz",
     (N, required("--s", int_list), *PLACE)),
    ("base-change", "base change substitution", "cmd_transfer", (N, *PLACE)),
    ("transfer", "endoscopic transfer substitution", "cmd_transfer", (N, ENDO, *PLACE)),
    ("twisted-transfer", "twisted transfer substitution", "cmd_transfer", (N, ENDO, *PLACE)),
    ("constant-term", "constant term to a standard Levi", "cmd_constant_term",
     (N, required("--levi-s"), required("--alpha"), *PLACE,
      ("--levi-kottwitz",
       {"action": "store_true", "help": "print the Levi-level basic function"}))),
    ("endoscopy", "enumerate elliptic endoscopic data", "cmd_endoscopy", (N,)),
    ("invariants", "tau, k, packet size and coefficient checks", "cmd_invariants",
     (SIG, flag("--endo", endo_blocks))),
    ("kostant", "nilpotent-radical cohomology summands", "cmd_kostant", KOSTANT),
    ("truncate", "truncated cohomology summands", "cmd_kostant",
     (*KOSTANT, required("--dir", str, choices=("gt", "lt")))),
    ("weyl-char", "Schur-type block character", "cmd_weyl_char",
     (required("--size"), required("--weight", int_list))),
    ("weight-transfer", "endoscopic highest-weight transfer", "cmd_weight_transfer",
     (ENDO, required("--omega", subset_list, help="per-factor subsets, e.g. '1;2,3'"),
      required("--C"), required("--weight", weight_spec))),
    ("frobenius-trace", "Frobenius-trace subset sum", "cmd_frobenius_trace",
     (SIG, required("--m"), *PLACE, flag("--field", str, choices=("Q", "E"), default="E"))),
    ("subsets", "nonsingular incidence subsets", "cmd_subsets", (required("--n"), required("--p"))),
)

# The subcommands of `verify`, in the same layout.
SUITES = (
    ("partition-lemmas", "exhaustive signed partition identity", "cmd_verify_partition_lemmas",
     (flag("--n-max", default=5),)),
    ("rotation-count", "rotation lemma on seeded vectors", "cmd_verify_rotation",
     (flag("--n-max", default=7), flag("--count", default=200), SEED)),
    ("phi-identity", "truncated-Kostant vs filtered Weyl sum", "cmd_verify_phi_identity",
     (PQ, required("--s"), flag("--count", default=50), SEED)),
    ("transfer-square", "twisted transfer vs constant terms", "cmd_verify_transfer_square",
     (flag("--n", int_list), flag("--endo", endo_blocks), flag("--levi-s", help="default 1"),
      flag("--A", int_list, help="default empty"), flag("--n-max", help="default 4"))),
)


def add_commands(sub, rows) -> dict:
    """Add one parser per row to sub; return the parsers by name."""
    parsers = {}
    for name, help_, handler, flags in rows:
        p = parsers[name] = sub.add_parser(name, help=help_)
        for option, kw in flags:
            p.add_argument(option, **kw)
        p.add_argument("--json", action="store_true", help="emit canonical JSON")
        p.set_defaults(handler=handler)
    return parsers


@functools.cache
def build_parsers() -> tuple:
    """The top satkit parser and its route table, built on the first call and
    shared by every later one.  The table maps the argv head that names each
    command, or `verify` and each suite, to that command's parser and to the
    namespace values the parsers above it set before they hand it the rest."""
    top = argparse.ArgumentParser(
        prog="satkit",
        description="Exact Satake-side Hecke algebra and discrete-series combinatorics",
    )
    sub = top.add_subparsers(dest="command", required=True)
    commands = add_commands(sub, COMMANDS)
    verify = sub.add_parser("verify", help="verification suites")
    suites = add_commands(verify.add_subparsers(dest="suite", required=True), SUITES)
    routes = {(name,): (p, {"command": name}) for name, p in commands.items()}
    routes.update(
        {("verify", name): (p, {"command": "verify", "suite": name}) for name, p in suites.items()}
    )
    return top, routes


def build_parser() -> argparse.ArgumentParser:
    """The top satkit parser (see build_parsers)."""
    return build_parsers()[0]


def parse_args(argv: List[str]) -> argparse.Namespace:
    """The namespace of argv, as the top parser would build it.  A routed argv is
    parsed by its command's parser alone; any other argv, and any that leaves
    arguments its command's parser does not know, goes through the top parser,
    so that it prints the top parser's help or usage error."""
    top, routes = build_parsers()
    head = tuple(argv[:2] if argv[:1] == ["verify"] else argv[:1])
    if head in routes:
        parser, preset = routes[head]
        args, extras = parser.parse_known_args(argv[len(head):], argparse.Namespace(**preset))
        if not extras:
            return args
    return top.parse_args(argv)


def render(result, as_json: bool) -> str:
    """A handler's result as the text printed on stdout."""
    if isinstance(result, LaurentPoly):
        return '{"poly":' + serialize_poly(result) + "}" if as_json else pretty(result)
    payload, human = result
    return json.dumps(payload, separators=(",", ":")) if as_json else human


def run(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    try:
        result = globals()[args.handler](args)
        if "suite" in args:
            result = run_suite(args.suite, result)
        sys.stdout.write(render(result, args.json) + "\n")
    except PRECONDITION_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    if "suite" not in args:
        return 0
    sys.stderr.write(f"[{args.suite}] wall time {time.monotonic() - started:.2f}s\n")
    return 1 if result[0]["failures"] else 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
