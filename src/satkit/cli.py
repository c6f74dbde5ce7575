"""Command-line front end: parses group/place/endoscopy descriptors,
dispatches computations, runs verification suites, and emits deterministic
JSON.

Exit codes: 0 on success, 1 when a verification suite reports failures,
2 on usage errors (argparse), 3 on precondition violations.  Output on
stdout is byte-identical across runs for identical flags and seed; timing
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from math import factorial
from typing import Dict, List, Optional

from . import characters, laurent, rootdata, satake
from .characters import (
    HypothesisError,
    KostantDatum,
    UnsupportedCaseError,
    WallError,
    Weight,
)
from .laurent import LaurentPoly, _var_name, pretty, serialize_poly
from .rootdata import EndoTriple, GroupDatum, ParityError, PlaceContext, SignedGroupDatum
from .satake import LeviDatum, PlaceError

PRECONDITION_ERRORS = (
    ValueError,
    ParityError,
    PlaceError,
    WallError,
    HypothesisError,
    UnsupportedCaseError,
    laurent.ExponentOverflowError,
    laurent.SubstitutionError,
)


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


def emit(args, payload: Dict, human: str) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(human + "\n")


def poly_payload(f: LaurentPoly) -> List:
    return json.loads(serialize_poly(f))


# -- computation subcommands -------------------------------------------------------


def cmd_satake_kottwitz(args) -> int:
    g = GroupDatum(args.n)
    ctx = make_ctx(args.place, args.d)
    f = satake.kottwitz_function(g, args.s, ctx)
    emit(args, {"poly": poly_payload(f)}, pretty(f))
    return 0


def cmd_transfer(args) -> int:
    """Print the variable images of a morphism of Satake models: the handler of
    base-change, transfer and twisted-transfer, which differ only in args.build_map."""
    g = GroupDatum(args.n)
    h = None if args.endo is None else EndoTriple(*args.endo)
    ctx = make_ctx(args.place, args.d)
    sub = args.build_map(g, h, ctx)
    payload = {"images": sub.as_json_dict()}
    human = "\n".join(f"{_var_name(v)} -> {pretty(img)}" for v, img in sorted(sub.images.items()))
    emit(args, payload, human)
    return 0


def cmd_constant_term(args) -> int:
    g = GroupDatum(args.n)
    ctx = make_ctx(args.place, args.d)
    levi = LeviDatum(args.levi_s)
    if args.levi_kottwitz:
        f = satake.levi_kottwitz_function(g, levi, args.alpha, ctx)
    else:
        f = satake.kottwitz_function(g, (args.alpha,), ctx)
        f = satake.levi_constant_term(f, g, levi, ctx)
    emit(args, {"poly": poly_payload(f)}, pretty(f))
    return 0


def cmd_endoscopy(args) -> int:
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
    emit(args, payload, human)
    return 0


def cmd_invariants(args) -> int:
    g = SignedGroupDatum(args.sig)
    datum = g.datum
    tau = rootdata.tamagawa(datum)
    k = rootdata.k_invariant(g)
    d = rootdata.packet_size_signed(g)
    payload = {"tau": tau, "k": k, "d": d, "kt_check": f"2^{g.n - 1}"}
    if k * tau != 2 ** (g.n - 1):
        raise ValueError("k * tau deviates from 2^{n-1}")
    if args.endo:
        h = EndoTriple(*args.endo)
        payload["iota"] = str(rootdata.iota(datum, h))
        payload["iota_GH"] = str(rootdata.iota_gh(g, h))
    human = " ".join(f"{k_}={v}" for k_, v in payload.items())
    emit(args, payload, human)
    return 0


def cmd_kostant(args) -> int:
    kd = KostantDatum(*args.pq, frozenset(args.sprime))
    weight = Weight(*args.weight)
    entries = characters.kostant_cohomology(kd, weight)
    payload = {
        "entries": [
            {"degree": e.degree, "omega": list(e.omega), "weight2": list(e.weight2)}
            for e in entries
        ]
    }
    human = "\n".join(
        f"k={e.degree} omega={e.omega} 2(w(lambda)-rho)={e.weight2}" for e in entries
    )
    emit(args, payload, human)
    return 0


def cmd_truncate(args) -> int:
    s_set = frozenset(args.sprime)
    kd = KostantDatum(*args.pq, s_set)
    weight = Weight(*args.weight)
    entries = characters.kostant_cohomology(kd, weight)
    direction = ">" if args.dir == "gt" else "<"
    kept = characters.truncate_cohomology(entries, s_set, direction)
    payload = {
        "direction": args.dir,
        "kept": [
            {"degree": e.degree, "omega": list(e.omega), "weight2": list(e.weight2)}
            for e in kept
        ],
    }
    human = "\n".join(f"k={e.degree} omega={e.omega}" for e in kept) or "(none)"
    emit(args, payload, human)
    return 0


def cmd_weyl_char(args) -> int:
    f = characters.weyl_character(args.size, args.weight)
    emit(args, {"poly": poly_payload(f)}, pretty(f))
    return 0


def cmd_weight_transfer(args) -> int:
    h = EndoTriple(*args.endo)
    weight = Weight(*args.weight)
    out = characters.endoscopic_weight_transfer(weight, h, args.omega, args.C)
    payload = {"a": out.a, "blocks": [list(b) for b in out.blocks]}
    human = f"a={out.a} blocks={[list(b) for b in out.blocks]}"
    emit(args, payload, human)
    return 0


def cmd_frobenius_trace(args) -> int:
    g = SignedGroupDatum(args.sig)
    ctx = make_ctx(args.place, args.d)
    f = characters.frobenius_trace(g, args.m, ctx, field=args.field)
    emit(args, {"poly": poly_payload(f)}, pretty(f))
    return 0


def cmd_subsets(args) -> int:
    subsets, det = characters.nonsingular_subsets(args.n, args.p)
    payload = {"subsets": [list(s) for s in subsets], "det": det}
    human = f"subsets={[list(s) for s in subsets]} det={det}"
    emit(args, payload, human)
    return 0


# -- verification suites --------------------------------------------------------------


def _suite_report(args, name: str, cases: int, failures: List, started: float) -> int:
    payload = {"suite": name, "cases": cases, "failures": failures}
    human = f"suite {name}: {cases} cases, {len(failures)} failures"
    if failures and not args.json:
        human += "\n" + "\n".join(json.dumps(f, separators=(",", ":")) for f in failures)
    emit(args, payload, human)
    sys.stderr.write(f"[{name}] wall time {time.monotonic() - started:.2f}s\n")
    return 1 if failures else 0


def cmd_verify_partition_lemmas(args) -> int:
    started = time.monotonic()
    cases = 0
    failures = []
    from itertools import product as iproduct

    for n in range(1, args.n_max + 1):
        for lam in iproduct((-2, -1, 1, 2), repeat=n):
            cases += 1
            lhs = characters.partial_sum_signature(lam)
            mid = characters.ordered_partition_sum(lam)
            expect = (-1) ** n if all(x > 0 for x in lam) else 0
            if lhs != mid or lhs != expect:
                failures.append(
                    {"lambda": list(lam), "signature": str(lhs), "partitions": mid, "expected": expect}
                )
    return _suite_report(args, "partition-lemmas", cases, failures, started)


def sample_rotation_vector(rng: random.Random, n: int) -> List[Fraction]:
    """Hypothesis-satisfying vector: one large positive entry, negative rest."""
    while True:
        rest = [Fraction(-rng.randint(1, 40), rng.randint(1, 7)) for _ in range(n - 1)]
        big = -sum(rest) + Fraction(rng.randint(1, 30), rng.randint(1, 7))
        lam = [big] + rest
        rng.shuffle(lam)
        if characters.two_partition_hypothesis(lam):
            return lam


def cmd_verify_rotation(args) -> int:
    started = time.monotonic()
    rng = random.Random(args.seed)
    cases = 0
    failures = []
    for n in range(1, args.n_max + 1):
        for _ in range(args.count):
            lam = sample_rotation_vector(rng, n)
            cases += 1
            got = characters.positive_rotation_count(lam)
            hits = characters.rotation_orbit_hits(lam)
            if got != factorial(n - 1) or hits != 1:
                failures.append(
                    {"lambda": [str(x) for x in lam], "count": got, "rotation_hits": hits}
                )
    return _suite_report(args, "rotation-count", cases, failures, started)


def sample_regular_weight(rng: random.Random, n: int) -> Weight:
    entries = sorted(rng.sample(range(-24, 25), n), reverse=True)
    return Weight(0, (tuple(entries),))


def cmd_verify_phi_identity(args) -> int:
    started = time.monotonic()
    rng = random.Random(args.seed)
    p, q = args.pq
    cases = 0
    failures = []
    for _ in range(args.count):
        for _attempt in range(50):
            weight = sample_regular_weight(rng, p + q)
            try:
                report = characters.verify_phi_identity(p, q, args.s, weight, direction=">")
                break
            except WallError:
                continue
        else:
            raise WallError("could not sample an off-wall weight")
        cases += 1
        if not report["equal"]:
            failures.append(
                {"weight": list(weight.blocks[0]), "differences": report["differences"]}
            )
    return _suite_report(args, "phi-identity", cases, failures, started)


def cmd_verify_transfer_square(args) -> int:
    started = time.monotonic()
    cases = 0
    failures = []
    combos = []
    if args.n is not None:
        if not args.endo:
            raise ValueError("--endo is required together with --n")
        g = GroupDatum(args.n)
        h = EndoTriple(*args.endo)
        combos.append((g, h, LeviDatum(args.levi_s), list(args.A)))
    else:
        for n in range(2, args.n_max + 1):
            g = GroupDatum((n,))
            hs = [
                EndoTriple((n1,), (n2,))
                for n2 in range(0, n + 1, 2)
                for n1 in [n - n2]
            ]
            for h in hs:
                for s in range(1, n // 2 + 1):
                    for bits in range(2**s):
                        a_set = [j + 1 for j in range(s) if bits >> j & 1]
                        try:
                            satake.levi_sign_data(g, h, LeviDatum(s), a_set)
                        except ValueError:
                            continue
                        combos.append((g, h, LeviDatum(s), a_set))
    ctx = PlaceContext(split=True, d=1)
    for g, h, levi, a_set in combos:
        report = satake.verify_transfer_square(g, h, levi, a_set, ctx)
        cases += report["cases"]
        for fail in report["failures"]:
            failures.append(
                {
                    "group": report["group"],
                    "endo": report["endo"],
                    "levi_s": report["levi_s"],
                    "A": report["A"],
                    **fail,
                }
            )
    return _suite_report(args, "transfer-square", cases, failures, started)


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="satkit",
        description="Exact Satake-side Hecke algebra and discrete-series combinatorics",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit canonical JSON")

    p = sub.add_parser("satake-kottwitz", help="Satake transform of a basic spherical function")
    p.add_argument("--n", type=int_list, required=True)
    p.add_argument("--s", type=int_list, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--place", choices=("split", "inert"), default="split")
    add_json(p)
    p.set_defaults(func=cmd_satake_kottwitz)

    # (command, help, map builder taking (g, h, ctx), takes --endo)
    substitutions = (
        ("base-change", "base change substitution",
         lambda g, h, ctx: satake.base_change_map(g, ctx), False),
        ("transfer", "endoscopic transfer substitution", satake.transfer_map, True),
        ("twisted-transfer", "twisted transfer substitution", satake.twisted_transfer_map, True),
    )
    for name, help_, build_map, takes_endo in substitutions:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--n", type=int_list, required=True)
        if takes_endo:
            p.add_argument("--endo", type=endo_blocks, required=True)
        p.add_argument("--d", type=int, default=1)
        p.add_argument("--place", choices=("split", "inert"), default="split")
        add_json(p)
        p.set_defaults(func=cmd_transfer, build_map=build_map, endo=None)

    p = sub.add_parser("constant-term", help="constant term to a standard Levi")
    p.add_argument("--n", type=int_list, required=True)
    p.add_argument("--levi-s", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--place", choices=("split", "inert"), default="split")
    p.add_argument("--levi-kottwitz", action="store_true", help="print the Levi-level basic function")
    add_json(p)
    p.set_defaults(func=cmd_constant_term)

    p = sub.add_parser("endoscopy", help="enumerate elliptic endoscopic data")
    p.add_argument("--n", type=int_list, required=True)
    add_json(p)
    p.set_defaults(func=cmd_endoscopy)

    p = sub.add_parser("invariants", help="tau, k, packet size and coefficient checks")
    p.add_argument("--sig", type=sig_pairs, required=True)
    p.add_argument("--endo", type=endo_blocks)
    add_json(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("kostant", help="nilpotent-radical cohomology summands")
    p.add_argument("--pq", type=int_pair, required=True)
    p.add_argument("--sprime", type=int_list, required=True)
    p.add_argument("--weight", type=weight_spec, required=True)
    add_json(p)
    p.set_defaults(func=cmd_kostant)

    p = sub.add_parser("truncate", help="truncated cohomology summands")
    p.add_argument("--pq", type=int_pair, required=True)
    p.add_argument("--sprime", type=int_list, required=True)
    p.add_argument("--weight", type=weight_spec, required=True)
    p.add_argument("--dir", choices=("gt", "lt"), required=True)
    add_json(p)
    p.set_defaults(func=cmd_truncate)

    p = sub.add_parser("weyl-char", help="Schur-type block character")
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--weight", type=int_list, required=True)
    add_json(p)
    p.set_defaults(func=cmd_weyl_char)

    p = sub.add_parser("weight-transfer", help="endoscopic highest-weight transfer")
    p.add_argument("--endo", type=endo_blocks, required=True)
    p.add_argument("--omega", type=subset_list, required=True, help="per-factor subsets, e.g. '1;2,3'")
    p.add_argument("--C", type=int, required=True)
    p.add_argument("--weight", type=weight_spec, required=True)
    add_json(p)
    p.set_defaults(func=cmd_weight_transfer)

    p = sub.add_parser("frobenius-trace", help="Frobenius-trace subset sum")
    p.add_argument("--sig", type=sig_pairs, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--place", choices=("split", "inert"), default="split")
    p.add_argument("--field", choices=("Q", "E"), default="E")
    add_json(p)
    p.set_defaults(func=cmd_frobenius_trace)

    p = sub.add_parser("subsets", help="nonsingular incidence subsets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_subsets)

    ver = sub.add_parser("verify", help="verification suites")
    vsub = ver.add_subparsers(dest="suite", required=True)

    p = vsub.add_parser("partition-lemmas", help="exhaustive signed partition identity")
    p.add_argument("--n-max", type=int, default=5)
    add_json(p)
    p.set_defaults(func=cmd_verify_partition_lemmas)

    p = vsub.add_parser("rotation-count", help="rotation lemma on seeded vectors")
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--seed", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_verify_rotation)

    p = vsub.add_parser("phi-identity", help="truncated-Kostant vs filtered Weyl sum")
    p.add_argument("--pq", type=int_pair, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    add_json(p)
    p.set_defaults(func=cmd_verify_phi_identity)

    p = vsub.add_parser("transfer-square", help="twisted transfer vs constant terms")
    p.add_argument("--n", type=int_list)
    p.add_argument("--endo", type=endo_blocks)
    p.add_argument("--levi-s", type=int, default=1)
    p.add_argument("--A", type=int_list, default=())
    p.add_argument("--n-max", type=int, default=4)
    add_json(p)
    p.set_defaults(func=cmd_verify_transfer_square)

    return top


def run(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PRECONDITION_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
