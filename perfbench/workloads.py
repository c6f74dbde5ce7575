"""Seeded job lists for the three benchmark workloads.

A job is the argv of one `satkit` command (always with `--json`).  Each
workload is a fixed list of slots; a slot fixes the size that sets a job's
cost and the seed draws the parameters that do not (which factor gets which
signature, the place and degree, weights of the same shape, the CLI's own
suite seed).  That keeps the cost of a pass nearly the same from seed to
seed, so runs with different seeds can be compared, while the outputs still
differ.  The job order within a pass is shuffled by the seed.

Only inputs the CLI accepts are drawn: where a precondition can be checked
from the inputs alone (an off-wall truncation weight, a consistent Levi sign
set), the generator checks it itself.  A job the CLI refuses anyway is
counted as failed, never redrawn.

This module is stdlib-only and does not import satkit.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import List, Optional, Sequence, Tuple

Job = Tuple[str, ...]

DEFAULT_SEED = 0

# README examples, split among the workloads by the layer they exercise.
README = {
    "poly-build": [
        "satake-kottwitz --n 2 --s 1 --d 1",
        "constant-term --n 4 --levi-s 1 --alpha 2 --levi-kottwitz",
        "weyl-char --size 3 --weight 2,1,0",
        "frobenius-trace --sig 1+1 --m 1 --place split --field E",
    ],
    "weyl-orbits": [
        "endoscopy --n 4",
        "invariants --sig 3+0",
        "base-change --n 3 --place inert --d 2",
        "transfer --n 3 --endo 1-2",
        "twisted-transfer --n 4 --endo 2-2",
        "verify transfer-square --n-max 4",
    ],
    "discrete-series": [
        "kostant --pq 2,1 --sprime 1 --weight 0:3,1,-2",
        "truncate --pq 1,1 --sprime 1 --weight 0:1,-1 --dir gt",
        "weight-transfer --endo 1-2 --omega 1 --C 1 --weight 0:2,1,0",
        "subsets --n 3 --p 2",
        "verify partition-lemmas --n-max 5",
        "verify rotation-count --n-max 7 --count 200 --seed 7",
        "verify phi-identity --pq 2,1 --s 1 --count 50 --seed 11",
    ],
}

WHY = {  # also the "why" of each workload in BENCHMARK.json
    "poly-build": (
        "builds large polynomials term by term and serializes them, no Weyl group: "
        "mechanism workload for a linear-time ring kernel, bypass one for orbit enumeration"
    ),
    "weyl-orbits": (
        "applies Weyl groups and substitutions to existing polynomials; small outputs, "
        "and the same group recurs across jobs"
    ),
    "discrete-series": (
        "Fraction and permutation combinatorics that never touch LaurentPoly: mechanism "
        "workload for characters without n!, bypass one for the ring kernel"
    ),
}


def _place(rng: random.Random) -> List[str]:
    place, d = rng.choice((("split", 1), ("split", 2), ("inert", 2)))
    return ["--place", place, "--d", str(d)]


def _half(rng: random.Random, n: int) -> int:
    """floor(n/2) or ceil(n/2): both give C(n, s) terms."""
    return rng.choice((n // 2, n - n // 2))


def _composition(rng: random.Random, n: int, max_parts: int) -> List[int]:
    parts = rng.randint(1, min(max_parts, n))
    cuts = sorted(rng.sample(range(1, n), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _endo(rng: random.Random, sizes: Sequence[int]) -> str:
    """Per-factor splittings n^+ - n^- with an even total minus part."""
    while True:
        minus = [rng.randint(0, n) for n in sizes]
        if sum(minus) % 2 == 0:
            return ",".join(f"{n - m}-{m}" for n, m in zip(sizes, minus))


def _join(xs) -> str:
    return ",".join(str(x) for x in xs)


def _regular_weight(rng: random.Random, n: int) -> List[int]:
    return sorted(rng.sample(range(-6, 7), n), reverse=True)


def off_wall(entries: Sequence[int], rs: Sequence[int]) -> bool:
    """No two disjoint r-subsets of the entries have equal sums, for each r.

    Exactly the condition under which no truncation pairing over S' = rs
    vanishes on any Kostant summand of a weight with these entries.
    """
    idx = range(len(entries))
    for r in rs:
        sums = {}
        for sub in combinations(idx, r):
            sums.setdefault(sum(entries[i] for i in sub), []).append(set(sub))
        for group in sums.values():
            for a, b in combinations(group, 2):
                if not a & b:
                    return False
    return True


def _weight_arg(entries: Sequence[int]) -> str:
    return f"0:{_join(entries)}"


# -- poly-build ------------------------------------------------------------------


# Weyl-character weight shapes (entries minus the last); the seed shifts them.
CHAR_SHAPES = ((2, 1, 0, 0), (4, 2, 1, 0), (2, 1, 0, 0, 0), (2, 1, 1, 0, 0), (3, 1, 1, 0, 0))


def _poly_build(rng: random.Random) -> List[str]:
    jobs = []
    for n in range(8, 13):
        jobs.append(f"satake-kottwitz --n {n} --s {_half(rng, n)} " + " ".join(_place(rng)))
    # 400 and 216 terms, then four of 120 terms
    for sizes in [(6, 6), (4, 4, 4)] + [rng.choice(((6, 4), (5, 4, 2))) for _ in range(4)]:
        sizes = list(sizes)
        rng.shuffle(sizes)
        s = [_half(rng, n) for n in sizes]
        jobs.append(f"satake-kottwitz --n {_join(sizes)} --s {_join(s)} " + " ".join(_place(rng)))
    for n in (8, 9, 9, 10, 11):
        p = _half(rng, n)
        place, d = rng.choice((("split", 1), ("split", 2), ("inert", 1), ("inert", 2)))
        m = rng.randint(1, 3)
        field = rng.choice(("E", "Q"))
        if field == "Q" and place == "inert" and m % 2:
            m += 1  # odd m with the rational reflex field at an inert place is refused
        jobs.append(
            f"frobenius-trace --sig {p}+{n - p} --m {m} --place {place} --d {d} --field {field}"
        )
    for n in range(8, 13):
        jobs.append(
            f"constant-term --n {n} --levi-s 1 --alpha {n - n // 2} --levi-kottwitz "
            + " ".join(_place(rng))
        )
    for shape in CHAR_SHAPES:
        shift = rng.randint(-1, 4 - shape[0])
        jobs.append(f"weyl-char --size {len(shape)} --weight {_join(x + shift for x in shape)}")
    return jobs


# -- weyl-orbits -----------------------------------------------------------------


def _transfer_square_case(rng: random.Random, n: int) -> str:
    cases = []
    for n2 in range(0, n + 1, 2):
        n1 = n - n2
        for s in range(1, n // 2 + 1):
            for k in range(s + 1):
                for a_set in combinations(range(1, s + 1), k):
                    if n1 - 2 * (s - k) >= 0 and n2 - 2 * k >= 0:
                        cases.append((n1, n2, s, a_set))
    n1, n2, s, a_set = rng.choice(cases)
    return f"verify transfer-square --n {n} --endo {n1}-{n2} --levi-s {s} --A={_join(a_set)}"


def _weyl_orbits(rng: random.Random) -> List[str]:
    jobs = []
    for n in (5, 6, 7):
        jobs.append(
            f"constant-term --n {n} --levi-s {rng.randint(1, n // 2)} --alpha {n - n // 2} "
            + " ".join(_place(rng))
        )
    jobs.append("verify transfer-square --n-max 5")
    jobs.append("verify transfer-square --n-max 6")
    for n in (7, 8, 8, 8):
        jobs.append(_transfer_square_case(rng, n))
    for _ in range(5):
        jobs.append(f"endoscopy --n {_join(_composition(rng, rng.randint(5, 8), 3))}")
    for _ in range(4):
        sizes = _composition(rng, rng.randint(5, 8), 3)
        ps = [rng.randint(0, n) for n in sizes]
        sig = ",".join(f"{p}+{n - p}" for p, n in zip(ps, sizes))
        jobs.append(f"invariants --sig {sig} --endo {_endo(rng, sizes)}")
    for kind in ("base-change", "transfer", "twisted-transfer"):
        for place in ("split", "inert"):
            sizes = _composition(rng, rng.randint(4, 8), 3)
            while len(sizes) < 2:
                sizes = _composition(rng, rng.randint(4, 8), 3)
            d = rng.randint(1, 3)
            if kind == "twisted-transfer" and place == "inert":
                d = 2  # twisted transfer needs the group split over L
            job = f"{kind} --n {_join(sizes)} --place {place} --d {d}"
            if kind != "base-change":
                job += f" --endo {_endo(rng, sizes)}"
            jobs.append(job)
    return jobs


# -- discrete-series ---------------------------------------------------------------


# (p + q, S') of the kostant and truncate jobs; p is drawn with q >= max S'.
KOSTANT_SLOTS = ((7, (1,)), (7, (2,)), (6, (1, 2)), (6, (3,)), (5, (1,)))
TRUNCATE_SLOTS = ((7, (1,)), (6, (1,)), (6, (2,)), (5, (1, 2)))


def _pq(rng: random.Random, n: int, q_min: int) -> Tuple[int, int]:
    q = rng.randint(q_min, n - 1)
    return n - q, q


def _discrete_series(rng: random.Random) -> List[str]:
    jobs = []
    for n, s, count in ((8, 1, 1), (7, 1, 8), (6, 2, 3), (5, 2, 3)):
        p, q = _pq(rng, n, s)
        jobs.append(
            f"verify phi-identity --pq {p},{q} --s {s} --count {count} --seed {rng.randint(0, 999)}"
        )
    jobs.append(f"verify rotation-count --n-max 8 --count 15 --seed {rng.randint(0, 999)}")
    jobs.append(f"verify rotation-count --n-max 7 --count 20 --seed {rng.randint(0, 999)}")
    for n, rs in KOSTANT_SLOTS:
        p, q = _pq(rng, n, max(rs))
        w = _regular_weight(rng, n)
        jobs.append(f"kostant --pq {p},{q} --sprime {_join(rs)} --weight {_weight_arg(w)}")
    for n, rs in TRUNCATE_SLOTS:
        p, q = _pq(rng, n, max(rs))
        w = _regular_weight(rng, n)
        while not off_wall([2 * x for x in w], rs):
            w = _regular_weight(rng, n)
        direction = rng.choice(("gt", "lt"))
        jobs.append(
            f"truncate --pq {p},{q} --sprime {_join(rs)} --weight {_weight_arg(w)} --dir {direction}"
        )
    for _ in range(3):
        sizes = _composition(rng, rng.randint(2, 6), 2)
        endo = _endo(rng, sizes)
        pairs = [tuple(int(x) for x in part.split("-")) for part in endo.split(",")]
        omega = ";".join(
            _join(sorted(rng.sample(range(1, n + 1), npl))) for n, (npl, _) in zip(sizes, pairs)
        )
        blocks = "/".join(_join(sorted((rng.randint(-4, 4) for _ in range(n)), reverse=True)) for n in sizes)
        c = rng.choice((-3, -1, 1, 3))
        jobs.append(
            f"weight-transfer --endo {endo} --omega={omega} --C {c} --weight={rng.randint(-2, 2)}:{blocks}"
        )
    for _ in range(5):
        jobs.append(f"subsets --n 40 --p {rng.randint(10, 30)}")
    return jobs


GENERATORS = {
    "poly-build": _poly_build,
    "weyl-orbits": _weyl_orbits,
    "discrete-series": _discrete_series,
}

WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> List[Job]:
    """The job list of one pass: README examples plus seeded jobs, shuffled."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    lines = README[workload] + GENERATORS[workload](rng)
    rng.shuffle(lines)
    return [tuple(line.split()) + ("--json",) for line in lines]


# -- workload properties --------------------------------------------------------------


def flag(argv: Sequence[str], name: str) -> Optional[str]:
    for i, tok in enumerate(argv):
        if tok == name and i + 1 < len(argv):
            return argv[i + 1]
        if tok.startswith(name + "="):
            return tok[len(name) + 1 :]
    return None


def job_key(argv: Sequence[str]) -> Optional[tuple]:
    """The group, or the (p, q, S') parameters, a job computes with.

    Jobs with equal keys could share a cache of Weyl groups, coset
    representatives or Levi groups; suites that sweep many groups have none.
    """
    cmd = argv[0]
    if cmd == "verify":
        suite = argv[1]
        if suite == "transfer-square" and flag(argv, "--n"):
            return ("group", flag(argv, "--n"))
        if suite == "phi-identity":
            return ("pqs", flag(argv, "--pq"), flag(argv, "--s"))
        return None
    if cmd in ("kostant", "truncate"):
        return ("pqS", flag(argv, "--pq"), flag(argv, "--sprime"))
    if cmd in ("invariants", "frobenius-trace"):
        sig = flag(argv, "--sig")
        sizes = ",".join(str(sum(int(x) for x in part.split("+"))) for part in sig.split(","))
        return ("group", sizes)
    if cmd == "weyl-char":
        return ("GL", flag(argv, "--size"))
    if cmd == "weight-transfer":
        return ("endo", flag(argv, "--endo"))
    if cmd == "subsets":
        return ("subsets", flag(argv, "--n"), flag(argv, "--p"))
    return ("group", flag(argv, "--n"))


def repeat_share(jobs: Sequence[Job]) -> Tuple[int, int]:
    """(jobs whose key an earlier job of the pass already had, jobs with a key)."""
    seen = set()
    repeats = keyed = 0
    for argv in jobs:
        key = job_key(argv)
        if key is None:
            continue
        keyed += 1
        if key in seen:
            repeats += 1
        seen.add(key)
    return repeats, keyed
