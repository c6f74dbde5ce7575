"""Output checks for benchmark jobs, from closed forms and small oracles.

Every check here is the benchmark's own arithmetic; nothing is imported from
satkit, so a change to the library cannot also change what it is checked
against.  `check_job` returns None when a job's output is right and a short
reason when it is not.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, factorial, prod
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from workloads import flag


def _ints(text: str) -> List[int]:
    return [int(x) for x in text.split(",")] if text else []


def _sig(text: str) -> List[Tuple[int, int]]:
    return [tuple(int(x) for x in part.split("+")) for part in text.split(",")]


def _endo(text: str) -> List[Tuple[int, int]]:
    return [tuple(int(x) for x in part.split("-")) for part in text.split(",")]


def _weight(text: str) -> Tuple[int, List[List[int]]]:
    a, _, rest = text.rpartition(":")
    return int(a or 0), [_ints(block) for block in rest.split("/")]


def _place(argv) -> Tuple[bool, int]:
    return (flag(argv, "--place") or "split") == "split", int(flag(argv, "--d") or 1)


def _torus(name: str) -> Optional[Tuple[int, int]]:
    parts = name.split("_")
    return (int(parts[1]), int(parts[2])) if len(parts) == 3 else None


# -- polynomials --------------------------------------------------------------------


def _subset_sum_poly(terms, count: int, q: int, sim: int, factors: Dict[int, Tuple[int, int, int]]):
    """Terms of q^q X^sim * prod_i (sum over size-k_i subsets J of {1..n_i} of
    prod_{j in J} X_i_j^e_i), with factors[i] = (n_i, k_i, e_i)."""
    if len(terms) != count:
        return f"{len(terms)} terms, expected {count}"
    seen = set()
    for t in terms:
        if (t["q"], t["num"], t["den"]) != (q, 1, 1):
            return f"term {t} has q^{t['q']} {t['num']}/{t['den']}, expected q^{q} 1/1"
        exps = dict(t["exps"])
        if exps.pop("X", 0) != sim:
            return f"term {t} has the wrong similitude exponent"
        chosen: Dict[int, List[int]] = {i: [] for i in factors}
        for name, e in exps.items():
            ij = _torus(name)
            if ij is None or ij[0] not in factors:
                return f"unexpected variable {name}"
            n_i, k_i, e_i = factors[ij[0]]
            if e != e_i or not 1 <= ij[1] <= n_i:
                return f"term {t} has {name}^{e}"
            chosen[ij[0]].append(ij[1])
        if any(len(chosen[i]) != factors[i][1] for i in factors):
            return f"term {t} has a subset of the wrong size"
        key = tuple(sorted(exps.items()))
        if key in seen:
            return f"repeated monomial {key}"
        seen.add(key)
    return None


def _kottwitz(argv, out) -> Optional[str]:
    sizes, s_vec = _ints(flag(argv, "--n")), _ints(flag(argv, "--s"))
    _, d = _place(argv)
    count = prod(comb(n, s) for n, s in zip(sizes, s_vec))
    q = d * sum(s * (n - s) for n, s in zip(sizes, s_vec))
    factors = {i: (n, s, -1) for i, (n, s) in enumerate(zip(sizes, s_vec), start=1)}
    return _subset_sum_poly(out["poly"], count, q, -1, factors)


def _constant_term(argv, out) -> Optional[str]:
    n = int(flag(argv, "--n"))
    s, alpha = int(flag(argv, "--levi-s")), int(flag(argv, "--alpha"))
    _, d = _place(argv)
    if "--levi-kottwitz" not in argv:
        # the constant term is the identity on the (invariant) Kottwitz function
        return _subset_sum_poly(out["poly"], comb(n, alpha), d * alpha * (n - alpha), -1, {1: (n, alpha, -1)})
    terms = out["poly"]
    if alpha >= n - s + 1:
        want = {"X": -1, **{f"X_1_{j}": -1 for j in range(1, alpha + 1)}}
        ok = len(terms) == 1 and terms[0] == {"q": 0, "num": 1, "den": 1, "exps": want}
        return None if ok else f"expected the single monomial {want}"
    # q^{d(alpha-s)(n-alpha-s)} (X X_1_1..X_1_s)^-1 times a subset sum over the middle block
    q = d * (alpha - s) * (n - alpha - s)
    fixed = {f"X_1_{j}": -1 for j in range(1, s + 1)}
    stripped = []
    for t in terms:
        exps = dict(t["exps"])
        for name in fixed:
            if exps.pop(name, None) != -1:
                return f"term {t} misses {name}^-1"
        middle = {}
        for name, e in exps.items():
            ij = _torus(name)
            if ij is not None:
                if not s < ij[1] <= n - s:
                    return f"term {t} has {name} outside the middle block"
                name = f"X_1_{ij[1] - s}"
            middle[name] = e
        stripped.append({**t, "exps": middle})
    return _subset_sum_poly(stripped, comb(n - 2 * s, alpha - s), q, -1, {1: (n - 2 * s, alpha - s, -1)})


def _frobenius(argv, out) -> Optional[str]:
    sig = _sig(flag(argv, "--sig"))
    m = int(flag(argv, "--m"))
    split, _ = _place(argv)
    deg = 2 if (flag(argv, "--field") or "E") == "E" and not split else 1
    count = prod(comb(p + q, p) for p, q in sig)
    factors = {i: (p + q, p, -m * deg) for i, (p, q) in enumerate(sig, start=1)}
    return _subset_sum_poly(out["poly"], count, 0, -m, factors)


def _weyl_char(argv, out) -> Optional[str]:
    lam = _ints(flag(argv, "--weight"))
    n = len(lam)
    dim = Fraction(1)
    for i, j in combinations(range(n), 2):
        dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
    total = Fraction(0)
    for t in out["poly"]:
        if t["q"] != 0 or t["den"] != 1 or t["num"] < 1:
            return f"term {t} is not a positive integer multiple of a monomial"
        exps = t["exps"]
        if sum(exps.values()) != sum(lam):
            return f"term {t} has the wrong total degree"
        total += t["num"]
    return None if total == dim else f"value at 1 is {total}, Weyl dimension is {dim}"


def _substitution(argv, out) -> Optional[str]:
    """Every image is a signed q-monomial, one per source variable."""
    sizes = _ints(flag(argv, "--n"))
    split, d = _place(argv)
    splits_over_l = split or d % 2 == 0
    if argv[0] == "transfer" or not splits_over_l:
        bounds = sizes if split else [n // 2 for n in sizes]
    else:
        bounds = sizes
    want = ["X"] + [f"X_{i}_{j}" for i, b in enumerate(bounds, start=1) for j in range(1, b + 1)]
    images = out["images"]
    if sorted(images) != sorted(want):
        return f"images of {sorted(images)}, expected {sorted(want)}"
    for name, text in images.items():
        terms = json.loads(text)
        if len(terms) > 1 or (terms and (abs(terms[0]["num"]), terms[0]["den"]) != (1, 1)):
            return f"image of {name} is not a signed monomial: {text}"
    return None


# -- rootdata -----------------------------------------------------------------------------


def _endoscopy(argv, out) -> Optional[str]:
    """Class count against a brute-force grouping of all parity-valid tuples."""
    sizes = _ints(flag(argv, "--n"))
    tuples = [
        t
        for t in product(*[[(n - m, m) for m in range(n + 1)] for n in sizes])
        if sum(m for _, m in t) % 2 == 0
    ]
    classes: List[tuple] = []
    for t in tuples:
        if not any(all(a == b or a == b[::-1] for a, b in zip(t, c)) for c in classes):
            classes.append(t)
    got = out["classes"]
    if len(got) != len(classes):
        return f"{len(got)} classes, brute force finds {len(classes)}"
    for c in got:
        pairs = list(zip(c["plus"], c["minus"]))
        if [a + b for a, b in pairs] != sizes or sum(c["minus"]) % 2:
            return f"class {c} does not match the group"
        if c["outer_order"] != 2 ** sum(1 for a, b in pairs if a == b):
            return f"class {c} has the wrong outer automorphism order"
    return None


def _tau(sizes: Sequence[int]) -> int:
    r = len(sizes)
    return 2**r if all(n % 2 == 0 for n in sizes) else 2 ** (r - 1)


def _invariants(argv, out) -> Optional[str]:
    sig = _sig(flag(argv, "--sig"))
    sizes = [p + q for p, q in sig]
    n, r = sum(sizes), len(sizes)
    even = all(x % 2 == 0 for x in sizes)
    packets = prod(comb(p + q, q) if p != q else factorial(2 * q) // (2 * factorial(q) ** 2) for p, q in sig)
    want = {"tau": _tau(sizes), "k": 2 ** (n - r - 1) if even else 2 ** (n - r), "d": packets, "kt_check": f"2^{n - 1}"}
    endo = flag(argv, "--endo")
    if endo:
        pairs = _endo(endo)
        outer = 2 ** sum(1 for a, b in pairs if a == b)
        iota = Fraction(_tau(sizes), _tau([x for pair in pairs for x in pair if x]) * outer)
        signed = 1
        for (p, _q), (npl, nmi) in zip(sig, pairs):
            signed *= sum((-1) ** k * comb(npl, p - k) * comb(nmi, k) for k in range(p + 1) if p - k <= npl)
        pi0 = 2 ** sum(1 for p, q in sig if p == q and p + q >= 2)
        want["iota"] = str(iota)
        want["iota_GH"] = str(iota * Fraction(signed, pi0))
    return None if out == want else f"got {out}, expected {want}"


# -- characters -----------------------------------------------------------------------------


def _blocks(n: int, rs: Sequence[int]) -> List[List[int]]:
    cuts = [0] + sorted(rs)
    blocks = [list(range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:])]
    middle = list(range(cuts[-1] + 1, n - cuts[-1] + 1))
    mirror = [[n + 1 - j for j in reversed(b)] for b in reversed(blocks)]
    return [b for b in blocks + [middle] + mirror if b]


def _kostant_entries(n: int, rs: Sequence[int], lam: Sequence[int]) -> Dict[tuple, tuple]:
    """omega -> (degree, weight2) over the shuffles of the Levi blocks."""
    blocks = _blocks(n, rs)
    rho2 = [n - 1 - 2 * i for i in range(n)]
    out = {}
    for w in permutations(range(1, n + 1)):
        inv = [0] * n
        for pos, val in enumerate(w, start=1):
            inv[val - 1] = pos
        if all(inv[x - 1] < inv[y - 1] for b in blocks for x, y in zip(b, b[1:])):
            shifted = [2 * lam[inv[i] - 1] for i in range(n)]
            degree = sum(1 for i, j in combinations(range(n), 2) if w[i] > w[j])
            out[w] = (degree, tuple(x - y for x, y in zip(shifted, rho2)))
    return out


def _entries_match(entries, expected) -> Optional[str]:
    for e in entries:
        key = tuple(e["omega"])
        if expected.get(key) != (e["degree"], tuple(e["weight2"])):
            return f"entry {e} is not a Kostant summand"
    if len({tuple(e["omega"]) for e in entries}) != len(entries):
        return "repeated coset representative"
    return None


def _kostant(argv, out) -> Optional[str]:
    p, q = _ints(flag(argv, "--pq"))
    rs = _ints(flag(argv, "--sprime"))
    _, (lam,) = _weight(flag(argv, "--weight"))
    n = p + q
    levi_order = prod(factorial(len(b)) for b in _blocks(n, rs))
    entries = out["entries"]
    if len(entries) != factorial(n) // levi_order:
        return f"{len(entries)} entries, expected n!/|W_L| = {factorial(n) // levi_order}"
    return _entries_match(entries, _kostant_entries(n, rs, lam))


def _truncate(argv, out) -> Optional[str]:
    p, q = _ints(flag(argv, "--pq"))
    rs = _ints(flag(argv, "--sprime"))
    _, (lam,) = _weight(flag(argv, "--weight"))
    n = p + q
    rho2 = [n - 1 - 2 * i for i in range(n)]
    want_pos = flag(argv, "--dir") == "gt"
    kept = {}
    for w, (degree, weight2) in _kostant_entries(n, rs, lam).items():
        shifted = [x + y for x, y in zip(weight2, rho2)]
        if all((sum(shifted[:r]) - sum(shifted[n - r :]) > 0) == want_pos for r in rs):
            kept[w] = (degree, weight2)
    if len(out["kept"]) != len(kept):
        return f"{len(out['kept'])} entries kept, expected {len(kept)}"
    return _entries_match(out["kept"], kept)


def _weight_transfer(argv, out) -> Optional[str]:
    """Dominant blocks of sizes (n^+, n^-) per factor, same total, same a."""
    pairs = _endo(flag(argv, "--endo"))
    a, blocks = _weight(flag(argv, "--weight"))
    got = out["blocks"]
    if out["a"] != a or [len(b) for b in got] != [x for pair in pairs for x in pair]:
        return f"output {out} does not match the endoscopic datum"
    if any(x < y for b in got for x, y in zip(b, b[1:])):
        return f"output {out} is not dominant"
    if sum(map(sum, got)) != sum(map(sum, blocks)):
        return f"output {out} changes the total block sum"
    return None


def _subsets(argv, out) -> Optional[str]:
    n, p = int(flag(argv, "--n")), int(flag(argv, "--p"))
    subsets = out["subsets"]
    if len(subsets) != n or any(len(set(s)) != p or not set(s) <= set(range(1, n + 1)) for s in subsets):
        return f"expected {n} subsets of size {p} of 1..{n}"
    rows = [[Fraction(1 if j in s else 0) for j in range(1, n + 1)] for s in subsets]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            det = Fraction(0)
            break
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    if det == 0 or det != out["det"]:
        return f"determinant {out['det']}, elimination gives {det}"
    return None


def _verify(argv, out) -> Optional[str]:
    suite = argv[1]
    if out.get("suite") != suite or out.get("failures") != []:
        return f"suite report {out} has failures"
    if suite == "partition-lemmas":
        want = sum(4**k for k in range(1, int(flag(argv, "--n-max") or 5) + 1))
    elif suite == "rotation-count":
        want = int(flag(argv, "--n-max") or 7) * int(flag(argv, "--count") or 200)
    elif suite == "phi-identity":
        want = int(flag(argv, "--count") or 50)
    else:
        want = None
    if want is not None and out["cases"] != want:
        return f"{out['cases']} cases, expected {want}"
    return None if out["cases"] > 0 else "no cases ran"


CHECKS: Dict[str, Callable] = {
    "satake-kottwitz": _kottwitz,
    "constant-term": _constant_term,
    "frobenius-trace": _frobenius,
    "weyl-char": _weyl_char,
    "base-change": _substitution,
    "transfer": _substitution,
    "twisted-transfer": _substitution,
    "endoscopy": _endoscopy,
    "invariants": _invariants,
    "kostant": _kostant,
    "truncate": _truncate,
    "weight-transfer": _weight_transfer,
    "subsets": _subsets,
    "verify": _verify,
}


def check_job(argv: Sequence[str], exit_code, stdout: str) -> Optional[str]:
    """None if the job exited 0 with a correct output, else the reason it failed."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        out = json.loads(stdout)
        return CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
