"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is exact equality; the only numeric
bounds are the wall-time ceilings stated alongside each criterion.
"""

import random
import time
from fractions import Fraction
from itertools import combinations, product as iproduct
from math import comb, factorial

import pytest

from satkit import characters, rootdata, satake
from satkit.characters import (
    KostantDatum,
    Weight,
    endoscopic_weight_transfer,
    kostant_cohomology,
    nonsingular_subsets,
    ordered_partition_sum,
    pairing_pi,
    partial_sum_signature,
    positive_rotation_count,
    rho2,
    rotation_orbit_hits,
    two_partition_hypothesis,
    verify_phi_identity,
    weyl_character,
)
from satkit.laurent import (
    QVAR,
    SIM,
    LaurentPoly,
    parse_poly,
    serialize_poly,
    symmetrize,
    tor,
)
from satkit.rootdata import (
    EndoTriple,
    GroupDatum,
    PlaceContext,
    SignedGroupDatum,
    enumerate_endoscopic,
    k_invariant,
    packet_size,
    tamagawa,
)
from satkit.satake import (
    exponent_identity_holds,
    hecke_ring,
    kottwitz_function,
    levi_sign_data,
    verify_transfer_square,
)

from oracles import brute_force_endoscopic_classes, semistandard_tableaux_schur


class Criterion:
    def __init__(self, number, label, limit=None):
        self.number = number
        self.label = label
        self.limit = limit
        self.start = time.monotonic()

    def finish(self, ok, detail=""):
        elapsed = time.monotonic() - self.start
        status = "PASS" if ok else "FAIL"
        budget = f" (<{self.limit}s)" if self.limit else ""
        print(f"{status} criterion {self.number}: {self.label} "
              f"[{elapsed:.2f}s{budget}] {detail}")
        assert ok, f"criterion {self.number} failed: {detail}"
        if self.limit is not None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded {self.limit}s ({elapsed:.2f}s)"
            )


def test_criterion_01_partition_identity():
    crit = Criterion(1, "signed ordered-partition identity, exhaustive n<=5", limit=10)
    cases = 0
    ok = True
    for n in range(1, 6):
        for lam in iproduct((-2, -1, 1, 2), repeat=n):
            cases += 1
            expect = (-1) ** n if all(x > 0 for x in lam) else 0
            if partial_sum_signature(lam) != expect or ordered_partition_sum(lam) != expect:
                ok = False
    crit.finish(ok and cases >= 1364, f"{cases} vectors")


def test_criterion_02_rotation_lemma():
    crit = Criterion(2, "rotation count (n-1)! with unique rotation", limit=30)
    rng = random.Random(20260809)
    cases = 0
    ok = True
    for n in range(1, 8):
        produced = 0
        while produced < 200:
            rest = [Fraction(-rng.randint(1, 40), rng.randint(1, 7)) for _ in range(n - 1)]
            lam = [-sum(rest) + Fraction(rng.randint(1, 30), rng.randint(1, 7))] + rest
            rng.shuffle(lam)
            if not two_partition_hypothesis(lam):
                continue
            produced += 1
            cases += 1
            if positive_rotation_count(lam) != factorial(n - 1):
                ok = False
            if rotation_orbit_hits(lam) != 1:
                ok = False
    crit.finish(ok, f"{cases} vectors")


def test_criterion_03_kottwitz_vs_orbit_sum():
    crit = Criterion(3, "subset-sum spherical function equals scaled orbit sum", limit=10)
    data = [(n,) for n in range(1, 6)]
    data += [(a, b) for a in range(1, 6) for b in range(1, 6)]
    data += [(1, 1, 1), (2, 1, 1), (1, 2, 1)]
    ok = True
    checked = 0
    for sizes in data:
        g = GroupDatum(sizes)
        ring = hecke_ring(g, PlaceContext(split=True, d=1), "source")
        group = ring.generators()
        s_lists = [()]
        for n in sizes:
            s_lists = [acc + (s,) for acc in s_lists for s in range(n + 1)]
        for s_vec in s_lists:
            exps = {SIM: -1}
            for i, s in enumerate(s_vec, start=1):
                for j in range(1, s + 1):
                    exps[tor(i, j)] = -1
            orbit = symmetrize(LaurentPoly.monomial(exps), group)
            base = sum(s * (n - s) for s, n in zip(s_vec, sizes))
            for d in (1, 2):
                ctx = PlaceContext(split=True, d=d)
                expect = LaurentPoly.q_power(d * base) * orbit
                if kottwitz_function(g, s_vec, ctx) != expect:
                    ok = False
                checked += 1
    crit.finish(ok, f"{checked} (datum, s, d) combinations")


def test_criterion_04_transfer_square():
    crit = Criterion(4, "twisted transfer commutes with constant terms", limit=60)
    ctx = PlaceContext(split=True, d=1)
    cases = 0
    failures = 0
    for n in range(2, 5):
        g = GroupDatum((n,))
        for n2 in range(0, n + 1, 2):
            h = EndoTriple((n - n2,), (n2,))
            for s in range(1, n // 2 + 1):
                for bits in range(2**s):
                    a_set = [j + 1 for j in range(s) if bits >> j & 1]
                    try:
                        levi_sign_data(g, h, s, a_set)
                    except ValueError:
                        continue
                    report = verify_transfer_square(g, h, s, a_set, ctx)
                    cases += report["cases"]
                    failures += len(report["failures"])
    crit.finish(failures == 0 and cases >= 90, f"{cases} generator checks")


def test_criterion_05_exponent_identity():
    crit = Criterion(5, "exponent identity a(n-a)-(a-r)(n-a-r)=r(n-r)", limit=1)
    ok = True
    checked = 0
    for n in range(1, 21):
        for r in range(1, n // 2 + 1):
            for alpha in range(n // 2, n + 1):
                if not exponent_identity_holds(n, alpha, r):
                    ok = False
                checked += 1
    crit.finish(ok, f"{checked} triples")


def _all_signatures(n_total):
    def compositions(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first,) + rest

    for comp in compositions(n_total):
        stack = [()]
        for n in comp:
            stack = [acc + ((p, n - p),) for acc in stack for p in range(n + 1)]
        yield from (SignedGroupDatum(s) for s in stack)


def test_criterion_06_numeric_invariants():
    crit = Criterion(6, "tau, k, packet-size tables and k*tau = 2^{n-1}")
    ok = True
    count = 0
    for n_total in range(1, 9):
        for g in _all_signatures(n_total):
            datum = g.datum
            sizes = datum.sizes
            tau = tamagawa(datum)
            expect_tau = 2 ** datum.r if all(m % 2 == 0 for m in sizes) else 2 ** (datum.r - 1)
            k = k_invariant(g)
            expect_k = (
                2 ** (n_total - datum.r - 1)
                if all(m % 2 == 0 for m in sizes)
                else 2 ** (n_total - datum.r)
            )
            if tau != expect_tau or k != expect_k or k * tau != 2 ** (n_total - 1):
                ok = False
            count += 1
    # packet sizes against the closed form and a brute-force Weyl count
    for n in range(1, 9):
        for p in range(n + 1):
            q = n - p
            expect = (
                factorial(2 * q) // (2 * factorial(q) ** 2) if p == q else comb(n, q)
            )
            if packet_size(p, q) != expect:
                ok = False
    spot = (
        packet_size(2, 1) == 3
        and tamagawa(GroupDatum((4,))) == 2
        and k_invariant(SignedGroupDatum(((3, 0),))) == 4
    )
    crit.finish(ok and spot, f"{count} signatures")


def test_criterion_07_endoscopy_enumeration():
    crit = Criterion(7, "endoscopic classes match brute-force swap identification")
    ok = True
    datums = 0

    def compositions(n):
        if n == 0:
            return [()]
        return [(f,) + r for f in range(1, n + 1) for r in compositions(n - f)]

    for n_total in range(1, 9):
        for comp in compositions(n_total):
            g = GroupDatum(comp)
            classes = enumerate_endoscopic(g)
            brute = brute_force_endoscopic_classes(g)
            if len(classes) != len(brute):
                ok = False
            if {t.pairs() for t, _ in classes} != {min(c) for c in brute}:
                ok = False
            for t, order in classes:
                if order != 2 ** sum(1 for a, b in t.pairs() if a == b):
                    ok = False
            datums += 1
    cls4 = enumerate_endoscopic(GroupDatum((4,)))
    spot = len(cls4) == 2 and sorted(o for _, o in cls4) == [1, 2]
    crit.finish(ok and spot, f"{datums} group data")


def test_criterion_08_kostant_and_phi_identity():
    crit = Criterion(8, "Kostant counts/truncation and the phi identity", limit=60)
    ok = True
    rng = random.Random(1234)
    # rho pairing values
    for n in range(2, 21):
        for r in range(1, n // 2 + 1):
            if pairing_pi(rho2(n), r) != 2 * r * (n - r):
                ok = False
    # entry counts, distinctness, Levi dominance for p+q <= 6
    pq_pairs = [(p, q) for n in range(2, 7) for q in range(1, n // 2 + 1) for p in [n - q]]
    for p, q in pq_pairs:
        n = p + q
        entries_weight = Weight(0, (tuple(sorted(rng.sample(range(-20, 21), n), reverse=True)),))
        for r_top in range(1, q + 1):
            for bits in range(2 ** (r_top - 1)):
                sprime = frozenset(
                    [j + 1 for j in range(r_top - 1) if bits >> j & 1] + [r_top]
                )
                kd = KostantDatum(p, q, sprime)
                entries = kostant_cohomology(kd, entries_weight)
                if len(entries) != factorial(n) // kd.levi_order():
                    ok = False
                if len({e.weight2 for e in entries}) != len(entries):
                    ok = False
                for e in entries:
                    for b in kd.blocks():
                        for x, y in zip(b, b[1:]):
                            if e.weight2[x - 1] < e.weight2[y - 1]:
                                ok = False
    # the identity engine, 50 seeded regular weights per (p, q, s)
    cases = 0
    for p, q in pq_pairs:
        n = p + q
        for s in range(1, q + 1):
            produced = 0
            while produced < 50:
                weight = Weight(0, (tuple(sorted(rng.sample(range(-24, 25), n), reverse=True)),))
                try:
                    report = verify_phi_identity(p, q, s, weight)
                except characters.WallError:
                    continue
                produced += 1
                cases += 1
                if not report["equal"]:
                    ok = False
    crit.finish(ok, f"{cases} identity checks over {len(pq_pairs)} signatures")


def test_criterion_09_weyl_characters():
    crit = Criterion(9, "Weyl characters vs tableau oracle and dimension count")
    ok = True
    checked = 0
    ones = {QVAR: Fraction(1)}
    for n in range(1, 5):
        shapes = [
            s
            for s in iproduct(range(4, -1, -1), repeat=n)
            if all(a >= b for a, b in zip(s, s[1:]))
        ]
        for lam in shapes:
            f = weyl_character(n, lam)
            if f != semistandard_tableaux_schur(lam, n):
                ok = False
            assign = dict(ones)
            assign.update({tor(1, j): Fraction(1) for j in range(1, n + 1)})
            dim = Fraction(1)
            for i in range(n):
                for j in range(i + 1, n):
                    dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
            if f.evaluate(assign) != dim:
                ok = False
            checked += 1
    crit.finish(ok, f"{checked} dominant weights")


def test_criterion_10_weight_transfer():
    crit = Criterion(10, "endoscopic weight transfer: sums, dominance, worked case")
    ok = True
    rng = random.Random(77)
    cases = 0
    for n in range(1, 7):
        for n_minus in range(0, n + 1, 2):
            h = EndoTriple((n - n_minus,), (n_minus,))
            for _ in range(100):
                entries = sorted(rng.sample(range(-30, 31), n), reverse=True)
                w = Weight(rng.randint(-3, 3), (tuple(entries),))
                subset = tuple(sorted(rng.sample(range(1, n + 1), n - n_minus)))
                c = rng.choice((-5, -3, -1, 1, 3, 5))
                out = endoscopic_weight_transfer(w, h, [subset], c)
                cases += 1
                if out.block_total() != w.block_total():
                    ok = False
                if not (out.is_dominant() and out.is_regular()):
                    ok = False
                if out.a != w.a:
                    ok = False
    worked = endoscopic_weight_transfer(
        Weight(0, ((2, 1, 0),)), EndoTriple((1,), (2,)), [(1,)], 1
    )
    ok = ok and worked.blocks == ((2,), (1, 0)) and worked.block_total() == 3
    crit.finish(ok, f"{cases} transfers")


def test_criterion_11_nonsingular_subsets():
    crit = Criterion(11, "incidence subsets with nonzero exact determinant")
    ok = True
    checked = 0
    for n in range(1, 8):
        for p in range(1, max(1, n - 1) + 1):
            subsets, det = nonsingular_subsets(n, p)
            if len(subsets) != n or any(len(s) != p for s in subsets) or det == 0:
                ok = False
            checked += 1
    crit.finish(ok, f"{checked} (n, p) pairs")


def _random_poly(rng):
    vars_ = [SIM, tor(1, 1), tor(1, 2), tor(2, 1), tor(2, 2)]
    total = LaurentPoly.zero()
    for _ in range(rng.randint(0, 6)):
        exps = {
            v: rng.randint(-4, 4)
            for v in rng.sample(vars_, rng.randint(0, len(vars_)))
        }
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        total = total + LaurentPoly.monomial(exps, coeff=coeff, q_exp=rng.randint(-3, 3))
    return total


def test_criterion_12_serialization():
    crit = Criterion(12, "serialization round-trip and deterministic output")
    ok = True
    first_pass = []
    rng = random.Random(55)
    for _ in range(1000):
        f = _random_poly(rng)
        text = serialize_poly(f)
        first_pass.append(text)
        if parse_poly(text) != f or serialize_poly(parse_poly(text)) != text:
            ok = False
    rng = random.Random(55)
    for i in range(1000):
        if serialize_poly(_random_poly(rng)) != first_pass[i]:
            ok = False
    crit.finish(ok, "1000 polynomials, identical re-run")
