"""Partition lemmas, Kostant truncation, Weyl characters and weight transfer."""

import random
import time
from fractions import Fraction
from itertools import combinations, permutations
from itertools import product as iproduct
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satkit import characters
from satkit.characters import (
    HypothesisError,
    KostantDatum,
    UnsupportedCaseError,
    WallError,
    Weight,
    endoscopic_weight_transfer,
    frobenius_trace,
    kostant_cohomology,
    levi_blocks,
    nonsingular_subsets,
    ordered_partition_sum,
    pairing_pi,
    partial_sum_signature,
    positive_rotation_count,
    rho2,
    rotation_orbit_hits,
    truncate_cohomology,
    two_partition_hypothesis,
    verify_phi_identity,
    weyl_character,
)
from satkit.laurent import QVAR, SIM, ExponentOverflowError, LaurentPoly, _mono, act, serialize_poly, tor
from satkit.rootdata import EndoTriple, PlaceContext, SignedGroupDatum

import oracles
from oracles import (
    bialternant_character,
    coset_reps_by_filter,
    det_bareiss,
    nonsingular_subsets_by_recursion,
    ordered_partition_sum_by_enumeration,
    phi_identity_by_fractions,
    positive_rotation_count_by_permutations,
    semistandard_tableaux_schur,
)

# -- signed partition lemmas ------------------------------------------------------


def test_partial_sum_signature_examples():
    assert partial_sum_signature((1,)) == -1
    assert partial_sum_signature((1, 1)) == 1
    assert partial_sum_signature((2, -1)) == 0


def test_ordered_partition_sum_examples():
    assert ordered_partition_sum((1,)) == -1
    assert ordered_partition_sum((1, 1)) == 1
    assert ordered_partition_sum((-1, -1)) == 0


def test_partition_identity_small_exhaustive():
    for n in range(1, 5):
        for lam in iproduct((-2, -1, 1, 2), repeat=n):
            lhs = partial_sum_signature(lam)
            mid = ordered_partition_sum(lam)
            expect = (-1) ** n if all(x > 0 for x in lam) else 0
            assert lhs == mid == expect, lam


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.fractions(-6, 6, max_denominator=5), min_size=1, max_size=6).flatmap(
        lambda lam: st.tuples(st.just(lam), st.permutations(lam))
    )
)
def test_partial_sum_signature_depends_only_on_the_multiset(pair):
    lam, shuffled = pair
    assert partial_sum_signature(shuffled) == partial_sum_signature(lam)


def test_partition_identity_rational_entries():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 4)
        lam = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        if any(x == 0 for x in lam):
            continue
        assert partial_sum_signature(lam) == ordered_partition_sum(lam)


def test_rotation_count_examples():
    assert positive_rotation_count((2, -1)) == 1
    assert positive_rotation_count((1,)) == 1
    assert positive_rotation_count((3, -1, -1)) == 2


def test_rotation_count_hypothesis_violations():
    with pytest.raises(HypothesisError):
        positive_rotation_count((1, 1))  # {1},{2} both positive
    with pytest.raises(HypothesisError):
        positive_rotation_count((-1, -1))  # total not positive


def test_rotation_uniqueness_subclaim():
    rng = random.Random(17)
    for n in range(1, 7):
        for _ in range(25):
            rest = [Fraction(-rng.randint(1, 30), rng.randint(1, 7)) for _ in range(n - 1)]
            lam = [-sum(rest) + Fraction(rng.randint(1, 20), rng.randint(1, 7))] + rest
            rng.shuffle(lam)
            if not two_partition_hypothesis(lam):
                continue
            assert rotation_orbit_hits(lam) == 1
            assert positive_rotation_count(lam) == factorial(n - 1)


def test_rotation_lemma_on_every_small_vector():
    """Every vector with entries in +-1..+-4 and n <= 5 that meets the hypothesis,
    most of them with two or more positive entries."""
    held = several_positive = 0
    for n in range(1, 6):
        for lam in iproduct((-4, -3, -2, -1, 1, 2, 3, 4), repeat=n):
            if two_partition_hypothesis(lam):
                held += 1
                several_positive += sum(x > 0 for x in lam) >= 2
                assert rotation_orbit_hits(lam) == 1
                assert positive_rotation_count(lam) == factorial(n - 1)
    assert (held, several_positive) == (2743, 2711)


def test_ordered_partition_sum_closed_form_n_10_to_12():
    # the lemma: (-1)^n when every entry is positive, 0 otherwise
    rng = random.Random(1012)
    for n in range(10, 13):
        positive = [rng.choice((1, 2)) for _ in range(n)]
        mixed = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
        one_negative = list(positive)
        one_negative[rng.randrange(n)] = -rng.choice((1, 2))
        mixed[rng.randrange(n)] = -1
        assert ordered_partition_sum(positive) == (-1) ** n
        assert ordered_partition_sum(mixed) == 0
        assert ordered_partition_sum(one_negative) == 0


# -- the subset DPs and shuffles against their enumerating oracles ------------------

RATIONAL = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def rotation_hypothesis_vectors(draw):
    """One entry outweighs all the others, which are <= 0 (zeros and ties
    included), so no 2-partition has both sums positive."""
    rest = draw(st.lists(RATIONAL.map(lambda x: -abs(x)), max_size=6))
    big = -sum(rest) + draw(RATIONAL.filter(lambda x: x > 0))
    pos = draw(st.integers(0, len(rest)))
    return rest[:pos] + [big] + rest[pos:]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(rotation_hypothesis_vectors(), st.lists(RATIONAL, min_size=1, max_size=7)))
def test_rotation_count_matches_permutations(lam):
    want = positive_rotation_count_by_permutations(lam)
    if want is None:
        with pytest.raises(HypothesisError):
            positive_rotation_count(lam)
    else:
        assert positive_rotation_count(lam) == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(RATIONAL, min_size=1, max_size=7))
def test_ordered_partition_sum_matches_enumeration(lam):
    assert ordered_partition_sum(lam) == ordered_partition_sum_by_enumeration(lam)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.one_of(st.lists(st.integers(-6, 6), min_size=1, max_size=7), st.lists(RATIONAL, min_size=1, max_size=7))
    .flatmap(lambda lam: st.tuples(st.just(lam), st.permutations(lam)))
)
def test_ordered_partition_sum_depends_only_on_the_multiset(pair):
    lam, shuffled = pair
    assert ordered_partition_sum(shuffled) == ordered_partition_sum(lam)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.lists(st.integers(-6, 6), max_size=12),  # ties among the prefix sums, totals of any sign
        st.lists(st.one_of(st.integers(-6, 6), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))),
                 max_size=12),
    )
)
@example([])
@example([2, -1, -1])  # a zero total
@example([1, -3, 1])  # a negative total
@example([1, 1, -1, 1, 1, -1])  # a positive total with tied prefix minima
@example([Fraction(1, 2), Fraction(-1, 3), 1])
def test_rotation_orbit_hits_matches_rotating(lam):
    assert rotation_orbit_hits(lam) == oracles.rotation_orbit_hits_by_rotating(lam)


def test_coset_reps_match_filter():
    for n in range(1, 8):
        for q in range(n + 1):
            top = min(q, n // 2)
            for bits in range(2 ** top):
                kd = KostantDatum(n - q, q, {r + 1 for r in range(top) if bits >> r & 1})
                assert sorted(kd.coset_reps()) == coset_reps_by_filter(kd), (kd.p, kd.q, kd.s_set)


def compositions(n):
    """Every tuple of positive sizes adding up to n."""
    for cuts in range(2 ** (n - 1)):
        bounds = [0] + [i + 1 for i in range(n - 1) if cuts >> i & 1] + [n]
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def _inversions(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def test_signed_perms_are_lexicographic_with_sign_of_length():
    for n in range(8):
        items = tuple(range(1, n + 1))
        signed = list(characters._signed_perms(items))
        assert [w for w, _ in signed] == list(permutations(items))
        for w, sign in signed:
            assert sign == oracles.perm_sign(w) == (-1) ** _inversions(w)
            assert oracles.length(w) == _inversions(w)


def test_signed_block_perms_keep_the_product_order_and_signs():
    blocks = [(1, 2), (3,), (4, 5, 6)]
    signed = characters._signed_block_perms(blocks)
    assert signed == [(w, oracles.perm_sign(w)) for w in oracles.block_perms(blocks)]
    assert len(signed) == 2 * 1 * 6
    assert signed[0] == ((1, 2, 3, 4, 5, 6), 1) and signed[1] == ((1, 2, 3, 4, 6, 5), -1)
    for w, _ in signed:
        assert all(sorted(w[b[0] - 1 : b[-1]]) == list(b) for b in blocks)
    for blocks in ([[1, 2, 3, 4]], [[1], [2, 3, 4], [5, 6]], [[1, 2], [3], [4], [5, 6]]):
        assert characters._signed_block_perms(blocks) == [
            (w, oracles.perm_sign(w)) for w in oracles.block_perms(blocks)
        ]


def test_act_moves_the_entry_at_j_to_w_j():
    v = ("a", "b", "c", "d")
    for w in permutations(range(1, 5)):
        inv = oracles.perm_inverse(w)
        assert all(w[inv[i] - 1] == i + 1 for i in range(4))
        assert characters._act(w, characters._act(inv, v)) == v
        assert characters._act(w, v) == tuple(v[inv[i] - 1] for i in range(4)) == oracles.act(w, v)


def test_kostant_levi_group_signs():
    for n in range(1, 7):
        for q in range(n // 2 + 1):
            for k in range(q + 1):
                for s_set in map(frozenset, combinations(range(1, q + 1), k)):
                    kd = KostantDatum(n - q, q, s_set)
                    group = kd.levi_group()
                    assert len(group) == kd.levi_order()
                    for w, det in group:
                        expect = 1
                        for b in kd.blocks():
                            expect *= (-1) ** _inversions([b.index(w[pos - 1]) + 1 for pos in b])
                        assert det == expect


@pytest.mark.parametrize("n", range(1, 9))
def test_shuffle_lengths_match_perm_length(n):
    for sizes in compositions(n):
        # bypass the cache: all compositions of 8 hold 545835 shuffles
        shuffles = characters._shuffles.__wrapped__(sizes)
        assert all(length == oracles.length(w) for w, length in shuffles.items()), sizes
        graded = [(length, w) for w, length in shuffles.items()]
        assert graded == sorted(graded), sizes


@st.composite
def kostant_cases(draw):
    n = draw(st.integers(1, 7))
    q = draw(st.integers(0, n))
    s_set = draw(st.sets(st.integers(1, max(1, min(q, n // 2))), max_size=min(q, n // 2)))
    entries = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    return KostantDatum(n - q, q, s_set), Weight(0, (tuple(sorted(entries, reverse=True)),))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kostant_cases())
def test_kostant_cohomology_matches_length_rebuild(case):
    kd, weight = case
    assert kostant_cohomology(kd, weight) == oracles.kostant_cohomology_by_length(kd, weight)


@st.composite
def phi_cases(draw):
    n, s = draw(st.sampled_from([(n, s) for s in (1, 2, 3) for n in range(2 * s, 8)]))
    q = draw(st.integers(s, n))
    if draw(st.booleans()):
        # signed distinct powers of two: disjoint sets of them never have equal
        # sums, so no truncation pairing vanishes
        exps = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n, unique=True))
        entries = [draw(st.sampled_from((1, -1))) << e for e in exps]
    else:  # small entries often sit on a wall
        entries = draw(st.lists(st.integers(-12, 12), min_size=n, max_size=n, unique=True))
    weight = Weight(0, (tuple(sorted(entries, reverse=True)),))
    return n - q, q, s, weight, draw(st.sampled_from("><"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(phi_cases())
@example((3, 3, 3, Weight(0, ((14, 7, 3, 0, -18, -23),)), ">"))  # n = 2s: no middle
@example((0, 6, 3, Weight(0, ((32, 8, 2, -1, -4, -16),)), "<"))
def test_phi_identity_matches_fraction_oracle(case):
    try:
        want = phi_identity_by_fractions(*case)
    except WallError:
        with pytest.raises(WallError):
            verify_phi_identity(*case)
        return
    assert verify_phi_identity(*case) == want


# -- Kostant machinery -------------------------------------------------------------


def test_levi_blocks():
    assert levi_blocks(5, {1, 2}) == [[1], [2], [3], [4], [5]]
    assert levi_blocks(6, {2}) == [[1, 2], [3, 4], [5, 6]]
    assert levi_blocks(4, {2}) == [[1, 2], [3, 4]]


def test_s_prime_omega_and_phi_arguments_take_integers_only():
    entries = kostant_cohomology(KostantDatum(2, 2, frozenset({1})), Weight(0, ((4, 2, -1, -3),)))
    h = EndoTriple((1,), (2,))
    weight = Weight(0, ((2, 1, 0),))
    phi_weight = Weight(0, ((5, 1, -4),))
    refused = [
        ("n", lambda x: levi_blocks(x, {1})),
        ("s_set", lambda x: levi_blocks(4, {x})),
        ("s_set", lambda x: truncate_cohomology(entries, {x}, ">")),
        ("omega", lambda x: endoscopic_weight_transfer(weight, h, [(x,)], 1)),
        ("c_odd", lambda x: endoscopic_weight_transfer(weight, h, [(1,)], x)),
        ("p", lambda x: verify_phi_identity(x, 1, 1, phi_weight)),
        ("q", lambda x: verify_phi_identity(2, x, 1, phi_weight)),
        ("s", lambda x: verify_phi_identity(2, 1, x, phi_weight)),
    ]
    for name, call in refused:
        for x in (1.0, 1.5, 1.9):
            with pytest.raises(ValueError, match=f"^{name} takes integers only"):
                call(x)
    assert levi_blocks(4, {1}) == [[1], [2, 3], [4]]
    assert truncate_cohomology(entries, {1}, ">") == [e for e in entries if pairing_pi(e.shifted2, 1) > 0]
    assert endoscopic_weight_transfer(weight, h, [(1,)], 1).blocks == ((2,), (1, 0))
    assert verify_phi_identity(2, 1, 1, phi_weight) == phi_identity_by_fractions(2, 1, 1, phi_weight)


def regular_weight(n, seed=0, spread=3):
    rng = random.Random(seed)
    entries = sorted(rng.sample(range(-4 * n, 4 * n + 1), n), reverse=True)
    return Weight(0, (tuple(entries),))


def test_kostant_counts_and_dominance():
    for p, q in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 2), (5, 1)]:
        n = p + q
        for r in range(1, q + 1):
            for sprime in _subsets_containing(r, r):
                kd = KostantDatum(p, q, frozenset(sprime))
                weight = regular_weight(n, seed=n * 10 + r)
                entries = kostant_cohomology(kd, weight)
                assert len(entries) == factorial(n) // kd.levi_order()
                seen = set()
                blocks = kd.blocks()
                for e in entries:
                    assert e.weight2 not in seen
                    seen.add(e.weight2)
                    for b in blocks:
                        for x, y in zip(b, b[1:]):
                            assert e.weight2[x - 1] >= e.weight2[y - 1]
                degs = sorted(e.degree for e in entries)
                assert degs[0] == 0 and degs == sorted(degs)


def _subsets_containing(top, max_r):
    base = list(range(1, top))
    out = []
    for bits in range(2 ** len(base)):
        out.append([base[i] for i in range(len(base)) if bits >> i & 1] + [top])
    return out


def test_kostant_gu11_example():
    kd = KostantDatum(1, 1, frozenset({1}))
    entries = kostant_cohomology(kd, Weight(0, ((1, -1),)))
    assert sorted(e.degree for e in entries) == [0, 1]


def test_kostant_gu21_example():
    # blocks [1],[2],[3]: the Levi is a torus, so all 6 = |S_3| cosets appear
    kd = KostantDatum(2, 1, frozenset({1}))
    entries = kostant_cohomology(kd, Weight(0, ((3, 1, -2),)))
    assert len(entries) == factorial(3) // kd.levi_order() == 6


def test_rho_pairing_identity():
    for n in range(2, 21):
        for r in range(1, n // 2 + 1):
            assert pairing_pi(rho2(n), r) == 2 * r * (n - r)


def test_truncation_gu11_example():
    kd = KostantDatum(1, 1, frozenset({1}))
    entries = kostant_cohomology(kd, Weight(0, ((1, -1),)))
    kept = truncate_cohomology(entries, {1}, ">")
    assert len(kept) == 1 and kept[0].omega == (1, 2)
    dropped = truncate_cohomology(entries, {1}, "<")
    assert len(dropped) == 1 and dropped[0].omega == (2, 1)


def test_truncation_trichotomy():
    kd = KostantDatum(2, 2, frozenset({1, 2}))
    weight = Weight(0, ((7, 3, -2, -9),))
    entries = kostant_cohomology(kd, weight)
    up = truncate_cohomology(entries, {1, 2}, ">")
    down = truncate_cohomology(entries, {1, 2}, "<")
    assert len(up) + len(down) <= len(entries)
    assert {e.omega for e in up}.isdisjoint({e.omega for e in down})


def test_truncation_wall_error():
    kd = KostantDatum(1, 1, frozenset({1}))
    with pytest.raises(ValueError):
        # weight (1, 1) is not regular, rejected before truncation
        kostant_cohomology(kd, Weight(0, ((1, 1),)))
    entries = kostant_cohomology(kd, Weight(0, ((1, -1),)))
    shifted = [
        e.__class__(e.degree, e.omega, e.weight2, (0, 0)) for e in entries
    ]
    with pytest.raises(WallError):
        truncate_cohomology(shifted, {1}, ">")


# -- the identity engine --------------------------------------------------------------


def test_phi_identity_refuses_a_wall_before_any_walk(monkeypatch):
    # 8 + 2 = 10 = 7 + 3: two disjoint 2-subsets with equal sums put the weight
    # on a wall, and the exact test refuses it without enumerating a term
    def no_walk(sizes):
        raise AssertionError("walked a wall weight")

    monkeypatch.setattr(characters, "_shuffles", no_walk)
    with pytest.raises(WallError, match="two 2-subsets of the weight have equal sums"):
        verify_phi_identity(2, 3, 2, Weight(0, ((8, 7, 3, 2, -1),)))


def test_phi_identity_refuses_a_negative_p_by_name():
    # p + q = 4: the refusal names the whole condition, not only the sum that holds
    with pytest.raises(ValueError, match=r"^need p >= 0, q >= 0 and p \+ q >= 1$"):
        verify_phi_identity(-1, 5, 2, Weight(0, ((4, 3, 2, 1),)))


def test_phi_identity_wall_at_a_smaller_r_than_s():
    # -4 - 22 = 2 - 28: the first vanishing pairing is at r = 2 < s = 3, and
    # adding a common entry to both pairs gives two 3-subsets with equal sums
    case = (3, 3, 3, Weight(0, ((13, 2, -4, -19, -22, -28),)), ">")
    with pytest.raises(WallError):
        phi_identity_by_fractions(*case)
    with pytest.raises(WallError):
        verify_phi_identity(*case)


@pytest.mark.parametrize("case", [
    (2, 2, 2, Weight(0, ((13, 5, -2, -9),)), "<"),
    (1, 5, 3, Weight(0, ((40, 11, 3, -6, -20, -31),)), ">"),
])
def test_phi_identity_without_a_middle_matches_the_oracle(case):
    # n = 2s: every term is a full ordering, and no middle is expanded
    assert verify_phi_identity(*case) == phi_identity_by_fractions(*case)


def test_phi_identity_gu11():
    rep = verify_phi_identity(1, 1, 1, Weight(0, ((4, -3),)))
    assert rep["equal"] and rep["side_b_terms"] == 1


def test_phi_identity_negative_entries():
    # the coroot filter compares mirror differences, so even an all-negative
    # weight admits one surviving translate; the identity holds regardless
    rep = verify_phi_identity(1, 1, 1, Weight(0, ((-3, -7),)))
    assert rep["equal"] and rep["side_b_terms"] == 1


def test_phi_identity_gu21_seeded():
    rng = random.Random(23)
    for _ in range(10):
        entries = sorted(rng.sample(range(-15, 16), 3), reverse=True)
        try:
            rep = verify_phi_identity(2, 1, 1, Weight(0, (tuple(entries),)))
        except WallError:
            continue
        assert rep["equal"]


@pytest.mark.parametrize("p, q, s", [(1, 3, 3), (0, 2, 2)])
def test_phi_identity_needs_2s_at_most_p_plus_q(p, q, s):
    # GU(p, q) has no Levi with s linear slots: refused with that condition, not the Levi's
    weight = Weight(0, (tuple(range(p + q, 0, -1)),))
    with pytest.raises(ValueError, match=r"need 2s <= p \+ q"):
        verify_phi_identity(p, q, s, weight)


def test_phi_identity_lt_direction():
    rep = verify_phi_identity(2, 1, 1, Weight(0, ((5, 1, -4),)), direction="<")
    assert rep["equal"]


def test_phi_identity_differences_are_unscaled(monkeypatch):
    # with every Kostant entry truncated away, the difference is minus side B,
    # whose multiplicities are the signs of the Weyl elements
    monkeypatch.setattr(characters, "_truncation_keeps", lambda *args: False)
    rep = verify_phi_identity(2, 2, 2, Weight(0, ((13, 5, -2, -9),)))
    assert rep["side_a_terms"] == 0 and len(rep["differences"]) == rep["side_b_terms"] > 0
    assert {c for _, c in rep["differences"]} == {"1", "-1"}


@pytest.mark.parametrize("keep", [False, True], ids=["none", "all"])
def test_phi_identity_differences_expand_the_middle(monkeypatch, keep):
    # n = 6, s = 1 leaves a middle block of four slots, so every differing
    # term is expanded back into its 4! signed arrangements; the oracle's
    # truncate_cohomology runs the same per-entry test
    monkeypatch.setattr(characters, "_truncation_keeps", lambda *args: keep)
    case = (3, 3, 1, Weight(0, ((11, 6, 2, -1, -5, -12),)))
    rep = verify_phi_identity(*case)
    assert rep["differences"] and rep == phi_identity_by_fractions(*case)


# -- Weyl characters ---------------------------------------------------------------------


def test_weyl_character_examples():
    x1, x2 = LaurentPoly.var(tor(1, 1)), LaurentPoly.var(tor(1, 2))
    assert weyl_character(2, (1, 0)) == x1 + x2
    assert weyl_character(2, (1, 1)) == x1 * x2
    assert weyl_character(2, (2, 0)) == x1 * x1 + x1 * x2 + x2 * x2


def test_weyl_character_vs_tableaux():
    for n in range(1, 5):
        shapes = [s for s in iproduct(range(4, -1, -1), repeat=n) if all(a >= b for a, b in zip(s, s[1:]))]
        for lam in shapes[:40]:
            assert weyl_character(n, lam) == semistandard_tableaux_schur(lam, n), (n, lam)


def test_weyl_character_negative_entries():
    # dominant weight with negative entries: determinant twist of a partition
    f = weyl_character(2, (0, -1))
    x1, x2 = LaurentPoly.var(tor(1, 1)), LaurentPoly.var(tor(1, 2))
    inv = LaurentPoly.monomial({tor(1, 1): -1, tor(1, 2): -1})
    assert f == (x1 + x2) * inv


def test_weyl_character_dimension():
    ones = {QVAR: Fraction(1)}
    for n in range(1, 5):
        for lam in [(2, 0, 0, 0)[:n], (3, 1, 0, 0)[:n], (4, 2, 1, 0)[:n]]:
            assign = dict(ones)
            assign.update({tor(1, j): Fraction(1) for j in range(1, n + 1)})
            got = weyl_character(n, lam).evaluate(assign)
            dim = Fraction(1)
            for i in range(n):
                for j in range(i + 1, n):
                    dim *= Fraction(lam[i] - lam[j] + j - i, j - i)
            assert got == dim


def test_weyl_character_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_character(2, (0, 1))


DOMINANT = st.lists(st.integers(-3, 4), min_size=1, max_size=5).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(DOMINANT)
def test_weyl_character_matches_bialternant(lam):
    assert weyl_character(len(lam), lam) == bialternant_character(len(lam), lam)


def test_weyl_character_size_7():
    started = time.monotonic()
    f = weyl_character(7, (7, 6, 5, 4, 3, 2, 1))
    assert time.monotonic() - started < 5
    assert len(f) == 36961
    assert sum(c for _, c in f.terms()) == 2**21  # the value at x = (1, ..., 1)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(-6, 8), min_size=1, max_size=4).map(lambda xs: tuple(sorted(xs, reverse=True))))
@example((5, 5, 5, 5))
@example((8, 0, 0, 0))
def test_character_term_bound_covers_the_character(lam):
    f = weyl_character(len(lam), lam)
    bound = characters._character_term_bound(lam)
    assert len(f) <= bound <= sum(c for _, c in f.terms())  # at most the dimension


@settings(max_examples=40, deadline=None, derandomize=True)
@given(DOMINANT, st.data())
def test_weyl_character_takes_integers_only(lam, data):
    i = data.draw(st.integers(0, len(lam) - 1))
    for x in (float(lam[i]), lam[i] - 0.5):
        with pytest.raises(ValueError, match="block_weight takes integers only"):
            weyl_character(len(lam), lam[:i] + (x,) + lam[i + 1 :])
    with pytest.raises(ValueError, match="size takes integers only"):
        weyl_character(float(len(lam)), lam)
    assert weyl_character(len(lam), lam) == bialternant_character(len(lam), lam)


def test_weyl_character_refuses_a_weight_past_the_term_ceiling():
    lam = (2147483645, 0, 0)
    with pytest.raises(ValueError, match="2305843005992468481 terms"):
        weyl_character(3, lam)
    # the widest weights that run today stay under the ceiling
    assert characters._character_term_bound((10, 8, 6, 4, 3, 1, 0)) == 11**6
    assert characters._character_term_bound((7, 6, 5, 4, 3, 2, 1)) == 7**6


def test_weyl_character_exponent_range():
    # refused exactly when the Weyl numerator x^(lambda + delta) leaves the 32-bit range
    top, bottom = 2**31 - 2, -(2**31 - 1)
    assert len(weyl_character(2, (top, top))) == len(weyl_character(2, (bottom, bottom))) == 1
    for lam in [(top + 1, 0), (0, bottom - 1)]:
        with pytest.raises(ExponentOverflowError):
            weyl_character(2, lam)


# -- Kostant's theorem against the Weyl characters ----------------------------------------


def kostant_sides(kd, lam, flip=None):
    """Both sides of Kostant's theorem as a character identity on GL_n, n = p + q
    (B. Kostant, Ann. of Math. 74 (1961), in the Euler-characteristic form that the
    Koszul complex of the nilradical gives): with rho = (n-1, ..., 0),

        sum over w in W^L of (-1)^l(w) prod over the Levi blocks B of s_{(w(lam) - rho)|B}(x_B)
          = s_{lam - rho}(x_1..x_n) * prod over i < j in different blocks of (1 - x_j/x_i).

    kostant_cohomology lists W^L with each w's length and 2(w(lam) - rho') for the
    half-sum rho'; rho differs from rho' by a central shift, which w fixes, so
    (w(lam) - rho)_i is (weight2_i - n + 1) / 2.  flip names one entry whose degree
    parity is flipped: a mutation that the identity must catch."""
    n, blocks = kd.n, kd.blocks()

    def schur(slots, mu):  # s_mu(x_slots), from the character in x_1..x_k
        rename = {tor(1, j): (((tor(1, b), 1),), 1) for j, b in enumerate(slots, 1)}
        return act(rename, weyl_character(len(slots), mu))

    lhs = LaurentPoly.zero()
    for i, entry in enumerate(kostant_cohomology(kd, Weight(0, (lam,)))):
        mu = [(x - n + 1) // 2 for x in entry.weight2]
        term = prod((schur(b, tuple(mu[j - 1] for j in b)) for b in blocks), start=LaurentPoly.one())
        lhs = lhs + term * (-1) ** (entry.degree + (i == flip))
    rhs = schur(range(1, n + 1), tuple(x - n + i for i, x in enumerate(lam, 1)))
    block_of = {j: b[0] for b in blocks for j in b}
    for i, j in combinations(range(1, n + 1), 2):
        if block_of[i] != block_of[j]:
            rhs = rhs * (LaurentPoly.one() - LaurentPoly.monomial({tor(1, i): -1, tor(1, j): 1}))
    return lhs, rhs


def levi_subsets(p, q):
    """S' = {r} and S' = {1..r} for every r with 2r <= p + q, each set once."""
    sets = {frozenset(s) for r in range(1, q + 1) if 2 * r <= p + q for s in ({r}, range(1, r + 1))}
    return [tuple(sorted(s)) for s in sorted(sets, key=sorted)]


@pytest.mark.parametrize(
    "p, q, s_set",
    [(p, q, s) for p in range(4) for q in range(1, 4) for s in levi_subsets(p, q)],
    ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else str(x),
)
def test_kostant_cohomology_is_a_character_identity(p, q, s_set):
    n = p + q
    rng = random.Random(f"{p},{q},{s_set}")
    mu = sorted(rng.choices(range(-1, 3), k=n), reverse=True)
    lam = tuple(m + n - i for i, m in enumerate(mu, 1))  # dominant regular
    lhs, rhs = kostant_sides(KostantDatum(p, q, s_set), lam)
    assert lhs == rhs


def test_kostant_identity_catches_a_flipped_degree_parity():
    kd, lam = KostantDatum(2, 2, frozenset({1})), (4, 2, -1, -3)
    lhs, rhs = kostant_sides(kd, lam)
    assert lhs == rhs
    for i in range(len(kostant_cohomology(kd, Weight(0, (lam,))))):
        lhs, rhs = kostant_sides(kd, lam, flip=i)
        assert lhs != rhs


# -- endoscopic weight transfer --------------------------------------------------------------


def test_weight_transfer_worked_example():
    h = EndoTriple((1,), (2,))
    out = endoscopic_weight_transfer(Weight(0, ((2, 1, 0),)), h, [(1,)], 1)
    assert out.blocks == ((2,), (1, 0))
    assert out.block_total() == 3


def test_weight_transfer_trivial():
    h = EndoTriple((4,), (0,))
    w = Weight(2, ((5, 3, 2, 0),))
    out = endoscopic_weight_transfer(w, h, [(1, 2, 3, 4)], 7)
    assert out.blocks == ((5, 3, 2, 0), ())
    assert out.a == 2


def test_weight_transfer_dominance_and_sum():
    rng = random.Random(12)
    for n in range(1, 7):
        for n_minus in range(0, n + 1, 2):
            h = EndoTriple((n - n_minus,), (n_minus,))
            for _ in range(25):
                entries = sorted(rng.sample(range(-20, 21), n), reverse=True)
                w = Weight(0, (tuple(entries),))
                subset = tuple(sorted(rng.sample(range(1, n + 1), n - n_minus)))
                c = rng.choice((-3, -1, 1, 3, 5))
                out = endoscopic_weight_transfer(w, h, [subset], c)
                assert out.is_dominant()
                assert out.is_regular()  # input entries are distinct, hence regular
                assert out.block_total() == w.block_total()


def test_weight_transfer_validation():
    h = EndoTriple((1,), (2,))
    with pytest.raises(ValueError):
        endoscopic_weight_transfer(Weight(0, ((2, 1, 0),)), h, [(1,)], 2)  # even C
    with pytest.raises(ValueError):
        endoscopic_weight_transfer(Weight(0, ((2, 1, 0),)), h, [(1, 2)], 1)  # wrong size


# -- Frobenius traces --------------------------------------------------------------------------


def test_frobenius_trace_examples():
    split = PlaceContext(split=True, d=1)
    inert = PlaceContext(split=False, d=1)
    g10 = SignedGroupDatum(((1, 0),))
    f = frobenius_trace(g10, 3, inert, field="E")
    assert f == LaurentPoly.monomial({SIM: -3, tor(1, 1): -6})

    g11 = SignedGroupDatum(((1, 1),))
    f = frobenius_trace(g11, 1, split, field="E")
    want = LaurentPoly.monomial({SIM: -1, tor(1, 1): -1}) + LaurentPoly.monomial(
        {SIM: -1, tor(1, 2): -1}
    )
    assert f == want

    g20 = SignedGroupDatum(((2, 0),))
    f = frobenius_trace(g20, 2, split, field="Q")
    assert f == LaurentPoly.monomial({SIM: -2, tor(1, 1): -2, tor(1, 2): -2})


@st.composite
def frobenius_cases(draw):
    sig = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any), min_size=1, max_size=3))
    place = draw(st.booleans())
    field = draw(st.sampled_from(["E", "Q"] if place else ["E"]))  # Q at an inert place may be refused
    return SignedGroupDatum(tuple(sig)), draw(st.integers(-3, 3)), PlaceContext(place, 1), field


@settings(max_examples=150, deadline=None, derandomize=True)
@given(frobenius_cases())
@example((SignedGroupDatum(((2, 1), (1, 1))), 0, PlaceContext(True, 1), "E"))  # every term is 1
def test_frobenius_trace_terms_are_canonical_as_built(case):
    g, m, ctx, field = case
    f = frobenius_trace(g, m, ctx, field=field)
    count = prod(comb(p + q, p) for p, q in g.sig)
    assert sum(c for _, c in f.terms()) == count and len(f) == (1 if m == 0 else count)
    for key, _ in f.terms():
        assert key == _mono(key)
    assert oracles.has_merged_terms(f)
    assert oracles.in_canonical_order(f) and serialize_poly(f) == oracles.serialize_by_sorting(f)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(DOMINANT)
@example((0, 0, 0))
@example((3, 1, 1, 0, -2))  # weights met along several branches add up
def test_weyl_character_terms_are_canonical_as_built(lam):
    # the adopted dict against from_terms over the same terms
    f = weyl_character(len(lam), lam)
    for key, _ in f.terms():
        assert key == _mono(key)
    assert oracles.has_merged_terms(f)
    # the branching builds its terms in canonical order on every weight tried, but no
    # proof covers that yet, so serialize_poly still sorts them
    assert oracles.in_canonical_order(f) and not f._walk
    assert serialize_poly(f) == oracles.serialize_by_sorting(f)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(frobenius_cases())
@example((SignedGroupDatum(((1, 1),)), 1, PlaceContext(True, 1), "E"))
def test_frobenius_trace_takes_integers_only(case):
    g, m, ctx, field = case
    for x in (float(m), m + 0.5):
        with pytest.raises(ValueError, match="m takes integers only"):
            frobenius_trace(g, x, ctx, field=field)
    deg = 1 if ctx.split else 2
    want = LaurentPoly.zero()
    for chosen in iproduct(*(combinations(range(1, p + q + 1), p) for p, q in g.sig)):
        exps = {tor(i, j): -m * deg for i, js in enumerate(chosen, start=1) for j in js}
        want = want + LaurentPoly.monomial({SIM: -m, **exps})
    assert frobenius_trace(g, m, ctx, field=field) == want


def test_frobenius_trace_refuses_exponents_past_32_bits():
    top = 2**31 - 1
    split, inert = PlaceContext(split=True, d=1), PlaceContext(split=False, d=1)
    g11, g02 = SignedGroupDatum(((1, 1),)), SignedGroupDatum(((0, 2),))
    assert len(frobenius_trace(g11, top, split, field="E")) == 2
    assert len(frobenius_trace(g02, top, inert, field="E")) == 1  # -m, and no torus exponent
    for g, m, ctx in [(g11, top + 1, split), (g02, top + 1, inert), (g11, top, inert)]:
        with pytest.raises(ExponentOverflowError):  # the last one in -2m only
            frobenius_trace(g, m, ctx, field="E")


def test_frobenius_trace_unsupported_case():
    with pytest.raises(UnsupportedCaseError):
        frobenius_trace(
            SignedGroupDatum(((1, 1),)), 1, PlaceContext(split=False, d=1), field="Q"
        )


def test_frobenius_trace_numeric():
    g = SignedGroupDatum(((1, 1), (1, 0)))
    params = {
        QVAR: Fraction(1),
        SIM: Fraction(2),
        tor(1, 1): Fraction(3),
        tor(1, 2): Fraction(5),
        tor(2, 1): Fraction(7),
    }
    val = frobenius_trace(g, 1, PlaceContext(split=True, d=1), field="E").evaluate(params)
    assert val == Fraction(1, 2) * (Fraction(1, 3) + Fraction(1, 5)) * Fraction(1, 7)


# -- nonsingular incidence subsets --------------------------------------------------------------


def test_nonsingular_subsets_examples():
    subsets, det = nonsingular_subsets(1, 1)
    assert subsets == [(1,)] and det == 1
    subsets, det = nonsingular_subsets(2, 1)
    assert sorted(subsets) == [(1,), (2,)] and abs(det) == 1
    subsets, det = nonsingular_subsets(3, 2)
    assert subsets == [(2, 3), (1, 3), (1, 2)] and det == 2


def test_nonsingular_subsets_range():
    for n in range(1, 8):
        for p in range(1, max(1, n - 1) + 1):
            subsets, det = nonsingular_subsets(n, p)
            assert len(subsets) == n
            assert all(len(s) == p for s in subsets)
            assert det != 0
    for n, p in ((3, 3), (0, 1), (-1, 1), (4097, 1024)):
        with pytest.raises(ValueError):
            nonsingular_subsets(n, p)


@pytest.mark.parametrize("n, p", [(1, 1), (3, 2), (7, 4)])
def test_nonsingular_subsets_take_integers_only(n, p):
    for bad_n, bad_p, name in [(float(n), p, "n"), (n + 0.5, p, "n"), (n, float(p), "p"), (n, p - 0.5, "p")]:
        with pytest.raises(ValueError, match=f"^{name} takes integers only"):
            nonsingular_subsets(bad_n, bad_p)
    assert nonsingular_subsets(n, p)[0] == nonsingular_subsets_by_recursion(n, p)


def test_nonsingular_subsets_determinant_matches_bareiss():
    cases = 0
    for n in range(1, 41):
        for p in range(1, max(1, n - 1) + 1):
            subsets, det = nonsingular_subsets(n, p)
            rows = [[1 if j in s else 0 for j in range(1, n + 1)] for s in subsets]
            assert det == det_bareiss(rows), (n, p)
            cases += 1
    assert cases == 781


def test_nonsingular_subsets_match_the_recursion():
    for n in range(1, 61):
        for p in range(1, max(1, n - 1) + 1):
            assert nonsingular_subsets(n, p)[0] == nonsingular_subsets_by_recursion(n, p), (n, p)
