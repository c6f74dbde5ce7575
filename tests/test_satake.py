"""Spherical function formulas, the four morphism families and the
constant-term compatibility square."""

import json
import random
import time
from itertools import combinations, product
from math import comb, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import oracles
from oracles import transfer_square_by_rebuilding
from test_cli import transfer_square_cases

from satkit import cli, satake
from satkit.laurent import (
    SIM,
    ExponentOverflowError,
    LaurentPoly,
    SubstitutionError,
    act,
    is_invariant,
    serialize_poly,
    substitute,
    symmetrize,
    tor,
    _mono,
    _substitution_table,
)
from satkit.rootdata import EndoTriple, GroupDatum, PlaceContext, enumerate_endoscopic
from satkit.satake import (
    HeckeRing,
    PlaceError,
    Substitution,
    base_change_map,
    default_generators,
    exponent_identity_holds,
    hecke_ring,
    kottwitz_function,
    levi_constant_term,
    levi_kottwitz_function,
    levi_sign_data,
    levi_twisted_transfer,
    norm_similitude,
    resolve_tor,
    transfer_map,
    twisted_transfer_map,
    verify_transfer_square,
)

SPLIT = PlaceContext(split=True, d=1)
INERT1 = PlaceContext(split=False, d=1)
INERT2 = PlaceContext(split=False, d=2)


def mono(exps, coeff=1, q=0):
    return LaurentPoly.monomial(exps, coeff=coeff, q_exp=q)


# -- rings ------------------------------------------------------------------


def test_hecke_ring_variables_and_groups():
    r = hecke_ring(GroupDatum((2,)), SPLIT)
    assert r.variables() == [SIM, tor(1, 1), tor(1, 2)]
    assert len(r.weyl()) == 2

    ri = hecke_ring(GroupDatum((2,)), INERT1)
    assert ri.variables() == [SIM, tor(1, 1)]
    assert len(ri.weyl()) == 2

    ri3 = hecke_ring(GroupDatum((3,)), INERT1)
    assert ri3.variables() == [SIM, tor(1, 1)]
    assert len(ri3.weyl()) == 2


@pytest.mark.parametrize(
    "ring",
    [
        HeckeRing(GroupDatum((3, 2)), split_presentation=True),
        HeckeRing(GroupDatum((4, 3)), split_presentation=False),  # inert, an odd factor
        HeckeRing(GroupDatum((4, 2)), split_presentation=False),  # inert, every factor even
        HeckeRing(GroupDatum((5, 4)), split_presentation=True, levi_linear=(1, 2)),
        HeckeRing(GroupDatum((6, 4)), split_presentation=False, levi_linear=(1, 0)),
    ],
    ids=["split", "inert-odd", "inert-all-even", "levi-split", "levi-inert"],
)
def test_generator_tables_cover_exactly_the_ring_variables(ring):
    # so a table carries its ring, and invariance needs no shape beside it
    gens = ring.generators()
    assert gens
    for t in gens:
        assert sorted(t) == ring.variables()
    assert all(sorted(t) == ring.variables() for t in ring.weyl())


def test_ring_contains():
    r = hecke_ring(GroupDatum((2,)), SPLIT)
    f = kottwitz_function(GroupDatum((2,)), (1,), SPLIT)
    assert r.contains(f)
    assert not r.contains(LaurentPoly.var(tor(1, 1)))
    assert not r.contains(LaurentPoly.var(tor(2, 1)))  # stray variable


def test_contains_on_large_inert_ring_uses_generators():
    # |W| = (2^5 * 5!)^2 = 14.7M: enumerating the group here would run for minutes.
    r = HeckeRing(GroupDatum((10, 10)), split_presentation=False)
    start = time.perf_counter()
    x11 = LaurentPoly.var(tor(1, 1))
    orbit = symmetrize(x11, r.generators())
    assert len(orbit) == 10
    assert r.contains(orbit)
    assert not r.contains(x11)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("i, j", [(0, 3), (-1, 1), (3, 1)])
def test_resolve_tor_refuses_a_factor_outside_the_group(i, j):
    # on split GU(2) x GU(3), i = 0 and i = -1 once read a factor from the end and
    # returned X_0_3 and X_-1_1, and i = 3 raised IndexError
    ring = HeckeRing(GroupDatum((2, 3)), split_presentation=True)
    assert resolve_tor(ring, 2, 3) == LaurentPoly.var(tor(2, 3))
    with pytest.raises(ValueError, match=f"factor {i} out of range for a group of 2 factors"):
        resolve_tor(ring, i, j)


# -- basic spherical functions -------------------------------------------------


def test_kottwitz_display_example():
    f = kottwitz_function(GroupDatum((2,)), (1,), SPLIT)
    want = mono({SIM: -1, tor(1, 1): -1}, q=1) + mono({SIM: -1, tor(1, 2): -1}, q=1)
    assert f == want


def test_kottwitz_degenerate_cases():
    for n in (1, 2, 3):
        assert kottwitz_function(GroupDatum((n,)), (0,), PlaceContext(True, 2)) == mono({SIM: -1})
    f = kottwitz_function(GroupDatum((3,)), (3,), PlaceContext(True, 2))
    assert f == mono({SIM: -1, tor(1, 1): -1, tor(1, 2): -1, tor(1, 3): -1})


@st.composite
def kottwitz_cases(draw):
    sizes = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    return GroupDatum(sizes), tuple(draw(st.integers(0, n)) for n in sizes), draw(st.integers(1, 3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kottwitz_cases())
@example((GroupDatum((3, 2)), (0, 0), 2))  # q exponent 0: every s_i is 0 ...
@example((GroupDatum((3, 2)), (3, 2), 2))  # ... or n_i
@example((GroupDatum((3, 2)), (0, 2), 1))  # ... or a mix of both
def test_kottwitz_terms_are_canonical_as_built(case):
    g, s_vec, d = case
    f = kottwitz_function(g, s_vec, PlaceContext(True, d))
    assert len(f) == prod(comb(n, s) for n, s in zip(g.sizes, s_vec))
    for key, c in f.terms():
        assert key == _mono(key) and c == 1


@st.composite
def levi_kottwitz_cases(draw):
    n = draw(st.integers(1, 9))
    return n, draw(st.integers(0, n // 2)), draw(st.integers(n - n // 2, n))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(levi_kottwitz_cases())
@example((4, 1, 2))  # subset sum over the middle block
@example((4, 1, 3))  # subset sum with q exponent 0 (alpha = n - s)
@example((4, 1, 4))  # the single monomial (alpha >= n - s + 1)
@example((4, 2, 2))  # an empty middle block
def test_levi_kottwitz_terms_are_canonical_as_built(case):
    n, s, alpha = case
    f = levi_kottwitz_function(GroupDatum((n,)), s, alpha, PlaceContext(True, 2))
    assert len(f) == (1 if alpha >= n - s + 1 else comb(n - 2 * s, alpha - s))
    for key, c in f.terms():
        assert key == _mono(key) and c == 1


def test_builders_refuse_q_exponents_past_32_bits():
    top = 2**31 - 1
    g2, g4 = GroupDatum((2,)), GroupDatum((4,))
    # n = 2, s = 1 gives q^d; n = 4, s = 1, alpha = 2 gives q^d too
    assert len(kottwitz_function(g2, (1,), PlaceContext(True, top))) == 2
    assert len(levi_kottwitz_function(g4, 1, 2, PlaceContext(True, top))) == 2
    with pytest.raises(ExponentOverflowError):
        kottwitz_function(g2, (1,), PlaceContext(True, top + 1))
    with pytest.raises(ExponentOverflowError):
        levi_kottwitz_function(g4, 1, 2, PlaceContext(True, top + 1))
    # s = 0 puts no q in the terms, so no exponent overflows
    assert kottwitz_function(g2, (0,), PlaceContext(True, 3 * top)) == mono({SIM: -1})


def test_kottwitz_needs_split_over_l():
    with pytest.raises(PlaceError):
        kottwitz_function(GroupDatum((2,)), (1,), PlaceContext(split=False, d=3))


@pytest.mark.parametrize("sizes", [(2,), (4,), (5,), (2, 3), (3, 2)])
@pytest.mark.parametrize("d", [1, 2])
def test_kottwitz_equals_orbit_sum(sizes, d):
    g = GroupDatum(sizes)
    ctx = PlaceContext(split=True, d=d)
    ring = hecke_ring(g, ctx, "source")
    group = ring.generators()
    for s_vec in _s_choices(sizes):
        exps = {SIM: -1}
        for i, s in enumerate(s_vec, start=1):
            for j in range(1, s + 1):
                exps[tor(i, j)] = -1
        seed = mono(exps, q=d * sum(s * (n - s) for s, n in zip(s_vec, sizes)))
        assert kottwitz_function(g, s_vec, ctx) == symmetrize(seed, group)


def _s_choices(sizes):
    out = [()]
    for n in sizes:
        out = [acc + (s,) for acc in out for s in range(n + 1)]
    return out


# -- base change -----------------------------------------------------------------


def test_base_change_inert_not_split_over_l():
    bc = base_change_map(GroupDatum((2,)), PlaceContext(split=False, d=3))
    assert bc.images[SIM] == mono({SIM: 3})
    assert bc.images[tor(1, 1)] == mono({tor(1, 1): 3})


def test_base_change_inert_split_over_l():
    bc = base_change_map(GroupDatum((2,)), INERT2)
    assert bc.images[SIM] == mono({SIM: 2, tor(1, 1): -1})
    assert bc.images[tor(1, 1)] == mono({tor(1, 1): 1})
    assert bc.images[tor(1, 2)] == mono({tor(1, 1): -1})


def test_base_change_split_identity():
    bc = base_change_map(GroupDatum((1,)), SPLIT)
    assert bc.images[SIM] == LaurentPoly.var(SIM)
    assert bc.images[tor(1, 1)] == LaurentPoly.var(tor(1, 1))


def test_base_change_middle_index_for_odd_factor():
    bc = base_change_map(GroupDatum((3,)), INERT2)
    assert bc.images[tor(1, 2)] == LaurentPoly.one()
    assert bc.images[tor(1, 3)] == mono({tor(1, 1): -1})
    assert bc.images[SIM] == LaurentPoly.var(SIM)  # odd factor: central global variable


def test_base_change_lands_in_invariants():
    for g, ctx in [
        (GroupDatum((2,)), INERT2),
        (GroupDatum((3,)), INERT2),
        (GroupDatum((4,)), PlaceContext(split=False, d=4)),
        (GroupDatum((2,)), PlaceContext(split=False, d=3)),
        (GroupDatum((3,)), PlaceContext(split=True, d=2)),
    ]:
        bc = base_change_map(g, ctx)
        target = hecke_ring(g, ctx, "target")
        if ctx.splits_over_l:
            for alpha in range(g.sizes[0] - g.qs[0], g.sizes[0] + 1):
                assert target.contains(bc(kottwitz_function(g, (alpha,), ctx)))
        else:
            src = hecke_ring(g, ctx, "source")
            for _, f in _inert_invariants(src):
                assert target.contains(bc(f))


def _inert_invariants(ring):
    group = ring.generators()
    gens = [("norm", norm_similitude(ring))]
    q1 = ring.datum.qs[0]
    if q1 >= 1:
        gens.append(("orbit t11", symmetrize(LaurentPoly.var(tor(1, 1)), group)))
        gens.append(("orbit sim*t11", symmetrize(norm_similitude(ring) * LaurentPoly.var(tor(1, 1)), group)))
    return gens


# -- transfer -----------------------------------------------------------------------


def test_transfer_split_example():
    tr = transfer_map(GroupDatum((3,)), EndoTriple((1,), (2,)), SPLIT)
    assert tr.images[SIM] == LaurentPoly.var(SIM)
    assert tr.images[tor(1, 1)] == LaurentPoly.var(tor(1, 1))
    assert tr.images[tor(1, 2)] == LaurentPoly.var(tor(2, 1))
    assert tr.images[tor(1, 3)] == LaurentPoly.var(tor(2, 2))


def test_transfer_trivial_datum():
    tr = transfer_map(GroupDatum((2,)), EndoTriple((2,), (0,)), SPLIT)
    assert tr.images[tor(1, 1)] == LaurentPoly.var(tor(1, 1))
    assert tr.images[tor(1, 2)] == LaurentPoly.var(tor(1, 2))


def test_transfer_inert_blockwise():
    tr = transfer_map(GroupDatum((4,)), EndoTriple((2,), (2,)), INERT1)
    assert tr.images[SIM] == LaurentPoly.var(SIM)
    assert tr.images[tor(1, 1)] == LaurentPoly.var(tor(1, 1))
    assert tr.images[tor(1, 2)] == LaurentPoly.var(tor(2, 1))


def test_transfer_image_invariant():
    for n in range(1, 5):
        g = GroupDatum((n,))
        for n2 in range(0, n + 1, 2):
            h = EndoTriple((n - n2,), (n2,))
            target = HeckeRing(h.group_datum(), split_presentation=True)
            tr = transfer_map(g, h, SPLIT)
            for _, f in default_generators(g, SPLIT):
                assert is_invariant(tr(f), target.weyl())


def test_transfer_inert_image_invariant():
    g = GroupDatum((4,))
    h = EndoTriple((2,), (2,))
    tr = transfer_map(g, h, INERT1)
    src = hecke_ring(g, INERT1, "target")
    target = HeckeRing(h.group_datum(), split_presentation=False)
    for _, f in _inert_invariants(src):
        assert target.contains(tr(f))


# -- twisted transfer ------------------------------------------------------------------


def test_twisted_transfer_split_example():
    tw = twisted_transfer_map(GroupDatum((4,)), EndoTriple((2,), (2,)), SPLIT)
    assert tw.images[SIM] == LaurentPoly.var(SIM)
    assert tw.images[tor(1, 1)] == LaurentPoly.var(tor(1, 1))
    assert tw.images[tor(1, 2)] == LaurentPoly.var(tor(1, 2))
    assert tw.images[tor(1, 3)] == mono({tor(2, 1): 1}, coeff=-1)
    assert tw.images[tor(1, 4)] == mono({tor(2, 2): 1}, coeff=-1)


def test_twisted_transfer_no_second_block():
    tw = twisted_transfer_map(GroupDatum((2,)), EndoTriple((2,), (0,)), SPLIT)
    assert all(c > 0 for img in tw.images.values() for _, c in img.terms())


def test_twisted_transfer_rejects_inert_over_l():
    with pytest.raises(PlaceError):
        twisted_transfer_map(GroupDatum((4,)), EndoTriple((2,), (2,)), PlaceContext(split=False, d=3))


def test_twisted_sign_count_pattern():
    """Image of the alpha=1 function carries (-1)^{n(I)} per singleton subset."""
    g = GroupDatum((4,))
    h = EndoTriple((2,), (2,))
    tw = twisted_transfer_map(g, h, SPLIT)
    f = kottwitz_function(g, (1,), SPLIT)
    img = tw(f)
    want = LaurentPoly.zero()
    for i in range(1, 5):
        n_i = 1 if i > 2 else 0
        block, pos = (1, i) if i <= 2 else (2, i - 2)
        want = want + mono({SIM: -1, tor(block, pos): -1}, coeff=(-1) ** n_i, q=3)
    assert img == want


@pytest.mark.parametrize("r1,r2", [(1, 0), (0, 1)])
@pytest.mark.parametrize("alpha", [2, 3, 4])
def test_twisted_block_factorization(r1, r2, alpha):
    """The image of a basic function factors through linear/Hermitian blocks."""
    n = 4
    g = GroupDatum((n,))
    h = EndoTriple((2,), (2,))
    n1, n2 = 2, 2
    tw = twisted_transfer_map(g, h, SPLIT)
    got = tw(kottwitz_function(g, (alpha,), SPLIT))

    a_l1 = list(range(1, r1 + 1)) + list(range(n1 + 1 - r1, n1 + 1))
    a_l2 = [n1 + j for j in range(1, r2 + 1)] + list(range(n + 1 - r2, n + 1))
    a_l = a_l1 + a_l2
    a_h = [i for i in range(1, n + 1) if i not in a_l]

    def image_var(i):
        return (1, i) if i <= n1 else (2, i - n1)

    total = LaurentPoly.zero()
    for k in range(alpha + 1):
        lin = LaurentPoly.zero()
        for i_l in combinations(a_l, k):
            sign = (-1) ** sum(1 for i in i_l if i > n1)
            lin = lin + mono({tor(*image_var(i)): -1 for i in i_l}, coeff=sign)
        herm = LaurentPoly.zero()
        for i_h in combinations(a_h, alpha - k):
            sign = (-1) ** sum(1 for i in i_h if i > n1)
            exps = {SIM: -1}
            exps.update({tor(*image_var(i)): -1 for i in i_h})
            herm = herm + mono(exps, coeff=sign)
        total = total + lin * herm
    total = LaurentPoly.q_power(alpha * (n - alpha)) * total
    assert got == total


# -- Levi operations ----------------------------------------------------------------------


def test_levi_kottwitz_examples():
    g = GroupDatum((3,))
    assert levi_kottwitz_function(g, 1, 3, SPLIT) == mono(
        {SIM: -1, tor(1, 1): -1, tor(1, 2): -1, tor(1, 3): -1}
    )
    assert levi_kottwitz_function(g, 1, 2, SPLIT) == mono(
        {SIM: -1, tor(1, 1): -1, tor(1, 2): -1}
    )
    g4 = GroupDatum((4,))
    want = mono({SIM: -1, tor(1, 1): -1, tor(1, 2): -1}, q=1) + mono(
        {SIM: -1, tor(1, 1): -1, tor(1, 3): -1}, q=1
    )
    assert levi_kottwitz_function(g4, 1, 2, SPLIT) == want


def test_levi_kottwitz_oracle_via_hermitian_block():
    """phi^M = (Z Z_1...Z_s)^{-1} times the size-(n-2s) basic function, reindexed."""
    for n in range(2, 6):
        for s in range(1, n // 2 + 1):
            m = n - 2 * s
            if m == 0:
                continue
            g = GroupDatum((n,))
            gm = GroupDatum((m,))
            for alpha in range(n - n // 2, n - s + 1):
                inner = kottwitz_function(gm, (alpha - s,), PlaceContext(True, 2))
                shift = {tor(1, j): LaurentPoly.var(tor(1, j + s)) for j in range(1, m + 1)}
                shift[SIM] = mono({SIM: 1, **{tor(1, j): 1 for j in range(1, s + 1)}})
                expect = substitute(inner, shift)
                got = levi_kottwitz_function(g, s, alpha, PlaceContext(True, 2))
                assert got == expect


def test_levi_sign_data_validation():
    g = GroupDatum((3,))
    h = EndoTriple((1,), (2,))
    with pytest.raises(ValueError):
        levi_sign_data(g, h, 1, [])  # forces a linear pair into GU*(1)
    assert levi_sign_data(g, h, 1, [1]) == ((1,), 1, 0)
    # A comes back sorted, without repeats
    assert levi_sign_data(GroupDatum((6,)), EndoTriple((2,), (4,)), 2, [2, 1, 2]) == ((1, 2), 2, 0)
    with pytest.raises(ValueError, match="not a subset"):
        levi_twisted_transfer(GroupDatum((4,)), EndoTriple((2,), (2,)), 1, (2,), SPLIT)
    with pytest.raises(ValueError, match="does not match"):
        levi_sign_data(GroupDatum((5,)), h, 1, (1,))  # a U(3) datum


def test_levi_twisted_transfer_table():
    g = GroupDatum((3,))
    h = EndoTriple((1,), (2,))
    bp = oracles.levi_twisted_transfer_s_prime(g, h, 1, [1], SPLIT)
    assert bp.images[tor(1, 1)] == LaurentPoly.var(tor(2, 1))
    assert bp.images[tor(1, 3)] == LaurentPoly.var(tor(2, 2))
    assert bp.images[tor(1, 2)] == LaurentPoly.var(tor(1, 1))
    bm = levi_twisted_transfer(g, h, 1, [1], SPLIT)
    assert bm.images[tor(1, 1)] == mono({tor(2, 1): 1}, coeff=-1)
    assert bm.images[tor(1, 3)] == mono({tor(2, 2): 1}, coeff=-1)
    assert bm.images[tor(1, 2)] == LaurentPoly.var(tor(1, 1))


def test_levi_twisted_trivial_datum_all_positive():
    g = GroupDatum((2,))
    h = EndoTriple((2,), (0,))
    bm = levi_twisted_transfer(g, h, 1, [], SPLIT)
    for img in bm.images.values():
        assert all(c > 0 for _, c in img.terms())


def test_constant_term_checks_invariance():
    g = GroupDatum((3,))
    f = kottwitz_function(g, (2,), SPLIT)
    assert levi_constant_term(f, g, 1, SPLIT) == f
    with pytest.raises(ValueError):
        levi_constant_term(LaurentPoly.var(tor(1, 1)), g, 1, SPLIT)


# -- the compatibility square ---------------------------------------------------------------


def test_transfer_square_trivial():
    rep = verify_transfer_square(
        GroupDatum((2,)), EndoTriple((2,), (0,)), 1, [], SPLIT
    )
    assert rep["failures"] == []


def test_transfer_square_examples():
    rep = verify_transfer_square(
        GroupDatum((3,)), EndoTriple((1,), (2,)), 1, [1], SPLIT
    )
    assert rep["failures"] == []
    rep = verify_transfer_square(
        GroupDatum((4,)), EndoTriple((2,), (2,)), 1, [], SPLIT
    )
    assert rep["failures"] == []
    rep = verify_transfer_square(
        GroupDatum((4,)), EndoTriple((2,), (2,)), 1, [1], SPLIT
    )
    assert rep["failures"] == []


@pytest.mark.parametrize("ctx", [SPLIT, INERT2])
def test_slot_images_give_the_rebuilt_reports(ctx):
    for case in transfer_square_cases(6):
        assert verify_transfer_square(*case, ctx) == transfer_square_by_rebuilding(*case, ctx)


@pytest.mark.parametrize(
    "g, h, s, A",
    [
        (GroupDatum((4,)), EndoTriple((2,), (2,)), 1, [2]),  # A not in 1..s
        (GroupDatum((4,)), EndoTriple((4,), (0,)), 2, [1]),  # inconsistent signs
        (GroupDatum((4,)), EndoTriple((2,), (4,)), 1, []),  # datum of another group
    ],
)
def test_invalid_transfer_square_cases_build_and_keep_nothing(monkeypatch, g, h, s, A):
    built = []
    monkeypatch.setattr(satake, "default_generators", lambda *args: built.append(args))
    with pytest.raises(ValueError):
        verify_transfer_square(g, h, s, A, SPLIT)
    assert built == []


def test_a_passing_sweep_builds_no_generator(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(satake, "default_generators", lambda *args: built.append(args))
    assert cli.run(["verify", "transfer-square", "--n-max", "6", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["cases"] == 354
    assert built == []


def _counted(monkeypatch, owner, name, calls):
    """Replace owner.name by a wrapper that appends (arguments, result) to calls."""
    fn = getattr(owner, name)

    def counted(*args):
        result = fn(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, counted)


def test_a_square_case_checks_each_map_once(monkeypatch):
    """Per case of the --n-max 6 sweep: H is matched against G once in the case's own
    levi_sign_data and once per map; and every ring built is kept by one of the two maps."""
    cases = list(cli.square_cases(6))
    matched, rings, maps = [], [], []
    _counted(monkeypatch, satake, "_require_match", matched)
    _counted(monkeypatch, HeckeRing, "__post_init__", rings)
    _counted(monkeypatch, satake, "_routed_map", maps)
    for case in cases:
        assert verify_transfer_square(*case, SPLIT)["failures"] == []
    assert (len(matched), len(maps)) == (3 * len(cases), 2 * len(cases))
    kept = [id(ring) for _, sub in maps for ring in (sub.source, sub.target)]
    assert sorted(id(args[0]) for args, _ in rings) == sorted(kept)


SQUARE_PLACES = [SPLIT, PlaceContext(split=True, d=2), PlaceContext(split=True, d=3), INERT2]


@pytest.mark.parametrize("ctx", SQUARE_PLACES)
def test_case_count_is_the_number_of_generators(ctx):
    for n in range(1, 13):
        g = GroupDatum((n,))
        count = len(default_generators(g, ctx))
        assert satake.generator_count(n) == count
        assert verify_transfer_square(g, EndoTriple((n,), (0,)), 0, [], ctx)["cases"] == count


FAILURE_KEYS = ["generator", "input", "levi_then_transfer", "transfer_then_levi", "difference"]


def test_a_difference_no_generator_sees_is_reported_by_its_e_k(monkeypatch):
    monkeypatch.setattr(satake, "levi_twisted_transfer", oracles.levi_twisted_transfer_s_prime)
    monkeypatch.setattr(satake, "default_generators", lambda g, ctx: [("Z", LaurentPoly.var(SIM))])
    failing = 0
    for g, h, s, A in transfer_square_cases(6):
        failures = verify_transfer_square(g, h, s, A, SPLIT)["failures"]
        if failures:
            failing += 1
            (record,) = failures
            assert list(record) == FAILURE_KEYS and record["generator"].startswith("e_")
            k, n = int(record["generator"][2:]), g.sizes[0]
            b_levi = oracles.levi_twisted_transfer_s_prime(g, h, s, A, SPLIT)
            assert oracles.differing_elementary(b_levi, twisted_transfer_map(g, h, SPLIT), n) == k
            assert record["input"] == serialize_poly(oracles.elementary(n, k))
    assert failing > 0


SQUARE_CASES = list(transfer_square_cases(8))


def _perturbed(how, v, w):
    """levi_twisted_transfer with the images of slots v and w swapped, or the image of v
    negated ("flip") or multiplied by one of its variables, or by q ("exponent")."""

    def perturbed(*args):
        sub = levi_twisted_transfer(*args)
        images = dict(sub.images)
        if how == "swap":
            images[v], images[w] = images[w], images[v]
        elif how == "flip":
            images[v] = -images[v]
        else:
            ((m, _),) = images[v].terms()
            images[v] = images[v] * (LaurentPoly.var(m[-1][0]) if m else mono({}, q=1))
        return Substitution(sub.source, sub.target, _substitution_table(images))

    return perturbed


@st.composite
def square_maps(draw):
    """A transfer-square case at one of SQUARE_PLACES, and a Levi map: b_{s_M}, the
    s'_M control, or b_{s_M} with one route perturbed."""
    case = draw(st.sampled_from(SQUARE_CASES))
    ctx = draw(st.sampled_from(SQUARE_PLACES))
    how = draw(st.sampled_from(["none", "s'_M", "swap", "flip", "exponent"]))
    if how == "none":
        return case, ctx, levi_twisted_transfer
    if how == "s'_M":
        return case, ctx, oracles.levi_twisted_transfer_s_prime
    j1, j2, *_ = draw(st.permutations(range(1, case[0].sizes[0] + 1)))
    v = SIM if how != "swap" and draw(st.booleans()) else tor(1, j1)
    return case, ctx, _perturbed(how, v, tor(1, j2))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(square_maps())
def test_slot_images_decide_the_square_as_the_generators_do(data):
    (g, h, s, A), ctx, build = data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(satake, "levi_twisted_transfer", build)
        got = verify_transfer_square(g, h, s, A, ctx)
        want = transfer_square_by_rebuilding(g, h, s, A, ctx)
        b_levi = build(g, h, s, A, ctx)
    if want["failures"] or not got["failures"]:
        assert got == want
        return
    # no generator sees the difference: one record names the first e_k that does
    (record,) = got.pop("failures")
    assert got == {key: value for key, value in want.items() if key != "failures"}
    k = oracles.differing_elementary(b_levi, twisted_transfer_map(g, h, ctx), g.sizes[0])
    assert record["generator"] == f"e_{k}" and list(record) == FAILURE_KEYS


@st.composite
def monomial_map_pairs(draw):
    """Two maps of the split ring of GU(n), n <= 7, sending X and each slot to a signed
    q-monomial in three variables.  The second is drawn afresh, or is the first with
    its slot images permuted after no change, one image changed, or a cancelling pair
    m, -m of slot images replaced by c, -c, which e_1 does not see."""
    n = draw(st.integers(1, 7))
    target = hecke_ring(GroupDatum((2,)), SPLIT)
    monomial = st.builds(
        lambda sign, q, e: mono({v: x for v, x in zip(target.variables(), e) if x}, coeff=sign, q=q),
        st.sampled_from([1, -1]), st.integers(0, 1), st.tuples(*[st.integers(-1, 1)] * 3),
    )
    slots = [tor(1, j) for j in range(1, n + 1)]
    first = {SIM: draw(monomial), **{v: draw(monomial) for v in slots}}
    mode = draw(st.sampled_from(["fresh", "permuted", "changed"] + ["cancelling"] * (n >= 2)))
    second = {SIM: draw(monomial), **{v: draw(monomial) for v in slots}} if mode == "fresh" else dict(first)
    if mode == "changed":
        second[draw(st.sampled_from([SIM, *slots]))] = draw(monomial)
    if mode == "cancelling":
        m, c = draw(monomial), draw(monomial)
        first[slots[0]], first[slots[1]] = m, -m
        second[slots[0]], second[slots[1]] = c, -c
    if mode != "fresh":
        order = draw(st.permutations(slots))
        second = {SIM: second[SIM], **{v: second[u] for v, u in zip(slots, order)}}
    source = hecke_ring(GroupDatum((n,)), SPLIT)
    return n, *(Substitution(source, target, _substitution_table(images)) for images in (first, second))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(monomial_map_pairs())
def test_equal_slot_multisets_are_equal_e_k_images(data):
    """The theorem behind verify_transfer_square: with the similitude's images equal,
    the slot images agree as multisets exactly when the images of every e_k agree."""
    n, phi, psi = data
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(satake, "twisted_transfer_map", lambda *args: phi)
        mp.setattr(satake, "levi_twisted_transfer", lambda *args: psi)
        report = verify_transfer_square(GroupDatum((n,)), EndoTriple((n,), (0,)), 0, [], SPLIT)
    agree = phi.images[SIM] == psi.images[SIM] and oracles.differing_elementary(phi, psi, n) is None
    assert (report["failures"] == []) == agree


@pytest.mark.parametrize("ctx", SQUARE_PLACES)
def test_generators_match_the_orbit_sums(ctx):
    for n in range(1, 10):
        g = GroupDatum((n,))
        got = [(label, serialize_poly(f)) for label, f in default_generators(g, ctx)]
        assert got == [(label, serialize_poly(f)) for label, f in oracles.default_generators_by_orbits(g, ctx)]


def test_generators_need_the_group_split_over_l():
    for n in range(1, 10):
        with pytest.raises(PlaceError):
            default_generators(GroupDatum((n,)), INERT1)


def test_maps_are_homomorphisms_on_products():
    rng = random.Random(99)
    g = GroupDatum((3,))
    h = EndoTriple((1,), (2,))
    tw = twisted_transfer_map(g, h, SPLIT)
    gens = [f for _, f in default_generators(g, SPLIT)]
    for _ in range(20):
        f1, f2 = rng.choice(gens), rng.choice(gens)
        assert tw(f1 * f2) == tw(f1) * tw(f2)


@st.composite
def substitution_cases(draw):
    """A morphism of one of the three substitution families and a polynomial
    with int and Fraction coefficients in its source ring's variables."""
    g = GroupDatum(tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))))
    ctx = draw(st.sampled_from([SPLIT, INERT1, INERT2]))
    h = draw(st.sampled_from([t for t, _ in enumerate_endoscopic(g)]))
    build = draw(st.sampled_from(["base", "transfer", "twisted"]))
    if build == "twisted" and not ctx.splits_over_l:
        ctx = SPLIT
    sub = {
        "base": lambda: base_change_map(g, ctx),
        "transfer": lambda: transfer_map(g, h, ctx),
        "twisted": lambda: twisted_transfer_map(g, h, ctx),
    }[build]()
    terms = draw(
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from(sub.source.variables()), st.integers(-2, 2), max_size=3),
                st.fractions(-3, 3, max_denominator=3),
                st.integers(-1, 1),
            ),
            max_size=4,
        )
    )
    return sub, sum((mono(e, c, q) for e, c, q in terms), LaurentPoly.zero())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(substitution_cases())
def test_compiled_substitution_matches_substitute(case):
    sub, f = case
    want = substitute(f, sub.images)
    assert sub(f) == want and sub(f + f) == substitute(f + f, sub.images)
    assert serialize_poly(sub(f)) == serialize_poly(want)


def test_a_bad_image_is_refused_when_compiled_into_a_table():
    """A Substitution holds a table of signed q-monomials, so an image that is not one
    is refused when its images are compiled, before any map is built."""
    images = {SIM: LaurentPoly.var(SIM), tor(1, 1): mono({tor(1, 1): 1}, coeff=2)}
    with pytest.raises(SubstitutionError, match="non-unit coefficient 2"):
        _substitution_table(images)
    with pytest.raises(SubstitutionError, match="not a single term"):
        _substitution_table({**images, tor(1, 1): LaurentPoly.var(SIM) + LaurentPoly.one()})


def test_exponent_identity():
    for n in range(1, 21):
        for r in range(1, n // 2 + 1):
            for alpha in range(n // 2, n + 1):
                assert exponent_identity_holds(n, alpha, r)


def test_twisted_inert_image_invariant():
    """Images at an even-degree inert place land in the H-invariants."""
    ctx = INERT2
    for n, pairs in [(3, ((1,), (2,))), (4, ((2,), (2,))), (4, ((0,), (4,))), (2, ((0,), (2,)))]:
        g = GroupDatum((n,))
        h = EndoTriple(*pairs)
        tw = twisted_transfer_map(g, h, ctx)
        target = HeckeRing(h.group_datum(), split_presentation=False)
        for _, f in default_generators(g, ctx):
            assert target.contains(tw(f))


LAW_GROUPS = [GroupDatum((n,)) for n in range(1, 7)] + [
    GroupDatum((a, b)) for a in range(1, 6) for b in range(1, 7 - a)
]


def _odd_odd(h):
    """True when some factor of h has odd plus and odd minus parts."""
    return any(npl % 2 and nmi % 2 for npl, nmi in h.pairs())


@pytest.mark.parametrize(
    "build, ctxs, keep",
    [
        pytest.param(base_change_map, [SPLIT], None, id="base-split"),
        pytest.param(base_change_map, [INERT1, INERT2], None, id="base-inert"),
        pytest.param(transfer_map, [SPLIT], None, id="transfer-split"),
        pytest.param(transfer_map, [INERT1, INERT2], False, id="transfer-inert"),
        pytest.param(
            transfer_map, [INERT1, INERT2], True, id="transfer-inert-odd-odd",
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="at an inert place, transfer_map routes a slot of a factor whose plus "
                "and minus parts are both odd to X_{f,(n-+1)/2}, a variable the target "
                "ring lacks",
            ),
        ),
        pytest.param(twisted_transfer_map, [SPLIT], None, id="twisted-split"),
        pytest.param(twisted_transfer_map, [INERT2], None, id="twisted-inert"),
    ],
)
def test_source_invariants_map_into_the_target_ring(build, ctxs, keep):
    """The orbit sum of each source variable maps to an invariant of the target
    ring, for every group with r <= 2 and sum n_i <= 6.  Endoscopic data are
    all taken when keep is None, else those for which _odd_odd(h) == keep."""
    subs = []
    for g, ctx in product(LAW_GROUPS, ctxs):
        if build is base_change_map:
            subs.append((g.sizes, ctx, None, base_change_map(g, ctx)))
            continue
        for h, _ in enumerate_endoscopic(g):
            if keep is None or _odd_odd(h) == keep:
                subs.append((g.sizes, ctx, h, build(g, h, ctx)))
    assert subs
    broken = []
    for sizes, ctx, h, sub in subs:
        for v in sub.source.variables():
            f = symmetrize(LaurentPoly.var(v), sub.source.generators())
            if not sub.target.contains(sub(f)):
                broken.append((sizes, ctx, h, v))
    assert broken == []


def test_levi_kottwitz_invariant_under_levi_weyl():
    from satkit.satake import m_ring

    for n in range(2, 6):
        g = GroupDatum((n,))
        for s in range(1, n // 2 + 1):
            ring = m_ring(g, s)
            tables = ring.weyl()
            elements = oracles.weyl_group(oracles.shape_of(ring), ring.levi_linear)
            assert len(tables) == len(elements)
            for alpha in range(n - n // 2, n + 1):
                f = levi_kottwitz_function(g, s, alpha, SPLIT)
                assert all(act(t, f) == f for t in tables)
                assert all(oracles.group_act(w, f, oracles.shape_of(ring)) == f for w in elements)


def test_levi_twisted_image_invariant_under_mh_weyl():
    """b_{s_M} images are invariant under the Hermitian-block Weyl of M_H."""
    g = GroupDatum((4,))
    h = EndoTriple((2,), (2,))
    for A in ([], [1]):
        bm = levi_twisted_transfer(g, h, 1, A, SPLIT)
        lin = (1 - len(A), len(A))
        target = HeckeRing(h.group_datum(), split_presentation=True, levi_linear=lin)
        tables = target.weyl()
        elements = oracles.weyl_group(oracles.shape_of(target), lin)
        assert len(tables) == len(elements) == 2
        for _, f in default_generators(g, SPLIT):
            img = bm(f)  # the constant term is the inclusion
            assert all(act(t, img) == img for t in tables)
            assert all(oracles.group_act(w, img, oracles.shape_of(target)) == img for w in elements)


def test_transfer_two_factor_routing():
    g = GroupDatum((2, 2))
    h = EndoTriple((1, 1), (1, 1))
    tr = transfer_map(g, h, SPLIT)
    assert tr.images[tor(1, 1)] == LaurentPoly.var(tor(1, 1))
    assert tr.images[tor(1, 2)] == LaurentPoly.var(tor(2, 1))
    assert tr.images[tor(2, 1)] == LaurentPoly.var(tor(3, 1))
    assert tr.images[tor(2, 2)] == LaurentPoly.var(tor(4, 1))
    ring = hecke_ring(g, SPLIT, "source")
    target = HeckeRing(h.group_datum(), split_presentation=True)
    f = kottwitz_function(g, (1, 1), SPLIT)
    assert target.contains(tr(f))


def test_base_change_mixed_parity_multi_factor():
    g = GroupDatum((2, 3))
    ctx = PlaceContext(split=False, d=2)
    bc = base_change_map(g, ctx)
    # mixed parity: the global variable is already the central element
    assert bc.images[SIM] == LaurentPoly.var(SIM)
    assert bc.images[tor(2, 2)] == LaurentPoly.one()  # odd middle index
    target = hecke_ring(g, ctx, "target")
    for alpha1 in range(3):
        f = kottwitz_function(g, (alpha1, 1), ctx)
        assert target.contains(bc(f))


def test_m_ring_weyl_is_levi_group():
    from satkit.satake import m_ring

    g = GroupDatum((4,))
    ring = m_ring(g, 1)
    assert len(ring.weyl()) == 2  # permutes the middle block {2,3} only
    f = levi_kottwitz_function(g, 1, 2, SPLIT)
    assert ring.contains(f)
    assert not ring.contains(LaurentPoly.var(tor(1, 2)))


def test_levi_twisted_target_ring_contains_images():
    for n, pairs in [(3, ((1,), (2,))), (4, ((2,), (2,))), (4, ((0,), (4,)))]:
        g = GroupDatum((n,))
        h = EndoTriple(*pairs)
        for s in range(1, n // 2 + 1):
            for bits in range(2**s):
                A = [j + 1 for j in range(s) if bits >> j & 1]
                try:
                    bm = levi_twisted_transfer(g, h, s, A, SPLIT)
                except ValueError:
                    continue
                for _, f in default_generators(g, SPLIT):
                    assert bm.target.contains(bm(f))


def test_transfer_square_inert_even_degree():
    """The compatibility also holds at an inert place of even degree."""
    ctx = INERT2
    for n, pairs in [(3, ((1,), (2,))), (4, ((2,), (2,)))]:
        g = GroupDatum((n,))
        h = EndoTriple(*pairs)
        for s in range(1, n // 2 + 1):
            for bits in range(2**s):
                A = [j + 1 for j in range(s) if bits >> j & 1]
                try:
                    bm = levi_twisted_transfer(g, h, s, A, ctx)
                except ValueError:
                    continue
                bt = twisted_transfer_map(g, h, ctx)
                for _, f in default_generators(g, ctx):
                    assert bm(f) == bt(f)
                    assert bm.target.contains(bm(f))


# -- the routed maps against the hand-written builders -------------------------------------


ROUTED_GROUPS = [GroupDatum(sizes) for r in (1, 2) for sizes in product(range(1, 6), repeat=r)]
ROUTED_PLACES = [PlaceContext(split=split, d=d) for split in (True, False) for d in (1, 2, 3)]
# degrees where an exponent of the images (d, a, or 2a for the inert similitude of even
# factors) just passes 2^31 - 1 or stays within it
EDGE_PLACES = [
    PlaceContext(split=split, d=d) for split in (True, False) for d in (2**31 - 1, 2**31, 3 * 10**9, 2**32)
]
ROUTED_DATA = [h for g in ROUTED_GROUPS for h, _ in enumerate_endoscopic(g)] + [EndoTriple((6,), (0,))]


def _built(build, *args):
    """A builder's images, table, source and target, or the class and message of its
    error; the images compile back into the table."""
    try:
        sub = build(*args)
    except Exception as exc:
        return type(exc), str(exc)
    assert _substitution_table(sub.images) == sub.table
    return sub.as_json_dict(), sub.table, sub.source, sub.target


def test_routed_maps_match_the_hand_written_builders():
    """Every group with r <= 2 and n_i <= 5, every endoscopic datum, split and
    inert places of degree 1-3 and at the 32-bit edge, and every Levi case of the
    transfer-square suite."""
    refused = 0
    for g, ctx in product(ROUTED_GROUPS, ROUTED_PLACES + EDGE_PLACES):
        assert _built(base_change_map, g, ctx) == _built(oracles.base_change_by_hand, g, ctx)
        for h, _ in enumerate_endoscopic(g):
            assert _built(transfer_map, g, h, ctx) == _built(oracles.transfer_by_hand, g, h, ctx)
            got = _built(twisted_transfer_map, g, h, ctx)
            assert got == _built(oracles.twisted_transfer_by_hand, g, h, ctx)
            refused += got[0] is PlaceError
    assert refused > 0  # the odd-degree inert places
    for (g, h, s, A), ctx in product(cli.square_cases(6), ROUTED_PLACES + EDGE_PLACES):
        sd = levi_sign_data(g, h, s, A)
        got = _built(levi_twisted_transfer, g, h, s, A, ctx)
        assert got == _built(oracles.levi_twisted_transfer_by_hand, g, h, s, sd, ctx)
        got = _built(oracles.levi_twisted_transfer_s_prime, g, h, s, A, ctx)
        assert got == _built(oracles.levi_twisted_transfer_by_hand, g, h, s, sd, ctx, "s'_M")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_routed_maps_refuse_what_the_hand_written_builders_refuse(data):
    """Data of other groups, Levi maps of two-factor groups and sets A outside
    1..s give the same error, or the same map, as the hand-written builders;
    the Levi builder by hand is given the sign data wherever levi_sign_data
    accepts, and the library refuses wherever it does not."""
    g = data.draw(st.sampled_from(ROUTED_GROUPS[:5]) | st.sampled_from(ROUTED_GROUPS))
    h = data.draw(st.sampled_from([h for h, _ in enumerate_endoscopic(g)]) | st.sampled_from(ROUTED_DATA))
    ctx = data.draw(st.sampled_from(ROUTED_PLACES + EDGE_PLACES))
    assert _built(transfer_map, g, h, ctx) == _built(oracles.transfer_by_hand, g, h, ctx)
    assert _built(twisted_transfer_map, g, h, ctx) == _built(oracles.twisted_transfer_by_hand, g, h, ctx)
    s = data.draw(st.integers(0, 3))
    A = tuple(sorted(data.draw(st.sets(st.integers(1, s + 1), max_size=s + 1))))
    got = _built(levi_twisted_transfer, g, h, s, A, ctx)
    try:
        sd = levi_sign_data(g, h, s, A)
    except ValueError as exc:
        assert got == (type(exc), str(exc))
    else:
        assert got == _built(oracles.levi_twisted_transfer_by_hand, g, h, s, sd, ctx)


def test_map_building_does_no_ring_arithmetic(monkeypatch):
    """Each builder writes its table directly and a passing square compares tables, so
    with LaurentPoly's arithmetic disabled every map of the routed-map test still builds
    (or is refused as before), and every transfer-square case to n = 8 still passes."""

    def arithmetic(*args):
        raise AssertionError("LaurentPoly arithmetic while building a map")

    for op in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(LaurentPoly, op, arithmetic)
    calls = []
    for g, ctx in product(ROUTED_GROUPS, ROUTED_PLACES + EDGE_PLACES):
        calls.append((base_change_map, g, ctx))
        for h, _ in enumerate_endoscopic(g):
            calls += [(transfer_map, g, h, ctx), (twisted_transfer_map, g, h, ctx)]
    cases = list(product(cli.square_cases(8), ROUTED_PLACES))
    calls += [(levi_twisted_transfer, *case, ctx) for case, ctx in cases]
    built = 0
    for build, *args in calls:
        try:
            build(*args)
        except (PlaceError, ExponentOverflowError):
            continue
        built += 1
    passed = 0
    for case, ctx in cases:
        if ctx.splits_over_l:
            assert verify_transfer_square(*case, ctx)["failures"] == []
            passed += 1
    assert built > len(calls) // 2 and passed == 4 * len(list(cli.square_cases(8)))  # split d = 1..3, inert d = 2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(ROUTED_GROUPS), st.integers(-1, 6))
def test_levi_functions_refuse_the_same_levis(g, s):
    """Every Levi-level function refuses exactly the (G, s) that m_ring refuses:
    two-factor groups, s < 0 and 2s > n.  The trivial datum and A = () leave
    (G, s) as the only thing that can be refused."""
    h = EndoTriple(g.sizes, (0,) * g.r)
    calls = [
        lambda: satake.m_ring(g, s),
        lambda: levi_sign_data(g, h, s, ()),
        lambda: levi_kottwitz_function(g, s, g.sizes[0], SPLIT),
        lambda: levi_constant_term(LaurentPoly.var(SIM), g, s, SPLIT),
        lambda: levi_twisted_transfer(g, h, s, (), SPLIT),
    ]
    errors = []
    for call in calls:
        try:
            call()
        except ValueError as exc:
            errors.append(str(exc))
        else:
            errors.append(None)
    has_levi = g.r == 1 and 0 <= 2 * s <= g.sizes[0]
    assert errors == [None if has_levi else errors[0]] * len(calls)
    assert (errors[0] is None) == has_levi
