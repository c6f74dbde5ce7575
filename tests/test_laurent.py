"""Ring laws, group actions, symmetrization and the canonical JSON form."""

import ast
import copy
import json
import os
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    Shape,
    WeylElement,
    act_monomial_by_cases,
    apply_by_mono,
    compose,
    group_act,
    has_merged_terms,
    identity,
    in_canonical_order,
    power_by_squaring,
    pretty_by_records,
    serialize_by_sorting,
    serialize_poly_by_records,
    slots,
    sum_terms_by_addition,
    symmetrize_by_mono,
    symmetrize_over_group,
    tor_subset_sum_by_merging,
    weyl_generators_by_elements,
    weyl_group,
    weyl_group_by_blocks,
    weyl_order,
    weyl_table,
)

import satkit
from satkit.laurent import (
    INT32_MAX,
    QVAR,
    SIM,
    ExponentOverflowError,
    LaurentPoly,
    SubstitutionError,
    act,
    is_invariant,
    parse_poly,
    pretty,
    serialize_poly,
    substitute,
    symmetrize,
    tor,
    _image,
    _mono,
    _substitution_table,
    _tor_subset_sum,
    _WalkedPoly,
)
from satkit.characters import frobenius_trace
from satkit.rootdata import EndoTriple, GroupDatum, PlaceContext, SignedGroupDatum
from satkit.satake import HeckeRing, kottwitz_function, levi_kottwitz_function, transfer_map, twisted_transfer_map

VARS = [SIM, tor(1, 1), tor(1, 2), tor(2, 1)]


def random_poly(rng, nterms=4, span=3):
    total = LaurentPoly.zero()
    for _ in range(rng.randint(0, nterms)):
        exps = {v: rng.randint(-span, span) for v in rng.sample(VARS, rng.randint(0, len(VARS)))}
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        total = total + LaurentPoly.monomial(exps, coeff=coeff, q_exp=rng.randint(-2, 2))
    return total


coeffs = st.integers(-5, 5)
exps = st.integers(-3, 3)


@st.composite
def polys(draw):
    total = LaurentPoly.zero()
    for _ in range(draw(st.integers(0, 4))):
        mono = {v: draw(exps) for v in draw(st.sets(st.sampled_from(VARS), max_size=3))}
        c = draw(coeffs)
        total = total + LaurentPoly.monomial(mono, coeff=c, q_exp=draw(st.integers(-2, 2)))
    return total


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys(), polys(), polys())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * LaurentPoly.one() == a
    assert (a + (-a)).is_zero()


canonical_monos = st.builds(
    lambda exps, q: next(LaurentPoly.monomial(exps, q_exp=q).terms())[0],
    st.dictionaries(st.sampled_from(VARS), st.integers(-1, 1), max_size=2),
    st.integers(-1, 1),
)
int_or_fraction = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def term_lists(draw):
    """(monomial, coefficient) pairs from a small pool of monomials, so that
    monomials repeat, plus the negations of some pairs, so that terms cancel."""
    pairs = draw(st.lists(st.tuples(canonical_monos, int_or_fraction), max_size=8))
    cancel = draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []
    return draw(st.permutations(pairs + [(m, -c) for m, c in cancel]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(term_lists())
@example([])
def test_from_terms_matches_repeated_addition(pairs):
    fast = LaurentPoly.from_terms(iter(pairs))
    assert fast == sum_terms_by_addition(pairs)
    assert all(is_exact_coefficient(c) and c != 0 for _, c in fast.terms())


@st.composite
def subset_sum_cases(draw):
    """A head, with or without q, and 1-3 factors (slots, k, e): slots need not start at 1,
    and k may be 0, every slot or one past them (no subset, so the zero polynomial)."""
    q_exp, sim_exp = draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
    head = ((QVAR, q_exp),) * (q_exp != 0) + ((SIM, sim_exp),) * (sim_exp != 0)
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        start, size = draw(st.integers(1, 3)), draw(st.integers(0, 4))
        k = draw(st.one_of(st.just(0), st.just(size), st.just(size + 1), st.integers(0, size)))
        factors.append((range(start, start + size), k, draw(st.sampled_from([-3, -1, 0, 1, 2]))))
    return head, factors


@settings(max_examples=300, deadline=None, derandomize=True)
@given(subset_sum_cases())
@example(((), [(range(1, 4), 2, 0), (range(2, 4), 1, 0)]))  # every term is the head, 3 * 2 times
@example((((QVAR, 1),), [(range(1, 3), 3, -1), (range(1, 3), 1, 0)]))  # k past the slots
@example((((SIM, -1),), [(range(2, 5), 2, 2), (range(1, 3), 1, 0), (range(1, 2), 1, -3)]))
# the comma edges of serialize_poly's rows: no leading comma after an empty head and a
# factor with k = 0, no trailing one before such a factor, a head-only row, no row at all
@example(((), [(range(1, 3), 0, 2), (range(1, 4), 2, -1)]))
@example((((QVAR, 1),), [(range(1, 4), 1, 1), (range(2, 4), 0, -1)]))
@example((((QVAR, -2), (SIM, 1)), [(range(1, 4), 1, 0), (range(2, 4), 2, 0)]))
@example((((SIM, 1),), [(range(1, 4), 2, 1), (range(1, 3), 3, 0)]))  # multiplier C(2, 3) = 0
def test_tor_subset_sum_adopts_what_merging_would_build(case):
    head, factors = case
    merged = tor_subset_sum_by_merging(head, factors)
    # serialize_poly writes the rows from the walk alone, unsorted; the terms are built when
    # first read.  Either may come first: written, then read ...
    f = _tor_subset_sum(head, factors)
    text = serialize_poly(f)
    assert text == serialize_poly(merged) == serialize_by_sorting(merged)
    assert f == merged and has_merged_terms(f) and in_canonical_order(f)
    assert f.is_zero() == (text == "[]") and len(f) == len(merged)
    # ... and read, then written
    g = _tor_subset_sum(head, factors)
    assert g == merged and has_merged_terms(g) and in_canonical_order(g)
    assert serialize_poly(g) == text and serialize_by_sorting(g) == text
    # a copy of an unread walk reads the same terms
    h = _tor_subset_sum(head, factors)
    assert copy.copy(h) == h == merged


def _built(f):
    """Whether f's term dict exists: a walked polynomial leaves the _terms slot unset."""
    try:
        LaurentPoly._terms.__get__(f, LaurentPoly)
    except AttributeError:
        return False
    return True


@pytest.mark.parametrize(
    "build",
    [
        lambda: kottwitz_function(GroupDatum((5, 3)), (2, 1), PlaceContext(split=True, d=2)),
        lambda: levi_kottwitz_function(GroupDatum((9,)), 2, 5, PlaceContext(split=True, d=1)),  # subset sum
        lambda: levi_kottwitz_function(GroupDatum((9,)), 2, 8, PlaceContext(split=True, d=1)),  # one monomial
        lambda: frobenius_trace(SignedGroupDatum(((2, 1), (1, 2))), 2, PlaceContext(split=False, d=1)),
    ],
    ids=["kottwitz", "levi-subsets", "levi-monomial", "frobenius"],
)
def test_serialize_poly_builds_no_term_dict(build):
    f = build()
    text = serialize_poly(f)
    assert not _built(f)
    assert parse_poly(text) == f and _built(f)
    assert serialize_poly(f) == text


def test_only_a_walk_builds_terms_on_read():
    f = _tor_subset_sum(((SIM, 1),), [(range(1, 3), 1, 1)])
    with pytest.raises(AttributeError, match="bogus"):
        f.bogus
    assert not hasattr(f, "__setstate__") and not _built(f)
    with pytest.raises(AttributeError, match="_walk"):  # neither slot set
        _WalkedPoly.__new__(_WalkedPoly)._terms
    assert not LaurentPoly.var(SIM)._walk and not hasattr(LaurentPoly, "__getattr__")


@pytest.mark.parametrize(
    "value, message",
    [(0.1, "not an int or a Fraction"), (True, "not an int or a Fraction"), (0, "cannot take the value 0")],
    ids=["float", "bool", "zero-at-negative-exponent"],
)
def test_evaluate_refuses_a_value_that_is_not_exact_or_not_invertible(value, message):
    # the bad value sits in the second term, after a term that evaluates
    f = LaurentPoly.var(QVAR, 2) + LaurentPoly.monomial({SIM: -1, tor(1, 1): 2})
    with pytest.raises(ValueError, match=r"variable \('s',\).*" + message):
        f.evaluate({QVAR: Fraction(1), SIM: value, tor(1, 1): Fraction(2)})
    with pytest.raises(ValueError, match=r"variable \('s',\)"):
        LaurentPoly.var(SIM, -1).evaluate({SIM: value})
    assert LaurentPoly.var(SIM, 2).evaluate({SIM: 0}) == 0 == LaurentPoly.var(SIM).evaluate({SIM: Fraction(0)})
    assert LaurentPoly.var(SIM, -2).evaluate({SIM: 3}) == Fraction(1, 9)


def is_exact_coefficient(c):
    """An int when integral, else a Fraction with denominator > 1; never a float or a bool."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def with_fraction_coefficients(f):
    """f with every coefficient stored as a Fraction, integral ones included."""
    return LaurentPoly._adopt({m: Fraction(c) for m, c in f.terms()})


unit_terms = st.builds(
    lambda exps, sign, q: LaurentPoly.monomial(exps, coeff=sign, q_exp=q),
    st.dictionaries(st.sampled_from(VARS), exps, max_size=3),
    st.sampled_from((1, -1)),
    st.integers(-2, 2),
)
images = st.fixed_dictionaries({v: unit_terms for v in VARS})
SHAPE_OF_VARS = Shape(split=True, sizes=(2, 1))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(polys(), polys(), unit_terms, st.integers(0, 3), images)
def test_int_coefficients_match_fraction_coefficients(a, b, unit, k, imgs):
    gens = ring_of(SHAPE_OF_VARS).generators()
    ops = [
        lambda a, b, u: a + b,
        lambda a, b, u: a - b,
        lambda a, b, u: a * b,
        lambda a, b, u: -a,
        lambda a, b, u: a**k,
        lambda a, b, u: u ** -(k + 1),
        lambda a, b, u: a * 3,
        lambda a, b, u: Fraction(-3, 2) * a,
        lambda a, b, u: a * Fraction(4, 2),
        lambda a, b, u: substitute(a, imgs),
        lambda a, b, u: symmetrize(a, gens),
    ]
    fa, fb, fu = map(with_fraction_coefficients, (a, b, unit))
    for op in ops:
        got, want = op(a, b, unit), op(fa, fb, fu)
        assert got == want
        assert serialize_poly(got) == serialize_poly(want)
        assert pretty(got) == pretty(want)
        assert all(is_exact_coefficient(c) for _, c in got.terms())


@pytest.mark.parametrize(
    "build",
    [
        lambda: LaurentPoly.const(0.5),
        lambda: LaurentPoly.const(2.0),
        lambda: LaurentPoly.monomial({SIM: 1}, coeff=0.25),
        lambda: LaurentPoly.from_terms([((), 1), ((), 0.0)]),
        lambda: LaurentPoly.var(SIM) * 1.5,
    ],
)
def test_float_coefficients_are_refused(build):
    with pytest.raises(TypeError):
        build()


def test_bool_coefficients_are_stored_as_ints():
    assert [type(c) for _, c in LaurentPoly.const(True).terms()] == [int]
    assert LaurentPoly.monomial({SIM: 1}, coeff=True) == LaurentPoly.var(SIM)


def library_modules():
    """(file name, syntax tree) for each module of src/satkit."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "satkit")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def test_library_has_no_float_literals_or_calls():
    found = []
    for name, tree in library_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((name, node.lineno, node.value))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                found.append((name, node.lineno, "float("))
    assert found == []


def test_library_has_no_unused_imports():
    # __init__.py imports only to re-export; satake imports substitute for the
    # benchmark's span test, as its comment says
    kept = {("__init__.py", name) for name in satkit.__all__} | {("satake.py", "substitute")}
    found = []
    for name, tree in library_modules():
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used and (name, bound) not in kept:
                        found.append((name, node.lineno, bound))
    assert found == []


def test_make_monomial_examples():
    assert LaurentPoly.monomial({}) == LaurentPoly.one()
    xinv = LaurentPoly.monomial({SIM: -1})
    assert xinv * LaurentPoly.var(SIM) == LaurentPoly.one()
    m = LaurentPoly.monomial({tor(1, 1): 2, tor(1, 2): -2})
    assert m.coeff(((tor(1, 1), 2), (tor(1, 2), -2))) == 1


def test_mul_hand_expansion():
    t11, t12 = LaurentPoly.var(tor(1, 1)), LaurentPoly.var(tor(1, 2))
    assert (t11 + t12) * (t11 - t12) == t11 * t11 - t12 * t12


def test_exponent_overflow():
    big = LaurentPoly.monomial({SIM: 2**30})
    with pytest.raises(ExponentOverflowError):
        big * big * big


@st.composite
def one_term_powers(draw):
    """A one-term polynomial and a power k: k in -3..5 when its coefficient is +-1,
    0..5 otherwise; the coefficient is an int or a Fraction, at times stored as a
    Fraction when integral."""
    exps_of_vars = draw(st.dictionaries(st.sampled_from(VARS), exps, max_size=3))
    unit = draw(st.booleans())
    c = draw(st.sampled_from((1, -1)) if unit else int_or_fraction.filter(bool))
    f = LaurentPoly.monomial(exps_of_vars, coeff=c, q_exp=draw(st.integers(-2, 2)))
    k = draw(st.integers(-3 if unit else 0, 5))
    return (with_fraction_coefficients(f) if draw(st.booleans()) else f), k


@settings(max_examples=200, deadline=None, derandomize=True)
@given(one_term_powers())
def test_one_term_power_matches_square_and_multiply(case):
    f, k = case
    got, want = f**k, power_by_squaring(f, k)
    assert got == want and got.is_term() and serialize_poly(got) == serialize_poly(want)
    assert all(is_exact_coefficient(c) for _, c in got.terms())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from(VARS), exps, st.integers(-2, 2), st.integers(0, 4))
def test_ring_entry_points_take_integers_only(v, e, q_exp, k):
    binomial = LaurentPoly.var(v) + LaurentPoly.one()
    calls = [
        ("e", lambda x: LaurentPoly.var(v, x), e),
        ("exps", lambda x: LaurentPoly.monomial({v: x}, q_exp=q_exp), e),
        ("q_exp", lambda x: LaurentPoly.monomial({v: e}, q_exp=x), q_exp),
        ("k", LaurentPoly.q_power, q_exp),
        ("k", lambda x: binomial**x, k),
        ("k", lambda x: LaurentPoly.var(v) ** x, k),
    ]
    for name, call, n in calls:
        for x in (float(n), n + 0.5):
            with pytest.raises(ValueError, match=f"^{name} takes integers only"):
                call(x)
    # ints build what the constructors built before they checked
    assert LaurentPoly.var(v, e) == LaurentPoly({_mono([(v, e)]): 1})
    assert LaurentPoly.monomial({v: e}, q_exp=q_exp) == LaurentPoly({_mono([(v, e), (QVAR, q_exp)]): 1})
    assert LaurentPoly.q_power(q_exp) == LaurentPoly({_mono([(QVAR, q_exp)]): 1})
    assert binomial**k == power_by_squaring(binomial, k)


def test_one_term_power_checks_only_its_own_exponents():
    x = LaurentPoly.var(SIM)
    assert x**INT32_MAX == LaurentPoly.monomial({SIM: INT32_MAX})
    with pytest.raises(ExponentOverflowError, match="^exponent 3000000000 exceeds 32-bit range$"):
        x**3_000_000_000
    with pytest.raises(ExponentOverflowError, match="^exponent 2147483648 exceeds"):
        power_by_squaring(x, 3_000_000_000)  # an intermediate square overflows first
    with pytest.raises(ValueError, match="unit coefficient"):
        LaurentPoly.monomial({SIM: 1}, coeff=2) ** -1
    with pytest.raises(ValueError, match="non-monomial"):
        (x + LaurentPoly.one()) ** -1


def test_substitute_examples():
    z = LaurentPoly.var(SIM)
    assert substitute(z, {SIM: LaurentPoly.monomial({SIM: 3})}) == LaurentPoly.monomial({SIM: 3})
    z1, z2 = LaurentPoly.var(tor(1, 1)), LaurentPoly.var(tor(1, 2))
    images = {
        tor(1, 1): LaurentPoly.var(tor(1, 1)),
        tor(1, 2): LaurentPoly.var(tor(2, 1)) * Fraction(-1),
    }
    assert substitute(z1 + z2, images) == LaurentPoly.var(tor(1, 1)) - LaurentPoly.var(tor(2, 1))
    # homomorphism spot check.
    assert substitute(z1 * z2, images) == substitute(z1, images) * substitute(z2, images)
    # a -1 image changes the sign of odd powers only, negative ones included.
    def power(v, e):
        return LaurentPoly.monomial({v: e})

    f = power(tor(1, 2), -3) + power(tor(1, 2), -2) + power(tor(1, 2), 2) + power(tor(1, 2), 3)
    expected = -power(tor(2, 1), -3) + power(tor(2, 1), -2) + power(tor(2, 1), 2) - power(tor(2, 1), 3)
    assert substitute(f, images) == expected


def test_substitute_is_homomorphism_random():
    rng = random.Random(7)
    images = {
        SIM: LaurentPoly.monomial({SIM: 2}, q_exp=1),
        tor(1, 1): LaurentPoly.monomial({tor(2, 1): 1}, coeff=-1),
        tor(1, 2): LaurentPoly.monomial({tor(1, 1): -1}),
        tor(2, 1): LaurentPoly.monomial({tor(1, 2): 1, SIM: 1}),
    }
    for _ in range(40):
        f, g = random_poly(rng), random_poly(rng)
        assert substitute(f * g, images) == substitute(f, images) * substitute(g, images)


def test_substitute_missing_image():
    with pytest.raises(SubstitutionError):
        substitute(LaurentPoly.var(tor(1, 1)), {})


def test_substitute_rejects_non_monomial_image():
    img = LaurentPoly.var(tor(1, 1)) + LaurentPoly.var(tor(1, 2))
    with pytest.raises(SubstitutionError):
        substitute(LaurentPoly.var(SIM), {SIM: img})


def ring_of(shape, linear=None):
    """The Satake model whose invariance group is the shape's Weyl group, or with
    `linear` that of its standard Levi."""
    return HeckeRing(GroupDatum(shape.sizes), shape.split, linear)


def frozen(table):
    """A table as a hashable, sorted tuple of its entries."""
    return tuple(sorted(table.items()))


def test_group_act_split_transposition():
    shape = Shape(split=True, sizes=(2,))
    (t,) = ring_of(shape).generators()
    assert t == weyl_table(WeylElement(((2, 1),)), shape)
    assert act(t, LaurentPoly.var(tor(1, 1))) == LaurentPoly.var(tor(1, 2))


def test_group_act_identity():
    rng = random.Random(5)
    shape = Shape(split=True, sizes=(2, 1))
    e = weyl_table(identity(shape), shape)
    assert e in ring_of(shape).weyl()
    for _ in range(10):
        f = random_poly(rng)
        assert act(e, f) == f


def test_group_act_inert_similitude_adjustment():
    # n=2 inert: the sign flip multiplies the global similitude by X_{1,1}^{-1}.
    (flip,) = ring_of(Shape(split=False, sizes=(2,))).generators()
    assert act(flip, LaurentPoly.var(SIM)) == LaurentPoly.monomial({SIM: 1, tor(1, 1): -1})
    # with an odd factor present the global variable is central, hence fixed
    shape2 = Shape(split=False, sizes=(2, 3))
    flip2 = ring_of(shape2).generators()[0]
    assert flip2 == weyl_table(WeylElement(((-1,), (1,))), shape2)
    assert act(flip2, LaurentPoly.var(SIM)) == LaurentPoly.var(SIM)


COMPOSITION_SHAPES = [
    Shape(split=True, sizes=(3,)),
    Shape(split=True, sizes=(2, 2)),
    Shape(split=False, sizes=(3,)),
    Shape(split=False, sizes=(4,)),
    Shape(split=False, sizes=(2, 2)),
    Shape(split=False, sizes=(2, 3)),
]


@pytest.mark.parametrize("shape", COMPOSITION_SHAPES)
def test_group_action_composition(shape):
    rng = random.Random(11)
    group = weyl_group(shape)
    assert len(group) == len(ring_of(shape).weyl()) == weyl_order(shape)
    vars_ = [SIM] + [
        tor(i, j)
        for i, n in enumerate(shape.sizes, start=1)
        for j in range(1, (n if shape.split else n // 2) + 1)
    ]
    for _ in range(15):
        f = LaurentPoly.zero()
        for _ in range(3):
            exps = {v: rng.randint(-2, 2) for v in rng.sample(vars_, 2)}
            f = f + LaurentPoly.monomial(exps, coeff=rng.randint(-3, 3))
        w1, w2 = rng.choice(group), rng.choice(group)
        t1, t2, t12 = (weyl_table(w, shape) for w in (w1, w2, compose(w1, w2)))
        assert act(t12, f) == act(t1, act(t2, f))


GENERATED_GROUPS = [(shape, None) for shape in COMPOSITION_SHAPES] + [
    (Shape(split=True, sizes=(4,)), (1,)),
    (Shape(split=True, sizes=(5,)), (2,)),
    (Shape(split=True, sizes=(4, 3)), (1, 1)),
    (Shape(split=False, sizes=(4,)), (1,)),
    (Shape(split=False, sizes=(4,)), (2,)),
    (Shape(split=False, sizes=(5, 2)), (1, 0)),
    (Shape(split=False, sizes=(6, 1)), (1, 0)),
]


@pytest.mark.parametrize("shape, linear", GENERATED_GROUPS)
def test_weyl_generators_generate_the_group(shape, linear):
    gens = ring_of(shape, linear).generators()
    assert len(gens) <= sum(shape.sizes)
    assert list(gens) == [weyl_table(w, shape) for w in weyl_generators_by_elements(shape, linear)]
    # the library's closure of the generator tables is the tables of the element group
    want = {frozen(weyl_table(w, shape)) for w in weyl_group(shape, linear)}
    assert {frozen(t) for t in ring_of(shape, linear).weyl()} == want


@pytest.mark.parametrize("shape, linear", GENERATED_GROUPS)
def test_weyl_group_matches_the_block_enumeration(shape, linear):
    # the Levi's group is the Weyl group of its movable blocks, of sizes n_i - 2 linear[i]
    linear_ = linear or (0,) * len(shape.sizes)
    movable = Shape(shape.split, tuple(n - 2 * lin for n, lin in zip(shape.sizes, linear_)))
    group = ring_of(shape, linear).weyl()
    assert [frozen(t) for t in group] == sorted(map(frozen, group))
    assert len(set(map(frozen, group))) == len(group) == weyl_order(movable)
    assert set(map(frozen, group)) == {frozen(weyl_table(w, shape)) for w in weyl_group_by_blocks(shape, linear)}
    assert set(weyl_group(shape, linear)) == set(weyl_group_by_blocks(shape, linear))


LEVI_SHAPES = [(1,), (2,), (3,), (4,), (5,), (2, 1), (2, 2), (3, 2), (4, 4)]


def _fixes_linear(w, split, sizes, linear):
    """Whether w fixes the first linear[i] slots of each factor (their signs included,
    as entries are signed), and at split places their mirrors too."""
    for i, (n, lin) in enumerate(zip(sizes, linear)):
        for j in range(1, lin + 1):
            if w.perms[i][j - 1] != j:
                return False
            if split and w.perms[i][n - j] != n + 1 - j:
                return False
    return True


@pytest.mark.parametrize("split", [True, False])
@pytest.mark.parametrize("sizes", LEVI_SHAPES)
def test_levi_weyl_group_is_ordered_subgroup(split, sizes):
    shape = Shape(split=split, sizes=sizes)
    full = weyl_group(shape)
    full_tables = [frozen(t) for t in ring_of(shape).weyl()]
    assert len(full) == len(full_tables) == weyl_order(shape)
    for linear in product(*(range(n // 2 + 1) for n in sizes)):
        levi = weyl_group(shape, linear)
        assert levi == tuple(w for w in full if _fixes_linear(w, split, sizes, linear))
        # the library's Levi tables: those of the elements above, in the full group's order
        fixing = {frozen(weyl_table(w, shape)) for w in levi}
        assert [frozen(t) for t in ring_of(shape, linear).weyl()] == [t for t in full_tables if t in fixing]


@st.composite
def weyl_shapes(draw, max_size):
    """A split or inert shape with 1-3 factors of size up to max_size."""
    split = draw(st.booleans())
    sizes = tuple(draw(st.lists(st.integers(1, max_size), min_size=1, max_size=3)))
    shape = Shape(split=split, sizes=sizes)
    assume(weyl_order(shape) <= 240)
    return shape


@st.composite
def ring_polys(draw, shape):
    """A polynomial in SIM, the torus variables of the shape's ring and q, with
    negative exponents."""
    vars_ = [SIM] + [
        tor(i, j)
        for i, n in enumerate(shape.sizes, start=1)
        for j in range(1, (n if shape.split else n // 2) + 1)
    ]
    terms = draw(
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from(vars_), st.integers(-2, 2), max_size=4),
                st.integers(-3, 3),
                st.integers(-2, 2),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return sum((LaurentPoly.monomial(e, coeff=c, q_exp=q) for e, c, q in terms), LaurentPoly.zero())


@st.composite
def weyl_cases(draw):
    """A shape with factors of size up to 5, a random Levi linear part and a
    polynomial of its ring."""
    shape = draw(weyl_shapes(5))
    linear = draw(st.one_of(st.none(), st.tuples(*(st.integers(0, n // 2) for n in shape.sizes))))
    return shape, linear, draw(ring_polys(shape))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_group_act_matches_action_by_cases(data):
    shape = data.draw(weyl_shapes(4))
    f = data.draw(ring_polys(shape))
    for w in weyl_group(shape):
        want = LaurentPoly.from_terms((act_monomial_by_cases(w, m, shape), c) for m, c in f.terms())
        assert act(weyl_table(w, shape), f) == group_act(w, f, shape) == want


@pytest.mark.parametrize(
    "shape, v",
    [
        (Shape(split=False, sizes=(4,)), tor(2, 1)),
        (Shape(split=False, sizes=(4,)), tor(1, 3)),
        (Shape(split=True, sizes=(2,)), tor(1, 3)),
    ],
)
def test_weyl_action_rejects_variables_outside_the_ring(shape, v):
    f = LaurentPoly.var(v) + LaurentPoly.var(SIM)
    gens = ring_of(shape).generators()
    with pytest.raises(SubstitutionError):
        act(gens[0], f)
    with pytest.raises(SubstitutionError):
        is_invariant(f, gens)
    with pytest.raises(SubstitutionError):
        symmetrize(f, gens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weyl_cases())
def test_generators_match_full_group(case):
    shape, linear, f = case
    ring = ring_of(shape, linear)
    gens, group = ring.generators(), ring.weyl()
    orbit = symmetrize(f, gens)
    assert orbit == symmetrize_over_group(f, weyl_group(shape, linear), shape)
    assert symmetrize(f, group) == orbit
    assert is_invariant(orbit, group)
    for g in (f, orbit, orbit + f, symmetrize(f, ring_of(shape).generators())):
        assert is_invariant(g, gens) == is_invariant(g, group)


# -- slot tables against the Weyl elements they replace --------------------------------


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weyl_cases())
def test_generator_tables_are_the_element_tables(case):
    shape, linear, _ = case
    want = [weyl_table(w, shape) for w in weyl_generators_by_elements(shape, linear)]
    assert list(ring_of(shape, linear).generators()) == want


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weyl_cases())
def test_ring_weyl_tables_are_the_block_enumeration(case):
    shape, linear, _ = case
    tables = ring_of(shape, linear).weyl()
    want = {frozen(weyl_table(w, shape)) for w in weyl_group_by_blocks(shape, linear)}
    assert set(map(frozen, tables)) == want
    linear_ = linear or (0,) * len(shape.sizes)
    assert len(tables) == weyl_order(Shape(shape.split, tuple(n - 2 * s for n, s in zip(shape.sizes, linear_))))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weyl_cases())
def test_tables_act_as_the_elements_do(case):
    shape, linear, f = case
    for w in weyl_group(shape, linear):
        assert act(weyl_table(w, shape), f) == group_act(w, f, shape)


# -- the memoised term kernel against the one-pass image --------------------------------

BIG = 2**16 + 1  # BIG * BIG and 2 * INT32_MAX pass 32 bits; BIG alone does not
kernel_exps = st.one_of(st.integers(-3, 3), st.sampled_from([BIG, -BIG, INT32_MAX, -INT32_MAX]))
kernel_coeffs = st.one_of(st.integers(-3, 3), st.builds(Fraction, st.integers(-9, 9), st.integers(2, 5)))


@st.composite
def kernel_polys(draw, vars_, outside=None, exps=kernel_exps):
    """Up to 5 terms over vars_ with int and Fraction coefficients, and exponents
    (q too) drawn from exps: by default small or wide enough that an image exponent
    can pass 32 bits.  One time in four the variable outside joins vars_."""
    if outside is not None and draw(st.integers(0, 3)) == 0:
        vars_ = [*vars_, outside]
    exps_of_vars = st.dictionaries(st.sampled_from(vars_), exps, max_size=4)
    terms = draw(st.lists(st.tuples(exps_of_vars, kernel_coeffs, exps), max_size=5))
    return LaurentPoly.from_terms((_mono([*exps.items(), (QVAR, q)]), c) for exps, c, q in terms)


def outcome(fn, *args):
    """fn's result with canonical monomials, or the type of the kernel error it raised."""
    try:
        out = fn(*args)
    except (ExponentOverflowError, SubstitutionError) as exc:
        return type(exc)
    assert all(m == _mono(m) for m, _ in out.terms())
    return out


def signed_images(exps, shifts):
    """Signed q-monomials over the first three VARS, with exponents from exps and q
    shifts from shifts."""
    return st.builds(
        lambda exps, sign, q: LaurentPoly.monomial(exps, coeff=sign, q_exp=q),
        st.dictionaries(st.sampled_from(VARS[:3]), st.sampled_from(exps), max_size=2),
        st.sampled_from((1, -1)),
        st.sampled_from(shifts),
    )


# Images of VARS over its first three variables, so that source variables share a
# target, directly or inverted; a q shift of BIG passes 32 bits at an exponent of BIG.
colliding_images = st.dictionaries(
    st.sampled_from(VARS), signed_images((1, -1, 2, -2, BIG, -BIG), (0, 1, -1, BIG))
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(colliding_images, kernel_polys(VARS))
@example(  # two products past 32 bits cancel: no error
    {SIM: LaurentPoly.var(tor(1, 1), BIG), tor(1, 2): LaurentPoly.var(tor(1, 1), -BIG)},
    LaurentPoly.monomial({SIM: BIG, tor(1, 2): BIG}, coeff=Fraction(1, 3)),
)
@example(  # one product past 32 bits
    {SIM: LaurentPoly.var(tor(1, 1), BIG), tor(1, 2): LaurentPoly.var(tor(1, 2))},
    LaurentPoly.monomial({SIM: BIG, tor(1, 2): 1}),
)
@example(  # a q shift past 32 bits, and two that cancel
    {SIM: LaurentPoly.q_power(BIG), tor(1, 1): LaurentPoly.q_power(-BIG)},
    LaurentPoly.monomial({SIM: BIG}) + LaurentPoly.monomial({SIM: BIG, tor(1, 1): BIG}),
)
@example({SIM: LaurentPoly.var(SIM)}, LaurentPoly.monomial({tor(1, 1): 1}))  # no image
def test_substitute_matches_the_one_pass_image(imgs, f):
    table = _substitution_table(imgs)
    want = outcome(apply_by_mono, table, f)
    assert outcome(substitute, f, imgs) == want
    assert outcome(act, table, f) == want


# Tables with an image for every one of VARS, small exponents only: past 32 bits the
# composite and the two maps in turn may refuse differently.
small_tables = st.fixed_dictionaries({v: signed_images((1, -1, 2, -2), (0, 1, -1)) for v in VARS}).map(
    _substitution_table
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_tables, small_tables, kernel_polys(VARS, exps=st.integers(-3, 3)))
def test_composing_tables_is_the_image_of_each_entry(t1, t2, f):
    composite = {v: _image(t2, {}, m, c) for v, (m, c) in t1.items()}
    assert act(composite, f) == act(t2, act(t1, f))


@st.composite
def weyl_kernel_cases(draw):
    """A shape and a polynomial in its ring variables, at times also in one outside it."""
    shape = draw(weyl_shapes(4))
    vars_ = [SIM]
    for i, n in enumerate(shape.sizes, 1):
        vars_ += [tor(i, j) for j in range(1, (n if shape.split else n // 2) + 1)]
    return shape, draw(kernel_polys(vars_, outside=tor(9, 1)))


INERT_4 = Shape(split=False, sizes=(4,))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weyl_kernel_cases())
# inert sign flips send X_{1,1} and the similitude variable to X_{1,1}^{+-1} both:
# the summed exponent passes 32 bits, or cancels
@example((INERT_4, LaurentPoly.monomial({SIM: INT32_MAX, tor(1, 1): INT32_MAX})))
@example((INERT_4, LaurentPoly.monomial({SIM: -BIG, tor(1, 1): BIG}, coeff=Fraction(-2, 3))))
def test_weyl_actions_match_the_one_pass_image(case):
    shape, f = case
    for w in weyl_group(shape):
        assert outcome(act, weyl_table(w, shape), f) == outcome(group_act, w, f, shape)
    gens = ring_of(shape).generators()
    assert outcome(symmetrize, f, gens) == outcome(symmetrize_by_mono, f, gens)


INERT2 = PlaceContext(split=False, d=2)


@pytest.mark.parametrize(
    "build, g, h, ctx",
    [
        (transfer_map, (4, 3), ((2, 1), (2, 2)), PlaceContext(split=False, d=1)),
        # twisted transfer at an inert place of even degree: X_{f,j} and X_{f,n+1-j}
        # resolve to one variable, inverted, and the similitude to a torus product
        (twisted_transfer_map, (4,), ((2,), (2,)), INERT2),
        (twisted_transfer_map, (4, 2), ((4, 0), (0, 2)), INERT2),
        (twisted_transfer_map, (3, 2), ((1, 2), (2, 0)), PlaceContext(split=True, d=3)),
    ],
)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_transfer_maps_match_the_one_pass_image(build, g, h, ctx, data):
    sub = build(GroupDatum(g), EndoTriple(*h), ctx)
    f = data.draw(kernel_polys(sorted(sub.images), outside=tor(9, 1)))
    assert outcome(sub, f) == outcome(apply_by_mono, _substitution_table(sub.images), f)


def test_symmetrize_examples():
    group = ring_of(Shape(split=True, sizes=(2,))).weyl()
    const = LaurentPoly.const(Fraction(5, 3))
    assert symmetrize(const, group) == const
    orb = symmetrize(LaurentPoly.var(tor(1, 1)), group)
    assert orb == LaurentPoly.var(tor(1, 1)) + LaurentPoly.var(tor(1, 2))

    group3 = ring_of(Shape(split=True, sizes=(3,))).weyl()
    f = LaurentPoly.monomial({SIM: -1, tor(1, 1): -1})
    got = symmetrize(f, group3)
    want = sum(
        (LaurentPoly.monomial({SIM: -1, tor(1, j): -1}) for j in (2, 3)),
        LaurentPoly.monomial({SIM: -1, tor(1, 1): -1}),
    )
    assert got == want


def test_symmetrize_output_invariant():
    rng = random.Random(3)
    for shape in [Shape(split=True, sizes=(3,)), Shape(split=False, sizes=(4,))]:
        group = ring_of(shape).weyl()
        vars_ = [SIM] + [tor(1, j) for j in range(1, slots(shape)[0] + 1)]
        for _ in range(10):
            exps = {v: rng.randint(-2, 2) for v in vars_}
            f = LaurentPoly.monomial(exps, coeff=rng.randint(1, 3))
            assert is_invariant(symmetrize(f, group), group)


def test_is_invariant_examples():
    group = ring_of(Shape(split=True, sizes=(2,))).weyl()
    assert is_invariant(LaurentPoly.const(2), group)
    assert not is_invariant(LaurentPoly.var(tor(1, 1)), group)
    assert is_invariant(LaurentPoly.var(tor(1, 1)) + LaurentPoly.var(tor(1, 2)), group)


def test_serialization_fixed_forms():
    cases = [
        (LaurentPoly.zero(), "0", "[]"),
        (LaurentPoly.one(), "1", '[{"q":0,"num":1,"den":1,"exps":{}}]'),
        (LaurentPoly.q_power(-2) * -1, "-q^-2", '[{"q":-2,"num":-1,"den":1,"exps":{}}]'),
        (
            LaurentPoly.monomial({SIM: 1, tor(1, 2): -3}, coeff=Fraction(2, 3)),
            "2/3*X*X_1_2^-3",
            '[{"q":0,"num":2,"den":3,"exps":{"X":1,"X_1_2":-3}}]',
        ),
    ]
    for f, text, json_text in cases:
        assert pretty(f) == text
        assert serialize_poly(f) == json_text
        assert parse_poly(json_text) == f


def test_serialization_round_trip_seeded():
    rng = random.Random(2024)
    for _ in range(300):
        f = random_poly(rng, nterms=6)
        text = serialize_poly(f)
        assert parse_poly(text) == f
        assert serialize_poly(parse_poly(text)) == text


# tor(1, 10) sorts after tor(1, 2) although its name "X_1_10" sorts before "X_1_2"
FORM_VARS = [SIM, tor(1, 1), tor(1, 2), tor(1, 10), tor(2, 1), tor(12, 3)]


@st.composite
def form_polys(draw):
    """Sums of up to 8 terms over FORM_VARS, with Fraction, negative and unit
    coefficients, q-only and constant terms, and negative exponents."""
    pairs = []
    for _ in range(draw(st.integers(0, 8))):
        exps = [(v, draw(st.integers(-3, 3))) for v in draw(st.sets(st.sampled_from(FORM_VARS), max_size=4))]
        q_exp = draw(st.sampled_from([0, 0, 1, -1, draw(st.integers(-4, 4))]))
        c = draw(st.sampled_from([1, -1, Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))]))
        pairs.append((_mono(exps + [(QVAR, q_exp)]), c))
    return LaurentPoly.from_terms(pairs)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(form_polys())
@example(LaurentPoly.zero())
@example(LaurentPoly.const(Fraction(-3, 4)))
@example(LaurentPoly.q_power(3) * -1 + LaurentPoly.q_power(-1) + LaurentPoly.const(2))
@example(
    LaurentPoly.monomial({tor(1, 10): 1}) + LaurentPoly.monomial({tor(1, 2): -1}, q_exp=1)
    + LaurentPoly.monomial({SIM: -1, tor(1, 2): 1}, coeff=Fraction(-1, 2))
)
def test_serialize_and_pretty_match_the_record_oracle(f):
    text = serialize_poly(f)
    assert text == serialize_poly_by_records(f) == serialize_by_sorting(f)
    assert pretty(f) == pretty_by_records(f)
    assert parse_poly(text) == f


@pytest.mark.parametrize(
    "record",
    [
        {"q": 0, "num": 1.7, "den": 1, "exps": {"X": 1.9}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X": 1.9}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X": 2.0}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X": True}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X": "1"}},
        {"q": True, "num": 1, "den": 1, "exps": {}},
        {"q": 1.0, "num": 1, "den": 1, "exps": {}},
        {"q": None, "num": 1, "den": 1, "exps": {}},
        {"q": 0, "num": "3", "den": 1, "exps": {}},
        {"q": 0, "num": 3.0, "den": 1, "exps": {}},
        {"q": 0, "num": False, "den": 1, "exps": {}},
        {"q": 0, "den": 1, "exps": {}},
        {"q": 0, "num": 1, "den": 0, "exps": {}},
        {"q": 0, "num": 1, "den": 2.0, "exps": {}},
        {"q": 0, "num": 1, "den": True, "exps": {}},
        # structure serialize_poly never writes
        [1],
        1,
        {"q": 0, "num": 1, "den": 1},
        {"q": 0, "num": 1, "den": 1, "exps": []},
        # values serialize_poly never writes
        {"q": 0, "num": 1, "den": -2, "exps": {}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X_01": 1, "X_1": 1}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X_0": 1}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X_1_0": 1}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X_1_02": 1}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X_1\n": 1}},
        {"q": 0, "num": 1, "den": 1, "exps": {"X_\u0661": 1}},  # an Arabic-Indic digit one
        {"q": 0, "num": 1, "den": 1, "exps": {"X_1": 1}},  # no variable has one index
    ],
)
def test_parse_poly_refuses_non_integer_fields(record):
    with pytest.raises(ValueError):
        parse_poly(json.dumps([record]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(subset_sum_cases(), kernel_polys(VARS, exps=st.integers(-3, 3)), st.integers(0, 2))
@example((((QVAR, 1), (SIM, -1)), [(range(1, 4), 1, 1)]), LaurentPoly.zero(), 2)
def test_only_builders_mark_their_terms_as_in_canonical_order(case, g, k):
    f = _tor_subset_sum(*case)
    assert f._walk and not g._walk
    text = serialize_poly(f)
    assert parse_poly(text) == f and pretty(f) == pretty_by_records(f)
    inverse = {v: (((v, -1),), -1) for v in f.variables() | g.variables()}
    results = [
        f + g, g + f, f - g, -f, f * g, f * 3, f ** (k if len(f) <= 16 else min(k, 1)), act(inverse, f),
        symmetrize(f, [inverse]), parse_poly(text), LaurentPoly.from_terms(f.terms()), LaurentPoly(dict(f.terms())),
    ]
    for r in results:
        assert not r._walk
        assert serialize_poly(r) == serialize_by_sorting(r) and pretty(r) == pretty_by_records(r)


def test_parse_poly_accepts_wide_integers_and_a_missing_q():
    f = parse_poly('[{"num":%d,"den":3,"exps":{"X_1_2":-2}}]' % (2**70))
    assert f == LaurentPoly.monomial({tor(1, 2): -2}, coeff=Fraction(2**70, 3))
