"""Weyl group orders, endoscopic enumeration and the coefficient arithmetic."""

from fractions import Fraction
from itertools import permutations as iperms
from itertools import product as iproduct
from math import factorial

import pytest

from satkit.rootdata import (
    EndoTriple,
    GroupDatum,
    ParityError,
    PlaceContext,
    SignedGroupDatum,
    enumerate_endoscopic,
    iota,
    iota_gh,
    k_invariant,
    packet_size,
    pi0_symmetric_space,
    tamagawa,
)

from oracles import (
    Shape, brute_force_endoscopic_classes, canonical_endo, compose, enumerate_endoscopic_by_search, identity, inverse,
    weyl_group, weyl_table,
)
from satkit.satake import HeckeRing


def all_signatures(n_total):
    """All signed data with total size n_total."""
    def compositions(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first,) + rest

    for comp in compositions(n_total):
        choices = [[(p, n - p) for p in range(n + 1)] for n in comp]
        stack = [()]
        for opts in choices:
            stack = [acc + (o,) for acc in stack for o in opts]
        yield from (SignedGroupDatum(s) for s in stack)


def test_weyl_group_orders():
    split = PlaceContext(split=True, d=1)
    inert = PlaceContext(split=False, d=1)
    cases = [(True, (2,), 2), (False, (2,), 2), (True, (3, 2), 12), (False, (4,), 8), (False, (5,), 8)]
    for split, sizes, order in cases:
        assert len(weyl_group(Shape(split, sizes))) == order
        assert len(HeckeRing(GroupDatum(sizes), split).weyl()) == order


@pytest.mark.parametrize(
    "g,ctx",
    [
        (GroupDatum((3,)), PlaceContext(split=True, d=1)),
        (GroupDatum((2, 2)), PlaceContext(split=True, d=1)),
        (GroupDatum((4,)), PlaceContext(split=False, d=1)),
        (GroupDatum((3, 1)), PlaceContext(split=False, d=1)),
    ],
)
def test_weyl_group_table(g, ctx):
    shape = Shape(ctx.split, g.sizes)
    group = weyl_group(shape)
    elems = set(group)
    assert len(elems) == len(group)
    e = identity(Shape(ctx.split, g.sizes))
    assert e in elems
    for w in group:
        assert compose(w, e) == w and compose(e, w) == w
        assert compose(w, inverse(w)) == e
        for v in group:
            assert compose(w, v) in elems
    # the library's tables are those of the elements
    tables = {tuple(sorted(t.items())) for t in HeckeRing(g, ctx.split).weyl()}
    assert tables == {tuple(sorted(weyl_table(w, shape).items())) for w in group}


def test_endoscopy_examples():
    cls3 = enumerate_endoscopic(GroupDatum((3,)))
    assert sorted(t.pairs() for t, _ in cls3) == [((1, 2),), ((3, 0),)]
    assert all(o == 1 for _, o in cls3)

    cls4 = enumerate_endoscopic(GroupDatum((4,)))
    assert len(cls4) == 2
    assert sorted(o for _, o in cls4) == [1, 2]
    by_order = {o: t for t, o in cls4}
    assert by_order[2].pairs() == ((2, 2),)
    # the (4,0) and (0,4) data are swap-isomorphic
    assert canonical_endo(EndoTriple((4,), (0,))) == canonical_endo(EndoTriple((0,), (4,)))


def test_endoscopy_parity_constraint():
    with pytest.raises(ValueError):
        EndoTriple((1,), (2, 1))  # mismatched lengths
    with pytest.raises(ParityError):
        EndoTriple((2, 1), (1, 0))
    # a datum of no group: GroupDatum's refusals
    with pytest.raises(ValueError, match="need at least one factor"):
        EndoTriple((), ())
    with pytest.raises(ValueError, match="factor sizes must be >= 1"):
        EndoTriple((1, 0), (0, 0))


def test_endoscopy_vs_brute_force():
    for n_total in range(1, 9):
        for comp in _compositions(n_total):
            g = GroupDatum(comp)
            classes = enumerate_endoscopic(g)
            brute = brute_force_endoscopic_classes(g)
            assert len(classes) == len(brute)
            # the least member of each class, in the order `endoscopy` prints
            assert [t.pairs() for t, _ in classes] == sorted(min(cls) for cls in brute)
            for t, order in classes:
                assert order == 2 ** sum(1 for a, b in t.pairs() if a == b)


def test_endoscopy_by_rule_matches_the_search():
    """Every group with at most four factors, each of size at most 6."""
    for r in range(1, 5):
        for sizes in iproduct(range(1, 7), repeat=r):
            g = GroupDatum(sizes)
            assert enumerate_endoscopic(g) == enumerate_endoscopic_by_search(g)


def _compositions(n):
    if n == 0:
        return [()]
    return [(first,) + rest for first in range(1, n + 1) for rest in _compositions(n - first)]


def test_tamagawa_examples():
    assert tamagawa(GroupDatum((3,))) == 1
    assert tamagawa(GroupDatum((2, 4))) == 4
    assert tamagawa(GroupDatum((2, 3))) == 2


def test_k_invariant_examples():
    assert k_invariant(SignedGroupDatum(((3, 0),))) == 4
    assert k_invariant(SignedGroupDatum(((1, 1), (1, 1)))) == 2
    assert k_invariant(SignedGroupDatum(((1, 0),))) == 1


def test_packet_size_examples():
    assert packet_size(2, 1) == 3
    assert packet_size(1, 1) == 1
    assert packet_size(3, 2) == 10
    for q in range(1, 9):
        assert packet_size(q, q) == factorial(2 * q) // (2 * factorial(q) ** 2)


def test_packet_size_against_real_weyl_count():
    """d(G) = |S_n| / |W_R| with W_R counted by brute force."""
    for n in range(1, 8):
        for p in range(n + 1):
            q = n - p
            if n < 1:
                continue
            count = 0
            block = set(range(1, p + 1))
            for sigma in iperms(range(1, n + 1)):
                image = {sigma[i - 1] for i in block}
                if image == block or (p == q and image == set(range(p + 1, n + 1))):
                    count += 1
            assert packet_size(p, q) == factorial(n) // count


def test_k_tau_product():
    for n_total in range(1, 9):
        for g in all_signatures(n_total):
            assert k_invariant(g) * tamagawa(g.datum) == 2 ** (n_total - 1)


def test_iota_examples():
    assert iota(GroupDatum((3,)), EndoTriple((3,), (0,))) == 1
    assert iota(GroupDatum((4,)), EndoTriple((2,), (2,))) == Fraction(1, 4)
    assert iota(GroupDatum((3,)), EndoTriple((1,), (2,))) == Fraction(1, 2)


def test_iota_swap_invariance():
    for n_total in range(1, 7):
        for comp in _compositions(n_total):
            g = GroupDatum(comp)
            for cls in brute_force_endoscopic_classes(g):
                vals = {
                    iota(g, EndoTriple(tuple(a for a, _ in t), tuple(b for _, b in t)))
                    for t in cls
                }
                assert len(vals) == 1


def test_iota_gh_examples():
    assert iota_gh(SignedGroupDatum(((1, 0),)), EndoTriple((1,), (0,))) == 1
    g20 = SignedGroupDatum(((2, 0),))
    assert iota_gh(g20, EndoTriple((2,), (0,))) == iota(g20.datum, EndoTriple((2,), (0,)))
    # a (1,1) splitting of GU(1,1) has odd minus part, so it is rejected; the
    # signed subset sum it would carry vanishes: (+1) + (-1) = 0.
    from satkit.rootdata import _signed_subset_sum

    assert _signed_subset_sum(1, 1, 1) == 0
    with pytest.raises(ParityError):
        iota_gh(SignedGroupDatum(((1, 1),)), EndoTriple((1,), (1,)))
    # balanced even case: GU(2,2) against the (2,2) splitting
    g22 = SignedGroupDatum(((2, 2),))
    h22 = EndoTriple((2,), (2,))
    expect = iota(g22.datum, h22) * Fraction(_signed_subset_sum(2, 2, 2), 2)
    assert iota_gh(g22, h22) == expect


def test_pi0_symmetric_space():
    assert pi0_symmetric_space(SignedGroupDatum(((2, 1),))) == 1
    assert pi0_symmetric_space(SignedGroupDatum(((1, 1),))) == 2
    assert pi0_symmetric_space(SignedGroupDatum(((1, 1), (2, 2)))) == 4


def test_place_context_degrees():
    assert PlaceContext(split=True, d=3).a == 3
    assert PlaceContext(split=False, d=4).a == 2
    assert PlaceContext(split=False, d=3).a is None
    assert PlaceContext(split=False, d=3).splits_over_l is False
    assert PlaceContext(split=False, d=2).splits_over_l is True
    with pytest.raises(TypeError):  # a is derived from (split, d), not set
        PlaceContext(split=True, d=2, a=1)
