"""The permutation helpers, and the Levi Weyl groups as ordered subgroups of the full one."""

from itertools import combinations, permutations, product

import pytest

from satkit import perm
from satkit.characters import KostantDatum
from satkit.laurent import WeylShape, weyl_group

from oracles import length, weyl_order

SHAPES = [(1,), (2,), (3,), (4,), (5,), (2, 1), (2, 2), (3, 2), (4, 4)]


def _inversions(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


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
@pytest.mark.parametrize("sizes", SHAPES)
def test_levi_weyl_group_is_ordered_subgroup(split, sizes):
    shape = WeylShape(split=split, sizes=sizes)
    full = weyl_group(shape)
    assert len(full) == weyl_order(shape)
    for linear in product(*(range(n // 2 + 1) for n in sizes)):
        levi = weyl_group(shape, linear)
        assert levi == tuple(w for w in full if _fixes_linear(w, split, sizes, linear))


def test_parity_is_sign_of_length():
    for n in range(7):
        for w in permutations(range(1, n + 1)):
            assert perm.parity(w) == (-1) ** length(w)
            assert length(w) == _inversions(w)


def test_inverse_and_act():
    v = ("a", "b", "c", "d")
    for w in permutations(range(1, 5)):
        inv = perm.inverse(w)
        assert perm.act(w, perm.act(inv, v)) == v
        assert perm.act(w, v) == tuple(v[inv[i] - 1] for i in range(4))


def test_block_perms_move_within_blocks():
    blocks = [(1, 2), (3,), (4, 5, 6)]
    elements = list(perm.block_perms(blocks))
    assert len(elements) == 2 * 1 * 6
    assert elements[0] == (1, 2, 3, 4, 5, 6) and elements[1] == (1, 2, 3, 4, 6, 5)
    for w in elements:
        assert all(sorted(w[b[0] - 1 : b[-1]]) == list(b) for b in blocks)


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
