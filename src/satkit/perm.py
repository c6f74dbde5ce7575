"""Permutations of 1..n in one-line notation, and the groups of block permutations.

A permutation w is the tuple (w(1), ..., w(n)) of its 1-based images.  The
block groups are products of symmetric groups on runs of consecutive
positions: the Weyl groups of the standard Levi subgroups that characters
walks.  The relative Weyl groups of the Satake models are not built here:
laurent.weyl_group closes their generators under composition.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import List, Sequence, Tuple

Perm = Tuple[int, ...]


def inverse(w: Sequence[int]) -> Perm:
    out = [0] * len(w)
    for pos, img in enumerate(w, start=1):
        out[img - 1] = pos
    return tuple(out)


def parity(w: Sequence[int]) -> int:
    """The sign (-1)^(number of inversions of w), read off the number of even-length cycles."""
    seen = [False] * len(w)
    sign = 1
    for start in range(len(w)):
        if seen[start]:
            continue
        j, size = start, 0
        while not seen[j]:
            seen[j] = True
            j = w[j] - 1
            size += 1
        if size % 2 == 0:
            sign = -sign
    return sign


def act(w: Sequence[int], v: Sequence) -> tuple:
    """(w.v)_i = v_{w^{-1}(i)}: the entry at position j moves to position w(j)."""
    out = [None] * len(v)
    for j, img in enumerate(w):
        out[img - 1] = v[j]
    return tuple(out)


def block_perms(blocks: Sequence[Sequence[int]]) -> List[Perm]:
    """The permutations moving each block of positions only within itself.

    The blocks are runs of consecutive positions that partition 1..n, in
    increasing order.  Elements come in the product order of the blocks'
    lexicographic permutation orders.
    """
    factors = [list(permutations(b)) for b in blocks]
    if len(factors) == 1:  # the whole symmetric group: skip the concatenation
        return factors[0]
    return [sum(combo, ()) for combo in product(*factors)]
