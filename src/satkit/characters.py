"""Discrete-series combinatorics: signed partition identities, Kostant
cohomology with weight truncation, Weyl characters, endoscopic weight
transfer and the Frobenius-trace subset sums.

All weight bookkeeping is integral: the half-sum of positive roots is
stored doubled (2*rho), and the truncation pairings are evaluated on
doubled weight vectors, so every comparison is exact integer arithmetic.
Conventions: positive roots are e_i - e_j for i < j, dominant weights are
non-increasing within each block, and the minimal-length coset
representatives are the permutations whose inverse is increasing on each
Levi block.  Every permutation walked is built together with its sign or
its length; none has its sign read off after it is built.
"""

from __future__ import annotations

from functools import cache
from fractions import Fraction
from itertools import accumulate, combinations, permutations, product
from math import comb, factorial, lcm, prod
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .laurent import (
    INT32_MAX, SIM, ExponentOverflowError, LaurentPoly, _check_exp, _tor_subset_sum, tor,
)
from .rootdata import EndoTriple, PlaceContext, SignedGroupDatum, _ints, _Record


class HypothesisError(ValueError):
    """The vector violates the positivity hypothesis of the rotation lemma."""


class WallError(ValueError):
    """A truncation pairing vanished; the weight sits on a wall."""


class UnsupportedCaseError(ValueError):
    """The requested case has undetermined signs and is deliberately not modelled."""


# -- signed partition identities ------------------------------------------------


def _scale_to_ints(lam: Sequence) -> List[int]:
    """Clear denominators: an exact positive rescaling preserving all sign tests."""
    if all(type(x) is int for x in lam):
        return list(lam)
    fracs = [Fraction(x) for x in lam]
    denom = lcm(*(x.denominator for x in fracs))
    return [int(x * denom) for x in fracs]


def _prefix_positive_mask(v: Sequence[int]) -> int:
    """Bitmask with bit r-1 set iff v_1 + ... + v_r > 0."""
    mask = 0
    run = 0
    for r, x in enumerate(v):
        run += x
        if run > 0:
            mask |= 1 << r
    return mask


def _compositions(k: int) -> Iterator[Tuple[List[int], int]]:
    """Each subset S of {1..k} containing k, as its sorted cuts r_1 < ... < r_m = k,
    with the multinomial k!/w_S, where w_S = r_1! (r_2 - r_1)! ... (k - r_{m-1})!.
    The subsets come in the order of the bitmasks of their cuts below k."""
    for bits in range(2 ** (k - 1)):
        cuts = [r + 1 for r in range(k - 1) if bits >> r & 1] + [k]
        yield cuts, factorial(k) // prod(factorial(b - a) for a, b in zip([0] + cuts, cuts))


def partial_sum_signature(lam: Sequence) -> Fraction:
    """The weighted signed count of permutations with positive partial sums.

    Sum over subsets S of {1..n} containing n of (-1)^{|S|} / w_S times the
    number of permutations sigma with sum_{i<=r} sigma(lam)_i > 0 for every
    r in S, where w_S = r_1! * prod (r_{i+1} - r_i)!.  Exact rational
    evaluation; equals (-1)^n when every entry is positive and 0 otherwise.
    """
    lam = _scale_to_ints(lam)
    n = len(lam)
    if n == 0:
        raise ValueError("empty vector")
    mask_counts: Dict[int, int] = {}
    for p in permutations(lam):
        m = _prefix_positive_mask(p)
        mask_counts[m] = mask_counts.get(m, 0) + 1
    total = 0  # the sum scaled by n!, in which every 1 / w_S is an integer
    for s_set, multinomial in _compositions(n):
        s_mask = sum(1 << (r - 1) for r in s_set)
        count = sum(c for m, c in mask_counts.items() if m & s_mask == s_mask)
        total += (-1) ** len(s_set) * count * multinomial
    return Fraction(total, factorial(n))


def _subset_sums(lam: Sequence[int]) -> List[int]:
    """sums[A] = the sum of lam[i] over the set bits i of the mask A."""
    sums = [0]
    for x in lam:
        sums += [s + x for s in sums]
    return sums


def ordered_partition_sum(lam: Sequence) -> int:
    """Signed count of ordered set partitions with positive prefix block sums.

    Each ordered partition (I_1, ..., I_k) of {1..n} whose block-sum vector
    has all prefix sums positive contributes (-1)^k.  The prefix unions form a
    chain of subsets with positive sums: h(A) = -[sum_A > 0] * sum of h(B)
    over the proper subsets B of A, with h({}) = 1, gives h({1..n}) in O(3^n).
    """
    lam = _scale_to_ints(lam)
    if not lam:
        raise ValueError("empty vector")
    sums = _subset_sums(lam)
    h = [0] * len(sums)
    h[0] = 1
    for a in range(1, len(sums)):
        if sums[a] > 0:
            total = 1  # h of the empty set
            b = (a - 1) & a
            while b:
                total += h[b]
                b = (b - 1) & a
            h[a] = -total
    return h[-1]


def _hypothesis_holds(sums: List[int]) -> bool:
    total = sums[-1]  # {A, complement} has both sums positive iff 0 < sums[A] < total
    return total > 0 and not any(0 < x < total for x in sums[1 : len(sums) // 2])


def two_partition_hypothesis(lam: Sequence) -> bool:
    """True when the total is positive and no 2-partition has both sums positive."""
    return _hypothesis_holds(_subset_sums(_scale_to_ints(lam)))


def rotation_orbit_hits(lam: Sequence) -> int:
    """Number of cyclic rotations of lam with all prefix sums positive, in O(n).

    With prefix sums P_1..P_n, the rotation that starts after position k has
    the prefix sums P_j - P_k for j > k, then P_n - P_k + P_j for j <= k.  So
    it counts exactly when P_k is below every later P_j and
    P_n - P_k + min_{j<=k} P_j > 0.  One accumulate pass gives the minima up
    to each k; the later minima are kept walking back from the end.
    """
    prefix = list(accumulate(_scale_to_ints(lam)))
    if not prefix:
        return 0
    total = prefix[-1]
    hits = 0
    later = total + 1  # no prefix sum follows P_n
    for p, earlier in zip(reversed(prefix), reversed(list(accumulate(prefix, min)))):
        if p < later:
            hits += total - p + earlier > 0
            later = p
    return hits


def positive_rotation_count(lam: Sequence) -> int:
    """Count permutations with all prefix sums positive; (n-1)! under the hypothesis.

    Requires a positive total and no 2-partition with both block sums
    positive (HypothesisError otherwise).  The prefix sets of such a
    permutation form a maximal chain of subsets with positive sums:
    f(A) = [sum_A > 0] * sum of f(A - {x}) over x in A, with f({}) = 1,
    counts them in O(2^n n).
    """
    lam = _scale_to_ints(lam)
    if not lam:
        raise ValueError("empty vector")
    sums = _subset_sums(lam)
    if not _hypothesis_holds(sums):
        raise HypothesisError("total <= 0 or a 2-partition with positive parts exists")
    f = [0] * len(sums)
    f[0] = 1
    for a in range(1, len(sums)):
        if sums[a] > 0:
            rest = a
            while rest:
                bit = rest & -rest
                f[a] += f[a ^ bit]
                rest ^= bit
    return f[-1]


# -- weights ---------------------------------------------------------------------


class Weight(_Record):
    """A similitude weight together with one integer vector per factor."""

    FIELDS = ("a", "blocks")

    def __init__(self, a: int, blocks: Tuple[Tuple[int, ...], ...]):
        (a,) = _ints("a", a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "blocks", tuple(_ints("blocks", *b) for b in blocks))

    def is_dominant(self) -> bool:
        return all(all(b[i] >= b[i + 1] for i in range(len(b) - 1)) for b in self.blocks)

    def is_regular(self) -> bool:
        return all(all(b[i] > b[i + 1] for i in range(len(b) - 1)) for b in self.blocks)

    def block_total(self) -> int:
        return sum(sum(b) for b in self.blocks)


# -- Kostant cohomology with truncation -------------------------------------------


def _signed_perms(items: Sequence) -> Iterator[Tuple[tuple, int]]:
    """The orderings of items in the order of itertools.permutations, each with
    the sign of its permutation of the positions (for increasing items, the
    lexicographic order and the ordering's own sign).  The orderings of k
    positions come in k runs: run i puts position i first, ahead of the i
    smaller positions, which adds i inversions to those of an ordering of the
    other k - 1 positions, and every run lists these in the same order."""
    signs = [1]
    for k in range(2, len(items) + 1):
        signs = [-t if i & 1 else t for i in range(k) for t in signs]
    return zip(permutations(items), signs)


def _signed_block_perms(blocks: Sequence[Sequence[int]]) -> List[Tuple[Tuple[int, ...], int]]:
    """The permutations moving each block of positions only within itself, with
    their signs.  The blocks are runs of consecutive positions that partition
    1..n, in increasing order; elements come in the product order of the
    blocks' lexicographic orders, and a sign is the product of its blocks'."""
    factors = [list(_signed_perms(b)) for b in blocks]
    return [
        (sum((w for w, _ in combo), ()), prod(sign for _, sign in combo)) for combo in product(*factors)
    ]


def _act(w: Sequence[int], v: Sequence) -> tuple:
    """(w.v)_i = v_{w^{-1}(i)}: the entry at position j moves to position w(j)."""
    out = [None] * len(v)
    for j, img in enumerate(w):
        out[img - 1] = v[j]
    return tuple(out)


def levi_blocks(n: int, s_set: Iterable[int]) -> List[List[int]]:
    """Position blocks of the standard Levi attached to a subset of {1..q}."""
    (n,), rs = _ints("n", n), sorted(set(_ints("s_set", *s_set)))
    if any(r < 1 or 2 * r > n for r in rs):
        raise ValueError(f"invalid Levi subset {rs} for n={n}")
    cuts = [0] + rs
    blocks = [list(range(a + 1, b + 1)) for a, b in zip(cuts, cuts[1:])]
    top = rs[-1] if rs else 0
    middle = list(range(top + 1, n - top + 1))
    mirror = [[n + 1 - j for j in reversed(b)] for b in reversed(blocks)]
    out = blocks + ([middle] if middle else []) + mirror
    return [b for b in out if b]


def rho2(n: int) -> Tuple[int, ...]:
    """Twice the half-sum of positive roots: (n-1, n-3, ..., 1-n)."""
    return tuple(n - 1 - 2 * i for i in range(n))


def pairing_pi(vec: Sequence[int], r: int) -> int:
    """Pairing with the coweight diag(t I_r, 1, t^{-1} I_r): prefix minus mirrored suffix."""
    n = len(vec)
    return sum(vec[:r]) - sum(vec[n - r :])


def pairing_coroot(vec: Sequence[int], r: int) -> int:
    """Pairing with the r-th real coroot: vec_r - vec_{n+1-r}."""
    return vec[r - 1] - vec[len(vec) - r]


@cache
def _shuffles(sizes: Tuple[int, ...]) -> Dict[Tuple[int, ...], int]:
    """The permutations w of 1..n whose inverse maps each run of consecutive
    values (of the given sizes, in order) to an increasing set, each mapped to
    its length, sorted by length and then lexicographically.  Each run of
    w^{-1} takes an increasing set of the values left; the j-th (from 0), at
    index i of them, exceeds the i - j values left behind below it, and these
    pairs are all the inversions.  The cache keeps every table a session walks;
    that memory buys the reuse: in a discrete-series benchmark pass it answers
    65 of 76 calls, whose tables would take about 29 ms to build again (Python
    3.11 on a 2-core x86-64 machine)."""

    def inverses(free: Tuple[int, ...], rest: Tuple[int, ...]):
        # w^{-1} in one-line form, with its number of inversions
        if not rest:
            yield (), 0
            return
        index = {x: i for i, x in enumerate(free)}
        k = rest[0]
        for chosen in combinations(free, k):
            left = tuple(x for x in free if x not in chosen)
            crossings = sum(map(index.__getitem__, chosen)) - k * (k - 1) // 2
            for tail, length in inverses(left, rest[1:]):
                yield chosen + tail, crossings + length

    values = tuple(range(1, sum(sizes) + 1))
    graded = []
    for inv, length in inverses(values, sizes):
        w = [0] * len(inv)
        for pos, img in enumerate(inv, start=1):
            w[img - 1] = pos
        graded.append((length, tuple(w)))
    return {w: length for length, w in sorted(graded)}


class KostantDatum(_Record):
    """GU(p, q) together with a Levi subset S' of {1..q}."""

    FIELDS = ("p", "q", "s_set")

    def __init__(self, p: int, q: int, s_set: frozenset):
        s_set = frozenset(_ints("s_set", *s_set))
        (p,), (q,) = _ints("p", p), _ints("q", q)
        if p < 0 or q < 0 or p + q < 1:
            raise ValueError("need p >= 0, q >= 0 and p + q >= 1")
        if any(r < 1 or r > q for r in s_set):
            raise ValueError(f"S'={sorted(s_set)} not inside 1..{q}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "s_set", s_set)

    @property
    def n(self) -> int:
        return self.p + self.q

    def blocks(self) -> List[List[int]]:
        return levi_blocks(self.n, self.s_set)

    def levi_order(self) -> int:
        out = 1
        for b in self.blocks():
            out *= factorial(len(b))
        return out

    def coset_reps(self) -> Dict[Tuple[int, ...], int]:
        """Permutations whose inverse is increasing on each Levi block, each
        mapped to its length, in order of length and then lexicographically."""
        return dict(_shuffles(tuple(len(b) for b in self.blocks())))

    def levi_group(self) -> List[Tuple[Tuple[int, ...], int]]:
        """Block permutations with their signs."""
        return _signed_block_perms(self.blocks())


class KostantEntry(_Record):
    """One cohomology summand: the coset representative, its length, and the
    doubled highest weight 2(w(lambda) - rho) together with 2 w(lambda)."""

    FIELDS = ("degree", "omega", "weight2", "shifted2")

    def __init__(
        self, degree: int, omega: Tuple[int, ...], weight2: Tuple[int, ...], shifted2: Tuple[int, ...]
    ):
        (degree,) = _ints("degree", degree)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "weight2", weight2)
        object.__setattr__(self, "shifted2", shifted2)


def _doubled_weight(weight: Weight, n: int) -> Tuple[int, ...]:
    """2 * weight, for a dominant regular weight with a single block of length n."""
    if len(weight.blocks) != 1 or len(weight.blocks[0]) != n:
        raise ValueError("weight must have a single block of length p + q")
    if not (weight.is_dominant() and weight.is_regular()):
        raise ValueError("weight must be dominant regular")
    return tuple(2 * x for x in weight.blocks[0])


def kostant_cohomology(kd: KostantDatum, weight: Weight) -> List[KostantEntry]:
    """Kostant's decomposition of the nilpotent-radical cohomology.

    The input weight is the rho-shifted infinitesimal character (dominant
    regular); each minimal-length coset representative w contributes the
    Levi-dominant summand with doubled highest weight 2 w(weight) - 2 rho
    in degree equal to the length of w; entries come by degree, then by w.
    """
    lam2 = _doubled_weight(weight, kd.n)
    r2 = rho2(kd.n)
    out = []
    for w, length in kd.coset_reps().items():
        shifted2 = _act(w, lam2)
        weight2 = tuple(x - y for x, y in zip(shifted2, r2))
        out.append(KostantEntry(length, w, weight2, shifted2))
    return out


def _truncation_keeps(shifted2: Sequence[int], rs: Sequence[int], want_pos: bool, omega) -> bool:
    """Whether the pairings with the truncation coweights r in rs, tested in
    that order, all have the wanted sign; a vanishing one raises WallError."""
    for r in rs:
        val = pairing_pi(shifted2, r)
        if val == 0:
            raise WallError(f"pairing with coweight {r} vanishes for {omega}")
        if (val > 0) != want_pos:
            return False
    return True


def truncate_cohomology(
    entries: Sequence[KostantEntry], s_set: Iterable[int], direction: str
) -> List[KostantEntry]:
    """Keep entries whose shifted weight pairs strictly positively (or
    negatively) with every truncation coweight indexed by S'.

    A vanishing pairing is a wall collision and raises WallError.
    """
    if direction not in (">", "<"):
        raise ValueError("direction must be '>' or '<'")
    rs = sorted(set(_ints("s_set", *s_set)))
    return [e for e in entries if _truncation_keeps(e.shifted2, rs, direction == ">", e.omega)]


# -- the phi identity ---------------------------------------------------------------


def verify_phi_identity(p: int, q: int, s: int, weight: Weight, direction: str = ">") -> Dict:
    """Exact multiset identity between the truncated-Kostant side and the
    coroot-filtered Weyl sum.

    Side A: over Levi subsets S' of {1..s} containing s, with sign
    (-1)^{s-|S'|} and weight 1/w_{S'}, the Weyl-orbit expansions of the
    truncated Kostant entries, summed over the translates of the evaluation
    point by the linear-slot permutations (which act with determinant one,
    moving a slot together with its mirror).  Side B: the full Weyl sum
    filtered by strict positivity (resp. negativity) of the pairings with
    the first s real coroots.  The report records the exact difference.
    Both sides are kept as integers scaled by s!, which every w_{S'} divides.

    A weight on a wall is refused before any walk: some truncation pairing
    vanishes exactly when two disjoint r-subsets of the weight, r <= s, have
    equal sums, so exactly when two distinct s-subsets do (add s - r common
    entries, for which n >= 2s leaves room, or drop the common part).

    Neither side reads the middle slots s+1..n-s: the truncations and the
    coroot filter read the outer 2s slots, every translate fixes the middle,
    and each Levi group holds the whole symmetric group of the middle block.
    So both sides alternate under the permutations of the middle; each keeps
    one term x(lambda) per orbit, the one whose middle decreases, standing
    for (n-2s)! terms, and the kept terms that differ are expanded back into
    every signed arrangement of their middle.  Each such x is u w for one
    minimal coset representative w for S' and one Levi element u fixing the
    middle.  For r in S', u keeps the sums of slots 1..r and of their
    mirrors, so x(lambda) is truncated as w(lambda) is, and sign(x) =
    det(u) (-1)^{l(w)}.  So at v = x(lambda), side A is sign(x) times the
    sum over the translates v' of v of a(v'), the sum of (-1)^{s-|S'|}
    s!/w_{S'} over the S' whose truncation keeps v'; side B is sign(x) s!
    when the coroot filter keeps v.
    """
    if direction not in (">", "<"):
        raise ValueError("direction must be '>' or '<'")
    (p,), (q,), (s,) = _ints("p", p), _ints("q", q), _ints("s", s)
    n = p + q
    if not 1 <= s <= q:
        raise ValueError("need 1 <= s <= q")
    if 2 * s > n:
        raise ValueError(f"need 2s <= p + q, got s = {s} and p + q = {n}")
    lam2 = _doubled_weight(weight, n)
    KostantDatum(p, q, frozenset({s}))  # its refusals, the same for every S'
    if len(set(map(sum, combinations(lam2, s)))) < comb(n, s):
        raise WallError(f"two {s}-subsets of the weight have equal sums: a truncation pairing vanishes")
    want_pos = direction == ">"
    s_fact = factorial(s)
    cuts = [(rs, (-1) ** (s - len(rs)) * multinomial) for rs, multinomial in _compositions(s)]
    # each sigma permutes the first s linear slots and their mirrors together and
    # fixes the middle: slot j takes its entry from slot sigma^{-1}(j), with tau the
    # sigma^{-1}, 0-based (n >= 2, so each getter returns a tuple)
    translates = [
        itemgetter(*tau, *range(s, n - s), *(n - 1 - i for i in reversed(tau))) for tau in permutations(range(s))
    ]

    # the x(lambda) with a decreasing middle, x a minimal coset representative for S' = {1..s}
    signs: Dict[Tuple[int, ...], int] = {}
    a: Dict[Tuple[int, ...], int] = {}
    side_b: Dict[Tuple[int, ...], int] = {}
    for x, length in _shuffles(tuple(map(len, levi_blocks(n, range(1, s + 1))))).items():
        v = _act(x, lam2)
        signs[v] = sign = -1 if length & 1 else 1
        c = sum(coeff for rs, coeff in cuts if _truncation_keeps(v, rs, want_pos, x))
        if c:
            a[v] = c
        if all((pairing_coroot(v, r) > 0) == want_pos for r in range(1, s + 1)):  # never 0: lambda is regular
            side_b[v] = sign * s_fact
    side_a: Dict[Tuple[int, ...], int] = {}
    for v, sign in signs.items():
        c = sum(a.get(sigma(v), 0) for sigma in translates)
        if c:
            side_a[v] = sign * c

    m = n - 2 * s  # the middle slots
    diff = []
    for key in sorted(side_a.keys() | side_b.keys()):
        c = side_a.get(key, 0) - side_b.get(key, 0)
        if not c:
            continue
        for arranged, sign in _signed_perms(key[s : n - s]):
            c_order = Fraction(c * sign, s_fact)
            diff.append((list(key[:s] + arranged + key[n - s :]), str(c_order)))
    diff.sort()
    return {
        "p": p,
        "q": q,
        "s": s,
        "direction": direction,
        "side_a_terms": len(side_a) * factorial(m),
        "side_b_terms": len(side_b) * factorial(m),
        "equal": not diff,
        "differences": diff,
    }


# -- Weyl characters ----------------------------------------------------------------

MAX_CHARACTER_TERMS = 2**22  # weyl_character refuses a weight that may give more terms


def _character_term_bound(lam: Sequence[int]) -> int:
    """The smaller of the Weyl dimension of a dominant lam and (lam_1 - lam_n + 1)^(n-1),
    a bound on its character's terms: their exponents lie in [lam_n, lam_1] and add
    up to |lam|, so the first n-1 of them determine a term."""
    dim = 1
    for j in range(1, len(lam)):  # the dimension for lam_1..lam_{j+1}, an integer
        dim = dim * prod(lam[i] - lam[j] + j - i for i in range(j)) // factorial(j)
    return min(dim, (lam[0] - lam[-1] + 1) ** (len(lam) - 1)) if lam else 1


def weyl_character(size: int, block_weight: Sequence[int]) -> LaurentPoly:
    """Schur-type character s_lambda(x_1..x_n) of the dominant block weight.

    Computed by Gelfand-Tsetlin branching (Macdonald, Symmetric Functions
    and Hall Polynomials, I.5):
    s_lambda(x_1..x_n) = sum over mu interlacing lambda
    (lambda_1 >= mu_1 >= lambda_2 >= ... >= mu_{n-1} >= lambda_n) of
    s_mu(x_1..x_{n-1}) * x_n^{|lambda| - |mu|}.  The rule holds for every
    non-increasing integer weight, negative entries included.  Each layer
    maps a weight mu to the canonical monomials in x_{k+1}..x_n that reach
    it, so a mu met along several branches is expanded once.  The last layer's
    dict is adopted as the polynomial: its keys are distinct and canonical, and
    its coefficients are sums of 1s, positive ints.  A weight whose character
    may have more than MAX_CHARACTER_TERMS terms is refused.
    """
    (size,), lam = _ints("size", size), _ints("block_weight", *block_weight)
    if len(lam) != size:
        raise ValueError("weight length must equal the block size")
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError("weight must be dominant (non-increasing)")
    # the same range as the numerator x^(lambda + delta) of Weyl's character formula
    if lam and (lam[0] + size - 1 > INT32_MAX or lam[-1] < -INT32_MAX):
        raise ExponentOverflowError(f"weight {lam} leaves the 32-bit exponent range")
    bound = _character_term_bound(lam)
    if bound > MAX_CHARACTER_TERMS:
        raise ValueError(f"weight {lam} may give {bound} terms (limit {MAX_CHARACTER_TERMS})")
    layer = {lam: {(): 1}}
    for j in range(size, 0, -1):
        below: dict = {}
        for mu, tails in layer.items():
            total = sum(mu)
            for nu in product(*(range(b, a + 1) for a, b in zip(mu, mu[1:]))):
                acc = below.setdefault(nu, {})
                e = total - sum(nu)
                head = ((tor(1, j), e),) if e else ()  # x_j sorts before every tail's variables
                for tail, c in tails.items():
                    key = head + tail
                    acc[key] = acc.get(key, 0) + c
        layer = below
    (terms,) = layer.values()
    return LaurentPoly._adopt(terms)


# -- endoscopic weight transfer -------------------------------------------------------


def endoscopic_weight_transfer(
    weight: Weight, h: EndoTriple, omega, c_odd: int
) -> Weight:
    """Transfer a dominant highest weight along an endoscopic datum.

    omega supplies, per factor, the sorted index subset routed to the plus
    block; the transferred entries are shifted by the slot displacement and
    the odd parameter C:

        a+_{i,s} = a_{i,j_s} + s - j_s + n_i^-(1-C)/2
        a-_{i,t} = a_{i,k_t} + t - k_t + n_i^+(1+C)/2.

    The output interleaves plus and minus blocks; it is dominant, strictly
    so when the input is regular, and preserves the total block sum.
    """
    (c_odd,) = _ints("c_odd", c_odd)
    if c_odd % 2 == 0:
        raise ValueError("the parameter C must be odd")
    if len(weight.blocks) != h.r:
        raise ValueError("one block per factor required")
    if len(omega) != h.r:
        raise ValueError("one omega subset per factor required")
    if not weight.is_dominant():
        raise ValueError("weight must be dominant")
    out_blocks: List[Tuple[int, ...]] = []
    for i, ((npl, nmi), block) in enumerate(zip(h.pairs(), weight.blocks)):
        n_i = npl + nmi
        if len(block) != n_i:
            raise ValueError(f"block {i + 1} has wrong length")
        subset = tuple(sorted(_ints("omega", *omega[i])))
        if len(subset) != npl or any(x < 1 or x > n_i for x in subset):
            raise ValueError(f"omega[{i}] must be a size-{npl} subset of 1..{n_i}")
        if len(set(subset)) != npl:
            raise ValueError("omega subsets must have distinct entries")
        complement = tuple(j for j in range(1, n_i + 1) if j not in set(subset))
        plus = tuple(
            block[j - 1] + s - j + nmi * (1 - c_odd) // 2
            for s, j in enumerate(subset, start=1)
        )
        minus = tuple(
            block[k - 1] + t - k + npl * (1 + c_odd) // 2
            for t, k in enumerate(complement, start=1)
        )
        out_blocks.extend([plus, minus])
    return Weight(weight.a, tuple(out_blocks))


# -- Frobenius traces -----------------------------------------------------------------


def frobenius_trace(g: SignedGroupDatum, m: int, ctx: PlaceContext, field: str = "E") -> LaurentPoly:
    """Subset-sum expansion of the trace of the m-th Frobenius power on the
    minuscule representation attached to the signature.

    Returns z^{-m} times the sum over per-factor subsets J_i of size p_i of
    the products of z_{i,j}^{-m deg}, with deg the local degree of the
    reflex field.  Only the all-plus-signs case is modelled: for the
    rational reflex field at an inert place with odd m the signs are not
    pinned down, and UnsupportedCaseError is raised.
    """
    (m,) = _ints("m", m)
    if field not in ("Q", "E"):
        raise ValueError("field must be 'Q' or 'E'")
    if field == "Q" and not ctx.split and m % 2 != 0:
        raise UnsupportedCaseError(
            "inert place, rational reflex field and odd power: signs undetermined"
        )
    deg = 2 if (field == "E" and not ctx.split) else 1
    head = ((SIM, _check_exp(-m)),) if m else ()
    return _tor_subset_sum(head, [(range(1, p + q + 1), p, -m * deg) for p, q in g.sig])


# -- nonsingular incidence subsets ------------------------------------------------------


MAX_SUBSET_ENTRIES = 2**22  # nonsingular_subsets refuses a family with more entries


def nonsingular_subsets(n: int, p: int) -> Tuple[List[Tuple[int, ...]], int]:
    """n subsets of {1..n}, each of size p, with nonsingular incidence matrix.

    The inductive construction (prepend {1..p} and recurse on {2..n} while
    p <= n-2; for p = n-1 take all complements of singletons), unrolled: with
    o = n-1-p, the rows are the heads {k+1..k+p} for k = 0..o-1, then the
    complement of {i} in {o+1..n} for each i = o+1..n.  For n = 1 the family
    is {1}, with determinant 1.

    The exact determinant of the 0/1 incidence matrix is returned alongside,
    in closed form: column k+1 meets head k and no later row, so the matrix
    is block-triangular with a unit diagonal down to the tail rows, whose
    block is J - I of size p+1, and the determinant is (-1)^p * p.  A family
    of more than MAX_SUBSET_ENTRIES entries (n * p) is refused.
    """
    (n,), (p,) = _ints("n", n), _ints("p", p)
    if n < 1 or not 1 <= p <= max(1, n - 1):
        raise ValueError(f"need n >= 1 and 1 <= p <= max(1, n-1), got p={p}, n={n}")
    if n * p > MAX_SUBSET_ENTRIES:
        raise ValueError(f"n * p = {n * p} subset entries (limit {MAX_SUBSET_ENTRIES})")
    if n == 1:
        return [(1,)], 1
    o = n - 1 - p
    heads = [tuple(range(k + 1, k + p + 1)) for k in range(o)]
    tail = [tuple(j for j in range(o + 1, n + 1) if j != i) for i in range(o + 1, n + 1)]
    return heads + tail, (-1) ** p * p
