"""Group data for unitary similitude groups and their endoscopy bookkeeping.

Covers the tuple (n_1, ..., n_r) defining G(U*(n_1) x ... x U*(n_r)), real
signatures, elliptic endoscopic data (n_i^+, n_i^-) with even total minus
part, split and inert place contexts, and the stabilization coefficients
tau, k, d, iota and iota_{G,H}.  Everything is exact integer or rational
arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb
from operator import attrgetter, index
from typing import List, Optional, Tuple


class ParityError(ValueError):
    """An endoscopic datum violates the even-minus-part constraint."""


class _Record:
    """An immutable record of the fields named in FIELDS: its repr is Class(field=value, ...),
    it equals only a record of its own class with equal fields, and it hashes as the tuple of
    its fields.  A subclass sets its fields in its own __init__, through object.__setattr__."""

    FIELDS: Tuple[str, ...] = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.FIELDS)  # a bare value, not a 1-tuple, for one field
        cls._values = staticmethod(get if len(cls.FIELDS) > 1 else lambda record: (get(record),))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.FIELDS, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _ints(field: str, *values) -> Tuple[int, ...]:
    """The values as ints: a float or any other non-integral value is refused, not truncated."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ValueError(f"{field} takes integers only, got {', '.join(map(repr, values))}") from None


class GroupDatum(_Record):
    """The tuple (n_1, ..., n_r) of factor sizes, every n_i >= 1."""

    FIELDS = ("sizes",)

    def __init__(self, sizes: Tuple[int, ...]):
        if not sizes:
            raise ValueError("need at least one factor")
        sizes = _ints("sizes", *sizes)
        if any(n < 1 for n in sizes):
            raise ValueError("factor sizes must be >= 1")
        object.__setattr__(self, "sizes", sizes)

    @property
    def r(self) -> int:
        return len(self.sizes)

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def qs(self) -> Tuple[int, ...]:
        return tuple(n // 2 for n in self.sizes)

    @property
    def all_even(self) -> bool:
        return all(n % 2 == 0 for n in self.sizes)


class SignedGroupDatum(_Record):
    """Real signatures ((p_1,q_1),...,(p_r,q_r)) with p_i + q_i >= 1."""

    FIELDS = ("sig",)

    def __init__(self, sig: Tuple[Tuple[int, int], ...]):
        sig = tuple(_ints("sig", p, q) for p, q in sig)
        if not sig:
            raise ValueError("need at least one factor")
        for p, q in sig:
            if p < 0 or q < 0 or p + q < 1:
                raise ValueError(f"bad signature ({p},{q})")
        object.__setattr__(self, "sig", sig)

    @property
    def datum(self) -> GroupDatum:
        return GroupDatum(tuple(p + q for p, q in self.sig))

    @property
    def r(self) -> int:
        return len(self.sig)

    @property
    def n(self) -> int:
        return sum(p + q for p, q in self.sig)


class EndoTriple(_Record):
    """Per-factor splittings (n_i^+, n_i^-) of the sizes of a GroupDatum, with even total minus part."""

    FIELDS = ("nplus", "nminus")

    def __init__(self, nplus: Tuple[int, ...], nminus: Tuple[int, ...]):
        np_, nm = _ints("nplus", *nplus), _ints("nminus", *nminus)
        if len(np_) != len(nm):
            raise ValueError("nplus and nminus must have the same length")
        if any(a < 0 for a in np_ + nm):
            raise ValueError("negative block size")
        if sum(nm) % 2 != 0:
            raise ParityError(f"sum of minus parts {sum(nm)} is odd")
        object.__setattr__(self, "nplus", np_)
        object.__setattr__(self, "nminus", nm)
        GroupDatum(self.sizes())  # refuses no factor, or one of size 0, with its messages

    @property
    def r(self) -> int:
        return len(self.nplus)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(a + b for a, b in zip(self.nplus, self.nminus))

    def pairs(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(zip(self.nplus, self.nminus))

    def matches(self, g: GroupDatum) -> bool:
        return self.sizes() == g.sizes

    def group_datum(self) -> GroupDatum:
        """The datum of the endoscopic group (zero blocks contribute G_m and drop out)."""
        parts = [b for pair in self.pairs() for b in pair if b > 0]
        return GroupDatum(tuple(parts))


class PlaceContext(_Record):
    """Local data at p: split/inert, d = [L:Q_p] and (when defined) a = [L:E_w].

    At a split place E_w = Q_p, so a = d.  At an inert place the group splits
    over L exactly when d is even, and then a = d/2; for odd d the degree a
    is undefined.
    """

    FIELDS = ("split", "d")

    def __init__(self, split: bool, d: int = 1):
        (d,) = _ints("d", d)
        if d < 1:
            raise ValueError("d must be >= 1")
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "d", d)

    @property
    def a(self) -> Optional[int]:
        if self.split:
            return self.d
        return self.d // 2 if self.d % 2 == 0 else None

    @property
    def splits_over_l(self) -> bool:
        """Whether the unitary group splits over L (i.e. L contains E_w)."""
        return self.split or self.d % 2 == 0


# -- endoscopy ----------------------------------------------------------------


def outer_automorphism_order(t: EndoTriple) -> int:
    """2^{|I|} where I is the set of factors with equal plus and minus parts."""
    return 2 ** sum(1 for a, b in t.pairs() if a == b)


def enumerate_endoscopic(g: GroupDatum) -> List[Tuple[EndoTriple, int]]:
    """The least member of each isomorphism class of elliptic data, in increasing order.

    Tuples are isomorphic exactly when they agree factorwise up to a swap, so a
    class is one unordered pair {m_i, n_i - m_i} per factor (m_i <= n_i / 2)
    with an orientation of even minus total.  Swapping factor i changes that
    total by n_i^+ - n_i^-, of the parity of n_i.  If every n_i is even, all
    orientations share one parity: the class is empty or holds the increasing
    orientation (m_i, n_i - m_i), its least.  Otherwise the increasing
    orientation is the least; when its minus total is odd, a valid one swaps
    an odd-size factor, and swapping only the last one puts the first
    difference as late as it can go, so that orientation is the least valid.
    """
    odd = [i for i, n in enumerate(g.sizes) if n % 2]
    reps = []
    for ms in product(*(range(n // 2 + 1) for n in g.sizes)):
        plus, minus = list(ms), [n - m for m, n in zip(ms, g.sizes)]
        if sum(minus) % 2:
            if not odd:
                continue
            i = odd[-1]
            plus[i], minus[i] = minus[i], plus[i]
        reps.append(EndoTriple(tuple(plus), tuple(minus)))
    reps.sort(key=EndoTriple.pairs)
    return [(t, outer_automorphism_order(t)) for t in reps]


# -- numerical invariants -------------------------------------------------------


def tamagawa(g: GroupDatum) -> int:
    """2^r when all factor sizes are even, else 2^{r-1}."""
    return 2**g.r if g.all_even else 2 ** (g.r - 1)


def k_invariant(g: SignedGroupDatum) -> int:
    """2^{n-r-1} when all factor sizes are even, else 2^{n-r}."""
    d = g.datum
    return 2 ** (g.n - g.r - 1) if d.all_even else 2 ** (g.n - g.r)


def packet_size(p: int, q: int) -> int:
    """Number of discrete-series members sharing a parameter for GU(p, q)."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValueError("need p, q >= 0 with p + q >= 1")
    if p != q:
        return comb(p + q, q)
    return comb(2 * q, q) // 2


def packet_size_signed(g: SignedGroupDatum) -> int:
    out = 1
    for p, q in g.sig:
        out *= packet_size(p, q)
    return out


def iota(g: GroupDatum, h: EndoTriple) -> Fraction:
    """tau(G) / (tau(H) * #outer automorphisms of the datum)."""
    if not h.matches(g):
        raise ValueError(f"endoscopic datum {h} does not match {g}")
    tau_h = tamagawa(h.group_datum())
    return Fraction(tamagawa(g), tau_h * outer_automorphism_order(h))


def pi0_symmetric_space(g: SignedGroupDatum) -> int:
    """Component count of the symmetric space: one factor 2 per p_i = q_i block."""
    return 2 ** sum(1 for p, q in g.sig if p == q and p + q >= 2)


def _signed_subset_sum(n_pos: int, n_neg: int, size: int) -> int:
    """Sum over subsets I of {1..n_pos+n_neg} of given size of (-1)^{|I ∩ minus block|}."""
    total = 0
    for k in range(size + 1):
        if k <= n_neg and size - k <= n_pos:
            total += (-1) ** k * comb(n_pos, size - k) * comb(n_neg, k)
    return total


def iota_gh(g: SignedGroupDatum, h: EndoTriple) -> Fraction:
    """The rational stabilization coefficient weighting each endoscopic group.

    iota(G,H) divided by the component count of the symmetric space, times
    the signed sum over per-factor index subsets of size p_i, each subset
    signed by the parity of its overlap with the minus block.
    """
    datum = g.datum
    if not h.matches(datum):
        raise ValueError(f"endoscopic datum {h} does not match {g}")
    sign_sum = 1
    for (p, _q), (npl, _nm) in zip(g.sig, h.pairs()):
        n_i = p + _q
        sign_sum *= _signed_subset_sum(npl, n_i - npl, p)
    return iota(datum, h) * Fraction(sign_sum, pi0_symmetric_space(g))

