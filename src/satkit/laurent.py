"""Exact multivariate Laurent polynomial arithmetic and the ring maps that act on it.

Polynomials have coefficients in Q adjoined a formal invertible symbol q
(standing for p^{1/2}, so half-integral powers of p are always integral in
q).  Internally q is carried as a reserved variable, which keeps all ring
operations uniform; the canonical JSON form pulls it back out into each
term's coefficient.  A stored coefficient is a nonzero int when it is
integral and a Fraction only when it is not; never a float or a bool.

Variables are identified by small tuples:

    QVAR            = ("q",)        the formal half-power symbol
    SIM             = ("s",)        the similitude variable (X, X', Z)
    tor(i, j)       = ("t", i, j)   the torus variable X_{i,j}

Tuple comparison realises the canonical variable order
q < Sim < Tor(1,1) < Tor(1,2) < ...  Every ring map here sends each variable
to a signed q-monomial and is written as one table v -> (monomial, +-1), the
image's one term, q allowed in the monomial, applied by act; q maps to q.  A
Weyl group acts through its generators, tables that
satake.HeckeRing.generators writes over every variable of its ring, so act,
is_invariant and symmetrize raise SubstitutionError on a variable the ring
lacks.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .rootdata import _ints


INT32_MAX = 2**31 - 1

Var = Tuple
Monomial = Tuple  # sorted tuple of (Var, int) pairs with nonzero exponents

QVAR: Var = ("q",)
SIM: Var = ("s",)


def tor(i: int, j: int) -> Var:
    return ("t", i, j)


class ExponentOverflowError(OverflowError, ValueError):
    """An exponent left the checked 32-bit range."""


class SubstitutionError(ValueError):
    """A substitution map is missing a variable or has a non-monomial image."""


def _check_exp(e: int) -> int:
    if abs(e) > INT32_MAX:
        raise ExponentOverflowError(f"exponent {e} exceeds 32-bit range")
    return e


def _mono(pairs: Iterable[Tuple[Var, int]]) -> Monomial:
    acc: dict = {}
    for v, e in pairs:
        acc[v] = acc.get(v, 0) + e
    return tuple(sorted((v, _check_exp(e)) for v, e in acc.items() if e != 0))


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return _mono(a + b)


def mono_pow(a: Monomial, k: int) -> Monomial:
    return _mono((v, e * k) for v, e in a)


Coeff = Union[int, Fraction]


def _merge(out: dict, pairs: Iterable[Tuple[Monomial, Coeff]]) -> dict:
    """Add (monomial, coefficient) pairs into out, dropping keys whose coefficients cancel.

    A new key starts from 0 (so a bool becomes an int) and an integral sum is
    stored as an int, so every stored coefficient is a nonzero int, or a
    Fraction that is not integral.  A float raises TypeError.
    """
    for m, c in pairs:
        s = out.get(m, 0) + c
        if type(s) is not int:
            if type(s) is not Fraction:
                raise TypeError(f"coefficient {c!r} is not an int or a Fraction")
            s = s.numerator if s.denominator == 1 else s
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


class LaurentPoly:
    """Immutable Laurent polynomial; monomials map to int or Fraction coefficients (see _merge)."""

    # _walk: None, sorted when written; or, in a _WalkedPoly, the walk of _tor_subset_sum,
    # (head, multiplier, (pairs, k, e) per walked factor), written row by row
    __slots__ = ("_terms", "_walk")

    def __init__(self, terms: Optional[Mapping[Monomial, Coeff]] = None):
        self._terms = _merge({}, terms.items()) if terms else {}
        self._walk = None

    @staticmethod
    def _adopt(terms: dict) -> "LaurentPoly":
        """Wrap a dict whose coefficients already are nonzero ints or non-integral Fractions."""
        p = LaurentPoly.__new__(LaurentPoly)
        p._terms, p._walk = terms, None
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_terms(pairs: Iterable[Tuple[Monomial, Coeff]]) -> "LaurentPoly":
        """Sum (canonical monomial, coefficient) pairs in time linear in their number.

        Repeated monomials add up and cancelled ones are dropped.  Building a
        polynomial with `p = p + term` in a loop copies p each time instead.
        """
        return LaurentPoly._adopt(_merge({}, pairs))

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({(): 1})

    @staticmethod
    def const(c: Coeff) -> "LaurentPoly":
        return LaurentPoly({(): c})

    @staticmethod
    def var(v: Var, e: int = 1) -> "LaurentPoly":
        return LaurentPoly({_mono([(v, *_ints("e", e))]): 1})

    @staticmethod
    def monomial(exps: Mapping[Var, int], coeff: Coeff = 1, q_exp: int = 0) -> "LaurentPoly":
        _ints("exps", *exps.values())
        return LaurentPoly({_mono([*exps.items(), (QVAR, *_ints("q_exp", q_exp))]): coeff})

    @staticmethod
    def q_power(k: int) -> "LaurentPoly":
        return LaurentPoly.var(QVAR, *_ints("k", k))

    # -- inspection --------------------------------------------------------

    def terms(self) -> Iterator[Tuple[Monomial, Coeff]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_term(self) -> bool:
        return len(self._terms) == 1

    def variables(self) -> set:
        return {v for m in self._terms for v, _ in m} - {QVAR}

    def coeff(self, mono: Monomial) -> Coeff:
        return self._terms.get(mono, 0)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        # Copy the left operand at C speed.  No satkit command adds two
        # polynomials: the sums are a caller's own, or a test oracle's.
        return LaurentPoly._adopt(_merge(dict(self._terms), other._terms.items()))

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._adopt({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly.from_terms(
            (mono_mul(m1, m2), c1 * c2)
            for m1, c1 in self._terms.items()
            for m2, c2 in other._terms.items()
        )

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentPoly":
        (k,) = _ints("k", k)
        if self.is_term():  # one monomial power: only the exponents of the result are checked
            ((m, c),) = self._terms.items()
            if k < 0 and c * c != 1:
                raise ValueError("negative power needs a unit coefficient")
            return LaurentPoly({mono_pow(m, k): c ** abs(k)})  # c is +-1 if k < 0: exact, unlike c**k
        if k < 0:
            raise ValueError("negative power of a non-monomial")
        out = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self) -> str:
        return f"LaurentPoly({pretty(self)!r})"

    def evaluate(self, assign: Mapping[Var, Fraction]) -> Fraction:
        """Evaluate at exact rational values, an int or a Fraction for every variable incl. q.

        Before any term is evaluated, a missing value raises KeyError, and a value that is
        a float or a bool, or 0 where the variable has a negative exponent, ValueError.
        """
        for m in self._terms:
            for v, e in m:
                if v not in assign:
                    raise KeyError(f"no value for variable {v}")
                x = assign[v]
                if type(x) is not int and type(x) is not Fraction:
                    raise ValueError(f"the value {x!r} of variable {v} is not an int or a Fraction")
                if e < 0 and x == 0:
                    raise ValueError(f"variable {v} has exponent {e} and cannot take the value 0")
        total = Fraction(0)
        for m, c in self._terms.items():
            val = c
            for v, e in m:
                val *= Fraction(assign[v]) ** e
            total += val
        return total


def _subsets(items: list, k: int, e: int) -> list:
    """The k-subsets of items, in the order _tor_subset_sum walks them: reversed for e > 0."""
    return list(combinations(items, k))[:: -1 if e > 0 else 1]


class _WalkedPoly(LaurentPoly):
    """A polynomial from _tor_subset_sum: its _terms slot stays unset until first read.
    CPython reads the attributes of a class with a __getattr__ by a slower path, so only
    this subclass has one, and every other polynomial keeps plain slot reads."""

    __slots__ = ()

    def __getattr__(self, name: str):
        """Build the unset _terms from the walk; Python calls this only for a missing attribute."""
        if name != "_terms":
            raise AttributeError(f"'LaurentPoly' object has no attribute {name!r}")
        head, multiplier, walk = self._walk  # unset: AttributeError, from this method
        monos = [head]
        for pairs, k, e in walk:
            monos = [m + js for m in monos for js in _subsets(pairs, k, e)]
        self._terms = dict.fromkeys(monos, multiplier) if multiplier else {}
        return self._terms


def _tor_subset_sum(head: Monomial, factors) -> LaurentPoly:
    """The sum, with coefficients 1, of head times one torus monomial per factor.  Factor i
    (from 1) is (slots, k, e), slots increasing, and gives tor(i, j)^e over j in each k-subset.

    The result keeps only its walk, (head, multiplier, (pairs, k, e) per factor with e != 0
    and k >= 1); serialize_poly writes its rows from the walk, and _WalkedPoly.__getattr__
    builds its terms from it when they are first read.  Every exponent is checked here.
    Both walk one nested product over _subsets, each walked factor's subsets with the
    earlier factors' held.  The terms are adopted, not merged: head's variables sort
    before these, so every monomial is canonical as built, and distinct k-subsets of factors
    with e != 0 give distinct monomials.  A factor with e = 0 or k = 0 only scales every
    term by its C(len(slots), k) subsets, so each coefficient is the one positive int
    multiplier; it is 0, the zero polynomial, when some k exceeds its slots.

    The terms also come in canonical order.  All share the head; the block of factor i,
    its tor(i, j), sorts after those of earlier factors, and the product holds the earlier
    factors' subsets while it walks factor i's.  Of two k-subsets in the lexicographic order
    of combinations, the earlier holds the first slot where they differ, so its block
    puts e there against 0: it is smaller when e < 0 and larger when e > 0, which is
    why _subsets reverses them for e > 0."""
    multiplier, walk = 1, []
    for i, (slots, k, e) in enumerate(factors, 1):
        _check_exp(e if k else 0)  # an exponent no term carries is not checked
        if e and k:
            walk.append(([(tor(i, j), e) for j in slots], k, e))
            multiplier *= k <= len(slots)  # no subset, no term
        else:
            multiplier *= comb(len(slots), k)
    p = _WalkedPoly.__new__(_WalkedPoly)
    p._walk = (head, multiplier, walk)
    return p


# -- substitution -----------------------------------------------------------


def _pair_image(table: Mapping, v: Var, e: int) -> Tuple[bool, tuple]:
    """(sign flip, image pairs) of v^e under a table v -> (monomial, +-1); q maps to q.
    A pair past 32 bits gets a (u, 0) twin, so that _mono sums its term and checks
    the sum, which may cancel."""
    if v == QVAR:
        return False, ((v, e),)
    if v not in table:
        raise SubstitutionError(f"no image for variable {v}")
    im, c = table[v]
    pairs = [(u, ue * e) for u, ue in im]
    pairs += [(u, 0) for u, x in pairs if abs(x) > INT32_MAX]
    return bool(c < 0 and e & 1), tuple(pairs)  # (-1)**e


def _image(table: Mapping, memo: dict, m: Monomial, coeff: Coeff) -> Tuple[Monomial, Coeff]:
    """Map one term through a table, memo caching _pair_image: its pairs' images sorted,
    or summed by _mono when two of them share a variable."""
    parts = []
    for p in m:
        flip, im = memo.get(p) or memo.setdefault(p, _pair_image(table, *p))
        if flip:
            coeff = -coeff
        parts += im
    parts.sort()
    if len(dict(parts)) < len(parts):
        return _mono(parts), coeff
    return tuple(parts), coeff


def act(table: Mapping, f: LaurentPoly) -> LaurentPoly:
    """Apply the ring map a table v -> (monomial, +-1) gives: v goes to its image term,
    q to q.  Satake morphisms and Weyl generators are such tables; a variable of f the
    table lacks raises SubstitutionError."""
    memo: dict = {}
    return LaurentPoly.from_terms(_image(table, memo, m, c) for m, c in f.terms())


def _substitution_table(images: Mapping[Var, LaurentPoly]) -> dict:
    """Compile variable images into the table act reads, v -> (monomial, +-1)."""
    table = {}
    for v, img in images.items():
        if not img.is_term():
            raise SubstitutionError("image is not a single term")
        ((m, c),) = img.terms()
        if c * c != 1:
            raise SubstitutionError(f"image of {v} has non-unit coefficient {c}")
        table[v] = (m, c)
    return table


def substitute(f: LaurentPoly, images: Mapping[Var, LaurentPoly]) -> LaurentPoly:
    """Apply the ring homomorphism sending each variable to a signed q-monomial.

    Every non-q variable of f must have an image; images must be single terms
    with coefficient +-1 times a power of q.  q itself maps to q.
    """
    return act(_substitution_table(images), f)


# -- Weyl groups ---------------------------------------------------------------


def _closure(seed, step) -> set:
    """Everything reachable from seed by repeated steps; step(x) yields the neighbours of x."""
    seen, todo = {seed}, [seed]
    while todo:
        for y in step(todo.pop()):
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


def symmetrize(f: LaurentPoly, group: Sequence[Mapping]) -> LaurentPoly:
    """Orbit sum: each term is replaced by the sum of its distinct images under the group
    the tables generate.

    Each orbit element appears once (no averaging), matching the convention
    where a spherical function's Satake transform is the plain sum over the
    Weyl translates of a cocharacter.

    `group` may be every element or any generating set, such as
    satake.HeckeRing.generators(): each orbit is the closure of its term under
    the given tables, so it costs |orbit| * len(group) images, not |W|.
    """
    tables = [(t, {}) for t in group]

    def images(m: Monomial) -> Iterator[Monomial]:
        return (_image(t, memo, m, 1)[0] for t, memo in tables)

    return LaurentPoly.from_terms((mono, c) for m, c in f.terms() for mono in _closure(m, images))


def is_invariant(f: LaurentPoly, group: Sequence[Mapping]) -> bool:
    """Whether every given table fixes f; a generating set of the group suffices."""
    return all(act(t, f) == f for t in group)


# -- canonical serialization --------------------------------------------------


def _var_name(v: Var) -> str:
    """X for SIM, X_i_j for tor(i, j)."""
    if v == SIM or v[0] == "t":
        return "_".join(["X", *map(str, v[1:])])
    raise ValueError(f"unnamed variable {v}")


_NAME_RE = re.compile(r"X(?:_([1-9][0-9]*)_([1-9][0-9]*))?")


def _parse_name(name: str) -> Var:
    """The variable _var_name names; an index must be positive and not zero-padded."""
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise ValueError(f"bad variable name {name!r}")
    return SIM if m.group(1) is None else tor(int(m.group(1)), int(m.group(2)))


def _canonical_terms(f: LaurentPoly):
    """f's terms in canonical order: as stored when a builder proved that order, else
    sorted on their exponent vectors over f's variables, then q, which no two share."""
    if f._walk:
        return f._terms.items()
    index = {v: i for i, v in enumerate([*sorted(f.variables()), QVAR])}

    def key(term):
        vec = [0] * len(index)
        for v, e in term[0]:
            vec[index[v]] = e
        return vec

    return sorted(f._terms.items(), key=key)


class _Texts(dict):
    """(variable, exponent) -> its text, made by fill on first use."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, pair):
        text = self[pair] = self.fill(*pair)
        return text


def serialize_poly(f: LaurentPoly) -> str:
    """Canonical JSON text: an array of term records {"q", "num", "den", "exps"}.

    Terms are sorted by their exponent vectors over the polynomial's own
    variables (X, then X_i_j, in index order), then by q exponent.
    "exps" lists a term's nonzero exponents only, in that variable order, and
    num/den is the coefficient in lowest terms with den > 0.

    A polynomial from _tor_subset_sum (the Kottwitz functions, Frobenius traces and
    Hecke-ring invariant generators) is written row by row from its walk alone, unsorted,
    and its terms are not built: one text per slot, one join per subset, rows by the
    product that builds the monomials, in the order its docstring proves canonical, each
    with the walk's multiplier as num.  Every other polynomial, from act, an operator,
    parse_poly or from_terms, is sorted.
    """
    text = _Texts(lambda v, e: f"{json.dumps(_var_name(v))}:{e}").__getitem__
    if f._walk:
        head, num, walk = f._walk
        if not num:
            return "[]"  # the zero polynomial has no row
        q, head = (head[0][1], head[1:]) if head and head[0][0] == QVAR else (0, head)
        prefix = '{"q":%d,"num":%d,"den":1,"exps":{' % (q, num)
        rows, sep = [prefix + ",".join(map(text, head))], "," if head else ""  # "," once a pair is written
        for pairs, k, e in walk:
            joined = [sep + ",".join(js) for js in _subsets(list(map(text, pairs)), k, e)]
            rows, sep = [r + js for r in rows for js in joined], ","
            del joined  # only the rows stay alive into the join
        return "[" + "}},".join(rows) + "}}]"
    record = '{"q":%d,"num":%d,"den":%d,"exps":{%s}}'
    out = []
    for m, c in _canonical_terms(f):
        q, m = (m[0][1], m[1:]) if m and m[0][0] == QVAR else (0, m)  # QVAR sorts first
        out.append(record % (q, c.numerator, c.denominator, ",".join(map(text, m))))
    return "[" + ",".join(out) + "]"


def parse_poly(text: str) -> LaurentPoly:
    """Invert serialize_poly.  Input it never writes raises ValueError: a term that is
    not an object with an "exps" object; a q, num, den or exponent that is not a JSON
    integer (bools and floats included); a den <= 0; a zero or zero-padded index."""
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("polynomial JSON must be an array of terms")

    def term(rec) -> Tuple[Monomial, Coeff]:
        if not isinstance(rec, dict) or not isinstance(rec.get("exps"), dict):
            raise ValueError(f"term {rec!r} must be an object with an \"exps\" object")
        exps, q_exp, num, den = rec["exps"], rec.get("q", 0), rec.get("num"), rec.get("den")
        if any(type(x) is not int for x in (q_exp, num, den, *exps.values())) or den <= 0:
            raise ValueError(f"term {rec!r} needs integer q, num, den and exponents, and den > 0")
        pairs = [(_parse_name(k), e) for k, e in exps.items()]
        return _mono(pairs + [(QVAR, q_exp)]), Fraction(num, den)

    return LaurentPoly.from_terms(map(term, data))


def pretty(f: LaurentPoly) -> str:
    """Human-readable rendering, in the canonical term order."""
    if f.is_zero():
        return "0"
    text = _Texts(lambda v, e: ("q" if v == QVAR else _var_name(v)) + ("" if e == 1 else f"^{e}")).__getitem__
    parts = []
    for m, c in _canonical_terms(f):
        unit = m and c * c == 1
        factors = [] if unit else [str(c)]
        factors.extend(map(text, m))
        parts.append(("-" if unit and c == -1 else "") + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")
