"""Slow reference implementations that the library's results are checked against."""

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from math import factorial, prod
from typing import NamedTuple

from satkit import satake
from satkit.characters import (
    KostantDatum, KostantEntry, WallError, Weight, _prefix_positive_mask, _scale_to_ints, pairing_coroot, rho2,
    truncate_cohomology,
)
from satkit.laurent import (
    QVAR, SIM, LaurentPoly, SubstitutionError, _check_exp, _mono, _substitution_table, serialize_poly,
    symmetrize, tor,
)
from satkit.rootdata import (
    EndoTriple, GroupDatum, ParityError, PlaceContext, SignedGroupDatum, outer_automorphism_order,
)
from satkit.satake import (
    HeckeRing, PlaceError, Substitution, _require_match, _require_single_factor,
    _resolved, default_generators, hecke_ring, kottwitz_function, levi_twisted_transfer, m_ring,
    twisted_transfer_map,
)


def length(w):
    """Number of inversions: pairs i < j with w(i) > w(j)."""
    n = len(w)
    inv = 0
    for i in range(n):
        wi = w[i]
        for j in range(i + 1, n):
            if wi > w[j]:
                inv += 1
    return inv


def perm_sign(w):
    """(-1) to the number of inversions."""
    return (-1) ** length(w)


def perm_inverse(w):
    """The permutation of 1..n sending w(j) back to j."""
    return tuple(w.index(i) + 1 for i in range(1, len(w) + 1))


def act(w, v):
    """(w.v)_i = v_{w^{-1}(i)}."""
    inv = perm_inverse(w)
    return tuple(v[inv[i] - 1] for i in range(len(v)))


def block_perms(blocks):
    """The permutations moving each block of consecutive positions within itself,
    in the product order of the blocks' lexicographic permutation orders."""
    return [sum(combo, ()) for combo in product(*(permutations(b) for b in blocks))]


def swap_class(t):
    """All parity-valid tuples related to the tuple of pairs t by per-factor swaps, sorted."""
    out = set()
    for pattern in product((0, 1), repeat=len(t)):
        cand = tuple((b, a) if s else (a, b) for (a, b), s in zip(t, pattern))
        if sum(m for _, m in cand) % 2 == 0:
            out.add(cand)
    return sorted(out)


def canonical_endo(t):
    """Lexicographically smallest member of the swap-isomorphism class."""
    best = swap_class(t.pairs())[0]
    return EndoTriple(tuple(a for a, _ in best), tuple(b for _, b in best))


def enumerate_endoscopic_by_search(g):
    """rootdata.enumerate_endoscopic by search: the parity-valid tuples
    ((n_i - m_i, m_i))_i, each not yet met building its swap class, which is
    represented by its least member."""
    choices = [[(n - m, m) for m in range(n + 1)] for n in g.sizes]
    met, reps = set(), {}
    for t in product(*choices):
        if sum(m for _, m in t) % 2 == 0 and t not in met:
            cls = swap_class(t)
            met.update(cls)
            trip = EndoTriple(tuple(a for a, _ in cls[0]), tuple(b for _, b in cls[0]))
            reps[cls[0]] = (trip, outer_automorphism_order(trip))
    return [reps[k] for k in sorted(reps)]


def brute_force_endoscopic_classes(g):
    """Group all tuples ((n_i - m_i, m_i))_i with even total minus part into
    classes, comparing tuples pairwise by factorwise equality or swap."""

    def related(t1, t2):
        return all(p1 == p2 or p1 == (p2[1], p2[0]) for p1, p2 in zip(t1, t2))

    choices = [[(n - m, m) for m in range(n + 1)] for n in g.sizes]
    classes = []
    for t in product(*choices):
        if sum(m for _, m in t) % 2:
            continue
        for cls in classes:
            if related(t, cls[0]):
                cls.append(t)
                break
        else:
            classes.append([t])
    return classes


def sum_terms_by_addition(pairs):
    """Sum (monomial, coefficient) pairs one polynomial addition at a time, the
    quadratic build that LaurentPoly.from_terms replaces."""
    total = LaurentPoly.zero()
    for m, c in pairs:
        total = total + LaurentPoly.monomial(dict(m), coeff=c)
    return total


def tor_subset_sum_by_merging(head, factors):
    """laurent._tor_subset_sum as the merge it replaces: one generator of fresh tor pairs
    per slot of each subset, every term summed by LaurentPoly.from_terms."""
    blocks = []
    for i, (slots, k, e) in enumerate(factors, 1):
        _check_exp(e if k else 0)
        blocks.append([tuple((tor(i, j), e) for j in js) if e else () for js in combinations(slots, k)])
    return LaurentPoly.from_terms((sum(parts, head), 1) for parts in product(*blocks))


def has_merged_terms(f):
    """Whether f's terms are what LaurentPoly.from_terms makes of them, with every
    coefficient a positive int: the invariants a builder that adopts its dict must keep."""
    return all(type(c) is int and c > 0 for _, c in f.terms()) and LaurentPoly.from_terms(f.terms()) == f


def power_by_squaring(f, k):
    """f ** k by square-and-multiply for k >= 0, as LaurentPoly.__pow__ computes it for
    more than one term: the oracle for a one-term f, which the library raises to one
    monomial power.  A negative k needs one term with coefficient +-1, as there."""
    if k < 0:
        if not f.is_term():
            raise ValueError("negative power of a non-monomial")
        ((m, c),) = f.terms()
        if c * c != 1:
            raise ValueError("negative power needs a unit coefficient")
        return LaurentPoly({_mono((v, e * k) for v, e in m): c ** -k})  # c is +-1: exact, unlike c**k
    out = LaurentPoly.one()
    base = f
    while k:
        if k & 1:
            out = out * base
        base = base * base if k > 1 else base
        k >>= 1
    return out


def _split_q(m):
    """(q exponent, q-free rest) of a canonical monomial; QVAR sorts first."""
    if m and m[0][0] == QVAR:
        return m[0][1], m[1:]
    return 0, m


def _var_name(v):
    if v == SIM:
        return "X"
    if v[0] == "t":
        return f"X_{v[1]}_{v[2]}"
    raise ValueError(f"unnamed variable {v}")


def serialize_by_sorting(f):
    """laurent.serialize_poly as it was before builders could mark their terms as in
    canonical order: every polynomial's terms get a dense exponent vector and are sorted."""
    pairs = {p for m in f.terms() for p in m[0]}
    poly_vars = sorted({v for v, _ in pairs} - {QVAR})
    index = {v: i for i, v in enumerate(poly_vars)}
    rows = []
    for m, c in f.terms():
        q_exp, rest = _split_q(m)
        vec = [0] * len(poly_vars)
        for v, e in rest:
            vec[index[v]] = e
        rows.append((vec, q_exp, rest, c))
    rows.sort()
    text = {(v, e): f"{json.dumps(_var_name(v))}:{e}" for v, e in pairs if v != QVAR}
    record = '{"q":%d,"num":%d,"den":%d,"exps":{%s}}'
    return "[" + ",".join(
        record % (q, c.numerator, c.denominator, ",".join(map(text.__getitem__, rest))) for _, q, rest, c in rows
    ) + "]"


def _term_record(m, c):
    q_exp, rest = _split_q(m)
    return {
        "q": q_exp,
        "num": c.numerator,
        "den": c.denominator,
        "exps": {_var_name(v): e for v, e in rest},
    }


def _terms_by_sort_key(f):
    """f's terms sorted by a key computed per term: the exponent vector over
    f.variables() in variable order, then the q exponent."""
    poly_vars = sorted(f.variables())

    def key(item):
        q_exp, rest = _split_q(item[0])
        d = dict(rest)
        return (tuple(d.get(v, 0) for v in poly_vars), q_exp)

    return sorted(f.terms(), key=key)


def in_canonical_order(f):
    """Whether f's terms are stored in the order serialize_by_sorting writes them."""
    return list(f.terms()) == _terms_by_sort_key(f)


def serialize_poly_by_records(f):
    """Canonical JSON as json.dumps of one dict per term, the serializer that
    laurent.serialize_poly's single sort pass replaces."""
    return json.dumps([_term_record(m, c) for m, c in _terms_by_sort_key(f)], separators=(",", ":"))


def pretty_by_records(f):
    """The human form in the same per-term key order, as laurent.pretty wrote it
    before sharing serialize_poly's sort pass."""
    if f.is_zero():
        return "0"
    parts = []
    for m, c in _terms_by_sort_key(f):
        q_exp, rest = _split_q(m)
        sign = "-" if m and c == -1 else ""
        factors = [str(c)] if not m or c * c != 1 else []
        if q_exp:
            factors.append("q" if q_exp == 1 else f"q^{q_exp}")
        for v, e in rest:
            factors.append(_var_name(v) if e == 1 else f"{_var_name(v)}^{e}")
        parts.append(sign + "*".join(factors))
    return " + ".join(parts).replace("+ -", "- ")


class Shape(NamedTuple):
    """What a Satake model's Weyl group depends on: the presentation and the factor sizes.
    A size may be 0, as in the movable blocks of a Levi, which a GroupDatum refuses."""

    split: bool
    sizes: tuple

    @property
    def all_even(self):
        return all(n % 2 == 0 for n in self.sizes)


def shape_of(ring):
    """The shape of a HeckeRing: its presentation and its group's factor sizes."""
    return Shape(ring.split_presentation, ring.datum.sizes)


def slots(shape):
    """The number of torus slots of each factor: n_i split, q_i = n_i // 2 inert."""
    return shape.sizes if shape.split else tuple(n // 2 for n in shape.sizes)


# -- Weyl elements: the signed one-line form that laurent's slot tables replace ---------


@dataclass(frozen=True)
class WeylElement:
    """A signed permutation of each factor's torus slots, in signed one-line notation.

    Entry j of perms[i - 1] is k when the element sends X_{i,j} to X_{i,k}, and
    -k when it sends X_{i,j} to X_{i,k}^{-1} (inert places only).
    """

    perms: tuple


def identity(shape):
    """The identity Weyl element of the shape."""
    return WeylElement(tuple(tuple(range(1, d + 1)) for d in slots(shape)))


def weyl_generators_by_elements(shape, linear=None):
    """HeckeRing.generators() of the shape's ring with levi_linear=linear as Weyl
    elements, in the same order:
    factor i fixes its first linear[i] slots, and at split places their mirrors;
    its generators are the adjacent transpositions of the slots between and, at
    inert places, the sign change of its last slot."""
    ident = identity(shape).perms
    gens = []
    for i, (n, p0) in enumerate(zip(shape.sizes, ident)):
        lin = linear[i] if linear else 0
        top = n - lin if shape.split else len(p0)  # the movable block is lin+1..top
        local = [p0[: j - 1] + (j + 1, j) + p0[j + 1 :] for j in range(lin + 1, top)]
        if not shape.split and top > lin:
            local.append(p0[:-1] + (-top,))
        gens += [WeylElement(ident[:i] + (p,) + ident[i + 1 :]) for p in local]
    return tuple(gens)


def weyl_group(shape, linear=None):
    """The closure of weyl_generators_by_elements(shape, linear) under compose, sorted
    by perms: with `linear`, the Weyl group of that standard Levi."""
    gens = weyl_generators_by_elements(shape, linear)
    group, todo = {identity(shape)}, [identity(shape)]
    while todo:
        w = todo.pop()
        for ws in (compose(g, w) for g in gens):
            if ws not in group:
                group.add(ws)
                todo.append(ws)
    return tuple(sorted(group, key=lambda w: w.perms))


def weyl_table(w, shape):
    """w as a table v -> (monomial, +-1) over every variable of the shape's ring:
    X_{i,j} goes to X_{i,k} for entry k of w, and to X_{i,k}^{-1} for entry -k.
    When every factor is even, each entry -k also divides SIM by X_{i,k}."""
    table = {}
    flips = []
    for i, p in enumerate(w.perms, start=1):
        for j, e in enumerate(p, start=1):
            table[tor(i, j)] = (((tor(i, abs(e)), 1 if e > 0 else -1),), 1)
            if e < 0:
                flips.append((tor(i, -e), -1))
    table[SIM] = (_mono([(SIM, 1)] + (flips if shape.all_even else [])), 1)
    return table


def group_act(w, f, shape):
    """The action of a Weyl element: its table applied term by term by image_by_mono.
    A variable outside the shape's ring raises SubstitutionError."""
    return apply_by_mono(weyl_table(w, shape), f)


def weyl_order(shape):
    """|W| from its closed form: prod n_i! split, prod 2^{q_i} q_i! inert."""
    out = 1
    for d in slots(shape):
        out *= factorial(d) if shape.split else 2**d * factorial(d)
    return out


def act_monomial_by_cases(w, m, shape):
    """The image of a monomial under a Weyl element, branching on each
    variable's kind: the per-monomial action that a slot table replaces."""
    pairs = []
    for v, e in m:
        if v == QVAR:
            pairs.append((v, e))
        elif v[0] == "t":
            i, j = v[1], v[2]
            img = w.perms[i - 1][j - 1]
            if img > 0:
                pairs.append((tor(i, img), e))
            else:
                pairs.append((tor(i, -img), -e))
        else:  # SIM
            pairs.append((v, e))
            if shape.all_even:
                for i, entries in enumerate(w.perms, start=1):
                    for img in entries:
                        if img < 0:
                            pairs.append((tor(i, -img), -e))
    return _mono(pairs)


def symmetrize_over_group(f, group, shape):
    """Orbit sums from the images of each term under every element of the group,
    the |W| actions per term that closure under generators in
    laurent.symmetrize replaces."""
    return LaurentPoly.from_terms(
        (mono, c)
        for m, c in f.terms()
        for mono in {act_monomial_by_cases(w, m, shape) for w in group}
    )


def image_by_mono(table, m, coeff):
    """One term through a table v -> (monomial, +-1), q to q, its pairs summed by
    _mono: the one-pass term image that the memoised laurent._image replaces."""
    parts = []
    for v, e in m:
        if v == QVAR:
            parts.append((v, e))
            continue
        if v not in table:
            raise SubstitutionError(f"no image for variable {v}")
        im, c = table[v]
        if c < 0 and e & 1:  # (-1)**e
            coeff = -coeff
        for u, ue in im:
            parts.append((u, ue * e))
    return _mono(parts), coeff


def apply_by_mono(table, f):
    """laurent._apply with image_by_mono for each term."""
    return LaurentPoly.from_terms(image_by_mono(table, m, c) for m, c in f.terms())


def symmetrize_by_mono(f, tables):
    """laurent.symmetrize's orbit closure with image_by_mono for each term."""
    pairs = []
    for m, c in f.terms():
        seen, todo = {m}, [m]
        while todo:
            x = todo.pop()
            for t in tables:
                y = image_by_mono(t, x, 1)[0]
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        pairs += [(mono, c) for mono in seen]
    return LaurentPoly.from_terms(pairs)


def _alternant(exps, vars_):
    n = len(vars_)
    return LaurentPoly.from_terms(
        (_mono((vars_[i], exps[w[i] - 1]) for i in range(n)), perm_sign(w))
        for w in permutations(range(1, n + 1))
    )


def _lex_lead(f, vars_):
    best = None
    for m, c in f.terms():
        d = dict(m)
        key = tuple(d.get(v, 0) for v in vars_)
        if best is None or key > best[0]:
            best = (key, m, c)
    return best


def exact_divide(num, den, vars_):
    """Exact division of Laurent polynomials by lex-leading-term reduction."""
    quot = []
    rem = num
    lead_den = _lex_lead(den, vars_)
    if lead_den is None:
        raise ZeroDivisionError("division by zero polynomial")
    dkey, dmono, dcoeff = lead_den
    while not rem.is_zero():
        rkey, rmono, rcoeff = _lex_lead(rem, vars_)
        qexps = {v: rk - dk for v, rk, dk in zip(vars_, rkey, dkey) if rk - dk}
        term = LaurentPoly.monomial(qexps, coeff=Fraction(rcoeff) / dcoeff)
        quot.extend(term.terms())
        rem = rem - term * den
    return LaurentPoly.from_terms(quot)


def bialternant_character(size, lam):
    """The Weyl character of a dominant lam as the bialternant quotient
    a_{lam+delta} / a_delta, the n!-term division that the branching rule in
    characters.weyl_character replaces."""
    vars_ = [tor(1, j) for j in range(1, size + 1)]
    delta = tuple(range(size - 1, -1, -1))
    num = _alternant([l + d for l, d in zip(lam, delta)], vars_)
    return exact_divide(num, _alternant(delta, vars_), vars_)


def semistandard_tableaux_schur(lam, n):
    """Sum of the monomials x^T over the semistandard tableaux T with entries
    in 1..n whose shape is the positive part of lam."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(max(row, 0))]

    def fillings(idx, tab):
        if idx == len(cells):
            yield _mono((tor(1, v), 1) for v in tab.values())
            return
        i, j = cells[idx]
        lo = max(tab[i, j - 1] if j else 1, tab[i - 1, j] + 1 if i else 1)
        for v in range(lo, n + 1):
            tab[i, j] = v
            yield from fillings(idx + 1, tab)
            del tab[i, j]

    return LaurentPoly.from_terms((m, 1) for m in fillings(0, {}))


def _all_prefixes_positive(seq):
    run = 0
    for x in seq:
        run += x
        if run <= 0:
            return False
    return True


def positive_rotation_count_by_permutations(lam):
    """The n! count of permutations of lam with all prefix sums positive that
    the subset DP in characters.positive_rotation_count replaces; None when
    the total is not positive or a 2-partition has both block sums positive."""
    lam = [Fraction(x) for x in lam]
    n, total = len(lam), sum(lam)
    for bits in range(1, 2 ** (n - 1)):
        part = sum(lam[i] for i in range(n) if bits >> i & 1)
        if part > 0 and total - part > 0:
            return None
    if total <= 0:
        return None
    return sum(1 for p in permutations(lam) if _all_prefixes_positive(p))


def rotation_orbit_hits_by_rotating(lam):
    """The number of cyclic rotations of lam with all prefix sums positive, by
    building each rotation and its prefix mask: the O(n^2) walk that the
    prefix-minima pass in characters.rotation_orbit_hits replaces."""
    lam = _scale_to_ints(lam)
    n = len(lam)
    hits = 0
    for k in range(1, n + 1):
        rot = lam[k:] + lam[:k]
        if _prefix_positive_mask(rot) == (1 << n) - 1:
            hits += 1
    return hits


def ordered_partition_sum_by_enumeration(lam):
    """Sum of (-1)^k over the ordered set partitions (I_1, ..., I_k) with
    positive prefix block sums, enumerated block by block: the recursion that
    the subset DP in characters.ordered_partition_sum replaces."""
    lam = [Fraction(x) for x in lam]

    def rec(remaining, running, blocks):
        if not remaining:
            return (-1) ** blocks
        total = 0
        for k in range(1, len(remaining) + 1):
            for block in combinations(remaining, k):
                sub = running + sum(lam[i] for i in block)
                if sub > 0:
                    left = tuple(i for i in remaining if i not in block)
                    total += rec(left, sub, blocks + 1)
        return total

    return rec(tuple(range(len(lam))), 0, 0)


def coset_reps_by_filter(kd):
    """The permutations of 1..n whose inverse is increasing on each Levi block,
    kept from all n! in lexicographic order: the filter that the shuffle
    construction in characters.KostantDatum.coset_reps replaces."""
    blocks = kd.blocks()
    reps = []
    for w in permutations(range(1, kd.n + 1)):
        inv = perm_inverse(w)
        if all(inv[x - 1] < inv[y - 1] for b in blocks for x, y in zip(b, b[1:])):
            reps.append(w)
    return reps


def kostant_cohomology_by_length(kd, weight):
    """The entries of characters.kostant_cohomology from the filtered coset
    representatives, each degree counted by length and the entries then
    sorted: the build that the lengths cached with the shuffles replace."""
    lam2 = tuple(2 * x for x in weight.blocks[0])
    r2 = rho2(kd.n)
    entries = []
    for w in coset_reps_by_filter(kd):
        shifted2 = act(w, lam2)
        weight2 = tuple(x - y for x, y in zip(shifted2, r2))
        entries.append(KostantEntry(length(w), w, weight2, shifted2))
    entries.sort(key=lambda e: (e.degree, e.omega))
    return entries


def phi_identity_by_fractions(p, q, s, weight, direction=">"):
    """The report of characters.verify_phi_identity, computed with Fraction
    multiplicities 1/w_S', the filtered coset representatives and one
    inversion per sigma-translate, as it was before both sides were scaled
    to integers."""
    n = p + q
    lam2 = tuple(2 * x for x in weight.blocks[0])

    def sigma_act(vec, sigma):
        inv = perm_inverse(sigma)
        out = list(vec)
        for j in range(1, s + 1):
            out[j - 1] = vec[inv[j - 1] - 1]
            out[n - j] = vec[n - inv[j - 1]]
        return tuple(out)

    def add(side, vec, c):
        side[vec] = side.get(vec, Fraction(0)) + c
        if not side[vec]:
            del side[vec]

    side_a = {}
    for bits in range(2 ** (s - 1)):
        rs = sorted([r + 1 for r in range(s - 1) if bits >> r & 1] + [s])
        kd = KostantDatum(p, q, frozenset(rs))
        entries = kostant_cohomology_by_length(kd, weight)
        w_s = prod(factorial(b - a) for a, b in zip([0] + rs, rs))  # r_1! (r_2 - r_1)! ...
        coeff_base = Fraction((-1) ** (s - len(rs)), w_s)
        for e in truncate_cohomology(entries, rs, direction):
            for w_m in block_perms(kd.blocks()):
                expanded, det_m = act(w_m, e.shifted2), perm_sign(w_m)
                for sigma in permutations(range(1, s + 1)):
                    add(side_a, sigma_act(expanded, sigma), coeff_base * det_m * (-1) ** e.degree)

    side_b = {}
    for w in permutations(range(1, n + 1)):
        v = act(w, lam2)
        ok = True
        for r in range(1, s + 1):
            val = pairing_coroot(v, r)
            if val == 0:
                raise WallError(f"coroot wall at r={r}")
            if (val > 0) != (direction == ">"):
                ok = False
                break
        if ok:
            add(side_b, v, Fraction(perm_sign(w)))

    diff = []
    for k in sorted(set(side_a) | set(side_b)):
        d = side_a.get(k, Fraction(0)) - side_b.get(k, Fraction(0))
        if d:
            diff.append((list(k), str(d)))
    return {
        "p": p,
        "q": q,
        "s": s,
        "direction": direction,
        "side_a_terms": len(side_a),
        "side_b_terms": len(side_b),
        "equal": not diff,
        "differences": diff,
    }


def sample_rotation_vector_by_fractions(rng, n):
    """The vector of cli.sample_rotation_vector from the same random draws, as
    Fractions: the sampler before it scaled its entries to integers."""
    if rng.getrandbits(1):
        while True:
            lam = [rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)) for _ in range(n - 1)]
            if sum(lam) != 1:
                break
        lam = [Fraction(x) for x in lam + [1 - sum(lam)]]
    else:
        rest = [Fraction(-rng.randint(1, 40), rng.randint(1, 7)) for _ in range(n - 1)]
        big = -sum(rest) + Fraction(rng.randint(1, 30), rng.randint(1, 7))
        lam = [big] + rest
    rng.shuffle(lam)
    return lam


def _unsigned(entries):
    """A factor's signed one-line tuple as (permutation, sign of each image slot)."""
    signs = [1] * len(entries)
    for k in entries:
        signs[abs(k) - 1] = 1 if k > 0 else -1
    return tuple(abs(k) for k in entries), tuple(signs)


def _signed(p, signs):
    """Invert _unsigned: entry j is p(j) times the sign of slot p(j)."""
    return tuple(k * signs[k - 1] for k in p)


def compose(w1, w2):
    """The product w1 w2 of two Weyl elements (w2 acts first), through each
    factor's (permutation, signs) pair: (p1, e1)(p2, e2) = (p1 p2, e1 * p1(e2))."""
    perms = []
    for a, b in zip(w1.perms, w2.perms):
        (p1, e1), (p2, e2) = _unsigned(a), _unsigned(b)
        inv1 = perm_inverse(p1)
        perms.append(_signed(
            tuple(p1[p2[j] - 1] for j in range(len(p1))),
            tuple(e1[k] * e2[inv1[k] - 1] for k in range(len(e1))),
        ))
    return WeylElement(tuple(perms))


def inverse(w):
    """The inverse of a Weyl element."""
    perms = []
    for entries in w.perms:
        p, e = _unsigned(entries)
        perms.append(_signed(perm_inverse(p), tuple(e[p[k] - 1] for k in range(len(e)))))
    return WeylElement(tuple(perms))


def weyl_group_by_blocks(shape, linear=None):
    """weyl_group(shape, linear) as a product over the factors of the
    permutations moving each block of slots within itself, times, at inert
    places, the sign patterns of the movable slots: the enumeration that the
    closure of the Coxeter generators replaces.  Factor i keeps its first
    linear[i] slots fixed, and at split places their mirrors too."""
    factors = []
    for i, (n, d) in enumerate(zip(shape.sizes, slots(shape))):
        lin = linear[i] if linear else 0
        top = n - lin if shape.split else d
        blocks = [(j,) for j in range(1, lin + 1)] + [tuple(range(lin + 1, top + 1))]
        blocks += [(j,) for j in range(top + 1, d + 1)]
        if shape.split:
            signs = [(1,) * d]
        else:
            signs = [(1,) * lin + s for s in product((1, -1), repeat=d - lin)]
        factors.append([_signed(p, s) for p in block_perms(blocks) for s in signs])
    return tuple(WeylElement(combo) for combo in product(*factors))


def det_bareiss(rows):
    """Exact integer determinant by fraction-free elimination: the general
    solver that the closed form in characters.nonsingular_subsets replaces."""
    n = len(rows)
    a = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def nonsingular_subsets_by_recursion(n, p):
    """The subsets of characters.nonsingular_subsets by the inductive
    construction as a recursion: for p <= n-2 prepend {1..p} and recurse on
    {2..n}; for p = n-1 take all complements of singletons."""

    def build(size, k, offset):
        if size == 1:
            return [(offset + 1,)]
        if k == size - 1:
            return [
                tuple(offset + j for j in range(1, size + 1) if j != i)
                for i in range(1, size + 1)
            ]
        head = tuple(offset + j for j in range(1, k + 1))
        return [head] + build(size - 1, k, offset + 1)

    return build(n, p, 0)


def transfer_square_by_rebuilding(g, h, s, A, ctx):
    """The report of satake.verify_transfer_square, found by mapping every default
    generator through both composites instead of comparing slot images.  The Levi
    map is read from satake when called, so that a test may replace it there; it is
    built first, so that its check of the Levi data refuses a case first."""
    b_levi = satake.levi_twisted_transfer(g, h, s, A, ctx)
    b_tilde = twisted_transfer_map(g, h, ctx)
    gens = default_generators(g, ctx)
    failures = []
    for label, f in gens:
        lhs = b_levi(f)  # the constant term is the inclusion
        rhs = b_tilde(f)
        if lhs != rhs:
            failures.append(
                {
                    "generator": label,
                    "input": serialize_poly(f),
                    "levi_then_transfer": serialize_poly(lhs),
                    "transfer_then_levi": serialize_poly(rhs),
                    "difference": serialize_poly(lhs - rhs),
                }
            )
    return {"cases": len(gens), "failures": failures}


def elementary(n, k):
    """e_k(X_{1,1..n}), a sum of products of torus variables."""
    return sum((prod((LaurentPoly.var(tor(1, j)) for j in js), start=LaurentPoly.one())
                for js in combinations(range(1, n + 1), k)), LaurentPoly.zero())


def differing_elementary(phi, psi, n):
    """The first k in 1..n with phi(e_k) != psi(e_k), or None when every e_k agrees."""
    for k in range(1, n + 1):
        e_k = elementary(n, k)
        if phi(e_k) != psi(e_k):
            return k
    return None


def default_generators_by_orbits(g, ctx):
    """satake.default_generators with its four seeds summed over their Weyl orbits in
    the source ring, the orbit closure that the subset sums replace."""
    _require_single_factor(g)
    n = g.sizes[0]
    ring = hecke_ring(g, ctx, "source")
    group = ring.generators()
    gens = [("Z", LaurentPoly.var(SIM))]
    q_n = n // 2
    for alpha in range(n - q_n, n + 1):
        gens.append((f"kottwitz[alpha={alpha}]", kottwitz_function(g, (alpha,), ctx)))
    seeds = [("sym Z_1", {tor(1, 1): 1}), ("sym Z_1^2", {tor(1, 1): 2})]
    if n >= 2:
        seeds.append(("sym Z_1*Z_2", {tor(1, 1): 1, tor(1, 2): 1}))
        seeds.append(("sym Z_1*Z_2^-1", {tor(1, 1): 1, tor(1, 2): -1}))
    for label, exps in seeds:
        gens.append((label, symmetrize(LaurentPoly.monomial(exps), group)))
    return gens


# -- the morphism builders, each with its own image loop ------------------------------


def resolve_tor(ring, i, j):
    """Extended-index resolution of X_{i,j} inside the given ring."""
    if not 1 <= i <= ring.datum.r:
        raise ValueError(f"factor {i} out of range for a group of {ring.datum.r} factors")
    return LaurentPoly({_resolved(ring, tor(i, j), 1): 1})


def norm_similitude(ring):
    """The central cocharacter z -> z*Id as an element of the ring.

    In the split presentation this is the similitude variable itself.  In
    the inert presentation the ring's global variable has similitude
    multiplier of weight one when every factor is even, and the central
    element is Sim^2 times the product of all inverse torus variables;
    with an odd factor the global variable is already the central element.
    """
    return LaurentPoly({_resolved(ring, SIM, 1): 1})


def block_factors(h):
    """The factor of H that each block (n^+_i, n^-_i) of h is, numbered as
    EndoTriple.group_datum lists them: the nonzero blocks, plus before minus, factor
    by factor.  Returns the plus and the minus block's numbers, None for a zero block;
    the builders below number H's factors with it, not with the helper they check."""
    numbered = [(i, sign) for i, pair in enumerate(h.pairs()) for sign, b in zip("+-", pair) if b > 0]
    number = {block: k for k, block in enumerate(numbered, start=1)}
    return tuple([number.get((i, sign)) for i in range(len(h.pairs()))] for sign in "+-")


def base_change_by_hand(g, ctx):
    """satake.base_change_map with its image rule written out."""
    source = hecke_ring(g, ctx, "source")
    target = hecke_ring(g, ctx, "target")
    images = {}
    if not ctx.splits_over_l:
        for v in source.variables():
            images[v] = LaurentPoly.var(v, ctx.d)
        return Substitution(source, target, _substitution_table(images))
    a = ctx.a
    images[SIM] = norm_similitude(target) ** a
    for i, n_i in enumerate(g.sizes, start=1):
        for j in range(1, n_i + 1):
            images[tor(i, j)] = resolve_tor(target, i, j) ** a
    return Substitution(source, target, _substitution_table(images))


def transfer_by_hand(g, h, ctx):
    """satake.transfer_map with its split-place images written out."""
    h_datum = h.group_datum()
    source = hecke_ring(g, ctx, "target")
    target = HeckeRing(h_datum, split_presentation=ctx.split)
    _require_match(g, h)
    fp, fm = block_factors(h)
    images = {SIM: LaurentPoly.var(SIM)}
    if ctx.split:
        for i, (npl, _) in enumerate(h.pairs(), start=1):
            n_i = g.sizes[i - 1]
            for j in range(1, n_i + 1):
                if j <= npl:
                    images[tor(i, j)] = LaurentPoly.var(tor(fp[i - 1], j))
                else:
                    images[tor(i, j)] = LaurentPoly.var(tor(fm[i - 1], j - npl))
    else:
        for i, (npl, nmi) in enumerate(h.pairs(), start=1):
            q_i = g.sizes[i - 1] // 2
            qp = npl // 2
            for j in range(1, q_i + 1):
                if j <= qp:
                    images[tor(i, j)] = LaurentPoly.var(tor(fp[i - 1], j))
                else:
                    images[tor(i, j)] = LaurentPoly.var(tor(fm[i - 1], j - qp))
    return Substitution(source, target, _substitution_table(images))


def twisted_transfer_by_hand(g, h, ctx):
    """satake.twisted_transfer_map with its image rule written out."""
    if not ctx.splits_over_l:
        raise PlaceError(
            "twisted transfer implemented only when the group splits over L "
            "(split p, or inert p with even d)"
        )
    h_datum = h.group_datum()
    source = hecke_ring(g, ctx, "source")
    target = HeckeRing(h_datum, split_presentation=ctx.split)
    _require_match(g, h)
    fp, fm = block_factors(h)
    a = ctx.a
    images = {SIM: norm_similitude(target) ** a}
    for i, (npl, _) in enumerate(h.pairs(), start=1):
        n_i = g.sizes[i - 1]
        for j in range(1, n_i + 1):
            if j <= npl:
                images[tor(i, j)] = resolve_tor(target, fp[i - 1], j) ** a
            else:
                images[tor(i, j)] = -resolve_tor(target, fm[i - 1], j - npl) ** a
    return Substitution(source, target, _substitution_table(images))


def levi_twisted_transfer_by_hand(g, h, s, signs, ctx, variant="s_M"):
    """satake.levi_twisted_transfer with its image rule written out.  variant="s'_M"
    keeps the A-routed linear images positive, where "s_M" gives them the sign -1.
    signs is the (A, m1, m2) of satake.levi_sign_data."""
    _require_single_factor(g)
    if not ctx.splits_over_l:
        raise PlaceError("Levi twisted transfer needs the group split over L")
    n = g.sizes[0]
    n1, n2 = h.pairs()[0]
    A, m1, m2 = signs
    not_a = tuple(sorted(set(range(1, s + 1)) - set(A)))
    r1, r2 = len(not_a), len(A)
    if (m1, m2) != (n1 - 2 * r1, n2 - 2 * r2) or m1 < 0 or m2 < 0:
        raise ValueError("sign data inconsistent with the endoscopic datum")
    h_datum = h.group_datum()
    _require_match(g, h)
    fp, fm = block_factors(h)
    source = m_ring(g, s)
    lin_by_factor = {}
    if fp[0] is not None:
        lin_by_factor[fp[0]] = r1
    if fm[0] is not None:
        lin_by_factor[fm[0]] = r2
    target = HeckeRing(
        h_datum,
        split_presentation=ctx.split,
        levi_linear=tuple(lin_by_factor.get(k, 0) for k in range(1, h_datum.r + 1)),
    )
    a = ctx.a
    eps = -1 if variant == "s_M" else 1

    def t_image(block, pos):
        factor = fp[0] if block == 1 else fm[0]
        if factor is None:
            raise ValueError("routing into an empty block")
        return resolve_tor(target, factor, pos) ** a

    images = {SIM: norm_similitude(target) ** a}
    for k, i_k in enumerate(not_a, start=1):
        images[tor(1, i_k)] = t_image(1, k)
        images[tor(1, n + 1 - i_k)] = t_image(1, n1 + 1 - k)
    for l, j_l in enumerate(A, start=1):
        images[tor(1, j_l)] = t_image(2, l) * eps
        images[tor(1, n + 1 - j_l)] = t_image(2, n2 + 1 - l) * eps
    for i in range(s + 1, n - s + 1):
        if i <= s + m1:
            images[tor(1, i)] = t_image(1, i - r2)
        else:
            images[tor(1, i)] = -t_image(2, i - (r1 + m1))
    return Substitution(source, target, _substitution_table(images))


def levi_twisted_transfer_s_prime(g, h, s, A, ctx):
    """The negative control b_{s'_M} of the transfer square: the map b_{s_M} of
    satake.levi_twisted_transfer with its A-routed linear images negated, so
    that every linear image is positive.  The two differ by the sign character
    attached to A, and with s'_M the transfer square fails on some cases."""
    sub = levi_twisted_transfer(g, h, s, A, ctx)  # bound at import: a test may put this function in satake
    n = g.sizes[0]
    images = dict(sub.images)
    for j in set(A):
        images[tor(1, j)] = -images[tor(1, j)]
        images[tor(1, n + 1 - j)] = -images[tor(1, n + 1 - j)]
    return Substitution(sub.source, sub.target, _substitution_table(images))


# -- the value types as frozen dataclasses ------------------------------------------------
# Each twin has its library class's fields, defaults and checks (in __post_init__, with the
# same messages), so for integer input it must print, compare, hash and refuse as that class
# does.  A twin's repr is its class's with "Twin" after each class name.


@dataclass(frozen=True)
class GroupDatumTwin:
    sizes: tuple

    def __post_init__(self):
        if not self.sizes:
            raise ValueError("need at least one factor")
        if any(n < 1 for n in self.sizes):
            raise ValueError("factor sizes must be >= 1")
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))


@dataclass(frozen=True)
class SignedGroupDatumTwin:
    sig: tuple

    def __post_init__(self):
        sig = tuple((int(p), int(q)) for p, q in self.sig)
        if not sig:
            raise ValueError("need at least one factor")
        for p, q in sig:
            if p < 0 or q < 0 or p + q < 1:
                raise ValueError(f"bad signature ({p},{q})")
        object.__setattr__(self, "sig", sig)


@dataclass(frozen=True)
class EndoTripleTwin:
    nplus: tuple
    nminus: tuple

    def __post_init__(self):
        np_, nm = tuple(map(int, self.nplus)), tuple(map(int, self.nminus))
        if len(np_) != len(nm):
            raise ValueError("nplus and nminus must have the same length")
        if any(a < 0 for a in np_ + nm):
            raise ValueError("negative block size")
        if sum(nm) % 2 != 0:
            raise ParityError(f"sum of minus parts {sum(nm)} is odd")
        object.__setattr__(self, "nplus", np_)
        object.__setattr__(self, "nminus", nm)
        GroupDatumTwin(tuple(a + b for a, b in zip(np_, nm)))


@dataclass(frozen=True)
class PlaceContextTwin:
    split: bool
    d: int = 1

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be >= 1")


@dataclass(frozen=True)
class WeightTwin:
    a: int
    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(int(x) for x in b) for b in self.blocks))


@dataclass(frozen=True)
class KostantDatumTwin:
    p: int
    q: int
    s_set: frozenset

    def __post_init__(self):
        object.__setattr__(self, "s_set", frozenset(int(r) for r in self.s_set))
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError("need p >= 0, q >= 0 and p + q >= 1")
        if any(r < 1 or r > self.q for r in self.s_set):
            raise ValueError(f"S'={sorted(self.s_set)} not inside 1..{self.q}")


@dataclass(frozen=True)
class KostantEntryTwin:
    degree: int
    omega: tuple
    weight2: tuple
    shifted2: tuple


@dataclass(frozen=True)
class HeckeRingTwin:
    datum: GroupDatumTwin
    split_presentation: bool
    levi_linear: tuple = None

    def __post_init__(self):
        if self.levi_linear is not None:
            lin = tuple(int(x) for x in self.levi_linear)
            if len(lin) != len(self.datum.sizes):
                raise ValueError("one linear-slot count per factor required")
            for s, n in zip(lin, self.datum.sizes):
                if not 0 <= 2 * s <= n:
                    raise ValueError(f"linear count {s} out of range 0..{n // 2} for factor size {n}")
            object.__setattr__(self, "levi_linear", lin)


@dataclass(frozen=True)
class SubstitutionTwin:
    source: HeckeRingTwin
    target: HeckeRingTwin
    table: dict


DATACLASS_TWINS = {
    GroupDatum: GroupDatumTwin,
    SignedGroupDatum: SignedGroupDatumTwin,
    EndoTriple: EndoTripleTwin,
    PlaceContext: PlaceContextTwin,
    Weight: WeightTwin,
    KostantDatum: KostantDatumTwin,
    KostantEntry: KostantEntryTwin,
    HeckeRing: HeckeRingTwin,
    Substitution: SubstitutionTwin,
}
