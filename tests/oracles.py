"""Slow reference implementations that the library's results are checked against."""

from itertools import permutations, product

from satkit import perm
from satkit.laurent import LaurentPoly, _act_monomial, _mono, tor


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


def symmetrize_over_group(f, group, shape):
    """Orbit sums from the images of each term under every element of the group,
    the |W| actions per term that closure under generators in
    laurent.symmetrize replaces."""
    return LaurentPoly.from_terms(
        (mono, c) for m, c in f.terms() for mono in {_act_monomial(w, m, shape) for w in group}
    )


def _alternant(exps, vars_):
    n = len(vars_)
    return LaurentPoly.from_terms(
        (_mono((vars_[i], exps[w[i] - 1]) for i in range(n)), perm.parity(w))
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
        term = LaurentPoly.monomial(qexps, coeff=rcoeff / dcoeff)
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
