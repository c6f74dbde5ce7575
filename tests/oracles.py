"""Slow reference implementations that the library's results are checked against."""

from itertools import product

from satkit.laurent import LaurentPoly, _act_monomial


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
