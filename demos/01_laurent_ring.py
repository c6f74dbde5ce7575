"""Tour of the exact Laurent polynomial layer.

Every coefficient is a rational number times a power of the formal symbol
q (which stands for the square root of the residue cardinality), so all
arithmetic below is exact -- no floats anywhere.
"""

from fractions import Fraction

from satkit.laurent import (
    SIM,
    LaurentPoly,
    WeylShape,
    group_act,
    is_invariant,
    parse_poly,
    pretty,
    serialize_poly,
    substitute,
    symmetrize,
    tor,
    weyl_generators,
)

# Build some elements: X is the similitude variable, X_{1,j} torus variables.
X = LaurentPoly.var(SIM)
x1, x2, x3 = (LaurentPoly.var(tor(1, j)) for j in (1, 2, 3))

f = (x1 + x2) * (x1 - x2)
print("(X11+X12)(X11-X12) =", pretty(f))

g = LaurentPoly.q_power(2) * X ** -1 * (x1 + x2 + x3)
print("a q-scaled element:", pretty(g))

# Substitution is a ring homomorphism; images are signed q-monomials.
images = {
    SIM: LaurentPoly.monomial({SIM: 2}),
    tor(1, 1): LaurentPoly.monomial({tor(1, 1): 1}, coeff=-1),
    tor(1, 2): LaurentPoly.monomial({tor(1, 2): 1}),
    tor(1, 3): LaurentPoly.monomial({tor(1, 1): -1}),
}
print("substituted:", pretty(substitute(g, images)))

# The symmetric group of a split place acts by permuting torus variables;
# orbit sums are the basic invariants.  Orbits and invariance need only a
# generating set: here the adjacent transpositions of S_3.
shape = WeylShape(split=True, sizes=(3,))
group = weyl_generators(shape)
orbit = symmetrize(x1 * x1, group, shape)
print("orbit of X11^2:", pretty(orbit))
print("invariant?", is_invariant(orbit, group, shape))

# At an inert place the group is hyperoctahedral: a sign flip inverts a
# torus variable and multiplies the (all-even) similitude by its inverse.
ishape = WeylShape(split=False, sizes=(2,))
(flip,) = weyl_generators(ishape)  # the sign change of the one slot
print("flip acting on X:", pretty(group_act(flip, X, ishape)))

# Canonical JSON form round-trips exactly.
text = serialize_poly(g)
print("canonical form:", text)
assert parse_poly(text) == g
print("round-trip ok")
