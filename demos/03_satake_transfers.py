"""Spherical Hecke algebras on the Satake side and the transfer morphisms.

The basic double-coset functions have explicit Satake transforms: a power
of q times the similitude inverse times a subset sum of inverse torus
variables.  Base change, endoscopic transfer and twisted transfer are all
variable substitutions, and the twisted transfer commutes with constant
terms to a standard Levi -- checked here as an exact polynomial identity.
"""

from satkit.laurent import pretty
from satkit.rootdata import EndoTriple, GroupDatum, PlaceContext
from satkit.satake import (
    base_change_map,
    kottwitz_function,
    levi_kottwitz_function,
    levi_sign_data,
    transfer_map,
    twisted_transfer_map,
    verify_transfer_square,
)

split = PlaceContext(split=True, d=1)

g = GroupDatum((4,))
phi = kottwitz_function(g, (2,), split)
print("basic function, n=4, alpha=2:")
print("  ", pretty(phi))

# Base change at an inert place of even degree resolves upper indices
# through X_{i,j} = X_{i,n+1-j}^{-1}.
bc = base_change_map(GroupDatum((3,)), PlaceContext(split=False, d=2))
print("base change (n=3, inert, d=2):")
for v, img in sorted(bc.images.items()):
    print(f"   {v} -> {pretty(img)}")

# The twisted transfer to the (2,2) endoscopic group puts a sign on the
# second block.
h = EndoTriple((2,), (2,))
tw = twisted_transfer_map(g, h, split)
print("twisted transfer images (n=4 -> (2,2)):")
for v, img in sorted(tw.images.items()):
    print(f"   {v} -> {pretty(img)}")
print("image of the basic function:")
print("  ", pretty(tw(phi)))

# Ordinary transfer has no signs.
tr = transfer_map(g, h, split)
print("plain transfer of the same function:")
print("  ", pretty(tr(phi)))

# Levi level: the Hermitian-block basic function, and the transfer square
# through the signed routing attached to a subset A of the linear slots.
# A standard Levi is given by its linear count s.
s = 1
print("Levi basic function (n=4, s=1, alpha=2):")
print("  ", pretty(levi_kottwitz_function(g, s, 2, split)))

for A in ([], [1]):
    report = verify_transfer_square(g, h, s, A, split)
    print(
        f"A={A}: Hermitian split {list(levi_sign_data(g, h, s, A)[1:])}, "
        f"{report['cases']} generators, {len(report['failures'])} failures"
    )
