"""Exact Satake-side Hecke algebra and discrete-series combinatorics for
unitary similitude groups.

Submodules:
    laurent     exact multivariate Laurent polynomials, Weyl actions, JSON form
    rootdata    group data, elliptic endoscopic data, stabilization coefficients
    satake      spherical Hecke algebra models and the transfer morphisms
    characters  Kostant cohomology and its signed permutations, signed partition
                lemmas, Weyl characters
    cli         deterministic command-line front end
"""

from .laurent import LaurentPoly, parse_poly, serialize_poly
from .rootdata import EndoTriple, GroupDatum, PlaceContext, SignedGroupDatum
from .characters import Weight

__all__ = [
    "LaurentPoly",
    "parse_poly",
    "serialize_poly",
    "EndoTriple",
    "GroupDatum",
    "PlaceContext",
    "SignedGroupDatum",
    "Weight",
]

__version__ = "0.1.0"
