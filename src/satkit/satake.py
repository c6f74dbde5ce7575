"""Satake-side models of spherical Hecke algebras for unitary similitude groups.

A Hecke algebra is modelled by its image under the Satake isomorphism: the
ring of Weyl-invariant Laurent polynomials in a similitude variable and
torus variables.  At a place where the group splits over the base field the
presentation has torus variables X_{i,1..n_i}; at an inert place it has
X_{i,1..q_i} together with the extended-index convention

    X_{i,j} = X_{i,n_i+1-j}^{-1}   for j > q_i,
    X_{i,(n_i+1)/2} = 1            for odd n_i,

used to resolve upper indices produced by the transfer formulas.

The four morphism families (base change, endoscopic transfer, twisted transfer,
constant term) are tables sending each variable to a signed q-monomial, written
with no ring arithmetic; twisted transfer commutes with constant terms on every
invariant exactly when both routes give the same entries up to a permutation of
the torus slots (verify_transfer_square).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from .laurent import (
    QVAR,
    SIM,
    LaurentPoly,
    Monomial,
    Var,
    _check_exp,
    _closure,
    _image,
    _mono,
    _tor_subset_sum,
    _var_name,
    act,
    is_invariant,
    serialize_poly,
    substitute,  # not called here; the benchmark's span test reads it through this module
    tor,
)
from .rootdata import EndoTriple, GroupDatum, PlaceContext, _ints, _Record


class PlaceError(ValueError):
    """The operation is not defined for this place context."""


# -- rings --------------------------------------------------------------------


class HeckeRing(_Record):
    """Descriptor of an invariant-polynomial model of a spherical Hecke algebra.

    split_presentation is True when torus variables run to n_i (group split
    over the base field of the ring), False for the inert presentation with
    variables up to q_i.  A Levi ring carries levi_linear: the per-factor
    count of linear slots its Weyl group must fix, shrinking the invariance
    group to the Levi's own.
    """

    FIELDS = ("datum", "split_presentation", "levi_linear")

    def __init__(
        self, datum: GroupDatum, split_presentation: bool, levi_linear: Optional[Tuple[int, ...]] = None
    ):
        if levi_linear is not None:
            levi_linear = _ints("levi_linear", *levi_linear)
            if len(levi_linear) != datum.r:
                raise ValueError("one linear-slot count per factor required")
            for s, n in zip(levi_linear, datum.sizes):
                _check_linear(s, n)
        object.__setattr__(self, "datum", datum)
        object.__setattr__(self, "split_presentation", split_presentation)
        object.__setattr__(self, "levi_linear", levi_linear)

    def variables(self) -> List[Var]:
        out: List[Var] = [SIM]
        bounds = self.datum.sizes if self.split_presentation else self.datum.qs
        for i, b in enumerate(bounds, start=1):
            out.extend(tor(i, j) for j in range(1, b + 1))
        return out

    def weyl(self) -> Tuple[Dict, ...]:
        """Every element of the invariance group as a table, sorted: the closure of
        generators() under composition.  Nothing in src/ calls it; perfbench/spans.py
        names it in METHODS, so it goes once that installer skips missing names."""
        gens = [(g, {}) for g in self.generators()]

        def step(t):  # g after t
            for g, memo in gens:
                yield tuple((v, _image(g, memo, m, c)) for v, (m, c) in t)

        ident = tuple((v, (((v, 1),), 1)) for v in self.variables())
        return tuple(map(dict, sorted(_closure(ident, step))))

    def generators(self) -> Tuple[Dict, ...]:
        """The Coxeter generators of the invariance group, at most sum(sizes) of them, each
        a table (see laurent.act) over every variable of the ring.

        Factor i fixes its first levi_linear[i] slots, and in the split presentation
        their mirrors, the last ones.  Its generators are the transpositions of adjacent
        slots between, which swap two entries of the identity table, and in the inert
        presentation the sign change of its last slot X_{i,top}, which maps X_{i,top} to
        its inverse and, when every factor is even, SIM to SIM X_{i,top}^{-1}
        (generators of S_k and of the hyperoctahedral group).  The trivial group gets
        the empty set.
        """
        split, sizes = self.split_presentation, self.datum.sizes
        ident = {v: (((v, 1),), 1) for v in self.variables()}
        gens = []
        for i, (n, lin) in enumerate(zip(sizes, self.levi_linear or (0,) * len(sizes)), 1):
            top = n - lin if split else n // 2  # the movable block is lin+1..top
            for x, y in ((tor(i, j), tor(i, j + 1)) for j in range(lin + 1, top)):
                gens.append({**ident, x: ident[y], y: ident[x]})
            if not split and top > lin:
                x = tor(i, top)
                sim = ((SIM, 1), (x, -1)) if self.datum.all_even else ((SIM, 1),)
                gens.append({**ident, x: (((x, -1),), 1), SIM: (sim, 1)})
        return tuple(gens)

    def contains(self, f: LaurentPoly) -> bool:
        """Invariance check; also rejects stray variables."""
        allowed = set(self.variables())
        if not f.variables() <= allowed:
            return False
        return is_invariant(f, self.generators())


def _check_linear(s: int, n: int) -> None:
    """Refuse s linear slots in a factor of size n unless 0 <= 2s <= n."""
    if not 0 <= 2 * s <= n:
        raise ValueError(f"linear count {s} out of range 0..{n // 2} for factor size {n}")


def hecke_ring(g: GroupDatum, ctx: PlaceContext, side: str = "target") -> HeckeRing:
    """The Satake model of H(G(L), K_L) (side="source") or H(G(Q_p), K_0).

    The source ring uses the split presentation exactly when the group
    splits over L; the target ring when p splits in E.
    """
    if side == "source":
        return HeckeRing(g, split_presentation=ctx.splits_over_l)
    if side == "target":
        return HeckeRing(g, split_presentation=ctx.split)
    raise ValueError("side must be 'source' or 'target'")


def _resolved(ring: HeckeRing, v: Var, e: int) -> Monomial:
    """v^e in the ring as a q-free canonical monomial, each exponent checked to 32 bits:
    SIM stands for the central element z -> z*Id, Sim itself unless the ring is inert with
    every factor even, where Sim has similitude weight one and the central element is
    Sim^2 times every inverse torus variable.  An inert X_{i,j} with j > q_i is read
    through the extended-index convention."""
    if v == SIM:
        if ring.split_presentation or not ring.datum.all_even:
            return ((SIM, _check_exp(e)),)
        inverses = ((tor(i, j), -e) for i, q_i in enumerate(ring.datum.qs, 1) for j in range(1, q_i + 1))
        return ((SIM, _check_exp(2 * e)), *inverses)  # |-e| <= |2e|
    _, i, j = v
    n_i = ring.datum.sizes[i - 1]
    if not 1 <= j <= n_i:
        raise ValueError(f"index {j} out of range for factor of size {n_i}")
    if ring.split_presentation or j <= n_i // 2:
        return ((v, _check_exp(e)),)
    if n_i % 2 == 1 and j == n_i // 2 + 1:
        return ()
    return ((tor(i, n_i + 1 - j), _check_exp(-e)),)


# -- substitutions ---------------------------------------------------------------


class Substitution(_Record):
    """A morphism of Satake models as the table laurent.act reads: v -> (m, c), the
    image c m of v, m a canonical monomial and c = +-1."""

    FIELDS = ("source", "target", "table")

    def __init__(self, source: HeckeRing, target: HeckeRing, table: Dict[Var, Tuple[Monomial, int]]):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "table", table)

    def __call__(self, f: LaurentPoly) -> LaurentPoly:
        return act(self.table, f)

    @cached_property
    def images(self) -> Dict[Var, LaurentPoly]:
        """The table's images as polynomials, built on first use, for printing."""
        return {v: LaurentPoly({m: c}) for v, (m, c) in self.table.items()}

    def as_json_dict(self) -> Dict[str, str]:
        return {_var_name(v): serialize_poly(img) for v, img in sorted(self.images.items())}


# -- the Kottwitz spherical functions ------------------------------------------


def kottwitz_function(g: GroupDatum, s_vec: Sequence[int], ctx: PlaceContext) -> LaurentPoly:
    """Satake transform of the basic double-coset function attached to s_vec.

    Equals q^{d * sum s_i(n_i - s_i)} X^{-1} times the sum over index
    subsets I_i of size s_i of the inverse torus monomials.  Defined when
    the group splits over L.
    """
    if not ctx.splits_over_l:
        raise PlaceError("the basic spherical function needs the group split over L")
    s_vec = _ints("s", *s_vec)
    if len(s_vec) != g.r:
        raise ValueError("one s_i per factor required")
    for s, n in zip(s_vec, g.sizes):
        if not 0 <= s <= n:
            raise ValueError(f"s={s} out of range for factor of size {n}")
    q_exp = _check_exp(ctx.d * sum(s * (n - s) for s, n in zip(s_vec, g.sizes)))
    head = ((QVAR, q_exp), (SIM, -1)) if q_exp else ((SIM, -1),)
    return _tor_subset_sum(head, [(range(1, n + 1), s, -1) for s, n in zip(s_vec, g.sizes)])


# -- routed maps -----------------------------------------------------------------


def _routed_map(source: HeckeRing, target: HeckeRing, a: int, routes) -> Substitution:
    """The image rule shared by base change, transfer at split places and the
    twisted transfers.

    The similitude maps to the a-th power of the target's central element.
    Each route (i, j, factor, position, sign) sends the torus slot X_{i,j} to
    sign * X_{factor,position}^a, the target variable read through its
    extended-index convention (see _resolved).
    """
    table = {SIM: (_resolved(target, SIM, a), 1)}
    for i, j, factor, position, sign in routes:
        table[tor(i, j)] = (_resolved(target, tor(factor, position), a), sign)
    return Substitution(source, target, table)


# -- base change -----------------------------------------------------------------


def base_change_map(g: GroupDatum, ctx: PlaceContext) -> Substitution:
    """Hecke-algebra base change from level L down to Q_p, as a substitution.

    Not split over L: every variable is raised to the d-th power.  Split
    over L: the routed map (see _routed_map) with exponent a that sends each
    torus slot (i, j) to slot (i, j) of the target.
    """
    source = hecke_ring(g, ctx, "source")
    target = hecke_ring(g, ctx, "target")
    if not ctx.splits_over_l:
        d = _check_exp(ctx.d)
        return Substitution(source, target, {v: (((v, d),), 1) for v in source.variables()})
    routes = [(i, j, i, j, 1) for i, n_i in enumerate(g.sizes, start=1) for j in range(1, n_i + 1)]
    return _routed_map(source, target, ctx.a, routes)


# -- endoscopic transfer ----------------------------------------------------------


def _require_match(g: GroupDatum, h: EndoTriple):
    if not h.matches(g):
        raise ValueError(f"endoscopic datum {h} does not match {g}")


def _block_routing(pairs):
    """Target factor index for each (source factor, sign) of the blocks (n^+_i, n^-_i),
    zero blocks dropped.  A zero block's None is never read: every route goes to a slot
    of a block with positive size.  Its callers check the datum against the group,
    once per map."""
    fp: List[Optional[int]] = []
    fm: List[Optional[int]] = []
    idx = 0
    for npl, nmi in pairs:
        if npl > 0:
            idx += 1
            fp.append(idx)
        else:
            fp.append(None)
        if nmi > 0:
            idx += 1
            fm.append(idx)
        else:
            fm.append(None)
    return fp, fm


def _block_routes(pairs, minus_sign: int):
    """Blockwise routes of every torus slot: the first n^+_i slots of factor i go to
    its plus block, the other n^-_i to its minus block with sign minus_sign."""
    fp, fm = _block_routing(pairs)
    return [
        (i, j, fp[i - 1], j, 1) if j <= npl else (i, j, fm[i - 1], j - npl, minus_sign)
        for i, (npl, nmi) in enumerate(pairs, start=1)
        for j in range(1, npl + nmi + 1)
    ]


def transfer_map(g: GroupDatum, h: EndoTriple, ctx: PlaceContext) -> Substitution:
    """Unramified endoscopic transfer at p, as a substitution into the H-ring.

    The similitude variable maps to the target's global similitude variable;
    torus variables are routed blockwise, with no signs.  At a split place
    this is the routed map with exponent 1.  At an inert place slot j <= q_i
    of factor i goes to slot j of its plus block while j <= q^+ = n^+_i // 2,
    else to slot j - q^+ of its minus block, named directly rather than
    resolved through extended indices.
    """
    _require_match(g, h)
    pairs = h.pairs()
    source = hecke_ring(g, ctx, "target")
    target = HeckeRing(h.group_datum(), split_presentation=ctx.split)
    if ctx.split:
        return _routed_map(source, target, 1, _block_routes(pairs, 1))
    fp, fm = _block_routing(pairs)
    table = {SIM: (((SIM, 1),), 1)}
    for i, (npl, nmi) in enumerate(pairs, start=1):
        qp = npl // 2
        for j in range(1, (npl + nmi) // 2 + 1):
            table[tor(i, j)] = (((tor(fp[i - 1], j) if j <= qp else tor(fm[i - 1], j - qp), 1),), 1)
    return Substitution(source, target, table)


def twisted_transfer_map(g: GroupDatum, h: EndoTriple, ctx: PlaceContext) -> Substitution:
    """Twisted (unstable base change) transfer from level L into the H-ring at p.

    The routed map with exponent a: torus variables route blockwise with a
    sign -1 on every minus block.  Only defined when the group splits over
    L: for an inert place of odd degree the displayed formulas live on
    extended symbols and do not determine a termwise map of the inert
    presentation (mixed-parity blocks), so that case is rejected rather than
    guessed.
    """
    if not ctx.splits_over_l:
        raise PlaceError(
            "twisted transfer implemented only when the group splits over L "
            "(split p, or inert p with even d)"
        )
    _require_match(g, h)
    source = hecke_ring(g, ctx, "source")
    target = HeckeRing(h.group_datum(), split_presentation=ctx.split)
    return _routed_map(source, target, ctx.a, _block_routes(h.pairs(), -1))


# -- Levi subgroups and constant terms ---------------------------------------------


def levi_sign_data(g: GroupDatum, h: EndoTriple, s: int, A) -> Tuple[Tuple[int, ...], int, int]:
    """Validate (G, H, s, A) and return (A, m1, m2): A sorted without repeats, and the
    Hermitian split m = m1 + m2.  s is the linear count of the standard Levi, whose
    linear part is (Res G_m)^s.

    The |A| linear pairs route to the second block, the rest to the first;
    consistency forces m_k = n_k - 2 r_k >= 0.  H must be a datum of G.
    """
    s = _require_levi(g, s)
    A = tuple(sorted(set(_ints("A", *A))))
    if any(x < 1 or x > s for x in A):
        raise ValueError(f"A={A} not a subset of 1..{s}")
    n1, n2 = h.pairs()[0]
    r2 = len(A)
    r1 = s - r2
    m1 = n1 - 2 * r1
    m2 = n2 - 2 * r2
    if m1 < 0 or m2 < 0:
        raise ValueError(
            f"inconsistent Levi sign data: blocks ({n1},{n2}), s={s}, |A|={r2} "
            f"give Hermitian sizes ({m1},{m2})"
        )
    _require_match(g, h)
    return A, m1, m2


def _require_single_factor(g: GroupDatum):
    if g.r != 1:
        raise ValueError("Levi operations are implemented for single-factor groups")


def _require_levi(g: GroupDatum, s: int) -> int:
    """The one check that g has the Levi of linear count s: a single factor, and an
    integer s with 0 <= 2s <= n.  Returns s as an int."""
    _require_single_factor(g)
    (s,) = _ints("s", s)
    _check_linear(s, g.sizes[0])
    return s


def m_ring(g: GroupDatum, s: int) -> HeckeRing:
    """The Levi's ring: same variables, invariance only under the Levi Weyl group.
    It refuses what _require_levi refuses, with the same messages (HeckeRing checks
    the linear count)."""
    _require_single_factor(g)
    return HeckeRing(g, split_presentation=True, levi_linear=_ints("s", s))


def levi_constant_term(f: LaurentPoly, g: GroupDatum, s: int, ctx: PlaceContext) -> LaurentPoly:
    """Constant term to the Levi: the identity on polynomials.

    Under the Satake models the constant term is the inclusion of the
    G-invariants into the larger ring of M-invariants, so the polynomial is
    returned unchanged once its invariance under the full Weyl group is
    verified.
    """
    _require_levi(g, s)
    if not hecke_ring(g, ctx, "source").contains(f):
        raise ValueError("constant term input is not invariant under the full Weyl group")
    return f


def levi_kottwitz_function(g: GroupDatum, s: int, alpha: int, ctx: PlaceContext) -> LaurentPoly:
    """Satake transform of the Levi-level basic function attached to alpha.

    For alpha <= n - s this is q^{d(alpha-s)(n-alpha-s)} (Z Z_1...Z_s)^{-1}
    times the subset sum over the middle block; for alpha >= n - s + 1 it is
    the single monomial (Z Z_1 ... Z_alpha)^{-1}.
    """
    s = _require_levi(g, s)
    if not ctx.splits_over_l:
        raise PlaceError("Levi spherical functions need the group split over L")
    (alpha,), n = _ints("alpha", alpha), g.sizes[0]
    q_n = n // 2
    if not n - q_n <= alpha <= n:
        raise ValueError(f"alpha={alpha} out of range [{n - q_n}, {n}]")
    if alpha >= n - s + 1:
        return _tor_subset_sum(((SIM, -1),), [(range(1, alpha + 1), alpha, -1)])
    q_exp = _check_exp(ctx.d * (alpha - s) * (n - alpha - s))
    head = ((QVAR, q_exp),) if q_exp else ()
    head += ((SIM, -1),) + tuple((tor(1, j), -1) for j in range(1, s + 1))
    return _tor_subset_sum(head, [(range(s + 1, n - s + 1), alpha - s, -1)])


def levi_twisted_transfer(g: GroupDatum, h: EndoTriple, s: int, A, ctx: PlaceContext) -> Substitution:
    """Twisted transfer at the Levi level (the map b_{s_M}), as a substitution table.

    The routed map with exponent a.  The linear pairs indexed by the
    complement of A route to the first block, those indexed by A to the
    second with a sign -1; Hermitian middle variables route with a sign -1
    on the second block.  The target's Levi fixes r_1 = s - |A| linear slots
    of the first block and r_2 = |A| of the second.  (G, H, s, A) are checked
    by levi_sign_data.
    """
    A, m1, _ = levi_sign_data(g, h, s, A)
    if not ctx.splits_over_l:
        raise PlaceError("Levi twisted transfer needs the group split over L")
    n = g.sizes[0]
    pairs = h.pairs()
    n1, n2 = pairs[0]
    not_a = tuple(j for j in range(1, s + 1) if j not in A)
    r1, r2 = len(not_a), len(A)
    fp, fm = _block_routing(pairs)
    source = m_ring(g, s)
    levi_linear = tuple(r for r, size in ((r1, n1), (r2, n2)) if size > 0)
    target = HeckeRing(h.group_datum(), split_presentation=ctx.split, levi_linear=levi_linear)
    routes = []
    for k, i_k in enumerate(not_a, start=1):
        routes += [(1, i_k, fp[0], k, 1), (1, n + 1 - i_k, fp[0], n1 + 1 - k, 1)]
    for l, j_l in enumerate(A, start=1):
        routes += [(1, j_l, fm[0], l, -1), (1, n + 1 - j_l, fm[0], n2 + 1 - l, -1)]
    for i in range(s + 1, n - s + 1):
        routes.append((1, i, fp[0], i - r2, 1) if i <= s + m1 else (1, i, fm[0], i - (r1 + m1), -1))
    return _routed_map(source, target, ctx.a, routes)


# -- the compatibility check ---------------------------------------------------


def default_generators(g: GroupDatum, ctx: PlaceContext) -> List[Tuple[str, LaurentPoly]]:
    """Invariant test elements: the basic spherical functions plus the orbit sums of
    X_1, X_1^2, X_1 X_2 and X_1 X_2^-1.  kottwitz_function raises PlaceError unless g
    splits over L, so the ring is the split presentation, where W = S_n permutes
    X_{1,1..n}: the orbit sums are e_1, p_2, e_2 and the sum over i != j of X_i X_j^-1.
    verify_transfer_square maps them only to name what fails in a failing square; its
    count of cases is generator_count."""
    _require_single_factor(g)
    n = g.sizes[0]
    gens: List[Tuple[str, LaurentPoly]] = [("Z", LaurentPoly.var(SIM))]
    q_n = n // 2
    for alpha in range(n - q_n, n + 1):
        gens.append((f"kottwitz[alpha={alpha}]", kottwitz_function(g, (alpha,), ctx)))
    slots = range(1, n + 1)
    gens.append(("sym Z_1", _tor_subset_sum((), [(slots, 1, 1)])))
    gens.append(("sym Z_1^2", _tor_subset_sum((), [(slots, 1, 2)])))
    if n >= 2:
        gens.append(("sym Z_1*Z_2", _tor_subset_sum((), [(slots, 2, 1)])))
        ratios = (_mono([(tor(1, i), 1), (tor(1, j), -1)]) for i in slots for j in slots if i != j)
        gens.append(("sym Z_1*Z_2^-1", LaurentPoly.from_terms((m, 1) for m in ratios)))
    return gens


def generator_count(n: int) -> int:
    """len(default_generators(g, ctx)) for g of size n, without building them."""
    return n // 2 + (4 if n == 1 else 6)


def _square_failures(b_levi: Substitution, b_tilde: Substitution, gens):
    """The failure record of each (label, invariant) whose two images differ, in order."""
    for label, f in gens:
        lhs, rhs = b_levi(f), b_tilde(f)  # the constant term is the inclusion
        if lhs != rhs:
            yield {"generator": label, "input": serialize_poly(f), "levi_then_transfer": serialize_poly(lhs),
                   "transfer_then_levi": serialize_poly(rhs), "difference": serialize_poly(lhs - rhs)}


def verify_transfer_square(g: GroupDatum, h: EndoTriple, s: int, A, ctx: PlaceContext) -> Dict:
    """Decide whether twisted transfer commutes with constant terms, on the whole invariant ring.

    The constant terms are inclusions, so the square commutes when the Levi map psi
    and the group map phi agree on Q[X^+-1] (x) Q[T^+-1]^{S_n}.  Each sends X and every
    slot T_j to a signed q-monomial of a domain R, and they agree exactly when psi(X) =
    phi(X) and the multisets {psi(T_j)}, {phi(T_j)} are equal.  Then psi = phi o sigma
    for a slot permutation sigma, which fixes every invariant.  Conversely, agreement on
    e_1..e_n makes prod_j (t - psi(T_j)) = sum_k (-1)^k psi(e_k) t^(n-k) equal for phi,
    so unique factorisation gives equal roots; and e_1..e_n, e_n^-1 generate the
    invariants (Macdonald, Symmetric Functions and Hall Polynomials, I.2).  The Levi map
    is built first, so levi_sign_data checks (G, H, s, A) once.  The report holds only
    cases, the count of default generators, and failures: a failing square lists each
    whose images differ, else the first e_k that does.
    """
    b_levi = levi_twisted_transfer(g, h, s, A, ctx)
    b_tilde = twisted_transfer_map(g, h, ctx)
    n = g.sizes[0]
    failures = []
    # with equal similitude images, all images sort equal exactly when the slots' do
    levi_images, group_images = ((b.table[SIM], sorted(b.table.values())) for b in (b_levi, b_tilde))
    if levi_images != group_images:
        failures = list(_square_failures(b_levi, b_tilde, default_generators(g, ctx)))
        # the generators leave e_k for n // 2 < k < n - 1 undetermined
        e_k = ((f"e_{k}", _tor_subset_sum((), [(range(1, n + 1), k, 1)])) for k in range(1, n + 1))
        failures = failures or [next(_square_failures(b_levi, b_tilde, e_k))]
    return {"cases": generator_count(n), "failures": failures}


def exponent_identity_holds(n: int, alpha: int, r: int) -> bool:
    """alpha(n-alpha) - (alpha-r)(n-alpha-r) = r(n-r), exactly."""
    return alpha * (n - alpha) - (alpha - r) * (n - alpha - r) == r * (n - r)
