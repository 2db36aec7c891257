"""Higgs pairs, the morphism correspondence, spectral covers, and the
one-parameter quantum family.

A Higgs pair is a tuple of commuting square matrices over an affine base
ring; it corresponds to a morphism presentation by closing the generator
images under products inside the matrix algebra, over the base fraction
field K.  Each product is decided at an integer base point z0 where it can
be; once a generator Phi is certified non-derogatory at z0, the closure is
K[Phi] and complete at r elements, and a product dependent at z0 below
that bound goes to the exact elimination over K (``higgs_to_morphism``).
For a single generator the characteristic polynomial cuts out the spectral
cover; the minimal polynomial cuts out the image ideal, and the two agree
exactly when the generator is non-derogatory (so whenever the cover is
squarefree).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

from .diffop import MixedOperator
from .errors import NotAdmissibleError, ShapeError
from . import linalg
from .linalg import (PolyMatrix, SpanBasis, char_poly, evaluate, independent, min_poly,
                     nonderogatory_point, squarefree_in_v)
from .poly import MultiPoly


@dataclass(frozen=True)
class HiggsPair:
    """Free rank-r module with commuting endomorphism images."""

    r: int
    phis: tuple
    base_vars: tuple = ("z",)

    def __post_init__(self):
        object.__setattr__(self, "phis", tuple(self.phis))
        object.__setattr__(self, "base_vars", tuple(self.base_vars))
        for m in self.phis:
            if m.shape() != (self.r, self.r):
                raise ShapeError("generator image has wrong shape")
            if not m.variables() <= set(self.base_vars):
                raise ShapeError(
                    f"generator entries must lie in the base ring "
                    f"Q[{', '.join(self.base_vars)}]")


@dataclass(frozen=True)
class MorphismPresentation:
    """Generator images plus a module basis of the subalgebra they generate."""

    generator_images: tuple
    subalgebra_basis: tuple

    def rank(self) -> int:
        return self.subalgebra_basis[0].rows


@dataclass(frozen=True)
class SpectralCover:
    """Monic-in-v cover polynomial and its squarefree flag."""

    poly: MultiPoly
    reduced: bool


@dataclass(frozen=True)
class LambdaConnectionFamily:
    """Family lam*D + A with A over the base ring extended by lam."""

    a: PolyMatrix
    r: int

    def __post_init__(self):
        if self.a.shape() != (self.r, self.r):
            raise ShapeError("family matrix has wrong shape")


def commutativity_admissible(h: HiggsPair) -> bool:
    """True when all generator images pairwise commute."""
    for i in range(len(h.phis)):
        for j in range(i + 1, len(h.phis)):
            if not h.phis[i].commutator(h.phis[j]).is_zero():
                return False
    return True


def _flatten(m: PolyMatrix):
    return list(m.entries)


def _certified(phis):
    """``(Phi, z0)`` for the first Phi certified non-derogatory at z0, or None."""
    for phi in phis:
        cert = nonderogatory_point(phi)
        if cert is not None:
            return phi, cert[0]
    return None


def higgs_to_morphism(h: HiggsPair) -> MorphismPresentation:
    """Close {I, Phi_1, ..., Phi_k} under products over the base fraction
    field K: keep each candidate (I, the generators, then b * Phi_j for each
    kept b != I in turn) that is independent over K of the ones kept before
    it.

    Zero and repeats of kept elements are dependent.  Otherwise, if the
    kept elements and the candidate, evaluated at z0 (``linalg.evaluate``),
    are independent over Q, they are independent over K; with constant
    generators dependence at z0 is exact too.  Any other candidate goes to a
    ``SpanBasis`` over K, filled lazily with the kept elements; once it
    keeps one, z0 certifies nothing more.  z0 is the point at which a
    generator Phi is certified non-derogatory (``_certified``), if one is:
    everything commuting with Phi is then a polynomial in it, so the
    closure is K[Phi] and complete at r elements.
    """
    if not commutativity_admissible(h):
        raise NotAdmissibleError("generator images do not commute")
    cert = _certified(h.phis)
    bound = h.r if cert else h.r * h.r
    z0 = cert[1] if cert else next(iter(linalg._POINTS), None)
    exact = all(g.is_constant() for g in h.phis)
    basis, points, span = [], [], SpanBasis()

    def enlarges(cand):
        nonlocal z0
        if cand.is_zero() or cand in basis:
            return False
        if z0 is not None:
            points.append(evaluate(cand, z0))
            if independent(points):
                return True
            points.pop()
            if exact:
                return False
        for b in basis[span.dimension():]:
            span.add(_flatten(b))
        if not span.add(_flatten(cand)):
            return False
        z0 = None  # cand is dependent at z0, which certifies nothing more
        return True

    def products():
        # the basis grows while it is walked; I * Phi_j repeats Phi_j
        for b in islice(basis, 1, None):
            for g in h.phis:
                yield b * g

    for cand in chain((PolyMatrix.identity(h.r),), h.phis, products()):
        if len(basis) == bound:
            break
        if enlarges(cand):
            basis.append(cand)
    return MorphismPresentation(h.phis, tuple(basis))


def morphism_to_higgs(m: MorphismPresentation, base_vars=("z",)) -> HiggsPair:
    """Read the Higgs pair back off the generator images."""
    if not m.generator_images:
        return HiggsPair(m.rank(), (), base_vars)
    r = m.generator_images[0].rows
    h = HiggsPair(r, m.generator_images, base_vars)
    if not commutativity_admissible(h):
        raise NotAdmissibleError("generator images do not commute")
    return h


def spectral_cover(h: HiggsPair) -> SpectralCover:
    """Characteristic polynomial of the single generator, with the
    squarefree flag computed over the base fraction field."""
    if len(h.phis) != 1:
        raise ShapeError("spectral cover needs exactly one generator")
    p = char_poly(h.phis[0])
    return SpectralCover(p, squarefree_in_v(p))


def image_ideal(h: HiggsPair, chi: MultiPoly = None) -> MultiPoly:
    """Minimal polynomial of the generator, denominators cleared; divides
    the cover polynomial ``chi`` (computed when not given), with equality
    exactly when the generator is non-derogatory."""
    if len(h.phis) != 1:
        raise ShapeError("image ideal needs exactly one generator")
    return min_poly(h.phis[0], chi)


def subalgebra_closed(m: MorphismPresentation) -> bool:
    """Verify products of basis elements stay in the fraction-field span.

    If a generator Phi is certified non-derogatory at z0 (``_certified``),
    and the basis holds r elements that commute with Phi and are
    independent at z0, the span is K[Phi], which is closed.  Otherwise each
    of the d^2 products is tested for membership in the span.
    """
    basis = m.subalgebra_basis
    cert = _certified(m.generator_images)
    if cert is not None:
        phi, z0 = cert
        if (len(basis) == phi.rows and independent([evaluate(b, z0) for b in basis])
                and all(b.shape() == phi.shape() and b * phi == phi * b for b in basis)):
            return True
    span = SpanBasis()
    for b in basis:
        span.add(_flatten(b))
    for a in basis:
        for b in basis:
            if not span.contains(_flatten(a * b)):
                return False
    return True


# ---------------------------------------------------------------------------
# curvature on an affine multi-variable base
# ---------------------------------------------------------------------------

def curvature(gammas, base_vars=None):
    """F_ij = d_i Gamma_j - d_j Gamma_i + [Gamma_i, Gamma_j] for i < j."""
    gammas = list(gammas)
    n = len(gammas)
    if not n:
        raise ShapeError("curvature needs at least one connection matrix")
    base_vars = tuple(base_vars) if base_vars else tuple(f"w{i+1}" for i in range(n))
    if len(base_vars) != n:
        raise ShapeError("one base variable per connection matrix")
    r = gammas[0].rows
    for g in gammas:
        if g.shape() != (r, r):
            raise ShapeError("connection matrices must share one square shape")
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            f = (gammas[j].derivative(base_vars[i])
                 - gammas[i].derivative(base_vars[j])
                 + gammas[i].commutator(gammas[j]))
            out[(i, j)] = f
    return out


def curvature_via_operators(gammas, base_vars=None):
    """Same 2-form computed independently: the D^0 coefficient of the
    commutators [D_i + Gamma_i, D_j + Gamma_j] in the operator algebra."""
    gammas = list(gammas)
    n = len(gammas)
    base_vars = tuple(base_vars) if base_vars else tuple(f"w{i+1}" for i in range(n))
    r = gammas[0].rows
    ops = []
    for i, g in enumerate(gammas):
        ops.append(MixedOperator.derivation(i, r, base_vars)
                   + MixedOperator.from_matrix(g, base_vars))
    out = {}
    for i in range(n):
        for j in range(i + 1, n):
            comm = ops[i].commutator(ops[j])
            for k, m in comm.coeffs.items():
                if sum(k) > 0 and not m.is_zero():
                    raise AssertionError("first-order commutator has higher terms")
            out[(i, j)] = comm.coefficient((0,) * n)
    return out


# ---------------------------------------------------------------------------
# lambda-connections and the quantum family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeibnizCheck:
    ok: bool
    detail: str = ""
    entry: tuple = None


def lambda_connection_check(fam: LambdaConnectionFamily, phi: PolyMatrix) -> LeibnizCheck:
    """Verify nabla = lam*D + A restricts to phi at lam = 0 and satisfies
    the lam-scaled Leibniz identity on generic sections."""
    if phi.shape() != (fam.r, fam.r):
        raise ShapeError("shapes disagree")
    at_zero = fam.a.subs({"lam": Fraction(0)})
    for i in range(fam.r):
        for j in range(fam.r):
            if at_zero[i, j] != phi[i, j]:
                return LeibnizCheck(
                    False,
                    f"restriction at lam = 0 differs at entry ({i}, {j}): "
                    f"{at_zero[i, j]} vs {phi[i, j]}",
                    (i, j))
    lam = MultiPoly.var("lam")
    zpoly = MultiPoly.var("z")

    def nabla(section):
        return [lam * s.derivative("z") +
                sum((fam.a[i, j] * section[j] for j in range(fam.r)), MultiPoly.zero())
                for i, s in enumerate(section)]

    for j in range(fam.r):
        e = [MultiPoly.const(1) if i == j else MultiPoly.zero() for i in range(fam.r)]
        fs = [zpoly * s for s in e]
        lhs = nabla(fs)
        step = nabla(e)
        rhs = [lam * e[i] + zpoly * step[i] for i in range(fam.r)]
        for i in range(fam.r):
            if lhs[i] != rhs[i]:
                return LeibnizCheck(
                    False, f"Leibniz identity fails at section {j}, row {i}", (i, j))
    return LeibnizCheck(True, "flatness is automatic on a one-variable base")


@dataclass(frozen=True)
class KernelProbe:
    """Outcome of the bounded-degree injectivity probe."""

    degree: int
    monomials: int
    rank: int
    kernel_dim: int

    @property
    def injective(self) -> bool:
        return self.kernel_dim == 0


class LambdaFamily:
    """Evaluator for the deformation family of a single-generator pair.

    At lam = 0 it reports the spectral cover and the image ideal; at a
    nonzero rational lam it probes injectivity of the map sending base/fiber
    monomials w^a p^b to operators via w -> z*I, p -> lam*D + Phi, up to a
    total-degree bound.
    """

    def __init__(self, h: HiggsPair):
        if len(h.phis) != 1:
            raise ShapeError("family needs exactly one generator")
        if len(h.base_vars) != 1:
            raise ShapeError("family needs a one-variable base")
        self.pair = h

    def classical_fiber(self):
        cover = spectral_cover(self.pair)
        return {"cover": cover, "image_ideal": image_ideal(self.pair, cover.poly)}

    def probe(self, lam, degree: int = 3) -> KernelProbe:
        """Injectivity of w^a p^b -> z^a (lam*D + Phi)^b for a + b <= degree.

        For lam != 0 the map is injective at every degree, so no operator is
        built.  Order the monomials of an operator lexicographically by
        D-degree (descending), matrix entry index (ascending) and z-degree
        (descending).  p^b has top D-coefficient lam^b * I, so the image of
        w^a p^b leads with the monomial (b, 0, a); these are pairwise
        distinct, so the (degree+1)(degree+2)/2 images are linearly
        independent.  ``tests/test_spectral.py`` checks the top coefficient
        of powers of p built with ``mixed_mul`` and compares this answer
        with an elimination over Q.
        """
        lam = lam if isinstance(lam, Fraction) else Fraction(lam)
        if lam == 0:
            raise ShapeError("probe requires lam != 0; use classical_fiber()")
        if degree < 0:
            raise ShapeError("probe degree must be nonnegative")
        monomials = (degree + 1) * (degree + 2) // 2
        return KernelProbe(degree, monomials, monomials, 0)

    def evaluate(self, lam, degree: int = 3):
        lam = lam if isinstance(lam, Fraction) else Fraction(lam)
        if lam == 0:
            return self.classical_fiber()
        return self.probe(lam, degree)


def lambda_family(h: HiggsPair) -> LambdaFamily:
    return LambdaFamily(h)
