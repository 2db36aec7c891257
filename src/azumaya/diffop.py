"""Matrix differential operators and the rank-2 commutation suite.

``MixedOperator`` models elements sum_k M_k * D^k of the algebra generated
by r x r polynomial matrices and commuting derivations D_1..D_n, normal
form with all matrix factors on the left.  The defining rewrite is the
Leibniz rule  D_i * M = (dM/dw_i + [Gamma_i, M]) + M * D_i; a nonzero
connection matrix Gamma is supported on a one-variable base, where the
normal form is unconditionally well defined.

The rank-2 suite solves  lam * B' + [A, B] = 0  for polynomial B by its
z-power recurrence on integer matrices and one fraction-free elimination
over Q (``linalg.echelon``), builds the closed-form fundamental solution
quadruple available when (a1-a4)^2 + 4 a2 a3 = 0 (the same recurrence,
which stops at z^2 because ad_A^3 = 0 for such a constant A), and
classifies the induced module decomposition by the eigenvalue pattern of
the degree-0 term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import (NonConstantError, NotSplitError, PreconditionError,
                     ShapeError, ZeroLambdaError)
from .linalg import PolyMatrix, char_poly, echelon, kernel_saturated
from .poly import MultiPoly, _join, _monomial_text, poly_content


class MixedOperator:
    """Normal-ordered sum of PolyMatrix coefficients times D-monomials."""

    __slots__ = ("r", "base_vars", "coeffs", "gamma")

    def __init__(self, r: int, base_vars, coeffs=None, gamma: PolyMatrix = None):
        base_vars = tuple(base_vars)
        if gamma is not None and len(base_vars) != 1:
            raise ShapeError("connection matrices only supported on a 1-variable base")
        if gamma is not None and gamma.shape() != (r, r):
            raise ShapeError("connection matrix has wrong shape")
        clean = {}
        for k, m in (coeffs or {}).items():
            k = (k,) if isinstance(k, int) else tuple(k)
            if len(k) != len(base_vars):
                raise ShapeError("derivative multi-index length mismatch")
            if m.shape() != (r, r):
                raise ShapeError("coefficient matrix has wrong shape")
            if not m.is_zero():
                clean[k] = clean[k] + m if k in clean else m
        clean = {k: m for k, m in clean.items() if not m.is_zero()}
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "base_vars", base_vars)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "gamma", gamma)

    def __setattr__(self, *_):
        raise AttributeError("MixedOperator is immutable")

    @staticmethod
    def from_matrix(m: PolyMatrix, base_vars=("z",), gamma=None) -> "MixedOperator":
        zero = (0,) * len(tuple(base_vars))
        return MixedOperator(m.rows, base_vars, {zero: m}, gamma)

    @staticmethod
    def derivation(i: int, r: int, base_vars=("z",), gamma=None) -> "MixedOperator":
        k = tuple(1 if j == i else 0 for j in range(len(tuple(base_vars))))
        return MixedOperator(r, base_vars, {k: PolyMatrix.identity(r)}, gamma)

    def _same_context(self, other: "MixedOperator"):
        if (self.r != other.r or self.base_vars != other.base_vars
                or self.gamma != other.gamma):
            raise ShapeError("mixed operators live in different algebras")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        self._same_context(other)
        out = dict(self.coeffs)
        for k, m in other.coeffs.items():
            out[k] = out[k] + m if k in out else m
        return MixedOperator(self.r, self.base_vars, out, self.gamma)

    def __neg__(self):
        return MixedOperator(self.r, self.base_vars,
                             {k: -m for k, m in self.coeffs.items()}, self.gamma)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MixedOperator):
            return mixed_mul(self, other)
        return MixedOperator(self.r, self.base_vars,
                             {k: m.scale(other) for k, m in self.coeffs.items()},
                             self.gamma)

    def __eq__(self, other):
        return (isinstance(other, MixedOperator) and self.r == other.r
                and self.base_vars == other.base_vars and self.gamma == other.gamma
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.r, self.base_vars, frozenset(self.coeffs.items())))

    def commutator(self, other) -> "MixedOperator":
        return mixed_mul(self, other) - mixed_mul(other, self)

    def coefficient(self, k) -> PolyMatrix:
        k = (k,) if isinstance(k, int) else tuple(k)
        return self.coeffs.get(k, PolyMatrix.zeros(self.r))

    def covariant_derivative(self, m: PolyMatrix, i: int) -> PolyMatrix:
        """Induced action of D_i on matrix coefficients."""
        out = m.derivative(self.base_vars[i])
        if self.gamma is not None:
            out = out + self.gamma.commutator(m)
        return out

    def __str__(self):
        if not self.coeffs:
            return "0"
        names = ("D",) if len(self.base_vars) == 1 else tuple(
            f"D{i+1}" for i in range(len(self.base_vars)))
        keys = sorted(self.coeffs, key=lambda k: (sum(k), k), reverse=True)
        parts = []
        for k in keys:
            mono = _monomial_text(names, k)
            body = str(self.coeffs[k])
            parts.append(f"{body}*{mono}" if mono else body)
        return " + ".join(parts)

    def __repr__(self):
        return f"MixedOperator({str(self)!r})"


def mixed_mul(p: MixedOperator, q: MixedOperator) -> MixedOperator:
    """Normal-ordered product via D^j M = sum_i C(j,i) (D^i M) D^(j-i)."""
    p._same_context(q)
    n = len(p.base_vars)
    out = {}
    for jk, m in p.coeffs.items():
        for kk, nmat in q.coeffs.items():
            # push D^jk through nmat one base variable at a time
            pieces = [(jk, nmat)]
            for t in range(n):
                new_pieces = []
                for rem, mat in pieces:
                    jt = rem[t]
                    der = mat
                    ders = [der]
                    for _ in range(jt):
                        der = p.covariant_derivative(der, t)
                        ders.append(der)
                    for i in range(jt + 1):
                        c = comb(jt, i)
                        rem2 = rem[:t] + (jt - i,) + rem[t + 1:]
                        piece = ders[i] if c == 1 else ders[i].scale(c)
                        new_pieces.append((rem2, piece))
                pieces = new_pieces
            for rem, mat in pieces:
                key = tuple(r + k for r, k in zip(rem, kk))
                acc = m * mat
                out[key] = out[key] + acc if key in out else acc
    return MixedOperator(p.r, p.base_vars, out, p.gamma)


# ---------------------------------------------------------------------------
# the commutation constraint and its polynomial solution space
# ---------------------------------------------------------------------------

def commutation_constraint(a: PolyMatrix, b: PolyMatrix, lam) -> PolyMatrix:
    """lam * dB/dz + A*B - B*A; the D^0 coefficient of [lam*D + A, B]."""
    if not a.is_square() or a.shape() != b.shape():
        raise ShapeError("matrices must be square and of equal size")
    lam_p = lam if isinstance(lam, MultiPoly) else MultiPoly.const(lam)
    return b.derivative("z").scale(lam_p) + a.commutator(b)


def default_degree_bound(a: PolyMatrix) -> int:
    """2 * (max entry degree) + 2, matching the quadratic growth of the
    closed-form solution quadruple."""
    return 2 * max((e.total_degree() for e in a.entries), default=0) + 2


def _bracket_into(out, aj, b, r, t):
    """out += t [Aj, B] for r x r integer matrices flattened row-major to
    lists, Aj given by its nonzero entries (i, m, c)."""
    for i, m, c in aj:
        c *= t
        for l in range(r):
            if b[m * r + l]:
                out[i * r + l] += c * b[m * r + l]
            if b[l * r + i]:
                out[l * r + m] -= b[l * r + i] * c


def _integer_terms(a: PolyMatrix):
    """(a_den, A_0..A_deg): A = sum_j A_j z^j / a_den, a_den the lcm of its
    entries' denominators, each integer A_j as its nonzero entries (i, m, c)."""
    r, a_den = a.rows, lcm(*(e.den for e in a.entries))
    terms = []
    for idx, e in enumerate(a.entries):
        for exps, c in e.num.items():   # exps is (j,) in z, or () for a constant
            j = exps[0] if exps else 0
            terms += [[] for _ in range(j + 1 - len(terms))]
            terms[j].append((idx // r, idx % r, c * (a_den // e.den)))
    return a_den, terms


def _recurrence(a: PolyMatrix, lam: Fraction, deg_bound: int):
    """For each elementary B_0 = E_u, u in row-major order, the pair
    (B_0..B_D, residuals) of row-major integer lists.  B_0..B_D share one
    positive denominator, B_0[u].

    A is scaled to integer matrices A_j (``_integer_terms``).  For
    k < D = deg_bound, B_{k+1} = -sum_j [A_j, B_{k-j}] / (lam (k+1) a_den):
    with lam = p/q, B_{k+1} is -sign(p) q times the sum over the denominator of B_k times
    |p| (k+1) a_den.  Each B_k keeps the denominator it was made over, so a
    step brings only the deg A + 1 terms that enter it to the newest one's
    (each divides the next), by scaling the A_j; the series is put over the
    last denominator once, at the end.  The residuals sum_j [A_j, B_{k-j}],
    k = D..D + deg A, concatenated, then sit over B_0[u] * a_den."""
    r, (a_den, a_terms) = a.rows, _integer_terms(a)
    p, q = lam.numerator, lam.denominator
    f, s = -q if p > 0 else q, abs(p) * a_den
    out = []
    for u in range(r * r):
        bs, dens, residuals = [[int(e == u) for e in range(r * r)]], [1], []
        for k in range(deg_bound + len(a_terms)):
            acc, top = [0] * (r * r), dens[-1]   # the newest B's denominator
            for j in range(max(0, k - deg_bound), min(k + 1, len(a_terms))):
                _bracket_into(acc, a_terms[j], bs[k - j], r, top // dens[k - j])
            if k < deg_bound:
                bs.append([f * x for x in acc])
                dens.append(top * s * (k + 1))
            else:
                residuals += acc
        out.append(([[dens[-1] // d * x for x in b] for b, d in zip(bs, dens)], residuals))
    return out


def solve_commutation(a: PolyMatrix, lam, deg_bound: int = None):
    """Rational basis of {B : deg entries <= deg_bound, lam B' + [A,B] = 0}.

    With A = sum_j A_j z^j and B = sum_k B_k z^k, k <= D = deg_bound, the z^k
    coefficient of the constraint is lam (k+1) B_{k+1} + sum_j [A_j, B_{k-j}].
    For k < D this recurrence fixes B_{k+1}, so every solution is linear in
    the r^2 entries of B_0 (``_recurrence``) and must make the residuals
    sum_j [A_j, B_{k-j}], k = D..D + deg A, vanish.

    The basis is the reduced-echelon nullspace (free coordinate 1) of the
    coefficient ansatz ordered entry-major then z-degree ascending, so output
    is deterministic.  It is the reduced echelon form of the solution space
    with coordinates read backwards.  One fraction-free ``echelon`` of the
    integer rows finds it: the row for B_0 = E_u holds its residuals, then
    its series read backwards.  The echelon rows that vanish on the residual
    block span the series whose residuals vanish, and back substitution
    among them alone gives their reduced echelon form (the form is unique),
    each row over its pivot, returned in reverse order.  Each basis element
    is checked to satisfy lam B' + [A, B] = 0, coefficient by coefficient
    times q a_den for lam = p/q.
    """
    lam = lam if isinstance(lam, Fraction) else Fraction(lam)
    if lam == 0:
        raise ZeroLambdaError("lam must be nonzero")
    if not a.is_square():
        raise ShapeError("A must be square")
    if not set(a.variables()) <= {"z"}:
        raise ShapeError("entries of A must lie in the base ring Q[z]")
    if deg_bound is None:
        deg_bound = default_degree_bound(a)
    if deg_bound < 0:
        raise ShapeError("deg_bound must be nonnegative")
    r, n = a.rows, deg_bound + 1
    rows = [residuals + [bs[d][idx] for idx in reversed(range(r * r))
                         for d in reversed(range(n))]
            for bs, residuals in _recurrence(a, lam, deg_bound)]
    width = len(rows[0]) - r * r * n   # the residual block's
    pivots = echelon(rows, width)
    kept = [(row, pc) for row, pc in reversed(list(zip(rows, pivots))) if pc >= width]
    a_den, a_terms = _integer_terms(a)
    p, q = lam.numerator * a_den, lam.denominator
    for row, _ in kept:
        bs = [[row[-1 - i * n - d] for i in range(r * r)] for d in range(n)]
        for k in range(deg_bound + len(a_terms)):   # q a_den times the z^k coefficient
            acc = [p * (k + 1) * x for x in bs[k + 1]] if k < deg_bound else [0] * (r * r)
            for j in range(max(0, k - deg_bound), min(k + 1, len(a_terms))):
                _bracket_into(acc, a_terms[j], bs[k - j], r, q)
            if any(acc):
                raise AssertionError("a basis element does not solve lam B' + [A, B] = 0")
    return [PolyMatrix(r, r, [_join(("z",), {(d,): row[-1 - i * n - d] for d in range(n)}, row[pc])
                              for i in range(r * r)])
            for row, pc in kept]


def discriminant(a: PolyMatrix) -> MultiPoly:
    """(a1 - a4)^2 + 4 a2 a3 for a 2x2 matrix [[a1, a2], [a3, a4]]."""
    if a.shape() != (2, 2):
        raise ShapeError("discriminant is defined for 2x2 matrices")
    a1, a2, a3, a4 = a.entries
    return (a1 - a4) ** 2 + 4 * a2 * a3


def fundamental_solutions(a: PolyMatrix, lam):
    """The closed-form solution quadruple B1..B4 of lam B' + [A,B] = 0.

    Requires a constant 2x2 A with vanishing discriminant.  Then ad_A^3 = 0,
    so the solver's recurrence started at B_0 = E_u stops at z^2: B_u is
    E_u - z [A, E_u] / lam + z^2 [A, [A, E_u]] / (2 lam^2), u in row-major
    order, and the residual [A, B_2] is checked to vanish.  Rational
    combinations sum_i bhat_i B_i have degree-0 term [[b1, b2], [b3, b4]].
    """
    lam = lam if isinstance(lam, Fraction) else Fraction(lam)
    if lam == 0:
        raise ZeroLambdaError("lam must be nonzero")
    if a.shape() != (2, 2):
        raise ShapeError("expected a 2x2 matrix")
    if not a.is_constant():
        raise PreconditionError("closed forms require constant entries; "
                                "use solve_commutation for polynomial A")
    if not discriminant(a).is_zero():
        raise PreconditionError("discriminant (a1-a4)^2 + 4 a2 a3 must vanish")
    basis = []
    for u, (bs, residuals) in enumerate(_recurrence(a, lam, 2)):
        if any(residuals):
            raise AssertionError("the series of a zero-discriminant A "
                                 "does not stop at z^2")
        series = [{(d,): b[idx] for d, b in enumerate(bs)} for idx in range(4)]
        basis.append(PolyMatrix(2, 2, [_join(("z",), num, bs[0][u]) for num in series]))
    return basis


# ---------------------------------------------------------------------------
# classification of the pushforward module
# ---------------------------------------------------------------------------

CASE_DISTINCT = "DistinctEigen"
CASE_SEMISIMPLE = "RepeatedSemisimple"
CASE_NILPOTENT = "RepeatedNilpotent"


@dataclass(frozen=True)
class Component:
    """Saturated eigen-submodule attached to one eigenvalue."""

    eigenvalue: Fraction
    basis: tuple           # tuple of vectors, each a tuple of MultiPoly
    rank: int


@dataclass(frozen=True)
class HiggsingReport:
    """Eigenvalue pattern of B and the induced submodule decomposition."""

    case_tag: str
    eigenvalues: tuple
    kernel_ideal_gen: MultiPoly
    components: tuple
    filtration_flag: bool

    def to_json(self):
        return {
            "case": self.case_tag,
            "eigenvalues": [str(e) for e in self.eigenvalues],
            "kernel_ideal": str(self.kernel_ideal_gen),
            "components": [
                {"eigenvalue": str(c.eigenvalue),
                 "rank": c.rank,
                 "basis": [[str(p) for p in vec] for vec in c.basis]}
                for c in self.components],
            "filtration": self.filtration_flag,
        }


def _sqrt_fraction(c: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    from math import isqrt
    if c < 0:
        return None
    pn, pd = isqrt(c.numerator), isqrt(c.denominator)
    if pn * pn == c.numerator and pd * pd == c.denominator:
        return Fraction(pn, pd)
    return None


def classify_higgsing(b: PolyMatrix) -> HiggsingReport:
    """Trichotomy for a 2x2 B over the polynomial base ring.

    Entries of B must not use ``v``, the variable of the characteristic
    and minimal polynomials.  The characteristic polynomial must be z-free
    and split over Q; the report carries the minimal polynomial as the kernel ideal generator
    and the saturated kernel of B - nu for each eigenvalue nu.
    """
    if b.shape() != (2, 2):
        raise ShapeError("classification applies to 2x2 matrices")
    if "v" in b.variables():
        raise ShapeError("entries of B must not use v, the eigenvalue variable")
    cp = char_poly(b)
    if not set(cp.vars) <= {"v"}:
        raise NonConstantError(
            f"characteristic polynomial has base-dependent coefficients: {cp}")
    cs = cp.coefficients_in("v")
    det = cs[0].as_fraction() if len(cs) > 0 else Fraction(0)
    tr = -cs[1].as_fraction() if len(cs) > 1 else Fraction(0)
    disc = tr * tr - 4 * det
    root = _sqrt_fraction(disc)
    if root is None:
        raise NotSplitError(f"v^2 - {tr}v + {det} does not split over Q")
    nu_minus = (tr - root) / 2
    nu_plus = (tr + root) / 2
    ident = PolyMatrix.identity(2)
    shifted = {nu: b - ident.scale(nu) for nu in (nu_minus, nu_plus)}
    # by Cayley-Hamilton and the shape of 2x2 matrices, the minimal
    # polynomial is v - nu when B - nu I is zero, else chi; made primitive
    # with a positive leading coefficient, as min_poly returns it
    mp = MultiPoly.var("v") - nu_minus if shifted[nu_minus].is_zero() else cp
    mp = mp * (1 / poly_content(mp))

    def component(nu):
        basis = kernel_saturated(shifted[nu])
        return Component(nu, tuple(tuple(v) for v in basis), len(basis))

    if nu_minus != nu_plus:
        comps = (component(nu_minus), component(nu_plus))
        return HiggsingReport(CASE_DISTINCT, (nu_minus, nu_plus), mp, comps, False)
    nu = nu_minus
    nilpotent = mp.degree_in("v") == 2
    comps = (component(nu),)
    tag = CASE_NILPOTENT if nilpotent else CASE_SEMISIMPLE
    return HiggsingReport(tag, (nu,), mp, comps, nilpotent)


def pushforward_report(a: PolyMatrix, bhat, lam) -> HiggsingReport:
    """Classify B = sum_i bhat_i B_i built from the fundamental quadruple."""
    if len(bhat) != 4:
        raise ShapeError("bhat must have four coordinates")
    basis = fundamental_solutions(a, lam)
    bhat = [c if isinstance(c, Fraction) else Fraction(c) for c in bhat]
    return classify_higgsing(combination(bhat, basis))


def combination(bhat, basis) -> PolyMatrix:
    """B = sum_i bhat_i B_i, summed from the first term."""
    terms = [m.scale(c) for c, m in zip(bhat, basis)]
    return sum(terms[1:], terms[0])
