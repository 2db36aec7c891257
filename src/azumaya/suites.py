"""Seeded randomized invariant suites.

Each suite checks one invariant on randomly drawn cases; ``run_suite`` is a
deterministic function of (suite, seed, count) and reports the pass count
plus the first counterexample.  The CLI exposes the suites as demos and the
acceptance tests run them at pinned seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import diffop, linalg, spectral, twisted, weyl
from .linalg import PolyMatrix, char_poly, eval_poly_at_matrix
from .poly import MultiPoly


@dataclass
class SuiteResult:
    suite: str
    seed: int
    count: int
    passes: int = 0
    failures: int = 0
    first_counterexample: str = ""

    def record(self, ok: bool, describe):
        if ok:
            self.passes += 1
        else:
            self.failures += 1
            if not self.first_counterexample:
                self.first_counterexample = describe()

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_json(self):
        out = {"suite": self.suite, "seed": self.seed, "count": self.count,
               "passes": self.passes, "failures": self.failures}
        if self.first_counterexample:
            out["first_counterexample"] = self.first_counterexample
        return out


# -- random generators -------------------------------------------------------

def rand_fraction(rng, lo=-4, hi=4, den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def rand_poly(rng, variables, deg=2, nterms=3):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, deg) for _ in variables)
        terms[e] = Fraction(rng.randint(-3, 3))
    return MultiPoly(variables, terms)


def rand_poly_matrix(rng, r, variables=("z",), deg=2):
    return PolyMatrix(r, r, [rand_poly(rng, variables, deg) for _ in range(r * r)])


def rand_weyl(rng, n, lam=weyl.FORMAL, bideg=3, nterms=3, with_lam=False):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        a = tuple(rng.randint(0, bideg) for _ in range(n))
        b = tuple(rng.randint(0, bideg) for _ in range(n))
        c = MultiPoly.const(Fraction(rng.randint(-3, 3)))
        if with_lam and lam == weyl.FORMAL and rng.random() < 0.5:
            c = c * MultiPoly.var("lam") ** rng.randint(0, 2)
        terms[(a, b)] = c
    return weyl.WeylElement(n, lam, terms)


def rand_position_poly(rng, n, deg=5, nterms=4):
    vs = weyl.position_vars(n)
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, deg) for _ in vs)
        terms[e] = Fraction(rng.randint(-3, 3))
    return MultiPoly(vs, terms)


def rand_discriminant_zero(rng):
    """Constant 2x2 matrix from the family a2 = t^2, a3 = -s^2, a1-a4 = 2ts."""
    t = Fraction(rng.randint(-3, 3))
    s = Fraction(rng.randint(-3, 3))
    a4 = Fraction(rng.randint(-2, 2))
    return PolyMatrix.from_rows([[a4 + 2 * t * s, t * t], [-s * s, a4]])


def rand_commuting_pair(rng, r=2, deg=2):
    """Commuting matrices built as polynomials in one random matrix."""
    base = rand_poly_matrix(rng, r, ("z",), deg=1)
    mats = []
    for _ in range(2):
        acc = PolyMatrix.identity(r).scale(rand_fraction(rng))
        power = PolyMatrix.identity(r)
        for _ in range(rng.randint(1, 2)):
            power = power * base
            acc = acc + power.scale(rand_fraction(rng))
        mats.append(acc)
    return mats


def rand_cochain1(rng, nerve, group):
    vals = {}
    for i in nerve.indices():
        for j in nerve.indices():
            if i < j:
                if isinstance(group, twisted.Mu):
                    vals[(i, j)] = rng.randrange(group.n)
                else:
                    vals[(i, j)] = Fraction(rng.choice([1, 2, 3, 5, -1, -2]),
                                            rng.choice([1, 2, 3]))
    return twisted.Cochain1(nerve, group, vals)


# -- suites -------------------------------------------------------------------
#
# A suite is one case function ``case(rng) -> (ok, describe)``: it draws its
# inputs from ``rng``, checks one invariant and returns a thunk that
# describes the inputs, called only for the first failing case.  ``@suite``
# registers it under its name with dashes.

SUITES = {}


def suite(case):
    SUITES[case.__name__.replace("_", "-")] = case
    return case


@suite
def weyl_assoc(rng):
    n = rng.choice([1, 2])
    a, b, c = (rand_weyl(rng, n) for _ in range(3))
    ok = weyl.weyl_mul(weyl.weyl_mul(a, b), c) == weyl.weyl_mul(a, weyl.weyl_mul(b, c))
    return ok, lambda: f"({a}) ({b}) ({c})"


@suite
def weyl_action(rng):
    n = rng.choice([1, 2])
    lam = Fraction(rng.choice([1, 2, -1, 3]))
    d1, d2 = rand_weyl(rng, n, lam), rand_weyl(rng, n, lam)
    f = rand_position_poly(rng, n)
    lhs = weyl.act_on_polynomial(weyl.weyl_mul(d1, d2), f)
    rhs = weyl.act_on_polynomial(d1, weyl.act_on_polynomial(d2, f))
    return lhs == rhs, lambda: f"({d1}) ({d2}) on {f}"


@suite
def weyl_fourier(rng):
    n = rng.choice([1, 2])
    a, b = rand_weyl(rng, n), rand_weyl(rng, n)
    mult = weyl.fourier(weyl.weyl_mul(a, b)) == weyl.weyl_mul(weyl.fourier(a), weyl.fourier(b))
    four = a
    for _ in range(4):
        four = weyl.fourier(four)
    return mult and four == a, lambda: f"({a}) ({b})"


@suite
def weyl_reduce(rng):
    while True:     # the certificate needs a nonzero element: redraw zeros
        n = rng.choice([1, 2])
        d = rand_weyl(rng, n, with_lam=True)
        if not d.is_zero():
            break
    cert = weyl.reduce_to_scalar(d)
    s = cert.final_scalar
    ok = not s.is_zero() and set(s.vars) <= {"lam"} and cert.replay(d).symbol == s
    return ok, lambda: f"{d}"


@suite
def lambda_commute(rng):
    n = rng.choice([1, 2])
    a, b = rand_weyl(rng, n, with_lam=True), rand_weyl(rng, n, with_lam=True)
    a0 = weyl.specialize_lambda(a, 0)
    b0 = weyl.specialize_lambda(b, 0)
    return weyl.weyl_mul(a0, b0) == weyl.weyl_mul(b0, a0), lambda: f"({a}) ({b})"


@suite
def lambda_torsion(rng):
    n = rng.choice([1, 2])
    d = rand_weyl(rng, n, with_lam=True)
    lam_var = MultiPoly.var("lam")
    c = MultiPoly.zero()
    for k in range(rng.randint(0, 2) + 1):
        c = c + Fraction(rng.randint(-2, 2)) * lam_var ** k
    ok = d.scale(c).is_zero() == (c.is_zero() or d.is_zero())
    return ok, lambda: f"c = {c}, d = {d}"


@suite
def mixed_assoc(rng):
    gamma = rand_poly_matrix(rng, 2, ("z",), deg=1)
    ops = []
    for _ in range(3):
        coeffs = {(k,): rand_poly_matrix(rng, 2, ("z",), deg=2)
                  for k in range(rng.randint(1, 3))}
        ops.append(diffop.MixedOperator(2, ("z",), coeffs, gamma=gamma))
    a, b, c = ops
    ok = diffop.mixed_mul(diffop.mixed_mul(a, b), c) == diffop.mixed_mul(a, diffop.mixed_mul(b, c))
    return ok, lambda: "associativity failure"


@suite
def charpoly_b0(rng):
    a = rand_discriminant_zero(rng)
    lam = Fraction(rng.choice([1, 2, -1]))
    basis = diffop.fundamental_solutions(a, lam)
    bhat = [Fraction(rng.randint(-3, 3)) for _ in range(4)]
    b0 = PolyMatrix.from_rows([[bhat[0], bhat[1]], [bhat[2], bhat[3]]])
    cp = char_poly(diffop.combination(bhat, basis))
    return cp == char_poly(b0) and set(cp.vars) <= {"v"}, lambda: f"bhat = {bhat}"


@suite
def spectral_roundtrip(rng):
    r = rng.choice([2, 3])
    mats = rand_commuting_pair(rng, r)
    pair = spectral.HiggsPair(r, mats)
    pres = spectral.higgs_to_morphism(pair)
    back = spectral.morphism_to_higgs(pres)
    ok = back.phis == pair.phis and spectral.subalgebra_closed(pres)
    return ok, lambda: f"phis = {[str(m) for m in mats]}"


@suite
def spectral_divides(rng):
    r = rng.choice([2, 3])
    phi = rand_poly_matrix(rng, r, ("z",), deg=2)
    pair = spectral.HiggsPair(r, [phi])
    cover = spectral.spectral_cover(pair)
    ideal = spectral.image_ideal(pair, cover.poly)
    divides = linalg.divides_in_v(ideal, cover.poly)
    equality_when_reduced = (not cover.reduced) or (ideal == cover.poly)
    return divides and equality_when_reduced, lambda: f"phi = {phi}"


@suite
def curvature_flat(rng):
    gs = [rand_poly_matrix(rng, 2, ("w1", "w2"), deg=2) for _ in range(2)]
    f1 = spectral.curvature(gs)
    f2 = spectral.curvature_via_operators(gs)
    flat_formula = all(m.is_zero() for m in f1.values())
    flat_ops = all(m.is_zero() for m in f2.values())
    return f1 == f2 and flat_formula == flat_ops, lambda: "curvature mismatch"


@suite
def cocycle_dd(rng):
    nerve = twisted.CoverNerve(rng.randint(2, 5))
    group = twisted.Mu(rng.choice([2, 3, 4, 6])) if rng.random() < 0.5 else twisted.Qstar()
    alpha = twisted.coboundary(rand_cochain1(rng, nerve, group))
    return twisted.check_2cocycle(alpha).ok, lambda: "dd != 1"


@suite
def gluing_perturb(rng):
    size = rng.randint(3, 4)
    nerve = twisted.CoverNerve(size)
    beta = rand_cochain1(rng, nerve, twisted.Qstar())
    alpha = twisted.coboundary(beta)
    r = rng.choice([1, 2])
    gluing = {}
    for i in range(size):
        for j in range(size):
            if i != j:
                b = beta.value(i, j)
                gluing[(i, j)] = [[b if p == q else Fraction(0) for q in range(r)]
                                 for p in range(r)]
    bundle = twisted.TwistedBundle(r, nerve, gluing, alpha)
    accepted = twisted.twisted_gluing_check(bundle).ok
    bad = {k: [list(row) for row in m] for k, m in gluing.items()}
    bad[(0, 1)][0][0] = bad[(0, 1)][0][0] + Fraction(1, 2)
    rejected = not twisted.twisted_gluing_check(
        twisted.TwistedBundle(r, nerve, bad, alpha)).ok
    return accepted and rejected, lambda: f"size={size}, r={r}"


@suite
def endo_cocycle(rng):
    size = rng.randint(3, 4)
    nerve = twisted.CoverNerve(size)
    beta = rand_cochain1(rng, nerve, twisted.Qstar())
    alpha = twisted.coboundary(beta)
    frames = []   # (F, F^-1), the inverse by the adjugate
    for _ in range(size):
        while True:
            p = [[Fraction(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
            (a, b), (c, d) = p
            det = a * d - b * c
            if det:
                frames.append((PolyMatrix.from_rows(p),
                               PolyMatrix.from_rows([[d, -b], [-c, a]]).scale(1 / det)))
                break
    gluing = {}
    for i in range(size):
        for j in range(size):
            if i != j:
                gluing[(i, j)] = (frames[j][0] * frames[i][1]).scale(beta.value(i, j))
    bundle = twisted.TwistedBundle(2, nerve, gluing, alpha)
    if not twisted.twisted_gluing_check(bundle).ok:
        return False, lambda: "construction failed the twisted check"
    endo = twisted.endomorphism_azumaya(bundle)
    return (twisted.twisted_gluing_check(endo).ok,
            lambda: "conjugation gluing fails the ordinary cocycle check")


@suite
def hilbert_degree(rng):
    nsum = rng.randint(0, 3)
    tor = rng.randint(0, 4)
    if nsum == 0 and tor == 0:
        tor = 1
    sheaf = twisted.SheafOnP1(
        tuple(rng.randint(-3, 3) for _ in range(nsum)), tor)
    grank = rng.randint(1, 2)
    gsum = [rng.randint(-2, 2) for _ in range(grank)]
    p = twisted.hilbert_poly(sheaf, grank, gsum)
    return p.degree_in("m") == sheaf.dim(), lambda: f"sheaf = {sheaf}"


@suite
def hilbert_constancy(rng):
    length = rng.randint(1, 6)
    polys = set()
    for _ in range(rng.randint(2, 5)):
        npts = rng.randint(1, length)
        cuts = sorted(rng.sample(range(1, length), npts - 1)) if npts > 1 else []
        parts = [b - a for a, b in zip([0] + cuts, cuts + [length])]
        support = [(Fraction(rng.randint(-9, 9)), part) for part in parts]
        sheaf = twisted.SheafOnP1.torsion_at(support)
        polys.add(str(twisted.hilbert_poly(sheaf, 1, [0])))
    return (len(polys) == 1 and polys == {str(length)},
            lambda: f"length {length}: {sorted(polys)}")


@suite
def cayley_hamilton(rng):
    m = rand_poly_matrix(rng, rng.choice([2, 3]), ("z",), deg=2)
    cp = char_poly(m)
    mp = linalg.min_poly(m, cp)
    ok = (eval_poly_at_matrix(cp, "v", m).is_zero()
          and linalg.divides_in_v(mp, cp))
    return ok, lambda: f"M = {m}"


def run_suite(name: str, seed: int, count: int) -> SuiteResult:
    """Run ``count`` cases of suite ``name``, drawing from ``random.Random(seed)``."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    case, rng = SUITES[name], random.Random(seed)
    res = SuiteResult(name, seed, count)
    for _ in range(count):
        res.record(*case(rng))
    return res
