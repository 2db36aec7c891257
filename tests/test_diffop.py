import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from azumaya import diffop
from azumaya.cli import main
from azumaya.diffop import (CASE_DISTINCT, CASE_NILPOTENT, CASE_SEMISIMPLE,
                            MixedOperator, classify_higgsing,
                            commutation_constraint, default_degree_bound,
                            discriminant, fundamental_solutions, mixed_mul,
                            pushforward_report, solve_commutation)
from azumaya.errors import (NonConstantError, NotSplitError, PreconditionError,
                            ShapeError, ZeroLambdaError)
from azumaya.linalg import PolyMatrix, SpanBasis, char_poly, min_poly
from azumaya.poly import MultiPoly, parse_poly
from azumaya.suites import rand_discriminant_zero, rand_poly_matrix
from test_linalg import fraction_rref, nullspace_from_rref

z = MultiPoly.var("z")
v = MultiPoly.var("v")
E12 = PolyMatrix.from_rows([[0, 1], [0, 0]])


# -- mixed operators -----------------------------------------------------------

def test_leibniz_rewrite():
    m = PolyMatrix.from_rows([["z^2", 1], [0, "z"]])
    prod = mixed_mul(MixedOperator.derivation(0, 2), MixedOperator.from_matrix(m))
    assert prod.coefficient(0) == m.derivative("z")
    assert prod.coefficient(1) == m


def test_matrix_times_matrix():
    a = PolyMatrix.from_rows([[1, "z"], [0, 1]])
    b = PolyMatrix.from_rows([["z", 0], [1, "z^2"]])
    prod = mixed_mul(MixedOperator.from_matrix(a), MixedOperator.from_matrix(b))
    assert prod.coeffs == {(0,): a * b}


def test_derivation_times_scalar_matrix():
    zi = PolyMatrix.identity(2).scale(z)
    prod = mixed_mul(MixedOperator.derivation(0, 2), MixedOperator.from_matrix(zi))
    assert prod.coefficient(0) == PolyMatrix.identity(2)
    assert prod.coefficient(1) == zi


def test_connection_enters_rewrite():
    gamma = PolyMatrix.from_rows([[0, 1], [0, 0]])
    m = PolyMatrix.from_rows([[1, 0], [0, 2]])
    dop = MixedOperator.derivation(0, 2, gamma=gamma)
    mop = MixedOperator.from_matrix(m, gamma=gamma)
    prod = mixed_mul(dop, mop)
    assert prod.coefficient(0) == m.derivative("z") + gamma.commutator(m)


def test_mixed_assoc_random_gamma():
    rng = random.Random(61)
    for _ in range(25):
        gamma = rand_poly_matrix(rng, 2, ("z",), deg=1)
        ops = []
        for _ in range(3):
            coeffs = {(k,): rand_poly_matrix(rng, 2, ("z",), deg=2)
                      for k in range(rng.randint(1, 3))}
            ops.append(MixedOperator(2, ("z",), coeffs, gamma=gamma))
        a, b, c = ops
        assert mixed_mul(mixed_mul(a, b), c) == mixed_mul(a, mixed_mul(b, c))


def test_shape_errors():
    with pytest.raises(ShapeError):
        mixed_mul(MixedOperator.from_matrix(PolyMatrix.identity(2)),
                  MixedOperator.from_matrix(PolyMatrix.identity(3)))
    with pytest.raises(ShapeError):
        MixedOperator(2, ("w1", "w2"), {}, gamma=PolyMatrix.identity(2))


def test_operator_text():
    a = PolyMatrix(2, 2, [parse_poly(t) for t in ("z", "1/2", "0", "-z^2 + 1")])
    one = PolyMatrix.identity(2)
    assert (str(MixedOperator(2, ("z",), {(1,): one, (0,): a, (3,): a}))
            == "[z, 1/2; 0, -z^2 + 1]*D^3 + [1, 0; 0, 1]*D + [z, 1/2; 0, -z^2 + 1]")
    assert (str(MixedOperator(2, ("w1", "w2"), {(1, 2): one, (0, 1): a, (0, 0): a}))
            == "[1, 0; 0, 1]*D1*D2^2 + [z, 1/2; 0, -z^2 + 1]*D2 + [z, 1/2; 0, -z^2 + 1]")
    assert str(MixedOperator(2, ("z",), {})) == "0"
    assert repr(MixedOperator(1, ("z",), {(2,): PolyMatrix(1, 1, [parse_poly("z")])})) \
        == "MixedOperator('[z]*D^2')"


# -- commutation constraint ------------------------------------------------------

def test_constraint_trivial():
    assert commutation_constraint(PolyMatrix.zeros(2),
                                  PolyMatrix.from_rows([[1, 2], [3, 4]]), 1).is_zero()


def test_constraint_known_solution():
    b = PolyMatrix.from_rows([[1, "z"], [0, 0]])
    assert commutation_constraint(E12, b, 1).is_zero()


def test_constraint_pure_derivative():
    b = PolyMatrix.from_rows([["z", 0], [0, 0]])
    out = commutation_constraint(PolyMatrix.zeros(2), b, 1)
    assert out == PolyMatrix.from_rows([[1, 0], [0, 0]])


def test_constraint_matches_mixed_commutator():
    rng = random.Random(67)
    for _ in range(20):
        a = rand_poly_matrix(rng, 2, ("z",), deg=2)
        b = rand_poly_matrix(rng, 2, ("z",), deg=2)
        lam = Fraction(rng.choice([1, 2, -1, 3]))
        op = MixedOperator(2, ("z",), {(1,): PolyMatrix.identity(2).scale(lam), (0,): a})
        comm = op.commutator(MixedOperator.from_matrix(b))
        assert comm.coefficient(0) == commutation_constraint(a, b, lam)
        assert comm.coefficient(1).is_zero()


# -- solve_commutation ------------------------------------------------------------

def test_solver_zero_matrix():
    basis = solve_commutation(PolyMatrix.zeros(2), 1, 2)
    assert len(basis) == 4
    assert all(m.is_constant() for m in basis)


def test_solver_nilpotent_instance():
    basis = solve_commutation(E12, 1, 2)
    assert len(basis) == 4
    span = SpanBasis()
    for m in basis:
        span.add(list(m.entries))
    known = PolyMatrix.from_rows([[1, "z"], [0, 0]])
    assert span.contains(list(known.entries))
    for m in basis:
        assert commutation_constraint(E12, m, 1).is_zero()


def test_solver_distinct_constant_diagonal():
    basis = solve_commutation(PolyMatrix.from_rows([[1, 0], [0, 2]]), 1, 4)
    assert len(basis) == 2
    assert all(m.is_constant() for m in basis)


def test_solver_dimension_stable_under_larger_bound():
    # every polynomial solution for A = E12 has entry degree <= 2, so
    # raising the ansatz bound must not add spurious dimensions
    assert len(solve_commutation(E12, 1, 8)) == 4


def test_solver_lambda_zero_rejected():
    with pytest.raises(ZeroLambdaError):
        solve_commutation(E12, 0, 2)


def test_solver_rejects_foreign_variables():
    with pytest.raises(ShapeError):
        solve_commutation(PolyMatrix.from_rows([[0, "v"], [0, 0]]), 1, 2)


def test_solver_polynomial_coefficients():
    # A = [[0, z], [0, 0]] still has vanishing discriminant; solutions exist
    # with antiderivative growth, caught at the default bound 2*1 + 2 = 4
    a = PolyMatrix.from_rows([[0, "z"], [0, 0]])
    assert discriminant(a).is_zero()
    basis = solve_commutation(a, 1)
    assert len(basis) == 4
    for m in basis:
        assert commutation_constraint(a, m, 1).is_zero()


def test_solver_default_bound():
    # default bound 2*deg(A)+2 per the quadratic growth of the closed forms
    basis = solve_commutation(E12, 1)
    assert len(basis) == 4


def test_charpoly_claim_on_solver_span():
    # combinations drawn from the solver output itself, not the closed forms
    rng = random.Random(127)
    for _ in range(6):
        a = rand_discriminant_zero(rng)
        lam = Fraction(rng.choice([1, 2, -1]))
        basis = solve_commutation(a, lam)
        assert len(basis) == 4
        for _ in range(5):
            b = PolyMatrix.zeros(2)
            for m in basis:
                b = b + m.scale(Fraction(rng.randint(-3, 3)))
            cp = char_poly(b)
            assert set(cp.vars) <= {"v"}
            b0 = b.map_entries(
                lambda e: MultiPoly.const(
                    e.subs({"z": Fraction(0)}).as_fraction() if not e.is_zero() else 0))
            assert cp == char_poly(b0)


def test_solvability_dichotomy():
    # constant A with nonzero discriminant and distinct eigenvalues: dim < 4
    rng = random.Random(71)
    found = 0
    while found < 10:
        a1, a2, a3, a4 = (Fraction(rng.randint(-3, 3)) for _ in range(4))
        disc = (a1 - a4) ** 2 + 4 * a2 * a3
        if disc == 0:
            continue
        found += 1
        a = PolyMatrix.from_rows([[a1, a2], [a3, a4]])
        basis = solve_commutation(a, 1, 2)
        assert len(basis) < 4


def _ansatz_basis(a, lam, deg_bound):
    """Reference solver: one unknown per coefficient of B (entry-major, then
    z-degree ascending), one equation per (entry, power of z) of the
    constraint, and the reduced-echelon nullspace of that whole system, by
    Gauss-Jordan on Fractions."""
    r = a.rows
    unknowns = [(i, j, d) for i in range(r) for j in range(r) for d in range(deg_bound + 1)]
    equations = {}
    for u, (i, j, d) in enumerate(unknowns):
        unit = PolyMatrix(r, r, [z ** d if (p, q) == (i, j) else 0
                                 for p in range(r) for q in range(r)])
        for key, p in enumerate(commutation_constraint(a, unit, lam).entries):
            for power, c in enumerate(p.coefficients_in("z")):
                if not c.is_zero():
                    row = equations.setdefault((key, power), [Fraction(0)] * len(unknowns))
                    row[u] = c.as_fraction()
    red, pivots = fraction_rref(list(equations.values()))
    basis = []
    for vec in nullspace_from_rref(red, pivots, len(unknowns)):
        entries = [MultiPoly.zero()] * (r * r)
        for (i, j, d), c in zip(unknowns, vec):
            entries[i * r + j] = entries[i * r + j] + c * z ** d
        basis.append(PolyMatrix(r, r, entries))
    return basis


def test_solver_matches_ansatz_elimination():
    rng = random.Random(131)
    cases = []   # (A, lam, deg_bound, whether A is scalar)
    for t in range(15):
        r = 2 + t % 2
        a = rand_poly_matrix(rng, r, ("z",), deg=rng.randint(0, 4 - r))
        scalar = t % 5 == 4
        if scalar:
            a = PolyMatrix.identity(r).scale(a[0, 0])
        for lam in (Fraction(1), Fraction(-2, 3)):
            for bound in (rng.randint(0, 8 - 2 * r), None):
                cases.append((a, lam, bound, scalar))
    # A = 0 leaves no residual equations, and deg_bound 0 no recurrence
    for r in (1, 2, 3):
        for bound in (0, 3, None):
            cases.append((PolyMatrix.zeros(r), Fraction(3, 2), bound, True))
        cases.append((rand_poly_matrix(rng, r, ("z",), deg=1), Fraction(5), 0, False))
    # coefficients of A over 2, 3 and 6, and lam with a numerator other than 1
    for r in (1, 2, 3):
        for lam in (Fraction(-3, 2), Fraction(5, 7), Fraction(-5)):
            a = PolyMatrix(r, r, [MultiPoly(("z",), {(k,): Fraction(rng.randint(-3, 3),
                                                                    rng.choice([1, 2, 3, 6]))
                                                     for k in range(rng.randint(1, 4 - r))})
                                  for _ in range(r * r)])
            cases.append((a, lam, rng.choice([rng.randint(0, 8 - 2 * r), None]), False))
    for a, lam, bound, scalar in cases:
        basis = solve_commutation(a, lam, bound)
        expected = _ansatz_basis(a, lam, default_degree_bound(a) if bound is None else bound)
        assert [b.to_strings() for b in basis] == [b.to_strings() for b in expected]
        assert basis == expected
        assert all(commutation_constraint(a, b, lam).is_zero() for b in basis)
        if scalar:
            # every constant B solves: the canonical basis is the unit matrices
            r = a.rows
            assert basis == [PolyMatrix(r, r, [int(k == u) for k in range(r * r)])
                             for u in range(r * r)]


def rescaling_recurrence(a, lam, deg_bound):
    """The z-power recurrence with every earlier B_k rescaled at each step,
    so that the series always shares one denominator: the oracle for
    ``diffop._recurrence``, which keeps each B_k over its own."""
    r, a_den = a.rows, lcm(*(e.den for e in a.entries))
    coeffs = [[int(c.as_fraction() * a_den) for c in e.coefficients_in("z")] for e in a.entries]
    a_terms = [[(idx // r, idx % r, cs[j]) for idx, cs in enumerate(coeffs)
                if j < len(cs) and cs[j]]
               for j in range(max(map(len, coeffs), default=0))]
    p, q = lam.numerator, lam.denominator
    out = []
    for u in range(r * r):
        bs, residuals = [[int(e == u) for e in range(r * r)]], []
        for k in range(deg_bound + len(a_terms)):
            acc = [0] * (r * r)
            for j in range(max(0, k - deg_bound), min(k + 1, len(a_terms))):
                diffop._bracket_into(acc, a_terms[j], bs[k - j], r, 1)
            if k < deg_bound:
                s, f = abs(p) * (k + 1) * a_den, -q if p > 0 else q
                bs = [[s * x for x in b] for b in bs] + [[f * x for x in acc]]
            else:
                residuals += acc
        out.append((bs, residuals))
    return out


def test_recurrence_matches_the_rescaling_oracle(monkeypatch):
    rng = random.Random(137)
    cases = [(E12, Fraction(1), 240), (E12, Fraction(-2, 3), 97),
             (PolyMatrix.zeros(2), Fraction(3, 4), 5)]
    for _ in range(60):
        r = rng.randint(1, 3)
        a = rand_poly_matrix(rng, r, ("z",), deg=rng.randint(0, 2))
        if rng.random() < 0.5:
            a = a.scale(Fraction(rng.randint(1, 5), rng.choice([2, 3, 7])))
        lam = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
        cases.append((a, lam, rng.choice([0, 1, 2, rng.randint(3, 40)])))
    for a, lam, bound in cases:
        assert diffop._recurrence(a, lam, bound) == rescaling_recurrence(a, lam, bound)
    bases = [solve_commutation(a, lam, bound) for a, lam, bound in cases]
    monkeypatch.setattr(diffop, "_recurrence", rescaling_recurrence)
    assert bases == [solve_commutation(a, lam, bound) for a, lam, bound in cases]


# -- discriminant and the closed-form quadruple -----------------------------------

def test_discriminant_values():
    assert discriminant(E12).is_zero()
    assert str(discriminant(PolyMatrix.from_rows([[1, 0], [0, 0]]))) == "1"
    assert discriminant(PolyMatrix.from_rows([[1, 1], [-1, -1]])).is_zero()
    with pytest.raises(ShapeError):
        discriminant(PolyMatrix.identity(3))


def test_fundamental_solutions_canonical_instance():
    basis = fundamental_solutions(E12, 1)
    assert [m.to_strings() for m in basis] == [
        [["1", "z"], ["0", "0"]],
        [["0", "1"], ["0", "0"]],
        [["-z", "-z^2"], ["1", "z"]],
        [["0", "-z"], ["0", "1"]],
    ]


def test_fundamental_solutions_solve_and_span():
    rng = random.Random(73)
    for _ in range(12):
        a = rand_discriminant_zero(rng)
        lam = Fraction(rng.choice([1, 2, -1, 3]))
        basis = fundamental_solutions(a, lam)
        for m in basis:
            assert commutation_constraint(a, m, lam).is_zero()
        # linear independence over Q and degree-0 terms are elementary
        span = SpanBasis()
        for idx, m in enumerate(basis):
            assert span.add(list(m.entries))
            const = [e.coefficients_in("z")[0] if not e.is_zero() else MultiPoly.zero()
                     for e in m.entries]
            expected = [MultiPoly.const(int(k == idx)) for k in range(4)]
            assert const == expected
        solver = solve_commutation(a, lam, 2)
        assert len(solver) == 4
        solver_span = SpanBasis()
        for m in solver:
            solver_span.add(list(m.entries))
        assert all(solver_span.contains(list(m.entries)) for m in basis)


def _closed_form_quadruple(a, lam):
    """Reference: the quadruple typed out entry by entry for a constant A with
    (a1-a4)^2 + 4 a2 a3 = 0."""
    a1, a2, a3, a4 = (e.as_fraction() for e in a.entries)
    d = a1 - a4
    li = 1 / Fraction(lam)
    li2 = li * li
    z2 = z ** 2
    half = Fraction(1, 2)
    return [
        PolyMatrix.from_rows([
            [1 + li2 * a2 * a3 * z2, li * a2 * z - half * li2 * d * a2 * z2],
            [-li * a3 * z - half * li2 * d * a3 * z2, -li2 * a2 * a3 * z2]]),
        PolyMatrix.from_rows([
            [li * a3 * z - half * li2 * d * a3 * z2, 1 - li * d * z - li2 * a2 * a3 * z2],
            [-li2 * a3 * a3 * z2, -li * a3 * z + half * li2 * d * a3 * z2]]),
        PolyMatrix.from_rows([
            [-li * a2 * z - half * li2 * d * a2 * z2, -li2 * a2 * a2 * z2],
            [1 + li * d * z - li2 * a2 * a3 * z2, li * a2 * z + half * li2 * d * a2 * z2]]),
        PolyMatrix.from_rows([
            [-li2 * a2 * a3 * z2, -li * a2 * z + half * li2 * d * a2 * z2],
            [li * a3 * z + half * li2 * d * a3 * z2, 1 + li2 * a2 * a3 * z2]]),
    ]


def test_fundamental_solutions_match_the_typed_closed_forms():
    rng = random.Random(83)
    lams = [Fraction(1), Fraction(-1), Fraction(2), Fraction(-2, 3), Fraction(3, 2)]
    cases = [PolyMatrix.zeros(2), PolyMatrix.identity(2).scale(3), E12]
    cases += [rand_discriminant_zero(rng) for _ in range(200)]
    for _ in range(40):
        # c I + N with N = (a, b)^T (b, -a) nilpotent, over denominators 2, 3, 6
        c, a, b = (Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 6])) for _ in range(3))
        cases.append(PolyMatrix.from_rows([[c + a * b, -a * a], [b * b, c - a * b]]))
    for t, a in enumerate(cases):
        lam = lams[t % len(lams)]
        basis, expected = fundamental_solutions(a, lam), _closed_form_quadruple(a, lam)
        assert basis == expected
        assert [m.to_strings() for m in basis] == [m.to_strings() for m in expected]


def test_nonzero_residual_is_an_internal_error(monkeypatch, capsys):
    real = diffop._recurrence

    def leaves_a_residual(*args):
        out = real(*args)
        bs, residuals = out[-1]
        out[-1] = (bs, residuals[:-1] + [Fraction(1)])
        return out

    monkeypatch.setattr(diffop, "_recurrence", leaves_a_residual)
    with pytest.raises(AssertionError):
        fundamental_solutions(E12, 1)
    assert main(["azu", "basis", "--a", '[["0", "1"], ["0", "0"]]', "--lambda", "1"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "error" and doc["data"]["code"] == "E_INTERNAL"


def test_fundamental_solutions_preconditions():
    with pytest.raises(PreconditionError):
        fundamental_solutions(PolyMatrix.from_rows([[1, 0], [0, 0]]), 1)
    with pytest.raises(PreconditionError):
        fundamental_solutions(PolyMatrix.from_rows([[0, "z"], [0, 0]]), 1)
    with pytest.raises(ZeroLambdaError):
        fundamental_solutions(E12, 0)


def test_degree0_and_charpoly_claims():
    rng = random.Random(79)
    for _ in range(25):
        a = rand_discriminant_zero(rng)
        lam = Fraction(rng.choice([1, 2, -1]))
        basis = fundamental_solutions(a, lam)
        bhat = [Fraction(rng.randint(-4, 4)) for _ in range(4)]
        b = PolyMatrix.zeros(2)
        for c, m in zip(bhat, basis):
            b = b + m.scale(c)
        b0 = PolyMatrix.from_rows([[bhat[0], bhat[1]], [bhat[2], bhat[3]]])
        cp = char_poly(b)
        assert cp == char_poly(b0)
        assert set(cp.vars) <= {"v"}


# -- classification ---------------------------------------------------------------

def test_classify_identity():
    rep = classify_higgsing(PolyMatrix.identity(2))
    assert rep.case_tag == CASE_SEMISIMPLE
    assert rep.eigenvalues == (Fraction(1),)
    assert rep.kernel_ideal_gen == v - 1
    assert rep.components[0].rank == 2
    assert not rep.filtration_flag


def test_classify_distinct():
    rep = classify_higgsing(PolyMatrix.from_rows([[1, "-z"], [0, 2]]))
    assert rep.case_tag == CASE_DISTINCT
    assert rep.eigenvalues == (Fraction(1), Fraction(2))
    assert [[str(p) for p in vec] for vec in rep.components[0].basis] == [["1", "0"]]
    assert [[str(p) for p in vec] for vec in rep.components[1].basis] == [["-z", "1"]]
    assert [c.rank for c in rep.components] == [1, 1]
    assert rep.kernel_ideal_gen == (v - 1) * (v - 2)


def test_classify_nilpotent():
    rep = classify_higgsing(PolyMatrix.from_rows([[1, 1], [0, 1]]))
    assert rep.case_tag == CASE_NILPOTENT
    assert rep.kernel_ideal_gen == (v - 1) ** 2
    assert rep.filtration_flag
    assert rep.components[0].rank == 1


def test_classify_errors():
    with pytest.raises(NonConstantError):
        classify_higgsing(PolyMatrix.from_rows([["z", 0], [0, 0]]))
    with pytest.raises(NotSplitError):
        classify_higgsing(PolyMatrix.from_rows([[0, 2], [1, 0]]))
    with pytest.raises(ShapeError):
        classify_higgsing(PolyMatrix.identity(3))


@st.composite
def split_2x2(draw):
    """A 2x2 B over Q[z] with a split, z-free characteristic polynomial: a
    triangular matrix with eigenvalues nu1, nu2, equal or not, and an
    off-diagonal entry in z (zero for a scalar B), conjugated by a constant
    invertible P.  z^5 - 5*z^3 + 4*z vanishes at every base point of
    min_poly's certificate, so min_poly falls back to its relation search."""
    q = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    nu1 = draw(q)
    nu2 = draw(st.one_of(st.just(nu1), q))
    off = draw(st.sampled_from(["0", "1", "-3/2", "z", "-2/3*z^2 + z", "z^5 - 5*z^3 + 4*z"]))
    t = [[nu1, off], [0, nu2]] if draw(st.booleans()) else [[nu1, 0], [off, nu2]]
    p = draw(st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(
        lambda p: p[0] * p[3] != p[1] * p[2]))
    det = Fraction(p[0] * p[3] - p[1] * p[2])
    pm = PolyMatrix.from_rows([p[:2], p[2:]])
    inv = PolyMatrix.from_rows([[p[3] / det, -p[1] / det], [-p[2] / det, p[0] / det]])
    return pm * PolyMatrix.from_rows([[str(x) for x in row] for row in t]) * inv


@settings(max_examples=150, deadline=None)
@given(split_2x2())
@example(PolyMatrix.identity(2))
@example(PolyMatrix.from_rows([["-1/2", 0], [0, "-1/2"]]))
@example(PolyMatrix.from_rows([[0, "z^5 - 5*z^3 + 4*z"], [0, 0]]))
@example(PolyMatrix.from_rows([["3/2", 0], ["z", "3/2"]]))
@example(PolyMatrix.from_rows([["1/3", 0], [0, "-1/2"]]))
def test_classify_reads_the_minimal_polynomial_off_b_minus_nu(b):
    assert classify_higgsing(b).kernel_ideal_gen == min_poly(b)


# -- pushforward -------------------------------------------------------------------

def test_pushforward_distinct():
    rep = pushforward_report(E12, [1, 0, 0, 2], 1)
    assert rep.case_tag == CASE_DISTINCT
    assert rep.eigenvalues == (Fraction(1), Fraction(2))
    assert [c.rank for c in rep.components] == [1, 1]


def test_pushforward_semisimple():
    rep = pushforward_report(E12, [5, 0, 0, 5], 1)
    assert rep.case_tag == CASE_SEMISIMPLE
    assert rep.components[0].rank == 2
    assert rep.kernel_ideal_gen == v - 5


def test_pushforward_nilpotent():
    rep = pushforward_report(E12, [1, 1, 0, 1], 1)
    assert rep.case_tag == CASE_NILPOTENT
    assert rep.filtration_flag


def test_pushforward_propagates_errors():
    with pytest.raises(PreconditionError):
        pushforward_report(PolyMatrix.from_rows([[1, 0], [0, 0]]), [1, 0, 0, 1], 1)
    with pytest.raises(NotSplitError):
        pushforward_report(E12, [0, 2, 1, 0], 1)
