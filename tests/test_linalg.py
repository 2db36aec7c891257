import functools
import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from azumaya import linalg
from azumaya.errors import ShapeError
from azumaya.linalg import (PolyMatrix, SpanBasis, char_poly, divides_in_v, echelon,
                            eval_poly_at_matrix, independent, kernel_saturated,
                            linear_solve_exact, min_poly, squarefree_in_v)
from azumaya.linalg import _gcd_in
from azumaya.poly import ONE, ZERO, MultiPoly, exact_div, parse_poly, poly_content

z = MultiPoly.var("z")
v = MultiPoly.var("v")


def rand_matrix(rng, r, deg=2):
    ents = []
    for _ in range(r * r):
        terms = {(k,): Fraction(rng.randint(-3, 3)) for k in range(deg + 1)}
        ents.append(MultiPoly(("z",), terms))
    return PolyMatrix(r, r, ents)


def rand_rational_matrix(rng, r, deg=2):
    """Entries with non-integer rational coefficients of mixed denominators."""
    ents = []
    for _ in range(r * r):
        terms = {(k,): Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 4, 7]))
                 for k in range(deg + 1)}
        ents.append(MultiPoly(("z",), terms))
    return PolyMatrix(r, r, ents)


def conjugated(diagonal, upper, rng):
    """P * D * P^-1 for D with the given diagonal and first superdiagonal,
    P a random unimodular integer matrix (a product of elementary ones)."""
    r = len(diagonal)
    d = PolyMatrix.from_rows([[diagonal[i] if i == j else upper[i] if j == i + 1 else 0
                               for j in range(r)] for i in range(r)])
    p = q = PolyMatrix.identity(r)
    for _ in range(4):
        i, j = rng.sample(range(r), 2)
        c = rng.choice([-2, -1, 1, 2])
        e = [[int(a == b) for b in range(r)] for a in range(r)]
        e[i][j] = c
        p = p * PolyMatrix.from_rows(e)
        e[i][j] = -c
        q = PolyMatrix.from_rows(e) * q
    return p * d * q


def sympy_poly(p: MultiPoly):
    return sympy.sympify(str(p).replace("^", "**"), rational=True)


def sympy_rank(vectors, gens):
    """Rank over the fraction field Q(gens), computed by sympy."""
    rows = sympy.Matrix([[sympy_poly(x) for x in vec] for vec in vectors])
    field = sympy.QQ.frac_field(*sympy.symbols(gens, seq=True))
    return DomainMatrix.from_Matrix(rows).convert_to(field).rank()


def sympy_min_poly(m: PolyMatrix):
    """First relation among vec(I), vec(M), ... over Q(z), by sympy, made
    primitive over Q[z] with a positive leading coefficient."""
    zs, vs = sympy.symbols("z v")
    field = sympy.QQ.frac_field(zs)
    sm, r = to_sympy(m), m.rows
    powers = [sympy.eye(r)]
    for _ in range(r):
        powers.append((sm * powers[-1]).expand())
        krylov = sympy.Matrix([[p[i] for p in powers] for i in range(r * r)])
        null = DomainMatrix.from_Matrix(krylov).convert_to(field).nullspace()
        if null.shape[0]:
            break
    rel = null.to_Matrix().row(0)
    num = sympy.numer(sympy.together(sum(c * vs ** j for j, c in enumerate(rel))))
    content = sympy.gcd_list(sympy.Poly(num, vs).all_coeffs())
    prim = sympy.Poly(sympy.cancel(num / content), vs, zs)
    prim = prim.clear_denoms()[1].primitive()[1]
    return -prim if prim.LC() < 0 else prim


def to_sympy(m: PolyMatrix):
    zs = sympy.Symbol("z")
    rows = []
    for i in range(m.rows):
        rows.append([sympy.nsimplify(sympy.sympify(str(m[i, j]).replace("^", "**")),
                                     rational=True) for j in range(m.cols)])
    return sympy.Matrix(rows)


# -- linear_solve_exact -------------------------------------------------------

def test_identity_system():
    sol = linear_solve_exact([[1, 0], [0, 1]], [1, 0])
    assert sol.consistent and sol.particular == (1, 0) and sol.nullspace == ()


def test_zero_system():
    sol = linear_solve_exact([[0, 0], [0, 0]], [0, 0])
    assert len(sol.nullspace) == 2


def test_hand_elimination():
    sol = linear_solve_exact([[1, 1], [2, 2]], [1, 2])
    assert sol.particular == (1, 0)
    assert sol.nullspace == ((-1, 1),)


def test_inconsistent():
    assert not linear_solve_exact([[1, 1], [1, 1]], [1, 2]).consistent


@pytest.mark.parametrize("matrix,rhs", [([[1, 2], [3]], None), ([[1], [3, 4]], [1, 2])])
def test_ragged_system_is_a_shape_error(matrix, rhs):
    with pytest.raises(ShapeError):
        linear_solve_exact(matrix, rhs)


def test_against_sympy_random():
    rng = random.Random(10)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(cols)] for _ in range(rows)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(rows)]
        sol = linear_solve_exact(m, b)
        sm = sympy.Matrix([[sympy.Rational(x) for x in row] for row in m])
        sb = sympy.Matrix([sympy.Rational(x) for x in b])
        sympy_consistent = sm.rank() == sm.row_join(sb).rank()
        assert sol.consistent == sympy_consistent
        if sol.consistent:
            residual = sm * sympy.Matrix([sympy.Rational(x) for x in sol.particular]) - sb
            assert all(x == 0 for x in residual)
            assert len(sol.nullspace) == cols - sm.rank()
            for vec in sol.nullspace:
                res = sm * sympy.Matrix([sympy.Rational(x) for x in vec])
                assert all(x == 0 for x in res)


def image_kernel(images, var):
    """Rational kernel of the Q-linear map sending unknown u to ``images[u]``
    (a dict of polynomials in ``var``; a missing key is a zero entry): one
    equation per (key, power of ``var``), then ``fraction_rref`` +
    ``nullspace_from_rref``.
    This is the elimination the solver and probe oracles in the other test
    modules are built on."""
    n = len(images)
    equations = {}
    for u, image in enumerate(images):
        for key, p in image.items():
            for power, c in enumerate(p.coefficients_in(var)):
                if not c.is_zero():
                    row = equations.setdefault((key, power), [Fraction(0)] * n)
                    row[u] = c.as_fraction()
    red, pivots = fraction_rref(list(equations.values()))
    return nullspace_from_rref(red, pivots, n)


def test_image_kernel_matches_linear_solve_random():
    # the reduced-echelon kernel depends only on the map: shuffled rows, zero
    # rows and rows packed as coefficients of z^0, z^1 in one image entry
    # leave it unchanged
    rng = random.Random(12)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) if rng.random() < 0.6
              else Fraction(0) for _ in range(cols)] for _ in range(rows)]
        expected = linear_solve_exact(m).nullspace
        padded = m + [[Fraction(0)] * cols for _ in range(rng.randint(0, 2))]
        rng.shuffle(padded)
        images = [{} for _ in range(cols)]
        for idx, row in enumerate(padded):
            for u, c in enumerate(row):
                key = idx // 2
                images[u][key] = images[u].get(key, MultiPoly.zero()) + c * z ** (idx % 2)
        assert image_kernel(images, "z") == expected


def test_image_kernel_of_zero_images_is_unit_basis():
    basis = image_kernel([{0: MultiPoly.zero()}, {}, {(1, 2): MultiPoly.zero()}], "z")
    assert basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_modp_enumeration_containment():
    # exact solutions reduce to mod-p solutions whenever denominators allow
    rng = random.Random(4)
    p = 5
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        b = [rng.randrange(p) for _ in range(rows)]
        modp = [vec for vec in product(range(p), repeat=cols)
                if all(sum(m[i][j] * vec[j] for j in range(cols)) % p == b[i]
                       for i in range(rows))]
        sol = linear_solve_exact([[Fraction(x) for x in row] for row in m],
                                 [Fraction(x) for x in b])
        if not sol.consistent:
            continue
        if all(c.denominator % p for c in sol.particular):
            red = tuple((c.numerator * pow(c.denominator, -1, p)) % p
                        for c in sol.particular)
            assert red in modp
        for vec in sol.nullspace:
            if all(c.denominator % p for c in vec):
                red = tuple((c.numerator * pow(c.denominator, -1, p)) % p
                            for c in vec)
                hom = all(sum(m[i][j] * red[j] for j in range(cols)) % p == 0
                          for i in range(rows))
                assert hom


# -- echelon and linear_solve_exact against Gauss-Jordan on Fractions ----------

def fraction_rref(rows):
    """Reference: Gauss-Jordan on Fractions (the first nonzero entry of each
    column as pivot, every other row cleared at once), copying its input.

    Returns (reduced rows, pivot column list).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    return rows, pivots


def nullspace_from_rref(rows, pivots, ncols):
    """Reference: the standard-form kernel basis (free coordinate = 1) of
    reduced rows such as ``fraction_rref`` returns."""
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(tuple(vec))
    return tuple(basis)


@st.composite
def fraction_rows(draw):
    """Tall, wide, 1 x n and n x 1 shapes (0 x n too), entries p/q with
    q <= 6, many zeros, and rows repeated up to such a factor."""
    nrows, ncols = draw(st.integers(0, 7)), draw(st.integers(1, 7))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for i in range(1, nrows):
        if draw(st.booleans()):
            rows[i] = [draw(entry) * x for x in rows[draw(st.integers(0, i - 1))]]
    return rows


@settings(max_examples=200, deadline=None)
@given(fraction_rows(), st.integers(0, 8))
@example([], 0)
@example([[], []], 0)
@example([[Fraction(0)] * 3, [Fraction(0)] * 3], 0)
@example([[Fraction(0), Fraction(-2), Fraction(1, 6)], [Fraction(0), Fraction(3, 4), Fraction(0)]], 0)
@example([[Fraction(-5, 6), Fraction(5, 3), Fraction(0), Fraction(1)]], 0)
@example([[Fraction(-1, 2)], [Fraction(0)], [Fraction(2, 3)], [Fraction(-6)]], 0)
@example([[Fraction(-3), Fraction(1)], [Fraction(2), Fraction(0)],
          [Fraction(-1, 5), Fraction(1, 6)], [Fraction(0), Fraction(-4)]], 0)
def test_echelon_past_first_is_the_reduced_form_there(rows, first):
    # the reduced rows with pivot column >= first are the reduced echelon
    # form of the row space's part that vanishes before first
    dens = [math.lcm(*(x.denominator for x in row)) for row in rows]
    ints = [[int(x * d) for x in row] for row, d in zip(rows, dens)]
    pivots = echelon(ints, first)
    want, want_pivots = fraction_rref(rows)
    assert pivots == want_pivots
    tail = [[Fraction(x, row[pc]) for x in row]
            for row, pc in zip(ints, pivots) if pc >= first]
    assert tail == [row for row, pc in zip(want, want_pivots) if pc >= first]
    assert all(not any(row) for row in ints[len(pivots):])


@settings(max_examples=200, deadline=None)
@given(fraction_rows(), st.data())
def test_linear_solve_reads_the_reduced_augmented_rows(rows, data):
    # consistent, particular and nullspace are those of Gauss-Jordan on
    # [M | b]: the particular solution is the last column at the pivots,
    # the kernel the standard-form basis of the reduced M
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
    rhs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    ncols = len(rows[0]) if rows else 0
    red, pivots = fraction_rref([row + [b] for row, b in zip(rows, rhs)])
    sol = linear_solve_exact(rows, rhs)
    assert sol.consistent == (ncols not in pivots)
    if not sol.consistent:
        assert sol.particular is None and sol.nullspace == ()
        return
    particular = [Fraction(0)] * ncols
    for row, pc in zip(red, pivots):
        particular[pc] = row[ncols]
    assert sol.particular == tuple(particular)
    assert sol.nullspace == nullspace_from_rref([row[:ncols] for row in red], pivots, ncols)
    assert all(type(x) is Fraction for vec in (sol.particular, *sol.nullspace) for x in vec)


@st.composite
def integer_vectors(draw):
    """Up to 6 integer vectors of one length from 1 to 6, many zeros, some
    the sum of an earlier vector and a multiple of another."""
    count, length = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-9, 9))
    vectors = draw(st.lists(st.lists(entry, min_size=length, max_size=length),
                            min_size=count, max_size=count))
    for i in range(1, count):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            k = draw(st.integers(-3, 3))
            vectors[i] = [x + k * y for x, y in zip(vectors[a], vectors[b])]
    return vectors


@settings(max_examples=300, deadline=None)
@given(integer_vectors())
@example([])
@example([[0, 0, 0]])
@example([[1, 2], [2, 4]])
@example([[1, 0], [0, 1], [1, 1]])
@example([[2, 0, 1], [0, 3, 0], [0, 0, 5]])
def test_independent_is_full_rank_by_sympy(vectors):
    # independent reads only the rank of its echelon form, and leaves its
    # argument as it was
    before = [list(v) for v in vectors]
    assert independent(vectors) == (sympy.Matrix(vectors).rank() == len(vectors))
    assert vectors == before


# -- PolyMatrix products ------------------------------------------------------------

@st.composite
def constant_factors(draw):
    """An r x k and a k x c matrix of Fractions, 1 <= r, k, c <= 4, with
    denominators up to 6 and many zeros."""
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    entry = st.one_of(st.just(Fraction(0)),
                      st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    return tuple(draw(st.lists(st.lists(entry, min_size=m, max_size=m), min_size=n, max_size=n))
                 for n, m in ((r, k), (k, c)))


@settings(max_examples=300, deadline=None)
@given(constant_factors())
@example(([[Fraction(1), Fraction(1)]], [[Fraction(1)], [Fraction(-1)]]))
@example(([[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(5)]],
          [[Fraction(2, 3), Fraction(-1, 2)], [Fraction(-1), Fraction(3, 4)]]))
@example(([[Fraction(3, 2)]], [[Fraction(2, 3), Fraction(0), Fraction(-4, 9)]]))
def test_constant_product_is_the_fraction_product(factors):
    a, b = factors
    want = [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]
    got = PolyMatrix.from_rows(a) * PolyMatrix.from_rows(b)
    assert got.shape() == (len(a), len(b[0]))
    assert got == PolyMatrix.from_rows(want)
    assert [[got[i, j].as_fraction() for j in range(got.cols)] for i in range(got.rows)] == want


def test_mixed_constant_and_polynomial_product():
    # one polynomial entry sends the product through the integer-map path
    a = PolyMatrix.from_rows([[z, Fraction(1, 2)], [0, 3]])
    b = PolyMatrix.from_rows([[2, Fraction(1, 3)], [z - 1, -1]])
    got = a * b
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert got == PolyMatrix.from_rows([[z * 2 + (z - 1) * half, z * third - half],
                                        [(z - 1) * 3, -3]])
    assert got.to_strings() == [["5/2*z - 1/2", "1/3*z - 1/2"], ["3*z - 3", "-3"]]


# -- char_poly ----------------------------------------------------------------

def test_char_poly_zero_matrix():
    assert char_poly(PolyMatrix.zeros(2)) == v ** 2


def test_char_poly_diagonal():
    f, g = z + 1, z ** 2
    m = PolyMatrix.from_rows([[f, 0], [0, g]])
    assert char_poly(m) == (v - f) * (v - g)


def test_char_poly_companion():
    p = parse_poly("z^3 - 2*z + 1")
    m = PolyMatrix.from_rows([[0, p], [1, 0]])
    assert char_poly(m) == v ** 2 - p


def test_char_poly_against_sympy_and_cayley_hamilton():
    rng = random.Random(17)
    zs, vs = sympy.symbols("z v")
    for _ in range(30):
        r = rng.choice([2, 3])
        m = rand_matrix(rng, r, deg=2)
        cp = char_poly(m)
        sympy_cp = to_sympy(m).charpoly(vs).as_expr()
        mine = sympy.nsimplify(sympy.sympify(str(cp).replace("^", "**")), rational=True)
        assert sympy.expand(mine - sympy_cp) == 0
        assert eval_poly_at_matrix(cp, "v", m).is_zero()


def test_char_poly_shape_error():
    with pytest.raises(ShapeError):
        char_poly(PolyMatrix(1, 2, [z, z]))


def faddeev_leverrier(m: PolyMatrix) -> MultiPoly:
    """Reference: the Faddeev-LeVerrier recursion on PolyMatrix values, with
    a division by k and a full c_k * I matrix added at each step."""
    r = m.rows
    coeffs, n = [ONE], PolyMatrix.identity(r)
    for k in range(1, r + 1):
        mn = m * n
        ck = mn.trace() * Fraction(-1, k)
        coeffs.append(ck)
        n = mn + PolyMatrix.identity(r).scale(ck)
    return sum((c * v ** (r - k) for k, c in enumerate(coeffs)), ZERO)


# base variables of the seeded char_poly cases: one or two base variables,
# names that sort after v, and entries that use v itself
CHARPOLY_NAMES = [("z",), ("w1", "w2"), ("lam",), ("m",), ("a",), ("z", "lam"),
                  ("v",), ("z", "v"), ("w1", "v", "m")]


def charpoly_case(rng, r, kind, names):
    """An r x r matrix: zero, constant (integer or p/q), or with entries of
    degree <= 2 (<= 1 from rank 5 on) over ``names``, integer or p/q."""
    if kind == "zero":
        return PolyMatrix.zeros(r)
    deg = 0 if kind.startswith("constant") else 2 if r < 5 else 1
    dens = [1, 2, 3, 4, 7] if kind.endswith("rational") else [1]
    ents = []
    for _ in range(r * r):
        terms = {tuple(rng.randint(0, deg) for _ in names):
                 Fraction(rng.randint(-4, 4), rng.choice(dens)) for _ in range(rng.randint(0, 3))}
        ents.append(MultiPoly(names, terms))
    return PolyMatrix(r, r, ents)


def charpoly_cases():
    rng = random.Random(20)
    cases = []
    for r in range(1, 7):
        cases.append(charpoly_case(rng, r, "zero", ()))
        cases += [charpoly_case(rng, r, kind, ()) for kind in ("constant", "constant rational")
                  for _ in range(3)]
        cases += [charpoly_case(rng, r, kind, names) for kind in ("poly", "poly rational")
                  for names in CHARPOLY_NAMES for _ in range(3)]
    return cases


def test_char_poly_matches_the_matrix_recursion_and_sympy():
    cases = charpoly_cases()
    assert len(cases) >= 300
    with pytest.raises(ShapeError):
        PolyMatrix(0, 0, [])  # rank 0 has no matrix to ask
    for m in cases:
        assert str(char_poly(m)) == str(faddeev_leverrier(m))
    for m in cases:
        if "v" not in m.variables():
            entries = [sympy_poly(e) for e in m.entries]
            dm = DomainMatrix.from_Matrix(sympy.Matrix(m.rows, m.cols, entries))
            want = [dm.domain.to_sympy(c) for c in reversed(dm.charpoly())]
            got = [sympy_poly(c) for c in char_poly(m).coefficients_in("v")]
            assert len(got) == len(want) and all(sympy.expand(a - b) == 0 for a, b in zip(got, want))


# -- min_poly -----------------------------------------------------------------

def test_min_poly_scalar_matrix():
    nu = parse_poly("z^2 + 1")
    m = PolyMatrix.from_rows([[nu, 0], [0, nu]])
    assert min_poly(m) == v - nu


def test_min_poly_jordan_block():
    m = PolyMatrix.from_rows([[1, 1], [0, 1]])
    assert min_poly(m) == (v - 1) ** 2


def test_min_poly_distinct_diagonal():
    m = PolyMatrix.from_rows([[1, 0], [0, 2]])
    assert min_poly(m) == (v - 1) * (v - 2)


def test_min_poly_divides_char_poly_random():
    rng = random.Random(23)
    for _ in range(40):
        r = rng.choice([2, 3])
        m = rand_matrix(rng, r, deg=2)
        mp = min_poly(m)
        assert divides_in_v(mp, char_poly(m))
        assert eval_poly_at_matrix(mp, "v", m).is_zero()


def test_min_poly_against_sympy():
    rng = random.Random(31)
    cases = [rand_matrix(rng, 4), rand_matrix(rng, 4), rand_matrix(rng, 5)]
    root = lambda: z * rng.randint(-2, 2) + rng.randint(-3, 3)
    # derogatory: repeated eigenvalues, with and without a Jordan block
    for r in (4, 5):
        a, b = root(), root()
        cases.append(conjugated([a, a, a] + [b] * (r - 3), [1] + [0] * (r - 2), rng))
        cases.append(conjugated([a, a] + [b] * (r - 2), [0] * (r - 1), rng))
    # scalar and zero matrices: M itself already depends on I
    cases += [PolyMatrix.identity(3).scale(root()), PolyMatrix.identity(4).scale(z - 2),
              PolyMatrix.zeros(3)]
    # non-integer rational entries, and a derogatory case with rational roots
    cases += [rand_rational_matrix(rng, 3), rand_rational_matrix(rng, 4, deg=1)]
    a, b = Fraction(1, 2) * z - Fraction(2, 3), Fraction(-3, 5) * z + Fraction(1, 4)
    cases.append(conjugated([a, a, b, b], [1, 0, 0], rng))
    for m in cases:
        mine = min_poly(m)
        assert sympy.expand(sympy_poly(mine) - sympy_min_poly(m).as_expr()) == 0
        assert eval_poly_at_matrix(mine, "v", m).is_zero()


# -- the evaluation certificates against the forced fallback -------------------

def certificate_case(rng):
    """A random, scalar, derogatory, rational-entry or constant matrix, or
    one over the base variable w."""
    root = lambda: z * rng.randint(-2, 2) + rng.randint(-3, 3)
    r, kind = rng.randint(1, 4), rng.randrange(6)
    if kind == 0:
        return rand_matrix(rng, r, deg=rng.randint(1, 2))
    if kind == 1:
        return PolyMatrix.identity(r).scale(root())
    if kind == 2:
        # a repeated eigenvalue, with or without a Jordan block
        a, b, r = root(), root(), max(r, 2)
        return conjugated([a, a] + [b] * (r - 2), [rng.randint(0, 1)] + [0] * (r - 2), rng)
    if kind == 3:
        return rand_rational_matrix(rng, r, deg=rng.randint(0, 2))
    if kind == 4:
        return rand_matrix(rng, r, deg=0)
    return rand_matrix(rng, r, deg=1).subs({"z": MultiPoly.var("w")})


def test_certificates_match_the_forced_fallback(monkeypatch):
    rng = random.Random(43)
    cases = [certificate_case(rng) for _ in range(520)]
    chis = [char_poly(m) for m in cases]
    certified = [(min_poly(m, chi), squarefree_in_v(chi)) for m, chi in zip(cases, chis)]
    monkeypatch.setattr(linalg, "_POINTS", ())
    fallback = [(min_poly(m, chi), squarefree_in_v(chi)) for m, chi in zip(cases, chis)]
    assert certified == fallback
    # both answers of both tests occur
    assert {mp == chi * (1 / poly_content(chi)) for (mp, _), chi in zip(certified, chis)} \
        == {True, False}
    assert {sf for _, sf in certified} == {True, False}


def spy_on_relations(monkeypatch):
    calls = []
    relations = linalg._relations

    def spy(*args):
        calls.append(args)
        return relations(*args)
    monkeypatch.setattr(linalg, "_relations", spy)
    return calls


def test_a_derogatory_point_is_skipped(monkeypatch):
    # diag(z, 0) is 0 at z0 = 0, so that point decides nothing; z0 = 1 does
    m = PolyMatrix.from_rows([[z, 0], [0, 0]])
    calls = spy_on_relations(monkeypatch)
    monkeypatch.setattr(linalg, "_POINTS", (0,))
    assert min_poly(m) == v ** 2 - z * v and len(calls) == 1
    monkeypatch.setattr(linalg, "_POINTS", (0, 1))
    assert min_poly(m) == v ** 2 - z * v and len(calls) == 1


def test_a_derogatory_matrix_reaches_the_fallback(monkeypatch):
    m = PolyMatrix.from_rows([[z, 0, 0], [0, z, 0], [0, 0, 1]])
    calls = spy_on_relations(monkeypatch)
    assert str(min_poly(m)) == "-z*v + v^2 + z - v" and len(calls) == 1


def test_squarefree_decided_by_the_remainder_sequence():
    # at every point the leading coefficient or the discriminant vanishes,
    # so only the remainder sequence over Q(z) decides
    q = z * (z - 1) * (z + 1) * (z - 2) * (z + 2)
    vs = sympy.Symbol("v")
    for p, sf in ((v ** 2 - q, True), (q * v ** 2 + v, True), ((v - z) ** 2, False)):
        for z0 in linalg._POINTS:
            f = sympy.Poly(sympy_poly(p.subs({"z": z0})), vs)
            assert f.degree() < 2 or f.gcd(f.diff(vs)).degree() > 0
        assert squarefree_in_v(p) == sf


def test_a_wrong_characteristic_polynomial_trips_the_certificate(monkeypatch):
    m = PolyMatrix.from_rows([[0, 0, z], [1, 0, 1], [0, 1, 0]])
    monkeypatch.setattr(linalg, "char_poly", lambda m: v ** 3 - z * v - 1)
    with pytest.raises(AssertionError, match="characteristic polynomial does not annihilate"):
        min_poly(m)


def test_a_wrong_relation_trips_the_fallback_checks(monkeypatch):
    m = PolyMatrix.from_rows([[z, 0, 0], [0, z, 0], [0, 0, 1]])
    right = min_poly(m)
    # a perturbed coefficient, and the relation times v + 5 (of degree r + 1)
    for wrong, check in ((right + 1, "does not annihilate M"), (right * (v + 5), "does not divide chi")):
        rel = tuple(wrong.coefficients_in("v"))
        monkeypatch.setattr(linalg, "_relations", lambda *args, rel=rel: iter([rel]))
        with pytest.raises(AssertionError, match=check):
            min_poly(m)


def test_min_poly_refuses_the_eigenvalue_variable():
    with pytest.raises(ShapeError):
        min_poly(PolyMatrix.from_rows([[v, 1], [0, v]]))


# -- kernel_saturated ---------------------------------------------------------

def test_kernel_zero_matrix():
    ks = kernel_saturated(PolyMatrix.zeros(2))
    assert [[str(x) for x in vec] for vec in ks] == [["1", "0"], ["0", "1"]]


def test_kernel_rank_one():
    m = PolyMatrix.from_rows([[0, -z], [0, 1]])
    assert [[str(x) for x in vec] for vec in kernel_saturated(m)] == [["1", "0"]]


def test_kernel_denominator_cleared():
    m = PolyMatrix.from_rows([[-1, -z], [0, 0]])
    ks = kernel_saturated(m)
    assert [[str(x) for x in vec] for vec in ks] == [["-z", "1"]]


def sympy_is_primitive(vec):
    """True when the entries, polynomials in z, have a gcd of degree 0 and
    integer coefficients with no common factor (content 1), by sympy."""
    zs = sympy.Symbol("z")
    entries = [sympy_poly(x) for x in vec]
    coeffs = [c for e in entries for c in sympy.Poly(e, zs).coeffs()]
    return (sympy.degree(functools.reduce(sympy.gcd, entries), zs) == 0
            and sympy.gcd_list(coeffs) == 1)


def check_saturated_kernel(m: PolyMatrix):
    ks = kernel_saturated(m)
    assert len(ks) == m.cols - sympy_rank([m.row(i) for i in range(m.rows)], "z")
    for vec in ks:
        image = [sum((m[i, j] * vec[j] for j in range(m.cols)), MultiPoly.zero())
                 for i in range(m.rows)]
        assert all(e.is_zero() for e in image)
        assert sympy_is_primitive(vec)
        # the free coordinate is the last nonzero one
        free = [x for x in vec if not x.is_zero()][-1]
        assert sympy.Poly(sympy_poly(free), sympy.Symbol("z")).LC() > 0
    return ks


def test_kernel_saturation_properties_random():
    rng = random.Random(29)
    checked = 0
    while checked < 30:
        r = rng.choice([2, 3])
        m = rand_matrix(rng, r, deg=1)
        # force a kernel by zeroing a row
        rows = [list(m.row(i)) for i in range(r)]
        rows[rng.randrange(r)] = [MultiPoly.zero()] * r
        m = PolyMatrix.from_rows(rows)
        if check_saturated_kernel(m):
            checked += 1
    # rank-deficient 3x3 and 4x4: a row (or two) combined from the others
    for r in (3, 3, 4, 4, 4):
        m = rand_matrix(rng, r, deg=1)
        rows = [list(m.row(i)) for i in range(r)]
        for k in rng.sample(range(r), rng.choice([1, 2]) if r == 4 else 1):
            coeffs = [rand_matrix(rng, 1, deg=1)[0, 0] if i != k else 0 for i in range(r)]
            rows[k] = [sum((c * row[j] for c, row in zip(coeffs, rows)), MultiPoly.zero())
                       for j in range(r)]
        assert len(check_saturated_kernel(PolyMatrix.from_rows(rows))) >= 1
    # non-integer rational entries: a row combined from the others with
    # rational coefficients
    for r in (2, 3, 3, 4):
        m = rand_rational_matrix(rng, r, deg=1)
        rows = [list(m.row(i)) for i in range(r)]
        coeffs = [Fraction(rng.randint(-4, 4), rng.choice([2, 3, 5])) * z
                  + Fraction(1, rng.choice([2, 7])) for _ in range(r - 1)]
        rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), MultiPoly.zero())
                    for j in range(r)]
        assert len(check_saturated_kernel(PolyMatrix.from_rows(rows))) >= 1
    # scalar and zero matrices: no kernel, or all of it
    assert check_saturated_kernel(PolyMatrix.identity(3).scale(z + 1)) == []
    assert len(check_saturated_kernel(PolyMatrix.zeros(3))) == 3
    assert len(check_saturated_kernel(PolyMatrix.zeros(2, 3))) == 3


# -- squarefree / divisibility -------------------------------------------------

def test_squarefree():
    assert squarefree_in_v(v ** 2 - z)
    assert not squarefree_in_v(v ** 2)
    assert squarefree_in_v((v - 1) * (v - 2))
    assert not squarefree_in_v((v - z) ** 2)


def test_divides():
    assert divides_in_v(v - 1, (v - 1) * (v - 2))
    assert divides_in_v(v - z, (v - z) * (v + z))
    assert not divides_in_v(v - 3, (v - 1) * (v - 2))


def test_kernel_of_wide_matrix_clears_denominators():
    # RREF kernel vector is (-1/z, 1); saturation yields (-1, z)
    m = PolyMatrix(1, 2, [z, parse_poly("1")])
    ks = kernel_saturated(m)
    assert [[str(x) for x in vec] for vec in ks] == [["-1", "z"]]
    assert all(sympy_is_primitive(vec) for vec in ks)


def test_squarefree_multivariate_base():
    w1, w2 = MultiPoly.var("w1"), MultiPoly.var("w2")
    assert squarefree_in_v((v - w1) * (v - w2))
    assert not squarefree_in_v((v - w1) ** 2 * (v - w2))
    assert squarefree_in_v(v ** 2 - w1 * w2)



def test_edge_cases_of_the_remainder_tests():
    w1 = MultiPoly.var("w1")
    assert not divides_in_v(ZERO, v - 1)
    assert not divides_in_v(ZERO, ZERO)
    assert divides_in_v(z + 2, (v - 1) * z)        # free of v: a unit over Q(z)
    assert squarefree_in_v(ZERO)
    assert squarefree_in_v((z - 1) ** 2 * w1)      # free of v
    assert squarefree_in_v(MultiPoly.const(Fraction(-3, 2)))
    # the gcd and the content that saturate a kernel vector
    assert _gcd_in([(z + 1) * (z - 2), (z + 1) * 3, ZERO], "z").degree_in("z") == 1
    assert _gcd_in([ZERO, ZERO], "z").is_zero()
    assert _gcd_in([2 * z, 4 * z + 2], "z").degree_in("z") == 0
    assert poly_content(2 * z, 4 * z + 2) == 2
    assert poly_content(2 * z, 3 * z + 1) == 1


# -- the pseudo-remainder routine against sympy over the base fraction field ----

REMAINDER_LAYOUTS = (("z", ()), ("v", ()), ("v", ("z",)), ("v", ("w1", "w2")))


def rand_factor(rng, main, base, deg):
    """A nonzero polynomial with rational, not necessarily monic coefficients."""
    names = (main,) + base
    terms = {tuple(rng.randint(0, deg) for _ in names):
             Fraction(rng.choice([-5, -3, -2, -1, 1, 2, 4, 7]), rng.choice([1, 2, 3, 7]))
             for _ in range(rng.randint(1, 3))}
    return MultiPoly(names, terms)


def remainder_case(rng, main, base):
    """Polys in ``main`` sharing a factor, often repeated, with constants and zeros."""
    c, a, b = (rand_factor(rng, main, base, rng.randint(0, 2)) for _ in range(3))
    const = MultiPoly.const(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    return rng.choice([
        [a * c, b * c],
        [a * c ** 2, b * c],
        [a * c, b * c ** 2, (a + b) * c],
        [c ** 2, c],
        [a * c, ZERO],
        [ZERO, ZERO],
        [const, a * c],
        [a, b],
    ]), a * c ** rng.randint(1, 2), c


def test_gcd_squarefree_divides_against_sympy():
    rng = random.Random(41)
    for n in range(320):
        main, base = REMAINDER_LAYOUTS[n % len(REMAINDER_LAYOUTS)]
        gens = [sympy.Symbol(g) for g in base]
        domain = sympy.QQ.frac_field(*gens) if gens else sympy.QQ
        x = sympy.Symbol(main)

        @functools.cache
        def poly(p):
            return sympy.Poly(sympy_poly(p), x, domain=domain)

        polys, p, d = remainder_case(rng, main, base)
        want = poly(ZERO)
        for q in polys:
            want = want.gcd(poly(q))
        got = poly(_gcd_in(polys, main))
        assert got.degree() == want.degree(), polys
        if not want.is_zero:
            assert want.rem(got).is_zero and got.rem(want).is_zero, polys
        if main != "v":
            continue
        for f in (p, *polys):
            sf = f.degree_in("v") <= 0 or poly(f).gcd(poly(f.derivative("v"))).degree() == 0
            assert squarefree_in_v(f) == sf, f
        for div, f in ((d, p), (p, d), *zip(polys, polys[::-1])):
            assert divides_in_v(div, f) == (not div.is_zero() and poly(f).rem(poly(div)).is_zero)


def test_span_dimension_over_two_base_variables():
    rng = random.Random(37)
    w1, w2 = MultiPoly.var("w1"), MultiPoly.var("w2")

    def rand_entry():
        return rng.randint(-2, 2) * w1 + rng.randint(-2, 2) * w2 + rng.randint(-2, 2)

    for _ in range(8):
        span, vectors = SpanBasis(), []
        for _ in range(rng.randint(2, 5)):
            if vectors and rng.random() < 0.4:
                a, b = rand_entry(), rand_entry()
                vec = [a * x + b * y for x, y in zip(vectors[0], vectors[-1])]
            else:
                vec = [rand_entry() * rand_entry() for _ in range(4)]
            vectors.append(vec)
            span.add(vec)
            assert span.dimension() == sympy_rank(vectors, "w1 w2")
            assert span.contains(vec)


# -- the integer Bareiss rows against the MultiPoly-row elimination ------------

class FractionSpanBasis:
    """The span with MultiPoly rows and Fraction coefficients, as it was
    before rows became integer maps: the oracle for ``SpanBasis``."""

    def __init__(self):
        self.rows, self.pivots = [], []

    def _reduce(self, vec):
        prev = ONE
        for row, pc in zip(self.rows, self.pivots):
            p, f = row[pc], vec[pc]
            vec = [p * a - f * b for a, b in zip(vec, row)]
            if prev != ONE:
                vec = [exact_div(x, prev) for x in vec]
            prev = p
        return vec

    def insert(self, polys, tag):
        vec = self._reduce(list(polys) + list(tag))
        for pc in range(len(polys)):
            if not vec[pc].is_zero():
                self.rows.append(vec)
                self.pivots.append(pc)
                return None
        return vec[len(polys):]

    def contains(self, polys) -> bool:
        return all(x.is_zero() for x in self._reduce(list(polys)))


def proportional(s, t):
    """s = k * t for a nonzero rational k (both nonzero vectors)."""
    return (any(not x.is_zero() for x in s)
            and all(a * d == b * c for a, b in zip(s, t) for c, d in zip(s, t)))


def test_span_matches_fraction_rows_as_variables_arrive():
    rng = random.Random(41)
    w1 = MultiPoly.var("w1")
    entry_kinds = [
        lambda: MultiPoly.const(Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 5]))),
        lambda: Fraction(rng.randint(-4, 4), rng.choice([1, 3, 4])) * z
        + Fraction(rng.randint(-3, 3), rng.choice([2, 7])),
        lambda: Fraction(rng.randint(-3, 3), rng.choice([2, 5])) * w1 * z
        + Fraction(rng.randint(-3, 3), rng.choice([1, 3])) * w1
        + Fraction(1, rng.choice([1, 6])),
    ]
    for _ in range(25):
        n, size = rng.randint(2, 4), rng.randint(4, 12)
        plain, plain_oracle = SpanBasis(), FractionSpanBasis()
        tagged, tagged_oracle = SpanBasis(), FractionSpanBasis()
        vectors = []
        # constant vectors first, then vectors in z, then vectors in w1 and z
        for k in range(size):
            kind = entry_kinds[3 * k // size]
            if vectors and rng.random() < 0.35:
                a, b = rng.choice(vectors), rng.choice(vectors)
                vec = [kind() * x + Fraction(rng.randint(-2, 2), 3) * y for x, y in zip(a, b)]
            else:
                vec = [kind() if rng.random() < 0.8 else ZERO for _ in range(n)]
            assert plain.contains(vec) == plain_oracle.contains(vec)
            assert plain.add(vec) == (plain_oracle.insert(vec, ()) is None)
            assert plain.dimension() == len(plain_oracle.rows)
            assert plain.contains(vec) and plain_oracle.contains(vec)
            vectors.append(vec)
            tag = [ONE if j == k else ZERO for j in range(size)]
            got, want = tagged.insert(vec, tag), tagged_oracle.insert(vec, tag)
            assert (got is None) == (want is None)
            if got is not None:
                assert all(parse_poly(str(x)) == x for x in got)   # well-formed
                assert proportional(got, want) and not got[k].is_zero()
                assert all(sum((t * x[i] for t, x in zip(got, vectors)), ZERO).is_zero()
                           for i in range(n))
        assert plain.dimension() == sympy_rank(vectors, "w1 z")
