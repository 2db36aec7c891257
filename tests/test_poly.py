import random
from fractions import Fraction

import pytest

from azumaya.poly import (MultiPoly, dense_gcd, exact_div, from_dense, parse_poly,
                          to_dense, var_sort_key)


z = MultiPoly.var("z")
v = MultiPoly.var("v")


def rand_poly(rng, variables, deg=5, nterms=4):
    terms = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, deg) for _ in variables)
        terms[e] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
    return MultiPoly(variables, terms)


def test_difference_of_squares():
    assert (z + 1) * (z - 1) == z ** 2 - 1


def test_additive_identity():
    p = 3 * z ** 2 - v
    assert p + MultiPoly.zero() == p


def test_term_by_term_expansion():
    # frozen from multiplying each term of z^2 + z by each term of v + 1
    assert str((z ** 2 + z) * (v + 1)) == "z^2*v + z^2 + z*v + z"


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        variables = ("z", "v", "lam")[:nvars]
        a, b, c = (rand_poly(rng, variables) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_exact_div_round_trip_multivariate():
    rng = random.Random(43)
    for _ in range(100):
        variables = ("w1", "w2", "z", "v")[:rng.randint(1, 4)]
        a, b = rand_poly(rng, variables, deg=3), rand_poly(rng, variables, deg=3)
        if b.is_zero():
            continue
        assert exact_div(a * b, b) == a
        if not b.is_const():
            with pytest.raises(ArithmeticError):
                exact_div(a * b + 1, b)
    with pytest.raises(ArithmeticError):
        exact_div(parse_poly("w1*w2 + z"), parse_poly("w1 + z"))
    with pytest.raises(ZeroDivisionError):
        exact_div(z, MultiPoly.zero())


def test_canonical_text_contract():
    assert str(Fraction(3, 2) * z ** 2 * v - 1) == "3/2*z^2*v - 1"
    assert str(MultiPoly.zero()) == "0"
    assert str(-z) == "-z"
    assert str(z - v) == "z - v"
    assert str(MultiPoly.const(Fraction(-7, 3))) == "-7/3"
    # graded-lex descending with z before v
    assert str(z ** 2 + z * v + v ** 2) == "z^2 + z*v + v^2"


def test_variable_priority_order():
    x1 = MultiPoly.var("x1")
    w1 = MultiPoly.var("w1")
    lam = MultiPoly.var("lam")
    p = x1 * w1 * z * v * lam
    assert p.vars == ("x1", "w1", "z", "v", "lam")


def test_parser_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        p = rand_poly(rng, ("z", "v"), deg=4)
        assert parse_poly(str(p)) == p


def test_parser_forms():
    assert parse_poly("(z+1)*(z-1)") == z ** 2 - 1
    assert parse_poly("-2*z^3 + 1/2") == -2 * z ** 3 + Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_poly("z +")
    with pytest.raises(ValueError):
        parse_poly("2 ** z")


def test_derivative():
    assert (z ** 3).derivative("z") == 3 * z ** 2
    assert (v ** 2).derivative("z").is_zero()
    assert (z ** 2 * v + z).derivative("z") == 2 * z * v + 1
    rng = random.Random(3)
    for _ in range(50):
        a, b = rand_poly(rng, ("z", "v")), rand_poly(rng, ("z", "v"))
        lhs = (a * b).derivative("z")
        rhs = a.derivative("z") * b + a * b.derivative("z")
        assert lhs == rhs


def test_subs():
    p = z ** 2 * v + z
    assert p.subs({"z": Fraction(2)}) == 4 * v + 2
    assert p.subs({"v": z}) == z ** 3 + z
    assert p.subs({"z": Fraction(0)}).is_zero()


def test_unused_variables_are_dropped():
    p = MultiPoly(("z", "v"), {(2, 0): Fraction(1)})
    assert p.vars == ("z",)
    assert p == z ** 2


def assert_canonical(r):
    """What every MultiPoly holds, however it was built."""
    assert r == MultiPoly(r.vars, r.terms)
    assert list(r.vars) == sorted(r.vars, key=var_sort_key)
    assert all(any(e[i] for e in r.terms) for i in range(len(r.vars)))
    assert all(len(e) == len(r.vars) for e in r.terms)
    assert all(isinstance(c, Fraction) and c != 0 for c in r.terms.values())


def test_arithmetic_results_are_canonical_random():
    rng = random.Random(67)
    names = ("x2", "x1", "w1", "z", "v", "lam", "m", "t")
    for _ in range(300):
        a = rand_poly(rng, tuple(rng.sample(names, rng.randint(1, 3))), deg=3)
        # operands that cancel some, all or none of a's terms, and zero
        dropped = {e: -c for e, c in a.terms.items() if rng.random() < 0.5}
        b = rng.choice([
            rand_poly(rng, tuple(rng.sample(names, rng.randint(1, 3))), deg=3),
            MultiPoly(a.vars, dropped) + rand_poly(rng, a.vars[:1], deg=2),
            MultiPoly(a.vars, dropped),
            -a,
            MultiPoly.zero(),
            MultiPoly.const(rng.randint(-2, 2)),
        ])
        name = rng.choice(names)
        value = rng.choice([Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                            rand_poly(rng, tuple(rng.sample(names, 2)), deg=2)])
        results = [a + b, b + a, a - b, b - a, a - a, a * b, b * a, -a, -b,
                   a ** rng.randint(0, 3), b ** 2, 2 + a, a * 0, 1 - b,
                   a.derivative(name), b.derivative(name), a.subs({name: value})]
        for r in results:
            assert_canonical(r)


def test_dense_round_trip_and_gcd():
    p = (z - 1) * (z - 2)
    q = (z - 1) * (z + 3)
    g = dense_gcd(to_dense(p), to_dense(q))
    assert from_dense(g, "z") == z - 1
