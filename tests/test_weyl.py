import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from azumaya import weyl
from azumaya.errors import (DegenerateError, ModeMismatchError,
                            ZeroElementError)
from azumaya.poly import MultiPoly, _join, _ratio_str
from azumaya.suites import rand_position_poly, rand_weyl
from azumaya.weyl import (FORMAL, WeylElement, act_on_polynomial, fourier,
                          parse_weyl, position_vars, reduce_to_scalar,
                          specialize_lambda, weyl_mul)
from test_poly import PRINT_COEFFS, assert_canonical, fraction_str

x = WeylElement.x(0, 1)
d = WeylElement.d(0, 1)


def assert_weyl_canonical(e):
    """What every WeylElement holds, however it was built: one canonical
    symbol in the position and momentum names of its rank (and ``lam`` in
    formal mode only), which its terms rebuild."""
    assert_canonical(e.symbol)
    xs = position_vars(e.n)
    allowed = set(xs) | {"d" + v[1:] for v in xs} | ({"lam"} if e.lam == FORMAL else set())
    assert set(e.symbol.vars) <= allowed
    again = WeylElement(e.n, e.lam, e.terms)
    assert again == e and hash(again) == hash(e)


def test_commutation_relation():
    assert str(weyl_mul(d, x)) == "x*d + lam"


def test_already_normal_ordered():
    assert str(weyl_mul(x, d)) == "x*d"


def test_second_order_reordering():
    # oracle: act both sides on x^k for k <= 4 at lam = 1
    x1, d1 = WeylElement.x(0, 1, 1), WeylElement.d(0, 1, 1)
    lhs = weyl_mul(weyl_mul(d1, d1), weyl_mul(x1, x1))
    assert str(lhs) == "x^2*d^2 + 4*x*d + 2"
    xv = MultiPoly.var("x")
    for k in range(5):
        expected = act_on_polynomial(d1, act_on_polynomial(
            d1, act_on_polynomial(x1, act_on_polynomial(x1, xv ** k))))
        assert act_on_polynomial(lhs, xv ** k) == expected


def test_mode_mismatch():
    with pytest.raises(ModeMismatchError):
        weyl_mul(x, WeylElement.x(0, 1, 1))
    with pytest.raises(ModeMismatchError):
        weyl_mul(x, WeylElement.x(0, 2))


def test_action_examples():
    d1 = WeylElement.d(0, 1, 1)
    xv = MultiPoly.var("x")
    assert act_on_polynomial(d1, xv ** 3) == 3 * xv ** 2
    x1 = WeylElement.x(0, 1, 1)
    f = xv ** 2 - 5
    assert act_on_polynomial(x1, f) == xv * f
    xd = weyl_mul(x1, d1)
    assert act_on_polynomial(xd, xv ** 2 + 1) == 2 * xv ** 2


def test_action_at_general_lambda():
    # d acts as lam * d/dx
    d2 = WeylElement.d(0, 1, Fraction(3))
    xv = MultiPoly.var("x")
    assert act_on_polynomial(d2, xv ** 2) == 6 * xv


def test_action_requires_fixed_mode():
    with pytest.raises(ModeMismatchError):
        act_on_polynomial(d, MultiPoly.var("x"))


def test_action_is_module_action_random():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.choice([1, 2])
        lam = Fraction(rng.choice([1, 2, -1]))
        d1, d2 = rand_weyl(rng, n, lam), rand_weyl(rng, n, lam)
        f = rand_position_poly(rng, n)
        assert act_on_polynomial(weyl_mul(d1, d2), f) == \
            act_on_polynomial(d1, act_on_polynomial(d2, f))


def test_associativity_random():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.choice([1, 2])
        a, b, c = (rand_weyl(rng, n) for _ in range(3))
        assert weyl_mul(weyl_mul(a, b), c) == weyl_mul(a, weyl_mul(b, c))


def test_fourier_generators():
    assert str(fourier(x)) == "d"
    assert str(fourier(d)) == "-x"
    for e in (x, d):
        assert_weyl_canonical(fourier(e))


def test_fourier_order_four():
    e = weyl_mul(x, d)
    out = e
    for _ in range(4):
        out = fourier(out)
        assert_weyl_canonical(out)
    assert out == e


def test_fourier_multiplicative_random():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.choice([1, 2])
        a, b = rand_weyl(rng, n), rand_weyl(rng, n)
        assert fourier(weyl_mul(a, b)) == weyl_mul(fourier(a), fourier(b))
        out = a
        for _ in range(4):
            out = fourier(out)
            assert_weyl_canonical(out)
        assert out == a


def test_specialize_lambda():
    p = weyl_mul(d, x)
    assert specialize_lambda(weyl_mul(x, d) + MultiPoly.var("lam"), 0) == \
        WeylElement(1, Fraction(0), {((1,), (1,)): Fraction(1)})
    assert specialize_lambda(p, 0) == specialize_lambda(weyl_mul(x, d), 0)
    assert str(specialize_lambda(p, 1)) == "x*d + 1"
    for c in (0, 1, Fraction(-2, 3)):
        assert_weyl_canonical(specialize_lambda(p, c))


def test_specialize_lambda_matches_coefficientwise_substitution():
    rng = random.Random(59)
    for _ in range(40):
        n = rng.choice([1, 2])
        e = rand_weyl(rng, n, nterms=6, with_lam=True)
        for c in (0, 1, Fraction(-2, 3), 5):
            s = specialize_lambda(e, c)
            assert_weyl_canonical(s)
            assert s == WeylElement(n, c, {k: v.subs({"lam": c}) for k, v in e.terms.items()})


def test_lambda_zero_fiber_commutes_random():
    rng = random.Random(43)
    for _ in range(50):
        n = rng.choice([1, 2])
        a = specialize_lambda(rand_weyl(rng, n, with_lam=True), 0)
        b = specialize_lambda(rand_weyl(rng, n, with_lam=True), 0)
        assert_weyl_canonical(a)
        assert_weyl_canonical(b)
        assert weyl_mul(a, b) == weyl_mul(b, a)


def test_no_lambda_torsion_random():
    rng = random.Random(47)
    lam = MultiPoly.var("lam")
    for _ in range(60):
        n = rng.choice([1, 2])
        dd = rand_weyl(rng, n, with_lam=True)
        c = MultiPoly.zero()
        for k in range(3):
            c = c + Fraction(rng.randint(-2, 2)) * lam ** k
        assert dd.scale(c).is_zero() == (c.is_zero() or dd.is_zero())
        assert_weyl_canonical(dd.scale(c))


def test_reduce_identity():
    cert = reduce_to_scalar(WeylElement.one(1))
    assert cert.steps == () and str(cert.final_scalar) == "1"


def test_reduce_single_position():
    cert = reduce_to_scalar(WeylElement.x(0, 1, 1))
    assert cert.steps == (("d", 0, "left"),)
    assert str(cert.final_scalar) == "1"


def test_reduce_x2d():
    e = weyl_mul(weyl_mul(x, x), d)
    cert = reduce_to_scalar(e)
    assert cert.steps == (("d", 0, "left"), ("d", 0, "left"), ("x", 0, "right"))
    assert str(cert.final_scalar) == "2*lam^3"
    replay = cert.replay(e)
    assert replay.terms == {((0,), (0,)): cert.final_scalar}


def test_reduce_errors():
    with pytest.raises(ZeroElementError):
        reduce_to_scalar(WeylElement.zero(1))
    with pytest.raises(DegenerateError):
        reduce_to_scalar(WeylElement.x(0, 1, 0))


def test_reduce_random_certificates():
    rng = random.Random(53)
    done = 0
    while done < 60:
        n = rng.choice([1, 2])
        e = rand_weyl(rng, n, with_lam=True)
        if e.is_zero():
            continue
        done += 1
        before = e.bidegree()
        cert = reduce_to_scalar(e)
        assert not cert.final_scalar.is_zero()
        assert len(cert.steps) <= before[0] * 3 + before[1] * 3 + 10
        replay = cert.replay(e)
        assert replay.terms == {((0,) * n, (0,) * n): cert.final_scalar}


def test_parse_weyl():
    assert str(parse_weyl("D*x", lam=Fraction(1))) == "x*d + 1"
    assert str(parse_weyl("x^2*d + 1")) == "x^2*d + 1"
    assert str(parse_weyl("x1*d2", n=2)) == "x1*d2"
    assert str(parse_weyl("lam*x - 3")) == "lam*x - 3"
    with pytest.raises(ModeMismatchError):
        parse_weyl("lam*x", lam=Fraction(1))
    with pytest.raises(ValueError):
        parse_weyl("y*x")


def test_generator_index_below_one_is_refused():
    # x0 and d0 used to read as index -1, which built the unit
    for text, n in (("x0*d0", None), ("d0", None), ("X0 + x1", None), ("x00", None),
                    ("x1*d0", 2)):
        with pytest.raises(ValueError, match="index below 1"):
            parse_weyl(text, n=n, lam=Fraction(1))


def test_generator_constructors_refuse_an_index_out_of_range():
    # an index outside 0..n-1 used to build the unit
    for i, n in ((5, 2), (2, 2), (-1, 1), (-1, 3), (0, 0)):
        for make in (WeylElement.x, WeylElement.d):
            with pytest.raises(ValueError, match="outside"):
                make(i, n)
    assert str(WeylElement.x(1, 2)) == "x2" and str(WeylElement.d(0, 2, 1)) == "d1"


@pytest.mark.parametrize("lam", [FORMAL, Fraction(1), Fraction(-2)])
def test_weyl_power(lam):
    xe, de = WeylElement.x(0, 1, lam), WeylElement.d(0, 1, lam)
    e = xe + de * 3
    assert e ** 0 == WeylElement.one(1, lam)
    assert e ** 1 == e
    assert de ** 3 == de * de * de
    assert e ** 2 == weyl_mul(e, e)
    assert e ** 3 == weyl_mul(weyl_mul(e, e), e)


def test_negative_power_is_refused():
    # as for MultiPoly, instead of answering 1
    with pytest.raises(ValueError, match="negative power"):
        x ** -1
    with pytest.raises(ValueError, match="negative power"):
        MultiPoly.var("x") ** -1


def test_position_vars():
    assert position_vars(1) == ("x",)
    assert position_vars(2) == ("x1", "x2")


# -- closed-form reordering vs a step-by-step rewriter ---------------------------

def slow_normal_form(word, n):
    """Independent oracle: exhaustively apply the single swap
    d_i x_j -> x_j d_i + delta_ij lam to a generator word."""
    lam = MultiPoly.var("lam")
    zero = MultiPoly.zero()
    pending = {tuple(word): MultiPoly.const(1)}
    done = {}
    while pending:
        step = {}
        for w, c in pending.items():
            idx = next((k for k in range(len(w) - 1)
                        if w[k][0] == "d" and w[k + 1][0] == "x"), None)
            if idx is None:
                a, b = [0] * n, [0] * n
                for kind, i in w:
                    (a if kind == "x" else b)[i] += 1
                key = (tuple(a), tuple(b))
                done[key] = done.get(key, zero) + c
                continue
            swapped = w[:idx] + (w[idx + 1], w[idx]) + w[idx + 2:]
            step[swapped] = step.get(swapped, zero) + c
            if w[idx][1] == w[idx + 1][1]:
                contracted = w[:idx] + w[idx + 2:]
                step[contracted] = step.get(contracted, zero) + c * lam
        pending = step
    return {k: c for k, c in done.items() if not c.is_zero()}


def test_closed_form_matches_slow_rewriter():
    rng = random.Random(59)
    for _ in range(60):
        n = rng.choice([1, 2])
        word = tuple((rng.choice(["x", "d"]), rng.randrange(n))
                     for _ in range(rng.randint(1, 6)))
        fast = WeylElement.one(n)
        for kind, i in word:
            gen = WeylElement.x(i, n) if kind == "x" else WeylElement.d(i, n)
            fast = weyl_mul(fast, gen)
        assert fast.terms == slow_normal_form(word, n)


def _word(a, b):
    """The generator word x1^a1 ... xn^an d1^b1 ... dn^bn."""
    return (tuple(("x", i) for i, k in enumerate(a) for _ in range(k))
            + tuple(("d", i) for i, k in enumerate(b) for _ in range(k)))


def slow_product(e1, e2, n):
    """e1 * e2 by rewriting the concatenated word of every pair of terms."""
    out = {}
    for (a1, b1), c1 in e1.terms.items():
        for (a2, b2), c2 in e2.terms.items():
            for key, c in slow_normal_form(_word(a1, b1) + _word(a2, b2), n).items():
                out[key] = out.get(key, MultiPoly.zero()) + c1 * c2 * c
    return {k: c for k, c in out.items() if not c.is_zero()}


@pytest.mark.parametrize("lam", [FORMAL, Fraction(0), Fraction(1), Fraction(-1, 2)])
def test_products_match_slow_rewriter(lam):
    rng = random.Random(61)
    for _ in range(40):
        n = rng.choice([1, 2])
        e1, e2 = (rand_weyl(rng, n, bideg=2, with_lam=True) for _ in range(2))
        expected = slow_product(e1, e2, n)
        if lam != FORMAL:
            expected = {k: c.subs({"lam": lam}) for k, c in expected.items()}
            expected = {k: c for k, c in expected.items() if not c.is_zero()}
            e1, e2 = specialize_lambda(e1, lam), specialize_lambda(e2, lam)
        prod = weyl_mul(e1, e2)
        assert prod.terms == expected
        scalar = e2.terms.get(((0,) * n, (0,) * n), MultiPoly.const(3))
        for r in (prod, e1 + e2, e1 - e2, e1 - e1, -e1, e1.scale(scalar)):
            assert_weyl_canonical(r)


def test_scalars_add_and_subtract_on_either_side():
    assert 1 - x == -(x - 1)
    assert str(1 - x) == "-x + 1"
    lam = MultiPoly.var("lam")
    for r in (1 - x, Fraction(1, 2) - d, lam - x, 2 + x, x + lam, x - Fraction(3)):
        assert_weyl_canonical(r)
    assert lam - d == -(d - lam) and Fraction(1, 2) - d == -(d - Fraction(1, 2))
    with pytest.raises(ModeMismatchError):
        lam - WeylElement.x(0, 1, 1)


def test_coefficients_live_in_q_lam():
    key = ((0,), (1,))
    z = MultiPoly.var("z")
    with pytest.raises(ModeMismatchError):
        WeylElement(1, FORMAL, {key: z * MultiPoly.var("lam")})
    with pytest.raises(ModeMismatchError):
        WeylElement(1, Fraction(1), {key: z})
    with pytest.raises(ModeMismatchError):
        WeylElement(1, Fraction(1), {key: MultiPoly.var("lam")})
    with pytest.raises(ModeMismatchError):
        d.scale(z)


# -- parser signs against the rewriter ---------------------------------------------

X, D = ("x", 0), ("d", 0)


@pytest.mark.parametrize("text, words", [
    ("1 - x", [(1, ()), (-1, (X,))]),
    ("-3 - x*d", [(-3, ()), (-1, (X, D))]),
    ("x - 1 + d", [(1, (X,)), (-1, ()), (1, (D,))]),
    ("-(x+d)^2", [(-1, (X, X)), (-1, (X, D)), (-1, (D, X)), (-1, (D, D))]),
    ("x - -d", [(1, (X,)), (1, (D,))]),
    ("- -2/3*d*x - x", [(Fraction(2, 3), (D, X)), (-1, (X,))]),
])
def test_parser_signs_match_slow_rewriter(text, words):
    expected = {}
    for c, word in words:
        for key, v in slow_normal_form(word, 1).items():
            expected[key] = expected.get(key, MultiPoly.zero()) + v * c
    expected = {k: c for k, c in expected.items() if not c.is_zero()}
    assert parse_weyl(text).terms == expected
    for lam in (Fraction(0), Fraction(1), Fraction(-2, 3)):
        assert parse_weyl(text, lam=lam) == specialize_lambda(parse_weyl(text), lam)


# -- the integer product against the Fraction-path code it replaced ---------------

def fraction_weyl_mul(d1, d2):
    """The Fraction-path product: coefficients summed as {lam power: Fraction},
    a fixed lam multiplied in as a Fraction."""
    d1._check_compatible(d2)
    n, lam = d1.n, d1.lam
    formal = lam == FORMAL

    def lam_coeffs(c):
        return {e[0] if e else 0: v for e, v in c.terms.items()}

    left = [(a, b, lam_coeffs(c)) for (a, b), c in d1.terms.items()]
    right = [(a, b, lam_coeffs(c)) for (a, b), c in d2.terms.items()]
    out = {}
    for a1, b1, c1 in left:
        for a2, b2, c2 in right:
            base = {}
            for p1, x1 in c1.items():
                for p2, x2 in c2.items():
                    base[p1 + p2] = base.get(p1 + p2, 0) + x1 * x2
            for ks in product(*[range(min(i, j) + 1) for i, j in zip(b1, a2)]):
                f, tot = 1, 0
                for i, k in enumerate(ks):
                    if k:
                        f *= comb(b1[i], k) * comb(a2[i], k) * factorial(k)
                        tot += k
                if not formal:
                    if tot:
                        f *= lam ** tot
                        if not f:
                            continue
                    tot = 0
                key = (tuple(i + j - k for i, j, k in zip(a1, a2, ks)),
                       tuple(i + j - k for i, j, k in zip(b1, b2, ks)))
                acc = out.setdefault(key, {})
                for p, v in base.items():
                    acc[p + tot] = acc.get(p + tot, 0) + v * f
    return WeylElement(n, lam, {key: MultiPoly(("lam",), {(p,): v for p, v in acc.items()})
                                for key, acc in out.items()})


LAMS = [FORMAL, Fraction(0), Fraction(1), Fraction(-1), Fraction(-2, 3), Fraction(5, 7)]
_LAM = MultiPoly.var("lam")


def weyl_operand(rng, n, lam, xs=None, ds=None):
    """Zero, a scalar, or up to four terms with mixed denominators (and lam
    powers in formal mode).  ``xs`` and ``ds`` list the indices whose
    positions and momenta may occur; all by default."""
    kind = rng.random()
    if kind < 0.1:
        return WeylElement.zero(n, lam)
    if kind < 0.2:
        return WeylElement.scalar(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)), n, lam)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        key = tuple(tuple(rng.randint(0, 3) if allowed is None or i in allowed else 0
                          for i in range(n)) for allowed in (xs, ds))
        c = MultiPoly.const(Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 7])))
        if lam == FORMAL and rng.random() < 0.5:
            c = c * _LAM ** rng.randint(1, 2) + Fraction(rng.randint(-3, 3), rng.choice([1, 5]))
        terms[key] = c
    return WeylElement(n, lam, terms)


def check_weyl_pair(e1, e2):
    fast, slow = weyl_mul(e1, e2), fraction_weyl_mul(e1, e2)
    assert fast.terms == slow.terms and str(fast) == str(slow)
    for r in (e1, e2, fast, slow):
        assert_weyl_canonical(r)
    for c in fast.terms.values():
        assert_canonical(c)


@pytest.mark.parametrize("lam", LAMS)
def test_integer_product_matches_fraction_path_seeded(lam):
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(1, 3)
        e1, e2 = weyl_operand(rng, n, lam), weyl_operand(rng, n, lam)
        check_weyl_pair(e1, e2)
        check_weyl_pair(e2, e1)
        # (u - w)(u + w): the products u*w and w*u cancel down to their commutator
        u, w = weyl_operand(rng, n, lam), weyl_operand(rng, n, lam)
        check_weyl_pair(u - w, u + w)


@st.composite
def weyl_pairs(draw):
    n = draw(st.integers(1, 3))
    lam = draw(st.sampled_from(LAMS))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 12]))
    lam_power = st.integers(0, 2) if lam == FORMAL else st.just(0)

    def operand():
        terms = draw(st.dictionaries(st.tuples(exps, exps),
                                     st.tuples(coeff, lam_power), max_size=4))
        return WeylElement(n, lam, {k: c * _LAM ** p for k, (c, p) in terms.items()})

    return operand(), operand()


@settings(max_examples=200, deadline=None)
@given(weyl_pairs())
def test_integer_product_matches_fraction_path_hypothesis(pair):
    e1, e2 = pair
    check_weyl_pair(e1, e2)
    check_weyl_pair(e2, e1)


# -- commuting factors multiply as polynomials -------------------------------------

def slow_terms(e1, e2):
    """``slow_product`` in the mode of the factors: a fixed lam substituted."""
    out = slow_product(e1, e2, e1.n)
    if e1.lam != FORMAL:
        out = {k: c.subs({"lam": e1.lam}) for k, c in out.items()}
    return {k: c for k, c in out.items() if not c.is_zero()}


def commuting_pair(rng, n, lam):
    """Two operands that commute index by index: the left one carries
    momenta only at the indices in ``meet``, the right one positions only
    elsewhere (none, all, or a disjoint mix such as d1 against x2)."""
    meet = rng.sample(range(n), rng.randint(0, n))
    left = weyl_operand(rng, n, lam, ds=meet)
    right = weyl_operand(rng, n, lam, xs=[i for i in range(n) if i not in meet])
    return left, right


def meeting_pair(rng, n, lam):
    """Two operands where d_i^4 on the left meets x_i^4 on the right."""
    i, zero = rng.randrange(n), (0,) * n
    power = tuple(4 if j == i else 0 for j in range(n))
    return (weyl_operand(rng, n, lam) + WeylElement(n, lam, {(zero, power): 1}),
            weyl_operand(rng, n, lam) + WeylElement(n, lam, {(power, zero): 1}))


@pytest.mark.parametrize("lam", LAMS)
def test_commuting_products_skip_the_reordering(lam, monkeypatch):
    rng = random.Random(89)
    pairs = [commuting_pair(rng, rng.randint(1, 3), lam) for _ in range(60)]
    for n in (1, 2, 3):
        x1, d1 = WeylElement.x(0, n, lam), WeylElement.d(n - 1, n, lam)
        pairs += [(WeylElement.zero(n, lam), d1), (x1, WeylElement.zero(n, lam)),
                  (WeylElement.scalar(Fraction(-2, 3), n, lam), d1 + x1),
                  (d1 + x1, WeylElement.scalar(5, n, lam)), (x1, d1)]
    expected = [(fraction_weyl_mul(e1, e2), slow_terms(e1, e2)) for e1, e2 in pairs]
    meeting = [meeting_pair(rng, rng.randint(1, 3), lam) for _ in range(10)]

    def refuse(*args):
        raise AssertionError("commuting factors were reordered")

    monkeypatch.setattr(weyl, "_contractions", refuse)
    for (e1, e2), (slow, rewritten) in zip(pairs, expected):
        product = weyl_mul(e1, e2)
        assert product == slow and str(product) == str(slow)
        assert product.terms == rewritten
        assert_weyl_canonical(product)
    for e1, e2 in meeting:
        with pytest.raises(AssertionError, match="reordered"):
            weyl_mul(e1, e2)
    monkeypatch.undo()
    for e1, e2 in meeting:
        check_weyl_pair(e1, e2)
        assert weyl_mul(e1, e2).terms == slow_terms(e1, e2)


# -- the memoized contraction tables carry the mode in their key -------------------

def test_contraction_tables_are_keyed_by_the_mode():
    # the same operands at each lam in turn, in one process: a table keyed
    # without p, q or the mode would serve one lam's factors to the next
    # (2/5 after 2/3: the same p and total bound, another q)
    texts = [("d^2 + 3*d*x^2 - x", "x^3*d + 1/2*x^2 - d"), ("d1^3*d2 + x2*d2^2", "x1^2*x2^3 + x1*d1")]
    modes = [Fraction(2, 3), Fraction(-2, 3), Fraction(0), Fraction(1), FORMAL, Fraction(2, 5)]
    pairs = [(parse_weyl(t1, 2, lam), parse_weyl(t2, 2, lam)) for t1, t2 in texts for lam in modes]
    shared = [weyl_mul(e1, e2) for e1, e2 in pairs]
    for (e1, e2), product in zip(pairs, shared):
        weyl._contractions.cache_clear()
        assert product == weyl_mul(e1, e2) == fraction_weyl_mul(e1, e2)
    for cached in (weyl._contractions, weyl._monomial):
        assert isinstance(cached.cache_info().maxsize, int)


# -- printing from integer numerators against the Fraction-per-term renderer -----

def fraction_weyl_str(e):
    """The canonical text rendered from ``terms``, one Fraction per
    coefficient of a single lam power."""
    names = position_vars(e.n) + tuple("d" + v[1:] for v in position_vars(e.n))
    pieces = []
    for (a, b), c in sorted(e.terms.items(), reverse=True,
                            key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0])):
        if len(c.terms) > 1:
            sign, parts = "+", [f"({fraction_str(c)})"]
        else:
            ((k, f),) = c.terms.items()
            k = k[0] if k else 0
            sign = "-" if f < 0 else "+"
            parts = [str(abs(f)) if abs(f) != 1 else "",
                     "lam" if k == 1 else f"lam^{k}" if k else ""]
        parts += [nm if k == 1 else f"{nm}^{k}" for nm, k in zip(names, a + b) if k]
        body = "*".join(p for p in parts if p) or "1"
        pieces.append(("-" if sign == "-" else "") + body if not pieces else f" {sign} {body}")
    return "".join(pieces) or "0"


@st.composite
def weyl_elements(draw):
    """Elements whose formal lam coefficients may have several terms."""
    n = draw(st.integers(1, 3))
    lam = draw(st.sampled_from(LAMS))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    powers = st.integers(0, 2) if lam == FORMAL else st.just(0)
    coeffs = st.dictionaries(powers, PRINT_COEFFS, min_size=1, max_size=3)
    terms = draw(st.dictionaries(st.tuples(exps, exps), coeffs, max_size=4))
    return WeylElement(n, lam, {k: sum((c * _LAM ** p for p, c in cs.items()), MultiPoly.zero())
                                for k, cs in terms.items()})


@settings(max_examples=300, deadline=None)
@given(weyl_elements())
@example(parse_weyl("-(lam - 1/2)*x*d + 2/3*lam^2*x - d + 1"))
@example(parse_weyl("-1/4*x1^2*d2 + x1 - 6", lam=Fraction(5, 7)))
@example(WeylElement.zero(2))
def test_str_matches_fraction_renderer(e):
    assert str(e) == fraction_weyl_str(e)


# -- parse_weyl: the one-pass reader against the general parser -------------------

def parse_outcome(fn, text, n, lam):
    """fn(text, n, lam), or the type and text of the exception it raises."""
    try:
        return fn(text, n, lam)
    except Exception as exc:
        return type(exc), str(exc)


@st.composite
def normal_ordered_texts(draw):
    """(text, n, lam): a sum of normal-ordered terms, or a product of
    parenthesized sums with optional powers, spelled as ``str()`` and the
    benchmark's inputs spell them, with some slack in spacing and ``^1``."""
    n = draw(st.integers(1, 3))
    lam = draw(st.sampled_from([FORMAL, Fraction(0), Fraction(1), Fraction(-2, 3)]))
    xs, ds = weyl._names(n)
    star = draw(st.sampled_from(["*", " * "]))

    def term(first):
        kind = draw(st.sampled_from(["none", "rational", "paren", "bare"]))
        sign = draw(st.sampled_from(["", "-"] if first else [" + ", " - ", "+", "-"]))
        parts = []
        if kind == "rational":
            p, q = draw(st.integers(0, 20)), draw(st.sampled_from([1, 1, 2, 3, 12]))
            parts.append(str(p) if q == 1 else f"{p}/{q}")
        elif kind == "paren":
            sign = sign.replace("-", "+")
            if lam == FORMAL:
                c = sum((f * _LAM ** k for k, f in draw(st.dictionaries(
                    st.integers(0, 2), PRINT_COEFFS, min_size=1, max_size=3)).items()), MultiPoly.zero())
            else:
                c = draw(PRINT_COEFFS)
            parts.append(f"({c})")
        elif kind == "bare":
            sign = sign.replace("-", "+")
            p, q = draw(st.integers(0, 20)), draw(st.sampled_from([1, 1, 2, 3, 12]))
            pad = draw(st.sampled_from(["", " "]))
            parts.append(f"({pad}{draw(st.sampled_from(['', '-', '+', '- ']))}"
                         f"{p if q == 1 else f'{p}/{q}'}{pad})")
        for names in (xs, ds):
            for name in draw(st.lists(st.sampled_from(names), max_size=2)):
                k = draw(st.sampled_from([None, 0, 1, 2, 3]))
                parts.append(name if k is None else f"{name}^{k}")
        if lam == FORMAL and draw(st.booleans()):
            parts.insert(draw(st.integers(int(kind != "none"), len(parts))),
                         draw(st.sampled_from(["lam", "lam^2"])))
        return sign + (star.join(parts) or "1")

    def sum_text():
        return "".join(term(i == 0) for i in range(draw(st.integers(1, 3))))

    if draw(st.booleans()):
        return sum_text(), n, lam
    factors = [f"({sum_text()})" + draw(st.sampled_from(["", "^0", "^1", "^2", " ^ 2"]))
               for _ in range(draw(st.integers(1, 2)))]
    return star.join(factors), n, lam


@settings(max_examples=300, deadline=None)
@given(normal_ordered_texts())
@example(("((3/2)*x1^2*d2^1 + (lam^2 - 1)*x1^1)*((-1)*d1^1 + (2)*x2^1)", 2, FORMAL))
@example(("(lam - 1/2)*x*d + 2/3*lam^2*x - d + 1", 1, FORMAL))
@example(("(x + d)^3", 1, Fraction(1)))
def test_reader_matches_the_general_parser(case):
    text, n, lam = case
    assert weyl._read_normal_ordered(text, n, lam) is not None
    assert parse_weyl(text, n, lam) == weyl._parse_general(text, n, lam)
    # with the rank inferred: the largest index, or 1 for bare x and d
    assert (parse_outcome(parse_weyl, text, None, lam)
            == parse_outcome(weyl._parse_general, text, None, lam))


@pytest.mark.parametrize("text, n, lam, read", [
    ("D*x", None, Fraction(1), False),
    ("x1*d1*x1", None, Fraction(1), False),
    ("x1*d1*x1", 2, Fraction(1), False),
    ("d*x", None, FORMAL, False),
    ("lam*x", None, Fraction(1), False),
    ("(lam + 1)*x", None, Fraction(1), False),
    ("x^0", None, Fraction(1), True),
    ("X1*D2", None, FORMAL, False),
    ("x1*D2", 2, FORMAL, False),
    ("3/0*x", None, FORMAL, False),
    ("(1/0)*x", None, FORMAL, False),
    ("x0*d0", None, Fraction(1), False),
    ("x00", None, FORMAL, False),
    ("x01", None, FORMAL, False),
    ("y", None, FORMAL, False),
    ("d3", 2, FORMAL, False),
    ("x + x2", None, FORMAL, False),
    ("-(x+d)^2", None, FORMAL, False),
    ("-(lam - 1/2)*x*d + 1", None, FORMAL, False),
    ("x - (lam)*d", None, FORMAL, False),
    ("(x + d)*x", None, Fraction(1), False),
    ("(x + d)*", None, Fraction(1), False),
    ("", None, FORMAL, False),
    ("x2*d1 + 1", None, Fraction(-2, 3), True),
    ("(x + d)^2*(x - d)", None, Fraction(1), True),
    ("0", 3, FORMAL, True),
    ("(-1)*x + (3/2)*d", None, Fraction(1), True),
    ("(1.5)*x", None, Fraction(1), False),
    ("(1_000)*x", None, Fraction(1), False),
    ("(3 / 4)*x", None, Fraction(1), False),
    ("(- 1/0)*x", None, FORMAL, False),
    ("(--1)*x", None, FORMAL, True),
])
def test_reader_hands_other_text_to_the_general_parser(text, n, lam, read):
    try:
        taken = weyl._read_normal_ordered(text, n, lam) is not None
    except ValueError:  # from parse_poly on a bad coefficient
        taken = False
    assert taken == read
    assert parse_outcome(parse_weyl, text, n, lam) == parse_outcome(weyl._parse_general, text, n, lam)


@pytest.mark.parametrize("lam", [FORMAL, Fraction(0), Fraction(1), Fraction(-2, 3)])
def test_parse_weyl_round_trips_printed_elements(lam):
    rng = random.Random(11)
    for _ in range(80):
        e = rand_weyl(rng, rng.randint(1, 3), lam, bideg=3, nterms=4, with_lam=True)
        assert weyl._read_normal_ordered(str(e), e.n, e.lam) is not None
        assert parse_weyl(str(e), e.n, e.lam) == e


@settings(max_examples=200, deadline=None)
@given(weyl_elements())
def test_parse_weyl_round_trips_several_term_coefficients(e):
    assert parse_weyl(str(e), e.n, e.lam) == e


def test_rank_ten_text_is_not_the_symbol_text():
    # var_sort_key orders d10 before d2, so the symbol's text cannot stand in
    # for the Weyl text at rank >= 10
    e = parse_weyl("d2*d10 + x2*x10 + d2^2", 10, Fraction(1))
    assert str(e) == "x2*x10 + d2^2 + d2*d10"
    assert str(e.symbol) == "x2*x10 + d10*d2 + d2^2"


# -- printing: the numerator printer against the printer it replaced ---------------

def groups_weyl_str(e):
    """``str(e)`` as it was printed before the numerator printer: a
    coefficient of several lam powers through ``_join`` and
    ``MultiPoly.__str__``, each x^a d^b joined on the spot."""
    names, den = sum(weyl._names(e.n), ()), e.symbol.den
    # each coefficient's numerators over den, by lam power
    groups = {ab: {k or (0,): int(c * den) for k, c in coef.terms.items()}
              for ab, coef in e.terms.items()}
    text = ""
    for (a, b), num in sorted(groups.items(), reverse=True,
                              key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0])):
        if len(num) > 1:
            sign, parts = "+", [f"({_join(('lam',), num, den)})"]
        else:
            ((k,), c), = num.items()
            sign = "-" if c < 0 else "+"
            parts = [_ratio_str(abs(c), den) if abs(c) != den else "",
                     f"lam^{k}" if k > 1 else "lam" if k else ""]
        parts += [f"{nm}^{k}" if k > 1 else nm for nm, k in zip(names, a + b) if k]
        text += f" {sign} {'*'.join(filter(None, parts)) or '1'}"
    return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


@st.composite
def printed_elements(draw):
    """Elements of rank 1, 2, 3, 10 or 11 with a few generators per term,
    coefficients +-1 among them, and in formal mode lam coefficients of up
    to three powers, lam^0 or not; the zero element among them."""
    n = draw(st.sampled_from([1, 2, 3, 10, 11]))
    lam = draw(st.sampled_from([FORMAL, Fraction(0), Fraction(1), Fraction(-2, 3)]))
    exps = st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), max_size=2).map(
        lambda powers: tuple(powers.get(i, 0) for i in range(n)))
    powers = st.integers(0, 3) if lam == FORMAL else st.just(0)
    coeffs = st.dictionaries(powers, PRINT_COEFFS, min_size=1, max_size=3)
    terms = draw(st.dictionaries(st.tuples(exps, exps), coeffs, max_size=5))
    scale = draw(st.sampled_from([1, -1, 6, Fraction(1, 4)]))
    return WeylElement(n, lam, {k: scale * sum((c * _LAM ** p for p, c in cs.items()), MultiPoly.zero())
                                for k, cs in terms.items()})


@settings(max_examples=400, deadline=None)
@given(printed_elements())
@example(WeylElement.zero(10))
@example(WeylElement.zero(2, Fraction(0)))
@example(parse_weyl("(d10 + x10)*(x10 + lam*d2) + d2*d10", 10))
@example(parse_weyl("(lam^2 - lam)*x11*d1 - (2*lam^3 + 1/2)*d11 - lam*d2 + 1", 11))
@example(parse_weyl("-x1*d10 + d2*d10 - 1 + 2/3*x3^2", 10, Fraction(-2, 3)))
def test_str_matches_the_groups_printer(e):
    assert str(e) == groups_weyl_str(e)
    assert parse_weyl(str(e), e.n, e.lam) == e


# -- storage: integer numerators over the fixed layout of the rank -----------------

@st.composite
def stored_pairs(draw):
    """Two (e, flat) of one rank, 1, 2, 3, 10 or 11, and one mode, formal
    or fixed (lam = 0 among them): an element and the flat map over
    (positions, momenta, lam) that the constructor once gave ``MultiPoly``."""
    n = draw(st.sampled_from([1, 2, 3, 10, 11]))
    lam = draw(st.sampled_from([FORMAL, Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(5, 7)]))
    exps = st.dictionaries(st.integers(0, n - 1), st.integers(1, 3), max_size=2).map(
        lambda powers: tuple(powers.get(i, 0) for i in range(n)))
    powers = st.integers(0, 3) if lam == FORMAL else st.just(0)
    coeffs = st.dictionaries(powers, PRINT_COEFFS, min_size=1, max_size=3)

    def stored():
        terms = draw(st.dictionaries(st.tuples(exps, exps), coeffs, max_size=4))
        flat = {a + b + (k,): c for (a, b), cs in terms.items() for k, c in cs.items()}
        return WeylElement(n, lam, {k: sum((c * _LAM ** p for p, c in cs.items()), MultiPoly.zero())
                                    for k, cs in terms.items()}), flat

    return stored(), stored()


def assert_stored(e):
    """Nonzero integer numerators keyed over the whole rank-n layout, coprime
    to one positive denominator, with lam only in formal mode."""
    names, _, _, lpos, _ = weyl._layout(e.n)
    assert all(len(k) == len(names) for k in e.num)
    assert all(type(c) is int and c != 0 for c in e.num.values())
    assert type(e.den) is int and e.den > 0 and gcd(e.den, *e.num.values()) == 1
    assert e.lam == FORMAL or not any(k[lpos] for k in e.num)


@settings(max_examples=300, deadline=None)
@given(stored_pairs())
@example(((WeylElement.zero(10), {}), (WeylElement.zero(10), {})))
@example(((WeylElement(1, 0, {((2,), (1,)): 3}), {(2, 1, 0): 3}),
          (WeylElement(1, 0, {((1,), (2,)): Fraction(1, 3)}), {(1, 2, 0): Fraction(1, 3)})))
def test_stored_symbol_matches_the_old_constructor(pair):
    (e, flat), (w, wflat) = pair
    xs, ds = weyl._names(e.n)
    for u, f in ((e, flat), (w, wflat)):
        assert u.symbol == MultiPoly(xs + ds + ("lam",), f)
        assert_stored(u)
    # one element built by a product, by the constructor and by parse_weyl;
    # the product against the Fraction path at every rank, 10 and 11 too
    assert weyl_mul(e, w) == fraction_weyl_mul(e, w)
    p = weyl_mul(e, w) - w
    assert_stored(p)
    for q in (WeylElement(p.n, p.lam, p.terms), parse_weyl(str(p), p.n, p.lam)):
        assert q == p and hash(q) == hash(p) and q.symbol == p.symbol


def test_sums_products_and_printing_do_not_re_key(monkeypatch):
    # elements are built first; then every helper that moves numerators
    # between layouts refuses to run
    rng = random.Random(97)
    cases = [(weyl_operand(rng, n, lam), weyl_operand(rng, n, lam))
             for n in (1, 2, 3) for lam in LAMS for _ in range(5)]
    cases.append((parse_weyl("(d10 + x10)*(x10 + lam*d2) + d2*d10", 10),
                  parse_weyl("x2*d10 - 1/2*lam", 10)))
    expected = [(weyl_mul(u, w), u + w, u - w, -u, str(u), u.bidegree()) for u, w in cases]

    def refuse(*args):
        raise AssertionError("numerators were re-keyed")

    for name in ("_relayout", "_join"):
        monkeypatch.setattr(weyl, name, refuse)
    for (u, w), want in zip(cases, expected):
        assert (weyl_mul(u, w), u + w, u - w, -u, str(u), u.bidegree()) == want
        assert str(weyl_mul(u, w)) == str(want[0]) and u.commutator(w) == want[0] - weyl_mul(w, u)


# -- action, certificates and specialization on the numerators ---------------------

def sympy_polynomial(names, terms):
    """sum c * prod names^e over ``terms`` {e: c} as a sympy expression."""
    gens = [sympy.Symbol(v) for v in names]
    return sum((sympy.Rational(c.numerator, c.denominator)
                * sympy.Mul(*(v ** k for v, k in zip(gens, e))) for e, c in terms.items()),
               sympy.Integer(0))


def sympy_action(n, lam, terms, f):
    """c x^a d^b acting on the sympy polynomial ``f``: lam * d/dx_i applied
    b_i times by ``sympy.diff``, then times x^a."""
    gens = [sympy.Symbol(v) for v in position_vars(n)]
    out = sympy.Integer(0)
    for (a, b), c in terms.items():
        g = f
        for v, k in zip(gens, b):
            for _ in range(k):
                g = sympy.Rational(lam.numerator, lam.denominator) * sympy.diff(g, v)
        out += sympy.Rational(c.numerator, c.denominator) * sympy.Mul(
            *(v ** k for v, k in zip(gens, a))) * g
    return sympy.expand(out)


@st.composite
def actions(draw):
    """(n, lam, terms, f): up to four terms c x^a d^b of rank 1 or 2 whose
    momentum exponents reach 4, above f's degree 2 in each position, and
    f's terms {g: h}."""
    n = draw(st.sampled_from([1, 2]))
    lam = draw(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                                Fraction(-2, 3), Fraction(3, 2)]))
    coeff = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 7]))
    positions, momenta = st.tuples(*[st.integers(0, 2)] * n), st.tuples(*[st.integers(0, 4)] * n)
    terms = draw(st.dictionaries(st.tuples(positions, momenta), coeff, max_size=4))
    return n, lam, terms, draw(st.dictionaries(positions, coeff, max_size=4))


@settings(max_examples=200, deadline=None)
@given(actions())
@example((1, Fraction(3, 2), {((1,), (3,)): Fraction(1)}, {(2,): Fraction(1)}))
@example((2, Fraction(-2, 3), {((0, 1), (1, 3)): Fraction(2), ((0, 0), (0, 0)): Fraction(1)},
          {(1, 2): Fraction(5, 3), (2, 0): Fraction(-1)}))
@example((2, Fraction(0), {((1, 0), (0, 1)): Fraction(3), ((0, 2), (0, 0)): Fraction(1)},
          {(0, 1): Fraction(1)}))
def test_action_matches_sympy(case):
    n, lam, terms, fterms = case
    xs = position_vars(n)
    f = MultiPoly(xs, fterms)
    got = act_on_polynomial(WeylElement(n, lam, terms), f)
    assert_canonical(got)
    assert set(got.vars) <= set(xs)
    want = sympy_action(n, lam, terms, sympy_polynomial(xs, fterms))
    assert sympy.expand(sympy_polynomial(got.vars, got.terms) - want) == 0
    with pytest.raises(ModeMismatchError):
        act_on_polynomial(WeylElement(n, FORMAL, terms), f)


def reference_reduction(e):
    """(steps, scalar) of the walk ``reduce_to_scalar`` takes, by
    ``WeylElement.commutator`` with the generators."""
    steps, cur = [], e
    for i in range(e.n):
        while any(a[i] for a, _ in cur.terms):
            cur = WeylElement.d(i, e.n, e.lam).commutator(cur)
            steps.append(("d", i, "left"))
    for i in range(e.n):
        while any(b[i] for _, b in cur.terms):
            cur = cur.commutator(WeylElement.x(i, e.n, e.lam))
            steps.append(("x", i, "right"))
    return tuple(steps), cur.symbol


@pytest.mark.parametrize("lam", [FORMAL, Fraction(1), Fraction(-1), Fraction(2, 3),
                                 Fraction(-3, 2)])
def test_reduce_certificates_match_the_commutator_walk(lam, monkeypatch):
    rng = random.Random(61)
    elements = []
    while len(elements) < 40:
        e = weyl_operand(rng, rng.choice([1, 2]), lam)
        if not e.is_zero():
            elements.append(e)
    expected = [reference_reduction(e) for e in elements]
    for e, (steps, scalar) in zip(elements, expected):
        cert = reduce_to_scalar(e)
        assert (cert.steps, cert.final_scalar) == (steps, scalar)
        assert_canonical(cert.final_scalar)
        assert cert.replay(e).terms == {((0,) * e.n, (0,) * e.n): scalar}

    def refuse(*args):
        raise AssertionError("the certificate multiplied")

    # the certificate costs no products; replay keeps them as its check
    monkeypatch.setattr(weyl, "weyl_mul", refuse)
    for e, (steps, scalar) in zip(elements, expected):
        cert = reduce_to_scalar(e)
        assert (cert.steps, cert.final_scalar) == (steps, scalar)
    with pytest.raises(AssertionError, match="multiplied"):
        cert.replay(elements[-1])


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3),
                               Fraction(-5, 2)])
def test_specialize_lambda_is_the_coefficient_sum_and_a_homomorphism(c):
    rng = random.Random(67)
    for _ in range(40):
        n = rng.choice([1, 2])
        a, b = weyl_operand(rng, n, FORMAL), weyl_operand(rng, n, FORMAL)
        s = specialize_lambda(a, c)
        assert s.lam == c
        assert_stored(s)
        assert s.symbol == sum((coef * c ** k for k, coef in
                                enumerate(a.symbol.coefficients_in("lam"))), MultiPoly.zero())
        assert specialize_lambda(weyl_mul(a, b), c) == \
            weyl_mul(s, specialize_lambda(b, c))
