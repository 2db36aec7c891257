import math
import random
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from azumaya import poly
from azumaya.linalg import _gcd_in
from azumaya.poly import (MultiPoly, _const, _Parser, _ratio_str, _tokenize, exact_div, parse_poly,
                         poly_content, var_sort_key)


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
    w1 = MultiPoly.var("w1")
    # the integer content 6 of 6*z - 12 divides no coefficient of the numerator
    assert exact_div(z - 2, 6 * z - 12) == Fraction(1, 6)
    assert exact_div((z - 2) * (w1 + 1), Fraction(4, 3) * z - Fraction(8, 3)) \
        == Fraction(3, 4) * (w1 + 1)
    assert exact_div(-2 * z ** 2 + 2, -4 * z - 4) == Fraction(1, 2) * (z - 1)
    # a primitive divisor whose leading coefficient is not a unit
    for p in (z ** 2 + 1, 3 * z ** 2 + z, 3 * z ** 2 * w1 + z * w1):
        with pytest.raises(ArithmeticError):
            exact_div(p, 2 * z + 2)
        with pytest.raises(ArithmeticError):
            exact_div(p, 2 * z + 1)


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
    for text in ("1/0", "3/0*z", "z + 0/0"):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_poly(text)
    assert parse_poly("0/5*z + 2/4") == Fraction(1, 2)
    # numbers are ASCII digits only, as in every other literal azk reads
    for text, rest in (("\u0663*x", "\u0663*x"), ("x^\u0663", "\u0663"), ("(\u0663)*x", "\u0663)*x")):
        with pytest.raises(ValueError) as exc:
            parse_poly(text)
        assert str(exc.value) == f"bad token at {rest!r}"


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
    """What every MultiPoly holds, however it was built: nonzero integer
    numerators over one positive denominator, coprime to them all, and the
    variables that occur, sorted."""
    assert r == MultiPoly(r.vars, r.terms)
    assert hash(r) == hash(MultiPoly(r.vars, r.terms))
    assert list(r.vars) == sorted(r.vars, key=var_sort_key)
    assert all(any(e[i] for e in r.num) for i in range(len(r.vars)))
    assert all(len(e) == len(r.vars) for e in r.num)
    assert all(type(c) is int and c != 0 for c in r.num.values())
    assert type(r.den) is int and r.den > 0
    assert math.gcd(r.den, *r.num.values()) == 1
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
                   a.derivative(name), b.derivative(name), a.subs({name: value}),
                   *a.coefficients_in(name), *b.coefficients_in(name)]
        for r in results:
            assert_canonical(r)


def test_gcd_in_shared_linear_factor():
    p = (z - 1) * (z - 2)
    q = (z - 1) * (z + 3)
    assert _gcd_in([p, q], "z") == z - 1


# -- the integer kernel against the Fraction-path code it replaced -------------

def _aligned(a: MultiPoly, b: MultiPoly):
    merged = tuple(sorted(set(a.vars) | set(b.vars), key=var_sort_key))

    def remap(p):
        pos = [merged.index(v) for v in p.vars]
        out = {}
        for e, c in p.terms.items():
            full = [0] * len(merged)
            for i, k in zip(pos, e):
                full[i] = k
            out[tuple(full)] = c
        return out

    return merged, remap(a), remap(b)


def fraction_mul(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """The Fraction-path product: every coefficient product a Fraction."""
    merged, x, y = _aligned(a, b)
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return MultiPoly(merged, out)


def heap_exact_div(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """The Fraction-path exact division by leading terms, on a heap."""
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    names, rem, div = _aligned(p, d)
    lead = max(div, key=MultiPoly._term_sort_key)
    lead_c = div[lead]
    tail = [(e, c) for e, c in div.items() if e != lead]
    heap = [(-sum(e), tuple(-k for k in e)) for e in rem]
    heapify(heap)
    quo = {}
    while heap:
        _, neg_e = heappop(heap)
        e = tuple(-k for k in neg_e)
        c = rem.pop(e, None)
        if c is None:
            continue
        q = tuple(a - b for a, b in zip(e, lead))
        if min(q, default=0) < 0:
            raise ArithmeticError("inexact polynomial division")
        c = c / lead_c
        quo[q] = c
        for e2, c2 in tail:
            m = tuple(a + b for a, b in zip(q, e2))
            x = rem.get(m)
            if x is None:
                rem[m] = -c * c2
                heappush(heap, (-sum(m), tuple(-k for k in m)))
            elif x == c * c2:
                del rem[m]
            else:
                rem[m] = x - c * c2
    return MultiPoly(names, quo)


def outcome(fn, *args):
    """The value, or the exact type of the exception, that fn(*args) gives."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc)


KERNEL_NAMES = ("x1", "w1", "w2", "z", "v", "lam")


def kernel_operand(rng, names):
    """A random operand: zero, a constant, or a polynomial with mixed
    denominators and a sign drawn per term, times an integer content."""
    kind = rng.random()
    if kind < 0.1:
        return MultiPoly.zero()
    if kind < 0.2:
        return MultiPoly.const(Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4)))
    terms = {tuple(rng.randint(0, 3) for _ in names):
             Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 7]))
             for _ in range(rng.randint(1, 5))}
    return MultiPoly(names, terms) * rng.choice([1, 1, -1, 2, -6, Fraction(4, 9)])


def check_kernel_pair(a: MultiPoly, b: MultiPoly):
    product = a * b
    assert product == fraction_mul(a, b) and str(product) == str(fraction_mul(a, b))
    assert_canonical(product)
    assert outcome(exact_div, a, b) == outcome(heap_exact_div, a, b)
    if not b.is_zero():
        quotient = exact_div(product, b)
        assert quotient == heap_exact_div(product, b) == a
        assert_canonical(quotient)
    if not b.is_const():
        # remainders that b does not divide: a constant, and b's own leading
        # monomial, which passes every monomial test
        lead = MultiPoly(b.vars, {max(b.terms, key=MultiPoly._term_sort_key): 1})
        for rest in (1, lead) if len(b.terms) > 1 else (1,):
            assert outcome(exact_div, product + rest, b) is ArithmeticError
            assert outcome(heap_exact_div, product + rest, b) is ArithmeticError


def test_kernel_matches_fraction_path_seeded():
    rng = random.Random(71)
    for _ in range(600):
        names = tuple(rng.sample(KERNEL_NAMES, rng.randint(1, 4)))
        # the second operand over the same, an overlapping or a disjoint set
        others = [n for n in KERNEL_NAMES if n not in names]
        b_names = rng.choice([names, tuple(rng.sample(KERNEL_NAMES, rng.randint(1, 4))),
                              tuple(others[:rng.randint(1, len(others))]) or names])
        a, b = kernel_operand(rng, names), kernel_operand(rng, b_names)
        check_kernel_pair(a, b)
        check_kernel_pair(b, a)


@st.composite
def kernel_polys(draw, names):
    if draw(st.integers(0, 9)) == 0:
        return MultiPoly.const(draw(st.integers(-3, 3)))
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    coeffs = st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 5, 12]))
    return MultiPoly(names, draw(st.dictionaries(exps, coeffs, max_size=5)))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.lists(st.sampled_from(KERNEL_NAMES), min_size=1, max_size=4, unique=True),
       st.lists(st.sampled_from(KERNEL_NAMES), min_size=1, max_size=4, unique=True),
       st.sampled_from([1, -1, 3, -12, Fraction(5, 2)]))
def test_kernel_matches_fraction_path_hypothesis(data, a_names, b_names, content):
    a = data.draw(kernel_polys(tuple(a_names)))
    b = data.draw(kernel_polys(tuple(b_names))) * content
    check_kernel_pair(a, b)
    check_kernel_pair(b, a)


def test_constant_factor_products_match_fraction_path():
    # 0, 1, -1 and a Fraction, as an int, a Fraction or a MultiPoly, on either side
    rng = random.Random(73)
    for _ in range(200):
        p = kernel_operand(rng, tuple(rng.sample(KERNEL_NAMES, rng.randint(1, 3))))
        for c in (0, 1, -1, Fraction(5, 3)):
            expected = fraction_mul(p, MultiPoly.const(c))
            for k in (c, Fraction(c), MultiPoly.const(c)):
                for product in (p * k, k * p):
                    assert product == expected and str(product) == str(expected)
                    assert_canonical(product)
                    if c == 0:
                        assert product.vars == () and product.is_zero()
        # a factor 1 hands back the other factor itself
        assert p * 1 is p
        if p.vars:
            assert MultiPoly.const(1) * p is p


def fraction_content(*polys) -> Fraction:
    """The rational content taken coefficient by coefficient, as Fractions."""
    num, den = 0, 1
    for p in polys:
        for c in p.terms.values():
            num = math.gcd(num, c.numerator)
            den = math.lcm(den, c.denominator)
    return Fraction(num, den)


def test_poly_content_matches_fraction_path():
    rng = random.Random(79)
    assert poly_content() == poly_content(MultiPoly.zero(), MultiPoly.zero()) == 0
    assert poly_content(z * Fraction(1, 4) + Fraction(3, 2), 6 * v) == Fraction(1, 4)
    assert poly_content(z * Fraction(-2, 3), MultiPoly.const(Fraction(4, 9))) == Fraction(2, 9)
    for _ in range(300):
        polys = [kernel_operand(rng, tuple(rng.sample(KERNEL_NAMES, rng.randint(1, 3))))
                 for _ in range(rng.randint(1, 4))]
        content = poly_content(*polys)
        assert content == fraction_content(*polys) and content >= 0
        assert (content == 0) == all(p.is_zero() for p in polys)


# -- printing from integer numerators against the Fraction-per-term renderer -----

def fraction_str(p: MultiPoly) -> str:
    """The canonical text rendered from one Fraction per term."""
    pieces = []
    for e, c in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        mono = "*".join(name if k == 1 else f"{name}^{k}" for name, k in zip(p.vars, e) if k)
        body = mono if mono and abs(c) == 1 else f"{abs(c)}*{mono}" if mono else str(abs(c))
        sign = "-" if c < 0 else "" if not pieces else "+"
        pieces.append(f"{sign}{body}" if not pieces else f" {sign} {body}")
    return "".join(pieces) or "0"


def test_ratio_str_matches_fraction():
    for c in range(0, 60):
        for d in range(1, 60):
            assert _ratio_str(c, d) == str(Fraction(c, d))
    for c, d in ((2 ** 70 * 3, 2 ** 65 * 9), (10 ** 30, 1), (7, 10 ** 30), (0, 10 ** 30)):
        assert _ratio_str(c, d) == str(Fraction(c, d))


def test_const_is_the_canonical_constant():
    for c in range(-30, 31):
        for d in range(1, 30):
            got, want = _const(c, d), MultiPoly.const(Fraction(c, d))
            assert (got.vars, got.num, got.den) == (want.vars, want.num, want.den)


PRINT_COEFFS = st.one_of(st.sampled_from([1, -1]),
                         st.builds(Fraction, st.integers(-20, 20), st.sampled_from([1, 2, 3, 5, 12])))


@st.composite
def printed_polys(draw):
    names = draw(st.lists(st.sampled_from(KERNEL_NAMES + ("t",)), min_size=1, max_size=3, unique=True))
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    p = MultiPoly(names, draw(st.dictionaries(exps, PRINT_COEFFS, max_size=5)))
    return p * draw(st.sampled_from([1, -1, 6, Fraction(1, 4), Fraction(-5, 6)]))


@settings(max_examples=300, deadline=None)
@given(printed_polys())
@example(MultiPoly(("z",), {(1,): -1, (0,): Fraction(1, 2)}))
@example(MultiPoly(("z", "v"), {(1, 1): Fraction(-3, 4), (0, 1): 1, (0, 0): -1}))
@example(MultiPoly.const(Fraction(-7, 3)))
@example(MultiPoly.zero())
def test_str_matches_fraction_renderer(p):
    assert str(p) == fraction_str(p)


# -- parse_poly: the one-pass reader against the recursive-descent parser -------

def descent_parse(s: str):
    """Reference: the recursive-descent parser alone, on every input."""
    parser = _Parser(_tokenize(s))
    out = parser.parse_expr()
    if parser.i != len(parser.tokens):
        raise ValueError(f"trailing input in {s!r}")
    return out


def parsed(fn, s):
    """The stored form of fn(s), or the text of the ValueError it raises."""
    try:
        p = fn(s)
    except ValueError as exc:
        return str(exc)
    return (p.vars, p.num, p.den)


@settings(max_examples=300, deadline=None)
@given(printed_polys())
@example(MultiPoly(("lam", "m", "v", "w1"), {(1, 1, 0, 2): Fraction(-7, 6), (0, 0, 2, 0): 3}))
def test_reader_round_trips_printed_polynomials(p):
    assert parse_poly(str(p)) == p == descent_parse(str(p))


DESCENT_TEXTS = [
    "+x", "- -x", "x - -y", "x y", "2^3", "x^2^3", "z*2", "x*x", "0*z", "1/0", "3/00", "1/2/3",
    "007", "x\t+\ty", "x\n- 2/4*z ^ 2", "\t-3\n", "w2*w1 + lam*m*v", "x^0 - 1", "", " ",
    "-", "(z+1)*(z-1)", "z^-1", "z^1/2", "2z", "z/2", "1 /2", "0.5", "x\u00a0+ 1",
    # parenthesized coefficients: a rational with its own sign, or a sum
    "(z + 1)*v - (3/2)*z", "(z + 1)*v + (-3/2)*z", "( - 1/2 )*z", "(lam)*m^2 + (-1)",
    "(1/0)*z", "- (z)*v", "(z)^2", "2*(z)", "+ (z)*z", "()*z", "(z +)*v", "(3/00)*z", "((z))*v"]


@pytest.mark.parametrize("text", DESCENT_TEXTS)
def test_reader_agrees_with_the_descent_parser(text):
    assert parsed(parse_poly, text) == parsed(descent_parse, text)


PARSE_PIECES = ["0", "1", "07", "3/4", "/", "/0", "z", "x1", "w2", "lam", "m", "v", "^", "^2",
                "^0", "*", "+", "-", " - ", " + ", " ", "\t", "\n", "\u00a0", "(", ")", ".",
                "\u0663"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(PARSE_PIECES), max_size=10).map("".join)
       .filter(lambda s: not re.search(r"\^\s*[0-9]{2}", s)))
def test_reader_agrees_with_the_descent_parser_on_token_runs(text):
    # runs of tokens, whitespace and stray characters; exponents of one digit
    # keep the powers of parenthesized sums small
    assert parsed(parse_poly, text) == parsed(descent_parse, text)


# -- _tokenize: the token kind from the matched group's number --------------------

def tokenize_by_scanning_groups(s: str):
    """Reference: the tokenizer that scanned every group of _TOKEN for the
    one that matched."""
    tokens, pos = [], 0
    while pos < len(s):
        m = poly._TOKEN.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip():
                raise ValueError(f"bad token at {s[pos:]!r}")
            break
        pos = m.end()
        for kind, val in zip(("num", "name", "pow", "mul", "plus", "minus", "lpar", "rpar"), m.groups()):
            if val is not None:
                tokens.append((kind, val))
                break
    return tokens


def tokens_or_error(fn, s):
    try:
        return fn(s)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("text", DESCENT_TEXTS + [
    "z +", "2 ** z", "3/0*z", "z + 0/0", "0/5*z + 2/4", "-2*z^3 + 1/2", "  ", "x + $",
    "D*x", "x^2*d + 1", "x1*d2", "lam*x - 3", "y*x", "((3/2)*x1^2*d2^1 + (lam)*x1^1)^2"])
def test_tokenize_matches_the_group_scan(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(tokenize_by_scanning_groups, text)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PARSE_PIECES + ["$", "x + $", "A9"]), max_size=12).map("".join))
def test_tokenize_matches_the_group_scan_on_token_runs(text):
    assert tokens_or_error(_tokenize, text) == tokens_or_error(tokenize_by_scanning_groups, text)
