"""The Weyl algebra A_n and its one-parameter deformation family.

An element is stored as its normal-ordered symbol: integer numerators over
one positive denominator, keyed by exponents over ``_layout(n)``, the fixed
sorted names of rank n (positions, ``lam``, momenta), where lam^k x^a d^b
stands for lam^k * x^a d^b with every x_i left of every d_i.  That form is
canonical, so equality, hashing, sums, products and printing read the keys
as they are; ``symbol`` builds the canonical ``MultiPoly`` on demand.  The
product, the action on polynomials, the commutators with a generator (the
closed forms [d_i, P] = lam*dP/dx_i and [P, x_i] = lam*dP/dd_i) and the
specialization of lam work on these numerators too; ``SimplicityCertificate.replay``
keeps the ``weyl_mul`` commutators as the independent oracle of those forms.
The deformation parameter enters through the relation  d_i*x_i = x_i*d_i + lam;
``lam`` is either a genuine polynomial coefficient variable (formal mode) or
a fixed rational.  At lam = 1 this is the classical algebra of polynomial
differential operators; at lam = 0 the commutative fiber.

Convention: in fixed mode the generator d_i acts on polynomials as
lam * d/dx_i, consistently with the family's momentum action.

Canonical text is read and written by ``poly``'s term reader and writer.
``parse_weyl`` adds what is the Weyl algebra's own: a product of
parenthesized sums, each with an optional ``^k``, and the generator order
of normal-ordered text (every x_i left of every d_i).  Such text is read in
one pass, into the numerator map of each factor; any other text goes to the
recursive-descent ``_parse_general``, which also gives every error message.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby
from math import comb, factorial, lcm, perm, prod
from operator import add, itemgetter, sub

from .errors import DegenerateError, ModeMismatchError, ZeroElementError
from .poly import (ONE, ZERO, MultiPoly, _as_fraction, _assemble, _int_addmul, _join, _lead,
                   _monomial_text, _parse, _read_terms, _reduced, _relayout, _term_text, _tokenize,
                   var_sort_key)

FORMAL = "formal"


@lru_cache(maxsize=16)
def _names(n: int):
    """Position and momentum names: ``x``, ``d`` for n = 1, else x1..xn, d1..dn."""
    if n == 1:
        return ("x",), ("d",)
    return tuple(f"x{i + 1}" for i in range(n)), tuple(f"d{i + 1}" for i in range(n))


def position_vars(n: int):
    """Names of the position variables: ``x`` for n = 1, else x1..xn."""
    return _names(n)[0]


@lru_cache(maxsize=16)
def _layout(n: int):
    """The sorted names of rank n with ``lam``, the places in them of the positions
    (0..n-1), the momenta and ``lam`` (n), and the getter of a key's a + b."""
    xs, ds = _names(n)
    names = tuple(sorted(xs + ds + ("lam",), key=var_sort_key))
    xpos, dpos = [names.index(v) for v in xs], [names.index(v) for v in ds]
    return names, xpos, dpos, names.index("lam"), itemgetter(*xpos, *dpos)


class WeylElement:
    """Element of the rank-n Weyl algebra: ``num / den`` over ``_layout(n)``
    (see the module docstring); ``symbol`` builds its MultiPoly on demand.

    The constructor takes ``terms``, a map from (a, b), the exponent tuples
    over positions and momenta, to a coefficient in ``lam`` (a constant in
    fixed mode); the ``terms`` property gives that map back.
    """

    __slots__ = ("n", "lam", "num", "den")

    def __new__(cls, n: int, lam, terms=None):
        lam = _mode(lam)
        xs, ds = _names(n)
        flat = {}
        for (a, b), c in (terms or {}).items():
            for e, v in _coefficient(c, lam).terms.items():
                if len(a) != n or len(b) != n:
                    raise ModeMismatchError("exponent tuple length != n")
                key = tuple(a) + tuple(b) + (e or (0,))
                flat[key] = flat.get(key, 0) + v
        return _lift(MultiPoly(xs + ds + ("lam",), flat), n, lam)

    def __setattr__(self, *_):
        raise AttributeError("WeylElement is immutable")

    @property
    def symbol(self) -> MultiPoly:
        """The normal-ordered symbol as a canonical MultiPoly."""
        return _join(_layout(self.n)[0], self.num, self.den)

    @property
    def terms(self) -> dict:
        """A fresh map from (a, b) to the nonzero coefficient of x^a d^b, a
        MultiPoly in ``lam``."""
        n, get, groups = self.n, _layout(self.n)[4], {}
        for e, c in self.num.items():
            ab = get(e)
            groups.setdefault((ab[:n], ab[n:]), {})[e[n:n + 1]] = c
        return {key: _join(("lam",), num, self.den) for key, num in groups.items()}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int, lam=FORMAL) -> "WeylElement":
        return _lift(ZERO, n, lam)

    @staticmethod
    def one(n: int, lam=FORMAL) -> "WeylElement":
        return _lift(ONE, n, lam)

    @staticmethod
    def scalar(c, n: int, lam=FORMAL) -> "WeylElement":
        return _lift(_coefficient(c, _mode(lam)), n, lam)

    @staticmethod
    def x(i: int, n: int, lam=FORMAL) -> "WeylElement":
        return _lift(MultiPoly.var(_names(n)[0][_index(i, n)]), n, lam)

    @staticmethod
    def d(i: int, n: int, lam=FORMAL) -> "WeylElement":
        return _lift(MultiPoly.var(_names(n)[1][_index(i, n)]), n, lam)

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def _check_compatible(self, other: "WeylElement"):
        if self.n != other.n or self.lam != other.lam:
            raise ModeMismatchError(
                f"rank/mode mismatch: ({self.n}, {self.lam}) vs ({other.n}, {other.lam})")

    def _operand(self, other) -> "WeylElement":
        """``other``, a coefficient or an element of the same rank and mode, as an element."""
        if isinstance(other, (int, Fraction, MultiPoly)):
            return _lift(_coefficient(other, self.lam), self.n, self.lam)
        self._check_compatible(other)
        return other

    def _plus(self, other: "WeylElement", sign: int) -> "WeylElement":
        """self + sign * other."""
        m = lcm(self.den, other.den)
        k, f = m // self.den, sign * (m // other.den)
        out = {e: c * k for e, c in self.num.items()} if k != 1 else dict(self.num)
        for e, c in other.num.items():
            out[e] = out.get(e, 0) + c * f
        return _element(self.n, self.lam, out, m)

    def __add__(self, other):
        return self._plus(self._operand(other), 1)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.n, self.lam, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._plus(self._operand(other), -1)

    def __rsub__(self, other):
        return (-self)._plus(self._operand(other), 1)

    def scale(self, c) -> "WeylElement":
        c = _lift(_coefficient(c, self.lam), self.n, self.lam)
        return _element(self.n, self.lam, _int_addmul({}, self.num, c.num), self.den * c.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self.scale(other)
        return weyl_mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, k: int) -> "WeylElement":
        if k < 0:
            raise ValueError("negative power")
        return reduce(weyl_mul, [self] * k, WeylElement.one(self.n, self.lam))

    def __eq__(self, other):
        return (isinstance(other, WeylElement) and self.n == other.n and self.lam == other.lam
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((self.n, self.lam, self.den, frozenset(self.num.items())))

    def commutator(self, other) -> "WeylElement":
        return weyl_mul(self, other) - weyl_mul(other, self)

    def bidegree(self):
        """(max total x-degree, max total d-degree)."""
        n = self.n
        return (max((sum(e[:n]) for e in self.num), default=0),
                max((sum(e[n + 1:]) for e in self.num), default=0))

    # -- canonical text -----------------------------------------------------

    def __str__(self):
        """Terms by descending total degree, then exponents; a coefficient
        of more than one term in lam is parenthesized, its terms by
        descending power of lam.  Every coefficient is read off the integer
        numerators over the denominator."""
        n, den, get, text = self.n, self.den, _layout(self.n)[4], ""
        rows = sorted([(sum(e) - e[n], get(e), e[n], c) for e, c in self.num.items()], reverse=True)
        for ab, group in groupby(rows, itemgetter(1)):
            group = list(group)
            if len(group) > 1:
                coef = "(" + _lead("".join([_term_text(c, den, _monomial(1, k, ()))
                                            for _, _, k, c in group])) + ")"
                mono = _monomial(n, 0, ab)
                text += f" + {coef}*{mono}" if mono else f" + {coef}"
            else:
                (_, _, k, c), = group
                text += _term_text(c, den, _monomial(n, k, ab))
        return _lead(text) if text else "0"

    def __repr__(self):
        return f"WeylElement({str(self)!r})"


@lru_cache(maxsize=4096)
def _monomial(n: int, k: int, ab: tuple) -> str:
    """The text of lam^k x^a d^b at rank n for ``ab`` = a + b, or of lam^k
    alone for ``ab`` = (); empty for 1."""
    return _monomial_text(sum(_names(n), ("lam",)), (k,) + ab)


def _index(i: int, n: int) -> int:
    """The generator index i, checked to lie in 0..n-1."""
    if not 0 <= i < n:
        raise ValueError(f"generator index {i} is outside 0..{n - 1}")
    return i


def _mode(lam):
    """``FORMAL``, or the fixed lam as a Fraction."""
    return lam if isinstance(lam, Fraction) or lam == FORMAL else _as_fraction(lam)


def _coefficient(c, lam) -> MultiPoly:
    """A coefficient of the mode's ring: Q[lam] when formal, Q when fixed."""
    c = c if isinstance(c, MultiPoly) else MultiPoly.const(c)
    if c.vars and (lam != FORMAL or c.vars != ("lam",)):
        if lam != FORMAL and "lam" in c.vars:
            raise ModeMismatchError("fixed-mode coefficient contains lam")
        raise ModeMismatchError(f"coefficient {c} is not a polynomial in lam")
    return c


def _lift(p: MultiPoly, n: int, lam) -> WeylElement:
    """The element whose symbol is ``p``, a MultiPoly in the names of rank n."""
    return _element(n, _mode(lam), _relayout(p.num, p.vars, _layout(n)[0]), p.den)


def _element(n: int, lam, num: dict, den: int = 1) -> WeylElement:
    """The element ``num / den`` over ``_layout(n)``, normalised (see
    ``poly._reduced``); ``lam`` occurs in formal mode only."""
    self = object.__new__(WeylElement)
    for slot, value in zip(WeylElement.__slots__, (n, lam, *_reduced(num, den))):
        object.__setattr__(self, slot, value)
    return self


def weyl_mul(d1: WeylElement, d2: WeylElement) -> WeylElement:
    """Normal-ordered product.

    Per variable the reordering is the closed form
        d^m x^n = sum_k C(m,k) C(n,k) k! lam^k x^(n-k) d^(m-k),
    which keeps term counts O(min(m,n)) instead of walking single steps.
    When no d_i of the left factor meets an x_i of the right one, the
    numerators multiply as commuting polynomials, in every mode.  Otherwise
    they are summed over the product of the denominators and normalised
    once, at the end.  A fixed lam = p/q enters as the integer weight
    p^t q^(T-t) of a contraction total t, where T bounds every total, so
    the denominator gains q^T and no lam power occurs; at lam = 0 every
    t > 0 term drops.  The contraction tables are memoized across products
    (``_contractions``); each term pair adds its zero-contraction term,
    weighted q^T, directly.
    """
    d1._check_compatible(d2)
    n, lam, num1, num2 = d1.n, d1.lam, d1.num, d2.num
    _, xpos, dpos, lpos, _ = _layout(n)
    deg1, deg2 = list(map(max, zip(*num1))), list(map(max, zip(*num2)))
    meet = [min(deg1[pd], deg2[px]) for px, pd in zip(xpos, dpos)] if num1 and num2 else ()
    if not any(meet):
        return _element(n, lam, _int_addmul({}, num1, num2), d1.den * d2.den)
    pq = None if lam == FORMAL else (lam.numerator, lam.denominator)
    top = sum(meet) if pq and pq[1] != 1 else 0  # q^T is 1 at an integer lam, whatever T is
    weight = pq[1] ** top if pq else 1
    # group the left terms by momenta and the right ones by positions, so
    # each pair of groups is normal-ordered once
    left, right, out = {}, {}, {}
    for e, c in num1.items():
        left.setdefault(e[lpos + 1:], []).append((e, c))
    for e, c in num2.items():
        right.setdefault(e[:lpos], []).append((e, c))
    for b1, lterms in left.items():
        for a2, rterms in right.items():
            moves = _contractions(n, b1, a2, pq, top)
            for e1, c1 in lterms:
                for e2, c2 in rterms:
                    e, c = tuple(map(add, e1, e2)), c1 * c2
                    out[e] = out.get(e, 0) + c * weight
                    for shift, f in moves:
                        m = tuple(map(add, e, shift))
                        out[m] = out.get(m, 0) + c * f
    return _element(n, lam, out, d1.den * d2.den * weight)


@lru_cache(maxsize=4096)
def _contractions(n: int, b: tuple, a: tuple, pq, top: int) -> tuple:
    """The normal ordering of d^b x^a past its zero-contraction term, as
    ((shift, f), ...): one pair for each contraction (k_1..k_n) != 0 with a
    nonzero factor, the shift from x^a d^b over the rank-n layout and the
    integer factor.  ``a`` and ``b`` are the slices of a key before and
    after ``lam``: the positions and the momenta in layout order.  ``pq`` is
    None in formal mode; a fixed lam = p/q, given as (p, q), enters as the
    weight p^t q^(top-t) of the contraction total t <= top.  The key is all
    ints: a Fraction lam hashes and compares in Python."""
    names, xpos, dpos, lpos, _ = _layout(n)
    p, q = pq or (1, 1)
    moves = [([0] * len(names), q ** top)]
    for px, pd, j in zip(xpos, dpos, a):
        i = b[pd - lpos - 1]
        more = []
        for k in range(1, min(i, j) + 1):
            c = comb(i, k) * comb(j, k) * factorial(k) * p ** k
            for shift, f in moves:
                s = shift.copy()
                s[px] -= k
                s[pd] -= k
                s[lpos] += 0 if pq else k
                # f holds q^(top-t) for its total t so far, and t + k <= top
                more.append((s, f * c // q ** k))
        moves += more
    return tuple((tuple(s), f) for s, f in moves[1:] if f)


def act_on_polynomial(d: WeylElement, f: MultiPoly) -> MultiPoly:
    """Action on the polynomial module: x_i multiplies, d_i applies
    lam * d/dx_i.  Only defined in fixed mode.  At lam = p/q the numerator
    term c x^a d^b sends h x^g to c h p^|b| q^(T-|b|) prod_i g_i!/(g_i-b_i)!
    x^(a+g-b) (0 when some g_i < b_i), over d.den f.den q^T for T the
    largest |b|; the terms of one b share the derivative of f."""
    if d.lam == FORMAL:
        raise ModeMismatchError("action requires a fixed lambda")
    n, xs = d.n, position_vars(d.n)
    if not set(f.vars) <= set(xs):
        raise ModeMismatchError(f"polynomial must live in {xs}")
    get, groups = _layout(n)[4], {}
    for e, c in d.num.items():
        ab = get(e)
        groups.setdefault(ab[n:], {})[ab[:n]] = c
    p, q = d.lam.numerator, d.lam.denominator
    top = max(map(sum, groups), default=0)
    g, out = _relayout(f.num, f.vars, xs), {}
    for b, left in groups.items():
        w = p ** sum(b) * q ** (top - sum(b))
        deriv = {}
        for e, h in g.items():
            k = prod(map(perm, e, b)) * w  # 0 when some e_i < b_i
            if k:
                deriv[tuple(map(sub, e, b))] = h * k
        _int_addmul(out, left, deriv)
    return _join(xs, out, d.den * f.den * q ** top)


def fourier(d: WeylElement) -> WeylElement:
    """Algebra automorphism generated by x_i -> d_i, d_i -> -x_i,
    re-normal-ordered.  Has order four.  lam^k x^a d^b goes to d^a times
    (-1)^|b| lam^k x^b; the second factors of one d^a are summed first."""
    n, lam = d.n, d.lam
    _, xpos, dpos, lpos, _ = _layout(n)
    groups = {}
    for e, c in d.num.items():
        left, right = [0] * len(e), [0] * len(e)
        for px, pd in zip(xpos, dpos):
            left[pd], right[px] = e[px], e[pd]
        right[lpos] = e[lpos]
        groups.setdefault(tuple(left), {})[tuple(right)] = c * (-1) ** sum(e[lpos + 1:])
    return sum((weyl_mul(_element(n, lam, {left: 1}), _element(n, lam, right, d.den))
                for left, right in groups.items()), WeylElement.zero(n, lam))


def specialize_lambda(d: WeylElement, c) -> WeylElement:
    """Pass from the formal family to the fiber lam = c.  On the integer
    numerators, at c = p/q: lam^k x^a d^b with numerator v goes to x^a d^b
    with v p^k q^(K-k) over den q^K, where K is the largest k."""
    if d.lam != FORMAL:
        raise ModeMismatchError("element is already specialized")
    c = _as_fraction(c)
    n, p, q = d.n, c.numerator, c.denominator
    top = max((e[n] for e in d.num), default=0)
    weights = [p ** k * q ** (top - k) for k in range(top + 1)]
    out = {}
    for e, v in d.num.items():
        key = e[:n] + (0,) + e[n + 1:]
        out[key] = out.get(key, 0) + v * weights[e[n]]
    return _element(n, c, out, d.den * q ** top)


@dataclass(frozen=True)
class SimplicityCertificate:
    """Sequence of commutator moves reducing an element to a nonzero scalar.

    Each step is (kind, index, side): kind 'd' with side 'left' applies
    [d_i, -], kind 'x' with side 'right' applies [-, x_i].  Replaying the
    steps on the input element must reproduce ``final_scalar`` exactly.
    ``replay`` forms each commutator from two ``weyl_mul`` products, on
    purpose: it checks ``reduce_to_scalar``'s closed forms independently.
    """

    steps: tuple
    final_scalar: MultiPoly

    def replay(self, d: WeylElement) -> WeylElement:
        cur = d
        for kind, i, side in self.steps:
            gen = WeylElement.d(i, d.n, d.lam) if kind == "d" else WeylElement.x(i, d.n, d.lam)
            cur = gen.commutator(cur) if side == "left" else cur.commutator(gen)
        return cur


def reduce_to_scalar(d: WeylElement) -> SimplicityCertificate:
    """Constructive simplicity witness: iterated commutators with the
    generators strictly lower the bidegree until a nonzero scalar remains.

    Commuting with d_i trims the x_i-degree (scaled by lam), commuting with
    x_i trims the d_i-degree; the lowest-index variable with positive degree
    is processed first, so the walk is deterministic.  Each commutator is a
    closed form on the numerators, [d_i, P] = lam dP/dx_i and [P, x_i] =
    lam dP/dd_i: formal mode adds 1 to the lam exponent, lam = p/q scales by p/q.
    """
    if d.is_zero():
        raise ZeroElementError("cannot certify the zero element")
    if d.lam != FORMAL and d.lam == 0:
        raise DegenerateError("the commutative fiber (lam = 0) is not simple")
    n, num, den, steps = d.n, d.num, d.den, []
    names, xpos, dpos, lpos, _ = _layout(n)
    p, q, up = (1, 1, 1) if d.lam == FORMAL else (d.lam.numerator, d.lam.denominator, 0)
    for kind, side, places in (("d", "left", xpos), ("x", "right", dpos)):
        for i, at in enumerate(places):
            shift = [0] * len(names)
            shift[at], shift[lpos] = -1, up
            while any(e[at] for e in num):
                num = {tuple(map(add, e, shift)): c * e[at] * p for e, c in num.items() if e[at]}
                den *= q
                steps.append((kind, i, side))
    return SimplicityCertificate(tuple(steps), _join(names, num, den))


# ---------------------------------------------------------------------------
# parsing of Weyl expressions (CLI surface)
# ---------------------------------------------------------------------------

def parse_weyl(s: str, n: int = None, lam=FORMAL) -> WeylElement:
    """Parse expressions like ``D*x``, ``x^2*d + 1``, ``lam*x1*d2``.

    Generator names: x / d (rank 1) or x1..xn / d1..dn; capital D accepted.
    The rank is inferred from the largest index unless given.

    Normal-ordered text (see ``_read_normal_ordered``) is read straight
    into the numerator map of each factor, and only the factors of a product or a
    power are multiplied; any other text goes to ``_parse_general``.
    """
    try:
        factors = _read_normal_ordered(s, n, _mode(lam))
    except ValueError:
        factors = None  # a number too long for int(), a bad coefficient: reported below
    if factors is None:
        return _parse_general(s, n, lam)
    return reduce(weyl_mul, (e if k == 1 else e ** k for e, k in factors))


# a parenthesized sum, whose coefficients may be parenthesized, and its power
_FACTOR = re.compile(r"\s*\(((?:[^()]|\([^()]*\))*)\)\s*(?:\^\s*([0-9]+)\s*)?")
_PRODUCT = re.compile(rf"(?:{_FACTOR.pattern}\*)*{_FACTOR.pattern}")


def _rank(names) -> int:
    """The rank ``names`` imply: the largest i of a generator x<i> or d<i>
    among them, and at least 1."""
    return max([1] + [int(v[1:]) for v in names if v[0] in "xd" and v[1:].isdigit()])


def implied_rank(s: str, tokens=None) -> int:
    """The rank ``parse_weyl`` infers for ``s`` when none is given: the
    largest i of a generator x<i> or d<i> in either case, and at least 1.
    ``tokens`` is ``_tokenize(s)`` when the caller has it already.  Raises
    ValueError on text that does not tokenize."""
    tokens = _tokenize(s) if tokens is None else tokens
    return _rank({val.lower() for kind, val in tokens if kind == "name"})


def _read_normal_ordered(s: str, n, lam):
    """[(element, k), ...] for the factors of normal-ordered text, or None.

    The text is one sum, or a product of parenthesized sums joined by ``*``,
    each with an optional ``^k``.  A sum is canonical sum text (see
    ``poly._read_terms``) whose coefficients are in Q[lam] and whose terms
    write ``lam^k`` and generator powers, every x_i left of every d_i.
    Other text, a generator outside ``_names(rank)`` and ``lam`` in fixed
    mode give None.
    """
    factors = []
    for text, k in _FACTOR.findall(s) if _PRODUCT.fullmatch(s) else [(s, "")]:
        terms = _read_terms(text)
        if terms is None:
            return None
        factors.append((terms, int(k or 1)))
    names = {v for terms, _ in factors for _, _, powers in terms for v, _ in powers}
    rank = n or _rank(names)
    scalars = {"lam"} if lam == FORMAL else set()
    if not names <= scalars.union(*_names(rank)):
        return None
    for terms, _ in factors:
        for c, _, powers in terms:
            if type(c) is not int and not scalars.issuperset(c.vars):
                return None
            momentum = False
            for v, _ in powers:
                if momentum and v[0] == "x":
                    return None
                momentum = momentum or v[0] == "d"
    layout = _layout(rank)[0]
    return [(_element(rank, lam, *_assemble(terms, layout)), k) for terms, k in factors]


def _parse_general(s: str, n: int = None, lam=FORMAL) -> WeylElement:
    """``parse_weyl`` by recursive descent: products, powers, parentheses,
    any order of generators, and every error message.  The text is
    tokenized once, for the rank and for the parser."""
    tokens = _tokenize(s)
    rank = n or implied_rank(s, tokens)

    def hook(name: str) -> WeylElement:
        key = name.lower()
        if key == "lam":
            if lam != FORMAL:
                raise ModeMismatchError("lam is not a symbol in fixed mode")
            return WeylElement.scalar(MultiPoly.var("lam"), rank, lam)
        base = key.rstrip("0123456789")
        if base in ("x", "d"):
            idx = int(key[len(base):]) - 1 if key != base else 0
            if idx < 0:
                raise ValueError(f"generator {name} has index below 1")
            if idx >= rank:
                raise ModeMismatchError(f"generator {name} exceeds rank {rank}")
            return WeylElement.x(idx, rank, lam) if base == "x" else WeylElement.d(idx, rank, lam)
        raise ValueError(f"unknown generator {name!r}")

    out = _parse(s, hook, tokens)
    # numbers parse as MultiPoly constants; MultiPoly hands + and * with a
    # WeylElement to its reflected operators, so any generator makes a WeylElement
    if isinstance(out, MultiPoly):
        return WeylElement.scalar(out, rank, lam)
    return out
