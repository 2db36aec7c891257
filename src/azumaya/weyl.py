"""The Weyl algebra A_n and its one-parameter deformation family.

Elements are stored normal-ordered (position factors left of momentum
factors); the single stored form makes equality and printing canonical.
The deformation parameter enters through the relation  d_i*x_i = x_i*d_i + lam;
``lam`` is either a genuine polynomial coefficient variable (formal mode) or
a fixed rational.  At lam = 1 this is the classical algebra of polynomial
differential operators; at lam = 0 the commutative fiber.

Convention: in fixed mode the generator d_i acts on polynomials as
lam * d/dx_i, consistently with the family's momentum action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial, lcm, prod
from operator import add, sub

from .errors import DegenerateError, ModeMismatchError, ZeroElementError
from .poly import ONE, MultiPoly, _join

FORMAL = "formal"

_LAM = MultiPoly.var("lam")


def position_vars(n: int):
    """Names of the position variables: ``x`` for n = 1, else x1..xn."""
    return ("x",) if n == 1 else tuple(f"x{i + 1}" for i in range(n))


class WeylElement:
    """Normal-ordered element of the rank-n Weyl algebra.

    ``terms`` maps (a, b), the exponent tuples over positions and momenta,
    to a nonzero coefficient polynomial in ``lam`` (constant in fixed mode).
    """

    __slots__ = ("n", "lam", "terms")

    def __init__(self, n: int, lam, terms=None):
        lam = _mode(lam)
        clean = {}
        for (a, b), c in (terms or {}).items():
            c = _coefficient(c, lam)
            if not c.is_zero():
                key = (tuple(a), tuple(b))
                if len(key[0]) != n or len(key[1]) != n:
                    raise ModeMismatchError("exponent tuple length != n")
                clean[key] = clean.get(key, MultiPoly.zero()) + c
        clean = {k: c for k, c in clean.items() if not c.is_zero()}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _trusted(n: int, lam, terms: dict) -> "WeylElement":
        """Wrap terms that are already clean: exponent keys of length n and
        nonzero coefficients in the ring of the mode."""
        self = object.__new__(WeylElement)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, *_):
        raise AttributeError("WeylElement is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int, lam=FORMAL) -> "WeylElement":
        return WeylElement(n, lam, {})

    @staticmethod
    def one(n: int, lam=FORMAL) -> "WeylElement":
        return WeylElement._trusted(n, _mode(lam), {((0,) * n, (0,) * n): ONE})

    @staticmethod
    def scalar(c, n: int, lam=FORMAL) -> "WeylElement":
        return WeylElement(n, lam, {((0,) * n, (0,) * n): c})

    @staticmethod
    def x(i: int, n: int, lam=FORMAL) -> "WeylElement":
        return WeylElement._trusted(n, _mode(lam), {(_unit(i, n), (0,) * n): ONE})

    @staticmethod
    def d(i: int, n: int, lam=FORMAL) -> "WeylElement":
        return WeylElement._trusted(n, _mode(lam), {((0,) * n, _unit(i, n)): ONE})

    # -- basics -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "WeylElement"):
        if self.n != other.n or self.lam != other.lam:
            raise ModeMismatchError(
                f"rank/mode mismatch: ({self.n}, {self.lam}) vs ({other.n}, {other.lam})")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = WeylElement.scalar(other, self.n, self.lam)
        self._check_compatible(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k)
            if s is None:
                out[k] = c
                continue
            s = s + c
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        return WeylElement._trusted(self.n, self.lam, out)

    __radd__ = __add__

    def __neg__(self):
        return WeylElement._trusted(self.n, self.lam, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            other = WeylElement.scalar(other, self.n, self.lam)
        return self + (-other)

    def scale(self, c) -> "WeylElement":
        c = _coefficient(c, self.lam)
        # Q[lam] has no zero divisors, so only a zero scalar drops terms
        terms = {k: c * v for k, v in self.terms.items()} if not c.is_zero() else {}
        return WeylElement._trusted(self.n, self.lam, terms)

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
        out = WeylElement.one(self.n, self.lam)
        for _ in range(k):
            out = weyl_mul(out, self)
        return out

    def __eq__(self, other):
        return (isinstance(other, WeylElement) and self.n == other.n
                and self.lam == other.lam and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n, self.lam, frozenset(self.terms.items())))

    def commutator(self, other) -> "WeylElement":
        return weyl_mul(self, other) - weyl_mul(other, self)

    def bidegree(self):
        """(max total x-degree, max total d-degree)."""
        ax = max((sum(a) for a, _ in self.terms), default=0)
        bd = max((sum(b) for _, b in self.terms), default=0)
        return (ax, bd)

    # -- canonical text -----------------------------------------------------

    def _names(self):
        if self.n == 1:
            return ("x",), ("d",)
        return (tuple(f"x{i+1}" for i in range(self.n)),
                tuple(f"d{i+1}" for i in range(self.n)))

    def __str__(self):
        if not self.terms:
            return "0"
        xs, ds = self._names()
        items = sorted(self.terms.items(),
                       key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0]),
                       reverse=True)
        pieces = []
        for idx, ((a, b), c) in enumerate(items):
            mono = "*".join(
                [f"{nm}^{k}" if k > 1 else nm for nm, k in zip(xs, a) if k] +
                [f"{nm}^{k}" if k > 1 else nm for nm, k in zip(ds, b) if k])
            coeff = _coeff_str(c)
            if coeff == "+1" and mono:
                body, neg = mono, False
            elif coeff == "-1" and mono:
                body, neg = mono, True
            else:
                neg = coeff.startswith("-")
                mag = coeff[1:]
                body = f"{mag}*{mono}" if mono else mag
            if idx == 0:
                pieces.append(f"-{body}" if neg else body)
            else:
                pieces.append(f" - {body}" if neg else f" + {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"WeylElement({str(self)!r})"


def _unit(i: int, n: int) -> tuple:
    """The exponent tuple of the i-th generator of rank n, i in 0..n-1."""
    if not 0 <= i < n:
        raise ValueError(f"generator index {i} is outside 0..{n - 1}")
    return tuple(1 if j == i else 0 for j in range(n))


def _mode(lam):
    """``FORMAL``, or the fixed lam as a Fraction."""
    return lam if isinstance(lam, Fraction) or lam == FORMAL else Fraction(lam)


def _coefficient(c, lam) -> MultiPoly:
    """A coefficient of the mode's ring: Q[lam] when formal, Q when fixed."""
    c = c if isinstance(c, MultiPoly) else MultiPoly.const(c)
    if c.vars and (lam != FORMAL or c.vars != ("lam",)):
        if lam != FORMAL and "lam" in c.vars:
            raise ModeMismatchError("fixed-mode coefficient contains lam")
        raise ModeMismatchError(f"coefficient {c} is not a polynomial in lam")
    return c


def _coeff_str(c: MultiPoly) -> str:
    """Signed coefficient rendering; multi-term coefficients parenthesized."""
    if len(c.num) > 1:
        return f"+({c})"
    s = str(c)
    return s if s.startswith("-") else f"+{s}"


def weyl_mul(d1: WeylElement, d2: WeylElement) -> WeylElement:
    """Normal-ordered product.

    Per variable the reordering is the closed form
        d^m x^n = sum_k C(m,k) C(n,k) k! lam^k x^(n-k) d^(m-k),
    which keeps term counts O(min(m,n)) instead of walking single steps.
    Coefficients are summed on integer numerators, as {lam power: int} over
    one common denominator, and each output coefficient is normalised once,
    at the end.  A fixed lam = p/q is multiplied in as the integer weight
    p^t q^(T-t) of a contraction total t, where T bounds every total, so the
    denominator gains q^T and only power 0 occurs; at lam = 0 every t > 0
    term drops.
    """
    d1._check_compatible(d2)
    n, lam = d1.n, d1.lam
    formal = lam == FORMAL
    left, den1 = _int_terms(d1)
    right, den2 = _int_terms(d2)
    den = den1 * den2
    if not formal:
        top = sum(min(max((b[i] for _, b, _ in left), default=0),
                      max((a[i] for a, _, _ in right), default=0)) for i in range(n))
        p, q = lam.numerator, lam.denominator
        weights = [p ** t * q ** (top - t) for t in range(top + 1)]
        den *= q ** top
    out = {}
    for a1, b1, c1 in left:
        for a2, b2, c2 in right:
            base = {}
            for p1, x1 in c1.items():
                for p2, x2 in c2.items():
                    base[p1 + p2] = base.get(p1 + p2, 0) + x1 * x2
            a, b = tuple(map(add, a1, a2)), tuple(map(add, b1, b2))
            # distribute over per-variable contraction orders
            for ks in product(*[range(min(i, j) + 1) for i, j in zip(b1, a2)]):
                tot = sum(ks)
                if tot:
                    f = prod(comb(i, k) * comb(j, k) * factorial(k)
                             for i, j, k in zip(b1, a2, ks))
                    key = (tuple(map(sub, a, ks)), tuple(map(sub, b, ks)))
                else:
                    f, key = 1, (a, b)
                if not formal:
                    f *= weights[tot]
                    if not f:
                        continue
                    tot = 0
                acc = out.get(key)
                if acc is None:
                    acc = out[key] = {}
                for e, x in base.items():
                    acc[e + tot] = acc.get(e + tot, 0) + x * f
    names = ("lam",) if formal else ()
    terms = {}
    for key, acc in out.items():
        c = _join(names, {(e,) if formal else (): x for e, x in acc.items()}, den)
        if c.num:
            terms[key] = c
    return WeylElement._trusted(n, lam, terms)


def _int_terms(d: WeylElement):
    """The terms of ``d`` as (a, b, {lam power: int}) and their least positive
    common denominator ``den``: each coefficient is that map over ``den``."""
    den = lcm(*{c.den for c in d.terms.values()})
    return [(a, b, {e[0] if e else 0: x * (den // c.den) for e, x in c.num.items()})
            for (a, b), c in d.terms.items()], den


def act_on_polynomial(d: WeylElement, f: MultiPoly) -> MultiPoly:
    """Action on the polynomial module: x_i multiplies, d_i applies
    lam * d/dx_i.  Only defined in fixed mode."""
    if d.lam == FORMAL:
        raise ModeMismatchError("action requires a fixed lambda")
    xs = position_vars(d.n)
    if not set(f.vars) <= set(xs):
        raise ModeMismatchError(f"polynomial must live in {xs}")
    out = MultiPoly.zero()
    for (a, b), c in d.terms.items():
        g = f
        for i, k in enumerate(b):
            for _ in range(k):
                g = g.derivative(xs[i]) * d.lam
            if g.is_zero():
                break
        if g.is_zero():
            continue
        for i, k in enumerate(a):
            if k:
                g = g * MultiPoly.var(xs[i]) ** k
        out = out + c * g
    return out


def fourier(d: WeylElement) -> WeylElement:
    """Algebra automorphism generated by x_i -> d_i, d_i -> -x_i,
    re-normal-ordered.  Has order four."""
    out = WeylElement.zero(d.n, d.lam)
    zero = (0,) * d.n
    for (a, b), c in d.terms.items():
        sign = -1 if sum(b) % 2 else 1
        left = WeylElement(d.n, d.lam, {(zero, a): MultiPoly.const(1)})
        right = WeylElement(d.n, d.lam, {(b, zero): c * sign})
        out = out + weyl_mul(left, right)
    return out


def specialize_lambda(d: WeylElement, c) -> WeylElement:
    """Pass from the formal family to the fiber lam = c."""
    if d.lam != FORMAL:
        raise ModeMismatchError("element is already specialized")
    c = c if isinstance(c, Fraction) else Fraction(c)
    # the constructor drops the coefficients that vanish at lam = c
    return WeylElement(d.n, c, {key: coeff.subs({"lam": c}) for key, coeff in d.terms.items()})


@dataclass(frozen=True)
class SimplicityCertificate:
    """Sequence of commutator moves reducing an element to a nonzero scalar.

    Each step is (kind, index, side): kind 'd' with side 'left' applies
    [d_i, -], kind 'x' with side 'right' applies [-, x_i].  Replaying the
    steps on the input element must reproduce ``final_scalar`` exactly.
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
    is processed first, so the walk is deterministic.
    """
    if d.is_zero():
        raise ZeroElementError("cannot certify the zero element")
    if d.lam != FORMAL and d.lam == 0:
        raise DegenerateError("the commutative fiber (lam = 0) is not simple")
    steps = []
    cur = d
    for i in range(d.n):
        while max((a[i] for a, _ in cur.terms), default=0) > 0:
            cur = WeylElement.d(i, d.n, d.lam).commutator(cur)
            steps.append(("d", i, "left"))
    for i in range(d.n):
        while max((b[i] for _, b in cur.terms), default=0) > 0:
            cur = cur.commutator(WeylElement.x(i, d.n, d.lam))
            steps.append(("x", i, "right"))
    scalar = cur.terms[((0,) * d.n, (0,) * d.n)]
    return SimplicityCertificate(tuple(steps), scalar)


# ---------------------------------------------------------------------------
# parsing of Weyl expressions (CLI surface)
# ---------------------------------------------------------------------------

def parse_weyl(s: str, n: int = None, lam=FORMAL) -> WeylElement:
    """Parse expressions like ``D*x``, ``x^2*d + 1``, ``lam*x1*d2``.

    Generator names: x / d (rank 1) or x1..xn / d1..dn; capital D accepted.
    The rank is inferred from the largest index unless given.
    """
    from .poly import _tokenize, _Parser

    tokens = _tokenize(s)
    names = {val.lower() for kind, val in tokens if kind == "name"}
    inferred = 1
    for nm in names:
        base = nm.rstrip("0123456789")
        if base in ("x", "d") and nm != base:
            inferred = max(inferred, int(nm[len(base):]))
    rank = n or inferred

    def hook(name: str) -> WeylElement:
        key = name.lower()
        if key == "lam":
            if lam != FORMAL:
                raise ModeMismatchError("lam is not a symbol in fixed mode")
            return WeylElement.scalar(_LAM, rank, lam)
        base = key.rstrip("0123456789")
        if base in ("x", "d"):
            idx = int(key[len(base):]) - 1 if key != base else 0
            if idx < 0:
                raise ValueError(f"generator {name} has index below 1")
            if idx >= rank:
                raise ModeMismatchError(f"generator {name} exceeds rank {rank}")
            return WeylElement.x(idx, rank, lam) if base == "x" else WeylElement.d(idx, rank, lam)
        raise ValueError(f"unknown generator {name!r}")

    parser = _Parser(tokens, hook)
    out = parser.parse_expr()
    if parser.i != len(parser.tokens):
        raise ValueError(f"trailing input in {s!r}")
    # numbers parse as MultiPoly constants; MultiPoly hands + and * with a
    # WeylElement to its reflected operators, so any generator makes a WeylElement
    if isinstance(out, MultiPoly):
        return WeylElement.scalar(out, rank, lam)
    return out
