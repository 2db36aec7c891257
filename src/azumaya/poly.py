"""Exact multivariate polynomials over Q.

Coefficients are ``fractions.Fraction`` throughout.  The monomial order is
graded-lex descending with the fixed variable priority

    x1 < x2 < ... < w1 < w2 < ... < z < v < lam < m

(earlier variables are more significant in the lex tie-break).  The string
form produced by ``str()`` (terms in canonical order, coefficients printed
``p/q`` with ``/1`` omitted, e.g. ``3/2*z^2*v - 1``) is a bit-exact contract
used by golden-file tests, so it must never drift.

Products and exact division run on integer numerators: ``_split`` writes
polynomials over one variable layout as ``{exponents: int}`` maps with one
common denominator, ``_int_addmul`` multiplies such maps and ``_int_quo``
divides them exactly, and ``_join`` makes each output coefficient a Fraction
once, at the end.  ``linalg`` builds matrix products and its fraction-free
elimination on the same maps.  A product with a constant factor skips the
kernel: it is the other factor for 1, ``ZERO`` for 0, and otherwise the other
factor's coefficients each times the constant.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add, sub

_INDEXED_FAMILIES = {"x": 0, "w": 1}
_FIXED_NAMES = {"z": 2, "v": 3, "lam": 4, "m": 5}


def var_sort_key(name: str):
    """Total order on variable names fixing the canonical context order."""
    base = name.rstrip("0123456789")
    if base in _INDEXED_FAMILIES and name != base:
        return (_INDEXED_FAMILIES[base], int(name[len(base):]), "")
    if base in _INDEXED_FAMILIES:
        return (_INDEXED_FAMILIES[base], -1, "")
    if name in _FIXED_NAMES:
        return (_FIXED_NAMES[name], 0, "")
    return (9, 0, name)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class MultiPoly:
    """Sparse exact polynomial; immutable after construction.

    ``vars`` holds exactly the variables that occur (canonically sorted);
    ``terms`` maps exponent tuples to nonzero Fractions.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        # normalize: drop zero coefficients and unused variables
        terms = {tuple(e): _as_fraction(c) for e, c in (terms or {}).items()}
        terms = {e: c for e, c in terms.items() if c != 0}
        used = [i for i in range(len(variables))
                if any(e[i] for e in terms)]
        if len(used) != len(variables):
            variables = tuple(variables[i] for i in used)
            terms = {tuple(e[i] for i in used): c for e, c in terms.items()}
        order = sorted(range(len(variables)), key=lambda i: var_sort_key(variables[i]))
        if order != list(range(len(variables))):
            variables = tuple(variables[i] for i in order)
            terms = {tuple(e[i] for i in order): c for e, c in terms.items()}
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _trusted(variables: tuple, terms: dict) -> "MultiPoly":
        """Wrap data that is already canonical, without normalising it:
        ``variables`` sorted by ``var_sort_key`` and each one used, ``terms``
        keyed by tuples of that length with nonzero Fraction values."""
        self = object.__new__(MultiPoly)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)
        return self

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _as_fraction(c)
        return MultiPoly._trusted((), {(): c} if c else {})

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly._trusted((name,), {(1,): Fraction(1)})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly._trusted((), {})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.vars

    def as_fraction(self) -> Fraction:
        if self.vars:
            raise ValueError(f"not a constant: {self}")
        return self.terms.get((), Fraction(0))

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.terms), default=0)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = _layout((other,), self.vars)
        out = dict(_relayout(self.terms, self.vars, merged))
        b = _relayout(other.terms, other.vars, merged)
        cancelled = False
        for e, c in b.items():
            s = out.get(e)
            if s is None:
                out[e] = c
                continue
            s += c
            if s:
                out[e] = s
            else:
                del out[e]
                cancelled = True
        if cancelled and not all(any(e[i] for e in out) for i in range(len(merged))):
            return MultiPoly(merged, out)
        return MultiPoly._trusted(merged, out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.vars:
            return self._scale(other)
        if not self.vars:
            return other._scale(self)
        merged = _layout((other,), self.vars)
        (a,), da = _split((self,), merged)
        (b,), db = _split((other,), merged)
        den = da * db
        out = {e: Fraction(c, den) for e, c in _int_addmul({}, a, b).items() if c}
        # over Q a nonzero product has positive degree in every variable of
        # either factor, so only a zero product loses its variables
        return MultiPoly._trusted(merged if out else (), out)

    __rmul__ = __mul__

    def _scale(self, c: "MultiPoly") -> "MultiPoly":
        """``self`` times the constant ``c``: itself for 1, ``ZERO`` for 0,
        else each coefficient times c (nonzero, so no term or variable drops)."""
        if not c.terms:
            return ZERO
        k = c.terms[()]
        if k == 1:
            return self
        return MultiPoly._trusted(self.vars, {e: x * k for e, x in self.terms.items()})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- calculus / substitution -----------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        """Formal partial derivative; zero when the variable is absent."""
        if name not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[e2] = out.get(e2, Fraction(0)) + c * e[i]
        return MultiPoly(self.vars, out)

    def subs(self, assignment: dict) -> "MultiPoly":
        """Substitute variables by Fractions or MultiPoly values."""
        out = MultiPoly.zero()
        for e, c in self.terms.items():
            term = MultiPoly.const(c)
            for name, k in zip(self.vars, e):
                if not k:
                    continue
                val = assignment.get(name)
                if val is None:
                    term = term * MultiPoly.var(name) ** k
                else:
                    val = val if isinstance(val, MultiPoly) else MultiPoly.const(val)
                    term = term * val ** k
            out = out + term
        return out

    def coefficients_in(self, name: str) -> list:
        """Dense coefficient list [c0, c1, ...] of powers of ``name``;
        coefficients are MultiPoly in the remaining variables."""
        if name not in self.vars:
            return [self] if not self.is_zero() else []
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        deg = self.degree_in(name)
        buckets = [dict() for _ in range(deg + 1)]
        for e, c in self.terms.items():
            e2 = e[:i] + e[i + 1:]
            buckets[e[i]][e2] = c
        return [MultiPoly(rest, b) for b in buckets]

    # -- canonical text ----------------------------------------------------

    @staticmethod
    def _term_sort_key(e):
        return (sum(e), e)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._term_sort_key(kv[0]), reverse=True)

    def _monomial_str(self, e) -> str:
        parts = []
        for name, k in zip(self.vars, e):
            if k == 1:
                parts.append(name)
            elif k > 1:
                parts.append(f"{name}^{k}")
        return "*".join(parts)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for idx, (e, c) in enumerate(self.sorted_terms()):
            mono = self._monomial_str(e)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if idx == 0:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"MultiPoly({str(self)!r})"


def _coerce(x):
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.const(x)
    return NotImplemented


ZERO = MultiPoly.zero()
ONE = MultiPoly.const(1)


def exact_div(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """The quotient q with q * d == p, in any number of variables.

    Both are split over one common denominator and ``d``'s numerator loses
    its integer content c; by Gauss's lemma ``d`` divides ``p`` over Q
    exactly when that primitive part divides ``p``'s numerator in Z[vars],
    and then q is that integer quotient over c.  Raises ArithmeticError at
    the first leading term of the remainder that the leading term of the
    primitive part does not divide.
    """
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    names = _layout((d,), p.vars)
    (num, div), _ = _split((p, d), names)
    c = math.gcd(*div.values())
    return _join(names, _int_quo(num, {e: x // c for e, x in div.items()}), c)


# ---------------------------------------------------------------------------
# integer kernel: numerators over Z[vars] with one common denominator
# ---------------------------------------------------------------------------

def _layout(polys, names=()):
    """The canonically sorted union of ``names`` (already sorted) and the
    variables of ``polys``; ``names`` itself when nothing is new."""
    union = set(names)
    for p in polys:
        union.update(p.vars)
    if len(union) == len(names):
        return names
    return tuple(sorted(union, key=var_sort_key))


def _relayout(terms: dict, old: tuple, new: tuple) -> dict:
    """``terms`` keyed by exponents over the layout ``old`` re-keyed over
    ``new``, which holds every variable of ``old``."""
    if old == new:
        return terms
    pos = [new.index(v) for v in old]
    n = len(new)
    out = {}
    for e, c in terms.items():
        full = [0] * n
        for i, k in zip(pos, e):
            full[i] = k
        out[tuple(full)] = c
    return out


def _split(polys, names):
    """Integer numerators of ``polys`` over the layout ``names`` (which holds
    the variables of each) and their least positive common denominator:
    ``(maps, den)`` with ``polys[i] == maps[i] / den``."""
    den = math.lcm(*{c.denominator for p in polys for c in p.terms.values()})
    return [{e: c.numerator * (den // c.denominator)
             for e, c in _relayout(p.terms, p.vars, names).items()}
            for p in polys], den


def _join(names, num: dict, den: int = 1) -> MultiPoly:
    """The MultiPoly ``num / den`` for an integer map over the layout
    ``names``, dropping zero terms and the variables no term uses."""
    terms = {e: Fraction(c, den) for e, c in num.items() if c}
    if terms and all(map(any, zip(*terms))):
        return MultiPoly._trusted(names, terms)
    return MultiPoly(names, terms)


def _int_addmul(out: dict, a: dict, b: dict) -> dict:
    """Add the product of the integer maps ``a`` and ``b`` into ``out`` (all
    over one layout) and return it; cancelled terms stay as zeros."""
    get = out.get
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            out[e] = get(e, 0) + c1 * c2
    return out


def _heap_key(e):
    # min-heap key for the monomial order: the largest term pops first
    return (-sum(e), tuple(-k for k in e))


def _int_quo(num: dict, div: dict) -> dict:
    """The q in Z[vars] with q * div == num, for integer maps over one layout
    (``div`` nonzero, ``num`` may hold zeros).

    Division by leading terms in the monomial order; raises ArithmeticError
    as soon as the leading term of the remainder is not an integer multiple
    of the leading term of ``div``, which happens exactly when no such q
    exists.
    """
    lead = max(div, key=MultiPoly._term_sort_key)
    lead_c = div[lead]
    tail = [(e, c) for e, c in div.items() if e != lead]
    rem = {e: c for e, c in num.items() if c}
    # cancelled terms stay in the heap and are skipped when popped
    heap = [_heap_key(e) for e in rem]
    heapify(heap)
    quo = {}
    while heap:
        _, neg_e = heappop(heap)
        e = tuple(-k for k in neg_e)
        c = rem.pop(e, None)
        if c is None:
            continue
        q = tuple(map(sub, e, lead))
        c, r = divmod(c, lead_c)
        if r or min(q, default=0) < 0:
            raise ArithmeticError("inexact polynomial division")
        quo[q] = c
        for e2, c2 in tail:
            m = tuple(map(add, q, e2))
            x = rem.get(m)
            if x is None:
                rem[m] = -c * c2
                heappush(heap, _heap_key(m))
            elif x == c * c2:
                del rem[m]
            else:
                rem[m] = x - c * c2
    return quo


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+/\d+|\d+)|([A-Za-z][A-Za-z0-9]*)|(\^)|(\*)|(\+)|(-)|(\()|(\)))")


def _tokenize(s: str):
    tokens, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m or m.end() == pos:
            if s[pos:].strip():
                raise ValueError(f"bad token at {s[pos:]!r}")
            break
        pos = m.end()
        groups = m.groups()
        for kind, val in zip(("num", "name", "pow", "mul", "plus", "minus", "lpar", "rpar"), groups):
            if val is not None:
                tokens.append((kind, val))
                break
    return tokens


class _Parser:
    def __init__(self, tokens, var_hook=None):
        self.tokens = tokens
        self.i = 0
        self.var_hook = var_hook or MultiPoly.var

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self, kind):
        if self.peek() != kind:
            raise ValueError(f"expected {kind}, got {self.peek()}")
        tok = self.tokens[self.i]
        self.i += 1
        return tok[1]

    def parse_expr(self):
        negate = False
        while self.peek() in ("plus", "minus"):
            if self.take(self.peek()) == "-":
                negate = not negate
        out = self.parse_term()
        if negate:
            out = -out
        while self.peek() in ("plus", "minus"):
            op = self.take(self.peek())
            term = self.parse_term()
            # not ``out - term``: WeylElement has no __rsub__ for a MultiPoly ``out``
            out = out + (term if op == "+" else -term)
        return out

    def parse_term(self):
        out = self.parse_factor()
        while self.peek() == "mul":
            self.take("mul")
            out = out * self.parse_factor()
        return out

    def parse_factor(self):
        if self.peek() == "minus":
            self.take("minus")
            return -self.parse_factor()
        atom = self.parse_atom()
        while self.peek() == "pow":
            self.take("pow")
            k = int(self.take("num"))
            atom = atom ** k
        return atom

    def parse_atom(self):
        kind = self.peek()
        if kind == "num":
            text = self.take("num")
            try:
                return MultiPoly.const(Fraction(text))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {text!r}") from None
        if kind == "name":
            return self.var_hook(self.take("name"))
        if kind == "lpar":
            self.take("lpar")
            out = self.parse_expr()
            self.take("rpar")
            return out
        raise ValueError(f"unexpected token {kind}")


def parse_poly(s: str, var_hook=None):
    """Parse the canonical text form (sums of rational-coefficient monomials)."""
    parser = _Parser(_tokenize(s), var_hook)
    out = parser.parse_expr()
    if parser.i != len(parser.tokens):
        raise ValueError(f"trailing input in {s!r}")
    return out


# ---------------------------------------------------------------------------
# univariate helpers
# ---------------------------------------------------------------------------

def to_dense(p: MultiPoly):
    """Univariate polynomial as [c0, c1, ...] of Fractions (empty = zero)."""
    if p.is_zero():
        return []
    if p.is_const():
        return [p.as_fraction()]
    if len(p.vars) > 1:
        raise ValueError(f"not univariate: {sorted(p.vars)}")
    out = [Fraction(0)] * (p.total_degree() + 1)
    for e, c in p.terms.items():
        out[e[0]] = c
    return out


def from_dense(coeffs, name: str) -> MultiPoly:
    return MultiPoly((name,), {(i,): c for i, c in enumerate(coeffs) if c})


def _dense_rem(a, b):
    """Remainder of a divided by b over Q (dense lists)."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        k = len(a) - len(b)
        for i, bc in enumerate(b):
            a[k + i] -= f * bc
        while a and a[-1] == 0:
            a.pop()
    return a


def dense_gcd(a, b):
    """Monic gcd over Q (dense lists)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, _dense_rem(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a
