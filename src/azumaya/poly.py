"""Exact multivariate polynomials over Q.

A polynomial is stored as integer numerators over one positive common
denominator, the form of FLINT's ``fmpq_mpoly``.  The monomial order is
graded-lex descending with the fixed variable priority

    x1 < x2 < ... < w1 < w2 < ... < z < v < lam < m

(earlier variables are more significant in the lex tie-break).  The string
form produced by ``str()`` (terms in canonical order, coefficients printed
``p/q`` with ``/1`` omitted, e.g. ``3/2*z^2*v - 1``) is a bit-exact contract
used by golden-file tests, so it must never drift.

Every result passes through one normaliser, ``_normal`` (wrapped by
``_join``): it drops zero terms and unused variables and divides out the
gcd of the denominator and the numerators; ``_reduced`` does the same but
keeps every variable, for maps kept over a fixed layout.  ``_int_addmul``
multiplies and ``_int_quo`` exactly divides numerator maps; ``_split`` puts
several polynomials over one layout and denominator, for ``linalg``'s
matrix products, fraction-free elimination and pseudo-remainder sequences.  A
constant factor skips the kernel (see ``_scale``).

This module is the one reader and writer of canonical sum text, a signed
sum of terms, each an optional coefficient (an integer or p/q, bare or
parenthesized, or a parenthesized polynomial) and then ``name`` or
``name^k`` factors joined by ``*``.  ``_read_terms`` reads the terms and
``_assemble`` builds one integer numerator map over one denominator from
them; ``_parse`` runs the recursive-descent ``_Parser`` on any other text
and gives every error message.  ``_term_text``, ``_monomial_text`` and
``_lead`` write the terms back.  ``parse_poly`` and ``str()`` are built on
them, and so are the Weyl and mixed-operator readers and printers.
``_as_fraction`` is the package's one reader of exact rational scalars.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import compress
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


_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _as_fraction(c) -> Fraction:
    """The one reader of exact rationals: a Fraction, a non-bool int, or the
    text ``[+-]digits[/digits]`` (ASCII, no exponent: it costs superlinear time)."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int) and not isinstance(c, bool):
        return Fraction(c)
    if not isinstance(c, str):
        raise TypeError(f"not an exact scalar: {c!r}")
    m = _SCALAR.fullmatch(c)
    if m is None:
        raise ValueError(f"Invalid literal for Fraction: {c!r}")
    return Fraction(int(m[1]), int(m[2] or 1))


class MultiPoly:
    """Sparse exact polynomial over Q; immutable after construction.

    The polynomial is ``num / den``.  ``vars`` holds exactly the variables
    that occur (canonically sorted), ``num`` maps exponent tuples over them
    to nonzero ints, and ``den`` is a positive int with
    ``gcd(den, *num.values()) == 1``.  That form is canonical, so equality
    and hashing read it directly; ``terms`` gives the coefficients as
    Fractions.
    """

    __slots__ = ("vars", "num", "den")

    def __init__(self, variables=(), terms=None):
        variables = tuple(variables)
        names = tuple(sorted(variables, key=var_sort_key))
        terms = _relayout({tuple(e): _as_fraction(c) for e, c in (terms or {}).items()},
                          variables, names)
        den = math.lcm(*{c.denominator for c in terms.values()})
        num = {e: c.numerator * (den // c.denominator) for e, c in terms.items()}
        for slot, value in zip(MultiPoly.__slots__, _normal(names, num, den)):
            object.__setattr__(self, slot, value)

    def __setattr__(self, *_):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @staticmethod
    def _trusted(variables: tuple, num: dict, den: int = 1) -> "MultiPoly":
        """Wrap a canonical form (see the class docstring) as it is."""
        self = object.__new__(MultiPoly)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @staticmethod
    def const(c) -> "MultiPoly":
        c = _as_fraction(c)
        return MultiPoly._trusted((), {(): c.numerator} if c else {}, c.denominator)

    @staticmethod
    def var(name: str) -> "MultiPoly":
        return MultiPoly._trusted((name,), {(1,): 1})

    @staticmethod
    def zero() -> "MultiPoly":
        return MultiPoly._trusted((), {})

    @property
    def terms(self) -> dict:
        """A fresh map from exponent tuples to the Fraction coefficients."""
        return {e: Fraction(c, self.den) for e, c in self.num.items()}

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_const(self) -> bool:
        return not self.vars

    def as_fraction(self) -> Fraction:
        if self.vars:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.num.get((), 0), self.den)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.num), default=0)

    def degree_in(self, name: str) -> int:
        if name not in self.vars:
            return 0
        i = self.vars.index(name)
        return max((e[i] for e in self.num), default=0)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = _layout((other,), self.vars)
        (a, b), den = _split((self, other), merged)
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return _join(merged, out, den)

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
        return MultiPoly._trusted(self.vars, {e: -c for e, c in self.num.items()}, self.den)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.vars:
            return self._scale(other)
        if not self.vars:
            return other._scale(self)
        merged = _layout((other,), self.vars)
        a = _relayout(self.num, self.vars, merged)
        b = _relayout(other.num, other.vars, merged)
        return _join(merged, _int_addmul({}, a, b), self.den * other.den)

    __rmul__ = __mul__

    def _scale(self, c: "MultiPoly") -> "MultiPoly":
        """``self`` times the constant ``c``; itself for 1, ``ZERO`` for 0."""
        if not c.num:
            return ZERO
        k = c.num[()]
        if k == c.den == 1:
            return self
        return _join(self.vars, {e: x * k for e, x in self.num.items()}, self.den * c.den)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out, base = ONE, self
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
        return self.vars == other.vars and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.vars, self.den, frozenset(self.num.items())))

    # -- calculus / substitution -----------------------------------------

    def derivative(self, name: str) -> "MultiPoly":
        """Formal partial derivative; zero when the variable is absent."""
        if name not in self.vars:
            return MultiPoly.zero()
        i = self.vars.index(name)
        out = {}
        for e, c in self.num.items():
            if e[i]:
                e2 = e[:i] + (e[i] - 1,) + e[i + 1:]
                out[e2] = out.get(e2, 0) + c * e[i]
        return _join(self.vars, out, self.den)

    def subs(self, assignment: dict) -> "MultiPoly":
        """Substitute variables by Fractions or MultiPoly values."""
        out = ZERO
        for e, c in self.terms.items():
            term = MultiPoly.const(c)
            for name, k in zip(self.vars, e):
                if k:
                    val = assignment.get(name, MultiPoly.var(name))
                    term = term * (val if isinstance(val, MultiPoly) else MultiPoly.const(val)) ** k
            out = out + term
        return out

    def coefficients_in(self, name: str) -> list:
        """Dense coefficient list [c0, c1, ...] of powers of ``name``;
        coefficients are MultiPoly in the remaining variables."""
        if name not in self.vars:
            return [self] if not self.is_zero() else []
        i = self.vars.index(name)
        rest = self.vars[:i] + self.vars[i + 1:]
        buckets = [{} for _ in range(self.degree_in(name) + 1)]
        for e, c in self.num.items():
            buckets[e[i]][e[:i] + e[i + 1:]] = c
        return [_join(rest, b, self.den) for b in buckets]

    # -- canonical text ----------------------------------------------------

    @staticmethod
    def _term_sort_key(e):
        return (sum(e), e)

    def __str__(self):
        if not self.num:
            return "0"
        den, names = self.den, self.vars
        return _lead("".join([_term_text(c, den, _monomial_text(names, e)) for e, c in sorted(
            self.num.items(), key=lambda kv: self._term_sort_key(kv[0]), reverse=True)]))

    def __repr__(self):
        return f"MultiPoly({str(self)!r})"


def _ratio_str(c: int, den: int) -> str:
    """``str(Fraction(c, den))`` for c >= 0 and den > 0, read off the
    integers without building the Fraction."""
    g = math.gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def _term_text(c: int, den: int, mono: str) -> str:
    """The term c/den * ``mono`` of a sum, written " + t" or " - t": the
    coefficient's absolute value, then ``mono`` after ``*``; the coefficient
    alone when ``mono`` is empty, ``mono`` alone when the coefficient is 1."""
    sign, c = (" - ", -c) if c < 0 else (" + ", c)
    if c == den:
        return sign + (mono or "1")
    return f"{sign}{_ratio_str(c, den)}*{mono}" if mono else sign + _ratio_str(c, den)


def _monomial_text(names, e) -> str:
    """The monomial with exponents ``e`` over ``names``: ``name`` or
    ``name^k`` factors joined by ``*``; empty for 1."""
    return "*".join([f"{v}^{k}" if k > 1 else v for v, k in zip(names, e) if k])


def _lead(text: str) -> str:
    """A sum of ``_term_text`` terms without its leading " + ", or with its
    leading " - " written "-"."""
    return text[3:] if text[1] == "+" else "-" + text[3:]


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

    By Gauss's lemma ``d`` divides ``p`` over Q exactly when the primitive
    part of ``d.num`` (content c) divides ``p.num`` in Z[vars], and then q is
    that quotient times ``d.den`` over ``p.den * c``.  Raises ArithmeticError
    at the first leading term of the remainder that the leading term of the
    primitive part does not divide.
    """
    if d.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    names = _layout((d,), p.vars)
    div = _relayout(d.num, d.vars, names)
    c = math.gcd(*div.values())
    quo = _int_quo(_relayout(p.num, p.vars, names), {e: x // c for e, x in div.items()})
    return _join(names, {e: x * d.den for e, x in quo.items()}, p.den * c)


def poly_content(*polys) -> Fraction:
    """Positive rational content (gcd of all coefficients); 0 when all are
    zero.  Each ``num / den`` is reduced, so it is gcd(nums) / lcm(dens)."""
    return Fraction(math.gcd(*[c for p in polys for c in p.num.values()]),
                    math.lcm(*{p.den for p in polys}))


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
    """``(maps, den)`` with ``polys[i] == maps[i] / den`` over the layout
    ``names`` (which holds the variables of each) and the lcm ``den`` of
    their denominators.  A map may be a ``num`` itself: only read them."""
    den = math.lcm(*{p.den for p in polys})
    return [_relayout(p.num if p.den == den else
                      {e: c * (den // p.den) for e, c in p.num.items()}, p.vars, names)
            for p in polys], den


def _reduced(num: dict, den: int):
    """``(num, den)`` for ``num / den`` (``den > 0``) without zero terms or a
    common factor of ``den`` and the numerators; ``({}, 1)`` for zero."""
    num = {e: c for e, c in num.items() if c}
    g = math.gcd(den, *num.values())
    if g != 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    return num, den


def _normal(names: tuple, num: dict, den: int):
    """The canonical ``(vars, num, den)`` of ``num / den`` over the sorted
    layout ``names`` (``den > 0``): ``_reduced``, and without unused
    variables."""
    num, den = _reduced(num, den)
    if not num:
        return (), num, 1
    used = tuple(map(any, zip(*num)))
    if not all(used):
        names = tuple(compress(names, used))
        num = {tuple(compress(e, used)): c for e, c in num.items()}
    return names, num, den


def _join(names, num: dict, den: int = 1) -> MultiPoly:
    """The MultiPoly ``num / den`` over the layout ``names``, normalised."""
    return MultiPoly._trusted(*_normal(names, num, den))


def _const(num: int, den: int) -> MultiPoly:
    """The constant MultiPoly ``num / den`` (``den > 0``), normalised."""
    g = math.gcd(num, den)
    return MultiPoly._trusted((), {(): num // g}, den // g) if num else ZERO


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

_TOKEN = re.compile(r"\s*(?:([0-9]+/[0-9]+|[0-9]+)|([A-Za-z][A-Za-z0-9]*)"
                    r"|(\^)|(\*)|(\+)|(-)|(\()|(\)))")
# the kind of a token by the number of its group in _TOKEN
_KINDS = (None, "num", "name", "pow", "mul", "plus", "minus", "lpar", "rpar")


def _tokenize(s: str):
    tokens, pos = [], 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip():
                raise ValueError(f"bad token at {s[pos:]!r}")
            break
        pos = m.end()
        tokens.append((_KINDS[m.lastindex], m[m.lastindex]))
    return tokens


class _Parser:
    def __init__(self, tokens, var_hook=MultiPoly.var):
        self.tokens = tokens
        self.i = 0
        self.var_hook = var_hook

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
            out = out + term if op == "+" else out - term
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
                return MultiPoly.const(text)
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


def _parse(s: str, hook=MultiPoly.var, tokens=None):
    """``s`` read whole by ``_Parser``, with ``hook`` turning each name into
    a value; every error message of the text readers comes from here.
    ``tokens`` is ``_tokenize(s)`` when the caller has it already."""
    parser = _Parser(_tokenize(s) if tokens is None else tokens, hook)
    out = parser.parse_expr()
    if parser.i != len(parser.tokens):
        raise ValueError(f"trailing input in {s!r}")
    return out


# one term of canonical text and its trailing whitespace: a sign (no - before
# a parenthesis), then an integer or p/q with q > 0, bare or parenthesized with
# its own sign, or another parenthesized coefficient, then name powers joined
# by *; or the name powers alone
_NAME = r"[A-Za-z][A-Za-z0-9]*"
_FACTORS = rf"{_NAME}(?:\s*\^\s*[0-9]+)?(?:\s*\*\s*{_NAME}(?:\s*\^\s*[0-9]+)?)*"
_RATIONAL = r"([0-9]+)(?:/([0-9]*[1-9][0-9]*))?"
_TERM = re.compile(rf"\s*(\+|-(?!\s*\()|)\s*(?:(?:{_RATIONAL}|\((?:\s*([+-]?)\s*{_RATIONAL}\s*\)"
                   rf"|([^()]*)\)))(?:\s*\*\s*({_FACTORS}))?|({_FACTORS}))\s*")
_POWER = re.compile(rf"({_NAME})(?:\s*\^\s*([0-9]+))?")


def _read_terms(text: str):
    """The terms of canonical text, or None for other text: ``_TERM``
    repeated to the end, with a sign before every term but the first.

    A term is (c, q, [(name, k), ...]): the coefficient c/q as ints, or c a
    MultiPoly (a parenthesized coefficient, read by ``parse_poly``) and q
    its denominator.  Raises ValueError for a number too long for int() or
    a parenthesized coefficient ``parse_poly`` refuses.
    """
    terms, pos = [], 0
    while (m := _TERM.match(text, pos)) and (m[1] or not terms):
        sign, p, q, inner, pp, pq, paren, factors, alone = m.groups()
        if paren is None:  # a parenthesized rational's sign is its own: the term's is never -
            c, q = int((inner or sign) + (p or pp or "1")), int(q or pq or 1)
        else:
            c = parse_poly(paren)
            q = c.den
        terms.append((c, q, [(v, int(k or 1)) for v, k in _POWER.findall(factors or alone or "")]))
        pos = m.end()
    return terms if terms and pos == len(text) else None


def _assemble(terms, layout: tuple):
    """``(num, den)``: the sum of ``terms`` (see ``_read_terms``) as one
    integer numerator map, zeros kept, over one denominator, keyed over
    ``layout``, which holds every name of the terms and their coefficients."""
    where = {v: i for i, v in enumerate(layout)}
    den, num = math.lcm(*{q for _, q, _ in terms}), {}
    for c, q, powers in terms:
        e = [0] * len(layout)
        for v, k in powers:
            e[where[v]] += k
        if type(c) is int:
            key = tuple(e)
            num[key] = num.get(key, 0) + c * (den // q)
            continue
        spots = [where[v] for v in c.vars]
        for j, x in c.num.items():
            f = e.copy()
            for i, k in zip(spots, j):
                f[i] += k
            key = tuple(f)
            num[key] = num.get(key, 0) + x * (den // q)
    return num, den


def parse_poly(s: str):
    """Parse the canonical text form (sums of rational-coefficient monomials).

    Canonical text (see ``_read_terms``) is read in one pass into one
    integer numerator map over one denominator.  Anything else (a minus
    before a parenthesis, repeated signs, ``^`` on a number or a
    parenthesis, a zero denominator, ...) goes through ``_Parser``, which
    gives every other result and every error message.
    """
    try:
        terms = _read_terms(s)
    except ValueError:
        terms = None  # a number too long for int(), a bad coefficient: _Parser reports it
    if terms is None:
        return _parse(s)
    names = {v for _, _, powers in terms for v, _ in powers}
    names.update(*(c.vars for c, _, _ in terms if type(c) is not int))
    names = tuple(sorted(names, key=var_sort_key))
    return _join(names, *_assemble(terms, names))
