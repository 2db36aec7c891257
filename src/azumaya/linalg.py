"""Exact linear algebra: rational matrices, polynomial matrices, kernels.

Over Q there is one elimination, ``echelon``: Bareiss (1968) on integer
rows, so every division is exact, with back substitution only among the
rows past a given column.  ``linear_solve_exact`` runs it on each row's
cleared numerators and reads its answer off the reduced integer rows; the
commutation solver runs it on its integer rows directly.  Over the
fraction field of a polynomial base ring Q[z] (or Q[w1, w2, ...]) there is
one elimination too, ``SpanBasis``: Bareiss over Z[base] after clearing
denominators, on the integer numerator maps that ``MultiPoly`` stores, so
its divisions are exact and it takes no gcds.  The span tests run on it,
and so does ``kernel_saturated``, through one relation path
(``_relations``) that saturates and signs each dependency it finds.
``PolyMatrix`` products sum each entry in one integer map over the two
matrices' common denominators; when every entry is constant, in one
integer dot product.  ``char_poly`` runs the Faddeev-LeVerrier recursion
without divisions on the same integer maps, with M = A / d over one layout:
each step is one product by A, a scaling by k and the trace subtracted on
the diagonal, and chi is put over d^r * r! once at the end.

``min_poly`` and ``squarefree_in_v`` first try a certificate at the
integer base points ``_POINTS`` (the homomorphism method: every base
variable is set to z0 and the question is asked over Q).  A constant
matrix M(z0) with r independent powers (``nonderogatory_point``, which the
subalgebra closure in ``spectral`` shares) proves that the minimal
polynomial is the characteristic one; a squarefree p(z0, v) of full degree
proves p squarefree.  When no point decides, they fall back to
``_relations`` and to the pseudo-remainder sequence below.

Every gcd in one variable over the fraction field of the others runs one
primitive pseudo-remainder sequence (Collins 1967, Brown 1971) on the same
integer maps: the saturation in ``_relations``, ``squarefree_in_v`` and
``divides_in_v``.

Everything is deterministic: elimination always picks the first usable
pivot, nullspace bases are in the standard reduced-echelon form (free
coordinate set to 1, pivots filled in; over Q[z] saturated instead, with
the free coordinate's leading coefficient positive), and polynomial outputs
are primitive with a fixed sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import ShapeError
from .poly import (MultiPoly, ONE, ZERO, _as_fraction, _const, _int_addmul, _int_quo, _join,
                   _layout, _relayout, _split, exact_div, poly_content)


def echelon(rows, first=0):
    """Fraction-free row echelon form of integer rows, in place; returns the
    pivot columns, one per leading row.

    The forward pass is Bareiss (1968): each pivot row is made positive, and
    every row below it becomes (p * row - f * pivot row) // previous pivot,
    also when f is 0, so that its entries stay minors and the divisions
    exact.  The rows below the rank end up zero.  Back substitution then
    runs only among the rows whose pivot column is at least ``first``: it
    clears each such pivot column in the earlier such rows and divides each
    changed row by its content.  Those rows, each divided by its pivot, are
    then the reduced echelon form of the part of the row space that vanishes
    before column ``first``; with ``first = 0``, of the whole row space.
    """
    pivots, prev = [], 1
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        i = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if i is not None:
            row = rows[i] if rows[i][col] > 0 else [-x for x in rows[i]]
            rows[i], rows[rank] = rows[rank], row
            for low in rows[rank + 1:]:
                f = low[col]
                low[col:] = [(row[col] * a - f * b) // prev for a, b in zip(low[col:], row[col:])]
            pivots.append(col)
            prev = row[col]
    tail = [(row, pc) for row, pc in zip(rows, pivots) if pc >= first]
    for k, (row, pc) in enumerate(tail):
        for other, lead in tail[:k]:
            f = other[pc]
            if f:
                new = [row[pc] * a - f * b for a, b in zip(other[lead:], row[lead:])]
                g = math.gcd(*new)
                other[lead:] = [x // g for x in new]
    return pivots


@dataclass(frozen=True)
class LinearSolution:
    """Affine solution set of an exact linear system."""

    consistent: bool
    particular: tuple | None
    nullspace: tuple


def linear_solve_exact(matrix, rhs=None) -> LinearSolution:
    """Exact affine solution set of M x = rhs over Q.

    Returns a particular solution (free coordinates zero) plus a
    nullspace basis in standard form (free coordinate 1), or
    ``consistent=False``.  The augmented rows, each cleared of its
    denominators, go through ``echelon`` once, and both are read off the
    reduced integer rows, each divided by its pivot.
    """
    m = [[_as_fraction(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    if any(len(row) != ncols for row in m):
        raise ShapeError("ragged rows")
    if rhs is None:
        rhs = [Fraction(0)] * nrows
    rhs = [_as_fraction(x) for x in rhs]
    if len(rhs) != nrows:
        raise ShapeError("rhs length does not match row count")
    aug = [row + [b] for row, b in zip(m, rhs)]
    rows = [[int(x * d) for x in r] for r in aug for d in [math.lcm(*(x.denominator for x in r))]]
    pivots = echelon(rows)
    if ncols in pivots:
        return LinearSolution(False, None, ())
    at = dict(zip(pivots, rows))   # pivot column -> its reduced row
    particular = tuple(Fraction(at[c][ncols], at[c][c]) if c in at else Fraction(0)
                       for c in range(ncols))
    nullspace = tuple(tuple(Fraction(-at[c][fc], at[c][c]) if c in at else Fraction(int(c == fc))
                            for c in range(ncols)) for fc in range(ncols) if fc not in at)
    return LinearSolution(True, particular, nullspace)


# ---------------------------------------------------------------------------
# polynomial matrices
# ---------------------------------------------------------------------------

def _as_poly(x) -> MultiPoly:
    if isinstance(x, MultiPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return MultiPoly.const(x)
    if isinstance(x, str):
        from .poly import parse_poly
        return parse_poly(x)
    raise TypeError(f"not a polynomial entry: {x!r}")


def _dot(row, col) -> dict:
    """The sum of the products of the integer maps in ``row`` and ``col``."""
    acc = {}
    for x, y in zip(row, col):
        _int_addmul(acc, x, y)
    return acc


class PolyMatrix:
    """Dense matrix of MultiPoly entries (row-major)."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries):
        entries = [_as_poly(e) for e in entries]
        if rows <= 0 or cols <= 0:
            raise ShapeError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(entries)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(entries))

    def __setattr__(self, *_):
        raise AttributeError("PolyMatrix is immutable")

    @staticmethod
    def from_rows(rows) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ShapeError("ragged rows")
        return PolyMatrix(r, c, [e for row in rows for e in row])

    @staticmethod
    def identity(n: int) -> "PolyMatrix":
        return PolyMatrix(n, n, [ONE if i == j else MultiPoly.zero()
                                 for i in range(n) for j in range(n)])

    @staticmethod
    def zeros(r: int, c: int = None) -> "PolyMatrix":
        c = r if c is None else c
        return PolyMatrix(r, c, [MultiPoly.zero()] * (r * c))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    def __add__(self, other):
        self._same_shape(other)
        return PolyMatrix(self.rows, self.cols,
                          [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return PolyMatrix(self.rows, self.cols,
                          [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return PolyMatrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.cols != other.rows:
                raise ShapeError(f"cannot multiply {self.shape()} by {other.shape()}")
            names = _layout(self.entries + other.entries)
            a, da = _split(self.entries, names)
            b, db = _split(other.entries, names)
            n, m = self.cols, other.cols
            out = []
            if not names:
                # every entry constant: plain dot products of the numerators
                a = [x.get((), 0) for x in a]
                cols = [[x.get((), 0) for x in b[j::m]] for j in range(m)]
                for i in range(0, self.rows * n, n):
                    row = a[i:i + n]
                    out.extend(_const(sum(map(mul, row, col)), da * db) for col in cols)
                return PolyMatrix(self.rows, m, out)
            cols = [b[j::m] for j in range(m)]
            for i in range(0, self.rows * n, n):
                row = a[i:i + n]
                out.extend(_join(names, _dot(row, col), da * db) for col in cols)
            return PolyMatrix(self.rows, m, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "PolyMatrix":
        c = _as_poly(c)
        return PolyMatrix(self.rows, self.cols, [c * e for e in self.entries])

    def __eq__(self, other):
        return (isinstance(other, PolyMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def shape(self):
        return (self.rows, self.cols)

    def _same_shape(self, other):
        if not isinstance(other, PolyMatrix) or self.shape() != other.shape():
            raise ShapeError("shape mismatch")

    def map_entries(self, fn) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [fn(e) for e in self.entries])

    def derivative(self, name: str) -> "PolyMatrix":
        return self.map_entries(lambda e: e.derivative(name))

    def subs(self, assignment: dict) -> "PolyMatrix":
        return self.map_entries(lambda e: e.subs(assignment))

    def trace(self) -> MultiPoly:
        if not self.is_square():
            raise ShapeError("trace of non-square matrix")
        acc = MultiPoly.zero()
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    def commutator(self, other) -> "PolyMatrix":
        return self * other - other * self

    def variables(self):
        names = set()
        for e in self.entries:
            names.update(e.vars)
        return names

    def is_constant(self) -> bool:
        return all(e.is_const() for e in self.entries)

    def to_strings(self):
        return [[str(self[i, j]) for j in range(self.cols)] for i in range(self.rows)]

    def __str__(self):
        return "[" + "; ".join(", ".join(row) for row in self.to_strings()) + "]"

    def __repr__(self):
        return f"PolyMatrix({str(self)!r})"


def char_poly(m: PolyMatrix) -> MultiPoly:
    """det(v*I - M), monic of degree r in v.

    Faddeev-LeVerrier without divisions, on integer maps: with M = A / d
    over one layout (``_split``), Q_0 = I and Q_k = k * A * Q_(k-1) - t_k * I
    with t_k = tr(A * Q_(k-1)).  Q_k is d^k * k! times the classical
    iterate, so the coefficient of v^(r-k) is -t_k / (d^k * k!), and chi is
    one integer map over d^r * r!, built by one ``_join``.  The layout holds
    v, so entries that use v or any other name are placed exactly too.
    """
    if not m.is_square():
        raise ShapeError("characteristic polynomial of non-square matrix")
    r = m.rows
    names = _layout(m.entries, ("v",))
    a, d = _split(m.entries, names)
    rows = [a[i:i + r] for i in range(0, r * r, r)]
    iv = names.index("v")
    den = d ** r * math.factorial(r)
    chi = {tuple(r if i == iv else 0 for i in range(len(names))): den}
    aq = a  # A * Q_0
    for k in range(1, r + 1):
        t = {}
        for x in aq[::r + 1]:
            for e, c in x.items():
                t[e] = t.get(e, 0) + c
        scale = d ** (r - k) * (math.factorial(r) // math.factorial(k))
        for e, c in t.items():
            e = e[:iv] + (e[iv] + r - k,) + e[iv + 1:]
            chi[e] = chi.get(e, 0) - c * scale
        if k == r:
            break
        q = [{e: k * c for e, c in x.items() if c} for x in aq]
        for x in q[::r + 1]:
            for e, c in t.items():
                x[e] = x.get(e, 0) - c
        cols = [q[j::r] for j in range(r)]
        # the last product, A * Q_(r-1), is read only on its diagonal
        aq = [_dot(row, col) if k + 1 < r or i == j else None
              for i, row in enumerate(rows) for j, col in enumerate(cols)]
    return _join(names, chi, den)


def eval_poly_at_matrix(p: MultiPoly, name: str, m: PolyMatrix) -> PolyMatrix:
    """Evaluate a polynomial at a square matrix (Horner in ``name``, each
    coefficient added on the diagonal only)."""
    out = PolyMatrix.zeros(m.rows, m.cols)
    for c in reversed(p.coefficients_in(name)):
        entries = list((m * out).entries)
        for i in range(0, len(entries), m.cols + 1):
            entries[i] = entries[i] + c
        out = PolyMatrix(m.rows, m.cols, entries)
    return out


def _base_var(m: PolyMatrix) -> str:
    names = m.variables()
    if len(names) > 1:
        raise ShapeError(f"expected a univariate base, got {sorted(names)}")
    return names.pop() if names else "z"


# ---------------------------------------------------------------------------
# fraction-free elimination over the polynomial base ring
# ---------------------------------------------------------------------------

class SpanBasis:
    """Incremental row echelon over Q[base]; spans are over its fraction field.

    Fraction-free (Bareiss 1968) over Z[base]: each inserted vector, tag
    entries included, is first multiplied by the lcm of its entries'
    denominators, which changes neither the span nor the normalised
    relations.  Rows are the entries' integer numerator maps (``num``, see
    ``MultiPoly``) over one variable layout, re-laid out when a vector brings
    a new base variable; any number of base variables.  The i-th stored row
    has been through the i - 1 elimination steps before it, so its entries
    are minors of the scaled vectors and every division in ``_reduce`` is
    exact in Z[base].  ``insert`` may
    append tag entries to a vector; they are eliminated with it but never
    pivoted on, so when the vector reduces to zero they record the relation
    it satisfies.
    """

    def __init__(self):
        self.names = ()      # variable layout of the stored rows
        self.rows = []       # stored rows of integer maps, tag entries included
        self.pivots = []     # pivot column of each row

    def _scaled(self, polys):
        """The integer maps of ``polys`` times their common denominator."""
        names = _layout(polys, self.names)
        if names != self.names:
            self.rows = [[_relayout(x, self.names, names) for x in row] for row in self.rows]
            self.names = names
        return _split(polys, names)[0]

    def _reduce(self, vec):
        prev = None
        for row, pc in zip(self.rows, self.pivots):
            p, f = row[pc], {e: -c for e, c in vec[pc].items()}
            # (p * vec - f * row) / prev, also when f is 0: the scaling by
            # p / prev is what keeps the later divisions exact
            vec = [_int_addmul(_int_addmul({}, p, a), f, b) for a, b in zip(vec, row)]
            if prev is None:
                vec = [{e: c for e, c in x.items() if c} for x in vec]
            else:
                vec = [_int_quo(x, prev) for x in vec]
            prev = p
        return vec

    def insert(self, polys, tag):
        """Insert ``polys`` followed by the tag entries.  Returns None when
        the vector enlarged the span.  Otherwise returns its reduced tag t:
        with u_i the inserted vector tagged by the i-th unit vector,
        sum_i t_i * u_i = 0, and t is nonzero at this vector's own index."""
        vec = self._reduce(self._scaled(list(polys) + list(tag)))
        for pc in range(len(polys)):
            if vec[pc]:
                self.rows.append(vec)
                self.pivots.append(pc)
                return None
        return [_join(self.names, x) for x in vec[len(polys):]]

    def add(self, polys) -> bool:
        """Insert the vector; returns True when it enlarged the span."""
        return self.insert(polys, ()) is None

    def contains(self, polys) -> bool:
        return not any(self._reduce(self._scaled(list(polys))))

    def dimension(self) -> int:
        return len(self.rows)


def _relations(vectors, n, var: str):
    """The relations among ``vectors`` (at most n of them, over Q[var]),
    one for each vector that depends on the ones before it.

    Each vector goes into one fraction-free elimination tagged by its unit
    vector; a vector that reduces to zero yields its reduced tag, divided by
    the gcd of its entries and by its rational content, and signed so that
    its own entry has a positive leading coefficient.
    """
    echelon = SpanBasis()
    for i, polys in enumerate(vectors):
        rel = echelon.insert(polys, [ONE if j == i else ZERO for j in range(n)])
        if rel is None:
            continue
        g = _gcd_in(rel, var)
        if g.degree_in(var) > 0:
            rel = [exact_div(p, g) for p in rel]
        c = poly_content(*rel)
        if rel[i].num[max(rel[i].num)] < 0:
            c = -c
        yield tuple(p * (1 / c) for p in rel)


# base points of the evaluation certificates, tried in this order
_POINTS = (0, 1, -1, 2, -2)


def _at(num: dict, z0: int) -> int:
    """The integer map ``num`` evaluated with every variable set to z0."""
    return sum(c * z0 ** sum(e) for e, c in num.items())


def evaluate(m: PolyMatrix, z0: int) -> list:
    """den * M(z0) flattened row-major, with every base variable set to z0
    and den the lcm of the entries' denominators."""
    return [_at(x, z0) for x in _split(m.entries, _layout(m.entries))[0]]


def independent(vectors) -> bool:
    """True when the integer vectors are linearly independent over Q.

    Vectors of polynomials that are dependent over the base fraction field
    have all their maximal minors identically zero, so they are dependent
    at every point: independence at one point proves it over the field."""
    rows = [list(x) for x in vectors]  # only the rank is read: no back substitution
    return len(echelon(rows, len(rows[0]) if rows else 0)) == len(rows)


def nonderogatory_point(m: PolyMatrix):
    """The certificate that the square M is non-derogatory over the base
    fraction field: ``(z0, den, powers)`` for the first z0 in ``_POINTS`` at
    which I, N, ..., N^(r-1) are independent over Q (``independent``), with
    N = den * M(z0) and ``powers`` I, N, ..., N^r flattened row-major; None
    when no point certifies.  Then I, M, ..., M^(r-1) are independent, so
    the minimal polynomial of M has degree r."""
    r = m.rows
    entries, den = _split(m.entries, _layout(m.entries))
    ident = [int(i == j) for i in range(r) for j in range(r)]
    for z0 in _POINTS:
        n = [_at(x, z0) for x in entries]
        pows = [ident]
        for _ in range(r):
            p = pows[-1]
            pows.append([sum(n[i + k] * p[k * r + j] for k in range(r))
                         for i in range(0, r * r, r) for j in range(r)])
        if independent(pows[:r]):
            return z0, den, pows
    return None


def min_poly(m: PolyMatrix, chi: MultiPoly = None) -> MultiPoly:
    """Least-degree annihilating polynomial over the fraction field, made
    primitive over the base ring with a positive leading coefficient.

    ``chi`` is ``char_poly(m)``, computed here when not given.  If M is
    certified non-derogatory at a point z0 (``nonderogatory_point``), the
    answer is chi made primitive: m_M is primitive, so m_M(z0, v) is a
    nonzero annihilator of M(z0), and deg m_M >= deg m_{M(z0)} = r.  Otherwise
    the first relation (``_relations``) among vec(I), vec(M), vec(M^2), ...
    gives the coefficients.  Either answer is checked: chi(M(z0)) = 0, or
    m(M) = 0 and m divides chi.
    """
    if not m.is_square():
        raise ShapeError("minimal polynomial of non-square matrix")
    var = _base_var(m)
    if var == "v":
        raise ShapeError("entries must not use v, the variable of the minimal polynomial")
    chi = char_poly(m) if chi is None else chi
    r = m.rows
    cert = nonderogatory_point(m)
    if cert is not None:
        z0, den, pows = cert
        # den^r * chi(M(z0)) = sum_k chi_k(z0) * den^(r - k) * N^k must vanish
        coeffs = [_at(a, z0) for a in _in_var((chi,), "v")[1][0]]
        terms = [[c * den ** (r - k) * x for x in p] for k, (c, p) in enumerate(zip(coeffs, pows))]
        if len(coeffs) != r + 1 or any(map(sum, zip(*terms))):
            raise AssertionError("the characteristic polynomial does not annihilate M(z0)")
        return chi * (1 / poly_content(chi))

    def powers():
        power = PolyMatrix.identity(r)
        for _ in range(r + 1):
            yield power.entries
            power = m * power

    rel = next(_relations(powers(), r + 1, var), None)
    if rel is None:
        raise AssertionError("Cayley-Hamilton violated")  # unreachable
    v = MultiPoly.var("v")
    out = sum((c * v ** j for j, c in enumerate(rel)), ZERO)
    if not eval_poly_at_matrix(out, "v", m).is_zero():
        raise AssertionError("the minimal polynomial does not annihilate M")
    if not divides_in_v(out, chi):
        raise AssertionError("the minimal polynomial does not divide chi")
    return out


def kernel_saturated(m: PolyMatrix):
    """Saturated kernel basis over the polynomial base ring.

    The basis of the reduced echelon form over the fraction field (one
    vector per free column, supported on it and the pivot columns before
    it): the relations (``_relations``) among the columns of M, each
    primitive, with the free coordinate's leading coefficient positive.
    M times each basis vector is checked to vanish, as integer maps over
    one layout: a positive common denominator does not change a zero.
    """
    columns = ([m[i, j] for i in range(m.rows)] for j in range(m.cols))
    basis = list(_relations(columns, m.cols, _base_var(m)))
    if basis:
        names = _layout(m.entries + tuple(x for vec in basis for x in vec))
        rows, c = _split(m.entries, names)[0], m.cols
        for vec in basis:
            col = _split(vec, names)[0]
            if any(any(_dot(rows[i:i + c], col).values()) for i in range(0, len(rows), c)):
                raise AssertionError("M does not annihilate its kernel basis")
    return basis


# ---------------------------------------------------------------------------
# primitive pseudo-remainder sequences in one variable
# ---------------------------------------------------------------------------

def _in_var(polys, name):
    """``(names, lists)``: the layout ``names`` of ``polys`` and ``name``, and
    each poly times the common denominator as a list of integer maps over
    the other variables, indexed by the power of ``name`` (empty for 0)."""
    names = _layout(polys, (name,))
    i = names.index(name)
    lists = []
    for num in _split(polys, names)[0]:
        coeffs = [{} for _ in range(max((e[i] + 1 for e in num), default=0))]
        for e, c in num.items():
            coeffs[e[i]][e[:i] + e[i + 1:]] = c
        lists.append(coeffs)
    return names, lists


def _prem(f, g):
    """The pseudo-remainder of f by g (nonzero) in the main variable,
    divided by the gcd of its integer coefficients: lc(g) * f - lc(f) *
    name^k * g, repeated while deg f >= deg g."""
    lg, dg = g[-1], len(g) - 1
    while len(f) > dg:
        lf, k = f[-1], len(f) - 1 - dg
        f = [_int_addmul({}, lg, a) for a in f[:-1]]
        neg = {e: -c for e, c in lf.items()}
        for a, b in zip(f[k:], g):
            _int_addmul(a, neg, b)
        f = [{e: c for e, c in a.items() if c} for a in f]
        while f and not f[-1]:
            f.pop()
    content = math.gcd(*[c for a in f for c in a.values()])
    return [{e: c // content for e, c in a.items()} for a in f] if content > 1 else f


def _prs(f, g):
    """The last nonzero remainder of the primitive pseudo-remainder sequence
    of f and g: their gcd over the fraction field of the other variables,
    up to a unit."""
    while g:
        f, g = g, _prem(f, g)
    return f


def _gcd_in(polys, name) -> MultiPoly:
    """A gcd of ``polys`` as polynomials in ``name`` over the fraction field
    of the other variables (0 when all are 0), folded from the lowest degree
    up and stopped once it is free of ``name``."""
    names, lists = _in_var(polys, name)
    g = []
    for f in sorted(filter(None, lists), key=len):
        g = _prs(f, g)
        if len(g) == 1:
            break
    i = names.index(name)
    return _join(names, {e[:i] + (k,) + e[i:]: c
                         for k, a in enumerate(g) for e, c in a.items()})


def squarefree_in_v(p: MultiPoly) -> bool:
    """Squarefree test in v over the base fraction field: gcd(p, dp/dv)
    must be free of v.

    If p has positive degree in v and, at some z0 in ``_POINTS`` given to
    every base variable, keeps its leading coefficient and p(z0, v) is
    squarefree over Q, p is squarefree: the discriminant of p specializes
    to that of p(z0, v), which is nonzero.  Otherwise the primitive PRS
    decides.
    """
    f, g = _in_var((p, p.derivative("v")), "v")[1]
    for z0 in _POINTS if len(f) > 1 else ():
        f0, g0 = ([{(): c} if c else {} for c in (_at(a, z0) for a in h)] for h in (f, g))
        if f0[-1] and len(_prs(f0, g0)) == 1:
            return True
    return len(_prs(f, g)) <= 1


def divides_in_v(d: MultiPoly, p: MultiPoly) -> bool:
    """Exact divisibility in (base fraction field)[v]: a nonzero ``d``
    divides ``p`` exactly when the pseudo-remainder of p by d is zero.
    Works over any number of base variables."""
    dl, pl = _in_var((d, p), "v")[1]
    return bool(dl) and not _prem(pl, dl)
