"""Independent reference computations for checking `azk` reports.

Nothing here imports `azumaya`: the expected answers are computed from the
textbook formulas and rendered in the library's documented canonical text
form (graded-lex descending terms, `p/q` coefficients, `/1` omitted).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial


# -- canonical polynomial text ------------------------------------------------

def render_poly(names, terms) -> str:
    """`MultiPoly` text for {exponent tuple: Fraction} over `names`, which
    must already be in the library's canonical variable order."""
    items = sorted(((e, c) for e, c in terms.items() if c),
                   key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)
    if not items:
        return "0"
    out = []
    for idx, (e, c) in enumerate(items):
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        mag = abs(c)
        body = mono if mono and mag == 1 else f"{mag}*{mono}" if mono else str(mag)
        if idx == 0:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(out)


def lam_poly_str(c: dict) -> str:
    """Text of a polynomial in `lam` given as {power: Fraction}."""
    return render_poly(("lam",), {(k,): v for k, v in c.items()})


# -- Weyl algebra -----------------------------------------------------------
# An element is {(a, b): {lam power: Fraction}} for the normal-ordered
# monomial x^a d^b, with a and b exponent tuples of length n.

def _add_into(out, key, coeff):
    acc = out.setdefault(key, {})
    for k, v in coeff.items():
        s = acc.get(k, 0) + v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    if not acc:
        del out[key]


def weyl_mul(p: dict, q: dict, n: int) -> dict:
    """Normal-ordered product from d^m x^k = sum_j C(m,j) C(k,j) j! lam^j
    x^(k-j) d^(m-j), applied per variable."""
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            for ks in product(*(range(min(b1[i], a2[i]) + 1) for i in range(n))):
                mult = 1
                for i, j in enumerate(ks):
                    mult *= comb(b1[i], j) * comb(a2[i], j) * factorial(j)
                shift = sum(ks)
                coeff = {}
                for e1, v1 in c1.items():
                    for e2, v2 in c2.items():
                        k = e1 + e2 + shift
                        coeff[k] = coeff.get(k, 0) + v1 * v2 * mult
                key = (tuple(a1[i] + a2[i] - ks[i] for i in range(n)),
                       tuple(b1[i] + b2[i] - ks[i] for i in range(n)))
                _add_into(out, key, coeff)
    return out


def weyl_add(p: dict, q: dict, sign=1) -> dict:
    out = {k: dict(v) for k, v in p.items()}
    for key, c in q.items():
        _add_into(out, key, {k: sign * v for k, v in c.items()})
    return out


def weyl_pow(p: dict, k: int, n: int) -> dict:
    out = {((0,) * n, (0,) * n): {0: Fraction(1)}}
    for _ in range(k):
        out = weyl_mul(out, p, n)
    return out


def specialize(p: dict, lam) -> dict:
    """Fixed-lam fiber: every coefficient becomes a constant."""
    out = {}
    for key, c in p.items():
        v = sum(coef * Fraction(lam) ** k for k, coef in c.items())
        if v:
            out[key] = {0: v}
    return out


def _gen_names(n):
    if n == 1:
        return ("x",), ("d",)
    return (tuple(f"x{i + 1}" for i in range(n)), tuple(f"d{i + 1}" for i in range(n)))


def weyl_str(p: dict, n: int) -> str:
    """`WeylElement` canonical text."""
    if not p:
        return "0"
    xs, ds = _gen_names(n)
    items = sorted(p.items(), key=lambda kv: (sum(kv[0][0]) + sum(kv[0][1]), kv[0]),
                   reverse=True)
    out = []
    for idx, ((a, b), c) in enumerate(items):
        mono = "*".join([f"{nm}^{k}" if k > 1 else nm for nm, k in zip(xs, a) if k]
                        + [f"{nm}^{k}" if k > 1 else nm for nm, k in zip(ds, b) if k])
        text = lam_poly_str(c)
        if len(c) > 1:
            neg, mag = False, f"({text})"
        else:
            neg, mag = text.startswith("-"), text.lstrip("-")
        if mag == "1" and mono:
            body = mono
        else:
            body = f"{mag}*{mono}" if mono else mag
        if idx == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f" - {body}" if neg else f" + {body}")
    return "".join(out)


def weyl_input(p: dict, n: int) -> str:
    """An expression the `azk` Weyl parser reads back as `p`."""
    if not p:
        return "0"
    xs, ds = _gen_names(n)
    parts = []
    for (a, b), c in p.items():
        factors = [f"{nm}^{k}" for nm, k in zip(xs, a) if k]
        factors += [f"{nm}^{k}" for nm, k in zip(ds, b) if k]
        parts.append("*".join([f"({lam_poly_str(c)})"] + factors))
    return " + ".join(parts)


def weyl_fourier(p: dict, n: int) -> dict:
    """x_i -> d_i, d_i -> -x_i, re-normal-ordered."""
    zero = (0,) * n
    out = {}
    for (a, b), c in p.items():
        sign = -1 if sum(b) % 2 else 1
        left = {(zero, a): {0: Fraction(1)}}
        right = {(b, zero): {k: sign * v for k, v in c.items()}}
        out = weyl_add(out, weyl_mul(left, right, n))
    return out


def weyl_act(p: dict, f: dict, n: int, lam) -> dict:
    """Action on Q[x]: x_i multiplies, d_i is lam * d/dx_i.  `p` is fixed
    mode (constant coefficients), `f` is {exponent tuple: Fraction}."""
    lam = Fraction(lam)
    out = {}
    for (a, b), c in p.items():
        for e, v in f.items():
            if any(e[i] < b[i] for i in range(n)):
                continue
            mult = c[0] * v * lam ** sum(b)
            for i in range(n):
                mult *= factorial(e[i]) // factorial(e[i] - b[i])
            key = tuple(e[i] - b[i] + a[i] for i in range(n))
            s = out.get(key, 0) + mult
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def weyl_reduce(p: dict, n: int):
    """The certificate walk: [d_i, -] while x_i occurs, then [-, x_i] while
    d_i occurs.  Returns (steps, final scalar coefficient)."""
    zero = (0,) * n
    steps, cur = [], p
    for i in range(n):
        unit = tuple(int(t == i) for t in range(n))
        gen = {(zero, unit): {0: Fraction(1)}}
        while max((a[i] for a, _ in cur), default=0) > 0:
            cur = weyl_add(weyl_mul(gen, cur, n), weyl_mul(cur, gen, n), -1)
            steps.append({"generator": f"d{i + 1}", "side": "left"})
    for i in range(n):
        unit = tuple(int(t == i) for t in range(n))
        gen = {(unit, zero): {0: Fraction(1)}}
        while max((b[i] for _, b in cur), default=0) > 0:
            cur = weyl_add(weyl_mul(cur, gen, n), weyl_mul(gen, cur, n), -1)
            steps.append({"generator": f"x{i + 1}", "side": "right"})
    return steps, cur[(zero, zero)]


# -- Cech cochains ----------------------------------------------------------

def coboundary_mu(beta: dict, size: int, n: int) -> dict:
    """(d beta)_ijk = b_jk - b_ik + b_ij in Z/n, for an antisymmetric beta
    given on pairs i < j; identity values are omitted."""
    def b(i, j):
        if i == j:
            return 0
        return beta.get((i, j), 0) if i < j else (-beta.get((j, i), 0)) % n
    out = {}
    for i, j, k in product(range(size), repeat=3):
        if len({i, j, k}) == 3:
            v = (b(j, k) - b(i, k) + b(i, j)) % n
            if v:
                out[(i, j, k)] = v
    return out


def coboundary_qstar(beta: dict, size: int) -> dict:
    """(d beta)_ijk = b_jk / b_ik * b_ij in Q*, identity values omitted."""
    def b(i, j):
        if i == j:
            return Fraction(1)
        return beta.get((i, j), Fraction(1)) if i < j else 1 / beta.get((j, i), Fraction(1))
    out = {}
    for i, j, k in product(range(size), repeat=3):
        if len({i, j, k}) == 3:
            v = b(j, k) / b(i, k) * b(i, j)
            if v != 1:
                out[(i, j, k)] = v
    return out


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_inv(a):
    """Gauss-Jordan inverse over Q, or None when singular."""
    r = len(a)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(r)] for i, row in enumerate(a)]
    for col in range(r):
        piv = next((i for i in range(col, r) if aug[i][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = aug[col][col]
        aug[col] = [x / inv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return [row[r:] for row in aug]
