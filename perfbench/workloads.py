"""Seeded request mixes for the three benchmark workloads.

Each generator returns one *pass*: a list of `Request`s, every one a real
`azk` command line (mostly on a JSON problem file) together with the answer
the generator knows for it.  The mix of commands and sizes is a fixed table
per workload; the seed only draws the contents (coefficients, roots,
cochain values, which entry is perturbed).  So every seed costs about the
same and the figures of different seeds can be compared.

Expected answers come from the construction (a coboundary is a cocycle, a
companion matrix has its defining polynomial as characteristic and minimal
polynomial, ...) or from `oracle`, never from `azumaya` itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle as O

DEFAULT_SEED = 0
STATUS_BY_EXIT = {0: "ok", 1: "error", 2: "violation"}


@dataclass
class Request:
    kind: str                      # label of the stratum, e.g. "weyl nf power"
    argv: list                     # azk arguments; a problem file path is appended
    problem: dict | str | None = None   # file body (dict -> JSON, str -> raw text)
    exit: int = 0
    data: dict = field(default_factory=dict)     # expected subset of report["data"]
    verify: Callable | None = None               # extra check on report["data"]
    cap_s: float = 5.0
    path: str | None = None

    def command_argv(self):
        return self.argv + ([self.path] if self.path else [])


def problem(command: str, payload: dict) -> dict:
    return {"version": 1, "command": command, "payload": payload}


def file_request(kind, command, payload, **kw) -> Request:
    return Request(kind, command.split(), problem(command, payload), **kw)


def materialize(requests, prefix: str):
    """Write every problem file into the working directory under a bare name
    (reports quote it, so it must not depend on where the checkout is)."""
    for idx, req in enumerate(requests):
        if req.problem is None:
            continue
        req.path = f"{prefix}{idx:04d}.json"
        body = req.problem if isinstance(req.problem, str) else json.dumps(req.problem)
        with open(req.path, "w", encoding="utf-8") as fh:
            fh.write(body)


def check(req: Request, code, out: str, exc) -> str | None:
    """None when the report is right, else a one-line reason."""
    if exc is not None:
        return f"{type(exc).__name__} escaped cli.main: {exc}"
    if code != req.exit:
        return f"exit code {code}, expected {req.exit}"
    try:
        rep = json.loads(out)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if rep.get("status") != STATUS_BY_EXIT[req.exit]:
        return f"status {rep.get('status')!r}"
    data = rep.get("data", {})
    for key, want in req.data.items():
        if data.get(key) != want:
            return f"data[{key!r}] = {str(data.get(key))[:80]!r}, expected {str(want)[:80]!r}"
    if req.verify is not None:
        return req.verify(data)
    return None


def suite_request(kind, name, seed, count) -> Request:
    return Request(kind, ["demo", name, "--seed", str(seed), "--count", str(count)],
                   data={"suite": name, "seed": seed, "count": count,
                         "passes": count, "failures": 0})


def _fill(rng, table):
    """Expand [(count, maker)] into requests and shuffle the pass order."""
    out = []
    for count, maker in table:
        out.extend(maker(rng, i) for i in range(count))
    rng.shuffle(out)
    return out


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _shape(kind, i):
    """Structure of slot i of a stratum (exponents, conjugating matrices,
    lambda), the same for every seed, so that the seed moves the values in a
    request but hardly its cost."""
    return random.Random(f"shape:{kind}:{i}")


# ---------------------------------------------------------------------------
# weyl-algebra
# ---------------------------------------------------------------------------

def _rand_weyl(rng, shape, n, formal, terms=3, bideg=3):
    """Exponents (and which terms carry lam) from `shape`, values from `rng`."""
    p = {}
    while not p:
        for _ in range(terms):
            a = tuple(shape.randint(0, bideg) for _ in range(n))
            b = tuple(shape.randint(0, bideg) for _ in range(n))
            c = {0: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))}
            if formal and shape.random() < 0.5:
                c[shape.randint(1, 2)] = Fraction(rng.choice([-2, -1, 1, 2]))
            O._add_into(p, (a, b), c)
    return p


def _linear_weyl(rng, n):
    """Sum of every generator with a random nonzero coefficient."""
    p = {}
    for i in range(n):
        unit = tuple(int(t == i) for t in range(n))
        zero = (0,) * n
        p[(unit, zero)] = {0: Fraction(rng.choice([-2, -1, 1, 2, 3]))}
        p[(zero, unit)] = {0: Fraction(rng.choice([-2, -1, 1, 2, 3]))}
    return p


def _lam(rng):
    return Fraction(rng.choice([1, 2, -1, 3])) / rng.choice([1, 1, 2])


def _weyl_payload(expr, n, lam):
    return {"expr": expr, "n": n, "lam": "formal" if lam is None else str(lam)}


def _weyl_nf(kind, expr, n, lam, expected):
    value = expected if lam is None else O.specialize(expected, lam)
    return file_request(kind, "weyl nf", _weyl_payload(expr, n, lam),
                        data={"normal_form": O.weyl_str(value, n)})


def _w_power(n, ks, formal):
    def make(rng, i):
        k = ks[i % len(ks)]
        base = _linear_weyl(rng, n)
        lam = None if formal else _lam(_shape("power", i))
        expr = f"({O.weyl_input(base, n)})^{k}"
        return _weyl_nf(f"weyl nf power n={n}", expr, n, lam, O.weyl_pow(base, k, n))
    return make


def _w_product(rng, i):
    n = 1 + i % 2
    formal = i % 4 < 2
    shape = _shape("product", i)
    lam = None if formal else _lam(shape)
    nfactors = 2 + i % 2
    factors = [_rand_weyl(rng, shape, n, formal, bideg=5 - nfactors) for _ in range(nfactors)]
    if lam is not None:
        factors = [O.specialize(f, lam) for f in factors]
        factors = [f if f else {((0,) * n, (0,) * n): {0: Fraction(1)}} for f in factors]
    expr = "*".join(f"({O.weyl_input(f, n)})" for f in factors)
    value = factors[0]
    for f in factors[1:]:
        value = O.weyl_mul(value, f, n)
    return _weyl_nf("weyl nf product", expr, n, lam, value)


def _w_act(rng, i):
    n = 1 + i % 2
    shape = _shape("act", i)
    lam = _lam(shape)
    elem = O.specialize(_rand_weyl(rng, shape, n, False), lam) or {((0,) * n, (0,) * n): {0: Fraction(1)}}
    names = ("x",) if n == 1 else tuple(f"x{t + 1}" for t in range(n))
    f = {}
    while not f:
        for _ in range(4):
            e = tuple(shape.randint(0, 5) for _ in range(n))
            f[e] = f.get(e, 0) + Fraction(rng.randint(-3, 3))
        f = {e: c for e, c in f.items() if c}
    payload = _weyl_payload(O.weyl_input(elem, n), n, lam)
    payload["poly"] = O.render_poly(names, f)
    return file_request("weyl act", "weyl act", payload,
                        data={"result": O.render_poly(names, O.weyl_act(elem, f, n, lam))})


def _w_fourier(rng, i):
    n = 1 + i % 2
    formal = i % 3 != 0
    shape = _shape("fourier", i)
    lam = None if formal else _lam(shape)
    elem = _rand_weyl(rng, shape, n, formal)
    if lam is not None:
        elem = O.specialize(elem, lam) or {((0,) * n, (0,) * n): {0: Fraction(1)}}
    value = O.weyl_fourier(elem, n)
    if lam is not None:
        value = O.specialize(value, lam)
    return file_request("weyl fourier", "weyl fourier",
                        _weyl_payload(O.weyl_input(elem, n), n, lam),
                        data={"result": O.weyl_str(value, n)})


def _w_reduce(rng, i):
    n = 1 + i % 2
    formal = i % 3 != 0
    shape = _shape("reduce", i)
    lam = None if formal else _lam(shape)
    elem = _rand_weyl(rng, shape, n, formal)
    if lam is not None:
        elem = O.specialize(elem, lam) or {((0,) * n, (0,) * n): {0: Fraction(1)}}
    steps, scalar = O.weyl_reduce(elem, n)
    if lam is not None:
        scalar = {0: sum(c * lam ** k for k, c in scalar.items())}
    return file_request("weyl reduce", "weyl reduce",
                        _weyl_payload(O.weyl_input(elem, n), n, lam),
                        data={"steps": steps, "scalar": O.lam_poly_str(scalar)})


def _suites(names_counts, kind):
    """One request per suite.  A suite draws its own random sizes from its
    seed, so that seed is part of the slot's fixed structure: drawn from the
    run seed, one `mixed-assoc` request alone moved a pass by a tenth."""
    def make(rng, i):
        name, count = names_counts[i]
        return suite_request(kind, name, _shape(kind, i).randrange(10 ** 6), count)
    return make


WEYL_SUITES = [("weyl-assoc", 4), ("weyl-action", 6), ("weyl-fourier", 2),
               ("weyl-reduce", 6), ("lambda-commute", 10), ("lambda-torsion", 10),
               ("mixed-assoc", 1)]


def weyl_algebra(seed):
    rng = _rng("weyl-algebra", seed)
    return _fill(rng, [
        (8, _w_power(1, (6, 8, 10, 12), formal=False)),
        (8, _w_power(1, (5, 6, 7, 8), formal=True)),
        (6, _w_power(2, (3, 4, 5), formal=False)),
        (4, _w_power(2, (3, 4), formal=True)),
        (30, _w_product),
        (18, _w_act),
        (14, _w_fourier),
        (14, _w_reduce),
        (len(WEYL_SUITES), _suites(WEYL_SUITES, "demo weyl suite")),
    ])


# ---------------------------------------------------------------------------
# spectral-elim: polynomials in z are {degree: Fraction}, matrices are lists
# of rows of such polynomials, bivariate polynomials are {(zdeg, vdeg): c}.
# ---------------------------------------------------------------------------

def _padd(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
        if not out[k]:
            del out[k]
    return out


def _pmul(p, q):
    out = {}
    for a, x in p.items():
        for b, y in q.items():
            out[a + b] = out.get(a + b, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _mmul(a, b):
    r = len(a)
    out = []
    for i in range(r):
        row = []
        for j in range(len(b[0])):
            acc = {}
            for k in range(len(b)):
                acc = _padd(acc, _pmul(a[i][k], b[k][j]))
            row.append(acc)
        out.append(row)
    return out


def _const(m):
    return [[({0: Fraction(x)} if x else {}) for x in row] for row in m]


def _zstr(p):
    return O.render_poly(("z",), {(k,): v for k, v in p.items()})


def _mstr(m):
    return [[_zstr(x) for x in row] for row in m]


def _unimodular(rng, r):
    """Random integer matrix of determinant +-1 and its inverse."""
    p = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    for _ in range(2 * r):
        i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
        if i != j:
            m = rng.choice([-2, -1, 1, 2])
            p[i] = [x + m * y for x, y in zip(p[i], p[j])]
    return p, O.mat_inv(p)


def _conjugate(shape, m):
    p, pinv = _unimodular(shape, len(m))
    return _mmul(_mmul(_const(p), m), _const(pinv))


def _vpoly_from_roots(roots):
    """prod (v - r_i(z)) as {(zdeg, vdeg): c}."""
    f = {(0, 0): Fraction(1)}
    for root in roots:
        lin = {(0, 1): Fraction(1)}
        for k, c in root.items():
            lin[(k, 0)] = lin.get((k, 0), 0) - c
        out = {}
        for (a1, b1), x in f.items():
            for (a2, b2), y in lin.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + x * y
        f = {k: v for k, v in out.items() if v}
    return f


def _companion(f, r):
    """Companion matrix of the monic (in v) polynomial f of degree r."""
    coeff = [{} for _ in range(r)]
    for (zd, vd), c in f.items():
        if vd < r:
            coeff[vd][zd] = coeff[vd].get(zd, 0) + c
    m = [[{} for _ in range(r)] for _ in range(r)]
    for i in range(r - 1):
        m[i + 1][i] = {0: Fraction(1)}
    for i in range(r):
        m[i][r - 1] = {k: -v for k, v in coeff[i].items() if v}
    return m


def _vstr(f):
    return O.render_poly(("z", "v"), f)


def _rand_roots(rng, frame, count, deg=1):
    """Roots c or +-z + c: signs from `frame`, nonzero constants from `rng`,
    except that the first root in z is +-z.  Larger or zero coefficients
    elsewhere make the elimination cost swing several-fold by seed."""
    roots = []
    for t in range(count):
        root = {0: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))}
        if deg:
            root[1] = Fraction(frame.choice([-1, 1]))
            if t == 0:
                del root[0]
        roots.append(root)
    return roots


def _higgs(rng, r, shape, frame, root_deg=1):
    """(phi, cover, image ideal, reduced) for a seeded single Higgs field:
    roots from `rng`, conjugated by a unimodular matrix drawn from `frame`.

    shape "distinct": distinct roots, cyclic, cover == image, reduced.
    shape "repeated": one double root, cyclic, cover == image, not reduced.
    shape "derogatory": diag(C_g, C_g), cover g^2, image g, not reduced.
    """
    if shape == "derogatory":
        half = r // 2
        roots = []
        while len({tuple(sorted(x.items())) for x in roots}) < half:
            roots = _rand_roots(rng, frame, half, root_deg)
        g = _vpoly_from_roots(roots)
        c = _companion(g, half)
        m = [[{} for _ in range(r)] for _ in range(r)]
        for i in range(half):
            for j in range(half):
                m[i][j] = c[i][j]
                m[half + i][half + j] = c[i][j]
        return _conjugate(frame, m), _vpoly_from_roots(roots + roots), g, False
    roots = []
    while len({tuple(sorted(x.items())) for x in roots}) < (r if shape == "distinct" else r - 1):
        roots = _rand_roots(rng, frame, r, root_deg)
        if shape == "repeated":
            roots[-1] = roots[0]
    f = _vpoly_from_roots(roots)
    return _conjugate(frame, _companion(f, r)), f, f, shape == "distinct"


# (rank, shape, degree of the roots in z).  A rank-4 field with roots in z
# costs 0.8-2.3 s depending on the seed, so that size is left to the min_poly
# ladder and the rank-4 fields here are derogatory or constant.
COVER_PLAN = [(2, "distinct", 1)] * 4 + [(2, "repeated", 1)] * 2 + [(3, "distinct", 1)] * 2 + [
    (3, "repeated", 1)] * 2 + [(4, "distinct", 0), (4, "derogatory", 1)]


def _s_cover(rng, i):
    r, shape, root_deg = COVER_PLAN[i]
    phi, cover, image, reduced = _higgs(rng, r, shape, _shape("cover", i), root_deg)
    return file_request(f"spec cover r={r}", "spec cover",
                        {"rank": r, "base_vars": ["z"], "phis": [_mstr(phi)]},
                        data={"cover": _vstr(cover), "reduced": reduced,
                              "image_ideal": _vstr(image),
                              "image_equals_cover": cover == image}, cap_s=10.0)


ADMISSIBLE_PLAN = [(2, False)] * 3 + [(2, True)] + [(3, False)] * 2 + [(3, True)] + [
    (4, False)] * 2


def _s_admissible(rng, i):
    r, reject = ADMISSIBLE_PLAN[i]
    # constant roots at rank 4: with roots in z the closure takes seconds
    phi, _, _, _ = _higgs(rng, r, "distinct", _shape("admissible", i), root_deg=int(r < 4))
    if reject:
        other = _const([[rng.randint(-2, 2) for _ in range(r)] for _ in range(r)])
        other[0][r - 1] = {0: Fraction(5)}
        if _mmul(phi, other) != _mmul(other, phi):
            return file_request("spec admissible reject", "spec admissible",
                                {"rank": r, "phis": [_mstr(phi), _mstr(other)]},
                                exit=2, data={"admissible": False})
    c0, c1 = Fraction(rng.randint(-2, 2)), Fraction(rng.choice([-1, 1, 2]))
    # c0 + c1 phi (+ phi^2 below rank 4, where the closure would take seconds)
    square = _mmul(phi, phi) if r < 4 else [[{}] * r for _ in range(r)]
    second = [[_padd(_padd({0: c0} if i == j else {}, {k: c1 * v for k, v in phi[i][j].items()}),
                     square[i][j]) for j in range(r)] for i in range(r)]

    def verify(data, r=r):
        if len(data.get("subalgebra_basis", ())) != r:
            return f"subalgebra dimension {len(data.get('subalgebra_basis', ()))}, expected {r}"
        return None
    return file_request(f"spec admissible r={r}", "spec admissible",
                        {"rank": r, "phis": [_mstr(phi), _mstr(second)]},
                        data={"admissible": True}, verify=verify, cap_s=10.0)


FAMILY_PLAN = [(2, 0), (2, 0), (3, 0), (2, 3), (2, 3), (2, 3), (2, 4), (2, 5), (3, 3)]


def _s_family(rng, i):
    r, degree = FAMILY_PLAN[i]
    shape = _shape("family", i)
    phi, cover, image, reduced = _higgs(rng, r, "distinct", shape)
    payload = {"rank": r, "phis": [_mstr(phi)], "degree": max(degree, 1)}
    if degree == 0:
        payload["lambda"] = "0"
        data = {"lambda": "0", "cover": _vstr(cover), "reduced": reduced,
                "image_ideal": _vstr(image)}
    else:
        lam = _lam(shape)
        payload["lambda"] = str(lam)
        monomials = (degree + 1) * (degree + 2) // 2
        data = {"lambda": str(lam), "degree": degree, "monomials": monomials,
                "rank": monomials, "kernel_dim": 0, "injective": True}
    return file_request(f"spec family r={r} deg={degree}", "spec family", payload,
                        data=data, cap_s=10.0)


def _disc_zero(rng):
    """Constant 2x2 A = c I + N with N nilpotent (discriminant zero)."""
    t, s = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
    if t == 0 and s == 0:
        t = Fraction(1)
    a4 = Fraction(rng.randint(-2, 2))
    return [[a4 + 2 * t * s, t * t], [-s * s, a4]]


def _qstr(m):
    return [[str(x) for x in row] for row in m]


SOLVE_BOUNDS = (2, 2, 2, 3, 4, 4, 5, 6, 6, 8, 10, 14)


def _s_solve(rng, i):
    bound = SOLVE_BOUNDS[i]
    shape = _shape("solve", i)
    if i % 2 == 0:
        a, dim = _disc_zero(rng), 4
    else:
        e1, e2 = rng.sample(range(-3, 4), 2)
        p, pinv = _unimodular(shape, 2)
        a, dim = O.mat_mul(O.mat_mul(p, [[Fraction(e1), Fraction(0)], [Fraction(0), Fraction(e2)]]), pinv), 2
    lam = _lam(shape)

    def verify(data, dim=dim):
        return None if len(data.get("basis", ())) == dim else "basis length differs from dimension"
    return file_request(f"azu solve d={bound}", "azu solve",
                        {"A": _qstr(a), "lambda": str(lam), "deg_bound": bound},
                        data={"deg_bound": bound, "dimension": dim}, verify=verify, cap_s=10.0)


def _eigen_case(b1, b2, b4):
    """Pushforward case of B with degree-0 part [[b1, b2], [0, b4]]."""
    if b1 != b4:
        return "DistinctEigen", [str(min(b1, b4)), str(max(b1, b4))]
    return ("RepeatedNilpotent" if b2 else "RepeatedSemisimple"), [str(b1)]


def _s_report(rng, i):
    a, lam = _disc_zero(rng), _lam(_shape("report", i))
    b1, b4 = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
    b2 = Fraction(rng.randint(1, 3))
    if i % 3 == 1:
        b4 = b1
    elif i % 3 == 2:
        b4, b2 = b1, Fraction(0)
    case, eig = _eigen_case(b1, b2, b4)
    payload = {"A": _qstr(a), "lambda": str(lam), "bhat": [str(b1), str(b2), "0", str(b4)]}
    data = {"case": case, "eigenvalues": eig}
    if i % 2 == 0:
        payload["deg_bound"] = 2 + 2 * (i % 3)
        data["solve_dimension"] = 4
    return file_request("azu report", "azu report", payload, data=data)


def _s_basis(rng, i):
    return file_request("azu basis", "azu basis",
                        {"A": _qstr(_disc_zero(rng)), "lambda": str(_lam(_shape("basis", i)))},
                        data={"discriminant": "0"},
                        verify=lambda d: None if len(d.get("basis", ())) == 4 else "basis is not four matrices")


def _s_classify(rng, i):
    e1 = Fraction(rng.randint(-3, 3))
    e2 = e1 if i % 3 else Fraction(rng.choice([x for x in range(-3, 4) if x != e1]))
    k = Fraction(rng.choice([-2, -1, 1, 2])) if i % 3 != 2 else Fraction(0)
    p, pinv = _unimodular(_shape("classify", i), 2)
    upper = [[{0: e1} if e1 else {}, {1: k} if k else {}], [{}, {0: e2} if e2 else {}]]
    b = _mmul(_mmul(_const(p), upper), _const(pinv))
    case, eig = _eigen_case(e1, k, e2)
    return file_request("azu classify", "azu classify", {"B": _mstr(b)},
                        data={"case": case, "eigenvalues": eig})


def _s_demo(rng, i):
    if i == 0:
        return Request("demo example-5-1-11", ["demo", "example-5-1-11"],
                       data={"span_match": True, "char_match": True,
                             "constraint_residuals_zero": True, "solve_dimension": 4})
    b1, b4 = rng.randint(-3, 3), rng.randint(-3, 3)
    b2 = rng.randint(0, 2)
    case, _ = _eigen_case(Fraction(b1), Fraction(b2), Fraction(b4))
    return Request("demo example-5-1-11", ["demo", "example-5-1-11", f"--bhat={b1},{b2},0,{b4}"],
                   data={"span_match": True, "char_match": True,
                         "constraint_residuals_zero": True},
                   verify=lambda d, case=case: None if d["pushforward"]["case"] == case else "wrong case")


SPECTRAL_SUITES = [("cayley-hamilton", 6), ("spectral-divides", 6),
                   ("spectral-roundtrip", 2), ("charpoly-b0", 12)]


def spectral_elim(seed):
    rng = _rng("spectral-elim", seed)
    return _fill(rng, [
        (len(COVER_PLAN), _s_cover),
        (len(ADMISSIBLE_PLAN), _s_admissible),
        (len(FAMILY_PLAN), _s_family),
        (len(SOLVE_BOUNDS), _s_solve),
        (12, _s_report),
        (18, _s_basis),
        (22, _s_classify),
        (3, _s_demo),
        (len(SPECTRAL_SUITES), _suites(SPECTRAL_SUITES, "demo spectral suite")),
    ])


# ---------------------------------------------------------------------------
# cech-twists
# ---------------------------------------------------------------------------

def _cochain_json(group, n, size, values, key="ijk"):
    """The CLI wire form of a 2-cochain (key "ijk") or 1-cochain ("ij")."""
    out = {"group": group, "indices": size,
           "values": [{key: list(t), "v": v if group == "mu" else str(v)}
                      for t, v in sorted(values.items())]}
    if group == "mu":
        out["n"] = n
    return out



def _beta(rng, group, n, size):
    vals = {}
    for i in range(size):
        for j in range(i + 1, size):
            if group == "mu":
                v = rng.randrange(n)
                if v:
                    vals[(i, j)] = v
            else:
                vals[(i, j)] = Fraction(rng.choice([1, 2, 3, 5, -1, -2]), rng.choice([1, 2, 3]))
    return vals


def _cocycle(rng, group, n, size):
    beta = _beta(rng, group, n, size)
    alpha = O.coboundary_mu(beta, size, n) if group == "mu" else O.coboundary_qstar(beta, size)
    return beta, alpha


def _perturb(rng, group, n, size, alpha):
    """Change one value on a triple of distinct indices.  The first index is
    fixed at size // 2, so an early-exit scan always stops about halfway."""
    bad = dict(alpha)
    mid = size // 2
    t = (mid,) + tuple(rng.sample([x for x in range(size) if x != mid], 2))
    if group == "mu":
        bad[t] = (bad.get(t, 0) + rng.randint(1, n - 1)) % n
        if not bad[t]:
            del bad[t]
    else:
        bad[t] = bad.get(t, Fraction(1)) * 2
        if bad[t] == 1:
            del bad[t]
    return bad


CHECK_PLAN = [(4, "mu", False), (6, "qstar", False), (8, "mu", False), (10, "qstar", False),
              (12, "mu", False), (14, "mu", False), (16, "mu", False), (8, "qstar", False),
              (6, "mu", False), (10, "mu", False),
              (6, "mu", True), (8, "qstar", True), (10, "mu", True), (12, "qstar", True),
              (14, "mu", True), (16, "qstar", True), (16, "mu", True), (12, "mu", True)]


def _c_check(rng, i):
    size, group, reject = CHECK_PLAN[i]
    n = rng.choice([2, 3, 4, 6]) if group == "mu" else None
    _, alpha = _cocycle(rng, group, n, size)
    if reject:
        return file_request(f"coc check reject N={size}", "coc check",
                            _cochain_json(group, n, size, _perturb(rng, group, n, size, alpha)),
                            exit=2, data={"cocycle": False})
    return file_request(f"coc check N={size}", "coc check", _cochain_json(group, n, size, alpha),
                        data={"cocycle": True}, cap_s=10.0)


# Deciding at N=8 or 9 costs 40-120 ms depending on alpha, right at the
# 90th percentile of this mix, so the accepted sizes skip them.
DECIDE_PLAN = [(4, False), (5, False), (6, False), (6, False), (7, False), (10, False),
               (10, False), (5, True), (7, True), (9, True), (10, True)]


def _c_decide(rng, i):
    size, reject = DECIDE_PLAN[i]
    n = rng.choice([2, 3, 4, 6])
    _, alpha = _cocycle(rng, "mu", n, size)
    if reject:
        # break antisymmetry: alpha_ijk != -alpha_ikj is never a coboundary
        t = tuple(rng.sample(range(size), 3))
        bad = dict(alpha)
        bad[t] = (bad.get(t, 0) + 1) % n
        if not bad[t]:
            del bad[t]
        return file_request(f"coc coboundary reject N={size}", "coc coboundary",
                            {"alpha": _cochain_json("mu", n, size, bad)},
                            data={"is_coboundary": False})

    def verify(data, n=n, size=size, alpha=alpha):
        w = data.get("witness") or {}
        beta = {tuple(item["ij"]): item["v"] % n for item in w.get("values", ())}
        if O.coboundary_mu(beta, size, n) != alpha:
            return "witness does not replay to alpha"
        return None
    return file_request(f"coc coboundary decide N={size}", "coc coboundary",
                        {"alpha": _cochain_json("mu", n, size, alpha)},
                        data={"is_coboundary": True}, verify=verify, cap_s=10.0)


def _c_build(rng, i):
    size = (4, 6, 8, 10, 12)[i % 5]
    group = "mu" if i % 2 else "qstar"
    n = rng.choice([2, 3, 4, 6]) if group == "mu" else None
    beta, alpha = _cocycle(rng, group, n, size)
    return file_request(f"coc coboundary build N={size}", "coc coboundary",
                        {"beta": _cochain_json(group, n, size, beta, key="ij")},
                        data={"coboundary": _cochain_json(group, n, size, alpha)})


def _invertible(rng, r):
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(r)] for _ in range(r)]
        inv = O.mat_inv(p)
        if inv is not None:
            return p, inv


# (rank, nerve size, descend_endomorphisms, perturbed)
GLUE_PLAN = [(1, 3, False, False), (1, 5, False, False), (2, 3, False, False),
             (2, 4, False, False), (4, 3, False, False), (1, 4, False, True),
             (2, 3, False, True), (4, 3, False, True), (1, 4, True, False),
             (2, 3, True, False), (2, 4, True, False), (4, 2, True, False)]


def _c_glue(rng, i):
    r, size, descend, reject = GLUE_PLAN[i]
    beta, alpha = _cocycle(rng, "qstar", None, size)
    frames = [_invertible(rng, r) for _ in range(size)]

    def b(i, j):
        return beta[(i, j)] if i < j else 1 / beta[(j, i)]
    gluing = []
    for p in range(size):
        for q in range(size):
            if p != q:
                g = O.mat_mul(frames[q][0], frames[p][1])
                gluing.append({"ij": [p, q], "g": [[x * b(p, q) for x in row] for row in g]})
    if reject:
        gluing[rng.randrange(len(gluing))]["g"][0][0] += Fraction(1, 2)
    payload = {"rank": r, "indices": size,
               "gluing": [{"ij": g["ij"], "g": _qstr(g["g"])} for g in gluing],
               "twist": _cochain_json("qstar", None, size, alpha)}
    if descend:
        payload["descend_endomorphisms"] = True
        return file_request(f"coc glue descend r={r}", "coc glue", payload,
                            data={"glued": True, "endomorphism_rank": r * r,
                                  "endomorphism_cocycle": True}, cap_s=10.0)
    if reject:
        return file_request(f"coc glue reject r={r}", "coc glue", payload,
                            exit=2, data={"glued": False})
    return file_request(f"coc glue r={r}", "coc glue", payload, data={"glued": True})


def _c_match(rng, i):
    size = (4, 6, 8)[i % 3]
    group = "mu" if i % 2 else "qstar"
    n = rng.choice([2, 3, 4, 6]) if group == "mu" else None
    _, alpha = _cocycle(rng, group, n, size)
    left = _cochain_json(group, n, size, alpha)
    if i % 4 == 1:
        right = _cochain_json(group, n, size, _perturb(rng, group, n, size, alpha))
        return file_request("coc match reject", "coc match", {"left": left, "right": right},
                            exit=2, data={"match": False})
    return file_request("coc match", "coc match", {"left": left, "right": left},
                        data={"match": True})


def _c_hilb(rng, i):
    if i % 2:
        pieces = [[rng.randint(-3, 3), rng.randint(0, 3)] for _ in range(rng.randint(1, 4))]
        mcoef = sum(1 + d for _, d in pieces)
        const = sum(a + 1 for a, _ in pieces)
        return file_request("hilb morphism", "hilb morphism", {"summands": pieces},
                            data={"polynomial": O.render_poly(("m",), {(1,): Fraction(mcoef), (0,): Fraction(const)}),
                                  "degree": 1})
    summands = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
    torsion = rng.randint(0 if summands else 1, 4)
    g = [rng.randint(-2, 2) for _ in range(rng.randint(1, 2))]
    mcoef = len(summands) * len(g)
    const = sum(a - c + 1 for a in summands for c in g) + torsion * len(g)
    return file_request("hilb sheaf", "hilb sheaf",
                        {"summands": summands, "torsion": torsion, "g_rank": len(g), "g_summands": g},
                        data={"polynomial": O.render_poly(("m",), {(1,): Fraction(mcoef), (0,): Fraction(const)}),
                              "degree": 1 if summands else 0})


def _c_malformed(rng, i):
    """Inputs the CLI must refuse with exit code 1 and an error report."""
    size = rng.randint(3, 5)
    _, alpha = _cocycle(rng, "mu", 2, size)
    good = _cochain_json("mu", 2, size, alpha)
    kind = i % 8
    if kind == 0:
        doc = problem("coc check", good)
        doc["version"] = 2
    elif kind == 1:
        doc = problem("coc match", good)
        return Request("malformed", ["coc", "check"], doc, exit=1, data={"code": "E_INPUT"})
    elif kind == 2:
        doc = problem("coc glue", {"rank": 1, "indices": size, "gluing": [], "bogus": 1})
        return Request("malformed", ["coc", "glue"], doc, exit=1, data={"code": "E_INPUT"})
    elif kind == 3:
        doc = problem("coc coboundary", {"alpha": good, "beta": {"group": "mu", "n": 2,
                                                                 "indices": size, "values": []}})
        return Request("malformed", ["coc", "coboundary"], doc, exit=1, data={"code": "E_INPUT"})
    elif kind == 4:
        bad = dict(good, values=[{"ijk": [0, 1, 2], "v": 0.5}])
        return Request("malformed", ["coc", "check"], problem("coc check", bad),
                       exit=1, data={"code": "E_INVALID_INPUT"})
    elif kind == 5:
        return Request("malformed", ["coc", "check"], "{ not json", exit=1, data={"code": "E_INPUT"})
    elif kind == 6:
        q = _cochain_json("qstar", None, size, _cocycle(rng, "qstar", None, size)[1])
        return Request("malformed", ["coc", "coboundary"], problem("coc coboundary", {"alpha": q}),
                       exit=1, data={"code": "E_UNDECIDABLE_GROUP"})
    else:
        doc = problem("hilb sheaf", {"summands": [1], "g_rank": 2, "g_summands": [0]})
        return Request("malformed", ["hilb", "sheaf"], doc, exit=1, data={"code": "E_INVALID_INPUT"})
    return Request("malformed", ["coc", "check"], doc, exit=1, data={"code": "E_INPUT"})


CECH_SUITES = [("cocycle-dd", 6), ("gluing-perturb", 4), ("endo-cocycle", 2),
               ("hilbert-degree", 10), ("hilbert-constancy", 10)]


def cech_twists(seed):
    rng = _rng("cech-twists", seed)
    return _fill(rng, [
        (len(CHECK_PLAN), _c_check),
        (len(DECIDE_PLAN), _c_decide),
        (8, _c_build),
        (len(GLUE_PLAN), _c_glue),
        (10, _c_match),
        (22, _c_hilb),
        (16, _c_malformed),
        (len(CECH_SUITES), _suites(CECH_SUITES, "demo cech suite")),
    ])


def known_defects(seed):
    """Malformed payloads that escape `cli.main` as exceptions at the time
    this benchmark was written (no JSON report, a traceback instead).  The
    CLI contract says exit code 1 with an error report, so that is what is
    expected; they run outside the timed mix (see README)."""
    rng = _rng("known-defects", seed)
    size = rng.randint(3, 5)
    good = _cochain_json("qstar", None, size, _cocycle(rng, "qstar", None, size)[1])
    missing = {k: v for k, v in good.items() if k != "indices"}
    zero_den = dict(good, values=[{"ijk": [0, 1, 2], "v": "1/0"}])
    short = dict(good, values=[{"ijk": [0, 1], "v": "2"}])
    return [Request("defect", ["coc", "check"], problem("coc check", body), exit=1)
            for body in (missing, zero_den, short)] + [
        Request("defect", ["hilb", "sheaf"], problem("hilb sheaf", {"summands": ["abc"]}), exit=1)]


WORKLOADS = {
    "weyl-algebra": weyl_algebra,
    "spectral-elim": spectral_elim,
    "cech-twists": cech_twists,
}

# The cheapest request of each workload, used for the cold-start figure.
LIGHTEST = {
    "weyl-algebra": lambda: Request("cold", ["weyl", "nf", "--expr", "x*d", "--lam", "1"],
                                    data={"normal_form": "x*d"}),
    "spectral-elim": lambda: file_request("cold", "azu classify", {"B": [["1", "0"], ["0", "2"]]},
                                          data={"case": "DistinctEigen"}),
    "cech-twists": lambda: file_request("cold", "hilb morphism", {"summands": [[1, 0]]},
                                        data={"polynomial": "m + 2"}),
}
