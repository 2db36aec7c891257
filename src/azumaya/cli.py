"""Batch command-line surface (azk).

One logical command per invocation; JSON in, canonical JSON report out.
All numbers travel as strings so exact rationals survive the wire; the
serialization is byte-stable for identical inputs (sorted keys, fixed
separators, canonical polynomial text).

A command line is GROUP SUB, then in any order the command's own flags,
--text, --out FILE and one problem file (none for a demo).  -h or --help
prints help, built from the command table, and exits 0.

Exit codes: 0 ok, 1 malformed input, a size past its budget or module
error, 2 check violation.
Every outcome, an unexpected exception included, gets exactly one report;
no traceback is printed.
"""

from __future__ import annotations

import functools
import json
import os
import re
import sys
from fractions import Fraction

from . import diffop, linalg, poly, spectral, suites, twisted, weyl
from .errors import (E_BUDGET, E_INPUT, E_INTERNAL, AzumayaError, CoverMismatchError,
                     InvalidInputError, NotAdmissibleError, ShapeError)

PROBLEM_VERSION = 1

# The largest size each budgeted value may take.  A larger one is refused
# with E_BUDGET where it is read, before any work.  Every limit sits above
# the sizes the tests, demos and perfbench send, and a request at a limit
# answers in under 5 s.  The mu_n coboundary decision factors a system of
# N(N-1)(N-2)/6 rows once per (N, n), which takes 2.5 s at N = 16 and 20 s
# at N = 20, so it has a limit of its own below the nerve's.
BUDGETS = {
    "n": 64,                # Weyl rank, given or inferred from the generator names
    "exponent": 250,        # each ^k of a Weyl expression; (x + d)^k takes about k^3
    "rank": 12,             # coc glue; descending to End takes rank^2
    "deg_bound": 1000,      # azu solve and azu report
    "indices": 64,          # a nerve: coc check loops over N^3 triples
    "decided indices": 16,  # coc coboundary with alpha
    "count": 500,           # the cases of a suite
}


class UsageError(Exception):
    """Malformed invocation or input; maps to exit code 1."""


class BudgetError(AzumayaError):
    """A size past its entry in ``BUDGETS``; maps to exit code 1, E_BUDGET."""

    code = E_BUDGET


def _budget(value: int, key: str) -> int:
    if value > BUDGETS[key]:
        raise BudgetError(f"{key} {value} is past the budget of {BUDGETS[key]}")
    return value


# ---------------------------------------------------------------------------
# payload plumbing
# ---------------------------------------------------------------------------

def _load_problem_file(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, RecursionError) as exc:   # nested too deep to decode
        raise UsageError(f"malformed JSON in {path}: {exc}")
    if not isinstance(doc, dict):
        raise UsageError("problem file must be a JSON object")
    extra = set(doc) - {"version", "command", "payload"}
    if extra:
        raise UsageError(f"unknown problem-file fields: {sorted(extra)}")
    if doc.get("version") != PROBLEM_VERSION:
        raise UsageError(f"unsupported problem-file version {doc.get('version')!r}")
    if doc.get("command") != command:
        raise UsageError(
            f"problem file is for command {doc.get('command')!r}, not {command!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise UsageError("payload must be a JSON object")
    return payload


def _take(payload: dict, required=(), optional=()):
    if not isinstance(payload, dict):
        raise UsageError(f"expected a JSON object, got {payload!r}")
    unknown = set(payload) - set(required) - set(optional)
    if unknown:
        raise UsageError(f"unknown payload fields: {sorted(unknown)}")
    missing = [k for k in required if k not in payload]
    if missing:
        raise UsageError(f"missing payload fields: {missing}")


def _field(payload: dict, key: str):
    if key not in payload:
        raise UsageError(f"missing payload fields: {[key]}")
    return payload[key]


def _convert(convert, raw, what):
    """``convert(raw)``; a value it cannot convert, ``--a`` JSON nested too deep
    included, is malformed input."""
    try:
        return convert(raw)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError, RecursionError) as exc:
        raise UsageError(f"bad {what}: {raw!r} ({exc})")


def _int(raw, what) -> int:
    """An int or a decimal-integer string; floats and bools are refused."""
    if isinstance(raw, (bool, float)):
        raise UsageError(f"bad {what}: {raw!r} (expected an integer)")
    return _convert(int, raw, what)


def _count(raw, what) -> int:
    """An ``_int`` that is not negative."""
    n = _int(raw, what)
    if n < 0:
        raise UsageError(f"bad {what}: {raw!r} (expected a non-negative integer)")
    return n


def _list(raw, what, length=None) -> list:
    """A JSON array; a string or an object is not read as one."""
    if not isinstance(raw, list):
        raise UsageError(f"bad {what}: {raw!r} (expected a JSON array)")
    if length not in (None, len(raw)):
        raise UsageError(f"bad {what}: {raw!r} (expected {length} entries)")
    return raw


def _indices(raw, what, length) -> tuple:
    items = _list(raw, what, length)
    if not all(isinstance(i, int) and not isinstance(i, bool) for i in items):
        raise UsageError(f"bad {what}: {raw!r} (entries must be integers)")
    return tuple(items)


def _names(raw, what) -> tuple:
    items = _list(raw, what)
    if not all(isinstance(name, str) for name in items):
        raise UsageError(f"bad {what}: {raw!r} (entries must be strings)")
    return tuple(items)


def _rational(raw) -> Fraction:
    """An int as its decimal text, read by the package's one scalar reader."""
    return poly._as_fraction(str(raw))


def _fraction(text, what="value") -> Fraction:
    if isinstance(text, float):
        raise UsageError(f"bad {what}: floating point is not exact; "
                         "send rationals as strings")
    return _convert(_rational, text, what)


def _poly(text, what="polynomial") -> poly.MultiPoly:
    try:
        return poly.parse_poly(str(text))
    except ValueError as exc:
        raise UsageError(f"bad {what}: {text!r} ({exc})")


def _matrix(rows, what="matrix") -> linalg.PolyMatrix:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise UsageError(f"{what} must be a list of rows")
    return linalg.PolyMatrix.from_rows([[_poly(x, what) for x in row] for row in rows])


def _lambda_mode(text):
    if text in (None, "formal"):
        return weyl.FORMAL
    return _fraction(text, "lambda")


# ---------------------------------------------------------------------------
# command handlers: each returns (status, data, diagnostics)
# ---------------------------------------------------------------------------

_EXPONENT = re.compile(r"\^\s*([0-9]+)")


def _weyl_element(payload):
    lam = _lambda_mode(payload.get("lam"))
    text = str(payload["expr"])
    n = _int(payload["n"], "n") if "n" in payload else None
    if n is not None and n < 1:
        raise UsageError(f"bad n: {n!r} (expected at least 1)")
    try:
        _budget(n or weyl.implied_rank(text), "n")
        _budget(max(map(int, _EXPONENT.findall(text)), default=0), "exponent")
        return weyl.parse_weyl(text, n=n, lam=lam)
    except ValueError as exc:
        raise UsageError(f"bad expression: {exc}")


def cmd_weyl_nf(payload):
    return "ok", {"normal_form": str(_weyl_element(payload))}, []


def cmd_weyl_act(payload):
    elem = _weyl_element(payload)
    f = _poly(payload["poly"])
    return "ok", {"result": str(weyl.act_on_polynomial(elem, f))}, []


def cmd_weyl_fourier(payload):
    return "ok", {"result": str(weyl.fourier(_weyl_element(payload)))}, []


def cmd_weyl_reduce(payload):
    cert = weyl.reduce_to_scalar(_weyl_element(payload))
    steps = [{"generator": f"{kind}{i + 1}", "side": side}
             for kind, i, side in cert.steps]
    return "ok", {"steps": steps, "scalar": str(cert.final_scalar)}, []


def cmd_azu_solve(payload):
    a = _matrix(payload["A"], "A")
    lam = _fraction(payload["lambda"], "lambda")
    bound = _budget(_count(payload.get("deg_bound", diffop.default_degree_bound(a)),
                           "deg_bound"), "deg_bound")
    basis = diffop.solve_commutation(a, lam, bound)
    return "ok", {"deg_bound": bound, "dimension": len(basis),
                  "basis": [b.to_strings() for b in basis]}, []


def cmd_azu_basis(payload):
    a = _matrix(payload["A"], "A")
    lam = _fraction(payload["lambda"], "lambda")
    basis = diffop.fundamental_solutions(a, lam)
    return "ok", {"discriminant": str(diffop.discriminant(a)),
                  "basis": [b.to_strings() for b in basis]}, []


def cmd_azu_classify(payload):
    rep = diffop.classify_higgsing(_matrix(payload["B"], "B"))
    return "ok", rep.to_json(), []


def cmd_azu_report(payload):
    a = _matrix(payload["A"], "A")
    lam = _fraction(payload["lambda"], "lambda")
    bhat = [_fraction(c, "bhat entry") for c in _list(payload["bhat"], "bhat")]
    bound = (_budget(_count(payload["deg_bound"], "deg_bound"), "deg_bound")
             if "deg_bound" in payload else None)
    rep = diffop.pushforward_report(a, bhat, lam)
    data = rep.to_json()
    if bound is not None:
        data["solve_dimension"] = len(diffop.solve_commutation(a, lam, bound))
        data["deg_bound"] = bound
    return "ok", data, []


def _higgs_pair(payload):
    rank = _int(payload["rank"], "rank")
    base_vars = _names(payload.get("base_vars", ["z"]), "base_vars")
    phis = [_matrix(m, "phi") for m in _list(payload["phis"], "phis")]
    return spectral.HiggsPair(rank, phis, base_vars)


def _check_mode(payload, expected):
    mode = payload.get("mode")
    if mode is not None and mode != expected:
        raise UsageError(f"payload mode {mode!r} does not match subcommand {expected!r}")


def cmd_spec_cover(payload):
    _check_mode(payload, "cover")
    pair = _higgs_pair(payload)
    cover = spectral.spectral_cover(pair)
    ideal = spectral.image_ideal(pair, cover.poly)
    # the minimal polynomial divides chi, so they agree up to a unit exactly
    # when their degrees in v do; its denominators are cleared, chi's are not
    return "ok", {"cover": str(cover.poly), "reduced": cover.reduced,
                  "image_ideal": str(ideal),
                  "image_equals_cover": ideal.degree_in("v") == cover.poly.degree_in("v")}, []


def cmd_spec_admissible(payload):
    _check_mode(payload, "admissible")
    try:
        pres = spectral.higgs_to_morphism(_higgs_pair(payload))
    except NotAdmissibleError:
        return "violation", {"admissible": False}, ["generator images do not commute"]
    return "ok", {"admissible": True,
                  "subalgebra_basis": [b.to_strings() for b in pres.subalgebra_basis]}, []


def cmd_spec_family(payload):
    _check_mode(payload, "family")
    lam = _fraction(payload["lambda"], "lambda")
    degree = _count(payload.get("degree", 3), "degree")
    fam = spectral.lambda_family(_higgs_pair(payload))
    if lam == 0:
        fiber = fam.classical_fiber()
        return "ok", {"lambda": "0",
                      "cover": str(fiber["cover"].poly),
                      "reduced": fiber["cover"].reduced,
                      "image_ideal": str(fiber["image_ideal"])}, []
    probe = fam.probe(lam, degree)
    return "ok", {"lambda": str(lam), "degree": degree,
                  "monomials": probe.monomials, "rank": probe.rank,
                  "kernel_dim": probe.kernel_dim,
                  "injective": probe.injective}, []


def cmd_spec_curvature(payload):
    _check_mode(payload, "curvature")
    rank = _int(payload["rank"], "rank")
    gammas = [_matrix(g, "gamma") for g in _list(payload["gammas"], "gammas")]
    if any(g.shape() != (rank, rank) for g in gammas):
        raise ShapeError(f"connection matrices must be {rank} x {rank}")
    base_vars = _names(payload.get("base_vars", []), "base_vars")
    field = spectral.curvature(gammas, base_vars)
    comps = {f"{i},{j}": m.to_strings() for (i, j), m in sorted(field.items())}
    flat = all(m.is_zero() for m in field.values())
    return "ok", {"components": comps, "flat": flat}, []


def _exact(raw, convert, what):
    """A cochain value or gluing entry; booleans are refused, floats as inexact."""
    if isinstance(raw, bool):
        raise UsageError(f"bad {what}: {raw!r} (expected a number)")
    if isinstance(raw, float):
        raise InvalidInputError(
            f"floating-point {what} are not exact; send rationals as strings")
    return _convert(convert, raw, what)


COCHAIN = ("group", "n", "indices", "values")   # the fields of a cochain's wire form


def cochain_from_json(payload, key: str):
    """Read the wire form of a cochain whose tuples are keyed ``key``: "ijk"
    for a 2-cochain, "ij" for a 1-cochain.

    The fields are read by the helpers, and ``values`` in one loop.  An item
    that is not a dict of ``key`` and "v" with a list of ints and a string
    (qstar) or int (mu) value goes to ``_take``, ``_indices`` and ``_exact``,
    which report it at once if it is malformed.  Each distinct literal is
    converted and validated once.  An index out of range, a value other than
    the identity on a repeated index, i >= j in a 1-cochain or a zero in
    qstar only flags the list: the checked ``UnitCochain2``/``Cochain1``
    constructor then builds the cochain and reports the fault; a list with
    no flag is wrapped with ``_trusted``.  A tuple listed twice with values
    that differ as group elements is refused last."""
    _take(payload, optional=COCHAIN)
    name = payload.get("group")
    if name == "qstar":
        group = twisted.Qstar()
    elif name == "mu":
        group = twisted.Mu(_int(_field(payload, "n"), "n"))
    else:
        raise InvalidInputError(f"unknown group {name!r}")
    nerve = twisted.CoverNerve(_budget(_int(_field(payload, "indices"), "indices"), "indices"))
    items = _list(payload.get("values", []), "values")
    convert, wire = (_rational, str) if name == "qstar" else (int, int)
    size, unit, one, valid = nerve.index_count, len(key) == 3, group.identity(), group.validate
    literals, values, repeats = {}, {}, []
    checked = units = False     # a fault for the checked constructor; an identity value read
    for item in items:
        try:
            t, v = item[key], item["v"]
            if unit:
                i, j, k = t
                quick = type(i) is type(j) is type(k) is int
            else:
                i, j = t
                quick = type(i) is type(j) is int
        except (KeyError, TypeError, ValueError):
            quick = False
        if not (quick and type(item) is dict and len(item) == 2
                and type(t) is list and type(v) is wire):
            _take(item, required=(key, "v"))
            t = _indices(item[key], key, len(key))
            v = item["v"]
            _exact(v, convert, "values")    # before the cache: True == 1 and 1.0 == 1
            if unit:
                i, j, k = t
            else:
                i, j = t
        x = literals.get(v)
        if x is None:
            x = _exact(v, convert, "values")
            try:
                x = valid(x)
            except InvalidInputError:       # zero in qstar
                checked = True
            if unit and x == one:
                x, units = one, True
            literals[v] = x
        if unit:
            t = (i, j, k)
            if not (0 <= i < size and 0 <= j < size and 0 <= k < size) or (
                    (i == j or j == k or i == k) and x is not one):
                checked = True
        else:
            t = (i, j)
            if not 0 <= i < j < size:
                checked = True
        # the last listing is kept, and a repeat is checked at the end
        old = values.setdefault(t, x)
        if old is not x:
            repeats.append((t, old, x))
            values[t] = x
    if units and not checked:
        values = {t: x for t, x in values.items() if x is not one}
    cochain = twisted.UnitCochain2 if unit else twisted.Cochain1
    out = cochain(nerve, group, values) if checked else cochain._trusted(nerve, group, values)
    for t, a, b in repeats:
        if valid(a) != valid(b):
            what = f"triple {t}" if unit else f"pair {tuple(sorted(t))}"
            raise InvalidInputError(f"conflicting values for {what}")
    return out


def cochain_to_json(cochain) -> dict:
    """The wire form read by ``cochain_from_json``."""
    key = "ijk" if isinstance(cochain, twisted.UnitCochain2) else "ij"
    group = cochain.group
    out = {"group": group.name, "indices": cochain.nerve.index_count,
           "values": [{key: list(t), "v": group.to_json(v)}
                      for t, v in sorted(cochain.values.items())]}
    if isinstance(group, twisted.Mu):
        out["n"] = group.n
    return out


def _bundle(payload) -> twisted.TwistedBundle:
    rank = _budget(_int(payload["rank"], "rank"), "rank")
    nerve = twisted.CoverNerve(_budget(_int(payload["indices"], "indices"), "indices"))
    twist = twisted.UnitCochain2.trivial(nerve, twisted.Qstar())
    if "twist" in payload:
        twist = cochain_from_json(payload["twist"], "ijk")
        if twist.nerve.index_count != nerve.index_count:
            raise CoverMismatchError("twist nerve size differs from bundle nerve")
    gluing = {}
    for item in _list(payload["gluing"], "gluing"):
        _take(item, required=("ij", "g"))
        gluing[_indices(item["ij"], "ij", 2)] = [
            [_exact(x, _rational, "gluing entries") for x in _list(row, "g row")]
            for row in _list(item["g"], "g")]
    return twisted.TwistedBundle(rank, nerve, gluing, twist)


def cmd_coc_check(payload):
    res = twisted.check_2cocycle(cochain_from_json(payload, "ijk"))
    if res.ok:
        return "ok", {"cocycle": True}, []
    return "violation", {"cocycle": False, "violation": list(res.where)}, [res.detail]


def cmd_coc_coboundary(payload):
    if ("beta" in payload) == ("alpha" in payload):
        raise UsageError("provide exactly one of 'beta' (build d beta) "
                         "or 'alpha' (decide coboundary)")
    if "beta" in payload:
        beta = cochain_from_json(payload["beta"], "ij")
        return "ok", {"coboundary": cochain_to_json(twisted.coboundary(beta))}, []
    alpha = cochain_from_json(payload["alpha"], "ijk")
    _budget(alpha.nerve.index_count, "decided indices")
    ok, witness = twisted.is_coboundary(alpha)
    if ok:
        return "ok", {"is_coboundary": True, "witness": cochain_to_json(witness)}, []
    return "ok", {"is_coboundary": False}, []


def cmd_coc_glue(payload):
    bundle = _bundle(payload)
    res = twisted.twisted_gluing_check(bundle)
    if not res.ok:
        return "violation", {"glued": False, "violation": list(res.where)}, [res.detail]
    data = {"glued": True}
    if payload.get("descend_endomorphisms"):
        endo = twisted.endomorphism_azumaya(bundle)
        endo_res = twisted.twisted_gluing_check(endo)
        data["endomorphism_rank"] = endo.rank
        data["endomorphism_cocycle"] = endo_res.ok
        if not endo_res.ok:
            return "violation", data, [endo_res.detail]
    return "ok", data, []


def cmd_coc_match(payload):
    left = cochain_from_json(payload["left"], "ijk")
    right = cochain_from_json(payload["right"], "ijk")
    res = twisted.twist_matching_check(left, right)
    if res.ok:
        return "ok", {"match": True}, []
    return "violation", {"match": False, "mismatch": list(res.where)}, [res.detail]


def cmd_hilb_sheaf(payload):
    sheaf = twisted.SheafOnP1(
        tuple(_int(a, "summand") for a in _list(payload["summands"], "summands")),
        _int(payload.get("torsion", 0), "torsion"))
    g_summands = [_int(c, "g_summand")
                  for c in _list(payload.get("g_summands", [0]), "g_summands")]
    g_rank = _int(payload.get("g_rank", len(g_summands)), "g_rank")
    p = twisted.hilbert_poly(sheaf, g_rank, g_summands)
    return "ok", {"polynomial": str(p), "degree": p.degree_in("m")}, []


def cmd_hilb_morphism(payload):
    summands = [tuple(_int(x, "summand") for x in _list(pair, "summand", 2))
                for pair in _list(payload["summands"], "summands")]
    p = twisted.morphism_hilbert_poly(summands)
    return "ok", {"polynomial": str(p), "degree": p.degree_in("m")}, []


# -- the built-in worked demonstration ---------------------------------------

CANONICAL_DEMO = "example-5-1-11"


def commutation_demo_report(a: linalg.PolyMatrix, lam: Fraction, bhat):
    """Full rank-2 commutation walk-through: closed-form quadruple, solver
    span comparison, degree-0 and characteristic-polynomial checks, and the
    eigen-decomposition report for the chosen combination."""
    basis = diffop.fundamental_solutions(a, lam)
    residuals_zero = all(diffop.commutation_constraint(a, b, lam).is_zero()
                         for b in basis)
    deg_bound = diffop.default_degree_bound(a)
    solved = diffop.solve_commutation(a, lam, deg_bound)
    span = linalg.SpanBasis()
    for m in solved:
        span.add(list(m.entries))
    span_match = (len(solved) == 4
                  and all(span.contains(list(b.entries)) for b in basis))
    b = diffop.combination(bhat, basis)
    b0 = linalg.PolyMatrix.from_rows([[bhat[0], bhat[1]], [bhat[2], bhat[3]]])
    cp_b, cp_b0 = linalg.char_poly(b), linalg.char_poly(b0)
    report = diffop.classify_higgsing(b)
    return {
        "A": a.to_strings(),
        "lambda": str(lam),
        "bhat": [str(c) for c in bhat],
        "deg_bound": deg_bound,
        "discriminant": str(diffop.discriminant(a)),
        "fundamental_solutions": [m.to_strings() for m in basis],
        "constraint_residuals_zero": residuals_zero,
        "solve_dimension": len(solved),
        "solution_basis": [m.to_strings() for m in solved],
        "span_match": span_match,
        "B": b.to_strings(),
        "degree0": b0.to_strings(),
        "char_poly_B": str(cp_b),
        "char_poly_degree0": str(cp_b0),
        "char_match": cp_b == cp_b0,
        "pushforward": report.to_json(),
    }


def cmd_canonical_demo(payload):
    a = _matrix(payload.get("A", [["0", "1"], ["0", "0"]]), "A")
    lam = _fraction(payload.get("lambda", "1"), "lambda")
    bhat = [_fraction(c, "bhat entry")
            for c in payload.get("bhat", ["1", "0", "0", "2"])]
    if len(bhat) != 4:
        raise UsageError("bhat needs four entries")
    data = commutation_demo_report(a, lam, bhat)
    ok = (data["constraint_residuals_zero"] and data["span_match"]
          and data["char_match"])
    return ("ok" if ok else "violation"), data, []


def cmd_suite(name, payload):
    count = _budget(_count(payload.get("count", 100), "count"), "count")
    result = suites.run_suite(name, payload.get("seed", 0), count)
    if result.ok:
        return "ok", result.to_json(), []
    return "violation", result.to_json(), [f"{result.failures} failures"]


# ---------------------------------------------------------------------------
# the command table, parsing, dispatch and serialization
# ---------------------------------------------------------------------------

# payload key -> (option, METAVAR, help, text reader): the flag that sets the
# key.  A command has the flags of its keys, but "coc" reads cochains (whose
# "n" is not weyl's) and bundles from files only.
FLAGS = {
    "expr": ("--expr", "TEXT", "Weyl algebra expression", str),
    "poly": ("--poly", "TEXT", "polynomial the expression acts on", str),
    "lam": ("--lam", "Q", "rational value, or 'formal'", str),
    "n": ("--n", "N", "Weyl rank", int),
    "lambda": ("--lambda", "Q", "rational value", str),
    "A": ("--a", "JSON", "matrix as a JSON list of rows", json.loads),
    "deg_bound": ("--deg-bound", "N", "degree bound of the solutions", int),
    "bhat": ("--bhat", "Q,Q,Q,Q", "coefficients of the fundamental solutions",
             lambda text: [c.strip() for c in text.split(",")]),
    "degree": ("--degree", "N", "probe degree (default 3)", int),
    "seed": ("--seed", "N", "suite seed (default 0)", int),
    "count": ("--count", "N", "suite cases (default 100)", int),
}

_SPEC = ("base_vars", "mode")
# (group, subcommand) -> (handler, required payload keys, optional payload
# keys); the only list of commands and of the keys each accepts.  The
# commands of the "demo" group take no problem file.
COMMANDS = {
    ("weyl", "nf"): (cmd_weyl_nf, ("expr",), ("lam", "n")),
    ("weyl", "act"): (cmd_weyl_act, ("expr", "poly", "lam"), ("n",)),
    ("weyl", "fourier"): (cmd_weyl_fourier, ("expr",), ("lam", "n")),
    ("weyl", "reduce"): (cmd_weyl_reduce, ("expr",), ("lam", "n")),
    ("azu", "solve"): (cmd_azu_solve, ("A", "lambda"), ("deg_bound",)),
    ("azu", "basis"): (cmd_azu_basis, ("A", "lambda"), ()),
    ("azu", "classify"): (cmd_azu_classify, ("B",), ()),
    ("azu", "report"): (cmd_azu_report, ("A", "lambda", "bhat"), ("deg_bound",)),
    ("spec", "cover"): (cmd_spec_cover, ("rank", "phis"), _SPEC),
    ("spec", "admissible"): (cmd_spec_admissible, ("rank", "phis"), _SPEC),
    ("spec", "family"): (cmd_spec_family, ("rank", "phis", "lambda"), (*_SPEC, "degree")),
    ("spec", "curvature"): (cmd_spec_curvature, ("rank", "gammas"), _SPEC),
    ("coc", "check"): (cmd_coc_check, (), COCHAIN),
    ("coc", "coboundary"): (cmd_coc_coboundary, (), ("beta", "alpha")),
    ("coc", "glue"): (cmd_coc_glue, ("rank", "indices", "gluing"),
                      ("twist", "descend_endomorphisms")),
    ("coc", "match"): (cmd_coc_match, ("left", "right"), ()),
    ("hilb", "sheaf"): (cmd_hilb_sheaf, ("summands",), ("torsion", "g_rank", "g_summands")),
    ("hilb", "morphism"): (cmd_hilb_morphism, ("summands",), ()),
    ("demo", CANONICAL_DEMO): (cmd_canonical_demo, (), ("A", "lambda", "bhat")),
    **{("demo", name): (functools.partial(cmd_suite, name), (), ("seed", "count"))
       for name in sorted(suites.SUITES)},
}

HANDLERS = {command: handler for command, (handler, _, _) in COMMANDS.items()}

_COMMON = {"--out": ("out", str)}
# command -> {option: (args key, text reader)}: the options that take a value
_OPTIONS = {command: {**_COMMON, **{
    option: (key, read) for key, (option, _, _, read) in FLAGS.items()
    if key in required + optional and command[0] != "coc"}}
    for command, (_, required, optional) in COMMANDS.items()}
_GROUPS = {group: [sub for g, sub in COMMANDS if g == group] for group, _ in COMMANDS}


def _usage(command) -> str:
    return " ".join(["azk", *command, *(f"[{arg}]" for arg, _ in _arguments(command))])


def _arguments(command) -> list:
    """(spelling, help) of each argument the command takes."""
    rows = [] if command[0] == "demo" else [("FILE", "JSON problem file")]
    rows += [("--text", "human-readable output instead of JSON"),
             ("--out FILE", "write the report to FILE")]
    return rows + [(f"{option} {meta}", text) for option, meta, text, _ in FLAGS.values()
                   if option in _OPTIONS[command]]


class _Parser:
    """The ``azk`` command line, read from ``COMMANDS`` and ``_OPTIONS``
    (perfbench's tracer times ``parse_args`` as ``cli.parse``)."""

    @staticmethod
    def parse_args(argv: list) -> dict:
        """``argv`` as {"command": (GROUP, SUB), "file": FILE or None, and
        "text", "out" and the payload key of each flag, if given}, or as
        {"help": text} at ``-h`` or ``--help``.

        GROUP SUB, then in any order ``--text``, ``--out FILE``, the
        command's own flags in full as ``--flag VALUE`` or ``--flag=VALUE``
        (the last repeat wins; a separate VALUE may start with one ``-`` but
        is not ``-h``) and one problem file unless a demo.  ``--text`` and
        ``--out`` may also come before SUB.  Anything else is refused."""
        args, words, options = {}, [], _COMMON
        tokens = iter(argv)
        for token in tokens:
            if token in ("-h", "--help"):
                return {"help": _Parser.format_help(words[:2])}
            if token == "--text":
                args["text"] = True
            elif not token.startswith("-"):
                words.append(token)
                if len(words) == 1 and token not in _GROUPS:
                    raise UsageError(f"unknown group {token!r}")
                if len(words) == 2:
                    options = _OPTIONS.get(tuple(words))
                    if options is None:
                        raise UsageError(f"unknown command {' '.join(words)!r}")
                if len(words) > (2 if words[0] == "demo" else 3):
                    raise UsageError(f"unexpected argument {token!r}")
            else:
                option, eq, value = token.partition("=")
                if option not in options:
                    raise UsageError(f"unknown option {token!r}")
                if not eq:
                    value = next(tokens, "--")      # none left reads as an option
                    if value.startswith("--") or value == "-h":
                        raise UsageError(f"argument {option}: expected one argument")
                key, read = options[option]
                args[key] = _convert(read, value, option)
        if len(words) < 2:
            raise UsageError("expected a GROUP and SUBCOMMAND; see --help")
        args["command"] = tuple(words[:2])
        args["file"] = words[2] if len(words) > 2 else None
        return args

    @staticmethod
    def format_help(words: list) -> str:
        """The help of ``azk``, of one GROUP or of one command."""
        if len(words) == 2:
            rows = _arguments(tuple(words))
            width = max(len(arg) for arg, _ in rows)
            return f"usage: {_usage(tuple(words))}\n\narguments:\n" + "".join(
                f"  {arg:<{width}}  {text}\n" for arg, text in rows)
        if words:
            return "usage: " + "\n       ".join(_usage((words[0], sub))
                                               for sub in _GROUPS[words[0]]) + "\n"
        groups = "".join(f"  {group:<5} {' '.join(subs)}\n" for group, subs in _GROUPS.items())
        return (f"usage: azk GROUP SUB [FILE] [--text] [--out FILE] [flags]\n\n{__doc__}\n"
                f"commands:\n{groups}\nazk GROUP --help and azk GROUP SUB --help "
                "list the arguments of the commands.\n")


def _payload_from_args(args: dict) -> dict:
    command = args["command"]
    payload = _load_problem_file(args["file"], " ".join(command)) if args["file"] else {}
    payload.update((key, args[key]) for key in FLAGS if key in args)
    _, required, optional = COMMANDS[command]
    _take(payload, required, optional)
    return payload


def render_report(status, data, diagnostics) -> dict:
    return {"status": status, "data": data, "diagnostics": diagnostics}


def serialize_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def _render_text(report: dict) -> str:
    color = os.environ.get("AZK_COLOR", "auto")
    use_color = color != "never" and sys.stdout.isatty()
    status = report["status"]
    if use_color:
        tint = {"ok": "\033[32m", "violation": "\033[31m", "error": "\033[31m"}
        status = f"{tint.get(status, '')}{status}\033[0m"
    lines = [f"status: {status}"]
    for msg in report["diagnostics"]:
        lines.append(f"note: {msg}")

    def walk(obj, indent=0):
        pad = "  " * indent
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}{k}:")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(obj, list):
            for v in obj:
                if isinstance(v, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(v, indent + 1)
                else:
                    lines.append(f"{pad}- {v}")

    walk(report["data"])
    return "\n".join(lines) + "\n"


EXIT_BY_STATUS = {"ok": 0, "violation": 2, "error": 1}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = {}
    try:
        args = _Parser.parse_args(argv)
        if "help" in args:
            sys.stdout.write(args["help"])
            return 0
        status, data, diagnostics = HANDLERS[args["command"]](_payload_from_args(args))
        # rendered in here: a report may hold what cannot be written (an int
        # past Python's digit limit for str)
        return _emit(render_report(status, data, diagnostics), args)
    except UsageError as exc:
        report = render_report("error", {"code": E_INPUT}, [str(exc)])
    except AzumayaError as exc:
        report = render_report("error", {"code": exc.code}, [f"{exc.code}: {exc}"])
    except Exception as exc:  # the report contract holds for defects too
        report = render_report("error", {"code": E_INTERNAL}, [f"{type(exc).__name__}: {exc}"])
    return _emit(report, args)


def _emit(report, args) -> int:
    render = _render_text if args.get("text") else serialize_report
    out_path = args.get("out")
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(render(report))
            return EXIT_BY_STATUS.get(report["status"], 1)
        except OSError as exc:
            report = render_report("error", {"code": E_INPUT},
                                   [f"cannot write {out_path}: {exc}"])
    sys.stdout.write(render(report))
    return EXIT_BY_STATUS.get(report["status"], 1)


if __name__ == "__main__":
    sys.exit(main())
