"""Size ladders: one function of one layer timed at growing input sizes.

Each rung builds its input untimed, then times a single call under a cap.
A rung that runs past the cap is aborted and marked skipped; a rung whose
time, extrapolated from the two rungs below it, would exceed the cap is
skipped without running, and so is every rung above a skipped one.  A
skipped rung reports the cap, which is a lower bound on its real time.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter

import oracle as O

RUNG_CAP_S = 20.0


class CapExceeded(BaseException):
    """Raised by the interval timer inside a capped call.  A BaseException,
    so that no `except Exception` in the code under test can swallow it."""


def on_alarm(signum, frame):
    raise CapExceeded()


def call_capped(fn, cap_s):
    """(seconds, result) of fn(); raises CapExceeded after `cap_s`."""
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap_s)
    try:
        t0 = perf_counter()
        res = fn()
        return perf_counter() - t0, res
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _rand_matrix(az, rng, r):
    """r x r matrix of degree-2 polynomials in z with up to three terms."""
    rows = []
    for _ in range(r):
        row = []
        for _ in range(r):
            terms = {(rng.randint(0, 2),): Fraction(rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))}
            row.append(az.MultiPoly(("z",), terms))
        rows.append(row)
    return az.PolyMatrix.from_rows(rows)


def _power(az, lam, k):
    base = az.parse_weyl("x + D", n=1, lam=lam)
    out = az.WeylElement.one(1, lam)
    for _ in range(k):
        out = az.weyl_mul(out, base)
    return out


def _coboundary_input(az, rng, size):
    nerve = az.CoverNerve(size)
    beta = az.Cochain1(nerve, az.Mu(6), {(i, j): rng.randrange(6)
                                         for i in range(size) for j in range(i + 1, size)})
    return az.coboundary(beta)


def _bundle(az, rng, rank, size=4):
    nerve = az.CoverNerve(size)
    beta = {(i, j): Fraction(rng.choice([1, 2, 3, -1]), rng.choice([1, 2]))
            for i in range(size) for j in range(i + 1, size)}
    twist = az.UnitCochain2(nerve, az.Qstar(), O.coboundary_qstar(beta, size))
    frames = []
    while len(frames) < size:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(rank)] for _ in range(rank)]
        inv = O.mat_inv(p)
        if inv is not None:
            frames.append((p, inv))
    gluing = {}
    for i in range(size):
        for j in range(size):
            if i != j:
                b = beta[(i, j)] if i < j else 1 / beta[(j, i)]
                g = O.mat_mul(frames[j][0], frames[i][1])
                gluing[(i, j)] = [[x * b for x in row] for row in g]
    return az.TwistedBundle(rank, nerve, gluing, twist)


# (ladder, sizes, rung label prefix); metric names are ladder.<ladder>.<prefix><size>_s
RUNGS = [
    ("min_poly", (3, 4, 5, 6), "r"),
    ("is_coboundary", (6, 10, 14, 18), "n"),
    ("weyl_pow_fixed", (10, 20, 30, 40), "k"),
    ("weyl_pow_formal", (10, 20, 30, 40), "k"),
    ("solve_commutation", (2, 6, 10, 14), "d"),
    ("probe", (3, 4, 5, 6, 7), "deg"),
    ("gluing_check", (1, 2, 4), "rank"),
]


def _cases(az, rng):
    """ladder -> (build(size) -> input, call(input)); inputs are built only
    for rungs that run."""
    nil = az.PolyMatrix.from_rows([["0", "1"], ["0", "0"]])
    higgs = az.HiggsPair(2, [az.PolyMatrix.from_rows([["0", "z"], ["1", "0"]])])
    def same(size):
        return size
    return {
        "min_poly": (lambda r: _rand_matrix(az, rng, r), az.min_poly),
        "is_coboundary": (lambda n: _coboundary_input(az, rng, n), az.is_coboundary),
        "weyl_pow_fixed": (same, lambda k: _power(az, Fraction(1), k)),
        "weyl_pow_formal": (same, lambda k: _power(az, az.FORMAL, k)),
        "solve_commutation": (same, lambda d: az.solve_commutation(nil, Fraction(1), d)),
        "probe": (same, lambda d: az.lambda_family(higgs).probe(Fraction(1), d)),
        "gluing_check": (lambda r: _bundle(az, rng, r), az.twisted_gluing_check),
    }


def metric_names():
    return [f"ladder.{name}.{prefix}{size}_s" for name, sizes, prefix in RUNGS
            for size in sizes] + ["ladder.skipped"]


def run_ladders(az, seed, cap_s=RUNG_CAP_S):
    """{metric: (value, unit)} plus a list of printable lines."""
    rng = random.Random(f"ladders:{seed}")
    cases = _cases(az, rng)
    out, lines, skipped = {}, [], 0
    for name, sizes, prefix in RUNGS:
        build, call = cases[name]
        times, stop = [], False
        for size in sizes:
            metric = f"ladder.{name}.{prefix}{size}_s"
            if not stop and len(times) >= 2 and times[-1] ** 2 / max(times[-2], 1e-9) > cap_s:
                stop = True
                lines.append(f"{metric}: skipped, extrapolated past the {cap_s:g} s cap")
            if not stop:
                arg = build(size)
                try:
                    dt, _ = call_capped(lambda: call(arg), cap_s)
                except CapExceeded:
                    stop = True
                    lines.append(f"{metric}: skipped, ran past the {cap_s:g} s cap")
                else:
                    times.append(dt)
                    out[metric] = (dt, "s")
                    lines.append(f"{metric} = {dt:.4f} s")
                    continue
            skipped += 1
            out[metric] = (cap_s, "s")
    out["ladder.skipped"] = (skipped, "count")
    return out, lines
