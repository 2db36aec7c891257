"""The Smith normal form against the classical algorithm, and the mu_n
coboundary witness against a solve of its whole system.

``oracle_smith_normal_form`` and ``oracle_solve_mod`` are the plain
pivot-and-reduce algorithm, with the full pivot search, the divisibility
scan after every pivot, dense row and column operations and an explicit U.
The library skips work that cannot change a value and never forms U, so it
must return the same (S, V), and its row-operation log, replayed on the
identity, must give the same U.  ``solve_mod`` solves through the library's
form, carrying the needed rows of V and replaying the log onto b; it must
give the oracle's solutions, and ``twisted.is_coboundary`` must give its
solution of the d system on sorted triples.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from azumaya import twisted
from azumaya.cli import cochain_to_json, serialize_report
from azumaya.suites import rand_cochain1
from azumaya.twisted import Cochain1, CoverNerve, Mu, coboundary, is_coboundary
from azumaya.zmod import smith_normal_form


def solve_mod(a, b, n: int):
    """One solution x of A x = b (mod n), or None.

    Solves A x + n t = b over the integers via Smith normal form.
    """
    m = len(a)
    cols = len(a[0]) if m else 0
    aug = [list(row) + [n if i == j else 0 for j in range(m)]
           for i, row in enumerate(a)]
    total = cols + m
    # U b and the first cols rows of V are all that the solution reads
    log = []
    s, v = smith_normal_form(aug, [[int(i == j) for j in range(total)] for i in range(cols)], log)
    y = [0] * total
    for i, (c,) in enumerate(replay(log, [[x] for x in b])):
        d = s[i][i] if i < total else 0
        if d:
            if c % d:
                return None
            y[i] = c // d
        elif c:
            return None
    return [sum(v[i][k] * y[k] for k in range(total)) % n for i in range(cols)]


def replay(log, rows):
    """U @ rows: the logged row operations applied in order to ``rows``."""
    rows = [list(row) for row in rows]
    for i, j, q in log:
        if q is None:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[j])]
    return rows


def smith_with_u(mat):
    """The library's (U, S, V), U rebuilt from the row-operation log."""
    log = []
    s, v = smith_normal_form(mat, log=log)
    return replay(log, [[int(i == j) for j in range(len(mat))] for i in range(len(mat))]), s, v


def oracle_smith_normal_form(mat):
    m = len(mat)
    n = len(mat[0]) if m else 0
    s = [list(row) for row in mat]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, j, q):           # row_i -= q * row_j
        s[i] = [a - q * b for a, b in zip(s[i], s[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def col_op(i, j, q):           # col_i -= q * col_j
        for row in s:
            row[i] -= q * row[j]
        for row in v:
            row[i] -= q * row[j]

    def swap_rows(i, j):
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if s[i][j] and (best is None or abs(s[i][j]) < abs(s[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if s[i][t]:
                    q = s[i][t] // s[t][t]
                    row_op(i, t, q)
                    if s[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if s[t][j]:
                    q = s[t][j] // s[t][t]
                    col_op(j, t, q)
                    if s[t][j]:
                        swap_cols(t, j)
                        dirty = True
        if s[t][t] < 0:
            s[t] = [-a for a in s[t]]
            u[t] = [-a for a in u[t]]
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if s[i][j] % s[t][t]:
                    row_op(t, i, -1)
                    break
            else:
                continue
            break
        else:
            t += 1
            continue
    return u, s, v


def oracle_solve_mod(a, b, n):
    m = len(a)
    cols = len(a[0]) if m else 0
    aug = [list(row) + [n if i == j else 0 for j in range(m)]
           for i, row in enumerate(a)]
    total = cols + m
    u, s, v = oracle_smith_normal_form(aug)
    ub = [sum(u[i][k] * b[k] for k in range(m)) for i in range(m)]
    y = [0] * total
    for i in range(m):
        d = s[i][i] if i < total else 0
        if d:
            if ub[i] % d:
                return None
            y[i] = ub[i] // d
        elif ub[i]:
            return None
    return [sum(v[i][k] * y[k] for k in range(total)) % n for i in range(cols)]


def coboundary_system(size, n):
    """The d system whose solution ``twisted.is_coboundary`` returns: one
    row per sorted triple, one column per sorted pair, entries reduced mod n."""
    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    pos = {p: c for c, p in enumerate(pairs)}
    rows = []
    for i in range(size):
        for j in range(i + 1, size):
            for k in range(j + 1, size):
                row = [0] * len(pairs)
                row[pos[(j, k)]] += 1
                row[pos[(i, k)]] -= 1
                row[pos[(i, j)]] += 1
                rows.append([c % n for c in row])
    return rows


def assert_same(mat, b, n):
    assert smith_with_u(mat) == oracle_smith_normal_form(mat)
    amod = [[x % n for x in row] for row in mat]
    assert solve_mod(amod, b, n) == oracle_solve_mod(amod, b, n)


def test_coboundary_systems_match_oracle():
    rng = random.Random(239)
    solvable = 0
    for size in range(3, 9):
        for n in range(2, 13):
            rows = coboundary_system(size, n)
            # a right-hand side from a 1-cochain is solvable, a random one rarely
            beta = [rng.randrange(n) for _ in rows[0]]
            consistent = [sum(r * x for r, x in zip(row, beta)) % n for row in rows]
            for b in (consistent, [rng.randrange(n) for _ in rows]):
                sol = solve_mod(rows, b, n)
                assert sol == oracle_solve_mod(rows, b, n)
                solvable += sol is not None
            if size <= 6:
                aug = [row + [n * (i == j) for j in range(len(rows))]
                       for i, row in enumerate(rows)]
                assert smith_with_u(aug) == oracle_smith_normal_form(aug)
            assert smith_with_u(rows) == oracle_smith_normal_form(rows)
    assert solvable >= 66


def test_small_integer_matrices_match_oracle():
    rng = random.Random(241)
    for _ in range(600):
        m, c = rng.randint(1, 4), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(c)]
               for _ in range(m)]
        n = rng.randint(1, 12)
        assert_same(mat, [rng.randrange(n) for _ in range(m)], n)


@st.composite
def small_systems(draw):
    m, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    mat = draw(st.lists(st.lists(st.integers(-5, 5), min_size=c, max_size=c),
                        min_size=m, max_size=m))
    n = draw(st.integers(1, 12))
    b = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return mat, b, n


@settings(max_examples=300, deadline=None)
@given(small_systems())
def test_small_integer_matrices_match_oracle_hypothesis(system):
    assert_same(*system)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(2, 12), st.integers(0, 2 ** 32))
def test_coboundary_systems_match_oracle_hypothesis(size, n, seed):
    rng = random.Random(seed)
    rows = coboundary_system(size, n)
    beta = [rng.randrange(n) for _ in rows[0]]
    b = [(sum(r * x for r, x in zip(row, beta)) + (rng.random() < 0.3)) % n
         for row in rows]
    assert solve_mod(rows, b, n) == oracle_solve_mod(rows, b, n)


def test_left_and_right_factors_are_carried():
    # v @ V from the same column operations as V itself, and U b from the
    # same row-operation log as U
    mat = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    u, s, v = smith_with_u(mat)
    b = [3, -1, 7]
    log = []
    s2, v2 = smith_normal_form(mat, [[1, 0, 0], [0, 1, 0]], log)
    assert s2 == s
    assert replay(log, [[x] for x in b]) == [[sum(u[i][k] * b[k] for k in range(3))]
                                             for i in range(3)]
    assert v2 == v[:2]
    assert [[sum(u[i][k] * mat[k][l] * v[l][j] for k in range(3) for l in range(3))
             for j in range(3)] for i in range(3)] == s


def test_the_row_operation_log_replays_to_u():
    # the logged operations applied in order to the identity give the
    # oracle's U, and U M V = S; keeping no log changes nothing
    rng = random.Random(263)
    for _ in range(300):
        m, c = rng.randint(1, 5), rng.randint(1, 5)
        mat = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0 for _ in range(c)]
               for _ in range(m)]
        u, s, v = smith_with_u(mat)
        assert (s, v) == smith_normal_form(mat)
        assert u == oracle_smith_normal_form(mat)[0]
        assert [[sum(u[i][k] * mat[k][l] * v[l][j] for k in range(m) for l in range(c))
                 for j in range(c)] for i in range(m)] == s

def test_cached_witness_is_the_solve_mod_solution():
    # the witness map is built once per (size, n) from one Smith normal form
    # and read with the cone relation; it must give, zeros included and in
    # the same bytes, the solution of the whole sorted-triple system
    rng = random.Random(257)
    groups = (1, 2, 3, 4, 5, 6, 8, 12, 30)
    cases = [coboundary(rand_cochain1(rng, CoverNerve(size), Mu(n)))
             for size in range(1, 11) for n in groups for _ in range(7 if size < 8 else 3)]
    assert len(cases) >= 500
    twisted._witness_map.cache_clear()
    witnesses = []
    for alpha in cases:
        size, n = alpha.nerve.index_count, alpha.group.n
        pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
        triples = [(i, j, k) for i, j in pairs for k in range(j + 1, size)]
        rhs = [alpha.value(*t) for t in triples]
        expected = dict(zip(pairs, solve_mod(coboundary_system(size, n), rhs, n)))
        ok, witness = is_coboundary(alpha)
        assert ok
        assert list(witness.values.items()) == list(expected.items())
        assert (serialize_report(cochain_to_json(witness))
                == serialize_report(cochain_to_json(Cochain1(alpha.nerve, alpha.group,
                                                             expected))))
        witnesses.append(witness.values)
    # one build per (size, n) with size >= 3; every repeat is a cache hit
    info = twisted._witness_map.cache_info()
    assert info.misses == 8 * len(groups)
    assert info.hits + info.misses == sum(alpha.nerve.index_count > 2 for alpha in cases)
    twisted._witness_map.cache_clear()
    assert [is_coboundary(alpha)[1].values for alpha in cases] == witnesses
