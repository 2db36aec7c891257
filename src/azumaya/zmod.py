"""Integer Smith normal form.

The classical pivot-and-reduce algorithm, deterministic and cubic in the
matrix size.  ``twisted`` factors the mu_n coboundary system of N indices,
N(N-1)(N-2)/6 rows, once per (N, n) per process: S, the first N - 1 rows of
V and the logged row operations give the first row beta_0j of a witness,
and the cone relation reads the rest of the witness off that row.  The cone
test decides; the form only builds witnesses.
"""

from __future__ import annotations

from itertools import compress


def smith_normal_form(mat, v=None, log=None):
    """U @ M @ V = S with U, V unimodular and S diagonal with divisibility.

    Returns (S, V) as lists of lists of ints.  Column operations act on
    ``v``, by default the identity; given, it returns v @ V.  U is not
    formed: a list ``log`` receives the row operations in order, U's
    factors: (i, j, q) for row_i -= q * row_j, so (t, t, 2) negates row t,
    and (i, j, None) for a swap.
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    s = [list(row) for row in mat]
    v = [[int(i == j) for j in range(n)] for i in range(n)] if v is None else list(map(list, v))

    # The matrices are sparse: row and column operations touch only the
    # entries where the source row or column is nonzero.
    cols = range(n)
    record = (lambda op: None) if log is None else log.append

    def row_op(i, j, q):           # row_i -= q * row_j
        record((i, j, q))
        si, sj = s[i], s[j]
        for c in compress(cols, sj):
            si[c] -= q * sj[c]

    def col_op(i, j, q):           # col_i -= q * col_j
        for rows in (s, v):
            for row in rows:
                if row[j]:
                    row[i] -= q * row[j]

    def swap_rows(i, j):
        record((i, j, None))
        s[i], s[j] = s[j], s[i]

    def swap_cols(i, j):
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    t = 0
    while t < min(m, n):
        # the first entry of least absolute value in row-major order; a unit
        # ends the search, and rows t.. are scanned whole as they start with 0s
        best, least = None, 0
        for i in range(t, m):
            low = min(map(abs, filter(None, s[i])), default=0)
            if low and (best is None or low < least):
                best, least = i, low
                if low == 1:
                    break
        if best is None:
            break
        swap_rows(t, best)
        swap_cols(t, min(s[t].index(x) for x in (least, -least) if x in s[t]))
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
            record((t, t, 2))
            s[t] = [-a for a in s[t]]
        # enforce divisibility into the trailing block, which holds every
        # nonzero entry of the rows below t
        p = s[t][t]
        if p != 1:
            fold = next((i for i in range(t + 1, m)
                         if any(map(p.__rmod__, filter(None, s[i])))), None)
            if fold is not None:
                row_op(t, fold, -1)    # fold that row into row t and restart this pivot
                continue
        t += 1
    return s, v
