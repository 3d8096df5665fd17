"""Exact integer Smith normal form, for abelianization of finite presentations.

Pure-Python reduction over arbitrary-precision ints, in two phases.  The
relation matrices of presentations are sparse, with many +-1 entries and
repeated rows.  The first phase drops rows repeated up to sign (the factors
depend only on the row span), then pivots on unit entries of sparse rows
(Havas & Majewski, "Integer matrix diagonalization", J. Symbolic Comput. 24,
1997), taking the one with the least (row weight - 1) * (column weight - 1).
Each step is unimodular: it clears the pivot's column with row operations,
and its row then only by column operations, so it contributes one factor 1
and drops the pivot's row and column.  The residual, usually small, goes to
the dense phase: row/column reduction with pivots chosen by minimal absolute
value; after clearing the border, divisibility of the pivot into the
remaining block is restored by folding an offending column into the pivot
column.  Factors come out nonnegative and in divisibility order.
"""

from __future__ import annotations


def smith_normal_form(matrix) -> list:
    """Invariant factors of an integer matrix (zeros dropped from the diagonal shape).

    Returns the list of nonzero invariant factors d_1 | d_2 | ... ; the rank
    is their count.  The cokernel of the matrix, viewed as a map on column
    vectors Z^cols / im, is Z^(cols - rank) plus Z/d for each factor d > 1.
    """
    units, residual = _eliminate_units(matrix)
    cols = sorted({j for row in residual for j in row})
    return [1] * units + _dense_factors([[row.get(j, 0) for j in cols] for row in residual])


def _eliminate_units(matrix) -> tuple:
    """(number of unit pivots taken, the remaining nonzero rows as {column: entry})."""
    rows, seen = {}, set()
    col_rows: dict = {}                         # column -> rows with an entry there
    for i, row in enumerate(matrix):
        entries = {j: int(v) for j, v in enumerate(row) if v}
        if not entries:
            continue
        # the factors depend only on the row span, so a row repeated up to
        # sign is dropped (relation matrices repeat most of their rows)
        sign = 1 if next(iter(entries.values())) > 0 else -1
        key = tuple((j, sign * v) for j, v in entries.items())
        if key in seen:
            continue
        seen.add(key)
        rows[i] = entries
        for j in entries:
            col_rows.setdefault(j, set()).add(i)
    units = 0
    while True:
        best, least = None, None
        for i, row in rows.items():
            weight = len(row) - 1
            for j, v in row.items():
                if v == 1 or v == -1:
                    cost = weight * (len(col_rows[j]) - 1)
                    if best is None or cost < least:
                        best, least = (i, j), cost
            if least == 0:
                break
        if best is None:
            return units, list(rows.values())
        r, c = best
        pivot = rows.pop(r)
        for j in pivot:
            col_rows[j].discard(r)
        for i in col_rows.pop(c):
            row = rows[i]
            q = row[c] * pivot[c]               # pivot[c] is its own inverse
            for j, v in pivot.items():
                w = row.get(j, 0) - q * v
                if w:
                    row[j] = w
                    col_rows[j].add(i)
                else:
                    del row[j]
                    if j != c:
                        col_rows[j].discard(i)
            if not row:
                del rows[i]
        units += 1


def _dense_factors(m) -> list:
    """The dense phase: invariant factors of a list-of-lists integer matrix."""
    if not m or not m[0]:
        return []
    rows, cols = len(m), len(m[0])
    factors = []
    s = 0
    while s < min(rows, cols) and _swap_min_to_pivot(m, s, rows, cols):
        while True:
            _reduce_border(m, s, rows, cols)
            if all(m[i][s] == 0 for i in range(s + 1, rows)) and \
               all(m[s][j] == 0 for j in range(s + 1, cols)):
                if _fold_nondivisible(m, s, rows, cols):
                    continue
                break
            _swap_min_to_pivot(m, s, rows, cols)
        if m[s][s] < 0:
            m[s][s] = -m[s][s]
        factors.append(m[s][s])
        s += 1
    return [f for f in factors if f != 0]


def _find_pivot(m, s, rows, cols):
    best = None
    for i in range(s, rows):
        for j in range(s, cols):
            v = abs(m[i][j])
            if v and (best is None or v < abs(m[best[0]][best[1]])):
                best = (i, j)
    return best


def _swap_min_to_pivot(m, s, rows, cols) -> bool:
    """Move the least nonzero entry of the block to (s, s); False if there is none."""
    pivot = _find_pivot(m, s, rows, cols)
    if pivot is None:
        return False
    r, c = pivot
    if r != s:
        m[s], m[r] = m[r], m[s]
    if c != s:
        for row in m:
            row[s], row[c] = row[c], row[s]
    return True


def _reduce_border(m, s, rows, cols):
    p = m[s][s]
    for i in range(s + 1, rows):
        if m[i][s]:
            q = m[i][s] // p
            for j in range(s, cols):
                m[i][j] -= q * m[s][j]
    for j in range(s + 1, cols):
        if m[s][j]:
            q = m[s][j] // p
            for i in range(s, rows):
                m[i][j] -= q * m[i][s]


def _fold_nondivisible(m, s, rows, cols) -> bool:
    p = m[s][s]
    for i in range(s + 1, rows):
        for j in range(s + 1, cols):
            if m[i][j] % p:
                for k in range(s, rows):
                    m[k][s] += m[k][j]
                return True
    return False


def cokernel_invariants(matrix, cols: int) -> tuple:
    """(free_rank, torsion list) of Z^cols / row span of the matrix."""
    factors = smith_normal_form(matrix) if matrix else []
    torsion = [d for d in factors if d > 1]
    return cols - len(factors), torsion
