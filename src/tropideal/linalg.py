"""Exact integer linear algebra: one fraction-free elimination.

Bareiss's multistep integer-preserving elimination (Math. Comp. 1968),
carried to Gauss-Jordan form.  After the step on the k-th pivot every
entry is a (k+1)-minor of the input, so each division is exact and
entries stay as small as minors, never as large as products of rows.
"""

from __future__ import annotations


def echelon(rows) -> tuple[list[int], list[list[int]], int]:
    """Fraction-free reduced row echelon form of integer rows.

    Returns (pivots, reduced, d): the pivot columns in increasing order,
    one row per pivot, and d != 0 such that reduced / d is the reduced row
    echelon form (leftmost pivoting).  d is the determinant of the block of
    pivot columns on the rows that supplied the pivots, up to sign.  With
    no pivots d is 1.
    """
    rows = [list(r) for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    d = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[c]
            if f:
                rows[i] = [(p * x - f * y) // d for x, y in zip(row, prow)]
            elif p != d:
                rows[i] = [p * x // d for x in row]
        d = p
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots, rows[:r], d
