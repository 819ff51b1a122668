"""Exact Gaussian elimination over FieldSpec fields.

Matrices are lists of rows of raw coefficient tuples (see gf.FieldElem.coeffs);
pivoting is deterministic (columns left to right, first nonzero row), so every
caller gets reproducible reductions, solutions, and certificates.
"""

from __future__ import annotations

from ipsforge import _kernel as kn
from ipsforge.gf import FieldSpec


def _axpy(row, factor, src, p, mod):
    """row -= factor * src, elementwise."""
    return [
        kn.vsub(r, kn.vmul(factor, s, p, mod), p) if any(s) else r
        for r, s in zip(row, src)
    ]


def _eliminate(work: list[list[tuple]], ncols: int, field: FieldSpec) -> list[int]:
    """Gauss-Jordan reduction of work, in place, over its first ncols columns;
    later columns ride along. Returns the pivot columns: the pivot of
    column pivots[i] is a 1 in row i, and every other row is 0 there."""
    p, mod = field.p, field.modulus
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if any(work[i][c])), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = kn.vinv(work[r][c], p, mod)
        # every entry left of the pivot is zero already
        work[r] = [kn.vmul(inv, x, p, mod) if any(x) else x for x in work[r]]
        for i in range(len(work)):
            if i != r and any(work[i][c]):
                work[i] = _axpy(work[i], work[i][c], work[r], p, mod)
        pivots.append(c)
    return pivots


def rank(rows: list[list[tuple]], field: FieldSpec) -> int:
    ncols = len(rows[0]) if rows else 0
    return len(_eliminate([list(r) for r in rows], ncols, field))


def solve(rows: list[list[tuple]], rhs: list[tuple],
          field: FieldSpec) -> list[tuple] | None:
    """One solution of A x = rhs with free variables set to zero, or None."""
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = _eliminate(work, ncols, field)
    if any(any(row[-1]) for row in work[len(pivots):]):
        return None
    x = [(0,) * field.k] * ncols
    for row, col in enumerate(pivots):
        x[col] = work[row][-1]
    return x


def invert(rows: list[list[tuple]], field: FieldSpec) -> list[list[tuple]] | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    zero, one = (0,) * field.k, (1,) + (0,) * (field.k - 1)
    work = [list(r) + [one if i == j else zero for j in range(n)]
            for i, r in enumerate(rows)]
    if len(_eliminate(work, n, field)) < n:
        return None
    return [row[n:] for row in work]
