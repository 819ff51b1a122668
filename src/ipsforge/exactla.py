"""Exact Gaussian elimination over FieldSpec fields.

Matrices are lists of rows of raw coefficient tuples (see gf.FieldElem.coeffs);
pivoting is deterministic (columns left to right, first nonzero row), so every
caller gets reproducible reductions, solutions, and certificates.
"""

from __future__ import annotations

from ipsforge import _kernel as kn
from ipsforge.gf import FieldSpec


def _eliminate(work: list[list[tuple]], ncols: int, field: FieldSpec) -> list[int]:
    """Gauss-Jordan reduction of work over its first ncols columns; later
    columns ride along. Returns the pivot columns: in the reduced matrix the
    pivot of column pivots[i] is a 1 in row i, and every other row is 0 there.

    The reduction runs on sparse rows, {column: entry} of the nonzero
    entries: plain ints in [0, p) for a prime field, kernel tuples otherwise.
    Only the columns from ncols on are written back into work, in the
    reduced row order; the first ncols columns are left as they were, so
    they no longer line up with the reduced rows."""
    p, mod, k = field.p, field.modulus, field.k
    zero = 0 if k == 1 else (0,) * k
    if k == 1:
        rows = [{j: x[0] for j, x in enumerate(row) if x[0]} for row in work]
    else:
        rows = [{j: x for j, x in enumerate(row) if any(x)} for row in work]
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        # column c of the pivot row becomes 1 and is dropped: no later step reads it
        prow = rows[r]
        v = prow.pop(c)
        if k == 1:
            inv = pow(v, -1, p)
            scaled = [(j, x * inv % p) for j, x in prow.items()]
        else:
            inv = kn.vinv(v, p, mod)
            scaled = [(j, kn.vmul(inv, x, p, mod)) for j, x in prow.items()]
        prow.update(scaled)
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            f = row.pop(c)
            # f and x are nonzero, so an entry absent from row never cancels
            if k == 1:
                for j, x in scaled:
                    y = (row.get(j, 0) - f * x) % p
                    if y:
                        row[j] = y
                    else:
                        del row[j]
            else:
                for j, x in scaled:
                    y = kn.vsub(row.get(j, zero), kn.vmul(f, x, p, mod), p)
                    if any(y):
                        row[j] = y
                    else:
                        del row[j]
        pivots.append(c)
    for row, out in zip(rows, work):
        for j in range(ncols, len(out)):
            x = row.get(j, zero)
            out[j] = (x,) if k == 1 else x
    return pivots


def rank(rows: list[list[tuple]], field: FieldSpec) -> int:
    ncols = len(rows[0]) if rows else 0
    return len(_eliminate(rows, ncols, field))


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
