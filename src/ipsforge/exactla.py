"""Exact Gaussian elimination over FieldSpec fields.

Matrices are lists of rows of stored field elements (see gf.FieldElem.v),
for prime fields and extensions alike; pivoting is deterministic (columns
left to right, first nonzero row), so every caller gets reproducible
reductions, solutions, and certificates.
"""

from __future__ import annotations

from ipsforge import _kernel as kn
from ipsforge.gf import FieldSpec


def _eliminate(work: list[list[int]], ncols: int, field: FieldSpec) -> list[int]:
    """Gauss-Jordan reduction of work over its first ncols columns; later
    columns ride along. Returns the pivot columns: in the reduced matrix the
    pivot of column pivots[i] is a 1 in row i, and every other row is 0 there.

    The reduction runs on sparse rows, {column: entry} of the nonzero
    entries; StoredForm.fix is written out, as a call per entry costs the
    symmetric refutations several percent. Only the columns from ncols on
    are written back into work, in the reduced row order; the first ncols
    columns are left as they were, so they no longer line up with the
    reduced rows."""
    p, mod = field.p, field.modulus
    form = kn.stored_form(p, field.k)
    bias, high, shift = form.bias, form.high, form.shift
    rows = [{j: x for j, x in enumerate(row) if x} for row in work]
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
        inv = kn.vinv(prow.pop(c), p, mod)
        cols = list(prow)
        scaled = kn.vmul_cells(inv, list(prow.values()), p, mod)
        prow.update(zip(cols, scaled))
        for i, row in enumerate(rows):
            if i == r or c not in row:
                continue
            # every product is nonzero, so an entry absent from row never cancels
            for j, x in zip(cols, kn.vmul_cells(kn.vneg(row.pop(c), p, mod), scaled, p, mod)):
                d = row.get(j, 0) + x
                y = d - (((d + bias) & high) >> shift) * p
                if y:
                    row[j] = y
                else:
                    del row[j]
        pivots.append(c)
    for row, out in zip(rows, work):
        for j in range(ncols, len(out)):
            out[j] = row.get(j, 0)
    return pivots


def rank(rows: list[list[int]], field: FieldSpec) -> int:
    ncols = len(rows[0]) if rows else 0
    return len(_eliminate(rows, ncols, field))


def solve(rows: list[list[int]], rhs: list[int], field: FieldSpec) -> list[int] | None:
    """One solution of A x = rhs with free variables set to zero, or None."""
    work = [list(r) + [b] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    pivots = _eliminate(work, ncols, field)
    if any(row[-1] for row in work[len(pivots):]):
        return None
    x = [0] * ncols
    for row, col in enumerate(pivots):
        x[col] = work[row][-1]
    return x


def invert(rows: list[list[int]], field: FieldSpec) -> list[list[int]] | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(rows)
    work = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    if len(_eliminate(work, n, field)) < n:
        return None
    return [row[n:] for row in work]
