"""Exact Gaussian elimination over FieldSpec fields.

Matrices are lists of rows of stored field elements (see gf.FieldElem.v),
for prime fields and extensions alike; pivoting is deterministic (columns
left to right, first nonzero row), so every caller gets reproducible
reductions, solutions, and certificates.

Over F_p a row is one int, column j in S-byte slot j (Dumas, Giorgi & Pernet,
ACM TOMS 2008), and row + (p - e) * pivot row takes one broadword Barrett step
(Moller & Granlund, IEEE TC 2011); over F_{p^k}, k > 1, rows are sparse,
{column: entry}, with one ``vmul_cells`` per row update. Density decides:
packed extension rows, prototyped, lost on the oracle's sparse matrices
(GF(3^8) 78 vs 17 ms, GF(2^12) 92 vs 15, GF(2^24) 251 vs 21), and dict rows
on the refute solves, about 24% dense (153 vs 20 ms).
"""

from __future__ import annotations

from ipsforge import _kernel as kn
from ipsforge.gf import FieldSpec


def _eliminate(work: list[list[int]], ncols: int, field: FieldSpec) -> list[int]:
    """Gauss-Jordan reduction of work over its first ncols columns; later
    columns ride along. Returns the pivot columns: in the reduced matrix the
    pivot of column pivots[i] is a 1 in row i, and every other row is 0 there.
    Only the columns from ncols on are written back into work, in the reduced
    row order."""
    p, mod = field.p, field.modulus
    if field.k == 1:
        return _eliminate_packed(work, ncols, p, mod)
    form = kn.stored_form(p, field.k)
    bias, high, shift = form.bias, form.high, form.shift
    rows = [{j: x for j, x in enumerate(row) if x} for row in work]
    pivots: list[int] = []
    for c in range(ncols):
        if (r := len(pivots)) == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if c in rows[i]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        # column c of the pivot row becomes 1 and is dropped: no later step reads it
        prow = rows[r]
        inv, cols = kn.vinv(prow.pop(c), p, mod), list(prow)
        prow.update(zip(cols, scaled := kn.vmul_cells(inv, list(prow.values()), p, mod)))
        for row in rows[:r] + rows[r + 1:]:
            if e := row.pop(c, 0):  # every product is nonzero: an absent entry never cancels
                for j, x in zip(cols, kn.vmul_cells(kn.vneg(e, p, mod), scaled, p, mod)):
                    if y := (d := row.get(j, 0) + x) - (((d + bias) & high) >> shift) * p:
                        row[j] = y
                    else:
                        del row[j]
        pivots.append(c)
    for row, out in zip(rows, work):
        for j in range(ncols, len(out)):
            out[j] = row.get(j, 0)
    return pivots


def _eliminate_packed(work: list[list[int]], ncols: int, p: int, mod: tuple) -> list[int]:
    """_eliminate on packed rows over F_p. Rows from r on are zero left of the next
    pivot column, so it is their lowest nonzero slot, taken on the first row with it."""
    bits, width = p.bit_length(), len(work[0]) if work else 0
    size, s, m = kn.barrett_slots(p, (p * (p - 1)).bit_length())  # slots <= p-1 + (p-1)^2
    w, buf, mask = 8 * size, bytearray(width * size), kn.pack([(1 << bits) - 1] * width, size)
    def load(row):  # residues below 256 spread to the slot stride at C speed
        buf[::size] = bytes(row)
        return int.from_bytes(buf, "little")
    rows = [load(row) if p < 256 else kn.pack(row, size) for row in work]
    pivots, slot = [], (1 << w) - 1
    def fix(x):
        return x - ((x * m >> s) & mask) * p
    for r in range(len(rows)):
        lows = [((x & -x).bit_length() - 1) // w if x else width for x in rows[r:]]
        if (c := min(lows, default=width)) >= ncols:
            break
        i = r + lows.index(c)
        rows[r], rows[i] = rows[i], rows[r]
        rows[r] = prow = fix(rows[r] * kn.vinv(rows[r] >> w * c & slot, p, mod))
        for i, row in enumerate(rows):
            if i != r and (e := row >> w * c & slot):
                rows[i] = fix(row + (p - e) * prow)
        pivots.append(c)
    for row, out in zip(rows, work):
        out[ncols:] = kn.unpack(row >> w * ncols, width - ncols, size)
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
