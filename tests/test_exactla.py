"""rank, solve and invert against field-level matrix arithmetic, over random,
zero, rank-deficient, sparse, tall, wide and empty matrices; and against a
dense Gauss-Jordan reference, output for output, also on wide matrices that
reach full row rank long before their last column."""

from unittest import mock

from hypothesis import given, settings, strategies as st

from ipsforge import _kernel as kn
from ipsforge import exactla, gf
from ipsforge.gf import FieldElem

# prime fields, reduced on packed rows: small p with one- and two-byte slots,
# 257 with 6-byte slots and residues past one byte, 1000003 and 2^61 - 1; and
# extensions, on sparse rows, (2,4) and (2,12) through the kernel's p = 2
# branch, and (257,2), whose two-byte cells the broadword subtraction meets
FIELDS = [gf.field_spec(p, k) for p, k in
          [(2, 1), (3, 1), (5, 1), (7, 1), (257, 1), (1000003, 1), (2**61 - 1, 1),
           (3, 2), (2, 4), (2, 12), (257, 2)]]


def elems(fld):
    digits = st.tuples(*[st.integers(0, fld.p - 1) for _ in range(fld.k)])
    return digits.map(fld.from_coeffs)


def matmul(a, b, fld, inner):
    """a (rows x inner) times b (inner x cols), entry by entry."""
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            acc = fld.zero()
            for t in range(inner):
                acc = acc + row[t] * b[t][j]
            out_row.append(acc)
        out.append(out_row)
    return out


@st.composite
def matrices(draw, square=False):
    """(field, m x n matrix of FieldElem): random, zero, or a product of an
    m x r and an r x n factor, so of rank at most r."""
    fld = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(0, 5))
    n = m if square else draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["random", "zero", "low-rank", "sparse"]))
    if kind == "zero":
        return fld, [[fld.zero()] * n for _ in range(m)]
    if kind == "random":
        return fld, [draw(st.lists(elems(fld), min_size=n, max_size=n)) for _ in range(m)]
    if kind == "sparse":
        return fld, draw(sparse_rows(fld, m, n))
    r = draw(st.integers(0, min(m, n)))
    left = [draw(st.lists(elems(fld), min_size=r, max_size=r)) for _ in range(m)]
    right = [draw(st.lists(elems(fld), min_size=n, max_size=n)) for _ in range(r)]
    if r == 0:
        return fld, [[fld.zero()] * n for _ in range(m)]
    return fld, matmul(left, right, fld, r)


@st.composite
def sparse_rows(draw, fld, m, n):
    """m mostly-zero rows of length n, where each row after the first is a
    fresh sparse row, a scalar multiple of an earlier row or the sum of two,
    so that entries cancel to zero during elimination."""
    # about two entries in three are zero
    sparse_elem = st.one_of(st.just(fld.zero()), st.just(fld.zero()), elems(fld))
    rows = []
    for _ in range(m):
        how = draw(st.sampled_from(["fresh", "multiple", "sum"])) if rows else "fresh"
        if how == "fresh":
            rows.append(draw(st.lists(sparse_elem, min_size=n, max_size=n)))
        elif how == "multiple":
            src, c = draw(st.sampled_from(rows)), draw(elems(fld))
            rows.append([c * x for x in src])
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append([x + y for x, y in zip(a, b)])
    return rows


def raw(a):
    return [[c.v for c in row] for row in a]


def transpose(a, ncols):
    return [[row[j] for row in a] for j in range(ncols)]


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_rank_of_transpose(case):
    fld, a = case
    ncols = len(a[0]) if a else 0
    rank = exactla.rank(raw(a), fld)
    assert rank == exactla.rank(raw(transpose(a, ncols)), fld)
    assert rank <= min(len(a), ncols)


@settings(max_examples=150, deadline=None)
@given(matrices(), st.data())
def test_solve_exactly_when_consistent(case, data):
    fld, a = case
    ncols = len(a[0]) if a else 0
    rhs = data.draw(st.one_of(
        st.lists(elems(fld), min_size=len(a), max_size=len(a)),
        # a right-hand side in the column space: always consistent
        st.lists(elems(fld), min_size=ncols, max_size=ncols).map(
            lambda x: [row[0] for row in matmul(a, [[v] for v in x], fld, ncols)]
            if ncols else [fld.zero()] * len(a)),
    ))
    b = [c.v for c in rhs]
    consistent = exactla.rank(raw(a), fld) == exactla.rank(
        [r + [c] for r, c in zip(raw(a), b)], fld)
    x = exactla.solve(raw(a), b, fld)
    if not consistent:
        assert x is None
        return
    assert x is not None
    if not a:
        return
    assert len(x) == ncols
    ax = matmul(a, [[FieldElem(fld, v)] for v in x], fld, ncols)
    assert [row[0] if row else fld.zero() for row in ax] == rhs


@settings(max_examples=150, deadline=None)
@given(matrices(square=True))
def test_invert_exactly_when_full_rank(case):
    fld, a = case
    n = len(a)
    inv = exactla.invert(raw(a), fld)
    if exactla.rank(raw(a), fld) < n:
        assert inv is None
        return
    assert inv is not None
    b = [[FieldElem(fld, c) for c in row] for row in inv]
    identity = [[fld.one() if i == j else fld.zero() for j in range(n)] for i in range(n)]
    assert matmul(b, a, fld, n) == identity
    assert matmul(a, b, fld, n) == identity


def dense_eliminate(work, ncols, field):
    """Dense Gauss-Jordan reference for exactla._eliminate, with the same
    pivot order: every row is a list of stored elements, reduced in place
    over all its columns."""
    p, mod = field.p, field.modulus
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(work):
            break
        pivot = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = kn.vinv(work[r][c], p, mod)
        work[r] = [kn.vmul(inv, x, p, mod) if x else x for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [kn.vsub(x, kn.vmul(f, s, p, mod), p, mod) if s else x
                           for x, s in zip(work[i], work[r])]
        pivots.append(c)
    return pivots


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_same_outputs_as_dense_reference(case, data):
    """rank, solve's free-variables-zero solution and invert equal those of
    the dense routine element for element: certificate bytes depend on the
    particular solution, not just on its existence."""
    fld, a = case
    m, n = len(a), len(a[0]) if a else 0
    rhs = [c.v for c in data.draw(st.lists(elems(fld), min_size=m, max_size=m))]
    rows = raw(a)
    got = (exactla.rank(rows, fld), exactla.solve(rows, rhs, fld),
           exactla.invert(rows, fld) if m == n else None)
    assert rows == raw(a)  # rank reduces without a copy, but leaves its input as it was
    with mock.patch.object(exactla, "_eliminate", dense_eliminate):
        want = (exactla.rank(raw(a), fld), exactla.solve(raw(a), rhs, fld),
                exactla.invert(raw(a), fld) if m == n else None)
    assert got == want


@st.composite
def early_full_rank(draw):
    """(field, m x n matrix of FieldElem, right-hand side): m <= 6 rows, up to
    60 columns, of full row rank within the first few columns (a shuffled
    upper-triangular block with a nonzero diagonal, then random columns), so
    that elimination stops long before the last column."""
    fld = draw(st.sampled_from(FIELDS))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, 60))
    units = elems(fld).filter(lambda c: not c.is_zero())
    rows = [[fld.zero()] * i + [draw(units)] + draw(st.lists(elems(fld), min_size=n - i - 1,
                                                                max_size=n - i - 1))
            for i in range(m)]
    rows = draw(st.permutations(rows))
    return fld, rows, draw(st.lists(elems(fld), min_size=m, max_size=m))


@settings(max_examples=60, deadline=None)
@given(early_full_rank())
def test_early_full_rank_against_dense_reference(case):
    """rank is m, solve writes the right-hand side back after the early stop
    and solves the system, and both equal the dense routine's outputs."""
    fld, a, rhs = case
    m, n = len(a), len(a[0])
    b = [c.v for c in rhs]
    got = (exactla.rank(raw(a), fld), exactla.solve(raw(a), b, fld))
    with mock.patch.object(exactla, "_eliminate", dense_eliminate):
        want = (exactla.rank(raw(a), fld), exactla.solve(raw(a), b, fld))
    assert got == want
    assert got[0] == m
    ax = matmul(a, [[FieldElem(fld, v)] for v in got[1]], fld, n)
    assert [row[0] for row in ax] == rhs
