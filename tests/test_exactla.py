"""rank, solve and invert against field-level matrix arithmetic, over random,
zero, rank-deficient, tall, wide and empty matrices."""

from hypothesis import given, settings, strategies as st

from ipsforge import exactla, gf
from ipsforge.gf import FieldElem

FIELDS = [gf.field_spec(2, 1), gf.field_spec(3, 2), gf.field_spec(2, 4)]


def elems(fld):
    digits = st.tuples(*[st.integers(0, fld.p - 1) for _ in range(fld.k)])
    return digits.map(lambda c: FieldElem(fld, c))


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
    kind = draw(st.sampled_from(["random", "zero", "low-rank"]))
    if kind == "zero":
        return fld, [[fld.zero()] * n for _ in range(m)]
    if kind == "random":
        return fld, [draw(st.lists(elems(fld), min_size=n, max_size=n)) for _ in range(m)]
    r = draw(st.integers(0, min(m, n)))
    left = [draw(st.lists(elems(fld), min_size=r, max_size=r)) for _ in range(m)]
    right = [draw(st.lists(elems(fld), min_size=n, max_size=n)) for _ in range(r)]
    if r == 0:
        return fld, [[fld.zero()] * n for _ in range(m)]
    return fld, matmul(left, right, fld, r)


def raw(a):
    return [[c.coeffs for c in row] for row in a]


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
    b = [c.coeffs for c in rhs]
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
