"""Poly's packed terms against references on exponent and coefficient tuples.

The product reference multiplies term by term with conftest's schoolbook
product, which runs none of the kernel's code, and adds coefficient vectors
componentwise mod p, reducing every single product; Poly keeps exponents and
coefficients packed into ints and reduces once per output term. Sums, negation, scaling, restriction, multilinearization, collect,
division by the axioms and the text round trip have references on tuple
dicts too. Hypothesis drives random operands; the worst cases for the
coefficient slots are fixed below.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ipsforge import _gfcore_py as ref
from ipsforge import gf, mvpoly
from ipsforge.errors import ArityMismatch
from ipsforge.mvpoly import (
    Poly,
    collect,
    divide_by_axioms,
    format_poly,
    ml_partial,
    parse_poly,
    sum_of_products,
)

from conftest import schoolbook as schoolbook_vectors

FIELDS = [(p, k) for p in (2, 3, 5, 13) for k in (1, 2, 3, 6, 12)]
MULTIBYTE = [(1000003, 2), ((1 << 61) - 1, 2)]  # 3- and 8-byte cells


def vadd(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def vneg(a, p):
    return tuple(-x % p for x in a)


def vmul(a, b, field):
    """The product of coefficient vectors by the schoolbook reference."""
    return schoolbook_vectors(tuple(a), tuple(b), field.p, field.modulus)


def schoolbook(pairs, field):
    """sum f*g over the pairs, one vmul and one vadd per term pair."""
    p = field.p
    out = {}
    for f, g in pairs:
        for e1, c1 in f.items():
            for e2, c2 in g.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod = vmul(c1.coeffs, c2.coeffs, field)
                out[key] = vadd(out[key], prod, p) if key in out else prod
    return {e: c for e, c in out.items() if any(c)}


def coeff_map(f):
    return {e: c.coeffs for e, c in f.items()}


@st.composite
def operands(draw, count):
    p, k = draw(st.sampled_from(FIELDS))
    field = gf.field_spec(p, k)
    n = draw(st.integers(0, 3))
    # mostly small exponents; now and then ones whose sums need two-byte slots
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(120, 300))
                       for _ in range(n)])
    coeffs = st.tuples(*[st.integers(0, p - 1) for _ in range(k)])
    polys = []
    for _ in range(count):
        terms = draw(st.dictionaries(exps, coeffs, max_size=12))
        polys.append(Poly(n, field, {e: field.from_coeffs(c) for e, c in terms.items()}))
    return field, polys


@settings(max_examples=60, deadline=None)
@given(operands(2))
def test_product_matches_schoolbook(case):
    field, (f, g) = case
    assert coeff_map(f * g) == schoolbook([(f, g)], field)
    assert f * g == g * f


@settings(max_examples=40, deadline=None)
@given(operands(4))
def test_sum_of_products_matches_schoolbook(case):
    field, (a, b, c, d) = case
    total = sum_of_products(a.n, field, [(a, b), (c, d)])
    assert coeff_map(total) == schoolbook([(a, b), (c, d)], field)
    assert total == a * b + c * d


@settings(max_examples=40, deadline=None)
@given(operands(1), st.data())
def test_scale_matches_schoolbook(case, data):
    field, (f,) = case
    c = field.from_coeffs(data.draw(st.tuples(*[st.integers(0, field.p - 1)
                                                  for _ in range(field.k)])))
    assert coeff_map(f.scale(c)) == schoolbook([(f, Poly.const(f.n, field, c))], field)


def all_top(field):
    """The coefficient whose every component is p-1."""
    return field.from_coeffs((field.p - 1,) * field.k)


@pytest.mark.parametrize("p,k", FIELDS)
@pytest.mark.parametrize("m", [1, 2, 5, 16, 33])
def test_dense_univariate_worst_case(p, k, m):
    """f = sum_{i<m} c x^i with every component of c equal to p-1: all m terms
    of f pair up on x^(m-1) in f*f, so that coefficient's middle convolution
    slot reaches the largest value a sum of products can, m*k*(p-1)^2."""
    field = gf.field_spec(p, k)
    f = Poly(1, field, {(i,): all_top(field) for i in range(m)})
    assert coeff_map(f * f) == schoolbook([(f, f)], field)


@pytest.mark.parametrize("p,k", FIELDS)
def test_all_top_simplex_squared(p, k):
    """Every monomial of degree <= d in n variables, each with the all-(p-1)
    coefficient, times itself: many term pairs land on every output monomial
    (the (x1+...+xn)^d shape with every coefficient at its largest)."""
    field = gf.field_spec(p, k)
    n, d = 3, 4
    f = Poly(n, field, {e: all_top(field)
                        for e in itertools.product(range(d + 1), repeat=n)
                        if sum(e) <= d})
    assert coeff_map(f * f) == schoolbook([(f, f)], field)


def test_sum_of_products_checks_every_factor():
    f4, f9 = gf.field_spec(2, 2), gf.field_spec(3, 2)
    assert sum_of_products(2, f4, []) == Poly.zero(2, f4)
    with pytest.raises(ArityMismatch):
        sum_of_products(2, f4, [(Poly.one(2, f4), Poly.one(3, f4))])
    with pytest.raises(ArityMismatch):
        sum_of_products(2, f4, [(Poly.one(2, f9), Poly.one(2, f9))])


# ---------------------------------------------------------------------------
# Kronecker products of dense multilinear pairs (prime fields)

def multilinear(field, n, size, rng):
    """A multilinear poly with size distinct monomials and nonzero coefficients."""
    return Poly(n, field, {tuple(m >> v & 1 for v in range(n)): field.from_int(
        rng.randrange(1, field.p)) for m in rng.sample(range(1 << n), size)})


def least_dense(n):
    """The least |g| that makes a pair with a full multilinear f dense."""
    return -(-mvpoly.DENSE * 3 ** n // 2 ** n)


@st.composite
def kronecker_mixes(draw):
    """A dense multilinear pair, where n allows one, beside a sparse
    multilinear pair and a pair with exponents up to 3; below n = 5 every
    pair goes term pair by term pair."""
    field = gf.field_spec(draw(st.sampled_from([2, 3, 5, 7])), 1)
    n, rng = draw(st.integers(0, 8)), draw(st.randoms(use_true_random=False))
    full, need = 1 << n, least_dense(n)
    pairs = [(multilinear(field, n, min(full, 2), rng), multilinear(field, n, min(full, 3), rng)),
             (Poly(n, field, {tuple(rng.randrange(4) for _ in range(n)): field.from_int(
                 rng.randrange(1, field.p)) for _ in range(5)}),
              multilinear(field, n, min(full, 4), rng))]
    if need <= full:
        size = draw(st.integers(need, min(full, need + 8)))
        pairs.append((multilinear(field, n, full, rng), multilinear(field, n, size, rng)))
    return field, n, draw(st.permutations(pairs)), n >= 5 and need <= full


@settings(max_examples=40, deadline=None)
@given(kronecker_mixes())
def test_kronecker_products_match_schoolbook(case):
    field, n, pairs, dense = case
    with mock.patch.object(mvpoly, "_kronecker", wraps=mvpoly._kronecker) as kron:
        total = sum_of_products(n, field, pairs)
    assert kron.called == dense
    assert coeff_map(total) == schoolbook(pairs, field)


@pytest.mark.parametrize("p", [2, 7, 251, 65521])
def test_kronecker_worst_case_slots(p):
    """Three full multilinear squares with every coefficient p-1: the slot
    of x1...xn collects 2^n term pairs of (p-1)^2 from each, which takes
    one-, two-, four- and eight-byte slots for these p."""
    field, n = gf.field_spec(p, 1), 5
    f = Poly(n, field, {e: field.from_int(p - 1) for e in itertools.product((0, 1), repeat=n)})
    with mock.patch.object(mvpoly, "_kronecker", wraps=mvpoly._kronecker) as kron:
        total = sum_of_products(n, field, [(f, f)] * 3)
    assert kron.called
    assert coeff_map(total) == schoolbook([(f, f)] * 3, field)


@pytest.mark.parametrize("extra,dense", [(0, True), (-1, False)])
def test_density_threshold_sides(extra, dense, rng):
    """|f| |g| just at DENSE * 3^n takes the Kronecker path, one term less
    the term-pair loop; both give the schoolbook sum."""
    field, n = gf.field_spec(3, 1), 5
    pair = (multilinear(field, n, 2 ** n, rng), multilinear(field, n, least_dense(n) + extra, rng))
    with mock.patch.object(mvpoly, "_kronecker", wraps=mvpoly._kronecker) as kron:
        total = sum_of_products(n, field, [pair])
    assert kron.called == dense
    assert coeff_map(total) == schoolbook([pair], field)


# ---------------------------------------------------------------------------
# every term-level operation against a reference on {exponent tuple:
# coefficient tuple} dicts, built with componentwise sums mod p and the
# schoolbook product

REF_FIELDS = [(p, k) for p in (2, 3, 13) for k in (1, 2, 3, 6, 12)]


def tuple_map(f):
    return {e: c.coeffs for e, c in f.items()}


def ref_collect(pieces, p):
    out = {}
    for e, c in pieces:
        e = tuple(e)
        out[e] = vadd(out[e], c, p) if e in out else c
    return {e: c for e, c in out.items() if any(c)}


def ref_restrict(terms, values, field):
    pieces = []
    for e, c in terms.items():
        for i, v in values.items():
            for _ in range(e[i]):  # v^e[i] by schoolbook products
                c = vmul(c, v.coeffs, field)
        pieces.append((tuple(0 if i in values else d for i, d in enumerate(e)), c))
    return ref_collect(pieces, field.p)


def ref_divide(terms, n, e, p):
    """Sequential division by x_j^e - x_j, j ascending, on tuples."""
    rem, quotients = dict(terms), []
    for j in range(n):
        q, pieces = [], []
        for exp, c in rem.items():
            d = exp[j]
            while d >= e:
                q.append((exp[:j] + (d - e,) + exp[j + 1:], c))
                d -= e - 1
            pieces.append((exp[:j] + (d,) + exp[j + 1:], c))
        rem = ref_collect(pieces, p)
        quotients.append(ref_collect(q, p))
    return rem, quotients


@st.composite
def ref_operands(draw, count):
    p, k = draw(st.sampled_from(REF_FIELDS))
    field = gf.field_spec(p, k)
    n = draw(st.integers(0, 3))
    exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(120, 300))
                       for _ in range(n)])
    coeffs = st.tuples(*[st.integers(0, p - 1) for _ in range(k)])
    maps = [draw(st.dictionaries(exps, coeffs, max_size=10)) for _ in range(count)]
    return field, n, maps


def poly_of(field, n, terms):
    return Poly(n, field, {e: field.from_coeffs(c) for e, c in terms.items()})


@settings(max_examples=60, deadline=None)
@given(ref_operands(2))
def test_sums_and_negation_match_reference(case):
    field, n, (a, b) = case
    p = field.p
    f, g = poly_of(field, n, a), poly_of(field, n, b)
    a, b = tuple_map(f), tuple_map(g)  # zero coefficients dropped
    neg_b = {e: vneg(c, p) for e, c in b.items()}
    assert tuple_map(f + g) == ref_collect(list(a.items()) + list(b.items()), p)
    assert tuple_map(f - g) == ref_collect(list(a.items()) + list(neg_b.items()), p)
    assert tuple_map(-g) == neg_b


@settings(max_examples=60, deadline=None)
@given(ref_operands(1), st.data())
def test_scale_restrict_and_ml_partial_match_reference(case, data):
    field, n, (a,) = case
    p, k = field.p, field.k
    f = poly_of(field, n, a)
    a = tuple_map(f)
    elem = st.tuples(*[st.integers(0, p - 1) for _ in range(k)]).map(
        field.from_coeffs)
    c = data.draw(elem)
    assert tuple_map(f.scale(c)) == ref_collect(
        [(e, vmul(x, c.coeffs, field)) for e, x in a.items()], p)
    values = data.draw(st.dictionaries(st.integers(0, n - 1), elem) if n else st.just({}))
    assert tuple_map(f.restrict(values)) == ref_restrict(a, values, field)
    vs = data.draw(st.sets(st.integers(0, n - 1)) if n else st.just(set()))
    assert tuple_map(ml_partial(f, vs)) == ref_collect(
        [(tuple(min(d, 1) if i in vs else d for i, d in enumerate(e)), x)
         for e, x in a.items()], p)


@settings(max_examples=60, deadline=None)
@given(ref_operands(1), st.data())
def test_collect_matches_reference(case, data):
    field, n, (a,) = case
    if not a:
        a = {(0,) * n: (1,) + (0,) * (field.k - 1)}
    # repeated exponents, so that equal ones add and some sums cancel
    pieces = data.draw(st.lists(st.tuples(st.sampled_from(list(a)),
                                          st.sampled_from(list(a.values()))), max_size=12))
    stored = [(e, field.from_coeffs(c).v) for e, c in pieces]
    assert tuple_map(collect(n, field, stored)) == ref_collect(pieces, field.p)


@settings(max_examples=60, deadline=None)
@given(ref_operands(1), st.sampled_from(["boolean", "fermat"]))
def test_divide_by_axioms_matches_reference(case, kind):
    field, n, (a,) = case
    f = poly_of(field, n, a)
    dec = divide_by_axioms(f, kind)
    rem, quotients = ref_divide(tuple_map(f), n, 2 if kind == "boolean" else field.p, field.p)
    assert tuple_map(dec.remainder) == rem
    assert [tuple_map(q) for q in dec.quotients] == quotients
    assert dec.recompose() == f


@settings(max_examples=60, deadline=None)
@given(ref_operands(1))
def test_format_parse_round_trip(case):
    field, n, (a,) = case
    f = poly_of(field, n, a)
    back = parse_poly(format_poly(f), n, field)
    assert tuple_map(back) == tuple_map(f) == {e: c for e, c in a.items() if any(c)}
    assert back == f and hash(back) == hash(f)


@settings(max_examples=60, deadline=None)
@given(ref_operands(2))
def test_routes_to_one_poly_compare_and_hash_equal(case):
    """The same polynomial by routes whose exponent slots differ in width:
    a detour through exponents of 256 and more, cancelled again, leaves the
    storage of the direct route."""
    field, n, (a, b) = case
    f, g = poly_of(field, n, a), poly_of(field, n, b)
    far = Poly.monomial(n, field, (300,) * n, field.one()) if n else Poly.one(0, field)
    routes = [
        f,
        (f + g) - g,
        (f + far) - far,
        collect(n, field, [(e, c.v) for e, c in f.items()]),
        parse_poly(format_poly(f), n, field),
        sum_of_products(n, field, [(f, Poly.one(n, field)), (g, far), (-g, far)]),
        divide_by_axioms(f * far, "boolean").recompose() - f * far + f,
        f.scale(field.one()),
    ]
    for h in routes:
        assert h == f and hash(h) == hash(f) and h.terms == f.terms


# ---------------------------------------------------------------------------
# the product codec and format_poly against per-slot and tuple references

def spread_ref(v, field, wide):
    """The stored element v with coefficient i moved to the wide-byte slot i."""
    cells = ref.unpack(v, field.k, ref.cell_bytes(field.p))
    return sum(c << (8 * wide * i) for i, c in enumerate(cells))


def product_sum_ref(terms, field):
    """sum count * a * b over the (a, b, count) triples of stored elements, as
    a coefficient tuple: schoolbook products, then componentwise mod p."""
    p, nb, total = field.p, ref.cell_bytes(field.p), (0,) * field.k
    for a, b, count in terms:
        prod = vmul(ref.unpack(a, field.k, nb), ref.unpack(b, field.k, nb), field)
        total = vadd(total, tuple(count * c % p for c in prod), p)
    return total


def power_of_t(i, field):
    """t^i mod the modulus as a stored element, by schoolbook products."""
    k, x = field.k, (1,) + (0,) * (field.k - 1)
    for _ in range(i):
        x = vmul(x, (0, 1) + (0,) * (k - 2), field)
    return ref.pack(x, ref.cell_bytes(field.p))


def admitted_pairs(field, wide):
    """The largest pair count whose sums the codec's wide slots of wide bytes hold."""
    k, p = field.k, field.p
    return ((1 << 8 * wide) - 1) // (k * (2 * k - 1) * (p - 1) ** 3)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FIELDS + MULTIBYTE), st.data())
def test_codec_matches_per_slot_reference(pk, data):
    """The batch spread equals the per-slot spread, and reduce maps a sum of
    spread products to the kernel's sum of the products, up to the largest
    pair count the codec's wide slots admit."""
    field = gf.field_spec(*pk)
    p, k, nb = field.p, field.k, ref.cell_bytes(field.p)
    codec = ref.codec(p, field.modulus, data.draw(st.integers(1, 1 << 20)))
    top = admitted_pairs(field, codec.wide)
    cell = st.one_of(st.just(p - 1), st.integers(0, p - 1))  # often the largest
    elem = st.lists(cell, min_size=k, max_size=k).map(lambda c: ref.pack(c, nb))
    values = data.draw(st.lists(elem, max_size=12))
    assert codec.spread(values) == [spread_ref(v, field, codec.wide) for v in values]
    counts = st.one_of(st.just(top), st.integers(1, top))
    terms, room, v = [], top, 0  # at most top pairs in all
    for x, y, c in data.draw(st.lists(st.tuples(elem, elem, counts), max_size=6)):
        if c <= room:
            sx, sy = codec.spread([x, y])
            terms.append((x, y, c))
            room, v = room - c, v + c * sx * sy
    assert ref.unpack(codec.reduce(v), k, nb) == product_sum_ref(terms, field)
    # any convolution slots up to the bound: sum_i v_i t^i through the kernel
    bound = top * k * (p - 1) ** 2
    slots = data.draw(st.lists(st.one_of(st.just(bound), st.integers(0, bound)),
                               min_size=2 * k - 1, max_size=2 * k - 1))
    want = product_sum_ref([(c % p, power_of_t(i, field), 1) for i, c in enumerate(slots)],
                           field)
    v = sum(c << (8 * codec.wide * i) for i, c in enumerate(slots))
    assert ref.unpack(codec.reduce(v), k, nb) == want


@pytest.mark.parametrize("p,k", FIELDS + MULTIBYTE)
def test_codec_extreme_sum(p, k):
    """Every component p-1 in both factors, summed the largest number of
    times that each codec's wide slots admit."""
    field = gf.field_spec(p, k)
    nb = ref.cell_bytes(p)
    x = ref.pack([p - 1] * k, nb)
    for pairs in (1, 2, 40, 1 << 12, 1 << 20):
        codec = ref.codec(p, field.modulus, pairs)
        top = admitted_pairs(field, codec.wide)
        assert top >= pairs
        (s,) = codec.spread([x])
        assert codec.reduce(top * s * s) == ref.pack(product_sum_ref([(x, x, top)], field), nb)


def format_ref(f, names):
    """grlex-descending terms from exponent tuples, explicit exponents."""
    field, parts = f.field, []
    for e, c in sorted(f.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True):
        text = str(c.v) if field.k == 1 else "[" + ",".join(map(str, c.coeffs)) + "]"
        parts.append(text + "".join(f"*{names[i]}^{d}" for i, d in enumerate(e) if d))
    return " + ".join(parts) or "0"


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(REF_FIELDS + MULTIBYTE), st.integers(0, 9), st.data())
def test_format_poly_matches_tuple_reference(pk, n, data):
    field = gf.field_spec(*pk)
    p, k = field.p, field.k
    # small exponents, so that halves repeat and degrees tie; in half the
    # cases some of 256 and more, which need two-byte key slots
    wide = data.draw(st.booleans())
    exp = st.sampled_from([0, 1, 2, 3, 256, 300]) if wide else st.integers(0, 3)
    exps = st.tuples(*[exp] * n)
    coeffs = st.tuples(*[st.integers(0, p - 1) for _ in range(k)])
    f = poly_of(field, n, data.draw(st.dictionaries(exps, coeffs, max_size=15)))
    names = [f"y{i}" for i in range(n)]
    assert format_poly(f, names) == format_ref(f, names)
    assert format_poly(f) == format_ref(f, [f"x{i + 1}" for i in range(n)])
