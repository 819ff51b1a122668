"""The pure-Python kernel on stored ints against references on coefficient
vectors, converted at the kernel's boundary by pack and unpack.

vmul spreads both factors to the codec's wide slots, multiplies once and
folds the convolution mod the modulus in one more multiply, or for p = 2
reads slot parities and reduces by Barrett's quotient; the reference,
conftest's schoolbook, convolves term by term and reduces with every
coefficient of the modulus, and vinv is checked against a list-based
extended Euclid. The broadword vadd, vsub and vneg are checked against
componentwise arithmetic mod p. Hypothesis drives random vectors over the
first irreducible modulus of each field and over a dense one with many
nonzero terms, from p = 2 up to p = 2^61 - 1; the worst case for the slots
(every component p-1, up to k = 127 for p = 2) and two small fields in full
are fixed below. The log/antilog tables of fields with at most 2^14
elements are built explicitly and checked against the same references.
"""

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ipsforge import _gfcore_py as kernel
from ipsforge import gf

from conftest import schoolbook

# p = 2 adds odd, prime, byte-sized, word-sized and the largest k that
# gf.FIELD_BITS admits, 127
BINARY_FIELDS = [(2, k) for k in (5, 7, 8, 31, 64, 127)]
# Large primes: 2^61 - 1, whose k = 3 would be over gf.FIELD_BITS, and a
# seven-digit prime, whose slots take six bytes
BIG_FIELDS = [((1 << 61) - 1, 1), ((1 << 61) - 1, 2), (1000003, 3), (1000003, 4)]
FIELDS = ([(p, k) for p in (2, 3, 5, 13) for k in (1, 2, 3, 4, 6, 12, 16, 24)]
          + BINARY_FIELDS + BIG_FIELDS)

# Nonzero terms of the modulus of gf.field_spec(p, k) and of dense_spec(p, k)
# for k >= 2. They name the test cases, so that collection builds no field;
# test_case_ids_name_the_moduli checks them.
TERMS = {
    (2, 1): (1,), (2, 2): (3, 3), (2, 3): (3, 3), (2, 4): (3, 5), (2, 6): (3, 5),
    (2, 12): (3, 13), (2, 16): (5, 13), (2, 24): (5, 21),
    (3, 1): (1,), (3, 2): (2, 3), (3, 3): (3, 4), (3, 4): (3, 4), (3, 6): (3, 5),
    (3, 12): (3, 9), (3, 16): (4, 14), (3, 24): (3, 19),
    (5, 1): (1,), (5, 2): (2, 3), (5, 3): (3, 3), (5, 4): (2, 5), (5, 6): (3, 7),
    (5, 12): (3, 9), (5, 16): (2, 16), (5, 24): (4, 20),
    (13, 1): (1,), (13, 2): (2, 3), (13, 3): (2, 3), (13, 4): (2, 4), (13, 6): (2, 5),
    (13, 12): (2, 9), (13, 16): (2, 14), (13, 24): (2, 19),
    (2, 5): (3, 5), (2, 7): (3, 7), (2, 8): (5, 7), (2, 31): (3, 25), (2, 64): (5, 53),
    (2, 127): (3, 103),
    ((1 << 61) - 1, 1): (1,), ((1 << 61) - 1, 2): (2, 3),
    (1000003, 3): (2, 4), (1000003, 4): (3, 4),
}


def stored(v, p):
    return kernel.pack(v, kernel.cell_bytes(p))


def vector(x, p, k):
    return kernel.unpack(x, k, kernel.cell_bytes(p))


def vmul(a, b, p, modulus):
    """kernel.vmul on coefficient vectors."""
    return vector(kernel.vmul(stored(a, p), stored(b, p), p, modulus), p, len(a))


def vpow(a, e, p, modulus):
    return vector(kernel.vpow(stored(a, p), e, p, modulus), p, len(a))


def vinv(a, p, modulus):
    return vector(kernel.vinv(stored(a, p), p, modulus), p, len(a))


def vadd(a, b, p, modulus):
    return vector(kernel.vadd(stored(a, p), stored(b, p), p, modulus), p, len(a))


def vsub(a, b, p, modulus):
    return vector(kernel.vsub(stored(a, p), stored(b, p), p, modulus), p, len(a))


def vneg(a, p, modulus):
    return vector(kernel.vneg(stored(a, p), p, modulus), p, len(a))


def euclid_inverse(a, p, modulus):
    """The inverse of a mod (modulus, p) by extended Euclid on coefficient
    lists, lowest degree first: s * a = r mod modulus throughout."""
    def trim(c):
        while c and c[-1] % p == 0:
            c.pop()
        return c

    def sub_shifted(x, y, c, d):  # x - c * t^d * y
        x = x + [0] * (len(y) + d - len(x))
        for i, yi in enumerate(y):
            x[i + d] = (x[i + d] - c * yi) % p
        return trim(x)

    r0, r1, s0, s1 = trim(list(modulus)), trim(list(a)), [], [1]
    while len(r1) > 1:
        while len(r0) >= len(r1):
            c, d = r0[-1] * pow(r1[-1], -1, p) % p, len(r0) - len(r1)
            r0, s0 = sub_shifted(r0, r1, c, d), sub_shifted(s0, s1, c, d)
        r0, r1, s0, s1 = r1, r0, s1, s0
    c = pow(r1[0], -1, p)
    return tuple((s1[i] * c) % p if i < len(s1) else 0 for i in range(len(a)))


def dense_spec(p, k):
    """A field of degree k whose modulus has many nonzero terms: the first
    irreducible among seeded draws with most coefficients nonzero."""
    rng = random.Random(f"dense:{p}:{k}")
    while True:
        tail = [rng.randrange(1, p)] + [
            rng.randrange(1, p) if rng.random() < 0.8 else 0 for _ in range(k - 1)]
        try:
            return gf.FieldSpec(p, k, tuple(tail) + (1,))
        except ValueError:  # reducible
            continue


@functools.cache
def spec(p, k, dense):
    return dense_spec(p, k) if dense else gf.field_spec(p, k)


CASES = [(p, k, False) for p, k in FIELDS] + [(p, k, True) for p, k in FIELDS if k >= 2]
SPECS = [pytest.param(p, k, dense, id=f"GF({p}^{k})-{TERMS[p, k][dense]}terms")
         for p, k, dense in CASES]


def vectors(spec):
    """Coefficient vectors, one draw per component; the added binary fields
    take the low bits of k uniform bytes instead, one draw per vector, where a
    draw per component is slow at k = 127."""
    if (spec.p, spec.k) in BINARY_FIELDS:
        return st.binary(min_size=spec.k, max_size=spec.k).map(
            lambda b: tuple(x & 1 for x in b))
    return st.tuples(*[st.integers(0, spec.p - 1) for _ in range(spec.k)])


def test_case_ids_name_the_moduli():
    for p, k, dense in CASES:
        assert sum(1 for c in spec(p, k, dense).modulus if c) == TERMS[p, k][dense]


@pytest.mark.parametrize("p,k,dense", SPECS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_vmul_matches_schoolbook(p, k, dense, data):
    fld = spec(p, k, dense)
    a, b = data.draw(vectors(fld)), data.draw(vectors(fld))
    mod = fld.modulus
    assert vmul(a, b, p, mod) == schoolbook(a, b, p, mod)


@pytest.mark.parametrize("p,k,dense", SPECS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_inverse_and_power(p, k, dense, data):
    fld = spec(p, k, dense)
    a = data.draw(vectors(fld))
    mod = fld.modulus
    one = (1,) + (0,) * (k - 1)
    if any(a):
        assert vmul(a, vinv(a, p, mod), p, mod) == one
        assert vpow(a, fld.order - 1, p, mod) == one
    e = data.draw(st.integers(0, 40))
    expect = one
    for _ in range(e):
        expect = schoolbook(expect, a, p, mod)
    assert vpow(a, e, p, mod) == expect


@pytest.mark.parametrize("p,k,dense", SPECS)
def test_all_top_worst_case(p, k, dense):
    """Every component p-1: the middle convolution slot reaches its bound
    k*(p-1)^2 exactly, and every tap of the reduction fires."""
    mod = spec(p, k, dense).modulus
    top = (p - 1,) * k
    assert vmul(top, top, p, mod) == schoolbook(top, top, p, mod)
    lone = (0,) * (k - 1) + (p - 1,)  # (p-1)^2 t^(2k-2), the highest slot
    assert vmul(lone, top, p, mod) == schoolbook(lone, top, p, mod)
    assert vmul(lone, lone, p, mod) == schoolbook(lone, lone, p, mod)


def check_add_sub_neg(a, b, p, modulus):
    assert vadd(a, b, p, modulus) == tuple((x + y) % p for x, y in zip(a, b))
    assert vsub(a, b, p, modulus) == tuple((x - y) % p for x, y in zip(a, b))
    assert vneg(a, p, modulus) == tuple(-x % p for x in a)


@pytest.mark.parametrize("p,k", FIELDS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_add_sub_neg_match_componentwise(p, k, data):
    fld = spec(p, k, False)
    check_add_sub_neg(data.draw(vectors(fld)), data.draw(vectors(fld)), p, fld.modulus)


@pytest.mark.parametrize("p,k", FIELDS)
def test_add_sub_neg_extreme_slots(p, k):
    """Every slot at p-1 or 0: (p-1) + (p-1) is the largest sum a slot
    holds, and 0 - (p-1) and -0 the cases where a borrow or a missed
    reduction would show."""
    mod, top, zero = spec(p, k, False).modulus, (p - 1,) * k, (0,) * k
    for a, b in ((top, top), (zero, top), (top, zero), (zero, zero)):
        check_add_sub_neg(a, b, p, mod)


@pytest.mark.parametrize("p,k,dense", SPECS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_binary_inverse_matches_euclid(p, k, dense, data):
    """Bitwise Euclid for p = 2 and a^(q-2) for odd p, outside the tables."""
    fld = spec(p, k, dense)
    a = data.draw(vectors(fld))
    if any(a):
        assert vinv(a, p, fld.modulus) == euclid_inverse(a, p, fld.modulus)


@pytest.mark.parametrize("p,k,dense", SPECS)
def test_binary_inverse_of_zero_raises(p, k, dense):
    """For every p, also where a^(q-2) would return zero."""
    with pytest.raises(ZeroDivisionError):
        vinv((0,) * k, p, spec(p, k, dense).modulus)


def test_multibyte_slots_are_exercised():
    """The codec's wide slots, which hold k*(2k-1)*(p-1)^3, take two or three
    bytes, or eight and nine for p = 1000003, so the hypothesis cases above
    cover the multi-byte packing too."""
    for p, k, nb in ((13, 4, 2), (5, 16, 2), (13, 24, 3), (1000003, 3, 8), (1000003, 4, 9)):
        spec = gf.field_spec(p, k)
        assert kernel.codec(p, spec.modulus).wide == nb
    # stored cells of three and eight bytes, read by the add, sub and neg tests
    assert (kernel.cell_bytes(1000003), kernel.cell_bytes((1 << 61) - 1)) == (3, 8)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 251, 257, 65521, 1000003, (1 << 31) - 1,
                               (1 << 61) - 1])
def test_barrett_slots_take_every_slot_mod_p(p):
    """barrett_slots' one step gives x div p in every slot x < 2^bits: at
    2^bits - 1, and at the multiples of p just below it and one less, where
    a quotient estimated from too short an s first goes wrong. The widths
    run from bitlen(p) to past those of the codec's fold slots and the
    packed rows."""
    for bits in range(p.bit_length(), 4 * p.bit_length() + 40):
        stride, s, m = kernel.barrett_slots(p, bits)
        top, w = (1 << bits) - 1, 8 * stride
        q = top // p
        xs = [top] + [x for j in range(q, max(q - 3, 0), -1) for x in (j * p, j * p - 1)]
        y = kernel.pack(xs, stride) * m >> s
        assert [y >> w * j & top for j in range(len(xs))] == [x // p for x in xs], bits


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3)])
def test_all_pairs(p, k):
    spec = gf.field_spec(p, k)
    for x in spec.elements():
        for y in spec.elements():
            a, b = x.coeffs, y.coeffs
            assert vmul(a, b, p, spec.modulus) == schoolbook(a, b, p, spec.modulus)


def power(a, e, p, modulus):
    """a^e by square-and-multiply on schoolbook products."""
    result, acc = (1,) + (0,) * (len(a) - 1), a
    while e:
        if e & 1:
            result = schoolbook(result, acc, p, modulus)
        acc = schoolbook(acc, acc, p, modulus)
        e >>= 1
    return result


def tabled(p, k, dense):
    """The field, with its log/antilog tables built through the kernel's
    builder unless the kernel holds them already."""
    fld = spec(p, k, dense)
    if not kernel._tables.get((p, fld.modulus)):
        assert kernel.log_tables(p, fld.modulus)
    return fld


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 3), (3, 4)])
def test_table_all_pairs(p, k):
    fld = tabled(p, k, False)
    mod, elements = fld.modulus, [x.coeffs for x in fld.elements()]
    for a in elements:
        for b in elements:
            assert vmul(a, b, p, mod) == schoolbook(a, b, p, mod)
        if any(a):
            assert vinv(a, p, mod) == euclid_inverse(a, p, mod)


@pytest.mark.parametrize("p,k", [(2, 12), (3, 8), (5, 6)])
@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_table_matches_references(p, k, dense, data):
    fld = tabled(p, k, dense)
    mod = fld.modulus
    a, b = data.draw(vectors(fld)), data.draw(vectors(fld))
    e = data.draw(st.integers(0, 3 * fld.order))
    assert vmul(a, b, p, mod) == schoolbook(a, b, p, mod)
    assert vpow(a, e, p, mod) == power(a, e, p, mod)
    if any(a):
        assert vinv(a, p, mod) == euclid_inverse(a, p, mod)


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 6)])
def test_table_power_edge_cases(p, k):
    fld = tabled(p, k, False)
    mod, q = fld.modulus, fld.order
    zero, one = (0,) * k, (1,) + (0,) * (k - 1)
    a = (0, 1) + (0,) * (k - 2)
    for e in (0, q - 1, 2 * (q - 1), 5 * (q - 1)):
        assert vpow(a, e, p, mod) == one
    assert vpow(a, q, p, mod) == a
    assert vpow(zero, 0, p, mod) == one
    assert vpow(zero, 1, p, mod) == zero
    assert vpow(zero, q - 1, p, mod) == zero


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 6)])
def test_table_inverse_of_zero_raises(p, k):
    fld = tabled(p, k, False)
    with pytest.raises(ZeroDivisionError):
        vinv((0,) * k, p, fld.modulus)


@pytest.mark.parametrize("modulus", [(0, 0, 1, 1), (1, 0, 0, 1)],
                         ids=["t^2(t+1)", "(t+1)(t^2+t+1)"])
def test_no_table_for_reducible_modulus(modulus):
    """Both rings have 8 elements, and neither is a field; products there
    still take the generic path."""
    assert kernel.log_tables(2, modulus) is None
    elements = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    for a in elements:
        for b in elements:
            assert vmul(a, b, 2, modulus) == schoolbook(a, b, 2, modulus)


def test_table_built_after_q_generic_products():
    fld = spec(2, 5, True)
    key, q = (2, fld.modulus), fld.order
    kernel._tables.pop(key, None)
    kernel._products.pop(key, None)
    a = b = (1, 1, 0, 1, 0)
    for _ in range(q):
        vmul(a, b, 2, fld.modulus)
    assert key not in kernel._tables
    assert vmul(a, b, 2, fld.modulus) == schoolbook(a, b, 2, fld.modulus)
    assert kernel._tables[key]


@pytest.mark.parametrize("p,k", [(2, 2), (3, 9)])
def test_no_table_outside_limits(p, k):
    """k <= 2 keeps its closed form, and 3^9 > 2^14 elements."""
    fld = gf.field_spec(p, k)
    a = (1,) * k
    for _ in range(fld.order + 1):
        vmul(a, a, p, fld.modulus)
    assert (p, fld.modulus) not in kernel._tables


# vinv_cells on each of its paths: log tables, and Montgomery's trick over
# the untabled product (Barrett's for p = 2, the Kronecker convolution for
# odd p without tables, the closed forms for k = 1 and k = 2)
BATCH_TABLED = [(2, 12), (3, 4), (3, 8)]
BATCH_UNTABLED = [(2, 24), (2, 127), (5, 6), (13, 4), ((1 << 61) - 1, 1), (1000003, 1),
                  (2, 2), (3, 2), ((1 << 61) - 1, 2)]


@pytest.mark.parametrize("p,k", BATCH_TABLED + BATCH_UNTABLED)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_inverse_matches_vinv(p, k, data):
    fld = tabled(p, k, False) if (p, k) in BATCH_TABLED else spec(p, k, False)
    key = (p, fld.modulus)
    if (p, k) not in BATCH_TABLED:  # (5, 6) may hold tables from other tests
        kernel._tables.pop(key, None)
        kernel._products.pop(key, None)
    vecs = data.draw(st.lists(vectors(fld).filter(any), min_size=1, max_size=20))
    got = kernel.vinv_cells([stored(v, p) for v in vecs], p, fld.modulus)
    assert got == [stored(vinv(v, p, fld.modulus), p) for v in vecs]
    assert bool(kernel._tables.get(key)) == ((p, k) in BATCH_TABLED)


@pytest.mark.parametrize("p,k", BATCH_TABLED + BATCH_UNTABLED)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_batch_product_matches_vmul(p, k, data):
    """vmul_cells on each path: k = 1, log tables, the generic product; zero
    factors and zero cells included."""
    fld = tabled(p, k, False) if (p, k) in BATCH_TABLED else spec(p, k, False)
    f = data.draw(vectors(fld))
    vecs = data.draw(st.lists(vectors(fld), max_size=20))
    got = kernel.vmul_cells(stored(f, p), [stored(v, p) for v in vecs], p, fld.modulus)
    assert got == [stored(vmul(f, v, p, fld.modulus), p) for v in vecs]


@pytest.mark.parametrize("p,k", [(2, 12), (2, 24), (5, 6), (3, 2), (1000003, 1)])
def test_batch_inverse_of_zero_raises(p, k):
    fld = spec(p, k, False)
    one = stored((1,) + (0,) * (k - 1), p)
    with pytest.raises(ZeroDivisionError):
        kernel.vinv_cells([one, 0, one], p, fld.modulus)


def test_table_built_after_q_batch_products():
    """The twin of test_table_built_after_q_generic_products: a batch of N
    cells counts its 3(N-1) products, and the first batch after q of them
    builds the tables."""
    fld = spec(2, 5, True)
    key, q = (2, fld.modulus), fld.order
    kernel._tables.pop(key, None)
    kernel._products.pop(key, None)
    a = (1, 1, 0, 1, 0)
    expect = stored(euclid_inverse(a, 2, fld.modulus), 2)
    for n in (11, 2):  # 30 products, then 3 more
        assert kernel.vinv_cells([stored(a, 2)] * n, 2, fld.modulus) == [expect] * n
        assert key not in kernel._tables
    assert kernel._products[key] >= q
    assert kernel.vinv_cells([stored(a, 2)] * 3, 2, fld.modulus) == [expect] * 3
    assert kernel._tables[key]
