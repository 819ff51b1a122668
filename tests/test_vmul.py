"""The pure-Python kernel's Kronecker vmul against a schoolbook reference.

vmul packs both factors into ints, multiplies once and reduces the unpacked
convolution with the nonzero terms of the modulus, or for p = 2 reads slot
parities and reduces by Barrett's quotient; the reference below convolves
term by term and reduces with every coefficient of the modulus, and vinv is
checked against a list-based extended Euclid. Hypothesis drives random
vectors over the first irreducible modulus of each field and over a dense
one with many nonzero terms; the worst case for the slots (every component
p-1, up to k = 127 for p = 2) and two small fields in full are fixed below.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ipsforge import _gfcore_py as kernel
from ipsforge import gf

# p = 2 adds odd, prime, byte-sized, word-sized and the largest k that
# gf.FIELD_BITS admits, 127
BINARY_FIELDS = [(2, k) for k in (5, 7, 8, 31, 64, 127)]
FIELDS = [(p, k) for p in (2, 3, 5, 13) for k in (1, 2, 3, 4, 6, 12, 16, 24)] + BINARY_FIELDS


def schoolbook(a, b, p, modulus):
    """a*b mod (modulus, p): full convolution, then long division by the
    monic modulus from the top coefficient down."""
    k = len(a)
    conv = [0] * (2 * k - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        c = conv[i] % p
        for j in range(k + 1):
            conv[i - k + j] -= c * modulus[j]
    return tuple(c % p for c in conv[:k])


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


SPECS = [gf.field_spec(p, k) for p, k in FIELDS] + [
    dense_spec(p, k) for p, k in FIELDS if k >= 2]


def spec_id(spec):
    nonzero = sum(1 for c in spec.modulus if c)
    return f"GF({spec.p}^{spec.k})-{nonzero}terms"


def vectors(spec):
    """Coefficient vectors, one draw per component; the added binary fields
    take the low bits of k uniform bytes instead, one draw per vector, where a
    draw per component is slow at k = 127."""
    if (spec.p, spec.k) in BINARY_FIELDS:
        return st.binary(min_size=spec.k, max_size=spec.k).map(
            lambda b: tuple(x & 1 for x in b))
    return st.tuples(*[st.integers(0, spec.p - 1) for _ in range(spec.k)])


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_vmul_matches_schoolbook(spec, data):
    a, b = data.draw(vectors(spec)), data.draw(vectors(spec))
    p, mod = spec.p, spec.modulus
    assert kernel.vmul(a, b, p, mod) == schoolbook(a, b, p, mod)


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_inverse_and_power(spec, data):
    a = data.draw(vectors(spec))
    p, mod = spec.p, spec.modulus
    one = (1,) + (0,) * (spec.k - 1)
    if any(a):
        assert kernel.vmul(a, kernel.vinv(a, p, mod), p, mod) == one
        assert kernel.vpow(a, spec.order - 1, p, mod) == one
    e = data.draw(st.integers(0, 40))
    expect = one
    for _ in range(e):
        expect = schoolbook(expect, a, p, mod)
    assert kernel.vpow(a, e, p, mod) == expect


@pytest.mark.parametrize("spec", SPECS, ids=spec_id)
def test_all_top_worst_case(spec):
    """Every component p-1: the middle convolution slot reaches its bound
    k*(p-1)^2 exactly, and every tap of the reduction fires."""
    p, mod = spec.p, spec.modulus
    top = (p - 1,) * spec.k
    assert kernel.vmul(top, top, p, mod) == schoolbook(top, top, p, mod)
    lone = (0,) * (spec.k - 1) + (p - 1,)  # (p-1)^2 t^(2k-2), the highest slot
    assert kernel.vmul(lone, top, p, mod) == schoolbook(lone, top, p, mod)
    assert kernel.vmul(lone, lone, p, mod) == schoolbook(lone, lone, p, mod)


P2_SPECS = [s for s in SPECS if s.p == 2]


@pytest.mark.parametrize("spec", P2_SPECS, ids=spec_id)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_binary_inverse_matches_euclid(spec, data):
    a = data.draw(vectors(spec))
    p, mod = spec.p, spec.modulus
    if any(a):
        assert kernel.vinv(a, p, mod) == euclid_inverse(a, p, mod)


@pytest.mark.parametrize("spec", P2_SPECS, ids=spec_id)
def test_binary_inverse_of_zero_raises(spec):
    with pytest.raises(ZeroDivisionError):
        kernel.vinv((0,) * spec.k, 2, spec.modulus)


def test_multibyte_slots_are_exercised():
    """The slot bound k*(p-1)^2 needs two bytes here, so the hypothesis cases
    above cover the multi-byte packing too."""
    for p, k in ((13, 4), (5, 16), (13, 24)):
        spec = gf.field_spec(p, k)
        assert kernel._plan(p, spec.modulus)[0] == 2


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3)])
def test_all_pairs(p, k):
    spec = gf.field_spec(p, k)
    for x in spec.elements():
        for y in spec.elements():
            a, b = x.coeffs, y.coeffs
            assert kernel.vmul(a, b, p, spec.modulus) == schoolbook(a, b, p, spec.modulus)
