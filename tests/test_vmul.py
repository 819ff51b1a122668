"""The pure-Python kernel's Kronecker vmul against a schoolbook reference.

vmul packs both factors into ints, multiplies once and reduces the unpacked
convolution with the nonzero terms of the modulus; the reference below
convolves term by term and reduces with every coefficient of the modulus.
Hypothesis drives random vectors over the first irreducible modulus of each
field and over a dense one with many nonzero terms; the worst case for the
slots (every component p-1) and two small fields in full are fixed below.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ipsforge import _gfcore_py as kernel
from ipsforge import gf

FIELDS = [(p, k) for p in (2, 3, 5, 13) for k in (1, 2, 3, 4, 6, 12, 16, 24)]


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
