"""The compiled kernel and its pure-Python twin must agree operation by
operation; hypothesis drives the comparison over random vectors."""

import pytest
from hypothesis import given, settings, strategies as st

from ipsforge import _gfcore_py as pure
from ipsforge import gf
from ipsforge._kernel import kernel_backend

compiled = pytest.importorskip("ipsforge._gfcore")

SPECS = [gf.field_spec(2, 1), gf.field_spec(2, 3), gf.field_spec(2, 12),
         gf.field_spec(2, 24), gf.field_spec(3, 3), gf.field_spec(5, 2),
         gf.field_spec(13, 4)]


def vec_strategy(spec):
    return st.tuples(*[st.integers(0, spec.p - 1) for _ in range(spec.k)])


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_twins_agree(spec, data):
    a = data.draw(vec_strategy(spec))
    b = data.draw(vec_strategy(spec))
    e = data.draw(st.integers(0, 10 ** 9))
    p, mod = spec.p, spec.modulus
    assert compiled.vadd(a, b, p) == pure.vadd(a, b, p)
    assert compiled.vsub(a, b, p) == pure.vsub(a, b, p)
    assert compiled.vneg(a, p) == pure.vneg(a, p)
    assert compiled.vmul(a, b, p, mod) == pure.vmul(a, b, p, mod)
    assert compiled.vpow(a, e, p, mod) == pure.vpow(a, e, p, mod)
    if any(a):
        assert compiled.vinv(a, p, mod) == pure.vinv(a, p, mod)


@pytest.mark.parametrize("impl", [compiled, pure], ids=["cython", "python"])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.text())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_inverse_contract(impl, spec, data):
    a = data.draw(vec_strategy(spec))
    p, mod = spec.p, spec.modulus
    one = (1,) + (0,) * (spec.k - 1)
    if any(a):
        assert impl.vmul(impl.vinv(a, p, mod), a, p, mod) == one
    else:
        with pytest.raises(ZeroDivisionError):
            impl.vinv(a, p, mod)


def test_big_prime_delegation():
    # p >= 2^31 exercises the object path inside the compiled module
    p = (1 << 61) - 1
    spec = gf.field_spec(p, 1)
    a, b = (123456789012345678,), (987654321987654321,)
    assert compiled.vmul(a, b, p, spec.modulus) == pure.vmul(a, b, p, spec.modulus)
    assert compiled.vinv(a, p, spec.modulus) == pure.vinv(a, p, spec.modulus)


def test_backend_reports():
    assert kernel_backend() in ("cython", "python")
