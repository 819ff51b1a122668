import random

import pytest

from ipsforge import gf
from ipsforge.mvpoly import Poly


@pytest.fixture(scope="session")
def f2():
    return gf.field_spec(2, 1)


@pytest.fixture(scope="session")
def f3():
    return gf.field_spec(3, 1)


@pytest.fixture(scope="session")
def f4():
    return gf.field_spec(2, 2)


@pytest.fixture(scope="session")
def f9():
    return gf.field_spec(3, 2)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def rand_poly(n, fld, rng, nterms=6, maxdeg=3):
    t = Poly.zero(n, fld)
    for _ in range(nterms):
        e = tuple(rng.randrange(maxdeg + 1) for _ in range(n))
        t = t + Poly.monomial(n, fld, e, fld.sample(rng))
    return t


def eval_cube_point(f, mask):
    """f at the 0/1 point with bit i of mask giving x_{i+1}, by FieldElem
    evaluation: the tests' reference for cube_table and ml_reciprocal."""
    return f.eval([f.field.from_int(mask >> i & 1) for i in range(f.n)])


def individual_degree(f):
    """The largest exponent of any variable in f; 0 for n = 0."""
    return max(map(max, f.exponents()), default=0) if f.n else 0


def from_coeffs(fld, coeffs):
    """The element of fld with coefficient vector coeffs, each reduced mod p."""
    return fld.from_coeffs([int(c) % fld.p for c in coeffs])


def stored_cells(fld, vectors):
    """The stored elements (FieldElem.v) of coefficient vectors."""
    return [fld.from_coeffs(v).v for v in vectors]
