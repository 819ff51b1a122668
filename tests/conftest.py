import random

import pytest
from hypothesis import settings

from ipsforge import gf
from ipsforge.mvpoly import Poly

# No example database: each run draws its examples afresh and spends nothing
# reading or writing saved ones. Example counts stay as each test sets them.
settings.register_profile("no-database", database=None)
settings.load_profile("no-database")


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


def restriction_assignment(inst, u, v):
    """The 0/1 z-assignment b_{u,v} of an any-order lifted instance, pairing
    u_k with v_k (both ascending): exactly nx ones, z_ij one for each pair."""
    m, fld = 2 * inst.nx, inst.poly.field
    pairs = {tuple(sorted(pair)) for pair in zip(u, v)}
    z_pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return {m + idx: fld.one() if pair in pairs else fld.zero()
            for idx, pair in enumerate(z_pairs)}


def restricted(inst, u, v):
    """The instance under b_{u,v}: sum_k alpha_{u_k v_k} x_{u_k} x_{v_k} - beta."""
    return inst.poly.restrict(restriction_assignment(inst, u, v))


def from_coeffs(fld, coeffs):
    """The element of fld with coefficient vector coeffs, each reduced mod p."""
    return fld.from_coeffs([int(c) % fld.p for c in coeffs])


def stored_cells(fld, vectors):
    """The stored elements (FieldElem.v) of coefficient vectors."""
    return [fld.from_coeffs(v).v for v in vectors]


def schoolbook(a, b, p, modulus):
    """a*b mod (modulus, p) on coefficient vectors: full convolution, then
    long division by the monic modulus from the top coefficient down. The
    tests' product reference, which runs none of the kernel's code."""
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
