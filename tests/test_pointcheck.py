"""An independent check of certificates: sum_i A_i f_i + sum_j B_j (x_j^2 - x_j)
is evaluated at seeded random points of an extension field with at least 2^20
elements and compared with 1.

verify() expands the combination with mvpoly's product code; this check shares
none of it. Every polynomial is evaluated term by term with FieldElem
arithmetic only: a table of powers per coordinate, and per term the product of
the embedded coefficient with the coordinate powers. The certificate's field
F_p[t]/(m) is embedded by sending t to a root of m in the extension, as
gf.field_tower embeds its base field.

A nonzero residual of total degree D vanishes at a uniform point of a field
with Q elements with probability at most D/Q (Schwartz, J. ACM 1980); with
Q >= 2^20 and POINTS points, a wrong certificate passes with probability at
most (D/2^20)^POINTS, which is negligible at the degrees used here.
"""

import contextlib
import io
import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from ipsforge import generators, gf
from ipsforge.certificates import (
    Certificate,
    certificate_from_dict,
    refute_linear_frobenius,
    refute_linear_lowdegree,
    refute_sparse,
    refute_symmetric_system,
    verify,
)
from ipsforge.cli import main
from ipsforge.mvpoly import Poly

from test_golden import CONFIGS

MIN_ORDER = 1 << 20
POINTS = 3


@lru_cache(maxsize=None)
def embedding(fld: gf.FieldSpec):
    """(ext, images): ext is F_{p^K} for the least multiple K of fld.k with
    p^K >= MIN_ORDER, and images[i] is theta^i for a root theta of fld's
    modulus in ext, so sum_i c_i t^i maps to sum_i c_i theta^i."""
    K = fld.k
    while fld.p ** K < MIN_ORDER:
        K += fld.k
    ext = gf.field_spec(fld.p, K)
    theta = gf._least_root(fld.modulus, ext)
    images = [ext.one()]
    for _ in range(fld.k - 1):
        images.append(images[-1] * theta)
    return ext, images


class PointEvaluator:
    """Polynomials over fld evaluated at one point of embedding(fld)'s field."""

    def __init__(self, fld: gf.FieldSpec, point):
        self.ext, self.images = embedding(fld)
        self.point = point
        self.powers = [[self.ext.one()] for _ in point]
        self.coeffs = {}

    def coeff(self, c: gf.FieldElem) -> gf.FieldElem:
        v = self.coeffs.get(c.coeffs)
        if v is None:
            v = self.ext.zero()
            for ci, img in zip(c.coeffs, self.images):
                if ci:
                    v = v + self.ext.from_int(ci) * img
            self.coeffs[c.coeffs] = v
        return v

    def power(self, j: int, d: int) -> gf.FieldElem:
        row = self.powers[j]
        while len(row) <= d:
            row.append(row[-1] * self.point[j])
        return row[d]

    def __call__(self, f: Poly) -> gf.FieldElem:
        acc = self.ext.zero()
        for e, c in f.items():
            v = self.coeff(c)
            for j, d in enumerate(e):
                if d:
                    v = v * self.power(j, d)
            acc = acc + v
        return acc


def holds_at_points(axioms, cert: Certificate, seed: int = 0) -> bool:
    """Whether the certificate identity holds at POINTS seeded points."""
    fld = axioms[0].field
    n = axioms[0].n
    ext, _ = embedding(fld)
    rng = random.Random(seed)
    for _ in range(POINTS):
        x = [ext.sample(rng) for _ in range(n)]
        at = PointEvaluator(fld, x)
        total = ext.zero()
        for a, f in zip(cert.A, axioms):
            total = total + at(a) * at(f)
        for j, b in enumerate(cert.B):
            total = total + at(b) * (x[j] * x[j] - x[j])
        if total != ext.one():
            return False
    return True


def test_embedding_is_a_field_map():
    # t maps to a root of the modulus: images of products are products
    rng = random.Random(3)
    for p, k in [(2, 2), (3, 2), (2, 4), (5, 3), (13, 4)]:
        fld = gf.field_spec(p, k)
        ext, _ = embedding(fld)
        assert ext.order >= MIN_ORDER and ext.k % k == 0
        at = PointEvaluator(fld, [])
        for _ in range(5):
            a, b = fld.sample(rng), fld.sample(rng)
            assert at.coeff(a * b) == at.coeff(a) * at.coeff(b)
            assert at.coeff(a + b) == at.coeff(a) + at.coeff(b)


def _golden_refute(name):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(CONFIGS[name] + ["--out", "-"])
    assert code == 0
    return certificate_from_dict(json.loads(buf.getvalue()))


def _mutations(cert: Certificate, rng: random.Random):
    """Certificates that differ from cert in one coefficient: an existing
    term of some nonzero A_i, an existing term of some nonzero B_j, and a
    multilinear monomial of some B_j moved off its current value."""
    n = cert.n
    fld = (cert.A + cert.B)[0].field
    picks = []
    for side, polys in (("A", cert.A), ("B", cert.B)):
        nonzero = [i for i, f in enumerate(polys) if not f.is_zero()]
        if nonzero:
            i = rng.choice(nonzero)
            picks.append((side, i, rng.choice(sorted(polys[i].exponents()))))
    if n:
        picks.append(("B", rng.randrange(n), tuple(rng.randrange(2) for _ in range(n))))
    for side, idx, exp in picks:
        polys = list(getattr(cert, side))
        polys[idx] = polys[idx] + Poly.monomial(n, fld, exp, fld.one())
        yield Certificate(polys if side == "A" else cert.A,
                          polys if side == "B" else cert.B, cert.provenance)


@pytest.mark.parametrize("name", sorted(c for c in CONFIGS if c.startswith("refute-")))
def test_golden_refute_certificates(name):
    instance, cert = _golden_refute(name)
    assert holds_at_points(instance.axioms, cert)
    for bad in _mutations(cert, random.Random(name)):
        assert holds_at_points(instance.axioms, bad) == verify(instance, bad).ok


FAMILIES = {
    "linear-shifted": st.tuples(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]),
                                st.integers(1, 4)),
    "linear-base": st.tuples(st.sampled_from([(2, 2), (3, 1), (3, 2), (5, 1), (7, 1)]),
                             st.integers(1, 4)),
    "sparse-shifted": st.tuples(st.sampled_from([(2, 1), (2, 2), (3, 1)]),
                                st.integers(2, 3)),
    "symmetric": st.tuples(st.sampled_from([(2, 1), (2, 2), (3, 1), (5, 1)]),
                           st.integers(1, 5), st.integers(1, 3)),
}


def _draw_refutation(family, params, rng):
    if family == "linear-shifted":
        (p, k), n = params
        tower = gf.field_tower(p, k)
        inst = generators.linear_shifted(tower, n, rng)
        return inst, refute_linear_frobenius(inst.axioms[0], tower)
    if family == "linear-base":
        (p, k), n = params
        inst = generators.linear_base(gf.field_spec(p, k), n, rng)
        return inst, refute_linear_lowdegree(inst.axioms[0])
    if family == "sparse-shifted":
        (p, k), nx = params
        tower = gf.field_tower(p, k)
        inst = generators.sparse_quadratic(tower, nx, rng)
        return inst, refute_sparse(inst.axioms[0], tower)
    (p, k), n, m = params
    inst = generators.symmetric_system(gf.field_spec(p, k), n, m, rng)
    return inst, refute_symmetric_system(inst.axioms)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=6, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
def test_drawn_instances(family, data, seed):
    params = data.draw(FAMILIES[family])
    inst, cert = _draw_refutation(family, params, random.Random(seed))
    assert isinstance(cert, Certificate)
    assert holds_at_points(inst.axioms, cert, seed)
    bad = next(_mutations(cert, random.Random(seed)))
    assert holds_at_points(inst.axioms, bad, seed) == verify(inst, bad).ok
