"""Seeded instance generators for the hard families.

All generators are deterministic functions of the supplied rng, so identical
run configurations reproduce identical instances byte for byte.
"""

from __future__ import annotations

from ipsforge.certificates import Instance, reachable_sums
from ipsforge.errors import OutOfRange, SatisfiableInstance
from ipsforge.gf import FieldSpec, FieldTower
from ipsforge.lowerbounds import lifted_poly
from ipsforge.mvpoly import default_names, linear_poly
from ipsforge.symfun import ElemSymExpansion


def linear_shifted(tower: FieldTower, n: int, rng) -> Instance:
    """sum alpha_i x_i - beta with alpha in the base field, beta outside it;
    unsatisfiable over the cube by construction."""
    alphas = [tower.embed(tower.base.sample(rng)) for _ in range(n)]
    beta = tower.sample_beta(rng)
    return Instance(n, tower.ext, [linear_poly(tower.ext, alphas, -beta)], "linear", tower)


def linear_base(fld: FieldSpec, n: int, rng, max_tries: int = 20) -> Instance:
    """Unsatisfiable sum alpha_i x_i - beta with every coefficient in the one
    field: random draws first, then a restricted draw whose subset sums cannot
    cover the field (alphas from the prime subfield, or a single unit)."""
    for attempt in range(max_tries + 1):
        if attempt < max_tries:
            alphas = [fld.sample(rng) for _ in range(n)]
        elif fld.k > 1:
            alphas = [fld.from_int(rng.randrange(fld.p)) for _ in range(n)]
        else:
            if fld.p == 2:
                raise SatisfiableInstance(
                    "every linear instance over F_2 has a Boolean zero"
                )
            alphas = [fld.zero()] * n
            alphas[rng.randrange(n)] = fld.one()
        sums = reachable_sums(alphas, fld)
        if len(sums) < fld.order:
            complement = sorted(
                (x for x in fld.elements() if x not in sums),
                key=lambda e: e.encoding(),
            )
            beta = complement[rng.randrange(len(complement))]
            return Instance(n, fld, [linear_poly(fld, alphas, -beta)], "linear")
    raise SatisfiableInstance("could not sample an unsatisfiable instance")


def sparse_quadratic(tower: FieldTower, nx: int, rng) -> Instance:
    """The lifted hard instance sum_{i<j} alpha_ij z_ij x_i x_j - beta, laid
    out as x_1..x_nx then z_1..z_{C(nx,2)} (pairs in lexicographic order)."""
    pairs = [(i, j) for i in range(nx) for j in range(i + 1, nx)]
    n = nx + len(pairs)
    alphas = [tower.embed(tower.base.sample(rng)) for _ in pairs]
    poly = lifted_poly(n, [(i, j, nx + idx) for idx, (i, j) in enumerate(pairs)], alphas,
                       tower.sample_beta(rng))
    names = default_names(nx) + default_names(len(pairs), "z")
    return Instance(n, tower.ext, [poly], "lifted-subset-sum", tower, names)


def symmetric_system(fld: FieldSpec, n: int, m: int, rng) -> Instance:
    """m random multilinear symmetric polynomials with no common cube zero.

    Weight-value tables determine such polynomials bijectively (triangular
    unit-diagonal map to the e-basis), so sampling each weight column
    uniformly conditioned on "not all m values zero" draws uniformly from the
    unsatisfiable systems and never needs a global resample.
    """
    if m < 1:
        raise OutOfRange(f"a symmetric system needs m >= 1 polynomials, got m = {m}")
    tables = [[None] * (n + 1) for _ in range(m)]
    for w in range(n + 1):
        while True:
            column = [fld.sample(rng) for _ in range(m)]
            if any(not v.is_zero() for v in column):
                break
        for i in range(m):
            tables[i][w] = column[i]
    system = [ElemSymExpansion.from_weight_values(t, fld).to_poly() for t in tables]
    return Instance(n, fld, system, "symmetric-system")
