"""Brute-force oracles for the degree / coefficient-dimension lower bounds.

Everything here is desk scale and exact: multilinear inverses of subset-sum
instances by cube interpolation, top-coefficient cross-checks, seeded degree
trials against the stated probability bounds, sparsity probes, Nisan
coefficient ranks, evaluation dimension, and roABP width.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

from ipsforge import _kernel as kn
from ipsforge import exactla
from ipsforge.errors import BudgetExceeded, ZeroDenominator
from ipsforge.gf import FieldElem, FieldSpec, FieldTower
from ipsforge.mvpoly import (
    Poly,
    cube_table,
    default_names,
    interpolate_table,
    linear_poly,
    stored_sum,
    substitute_monomials,
)


def budget_n(default: int = 12) -> int:
    """Cube-enumeration cap; override with IPSFORGE_BUDGET_N."""
    value = os.environ.get("IPSFORGE_BUDGET_N")
    try:
        return int(value) if value else default
    except ValueError:
        raise BudgetExceeded(
            f"IPSFORGE_BUDGET_N must be an integer, got {value!r}") from None


def _check_budget(n: int, cap: int | None = None, what: str = "cube enumeration"):
    cap = budget_n() if cap is None else cap
    if n > cap:
        raise BudgetExceeded(f"{what} needs n <= {cap}, got n = {n}")


# ---------------------------------------------------------------------------
# subset-sum denominators and the multilinear inverse

def _normalize_alphas(alphas: Sequence[FieldElem], beta: FieldElem,
                      tower: FieldTower | None) -> list[FieldElem]:
    out = []
    for a in alphas:
        if a.spec == beta.spec:
            out.append(a)
        elif tower is not None and a.spec == tower.base and beta.spec == tower.ext:
            out.append(tower.embed(a))
        else:
            raise ZeroDenominator(
                "alphas and beta live in different fields and no tower was given"
            )
    return out


def _reciprocal_of_table(cells: list[int], n: int, field: FieldSpec) -> Poly:
    if 0 in cells:
        raise ZeroDenominator(f"denominator vanishes at mask {cells.index(0):b}")
    return interpolate_table(kn.vinv_cells(cells, field.p, field.modulus), n, field)


def ml_reciprocal(f: Poly) -> Poly:
    """The unique multilinear polynomial agreeing with 1 / f on the cube.
    ZeroDenominator when f vanishes at a cube point.

    Runs on stored cells from start to finish: f's cube table from
    cube_table, the kernel's batch inversion vinv_cells, and
    interpolate_table, whose cells are the result's coefficients."""
    return _reciprocal_of_table(cube_table(f), f.n, f.field)


def ml_inverse(alphas: Sequence[FieldElem], beta: FieldElem,
               tower: FieldTower | None = None) -> Poly:
    """The unique multilinear polynomial agreeing with
    1 / (sum alpha_i x_i - beta) on the cube."""
    alphas = _normalize_alphas(alphas, beta, tower)
    _check_budget(len(alphas))
    return ml_reciprocal(linear_poly(beta.spec, alphas, -beta))


def alternating_cube_sum(f: Poly) -> FieldElem:
    """sum_a (-1)^{n-|a|} f(a): the x_[n] coefficient of the multilinear
    extension, signed so the identity is exact in every characteristic."""
    cells, fld = ([], []), f.field  # f(a) by n - |a| even, odd
    for a, v in enumerate(cube_table(f)):
        cells[(f.n - a.bit_count()) & 1].append(v)
    plus, minus = (stored_sum(fld, c) for c in cells)
    return FieldElem(fld, kn.vsub(plus, minus, fld.p, fld.modulus))


@dataclass
class TopCoeffReport:
    alternating_sum: FieldElem
    rational_sum: FieldElem
    interpolated: FieldElem

    @property
    def agree(self) -> bool:
        return self.alternating_sum == self.rational_sum == self.interpolated


def top_coeff(alphas: Sequence[FieldElem], beta: FieldElem,
              tower: FieldTower | None = None) -> TopCoeffReport:
    """The x_[n] coefficient three ways: alternating sum of polynomial
    evaluations, the closed-form rational sum over subsets
    sum_V (-1)^{n-|V|}/(sum_V - beta), and the interpolated coefficient.

    The denominators' cube table is evaluated once and shared. The rational
    sum is kept as one running fraction num/den, with
    num <- num*d +- den and den <- den*d for each denominator d, and one
    inversion at the end; it never uses the batch inversion that the other
    two values share, so it also checks that trick."""
    alphas = _normalize_alphas(alphas, beta, tower)
    n = len(alphas)
    _check_budget(n)
    fld = beta.spec
    p, mod = fld.p, fld.modulus
    table = cube_table(linear_poly(fld, alphas, -beta))
    poly = _reciprocal_of_table(table, n, fld)
    num, den = 0, 1
    for mask, d in enumerate(table):
        step = kn.vsub if (n - mask.bit_count()) % 2 else kn.vadd
        num = step(kn.vmul(num, d, p, mod), den, p, mod)
        den = kn.vmul(den, d, p, mod)
    rational = FieldElem(fld, kn.vmul(num, kn.vinv(den, p, mod), p, mod))
    return TopCoeffReport(alternating_cube_sum(poly), rational, poly.coeff((1,) * n))


# ---------------------------------------------------------------------------
# the numerator monomial claim

def numerator_monomial_check(n: int, fld: FieldSpec,
                             beta: FieldElem | None = None,
                             cap: int = 5) -> FieldElem:
    """Coefficient of prod_i z_i^{2^{i-1}} in prod_{T != empty} (L_T(z) - beta),
    extracted by dynamic programming over partial exponent vectors (the beta
    branch can never complete the full-degree monomial, so the value is
    independent of beta)."""
    _check_budget(n, cap, "symbolic numerator expansion")
    beta = beta if beta is not None else fld.one()
    target = tuple(1 << i for i in range(n))
    p, mod = fld.p, fld.modulus
    neg_beta = kn.vneg(beta.v, p, mod)
    states: dict[tuple[int, ...], int] = {(0,) * n: 1}
    factors = [
        [i for i in range(n) if (tmask >> i) & 1] for tmask in range(1, 1 << n)
    ]
    for remaining, members in enumerate(factors):
        budget_left = len(factors) - remaining  # factors still to consume
        nxt: dict[tuple[int, ...], int] = {}

        def put(key, val):
            cur = nxt.get(key)
            nxt[key] = val if cur is None else kn.vadd(cur, val, p, mod)

        for state, coeff in states.items():
            deficit = sum(t - s for t, s in zip(target, state))
            if deficit > budget_left:
                continue
            for i in members:
                if state[i] < target[i]:
                    put(state[:i] + (state[i] + 1,) + state[i + 1:], coeff)
            if deficit < budget_left and neg_beta:
                put(state, kn.vmul(coeff, neg_beta, p, mod))
        states = nxt
    return FieldElem(fld, states.get(target, 0))


# ---------------------------------------------------------------------------
# seeded degree trials

@dataclass
class TrialReport:
    trials: int
    successes: int
    parameters: dict
    bound: float
    bound_exact_union: float | None = None
    failures: list = dc_field(default_factory=list)

    @property
    def empirical_rate(self) -> float:
        return self.successes / self.trials if self.trials else 1.0

    @property
    def vacuous(self) -> bool:
        return self.bound <= 0.0

    def sigma(self) -> float:
        b = min(max(self.bound, 0.0), 1.0)
        return math.sqrt(b * (1.0 - b) / self.trials) if self.trials else 0.0

    def passes(self, n_sigma: float = 3.0) -> bool:
        return self.vacuous or self.empirical_rate >= self.bound - n_sigma * self.sigma()

    def to_dict(self) -> dict:
        out = {
            "trials": self.trials,
            "successes": self.successes,
            "empirical_rate": self.empirical_rate,
            "bound": self.bound,
            "vacuous": self.vacuous,
            "parameters": self.parameters,
        }
        if self.bound_exact_union is not None:
            out["bound_exact_union"] = self.bound_exact_union
        return out


def degree_trial(n: int, tower: FieldTower, trials: int, seed: int,
                 scan_all: bool = False) -> TrialReport:
    """Empirical rate of deg(ml_inverse) = n for uniform base-field alphas
    and beta outside the base field, against the stated probability bound.

    With scan_all=True the success event is deg = |U| for every nonempty
    restriction U simultaneously (the union-bound lemma); the report then
    carries both the exact union sum and the 2^{2n} bound.
    """
    rng = random.Random(seed)
    size = tower.base.order
    successes = 0
    for _ in range(trials):
        alphas = [tower.base.sample(rng) for _ in range(n)]
        beta = tower.sample_beta(rng)
        if scan_all:
            report = restricted_degree_scan(alphas, beta, tower)
            successes += report.all_full
        else:
            successes += ml_inverse(alphas, beta, tower).degree() == n
    if scan_all:
        bound = 1.0 - (2.0 ** (2 * n)) / size
        exact = 1.0 - sum(
            (2.0 ** len(u) - 1.0) / size
            for r in range(1, n + 1) for u in itertools.combinations(range(n), r)
        )
    else:
        bound = 1.0 - (2.0 ** n - 1.0) / size
        exact = None
    return TrialReport(
        trials, successes,
        {"n": n, "p": tower.p, "k": tower.k, "seed": seed, "scan_all": scan_all},
        bound, exact,
    )


@dataclass
class ScanReport:
    all_full: bool
    checked: int
    failing: list[tuple[int, ...]]

    @property
    def worst(self) -> tuple[int, ...] | None:
        """A failing restriction of maximal size, if any."""
        return max(self.failing, key=len, default=None)


def restricted_degree_scan(alphas: Sequence[FieldElem], beta: FieldElem,
                           tower: FieldTower | None = None) -> ScanReport:
    """Check deg(ml_inverse of the restriction to U) = |U| for every nonempty
    U, reporting the degenerate restrictions.

    One inverse serves every U: setting x_i = 0 for i outside U in
    ml_inverse(alphas, beta) leaves a multilinear polynomial that agrees with
    1 / (sum_U alpha_i x_i - beta) on U's cube, so by uniqueness it is the
    inverse of the restriction. Its degree is |U| exactly when the x_U
    monomial is a term of the full inverse."""
    alphas = _normalize_alphas(alphas, beta, tower)
    n = len(alphas)
    terms = set(ml_inverse(alphas, beta).exponents())
    failing = []
    count = 0
    for r in range(1, n + 1):
        for u in itertools.combinations(range(n), r):
            count += 1
            if tuple(int(i in u) for i in range(n)) not in terms:
                failing.append(u)
    return ScanReport(not failing, count, failing)


def sparsity_probe(alphas: Sequence[FieldElem], beta: FieldElem,
                   tower: FieldTower | None = None) -> tuple[int, float]:
    """(sparsity of ml_inverse, the 2^{n/4 - 1} bound)."""
    alphas = _normalize_alphas(alphas, beta, tower)
    n = len(alphas)
    poly = ml_inverse(alphas, beta)
    return poly.sparsity(), 2.0 ** (n / 4.0 - 1.0)


# ---------------------------------------------------------------------------
# coefficient rank, evaluation dimension, roABP width

def _rank(vectors: Iterable[dict], field: FieldSpec) -> int:
    """Rank of the vectors {label: stored element}, one column per distinct
    label: Poly.split's labels, so no all-zero row or column is built."""
    vectors = [v for v in vectors if v]
    cols = dict.fromkeys(j for v in vectors for j in v)
    if max(len(vectors), len(cols)) > 1 << budget_n():
        raise BudgetExceeded("coefficient matrix side exceeds the cube budget")
    return exactla.rank([[v.get(j, 0) for j in cols] for v in vectors], field)


def _check_partition(f: Poly, partition: tuple[Sequence[int], Sequence[int]]) -> None:
    """ValueError unless the partition's two sides split f's variables."""
    left, right = set(partition[0]), set(partition[1])
    if left | right != set(range(f.n)) or left & right:
        raise ValueError("partition must split the variable set")


def coefficient_rank(f: Poly, partition: tuple[Sequence[int], Sequence[int]]) -> int:
    """Rank of Nisan's coefficient matrix of f under (left, right), whose
    entry (m, m') is the coefficient of m * m' in f."""
    _check_partition(f, partition)
    return _rank(f.split(partition[0]).values(), f.field)


def eval_dimension(f: Poly, partition: tuple[Sequence[int], Sequence[int]],
                   domain: Iterable[FieldElem] | None = None) -> int:
    """Dimension of the span of {f(left, b)} over right-side assignments b,
    with b drawn from the domain (default {0,1}); never exceeds the
    coefficient rank."""
    _check_partition(f, partition)
    right, fld = tuple(partition[1]), f.field
    points = list(domain) if domain is not None else [fld.zero(), fld.one()]
    cap = budget_n()
    if len(points) ** len(right) > 1 << cap:
        raise BudgetExceeded(f"restriction enumeration needs at most 2^{cap} "
                             f"assignments, got {len(points)}^{len(right)}")
    # a restriction's only monomial in the right variables is 1, labelled 0
    return _rank((f.restrict(dict(zip(right, b))).split(right).get(0, {})
                  for b in itertools.product(points, repeat=len(right))), fld)


def roabp_width(f: Poly, order: Sequence[int]) -> int:
    """Exact optimal roABP width in the given variable order: the maximum of
    the coefficient rank over every prefix cut."""
    order = list(order)
    if sorted(order) != list(range(f.n)):
        raise ValueError("order must be a permutation of the variables")
    return max((_rank(f.split(order[:i]).values(), f.field)
                for i in range(1, f.n + 1)), default=0)


# ---------------------------------------------------------------------------
# lifted hard instances

@dataclass
class LiftedInstance:
    """A lifted subset-sum instance and its variable layout."""

    kind: str                      # "fixed-order" | "any-order"
    nx: int                        # the lemma's n
    n_vars: int
    poly: Poly
    alphas: dict
    beta: FieldElem
    var_names: tuple[str, ...]
    tower: FieldTower | None = None

    # fixed-order helpers ----------------------------------------------------

    def x_vars(self) -> list[int]:
        return list(range(self.nx if self.kind == "fixed-order" else 2 * self.nx))

    def y_vars(self) -> list[int]:
        if self.kind != "fixed-order":
            raise ValueError("y_vars applies to fixed-order instances")
        return list(range(self.nx, 2 * self.nx))


def lifted_poly(n: int, supports: Sequence[Sequence[int]], alphas: Sequence[FieldElem],
                beta: FieldElem) -> Poly:
    """sum_S alpha_S x^S - beta in n variables: x^S, the product of the
    variables of support S (0-based), put in for y_S in sum_S alpha_S y_S -
    beta, as refute_sparse lifts its certificate. Zero alphas leave no term."""
    return substitute_monomials(linear_poly(beta.spec, alphas, -beta), n,
                                [[int(i in S) for i in range(n)] for S in supports])


def lifted_instance(kind: str, n: int, tower: FieldTower, rng) -> LiftedInstance:
    """Seeded hard instance: fixed-order sum alpha_i x_i y_i - beta, or the
    any-order variant sum alpha_ij z_ij x_i x_j - beta over 2n x-variables."""
    beta = tower.sample_beta(rng)
    if kind == "fixed-order":
        n_vars, keys = 2 * n, list(range(n))
        supports = [(i, n + i) for i in keys]
        names = default_names(n) + default_names(n, "y")
    elif kind == "any-order":
        m = 2 * n
        keys = [(i, j) for i in range(m) for j in range(i + 1, m)]
        n_vars, supports = m + len(keys), [(i, j, m + idx) for idx, (i, j) in enumerate(keys)]
        names = default_names(m) + default_names(len(keys), "z")
    else:
        raise ValueError(f"unknown lifted instance kind {kind!r}")
    alphas = {key: tower.embed(tower.base.sample(rng)) for key in keys}
    poly = lifted_poly(n_vars, supports, list(alphas.values()), beta)
    return LiftedInstance(kind, n, n_vars, poly, alphas, beta, names, tower)
