"""Elementary symmetric polynomial machinery.

Everything a symmetric refutation needs: e_d construction, Hamming-weight
evaluation through Lucas, Ben-Or interpolation forms, compression of symmetric
functions to O(log_p n) coordinates in characteristic p, and multilinearization
certificates for products of elementary symmetric polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

from ipsforge import _kernel as kn, exactla
from ipsforge.errors import FieldTooSmall, NotSymmetric, OutOfRange
from ipsforge.gf import FieldElem, FieldSpec
from ipsforge.mvpoly import Poly, divide_by_axioms, sum_of_products


def lucas_binom(a: int, b: int, p: int) -> int:
    """C(a, b) mod p by digitwise products of p-ary digits."""
    if a < 0 or b < 0:
        raise OutOfRange("binomial arguments must be non-negative")
    result = 1
    while b:
        ad, bd = a % p, b % p
        if bd > ad:
            return 0
        num = den = 1
        for i in range(bd):
            num = num * (ad - i) % p
            den = den * (i + 1) % p
        result = result * num * pow(den, -1, p) % p
        a //= p
        b //= p
    return result


def binom_elem(w: int, d: int, field: FieldSpec) -> FieldElem:
    """C(w, d) as a prime-subfield constant."""
    return field.from_int(lucas_binom(w, d, field.p))


def elem_sym(n: int, d: int, field: FieldSpec) -> Poly:
    """The degree-d elementary symmetric polynomial, C(n,d) monomials."""
    if not 0 <= d <= n:
        raise OutOfRange(f"need 0 <= d <= n, got d={d}, n={n}")
    return _by_weight(n, field, [0] * d + [1])


@lru_cache(maxsize=256)  # the weights of a few n at a time
def subset_keys(n: int, d: int) -> tuple[int, ...]:
    """The keys (one-byte slots) of the monomials x_S over the d-subsets S of
    the first n variables."""
    units = [kn.pack([0] * i + [1], 1) for i in range(n)]
    return tuple(sum(map(units.__getitem__, s)) for s in itertools.combinations(range(n), d))


def _by_weight(n: int, field: FieldSpec, values: Sequence[int]) -> Poly:
    """sum_S values[|S|] x_S over the subsets S of the n variables, values
    stored elements (FieldElem.v) for the weights 0..len(values) - 1: only
    nonzero weights read their subsets, so a sparse expansion stays
    polynomial in n."""
    return Poly._of(n, field, 1, {e: c for d, c in enumerate(values) if c
                                  for e in subset_keys(n, d)})


# ---------------------------------------------------------------------------
# the e-basis for multilinear symmetric polynomials

@dataclass(frozen=True)
class ElemSymExpansion:
    """A multilinear symmetric polynomial as sum_d lambdas[d] * e_d (e_0 = 1)."""

    n: int
    field: FieldSpec
    lambdas: tuple[FieldElem, ...]  # length n + 1

    def to_poly(self) -> Poly:
        return _by_weight(self.n, self.field, [lam.v for lam in self.lambdas])

    @classmethod
    def from_weight_values(cls, values: Sequence[FieldElem],
                           field: FieldSpec) -> "ElemSymExpansion":
        """The expansion in n = len(values) - 1 variables whose value at
        Hamming weight w is values[w]: the triangular system
        values[w] = sum_d lambdas[d] C(w, d), whose diagonal C(w, w) is 1."""
        lambdas: list[FieldElem] = []
        for w, acc in enumerate(values):
            for d in range(w):
                acc = acc - lambdas[d] * binom_elem(w, d, field)
            lambdas.append(acc)
        return cls(len(values) - 1, field, tuple(lambdas))


def weight_values(f: Poly) -> list[FieldElem]:
    """f at the points 1^w 0^{n-w}; a symmetric polynomial is determined by these."""
    return f.eval_cube_prefixes()


def sym_to_elem_basis(f: Poly) -> ElemSymExpansion:
    """Expand a multilinear symmetric polynomial in the e_d basis.

    Symmetry is verified by weight-class consistency of the coefficients,
    and then f = sum_d c_d e_d with c_d the coefficient of the degree-d class.
    """
    if not f.is_multilinear():
        raise NotSymmetric("input must be multilinear")
    n, field = f.n, f.field
    by_degree: dict[int, int] = {}
    counts: dict[int, int] = {}
    for exp, c in zip(f.exponents(), f.terms.values()):
        d = sum(exp)
        if by_degree.setdefault(d, c) != c:
            raise NotSymmetric(f"degree-{d} monomials carry unequal coefficients")
        counts[d] = counts.get(d, 0) + 1
    for d, cnt in counts.items():
        if d > 0 and cnt != comb(n, d):
            raise NotSymmetric(f"degree-{d} class is incomplete ({cnt} of {comb(n, d)})")
    return ElemSymExpansion(n, field, tuple(FieldElem(field, by_degree.get(d, 0))
                                            for d in range(n + 1)))


# ---------------------------------------------------------------------------
# Ben-Or forms

@dataclass(frozen=True)
class BenOrForm:
    """e_k = sum_i coeffs[k][i] * prod_j (1 + nodes[i] x_j) for 0 <= k <= n."""

    n: int
    field: FieldSpec
    nodes: tuple[FieldElem, ...]
    coeffs: tuple[tuple[FieldElem, ...], ...]

    def product_factor(self, i: int) -> Poly:
        """prod_j (1 + nodes[i] x_j), expanded: sum_S nodes[i]^{|S|} x_S."""
        return _by_weight(self.n, self.field, [(self.nodes[i] ** w).v for w in range(self.n + 1)])

    def expand_row(self, k: int) -> Poly:
        """sum_i coeffs[k][i] product_factor(i), at x_S sum_i coeffs[k][i] nodes[i]^|S|."""
        return _by_weight(self.n, self.field, [sum((c * g ** w for c, g in zip(
            self.coeffs[k], self.nodes)), self.field.zero()).v for w in range(self.n + 1)])


def ben_or_coeffs(n: int, field: FieldSpec) -> BenOrForm:
    """Solve the transposed Vandermonde system at the n+1 smallest field
    elements (by encoding), so each e_k identity holds as a polynomial."""
    if field.order <= n:
        raise FieldTooSmall(
            f"need {n + 1} distinct nodes, field has {field.order} elements"
        )
    nodes = [field.from_encoding(m) for m in range(n + 1)]
    vm = []
    row = [field.one() for _ in nodes]
    for _ in range(n + 1):
        vm.append([x.v for x in row])
        row = [x * g for x, g in zip(row, nodes)]
    inv = exactla.invert(vm, field)
    assert inv is not None  # Vandermonde at distinct nodes
    coeffs = tuple(
        tuple(FieldElem(field, inv[i][k]) for i in range(n + 1))
        for k in range(n + 1)
    )
    return BenOrForm(n, field, tuple(nodes), coeffs)


# ---------------------------------------------------------------------------
# characteristic-p compression

def _digits(t: int, p: int, r: int) -> list[int]:
    out = []
    for _ in range(r):
        out.append(t % p)
        t //= p
    if t:
        raise OutOfRange(f"value needs more than {r} base-{p} digits")
    return out


def _falling_factorial_poly(r: int, var: int, d: int, field: FieldSpec) -> Poly:
    """(1/d!) prod_{j<d} (y_var - j); evaluates to C(w, d) mod p at w."""
    p = field.p
    acc = Poly.one(r, field)
    for j in range(d):
        acc = acc * (Poly.var(r, field, var) - Poly.const(r, field, field.from_int(j)))
    fact = 1
    for i in range(2, d + 1):
        fact = fact * i % p
    return acc.scale(field.from_int(pow(fact, -1, p) if fact > 1 else 1))


@dataclass(frozen=True)
class CompressedSymmetric:
    """F(y_1..y_r) with individual degree <= p-1 such that
    F(e_1, e_p, ..., e_{p^{r-1}}) matches the source on the whole cube."""

    n: int
    r: int
    field: FieldSpec
    poly: Poly  # in r variables
    source: ElemSymExpansion  # the source's e-basis expansion, lambda_d the weight of Q_d


def num_compressed_vars(n: int, p: int) -> int:
    r = 1
    while p ** r <= n:
        r += 1
    return r


def compress_char_p(f: Poly) -> CompressedSymmetric:
    """Compress a multilinear symmetric polynomial sum_d lambda_d e_d to
    r = floor(log_p n) + 1 coordinates as sum_d lambda_d Q_d(y) (Q_0 = 1)."""
    n, field = f.n, f.field
    p = field.p
    r = num_compressed_vars(n, p)
    expansion = sym_to_elem_basis(f)
    poly = sum_of_products(r, field, [
        (qt_poly(d, r, p, field) if d else Poly.one(r, field), Poly.const(r, field, lam))
        for d, lam in enumerate(expansion.lambdas) if not lam.is_zero()])
    return CompressedSymmetric(n, r, field, poly, expansion)


@lru_cache(maxsize=256)  # every axiom set asks for its Q_t again; a Poly is immutable
def qt_poly(t: int, r: int, p: int, field: FieldSpec) -> Poly:
    """Q_t(y) = prod_i S_{t_i}(y_i); vanishes at digit vectors b unless b
    dominates the digits of t, where it is prod_i C(b_i, t_i)."""
    if field.p != p:
        raise OutOfRange("field characteristic must match p")
    if not 1 <= t <= p ** r - 1:
        raise OutOfRange(f"need 1 <= t <= p^r - 1 = {p ** r - 1}, got {t}")
    acc = Poly.one(r, field)
    for i, ti in enumerate(_digits(t, p, r)):
        if ti:
            acc = acc * _falling_factorial_poly(r, i, ti, field)
    return acc


# ---------------------------------------------------------------------------
# multilinearization certificates for products of elementary symmetrics

def ml_prod_elem(alphas, n: int, field: FieldSpec) -> tuple[ElemSymExpansion, list[Poly]]:
    """Certificate for prod e_alpha = ml[prod e_alpha] + sum_j R_j (x_j^2 - x_j).

    Returns the e-basis expansion of the multilinear part and the quotients
    R_1..R_n, built by a deterministic left-to-right fold over the sorted
    degree multiset. The fold carries the running product's values at each
    Hamming weight w, where e_beta is C(w, beta), and reads its e-basis
    coefficients from them; the quotients come from exact division.
    """
    degrees = sorted(alphas)
    for a in degrees:
        if not 0 <= a <= n:
            raise OutOfRange(f"degree {a} out of range for n={n}")
    values = [field.one()] * (n + 1)
    quotients = [Poly.zero(n, field) for _ in range(n)]
    for step, beta in enumerate(degrees):
        if step:  # the first factor is multilinear, so its quotients are zero
            # R_j' = R_j e_beta + sum_i lambda_i D_ij, where D_ij are the
            # Boolean quotients of e_i e_beta
            lambdas = ElemSymExpansion.from_weight_values(values, field).lambdas
            e_beta = elem_sym(n, beta, field)
            scaled = [(Poly.const(n, field, lam),
                       divide_by_axioms(elem_sym(n, i, field) * e_beta, "boolean").quotients)
                      for i, lam in enumerate(lambdas) if not lam.is_zero()]
            quotients = [sum_of_products(n, field, [(q, e_beta)] + [
                             (lam, d[j]) for lam, d in scaled])
                         for j, q in enumerate(quotients)]
        values = [v * binom_elem(w, beta, field) for w, v in enumerate(values)]
    return ElemSymExpansion.from_weight_values(values, field), quotients
