"""Construction and exact verification of IPS_LIN refutations.

A certificate is the tuple (A_1..A_m, B_1..B_n) with
sum_i A_i f_i + sum_j B_j (x_j^2 - x_j) = 1 as a polynomial identity;
verify() expands the whole combination, so a passing certificate is exact,
never sampled. Constructors: the Frobenius-iteration refutation for shifted
linear instances, sparse lifting through monomial axioms, the low-degree
refutation for base-field linear instances, a symmetric-system pipeline, and
a generic bounded-degree linear-algebra solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from math import comb
from typing import Sequence

from ipsforge import _kernel as kn, exactla
from ipsforge.errors import (
    ArityMismatch,
    BetaInSubfield,
    FieldMismatch,
    NotLinear,
    ParseError,
    SatisfiableInstance,
    SatisfiableSystem,
)
from ipsforge.gf import FieldElem, FieldSpec, FieldTower, parse_field_spec
from ipsforge.mvpoly import (
    Poly,
    collect,
    default_names,
    divide_by_axioms,
    fermat_exponent,
    format_poly,
    linear_poly,
    ml,
    parse_poly,
    substitute_monomials,
    sum_of_products,
)
from ipsforge.symfun import (
    ElemSymExpansion,
    binom_elem,
    num_compressed_vars,
    qt_poly,
    subset_keys,
    weight_values,
)
from ipsforge.symfun import compress_char_p as _compress

MODELED_DEPTH = {
    "linear_frobenius": 3,
    "sparse_lift": 5,
    "linear_lowdegree": 2,
    "nullstellensatz": 2,
    "symmetric_pipeline": 8,
}


# ---------------------------------------------------------------------------
# instances and certificates

@dataclass
class Instance:
    """Axioms f_1..f_m over a declared field, plus the tower when the family
    uses a shifted constant from the extension."""

    n: int
    field: FieldSpec
    axioms: list[Poly]
    meta: str = "generic"
    tower: FieldTower | None = None
    var_names: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.var_names:
            self.var_names = default_names(self.n)
        for f in self.axioms:
            if f.n != self.n or f.field != self.field:
                raise ArityMismatch("axiom arity or field differs from instance")


@dataclass
class CertStats:
    max_degree: int
    total_sparsity: int
    modeled_depth: int

    def to_dict(self) -> dict:
        return {
            "max_degree": self.max_degree,
            "total_sparsity": self.total_sparsity,
            "modeled_depth": self.modeled_depth,
        }


@dataclass
class Certificate:
    A: list[Poly]
    B: list[Poly]
    provenance: dict = dc_field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.B[0].n if self.B else (self.A[0].n if self.A else 0)


@dataclass
class NoCertificateAtDegree:
    """Value returned when the bounded solver proves no certificate exists at
    the requested degree."""

    degree_bound: int
    detail: str = ""


@dataclass
class VerificationReport:
    ok: bool
    residual: Poly

    def __bool__(self):
        return self.ok


def cert_stats(cert: Certificate) -> CertStats:
    polys = list(cert.A) + list(cert.B)
    max_degree = max((f.degree() for f in polys if not f.is_zero()), default=0)
    total_sparsity = sum(f.sparsity() for f in polys)
    depth = MODELED_DEPTH.get(cert.provenance.get("constructor", ""), 0)
    return CertStats(max_degree, total_sparsity, depth)


def boolean_axiom(n: int, field: FieldSpec, j: int) -> Poly:
    return Poly.var(n, field, j, 2) - Poly.var(n, field, j)


def verify(instance: Instance, cert: Certificate) -> VerificationReport:
    """Expand sum A_i f_i + sum B_j (x_j^2 - x_j) and compare with 1.

    A wrong certificate yields ok=False with the nonzero residual; shape
    mismatches raise ArityMismatch.
    """
    if len(cert.A) != len(instance.axioms):
        raise ArityMismatch(
            f"certificate has {len(cert.A)} A-multipliers for {len(instance.axioms)} axioms"
        )
    if len(cert.B) != instance.n:
        raise ArityMismatch(
            f"certificate has {len(cert.B)} B-multipliers for n={instance.n}"
        )
    n, fld = instance.n, instance.field
    products = []
    for a, f in zip(cert.A, instance.axioms):
        if a.n != n or a.field != fld:
            raise ArityMismatch("A-multiplier arity or field differs from instance")
        products.append((a, f))
    for j, b in enumerate(cert.B):
        if b.n != n or b.field != fld:
            raise ArityMismatch("B-multiplier arity or field differs from instance")
        if not b.is_zero():
            products.append((b, boolean_axiom(n, fld, j)))
    residual = sum_of_products(n, fld, products) - Poly.one(n, fld)
    return VerificationReport(residual.is_zero(), residual)


# ---------------------------------------------------------------------------
# linear instances: satisfiability and coefficient extraction

def _linear_parts(L: Poly) -> tuple[list[FieldElem], FieldElem]:
    """(alphas, beta) with L = sum alpha_i x_i - beta; NotLinear if deg > 1."""
    if L.degree() > 1:
        raise NotLinear(f"degree {L.degree()} instance where degree <= 1 required")
    fld = L.field
    alphas = [fld.zero()] * L.n
    beta = fld.zero()
    for exp, c in L.items():
        if sum(exp) == 0:
            beta = -c
        else:
            alphas[exp.index(1)] = c
    return alphas, beta


def reachable_sums(alphas: Sequence[FieldElem], fld: FieldSpec) -> set[FieldElem]:
    sums = {fld.zero()}
    full = fld.order
    for a in alphas:
        if a.is_zero():
            continue
        sums |= {s + a for s in sums}
        if len(sums) == full:
            break
    return sums


def is_unsat_on_cube(L: Poly) -> bool:
    """True iff the subset-sum value beta is unreachable: dynamic programming
    over the set of attainable sums."""
    alphas, beta = _linear_parts(L)
    return beta not in reachable_sums(alphas, L.field)


# ---------------------------------------------------------------------------
# Frobenius-iteration refutation (shifted linear instances)

def _check_shifted(L: Poly, tower: FieldTower) -> tuple[list[FieldElem], FieldElem]:
    if L.field != tower.ext:
        raise ArityMismatch("shifted instance must live at the extension level")
    alphas, beta = _linear_parts(L)
    for a in alphas:
        if not tower.is_in_subfield(a):
            raise BetaInSubfield(
                "coefficient outside the base field; the Frobenius chain needs "
                "alpha_i in F_{p^k}"
            )
    if tower.is_in_subfield(beta):
        raise BetaInSubfield("beta lies in the base field")
    return alphas, beta


def _conjugates(alphas: Sequence[FieldElem], beta: FieldElem,
                count: int) -> list[tuple[Sequence[FieldElem], FieldElem]]:
    """(alpha^{p^j}, beta^{p^j}) for j < count: the coefficients of the
    Frobenius images L_j = sum alpha_i^{p^j} x_i - beta^{p^j} of L."""
    p, out = beta.spec.p, []
    for j in range(count):
        if j:
            alphas, beta = [a ** p for a in alphas], beta ** p
        out.append((alphas, beta))
    return out


def refute_linear_frobenius(L: Poly, tower: FieldTower) -> Certificate:
    """Refutation of L = sum alpha_i x_i - beta (alpha in the base field,
    beta outside it) by iterating Frobenius powers of L; the final division by
    beta - beta^{p^k} turns the chain into an exact certificate, and each
    Fermat axiom is converted to the Boolean one through the geometric factor
    x^{p-2} + ... + 1.

    The chain recursion unrolls to A_k = prod_j L_j^{p-1} and
    B_{k,i} = -sum_l alpha_i^{p^l} C_l with C_l the suffix products of the
    L_j^{p-1}, so the B side needs no polynomial products of its own.
    """
    n, fld = L.n, L.field
    p, k = tower.p, tower.k
    alphas, beta = _check_shifted(L, tower)
    conj = _conjugates(alphas, beta, k + 1)
    powers = [linear_poly(fld, a, -b) ** (p - 1) for a, b in conj[:k]]
    suffix = [Poly.one(n, fld)] * (k + 1)
    for l in range(k - 1, 0, -1):
        suffix[l] = powers[l] * suffix[l + 1]
    A_k = powers[0] * suffix[1]
    denom = beta - conj[k][1]
    if denom.is_zero():
        raise BetaInSubfield("beta^{p^k} = beta")
    scale = denom.inv()
    A = (A_k - Poly.one(n, fld)).scale(scale)
    B = []
    for i in range(n):
        # B_i = -(sum_l alpha_i^{p^l} C_l) / denom times the geometric factor
        # (x_i^p - x_i) / (x_i^2 - x_i), accumulated as one sum of products
        geom = collect(n, fld, [([0] * i + [d] + [0] * (n - 1 - i), 1) for d in range(p - 1)])
        B.append(sum_of_products(n, fld, [
            (suffix[l], geom.scale(-conj[l][0][i] * scale))
            for l in range(1, k + 1)
        ]))
    return Certificate(
        [A], B,
        {"constructor": "linear_frobenius", "p": p, "k": k, "n": n},
    )


# ---------------------------------------------------------------------------
# sparse lifting through monomial axioms

def expand_monomial_axiom(mu: tuple[int, ...], n: int, fld: FieldSpec) -> list[Poly]:
    """E_1..E_n with (x^mu)^2 - x^mu = sum_j E_j (x_j^2 - x_j), peeling the
    largest-index variable first, each written out term by term: for t in
    the support, E_t = x_S (sum_{d < 2mu_t - 1} x_t^d x^{2nu} -
    sum_{d < mu_t - 1} x_t^d x^nu), with x_S the product of the support
    variables above t and nu = mu below t; E_t = 0 off the support."""
    minus = (-fld.one()).v
    return [collect(n, fld, [([m * v for v in mu[:t]] + [d] + [min(v, 1) for v in mu[t + 1:]], c)
                             for m, top, c in ((2, 2 * mu[t] - 1, 1), (1, mu[t] - 1, minus))
                             for d in range(top)])
            for t in range(n)]


def refute_sparse(f: Poly, tower: FieldTower) -> Certificate:
    """Refutation of a sparse shifted instance f = sum alpha_mu x^mu - beta:
    flatten each support monomial to a fresh variable, refute the resulting
    linear instance by the Frobenius chain (which raises BetaInSubfield for a
    coefficient outside the base field or a beta inside it), substitute the
    monomials back, and expand every lifted Boolean axiom through the
    monomial-axiom identity."""
    n, fld = f.n, f.field
    support = sorted((e for e in f.exponents() if sum(e) > 0), key=lambda e: (sum(e), e))
    F = linear_poly(fld, [f.coeff(e) for e in support], f.coeff((0,) * n))
    flat_cert = refute_linear_frobenius(F, tower)
    A = substitute_monomials(flat_cert.A[0], n, support)
    # B_j = sum_mu b_mu E_j(mu), with b_mu the lifted flat B-multiplier of mu
    lifted = [(substitute_monomials(flat_cert.B[idx], n, support),
               expand_monomial_axiom(mu, n, fld))
              for idx, mu in enumerate(support)]
    B = [sum_of_products(n, fld, [(b_mu, E[j]) for b_mu, E in lifted])
         for j in range(n)]
    return Certificate(
        [A], B,
        {"constructor": "sparse_lift", "p": tower.p, "k": tower.k, "n": n,
         "sparsity": len(support)},
    )


# ---------------------------------------------------------------------------
# low-degree refutation for base-field linear instances

def ml_power_q_minus_2(L: Poly) -> Poly:
    """ml[L^{q-2}] without materializing the dense power: q - 2 has the
    p-ary digits p-2, p-1, ..., p-1, and digit j takes that many factors of
    the Frobenius image L_j, with multilinearization after every factor."""
    fld = L.field
    p = fld.p
    digits = [p - 2] + [p - 1] * (fld.k - 1)
    acc = Poly.one(L.n, fld)
    for m_j, (alphas, beta) in zip(digits, _conjugates(*_linear_parts(L), fld.k)):
        L_j = linear_poly(fld, alphas, -beta)
        for _ in range(m_j):
            acc = ml(acc * L_j)
    return acc


def _boolean_side(A: list[Poly], axioms: list[Poly]) -> list[Poly]:
    """B_1..B_n completing A to a certificate: S = sum_i A_i f_i divided by
    the Boolean axioms must leave remainder 1, and B_j is minus the j-th
    quotient."""
    n, fld = axioms[0].n, axioms[0].field
    dec = divide_by_axioms(sum_of_products(n, fld, zip(A, axioms)), "boolean")
    if dec.remainder != Poly.one(n, fld):
        raise AssertionError("sum A_i f_i does not reduce to 1 on the cube")
    return [-q for q in dec.quotients]


def _symmetric_boolean_side(A: list[ElemSymExpansion], F: list[ElemSymExpansion]) -> list[Poly]:
    """_boolean_side for symmetric A_i, f_i from their e-basis coefficients
    a_i(d), f_i(d), with no product and no division. x_S x_T = x^e, where e
    has u1 ones (S xor T) and u2 twos (S and T), comes from S = twos + M,
    T = twos + ones - M for M within the ones, so sum_i A_i f_i has at x^e
        c(u1, u2) = sum_i sum_m C(u1, m) a_i(u2 + m) f_i(u1 + u2 - m).
    Dividing by x_j^2 - x_j for j ascending, a one before j collects the ones
    and twos it came from. So the quotient Q_j = -B_j (x_j^2 moved to x_j^0)
    has q(h, o, t) = sum_w C(h, w) c(h - w + o, w + t + 1) at the monomials
    with h ones before j and o ones and t twos after j, and the remainder at
    x_H, |H| = h, is r(h) = sum_w C(h, w) c(h - w, w), which must be [h = 0]."""
    n, fld, p = F[0].n, F[0].field, F[0].field.p
    binom = [[comb(u, m) % p for m in range(u + 1)] for u in range(n + 1)]
    co = kn.codec(p, fld.modulus, (n + 1) * len(A) * p)  # (n+1)m products a sum, each times C < p
    a, f = ([co.spread([lam.v for lam in e.lambdas]) for e in side] for side in (A, F))
    c = [co.spread([co.reduce(sum(binom[u1][m] * ai[u2 + m] * fi[u1 + u2 - m]
                                  for ai, fi in zip(a, f) for m in range(u1 + 1)))
                    for u2 in range(n + 1 - u1)]) for u1 in range(n + 1)]
    def diagonal(h, o, t):  # sum_w C(h, w) c(h - w + o, w + t)
        return co.reduce(sum(binom[h][w] * c[h - w + o][w + t] for w in range(h + 1)))
    if [diagonal(h, 0, 0) for h in range(n + 1)] != [1] + [0] * n:
        raise AssertionError("sum A_i f_i does not reduce to 1 on the cube")
    q = {(h, o, t): kn.vneg(diagonal(h, o, t + 1), p, fld.modulus)
         for h in range(n) for o in range(n - h) for t in range(n - h - o)}
    B, after = [], {(0, 0): [0]}  # keys on the variables after j, by (o, t)
    for j in reversed(range(n)):
        if j < n - 1:  # variable j + 1 joins them
            one, get = kn.pack([0] * (j + 1) + [1], 1), lambda key: after.get(key, ())
            after = {(o, t): [*get((o, t)), *[y + one for y in get((o - 1, t))],
                              *[y + 2 * one for y in get((o, t - 1))]]
                     for o in range(n - j) for t in range(n - j - o)}
        B.append(Poly._of(n, fld, 1, {x + y: v for (o, t), ys in after.items()
                                      for h in range(j + 1) if (v := q[h, o, t])
                                      for y in ys for x in subset_keys(j, h)}))
    return B[::-1]


def refute_linear_lowdegree(L: Poly) -> Certificate:
    """Refutation of an unsatisfiable base-field linear instance with
    A = ml[L^{q-2}] of degree <= k(p-1); B_j come from sequential division of
    A*L by the Boolean axioms."""
    if not is_unsat_on_cube(L):
        raise SatisfiableInstance("instance has a Boolean zero")
    fld = L.field
    A = ml_power_q_minus_2(L)
    return Certificate(
        [A], _boolean_side([A], [L]),
        {"constructor": "linear_lowdegree", "p": fld.p, "k": fld.k, "n": L.n},
    )


# ---------------------------------------------------------------------------
# generic bounded-degree Nullstellensatz solver

def _monomial_basis(n: int, max_deg: int, individual_cap: int | None):
    top = max_deg if individual_cap is None else min(max_deg, individual_cap)
    return sorted([e for e in itertools.product(range(top + 1), repeat=n) if sum(e) <= max_deg],
                  key=lambda e: (sum(e), e))


def _solve_multipliers(axioms: list[Poly], basis: list[tuple[int, ...]],
                       reduce=None) -> list[Poly] | None:
    """Multipliers M_i in the span of the basis monomials with
    sum_i M_i g_i = 1, by exact linear algebra, or None when there are none.

    Column (i, mono) is x^mono * g_i with every exponent passed through
    reduce when given (so the identity holds modulo the ideal whose
    remainders reduce computes); rows are the monomials of the columns in
    grlex order. Columns are built on packed keys, with slots that hold twice
    the largest exponent, reduce (which never raises one) once per distinct key.
    """
    n, fld = axioms[0].n, axioms[0].field
    reduce = reduce or (lambda d: d)
    top = max(itertools.chain(*basis, *[e for g in axioms for e in g.exponents()]), default=0)
    nb, fix = kn.slot_bytes(2 * top), kn.stored_form(fld.p, fld.k).fix
    monos, terms = [kn.pack(mono, nb) for mono in basis], [g._at(nb).items() for g in axioms]
    image = {e: kn.pack([reduce(d) for d in kn.unpack(e, n, nb)], nb)
             for e in {e + mono for items in terms for mono in monos for e, _ in items}}
    columns = []
    for items, mono in itertools.product(terms, monos):
        col: dict[int, int] = {}
        for e, c in items:
            t = image[e + mono]
            col[t] = fix(col[t] + c) if t in col else c
        columns.append({e: c for e, c in col.items() if c})
    rows = sorted(set().union(*columns), key=lambda e: (sum(t := kn.unpack(e, n, nb)), t))
    if not rows or rows[0]:  # the constant monomial, if any, sorts first
        return None
    index = {e: i for i, e in enumerate(rows)}
    matrix = [[0] * len(columns) for _ in rows]
    for cidx, col in enumerate(columns):
        for e, c in col.items():
            matrix[index[e]][cidx] = c
    solution = exactla.solve(matrix, [1] + [0] * (len(rows) - 1), fld)
    if solution is None:
        return None
    size = len(basis)
    return [Poly(n, fld, {mono: FieldElem(fld, c) for mono, c in
                          zip(basis, solution[i * size:(i + 1) * size]) if c})
            for i in range(len(axioms))]


def solve_nullstellensatz(axioms: list[Poly], degree_bound: int, *,
                          include_boolean: bool = False
                          ) -> Certificate | NoCertificateAtDegree:
    """Search for multipliers A_i of degree <= degree_bound with
    sum A_i f_i = 1, by exact linear algebra over the monomial basis.

    With include_boolean=True the Boolean axioms are appended internally and
    their multipliers returned as the certificate's B side. Returns
    NoCertificateAtDegree when the system is infeasible at this bound
    (monotone: feasible bounds are upward closed).
    """
    if degree_bound < 0:
        return NoCertificateAtDegree(degree_bound, "negative bound")
    n, fld = axioms[0].n, axioms[0].field
    all_axioms = list(axioms)
    if include_boolean:
        all_axioms += [boolean_axiom(n, fld, j) for j in range(n)]
    basis = _monomial_basis(n, degree_bound, None)
    # x^mono * f has a constant term only for mono = 1 and f(0) != 0
    if not basis or all(ax.coeff((0,) * n).is_zero() for ax in all_axioms):
        return NoCertificateAtDegree(degree_bound, "constant row missing")
    multipliers = _solve_multipliers(all_axioms, basis)
    if multipliers is None:
        return NoCertificateAtDegree(degree_bound)
    if include_boolean:
        A, B = multipliers[:len(axioms)], multipliers[len(axioms):]
    else:
        A, B = multipliers, [Poly.zero(n, fld) for _ in range(n)]
    return Certificate(
        A, B,
        {"constructor": "nullstellensatz", "degree_bound": degree_bound,
         "include_boolean": include_boolean, "n": n},
    )


def minimum_certificate_degree(axioms: list[Poly], max_bound: int, *,
                               include_boolean: bool = True) -> tuple[int, Certificate] | None:
    """Smallest A-side degree at which a certificate exists, by an ascending
    bound sweep."""
    for bound in range(max_bound + 1):
        result = solve_nullstellensatz(axioms, bound, include_boolean=include_boolean)
        if isinstance(result, Certificate):
            return bound, result
    return None


# ---------------------------------------------------------------------------
# symmetric systems

def refute_symmetric_system(system: list[Poly]) -> Certificate | NoCertificateAtDegree:
    """Refutation of a system of multilinear symmetric polynomials with no
    common Boolean zero.

    Pipeline: compress each axiom to r = floor(log_p n)+1 coordinates, adjoin
    the digit-dominance polynomials Q_t (n < t <= p^r - 1), solve the
    low-variate certificate modulo the Fermat ideal with individual degree
    <= p-1, lift A_i = ml[A~_i(e-hat)] back through weight-space arithmetic,
    and read the Boolean quotients from weight-class tables.
    """
    if not system:
        raise ArityMismatch("empty system")
    n, fld = system[0].n, system[0].field
    p = fld.p
    for f in system:
        if f.n != n or f.field != fld:
            raise ArityMismatch("system members disagree on arity or field")
    tables = [weight_values(f) for f in system]
    for w in range(n + 1):
        if all(t[w].is_zero() for t in tables):
            raise SatisfiableSystem(f"common zero at Hamming weight {w}")
    r = num_compressed_vars(n, p)
    compressed = [_compress(f) for f in system]
    m = len(system)
    q_polys = [qt_poly(t, r, p, fld) for t in range(n + 1, p ** r)]
    axioms_y = [c.poly for c in compressed] + q_polys
    multipliers = _solve_multipliers(axioms_y, _monomial_basis(r, r * (p - 1), p - 1),
                                     lambda d: fermat_exponent(d, p))
    if multipliers is None:
        return NoCertificateAtDegree(p - 1, "low-variate solve failed at individual degree p-1")
    # Fermat-side quotients certify the exact low-variate identity.
    H = sum_of_products(r, fld, zip(multipliers, axioms_y))
    fermat = divide_by_axioms(H - Poly.one(r, fld), "fermat")
    if not fermat.remainder.is_zero():
        raise AssertionError("low-variate certificate failed to reduce to 1")
    # Lift: A_i is the multilinear symmetric polynomial whose weight values
    # are A~_i evaluated at e-hat's weight values.
    ehat_values = [
        [binom_elem(w, p ** i, fld) for i in range(r)] for w in range(n + 1)
    ]
    lifted = [ElemSymExpansion.from_weight_values([mult.eval(e) for e in ehat_values], fld)
              for mult in multipliers[:m]]
    A = [e.to_poly() for e in lifted]
    B = _symmetric_boolean_side(lifted, [c.source for c in compressed])
    low_variate = {
        "A": [format_poly(mu, default_names(r, "y")) for mu in multipliers[:m]],
        "S": [format_poly(mu, default_names(r, "y")) for mu in multipliers[m:]],
        "B_fermat": [format_poly(g, default_names(r, "y")) for g in fermat.quotients],
    }
    return Certificate(
        A, B,
        {"constructor": "symmetric_pipeline", "p": p, "n": n, "r": r, "m": m,
         "low_variate": low_variate},
    )


# ---------------------------------------------------------------------------
# serialization

def tower_to_dict(tower: FieldTower) -> dict:
    return {
        "base": tower.base.text(),
        "ext": tower.ext.text(),
        "embed_table": [list(row) for row in tower.embed_table],
    }


def tower_from_dict(data) -> FieldTower:
    """The tower of a certificate or instance file; ParseError unless ext has
    degree 2k over the p of base and embed_table is an embedding: row i is
    theta^i for theta = row 1, and the base modulus vanishes at theta (for
    k = 1 the table is the single row 1)."""
    if not isinstance(data, dict) or not all(
            isinstance(data.get(key), str) for key in ("base", "ext")):
        raise ParseError("a tower is an object with 'base' and 'ext' field strings")
    base, ext = parse_field_spec(data["base"]), parse_field_spec(data["ext"])
    if ext.p != base.p or ext.k != 2 * base.k:
        raise ParseError(f"{ext.text()} is not the degree-2 extension of {base.text()}")
    table = data.get("embed_table")
    if not (isinstance(table, list) and len(table) == base.k and all(
            isinstance(row, list) and len(row) == ext.k
            and all(type(c) is int and 0 <= c < ext.p for c in row)
            for row in table)):
        raise ParseError(f"'embed_table' must be {base.k} rows of {ext.k} "
                         f"coefficients in 0..{ext.p - 1}")
    rows = [ext.from_coeffs(row) for row in table]
    theta = rows[1] if base.k > 1 else ext.zero()
    if rows != [theta ** i for i in range(base.k)]:
        raise ParseError("'embed_table' rows are not the powers of the image of t")
    if base.k > 1 and not sum((theta ** j * ext.from_int(c)
                               for j, c in enumerate(base.modulus)), ext.zero()).is_zero():
        raise ParseError("the base modulus does not vanish at the image of t")
    return FieldTower(base, ext, tuple(tuple(row) for row in table))


def certificate_to_dict(instance: Instance, cert: Certificate) -> dict:
    names = instance.var_names
    out = {
        "field": instance.field.text(),
        "n": instance.n,
        "var_names": list(names),
        "meta": instance.meta,
        "instance": [format_poly(f, names) for f in instance.axioms],
        "A": [format_poly(a, names) for a in cert.A],
        "B": [format_poly(b, names) for b in cert.B],
        "provenance": cert.provenance,
        "stats": cert_stats(cert).to_dict(),
    }
    if instance.tower is not None:
        out["tower"] = tower_to_dict(instance.tower)
    return out


def certificate_from_dict(data: dict) -> tuple[Instance, Certificate]:
    """The instance and certificate of a certificate file's JSON; ParseError
    unless data has the keys and JSON types of one."""
    if not isinstance(data, dict):
        raise ParseError(f"a certificate is a JSON object, not {type(data).__name__}")
    n = data.get("n")
    if type(n) is not int or n < 0:
        raise ParseError(f"certificate 'n' must be a non-negative integer, got {n!r}")
    if not isinstance(data.get("field"), str):
        raise ParseError("certificate 'field' must be a string")
    for key in ("var_names", "instance", "A", "B"):
        value = data.get(key)
        if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
            raise ParseError(f"certificate {key!r} must be a list of strings")
    if len(data["var_names"]) != n:
        raise ParseError(f"certificate declares {len(data['var_names'])} names for n = {n}")
    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict):
        raise ParseError("certificate 'provenance' must be a JSON object")
    if not isinstance(provenance.get("constructor", ""), str):
        raise ParseError("certificate 'provenance.constructor' must be a string")
    fld = parse_field_spec(data["field"])
    names = tuple(data["var_names"])
    tower = None
    if "tower" in data:
        tower = tower_from_dict(data["tower"])
        if tower.ext != fld:
            raise FieldMismatch("tower extension differs from certificate field")

    def parse_list(key):
        out = []
        for i, text in enumerate(data[key]):
            try:
                out.append(parse_poly(text, n, fld, names))
            except ParseError as exc:  # name the entry; line and column stay
                exc.args = (f"{key}[{i}]: {exc}",)
                raise
        return out

    instance = Instance(n, fld, parse_list("instance"), data.get("meta", "generic"),
                        tower, names)
    cert = Certificate(parse_list("A"), parse_list("B"), provenance)
    return instance, cert
