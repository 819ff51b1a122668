import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ipsforge import exactla, gf, generators
from ipsforge.certificates import (
    _boolean_side,
    _monomial_basis,
    _solve_multipliers,
    _symmetric_boolean_side,
    Certificate,
    Instance,
    NoCertificateAtDegree,
    boolean_axiom,
    cert_stats,
    certificate_from_dict,
    certificate_to_dict,
    expand_monomial_axiom,
    is_unsat_on_cube,
    minimum_certificate_degree,
    ml_power_q_minus_2,
    refute_linear_frobenius,
    refute_linear_lowdegree,
    refute_sparse,
    refute_symmetric_system,
    solve_nullstellensatz,
    tower_from_dict,
    tower_to_dict,
    verify,
    weight_values,
)
from ipsforge.errors import (
    ArityMismatch,
    BetaInSubfield,
    NotLinear,
    OutOfRange,
    ParseError,
    SatisfiableInstance,
    SatisfiableSystem,
)
from ipsforge.gf import FieldElem
from ipsforge.lowerbounds import ml_inverse, ml_reciprocal
from ipsforge.mvpoly import Poly, collect, fermat_exponent, ml, substitute_monomials
from ipsforge.symfun import ElemSymExpansion, elem_sym, sym_to_elem_basis

from conftest import eval_cube_point, from_coeffs, rand_poly


def linear_poly(n, fld, alphas, beta):
    terms = {tuple(1 if v == i else 0 for v in range(n)): a
             for i, a in enumerate(alphas) if not a.is_zero()}
    return Poly(n, fld, terms) + Poly.const(n, fld, -beta)


def frobenius_chain(L, tower):
    """Independent oracle for the Frobenius chain behind
    refute_linear_frobenius: yield (j, L_j, A_j, B_j-list) with
    L_j = A_j * L_0 + sum_i B_{j,i} (x_i^p - x_i) for j = 1..k, built one
    step at a time instead of in the constructor's unrolled form."""
    n, fld = L.n, L.field
    p, k = tower.p, tower.k
    alphas = [L.coeff(tuple(1 if v == i else 0 for v in range(n))) for i in range(n)]
    beta = -L.coeff((0,) * n)
    L_prev = linear_poly(n, fld, alphas, beta)
    assert L_prev == L, "the chain oracle takes a linear L"
    A = None
    B = [Poly.zero(n, fld) for _ in range(n)]
    for j in range(1, k + 1):
        step = L_prev ** (p - 1)
        A = step if A is None else A * step
        alphas = [a ** p for a in alphas]
        beta = beta ** p
        B = [b * step for b in B]
        for i, a in enumerate(alphas):
            if not a.is_zero():
                B[i] = B[i] - Poly.const(n, fld, a)
        L_prev = linear_poly(n, fld, alphas, beta)
        yield j, L_prev, A, list(B)


class TestVerify:
    def test_trivial_instance(self, f3):
        inst = Instance(2, f3, [Poly.one(2, f3)], "generic")
        cert = Certificate([Poly.one(2, f3)], [Poly.zero(2, f3)] * 2)
        assert verify(inst, cert).ok

    def test_perturbation_invalidates(self):
        tower = gf.field_tower(2, 2)
        rng = random.Random(1)
        inst = generators.linear_shifted(tower, 3, rng)
        cert = refute_linear_frobenius(inst.axioms[0], tower)
        assert verify(inst, cert).ok
        for which, idx in (("A", 0), ("B", 1)):
            polys = list(getattr(cert, which))
            polys[idx] = polys[idx] + Poly.one(3, tower.ext)
            bad = Certificate(polys if which == "A" else cert.A,
                              polys if which == "B" else cert.B,
                              cert.provenance)
            report = verify(inst, bad)
            assert not report.ok
            assert not report.residual.is_zero()

    def test_shape_mismatch(self, f3):
        inst = Instance(2, f3, [Poly.one(2, f3)], "generic")
        with pytest.raises(ArityMismatch):
            verify(inst, Certificate([], [Poly.zero(2, f3)] * 2))
        with pytest.raises(ArityMismatch):
            verify(inst, Certificate([Poly.one(2, f3)], []))


class TestIsUnsat:
    def test_beta_outside_base(self):
        tower = gf.field_tower(2, 1)
        ext = tower.ext
        t = ext.gen()
        L = linear_poly(2, ext, [ext.one(), ext.one()], t)
        assert is_unsat_on_cube(L)

    def test_satisfiable_over_f2(self, f2):
        L = Poly.var(2, f2, 0) + Poly.var(2, f2, 1)
        assert not is_unsat_on_cube(L)

    def test_f4_reachable_sums(self):
        f4 = gf.field_spec(2, 2)
        t = f4.gen()
        L = linear_poly(2, f4, [f4.one(), f4.one()], t)
        assert is_unsat_on_cube(L)  # sums {0,1} miss t
        L2 = linear_poly(2, f4, [f4.one(), t], t)
        assert not is_unsat_on_cube(L2)

    def test_not_linear(self, f3):
        with pytest.raises(NotLinear):
            is_unsat_on_cube(Poly.var(2, f3, 0, 2))


class TestFrobenius:
    def test_worked_example_f4(self):
        tower = gf.field_tower(2, 1)
        ext = tower.ext
        t = ext.gen()
        L = Poly.var(1, ext, 0) + Poly.const(1, ext, t)  # beta = -t = t
        cert = refute_linear_frobenius(L, tower)
        assert cert.A[0] == Poly.var(1, ext, 0) + Poly.const(1, ext, t + ext.one())
        assert cert.B[0] == Poly.one(1, ext)
        assert verify(Instance(1, ext, [L], "linear", tower), cert).ok

    def test_chain_invariant(self):
        rng = random.Random(3)
        for p, k, n in [(2, 3, 3), (3, 2, 2), (5, 2, 2)]:
            tower = gf.field_tower(p, k)
            inst = generators.linear_shifted(tower, n, rng)
            L = inst.axioms[0]
            for j, L_j, A_j, B_j in frobenius_chain(L, tower):
                acc = A_j * L
                for i, b in enumerate(B_j):
                    fermat = Poly.var(n, tower.ext, i, p) - Poly.var(n, tower.ext, i)
                    acc = acc + b * fermat
                assert acc == L_j

    def test_small_sweep(self):
        rng = random.Random(4)
        for p, k in itertools.product((2, 3), (1, 2)):
            tower = gf.field_tower(p, k)
            for n in (1, 3, 5):
                inst = generators.linear_shifted(tower, n, rng)
                cert = refute_linear_frobenius(inst.axioms[0], tower)
                assert verify(inst, cert).ok
                assert cert.A[0].degree() <= k * p

    def test_beta_in_subfield_rejected(self):
        tower = gf.field_tower(2, 2)
        ext = tower.ext
        beta = tower.embed(tower.base.gen())
        L = linear_poly(2, ext, [ext.one(), ext.one()], beta)
        with pytest.raises(BetaInSubfield):
            refute_linear_frobenius(L, tower)

    def test_nonlinear_rejected(self):
        tower = gf.field_tower(2, 2)
        with pytest.raises(NotLinear):
            refute_linear_frobenius(Poly.var(2, tower.ext, 0, 2), tower)


class TestLowDegree:
    def test_worked_example_f4(self):
        f4 = gf.field_spec(2, 2)
        t = f4.gen()
        L = linear_poly(2, f4, [f4.one(), f4.one()], t)
        A = ml_power_q_minus_2(L)
        assert A == linear_poly(2, f4, [f4.one(), f4.one()], -(t * t))
        assert A.degree() == 1 <= 2 * (2 - 1)
        for mask in range(4):
            assert (eval_cube_point(A, mask) * eval_cube_point(L, mask)) == f4.one()
        cert = refute_linear_lowdegree(L)
        assert verify(Instance(2, f4, [L], "linear"), cert).ok

    def test_no_unsat_instance_over_f2(self, f2):
        # reachable sums cover F_2 for any nonzero alpha; the satisfiable
        # instance is rejected
        L = Poly.var(1, f2, 0)
        with pytest.raises(SatisfiableInstance):
            refute_linear_lowdegree(L)

    def test_random_sweep_f9(self, f9):
        rng = random.Random(5)
        for _ in range(10):
            inst = generators.linear_base(f9, 4, rng)
            cert = refute_linear_lowdegree(inst.axioms[0])
            assert cert.A[0].degree() <= 2 * 2
            assert verify(inst, cert).ok

    def test_degree_bound_sweep(self):
        rng = random.Random(6)
        for p, k in [(2, 2), (2, 3), (3, 1), (3, 2)]:
            fld = gf.field_spec(p, k)
            for n in (2, 4, 6):
                inst = generators.linear_base(fld, n, rng)
                cert = refute_linear_lowdegree(inst.axioms[0])
                assert max(cert.A[0].degree(), 0) <= k * (p - 1)
                assert verify(inst, cert).ok


    @pytest.mark.parametrize("pk", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)],
                             ids=lambda pk: f"GF({pk[0]}^{pk[1]})")
    def test_power_matches_digit_loop(self, pk):
        """ml_power_q_minus_2 on its closed-form digits and conjugate list
        against the loop that computed the p-ary digits of q - 2."""
        def reference(L):
            fld = L.field
            p = fld.p
            alphas, beta = [fld.zero()] * L.n, fld.zero()
            for exp, c in L.items():
                if sum(exp) == 0:
                    beta = -c
                else:
                    alphas[exp.index(1)] = c
            digits, e = [], fld.order - 2
            for _ in range(fld.k):
                digits.append(e % p)
                e //= p
            acc = Poly.one(L.n, fld)
            for j, m_j in enumerate(digits):
                if j > 0:
                    alphas = [a ** p for a in alphas]
                    beta = beta ** p
                if m_j == 0:
                    continue
                L_j = linear_poly(L.n, fld, alphas, beta)
                for _ in range(m_j):
                    acc = ml(acc * L_j)
            return acc

        fld, rng = gf.field_spec(*pk), random.Random(11)
        for n in range(8):
            for _ in range(2):
                L = linear_poly(n, fld, [fld.sample(rng) for _ in range(n)], fld.sample(rng))
                assert ml_power_q_minus_2(L) == reference(L)


class TestSparse:
    @pytest.mark.parametrize("outside", ["coefficient", "beta"])
    def test_subfield_violations_rejected(self, outside):
        """The flattened Frobenius chain refuses a support coefficient
        outside the base field, and a beta inside it."""
        tower = gf.field_tower(3, 2)
        ext, rng = tower.ext, random.Random(4)
        inside, shifted = tower.embed(tower.base.gen()), tower.sample_beta(rng)
        alpha, beta = (shifted, shifted) if outside == "coefficient" else (inside, inside)
        f = Poly.monomial(3, ext, (1, 2, 0), alpha) + Poly.var(3, ext, 2) - Poly.const(3, ext, beta)
        with pytest.raises(BetaInSubfield):
            refute_sparse(f, tower)

    def test_single_monomial_degrades_to_linear(self):
        tower = gf.field_tower(2, 2)
        ext = tower.ext
        beta = tower.sample_beta(random.Random(7))
        f = Poly.monomial(3, ext, (1, 1, 1), ext.one()) + Poly.const(3, ext, -beta)
        cert = refute_sparse(f, tower)
        assert verify(Instance(3, ext, [f], "sparse-shifted", tower), cert).ok

    def test_monomial_axiom_expansion(self, f9):
        mu = (1, 1)
        E = expand_monomial_axiom(mu, 2, f9)
        x_mu = Poly.monomial(2, f9, mu, f9.one())
        lhs = x_mu * x_mu - x_mu
        rhs = Poly.zero(2, f9)
        for j, e in enumerate(E):
            rhs = rhs + e * boolean_axiom(2, f9, j)
        assert lhs == rhs

    def test_monomial_axiom_random(self, f3, rng):
        for _ in range(15):
            mu = tuple(rng.randrange(4) for _ in range(4))
            E = expand_monomial_axiom(mu, 4, f3)
            x_mu = Poly.monomial(4, f3, mu, f3.one())
            residual = x_mu * x_mu - x_mu
            for j, e in enumerate(E):
                residual = residual - e * boolean_axiom(4, f3, j)
            assert residual.is_zero()

    def test_quadratic_lifted_instance(self):
        tower = gf.field_tower(2, 3)
        rng = random.Random(8)
        inst = generators.sparse_quadratic(tower, 4, rng)
        cert = refute_sparse(inst.axioms[0], tower)
        report = verify(inst, cert)
        assert report.ok
        assert cert.provenance["constructor"] == "sparse_lift"


def reference_substitute_monomials(poly_y, monomials, n, fld):
    """Plug x^{mu_i} in for y_i through exponent tuples: the tuple loop the
    packed key map replaced."""
    pieces = []
    for e, c in poly_y.items():
        new = [0] * n
        for idx, d in enumerate(e):
            if d:
                mu = monomials[idx]
                for v in range(n):
                    new[v] += d * mu[v]
        pieces.append((tuple(new), c.v))
    return collect(n, fld, pieces)


def geom_quotient(n, fld, j, m):
    """x_j^{m-2} + ... + x_j + 1 (zero for m <= 1)."""
    return Poly(n, fld, {tuple(d if v == j else 0 for v in range(n)): fld.one()
                         for d in range(m - 1)})


def reference_expand_monomial_axiom(mu, n, fld):
    """E_1..E_n of the monomial axiom built from Poly products, peeling the
    largest-index variable first."""
    E = [Poly.zero(n, fld) for _ in range(n)]
    mu = list(mu)
    prefix = Poly.one(n, fld)
    while True:
        support = [j for j in range(n) if mu[j] > 0]
        if not support:
            return E
        t = support[-1]
        nu = list(mu)
        nu[t] = 0
        x_nu = Poly.monomial(n, fld, tuple(nu), fld.one())
        x_nu2 = Poly.monomial(n, fld, tuple(2 * v for v in nu), fld.one())
        e_t = geom_quotient(n, fld, t, 2 * mu[t]) * x_nu2 - geom_quotient(n, fld, t, mu[t]) * x_nu
        E[t] = prefix * e_t
        prefix = prefix * Poly.var(n, fld, t)
        mu = nu


LIFT_FIELDS = [gf.field_spec(2, 1), gf.field_spec(3, 2), gf.field_spec(5, 3),
               gf.field_spec(257, 1)]


@st.composite
def substitutions(draw):
    """(f, n, monomials): f zero, constant or random in s <= 4 variables,
    and s monomials in n <= 6 variables with entries up to 300, past
    one-byte key slots."""
    fld = draw(st.sampled_from(LIFT_FIELDS))
    s, n = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    elems = st.integers(0, fld.order - 1).map(fld.from_encoding)
    kind = draw(st.sampled_from(["zero", "constant", "random"]))
    if kind == "zero":
        f = Poly.zero(s, fld)
    elif kind == "constant":
        f = Poly.const(s, fld, draw(elems))
    else:
        exps = st.tuples(*[st.integers(0, 3)] * s)
        f = Poly(s, fld, draw(st.dictionaries(exps, elems, max_size=8)))
    monomials = draw(st.lists(st.tuples(*[st.integers(0, 300)] * n), min_size=s, max_size=s))
    return f, n, monomials


class TestLiftReferences:
    """The packed monomial substitution and the product-free monomial-axiom
    expansion equal the tuple and product builds they replaced."""

    @settings(max_examples=200, deadline=None)
    @given(substitutions())
    def test_substitute_monomials_matches_tuple_loop(self, case):
        f, n, monomials = case
        assert substitute_monomials(f, n, monomials) == \
            reference_substitute_monomials(f, monomials, n, f.field)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LIFT_FIELDS), st.lists(st.integers(0, 4), max_size=6))
    def test_expand_monomial_axiom_matches_products(self, fld, mu):
        mu = tuple(mu)
        assert expand_monomial_axiom(mu, len(mu), fld) == \
            reference_expand_monomial_axiom(mu, len(mu), fld)

    def test_wide_constant_substitution(self, f9):
        """A constant f keeps one-byte keys even where a monomial needs two."""
        c = Poly.const(2, f9, f9.from_encoding(5))
        assert substitute_monomials(c, 3, [(300, 0, 1), (0, 2, 0)]) == \
            Poly.const(3, f9, f9.from_encoding(5))


def linear_coefficients(f):
    """(alphas, beta) of f = sum alpha_i x_i - beta."""
    n = f.n
    return [f.coeff(tuple(int(v == i) for v in range(n))) for i in range(n)], -f.coeff((0,) * n)


class TestFunctionalMethod:
    """A certificate's A agrees with 1/f on the cube, so ml(A) is the
    multilinear inverse: ml_reciprocal(f), and ml_inverse of the
    coefficients for a linear f."""

    @pytest.mark.parametrize("p, k", [(2, 6), (3, 4), (2, 12)])
    @pytest.mark.parametrize("constructor", ["linear_frobenius", "sparse_lift", "linear_lowdegree"])
    def test_ml_of_A_is_the_multilinear_inverse(self, constructor, p, k):
        tower, rng = gf.field_tower(p, k), random.Random(5)
        if constructor == "linear_frobenius":
            f = generators.linear_shifted(tower, 4, rng).axioms[0]
            cert = refute_linear_frobenius(f, tower)
        elif constructor == "sparse_lift":
            f = generators.sparse_quadratic(tower, 3, rng).axioms[0]
            cert = refute_sparse(f, tower)
        else:
            f = generators.linear_base(tower.base, 5, rng).axioms[0]
            cert = refute_linear_lowdegree(f)
        assert cert.provenance["constructor"] == constructor
        g = ml(cert.A[0])
        assert g == ml_reciprocal(f)
        if constructor != "sparse_lift":
            assert g == ml_inverse(*linear_coefficients(f))


class TestNullstellensatzSolver:
    def test_two_point_axioms(self, f2):
        axioms = [Poly.var(1, f2, 0), Poly.var(1, f2, 0) - Poly.one(1, f2)]
        cert = solve_nullstellensatz(axioms, 0)
        assert isinstance(cert, Certificate)
        acc = Poly.zero(1, f2)
        for a, f in zip(cert.A, axioms):
            acc = acc + a * f
        assert acc == Poly.one(1, f2)

    def test_unit_axiom(self, f2):
        cert = solve_nullstellensatz([Poly.one(1, f2)], 0)
        assert isinstance(cert, Certificate)
        assert cert.A[0] == Poly.one(1, f2)

    def test_no_certificate_is_a_value(self, f3):
        res = solve_nullstellensatz([Poly.var(1, f3, 0)], 2, include_boolean=True)
        assert isinstance(res, NoCertificateAtDegree)
        assert res.detail == "constant row missing"

    def test_infeasible_with_constant_row_has_no_detail(self, f3):
        # A * (x1^2 - 1) = 1 has no solution, though the constant row exists
        res = solve_nullstellensatz([Poly.var(1, f3, 0, 2) - Poly.one(1, f3)], 1)
        assert isinstance(res, NoCertificateAtDegree)
        assert (res.degree_bound, res.detail) == (1, "")

    def test_monotone_in_bound(self, f9):
        rng = random.Random(9)
        inst = generators.linear_base(f9, 3, rng)
        found = minimum_certificate_degree(inst.axioms, 5)
        assert found is not None
        d_min, _ = found
        for d in range(d_min, 5):
            res = solve_nullstellensatz(inst.axioms, d, include_boolean=True)
            assert isinstance(res, Certificate)
            assert verify(inst, res).ok

    def test_minimum_matches_lowdegree(self, f9):
        rng = random.Random(10)
        for n in (2, 3, 4):
            inst = generators.linear_base(f9, n, rng)
            direct = refute_linear_lowdegree(inst.axioms[0])
            found = minimum_certificate_degree(inst.axioms, 5)
            assert found is not None
            assert found[0] == max(direct.A[0].degree(), 0)


def reference_solve_multipliers(axioms, basis, reduce=None):
    """(rows, matrix, multipliers) of the Nullstellensatz solve with every
    column built through exponent tuples and collect: column (i, mono) is
    x^mono * g_i with each exponent sum passed through reduce, and the rows
    are the distinct monomials in grlex order."""
    n, fld = axioms[0].n, axioms[0].field
    reduce = reduce or (lambda d: d)
    columns = [collect(n, fld, [(tuple(reduce(a + b) for a, b in zip(e, mono)), c.v)
                                for e, c in g.items()])
               for g in axioms for mono in basis]
    rows = sorted({e for col in columns for e in col.exponents()}, key=lambda e: (sum(e), e))
    matrix = [[col.coeff(e).v for col in columns] for e in rows]
    if not rows or any(rows[0]):
        return rows, matrix, None
    solution = exactla.solve(matrix, [1] + [0] * (len(rows) - 1), fld)
    if solution is None:
        return rows, matrix, None
    size = len(basis)
    return rows, matrix, [Poly(n, fld, {mono: FieldElem(fld, c) for mono, c in
                                        zip(basis, solution[i * size:(i + 1) * size]) if c})
                          for i in range(len(axioms))]


def fermat(p):
    return lambda d: fermat_exponent(d, p)


def multiplier_cases():
    """(name, axioms, basis, reduce): random low-variate systems under the
    Fermat map and under the identity; exponent sums past one-byte key
    slots; and columns where terms meet after the Fermat map and cancel."""
    f3, f5, f9 = gf.field_spec(3, 1), gf.field_spec(5, 1), gf.field_spec(3, 2)
    rng = random.Random(19)
    cases = []
    for fld, r in [(f3, 2), (f5, 2), (f3, 3), (f9, 2)]:
        p = fld.p
        for i in range(3):
            axioms = [rand_poly(r, fld, rng, nterms=5, maxdeg=2 * p) for _ in range(3)]
            axioms.append(Poly.one(r, fld) + rand_poly(r, fld, rng, nterms=3, maxdeg=p - 1))
            cases.append((f"fermat-p{p}k{fld.k}r{r}-{i}", axioms,
                          _monomial_basis(r, r * (p - 1), p - 1), fermat(p)))
            cases.append((f"identity-p{p}k{fld.k}r{r}-{i}", axioms[-2:],
                          _monomial_basis(r, 2, None), None))
    for fld, n in [(f3, 2), (f3, 3), (f9, 3), (f5, 2)]:  # solve_nullstellensatz's columns
        inst = generators.linear_base(fld, n, rng)
        axioms = inst.axioms + [boolean_axiom(n, fld, j) for j in range(n)]
        cases.append((f"boolean-p{fld.p}k{fld.k}n{n}", axioms, _monomial_basis(n, n, None), None))
    x1, x2, one = Poly.var(2, f3, 0), Poly.var(2, f3, 1), Poly.one(2, f3)
    wide = [Poly.var(2, f3, 0, 130) + x2 * x2, x1 + one, Poly.var(2, f3, 1, 140) - x1 + one]
    cases.append(("two-byte-identity", wide, _monomial_basis(2, 2, None) + [(127, 0)], None))
    cases.append(("two-byte-fermat", wide, _monomial_basis(2, 4, 2) + [(128, 1)], fermat(3)))
    # under y^3 = y, y1^3 - y1 vanishes and y1^3 + 2 y1 + y2 keeps only y2
    cancel = [x1 ** 3 - x1, x1 ** 3 + x1 + x1 + x2, x1 * x1 + one]
    cases.append(("fermat-cancel", cancel, _monomial_basis(2, 4, 2), fermat(3)))
    return cases


class TestMultiplierColumns:
    """_solve_multipliers builds its columns on packed keys; the matrix it
    hands to exactla.solve and the multipliers it returns equal those of the
    tuple-and-collect build."""

    @pytest.mark.parametrize("case", multiplier_cases(), ids=lambda c: c[0])
    def test_same_matrix_and_multipliers_as_tuple_build(self, case):
        _, axioms, basis, reduce = case
        rows, matrix, want = reference_solve_multipliers(axioms, basis, reduce)
        with mock.patch.object(exactla, "solve", wraps=exactla.solve) as solve:
            got = _solve_multipliers(axioms, basis, reduce)
        assert got == want
        assert solve.called == (bool(rows) and not any(rows[0]))  # a constant row to solve for
        if solve.called:
            assert solve.call_args.args[0] == matrix

    def test_cases_meet_wide_keys_and_cancellation(self):
        cases = {name: (axioms, basis, reduce) for name, axioms, basis, reduce
                 in multiplier_cases()}
        axioms, basis, _ = cases["two-byte-identity"]
        assert max(map(max, basis + [e for g in axioms for e in g.exponents()])) >= 128
        _, matrix, found = reference_solve_multipliers(*cases["fermat-cancel"])
        size = len(cases["fermat-cancel"][1])
        assert not any(row[c] for row in matrix for c in range(size))  # y1^3 - y1
        assert [sum(1 for row in matrix if row[c]) for c in range(size, 2 * size)] == [1] * size
        assert found is not None


class TestSymmetric:
    def test_complementary_pair(self, f2):
        f1 = elem_sym(3, 1, f2)
        f2_ = elem_sym(3, 1, f2) + Poly.one(3, f2)
        cert = refute_symmetric_system([f1, f2_])
        assert isinstance(cert, Certificate)
        inst = Instance(3, f2, [f1, f2_], "symmetric-system")
        assert verify(inst, cert).ok

    def test_f3_worked_example(self, f3):
        f = elem_sym(2, 1, f3) + elem_sym(2, 2, f3) + Poly.one(2, f3)
        assert [v.coeffs[0] for v in weight_values(f)] == [1, 2, 1]
        cert = refute_symmetric_system([f])
        assert isinstance(cert, Certificate)
        assert verify(Instance(2, f3, [f], "symmetric-system"), cert).ok

    def test_satisfiable_rejected(self, f2):
        with pytest.raises(SatisfiableSystem):
            refute_symmetric_system([elem_sym(4, 1, f2)])

    @pytest.mark.parametrize("p,n,m", [(2, 5, 2), (3, 4, 1), (2, 8, 3), (3, 7, 2)])
    def test_random_systems(self, p, n, m):
        fld = gf.field_spec(p, 1)
        rng = random.Random(100 * p + 10 * n + m)
        inst = generators.symmetric_system(fld, n, m, rng)
        cert = refute_symmetric_system(inst.axioms)
        assert isinstance(cert, Certificate)
        assert verify(inst, cert).ok

    def test_extension_field_coefficients(self, f4):
        # the pipeline also works with coefficients outside the prime field
        rng = random.Random(12)
        inst = generators.symmetric_system(f4, 4, 2, rng)
        cert = refute_symmetric_system(inst.axioms)
        assert isinstance(cert, Certificate)
        assert verify(inst, cert).ok

    @pytest.mark.parametrize("pk", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (5, 2)],
                             ids=lambda pk: f"GF({pk[0]}^{pk[1]})")
    def test_table_boolean_side_matches_division(self, pk):
        """The B side from class tables equals the quotients of dividing
        sum A_i f_i by the Boolean axioms, for n = 0..8, m <= 3 and three
        seeds, with random symmetric A_i whose weight values make
        sum A_i f_i = 1 on the cube. With seed 0, an A_i with one weight
        value changed, at a weight where f_i is nonzero, fails on both paths."""
        fld = gf.field_spec(*pk)
        for n, m, seed in itertools.product(range(9), (1, 2, 3), range(3)):
            rng = random.Random(seed)
            inst = generators.symmetric_system(fld, n, m, rng)
            fvalues = [weight_values(g) for g in inst.axioms]
            values = [[fld.sample(rng) for _ in range(n + 1)] for _ in range(m)]
            for w in range(n + 1):  # solve for A_i(w) at the first i with f_i(w) != 0
                i = next(i for i in range(m) if not fvalues[i][w].is_zero())
                rest = sum((values[j][w] * fvalues[j][w] for j in range(m) if j != i), fld.zero())
                values[i][w] = (fld.one() - rest) / fvalues[i][w]
            lifted = [ElemSymExpansion.from_weight_values(v, fld) for v in values]
            f = [sym_to_elem_basis(g) for g in inst.axioms]
            A = [e.to_poly() for e in lifted]
            assert _symmetric_boolean_side(lifted, f) == _boolean_side(A, inst.axioms)
            if seed:
                continue
            w = rng.randrange(n + 1)
            i = next(i for i in range(m) if not fvalues[i][w].is_zero())
            values[i][w] = values[i][w] + fld.from_encoding(rng.randrange(1, fld.order))
            lifted[i] = ElemSymExpansion.from_weight_values(values[i], fld)
            A[i] = lifted[i].to_poly()
            with pytest.raises(AssertionError):
                _boolean_side(A, inst.axioms)
            with pytest.raises(AssertionError):
                _symmetric_boolean_side(lifted, f)

    @pytest.mark.parametrize("m", [0, -1])
    def test_generator_needs_a_polynomial(self, f4, m):
        with pytest.raises(OutOfRange):
            generators.symmetric_system(f4, 4, m, random.Random(0))


class TestStatsAndSerialization:
    def test_zero_certificate_stats(self, f3):
        cert = Certificate([Poly.one(2, f3)], [Poly.zero(2, f3)] * 2,
                           {"constructor": "nullstellensatz"})
        stats = cert_stats(cert)
        assert stats.max_degree == 0
        assert stats.modeled_depth == 2

    def test_frobenius_stats_degree_bound(self):
        tower = gf.field_tower(2, 3)
        rng = random.Random(13)
        inst = generators.linear_shifted(tower, 4, rng)
        cert = refute_linear_frobenius(inst.axioms[0], tower)
        stats = cert_stats(cert)
        assert stats.max_degree <= 6
        assert stats.modeled_depth == 3

    def test_roundtrip_stable(self):
        tower = gf.field_tower(2, 2)
        rng = random.Random(14)
        inst = generators.linear_shifted(tower, 3, rng)
        cert = refute_linear_frobenius(inst.axioms[0], tower)
        blob = certificate_to_dict(inst, cert)
        inst2, cert2 = certificate_from_dict(blob)
        assert verify(inst2, cert2).ok
        blob2 = certificate_to_dict(inst2, cert2)
        assert blob == blob2

    def test_sparse_roundtrip_with_names(self):
        tower = gf.field_tower(2, 2)
        rng = random.Random(15)
        inst = generators.sparse_quadratic(tower, 3, rng)
        cert = refute_sparse(inst.axioms[0], tower)
        blob = certificate_to_dict(inst, cert)
        assert blob["var_names"][:3] == ["x1", "x2", "x3"]
        assert blob["var_names"][3] == "z1"
        inst2, cert2 = certificate_from_dict(blob)
        assert verify(inst2, cert2).ok


class TestTowerSerialization:
    @pytest.mark.parametrize("p, k", [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2)])
    def test_round_trip(self, p, k):
        tower = gf.field_tower(p, k)
        assert tower_from_dict(tower_to_dict(tower)) == tower

    def test_any_root_of_the_base_modulus_is_an_embedding(self):
        tower = gf.field_tower(2, 3)
        theta = from_coeffs(tower.ext, tower.embed_table[1]) ** 2  # a conjugate root
        data = tower_to_dict(tower)
        data["embed_table"] = [list((theta ** i).coeffs) for i in range(3)]
        assert tower_from_dict(data).embed_table[1] == theta.coeffs

    @pytest.mark.parametrize("mutate", [
        lambda d: {**d, "ext": gf.field_spec(2, 6).text()},
        lambda d: {**d, "ext": gf.field_spec(3, 4).text()},
        lambda d: {**d, "embed_table": d["embed_table"][:1]},
        lambda d: {**d, "embed_table": [d["embed_table"][1], d["embed_table"][0]]},
        lambda d: {**d, "embed_table": [[True, 0, 0, 0], d["embed_table"][1]]},
    ], ids=["ext-degree", "ext-char", "short-table", "row-0-not-1", "bool-entry"])
    def test_rejects(self, mutate):
        with pytest.raises(ParseError):
            tower_from_dict(mutate(tower_to_dict(gf.field_tower(2, 2))))
