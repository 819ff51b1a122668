import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from ipsforge import gf
from ipsforge.errors import ArityMismatch, LevelMismatch, ParseError, ZeroPolynomial
from ipsforge.mvpoly import (
    Poly,
    collect,
    cube_table,
    default_names,
    divide_by_axioms,
    fermat_exponent,
    format_poly,
    interpolate_table,
    leading_monomial,
    linear_poly,
    ml,
    ml_partial,
    parse_poly,
    substitute_monomials,
)

from conftest import (eval_cube_point, from_coeffs, individual_degree, rand_poly, restricted,
                      stored_cells)


class TestRingOps:
    def test_char2_square_kills_cross_terms(self, f2):
        f = Poly.var(2, f2, 0) + Poly.var(2, f2, 1)
        assert f * f == Poly.var(2, f2, 0, 2) + Poly.var(2, f2, 1, 2)

    def test_eval_direct_substitution(self, f3):
        g = Poly.monomial(2, f3, (1, 1), f3.one()) + Poly.one(2, f3)
        assert g.eval([f3.one(), f3.one()]) == f3.from_int(2)

    def test_mul_by_zero(self, f3):
        g = rand_poly(3, f3, random.Random(0))
        assert (g * Poly.zero(3, f3)).is_zero()

    def test_arity_mismatch(self, f2, f3):
        with pytest.raises(ArityMismatch):
            Poly.one(2, f2) + Poly.one(3, f2)
        with pytest.raises(ArityMismatch):
            Poly.one(2, f2) * Poly.one(2, f3)

    def test_distributivity_random(self, f9, rng):
        for _ in range(30):
            a, b, c = (rand_poly(3, f9, rng, 4, 2) for _ in range(3))
            assert a * (b + c) == a * b + a * c


class TestSubstitute:
    def test_lifted_instance_partition_restriction(self, f9):
        # n=2 any-order instance with unit coefficients: substituting the
        # balanced-partition assignment collapses it to u1 v1 + u2 v2 - beta
        from ipsforge.lowerbounds import lifted_instance

        tower = gf.field_tower(3, 2)
        rng = random.Random(4)
        inst = lifted_instance("any-order", 2, tower, rng)
        fld = tower.ext
        u, v = (0, 1), (2, 3)
        restricted_poly = restricted(inst, u, v)
        expect = Poly.const(inst.n_vars, fld, -inst.beta)
        for a, b in zip(u, v):
            e = [0] * inst.n_vars
            e[a] = e[b] = 1
            expect = expect + Poly.monomial(inst.n_vars, fld, tuple(e),
                                            inst.alphas[tuple(sorted((a, b)))])
        assert restricted_poly == expect
        # equality as cube functions as well
        for mask in range(1 << 4):
            full = mask  # x-variables only; z's already substituted
            assert eval_cube_point(restricted_poly, full) == eval_cube_point(expect, full)


    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_restrict_then_eval_is_eval(self, data):
        fld = data.draw(st.sampled_from(
            [gf.field_spec(2, 3), gf.field_spec(3, 2), gf.field_spec(5, 1), gf.field_spec(7, 3)]))
        n = data.draw(st.integers(1, 4))
        elems = st.one_of(st.just(fld.zero()), st.tuples(
            *[st.integers(0, fld.p - 1)] * fld.k).map(fld.from_coeffs))
        terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), elems,
                                          max_size=8))
        f = Poly(n, fld, terms)
        point = data.draw(st.lists(elems, min_size=n, max_size=n))
        subset = data.draw(st.sets(st.integers(0, n - 1)))
        # the reference: each term's coefficient times its factors, one by one
        expect = fld.zero()
        for e, c in f.items():
            for x, d in zip(point, e):
                c = c * x ** d
            expect = expect + c
        g = f.restrict({i: point[i] for i in subset})
        assert all(e[i] == 0 for e in g.exponents() for i in subset)
        assert g.eval(point) == f.eval(point) == expect

    def test_monomials_for_variables(self, f3):
        """(y1 + 2 y2^2 + 1) with x1 x2 for y1 and x2^2 x3 for y2: the terms
        x1 x2 and 2 x2^4 x3^2 and 1."""
        y1, y2, one = Poly.var(2, f3, 0), Poly.var(2, f3, 1), Poly.one(2, f3)
        got = substitute_monomials(y1 + y2 * y2 + y2 * y2 + one, 3, [(1, 1, 0), (0, 2, 1)])
        assert got == Poly(3, f3, {(1, 1, 0): f3.one(), (0, 4, 2): f3.from_int(2),
                                   (0, 0, 0): f3.one()})

    def test_merged_terms_cancel(self, f3):
        """y1 - y2 with the same monomial for both is zero."""
        f = Poly.var(2, f3, 0) - Poly.var(2, f3, 1)
        assert substitute_monomials(f, 2, [(1, 2), (1, 2)]).is_zero()

    def test_monomial_count_and_arity(self, f3):
        f = Poly.var(2, f3, 0)
        with pytest.raises(ArityMismatch):
            substitute_monomials(f, 2, [(1, 0)])
        with pytest.raises(ArityMismatch):
            substitute_monomials(f, 2, [(1, 0), (0, 1, 0)])


class TestConstantChecks:
    """A constant of another field or an index outside 0..n-1 is refused."""

    def test_other_field_of_the_same_characteristic(self, f9):
        f = parse_poly("x1^2 + x1 + 1", 1, f9)
        c = from_coeffs(gf.field_spec(5, 2), [4, 3])
        with pytest.raises(LevelMismatch):
            f.eval([c])
        with pytest.raises(LevelMismatch):
            f.restrict({0: c})
        with pytest.raises(LevelMismatch):
            f.scale(c)

    def test_other_extension_degree(self, f4):
        f = parse_poly("x1^2 + x1 + 1", 1, f4)
        c = gf.field_spec(2, 3).gen()
        with pytest.raises(LevelMismatch):
            f.restrict({0: c})
        with pytest.raises(LevelMismatch):
            f.eval([c])

    @pytest.mark.parametrize("i", [5, 2, -1])
    def test_index_out_of_range(self, f9, i):
        f = Poly.var(2, f9, 0) + Poly.var(2, f9, 1)
        with pytest.raises(ArityMismatch):
            f.restrict({i: f9.one()})

    @pytest.mark.parametrize("p,k,coeffs", [(5, 2, [4, 0]), (3, 4, [2, 1, 0, 1]), (3, 1, [2])],
                             ids=["GF(5^2)", "GF(3^4)", "GF(3)"])
    def test_constructors_refuse_other_fields(self, f9, p, k, coeffs):
        """The stored int of another field would be copied verbatim: GF(5^2)'s
        [4,0] is no element of GF(3^2), and GF(3^4)'s has slots past k."""
        c = from_coeffs(gf.field_spec(p, k), coeffs)
        with pytest.raises(LevelMismatch):
            Poly(2, f9, {(1, 0): c})
        with pytest.raises(LevelMismatch):
            Poly(2, f9, {(1, 0): f9.one(), (0, 1): c})
        with pytest.raises(LevelMismatch):
            Poly.const(2, f9, c)
        with pytest.raises(LevelMismatch):
            Poly.monomial(2, f9, (0, 1), c)
        with pytest.raises(LevelMismatch):
            linear_poly(f9, [f9.one(), c], f9.one())
        with pytest.raises(LevelMismatch):
            linear_poly(f9, [f9.one()], c)


class TestExponentVectors:
    """An exponent vector must have n entries, none of them negative."""

    @pytest.mark.parametrize("exp", [(1, 1, 1), (1,), ()])
    def test_wrong_length(self, f9, exp):
        with pytest.raises(ArityMismatch):
            Poly(2, f9, {exp: f9.one()})
        with pytest.raises(ArityMismatch):
            Poly(2, f9, {(0, 1): f9.one(), exp: f9.zero()})
        with pytest.raises(ArityMismatch):
            Poly.monomial(2, f9, exp, f9.one())
        with pytest.raises(ArityMismatch):
            (Poly.var(2, f9, 0) + Poly.one(2, f9)).coeff(exp)

    def test_negative_entry(self, f9):
        for build in (lambda: Poly(2, f9, {(1, -1): f9.one()}),
                      lambda: Poly.monomial(2, f9, (-2, 0), f9.one()),
                      lambda: Poly.var(2, f9, 0).coeff((-1, 0))):
            with pytest.raises(ValueError, match="negative"):
                build()


class TestMultilinearization:
    def test_partial_worked_example(self, f3):
        # x1^2 x2^3 + x2 x3^2, multilinearized in {x1, x2}
        f = Poly.monomial(3, f3, (2, 3, 0), f3.one()) \
            + Poly.monomial(3, f3, (0, 1, 2), f3.one())
        got = ml_partial(f, {0, 1})
        assert got == Poly.monomial(3, f3, (1, 1, 0), f3.one()) \
            + Poly.monomial(3, f3, (0, 1, 2), f3.one())
        # the single-variable flavors from the same example
        assert ml_partial(f, {0}) == Poly.monomial(3, f3, (1, 3, 0), f3.one()) \
            + Poly.monomial(3, f3, (0, 1, 2), f3.one())
        assert ml_partial(f, {1}) == Poly.monomial(3, f3, (2, 1, 0), f3.one()) \
            + Poly.monomial(3, f3, (0, 1, 2), f3.one())

    def test_ml_x_squared(self, f3):
        assert ml(Poly.var(1, f3, 0, 2)) == Poly.var(1, f3, 0)

    def test_idempotent_and_product_rule(self, f3, rng):
        for _ in range(100):
            f = rand_poly(5, f3, rng, 5, 3)
            g = rand_poly(5, f3, rng, 5, 3)
            assert ml(ml(f)) == ml(f)
            assert ml(f * g) == ml(ml(f) * ml(g))

    def test_agrees_on_cube(self, f9, rng):
        for _ in range(20):
            f = rand_poly(4, f9, rng, 6, 3)
            m = ml(f)
            for mask in range(16):
                assert eval_cube_point(f, mask) == eval_cube_point(m, mask)

    def test_agrees_on_cube_exhaustive_n10(self, f3, rng):
        f = rand_poly(10, f3, rng, 8, 3)
        m = ml(f)
        for mask in range(1 << 10):
            assert eval_cube_point(f, mask) == eval_cube_point(m, mask)


def fermat(f):
    """(remainder, quotients) of f divided by the axioms y_j^p - y_j."""
    dec = divide_by_axioms(f, "fermat")
    return dec.remainder, dec.quotients


class TestInddegP:
    """Reduction below individual degree p by the Fermat axioms."""

    def test_y4_reduces_to_y2_char3(self, f3):
        red, quots = fermat(Poly.var(1, f3, 0, 4))
        assert red == Poly.var(1, f3, 0, 2)

    def test_low_degree_fixed(self, f3, rng):
        f = ml(rand_poly(3, f3, rng, 5, 1)) + rand_poly(3, f3, rng, 3, 2)
        if individual_degree(f) < 3:
            red, quots = fermat(f)
            assert red == f
            assert all(q.is_zero() for q in quots)

    def test_char2_matches_ml(self, f2, rng):
        for _ in range(20):
            f = rand_poly(3, f2, rng, 5, 4)
            red, quots = fermat(f)
            assert red == ml(f)
            assert quots == divide_by_axioms(f, "boolean").quotients

    def test_quotient_identity(self, f3, rng):
        for _ in range(20):
            f = rand_poly(3, f3, rng, 6, 6)
            red, quots = fermat(f)
            assert individual_degree(red) <= 2
            recon = red
            for j, g in enumerate(quots):
                axiom = Poly.var(3, f3, j, 3) - Poly.var(3, f3, j)
                recon = recon + g * axiom
            assert recon == f

    def test_quotient_sparsity_bound(self, f3, rng):
        # sparsity(G_j) <= sparsity(f) * D / (p - 1)
        for _ in range(10):
            f = rand_poly(3, f3, rng, 6, 6)
            d = individual_degree(f)
            _, quots = fermat(f)
            cap = f.sparsity() * max(d, 1) / (3 - 1)
            assert all(g.sparsity() <= cap for g in quots)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closed_form_exponent_is_the_remainder(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 13]))
        fld = gf.field_spec(p, 1)
        exp = tuple(data.draw(st.lists(st.integers(0, 3 * p), min_size=1, max_size=3)))
        c = fld.from_int(data.draw(st.integers(1, p - 1)))
        red, _ = fermat(Poly.monomial(len(exp), fld, exp, c))
        assert red == Poly.monomial(len(exp), fld,
                                    tuple(fermat_exponent(d, p) for d in exp), c)


class TestDivideByAxioms:
    def test_x1_squared(self, f3):
        dec = divide_by_axioms(Poly.var(2, f3, 0, 2))
        assert dec.remainder == Poly.var(2, f3, 0)
        assert dec.quotients[0] == Poly.one(2, f3)
        assert dec.quotients[1].is_zero()

    def test_multilinear_untouched(self, f3, rng):
        f = ml(rand_poly(3, f3, rng, 5, 1))
        dec = divide_by_axioms(f)
        assert dec.remainder == f
        assert all(q.is_zero() for q in dec.quotients)

    def test_reconstruction_exact(self, f9, rng):
        for _ in range(30):
            f = rand_poly(4, f9, rng, 8, 6)
            dec = divide_by_axioms(f)
            assert dec.recompose() == f
            assert dec.remainder.is_multilinear()
            assert all(q.degree() <= f.degree() for q in dec.quotients
                       if not q.is_zero())


class TestCubeInterpolate:
    def test_constant(self, f3):
        c = f3.from_int(2)
        assert interpolate_table(stored_cells(f3, [c.coeffs] * 8), 3, f3) == Poly.const(3, f3, c)

    def test_and_truth_table(self, f2):
        vals = [(1,) if mask == 0b1111 else (0,) for mask in range(16)]
        assert interpolate_table(stored_cells(f2, vals), 4, f2) == \
            Poly.monomial(4, f2, (1,) * 4, f2.one())

    def test_roundtrip_on_multilinear(self, f9, rng):
        for _ in range(20):
            f = ml(rand_poly(3, f9, rng, 6, 1))
            vals = [eval_cube_point(f, m).coeffs for m in range(8)]
            assert interpolate_table(stored_cells(f9, vals), 3, f9) == f

    def test_roundtrip_n8(self, f4, rng):
        f = ml(rand_poly(8, f4, rng, 12, 1))
        vals = [eval_cube_point(f, m).coeffs for m in range(1 << 8)]
        assert interpolate_table(stored_cells(f4, vals), 8, f4) == f

    def test_top_coefficient_alternating_sum(self, f9, rng):
        from ipsforge.lowerbounds import alternating_cube_sum

        for _ in range(10):
            vals = [f9.sample(rng).coeffs for _ in range(8)]
            poly = interpolate_table(stored_cells(f9, vals), 3, f9)
            assert poly.coeff((1, 1, 1)) == alternating_cube_sum(poly)


def moebius_by_vsub(table, n, p):
    """Reference Moebius inversion on coefficient vectors: one componentwise
    subtraction mod p per pair."""
    c = list(table)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                c[mask] = tuple((x - y) % p for x, y in zip(c[mask], c[mask ^ bit]))
    return c


def zeta_by_vadd(table, n, p):
    """Reference zeta transform on coefficient vectors: one componentwise
    addition mod p per pair."""
    c = list(table)
    for i in range(n):
        bit = 1 << i
        for mask in range(1 << n):
            if mask & bit:
                c[mask] = tuple((x + y) % p for x, y in zip(c[mask], c[mask ^ bit]))
    return c


# one-byte Moebius slots (p <= 63) and multi-byte ones; 251 fits a byte and
# needs the second one only for the headroom of 2p; the field-order cap
# leaves out (2^31 - 1)^6
BROADWORD_FIELDS = [(p, k) for p in (2, 3, 5, 13, 251, 257, 65537, 2 ** 31 - 1)
                    for k in (1, 2, 3, 6) if (p ** k).bit_length() <= gf.FIELD_BITS]


@st.composite
def cube_tables(draw):
    p, k = draw(st.sampled_from(BROADWORD_FIELDS))
    n = draw(st.integers(0, 6))
    vec = st.tuples(*[st.integers(0, p - 1) for _ in range(k)])
    return gf.field_spec(p, k), n, draw(st.lists(vec, min_size=1 << n, max_size=1 << n))


class TestInterpolateTable:
    @settings(max_examples=150, deadline=None)
    @given(cube_tables())
    def test_broadword_moebius_matches_vsub(self, case):
        field, n, table = case
        c = moebius_by_vsub(table, n, field.p)
        expected = {tuple((mask >> i) & 1 for i in range(n)): field.from_coeffs(v)
                    for mask, v in enumerate(c) if any(v)}
        assert dict(interpolate_table(stored_cells(field, table), n, field).items()) == expected

    def test_extreme_slots(self):
        """0 - (p-1) and (p-1) - 0 in every slot, where a borrow or a carry
        between slots would show."""
        for p, k in BROADWORD_FIELDS:
            field = gf.field_spec(p, k)
            for a, b in (((0,) * k, (p - 1,) * k), ((p - 1,) * k, (0,) * k)):
                table = [a, b, b, a]
                assert dict(interpolate_table(stored_cells(field, table), 2, field).items()) == {
                    e: field.from_coeffs(v)
                    for e, v in zip([(0, 0), (1, 0), (0, 1), (1, 1)],
                                    moebius_by_vsub(table, 2, p)) if any(v)}

    def test_wrong_length(self, f3):
        with pytest.raises(ArityMismatch):
            interpolate_table(stored_cells(f3, [(1,)] * 3), 2, f3)


@st.composite
def cube_polys(draw):
    """A random, mostly non-multilinear polynomial in up to 6 variables."""
    p, k = draw(st.sampled_from([(2, 1), (3, 2), (2, 12), (5, 3), (13, 2)]))
    field = gf.field_spec(p, k)
    n = draw(st.integers(0, 6))
    exps = st.tuples(*[st.integers(0, 3) for _ in range(n)])
    coeffs = st.tuples(*[st.integers(0, p - 1) for _ in range(k)])
    terms = draw(st.dictionaries(exps, coeffs, max_size=12))
    return Poly(n, field, {e: field.from_coeffs(c) for e, c in terms.items()})


class TestCubeValues:
    @settings(max_examples=80, deadline=None)
    @given(cube_polys())
    def test_matches_pointwise_and_inverts_interpolation(self, f):
        table = cube_table(f)
        assert table == stored_cells(f.field, [eval_cube_point(f, m).coeffs
                                             for m in range(1 << f.n)])
        assert interpolate_table(table, f.n, f.field) == ml(f)

    @pytest.mark.parametrize("p,k,nterms", [(2, 2, 300), (13, 1, 40), (13, 3, 40)])
    def test_multibyte_slots(self, p, k, nterms):
        """len(terms)*(p-1) >= 256: at the all-ones point every term's
        coefficient is summed into one cell, past what a byte slot holds
        unreduced."""
        field = gf.field_spec(p, k)
        rng = random.Random(nterms)
        top = field.from_coeffs((p - 1,) * k)
        f = Poly.zero(9, field)
        while f.sparsity() < nterms:
            e = tuple(rng.randrange(3) for _ in range(9))
            f = f + Poly.monomial(9, field, e, top)
        assert cube_table(f) == stored_cells(field, [eval_cube_point(f, m).coeffs
                                                  for m in range(1 << 9)])


class TestCubeTableSlots:
    def test_extreme_slots(self):
        """(p-1) + (p-1) in every slot, where a carry between slots or a
        missed reduction would show: f has the coefficient -1 on every
        multilinear monomial in two variables."""
        for p, k in BROADWORD_FIELDS:
            field = gf.field_spec(p, k)
            top = (p - 1,) * k
            f = Poly(2, field, {e: field.from_coeffs(top)
                                for e in [(0, 0), (1, 0), (0, 1), (1, 1)]})
            assert cube_table(f) == stored_cells(field, zeta_by_vadd([top] * 4, 2, p))

    @settings(max_examples=100, deadline=None)
    @given(cube_tables())
    def test_round_trip_over_broadword_fields(self, case):
        """The zeta step is the inverse of the Moebius step on stored cells,
        for one-byte and multi-byte slots."""
        field, n, table = case
        f = interpolate_table(stored_cells(field, table), n, field)
        assert cube_table(f) == stored_cells(field, table)
        assert cube_table(f) == stored_cells(field, zeta_by_vadd(moebius_by_vsub(table, n, field.p),
                                                               n, field.p))
        assert interpolate_table(cube_table(f), n, field) == ml(f) == f


class TestLinearPoly:
    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_matches_sum_of_scaled_variables(self, f9, rng, n):
        coeffs = [f9.sample(rng) for _ in range(n)]
        if n:
            coeffs[rng.randrange(n)] = f9.zero()
        for const in (f9.zero(), f9.sample(rng)):
            expected = Poly.const(n, f9, const)
            for i, c in enumerate(coeffs):
                expected = expected + Poly.var(n, f9, i).scale(c)
            assert linear_poly(f9, coeffs, const) == expected


class TestCollect:
    def test_repeated_and_cancelling_exponents(self, f9, rng):
        exps = [(0, 0, 0), (1, 0, 2), (0, 1, 0), (1, 0, 2), (0, 1, 0), (0, 0, 0)]
        coeffs = [f9.sample(rng) for _ in exps]
        coeffs[4] = -coeffs[2]  # x2 cancels
        coeffs[1] = f9.zero()
        pieces = [(e, c.v) for e, c in zip(exps, coeffs)]
        expected = Poly.zero(3, f9)
        for e, c in zip(exps, coeffs):
            expected = expected + Poly.monomial(3, f9, e, c)
        got = collect(3, f9, pieces)
        assert got == expected
        assert (0, 1, 0) not in got.exponents()

    def test_empty(self, f3):
        assert collect(2, f3, []) == Poly.zero(2, f3)


class TestLeadingMonomial:
    def test_degree_dominates(self, f3):
        f = Poly.monomial(3, f3, (1, 1, 0), f3.one()) + Poly.var(3, f3, 2)
        assert leading_monomial(f) == (1, 1, 0)

    def test_single_monomial(self, f3):
        assert leading_monomial(Poly.monomial(2, f3, (0, 3), f3.one())) == (0, 3)

    def test_zero_poly_raises(self, f3):
        with pytest.raises(ZeroPolynomial):
            leading_monomial(Poly.zero(2, f3))

    def test_span_dim_equals_lm_count_for_triangular_families(self, f9, rng):
        # distinct leading monomials => dimension equals family size
        from ipsforge import exactla

        for _ in range(10):
            polys = []
            lms = set()
            while len(polys) < 4:
                f = rand_poly(3, f9, rng, 4, 2)
                if f.is_zero():
                    continue
                lm = leading_monomial(f)
                if lm not in lms:
                    lms.add(lm)
                    polys.append(f)
            monos = sorted({e for f in polys for e in f.exponents()})
            idx = {e: i for i, e in enumerate(monos)}
            matrix = [[0] * len(monos) for _ in polys]
            for r, f in enumerate(polys):
                for e, c in f.items():
                    matrix[r][idx[e]] = c.v
            assert exactla.rank(matrix, f9) == len(polys)


class TestPolynomialIdentityLemma:
    def test_zero_rate_bounded(self):
        spec = gf.field_spec(2, 7)  # |S| = 128
        rng = random.Random(77)
        trials = 400
        for _ in range(5):
            f = rand_poly(3, spec, rng, 5, 2)
            if f.is_zero():
                continue
            d = f.degree()
            zeros = 0
            for _ in range(trials):
                point = [spec.sample(rng) for _ in range(3)]
                zeros += f.eval(point).is_zero()
            bound = d / spec.order
            sigma = (bound * (1 - bound) / trials) ** 0.5
            assert zeros / trials <= bound + 3 * sigma + 1e-12


class TestTextGrammar:
    def test_roundtrip_random(self, f4, rng):
        for _ in range(30):
            f = rand_poly(3, f4, rng, 5, 3)
            assert parse_poly(format_poly(f), 3, f4) == f

    def test_roundtrip_prime_field(self, f3, rng):
        for _ in range(20):
            f = rand_poly(2, f3, rng, 4, 2)
            assert parse_poly(format_poly(f), 2, f3) == f

    def test_canonical_is_grlex_descending(self, f3):
        f = parse_poly("1 + x2 + x1*x2", 2, f3)
        assert format_poly(f) == "1*x1^1*x2^1 + 1*x2^1 + 1"

    def test_lenient_input(self, f3):
        assert parse_poly("x1 - x2", 2, f3) == \
            Poly.var(2, f3, 0) - Poly.var(2, f3, 1)
        assert parse_poly("2*x1^2", 2, f3) == Poly.var(2, f3, 0, 2).scale(f3.from_int(2))

    def test_custom_names(self, f3):
        f = parse_poly("y1*z2 + 3", 2, f3, names=("y1", "z2"))
        assert f.coeff((1, 1)) == f3.one()

    def test_parse_errors(self, f3, f4):
        with pytest.raises(ParseError):
            parse_poly("x1 + @", 2, f3)
        with pytest.raises(ParseError):
            parse_poly("x9", 2, f3)
        with pytest.raises(ParseError):
            parse_poly("[1,0,0]*x1", 2, f4)  # wrong component count

    def test_zero_formats_as_zero(self, f3):
        assert format_poly(Poly.zero(2, f3)) == "0"
        assert parse_poly("0", 2, f3).is_zero()

    def test_default_names(self):
        assert default_names(3) == ("x1", "x2", "x3")
        assert default_names(2, "z") == ("z1", "z2")

    def test_repeated_and_cancelling_monomials(self, f3, f9):
        """Colliding monomials add up and cancelling ones vanish, exactly as
        when the parser summed one monomial at a time."""
        text = "2*x1^2*x2 + x2*x1*x1 - x1^2*x2*2 + x3 - 2*x3 + x3 + 1 + 2 + x2"
        expect = Poly.zero(3, f3)
        for e, c in [((2, 1, 0), 2), ((2, 1, 0), 1), ((2, 1, 0), -2), ((0, 0, 1), 1),
                     ((0, 0, 1), -2), ((0, 0, 1), 1), ((0, 0, 0), 1), ((0, 0, 0), 2),
                     ((0, 1, 0), 1)]:
            expect = expect + Poly.monomial(3, f3, e, f3.from_int(c))
        got = parse_poly(text, 3, f3)
        assert got == expect == Poly.monomial(3, f3, (2, 1, 0), f3.one()) + Poly.var(3, f3, 1)
        ext = "[1,2]*x1 + [2,1]*x1 + [0,1]*x2 - [0,1]*x2 + [1,1]"
        assert parse_poly(ext, 2, f9) == Poly.const(2, f9, from_coeffs(f9, (1, 1)))
        assert parse_poly("x1 - x1", 1, f3).is_zero()

    # (text, [(exponent, coefficient)]) over GF(3^2) in x1, x2; an int
    # coefficient is a prime-field constant, a tuple a coefficient vector
    ACCEPTED = [
        ("x1", [((1, 0), 1)]),
        ("7", [((0, 0), 7)]),
        ("2*x1^2*x2", [((2, 1), 2)]),
        ("-x2 + 1", [((0, 1), -1), ((0, 0), 1)]),
        ("+x1 - 2", [((1, 0), 1), ((0, 0), -2)]),
        ("2*2*x1", [((1, 0), 4)]),
        ("x1*x1^2*x2*x2", [((3, 2), 1)]),
        ("[1,2]*x1 - [0,1]", [((1, 0), (1, 2)), ((0, 0), (0, -1))]),
        (" [ 1 , 2 ] * x1 ^ 2\t-\nx2", [((2, 0), (1, 2)), ((0, 1), -1)]),
        ("[-1,4]", [((0, 0), (-1, 4))]),
        ("x1^0", [((0, 0), 1)]),
        ("x1 - x1 + 0", []),
    ]

    @pytest.mark.parametrize("text, terms", ACCEPTED, ids=[t for t, _ in ACCEPTED])
    def test_accepted(self, f9, text, terms):
        expect = Poly.zero(2, f9)
        for e, c in terms:
            elem = from_coeffs(f9, c) if isinstance(c, tuple) else f9.from_int(c)
            expect = expect + Poly.monomial(2, f9, e, elem)
        assert parse_poly(text, 2, f9) == expect

    def test_repeated_bracket_coefficients_multiply(self, f9):
        a, b = from_coeffs(f9, (1, 2)), from_coeffs(f9, (0, 1))
        assert parse_poly("[1,2]*x2*[0,1]", 2, f9) == \
            Poly.monomial(2, f9, (0, 1), a * b)

    REJECTED = ["x1 x2", "2*", "x1 - -x2", "x1^", "x1 +", "", "   ", "--x1",
                "*x1", "x1**x2", "2x1", "x1^2^3", "x3", "x1 + @", "[1]*x1",
                "[1,,2]", "[1,2,0]", "x1x2", "(x1)"]

    @pytest.mark.parametrize("text", REJECTED)
    def test_rejected(self, f9, text):
        with pytest.raises(ParseError) as info:
            parse_poly(text, 2, f9)
        assert 0 <= info.value.column <= max(len(text) - 1, 0)

    @pytest.mark.parametrize("text, column", [
        ("x1*x", 3), ("x1 + x1*x", 8), ("x2 -  x1 * y", 11), ("x1* [1]", 4)])
    def test_error_column_points_at_the_factor(self, f9, text, column):
        """The column is the bad factor's own, not that of an earlier
        factor whose text contains it."""
        with pytest.raises(ParseError) as info:
            parse_poly(text, 2, f9)
        assert info.value.column == column

    LONG = "9" * 5000  # over int()'s default limit of 4300 digits

    @pytest.mark.parametrize("text, column", [
        ("x1^" + LONG, 3), ("x2 + 2*x1 ^ " + LONG, 12), (LONG + "*x1", 0),
        ("x1 - [1, " + LONG + "]*x2", 9), ("[1,2]*x1^" + LONG + " + x2", 9)])
    def test_overlong_literal_is_a_parse_error(self, f9, text, column):
        """A numeric literal that int() refuses is bad input at its own
        column, not an internal error."""
        with pytest.raises(ParseError, match="5000 digits") as info:
            parse_poly(text, 2, f9)
        assert info.value.column == column

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_whitespace_between_tokens(self, data):
        """Canonical text with any whitespace before each of its tokens
        parses to the same polynomial."""
        field = data.draw(st.sampled_from(
            [gf.field_spec(2, 4), gf.field_spec(3, 3), gf.field_spec(5, 1)]))
        terms = data.draw(st.lists(st.tuples(
            st.tuples(*[st.integers(0, 3)] * 3), st.integers(0, field.order - 1)),
            max_size=6))
        f = collect(3, field, [(e, field.from_encoding(c).v) for e, c in terms])
        tokens = re.findall(r"\d+|[A-Za-z]\w*|\S", format_poly(f))
        gaps = data.draw(st.lists(st.sampled_from(["", " ", "  ", "\t", "\n"]),
                                  min_size=len(tokens), max_size=len(tokens)))
        text = "".join(g + t for g, t in zip(gaps, tokens))
        assert parse_poly(text, 3, field) == f

    def test_roundtrip_large_certificate_polynomial(self):
        from ipsforge import generators
        from ipsforge.certificates import refute_linear_frobenius

        tower = gf.field_tower(5, 3)
        inst = generators.linear_shifted(tower, 6, random.Random(7))
        cert = refute_linear_frobenius(inst.axioms[0], tower)
        a = cert.A[0]
        assert a.sparsity() >= 5000
        names = inst.var_names
        assert parse_poly(format_poly(a, names), inst.n, inst.field, names) == a
