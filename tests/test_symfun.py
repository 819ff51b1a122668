import itertools
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ipsforge import gf
from ipsforge.errors import FieldTooSmall, NotSymmetric, OutOfRange
from ipsforge.mvpoly import Poly, divide_by_axioms, ml, parse_poly, sum_of_products
from ipsforge.symfun import (
    BenOrForm,
    ElemSymExpansion,
    ben_or_coeffs,
    binom_elem,
    compress_char_p,
    elem_sym,
    lucas_binom,
    ml_prod_elem,
    num_compressed_vars,
    qt_poly,
    sym_to_elem_basis,
    weight_values,
)

from conftest import eval_cube_point, individual_degree


def ml_pair_expansion(a, b, n, field):
    """ml[e_a * e_b] in the e-basis, from weight evaluation C(w,a)C(w,b):
    the reference for ml_prod_elem on two factors."""
    values = [binom_elem(w, a, field) * binom_elem(w, b, field) for w in range(n + 1)]
    return ElemSymExpansion.from_weight_values(values, field)


def eval_at_weight(expansion, w):
    """sum_d lambda_d C(w, d): the expansion's value at Hamming weight w,
    by FieldElem arithmetic."""
    field = expansion.field
    return sum((lam * binom_elem(w, d, field) for d, lam in enumerate(expansion.lambdas)),
               field.zero())


def compressed_at_weight(comp, w):
    """The compressed polynomial at e-hat's values on Hamming weight w: the
    point (C(w, p^i))_i, at which F agrees with the source."""
    return comp.poly.eval([binom_elem(w, comp.field.p ** i, comp.field) for i in range(comp.r)])


# The product-built constructions that the weight-indexed builder replaced,
# kept as references: each new path must give the same Poly.

def reference_elem_sym(n, d, field):
    terms = {}
    for subset in itertools.combinations(range(n), d):
        exp = [0] * n
        for i in subset:
            exp[i] = 1
        terms[tuple(exp)] = field.one()
    return Poly(n, field, terms)


def reference_to_poly(expansion):
    n, field = expansion.n, expansion.field
    return sum_of_products(n, field, [
        (reference_elem_sym(n, d, field), Poly.const(n, field, lam))
        for d, lam in enumerate(expansion.lambdas) if not lam.is_zero()])


def reference_product_factor(n, gamma):
    field = gamma.spec
    powers = [field.one()]
    for _ in range(n):
        powers.append(powers[-1] * gamma)
    terms = {}
    for mask in range(1 << n):
        exp = tuple((mask >> j) & 1 for j in range(n))
        c = powers[sum(exp)]
        if not c.is_zero():
            terms[exp] = c
    return Poly(n, field, terms)


def reference_ml_prod_elem(alphas, n, field):
    """ml_prod_elem's fold on e-basis expansions, each step re-evaluated at
    every weight, times C(w, beta), and solved back to the e-basis."""
    def unit_expansion(d):
        lams = [field.zero()] * (n + 1)
        lams[d] = field.one()
        return ElemSymExpansion(n, field, tuple(lams))

    def expansion_times_elem(expansion, b):
        values = [eval_at_weight(expansion, w) * binom_elem(w, b, field)
                  for w in range(n + 1)]
        return ElemSymExpansion.from_weight_values(values, field)

    degrees = sorted(alphas)
    if not degrees:
        return unit_expansion(0), [Poly.zero(n, field)] * n
    expansion = unit_expansion(degrees[0])
    quotients = [Poly.zero(n, field) for _ in range(n)]
    for beta in degrees[1:]:
        e_beta = elem_sym(n, beta, field)
        scaled = [(Poly.const(n, field, lam),
                   divide_by_axioms(elem_sym(n, i, field) * e_beta, "boolean").quotients)
                  for i, lam in enumerate(expansion.lambdas) if not lam.is_zero()]
        quotients = [sum_of_products(n, field, [(q, e_beta)] + [
                         (lam, d[j]) for lam, d in scaled])
                     for j, q in enumerate(quotients)]
        expansion = expansion_times_elem(expansion, beta)
    return expansion, quotients


REFERENCE_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)]


def serialize(expansion):
    """The lambda vector of an e-basis expansion as coefficient lists."""
    return [list(lam.coeffs) for lam in expansion.lambdas]


class TestElemSym:
    def test_extremes(self, f3):
        assert elem_sym(4, 0, f3) == Poly.one(4, f3)
        assert elem_sym(3, 3, f3) == Poly.monomial(3, f3, (1, 1, 1), f3.one())

    def test_n3_d2(self, f3):
        assert elem_sym(3, 2, f3) == parse_poly("x1*x2 + x1*x3 + x2*x3", 3, f3)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_sparsity_is_binomial(self, n, f2):
        for d in range(n + 1):
            assert elem_sym(n, d, f2).sparsity() == math.comb(n, d)

    def test_out_of_range(self, f3):
        with pytest.raises(OutOfRange):
            elem_sym(3, 4, f3)

    def test_recursive_identity(self, f9):
        # e_d(x1..xn) = x1 e_{d-1}(x2..xn) + e_d(x2..xn)
        n, d = 5, 3
        tail_ed = elem_sym(n - 1, d, f9)
        tail_ed1 = elem_sym(n - 1, d - 1, f9)

        def shift(f):
            terms = {(0,) + e: c for e, c in f.items()}
            return Poly(n, f9, terms)

        rhs = Poly.var(n, f9, 0) * shift(tail_ed1) + shift(tail_ed)
        assert elem_sym(n, d, f9) == rhs

    def test_weight_evaluation_exhaustive_small(self, f3):
        for n in range(1, 8):
            for d in range(n + 1):
                ed = elem_sym(n, d, f3)
                for mask in range(1 << n):
                    w = bin(mask).count("1")
                    assert eval_cube_point(ed, mask) == binom_elem(w, d, f3)

    def test_weight_evaluation_n10_per_class(self, f2):
        # symmetric, so one representative per weight plus sampled permutations
        n = 10
        rng = random.Random(2)
        for d in range(n + 1):
            ed = elem_sym(n, d, f2)
            for w in range(n + 1):
                mask = (1 << w) - 1
                assert eval_cube_point(ed, mask) == binom_elem(w, d, f2)
            for _ in range(5):
                mask = rng.randrange(1 << n)
                w = bin(mask).count("1")
                assert eval_cube_point(ed, mask) == binom_elem(w, d, f2)


@pytest.mark.parametrize("pk", REFERENCE_FIELDS, ids=lambda pk: f"GF({pk[0]}^{pk[1]})")
class TestWeightBuilderMatchesProducts:
    """elem_sym, ElemSymExpansion.to_poly and BenOrForm.product_factor,
    built straight from the weights, against the product-built references."""

    def test_elem_sym(self, pk):
        field = gf.field_spec(*pk)
        for n in range(8):
            for d in range(n + 1):
                assert elem_sym(n, d, field) == reference_elem_sym(n, d, field)

    def test_to_poly(self, pk, rng):
        field = gf.field_spec(*pk)
        for n in range(8):
            for _ in range(3):
                lams = tuple(rng.choice([field.zero(), field.sample(rng)])
                             for _ in range(n + 1))
                expansion = ElemSymExpansion(n, field, lams)
                assert expansion.to_poly() == reference_to_poly(expansion)

    def test_product_factor(self, pk):
        field = gf.field_spec(*pk)
        nodes = tuple(field.elements())
        for n in range(8):
            form = BenOrForm(n, field, nodes, ())
            for i, gamma in enumerate(nodes):
                assert form.product_factor(i) == reference_product_factor(n, gamma)

    def test_ml_prod_elem(self, pk, rng):
        """Random degree lists of length 0 to 3 for every n <= 7."""
        field = gf.field_spec(*pk)
        for n in range(8):
            for length in range(4):
                alphas = [rng.randint(0, n) for _ in range(length)]
                expansion, quotients = ml_prod_elem(alphas, n, field)
                ref_expansion, ref_quotients = reference_ml_prod_elem(alphas, n, field)
                assert expansion == ref_expansion, alphas
                assert quotients == ref_quotients, alphas


class TestLucas:
    def test_c52_mod2(self):
        assert lucas_binom(5, 2, 2) == 0

    def test_choose_zero(self):
        for p in (2, 3, 7):
            for a in range(20):
                assert lucas_binom(a, 0, p) == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_against_exact_binomial(self, p):
        for a in range(201):
            for b in range(201):
                assert lucas_binom(a, b, p) == math.comb(a, b) % p


class TestBenOr:
    @staticmethod
    def reference_row(form, k):
        """Row k as the product form sum_i coeffs[k][i] * product_factor(i)."""
        n, field = form.n, form.field
        return sum_of_products(n, field, [
            (form.product_factor(i), Poly.const(n, field, c))
            for i, c in enumerate(form.coeffs[k]) if not c.is_zero()])

    @pytest.mark.parametrize("n,spec_args", [(1, (5, 1)), (3, (2, 3)), (4, (5, 1)),
                                             (6, (7, 1)), (6, (2, 3))])
    def test_identity_polynomial_level(self, n, spec_args):
        spec = gf.field_spec(*spec_args)
        form = ben_or_coeffs(n, spec)
        for k in range(n + 1):
            assert form.expand_row(k) == elem_sym(n, k, spec)
            assert form.expand_row(k) == self.reference_row(form, k)

    def test_row_zero_is_constant_one(self):
        spec = gf.field_spec(5, 1)
        form = ben_or_coeffs(3, spec)
        assert form.expand_row(0) == Poly.one(3, spec)

    def test_n1_over_f5(self):
        spec = gf.field_spec(5, 1)
        form = ben_or_coeffs(1, spec)
        assert form.nodes == (spec.from_int(0), spec.from_int(1))
        assert form.expand_row(1) == Poly.var(1, spec, 0)

    def test_field_too_small(self, f2):
        with pytest.raises(FieldTooSmall):
            ben_or_coeffs(2, f2)


class TestElemBasis:
    def test_worked_example(self, f3):
        f = parse_poly("x1*x2 + x1 + x2", 2, f3)
        lams = sym_to_elem_basis(f).lambdas
        assert [l.coeffs[0] for l in lams] == [0, 1, 1]

    def test_constant_one(self, f3):
        lams = sym_to_elem_basis(Poly.one(3, f3)).lambdas
        assert [l.coeffs[0] for l in lams] == [1, 0, 0, 0]

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_roundtrip(self, n, f3, rng):
        lams = tuple(f3.sample(rng) for _ in range(n + 1))
        f = ElemSymExpansion(n, f3, lams).to_poly()
        assert sym_to_elem_basis(f).lambdas == lams

    @given(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]).flatmap(
        lambda pk: st.lists(st.integers(0, pk[0] ** pk[1] - 1), min_size=1, max_size=9)
        .map(lambda codes: [gf.field_spec(*pk).from_encoding(c) for c in codes])))
    def test_from_weight_values_round_trip(self, values):
        field = values[0].spec
        expansion = ElemSymExpansion.from_weight_values(values, field)
        assert expansion.n == len(values) - 1
        assert [eval_at_weight(expansion, w) for w in range(len(values))] == values

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]), st.integers(0, 6),
           st.data())
    def test_weight_values_and_expansion_match_cube_points(self, pk, n, data):
        """weight_values (one pass over the terms) and sym_to_elem_basis (the
        degree-class coefficients) against eval_cube_point at 1^w 0^(n-w):
        on a random symmetric multilinear f, and for weight_values also on
        any f, exponents above 1 included."""
        field = gf.field_spec(*pk)
        elem = st.integers(0, field.order - 1).map(field.from_encoding)
        lams = tuple(data.draw(st.lists(elem, min_size=n + 1, max_size=n + 1)))
        f = ElemSymExpansion(n, field, lams).to_poly()
        prefix = [eval_cube_point(f, (1 << w) - 1) for w in range(n + 1)]
        assert weight_values(f) == prefix
        expansion = sym_to_elem_basis(f)
        assert expansion.lambdas == lams and expansion.to_poly() == f
        assert [eval_at_weight(expansion, w) for w in range(n + 1)] == prefix
        terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * n), elem,
                                          max_size=10))
        g = Poly(n, field, terms)
        assert weight_values(g) == [eval_cube_point(g, (1 << w) - 1) for w in range(n + 1)]

    def test_not_symmetric(self, f3):
        with pytest.raises(NotSymmetric):
            sym_to_elem_basis(parse_poly("x1", 2, f3))
        with pytest.raises(NotSymmetric):
            sym_to_elem_basis(parse_poly("x1*x2 + x1 + 2*x2", 2, f3))


class TestCompression:
    def test_e1_any_p(self, f3):
        comp = compress_char_p(elem_sym(4, 1, f3))
        assert comp.poly == Poly.var(comp.r, f3, 0)

    def test_char2_digit_products(self, f2):
        # e_3 with 3 = (11)_2 compresses to y1*y2
        comp = compress_char_p(elem_sym(5, 3, f2))
        assert comp.r == 3
        assert comp.poly == parse_poly("y1*y2", 3, f2, names=("y1", "y2", "y3"))

    def test_e2_n5_p3_weight_table(self, f3):
        f = elem_sym(5, 2, f3)
        comp = compress_char_p(f)
        for mask in range(32):
            w = bin(mask).count("1")
            assert compressed_at_weight(comp, w) == eval_cube_point(f, mask)

    def test_full_cube_agreement_through_ehat(self, f3, rng):
        n, p = 6, 3
        lams = tuple(f3.sample(rng) for _ in range(n + 1))
        f = ElemSymExpansion(n, f3, lams).to_poly()
        comp = compress_char_p(f)
        ehat = [elem_sym(n, p ** i, f3) for i in range(comp.r)]
        for mask in range(1 << n):
            point = [eval_cube_point(e, mask) for e in ehat]
            assert comp.poly.eval(point) == eval_cube_point(f, mask)

    def test_individual_degree_below_p(self, f2, f3, rng):
        for fld in (f2, f3):
            lams = tuple(fld.sample(rng) for _ in range(9))
            comp = compress_char_p(ElemSymExpansion(8, fld, lams).to_poly())
            assert individual_degree(comp.poly) <= fld.p - 1

    def test_cube_maps_into_prime_field(self, f9):
        # every e-hat coordinate value on the cube lies in the prime subfield
        n = 4
        ehat = [elem_sym(n, 3 ** i, f9) for i in range(num_compressed_vars(n, 3))]
        prime_elems = {f9.from_int(c) for c in range(3)}
        for mask in range(1 << n):
            for e in ehat:
                assert eval_cube_point(e, mask) in prime_elems


class TestQt:
    def test_q3_is_y1y2(self, f2):
        assert qt_poly(3, 2, 2, f2) == parse_poly("y1*y2", 2, f2, names=("y1", "y2"))

    @pytest.mark.parametrize("p", [2, 3])
    def test_digit_dominance_values(self, p):
        fld = gf.field_spec(p, 1)
        r = 2
        for t in range(1, p ** r):
            q = qt_poly(t, r, p, fld)
            td = (t % p, t // p % p)
            assert q.eval([fld.from_int(td[0]), fld.from_int(td[1])]) == fld.one()
            for b0 in range(p):
                for b1 in range(p):
                    got = q.eval([fld.from_int(b0), fld.from_int(b1)])
                    want = lucas_binom(b0, td[0], p) * lucas_binom(b1, td[1], p) % p
                    assert got == fld.from_int(want)
                    if b0 < td[0] or b1 < td[1]:
                        assert got.is_zero()

    def test_out_of_range(self, f3):
        with pytest.raises(OutOfRange):
            qt_poly(9, 2, 3, f3)
        with pytest.raises(OutOfRange):
            qt_poly(0, 2, 3, f3)


class TestMlProdElem:
    def test_single_factor_is_base_case(self, f3):
        expansion, quots = ml_prod_elem([2], 4, f3)
        assert expansion.to_poly() == elem_sym(4, 2, f3)
        assert all(q.is_zero() for q in quots)

    def test_pair_e1_e1_n2(self, f3):
        expansion, _ = ml_prod_elem([1, 1], 2, f3)
        assert [l.coeffs[0] for l in expansion.lambdas] == [0, 1, 2]
        direct = ml_pair_expansion(1, 1, 2, f3)
        assert direct.lambdas == expansion.lambdas

    @pytest.mark.parametrize("n,alphas,p", [
        (4, [1, 3, 3], 3),
        (3, [2, 2], 2),
        (5, [1, 2, 4], 2),
        (6, [1, 3, 3, 1], 3),
    ])
    def test_certificate_reexpands_exactly(self, n, alphas, p):
        fld = gf.field_spec(p, 1)
        expansion, quots = ml_prod_elem(alphas, n, fld)
        prod = Poly.one(n, fld)
        for a in alphas:
            prod = prod * elem_sym(n, a, fld)
        recon = expansion.to_poly()
        for j, r in enumerate(quots):
            axiom = Poly.var(n, fld, j, 2) - Poly.var(n, fld, j)
            recon = recon + r * axiom
        assert recon == prod
        assert expansion.to_poly() == ml(prod)

    def test_expansion_matches_weight_values(self, f3):
        expansion, _ = ml_prod_elem([1, 2, 2], 5, f3)
        prod_vals = [
            binom_elem(w, 1, f3) * binom_elem(w, 2, f3) * binom_elem(w, 2, f3)
            for w in range(6)
        ]
        for w in range(6):
            assert eval_at_weight(expansion, w) == prod_vals[w]

    def test_out_of_range(self, f3):
        with pytest.raises(OutOfRange):
            ml_prod_elem([7], 4, f3)


def test_ben_or_serialization_shape(f9):
    form = ben_or_coeffs(2, f9)
    assert isinstance(form, BenOrForm)
    assert len(form.nodes) == 3
    assert len(form.coeffs) == 3 and all(len(row) == 3 for row in form.coeffs)


def test_expansion_serializes_to_lambda_vector(f3):
    lams = (f3.one(), f3.zero(), f3.from_int(2))
    exp = ElemSymExpansion(2, f3, lams)
    assert serialize(exp) == [[1], [0], [2]]
