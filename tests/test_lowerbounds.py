import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ipsforge import exactla, gf
from ipsforge.errors import BudgetExceeded, ZeroDenominator
from ipsforge.lowerbounds import (
    alternating_cube_sum,
    coefficient_rank,
    degree_trial,
    eval_dimension,
    lifted_instance,
    ml_inverse,
    ml_reciprocal,
    numerator_monomial_check,
    restricted_degree_scan,
    roabp_width,
    sparsity_probe,
    top_coeff,
)
from ipsforge.mvpoly import Poly, interpolate_table, ml

from conftest import eval_cube_point, rand_poly, restricted, restriction_assignment


class TestMlInverse:
    def test_product_is_one_mod_cube(self):
        tower = gf.field_tower(2, 3)
        rng = random.Random(1)
        for n in (1, 3, 5):
            alphas = [tower.base.sample(rng) for _ in range(n)]
            beta = tower.sample_beta(rng)
            f = ml_inverse(alphas, beta, tower)
            assert f.is_multilinear()
            terms = {tuple(1 if v == i else 0 for v in range(n)): tower.embed(a)
                     for i, a in enumerate(alphas) if not a.is_zero()}
            L = Poly(n, tower.ext, terms) + Poly.const(n, tower.ext, -beta)
            assert ml(f * L) == Poly.one(n, tower.ext)

    def test_n0_constant(self):
        tower = gf.field_tower(2, 1)
        t = tower.ext.gen()
        f = ml_inverse([], t)
        assert f == Poly.const(0, tower.ext, (-t).inv())

    def test_two_point_interpolation_f4(self):
        tower = gf.field_tower(2, 1)
        ext = tower.ext
        t = ext.gen()
        f = ml_inverse([tower.base.one()], t, tower)
        # values 1/(0 - t) and 1/(1 - t)
        assert eval_cube_point(f, 0) == (-t).inv()
        assert eval_cube_point(f, 1) == (ext.one() - t).inv()
        L = Poly.var(1, ext, 0) + Poly.const(1, ext, -t)
        assert ml(f * L) == Poly.one(1, ext)

    def test_zero_denominator(self, f9):
        # beta reachable: alphas in the same field with beta = alpha sum
        alphas = [f9.one(), f9.one()]
        with pytest.raises(ZeroDenominator):
            ml_inverse(alphas, f9.from_int(2))

    def test_degree_bound_when_beta_in_base(self, f9):
        # coefficients all in one field: deg <= k(p-1)
        from ipsforge import generators

        rng = random.Random(2)
        for n in (3, 5):
            inst = generators.linear_base(f9, n, rng)
            from ipsforge.certificates import _linear_parts

            alphas, beta = _linear_parts(inst.axioms[0])
            f = ml_inverse(alphas, beta)
            assert f.degree() <= 2 * (3 - 1)


@st.composite
def nonlinear_polys(draw):
    """A random polynomial in up to 5 variables with exponents up to 3, over a
    field large enough that most draws have no cube zero."""
    p, k = draw(st.sampled_from([(2, 8), (3, 4), (5, 3), (13, 2)]))
    field = gf.field_spec(p, k)
    n = draw(st.integers(0, 5))
    exps = st.tuples(*[st.integers(0, 3) for _ in range(n)])
    coeffs = st.tuples(*[st.integers(0, p - 1) for _ in range(k)])
    terms = draw(st.dictionaries(exps, coeffs, min_size=1, max_size=10))
    return Poly(n, field, {e: field.from_coeffs(c) for e, c in terms.items()})


class TestMlReciprocal:
    @settings(max_examples=80, deadline=None)
    @given(nonlinear_polys())
    def test_reciprocal_on_every_cube_point(self, f):
        values = [eval_cube_point(f, m) for m in range(1 << f.n)]
        assume(all(not v.is_zero() for v in values))
        g = ml_reciprocal(f)
        assert g.is_multilinear()
        one = f.field.one()
        assert all(eval_cube_point(g, m) * v == one for m, v in enumerate(values))

    @settings(max_examples=60, deadline=None)
    @given(nonlinear_polys())
    def test_matches_pointwise_inverse(self, f):
        """The batch inversion on stored cells gives what one inv() per point
        and interpolate_table give."""
        values = [eval_cube_point(f, m) for m in range(1 << f.n)]
        assume(all(not v.is_zero() for v in values))
        expected = interpolate_table([v.inv().v for v in values],
                                     f.n, f.field)
        assert ml_reciprocal(f) == expected

    @settings(max_examples=40, deadline=None)
    @given(nonlinear_polys(), st.data())
    def test_cube_zero_raises(self, f, data):
        mask = data.draw(st.integers(0, (1 << f.n) - 1))
        g = f - Poly.const(f.n, f.field, eval_cube_point(f, mask))
        with pytest.raises(ZeroDenominator):
            ml_reciprocal(g)

    @pytest.mark.parametrize("p,k", [(5, 1), (2, 12), (3, 4), (2, 24)])
    def test_zero_names_the_first_zero_mask(self, p, k):
        """x1 + x2 + x3 - 2 vanishes at the masks 0b011, 0b101 and 0b110; in
        characteristic 2, x1 + x2 + x3 + 1 at 0b001, 0b010, 0b100 and 0b111."""
        fld = gf.field_spec(p, k)
        f = Poly(3, fld, {(1, 0, 0): fld.one(), (0, 1, 0): fld.one(), (0, 0, 1): fld.one(),
                          (0, 0, 0): fld.one() if p == 2 else -fld.from_int(2)})
        first = "1" if p == 2 else "11"
        with pytest.raises(ZeroDenominator, match=f"at mask {first}$"):
            ml_reciprocal(f)


class TestTopCoeff:
    def test_three_way_agreement(self):
        rng = random.Random(3)
        for tower in (gf.field_tower(2, 5), gf.field_tower(3, 3)):
            for n in range(1, 7):
                alphas = [tower.base.sample(rng) for _ in range(n)]
                beta = tower.sample_beta(rng)
                rep = top_coeff(alphas, beta, tower)
                assert rep.agree

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([(2, 4), (2, 9), (3, 2), (5, 3), (13, 1), (257, 1)]),
           st.integers(0, 6), st.integers(0, 2 ** 32))
    def test_agreement_on_random_instances(self, pk, n, seed):
        tower = gf.field_tower(*pk)
        rng = random.Random(seed)
        alphas = [tower.base.sample(rng) for _ in range(n)]
        beta = tower.sample_beta(rng)
        assert top_coeff(alphas, beta, tower).agree

    def test_n1_direct_fractions(self):
        tower = gf.field_tower(3, 2)
        rng = random.Random(4)
        alpha = tower.base.sample(rng)
        beta = tower.sample_beta(rng)
        rep = top_coeff([alpha], beta, tower)
        a, b = tower.embed(alpha), beta
        assert rep.rational_sum == (a - b).inv() - (-b).inv()

    def test_generic_nonzero(self):
        tower = gf.field_tower(2, 10)
        rng = random.Random(5)
        for n in (2, 4, 6, 8):
            alphas = [tower.base.sample(rng) for _ in range(n)]
            beta = tower.sample_beta(rng)
            assert not top_coeff(alphas, beta, tower).interpolated.is_zero()

    def test_alternating_sum_utility_x1x2(self, f3):
        g = Poly.monomial(2, f3, (1, 1), f3.one())
        assert alternating_cube_sum(g) == f3.one()


class TestNumeratorClaim:
    def test_n1_trivial(self, f3):
        assert numerator_monomial_check(1, f3) == f3.one()

    def test_n2_three_factor_product(self, f9):
        assert numerator_monomial_check(2, f9) == f9.one()

    def test_n3_char2_survives(self, f2):
        assert numerator_monomial_check(3, f2) == f2.one()

    def test_independent_of_beta(self, f3):
        for enc in range(3):
            assert numerator_monomial_check(3, f3, beta=f3.from_encoding(enc)) == f3.one()

    def test_budget(self, f2):
        with pytest.raises(BudgetExceeded):
            numerator_monomial_check(6, f2)

    def test_brute_force_cross_check(self, f9):
        # expand the product symbolically and compare the coefficient
        n = 3
        beta = f9.gen()
        nvars = n
        prod = Poly.one(nvars, f9)
        for tmask in range(1, 1 << n):
            terms = {}
            for i in range(n):
                if (tmask >> i) & 1:
                    terms[tuple(1 if v == i else 0 for v in range(nvars))] = f9.one()
            factor = Poly(nvars, f9, terms) + Poly.const(nvars, f9, -beta)
            prod = prod * factor
        target = tuple(1 << i for i in range(n))
        assert prod.coeff(target) == numerator_monomial_check(n, f9, beta=beta)


class TestDegreeTrials:
    def test_report_against_bound(self):
        tower = gf.field_tower(2, 12)
        report = degree_trial(4, tower, 100, seed=1)
        assert report.passes()
        assert not report.vacuous
        assert report.parameters["seed"] == 1

    def test_scan_all_mode(self):
        tower = gf.field_tower(2, 12)
        report = degree_trial(3, tower, 20, seed=2, scan_all=True)
        assert report.bound_exact_union is not None
        assert report.bound_exact_union >= report.bound
        assert report.passes()

    def test_vacuous_bound_flagged(self):
        tower = gf.field_tower(2, 2)  # |S| = 4 <= 2^n - 1 for n = 3
        report = degree_trial(3, tower, 5, seed=3)
        assert report.vacuous
        assert report.passes()

    def test_deterministic_under_seed(self):
        tower = gf.field_tower(2, 8)
        r1 = degree_trial(3, tower, 30, seed=5)
        r2 = degree_trial(3, tower, 30, seed=5)
        assert r1.to_dict() == r2.to_dict()

    def test_scan_reports_crafted_failure(self):
        tower = gf.field_tower(2, 6)
        rng = random.Random(6)
        alphas = [tower.base.sample(rng) for _ in range(4)]
        alphas[2] = tower.base.zero()
        beta = tower.sample_beta(rng)
        scan = restricted_degree_scan(alphas, beta, tower)
        assert not scan.all_full
        assert (2,) in scan.failing
        assert scan.worst is not None and 2 in scan.worst

    @pytest.mark.parametrize("p, k", [(2, 1), (2, 2), (3, 1), (2, 3), (5, 1), (3, 2)])
    def test_scan_matches_one_inverse_per_restriction(self, p, k):
        """The scan reads every restriction off one full inverse; it must
        report what one ml_inverse per restriction reports, in the same
        order. Over F_2 and F_4 failures are common, so they are seen."""
        tower = gf.field_tower(p, k)
        rng = random.Random(f"scan:{p}:{k}")
        failures = 0
        for _ in range(25):
            n = rng.randint(0, 5)
            alphas = [tower.base.sample(rng) for _ in range(n)]
            beta = tower.sample_beta(rng)
            expected = [u for r in range(1, n + 1)
                        for u in itertools.combinations(range(n), r)
                        if ml_inverse([alphas[i] for i in u], beta, tower).degree() != r]
            scan = restricted_degree_scan(alphas, beta, tower)
            assert scan.failing == expected
            assert scan.checked == 2 ** n - 1
            assert scan.all_full == (not expected)
            assert scan.worst == max(expected, key=len, default=None)
            failures += bool(expected)
        if (p, k) in ((2, 1), (2, 2)):
            assert failures


class TestSparsityProbe:
    def test_n4_generic(self):
        tower = gf.field_tower(2, 8)
        rng = random.Random(7)
        alphas = [tower.base.sample(rng) for _ in range(4)]
        beta = tower.sample_beta(rng)
        sparsity, bound = sparsity_probe(alphas, beta, tower)
        assert bound == 1.0
        assert sparsity >= 1

    def test_n8_over_probes(self):
        tower = gf.field_tower(2, 12)
        rng = random.Random(8)
        for _ in range(5):
            alphas = [tower.base.sample(rng) for _ in range(8)]
            beta = tower.sample_beta(rng)
            sparsity, bound = sparsity_probe(alphas, beta, tower)
            assert sparsity >= bound == 2.0

    def test_n0(self):
        tower = gf.field_tower(2, 1)
        sparsity, bound = sparsity_probe([], tower.ext.gen(), tower)
        assert sparsity == 1


def dense_coefficient_rank(f, partition):
    """Nisan's coefficient matrix of f under (left, right) built in full, the
    tests' reference for coefficient_rank: rows and columns over every
    exponent vector up to f's largest individual degrees, a FieldElem grid
    with zero cells, and exactla.rank on its stored elements."""
    left, right = tuple(partition[0]), tuple(partition[1])
    max_deg = list(map(max, zip(*f.exponents()))) or [0] * f.n
    row_index = sorted(itertools.product(*(range(max_deg[i] + 1) for i in left)))
    col_index = sorted(itertools.product(*(range(max_deg[i] + 1) for i in right)))
    rows = {e: i for i, e in enumerate(row_index)}
    cols = {e: i for i, e in enumerate(col_index)}
    entries = [[f.field.zero()] * len(col_index) for _ in row_index]
    for e, c in f.items():
        entries[rows[tuple(e[i] for i in left)]][cols[tuple(e[i] for i in right)]] = c
    return exactla.rank([[c.v for c in row] for row in entries], f.field)


@st.composite
def partitioned_polys(draw):
    """(f, left, right, order): f of individual degree at most 2 in up to 5
    variables over a prime or an extension field, a random split of its
    variables and a random variable order."""
    fld = gf.field_spec(*draw(st.sampled_from([(2, 1), (5, 1), (3, 2), (2, 4)])))
    n = draw(st.integers(0, 5))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    elems = st.integers(0, fld.order - 1).map(fld.from_encoding)
    f = Poly(n, fld, draw(st.dictionaries(exps, elems, max_size=12)))
    left = draw(st.sets(st.integers(0, n - 1))) if n else set()
    order = draw(st.permutations(range(n)))
    return f, sorted(left), [i for i in range(n) if i not in left], order


class TestCoefficientMatrix:
    def test_diagonal_rank(self, f9):
        f = Poly.monomial(4, f9, (1, 0, 1, 0), f9.one()) \
            + Poly.monomial(4, f9, (0, 1, 0, 1), f9.one())
        assert coefficient_rank(f, ((0, 1), (2, 3))) == 2

    def test_transpose_invariance(self, f9, rng):
        for _ in range(10):
            f = rand_poly(4, f9, rng, 6, 1)
            r1 = coefficient_rank(f, ((0, 1), (2, 3)))
            r2 = coefficient_rank(f, ((2, 3), (0, 1)))
            assert r1 == r2

    def test_rank_one_iff_product(self, f9, rng):
        for _ in range(10):
            g = rand_poly(2, f9, rng, 3, 1)
            h = rand_poly(2, f9, rng, 3, 1)
            if g.is_zero() or h.is_zero():
                continue
            # f(x1,x2,y1,y2) = g(x) * h(y)
            terms = {}
            for (e1, c1) in g.items():
                for (e2, c2) in h.items():
                    terms[e1 + e2] = c1 * c2
            f = Poly(4, f9, terms)
            assert coefficient_rank(f, ((0, 1), (2, 3))) == 1

    def test_bad_partition(self, f9):
        with pytest.raises(ValueError):
            coefficient_rank(Poly.one(3, f9), ((0, 1), (1, 2)))

    @settings(max_examples=150, deadline=None)
    @given(partitioned_polys())
    def test_matches_dense_reference(self, case):
        """coefficient_rank, and every prefix cut of roabp_width, equal the
        rank of the full matrix, zero rows and columns included."""
        f, left, right, order = case
        assert coefficient_rank(f, (left, right)) == dense_coefficient_rank(f, (left, right))
        cuts = [dense_coefficient_rank(f, (order[:i], order[i:])) for i in range(1, f.n + 1)]
        assert roabp_width(f, order) == max(cuts, default=0)

    def test_wide_exponents(self, f9):
        """Exponents past one byte widen the keys; the ranks are unchanged."""
        f = Poly(3, f9, {(300, 1, 0): f9.one(), (0, 1, 1): f9.one(), (1, 0, 1): f9.one()})
        for left in ([0], [1], [0, 2], []):
            right = [i for i in range(3) if i not in left]
            assert coefficient_rank(f, (left, right)) == dense_coefficient_rank(f, (left, right))


class TestEvalDimension:
    def test_independent_of_right_side(self, f9):
        f = Poly.var(4, f9, 0) + Poly.var(4, f9, 1)
        assert eval_dimension(f, ((0, 1), (2, 3))) == 1

    def test_bounded_by_rank(self, f9, rng):
        for _ in range(10):
            f = rand_poly(4, f9, rng, 6, 1)
            ed = eval_dimension(f, ((0, 1), (2, 3)))
            assert ed <= coefficient_rank(f, ((0, 1), (2, 3)))

    def test_equality_when_domain_exceeds_degree(self, f9, rng):
        points = [f9.from_encoding(m) for m in range(3)]
        for _ in range(10):
            f = rand_poly(4, f9, rng, 5, 1)
            ed = eval_dimension(f, ((0, 1), (2, 3)), domain=points)
            assert ed == coefficient_rank(f, ((0, 1), (2, 3)))

    def test_lifted_inverse_full_dimension(self):
        tower = gf.field_tower(2, 8)
        inst = lifted_instance("fixed-order", 3, tower, random.Random(9))
        g = ml_reciprocal(inst.poly)
        assert eval_dimension(g, (inst.x_vars(), inst.y_vars())) == 8

    def test_restrictions_of_mixed_key_widths(self, f9):
        """f = x2 y2 + x1^300 y1: the restrictions x2 (one-byte keys),
        x1^300 and x1^300 + x2 (two-byte keys) span a plane."""
        one = f9.one()
        f = Poly(4, f9, {(0, 1, 0, 1): one, (300, 0, 1, 0): one})
        assert eval_dimension(f, ((0, 1), (2, 3))) == 2

    @pytest.mark.parametrize("right", [7, 8])
    def test_budget_counts_every_assignment(self, f9, monkeypatch, right):
        """A 3-point domain has 3^r right-side assignments: r = 7 (2,187)
        fits the default 2^12 budget, and r = 8 (6,561) is refused before
        any restriction is made. f = x1 + x_{r+1} restricts to x1 + b."""
        monkeypatch.delenv("IPSFORGE_BUDGET_N", raising=False)
        f = Poly.var(right + 1, f9, 0) + Poly.var(right + 1, f9, right)
        partition = ((0,), tuple(range(1, right + 1)))
        points = [f9.from_encoding(m) for m in range(3)]
        if right == 7:
            assert eval_dimension(f, partition, domain=points) == 2
            return
        monkeypatch.setattr(Poly, "restrict", lambda *args: pytest.fail("restricted"))
        with pytest.raises(BudgetExceeded, match="restriction enumeration"):
            eval_dimension(f, partition, domain=points)

    @pytest.mark.parametrize("partition", [((0,), (1,)), ((0, 1), (1,))],
                             ids=["misses-x3", "shares-x2"])
    def test_bad_partition(self, f9, partition):
        """f = x1 + x1 x3 + x2 x3: a partition that leaves out a variable or
        puts one on both sides is refused, as coefficient_rank refuses it."""
        one = f9.one()
        f = Poly(3, f9, {(1, 0, 0): one, (1, 0, 1): one, (0, 1, 1): one})
        with pytest.raises(ValueError):
            eval_dimension(f, partition)
        with pytest.raises(ValueError):
            coefficient_rank(f, partition)


class TestRoabpWidth:
    def test_full_product_width_one(self, f9):
        f = Poly.monomial(4, f9, (1, 1, 1, 1), f9.one())
        for order in ([0, 1, 2, 3], [2, 0, 3, 1]):
            assert roabp_width(f, order) == 1

    def test_width_is_order_sensitive(self, f9):
        # path x1x2 + x2x3 + x3x4: width 3 in the natural order, 2 after
        # swapping the middle variables
        terms = {}
        for i in range(3):
            e = [0] * 4
            e[i] = e[i + 1] = 1
            terms[tuple(e)] = f9.one()
        f = Poly(4, f9, terms)
        assert roabp_width(f, [0, 1, 2, 3]) == 3
        assert roabp_width(f, [0, 2, 1, 3]) == 2

    def test_width_at_least_every_cut(self, f9, rng):
        f = rand_poly(4, f9, rng, 6, 1)
        order = [0, 1, 2, 3]
        w = roabp_width(f, order)
        for i in range(1, 5):
            assert w >= coefficient_rank(f, (order[:i], order[i:]))

    def test_bad_order(self, f9):
        with pytest.raises(ValueError):
            roabp_width(Poly.one(2, f9), [0, 0])


def balanced_partitions(inst):
    """All balanced splits (u, v) of the x variables of an any-order
    instance, u ascending and containing x_1 (complement symmetry removed),
    each v ascending."""
    m = 2 * inst.nx
    for rest in itertools.combinations(range(1, m), inst.nx - 1):
        u = (0,) + rest
        yield u, tuple(i for i in range(m) if i not in u)


class TestLiftedInstances:
    def test_fixed_order_layout(self):
        tower = gf.field_tower(2, 4)
        inst = lifted_instance("fixed-order", 3, tower, random.Random(10))
        assert inst.n_vars == 6
        assert inst.var_names[:3] == ("x1", "x2", "x3")
        assert inst.var_names[3:] == ("y1", "y2", "y3")
        assert not tower.is_in_subfield(inst.beta)

    def test_any_order_assignments_are_boolean_with_n_ones(self):
        tower = gf.field_tower(2, 4)
        inst = lifted_instance("any-order", 3, tower, random.Random(11))
        for u, v in balanced_partitions(inst):
            assignment = restriction_assignment(inst, u, v)
            ones = sum(1 for val in assignment.values() if not val.is_zero())
            assert ones == 3
            assert all(val.coeffs[0] in (0, 1) and not any(val.coeffs[1:])
                       for val in assignment.values())

    def test_partition_count(self):
        tower = gf.field_tower(2, 4)
        inst = lifted_instance("any-order", 3, tower, random.Random(12))
        assert sum(1 for _ in balanced_partitions(inst)) == math.comb(6, 3) // 2

    def test_specialized_eval_dim_across_partitions(self):
        # n=2 keeps the sweep fast: every balanced partition reaches 2^n
        tower = gf.field_tower(2, 8)
        rng = random.Random(13)
        inst = lifted_instance("any-order", 2, tower, rng)
        full = 0
        total = 0
        for u, v in balanced_partitions(inst):
            restricted_poly = restricted(inst, u, v)
            # z variables are gone after substitution
            x_only = Poly(4, tower.ext, {e[:4]: c for e, c in restricted_poly.items()})
            values = [eval_cube_point(x_only, m) for m in range(1 << 4)]
            if any(val.is_zero() for val in values):
                continue
            g = ml_reciprocal(x_only)
            total += 1
            full += eval_dimension(g, (list(u), list(v))) == 4
        assert total > 0 and full == total

    def test_unknown_kind(self):
        tower = gf.field_tower(2, 2)
        with pytest.raises(ValueError):
            lifted_instance("sideways", 2, tower, random.Random(0))
