import itertools
import math
import random
import time

import pytest

from ipsforge import gf
from ipsforge.errors import (
    BudgetExceeded,
    DegenerateTower,
    LevelMismatch,
    ParseError,
    ZeroInverse,
)


def test_f4_multiplication_table():
    f4 = gf.field_spec(2, 2)
    t = f4.gen()
    one = f4.one()
    assert t * (t + one) == one
    assert one * t == t


def test_inv_by_exhaustive_search():
    f4 = gf.field_spec(2, 2)
    t = f4.gen()
    candidates = [b for b in f4.elements() if t * b == f4.one()]
    assert candidates == [t.inv()]
    assert t.inv() == t + f4.one()


def test_inv_of_zero_raises():
    f9 = gf.field_spec(3, 2)
    with pytest.raises(ZeroInverse):
        f9.zero().inv()


def test_level_mismatch():
    a = gf.field_spec(2, 2).one()
    b = gf.field_spec(2, 3).one()
    with pytest.raises(LevelMismatch):
        a + b


@pytest.mark.parametrize("p,k", [(2, 1), (2, 4), (3, 2), (5, 2), (7, 1)])
def test_inv_equals_power_q_minus_2_exhaustive(p, k):
    spec = gf.field_spec(p, k)
    q = spec.order
    for a in spec.elements():
        if not a.is_zero():
            assert a.inv() == a ** (q - 2)


@pytest.mark.parametrize("p,k", [(2, 10), (3, 5), (5, 3), (31, 1)])
def test_multiplicative_order_divides_q_minus_1(p, k):
    spec = gf.field_spec(p, k)
    q = spec.order
    assert q <= 1 << 10
    for a in spec.elements():
        if not a.is_zero():
            assert a ** (q - 1) == spec.one()


def test_multiplicative_order_sampled_large_field():
    spec = gf.field_spec(2, 12)
    rng = random.Random(8)
    for _ in range(100):
        a = spec.sample(rng)
        if not a.is_zero():
            assert a ** (spec.order - 1) == spec.one()


def test_freshmans_dream_thousand_pairs():
    rng = random.Random(5)
    for spec in (gf.field_spec(2, 8), gf.field_spec(3, 4), gf.field_spec(5, 3)):
        p = spec.p
        for _ in range(340):
            a, b = spec.sample(rng), spec.sample(rng)
            assert (a + b) ** p == a ** p + b ** p


def test_frobenius_examples():
    f4 = gf.field_spec(2, 2)
    t = f4.gen()
    assert t.frobenius(1) == t + f4.one()  # t^2 mod t^2+t+1
    assert t.frobenius(0) == t


def test_frobenius_is_automorphism():
    rng = random.Random(6)
    spec = gf.field_spec(3, 4)
    for _ in range(200):
        a, b = spec.sample(rng), spec.sample(rng)
        j = rng.randrange(5)
        assert (a * b).frobenius(j) == a.frobenius(j) * b.frobenius(j)
        assert (a + b).frobenius(j) == a.frobenius(j) + b.frobenius(j)


def test_modulus_is_deterministic_and_recorded():
    s1 = gf.field_spec(2, 3)
    s2 = gf.field_spec(2, 3)
    assert s1.modulus == s2.modulus
    text = s1.text()
    assert gf.parse_field_spec(text) == s1


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        gf.FieldSpec(2, 2, (0, 0, 1))  # t^2 is reducible
    with pytest.raises(ValueError):
        gf.FieldSpec(4, 1, (0, 1))  # 4 is not prime


def _monics(p, d):
    """Every monic polynomial of degree d over F_p, low coefficient first."""
    for tail in itertools.product(range(p), repeat=d):
        yield tail + (1,)


def _divides(g, f, p):
    """True iff the monic g divides f over F_p, by long division."""
    r = list(f)
    dg = len(g) - 1
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        if c:
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return not any(r[:dg])


def _irreducible_by_trial_division(f, p, k):
    return not any(_divides(g, f, p)
                   for d in range(1, k // 2 + 1) for g in _monics(p, d))


@pytest.mark.parametrize("p, k", [(2, k) for k in range(2, 9)]
                         + [(3, k) for k in range(2, 6)]
                         + [(5, 2), (5, 3), (7, 2)])
def test_is_irreducible_matches_trial_division(p, k):
    for f in _monics(p, k):
        assert gf._is_irreducible(f, p, k) == _irreducible_by_trial_division(f, p, k), f


# where the search starts: p when Lidl & Niederreiter's Thm 3.75 rules out
# every binomial t^k + c (always for p = 2, since t + 1 divides t^k + 1; for
# 4 | k with p = 3 mod 4; for a prime r | k not dividing p - 1), else 0
SEARCH_STARTS = {(2, 12): 2, (7, 4): 7, (5, 3): 5, (13, 4): 0, (7, 3): 0}


def test_field_spec_tests_each_candidate_once(monkeypatch):
    """The modulus search calls the irreducibility test once per candidate:
    every encoding with a nonzero constant term up to the winner's that the
    theorem does not rule out."""
    calls = []
    real = gf._is_irreducible

    def counting(modulus, p, k):
        calls.append(modulus)
        return real(modulus, p, k)

    monkeypatch.setattr(gf, "_is_irreducible", counting)
    for (p, k), start in SEARCH_STARTS.items():
        calls.clear()
        spec = gf.field_spec.__wrapped__(p, k)  # bypass the cache
        winner = sum(c * p ** i for i, c in enumerate(spec.modulus[:-1]))
        assert calls == [tuple(m // p ** i % p for i in range(k)) + (1,)
                         for m in range(start, winner + 1) if m % p], (p, k)


def test_field_spec_search_ends_past_every_encoding(monkeypatch):
    """A kernel that rejects every candidate (a wrong product does) makes the
    search raise an internal error after the p^k encodings, not run on."""
    calls = []

    def never(modulus, p, k):
        calls.append(modulus)
        return False

    monkeypatch.setattr(gf, "_is_irreducible", never)
    with pytest.raises(AssertionError):
        gf.field_spec.__wrapped__(3, 3)  # bypass the cache
    # every encoding with a nonzero constant term but the binomials t^3 + 1, t^3 + 2
    assert len(calls) == 3 ** 3 - 3 ** 2 - 2


@pytest.mark.parametrize("p, k", [(2, k) for k in range(2, 7)]
                         + [(3, k) for k in range(2, 7)]
                         + [(5, k) for k in range(2, 6)]
                         + [(7, k) for k in range(2, 5)] + [(13, 2), (13, 3), (13, 4)])
def test_binomial_skip_is_sound(p, k):
    """When the search skips the binomials, none of them is irreducible."""
    binomials = [(c,) + (0,) * (k - 1) + (1,) for c in range(1, p)]
    any_irreducible = any(_irreducible_by_trial_division(f, p, k) for f in binomials)
    assert any_irreducible <= gf._binomial_can_be_irreducible(p, k)


@pytest.mark.parametrize("p, k", [(1000003, 4), (65537, 3)])
def test_field_spec_with_no_irreducible_binomial_is_fast(monkeypatch, p, k):
    """Skipping the p - 1 binomials keeps the search short for a large p;
    a search that tests them fails here after 1000 candidates, not after
    about p."""
    real = gf._is_irreducible
    calls = []

    def bounded(modulus, p, k):
        calls.append(modulus)
        assert len(calls) <= 1000, "the search is testing the binomials"
        return real(modulus, p, k)

    monkeypatch.setattr(gf, "_is_irreducible", bounded)
    start = time.perf_counter()
    spec = gf.field_spec.__wrapped__(p, k)
    assert time.perf_counter() - start < 1.0
    assert any(spec.modulus[1:k])  # not a binomial


def test_field_order_bound():
    with pytest.raises(BudgetExceeded):
        gf.FieldSpec(2, 5000, (1,) + (0,) * 4999 + (1,))
    with pytest.raises(BudgetExceeded):
        gf.field_spec.__wrapped__(2, gf.FIELD_BITS + 1)
    # the p = 2 vmul's byte slots hold at most k bit products, so they never
    # carry while this cap keeps k below 256
    with pytest.raises(BudgetExceeded):
        gf.field_spec.__wrapped__(2, gf.FIELD_BITS)
    with pytest.raises(BudgetExceeded):
        gf.field_spec.__wrapped__(3, 81)  # 3^81 is about 2^128.4
    with pytest.raises(BudgetExceeded):
        gf.parse_field_spec("GF(2^5000){modulus=1," + "0," * 4999 + "1}")
    # the largest field in use, and primes up to the primality bound
    assert gf.field_spec(13, 24).order.bit_length() <= gf.FIELD_BITS
    p = next(q for q in range(gf.MR_BOUND - 2, 0, -2) if gf.is_prime(q))
    assert gf.FieldSpec(p, 1, (0, 1)).order == p


@pytest.mark.parametrize("text", [
    "GF(2^3)))){modulus=1,1,0,1}", "GF(2^3){modulus=1,1,0,1}}", "GF(2^3{modulus=1,1,0,1}",
    "gf(2^3){modulus=1,1,0,1}", "GF(2^3){modulus=1,-1,0,1}", "GF(2^3){modulus=}",
    " GF(2^3){modulus=1,1,0,1}", "GF(2^3){modulus=1,1,0,1} ", "GF(2^^3){modulus=1,1,0,1}",
])
def test_parse_field_spec_rejects_malformed_text(text):
    assert gf.parse_field_spec("GF(2^3){modulus=1,1,0,1}") == gf.field_spec(2, 3)
    with pytest.raises(ParseError):
        gf.parse_field_spec(text)


def test_is_prime_rejects_strong_pseudoprime_to_bases_below_41():
    # 399165290221 * 798330580441, a strong pseudoprime to every base up to 37
    n = 318665857834031151167461
    assert not gf.is_prime(n)
    with pytest.raises(ValueError):
        gf.FieldSpec(n, 1, (0, 1))
    with pytest.raises(ParseError):
        gf.parse_field_spec(f"GF({n}){{modulus=0,1}}")


def test_is_prime_small_and_near_bound():
    assert [n for n in range(50) if gf.is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert gf.is_prime((1 << 61) - 1)
    assert not gf.is_prime(((1 << 61) - 1) * ((1 << 19) - 1))  # about 1.2e24
    with pytest.raises(ValueError, match="proven primality bound"):
        gf.is_prime(gf.MR_BOUND)


class TestTower:
    def test_embedding_is_ring_homomorphism(self):
        tower = gf.field_tower(3, 2)
        rng = random.Random(1)
        for _ in range(150):
            a, b = tower.base.sample(rng), tower.base.sample(rng)
            assert tower.embed(a + b) == tower.embed(a) + tower.embed(b)
            assert tower.embed(a * b) == tower.embed(a) * tower.embed(b)
        assert tower.embed(tower.base.zero()).is_zero()
        assert tower.embed(tower.base.one()) == tower.ext.one()

    def test_embedding_injective_small(self):
        tower = gf.field_tower(2, 2)
        images = {tower.embed(a).coeffs for a in tower.base.elements()}
        assert len(images) == tower.base.order

    def test_subfield_membership_via_frobenius(self):
        tower = gf.field_tower(2, 2)
        members = [a for a in tower.ext.elements() if tower.is_in_subfield(a)]
        assert len(members) == tower.base.order
        embedded = {tower.embed(a) for a in tower.base.elements()}
        assert set(members) == embedded

    def test_f2_in_f4_generator_outside(self):
        tower = gf.field_tower(2, 1)
        t = tower.ext.gen()
        assert not tower.is_in_subfield(t)
        assert t.frobenius(1) != t

    def test_embedded_elements_fixed_by_frobenius_k(self):
        tower = gf.field_tower(2, 3)
        rng = random.Random(9)
        for _ in range(100):
            a = tower.base.sample(rng)
            e = tower.embed(a)
            assert e.frobenius(tower.k) == e
            assert tower.is_in_subfield(e)

    def test_sample_beta_outside_subfield(self):
        tower = gf.field_tower(2, 2)
        rng = random.Random(3)
        for _ in range(50):
            beta = tower.sample_beta(rng)
            assert not tower.is_in_subfield(beta)

    def test_sample_beta_f4_over_f2(self):
        tower = gf.field_tower(2, 1)
        t = tower.ext.gen()
        rng = random.Random(7)
        draws = {tower.sample_beta(rng) for _ in range(40)}
        assert draws == {t, t + tower.ext.one()}

    def test_degenerate_tower_rejected(self):
        with pytest.raises(DegenerateTower):
            gf.field_tower(2, 0)
        spec = gf.field_spec(2, 2)
        broken = gf.FieldTower(spec, spec, ((1, 0),))
        with pytest.raises(DegenerateTower):
            broken.sample_beta(random.Random(0))


@pytest.mark.parametrize("p, k", [(p, k) for p in (2, 3, 5, 7, 11, 13)
                                  for k in range(2, 7) if p ** (2 * k) <= 5000])
def test_embedding_is_least_root_of_base_modulus(p, k):
    """embed_table[1] is the least-encoding root of the base modulus, found
    by evaluating it at every element of the extension."""
    tower = gf.field_tower(p, k)
    ext = tower.ext

    def at(a):
        acc = ext.zero()
        for c in reversed(tower.base.modulus):
            acc = acc * a + ext.from_int(c)
        return acc

    least = next(a for a in ext.elements() if at(a).is_zero())
    assert tower.embed_table[1] == least.coeffs


@pytest.mark.parametrize("p, k", [(2, 8), (2, 12), (3, 6), (5, 4), (7, 4), (13, 4)])
def test_embedding_is_least_of_its_conjugates(p, k):
    """Beyond brute-force range: embed_table[1] is a root of the base
    modulus, its k Frobenius conjugates are distinct (so they are all k
    roots), and it has the least encoding among them."""
    tower = gf.field_tower(p, k)
    ext = tower.ext
    theta = ext.from_coeffs(tower.embed_table[1])
    acc = ext.zero()
    for c in reversed(tower.base.modulus):
        acc = acc * theta + ext.from_int(c)
    assert acc.is_zero()
    conjugates = [theta.frobenius(j) for j in range(k)]
    assert len({c.encoding() for c in conjugates}) == k
    assert theta.encoding() == min(c.encoding() for c in conjugates)


def test_sample_reproducible():
    spec = gf.field_spec(2, 4)
    a = spec.sample(random.Random(42))
    b = spec.sample(random.Random(42))
    assert a == b


def test_sample_uniformity_chi_square():
    # 10^4 draws over F_8; each count within 5 sigma of the uniform mean
    spec = gf.field_spec(2, 3)
    rng = random.Random(11)
    counts = {a.coeffs: 0 for a in spec.elements()}
    draws = 10_000
    for _ in range(draws):
        counts[spec.sample(rng).coeffs] += 1
    mean = draws / spec.order
    sigma = math.sqrt(draws * (1 / spec.order) * (1 - 1 / spec.order))
    for c in counts.values():
        assert abs(c - mean) <= 5 * sigma


@pytest.mark.parametrize("p", [1048573, 2147483629])
def test_tower_over_a_large_prime_builds_fast(p):
    """Root finding costs O(log p) per split attempt, not O(p): the tower
    over a prime near 2^20 or 2^31 builds in well under a second, and its
    embedding sends t to the least-encoding root of the base modulus,
    whose other root is its Frobenius conjugate."""
    start = time.perf_counter()
    tower = gf.field_tower(p, 2)
    assert time.perf_counter() - start < 1.0
    theta = tower.ext.from_coeffs(tower.embed_table[1])
    acc = tower.ext.zero()
    for c in reversed(tower.base.modulus):
        acc = acc * theta + tower.ext.from_int(c)
    assert acc.is_zero()
    assert theta.encoding() < theta.frobenius(1).encoding()
