"""Exact arithmetic in F_p, F_{p^k} and F_{p^{2k}}, arranged as a two-level tower.

Elements are residues modulo a monic irreducible, kept in the kernel's stored
form: one int with a byte-aligned slot per power of t, so every operation is
exact and runs on the int; coefficient vectors appear only at the text and
JSON boundary (``FieldElem.coeffs``, ``FieldSpec.from_coeffs``). Moduli are
found by a deterministic search (ascending integer encoding sum(c_i p^i),
first irreducible wins) and recorded in the FieldSpec, which makes every
serialized artifact portable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterator

from ipsforge import _kernel as kn
from ipsforge.errors import (
    BudgetExceeded,
    DegenerateTower,
    LevelMismatch,
    ParseError,
    ZeroInverse,
)

BASE = "base"
EXT = "ext"


# ---------------------------------------------------------------------------
# primality and irreducibility (modulus search)

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least n that is a strong pseudoprime to every base in _MR_BASES
# (Sorenson & Webster, Math. Comp. 2017): every smaller n is decided exactly.
MR_BOUND = 3317044064679887385961981

# The largest field order, in bits, that a FieldSpec accepts. It bounds the
# work of the irreducibility test on untrusted headers, and admits every prime
# below MR_BOUND as well as GF(13^24), the largest field in use (about 2^89).
FIELD_BITS = 128


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n < MR_BOUND (about
    3.3e24). Raises ValueError at or above it, where the bases prove
    nothing."""
    if n >= MR_BOUND:
        raise ValueError(f"{n} is beyond the proven primality bound {MR_BOUND}")
    if n < 2:
        return False
    for sp in _MR_BASES:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_irreducible(modulus: tuple[int, ...], p: int, k: int) -> bool:
    """Rabin's test (SIAM J. Comput. 1980) for the monic f = modulus of
    degree k, by the kernel's arithmetic in R = F_p[t]/(f).

    f is irreducible iff t^(p^k) = t in R and, for every prime q | k,
    t^(p^(k/q)) - t is a unit of R. Once t^(p^k) = t holds, f divides
    t^(p^k) - t, the product of the distinct monic irreducibles of degree
    dividing k; so R is a product of fields F_{p^d} with d | k, and u is a
    unit iff u^(p^k - 1) = 1, which stands in for gcd(u, f) = 1.
    """
    if k == 1:
        return True
    t = 1 << 8 * kn.cell_bytes(p)  # stored t
    if kn.vpow(t, p ** k, p, modulus) != t:
        return False
    for q in range(2, k + 1):
        if k % q == 0 and is_prime(q):
            u = kn.vsub(kn.vpow(t, p ** (k // q), p, modulus), t, p, modulus)
            if kn.vpow(u, p ** k - 1, p, modulus) != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# field specs

class _ReducibleModulus(ValueError):
    """The modulus of a FieldSpec factors over F_p."""


def _check_order(p: int, k: int) -> None:
    """BudgetExceeded unless p^k has at most FIELD_BITS bits. A k of
    FIELD_BITS or more is over already, and is caught before p^k is formed."""
    if k >= FIELD_BITS or (p ** k).bit_length() > FIELD_BITS:
        raise BudgetExceeded(f"GF({p}^{k}) has more than 2^{FIELD_BITS} elements")


@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_{p^k} presented as F_p[t]/(modulus)."""

    p: int
    k: int
    modulus: tuple[int, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.k < 1:
            raise ValueError("extension degree must be >= 1")
        _check_order(self.p, self.k)
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree exactly k")
        if any(not 0 <= c < self.p for c in self.modulus):
            raise ValueError("modulus coefficients must be reduced mod p")
        if not _is_irreducible(self.modulus, self.p, self.k):
            raise _ReducibleModulus("modulus is reducible")

    @property
    def order(self) -> int:
        return self.p ** self.k

    # -- element constructors ------------------------------------------------

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def gen(self) -> "FieldElem":
        """The residue class of t (equals 0 when k = 1)."""
        if self.k == 1:
            return self.zero()
        return FieldElem(self, 1 << 8 * kn.cell_bytes(self.p))

    def from_int(self, n: int) -> "FieldElem":
        """Prime-subfield constant n mod p."""
        return FieldElem(self, n % self.p)

    def from_coeffs(self, coeffs) -> "FieldElem":
        """The element with coefficient vector coeffs (c0 first), each of
        the k entries in [0, p); inverse of FieldElem.coeffs."""
        return FieldElem(self, kn.pack(coeffs, kn.cell_bytes(self.p)))

    def from_encoding(self, m: int) -> "FieldElem":
        """Element with coefficient vector = base-p digits of m (c0 first)."""
        if not 0 <= m < self.order:
            raise ValueError("encoding out of range")
        c = []
        for _ in range(self.k):
            c.append(m % self.p)
            m //= self.p
        return self.from_coeffs(c)

    def elements(self) -> Iterator["FieldElem"]:
        """All field elements in ascending encoding order."""
        for m in range(self.order):
            yield self.from_encoding(m)

    def sample(self, rng) -> "FieldElem":
        return self.from_coeffs([rng.randrange(self.p) for _ in range(self.k)])

    def text(self) -> str:
        return f"GF({self.p}^{self.k}){{modulus={','.join(map(str, self.modulus))}}}"


def _binomial_can_be_irreducible(p: int, k: int) -> bool:
    """Whether some t^k - a can be irreducible over F_p: only if every prime
    r | k divides p - 1, and p = 1 mod 4 when 4 | k (Lidl & Niederreiter,
    Finite Fields, Thm 3.75)."""
    return (all((p - 1) % r == 0 for r in range(2, k + 1) if k % r == 0 and is_prime(r))
            and (k % 4 != 0 or p % 4 == 1))


@lru_cache(maxsize=None)
def field_spec(p: int, k: int) -> FieldSpec:
    """F_{p^k} with the first irreducible modulus in encoding order. For
    k >= 2 a modulus with constant term 0 has the factor t and is skipped,
    and so are the binomials t^k + c (the encodings below p) when none of
    them can be irreducible; FieldSpec's own check tests every other
    candidate. Irreducibles of every degree exist, so a search that passes
    all p^k encodings means the kernel's arithmetic is wrong."""
    _check_order(p, k)  # before any candidate, whose tuple has k entries
    for m in range(0 if _binomial_can_be_irreducible(p, k) else p, p ** k):
        tail = tuple(m // p ** i % p for i in range(k))  # base-p digits of m
        if k < 2 or tail[0]:
            try:
                return FieldSpec(p, k, tail + (1,))
            except _ReducibleModulus:
                continue
    raise AssertionError(f"no irreducible modulus of degree {k} over F_{p}")


_FIELD_TEXT = re.compile(r"GF\((\d+)(?:\^(\d+))?\)\{modulus=(\d+(?:,\d+)*)\}")


def parse_field_spec(text: str) -> FieldSpec:
    """Inverse of FieldSpec.text()."""
    m = _FIELD_TEXT.fullmatch(text)
    if m is None:
        raise ParseError(f"bad field spec {text!r}")
    p, k, modulus = m.groups()
    try:
        return FieldSpec(int(p), int(k or 1), tuple(map(int, modulus.split(","))))
    except ValueError as exc:
        raise ParseError(f"bad field spec {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# field elements

class FieldElem:
    """Immutable element of a FieldSpec field; a thin wrapper over the
    kernel's stored int ``v`` so arithmetic stays kernel-backed."""

    __slots__ = ("spec", "v")

    def __init__(self, spec: FieldSpec, v: int):
        self.spec = spec
        self.v = v

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficient vector c0, ..., c_{k-1} of the stored int."""
        return kn.unpack(self.v, self.spec.k, kn.cell_bytes(self.spec.p))

    # -- helpers --------------------------------------------------------------

    def _check(self, other: "FieldElem") -> None:
        if self.spec is not other.spec and self.spec != other.spec:
            raise LevelMismatch(
                f"cannot combine {self.spec.text()} with {other.spec.text()}"
            )

    def is_zero(self) -> bool:
        return not self.v

    def encoding(self) -> int:
        m = 0
        for c in reversed(self.coeffs):
            m = m * self.spec.p + c
        return m

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return FieldElem(self.spec, kn.vadd(self.v, other.v, self.spec.p, self.spec.modulus))

    def __sub__(self, other):
        self._check(other)
        return FieldElem(self.spec, kn.vsub(self.v, other.v, self.spec.p, self.spec.modulus))

    def __neg__(self):
        return FieldElem(self.spec, kn.vneg(self.v, self.spec.p, self.spec.modulus))

    def __mul__(self, other):
        self._check(other)
        return FieldElem(self.spec, kn.vmul(self.v, other.v, self.spec.p, self.spec.modulus))

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        return FieldElem(self.spec, kn.vpow(self.v, e, self.spec.p, self.spec.modulus))

    def __truediv__(self, other):
        return self * other.inv()

    def inv(self) -> "FieldElem":
        try:
            return FieldElem(self.spec, kn.vinv(self.v, self.spec.p, self.spec.modulus))
        except ZeroDivisionError:
            raise ZeroInverse("inverse of 0") from None

    def frobenius(self, j: int) -> "FieldElem":
        """a^(p^j); the identity when j is a multiple of the field degree."""
        if j < 0:
            raise ValueError("iteration count must be >= 0")
        j %= self.spec.k
        if j == 0:
            return self
        return self ** (self.spec.p ** j)

    # -- dunder plumbing --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and self.spec == other.spec
            and self.v == other.v
        )

    def __hash__(self):
        return hash((self.spec.p, self.spec.k, self.v))

    def __repr__(self):
        return f"FieldElem(GF({self.spec.p}^{self.spec.k}), {list(self.coeffs)})"

    def __bool__(self):
        return not self.is_zero()


# ---------------------------------------------------------------------------
# univariate polynomials over a FieldSpec (root finding for the embedding)

def _u_trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def _u_monic(c, spec):
    lead_inv = kn.vinv(c[-1], spec.p, spec.modulus)
    return [kn.vmul(x, lead_inv, spec.p, spec.modulus) for x in c]


def _u_mul(a, b, spec):
    p, mod = spec.p, spec.modulus
    conv = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] = kn.vadd(conv[i + j], kn.vmul(ai, bj, p, mod), p, mod)
    return _u_trim(conv)


def _u_mod(a, f, spec):
    p, mod = spec.p, spec.modulus
    r = list(a)
    df = len(f) - 1
    while len(r) - 1 >= df and r:
        c = r[-1]
        if c:
            shift = len(r) - 1 - df
            for j in range(df + 1):
                r[shift + j] = kn.vsub(r[shift + j], kn.vmul(c, f[j], p, mod), p, mod)
        r.pop()
        _u_trim(r)
    return r


def _u_powmod(a, e: int, f, spec):
    """a^e mod f for e >= 1. The result starts as the power of a at the
    lowest set bit of e, not as 1, so a^2 costs one squaring."""
    result = None
    while True:
        if e & 1:
            result = a if result is None else _u_mod(_u_mul(result, a, spec), f, spec)
        e >>= 1
        if not e:
            return result
        a = _u_mod(_u_mul(a, a, spec), f, spec)


def _u_gcd(a, b, spec):
    a, b = _u_trim(list(a)), _u_trim(list(b))
    while b:
        b = _u_monic(b, spec)
        a = _u_mod(a, b, spec)
        a, b = b, a
    return a


def _u_add(a, b, spec):
    n = max(len(a), len(b))
    return _u_trim([kn.vadd(a[i] if i < len(a) else 0, b[i] if i < len(b) else 0,
                            spec.p, spec.modulus) for i in range(n)])


def _split(f, spec):
    """A proper monic factor of the monic f of degree >= 2 that splits into
    distinct linear factors over spec's field, by Berlekamp's trace sweep
    (Math. Comp. 1970).

    For a power-basis element delta, T = sum_{i<K} (delta X)^(p^i) mod f takes
    the value Tr(delta r) in F_p at each root r. The trace form is
    nondegenerate, so for any two roots some delta separates them; a delta
    whose T is constant separates none and is skipped (delta = 1 for the
    conjugates that field_tower splits). The factor is gcd(f, T) for p = 2,
    and for odd p gcd(f, (T + a)^((p-1)/2) - 1), the roots where T + a is a
    nonzero square: O(log p) work per shift a, and about half of all shifts
    separate two given traces.
    """
    p, k = spec.p, spec.k
    for b in range(k):
        delta = 1 << 8 * kn.cell_bytes(p) * b  # stored t^b
        term = trace = [0, delta]  # delta X, reduced as deg f >= 2
        for _ in range(k - 1):
            term = _u_powmod(term, p, f, spec)
            trace = _u_add(trace, term, spec)
        if len(trace) < 2:  # T is constant mod f: delta separates no roots
            continue
        for a in range(p):
            if p == 2:
                h = trace
            else:
                shifted = _u_add(trace, [a], spec)
                h = _u_add(_u_powmod(shifted, (p - 1) // 2, f, spec), [p - 1], spec)
            g = _u_gcd(f, h, spec)
            if 0 < len(g) - 1 < len(f) - 1:
                return _u_monic(g, spec)
    raise AssertionError("trace sweep failed to split")  # unreachable


def _least_root(modulus: tuple[int, ...], spec: FieldSpec) -> FieldElem:
    """The least-encoding root, in spec's field, of a monic polynomial over
    F_p that is irreducible over F_p and whose degree d divides spec.k.

    Such a polynomial splits into distinct linear factors over the field,
    and its roots are the d Frobenius conjugates r, r^p, ..., r^(p^(d-1)) of
    any one root r. So one root is enough: split f, keep the factor until
    it is linear, then take the least of that root's conjugates.
    """
    p, mod, d = spec.p, spec.modulus, len(modulus) - 1
    f = list(modulus)  # a constant c of F_p is stored as c
    while len(f) > 2:
        f = _split(f, spec)
    conjugates = [kn.vneg(f[0], p, mod)]
    for _ in range(d - 1):
        conjugates.append(kn.vpow(conjugates[-1], p, p, mod))
    return min((FieldElem(spec, r) for r in conjugates), key=FieldElem.encoding)


# ---------------------------------------------------------------------------
# the tower

@dataclass(frozen=True)
class FieldTower:
    """F_{p^k} inside F_{p^{2k}}, with the embedding fixed by the
    least-encoding root of the base modulus in the extension."""

    base: FieldSpec
    ext: FieldSpec
    embed_table: tuple[tuple[int, ...], ...]  # images of 1, t, t^2, ..., t^{k-1}

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def k(self) -> int:
        return self.base.k

    def embed(self, a: FieldElem) -> FieldElem:
        """sum_i c_i theta^i for a = sum_i c_i t^i, by the F_p-linear map
        embed_table, so no product counts toward the ext field's tables."""
        if a.spec != self.base:
            raise LevelMismatch("embed expects a base-level element")
        return self.ext.from_coeffs([sum(map(mul, a.coeffs, col)) % self.p
                                     for col in zip(*self.embed_table)])

    def is_in_subfield(self, a: FieldElem) -> bool:
        if a.spec != self.ext:
            raise LevelMismatch("is_in_subfield expects an ext-level element")
        return a.frobenius(self.k) == a

    def sample_beta(self, rng) -> FieldElem:
        """Uniform over the extension minus the embedded base field."""
        if self.ext.k == self.base.k:
            raise DegenerateTower("extension equals base")
        while True:
            a = self.ext.sample(rng)
            if not self.is_in_subfield(a):
                return a


@lru_cache(maxsize=None)
def field_tower(p: int, k: int) -> FieldTower:
    if k < 1:
        raise DegenerateTower("k may not be 0")
    base = field_spec(p, k)
    ext = field_spec(p, 2 * k)
    theta = _least_root(base.modulus, ext)
    table = [ext.one()]
    for _ in range(k - 1):
        table.append(table[-1] * theta)
    return FieldTower(base, ext, tuple(e.coeffs for e in table))
