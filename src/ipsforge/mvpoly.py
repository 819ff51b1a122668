"""Sparse multivariate polynomials over a FieldSpec field: multilinearization,
division by Boolean/Fermat axioms, cube interpolation and the text grammar.

``Poly.terms`` maps packed monomial keys (an nb-byte exponent slot per
variable, nb the least that holds the largest exponent, so equal polynomials
have equal terms) to coefficients in the kernel's stored form, the int that
``FieldElem.v`` holds. Exponent tuples and FieldElems appear only at the
boundary: the constructor, ``collect``, ``coeff``, ``items``, ``exponents``
and the text grammar; ``substitute_monomials`` is a linear map on the keys.
Coefficient arithmetic is the kernel's: sums of products go through its
codec, once per output term, and sums through ``stored_form(p, k).fix``.
"""

from __future__ import annotations

import re
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, islice, product
from operator import mul, or_
from typing import Iterable, Mapping, Sequence

from ipsforge import _kernel as kn
from ipsforge._kernel import pack as _pack, slot_bytes, unpack as _unpack
from ipsforge.errors import ArityMismatch, LevelMismatch, ParseError, ZeroPolynomial
from ipsforge.gf import FieldElem, FieldSpec


# ---------------------------------------------------------------------------
# packed arithmetic
#
# A monomial product is one add of keys (Monagan & Pearce, CASC 2007), a
# coefficient product one multiply of ints spread by the kernel's codec,
# reduced once per output term. No slot ever carries into the next.

def _canon(n: int, field: FieldSpec, nb: int, terms: dict) -> "Poly":
    """The Poly of terms with nb-byte key slots, repacked to the least width."""
    if nb > 1:
        need = slot_bytes(max((max(_unpack(e, n, nb), default=0) for e in terms), default=0))
        if need < nb:
            terms = {_pack(_unpack(e, n, nb), need): c for e, c in terms.items()}
            nb = need
    return Poly._of(n, field, nb, terms)


def _merge(n: int, field: FieldSpec, nb: int, pieces: Iterable[tuple[int, int]]) -> "Poly":
    """The sum of the packed terms (key, coefficient), keys with nb-byte
    slots: equal keys add, and sums that are zero leave no term."""
    fix = kn.stored_form(field.p, field.k).fix
    out: dict[int, int] = {}
    for e, c in pieces:
        cur = out.get(e)
        out[e] = c if cur is None else fix(cur + c)
    return _canon(n, field, nb, {e: c for e, c in out.items() if c})


# |f| |g| >= DENSE 3^n and n >= 5, from a sweep of one pair (p = 2, 3, 5): the
# grid won from ratio 1 at n = 6..9, 1.2 to 2 at n = 5 and 10..12, 3 below n = 5.
DENSE = 1
_TERNARY = bytes.maketrans(b"\x00\x01", b"01")


def _kronecker(n: int, p: int, nb: int, pairs: list) -> dict[int, int]:
    """sum f*g over multilinear pairs over F_p, unreduced, keys at nb-byte
    slots, by one big-int multiply a pair, the Kronecker substitution of the
    monomials (Harvey, JSC 2009): a term sits at slot sum_v e_v 3^v of W-byte
    slots, W holding sum min(|f|, |g|) (p-1)^2; exponent sums stay below 3.
    Prime fields only: over F_{p^k}, k > 1, a coefficient is a polynomial in
    t. Buffers are native-endian at fixed slot counts, which a big-endian
    host reverses in every factor and product alike."""
    def keys(first, last):  # of {0,1,2}^(last - first) on those variables, by index
        return reduce(lambda ks, v: [e + (d << 8 * nb * v) for d in range(3) for e in ks],
                      range(first, last), [0])
    def factor(f):  # one-byte key slots (a multilinear nb is 1); indices below 3^n / 2
        buf = bytearray((3 ** n + 1) // 2 * width)
        with memoryview(buf).cast(fmt) as slots:
            for e, c in f.terms.items():
                slots[int(e.to_bytes(n, "big").translate(_TERNARY), 3)] = c
        return int.from_bytes(buf, order)
    width = slot_bytes(sum(min(len(f.terms), len(g.terms)) for f, g in pairs) * (p - 1) ** 2)
    width = 1 << (width - 1).bit_length()
    fmt, order = "BHIQ"[width.bit_length() - 1], sys.byteorder
    total = sum(factor(f) * factor(g) for f, g in pairs)
    with memoryview(total.to_bytes(3 ** n * width, order)).cast(fmt) as vals:
        return {top + key: v for (top, key), v in zip(product(keys(n // 2, n), keys(0, n // 2)),
                                                      vals) if v}


def _products(n: int, field: FieldSpec, pairs: Iterable[tuple["Poly", "Poly"]]) -> "Poly":
    """sum f*g over the pairs, reduced once per output term: dense multilinear
    pairs over F_p, p < 2^16 (W <= 8), by _kronecker, else term pair by term
    pair (at most one per term of the smaller factor for each output monomial)."""
    def top(h):  # at least h's largest exponent: the largest slot of the keys' or
        return max(_unpack(reduce(or_, h.terms), n, h.nb), default=0)

    factors, dense, most, p = [], [], 0, field.p
    least = DENSE * 3 ** n if field.k == 1 and n >= 5 and p >> 16 == 0 else float("inf")
    for f, g in pairs:
        if f.terms and g.terms:
            most = max(most, top(f) + top(g))
            kron = len(f.terms) * len(g.terms) >= least and all(h.is_multilinear() for h in (f, g))
            (dense if kron else factors).append((f, g) if len(f.terms) <= len(g.terms) else (g, f))
    nb = slot_bytes(most)
    codec = kn.codec(p, field.modulus, sum(len(f.terms) for f, _ in factors))
    sides = [h._at(nb) for pair in factors for h in pair]
    if field.k > 1:  # one batch spread; a lone residue is its own Kronecker form
        spread = iter(codec.spread([c for at in sides for c in at.values()]))
        sides = [dict(zip(at, islice(spread, len(at)))) for at in sides]
    out: dict[int, int] = defaultdict(int, _kronecker(n, p, nb, dense) if dense else {})
    for a, b in zip(sides[::2], sides[1::2]):
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                out[e1 + e2] += c1 * c2
    if field.k == 1:
        return _canon(n, field, nb, {e: c for e, v in out.items() if (c := v % p)})
    return _canon(n, field, nb, {e: c for e, v in out.items() if (c := codec.reduce(v))})


def sum_of_products(n: int, field: FieldSpec,
                    pairs: Iterable[tuple["Poly", "Poly"]]) -> "Poly":
    """sum f*g over the pairs, in one accumulation: equal to adding up the
    products, but each output monomial is reduced only once."""
    pairs = list(pairs)
    for f, g in pairs:
        for h in (f, g):
            if h.n != n or h.field != field:
                raise ArityMismatch(
                    f"cannot combine a poly over n={h.n},{h.field.text()} "
                    f"into a sum over n={n},{field.text()}")
    return _products(n, field, pairs)


def stored_sum(field: FieldSpec, values: Sequence[int]) -> int:
    """The sum of stored elements: one batch spread, one int sum, one reduce."""
    codec = kn.codec(field.p, field.modulus, len(values))
    return codec.reduce(sum(codec.spread(values)))


def _same_field(field: FieldSpec, c: FieldElem) -> int:
    """c's stored int; LevelMismatch unless c lies in field, as FieldElem
    arithmetic raises."""
    if c.spec is not field and c.spec != field:
        raise LevelMismatch(f"cannot combine {c.spec.text()} with {field.text()}")
    return c.v


def _exponents(n: int, exp: Sequence[int]) -> tuple[int, ...]:
    """exp as a tuple: ArityMismatch unless it has n entries, ValueError if
    one is negative."""
    exp = tuple(exp)
    if len(exp) != n:
        raise ArityMismatch(f"exponent vector {exp} has {len(exp)} entries, expected {n}")
    if min(exp, default=0) < 0:
        raise ValueError(f"exponent vector {exp} has a negative entry")
    return exp


class Poly:
    """Immutable sparse polynomial in n variables over a fixed field."""

    __slots__ = ("n", "field", "nb", "terms")

    def __init__(self, n: int, field: FieldSpec, terms: Mapping[tuple[int, ...], FieldElem]):
        checked = [(_exponents(n, e), _same_field(field, c)) for e, c in terms.items()]
        packed = [(e, v) for e, v in checked if v]
        top = max((max(e, default=0) for e, _ in packed), default=0)
        self.n, self.field, self.nb = n, field, slot_bytes(top)
        self.terms = {_pack(e, self.nb): v for e, v in packed}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, n: int, field: FieldSpec) -> "Poly":
        return cls._of(n, field, 1, {})

    @classmethod
    def const(cls, n: int, field: FieldSpec, c: FieldElem) -> "Poly":
        v = _same_field(field, c)
        return cls._of(n, field, 1, {0: v} if v else {})

    @classmethod
    def one(cls, n: int, field: FieldSpec) -> "Poly":
        return cls._of(n, field, 1, {0: 1})

    @classmethod
    def var(cls, n: int, field: FieldSpec, i: int, exp: int = 1) -> "Poly":
        """The monomial x_{i+1}^exp (i is 0-based)."""
        if not 0 <= i < n:
            raise ArityMismatch(f"variable index {i} out of range for n={n}")
        nb = slot_bytes(exp)
        return cls._of(n, field, nb, {exp << (8 * nb * i): 1})

    @classmethod
    def monomial(cls, n: int, field: FieldSpec, exp: tuple[int, ...], c: FieldElem) -> "Poly":
        return cls(n, field, {tuple(exp): c})

    @classmethod
    def _of(cls, n: int, field: FieldSpec, nb: int, terms: dict) -> "Poly":
        """A Poly owning packed terms: no zero coefficient, nb the least."""
        self = object.__new__(cls)
        self.n, self.field, self.nb, self.terms = n, field, nb, terms
        return self

    # -- inspection -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sparsity(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if self.nb == 1:  # the key's bytes are the exponents
            return max((sum(e.to_bytes(self.n, "little")) for e in self.terms), default=-1)
        return max(map(sum, self.exponents()), default=-1)

    def coeff(self, exp: tuple[int, ...]) -> FieldElem:
        exp = _exponents(self.n, exp)
        fits = all(d < 1 << 8 * self.nb for d in exp)
        return FieldElem(self.field, self.terms.get(_pack(exp, self.nb), 0) if fits else 0)

    def items(self) -> list[tuple[tuple[int, ...], FieldElem]]:
        """(exponent vector, coefficient) of every term."""
        field = self.field
        return [(e, FieldElem(field, v)) for e, v in zip(self.exponents(), self.terms.values())]

    def exponents(self) -> list[tuple[int, ...]]:
        n, nb = self.n, self.nb
        if nb == 1:  # the key's bytes are the exponents
            return [tuple(e.to_bytes(n, "little")) for e in self.terms]
        return [_unpack(e, n, nb) for e in self.terms]

    def is_multilinear(self) -> bool:
        ones = _pack([1] * self.n, self.nb)
        return not any(e & ~ones for e in self.terms)

    def split(self, variables: Iterable[int]) -> dict:
        """The stored coefficients by monomial in the given variables: {label
        of that part: {label of the rest: coefficient}}. Labels are opaque,
        and equal in every Poly for equal monomials."""
        n, nb, w = self.n, self.nb, 8 * self.nb
        mask = sum(((1 << w) - 1) << (w * i) for i in set(variables))
        out: dict = defaultdict(dict)
        if nb == 1:
            for e, c in self.terms.items():
                out[e & mask][e & ~mask] = c
            return out
        def label(e):  # a one-byte key where the exponents fit, else the exponents
            t = _unpack(e, n, nb)
            return _pack(t, 1) if max(t) < 256 else t
        for e, c in self.terms.items():
            out[label(e & mask)][label(e & ~mask)] = c
        return out

    def _at(self, nb: int) -> dict[int, int]:
        """The terms with keys of nb >= self.nb bytes a slot."""
        n, old = self.n, self.nb
        return self.terms if nb == old else {
            _pack(_unpack(e, n, old), nb): c for e, c in self.terms.items()}

    def __eq__(self, other):
        return isinstance(other, Poly) and (self.n, self.nb, self.field, self.terms) == (
            other.n, other.nb, other.field, other.terms)

    def __hash__(self):
        return hash((self.n, self.nb, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def _check(self, other: "Poly") -> None:
        if self.n != other.n or self.field != other.field:
            raise ArityMismatch(f"cannot combine polys over n={self.n},{self.field.text()} "
                                f"and n={other.n},{other.field.text()}")

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        nb = max(self.nb, other.nb)
        a, b = sorted((self._at(nb), other._at(nb)), key=len)
        fix, out = kn.stored_form(self.field.p, self.field.k).fix, dict(b)
        for e, c in a.items():
            out[e] = fix(out[e] + c) if e in out else c
        return _canon(self.n, self.field, nb, {e: c for e, c in out.items() if c})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        form = kn.stored_form(self.field.p, self.field.k)
        fix, plus = form.fix, form.plus
        return Poly._of(self.n, self.field, self.nb,
                        {e: fix(plus - c) for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return _products(self.n, self.field, [(self, other)])

    def scale(self, c: FieldElem) -> "Poly":
        codec = kn.codec(self.field.p, self.field.modulus)
        xs = list(set(self.terms.values()))  # each distinct once
        s, *spread = codec.spread([_same_field(self.field, c)] + xs)  # s = 0 iff c = 0
        im = {x: codec.reduce(y * s) for x, y in zip(xs, spread)}
        return _canon(self.n, self.field, self.nb, {e: im[x] for e, x in self.terms.items() if s})

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative power")
        result = Poly.one(self.n, self.field)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            e >>= 1
            if e:
                acc = acc * acc
        return result

    # -- evaluation and restriction -----------------------------------------------

    def eval(self, point: Sequence[FieldElem]) -> FieldElem:
        """The value at a full point: restrict every variable, read the constant."""
        if len(point) != self.n:
            raise ArityMismatch(f"point has {len(point)} coordinates, expected {self.n}")
        return self.restrict(dict(enumerate(point))).coeff((0,) * self.n)

    def eval_cube_prefixes(self) -> list[FieldElem]:
        """The values at the 0/1 points 1^w 0^{n-w}, w = 0..n, in one pass:
        a term counts toward every w past its highest-index variable."""
        w, fix = 8 * self.nb, kn.stored_form(self.field.p, self.field.k).fix
        first = [0] * (self.n + 1)  # first[h]: the terms whose last variable is x_h
        for e, c in self.terms.items():
            h = (e.bit_length() + w - 1) // w
            first[h] = fix(first[h] + c)
        return [FieldElem(self.field, v) for v in accumulate(first, lambda a, c: fix(a + c))]

    def restrict(self, values: Mapping[int, FieldElem]) -> "Poly":
        """Substitute constants for some variables (0-based indices). Each
        constant's powers are made once, as terms first need them, and a term
        that meets a zero constant is dropped at once."""
        n, field, nb, w = self.n, self.field, self.nb, 8 * self.nb
        p, mod = field.p, field.modulus
        slot, keep = (1 << w) - 1, (1 << (w * n)) - 1  # keep: the slots left
        subs = []  # (index, [v, v^2, ...]), the row None for a zero constant v
        for i, v in values.items():
            if not 0 <= i < n:
                raise ArityMismatch(f"variable index {i} out of range for n={n}")
            _same_field(field, v)
            subs.append((i, None if v.is_zero() else [v.v]))
            keep &= ~(slot << (w * i))
        pieces = []
        for (e, c), ex in zip(self.terms.items(), self.exponents()):
            val = None
            for i, row in subs:
                if d := ex[i]:
                    if row is None:
                        break
                    while len(row) < d:
                        row.append(kn.vmul(row[-1], row[0], p, mod))
                    val = kn.vmul(c if val is None else val, row[d - 1], p, mod)
            else:
                pieces.append((e & keep, c if val is None else val))
        return _merge(n, field, nb, pieces)


def linear_poly(field: FieldSpec, coeffs: Sequence[FieldElem], const: FieldElem) -> Poly:
    """sum_i coeffs[i] * x_{i+1} + const in len(coeffs) variables; zero
    coefficients leave no term."""
    terms = {1 << (8 * i): v for i, c in enumerate(coeffs) if (v := _same_field(field, c))}
    if v := _same_field(field, const):
        terms[0] = v
    return Poly._of(len(coeffs), field, 1, terms)


def collect(n: int, field: FieldSpec,
            terms: Iterable[tuple[tuple[int, ...], int]]) -> Poly:
    """The sum of the terms c * x^e over the (e, c) pairs, c a stored
    element (FieldElem.v): equal exponents add, and sums that are zero leave
    no term."""
    pieces = [(tuple(e), c) for e, c in terms]
    nb = slot_bytes(max((max(e) for e, _ in pieces if e), default=0))
    return _merge(n, field, nb, [(_pack(e, nb), c) for e, c in pieces])


def substitute_monomials(f: Poly, n: int, monomials: Sequence[Sequence[int]]) -> Poly:
    """f with x^monomials[i] in n variables put in for its variable i: the
    linear map key -> sum_i d_i key(monomials[i]), on slots that hold deg f
    times the largest monomial exponent, so no slot carries into the next."""
    if len(monomials) != f.n:
        raise ArityMismatch(f"{len(monomials)} monomials for a poly in {f.n} variables")
    mus = [_exponents(n, mu) for mu in monomials]
    nb = slot_bytes(max(f.degree(), 1) * max((d for mu in mus for d in mu), default=0))
    keys = [_pack(mu, nb) for mu in mus]
    return _merge(n, f.field, nb, [(sum(map(mul, e, keys)), c)
                                   for e, c in zip(f.exponents(), f.terms.values())])


# ---------------------------------------------------------------------------
# multilinearization

def ml(f: Poly) -> Poly:
    """Clamp every positive exponent to 1; agrees with f on the cube."""
    return ml_partial(f, range(f.n))


def ml_partial(f: Poly, variables: Iterable[int]) -> Poly:
    """Clamp the exponents of the given variables to 1 on the keys: adding
    2^(w-1) - 1 to a w-bit slot's low bits sets its top bit where it is
    nonzero, and that bit, shifted down, is the clamped exponent."""
    w, vs = 8 * f.nb, set(variables)
    low = sum(((1 << (w - 1)) - 1) << (w * i) for i in vs)
    high = sum(1 << (w * i + w - 1) for i in vs)
    return _merge(f.n, f.field, f.nb, [
        (e & ~(low | high) | (((e & low) + low | e) & high) >> (w - 1), c)
        for e, c in f.terms.items()])


@dataclass
class QuotientDecomposition:
    """f = remainder + sum_j quotients[j] * (x_j^e - x_j), term-exact."""

    remainder: Poly
    quotients: list[Poly]
    axiom_kind: str  # "boolean" (e = 2) or "fermat" (e = p)

    def recompose(self) -> Poly:
        n, field = self.remainder.n, self.remainder.field
        e = 2 if self.axiom_kind == "boolean" else field.p
        return sum_of_products(n, field, [(self.remainder, Poly.one(n, field))] + [
            (q, Poly.var(n, field, j, e) - Poly.var(n, field, j))
            for j, q in enumerate(self.quotients)])


def divide_by_axioms(f: Poly, axiom_kind: str = "boolean") -> QuotientDecomposition:
    """Sequential division by x_j^e - x_j, j ascending (e = 2 or p). The
    remainder has individual degree < e; recompose() is term-exact."""
    e = {"boolean": 2, "fermat": f.field.p}.get(axiom_kind)
    if e is None:
        raise ValueError(f"unknown axiom kind {axiom_kind!r}")
    rem, quotients = f, []
    for j in range(f.n):
        s, slot = 8 * rem.nb * j, (1 << 8 * rem.nb) - 1
        q, r = [], []
        for key, c in rem.terms.items():
            d = (key >> s) & slot
            while d >= e:  # x_j^d = x_j^(d-e) (x_j^e - x_j) + x_j^(d-e+1)
                q.append((key - (e << s), c))
                key -= (e - 1) << s
                d -= e - 1
            r.append((key, c))
        quotients.append(_merge(f.n, f.field, rem.nb, q))
        rem = _merge(f.n, f.field, rem.nb, r)
    return QuotientDecomposition(rem, quotients, axiom_kind)


def fermat_exponent(d: int, p: int) -> int:
    """The exponent of y^d mod y^p - y, the remainder divide_by_axioms(.,
    "fermat") leaves: d itself below p, else the e in [1, p-1] with
    e = d mod (p-1), as y^p = y on F_p."""
    return d if d < p else (d - 1) % (p - 1) + 1


# ---------------------------------------------------------------------------
# cube interpolation and leading monomials

def interpolate_table(table: Sequence[int], n: int, field: FieldSpec) -> Poly:
    """The unique multilinear polynomial matching a full 2^n table of stored
    elements (FieldElem.v): table[mask] is its value at the 0/1 point with
    bit i of mask = x_{i+1}.

    Broadword Moebius inversion, once per bit: a perfect shuffle brings the
    next bit to the top, where the pairs (mask, mask ^ bit) are the two halves
    of the table. A cell is StoredForm.fix(a + plus - b), written out because a
    call per cell costs an oracle pass several percent.
    """
    size = 1 << n
    if len(table) != size:
        raise ArityMismatch(f"table has {len(table)} entries, expected {size}")
    co = kn.stored_form(field.p, field.k)
    p, plus, bias, high, shift = co.p, co.plus, co.bias, co.high, co.shift
    c, half = list(table), size >> 1
    for _ in range(n):
        c = c[0::2] + c[1::2]  # rotate the mask bits: bit 0 becomes the top
        c[half:] = [(d := a + plus - b) - (((d + bias) & high) >> shift) * p
                    for a, b in zip(c[half:], c)]
    keys = [0]  # keys[mask]: the key of x_{i+1} over the bits i of mask
    for i in range(n):
        keys += [e + (1 << (8 * i)) for e in keys]
    return Poly._of(n, field, 1, {e: v for e, v in zip(keys, c) if v})


def cube_table(f: Poly) -> list[int]:
    """f at every 0/1 point as stored elements (FieldElem.v): entry mask is f
    at the point with bit i of mask giving x_{i+1}, the table
    interpolate_table reads.

    The zeta transform over the subset lattice, the mirror of
    interpolate_table's Moebius step: each term's coefficient goes to the
    cell of its support mask, then for each bit c[mask] += c[mask ^ bit],
    as one broadword StoredForm.fix(a + b) per cell after a perfect shuffle.
    """
    n, co = f.n, kn.stored_form(f.field.p, f.field.k)
    p, bias, high, shift = co.p, co.bias, co.high, co.shift
    c, half = [0] * (1 << n), (1 << n) >> 1
    for e, v in zip(f.exponents(), f.terms.values()):
        mask = sum(1 << i for i, d in enumerate(e) if d)
        c[mask] = co.fix(c[mask] + v)
    for _ in range(n):
        c = c[0::2] + c[1::2]
        c[half:] = [(d := a + b) - (((d + bias) & high) >> shift) * p
                    for a, b in zip(c[half:], c)]
    return c


def leading_monomial(f: Poly) -> tuple[int, ...]:
    """Maximal exponent vector under graded lexicographic order (total degree
    first, ties broken left-to-right on variable index)."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has no leading monomial")
    return max(f.exponents(), key=lambda e: (sum(e), e))


# ---------------------------------------------------------------------------
# text grammar
#
#   poly  := sign? term (sign term)*
#   term  := factor ("*" factor)*
#   factor:= coeff | name ("^" exp)?
#   coeff := decimal | "[" c0 "," c1 "," ... "]"
#   name  := one of the declared variable names (default x1..xn)
#   sign  := "+" | "-"
#
# Input may omit a term's coefficient and a name's exponent; repeated
# coefficients multiply and repeated names add their exponents; and
# whitespace may come before any token. Factors are joined only by "*"
# and terms only by one sign, so "x1 x2", "2*" and "x1 - -x2" are errors.
# Canonical output is grlex-descending with explicit coefficients and
# exponents, so equal polynomials serialize to identical bytes.

def default_names(n: int, letter: str = "x") -> tuple[str, ...]:
    return tuple(f"{letter}{i + 1}" for i in range(n))


def format_elem(c: FieldElem) -> str:
    return _coeff_text(c.spec, c.v)


def _coeff_text(field: FieldSpec, v: int) -> str:
    """The text of the stored element v: its residue for k = 1, else its
    coefficient vector in brackets."""
    if field.k == 1:
        return str(v)
    k, nb = field.k, kn.cell_bytes(field.p)  # one-byte cells are the bytes of v
    return "[" + ",".join(map(str, v.to_bytes(k, "little") if nb == 1 else _unpack(v, k, nb))) + "]"


def format_poly(f: Poly, names: Sequence[str] | None = None) -> str:
    """f's canonical text; each distinct coefficient's and key half's text made once."""
    if f.is_zero():
        return "0"
    n, nb, terms = f.n, f.nb, f.terms
    heads, low = [f"*{name}^" for name in names or default_names(n)], (1 << 8 * nb * (n // 2)) - 1
    high, texts = ~low, {c: _coeff_text(f.field, c) for c in set(terms.values())}
    halves = {h: "".join([heads[i] + str(d) for i, d in enumerate(_unpack(h, n, nb)) if d])
              for h in set(map(low.__and__, terms)) | set(map(high.__and__, terms))}
    ranks = [(sum(t), t) for t in f.exponents()] if nb > 1 else [  # nb = 1: reversed key bytes
        (sum(b := e.to_bytes(n, "little")) << 8 * n) + int.from_bytes(b, "big") for e in terms]
    return " + ".join([texts[c] + halves[e & low] + halves[e & high]  # no two ranks tie
                       for _, e, c in sorted(zip(ranks, terms, terms.values()), reverse=True)])


_FACTOR = r"(?:\[\s*-?\d+(?:\s*,\s*-?\d+)*\s*\]|\d+|[A-Za-z]\w*(?:\s*\^\s*\d+)?)"
_TERM = re.compile(rf"\s*([+-]?)\s*({_FACTOR}(?:\s*\*\s*{_FACTOR})*)")
_DIGITS = re.compile(r"\d+")


def _factor_column(start: int, factors: list[str], j: int) -> int:
    """Column of factors[j], the j-th piece of a term body split on '*'
    that begins at column start, past its leading whitespace."""
    f = factors[j]
    return start + sum(len(x) + 1 for x in factors[:j]) + len(f) - len(f.lstrip())


def parse_poly(text: str, n: int, field: FieldSpec,
               names: Sequence[str] | None = None) -> Poly:
    """Parse the term grammar above, one regex match per term."""
    names = list(names or default_names(n))
    if len(names) != n:
        raise ArityMismatch(f"{len(names)} names declared for {n} variables")
    index = {nm: i for i, nm in enumerate(names)}
    p, k, mod, nb = field.p, field.k, field.modulus, kn.cell_bytes(field.p)
    pieces = []
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or (pos and not m.group(1)):
            col = pos if m is None else m.start(2)
            raise ParseError(f"expected a signed term at {text[col:col + 12]!r}", column=col)
        sign, body = m.groups()
        coeff = None
        exp = [0] * n
        factors = body.split("*")
        try:
            for j, f in enumerate(factors):
                f = f.strip()
                if f[0] == "[":
                    vals = f[1:-1].split(",")
                    if len(vals) != k:
                        raise ParseError(
                            f"coefficient has {len(vals)} components, field degree is {k}",
                            column=_factor_column(m.start(2), factors, j))
                    c = _pack([int(v) % p for v in vals], nb)
                elif f[0].isdigit():
                    c = int(f) % p
                else:
                    name, _, d = f.partition("^")
                    i = index.get(name.rstrip())
                    if i is None:
                        raise ParseError(f"unknown variable {name.rstrip()!r}",
                                         column=_factor_column(m.start(2), factors, j))
                    exp[i] += int(d) if d else 1
                    continue
                coeff = c if coeff is None else kn.vmul(coeff, c, p, mod)
        except ValueError:  # int() refuses a literal over its digit limit
            lit = max(_DIGITS.finditer(text, m.start(2), m.end()), key=lambda d: d.end() - d.start())
            raise ParseError(f"numeric literal of {lit.end() - lit.start()} digits is too long",
                             column=lit.start()) from None
        if coeff is None:
            coeff = 1
        pieces.append((exp, kn.vneg(coeff, p, mod) if sign == "-" else coeff))
        pos = m.end()
    if not pieces:
        raise ParseError("empty polynomial", column=0)
    return collect(n, field, pieces)
