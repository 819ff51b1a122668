"""Sparse multivariate polynomials over a FieldSpec field.

Terms map exponent vectors (tuples of non-negative ints) to nonzero field
elements, so equality is map equality and serialization is canonical. The
module carries the multilinearization operators, division by Boolean/Fermat
axioms with quotient tracking, cube interpolation, and the text grammar used
by every file format in the workbench.
"""

from __future__ import annotations

import itertools
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import lshift
from typing import Iterable, Mapping, Sequence

from ipsforge import _kernel as kn
from ipsforge.errors import ArityMismatch, LevelMismatch, ParseError, ZeroPolynomial
from ipsforge.gf import FieldElem, FieldSpec


def _grlex_key(exp: tuple[int, ...]):
    return (sum(exp), exp)


# ---------------------------------------------------------------------------
# packed arithmetic
#
# A product packs every exponent vector into one int, one byte-aligned slot
# per variable, so a monomial product is one integer add (Monagan & Pearce,
# CASC 2007). Coefficient vectors are Kronecker-packed into one int, one slot
# per power of t, so a coefficient product is one integer multiply whose
# slots hold the convolution. Products accumulate unreduced per output
# monomial and are reduced mod the modulus and mod p once per output term
# (delayed reduction, Harvey, JSC 2009). Every slot is wide enough for the
# largest value it can reach, so no slot ever carries into the next.

def _pack(vals: Sequence[int], nb: int) -> int:
    """The int whose nb-byte little-endian slots are vals."""
    if nb == 1:  # the usual width for exponents; bytes() packs it at C speed
        return int.from_bytes(bytes(vals), "little")
    return int.from_bytes(b"".join(v.to_bytes(nb, "little") for v in vals), "little")


def _unpack(v: int, count: int, nb: int) -> tuple[int, ...]:
    """The first count nb-byte slots of v; inverse of _pack."""
    raw = v.to_bytes(count * nb, "little")
    if nb == 1:
        return tuple(raw)
    return tuple(int.from_bytes(raw[i:i + nb], "little") for i in range(0, len(raw), nb))


class _Coeffs:
    """Kronecker codec of one field's coefficient vectors with ``bits``-bit
    slots.

    A product of two packed vectors has 2k-1 slots holding the convolution,
    each at most k*(p-1)^2, so a sum of ``pairs`` of them has slots
    v_i <= pairs*k*(p-1)^2. ``reduce`` maps the slots to the coefficients
    sum_i v_i * (t^i mod modulus) with one multiply by ``fold``, whose slot
    (2k-2-i) + j*(2k-1) holds coefficient j of t^i mod the modulus: slot
    (2k-2) + j*(2k-1) of the product is then coefficient j, and no slot of
    the product exceeds (2k-1)*(p-1) times the largest v_i. ``_codec``
    sizes the slots for that bound. Every coefficient lies in [0, p), as
    FieldElem keeps them.
    """

    __slots__ = ("p", "k", "shifts", "fold", "take", "mask")

    def __init__(self, field: FieldSpec, bits: int):
        p, k = field.p, field.k
        self.p, self.k = p, k
        self.shifts = [bits * i for i in range(k)]
        self.take = [bits * (2 * k - 2 + j * (2 * k - 1)) for j in range(k)]
        self.mask = (1 << bits) - 1
        fold = 0
        t, r = field.gen().coeffs, field.one().coeffs  # r = t^i mod the modulus
        for i in range(2 * k - 1):
            for j, c in enumerate(r):
                fold += c << (bits * (2 * k - 2 - i + j * (2 * k - 1)))
            r = kn.vmul(r, t, p, field.modulus)
        self.fold = fold

    def pack(self, c: FieldElem) -> int:
        return c.coeffs[0] if self.k == 1 else sum(map(lshift, c.coeffs, self.shifts))

    def reduce(self, v: int) -> tuple[int, ...]:
        """The coefficient vector of a packed, unreduced sum of products."""
        p = self.p
        if self.k == 1:
            return (v % p,)
        w, mask = v * self.fold, self.mask
        return tuple([((w >> s) & mask) % p for s in self.take])


@lru_cache(maxsize=128)  # a few fields, each with a few dozen slot widths
def _codec_bits(field: FieldSpec, bits: int) -> _Coeffs:
    return _Coeffs(field, bits)


def _codec(field: FieldSpec, pairs: int) -> _Coeffs:
    """The codec whose slots hold sums of up to ``pairs`` products."""
    p, k = field.p, field.k
    return _codec_bits(field, (pairs * k * (2 * k - 1) * (p - 1) ** 3).bit_length())


def _products(n: int, field: FieldSpec, pairs: Iterable[tuple["Poly", "Poly"]]) -> "Poly":
    """sum f*g over the pairs: packed, accumulated unreduced per output
    monomial, and reduced once per output term."""
    # an output monomial of f*g collects at most one term pair per term of
    # the smaller factor, and its exponents never exceed the sum of the
    # factors' largest ones
    factors = []
    for f, g in pairs:
        small, big = f.terms, g.terms
        if len(small) > len(big):
            small, big = big, small
        if small:
            factors.append((small, big))
    if not factors:
        return Poly.zero(n, field)
    top = max(max(map(max, s)) + max(map(max, b)) for s, b in factors) if n else 0
    enb = (top.bit_length() + 7) // 8 or 1
    codec = _codec(field, sum(len(s) for s, _ in factors))
    pc = codec.pack
    out: dict[int, int] = defaultdict(int)
    for small, big in factors:
        a = [(_pack(e, enb), pc(c)) for e, c in small.items()]
        b = [(_pack(e, enb), pc(c)) for e, c in big.items()]
        for e1, c1 in a:
            for e2, c2 in b:
                out[e1 + e2] += c1 * c2
    reduce = codec.reduce
    terms = {}
    for key, v in out.items():
        c = reduce(v)
        if any(c):
            terms[_unpack(key, n, enb)] = FieldElem(field, c)
    return Poly._of(n, field, terms)


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


def _same_field(field: FieldSpec, c: FieldElem) -> None:
    """LevelMismatch unless c lies in field, as FieldElem arithmetic raises."""
    if c.spec is not field and c.spec != field:
        raise LevelMismatch(f"cannot combine {c.spec.text()} with {field.text()}")


class Poly:
    """Immutable sparse polynomial in n variables over a fixed field."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n: int, field: FieldSpec, terms: Mapping[tuple[int, ...], FieldElem]):
        self.n = n
        self.field = field
        self.terms = {e: c for e, c in terms.items() if not c.is_zero()}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, n: int, field: FieldSpec) -> "Poly":
        return cls(n, field, {})

    @classmethod
    def const(cls, n: int, field: FieldSpec, c: FieldElem) -> "Poly":
        return cls(n, field, {(0,) * n: c})

    @classmethod
    def one(cls, n: int, field: FieldSpec) -> "Poly":
        return cls.const(n, field, field.one())

    @classmethod
    def var(cls, n: int, field: FieldSpec, i: int, exp: int = 1) -> "Poly":
        """The monomial x_{i+1}^exp (i is 0-based)."""
        if not 0 <= i < n:
            raise ArityMismatch(f"variable index {i} out of range for n={n}")
        e = tuple(exp if j == i else 0 for j in range(n))
        return cls(n, field, {e: field.one()})

    @classmethod
    def monomial(cls, n: int, field: FieldSpec, exp: tuple[int, ...], c: FieldElem) -> "Poly":
        return cls(n, field, {tuple(exp): c})

    # -- inspection -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sparsity(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def individual_degree(self) -> int:
        return max((max(e) for e in self.terms), default=0) if self.n else 0

    def coeff(self, exp: tuple[int, ...]) -> FieldElem:
        return self.terms.get(tuple(exp), self.field.zero())

    def is_multilinear(self) -> bool:
        return all(all(x <= 1 for x in e) for e in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.n == other.n
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        return f"Poly({format_poly(self)!r})"

    def _check(self, other: "Poly") -> None:
        if self.n != other.n or self.field != other.field:
            raise ArityMismatch(
                f"cannot combine polys over n={self.n},{self.field.text()} "
                f"and n={other.n},{other.field.text()}"
            )

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        field = self.field
        p = field.p
        out = dict(self.terms)
        for e, c in other.terms.items():
            cur = out.get(e)
            if cur is None:
                out[e] = c
            else:
                s = kn.vadd(cur.coeffs, c.coeffs, p)
                if any(s):
                    out[e] = FieldElem(field, s)
                else:
                    del out[e]
        return Poly._of(self.n, field, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        p = self.field.p
        return Poly._of(self.n, self.field,
                        {e: FieldElem(self.field, kn.vneg(c.coeffs, p))
                         for e, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        return _products(self.n, self.field, [(self, other)])

    def scale(self, c: FieldElem) -> "Poly":
        _same_field(self.field, c)
        if c.is_zero():
            return Poly.zero(self.n, self.field)
        field = self.field
        codec = _codec(field, 1)
        pc, reduce = codec.pack, codec.reduce
        s = pc(c)
        # each distinct coefficient is multiplied once; a product of nonzero
        # field elements is nonzero
        images: dict[tuple[int, ...], FieldElem] = {}
        terms = {}
        for e, x in self.terms.items():
            y = images.get(x.coeffs)
            if y is None:
                y = images[x.coeffs] = FieldElem(field, reduce(pc(x) * s))
            terms[e] = y
        return Poly._of(self.n, field, terms)

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

    @classmethod
    def _of(cls, n: int, field: FieldSpec, terms: dict) -> "Poly":
        """A Poly that takes ownership of terms, whose coefficients are all
        nonzero already."""
        self = object.__new__(cls)
        self.n, self.field, self.terms = n, field, terms
        return self

    # -- evaluation and restriction -----------------------------------------------

    def eval(self, point: Sequence[FieldElem]) -> FieldElem:
        """The value at a full point: restrict every variable, read the constant."""
        if len(point) != self.n:
            raise ArityMismatch(f"point has {len(point)} coordinates, expected {self.n}")
        return self.restrict(dict(enumerate(point))).coeff((0,) * self.n)

    def eval_cube_point(self, mask: int) -> FieldElem:
        """Evaluation at the 0/1 point with bit i of mask giving x_{i+1}."""
        acc = (0,) * self.field.k
        p = self.field.p
        for e, c in self.terms.items():
            if all((mask >> i) & 1 or d == 0 for i, d in enumerate(e)):
                acc = kn.vadd(acc, c.coeffs, p)
        return FieldElem(self.field, acc)

    def restrict(self, values: Mapping[int, FieldElem]) -> "Poly":
        """Substitute constants for some variables (0-based indices). Each
        constant's powers are made once, as terms first need them, and a term
        that meets a zero constant is dropped at once."""
        n, field = self.n, self.field
        p, mod = field.p, field.modulus
        subs = []  # (index, [v, v^2, ...]), the row None for a zero constant v
        for i, v in values.items():
            if not 0 <= i < n:
                raise ArityMismatch(f"variable index {i} out of range for n={n}")
            _same_field(field, v)
            subs.append((i, None if v.is_zero() else [v.coeffs]))
        pieces = []
        for e, c in self.terms.items():
            val = c.coeffs
            key = list(e)
            for i, row in subs:
                d = e[i]
                if d:
                    if row is None:
                        break
                    while len(row) < d:
                        row.append(kn.vmul(row[-1], row[0], p, mod))
                    val = kn.vmul(val, row[d - 1], p, mod)
                    key[i] = 0
            else:
                pieces.append((tuple(key), val))
        return collect(n, field, pieces)


def linear_poly(field: FieldSpec, coeffs: Sequence[FieldElem], const: FieldElem) -> Poly:
    """sum_i coeffs[i] * x_{i+1} + const in len(coeffs) variables; zero
    coefficients leave no term."""
    n = len(coeffs)
    terms = {tuple(1 if v == i else 0 for v in range(n)): c
             for i, c in enumerate(coeffs) if not c.is_zero()}
    if not const.is_zero():
        terms[(0,) * n] = const
    return Poly._of(n, field, terms)


def collect(n: int, field: FieldSpec,
            terms: Iterable[tuple[tuple[int, ...], tuple[int, ...]]]) -> Poly:
    """The sum of the terms c * x^e over the (e, c) pairs, c a coefficient
    vector: equal exponents add, and sums that are zero leave no term."""
    p = field.p
    out: dict[tuple[int, ...], tuple[int, ...]] = {}
    for e, c in terms:
        cur = out.get(e)
        out[e] = c if cur is None else kn.vadd(cur, c, p)
    return Poly._of(n, field, {e: FieldElem(field, c) for e, c in out.items() if any(c)})


# ---------------------------------------------------------------------------
# multilinearization

def ml(f: Poly) -> Poly:
    """Clamp every positive exponent to 1; agrees with f on the cube."""
    return ml_partial(f, range(f.n))


def ml_partial(f: Poly, variables: Iterable[int]) -> Poly:
    vs = set(variables)
    return collect(f.n, f.field, (
        (tuple(min(d, 1) if i in vs else d for i, d in enumerate(e)), c.coeffs)
        for e, c in f.terms.items()))


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
    """Sequential division by x_j^e - x_j, j ascending (e = 2 or p).

    Remainder has individual degree < e and the reconstruction identity is
    term-exact.
    """
    if axiom_kind == "boolean":
        e = 2
    elif axiom_kind == "fermat":
        e = f.field.p
    else:
        raise ValueError(f"unknown axiom kind {axiom_kind!r}")
    field = f.field
    p = field.p
    rem = {exp: c.coeffs for exp, c in f.terms.items()}
    quotients = []
    for j in range(f.n):
        qj: dict[tuple[int, ...], tuple[int, ...]] = {}
        new_rem: dict[tuple[int, ...], tuple[int, ...]] = {}

        def put(table, key, val):
            cur = table.get(key)
            table[key] = val if cur is None else kn.vadd(cur, val, p)

        for exp, c in rem.items():
            d = exp[j]
            while d >= e:
                put(qj, exp[:j] + (d - e,) + exp[j + 1:], c)
                d -= e - 1
            put(new_rem, exp[:j] + (d,) + exp[j + 1:], c)
        rem = {k: v for k, v in new_rem.items() if any(v)}
        quotients.append(Poly(f.n, field,
                              {k: FieldElem(field, v) for k, v in qj.items() if any(v)}))
    remainder = Poly(f.n, field, {k: FieldElem(field, v) for k, v in rem.items()})
    return QuotientDecomposition(remainder, quotients, axiom_kind)


def fermat_exponent(d: int, p: int) -> int:
    """The exponent of y^d mod y^p - y, the remainder divide_by_axioms(.,
    "fermat") leaves: d itself below p, else the e in [1, p-1] with
    e = d mod (p-1), as y^p = y on F_p."""
    return d if d < p else (d - 1) % (p - 1) + 1


# ---------------------------------------------------------------------------
# cube interpolation and leading monomials

def interpolate_table(table: Sequence[tuple[int, ...]], n: int,
                      field: FieldSpec) -> Poly:
    """The unique multilinear polynomial matching a full 2^n table of
    coefficient vectors: table[mask] is its value at the 0/1 point with bit
    i of mask = x_{i+1}.

    Broadword Moebius inversion: each vector is one int with a w-bit slot per
    power of t, w the byte multiple with 2p < 2^(w-1), so one cell subtracts
    every slot mod p at once. d = a + p - b puts each slot in [1, 2p); adding
    2^(w-1) - p sets a slot's top bit exactly where d >= p, and that bit,
    shifted down and times p, takes p off those slots. No slot leaves
    [0, 2^w), so none carries into the next. The transform runs once per bit:
    a perfect shuffle brings the next bit to the top, where the pairs
    (mask, mask ^ bit) are the two halves of the table. FieldElems are built
    only for the nonzero coefficients.
    """
    size = 1 << n
    if len(table) != size:
        raise ArityMismatch(f"table has {len(table)} entries, expected {size}")
    p, k = field.p, field.k
    nb = ((2 * p).bit_length() + 8) // 8
    shift = 8 * nb - 1
    ones = _pack([1] * k, nb)
    plus, high = p * ones, ones << shift
    bias = high - plus
    c = [_pack(v, nb) for v in table]
    half = size >> 1
    for _ in range(n):
        c = c[0::2] + c[1::2]  # rotate the mask bits: bit 0 becomes the top
        c[half:] = [(d := a + plus - b) - (((d + bias) & high) >> shift) * p
                    for a, b in zip(c[half:], c)]
    # the product's j-th tuple lists the bits of j from the top down
    terms = {e[::-1]: FieldElem(field, _unpack(v, k, nb))
             for e, v in zip(itertools.product((0, 1), repeat=n), c) if v}
    return Poly._of(n, field, terms)


def cube_table(f: Poly) -> list[tuple[int, ...]]:
    """f at every 0/1 point as coefficient vectors: entry mask is f at the
    point with bit i of mask giving x_{i+1}, the table interpolate_table reads.

    One zeta transform over the subset lattice, the inverse of the Moebius
    step: each term's coefficient goes to the slot of its support mask, then
    for each bit c[mask] += c[mask ^ bit]. The coefficient vectors are packed
    one int per mask, one byte-aligned slot per power of t; a value is a sum
    of at most every term's coefficient, so slots sized for len(terms)*(p-1)
    never carry into each other.
    """
    n, field = f.n, f.field
    p, k = field.p, field.k
    nb = ((len(f.terms) * (p - 1)).bit_length() + 7) // 8 or 1
    c = [0] * (1 << n)
    for e, v in f.terms.items():
        mask = 0
        for i, d in enumerate(e):
            if d:
                mask |= 1 << i
        c[mask] += _pack(v.coeffs, nb)
    for i in range(n):
        bit = 1 << i
        for mask in range(bit, 1 << n):
            if mask & bit:
                src = c[mask ^ bit]
                if src:
                    c[mask] += src
    return [tuple([x % p for x in _unpack(v, k, nb)]) for v in c]


def leading_monomial(f: Poly) -> tuple[int, ...]:
    """Maximal exponent vector under graded lexicographic order (total degree
    first, ties broken left-to-right on variable index)."""
    if f.is_zero():
        raise ZeroPolynomial("zero polynomial has no leading monomial")
    return max(f.terms, key=_grlex_key)


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
    if c.spec.k == 1:
        return str(c.coeffs[0])
    return "[" + ",".join(map(str, c.coeffs)) + "]"


def format_poly(f: Poly, names: Sequence[str] | None = None) -> str:
    if f.is_zero():
        return "0"
    names = names or default_names(f.n)
    parts = []
    for exp in sorted(f.terms, key=_grlex_key, reverse=True):
        c = f.terms[exp]
        factors = [format_elem(c)]
        for i, d in enumerate(exp):
            if d:
                factors.append(f"{names[i]}^{d}")
        parts.append("*".join(factors))
    return " + ".join(parts)


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
    p, k, mod = field.p, field.k, field.modulus
    one, pad = field.one().coeffs, (0,) * (k - 1)
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
                    c = tuple([int(v) % p for v in vals])
                elif f[0].isdigit():
                    c = (int(f) % p,) + pad
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
            coeff = one
        pieces.append((tuple(exp), kn.vneg(coeff, p) if sign == "-" else coeff))
        pos = m.end()
    if not pieces:
        raise ParseError("empty polynomial", column=0)
    return collect(n, field, pieces)
