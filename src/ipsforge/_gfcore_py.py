"""The arithmetic kernel: arithmetic on stored elements of F_p[t]/(modulus),
in pure Python.

Other modules read it through ``_kernel``. An element is stored as one int
with a ``cell_bytes(p)``-byte slot per power of t, coefficient i in [0, p)
in slot i, the form ``mvpoly`` keeps coefficients in; for k = 1 it is the
residue itself, and 0 and 1 are the zero and the one of every field. The
field is given as p and the monic modulus, a tuple of length k+1.
``pack``/``unpack`` convert to and from coefficient vectors, for the text
and JSON boundary; everything here is exact integer arithmetic.

``vadd``, ``vsub`` and ``vneg`` are broadword (Knuth, TAOCP 4A 7.1.3): a
slot has a spare top bit above 2p, so a + b, a + plus - b and plus - a
(plus = p in every slot) keep every slot in [0, 2p), and ``StoredForm.fix``
takes all of them to [0, p) at once.

Products go through one Kronecker-substitution codec (Harvey, JSC 2009),
``codec``, which ``vmul`` and ``mvpoly`` share: a factor is spread to one
byte-aligned wide slot per power of t, so a product, or a sum of products,
is one C-level big-int multiply with 2k-1 convolution slots; one multiply by
a fold constant made from the modulus takes it mod the modulus, and one
``barrett_slots`` step takes every slot mod p. That step also reduces
``exactla``'s packed rows, and ``slot_bytes`` is the one rule for a slot's
width. For odd p and k >= 3 ``vmul`` is the codec's product of one pair;
degrees 1 and 2 are done in closed form, where packing costs more than it
saves.

For p = 2 and 3 <= k < 256 the slot bound is k: a byte slot never carries,
and its low bit is the GF(2) coefficient, kept by one AND with 0x0101...01;
so the stored ints are multiplied as they are.
``gf.FIELD_BITS`` caps k at 127; a larger k would take the codec.
The reduction is Barrett's (CRYPTO 1986), which is exact for polynomials:
with mu = t^(2k-2) div modulus, the quotient of a convolution x of degree at
most 2k-2 is q = ((x div t^k) * mu) div t^(k-2), and x mod modulus is the
low k slots of x + q * (modulus - t^k). Both products again count at most k-1 bit products
per slot, plus one bit of x, so they too are read by parity, and the work is
two multiplies whatever the number of nonzero terms of the modulus. ``vinv``
for p = 2 runs extended Euclid on bit-packed ints, one xor per quotient bit;
for odd p it is a^(q-2) by ``vpow``, as a^(q-1) = 1 for every unit of F_q.

Fields with k >= 3 and q = p^k <= 2^14 are answered from log/antilog tables
(Zech's logarithms; Huber, IEEE Trans. IT 1990) once they are busy, keyed on
the stored int (one byte a slot, as p <= 25): LOG maps each nonzero element
to its discrete logarithm, EXP lists the powers of the generator twice over,
so that a product is EXP[LOG[a] + LOG[b]], an inverse EXP[q-1-LOG[a]] and a
power EXP[LOG[a]*e mod (q-1)]; zero is the one element missing from LOG. A
field's tables are built on its first product after q generic ones, which is
what one build costs, so that a field that makes few products never pays for
them; only untabled products are counted. The build takes the
least-encoding element of order q-1 and walks its powers, and stores "no
table" if the walk repeats before it has covered the q-1 units: a ring whose
q-1 nonzero elements are all powers of one unit is a field, so the tables
never rest on the modulus being irreducible. Degrees 1 and 2 keep their
closed forms, which are as fast, and larger fields the packed paths, where a
build would cost more than it saves.

``vmul_cells`` multiplies a list of stored elements by one element, and
``vinv_cells`` inverts a list: by table lookups where the field has tables,
else by the generic product, with Montgomery's trick for the inversion
(3(N-1) products and one inversion). Their products count toward the same
threshold as those of ``vmul``.
"""

from functools import lru_cache, partial
from itertools import accumulate, chain
from math import prod

_TABLE_BITS = 14  # tables for fields of at most 2^14 elements, hence k <= 14
_TABLE_MAX = 1 << _TABLE_BITS
_TABLE_FIELDS = 32  # tables kept at once; one of GF(2^14) holds about 2 MB
_COUNTED_FIELDS = 128  # product counters kept at once, one per field in use
_tables = {}  # (p, modulus) -> (LOG, EXP), or None for "no table"
_products = {}  # (p, modulus) -> generic products made, for untabled fields


def cell_bytes(p):
    """Bytes of a slot of the stored form: the least nb with 2p < 2^(8nb-1),
    so that a slot holds the sum of two residues below a spare top bit."""
    return ((2 * p).bit_length() + 8) // 8


def pack(vals, nb):
    """The int whose nb-byte little-endian slots are vals."""
    if nb == 1:  # the usual width; bytes() packs it at C speed
        return int.from_bytes(bytes(vals), "little")
    return int.from_bytes(b"".join([v.to_bytes(nb, "little") for v in vals]), "little")


def unpack(v, count, nb):
    """The first count nb-byte slots of v; inverse of pack."""
    raw = v.to_bytes(count * nb, "little")
    if nb == 1:
        return tuple(raw)
    return tuple([int.from_bytes(raw[i:i + nb], "little") for i in range(0, len(raw), nb)])


class StoredForm:
    """The slots of F_{p^k}'s stored form and its one reduction, ``fix``.

    ``fix`` takes every slot from [0, 2p) to [0, p): adding 2^(8nb-1) - p
    sets a slot's top bit where it is >= p, and that bit times p comes off.
    """

    __slots__ = ("p", "k", "nb", "plus", "bias", "high", "shift")

    def __init__(self, p, k):
        self.p, self.k, self.nb = p, k, cell_bytes(p)
        self.shift, ones = 8 * self.nb - 1, pack([1] * k, self.nb)
        self.plus, self.high = p * ones, ones << self.shift
        self.bias = self.high - self.plus

    def fix(self, d):
        return d - (((d + self.bias) & self.high) >> self.shift) * self.p


@lru_cache(maxsize=128)  # one entry per field in use
def stored_form(p, k):
    return StoredForm(p, k)


def vadd(a, b, p, modulus):
    return stored_form(p, len(modulus) - 1).fix(a + b)


def vsub(a, b, p, modulus):
    form = stored_form(p, len(modulus) - 1)
    return form.fix(a + form.plus - b)


def vneg(a, p, modulus):
    form = stored_form(p, len(modulus) - 1)
    return form.fix(form.plus - a)


def slot_bytes(top):
    """The least number of bytes, at least one, in a slot that holds top."""
    return (top.bit_length() + 7) // 8 or 1


def barrett_slots(p, bits, stride=0):
    """Barrett's step taking every slot x < 2^bits mod p at once (Moller &
    Granlund, IEEE TC 2011): with s = bits + bitlen(p) and m = ceil(2^s/p),
    slot j of (x*m) >> s, masked to at most bits bits, is x_j div p, when the
    slots are 8*stride >= s + bits bits apart. Returns (stride, s, m), stride
    the least such unless given."""
    s = bits + p.bit_length()
    stride = stride or (s + bits + 7) // 8
    assert 8 * stride >= s + bits, "a Barrett quotient would cross into the next slot"
    return stride, s, -(-(1 << s) // p)


class Codec(StoredForm):
    """Kronecker products of stored elements, whose sums ``fix`` reduces.

    ``spread`` puts a batch of elements into one buffer at stride ``wide``
    bytes (W bits), one ``from_bytes`` each; a sum of products of them has
    2k-1 slots v_i. ``reduce``, a closure over the codec's constants,
    multiplies by the fold constant (slot (2k-2-i) + j*(2k-1): coefficient j
    of t^i mod the modulus), masks the slots (2k-2) + j*(2k-1), S = (2k-1)W
    bits apart and below 2^W (``codec`` sizes W), and takes them mod p by one
    ``barrett_slots`` step, or for p = 2 by the mask alone. The bytes at
    stride S/8 are the stored form.
    """

    __slots__ = ("wide", "reduce")

    def __init__(self, p, modulus, wide):
        k = len(modulus) - 1
        super().__init__(p, k)
        bits, nb, self.wide, low = 8 * wide, self.nb, wide, 8 * wide * (2 * k - 2)
        # k = 1 has one slot, whose stride is the least that barrett_slots allows
        step, s, m = barrett_slots(p, bits, (2 * k - 1) * wide if k > 1 else 0)
        mask = sum((1 if p == 2 else (1 << bits) - 1) << 8 * step * j for j in range(k))
        slots, r = [0] * (k * (2 * k - 1)), [1] + [0] * (k - 1)  # r = t^i mod the modulus
        for i in range(2 * k - 1):
            slots[2 * k - 2 - i::2 * k - 1] = r
            r = [(a - r[-1] * c) % p for a, c in zip([0] + r[:-1], modulus)]  # t * r
        fold, size, load = pack(slots, wide), k * step, int.from_bytes

        def reduce(v):
            y = (v * fold >> low) & mask
            if p > 2:  # for p = 2 the mask keeps each slot's parity
                y -= ((y * m >> s) & mask) * p
            raw = y.to_bytes(size, "little")
            if nb == 1:
                return load(raw[::step], "little")
            lanes = zip(*[raw[b::step] for b in range(nb)])  # multi-byte cells
            return load(bytes(chain.from_iterable(lanes)), "little")
        self.reduce = reduce

    def spread(self, values):
        k, nb, wide = self.k, self.nb, self.wide
        raw = b"".join([v.to_bytes(k * nb, "little") for v in values])
        buf = bytearray(len(raw) // nb * wide)
        for b in range(nb):
            buf[b::wide] = raw[b::nb]
        buf, size, load = bytes(buf), k * wide, int.from_bytes
        return [load(buf[i:i + size], "little") for i in range(0, len(buf), size)]


_codec = lru_cache(maxsize=128)(Codec)  # a few fields, each with a few slot widths


def codec(p, modulus, pairs=1):
    """The codec of F_p[t]/(modulus) whose wide slots hold the fold of a sum
    of up to ``pairs`` products, each fold slot at most
    pairs*k*(2k-1)*(p-1)^3."""
    k = len(modulus) - 1
    return _codec(p, modulus, slot_bytes(max(pairs, 1) * k * (2 * k - 1) * (p - 1) ** 3))


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(raw):
    """The GF(2) vector of bytes raw, one coefficient each, as an int whose
    bit i is the coefficient of t^i."""
    return int(raw.translate(_TO_DIGITS)[::-1], 2)


def _unbits(x, n):
    """The n low bits of x, one byte each, bit 0 first: inverse of _bits."""
    return format(x, "0%db" % n)[::-1].encode().translate(_FROM_DIGITS)


def _barrett(modulus):
    """The p = 2 product of stored elements, 3 <= k < 256: with mu = t^(2k-2)
    div modulus and taps = modulus - t^k packed a byte per coefficient, and
    masks of the low bits of the 2k-1 convolution slots and the k low ones."""
    k = len(modulus) - 1
    f, rem, mu = _bits(bytes(modulus)), 1 << (2 * k - 2), 0
    while rem.bit_length() > k:
        s = rem.bit_length() - 1 - k
        mu |= 1 << s
        rem ^= f << s
    top, qshift, mu = 8 * k, 8 * (k - 2), pack(_unbits(mu, k - 1), 1)
    taps, ones = pack(modulus[:-1], 1), pack(b"\x01" * (2 * k - 1), 1)
    low = ones >> 8 * (k - 1)

    def mul(x, y):
        x = (x * y) & ones
        return (x + ((x >> top) * mu >> qshift & ones) * taps) & low
    return mul


@lru_cache(maxsize=128)  # one entry per field in use
def _product(p, modulus):
    """The product of two stored elements of F_p[t]/(modulus) without the
    tables: closed forms for k <= 2, Barrett's for p = 2, else the codec's
    Kronecker product."""
    k, nb = len(modulus) - 1, cell_bytes(p)
    if k == 1:
        return lambda a, b: a * b % p
    w, mask = 8 * nb, (1 << 8 * nb) - 1
    if k == 2:  # t^2 = -m1*t - m0
        m0, m1 = modulus[0], modulus[1]

        def mul2(a, b):
            a0, a1, b0, b1 = a & mask, a >> w, b & mask, b >> w
            top = a1 * b1
            return (a0 * b0 - top * m0) % p | ((a0 * b1 + a1 * b0 - top * m1) % p) << w
        return mul2
    if p == 2 and k < 256:  # no byte slot carries
        return _barrett(modulus)
    co = codec(p, modulus)
    if nb > 1:  # multi-byte cells: spread the two factors as a batch
        return lambda a, b: co.reduce(prod(co.spread((a, b))))
    wide, size, reduce, load = co.wide, k * co.wide, co.reduce, int.from_bytes

    def spread_mul(a, b):  # one buffer takes each factor's bytes to the wide stride
        buf = bytearray(size)
        buf[::wide] = a.to_bytes(k, "little")
        x = load(buf, "little")
        buf[::wide] = b.to_bytes(k, "little")
        return reduce(x * load(buf, "little"))
    return spread_mul


def _keep(cache, key, value, size):
    """cache[key] = value as the newest entry, dropping the oldest beyond size."""
    cache.pop(key, None)
    while len(cache) >= size:
        del cache[next(iter(cache))]
    cache[key] = value


def log_tables(p, modulus):
    """Build and cache the (LOG, EXP) tables of F_p[t]/(modulus), keyed on
    the stored int; None, also cached, when the ring is not a field.

    EXP[i] is g^i for the least-encoding g of order q-1, for 0 <= i < 2(q-1),
    and LOG[EXP[i]] = i for i < q-1. A nonzero g with g^(q-1) != 1 already
    shows that the ring is not a field.
    """
    key = (p, modulus)
    _keep(_tables, key, None, _TABLE_FIELDS)  # the build's products go generic
    k = len(modulus) - 1
    q = p ** k
    primes, n, r = [], q - 1, 2
    while r * r <= n:
        if n % r == 0:
            primes.append(r)
            while n % r == 0:
                n //= r
        r += 1
    if n > 1:
        primes.append(n)
    for m in range(2, q):
        g = pack([m // p ** i % p for i in range(k)], 1)
        if vpow(g, q - 1, p, modulus) != 1:
            return None
        if all(vpow(g, (q - 1) // r, p, modulus) != 1 for r in primes):
            break
    else:
        return None
    exp = list(accumulate([g] * (q - 2), _product(p, modulus), initial=1))
    log = {x: i for i, x in enumerate(exp)}
    if len(log) < q - 1:  # the walk repeated
        return None
    _tables[key] = tab = (log, exp + exp)
    return tab


def _table(p, modulus, n):
    """The (LOG, EXP) tables of F_p[t]/(modulus), or None while it has none,
    counting the n products about to be made: a field that may have tables
    gets them on its first product after q generic ones."""
    k = len(modulus) - 1
    if not 2 < k <= _TABLE_BITS or p ** k > _TABLE_MAX:
        return None
    key = (p, modulus)
    tab = _tables.get(key)
    if tab is not None or key in _tables:
        return tab
    done = _products.get(key, 0)
    if done >= p ** k:
        return log_tables(p, modulus)
    if done:
        _products[key] = done + n
    else:
        _keep(_products, key, n, _COUNTED_FIELDS)
    return None


def vmul(a, b, p, modulus):
    """Product of a and b in F_p[t]/(modulus)."""
    if len(modulus) == 2:
        return a * b % p
    if tab := _table(p, modulus, 1):
        if not (a and b):
            return 0
        log, exp = tab
        return exp[log[a] + log[b]]
    return _product(p, modulus)(a, b)


def vmul_cells(f, cells, p, modulus):
    """The products f * x for the stored elements x of cells, in order."""
    if len(modulus) == 2:
        return [f * x % p for x in cells]
    if (tab := _table(p, modulus, len(cells))) and f:
        log, exp = tab
        i = log[f]
        return [exp[i + log[x]] if x else 0 for x in cells]
    mul = _product(p, modulus)
    return [mul(f, x) for x in cells]


def vpow(a, e, p, modulus):
    """a^e in F_p[t]/(modulus), for e >= 0; 0^0 = 1."""
    if a and 2 < len(modulus) - 1 <= _TABLE_BITS and (tab := _tables.get((p, modulus))):
        log, exp = tab
        return exp[log[a] * e % len(log)]
    result = 1
    if e == 0:
        return result
    acc = a
    while True:
        if e & 1:
            result = vmul(result, acc, p, modulus)
        e >>= 1
        if not e:
            return result
        acc = vmul(acc, acc, p, modulus)


def vinv(a, p, modulus):
    """Inverse of a in F_p[t]/(modulus): a table lookup, else extended
    Euclid for p = 2 and a^(q-2) for odd p.

    Raises ZeroDivisionError on zero.
    """
    k = len(modulus) - 1
    if a and 2 < k <= _TABLE_BITS and (tab := _tables.get((p, modulus))):
        log, exp = tab
        return exp[len(log) - log[a]]
    if not a:
        raise ZeroDivisionError("inverse of zero field element")
    if k == 1:
        return pow(a, -1, p)
    if p == 2:
        # invariants: u = g1 * a and v = g2 * a mod the modulus
        u, v, g1, g2 = _bits(a.to_bytes(k, "little")), _bits(bytes(modulus)), 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return int.from_bytes(_unbits(g1, k), "little")
    return vpow(a, p ** k - 2, p, modulus)


def _montgomery(xs, mul, inv):
    """The inverses of the units xs by Montgomery's trick: with prefix[i] =
    x_0...x_i and rest[i] = 1/prefix[i], 1/x_i = prefix[i-1] * rest[i]."""
    prefix = list(accumulate(xs, mul))
    rest = list(accumulate(reversed(xs[1:]), mul, initial=inv(prefix[-1])))[::-1]
    return [rest[0]] + list(map(mul, prefix, rest[1:]))


def vinv_cells(cells, p, modulus):
    """The inverses of the stored elements cells of F_p[t]/(modulus), in
    order. Raises ZeroDivisionError if one of them is zero."""
    if 0 in cells:
        raise ZeroDivisionError("inverse of zero field element")
    if tab := _table(p, modulus, 3 * len(cells) - 3):
        log, exp = tab
        top = len(log)
        return [exp[top - log[c]] for c in cells]
    return _montgomery(cells, _product(p, modulus), partial(vinv, p=p, modulus=modulus))
