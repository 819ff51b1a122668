"""The arithmetic kernel: F_p[t] coefficient-vector arithmetic in pure Python.

Other modules read it through ``_kernel``. Vectors are tuples of ints
reduced mod p; ``modulus`` is the monic modulus as a tuple of length k+1.
Everything here is exact integer arithmetic.

``vmul`` multiplies by Kronecker substitution (Harvey, JSC 2009): each factor
is packed into one int with a byte-aligned slot per power of t, so the whole
convolution is one C-level big-int multiply whose 2k-1 slots are read back
with one ``to_bytes``. A slot holds at most k*(p-1)^2, and is sized for that
bound, so no slot carries into the next. For odd p the convolution is then
reduced from the top slot down with the nonzero terms of -modulus only, which
the sparse moduli of ``gf.field_spec`` keep to a handful. Degrees 1 and 2 are
done in closed form, where packing costs more than it saves.

For p = 2 and 3 <= k < 256 the slot bound is k: a byte slot never carries,
and its low bit is the GF(2) coefficient, kept by one AND with 0x0101...01.
``gf.FIELD_BITS`` caps k at 127; a larger k would take the generic path.
The reduction is Barrett's (CRYPTO 1986), which is exact for polynomials:
with mu = t^(2k-2) div modulus, the quotient of a convolution x of degree at
most 2k-2 is q = ((x div t^k) * mu) div t^(k-2), and x mod modulus is the
low k slots of x + q * (modulus - t^k). Both products again count at most k-1 bit products
per slot, plus one bit of x, so they too are read by parity, and the work is
two multiplies whatever the number of nonzero terms of the modulus. ``vinv``
for p = 2 runs extended Euclid on bit-packed ints, one xor per quotient bit;
for odd p it is a^(q-2) by ``vpow``, as a^(q-1) = 1 for every unit of F_q.

An element's stored form, the one ``mvpoly`` keeps coefficients in, is an
int with a ``cell_bytes(p)``-byte slot per power of t (``pack``/``unpack``).

Fields with k >= 3 and q = p^k <= 2^14 are answered from log/antilog tables
(Zech's logarithms; Huber, IEEE Trans. IT 1990) once they are busy, keyed on
the stored int, one byte per power of t as p <= 25: LOG maps each nonzero
element to its discrete logarithm, EXP lists the powers of the generator
twice over, so that a product is EXP[LOG[a] + LOG[b]], an inverse
EXP[q-1-LOG[a]] and a power EXP[LOG[a]*e mod (q-1)]; zero is the one element
missing from LOG. ``vmul``, ``vinv`` and ``vpow`` convert their tuples at
that boundary. A field's tables are built on its first product after q
generic ones, which is what one build costs, so that a field that makes few
products never pays for them; only untabled products are counted. The build
takes the least-encoding element of order q-1 and walks its powers, and
stores "no table" if the walk repeats before it has covered the q-1 units: a
ring whose q-1 nonzero elements are all powers of one unit is a field, so the
tables never rest on the modulus being irreducible. Degrees 1 and 2 keep
their closed forms, which are as fast, and larger fields the packed paths,
where a build would cost more than it saves.

``vinv_cells`` inverts a list of stored elements: by table lookups where the
field has tables, else by Montgomery's trick (3(N-1) products, counted
toward the same threshold, and one inversion), on the stored ints with the
p = 2 Barrett product and on tuples converted at its boundary otherwise.
"""

from functools import lru_cache, partial
from itertools import accumulate

_TABLE_BITS = 14  # tables for fields of at most 2^14 elements, hence k <= 14
_TABLE_MAX = 1 << _TABLE_BITS
_TABLE_FIELDS = 32  # tables kept at once; one of GF(2^14) holds about 2 MB
_COUNTED_FIELDS = 128  # product counters kept at once, one per field in use
_tables = {}  # (p, modulus) -> (LOG, EXP), or None for "no table"
_products = {}  # (p, modulus) -> generic products made, for untabled fields


def vadd(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def vsub(a, b, p):
    return tuple((x - y) % p for x, y in zip(a, b))


def vneg(a, p):
    return tuple((-x) % p for x in a)


def vsmul(a, s, p):
    s %= p
    return tuple((x * s) % p for x in a)


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


@lru_cache(maxsize=128)  # one entry per field in use
def _plan(p, modulus):
    """(slot bytes, taps) of vmul modulo ``modulus``: slots wide enough for a
    convolution coefficient, at most k*(p-1)^2, and the pairs (j, -m_j mod p)
    over the nonzero low coefficients m_j, so that t^k = sum of m * t^j over
    the taps (j, m)."""
    k = len(modulus) - 1
    nb = ((k * (p - 1) ** 2).bit_length() + 7) // 8
    taps = tuple((j, -c % p) for j, c in enumerate(modulus[:-1]) if c)
    return nb, taps


_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _bits(v):
    """The GF(2) vector v as an int whose bit i is the coefficient of t^i."""
    return int(bytes(v).translate(_TO_DIGITS)[::-1], 2)


def _unbits(x, n):
    """The n low bits of x, one byte each, bit 0 first: inverse of _bits."""
    return format(x, "0%db" % n)[::-1].encode().translate(_FROM_DIGITS)


@lru_cache(maxsize=128)  # one entry per binary field in use
def _plan2(modulus):
    """The p = 2 product of stored elements, 3 <= k < 256: with mu = t^(2k-2)
    div modulus and taps = modulus - t^k packed a byte per coefficient, and
    masks of the low bits of the 2k-1 convolution slots and the k low ones."""
    k = len(modulus) - 1
    f, rem, mu = _bits(modulus), 1 << (2 * k - 2), 0
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
    one = (1,) + (0,) * (k - 1)
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
        g = tuple(m // p ** i % p for i in range(k))
        if vpow(g, q - 1, p, modulus) != one:
            return None
        if all(vpow(g, (q - 1) // r, p, modulus) != one for r in primes):
            break
    else:
        return None
    if p == 2:  # walk the stored ints
        exp = list(accumulate([pack(g, 1)] * (q - 2), _plan2(modulus), initial=1))
    else:
        exp = [pack(x, 1) for x in accumulate(
            [g] * (q - 2), lambda x, y: vmul(x, y, p, modulus), initial=one)]
    log = {x: i for i, x in enumerate(exp)}
    if len(log) < q - 1:  # the walk repeated
        return None
    _tables[key] = tab = (log, exp + exp)
    return tab


def _count_product(key, q, n=1):
    """Count n generic products of an untabled field; the field's tables,
    built now, once it has made q of them, else None."""
    done = _products.get(key, 0)
    if done < q:
        if done:
            _products[key] = done + n
        else:
            _keep(_products, key, n, _COUNTED_FIELDS)
        return None
    return log_tables(*key)


def vmul(a, b, p, modulus):
    """Product of a and b in F_p[t]/(modulus): convolution then reduction."""
    k = len(a)
    if k == 1:
        return ((a[0] * b[0]) % p,)
    if k == 2:  # t^2 = -m1*t - m0
        a0, a1 = a
        b0, b1 = b
        top = a1 * b1
        return ((a0 * b0 - top * modulus[0]) % p,
                (a0 * b1 + a1 * b0 - top * modulus[1]) % p)
    if k <= _TABLE_BITS and p ** k <= _TABLE_MAX:
        key = (p, modulus)
        tab = _tables.get(key)
        if tab is None and key not in _tables:
            tab = _count_product(key, p ** k)
        if tab is not None:
            log, exp = tab
            i = log.get(int.from_bytes(bytes(a), "little"))
            j = log.get(int.from_bytes(bytes(b), "little"))
            if i is not None and j is not None:
                return tuple(exp[i + j].to_bytes(k, "little"))
            if not (any(a) and any(b)):
                return (0,) * k
    if p == 2 and k < 256:  # no byte slot carries
        x = _plan2(modulus)(int.from_bytes(bytes(a), "little"), int.from_bytes(bytes(b), "little"))
        return tuple(x.to_bytes(k, "little"))
    nb, taps = _plan(p, modulus)
    conv = list(unpack(pack(a, nb) * pack(b, nb), 2 * k - 1, nb))
    i = 2 * k - 2
    while i >= k:  # t^i = t^(i-k) * t^k
        c = conv[i] % p
        if c:
            base = i - k
            for j, m in taps:
                conv[base + j] += c * m
        i -= 1
    return tuple([c % p for c in conv[:k]])


def vpow(a, e, p, modulus):
    k = len(a)
    if 2 < k <= _TABLE_BITS and (tab := _tables.get((p, modulus))):
        log, exp = tab
        i = log.get(int.from_bytes(bytes(a), "little"))
        if i is not None:
            return tuple(exp[i * e % len(log)].to_bytes(k, "little"))
    result = (1,) + (0,) * (k - 1)
    if e == 0:
        return result
    acc = tuple(a)
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

    Raises ZeroDivisionError on the zero vector.
    """
    k = len(a)
    if 2 < k <= _TABLE_BITS and (tab := _tables.get((p, modulus))):
        log, exp = tab
        i = log.get(int.from_bytes(bytes(a), "little"))
        if i is not None:
            return tuple(exp[len(log) - i].to_bytes(k, "little"))
    if not any(a):
        raise ZeroDivisionError("inverse of zero field element")
    if k == 1:
        return (pow(a[0] % p, -1, p),)
    if p == 2:
        # invariants: u = g1 * a and v = g2 * a mod the modulus
        u, v, g1, g2 = _bits(a), _bits(modulus), 1, 0
        while u != 1:
            j = u.bit_length() - v.bit_length()
            if j < 0:
                u, v, g1, g2, j = v, u, g2, g1, -j
            u ^= v << j
            g1 ^= g2 << j
        return tuple(_unbits(g1, k))
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
    k = len(modulus) - 1
    if 2 < k <= _TABLE_BITS and p ** k <= _TABLE_MAX:
        key = (p, modulus)
        tab = _tables.get(key)
        if tab is None and key not in _tables and p == 2:  # odd p: vmul counts them
            tab = _count_product(key, p ** k, 3 * len(cells) - 3)
        if tab:
            log, exp = tab
            top = len(log)
            return [exp[top - log[c]] for c in cells]
    if p == 2 and 2 < k < 256:
        return _montgomery(cells, _plan2(modulus),
                           lambda x: pack(vinv(unpack(x, k, 1), 2, modulus), 1))
    nb = cell_bytes(p)
    inverses = _montgomery([unpack(c, k, nb) for c in cells], partial(vmul, p=p, modulus=modulus),
                           partial(vinv, p=p, modulus=modulus))
    return [pack(v, nb) for v in inverses]
