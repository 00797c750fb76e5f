"""Byte-exact "%.17g" text of float64 arrays, and CSV rows of such cells.

Every float that the command line writes is printed as "%.17g" % x, which
round-trips a double exactly.  Python converts one value per call (~1 us
each); format17 gives the same bytes for a whole array in a few numpy
passes, and join_rows lays cells out as comma-separated lines.

A text array is a triple (pool, start, length): cell i is the bytes
pool[start[i]:start[i] + length[i]], and start and length have the shape of
the values.  Cells may share bytes of the pool and need not be in order.
"""

from __future__ import annotations

import functools

import numpy as np

_WIDTH = 24  # "-" and the longest body, d.dddddddddddddddde-ddd
_K_MIN, _K_MAX = -281, 281  # the decimal exponents the fast path can try
_TINY, _HUGE = 1e-280, 1e280  # the fast path's range of |x|
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_EXP = 21  # the class of exponent notation; fixed notation k has class k + 4
_MINUS, _POINT, _ZERO, _E, _PLUS = b"-.0e+"


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = head + tail, each with at most 26 significant bits."""
    c = _SPLIT * a
    head = c - (c - a)
    return head, a - head


def _frozen(*tables: np.ndarray) -> tuple[np.ndarray, ...]:
    """The tables, read-only: every caller of a cached table shares it."""
    for t in tables:
        t.flags.writeable = False
    return tables


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """hi, its split head + tail, and lo, with hi + lo = 10^(16 - k) to 2^-106.

    One entry per k in [_K_MIN, _K_MAX].  hi is 10^p rounded to a double and
    lo the exact remainder 10^p - hi rounded, both from Python integers: for
    p < 0, hi = 1 / 10^-p (a correctly rounded quotient) = m / d, and
    10^p - hi = (d - m 10^-p) / (10^-p d).
    """
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 16 - k
        if p >= 0:
            h = float(10**p)
            r = float(10**p - int(h))
        else:
            e = 10**-p
            h = 1 / e
            m, d = h.as_integer_ratio()
            r = (d - m * e) / (e * d)
        hi.append(h)
        lo.append(r)
    hi, lo = np.array(hi), np.array(lo)
    head, tail = _split(hi)
    return _frozen(hi, head, tail, lo)


@functools.cache
def _groups() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of 0..9999 as the bytes of little-endian uint32s,
    and the count of those digits up to the last nonzero one (-17 for 0)."""
    i = np.arange(10_000)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1)
    chars = (digits + _ZERO).astype(np.uint8).view("<u4").ravel()
    last = np.where(digits[:, ::-1] != 0, 4 - np.arange(4), 0).max(axis=1)
    return _frozen(chars, np.where(i == 0, -17, last).astype(np.int8))


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16 - k) as yh + yl: Dekker's exact product a hi, plus a lo."""
    row = k - _K_MIN
    hi, head, tail, lo = (t[row] for t in _powers())
    ah, at = _split(a)
    yh = a * hi
    yl = ((ah * head - yh) + ah * tail + at * head) + at * tail
    yl += a * lo
    return yh, yl


def _outside(yh: np.ndarray, yl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where yh + yl lies below 10^16 - 0.04, and where above 10^17 + 0.4."""
    return (yh - 1e16) + yl <= -0.04, (yh - 1e17) + yl >= 0.4


def _digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N = round(a 10^(16 - k)) in [10^16, 10^17), k, and where both are proven."""
    k = np.floor(np.log10(a)).astype(np.int64)
    yh, yl = _scaled(a, k)
    below, above = _outside(yh, yl)
    off = np.flatnonzero(below | above)  # log10 rounded across a decade
    if off.size:
        k[off] += np.where(below[off], -1, 1)
        yh[off], yl[off] = _scaled(a[off], k[off])
        below[off], above[off] = _outside(yh[off], yl[off])
    floor = np.floor(yl)
    frac = yl - floor
    proven = (np.abs(frac - 0.5) > 1e-6) & ~below & ~above
    n = yh.astype(np.int64) + floor.astype(np.int64) + (frac > 0.5)
    carry = n == 10**17  # rounded up into the next decade
    return np.where(carry, 10**16, n), k + carry, proven


def _chars(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 ASCII digits of each n in [10^16, 10^17), as an (m, 17) uint8
    view, and how many of them reach the last nonzero one."""
    words = np.empty((n.size, 5), dtype="<u4")  # the 17 digits are bytes 3..19
    chars, last = _groups()
    high = n // 10**8
    lead = high // 10**8
    words[:, 0] = (lead.astype(np.uint32) + _ZERO) << 24
    groups = []  # four groups of four digits, as uint32 (fast division)
    for part in (high - lead * 10**8, n - high * 10**8):
        part = part.astype(np.uint32)
        upper = part // 10**4
        groups += [upper, part - upper * 10**4]
    groups = [g.astype(np.intp) for g in groups]
    for j, g in enumerate(groups, start=1):
        words[:, j] = chars[g]
    sig = 13 + last[groups[3]]  # from the last group back
    for j in (3, 2, 1):
        bare = np.flatnonzero(sig < 1)
        if not bare.size:
            break
        sig[bare] = 4 * j - 3 + last[groups[j - 1][bare]]
    np.maximum(sig, 1, out=sig)
    return words.view(np.uint8)[:, 3:], sig


def _layout(text: np.ndarray, n: np.ndarray, k: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Write digits n, exponent k, as %g does into text[:, 1:]; return the lengths.

    The rows are sorted by key, the class of k (fixed notation k for k in
    [-4, 16], class k + 4; exponent notation after them), so each class is
    one block of rows and is written by column slices.  The trailing zeros
    of the digits, and a point left bare, are cut by the length alone.
    """
    m = n.size
    digits, sig = _chars(n)
    body = np.empty(m, dtype=np.int64)
    bounds = np.searchsorted(key, np.arange(_EXP + 2))
    for c in range(_EXP):
        s, e = bounds[c], bounds[c + 1]
        if s == e:
            continue
        kk = c - 4
        if kk >= 0:  # d..d.ddd
            text[s:e, 1 : kk + 2] = digits[s:e, : kk + 1]
            text[s:e, kk + 2] = _POINT
            text[s:e, kk + 3 : 19] = digits[s:e, kk + 1 :]
            body[s:e] = np.where(sig[s:e] > kk + 1, sig[s:e] + 1, kk + 1)
        else:  # 0.000ddd
            zeros = -kk - 1
            text[s:e, 1:3] = (_ZERO, _POINT)
            text[s:e, 3 : 3 + zeros] = _ZERO
            text[s:e, 3 + zeros : 20 + zeros] = digits[s:e]
            body[s:e] = 2 + zeros + sig[s:e]
    s = bounds[_EXP]
    if s < m:  # d.ddde+dd, the exponent right after the cut digits
        text[s:, 1] = digits[s:, 0]
        text[s:, 2] = _POINT
        text[s:, 3:19] = digits[s:, 1:]
        mantissa = np.where(sig[s:] == 1, 1, sig[s:] + 1)
        mag = np.abs(k[s:])
        three = mag >= 100
        exponent = np.empty((m - s, 5), dtype=np.uint8)
        exponent[:, 0] = _E
        exponent[:, 1] = np.where(k[s:] < 0, _MINUS, _PLUS)
        ex = _groups()[0][mag].view(np.uint8).reshape(-1, 4)
        exponent[:, 2:] = np.where(three[:, None], ex[:, 1:], ex[:, (2, 3, 3)])
        cols = 1 + mantissa[:, None] + np.arange(5)
        text[np.arange(s, m)[:, None], cols] = exponent
        body[s:] = mantissa + 4 + three
    return body


def _by_python(values: np.ndarray) -> list[bytes]:
    """Python's own "%.17g" of each value, one call per value."""
    return [b"%.17g" % v for v in values.tolist()]


def format17(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The text array (pool, start, length) of "%.17g" % v for each v of x.

    Byte-identical to Python's "%.17g" on every double.  For a nonzero |x|
    in [1e-280, 1e280] with decimal exponent k, the 17 digits are
    N = round(|x| 10^p), p = 16 - k, read from a double-double product
    yh + yl: Dekker's exact product of |x| with hi = 10^p rounded, plus
    |x| lo, where lo is the remainder 10^p - hi rounded.  Its error is
    below 1e-14 in units of the last digit (the roundings of lo, of |x| lo
    and of the tail's sum add up to ~4e-15).  k starts as floor(log10 |x|)
    and moves by one where the product leaves the decade.  N and k are used
    only where that error cannot change the text: the fraction of the
    product is more than 1e-6 from one half, and the product lies in
    (10^16 - 0.04, 10^17 + 0.4), where its rounding has the digits of %.17e
    (a rounding up to 10^17 becomes 10^16 with k + 1).  The text is laid
    out as %g lays it: fixed notation for -4 <= k < 17, with the trailing
    zeros of the fraction (and a bare point) cut, else d.ddd then e+dd or
    e+ddd.

    Zeros are written directly, as 0 and -0.  Every other value goes
    through Python's own b"%.17g" % v, one value at a time (_by_python): a
    fraction within 1e-6 of a tie, a product outside that band after k
    moved, |x| outside [1e-280, 1e280] (which keeps the split and the power
    table clear of overflow and underflow), NaN and +-inf.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    in_range = (a >= _TINY) & (a <= _HUGE)  # False for NaN
    tried = np.flatnonzero(in_range)
    n, k, proven = _digits(a[tried])
    key = np.where((k >= -4) & (k <= 16), k + 4, _EXP).astype(np.int8)
    key[~proven] = _EXP + 1
    m = int(np.count_nonzero(proven))
    order = np.argsort(key, kind="stable")[:m]  # by class; the unproven last, cut
    fast = tried[order]
    unproven = ~in_range & (a != 0.0)
    unproven[tried[~proven]] = True
    slow = np.flatnonzero(unproven)

    text = np.empty((m + 1 + slow.size, _WIDTH), dtype=np.uint8)
    text[:m, 0] = _MINUS
    body = _layout(text[:m], n[order], k[order], key[order])
    start = np.empty(flat.size, dtype=np.int64)
    length = np.empty(flat.size, dtype=np.int64)
    negative = np.signbit(flat)
    start[fast] = np.arange(m) * _WIDTH + 1 - negative[fast]
    length[fast] = body + negative[fast]

    zero = np.flatnonzero(a == 0.0)
    text[m, :2] = (_MINUS, _ZERO)
    start[zero] = m * _WIDTH + 1 - negative[zero]
    length[zero] = 1 + negative[zero]

    texts = _by_python(flat[slow])
    for row, b in enumerate(texts, start=m + 1):
        text[row, : len(b)] = np.frombuffer(b, dtype=np.uint8)
    start[slow] = (m + 1 + np.arange(slow.size)) * _WIDTH
    length[slow] = [len(b) for b in texts]
    return text.reshape(-1), start.reshape(x.shape), length.reshape(x.shape)


def join_rows(pool: np.ndarray, start: np.ndarray, length: np.ndarray) -> bytes:
    """The rows of a (rows, columns) text array as CSV lines.

    Cells are joined by "," and each row ends in "\n"; the bytes are
    gathered from the pool in one take.
    """
    rows, cols = start.shape
    src = np.concatenate([pool, np.frombuffer(b",\n", dtype=np.uint8)])
    comma, newline = src.size - 2, src.size - 1
    total = int(length.sum()) + length.size
    index_type = np.int32 if max(src.size, total) < 2**31 else np.int64
    # segments: each cell, then its separator
    seg_start = np.full((rows, 2 * cols), comma, dtype=index_type)
    seg_length = np.ones((rows, 2 * cols), dtype=index_type)
    seg_start[:, 0::2] = start
    seg_length[:, 0::2] = length
    seg_start[:, -1] = newline
    seg_start, seg_length = seg_start.reshape(-1), seg_length.reshape(-1)
    first = np.cumsum(seg_length, dtype=index_type)
    first -= seg_length
    index = np.repeat(seg_start - first, seg_length)
    index += np.arange(total, dtype=index_type)
    return src.take(index).tobytes()
