"""Exact `%.17g` text for whole float64 arrays.

`encode` writes the bytes of `'%.17g' % v` for every value v of an array,
each in a 32-byte slot padded with NUL bytes; deleting the NULs
(`bytes.translate`) leaves the text.  The 17 significant digits of |v| are
the integer D = round(|v| 10**(16 - k)) with k = floor(log10 |v|).  A Dekker
two-product (Dekker 1971, Numer. Math. 18, 224-242) of |v| with 10**(16 - k)
as a double-double gives |v| 10**(16 - k) within about 1e-14, which decides
the rounding of D unless the fractional part lies within 1e-6 of 1/2.  Such
a near tie, a D outside [10**16, 10**17) (k off by one near a power of ten),
and any nonzero |v| outside [1e-270, 1e290), where the splits could overflow
or lose bits (subnormals included), go to `_fallback`: Python's own `%.17g`.
A zero is written as '0' or '-0' directly.  `csv_blocks` sends a table of
fewer than _SMALL values to Python's formatter whole, through one template.

Slot layout (the text is at most 25 bytes): bytes 0-5 hold the sign and,
for 1e-4 <= |v| < 1, the '0.000' prefix; byte 6 the lead digit, byte 7 the
point, bytes 8-23 the other 16 digits, four to a 4-byte group from a
10000-entry table; bytes 24-29 the exponent ('e+XX' to 'e-308') and, for an
imaginary part, 'j'; bytes 30 and 31 are NUL, 31 free for a separator.
Trailing zeros after the point, and a bare point, are NUL, as `%g` strips
them.  Only for 10 <= |v| < 1e17, whose point follows digit k >= 1 after the
lead one, does the point move: shifts of the two digit words move digits
1..k a byte left, into byte 7 on, and put the point behind them.
"""

from __future__ import annotations

import functools

import numpy as np

SLOT = 32
_CHUNK = 2 ** 12  # values per pass: about 0.7 MB of temporaries
_SMALL = 128  # fewer values cost numpy's per-call overhead (80 us) more than the formatter
_K_MIN, _K_MAX = -270, 289  # decimal exponents of the vectorized route
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's split into 26-bit halves
_ZEROS, _POINTS = np.uint64(0x3030303030303030), np.uint64(0x2E2E2E2E2E2E2E2E)  # '0' and '.' bytes


def _words(texts) -> np.ndarray:
    """Texts of at most 8 ASCII bytes, NUL-padded, as uint64 words."""
    return np.array(texts, "S8").view(np.uint64)


@functools.cache
def _powers():
    """10**q for q = 16 - k, k from _K_MAX down to _K_MIN, as the
    double-double hi + lo, with hi split into hh + hl."""
    hi, lo = [], []
    for q in range(16 - _K_MAX, 17 - _K_MIN):
        num, den = (10 ** q, 1) if q >= 0 else (1, 10 ** -q)
        h = num / den  # correctly rounded, as is lo
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    split = _SPLIT * hi
    hh = split - (split - hi)
    return hi, hh, hi - hh, np.array(lo)


@functools.cache
def _layout():
    """The sign-and-prefix and exponent words of each k (real and imaginary
    parts); the text of each four-digit group g as the uint32 groups[g], and
    without its trailing zeros as groups[10000 + g]; and masks[:, j], the
    first j = 0-16 digits after the lead one in slot bytes 8-23, read as two
    little-endian words."""
    pre, suf = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        fixed = -4 <= k < 17
        zeros = "0." + "0" * (-k - 1) if fixed and k < 0 else ""
        exponent = "" if fixed else f"e{k:+03d}"
        pre += [zeros, "-" + zeros, "+" + zeros, "-" + zeros]
        suf += [exponent, exponent + "j"]
    texts = [b"%04d" % g for g in range(10000)]
    groups = np.array(texts + [t.rstrip(b"0") for t in texts], "S4").view(np.uint32)
    kept = np.clip(np.arange(17) - np.array([[0], [8]]), 0, 8)
    masks = np.array([(1 << 8 * j) - 1 for j in range(9)], np.uint64)[kept]
    return _words(pre), _words(suf), groups, masks


def _fallback(values, imag) -> list:
    """Python's own text of each value: '%.17g', or '%+.17gj' where imag."""
    return [("%+.17gj" if j else "%.17g") % v for v, j in zip(values, imag)]


def _slots(texts) -> np.ndarray:
    """Texts as NUL-padded slots."""
    return np.array(texts, f"S{SLOT}").view(np.uint8).reshape(-1, SLOT)


def _significand(ax: np.ndarray, k: np.ndarray):
    """D = round(ax 10**(16 - k)) as int64, and where its rounding is certain
    and it has 17 digits.  The caller keeps ax within [1e-270, 1e290)."""
    row = _K_MAX - k
    hi, hh, hl, lo = (np.take(t, row) for t in _powers())
    p = ax * hi  # p + e = ax * hi exactly (Dekker), plus ax * lo
    split = _SPLIT * ax
    ah = split - (split - ax)
    al = ax - ah
    e = ((ah * hh - p) + ah * hl + al * hh) + al * hl + ax * lo
    whole = np.floor(e)
    frac = e - whole
    d = p.astype(np.int64) + whole.astype(np.int64)  # p >= 2**53 is a whole number
    certain = (np.abs(frac - 0.5) > 1e-6) & (d >= 10 ** 16)
    d += frac > 0.5
    return d, certain & (d < 10 ** 17)


def _down(words: np.ndarray) -> np.ndarray:
    """The 16 bytes of the word pairs (2, m), little-endian, one byte lower."""
    down = words >> 8
    down[0] |= words[1] << 56
    return down


def _encode_chunk(x: np.ndarray, imag: np.ndarray, out: np.ndarray) -> None:
    pre, suf, groups, masks = _layout()
    n = x.size
    ax = np.abs(x)
    fast = (ax >= 1e-270) & (ax < 1e290)
    zero = ax == 0  # written as 1 is, with the digit 0
    ax[~fast] = 1.0
    k = np.clip(np.floor(np.log10(ax)), _K_MIN, _K_MAX).astype(np.intp)
    d, certain = _significand(ax, k)
    fast = fast & certain | zero
    # floor division by a constant is about twice as fast as np.divmod
    head = d // 10 ** 8
    halves = np.empty((n, 2), np.int32)  # digits 1-8 and 9-16
    halves[:, 1] = d - head * 10 ** 8
    lead = head // 10 ** 8
    halves[:, 0] = head - lead * 10 ** 8
    quads = np.empty((n, 2, 2), np.int32)
    quads[:, :, 0] = halves // 10000
    quads[:, :, 1] = halves - quads[:, :, 0] * 10000
    quads = quads.reshape(n, 4)
    stripped = np.empty((n, 4), bool)  # no nonzero digit follows the group
    stripped[:, 3] = True
    stripped[:, 2] = quads[:, 3] == 0
    stripped[:, 1] = halves[:, 1] == 0
    stripped[:, 0] = stripped[:, 1] & (quads[:, 1] == 0)
    point = np.where((k >= -4) & (k < 17), k, 0)  # the point follows digit `point`
    words = out.view(np.uint64)
    words[:, 0] = np.take(pre, 4 * (k - _K_MIN) + 2 * imag + np.signbit(x))
    out.view(np.uint32)[:, 2:6] = np.take(groups, quads + 10000 * stripped)
    words[:, 3] = np.take(suf, 2 * (k - _K_MIN) + imag)
    out[:, 6] = np.where(zero, 48, lead + 48)
    out[:, 7] = np.where((point == 0) & ((halves[:, 0] | halves[:, 1]) != 0), 46, 0)
    moved = np.flatnonzero(point > 0)  # 10 <= |v| < 1e17: digits 1..k go before the point
    if moved.size:
        little = out.view("<u8")  # digit 1 is the low byte of word 1, digit 9 of word 2
        digits = np.take(little[:, 1:3], moved, axis=0).T
        keep = masks[:, point[moved]]  # digits 1..k
        digits |= keep & _ZEROS  # zeros before the point are kept
        rest = digits & ~keep  # the digits after the point
        out[moved, 7] = digits[0] & 255
        mark = keep ^ _down(keep)  # digit k's byte, the point's once 1..k move down
        digits = _down(digits & keep) | rest | (mark & _POINTS) * rest.any(axis=0)
        little[moved, 1], little[moved, 2] = digits
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _slots(_fallback(x[slow].tolist(), imag[slow].tolist()))


def encode(x: np.ndarray, complex_lanes: bool = False) -> np.ndarray:
    """The (x.size, SLOT) uint8 slots of the finite float64 values x (1-D);
    with complex_lanes, x interleaves real and imaginary parts, and each
    imaginary part is written '%+.17gj'."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    lanes = np.arange(min(x.size, _CHUNK))
    imag = lanes % 2 if complex_lanes else np.zeros_like(lanes)
    out = np.empty((x.size, SLOT), np.uint8)
    for s in range(0, x.size, _CHUNK):  # _CHUNK is even: lanes keep their parity
        chunk = x[s:s + _CHUNK]
        _encode_chunk(chunk, imag[:chunk.size], out[s:s + _CHUNK])
    return out


def cells(parts: np.ndarray, width: int = 1) -> np.ndarray:
    """(rows, cols, width * SLOT) slots of a 2-D float64 array whose rows
    hold cols cells of `width` values each (2: real and imaginary part),
    each cell followed by ','."""
    slots = encode(parts, complex_lanes=width == 2)
    out = slots.reshape(parts.shape[0], -1, width * SLOT)
    out[:, :, -1] = 44
    return out


def text(slots: np.ndarray) -> bytes:
    """The bytes of slots, in index order, without their NULs."""
    return slots.tobytes().translate(None, b"\0")


def csv_blocks(parts: np.ndarray, width: int = 1):
    """CSV lines of the rows of `parts` (as for `cells`), a block of rows of
    about 2**12 values at a time.  Fewer than _SMALL values go to the
    formatter whole, through one template for every cell."""
    if parts.size < _SMALL:
        cell = "%.17g%+.17gj" if width == 2 else "%.17g"
        row = ",".join([cell] * (parts.shape[1] // width)) + "\n"
        yield ((row * parts.shape[0]) % tuple(parts.ravel().tolist())).encode()
        return
    rows = max(1, 2 ** 12 // parts.shape[1])
    for s in range(0, parts.shape[0], rows):
        block = cells(parts[s:s + rows], width)
        block[:, -1, -1] = 10
        yield text(block)
