"""Shortest round-trip text for float64 arrays, and CSV rows built from it.

The text of each value is ``floattext.float_text(v)``: the fewest digits
that read back as the same double, the nearest to v of those (ties to
even), laid out as ``%g`` lays them out.  Python formats one float at a
time.  Here each value is laid into a 24-byte slot of a uint8 table of CSV
rows whose commas and CRLF ends are already in place, and the zero bytes
that pad the slots are dropped in one ``bytes.translate`` pass, so whole
blocks of rows become text without a Python call per cell.  A writer makes
one such table (``row_table``) and reuses it for every block: it fills the
fields that stay the same once, and per block overwrites only those that
change, ``format_shortest`` writing its slots straight into the table.

For finite ``1e-4 <= |v| < 1e13`` the text is computed here.  ``v = m 2^e``
with a 53-bit m; in units of its 17th significant digit it is
``v 10^q = m 5^q 2^(e+q)`` with ``q = 16 - X`` and X the decimal exponent,
which is floor(log10 2^e m) by a table of the binary exponent and one
comparison with the next power of ten.  ``v 10^q`` in floating point is
within 2^4 of the exact value, and so the exact remainder
``m 5^q - g 2^-(e+q)`` of its integer part g is far inside int64; computed
on uint64 words that wrap, it corrects g to the exact floor, in
``[10^16, 10^17)``.  Half an ulp of v is at most 11.1 of these units, so
the interval of decimals that read back as v holds the nearest integer,
often a multiple of 10 and seldom one of 10^k, k >= 2: the multiple of
the largest 10^k in it, the nearer of two multiples of 10, or else the
integer nearest v, is D, 17 digits with trailing zeros.  In this window
the text is the fixed-point form of D with its trailing fraction zeros,
and a bare point, removed.  The slot holds the 17 digits at bytes 7-23
with d0..dX moved down a byte to make room for the point, or for X < 0
the digits after ``0.`` and -X-1 zeros, and the sign just before the
text; so the text is at most 23 bytes, ending at byte 23.  Every other
value (zeros, non-finite, subnormal, tiny or huge) is formatted by
``float_text`` and laid from byte 0; its text is at most 24 bytes.
"""

from __future__ import annotations

import numpy as np

from .floattext import float_text

# A slot is 24 bytes, three little-endian uint64 words.  The 17 digits
# d0..d16 are laid at bytes 7-23.  For X >= 0, d0..dX then move down a
# byte, to leave byte 7+X for the point; for X < 0, "0." and -X-1 zeros go
# in before d0.  The sign goes in just before the first of these.
WIDTH = 24
_LO, _HI = 1e-4, 1e13
_XMIN, _XMAX = -4, 12

_POW5 = 5 ** np.arange(22, dtype=np.uint64)
_TWO_POW5 = 2 * _POW5.astype(np.int64)
_POW10 = 10.0 ** np.arange(22)
_E16 = np.uint64(10**16)
_E17 = np.uint64(10**17)
_E8 = np.uint64(10**8)
_FRACTION = np.uint64((1 << 52) - 1)
_HIDDEN = np.uint64(1 << 52)


def _digit_table():
    # uint32 words: the 4 ASCII digits of 0..9999, then the digit d alone
    # in the top byte (at 10000 + d), then a zero word (at _ZERO_WORD)
    k = np.arange(10_000, dtype=np.uint32)
    cols = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=-1)
    groups = (cols.astype(np.uint8) + ord("0")).view("<u4")[:, 0]
    leads = (np.arange(10, dtype=np.uint32) + ord("0")) << 24
    return np.concatenate([groups, leads, [0]]).astype("<u4")


def _exponent_tables():
    # by biased exponent E + 1023, floor(log10 2^E) and the next power of
    # ten as the nearest double, which for the powers the window reaches,
    # 10^-4 up, lies above the power where it is not exact.  Only the
    # window's exponents, -14..43, are filled: format_shortest replaces
    # every other value by 1 before it reads them
    log10 = np.zeros(2048, dtype=np.int64)
    above = np.zeros(2048)
    for e in range(-14, 44):
        log10[e + 1023] = len(str(2**e)) - 1 if e >= 0 else -len(str(2**-e))
        above[e + 1023] = float(f"1e{log10[e + 1023] + 1}")
    return log10, above


def _slot_tables():
    # per sign, X and number of digits kept, as uint64 words: the mask of
    # d0..dX for X >= 0, which move down a byte, the mask of the other
    # digits kept, and the literal bytes
    neg = np.arange(2)[:, None, None, None]
    x = np.arange(_XMIN, _XMAX + 1)[None, :, None, None]
    keep = np.arange(18)[None, None, :, None]
    pos = np.arange(WIDTH)
    integer = (pos >= 7) & (pos <= 7 + x)
    rest = (pos >= np.maximum(8 + x, 7)) & (pos <= 6 + keep)
    lit = (
        ((pos == 5 + np.minimum(x, 0)) & (neg == 1)) * ord("-")
        + ((pos == 6 + x) & (x < 0)) * ord("0")
        + ((pos == 7 + x) & (keep > x + 1)) * ord(".")
        + ((pos >= 8 + x) & (pos <= 6)) * ord("0")
    )
    return tuple(np.broadcast_to(t, lit.shape).reshape(-1, WIDTH).astype(np.uint8).view("<u8")
                 for t in (integer * 0xFF, rest * 0xFF, lit))


_LOG10_POW2, _TEN_ABOVE = _exponent_tables()
_DIGITS = _digit_table()
_ZERO_WORD = _DIGITS.size - 1
_INTEGER, _REST, _LITERALS = _slot_tables()


def _scaled(av, m, e, q):
    """floor(v 10^q) for v = av = m 2^e, the exact remainder of v 10^q
    above it in units of 2^-s, and s."""
    s = -(e + q)  # in [5, 46] for the window
    # v 10^q, below 10^17, is rounded once in floating point: by 2^-53 of
    # itself, less than 2^4
    guess = (av * np.take(_POW10, q, mode="clip")).astype(np.int64)
    # so m 5^q - guess 2^s lies far inside int64, and the uint64 words
    # that wrap on the way give it exactly
    diff = m * np.take(_POW5, q, mode="clip")
    diff -= guess.view(np.uint64) << s.view(np.uint64)
    diff = diff.view(np.int64)
    step = diff >> s
    return guess + step, diff - (step << s), s


def _shortest(m, q, floor, rem, s):
    """The shortest D that reads back as v, in 17-digit units, and its
    trailing zeros: the multiple of the largest 10^k, k >= 2, in v's
    rounding interval, or the nearer to v of two multiples of 10 in it
    (ties to an even quotient), or else the integer nearest v (ties to
    even)."""
    # In units of 2^-(s+2), v 10^q is 4 m 5^q, 4 rem above floor.  Its
    # rounding interval reaches 2 5^q, half an ulp, above v, and as far
    # below it, or half as far where m is 2^52.  Its edges, 2 5^q (2m + 1),
    # 2 5^q (2m - 1) or 5^q (4m - 1), are not multiples of 4, and every
    # integer is a multiple of 2^(s+2), s >= 5: no integer lies on an edge,
    # so whether an edge reads back as v (where m is even) is moot here.
    # Each temporary of a block is a fresh allocation, so the steps work in
    # place where they can
    shift = s + 2
    v4 = rem << 2
    hi = np.take(_TWO_POW5, q, mode="clip")
    # lo..hi, the integers in the interval
    lo = hi >> (m == _HIDDEN)
    np.subtract(v4, lo, out=lo)
    lo >>= shift
    lo += floor
    lo += 1
    hi += v4
    hi >>= shift
    hi += floor
    # base and base + 10, the multiples of 10 on either side of v: v is
    # nearer base + 10 where its distance above base, plus a tie's vote for
    # an even quotient, is more than 5 units
    base = floor // 10
    v4 += base & 1
    base *= 10
    nearer = floor - base
    nearer <<= shift
    nearer += v4
    nearer = nearer > np.left_shift(5, shift, out=shift)
    in_below = base >= lo
    in_above = base + 10 <= hi
    # base + 10 where it is in the interval and nearer, or base is not
    nearer |= ~in_below
    nearer &= in_above
    base += 10 * nearer
    # else the integer nearest v, ties to even.  (Arithmetic, not np.where,
    # picks between them: a random mask makes np.where's branches mispredict)
    half = s - 1
    d = floor & 1
    d += rem
    d = floor + (d > np.left_shift(1, half, out=half))
    # base where either multiple of 10 is in the interval, else d
    in_below |= in_above
    base -= d
    base *= in_below
    d += base
    zeros = in_below.astype(np.int64)
    # a multiple of 10^k, k >= 2, in the interval, which is less than 23
    # units wide, is its one multiple of 100: the largest not above hi.  Its
    # trailing zeros, 2 and up to 16, are counted 8, 4, 2 and 1 at a time
    hi //= 100
    hi *= 100
    idx = np.flatnonzero(hi >= lo)
    if idx.size:
        h = hi[idx]
        d[idx] = h
        h //= 100
        z = np.full(idx.size, 2)
        for k in (8, 4, 2, 1):
            quotient = h // 10**k
            divides = quotient * 10**k == h
            h = np.where(divides, quotient, h)
            z += k * divides
        zeros[idx] = z
    return d, zeros


def _significand(av):
    """X, the shortest D of each value as 17 digits, and its trailing zeros,
    for the window."""
    # av = m 2^e, from the bits of a normal double
    bits = av.view(np.uint64)
    m = bits & _FRACTION
    m |= _HIDDEN
    biased = (bits >> np.uint64(52)).view(np.int64)
    # X: log10 of [2^E, 2^(E+1)) spans less than 1, so X is floor(log10 2^E)
    # or one more, where v reaches the next power of ten
    x = np.take(_LOG10_POW2, biased, mode="clip")
    x += av >= np.take(_TEN_ABOVE, biased, mode="clip")
    q = 16 - x
    floor, rem, s = _scaled(av, m, biased - 1075, q)
    d, zeros = _shortest(m, q, floor, rem, s)
    d = d.view(np.uint64)
    # 10^17 is 10^16 of the next exponent (a guard: no double in the window
    # has 10^(X+1) in its interval)
    carry = d == _E17
    if carry.any():
        d[carry] = _E16
        x[carry] += 1
    return x, d, zeros


def _groups(d):
    """d in [10^16, 10^17] as the _DIGITS indices of its slot's six words,
    (n, 6): a zero word, the leading digit and four 4-digit groups."""
    groups = np.empty((d.size, 6), dtype=np.uint32)
    groups[:, 0] = _ZERO_WORD
    lead = d // _E16
    groups[:, 1] = lead + 10_000
    # quotients and remainders by // and a product: numpy's divmod is slower
    rest = d - lead * _E16
    hi8 = rest // _E8
    for col, half in ((2, hi8), (4, rest - hi8 * _E8)):
        half = half.astype(np.uint32)
        top = half // np.uint32(10_000)
        groups[:, col] = top
        groups[:, col + 1] = half - top * np.uint32(10_000)
    return groups


def format_shortest(values, out=None) -> np.ndarray:
    """``float_text(v)`` of every value, as a uint8 array of shape
    ``values.shape + (WIDTH,)`` with zero bytes wherever the text is not.

    With ``out``, a writable uint8 array of that shape (a view into a larger
    table, say), the cells are written there and ``out`` is returned.
    """
    v = np.asarray(values, dtype=np.float64)
    flat = v.ravel()
    av = np.abs(flat)
    ok = (av >= _LO) & (av < _HI)
    x, d, zeros = _significand(np.where(ok, av, 1.0))
    groups = _groups(d)
    # the text keeps the digits up to the point and those before the
    # trailing zeros; its slot table row is that of its sign, X and keep
    keep = np.subtract(17, zeros, out=zeros)
    np.maximum(keep, x + 1, out=keep)
    row = x * 18
    row += keep
    row += (flat.view(np.int64) >> 63) & (18 * (_XMAX - _XMIN + 1))
    row -= 18 * _XMIN
    # (every index is in range: "clip" skips take's bounds check)
    words = np.take(_DIGITS, groups, mode="clip").view("<u8")
    integer = np.take(_INTEGER, row, axis=0, mode="clip")
    integer &= words
    mask = np.take(_REST, row, axis=0, mode="clip")
    words &= mask
    words |= np.take(_LITERALS, row, axis=0, mode="clip", out=mask)
    # d0..dX down a byte, along the bytes of all the slots: they lie at
    # bytes 7-19, so none moves from a slot into the one before
    words.view(np.uint8).ravel()[:-1] |= integer.view(np.uint8).ravel()[1:]
    if not ok.all():
        odd = ~ok
        text = b"".join(float_text(f).encode().ljust(WIDTH, b"\0") for f in flat[odd].tolist())
        words[odd] = np.frombuffer(text, dtype="<u8").reshape(-1, 3)
    if out is None:
        out = np.empty(v.shape + (WIDTH,), dtype=np.uint8)
    # a slot need not start on a word boundary of `out`: it is copied whole
    out.view("V24")[..., 0] = words.view("V24").reshape(v.shape)
    return out


def text_cells(strings, width=None) -> np.ndarray:
    """ASCII strings as the rows of a zero-padded uint8 matrix, ``width``
    bytes wide (by default, as wide as the longest string)."""
    encoded = [s.encode() for s in strings]
    if width is None:
        width = max(map(len, encoded), default=0)
    text = b"".join(s.ljust(width, b"\0") for s in encoded)
    return np.frombuffer(text, dtype=np.uint8).reshape(len(encoded), width)


def row_table(shape, fields):
    """A zeroed table of CSV rows with its separators in place, and its fields.

    ``fields`` lists ``(k, width)`` pairs: k cells of ``width`` bytes each,
    in row order.  The table is a uint8 array of shape ``shape + (row
    width,)`` holding the commas and the CRLF line ends; each field comes
    back as a view of shape ``shape + (k, width)`` into it, to be filled
    with zero-padded cells.  ``csv_text`` of the table, or of a leading
    slice of it, is the text of its rows.
    """
    template = []
    for k, width in fields:
        template += ([0] * width + [ord(",")]) * k
    template[-1:] = b"\r\n"
    table = np.empty(tuple(shape) + (len(template),), dtype=np.uint8)
    table[...] = template
    views, col = [], 0
    for k, width in fields:
        # splitting the last axis keeps a view
        cells = table[..., col:col + k * (width + 1)].reshape(tuple(shape) + (k, width + 1))
        views.append(cells[..., :-1])
        col += k * (width + 1)
    return table, views


def csv_text(table) -> bytes:
    """The rows of a filled ``row_table``, its zero bytes dropped."""
    return table.tobytes().translate(None, b"\0")


def csv_rows(*fields) -> bytes:
    """CSV rows from fields of zero-padded cells, in order, with CRLF ends.

    A field is a uint8 array of shape (rows, width), one cell per row, or
    (rows, k, width), k cells per row.
    """
    rows = fields[0].shape[0]
    fields = [f.reshape(rows, -1, f.shape[-1]) for f in fields]
    table, views = row_table((rows,), [f.shape[1:] for f in fields])
    for view, f in zip(views, fields):
        view[...] = f
    return csv_text(table)
