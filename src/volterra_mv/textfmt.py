"""Exact ``'%.17g' % v`` text for float64 arrays, and CSV rows built from it.

Python formats one float at a time.  Here each value is laid into a
24-byte slot of a uint8 table of CSV rows whose commas and CRLF ends are
already in place, and the zero bytes that pad the slots are dropped in one
``bytes.translate`` pass, so whole blocks of rows become text without a
Python call per cell.  A writer makes one such table (``row_table``) and
reuses it for every block: it fills the fields that stay the same once,
and per block overwrites only those that change, ``format_g17`` writing
its slots straight into the table.

For finite ``1e-4 <= |v| < 1e13`` the text is computed here.  ``v = m 2^e``
with a 53-bit m; its 17 significant digits are ``D = round(v 10^q)`` with
``q = 16 - X`` and X the decimal exponent, so ``D = round(m 5^q 2^(e+q))``.
``v 10^q`` in floating point is within 2^7 of D, and so the exact
remainder ``m 5^q - g 2^-(e+q)`` of its integer part g is far inside int64;
computed on uint64 words that wrap, it corrects g to the floor of the
exact value and decides the rounding, half to even.  X is taken from
``log10`` and then fixed so that the unrounded value lies in
``[10^16, 10^17)``.  In this window ``%.17g`` is the fixed-point form with
its trailing fraction zeros, and a bare point, removed.  The slot holds
the 17 digits at bytes 7-23 with d0..dX moved down a byte to make room for
the point, or for X < 0 the digits after ``0.`` and -X-1 zeros, and the
sign just before the text; so the text is at most 23 bytes, ending at
byte 23.  Every other value (zeros, non-finite, subnormal, tiny or huge)
is formatted by Python's ``%`` and laid from byte 0; its text is at most
24 bytes.
"""

from __future__ import annotations

import numpy as np

# A slot is 24 bytes, three little-endian uint64 words.  The 17 digits
# d0..d16 are laid at bytes 7-23.  For X >= 0, d0..dX then move down a
# byte, to leave byte 7+X for the point; for X < 0, "0." and -X-1 zeros go
# in before d0.  The sign goes in just before the first of these.
WIDTH = 24
_LO, _HI = 1e-4, 1e13
_XMIN, _XMAX = -4, 12

_POW5 = 5 ** np.arange(22, dtype=np.uint64)
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


def _zeros_table():
    # the trailing zeros of 0..9999 written with 4 digits
    k = np.arange(10_000)
    return sum((k % 10**j == 0).astype(np.uint8) for j in range(1, 5))


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


_DIGITS = _digit_table()
_ZERO_WORD = _DIGITS.size - 1
_ZEROS4 = _zeros_table()
_INTEGER, _REST, _LITERALS = _slot_tables()


def _scaled(av, m, e, x):
    """floor(v 10^(16-x)) and whether it rounds up, half to even, for
    v = av = m 2^e."""
    q = 16 - x
    s = -(e + q)  # in [5, 46] for the window
    # v 10^q, below 10^18 even where x is one off, is rounded once in
    # floating point: by 2^-53 of itself, less than 2^7
    guess = (av * _POW10[q]).astype(np.int64)
    # so m 5^q - guess 2^s lies far inside int64, and the uint64 words
    # that wrap on the way give it exactly
    diff = (m * _POW5[q] - (guess.view(np.uint64) << s.view(np.uint64))).view(np.int64)
    step = diff >> s
    floor = guess + step
    rem = diff - (step << s)
    return floor.view(np.uint64), rem + (floor & 1) > (1 << (s - 1))


def _significand(av):
    """X and the 17-digit D of each value, for the window."""
    # av = m 2^e, from the bits of a normal double
    bits = av.view(np.uint64)
    m = (bits & _FRACTION) | _HIDDEN
    e = (bits >> np.uint64(52)).astype(np.int64) - 1075
    x = np.clip(np.floor(np.log10(av)), _XMIN, _XMAX).astype(np.int64)
    floor, up = _scaled(av, m, e, x)
    off = (floor < _E16).astype(np.int64) - (floor >= _E17)
    if off.any():
        # log10 was one off next to a power of ten
        fix = np.nonzero(off)
        x[fix] -= off[fix]
        floor[fix], up[fix] = _scaled(av[fix], m[fix], e[fix], x[fix])
    d = floor + up
    # a round up to 10^17 moves the exponent (a guard: no double in the
    # window lies that close below a power of ten)
    carry = d == _E17
    if carry.any():
        d[carry] = _E16
        x[carry] += 1
    return x, d


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


def _trailing_zeros(groups):
    """The trailing zeros of the 17 digits, up to 16."""
    zeros = _ZEROS4[groups[:, 5]].astype(np.int64)
    # a group of 0000 lets the run go on into the group before it
    more = np.flatnonzero(groups[:, 5] == 0)
    run = np.ones(more.size, dtype=bool)
    for k in (4, 3, 2):
        g = groups[more, k]
        zeros[more] += run * _ZEROS4[g]
        run &= g == 0
    return zeros


def format_g17(values, out=None) -> np.ndarray:
    """``'%.17g' % v`` of every value, as a uint8 array of shape
    ``values.shape + (WIDTH,)`` with zero bytes wherever the text is not.

    With ``out``, a writable uint8 array of that shape (a view into a larger
    table, say), the cells are written there and ``out`` is returned.
    """
    v = np.asarray(values, dtype=np.float64)
    flat = v.ravel()
    av = np.abs(flat)
    ok = (av >= _LO) & (av < _HI)
    x, d = _significand(np.where(ok, av, 1.0))
    groups = _groups(d)
    # %g keeps the digits up to the point and those before the trailing zeros
    keep = np.maximum(17 - _trailing_zeros(groups), x + 1)
    row = ((flat < 0) * (_XMAX - _XMIN + 1) + x - _XMIN) * 18 + keep
    words = np.take(_DIGITS, groups).view("<u8")
    integer = words & np.take(_INTEGER, row, axis=0)
    words &= np.take(_REST, row, axis=0)
    words |= np.take(_LITERALS, row, axis=0)
    # d0..dX down a byte, along the bytes of all the slots: they lie at
    # bytes 7-19, so none moves from a slot into the one before
    words.view(np.uint8).ravel()[:-1] |= integer.view(np.uint8).ravel()[1:]
    if not ok.all():
        odd = ~ok
        text = b"".join(("%.17g" % f).encode().ljust(WIDTH, b"\0") for f in flat[odd].tolist())
        words[odd] = np.frombuffer(text, dtype="<u8").reshape(-1, 3)
    if out is None:
        out = np.empty(v.shape + (WIDTH,), dtype=np.uint8)
    # a slot need not start on a word boundary of `out`
    out.view("<u8")[...] = words.reshape(v.shape + (3,))
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
