"""Exact ``'%.17g' % v`` text for float64 arrays, and CSV rows built from it.

Python formats one float at a time.  Here each value is laid into a
fixed-width slot of a uint8 matrix, the slots are joined into CSV rows, and
the zero bytes that pad the slots are dropped in one ``bytes.translate``
pass, so whole blocks of rows become text without a Python call per cell.

For finite ``1e-4 <= |v| < 1e13`` the text is computed here.  ``v = m 2^e``
with a 53-bit m; its 17 significant digits are ``D = round(v 10^q)`` with
``q = 16 - X`` and X the decimal exponent, so ``D = round(m 5^q 2^(e+q))``.
``m 5^q`` is below 2^100, so it is formed exactly on two uint64 limbs and
shifted right by ``-(e+q)`` bits with round-half-even.  X is taken from
``log10`` and then fixed so that the unrounded value lies in
``[10^16, 10^17)``.  In this window ``%.17g`` is the fixed-point form with
its trailing fraction zeros, and a bare point, removed.  Every other value
(zeros, non-finite, subnormal, tiny or huge) is formatted by Python's ``%``.
"""

from __future__ import annotations

import numpy as np

# A slot is 12 uint32 words.  Words 1-5 and 7-11 both hold the digit words
# ("000" d0, d1-d4, ..., d13-d16); a mask keeps d0..dX of the first copy
# and the fraction digits of the second.  Byte 0 is the sign, byte 7 the
# "0" of a negative exponent, byte 24 the point and bytes 25-27 the zeros
# that follow it for X <= -2.  Every '%.17g' text, 24 bytes at most, fits.
WIDTH = 48
_LO, _HI = 1e-4, 1e13
_XMIN, _XMAX = -4, 12
_INT0, _FRAC0, _POINT = 7, 31, 24

_POW5 = 5 ** np.arange(22, dtype=np.uint64)
_E16 = np.uint64(10**16)
_E17 = np.uint64(10**17)
_E8 = np.uint64(10**8)
_M32 = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)


def _group_tables():
    # the 4 ASCII digits of 0..9999, one uint32 each, and their trailing zeros
    k = np.arange(10_000, dtype=np.uint32)
    cols = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=-1)
    digits = (cols.astype(np.uint8) + ord("0")).view(np.uint32)[:, 0]
    zeros = sum((k % 10**j == 0).astype(np.uint8) for j in range(1, 5))
    return digits, zeros


def _slot_tables():
    # the masks and the literal bytes of a slot, one row per sign, X and
    # number of digits kept, as uint64 words
    neg = np.arange(2)[:, None, None, None]
    x = np.arange(_XMIN, _XMAX + 1)[None, :, None, None]
    keep = np.arange(18)[None, None, :, None]
    pos = np.arange(WIDTH)
    k_int, k_frac, after_point = pos - _INT0, pos - _FRAC0, pos - _POINT
    mask = (((k_int >= 0) & (k_int <= x) & (pos < _POINT))
            | ((k_frac >= 0) & (k_frac > x) & (k_frac < keep)))
    lit = (
        ((pos == 0) & (neg == 1)) * ord("-")
        + ((pos == _INT0) & (x < 0)) * ord("0")
        + ((pos == _POINT) & (keep > x + 1)) * ord(".")
        + ((after_point >= 1) & (after_point <= -x - 1)) * ord("0")
    )
    mask = np.broadcast_to(mask * 0xFF, lit.shape)
    return tuple(t.reshape(-1, WIDTH).astype(np.uint8).view(np.uint64) for t in (mask, lit))


_DIGITS4, _ZEROS4 = _group_tables()
_MASKS, _LITERALS = _slot_tables()


def _product(a, b):
    """(lo, hi) with a b = hi 2^64 + lo, for a < 2^53 and b < 2^47."""
    a0, a1 = a & _M32, a >> 32
    b0, b1 = b & _M32, b >> 32
    t0 = a0 * b0
    mid = a1 * b0 + a0 * b1
    lo = t0 + (mid << 32)
    return lo, a1 * b1 + (mid >> 32) + (lo < t0)


def _scaled(m, e, x):
    """floor(m 2^e 10^(16-x)) and whether it rounds up, half to even."""
    q = 16 - x
    s = (-(e + q)).astype(np.uint64)  # in [5, 46] for the window
    lo, hi = _product(m, _POW5[q])
    floor = (lo >> s) | (hi << (64 - s))
    rem = lo & ((_ONE << s) - _ONE)
    half = _ONE << (s - _ONE)
    return floor, (rem > half) | ((rem == half) & ((floor & _ONE) == _ONE))


def _significand(av):
    """X and the 17-digit D of each value, for the window."""
    mant, ex = np.frexp(av)
    m = (mant * 2.0**53).astype(np.uint64)
    e = ex.astype(np.int64) - 53
    x = np.clip(np.floor(np.log10(av)), _XMIN, _XMAX).astype(np.int64)
    floor, up = _scaled(m, e, x)
    off = (floor < _E16).astype(np.int64) - (floor >= _E17)
    if off.any():
        # log10 was one off next to a power of ten
        fix = np.nonzero(off)
        x[fix] -= off[fix]
        floor[fix], up[fix] = _scaled(m[fix], e[fix], x[fix])
    d = floor + up
    # a round up to 10^17 moves the exponent (a guard: no double in the
    # window lies that close below a power of ten)
    carry = d == _E17
    if carry.any():
        d[carry] = _E16
        x[carry] += 1
    return x, d


def _groups(d):
    """d in [10^16, 10^17] as its leading digit and four 4-digit groups, (n, 5)."""
    lead = d // _E16
    hi8, lo8 = np.divmod(d - lead * _E16, _E8)
    hi8, lo8 = hi8.astype(np.uint32), lo8.astype(np.uint32)
    return np.stack([lead.astype(np.uint32), *np.divmod(hi8, 10_000), *np.divmod(lo8, 10_000)],
                    axis=-1)


def format_g17(values) -> np.ndarray:
    """``'%.17g' % v`` of every value, as a uint8 array of shape
    ``values.shape + (WIDTH,)`` with zero bytes wherever the text is not."""
    v = np.asarray(values, dtype=np.float64)
    flat = v.ravel()
    av = np.abs(flat)
    ok = (av >= _LO) & (av < _HI)
    x, d = _significand(np.where(ok, av, 1.0))
    groups = _groups(d)
    # %g keeps the digits up to the point and those before the trailing zeros
    zeros, run = np.zeros(flat.size, dtype=np.int64), np.ones(flat.size, dtype=bool)
    for g in groups.T[:0:-1]:
        zeros += run * _ZEROS4[g]
        run &= g == 0
    keep = np.maximum(17 - zeros, x + 1)
    row = ((flat < 0) * (_XMAX - _XMIN + 1) + x - _XMIN) * 18 + keep
    digits = np.take(_DIGITS4, groups)
    words = np.empty((flat.size, 12), dtype=np.uint32)
    words[:, 1:6] = digits
    words[:, 7:] = digits
    words = words.view(np.uint64)
    words &= np.take(_MASKS, row, axis=0)
    words |= np.take(_LITERALS, row, axis=0)
    out = words.view(np.uint8)
    if not ok.all():
        odd = ~ok
        text = b"".join(("%.17g" % f).encode().ljust(WIDTH, b"\0") for f in flat[odd].tolist())
        out[odd] = np.frombuffer(text, dtype=np.uint8).reshape(-1, WIDTH)
    return out.reshape(v.shape + (WIDTH,))


def text_cells(strings) -> np.ndarray:
    """ASCII strings as the rows of a zero-padded uint8 matrix."""
    encoded = [s.encode() for s in strings]
    width = max(map(len, encoded), default=0)
    text = b"".join(s.ljust(width, b"\0") for s in encoded)
    return np.frombuffer(text, dtype=np.uint8).reshape(len(encoded), width)


def csv_rows(*fields) -> bytes:
    """CSV rows from fields of zero-padded cells, in order, with CRLF ends.

    A field is a uint8 array of shape (rows, width), one cell per row, or
    (rows, k, width), k cells per row.
    """
    rows = fields[0].shape[0]
    fields = [f.reshape(rows, -1, f.shape[-1]) for f in fields]
    template = []
    for f in fields:
        template += ([0] * f.shape[2] + [ord(",")]) * f.shape[1]
    template[-1:] = b"\r\n"
    table = np.empty((rows, len(template)), dtype=np.uint8)
    table[:] = template
    col = 0
    for f in fields:
        k, width = f.shape[1:]
        table[:, col:col + k * (width + 1)].reshape(rows, k, width + 1)[..., :-1] = f
        col += k * (width + 1)
    return table.tobytes().translate(None, b"\0")
