"""Counter-based random streams.

Every normal increment is a pure function of (seed, tag, particle, step,
component), so results never depend on scheduling or worker count, and two
runs with the same seed consume identical noise even if they interleave
differently.

The 64-bit mix is splitmix64, byte-for-byte:

    mix64(z):
        z = (z + 0x9E3779B97F4A7C15) mod 2^64
        z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
        z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
        return z XOR (z >> 31)

Stream key:    key = mix64(seed XOR fnv1a64(tag))
Substream:     h   = mix64(mix64(mix64(key XOR p) XOR s) XOR c)
Uniform:       u   = min(((h >> 11) + 0.5) * 2^-53, 1 - 2^-53)   in (0, 1)
Normal:        z   = ndtri(u)

Here p, s, c are the particle, step and component indices as uint64.
``ndtri`` is this module's port of the Cephes inverse normal CDF: three
rational approximations, evaluated in Cephes' Horner order.  On the central
branch, |u - 1/2| <= 1/2 - exp(-2), it is bitwise equal to the C routine; the
two tail branches take numpy's ``log``, so they may differ from it in the last
bits, by at most 8 ulp.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_SHIFTS = (np.uint64(30), np.uint64(27), np.uint64(31))

_U_MAX = 1.0 - 2.0**-53  # the largest double below 1

# the step-range draw hashes, transforms and scales this many draws at a time
_BLOCK = 1 << 15

# Cephes ndtri: exp(-2), sqrt(2 pi), and the numerator (P) and monic
# denominator (Q, leading 1 omitted) coefficients, highest degree first, for
# the central branch (0) and the tails sqrt(-2 log y) < 8 (1) and >= 8 (2)
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267E1, 9.80010754185999661536E1,
       -5.66762857469070293439E1, 1.39312609387279679503E1,
       -1.23916583867381258016E0)
_Q0 = (1.95448858338141759834E0, 4.67627912898881538453E0,
       8.63602421390890590575E1, -2.25462687854119370527E2,
       2.00260212380060660359E2, -8.20372256168333339912E1,
       1.59056225126211695515E1, -1.18331621121330003142E0)
_P1 = (4.05544892305962419923E0, 3.15251094599893866154E1,
       5.71628192246421288162E1, 4.40805073893200834700E1,
       1.46849561928858024014E1, 2.18663306850790267539E0,
       -1.40256079171354495875E-1, -3.50424626827848203418E-2,
       -8.57456785154685413611E-4)
_Q1 = (1.57799883256466749731E1, 4.53907635128879210584E1,
       4.13172038254672030440E1, 1.50425385692907503408E1,
       2.50464946208309415979E0, -1.42182922854787788574E-1,
       -3.80806407691578277194E-2, -9.33259480895457427372E-4)
_P2 = (3.23774891776946035970E0, 6.91522889068984211695E0,
       3.93881025292474443415E0, 1.33303460815807542389E0,
       2.01485389549179081538E-1, 1.23716634817820021358E-2,
       3.01581553508235416007E-4, 2.65806974686737550832E-6,
       6.23974539184983293730E-9)
_Q2 = (6.02427039364742014255E0, 3.67983563856160859403E0,
       1.37702099489081330271E0, 2.16236993594496635890E-1,
       1.34204006088543189037E-2, 3.28014464682127739104E-4,
       2.89247864745380683936E-6, 6.79019408009981274425E-9)


def mix64(z, out=None):
    """splitmix64 mix of a uint64 scalar or array.

    The mix runs in place on ``out`` (``z`` itself is allowed), or on a copy
    of ``z`` when ``out`` is None, with one scratch array for the shifts.
    """
    z = np.asarray(z, dtype=np.uint64)
    if out is None:
        out = z.copy()
    elif out is not z:
        out[...] = z
    with np.errstate(over="ignore"):
        return _mix_into(out, np.empty_like(out))


def _mix_into(out, tmp):
    """mix64 in place on the uint64 array ``out``, with the shifts in ``tmp``,
    of out's shape.  Integer arrays wrap without a warning."""
    out += _GOLDEN
    np.right_shift(out, _SHIFTS[0], out=tmp)
    out ^= tmp
    out *= _MIX1
    np.right_shift(out, _SHIFTS[1], out=tmp)
    out ^= tmp
    out *= _MIX2
    np.right_shift(out, _SHIFTS[2], out=tmp)
    out ^= tmp
    return out


def fnv1a64(text: str) -> np.uint64:
    h = _FNV_OFFSET
    with np.errstate(over="ignore"):
        for byte in text.encode("utf-8"):
            h = (h ^ np.uint64(byte)) * _FNV_PRIME
    return h


def stream_key(seed: int, tag: str) -> np.uint64:
    return np.uint64(mix64(np.uint64(seed) ^ fnv1a64(tag)))


def substream_uint64(key, particles, steps, components):
    """Raw uint64 values for broadcastable index arrays."""
    p = np.asarray(particles, dtype=np.uint64)
    s = np.asarray(steps, dtype=np.uint64)
    c = np.asarray(components, dtype=np.uint64)
    h = mix64(np.uint64(key) ^ p)
    h = mix64(h ^ s)
    h = mix64(h ^ c)
    return h


def uniform_from_uint64(h, out=None, scratch=None):
    """The uniforms of uint64 words h, made in ``out``, a float64 array of h's
    shape, with the shifted words in ``scratch``, a uint64 one, or in new
    arrays."""
    h = np.asarray(h, dtype=np.uint64)
    if out is None:
        out = np.empty(h.shape)
    np.copyto(out, np.right_shift(h, np.uint64(11), out=scratch), casting="unsafe")
    out += 0.5
    out *= 2.0**-53
    # the top code's 2^53 - 1/2 rounds to 2^53, so it alone is clamped below 1
    return np.minimum(out, _U_MAX, out=out)


def _polevl(x, coef, out=None):
    """Cephes polevl: coef[0] x^n + ... + coef[n], by Horner's rule."""
    out = np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coef, out=None):
    """Cephes p1evl: polevl with a leading coefficient of 1 left out of coef."""
    ans = np.add(x, coef[0], out=out)
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


class DrawScratch:
    """The buffers in which ``_step_increments`` makes a block of at most
    ``size`` draws from runs of at most ``rows`` particles.

    Per particle: its counter and its hash word.  Per draw: the hash word,
    mix64's shift word, the uniform and, for ndtri, a tail value; ndtri
    takes the first three as scratch once the uniforms are made.  A draw
    writes every entry it reads, so one scratch serves any number of draws,
    one at a time.
    """

    def __init__(self, size: int, rows: int):
        self.size = size
        self.counts = np.arange(rows, dtype=np.uint64)
        self.particles = np.empty(rows, dtype=np.uint64)
        self.words = np.empty(size, dtype=np.uint64)
        self.shift = np.empty(size, dtype=np.uint64)
        self.uniforms = np.empty(size)
        self.tail = np.empty(size)

    def fits(self, size: int, rows: int) -> bool:
        return self.size >= size and self.counts.size >= rows


def _block_shape(n_particles: int, m: int) -> tuple:
    """(rows, steps) of the blocks of ``_step_increments``: about ``_BLOCK``
    draws, whole steps of all N particles, or a run of ``rows`` particles of
    one step when a step has more draws than that."""
    rows = max(1, min(n_particles, _BLOCK // max(m, 1)))
    steps = max(1, _BLOCK // max(n_particles * m, 1))
    return rows, steps


def scratch_shape(n_particles: int, n_steps: int, n_components: int) -> tuple:
    """(size, rows) of the DrawScratch of draws of at most ``n_steps`` steps
    at a time of N particles with m components."""
    rows, steps = _block_shape(n_particles, n_components)
    return rows * n_components * min(steps, n_steps), rows


def scratch_bytes(n_particles: int, n_steps: int, n_components: int) -> int:
    """Bytes that draws of at most ``n_steps`` steps at a time of N particles
    with m components hold beside their output: the DrawScratch, four floats
    a draw of a block and two words a particle of a run, and the tail
    indices of one block, on average 2 exp(-2) of its draws, in whole words."""
    size, rows = scratch_shape(n_particles, n_steps, n_components)
    return 8 * (4 * size + 2 * rows + int(2 * _EXP_M2 * size))


def ndtri(y):
    """Inverse of the standard normal CDF, elementwise.

    ndtri(0) = -inf, ndtri(1) = inf, and nan outside [0, 1].
    """
    y = np.array(y, dtype=np.float64)
    out = np.empty_like(y)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        _ndtri_into(y.reshape(-1), out.reshape(-1))
    return out


def _ndtri_into(y, out, scratch: DrawScratch | None = None):
    """Write ndtri(y) into ``out``, using ``y`` as scratch; both are flat.

    The central branch is evaluated on every entry and the tails are then
    overwritten by index, since boolean masks of random draws are slow.
    Every temporary of y's size or of the tails' is a buffer of ``scratch``,
    or of a new one: only index arrays, and the values of the rare far tail,
    are allocated.  The caller sets the floating-point error state:
    ndtri(0) divides by zero, for one.
    """
    n = y.size
    if scratch is None or scratch.size < n:
        scratch = DrawScratch(n, 0)
    # the words and the shift word of the draw, free by now, as floats
    w, s = scratch.words.view(np.float64), scratch.shift.view(np.float64)
    flags = scratch.shift.view(np.bool_)[:n]
    low = np.flatnonzero(np.less_equal(y, _EXP_M2, out=flags))
    high = np.flatnonzero(np.greater(y, 1.0 - _EXP_M2, out=flags))
    split, k = low.size, low.size + high.size
    yt = scratch.tail[:k]
    np.take(y, low, out=yt[:split])
    np.take(y, high, out=yt[split:])
    # central branch: c + c^3 P0(c^2) / Q0(c^2) with c = y - 1/2, times sqrt(2 pi)
    c = y
    c -= 0.5
    c2 = np.multiply(c, c, out=w[:n])
    x = _polevl(c2, _P0, out=out)
    x *= c2
    x /= _p1evl(c2, _Q0, out=s[:n])
    x *= c
    x += c
    x *= _S2PI
    # tails, on min(y, 1 - y), which is exact there, with the sign of c:
    # with x = sqrt(-2 log y) and z = 1/x, x - log(x)/x - z P(z) / Q(z).
    # y is free: c is negative on the low tail and positive on the high one
    np.minimum(yt, np.subtract(1.0, yt, out=w[:k]), out=yt)
    x = np.log(yt, out=yt)
    x *= -2.0
    np.sqrt(x, out=x)
    x0 = np.log(x, out=w[:k])
    x0 /= x
    np.subtract(x, x0, out=x0)
    flags = y.view(np.bool_)[:k]
    far = np.flatnonzero(np.greater_equal(x, 8.0, out=flags))
    edge = np.flatnonzero(np.isinf(x, out=flags))
    z = np.divide(1.0, x, out=x)
    x1 = _polevl(z, _P1, out=y[:k])
    x1 *= z
    x1 /= _p1evl(z, _Q1, out=s[:k])
    if far.size:
        zf = z.take(far)
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
    x0 -= x1
    x0[edge] = np.inf
    # copysign(x0, c): -|x0| on the low tail, |x0| on the high one
    np.abs(x0, out=x0)
    out[high] = x0[split:]
    out[low] = np.negative(x0[:split], out=x0[:split])


def _step_increments(seed: int, tag: str, n_particles: int, s0: int, s1: int,
                     n_components: int, dt: float,
                     scratch: DrawScratch | None = None) -> np.ndarray:
    """The increments of steps s0 <= s < s1, time-major (s1 - s0, N, m).

    Each draw is the function of its (particle, step, component) given in the
    module docstring, so any split of the steps gives the same bits.  They are
    made in blocks of about ``_BLOCK`` (``_block_shape``), each in the
    buffers of ``scratch``, which a march lends across its calls, or of one
    new scratch when it is None or too small.
    """
    m = n_components
    out = np.empty((s1 - s0, n_particles, m))
    if out.size == 0:
        return out
    rows, steps = _block_shape(n_particles, m)
    shape = scratch_shape(n_particles, s1 - s0, m)
    if scratch is None or not scratch.fits(*shape):
        scratch = DrawScratch(*shape)
    key = stream_key(seed, tag)
    scale = np.sqrt(dt)
    components = np.arange(m, dtype=np.uint64)
    flat = out.reshape(-1)
    for p0 in range(0, n_particles, rows):
        p1 = min(p0 + rows, n_particles)
        h_p = np.add(scratch.counts[:p1 - p0], np.uint64(p0), out=scratch.particles[:p1 - p0])
        h_p ^= key
        _mix_into(h_p, scratch.shift[:p1 - p0])
        for a in range(s0, s1, steps):
            b = min(a + steps, s1)
            k = (b - a) * (p1 - p0)
            shift = scratch.shift[:k * m]
            # the (step, particle) words in the uniforms' buffer, which is
            # free until the uniforms are made from the block's words
            h_s = scratch.uniforms.view(np.uint64)[:k].reshape(b - a, p1 - p0, 1)
            np.bitwise_xor(h_p[None, :, None], np.arange(a, b, dtype=np.uint64)[:, None, None],
                           out=h_s)
            _mix_into(h_s, shift[:k].reshape(h_s.shape))
            h = np.bitwise_xor(h_s, components, out=scratch.words[:k * m].reshape(b - a, p1 - p0, m))
            _mix_into(h, shift.reshape(h.shape))
            u = uniform_from_uint64(h.reshape(-1), out=scratch.uniforms[:k * m], scratch=shift)
            # whole steps, or one step's run of particles: contiguous either way
            lo = ((a - s0) * n_particles + p0) * m
            block = flat[lo:lo + u.size]
            _ndtri_into(u, block, scratch)
            block *= scale
    return out


def normal_increments(seed: int, tag: str, n_particles: int, n_steps: int,
                      n_components: int, dt: float) -> np.ndarray:
    """Brownian increments of shape (n_particles, n_steps, n_components).

    Each entry is N(0, dt), keyed by (seed, tag, particle, step, component).
    They are drawn by ``_step_increments``, the draw through which a particle
    march reads its own increments, into time-major storage: the result is
    its (N, n, m) view, so that a march reads each block of steps as one
    contiguous slice.
    """
    return _step_increments(seed, tag, n_particles, 0, n_steps, n_components, dt).transpose(1, 0, 2)


def derived_seed(seed: int, index: int) -> int:
    """Deterministic child seed for the index-th independent cell of a sweep."""
    return int(mix64(np.uint64(seed) ^ mix64(np.uint64(index))))
