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

_U_MAX = 1.0 - 2.0**-53  # the largest double below 1

# the step-range draw hashes, transforms and scales this many draws at a time
_BLOCK = 1 << 16

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
        out += _GOLDEN
        tmp = np.empty_like(out)
        np.right_shift(out, np.uint64(30), out=tmp)
        out ^= tmp
        out *= _MIX1
        np.right_shift(out, np.uint64(27), out=tmp)
        out ^= tmp
        out *= _MIX2
        np.right_shift(out, np.uint64(31), out=tmp)
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


def uniform_from_uint64(h):
    # the top code's 2^53 - 1/2 rounds to 2^53, so it alone is clamped below 1
    u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return np.minimum(u, _U_MAX)


def _polevl(x, coef, out=None):
    """Cephes polevl: coef[0] x^n + ... + coef[n], by Horner's rule."""
    out = np.multiply(x, coef[0], out=out)
    out += coef[1]
    for c in coef[2:]:
        out *= x
        out += c
    return out


def _p1evl(x, coef):
    """Cephes p1evl: polevl with a leading coefficient of 1 left out of coef."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def ndtri(y):
    """Inverse of the standard normal CDF, elementwise.

    ndtri(0) = -inf, ndtri(1) = inf, and nan outside [0, 1].
    """
    y = np.array(y, dtype=np.float64)
    out = np.empty_like(y)
    _ndtri_into(y.reshape(-1), out.reshape(-1))
    return out


def _ndtri_into(y, out):
    """Write ndtri(y) into ``out``, using ``y`` as scratch; both are flat.

    The central branch is evaluated on every entry and the tails are then
    overwritten by index, since boolean masks of random draws are slow.
    """
    tail = np.flatnonzero((y <= _EXP_M2) | (y > 1.0 - _EXP_M2))
    yt = y.take(tail)
    # central branch: c + c^3 P0(c^2) / Q0(c^2) with c = y - 1/2, times sqrt(2 pi)
    with np.errstate(invalid="ignore", over="ignore"):
        c = y
        c -= 0.5
        c2 = c * c
        x = _polevl(c2, _P0, out=out)
        x *= c2
        x /= _p1evl(c2, _Q0)
        del c2
        x *= c
        x += c
        x *= _S2PI
    # tails, on min(y, 1 - y), which is exact there, with the sign of c:
    # with x = sqrt(-2 log y) and z = 1/x, x - log(x)/x - z P(z) / Q(z)
    np.minimum(yt, 1.0 - yt, out=yt)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log(yt, out=yt)
        x *= -2.0
        np.sqrt(x, out=x)
        x0 = np.log(x)
        x0 /= x
        np.subtract(x, x0, out=x0)
        far = np.flatnonzero(x >= 8.0)
        edge = np.flatnonzero(np.isinf(x))
        z = np.divide(1.0, x, out=x)
        x1 = _polevl(z, _P1)
        x1 *= z
        x1 /= _p1evl(z, _Q1)
        zf = z.take(far)
        x1[far] = zf * _polevl(zf, _P2) / _p1evl(zf, _Q2)
        x0 -= x1
    x0[edge] = np.inf
    out[tail] = np.copysign(x0, c.take(tail))


def _step_increments(seed: int, tag: str, n_particles: int, s0: int, s1: int,
                     n_components: int, dt: float) -> np.ndarray:
    """The increments of steps s0 <= s < s1, time-major (s1 - s0, N, m).

    Each draw is the function of its (particle, step, component) given in the
    module docstring, so any split of the steps gives the same bits.  They are
    made in blocks of about ``_BLOCK``: whole steps, or a run of particles of
    one step when a step has more draws than that.
    """
    m = n_components
    out = np.empty((s1 - s0, n_particles, m))
    key = stream_key(seed, tag)
    scale = np.sqrt(dt)
    components = np.arange(m, dtype=np.uint64)
    rows = max(1, min(n_particles, _BLOCK // max(m, 1)))
    steps = max(1, _BLOCK // max(n_particles * m, 1))
    flat = out.reshape(-1)
    for p0 in range(0, n_particles, rows):
        p1 = min(p0 + rows, n_particles)
        h_p = key ^ np.arange(p0, p1, dtype=np.uint64)[None, :, None]
        mix64(h_p, out=h_p)
        for a in range(s0, s1, steps):
            b = min(a + steps, s1)
            h = h_p ^ np.arange(a, b, dtype=np.uint64)[:, None, None]
            mix64(h, out=h)
            h = h ^ components
            mix64(h, out=h)
            u = uniform_from_uint64(h).reshape(-1)
            del h
            # whole steps, or one step's run of particles: contiguous either way
            lo = ((a - s0) * n_particles + p0) * m
            block = flat[lo:lo + u.size]
            _ndtri_into(u, block)
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
