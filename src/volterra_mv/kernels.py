"""Two-parameter Volterra kernels, their grid discretizations, and kernel algebra.

A kernel is a positive function K(t, s) on the simplex 0 <= s < t, possibly
blowing up at the diagonal s -> t (and, for the fractional-Brownian family,
at the edge s -> 0).  Grid discretizations carry *cell-averaged* weights

    w[i, j] = (1/dt) * integral of K(t_i, s) over [t_j, t_{j+1}],   j < i,

which stay finite for integrable singularities and make the left-point
quadrature rule first-order accurate.  Convolution, the resolvent (a
triangular solve of R = K + K*R), the Volterra Gronwall construction, and a
numerical Hoelder-regularity probe all operate on these weights.
"""

from __future__ import annotations

import csv
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    GridMismatchError,
    KernelDomainError,
    NonIntegrableError,
    SingularityError,
)
from .grids import TimeGrid
from . import rng as _rng

_GL_NODES = 12
_GL_EDGE_NODES = 24


def _hex_floats(text):
    return np.array([float.fromhex(v) for v in text.split()])


# the _GL_NODES- and _GL_EDGE_NODES-point Gauss-Legendre rules on [0, 1],
# nodes ascending: numpy.polynomial.legendre.leggauss(n) mapped by
# x -> 0.5 * (x + 1) and w -> 0.5 * w, written out as exact hex floats so that
# no run imports numpy.polynomial
_GL_X = _hex_floats("""
    0x1.2e1c4e37a2fe0p-7 0x1.88bc58023ba68p-5 0x1.d73d4449dc328p-4
    0x1.a6961f47f100ep-3 0x1.43ab96faba732p-2 0x1.bfe1681c273c7p-2
    0x1.200f4bf1ec61cp-1 0x1.5e2a3482a2c67p-1 0x1.965a782e03bfcp-1
    0x1.c5185776c479bp-1 0x1.e7743a7fdc45ap-1 0x1.fb478ec721740p-1
""")
_GL_W = _hex_floats("""
    0x1.8275d9dea6d53p-6 0x1.b60602bce61afp-5 0x1.47d7258f22d96p-4
    0x1.a0163e6b1ab6bp-4 0x1.de3155c256aaep-4 0x1.fe40ce6d4f022p-4
    0x1.fe40ce6d4f022p-4 0x1.de3155c256aaep-4 0x1.a0163e6b1ab6bp-4
    0x1.47d7258f22d96p-4 0x1.b60602bce61afp-5 0x1.8275d9dea6d53p-6
""")
_GLE_X = _hex_floats("""
    0x1.3b690cb733f00p-9 0x1.9e0c1e680f140p-7 0x1.f9a7a58f55b30p-6
    0x1.d13df3cd97858p-5 0x1.70a2cc7cb2400p-4 0x1.0a1ce248c4454p-3
    0x1.685a2340bdef4p-3 0x1.d17d08a7651aap-3 0x1.21e5d13f0eda6p-2
    0x1.5eb2b9d3b8b78p-2 0x1.9e25aaf51ac1dp-2 0x1.df33ef5824ba3p-2
    0x1.10660853eda2ep-1 0x1.30ed2a85729f2p-1 0x1.50a6a31623a44p-1
    0x1.6f0d17607892dp-1 0x1.8ba0bdd626b96p-1 0x1.a5e9772fd0843p-1
    0x1.bd78c76dceeebp-1 0x1.d1eba67069b80p-1 0x1.e2ec20c32687ap-1
    0x1.f032c2d385526p-1 0x1.f987cf865fc3bp-1 0x1.fec496f348cc1p-1
""")
_GLE_W = _hex_floats("""
    0x1.9465bd311255dp-8 0x1.d375514486effp-7 0x1.6ab884f57c940p-6
    0x1.e5c6255d25e9dp-6 0x1.2c6d5c2eff05ap-5 0x1.6108ef5044635p-5
    0x1.8fd8936444b19p-5 0x1.b8177ba4a68d7p-5 0x1.d91c78acb1b27p-5
    0x1.f25cbce1d1fefp-5 0x1.01b7117cf8bd6p-4 0x1.060475e763731p-4
    0x1.060475e763731p-4 0x1.01b7117cf8bd6p-4 0x1.f25cbce1d1fefp-5
    0x1.d91c78acb1b27p-5 0x1.b8177ba4a68d7p-5 0x1.8fd8936444b19p-5
    0x1.6108ef5044635p-5 0x1.2c6d5c2eff05ap-5 0x1.e5c6255d25e9dp-6
    0x1.6ab884f57c940p-6 0x1.d375514486effp-7 0x1.9465bd311255dp-8
""")


# Gauss series terms summed per fbm kernel value; each series is evaluated only
# where its argument is at most 1/2, so 2^-60 bounds the neglected tail
_FBM_TERMS = 60
# FbmKernel evaluates this many points at a time
_FBM_BLOCK = 1 << 15
# _cell_averages evaluates interior cells this many at a time, one FbmKernel
# block of points
_CELL_BLOCK = _FBM_BLOCK // _GL_NODES
# Bernoulli numbers B_2k as (numerator, denominator), for Stirling's series
_BERNOULLI = ((1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730),
              (7, 6), (-3617, 510), (43867, 798), (-174611, 330))
_PI_40 = "3.141592653589793238462643383279502884197"


def _gamma_dec(x):
    """Gamma(x) of a Decimal 0 < x < 3, to about 30 digits: Stirling's series
    at x + 30 and the recurrence back down.  Needs a context of 40 digits."""
    from decimal import Decimal

    shift = Decimal(1)
    for k in range(30):
        shift *= x + k
    z = x + 30
    lg = (z - Decimal("0.5")) * z.ln() - z + (2 * Decimal(_PI_40)).ln() / 2
    zpow = z
    for k, (num, den) in enumerate(_BERNOULLI, start=1):
        lg += Decimal(num) / (den * 2 * k * (2 * k - 1) * zpow)
        zpow *= z * z
    return lg.exp() / shift


def _fbm_normalizer_dec(h):
    """c_H = sqrt(2H Gamma(3/2 - H) / (Gamma(H + 1/2) Gamma(2 - 2H))) of a Decimal H."""
    from decimal import Decimal

    half = Decimal("0.5")
    return (2 * h * _gamma_dec(1 + half - h)
            / (_gamma_dec(h + half) * _gamma_dec(2 - 2 * h))).sqrt()


@lru_cache(maxsize=64)
def fbm_normalizer(hurst: float) -> float:
    """The constant making the fractional kernel reproduce unit-variance increments,
    formed in 40-digit decimal arithmetic and rounded once to a float."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        return float(_fbm_normalizer_dec(Decimal(hurst)))


@lru_cache(maxsize=64)
def _fbm_series(hurst: float):
    """c_H B, and the Gauss-series coefficients of FbmKernel, highest degree
    first: F(-a, 1; a + 1; w) and F(-a, 1; 1 - 2a; r) with a = H - 1/2.

    B = Gamma(a + 1) Gamma(-2a) / Gamma(-a), written with the duplication
    formula as Gamma(a + 1) Gamma(1/2 - a) 2^(-2a-1) / sqrt(pi).  Everything is
    formed in 40-digit decimal arithmetic and rounded once per float.
    """
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 40
        a = Decimal(hurst - 0.5)
        b = (_gamma_dec(a + 1) * _gamma_dec(Decimal("0.5") - a) * Decimal(2) ** (-2 * a - 1)
             / Decimal(_PI_40).sqrt())
        series = []
        for gamma in (a + 1, 1 - 2 * a):
            coef = [Decimal(1)]
            for k in range(_FBM_TERMS - 1):
                coef.append(coef[-1] * (k - a) / (gamma + k))
            series.append(tuple(float(v) for v in reversed(coef)))
        return float(_fbm_normalizer_dec(Decimal(hurst)) * b), series[0], series[1]


def _horner(coef, x, out=None):
    """sum of coef[k] x^(n-1-k) for coef of length n >= 2, of a float or, in
    place on one array, ``out`` or a new one, of an array."""
    acc = coef[0] * x if out is None else np.multiply(x, coef[0], out=out)
    acc += coef[1]
    for ck in coef[2:]:
        acc *= x
        acc += ck
    return acc


class Kernel:
    """Base class for kernels on the simplex.

    Subclasses implement a vectorized ``__call__(t, s)`` and exact or
    quadrature-backed subinterval integrals.  Cell-averaged grid weights
    default to ``_cell_averages`` with the declared edge exponents; families
    with a closed form override them.  A ``stationary`` kernel, K(t, s) =
    k(t - s), has n cell-averaged lags (``average_lags``) as its grid weights,
    w[i, j] = lags[i - j - 1].
    """

    family = "abstract"
    stationary = False
    _cell_temporaries = 1  # arrays of its input's size its evaluator holds in a build by cells
    # algebraic edge exponents used by singularity-aware quadrature:
    # K(t, s) ~ s^edge_exponent_origin as s -> 0,
    # K(t, s) ~ (t-s)^edge_exponent_diagonal as s -> t.
    edge_exponent_origin = 0.0
    edge_exponent_diagonal = 0.0

    def __call__(self, t, s):
        raise NotImplementedError

    def integrate(self, t: float, a: float, b: float, power: int = 1) -> float:
        """integral of K(t, s)^power ds over [a, b], 0 <= a <= b <= t."""
        _check_integral_bounds(t, a, b)
        if a == b:
            return 0.0
        return self._integrate_impl(t, a, b, power)

    def _integrate_impl(self, t, a, b, power):
        exp_lo = power * self.edge_exponent_origin if a == 0.0 else 0.0
        exp_hi = power * self.edge_exponent_diagonal if b == t else 0.0
        return _quad_power_edges(
            lambda s: float(self(t, s)) ** power, a, b, exp_lo, exp_hi
        )

    def average_lags(self, grid: TimeGrid) -> np.ndarray:
        """The n cell-averaged lags of a stationary kernel: lags[r] weighs,
        seen from a node, the cell that ends r cells before it, so that
        w[i, j] = lags[i - j - 1]."""
        raise NotImplementedError(f"the {self.family} kernel is not stationary")

    def average_triangle(self, grid: TimeGrid) -> "PackedTriangle":
        """The strictly lower triangle of the cell-averaged weights, packed
        row after row, built by cells."""
        _check_horizon(self, grid)
        w = np.zeros(grid.n_steps * (grid.n_steps + 1) // 2)
        _cell_averages(self, grid, self.edge_exponent_origin, self.edge_exponent_diagonal, w)
        return PackedTriangle(w, grid.n_steps)

    def average_weights(self, grid: TimeGrid) -> np.ndarray:
        """Cell-averaged (n+1, n) weights, zero for j >= i: the cached march
        weights unpacked, or ones built for this call, which it does not cache."""
        form = _cached(self, grid)
        return (_march_form(self)[0](grid) if form is None else form).dense()


@dataclass(frozen=True)
class ConstantKernel(Kernel):
    value: float = 1.0
    family = "constant"
    stationary = True

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("constant kernel value must be finite")

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(np.float64(self.value), np.broadcast_shapes(t.shape, s.shape)).copy()

    def _integrate_impl(self, t, a, b, power):
        return self.value**power * (b - a)

    def average_lags(self, grid):
        return np.full(grid.n_steps, float(self.value))


@dataclass(frozen=True)
class PowerKernel(Kernel):
    """K(t, s) = scale * (t - s)^(hurst - 1/2)."""

    hurst: float
    scale: float = 1.0
    family = "power"
    stationary = True

    def __post_init__(self):
        if not np.isfinite(self.hurst):
            raise ValueError("power kernel exponent parameter must be finite")
        if self.scale <= 0:
            raise ValueError("power kernel scale must be positive")

    @property
    def _a(self):
        return self.hurst - 0.5

    @property
    def edge_exponent_diagonal(self):
        return min(self._a, 0.0)

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        return self.scale * (t - s) ** self._a

    def _integrate_impl(self, t, a, b, power):
        q = power * self._a + 1.0
        if q <= 0.0 and b == t:
            raise NonIntegrableError(
                f"power kernel with exponent {self._a} is not {power}-integrable at the diagonal"
            )
        if q == 0.0:
            return self.scale**power * (math.log(t - a) - math.log(t - b))
        return self.scale**power * ((t - a) ** q - (t - b) ** q) / q

    def average_lags(self, grid):
        return _power_lags(self.scale, self._a, grid)


class _SeriesScratch:
    """The buffers of FbmKernel's series over one block of at most ``size``
    points: four float columns, a mask, and an index set with the positions
    it is taken from.  A weight build lends one to all its blocks, which then
    allocate none of their own.  The columns are separate arrays: a single
    (4, size) one, once freed, raises glibc's mmap threshold past the later
    march temporaries, which then stay in the heap and raise the peak RSS."""

    def __init__(self, size: int):
        self.size = size
        self._floats = [np.empty(size) for _ in range(4)]
        self.mask = np.empty(size, dtype=bool)
        self._index = np.empty(size, dtype=np.intp)
        self._positions = np.arange(size)

    def columns(self, k: int):
        return tuple(col[:k] for col in self._floats)

    def indices(self, mask: np.ndarray) -> np.ndarray:
        """np.flatnonzero(mask), written into the index buffer."""
        k = int(np.count_nonzero(mask))
        return np.compress(mask, self._positions[:len(mask)], out=self._index[:k])


@dataclass(frozen=True)
class FbmKernel(Kernel):
    """The Volterra representation kernel of fractional Brownian motion.

    K(t, s) = c_H (t-s)^(H-1/2)
              + c_H (1/2 - H) * int_s^t (u-s)^(H-3/2) (1 - (s/u)^(1/2-H)) du.

    With a = H - 1/2, r = s/t, w = 1 - r and F(alpha, 1; gamma; x) the Gauss
    series sum_k (alpha)_k / (gamma)_k x^k, Pfaff's transformation and the 1 - z
    connection formula (DLMF 15.8.1, 15.8.4) give

        K(t, s) = c_H (t-s)^a (t/s)^a F(-a, 1; a+1; w)
                = c_H B s^a + (c_H / 2) (t-s)^a (t/s)^a F(-a, 1; 1-2a; r),

    with B = Gamma(a+1) Gamma(-2a) / Gamma(-a).  The vectorized evaluation sums
    the first series where r > 1/2 and the second where r <= 1/2, each by
    Horner's rule over ``_FBM_TERMS`` coefficients.
    """

    hurst: float
    family = "fbm"
    # the correction's series scratch (4 float columns, a mask, 2 index columns)
    # and about 5 more (tracemalloc, n = 50..1600)
    _cell_temporaries = 12

    def __post_init__(self):
        if not (0.0 < self.hurst < 1.0):
            raise ValueError("fbm kernel needs Hurst index in (0, 1)")

    @property
    def _a(self):
        return self.hurst - 0.5

    @property
    def normalizer(self):
        return fbm_normalizer(self.hurst)

    @property
    def stationary(self):
        # at H = 1/2 the kernel is the constant 1
        return self._a == 0.0

    @property
    def edge_exponent_origin(self):
        return -abs(self._a)

    @property
    def edge_exponent_diagonal(self):
        return min(self._a, 0.0)

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        if self._a == 0.0:
            return np.broadcast_to(1.0, np.broadcast_shapes(t.shape, s.shape)).copy()
        return self._series(t, s, correction=False)

    def _series(self, t, s, correction):
        """K(t, s), or with ``correction`` K minus its leading part c_H (t-s)^a,
        from the two Gauss series of the class docstring."""
        a = self._a
        c = self.normalizer
        cb, w_coef, r_coef = _fbm_series(self.hurst)
        t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
        if t.ndim == 0 and 0.0 < s < t:
            # one interior point, as quadrature and probes ask for it: Python
            # floats spare the per-call cost of some 250 numpy operations
            t, s = float(t), float(s)
            d = t - s
            val = c * (d * t / s) ** a
            if s > 0.5 * t:
                val *= _horner(w_coef, d / t)
            else:
                val = cb * s**a + 0.5 * val * _horner(r_coef, s / t)
            return np.float64(val - c * d**a if correction else val)
        shape = t.shape
        t = t.ravel()
        s = s.ravel()
        out = np.empty(t.size)
        scratch = self.__dict__.get("_block_scratch")
        if scratch is None or scratch.size < min(t.size, _FBM_BLOCK):
            scratch = _SeriesScratch(min(t.size, _FBM_BLOCK))
        # in blocks, so that the Horner passes stay in cache, and into the
        # scratch's buffers by the operations, in the order, of
        #     d = t - s;  out = c_H (d t / s)^a
        #     out[near] *= horner(w_coef, d[near] / t[near])
        #     out[far] = cb s[far]^a + 0.5 out[far] horner(r_coef, s[far] / t[far])
        for lo in range(0, t.size, _FBM_BLOCK):
            tb = t[lo:lo + _FBM_BLOCK]
            sb = s[lo:lo + _FBM_BLOCK]
            ob = out[lo:lo + _FBM_BLOCK]
            d, u, v, g = scratch.columns(len(tb))
            with np.errstate(divide="ignore", invalid="ignore"):
                np.subtract(tb, sb, out=d)
                # c_H ((t-s) t/s)^a = c_H (t-s)^a (t/s)^a, shared by both series
                np.divide(np.multiply(d, tb, out=u), sb, out=u)
                np.power(u, a, out=ob)
                ob *= c
                is_near = np.greater(sb, np.multiply(tb, 0.5, out=u), out=scratch.mask[:len(tb)])
                near = scratch.indices(is_near)
                x = np.take(d, near, out=u[:len(near)])
                x /= np.take(tb, near, out=v[:len(near)])
                on = np.take(ob, near, out=v[:len(near)])
                on *= _horner(w_coef, x, out=g[:len(near)])
                ob[near] = on
                far = scratch.indices(np.logical_not(is_near, out=is_near))
                sf = np.take(sb, far, out=u[:len(far)])
                x = np.divide(sf, np.take(tb, far, out=v[:len(far)]), out=v[:len(far)])
                hz = _horner(r_coef, x, out=g[:len(far)])
                lead = np.power(sf, a, out=sf)
                lead *= cb
                of = np.take(ob, far, out=v[:len(far)])
                of *= 0.5
                of *= hz
                of += lead
                ob[far] = of
                if correction:
                    ob -= np.multiply(np.power(d, a, out=u), c, out=u)
        return out.reshape(shape)

    def _correction(self, t, s):
        """K(t, s) minus its leading power part, vectorized."""
        return self._series(t, s, correction=True)

    def average_lags(self, grid):
        if not self.stationary:
            return super().average_lags(grid)
        return ConstantKernel(1.0).average_lags(grid)

    def average_triangle(self, grid):
        # the leading power part exactly, packed (row i is the last i of the
        # reversed lags), and the correction, which is bounded at the diagonal
        # and blows up like the kernel at the origin, by cells
        n = grid.n_steps
        rev = _power_lags(self.normalizer, self._a, grid)[::-1]
        w = np.concatenate([rev[n - i:] for i in range(1, n + 1)])
        # every block of the build evaluates the series in one scratch, of a
        # block of quadrature nodes or of all of them
        size = min(_FBM_BLOCK, _GL_NODES * n * (n + 1) // 2)
        object.__setattr__(self, "_block_scratch", _SeriesScratch(size))
        try:
            _cell_averages(self._correction, grid, self.edge_exponent_origin, 0.0, w)
        finally:
            object.__delattr__(self, "_block_scratch")
        return PackedTriangle(w, n)


@dataclass(frozen=True)
class TabulatedKernel(Kernel):
    """Kernel given by point values on a uniform node grid, interpolated bilinearly."""

    times: np.ndarray
    values: np.ndarray  # values[i, j] = K(times[i], times[j]) for j < i
    family = "tabulated"
    _cell_temporaries = 14  # in __call__ (tracemalloc, n = 50..1600)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.size < 2 or v.shape != (t.size, t.size):
            raise ValueError("tabulated kernel needs times (m,) and values (m, m)")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("tabulated kernel times and values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def t_max(self):
        return float(self.times[-1])

    @classmethod
    def from_csv(cls, path) -> "TabulatedKernel":
        """Load rows ``t,s,value``; node set must form a uniform grid."""
        ts, ss, vs = [], [], []
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != ["t", "s", "value"]:
                raise ValueError("tabulated kernel CSV must have header t,s,value")
            for row in reader:
                ts.append(float(row["t"]))
                ss.append(float(row["s"]))
                vs.append(float(row["value"]))
        nodes = np.unique(np.concatenate([ts, ss]))
        if nodes.size < 2 or not np.allclose(np.diff(nodes), nodes[1] - nodes[0], rtol=1e-9):
            raise ValueError("tabulated kernel nodes must form a uniform grid")
        m = nodes.size
        vals = np.zeros((m, m))
        step = nodes[1] - nodes[0]
        for t, s, v in zip(ts, ss, vs):
            i = int(round((t - nodes[0]) / step))
            j = int(round((s - nodes[0]) / step))
            vals[i, j] = v
        return cls(times=nodes, values=vals)

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        step = self.times[1] - self.times[0]
        m = self.times.size - 1
        it = np.clip(((t - self.times[0]) / step).astype(int), 0, m - 1)
        js = np.clip(((s - self.times[0]) / step).astype(int), 0, m - 1)
        ft = (t - self.times[it]) / step
        fs = (s - self.times[js]) / step
        out = np.zeros(np.broadcast_shapes(t.shape, s.shape))
        tot = np.zeros_like(out)
        for di, wt in ((0, 1.0 - ft), (1, ft)):
            for dj, ws in ((0, 1.0 - fs), (1, fs)):
                ii = it + di
                jj = js + dj
                ok = jj < ii
                wgt = np.where(ok, wt * ws, 0.0)
                out = out + wgt * np.where(ok, self.values[ii, jj], 0.0)
                tot = tot + wgt
        with np.errstate(invalid="ignore", divide="ignore"):
            res = np.where(tot > 0, out / np.maximum(tot, 1e-300), 0.0)
        return res


@dataclass(frozen=True)
class CustomKernel(Kernel):
    """Kernel backed by a user evaluator ``fn(t, s)`` that broadcasts over arrays.

    A negative ``edge_exponent_origin`` or ``edge_exponent_diagonal``, in
    (-1, 0), declares K ~ s^e as s -> 0 or K ~ (t - s)^e as s -> t, and by
    itself makes the grid weights of column 0 or of the diagonal cells absorb
    it by a power substitution.  ``convolution_profile``, when given, declares
    K(t, s) = profile(t - s): the kernel is stationary, and its grid weights
    are one average per lag; the lag-0 one absorbs ``edge_exponent_diagonal``.
    """

    fn: object
    edge_exponent_origin: float = 0.0
    edge_exponent_diagonal: float = 0.0
    convolution_profile: object | None = None
    family = "custom"

    def __call__(self, t, s):
        t = np.asarray(t, dtype=float)
        s = np.asarray(s, dtype=float)
        out = np.asarray(self.fn(t, s), dtype=float)
        if not np.all(np.isfinite(out)):
            raise SingularityError("custom kernel evaluator returned a non-finite value")
        return out

    @property
    def stationary(self):
        return self.convolution_profile is not None

    def average_lags(self, grid):
        if not self.stationary:
            return super().average_lags(grid)
        # lag r averages the profile over cell r, as row n of the weights of
        # profile(s) does, whose blow-up at u -> 0 is one at the origin
        return _cell_averages(lambda t, s: self.convolution_profile(s), grid,
                              self.edge_exponent_diagonal, 0.0, np.zeros(grid.n_steps),
                              first_row=grid.n_steps)


class _Rows:
    """Weights of an n-step grid held by rows, as a march reads them: ``n_steps``,
    and ``row(i)``, the weights w[i, :i] of node i for 1 <= i <= n."""

    def dense(self) -> np.ndarray:
        """The (n+1, n) matrix, zero for j >= i."""
        n = self.n_steps
        w = np.zeros((n + 1, n))
        for i in range(1, n + 1):
            w[i, :i] = self.row(i)
        return w


class LagRows(_Rows):
    """The weights w[i, j] = lags[i - j - 1] of a stationary kernel's n lags,
    held once reversed: row i is the last i of the reversed lags."""

    def __init__(self, lags: np.ndarray):
        self._reversed = np.asarray(lags, dtype=float)[::-1].copy()
        self.n_steps = len(self._reversed)

    def row(self, i: int) -> np.ndarray:
        return self._reversed[self.n_steps - i:]


@dataclass(frozen=True, eq=False)
class PackedTriangle(_Rows):
    """The strictly lower triangle of (n+1, n) grid weights, n(n+1)/2 floats
    packed row after row: row i, over its columns j < i, is
    values[i(i-1)/2 : i(i+1)/2]."""

    values: np.ndarray = field(repr=False)
    n_steps: int

    def row(self, i: int) -> np.ndarray:
        start = i * (i - 1) // 2
        return self.values[start : start + i]


def _power_lags(scale: float, a: float, grid: TimeGrid) -> np.ndarray:
    """Cell-averaged lags of scale * (t - s)^a: antiderivative differences
    over whole cells, one value per lag r = i - j - 1."""
    q = a + 1.0
    if q <= 0.0:
        raise NonIntegrableError("power kernel is not integrable at the diagonal")
    r = np.arange(grid.n_steps + 1, dtype=float)
    return scale * grid.dt**a * (r[1:] ** q - r[:-1] ** q) / q


def _edge_rule(exponent, span):
    """Nodes, and weights summing to 1, of the _GL_EDGE_NODES-point rule for
    the mean over [0, span] after the substitution y = span x^q with
    q = 1 / (1 + exponent), which makes y^exponent g(y) bounded."""
    q = 1.0 / (1.0 + exponent)
    return span * _GLE_X**q, _GLE_W * q * _GLE_X ** (q - 1.0)


def _row_chunk(n: int) -> int:
    """Rows _cell_averages takes at a time: about 2e6 interior nodes.  Each
    chunk's edge columns are matrix products, whose sums may take another
    order for another number of rows, so this partition keeps the weights
    bitwise."""
    return max(1, int(2e6 / (max(n, 1) * _GL_NODES)))


def _cell_averages_scratch(n: int, temporaries: int) -> int:
    """Bytes _cell_averages holds beside its output at n steps, for an f that
    makes ``temporaries`` arrays of its input's size: one block of cells, its
    indices (about 5 integer arrays) and f over it."""
    cells = min(n * (n - 1) // 2, _CELL_BLOCK)
    return (40 + 8 * temporaries * _GL_NODES) * cells


def _cell_averages(f, grid, exp_origin, exp_diagonal, w, first_row=1):
    """Add (1/dt) int_{t_j}^{t_{j+1}} f(t_i, s) ds to the entry (i, j) of w for
    j < i and first_row <= i <= n, and return w: the rows first_row .. n of a
    strictly lower triangle, packed row after row, so that row n is last.

    f(t, s) broadcasts a column of times against their nodes.  Interior cells
    take the _GL_NODES-point rule.  A negative exp_origin (f ~ s^e as s -> 0)
    gives column 0 the substituted _GL_EDGE_NODES-point rule, and a negative
    exp_diagonal (f ~ (t - s)^e as s -> t) the diagonal cells; row 1's one
    cell, when both are negative, is split at its midpoint.
    """
    n, dt, times = grid.n_steps, grid.dt, grid.times
    # row i starts at starts[i]
    nodes = np.arange(n + 1)
    starts = (nodes * (nodes - 1) - first_row * (first_row - 1)) // 2
    j0, jd = int(exp_origin < 0.0), int(exp_diagonal < 0.0)
    if j0:
        s0, w0 = _edge_rule(exp_origin, dt)
    if jd:
        ud, wd = _edge_rule(exp_diagonal, dt)  # distances below t_i
    chunk = _row_chunk(n)
    for lo in range(first_row, n + 1, chunk):
        hi = min(lo + chunk, n + 1)
        # interior cells j0 <= j < i - jd of rows lo <= i < hi, row after
        # row, evaluated _CELL_BLOCK at a time: each cell's sum is its own.
        # Row lo + r holds the cells ends[r] - counts[r] <= c < ends[r] of
        # the chunk, and a block finds its cells' rows and columns from those
        counts = np.maximum(nodes[lo:hi] - j0 - jd, 0)
        ends = np.cumsum(counts)
        total = int(ends[-1])
        for c0 in range(0, total, _CELL_BLOCK):
            cells = np.arange(c0, min(c0 + _CELL_BLOCK, total))
            r = np.searchsorted(ends, cells, side="right")
            ic = lo + r
            jc = cells - (ends[r] - counts[r]) + j0
            s_nodes = times[jc][:, None] + dt * _GL_X[None, :]
            vals = f(times[ic][:, None], s_nodes)
            w[starts[ic] + jc] += np.einsum("pg,g->p", vals, _GL_W)
        split = int(j0 and jd and lo == 1)
        rows = nodes[lo + split:hi]
        t = times[rows][:, None]
        if j0:
            w[starts[rows]] += f(t, s0[None, :]) @ w0
        if jd:
            w[starts[rows] + rows - 1] += f(t, t - ud[None, :]) @ wd
        if split:
            t1 = times[1:2, None]
            w[starts[1]] += 0.5 * (f(t1, 0.5 * s0[None, :]) @ w0 + f(t1, t1 - 0.5 * ud[None, :]) @ wd)[0]
    return w


def _check_horizon(kernel, grid):
    t_max = getattr(kernel, "t_max", None)
    if t_max is not None and grid.horizon > t_max + 1e-12:
        raise KernelDomainError("grid horizon exceeds the kernel horizon")


def _check_integral_bounds(t, a, b):
    if not (0.0 <= a <= b <= t):
        raise KernelDomainError(f"integral bounds need 0 <= a <= b <= t, got a={a}, b={b}, t={t}")


def _quad_power_edges(f, lo, hi, exp_lo=0.0, exp_hi=0.0, epsrel=1e-10):
    """Adaptive integral of f over (lo, hi) with algebraic endpoint singularities.

    exp_lo / exp_hi are the blow-up exponents of f at each endpoint (negative,
    > -1); a power substitution makes the transformed integrand bounded.
    """
    from scipy.integrate import quad

    if hi <= lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    total = 0.0
    if exp_lo < 0.0:
        q = 1.0 / (1.0 + exp_lo)
        span = mid - lo

        def g_lo(x):
            return f(lo + span * x**q) * span * q * x ** (q - 1.0)

        val, _ = quad(g_lo, 0.0, 1.0, epsrel=epsrel, epsabs=0.0, limit=500)
        total += val
        lo = mid
    if exp_hi < 0.0:
        q = 1.0 / (1.0 + exp_hi)
        span = hi - mid

        def g_hi(x):
            return f(hi - span * x**q) * span * q * x ** (q - 1.0)

        val, _ = quad(g_hi, 0.0, 1.0, epsrel=epsrel, epsabs=0.0, limit=500)
        total += val
        hi = mid
    if hi > lo:
        val, _ = quad(f, lo, hi, epsrel=epsrel, epsabs=0.0, limit=500)
        total += val
    return total


def eval_kernel(kernel: Kernel, t: float, s: float) -> float:
    """Point evaluation K(t, s) with domain and finiteness checks."""
    t_max = getattr(kernel, "t_max", None)
    if not (0.0 <= s < t):
        raise KernelDomainError(f"kernel arguments need 0 <= s < t, got s={s}, t={t}")
    if t_max is not None and t > t_max + 1e-12:
        raise KernelDomainError(f"kernel argument t={t} exceeds the admissible horizon {t_max}")
    val = float(kernel(np.float64(t), np.float64(s)))
    if not np.isfinite(val):
        raise SingularityError(f"kernel evaluation at (t={t}, s={s}) is not finite")
    return val


def integrate_kernel(kernel: Kernel, t: float, a: float, b: float, power: int = 1) -> float:
    """integral over [a, b] of K(t, s)^power ds for power in {1, 2}."""
    if power not in (1, 2):
        raise ValueError("power must be 1 or 2")
    return kernel.integrate(t, a, b, power)


@dataclass(frozen=True)
class GridKernel:
    """Cell-averaged kernel weights on a uniform grid.

    ``weights`` has shape (n+1, n); entry (i, j) covers the cell
    [t_j, t_{j+1}] seen from node t_i and vanishes for j >= i.
    """

    grid: TimeGrid
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        n = self.grid.n_steps
        if w.shape != (n + 1, n):
            raise ValueError(f"weights must have shape ({n + 1}, {n})")
        i = np.arange(n + 1)[:, None]
        j = np.arange(n)[None, :]
        if np.any(w[j >= i] != 0.0):
            raise ValueError("weights must vanish on and above the diagonal")
        if not np.all(np.isfinite(w)):
            raise NonIntegrableError("grid kernel weights are not finite")
        object.__setattr__(self, "weights", w)

    @classmethod
    def from_kernel(cls, kernel: Kernel, grid: TimeGrid) -> "GridKernel":
        return cls(grid=grid, weights=kernel.average_weights(grid))

    @classmethod
    def zero(cls, grid: TimeGrid) -> "GridKernel":
        return cls(grid=grid, weights=np.zeros((grid.n_steps + 1, grid.n_steps)))

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    def row(self, i: int) -> np.ndarray:
        return self.weights[i, :i]

    def apply(self, path: np.ndarray) -> np.ndarray:
        """Left-point Volterra application: out[i] = dt * sum_{k<i} w[i,k] path[k]."""
        path = np.asarray(path, dtype=float)
        n = self.grid.n_steps
        if path.shape[0] != n + 1:
            raise GridMismatchError("path length does not match the grid")
        return self.grid.dt * (self.weights @ path[:n])

    def row_integrals(self) -> np.ndarray:
        """Approximations of int_0^{t_i} K(t_i, s) ds per node."""
        return self.grid.dt * self.weights.sum(axis=1)

    def max_abs(self) -> float:
        return float(np.abs(self.weights).max(initial=0.0))


def _cached(kernel: Kernel, grid: TimeGrid, build=None):
    """build(grid), cached as ``_march_cache`` of the (immutable) kernel for the
    last grid it was used on; without ``build``, the cached value or None."""
    key = (grid.horizon, grid.n_steps)
    cached = getattr(kernel, "_march_cache", (None, None))
    if cached[0] != key and build is not None:
        cached = (key, build(grid))
        object.__setattr__(kernel, "_march_cache", cached)
    return cached[1] if cached[0] == key else None


def _march_form(kernel: Kernel):
    """The form of a kernel's march weights, as its build on a grid and its bytes
    and build scratch bytes at n steps: n lags (LagRows) of a stationary kernel,
    else n(n+1)/2 packed floats (PackedTriangle) built by cells."""
    if kernel.stationary:
        return lambda grid: LagRows(kernel.average_lags(grid)), lambda n: (8 * n, 0)
    return (kernel.average_triangle,
            lambda n: (8 * (n * (n + 1) // 2), _cell_averages_scratch(n, kernel._cell_temporaries)))


def march_weights(kernel: Kernel, grid: TimeGrid):
    """A kernel's weights in the form ``_march_form`` picks, cached on the
    kernel for the last grid it was used on: every history sum reads them."""
    return _cached(kernel, grid, _march_form(kernel)[0])


def march_bytes(kernel: Kernel, n_steps: int) -> tuple:
    """Bytes of a kernel's march weights at n steps, and of their build's scratch."""
    return _march_form(kernel)[1](n_steps)


# History sums terms of at least HISTORY_BLOCKED_WIDTH floats in blocks of
# HISTORY_BLOCK steps; narrower terms (one-particle runs) keep the per-step
# product bit for bit.  Timed over one fbm(0.3) history sum at n = 400 on a
# 2-core host, the blocked path is 5-34% slower below 32 floats, even at 48
# and 3-16% faster from 64; the crossover falls as n grows (about 16 floats
# at n = 1600)
HISTORY_BLOCK = 32
HISTORY_BLOCKED_WIDTH = 64

# A march whose history terms are narrower than BLAS_THREADED_WIDTH floats
# pushes on one BLAS thread (``_one_blas_thread_below``).  Timed over one
# fbm(0.3) history sum of 400 pushes (200 at width 2e5) in 5 fresh processes
# a side on a 2-core host, numpy 2.4.6 with its OpenBLAS 0.3.31, seconds:
#     width    one thread     two threads
#     1200     0.010-0.014    0.008-0.012, and 0.180-0.186 in 2 processes
#     2000     0.014-0.019    0.014-0.018; 0.017-0.184 in earlier runs
#     5000     0.031-0.055    0.024-0.035, slower than its pair in 1
#     1e4      0.062-0.089    0.058-0.068, slower than its pair in 1
#     2e4      0.137-0.207    0.115-0.163
#     2e5      0.650-0.916    0.416-0.463
# From 2e4 up two threads won in every process.  Below it they lose in some
# processes, spin beside every push, and in some stall the far GEMMs, as at
# width 1200 (and at 2000 in earlier runs)
BLAS_THREADED_WIDTH = 20000


@lru_cache(maxsize=1)
def _openblas_threads():
    """The thread-count getter and setter of the OpenBLAS that numpy's wheels
    bundle, looked up once; None where numpy links another BLAS."""
    import ctypes
    import glob
    import os

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def _set_blas_threads(count: int) -> int | None:
    """Set the BLAS thread count and return the one it replaced, or do
    nothing and return None where the count cannot be set."""
    api = _openblas_threads()
    if api is None:
        return None
    before = api[0]()
    if before != count:
        api[1](count)
    return before


@contextmanager
def _one_blas_thread_below(width: int):
    """Run the body on one BLAS thread if ``width`` is below
    BLAS_THREADED_WIDTH, and give the caller's count back on every exit.
    Sums are the same bit for bit at any count, so two threads that march
    at once may change each other's speed but not their results."""
    before = _set_blas_threads(1) if width < BLAS_THREADED_WIDTH else None
    try:
        yield
    finally:
        if before not in (None, 1):
            _set_blas_threads(before)


def _history_shapes(n_steps: int, shape: tuple) -> tuple:
    """The shapes of a History's value, window and scratch buffers: n terms,
    and for a wide term HISTORY_BLOCK rows of n weights and one term."""
    wide = math.prod(shape) >= HISTORY_BLOCKED_WIDTH
    return (n_steps, *shape), (HISTORY_BLOCK, n_steps) if wide else None, shape if wide else None


def history_bytes(width: int, n_steps: int) -> int:
    """Bytes of the buffers of a History of ``width``-float terms at n steps."""
    return 8 * sum(math.prod(s) for s in _history_shapes(n_steps, (width,)) if s is not None)


class History:
    """Volterra history sums of a forward substitution on grid weights.

    ``weights`` is a form of the (n+1, n) strictly lower weights, and History
    reads only its ``n_steps`` and ``row(i)``, the weights w[i, :i]: the lags of
    ``LagRows``, a ``PackedTriangle`` or the dense matrix of a ``GridKernel``.
    A term is a scalar (``shape=()``) or a flat vector (``shape=(width,)``).
    The i-th ``push(h)`` stores ``h`` as h_i and returns
    ``sum_{k <= i} weights[i+1, k] h_k``, the history term of node i+1, so a
    scheme x[i+1] = base + dt * sum_k w[i+1, k] f(x_k) pushes f(x_i) once per
    step.

    A narrow term is summed as the row product, one GEMV over the whole
    history per push.  A wide term splits the sum at b0, the first step of
    the block of B = HISTORY_BLOCK steps that holds i: one GEMM at step b0
    forms the far part ``weights[b0+1 : b0+B+1, :b0] @ h[:b0]`` of every row
    of the block, and each push adds the near part over h[b0 : i+1], so a
    step rereads at most B history rows instead of i+1.  Only the order of
    the additions changes (about 2e-15 relative per push).  The far sums
    live in the block's own rows of the history, which no push has written
    yet: push i moves row i's into a one-row scratch before it stores h_i
    there.  A far block is copied row by row into a window laid out as the
    matrix's rows, so the sums are the same bit for bit in every form.

    ``buffers`` lends the history its value, window and scratch buffers, as
    ``Workspace.history`` does; without them it allocates its own.  Every
    push writes the rows it reads, so lent buffers give the same sums.
    """

    def __init__(self, weights, shape: tuple = (), buffers=None):
        self.weights = weights
        if buffers is None:
            buffers = [s and np.empty(s) for s in _history_shapes(weights.n_steps, shape)]
        self._values, self._window, self._scratch = buffers
        self._count = 0

    def _far_rows(self, b0: int) -> np.ndarray:
        """Rows b0+1 .. b0+B of the weights, those up to row n, over the
        columns j < b0, copied into the window."""
        rows = min(HISTORY_BLOCK, len(self._values) - b0)
        far = self._window[:rows, :b0]
        for k in range(rows):
            far[k] = self.weights.row(b0 + 1 + k)[:b0]
        return far

    def push(self, h) -> np.ndarray:
        i = self._count
        b0 = i - i % HISTORY_BLOCK
        if self._scratch is None or b0 == 0:
            self._values[i] = h
            self._count = i + 1
            return self.weights.row(i + 1) @ self._values[: i + 1]
        if i == b0:
            far = self._far_rows(b0)
            np.matmul(far, self._values[:b0], out=self._values[b0 : b0 + len(far)])
        far_i = self._scratch
        far_i[...] = self._values[i]
        self._values[i] = h
        self._count = i + 1
        return far_i + self.weights.row(i + 1)[b0:] @ self._values[b0 : i + 1]


class Workspace:
    """A pool of the buffers of History sums and of noise draws, for marches
    run one after another: the passes of an eps sweep then map their buffers
    once instead of once a pass.

    ``history`` builds a History on free buffers of its shape, or on new
    ones, and ``release`` hands the buffers of finished histories back; a
    released history must not be pushed again.  ``draws`` lends the one
    scratch of the pool's noise draws, which run one at a time.
    """

    def __init__(self):
        self._free = []
        self._draws = None

    def history(self, weights, shape: tuple = ()) -> History:
        rows = _history_shapes(weights.n_steps, shape)[0]
        for k, buffers in enumerate(self._free):
            if buffers[0].shape == rows:
                return History(weights, shape, buffers=self._free.pop(k))
        return History(weights, shape)

    def release(self, *histories) -> None:
        self._free.extend((h._values, h._window, h._scratch) for h in histories if h is not None)

    def draws(self, n_particles: int, n_steps: int, n_components: int) -> _rng.DrawScratch:
        """The scratch of draws of at most ``n_steps`` steps at a time of N
        particles with m components: the pool's, or a larger one that
        replaces it."""
        shape = _rng.scratch_shape(n_particles, n_steps, n_components)
        if self._draws is None or not self._draws.fits(*shape):
            self._draws = _rng.DrawScratch(*shape)
        return self._draws


def convolve(k: GridKernel, m: GridKernel) -> GridKernel:
    """Grid convolution (K*L)(t_i, cell_j) = dt * sum_{j<k<i} wK[i,k] wL[k,j]."""
    if k.grid != m.grid:
        raise GridMismatchError("convolution operands live on different grids")
    n = k.grid.n_steps
    w = k.grid.dt * (k.weights @ m.weights[:n, :])
    return GridKernel(grid=k.grid, weights=w)


def resolvent(k: GridKernel) -> GridKernel:
    """Resolvent R of K, satisfying R = K + K*R on the grid, solved row by row
    (strictly lower-triangular forward substitution)."""
    n = k.grid.n_steps
    dt = k.grid.dt
    r = k.weights.copy()
    hist = History(k, (n,))
    with _one_blas_thread_below(n):
        hist.push(r[0])  # row 0 vanishes, so R and K share row 1
        for i in range(2, n + 1):
            r[i, :] += dt * hist.push(r[i - 1])
    return GridKernel(grid=k.grid, weights=r)


def resolvent_bytes(n: int) -> int:
    """Bytes ``resolvent`` holds beside its operand: the rows of R and its History."""
    return 8 * (n + 1) * n + history_bytes(n, n)


@dataclass(frozen=True)
class GronwallReport:
    f: np.ndarray
    bound: np.ndarray
    satisfied: bool
    slack: float


def gronwall_check(k: GridKernel, g: np.ndarray) -> GronwallReport:
    """Volterra Gronwall construction on the grid.

    Builds the saturating solution f of f = g + K*f by forward substitution,
    the comparison bound g + R*g with the resolvent, and reports
    whether f <= bound + slack where slack = 2 * dt * max(g) *
    (1 + max_t int R) absorbs quadrature rounding.
    """
    g = np.asarray(g, dtype=float)
    n = k.grid.n_steps
    if g.shape != (n + 1,):
        raise GridMismatchError("g must be a path on the grid nodes")
    if np.any(g < 0.0):
        raise ValueError("g must be nonnegative")
    dt = k.grid.dt
    f = np.empty(n + 1)
    f[0] = g[0]
    hist = History(k)
    for i in range(n):
        f[i + 1] = g[i + 1] + dt * hist.push(f[i])
    r = resolvent(k)
    bound = g + r.apply(g)
    slack = 2.0 * dt * float(g.max(initial=0.0)) * (
        1.0 + float(r.row_integrals().max(initial=0.0))
    )
    satisfied = bool(np.all(f <= bound + slack))
    return GronwallReport(f=f, bound=bound, satisfied=satisfied, slack=slack)


def _log_fit(x: np.ndarray, y: np.ndarray):
    """Least-squares line through (log x, log y): its slope and intercept, R^2
    and the residuals log y - fit."""
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(residuals ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return slope, intercept, r2, residuals


@dataclass(frozen=True)
class RegularityEstimate:
    gamma_hat: float
    slope: float
    intercept: float
    r2: float
    max_log_residual: float
    h_values: np.ndarray
    d_values: np.ndarray


def regularity_probe(kernel: Kernel, t: float, h_list) -> RegularityEstimate:
    """Estimate the square-increment exponent of a kernel at time t.

    For each h computes D(h) = int_0^t |K(t+h, s) - K(t, s)|^2 ds
    + int_t^{t+h} K(t+h, s)^2 ds and fits log D against log h; the estimate
    is half the fitted slope, with fit residual diagnostics.
    """
    h_arr = np.asarray(sorted(float(h) for h in h_list), dtype=float)
    if h_arr.size < 4:
        raise ValueError("need at least 4 increments h")
    if np.any(h_arr <= 0.0):
        raise ValueError("increments h must be positive")
    t_max = getattr(kernel, "t_max", None)
    if t_max is not None and t + h_arr.max() > t_max + 1e-12:
        raise KernelDomainError("t + h exceeds the kernel horizon")

    e0 = 2.0 * kernel.edge_exponent_origin
    ed = 2.0 * kernel.edge_exponent_diagonal
    d_vals = np.empty_like(h_arr)
    for idx, h in enumerate(h_arr):
        def diff_sq(s):
            d = float(kernel(np.float64(t + h), np.float64(s))) - float(
                kernel(np.float64(t), np.float64(s))
            )
            return d * d

        d1 = _quad_power_edges(diff_sq, 0.0, t, e0, ed, epsrel=1e-9)
        d2 = kernel.integrate(t + h, t, t + h, power=2)
        d_vals[idx] = d1 + d2
    if np.any(d_vals <= 0.0) or not np.all(np.isfinite(d_vals)):
        raise NonIntegrableError("regularity probe produced non-positive increments")
    slope, intercept, r2, residuals = _log_fit(h_arr, d_vals)
    return RegularityEstimate(
        gamma_hat=0.5 * slope,
        slope=float(slope),
        intercept=float(intercept),
        r2=r2,
        max_log_residual=float(np.abs(residuals).max()),
        h_values=h_arr,
        d_values=d_vals,
    )


_CONFIG_FAMILIES = ("constant", "power", "fbm", "tabulated")


def kernel_from_params(family: str, params: dict) -> Kernel:
    """Build a kernel from configuration-style parameters."""
    if family == "constant":
        return ConstantKernel(value=float(params.get("c", 1.0)))
    if family == "power":
        return PowerKernel(hurst=float(params["H"]), scale=float(params.get("scale", 1.0)))
    if family == "fbm":
        return FbmKernel(hurst=float(params["H"]))
    if family == "tabulated":
        return TabulatedKernel.from_csv(params["csv"])
    raise ValueError(
        f"unknown kernel family {family!r} (allowed: {', '.join(_CONFIG_FAMILIES)})"
    )
