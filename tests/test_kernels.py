import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from volterra_mv import (
    ConstantKernel,
    CustomKernel,
    FbmKernel,
    GridKernel,
    KernelDomainError,
    NonIntegrableError,
    PowerKernel,
    SingularityError,
    TabulatedKernel,
    TimeGrid,
    convolve,
    eval_kernel,
    gronwall_check,
    integrate_kernel,
    kernel_from_params,
    regularity_probe,
    resolvent,
)
import volterra_mv.kernels as kernels_module
from volterra_mv.kernels import (
    _GL_NODES,
    _GL_W,
    _GL_X,
    _GLE_W,
    _GLE_X,
    _CELL_BLOCK,
    _FBM_BLOCK,
    BLAS_THREADED_WIDTH,
    HISTORY_BLOCK,
    HISTORY_BLOCKED_WIDTH,
    History,
    LagRows,
    PackedTriangle,
    Workspace,
    _quad_power_edges,
    _edge_rule,
    _fbm_series,
    _power_lags,
    _row_chunk,
    _SeriesScratch,
    _cell_averages_scratch,
    _set_blas_threads,
    _openblas_threads,
    fbm_normalizer,
    grid_weights,
    history_bytes,
    march_bytes,
    march_weights,
    resolvent_bytes,
)


def _toeplitz_strict_lower(lag: np.ndarray, n: int) -> np.ndarray:
    """Weight matrix w[i, j] = lag[i - j - 1] for j < i, zero elsewhere.

    Row i is the window at n - i of the reversed lags followed by n + 1
    zeros, so the matrix is one copy of n + 1 overlapping windows.
    """
    padded = np.concatenate([np.asarray(lag, dtype=float)[::-1], np.zeros(n + 1)])
    return np.lib.stride_tricks.sliding_window_view(padded, n)[n::-1].copy()


def _oracle_fbm_weights(kern, grid):
    """FbmKernel.average_weights as it was: the correction is evaluated on
    every (row, interior cell) of a row chunk and masked to the lower triangle."""
    n = grid.n_steps
    dt = grid.dt
    times = grid.times
    a = kern._a
    q = a + 1.0
    r = np.arange(n + 1, dtype=float)
    lead_lag = kern.normalizer * dt**a * (r[1:] ** q - r[:-1] ** q) / q
    w = _toeplitz_strict_lower(lead_lag, n)
    edge_q = 1.0 / (1.0 - abs(a))
    s0 = dt * _GLE_X**edge_q
    w0 = _GLE_W * edge_q * _GLE_X ** (edge_q - 1.0)
    chunk = max(1, int(2e6 / (max(n, 1) * _GL_NODES)))
    for lo in range(1, n + 1, chunk):
        hi = min(lo + chunk, n + 1)
        ti = times[lo:hi][:, None, None]
        j = np.arange(1, n)
        s_nodes = times[j][None, :, None] + dt * _GL_X[None, None, :]
        valid = j[None, :, None] < np.arange(lo, hi)[:, None, None]
        s_b = np.where(valid, s_nodes, 0.5 * ti)
        vals = kern._correction(ti, s_b)
        cell = np.einsum("ijg,g->ij", np.where(valid, vals, 0.0), _GL_W)
        w[lo:hi, 1:] += cell
        vals0 = kern._correction(ti[:, 0, :], s0[None, :])
        w[lo:hi, 0] += vals0 @ w0
    return w


def _per_row_weights(kern, grid):
    """The former rule for kernels without edge exponents: each row's cells
    by the _GL_NODES-point rule, as one matrix-vector product per row."""
    n, dt, times = grid.n_steps, grid.dt, grid.times
    w = np.zeros((n + 1, n))
    nodes = times[:n][:, None] + dt * _GL_X[None, :]
    for i in range(1, n + 1):
        w[i, :i] = kern(np.float64(times[i]), nodes[:i]) @ _GL_W
    return w


def _dense_cell_averages(f, grid, exp_origin, exp_diagonal, w):
    """The cell quadrature as it was before the weights were packed: it adds
    each cell's sum into the dense (n+1, n) matrix w, by the same row chunks,
    blocks and rules."""
    n, dt, times = grid.n_steps, grid.dt, grid.times
    j0, jd = int(exp_origin < 0.0), int(exp_diagonal < 0.0)
    if j0:
        s0, w0 = _edge_rule(exp_origin, dt)
    if jd:
        ud, wd = _edge_rule(exp_diagonal, dt)
    chunk = _row_chunk(n)
    for lo in range(1, n + 1, chunk):
        hi = min(lo + chunk, n + 1)
        out = w[lo:hi]
        i, j = np.tril_indices(hi - lo, lo - 1 - j0 - jd, n - j0)
        j += j0
        for c0 in range(0, i.size, _CELL_BLOCK):
            ic, jc = i[c0:c0 + _CELL_BLOCK], j[c0:c0 + _CELL_BLOCK]
            s_nodes = times[jc][:, None] + dt * _GL_X[None, :]
            vals = f(times[ic + lo][:, None], s_nodes)
            out[ic, jc] += np.einsum("pg,g->p", vals, _GL_W)
        split = int(j0 and jd and lo == 1)
        t = times[lo + split:hi][:, None]
        if j0:
            out[split:, 0] += f(t, s0[None, :]) @ w0
        if jd:
            k = np.arange(split, hi - lo)
            out[k, k + lo - 1] += f(t, t - ud[None, :]) @ wd
        if split:
            t1 = times[1:2, None]
            out[0, 0] += 0.5 * (f(t1, 0.5 * s0[None, :]) @ w0 + f(t1, t1 - 0.5 * ud[None, :]) @ wd)[0]
    return w


def _dense_weights(kern, grid):
    """average_weights as it was before the weights were packed."""
    n = grid.n_steps
    if isinstance(kern, FbmKernel):
        w = _toeplitz_strict_lower(_power_lags(kern.normalizer, kern._a, grid), n)
        return _dense_cell_averages(kern._correction, grid, kern.edge_exponent_origin, 0.0, w)
    return _dense_cell_averages(kern, grid, kern.edge_exponent_origin,
                                kern.edge_exponent_diagonal, np.zeros((n + 1, n)))


def _fbm_reference(kernel: FbmKernel, t: float, s: float, epsrel: float = 1e-8) -> float:
    """K(t, s) from its integral form, with adaptive quadrature of the correction
    term: c_H (t-s)^a - a c_H int_0^{t-s} u^(a-1) (1 - (s/(s+u))^(-a)) du."""
    a = kernel._a
    c = kernel.normalizer
    lead = c * (t - s) ** a
    if a == 0.0:
        return lead
    length = t - s

    def integrand(u):
        return u ** (a - 1.0) * (1.0 - (s / (s + u)) ** (-a))

    pts = [p for p in (min(s, length), length * 0.5) if 0.0 < p < length]
    val, _ = quad(integrand, 0.0, length, epsrel=epsrel, epsabs=0.0,
                  limit=10_000, points=pts or None)
    return lead + c * (-a) * val


class TestEval:
    def test_constant(self):
        assert eval_kernel(ConstantKernel(3.5), 1.0, 0.2) == 3.5

    def test_fbm_half_is_unit(self):
        assert eval_kernel(FbmKernel(0.5), 1.0, 0.3) == pytest.approx(1.0, abs=1e-12)

    def test_power_at_origin(self):
        assert eval_kernel(PowerKernel(0.75), 1.0, 0.0) == pytest.approx(1.0)

    def test_power_near_diagonal(self):
        # direct power evaluation oracle: 0.01^(-0.25)
        assert eval_kernel(PowerKernel(0.25), 1.0, 0.99) == pytest.approx(
            0.01**-0.25, rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(KernelDomainError):
            eval_kernel(ConstantKernel(1.0), 0.5, 0.5)
        with pytest.raises(KernelDomainError):
            eval_kernel(ConstantKernel(1.0), 0.5, 0.7)
        with pytest.raises(KernelDomainError):
            eval_kernel(ConstantKernel(1.0), 0.5, -0.1)

    def test_custom_singularity_error(self):
        bad = CustomKernel(
            fn=lambda t, s: np.full(np.broadcast_shapes(np.shape(t), np.shape(s)), np.inf)
        )
        with pytest.raises(SingularityError):
            eval_kernel(bad, 1.0, 0.5)

    def test_fbm_reference_matches_closed_form(self):
        # the integral form under adaptive quadrature and the two Gauss series
        # behind eval_kernel are two routes to the same kernel
        for hurst in (0.25, 0.4, 0.7, 0.9):
            k = FbmKernel(hurst)
            for (t, s) in ((1.0, 0.3), (1.0, 0.95), (0.7, 0.1), (2.0, 1.99)):
                if t > 1.0:
                    continue
                assert eval_kernel(k, t, s) == pytest.approx(_fbm_reference(k, t, s), rel=1e-7)

    def test_fbm_half_random_points(self):
        rng = np.random.default_rng(0)
        k = FbmKernel(0.5)
        for _ in range(100):
            t = rng.uniform(0.1, 1.0)
            s = rng.uniform(0.0, t * 0.999)
            assert abs(float(k(t, s)) - 1.0) <= 1e-8


FBM_HURSTS = (0.001, 0.01, 0.1, 0.3, 0.49, 0.4999, 0.5001, 0.51, 0.7, 0.9, 0.99, 0.999)


class _Hyp2f1Fbm(FbmKernel):
    """FbmKernel as it was before its two-series form: scipy.special's gamma in
    the normalizer, and c_H (t-s)^a 2F1(-a, a; a+1; -(t-s)/s) for K."""

    @property
    def normalizer(self):
        from scipy.special import gamma

        h = self.hurst
        return math.sqrt(2.0 * h * gamma(1.5 - h) / (gamma(h + 0.5) * gamma(2.0 - 2.0 * h)))

    def __call__(self, t, s):
        return self.normalizer * (t - s) ** self._a * self._hyp(t, s)

    def _correction(self, t, s):
        return self.normalizer * (t - s) ** self._a * (self._hyp(t, s) - 1.0)

    def _hyp(self, t, s):
        from scipy.special import hyp2f1

        a = self._a
        return hyp2f1(-a, a, a + 1.0, -(t - s) / s)


def _series_oracle(kern, t, s, correction):
    """FbmKernel._series over arrays as it was before its block scratch: each
    block's values from fresh temporaries."""
    from volterra_mv.kernels import _horner

    a, c = kern._a, kern.normalizer
    cb, w_coef, r_coef = _fbm_series(kern.hurst)
    t, s = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(s, dtype=float))
    shape = t.shape
    t, s = t.ravel(), s.ravel()
    out = np.empty(t.size)
    for lo in range(0, t.size, _FBM_BLOCK):
        tb, sb, ob = t[lo:lo + _FBM_BLOCK], s[lo:lo + _FBM_BLOCK], out[lo:lo + _FBM_BLOCK]
        d = tb - sb
        with np.errstate(divide="ignore", invalid="ignore"):
            np.power(d * tb / sb, a, out=ob)
            ob *= c
            is_near = sb > 0.5 * tb
            near = np.flatnonzero(is_near)
            ob[near] *= _horner(w_coef, d[near] / tb[near])
            far = np.flatnonzero(~is_near)
            sf = sb[far]
            ob[far] = cb * sf**a + 0.5 * ob[far] * _horner(r_coef, sf / tb[far])
            if correction:
                ob -= c * d**a
    return out.reshape(shape)


class TestFbmSeries:
    @pytest.mark.parametrize("hurst", FBM_HURSTS)
    def test_no_less_accurate_than_hyp2f1(self, hurst):
        # against 40 digits of the hypergeometric form, at the float
        # arguments; near s = 0, near s = t and in between
        mpmath = pytest.importorskip("mpmath")
        pytest.importorskip("scipy.special")
        frac = np.concatenate([np.geomspace(1e-12, 0.05, 20), np.linspace(0.1, 0.9, 9),
                               1.0 - np.geomspace(1e-12, 0.05, 20)])
        with mpmath.workdps(40):
            h = mpmath.mpf(hurst)
            a = mpmath.mpf(hurst - 0.5)
            c = mpmath.sqrt(2 * h * mpmath.gamma(1.5 - h)
                            / (mpmath.gamma(h + 0.5) * mpmath.gamma(2 - 2 * h)))
            errors = {"series": 0.0, "one point": 0.0, "hyp2f1": 0.0}
            kern = FbmKernel(hurst)
            for t in (1.0, 0.37):
                s = frac * t
                exact = [c * (t - mpmath.mpf(x)) ** a
                         * mpmath.hyp2f1(-a, a, a + 1, -(t - mpmath.mpf(x)) / mpmath.mpf(x))
                         for x in s]
                for name, got in (("series", kern(t, s)),
                                  ("one point", [kern(np.float64(t), x) for x in s]),
                                  ("hyp2f1", _Hyp2f1Fbm(hurst)(t, s))):
                    rel = max(abs(float((g - e) / e)) for g, e in zip(got, exact))
                    errors[name] = max(errors[name], rel)
        assert max(errors["series"], errors["one point"]) <= 1.5 * errors["hyp2f1"], errors
        if hurst <= 0.9:
            # away from H = 1, where the two terms of the r <= 1/2 form
            # cancel, the error stays within about two ulps
            assert max(errors["series"], errors["one point"]) <= 5e-16, errors

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    @pytest.mark.parametrize("n", [200, 400, 1600])
    def test_weights_stay_at_the_hyp2f1_ones(self, hurst, n):
        pytest.importorskip("scipy.special")
        grid = TimeGrid(1.0, n)
        got = FbmKernel(hurst).average_weights(grid)
        want = _Hyp2f1Fbm(hurst).average_weights(grid)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.abs(got - want).max() <= 1.1e-15 * np.abs(want).max()

    def test_correction_is_value_minus_leading_part(self):
        kern = FbmKernel(0.3)
        t = np.array([[1.0], [0.4]])
        s = np.array([[1e-9, 0.1, 0.2, 0.5, 0.9999]]) * t
        lead = kern.normalizer * (t - s) ** kern._a
        assert np.allclose(kern._correction(t, s) + lead, kern(t, s), rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.7, 0.9])
    def test_one_point_path_matches_array_path(self, hurst):
        # a single point is summed in Python floats; only the power functions
        # of the two paths differ, by an ulp or so
        kern = FbmKernel(hurst)
        t = np.array([1.0, 1.0, 0.37, 0.37, 2.0])
        s = np.array([1e-9, 0.4, 0.2, 0.36, 1.999])
        for correction in (False, True):
            arr = kern._series(t, s, correction)
            one = [kern._series(np.float64(a), np.float64(b), correction) for a, b in zip(t, s)]
            assert all(np.ndim(v) == 0 for v in one)
            assert np.allclose(one, arr, rtol=1e-15, atol=1e-16 * np.abs(arr).max())

    @pytest.mark.parametrize("hurst", [0.05, 0.3, 0.7, 0.95])
    def test_block_scratch_keeps_the_values_bit_for_bit(self, hurst):
        # the series formed in a scratch's buffers, fresh or lent, and one
        # too small for the input, against the fresh temporaries of each
        # block; a run of more than one block, edges of 0 and t included
        kern = FbmKernel(hurst)
        rng = np.random.default_rng(17)
        t = rng.uniform(0.01, 2.0, _FBM_BLOCK + 1000)
        s = t * rng.uniform(0.0, 1.0, t.size)
        s[:5] = 0.0
        s[5:10] = t[5:10]
        grid_t, grid_s = t[:300, None], rng.uniform(0.0, 0.01, 24)[None, :]
        for correction in (False, True):
            for args in ((t, s), (t[:700], s[:700]), (grid_t, grid_s)):
                want = _series_oracle(kern, *args, correction)
                got = kern._series(*args, correction)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                for size in (_FBM_BLOCK, 100):
                    object.__setattr__(kern, "_block_scratch", _SeriesScratch(size))
                    try:
                        lent = kern._series(*args, correction)
                    finally:
                        object.__delattr__(kern, "_block_scratch")
                    assert np.array_equal(lent.view(np.int64), want.view(np.int64))

    def test_a_weight_build_lends_one_scratch_to_its_blocks(self, monkeypatch):
        made = []

        class Counted(_SeriesScratch):
            def __init__(self, size):
                made.append(size)
                super().__init__(size)

        monkeypatch.setattr(kernels_module, "_SeriesScratch", Counted)
        kern = FbmKernel(0.3)
        # 400 steps take 30 blocks of interior cells and the edge columns
        assert 400 * 399 // 2 > 20 * _CELL_BLOCK
        kern.average_triangle(TimeGrid(1.0, 400))
        assert made == [_FBM_BLOCK]
        kern.average_triangle(TimeGrid(1.0, 10))
        assert made == [_FBM_BLOCK, _GL_NODES * 10 * 11 // 2]
        assert "_block_scratch" not in vars(kern)

    def test_normalizer_and_branch_constant(self):
        mpmath = pytest.importorskip("mpmath")
        for hurst in FBM_HURSTS:
            with mpmath.workdps(40):
                h = mpmath.mpf(hurst)
                a = mpmath.mpf(hurst - 0.5)
                c = mpmath.sqrt(2 * h * mpmath.gamma(1.5 - h)
                                / (mpmath.gamma(h + 0.5) * mpmath.gamma(2 - 2 * h)))
                cb = c * mpmath.gamma(a + 1) * mpmath.gamma(-2 * a) / mpmath.gamma(-a)
                # each constant is the float nearest its 40-digit value
                assert fbm_normalizer(hurst) == float(c)
                assert _fbm_series(hurst)[0] == float(cb)


class TestIntegrate:
    def test_constant_square(self):
        assert integrate_kernel(ConstantKernel(1.0), 1.0, 0.0, 1.0, 2) == 1.0

    def test_power_square_closed_form(self):
        assert integrate_kernel(PowerKernel(0.75), 1.0, 0.0, 1.0, 2) == pytest.approx(
            1.0 / 1.5, rel=1e-12
        )

    def test_power_square_small_window(self):
        assert integrate_kernel(PowerKernel(0.75), 1.0, 0.9, 1.0, 2) == pytest.approx(
            0.1**1.5 / 1.5, rel=1e-12
        )

    def test_non_integrable(self):
        with pytest.raises(NonIntegrableError):
            integrate_kernel(PowerKernel(-0.1), 1.0, 0.0, 1.0, 2)

    def test_fbm_square_is_power_law_in_t(self):
        # total variance of the represented process is t^(2H)
        for hurst in (0.25, 0.7):
            k = FbmKernel(hurst)
            for t in (0.25, 1.0):
                val = integrate_kernel(k, t, 0.0, t, 2)
                assert val == pytest.approx(t ** (2 * hurst), rel=1e-6)

    def test_bounds_validation(self):
        with pytest.raises(KernelDomainError):
            integrate_kernel(ConstantKernel(1.0), 1.0, 0.5, 0.2, 1)


class TestGridWeights:
    def test_strict_lower_triangular(self, grid_small):
        for k in (ConstantKernel(2.0), PowerKernel(0.25), FbmKernel(0.7)):
            gw = GridKernel.from_kernel(k, grid_small)
            n = grid_small.n_steps
            i, j = np.indices(gw.weights.shape)
            assert np.all(gw.weights[j >= i] == 0.0)
            assert np.all(np.isfinite(gw.weights))

    def test_weights_match_adaptive_quadrature(self, grid_small):
        dt = grid_small.dt
        times = grid_small.times
        for k in (FbmKernel(0.7), FbmKernel(0.25), PowerKernel(0.3)):
            gw = GridKernel.from_kernel(k, grid_small)
            for (i, j) in ((1, 0), (10, 0), (10, 9), (40, 17), (50, 49)):
                ref = _quad_power_edges(
                    lambda s: float(k(times[i], s)),
                    times[j], times[j + 1],
                    k.edge_exponent_origin if j == 0 else 0.0,
                    k.edge_exponent_diagonal if j == i - 1 else 0.0,
                    epsrel=1e-12,
                ) / dt
                assert gw.weights[i, j] == pytest.approx(ref, rel=2e-4)

    def test_singular_kernel_weights_finite(self, grid_small):
        gw = GridKernel.from_kernel(PowerKernel(0.1), grid_small)
        assert np.all(np.isfinite(gw.weights))

    def test_custom_convolution_profile(self, grid_small):
        # declaring K(t,s) = profile(t-s) collapses weights to one lag vector
        lam = 1.3
        kern = CustomKernel(
            fn=lambda t, s: np.exp(-lam * (t - s)),
            convolution_profile=lambda u: np.exp(-lam * u),
        )
        gw = GridKernel.from_kernel(kern, grid_small)
        dt = grid_small.dt
        for (i, j) in ((1, 0), (30, 12), (50, 49)):
            lo, hi = grid_small.times[i] - grid_small.times[j + 1], (
                grid_small.times[i] - grid_small.times[j]
            )
            exact = (np.exp(-lam * lo) - np.exp(-lam * hi)) / (lam * dt)
            assert gw.weights[i, j] == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("fn, e0, ed, rtol", [
        pytest.param(lambda t, s: (s / t) ** -0.4, -0.4, 0.0, 1e-10, id="origin-0.4"),
        pytest.param(lambda t, s: (s / t) ** -0.6, -0.6, 0.0, 1e-10, id="origin-0.6"),
        pytest.param(lambda t, s: (t - s) ** -0.3, 0.0, -0.3, 1e-10, id="diagonal-0.3"),
        # in a substituted cell the other edge's factor is a smooth function of
        # x^q, which the fixed rule leaves about 3e-9 off in row 2
        pytest.param(lambda t, s: (s / t) ** -0.4 * (t - s) ** -0.3, -0.4, -0.3, 5e-9, id="both"),
    ])
    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_declared_exponents_are_honoured_in_every_cell(self, fn, e0, ed, rtol, n):
        # the former rule ignored the origin exponent, and the diagonal one
        # unless a separate flag was set: 1.6% and 0.69% low
        grid = TimeGrid(1.0, n)
        kern = CustomKernel(fn=fn, edge_exponent_origin=e0, edge_exponent_diagonal=ed)
        got = kern.average_weights(grid)
        times = grid.times
        for i in range(1, n + 1):
            for j in range(i):
                ref = _quad_power_edges(
                    lambda s: float(fn(times[i], s)), times[j], times[j + 1],
                    e0 if j == 0 else 0.0, ed if j == i - 1 else 0.0, epsrel=1e-12,
                ) / grid.dt
                assert got[i, j] == pytest.approx(ref, rel=rtol), (i, j)

    @pytest.mark.parametrize("n", [2, 7, 50, 200])
    def test_kernels_without_exponents_keep_the_per_row_rule(self, n):
        # only the order of each cell's 12 products changes: at most 4 ulps
        m = 80
        nodes = np.linspace(0.0, 1.0, m + 1)
        values = np.tril(nodes[:, None] + 2 * nodes + np.sin(7 * np.outer(nodes, nodes)), -1)
        grid = TimeGrid(1.0, n)
        dt = grid.dt
        for kern in (TabulatedKernel(times=nodes, values=values),
                     CustomKernel(fn=lambda t, s: np.exp(-1.3 * (t - s)) * (1.0 + s)),
                     CustomKernel(fn=lambda t, s: np.where(t - s >= 2 * dt, 1.0, 0.0))):
            got = kern.average_weights(grid)
            want = _per_row_weights(kern, grid)
            assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("n", [2, 50, 400])
    def test_singular_profile_matches_the_power_kernel(self, n):
        # u^-0.2 is PowerKernel(0.3); lag 0 absorbs the declared exponent
        grid = TimeGrid(1.0, n)
        kern = CustomKernel(fn=lambda t, s: (t - s) ** -0.2, edge_exponent_diagonal=-0.2,
                            convolution_profile=lambda u: u ** -0.2)
        got = kern.average_weights(grid)
        want = PowerKernel(0.3).average_weights(grid)
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_cache_keeps_last_grid(self, monkeypatch):
        builds = []
        build = PowerKernel.average_weights

        def counted(self, grid):
            builds.append(grid.n_steps)
            return build(self, grid)

        monkeypatch.setattr(PowerKernel, "average_weights", counted)
        kern = PowerKernel(0.3)
        grids = [TimeGrid(1.0, 20), TimeGrid(1.0, 30), TimeGrid(2.0, 20)]
        for grid in grids:
            w = grid_weights(kern, grid)
            assert grid_weights(kern, grid) is w
        held = [
            x for value in vars(kern).values()
            for x in (value if isinstance(value, (tuple, list)) else (value,))
            if isinstance(x, np.ndarray) and x.ndim == 2
        ]
        assert len(held) == 1 and held[0] is w
        back = grid_weights(kern, grids[0])
        assert builds == [20, 30, 20, 20]
        assert np.array_equal(back, build(PowerKernel(0.3), grids[0]))

    @pytest.mark.parametrize("hurst", [0.3, 0.7])
    @pytest.mark.parametrize("n", [1, 2, 40, 600])
    def test_fbm_weights_match_rectangle_oracle(self, hurst, n):
        # TimeGrid needs two steps, so n = 1 runs on a stand-in with the same
        # fields; n = 600 spans three row chunks and 179700 interior cells
        grid = (TimeGrid(1.0, n) if n > 1
                else SimpleNamespace(n_steps=1, dt=1.0, horizon=1.0, times=np.array([0.0, 1.0])))
        kern = FbmKernel(hurst)
        got = kern.average_weights(grid)
        want = _oracle_fbm_weights(kern, grid)
        assert got.shape == (n + 1, n)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_toeplitz_matches_the_lag_index(self, n):
        lag = np.random.default_rng(n).normal(size=n)
        lag[n // 2] = -0.0
        i, j = np.indices((n + 1, n))
        want = np.where(i > j, lag[np.clip(i - j - 1, 0, n - 1)], 0.0)
        got = _toeplitz_strict_lower(lag, n)
        assert got.shape == (n + 1, n) and got.flags.c_contiguous
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("n, bound", [(400, 12e6), (1000, 20e6)])
    def test_fbm_build_memory_is_bounded(self, traced_peak, n, bound):
        # the interior cells are evaluated in sub-blocks; whole row chunks
        # took 27.5 MB at n = 400 and 68.5 MB at n = 1000
        grid = TimeGrid(1.0, n)
        assert traced_peak(lambda: FbmKernel(0.3).average_weights(grid)) <= bound

    def test_fbm_half_is_constant_weights(self):
        grid = TimeGrid(1.0, 40)
        assert np.array_equal(FbmKernel(0.5).average_weights(grid),
                              ConstantKernel(1.0).average_weights(grid))


class TestHistory:
    @pytest.mark.parametrize("shape", [(), (3,), (8,)])
    def test_push_is_the_dense_slice_product(self, shape):
        grid = TimeGrid(1.0, 40)
        n = grid.n_steps
        rng = np.random.default_rng(11)
        lower = np.tril(rng.normal(size=(n + 1, n)), k=-1)
        for w in (FbmKernel(0.3).average_weights(grid), lower):
            h = rng.normal(size=(n, *shape))
            hist = History(GridKernel(grid, w), shape)
            for i in range(n):
                got = hist.push(h[i])
                dense = w[i + 1, : i + 1] @ h[: i + 1]
                assert np.shape(got) == shape
                assert np.array_equal(got, dense)
            with pytest.raises(IndexError):
                hist.push(h[0])

    # n below one block, n not a multiple of the block, n an exact multiple
    @pytest.mark.parametrize("n", [HISTORY_BLOCK - 12, 2 * HISTORY_BLOCK + 11, 3 * HISTORY_BLOCK])
    @pytest.mark.parametrize("shape", [(HISTORY_BLOCKED_WIDTH,), (160,)])
    def test_wide_push_sums_in_blocks_to_the_dense_product(self, n, shape):
        grid = TimeGrid(1.0, n)
        rng = np.random.default_rng(5)
        lower = np.tril(rng.normal(size=(n + 1, n)), k=-1)
        for w in (FbmKernel(0.3).average_weights(grid), lower):
            h = rng.normal(size=(n, *shape))
            hist = History(GridKernel(grid, w), shape)
            assert hist._scratch is not None
            for i in range(n):
                got = hist.push(h[i])
                dense = w[i + 1, : i + 1] @ h[: i + 1]
                assert np.shape(got) == shape
                if i < HISTORY_BLOCK:
                    # the first block has no far part: the dense product itself
                    assert np.array_equal(got, dense)
                assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()
            with pytest.raises(IndexError):
                hist.push(h[0])


# the stationary kernels, whose marches read their lags
STATIONARY = {
    "constant": ConstantKernel(0.7),
    "power": PowerKernel(0.3),
    "profile": CustomKernel(fn=lambda t, s: np.exp(-2.0 * (t - s)) * (1.0 + (t - s)),
                            convolution_profile=lambda u: np.exp(-2.0 * u) * (1.0 + u)),
    "fbm-half": FbmKernel(0.5),
}


class TestLagHistory:
    @pytest.mark.parametrize("n", [2, 3, 32, 33, 64, 65, 400])
    @pytest.mark.parametrize("shape", [(), (1,), (63,), (64,), (2000,)],
                             ids=["scalar", "w1", "w63", "w64", "w2000"])
    @pytest.mark.parametrize("name", list(STATIONARY))
    def test_lags_sum_as_the_dense_matrix(self, name, shape, n):
        # every push over the lags equals the push over the matrix they stand
        # for, bit for bit, on fresh buffers and on buffers a workspace lends
        # after another lag history has filled them
        kern = STATIONARY[name]
        grid = TimeGrid(1.0, n)
        lags, dense = kern.average_lags(grid), kern.average_weights(grid)
        assert lags.shape == (n,)
        assert np.array_equal(dense, _toeplitz_strict_lower(lags, n))
        rng = np.random.default_rng(n)
        rows, ref_rows = LagRows(lags), GridKernel(grid, dense)
        pool = Workspace()
        stale = pool.history(rows, shape)
        for h in rng.normal(size=(n, *shape)):
            stale.push(h)
        pool.release(stale)
        h = rng.normal(size=(n, *shape))
        for lagged in (History(rows, shape), pool.history(rows, shape)):
            ref = History(ref_rows, shape)
            for i in range(n):
                np.testing.assert_array_equal(lagged.push(h[i]), ref.push(h[i]))

    def test_march_reads_lags_of_stationary_kernels_only(self):
        grid = TimeGrid(1.0, 20)
        for kern in STATIONARY.values():
            lags = march_weights(kern, grid)
            assert isinstance(lags, LagRows) and lags.n_steps == 20
            assert march_weights(kern, grid) is lags
            assert np.array_equal(lags.row(20), kern.average_lags(grid)[::-1])
            assert "_weights_cache" not in vars(kern)
        fbm = FbmKernel(0.3)
        packed = march_weights(fbm, grid)
        assert isinstance(packed, PackedTriangle) and march_weights(fbm, grid) is packed
        assert np.array_equal(grid_weights(fbm, grid), packed.dense())
        with pytest.raises(NotImplementedError):
            fbm.average_lags(grid)


_TABLE = np.linspace(0.0, 1.0, 41)

# kernels that are not stationary, whose marches read their packed triangle;
# the custom one blows up at the origin and at the diagonal, so its cells take
# every rule of the quadrature
PACKED = {
    "fbm-0.3": FbmKernel(0.3),
    "fbm-0.7": FbmKernel(0.7),
    "tabulated": TabulatedKernel(times=_TABLE, values=np.exp(_TABLE[None, :] - _TABLE[:, None])
                                 * (1.0 + _TABLE[:, None] * _TABLE[None, :])),
    "custom": CustomKernel(fn=lambda t, s: s**-0.2 * (t - s) ** -0.3 * np.exp(-t),
                           edge_exponent_origin=-0.2, edge_exponent_diagonal=-0.3),
}


class TestPackedTriangle:
    @pytest.mark.parametrize("n", [2, 3, 32, 33, 64, 65, 400])
    @pytest.mark.parametrize("shape", [(), (1,), (63,), (64,), (2000,)],
                             ids=["scalar", "w1", "w63", "w64", "w2000"])
    @pytest.mark.parametrize("name", list(PACKED))
    def test_packed_sums_as_the_dense_matrix(self, name, shape, n):
        # every push over the packed triangle equals the push over the matrix
        # it unpacks to, bit for bit, on fresh buffers and on buffers a
        # workspace lends after another march has filled their rows
        kern = PACKED[name]
        grid = TimeGrid(1.0, n)
        packed = march_weights(kern, grid)
        dense = kern.average_weights(grid)
        assert isinstance(packed, PackedTriangle) and packed.values.shape == (n * (n + 1) // 2,)
        assert np.array_equal(packed.dense(), dense)
        rng = np.random.default_rng(n)
        pool = Workspace()
        stale = pool.history(packed, shape)
        for h in rng.normal(size=(n, *shape)):
            stale.push(h)
        pool.release(stale)
        h = rng.normal(size=(n, *shape))
        for hist in (History(packed, shape), pool.history(packed, shape)):
            ref = History(GridKernel(grid, dense), shape)
            for i in range(n):
                np.testing.assert_array_equal(hist.push(h[i]), ref.push(h[i]))
            with pytest.raises(IndexError):
                hist.push(h[0])

    @pytest.mark.parametrize("n", [2, 3, 40, 400, 1600])
    @pytest.mark.parametrize("kern", [FbmKernel(0.1), FbmKernel(0.3), FbmKernel(0.7),
                                      PACKED["tabulated"], PACKED["custom"]],
                             ids=["fbm-0.1", "fbm-0.3", "fbm-0.7", "tabulated", "custom"])
    def test_unpacked_triangle_is_the_dense_build(self, kern, n):
        # n = 1600 spans 16 row chunks of the quadrature
        grid = TimeGrid(1.0, n)
        got = kern.average_triangle(grid).dense()
        want = _dense_weights(kern, grid)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_indexing_unpacks_the_cached_triangle(self, monkeypatch):
        # a kernel that marches and is indexed builds its cells, or a
        # stationary kernel its lags, once; fresh copies of the stationary
        # kernels hold no weights cached by other tests
        kernels = [FbmKernel(0.3), *(dataclasses.replace(k) for k in STATIONARY.values())]
        builds = []
        targets = {(FbmKernel, "average_triangle")} | {(type(k), "average_lags") for k in kernels[1:]}
        for cls, name in targets:
            def counted(self, grid, build=getattr(cls, name)):
                builds.append((self, grid.n_steps))
                return build(self, grid)

            monkeypatch.setattr(cls, name, counted)
        grid = TimeGrid(1.0, 30)
        for kern in kernels:
            form = march_weights(kern, grid)
            assert np.array_equal(grid_weights(kern, grid), form.dense())
            assert march_weights(kern, grid) is form
            assert [n for k, n in builds if k is kern] == [30]


    def test_indexed_kernel_keeps_no_triangle(self):
        # the matrix is unpacked from a triangle built for the call alone
        kern, grid = FbmKernel(0.3), TimeGrid(1.0, 30)
        GridKernel.from_kernel(kern, grid)
        grid_weights(kern, grid)
        assert "_march_cache" not in vars(kern)

    @pytest.mark.parametrize("cls, hurst, name", [(FbmKernel, 0.3, "average_triangle"),
                                                  (PowerKernel, 0.3, "average_lags")],
                             ids=["packed", "lags"])
    def test_march_of_an_indexed_kernel_cuts_the_cached_matrix(self, monkeypatch, cls, hurst,
                                                               name):
        # indexed first, a kernel builds its cells or lags once: the march
        # cuts its form from the cached matrix, with a fresh build's floats
        builds = []
        build = getattr(cls, name)

        def counted(self, grid):
            builds.append(self)
            return build(self, grid)

        monkeypatch.setattr(cls, name, counted)
        grid = TimeGrid(1.0, 30)
        fresh = march_weights(cls(hurst), grid)
        kern = cls(hurst)
        dense = grid_weights(kern, grid)
        form = march_weights(kern, grid)
        assert [k for k in builds if k is kern] == [kern]
        assert type(form) is type(fresh)
        assert all(np.array_equal(form.row(i), fresh.row(i)) for i in range(1, 31))
        assert np.array_equal(dense, fresh.dense())
        assert march_weights(kern, grid) is form and grid_weights(kern, grid) is dense


class TestHistoryThreads:
    def test_wide_history_sums_alike_on_one_and_two_blas_threads(self):
        # the marches keep every BLAS thread from BLAS_THREADED_WIDTH up, where
        # the far GEMMs and near GEMVs are split over the threads
        if _openblas_threads() is None:
            pytest.skip("numpy bundles no scipy-openblas here")
        n, width = 2 * HISTORY_BLOCK + 7, BLAS_THREADED_WIDTH
        grid = TimeGrid(1.0, n)
        h = np.random.default_rng(23).normal(size=(n, width))
        for kern in (FbmKernel(0.3), PowerKernel(0.3)):
            w = march_weights(kern, grid)
            sums = []
            for threads in (1, 2):
                before = _set_blas_threads(threads)
                try:
                    assert _openblas_threads()[0]() == threads
                    hist = History(w, (width,))
                    sums.append(np.array([hist.push(h[i]) for i in range(n)]))
                finally:
                    _set_blas_threads(before)
            assert np.array_equal(sums[0], sums[1])


class TestWorkspace:
    @pytest.mark.parametrize("shape", [(3,), (160,)])
    def test_lent_buffers_give_the_same_sums(self, shape):
        # a history on buffers that an earlier one filled sums bit for bit as
        # one on fresh buffers: every push writes the rows it reads
        grid = TimeGrid(1.0, 2 * HISTORY_BLOCK + 11)
        n = grid.n_steps
        w = GridKernel.from_kernel(FbmKernel(0.3), grid)
        rng = np.random.default_rng(3)
        pool = Workspace()
        first = pool.history(w, shape)
        for h in rng.normal(size=(n, *shape)):
            first.push(h)
        pool.release(first)
        h = rng.normal(size=(n, *shape))
        lent, fresh = pool.history(w, shape), History(w, shape)
        assert lent._values is first._values and lent._scratch is first._scratch
        for i in range(n):
            assert np.array_equal(lent.push(h[i]), fresh.push(h[i]))

    def test_pool_matches_buffers_by_shape(self):
        grid = TimeGrid(1.0, 10)
        w = GridKernel.from_kernel(ConstantKernel(1.0), grid)
        pool = Workspace()
        a, b = pool.history(w, (4,)), pool.history(w, (4,))
        assert a._values is not b._values
        pool.release(a, None, b)
        other = pool.history(w, (5,))
        assert other._values is not a._values and other._values is not b._values
        assert {id(pool.history(w, (4,))._values) for _ in range(2)} == {id(a._values), id(b._values)}


def _held_bytes(hist: History) -> int:
    return sum(b.nbytes for b in (hist._values, hist._window, hist._scratch) if b is not None)


class TestSizes:
    @pytest.mark.parametrize("n", [2, 31, 33, 400])
    @pytest.mark.parametrize("width", [1, 63, 64, 2000])
    @pytest.mark.parametrize("form", ["lag", "packed", "dense"])
    def test_history_bytes_are_its_buffers(self, form, width, n):
        # on fresh buffers and on those a workspace lends, in every weight
        # form: a narrow history holds n terms, a wide one also the window
        # of HISTORY_BLOCK rows and one scratch term
        weights = {"lag": lambda: LagRows(np.ones(n)),
                   "packed": lambda: PackedTriangle(np.ones(n * (n + 1) // 2), n),
                   "dense": lambda: GridKernel(TimeGrid(1.0, n),
                                               np.tril(np.ones((n + 1, n)), k=-1))}[form]()
        want = history_bytes(width, n)
        assert want == 8 * (n * width + (HISTORY_BLOCK * n + width) * (width >= HISTORY_BLOCKED_WIDTH))
        pool = Workspace()
        shapes = [(width,)] + ([()] if width == 1 else [])
        for shape in shapes:
            fresh = pool.history(weights, shape)
            assert _held_bytes(History(weights, shape)) == _held_bytes(fresh) == want
            pool.release(fresh)
            assert _held_bytes(pool.history(weights, shape)) == want

    @pytest.mark.parametrize("kern, temporaries", [
        (FbmKernel(0.3), 12), (FbmKernel(0.7), 12), (PACKED["tabulated"], 14),
        (ConstantKernel(0.7), None), (PowerKernel(0.3), None), (FbmKernel(0.5), None),
    ], ids=["fbm-0.3", "fbm-0.7", "tabulated", "constant", "power", "fbm-half"])
    def test_march_bytes_are_the_form_and_its_build_scratch(self, kern, temporaries):
        # a build by cells holds the quadrature scratch of its family's
        # evaluator; a lag build holds none
        for n in (2, 40, 400, 1600):
            scratch = 0 if temporaries is None else _cell_averages_scratch(n, temporaries)
            floats = n if temporaries is None else n * (n + 1) // 2
            assert march_bytes(kern, n) == (8 * floats, scratch)
        grid = TimeGrid(1.0, 40)
        form = march_weights(dataclasses.replace(kern), grid)
        held = form._reversed if isinstance(form, LagRows) else form.values
        assert held.nbytes == march_bytes(kern, 40)[0]

    @pytest.mark.parametrize("n", [2, 40, 75])
    def test_resolvent_bytes_are_its_rows_and_history(self, monkeypatch, n):
        # the rows of R and the History of its substitution, narrow below
        # HISTORY_BLOCKED_WIDTH steps and wide from there
        made = []

        class Recording(History):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        monkeypatch.setattr(kernels_module, "History", Recording)
        res = resolvent(GridKernel.from_kernel(PowerKernel(0.3), TimeGrid(1.0, n)))
        assert len(made) == 1
        assert resolvent_bytes(n) == res.weights.nbytes + _held_bytes(made[0])


class TestGaussLegendreTables:
    def test_tables_are_leggauss_on_the_unit_interval(self):
        # the rules are written out as literals, so that no run imports
        # numpy.polynomial; they are its nodes and weights mapped to [0, 1]
        from numpy.polynomial.legendre import leggauss

        for n, x_table, w_table in ((_GL_NODES, _GL_X, _GL_W), (24, _GLE_X, _GLE_W)):
            x, w = leggauss(n)
            assert x_table.dtype == w_table.dtype == np.float64
            assert x_table.view(np.uint64).tolist() == (0.5 * (x + 1.0)).view(np.uint64).tolist()
            assert w_table.view(np.uint64).tolist() == (0.5 * w).view(np.uint64).tolist()


class TestConvolve:
    def test_zero(self, grid_small):
        z = GridKernel.zero(grid_small)
        assert np.all(convolve(z, z).weights == 0.0)

    def test_constants_give_linear_growth(self, grid_small):
        g1 = GridKernel.from_kernel(ConstantKernel(1.0), grid_small)
        conv = convolve(g1, g1)
        times = grid_small.times
        for (i, j) in ((10, 0), (50, 20), (3, 1)):
            assert conv.weights[i, j] == pytest.approx(
                times[i] - times[j], abs=2 * grid_small.dt
            )

    def test_scaled_constants(self, grid_small):
        g2 = GridKernel.from_kernel(ConstantKernel(2.0), grid_small)
        g3 = GridKernel.from_kernel(ConstantKernel(3.0), grid_small)
        conv = convolve(g2, g3)
        times = grid_small.times
        assert conv.weights[40, 10] == pytest.approx(
            6.0 * (times[40] - times[10]), abs=6 * 2 * grid_small.dt
        )

    def test_associativity_exact_on_grid(self, grid_small):
        gk = GridKernel.from_kernel(PowerKernel(0.75), grid_small)
        gl = GridKernel.from_kernel(ConstantKernel(0.5), grid_small)
        gm = GridKernel.from_kernel(PowerKernel(0.4), grid_small)
        left = convolve(convolve(gk, gl), gm).weights
        right = convolve(gk, convolve(gl, gm)).weights
        assert np.abs(left - right).max() <= 1e-12 * max(np.abs(left).max(), 1.0)


class TestResolvent:
    def test_zero_kernel(self, grid_small):
        r = resolvent(GridKernel.zero(grid_small))
        assert np.all(r.weights == 0.0)

    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_constant_kernel_exponential(self, c):
        grid = TimeGrid(1.0, 1000)
        gk = GridKernel.from_kernel(ConstantKernel(c), grid)
        r = resolvent(gk)
        i, j = np.tril_indices(grid.n_steps + 1, k=-1)
        keep = j < grid.n_steps
        i, j = i[keep], j[keep]
        exact = c * np.exp(c * (grid.times[i] - grid.times[j]))
        rel = np.abs(r.weights[i, j] - exact) / exact
        assert rel.max() <= 0.02

    @pytest.mark.parametrize("kern", [ConstantKernel(1.0), PowerKernel(0.3), FbmKernel(0.7)])
    def test_series_direct_agreement(self, grid_fine, kern, series_resolvent):
        grid = grid_fine if kern.family == "constant" else TimeGrid(1.0, 200)
        gk = GridKernel.from_kernel(kern, grid)
        rs = series_resolvent(gk, tol=1e-10)
        rd = resolvent(gk)
        assert np.abs(rs - rd.weights).max() <= 10 * 1e-10

    def test_resolvent_identity(self, grid_small):
        gk = GridKernel.from_kernel(PowerKernel(0.6), grid_small)
        r = resolvent(gk)
        rhs = gk.weights + convolve(gk, r).weights
        assert np.abs(r.weights - rhs).max() <= 1e-10 * max(1.0, r.max_abs())

    def test_convolution_commutation(self, grid_small, unit_kernel):
        # the continuous identity K*R = R*K holds within quadrature error
        gk = GridKernel.from_kernel(unit_kernel, grid_small)
        r = resolvent(gk)
        left = convolve(gk, r).weights
        right = convolve(r, gk).weights
        assert np.abs(left - right).max() <= 5 * grid_small.dt


class TestGronwall:
    def test_zero_forcing(self, grid_small, unit_kernel):
        rep = gronwall_check(GridKernel.from_kernel(unit_kernel, grid_small), np.zeros(51))
        assert rep.satisfied
        assert np.all(rep.f == 0.0) and np.all(rep.bound == 0.0)

    def test_unit_forcing_exponential(self):
        grid = TimeGrid(1.0, 1000)
        rep = gronwall_check(GridKernel.from_kernel(ConstantKernel(1.0), grid), np.ones(1001))
        exact = np.exp(grid.times)
        assert np.abs(rep.f - exact).max() / exact.max() <= 0.02
        assert np.abs(rep.f - rep.bound).max() <= 0.02 * exact.max()
        assert rep.satisfied

    def test_linear_forcing_against_refined_solve(self, unit_kernel):
        coarse = TimeGrid(1.0, 200)
        fine = TimeGrid(1.0, 2000)
        rep_c = gronwall_check(GridKernel.from_kernel(unit_kernel, coarse), coarse.times)
        rep_f = gronwall_check(GridKernel.from_kernel(unit_kernel, fine), fine.times)
        assert np.abs(rep_c.f - rep_f.f[::10]).max() <= 0.02 * rep_f.f.max()

    def test_negative_input_rejected(self, grid_small, unit_kernel):
        g = np.zeros(51)
        g[3] = -1.0
        with pytest.raises(ValueError):
            gronwall_check(GridKernel.from_kernel(unit_kernel, grid_small), g)

    def test_randomized_cases(self):
        rng = np.random.default_rng(7)
        grid = TimeGrid(1.0, 150)
        for trial in range(50):
            if trial % 2 == 0:
                kern = ConstantKernel(float(rng.uniform(0.2, 2.0)))
            else:
                kern = PowerKernel(float(rng.uniform(0.15, 0.95)))
            g = np.abs(rng.standard_normal(151)) + rng.uniform(0.0, 1.0)
            rep = gronwall_check(GridKernel.from_kernel(kern, grid), g)
            assert rep.satisfied


class TestRegularityProbe:
    @pytest.mark.parametrize("hurst", [0.25, 0.5, 0.75])
    def test_power_family(self, hurst):
        est = regularity_probe(PowerKernel(hurst), 0.5, np.geomspace(1e-3, 1e-2, 6))
        assert est.gamma_hat == pytest.approx(hurst, abs=0.02)

    def test_constant_kernel(self):
        est = regularity_probe(ConstantKernel(2.0), 0.5, np.geomspace(1e-3, 1e-2, 6))
        assert est.gamma_hat == pytest.approx(0.5, abs=1e-6)

    def test_fbm(self):
        est = regularity_probe(FbmKernel(0.7), 0.5, np.geomspace(1e-3, 1e-2, 5))
        assert est.gamma_hat == pytest.approx(0.7, abs=0.02)

    def test_needs_four_points(self):
        with pytest.raises(ValueError):
            regularity_probe(ConstantKernel(1.0), 0.5, [1e-3, 1e-2])


class TestTabulated:
    def test_csv_round_trip(self, tmp_path):
        grid = TimeGrid(1.0, 10)
        path = tmp_path / "kern.csv"
        rows = ["t,s,value"]
        for i, t in enumerate(grid.times):
            for j, s in enumerate(grid.times):
                if j < i:
                    rows.append(f"{t},{s},{2.0}")
        path.write_text("\n".join(rows) + "\n")
        kern = TabulatedKernel.from_csv(path)
        assert float(kern(0.65, 0.21)) == pytest.approx(2.0)
        gw = GridKernel.from_kernel(kern, TimeGrid(1.0, 10))
        mask = gw.weights != 0.0
        assert np.allclose(gw.weights[mask], 2.0, rtol=1e-9)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,0,1\n")
        with pytest.raises(ValueError):
            TabulatedKernel.from_csv(path)

    def test_varying_table_interpolation_and_weights(self):
        m = 80
        nodes = np.linspace(0.0, 1.0, m + 1)
        vals = np.zeros((m + 1, m + 1))
        for i in range(m + 1):
            for j in range(i):
                vals[i, j] = nodes[i] + 2 * nodes[j]
        kern = TabulatedKernel(times=nodes, values=vals)
        for (t, s) in ((0.9, 0.3), (0.55, 0.1), (0.5, 0.45)):
            assert float(kern(t, s)) == pytest.approx(t + 2 * s, abs=1e-12)
        grid = TimeGrid(1.0, 40)
        gw = GridKernel.from_kernel(kern, grid)
        dt = grid.dt
        for (i, j) in ((40, 0), (20, 10)):
            t = grid.times[i]
            a, b = grid.times[j], grid.times[j + 1]
            exact = (t * (b - a) + (b * b - a * a)) / dt
            assert gw.weights[i, j] == pytest.approx(exact, rel=0.02)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_values_must_be_finite(self, bad):
        nodes = np.linspace(0.0, 1.0, 11)
        values = np.tril(np.ones((11, 11)), -1)
        values[7, 3] = bad
        with pytest.raises(ValueError, match="must be finite"):
            TabulatedKernel(times=nodes, values=values)

    def test_horizon_guard(self):
        nodes = np.linspace(0.0, 1.0, 11)
        kern = TabulatedKernel(times=nodes, values=np.ones((11, 11)))
        with pytest.raises(KernelDomainError):
            eval_kernel(kern, 1.5, 0.1)
        with pytest.raises(KernelDomainError):
            kern.average_weights(TimeGrid(1.5, 10))


class TestKernelFromParams:
    def test_families(self):
        assert isinstance(kernel_from_params("constant", {"c": 2.0}), ConstantKernel)
        assert isinstance(kernel_from_params("power", {"H": 0.75}), PowerKernel)
        assert isinstance(kernel_from_params("fbm", {"H": 0.25}), FbmKernel)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="allowed"):
            kernel_from_params("gauss", {})

    def test_fbm_range(self):
        with pytest.raises(ValueError):
            FbmKernel(1.2)


class TestTimeGrid:
    def test_equality_and_hash(self):
        # kernels cache weights per grid and solvers compare grids, so two
        # grids with the same horizon and step count must be one grid
        a, b = TimeGrid(1, 50), TimeGrid(1.0, 50)
        assert a == b and hash(a) == hash(b)
        assert a != TimeGrid(1.0, 51)
        assert a != TimeGrid(2.0, 50)
        assert a != SimpleNamespace(horizon=1.0, n_steps=50)
