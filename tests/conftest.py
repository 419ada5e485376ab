import tempfile
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from volterra_mv import BuiltinLinearMeanField, ConstantKernel, TimeGrid, kernels
from volterra_mv.config import ExperimentConfig, validate_config
from volterra_mv.runner import run_experiment


def shortest_text(v) -> str:
    """Oracle for the text of a float in an artifact: the digits of repr(v),
    the shortest that read back as v, laid out as '%.17g' lays out its own:
    fixed notation for decimal exponents -4 <= X < 17, else d.ddde+XX."""
    text = repr(float(v))
    if text[-1] in "fn":  # inf, -inf, nan
        return text
    d = Decimal(text)
    sign = "-" if d.is_signed() else ""
    if d == 0:
        return sign + "0"
    d = abs(d).normalize()
    _, digits, exp = d.as_tuple()
    x = len(digits) + exp - 1
    if -4 <= x < 17:
        return sign + format(d, "f")
    mantissa = "".join(map(str, digits))
    point = "." if len(mantissa) > 1 else ""
    return f"{sign}{mantissa[0]}{point}{mantissa[1:]}e{x:+03d}"


@pytest.fixture
def unit_kernel():
    return ConstantKernel(1.0)


@pytest.fixture
def grid_small():
    return TimeGrid(1.0, 50)


@pytest.fixture
def grid_fine():
    return TimeGrid(1.0, 1000)


@pytest.fixture
def additive_model():
    """b = 0, sigma = 1: pure stochastic convolution."""
    return BuiltinLinearMeanField(a=0.0, b=0.0, sigma0=1.0).coefficients()


@pytest.fixture
def linear_model():
    """b = x + 0.5 mean, sigma = 1."""
    return BuiltinLinearMeanField(a=1.0, b=0.5, sigma0=1.0).coefficients()


@pytest.fixture
def series_resolvent():
    """The resolvent as the iterated-convolution series R = K + K*K + ...,
    an oracle for the library's forward substitution.

    Terms R_1 = K, R_{k+1} = K*R_k are summed until one has sup_t int |R_k|
    <= tol; the (n+1, n) weights of the sum are returned.
    """
    def series(k, tol, n_max=200):
        n, dt, w = k.grid.n_steps, k.grid.dt, k.weights
        term = w.copy()
        total = w.copy()
        for _ in range(1, n_max):
            term = dt * (w @ term[:n, :])
            total += term
            if dt * np.abs(term).sum(axis=1).max() <= tol:
                return total
        raise AssertionError(f"resolvent series did not reach {tol:g} in {n_max} terms")

    return series


@pytest.fixture
def traced_peak(tmp_path):
    """Peak tracemalloc bytes of some work, after one untraced warm run of it.

    The warm run does the lazy imports and fills the module-level caches (the
    kernel constants), which are no part of the work's arrays.  The work is a
    callable of no arguments, or an ExperimentConfig, run serially into a new
    directory; its traced run starts from a fresh copy of the config, whose
    kernels have no cached grid weights, so that their build is counted as in
    a run of the command line.
    """
    def peak(work):
        if isinstance(work, ExperimentConfig):
            cfg = work

            def work():
                run_experiment(validate_config(cfg.raw_text),
                               out_dir=tempfile.mkdtemp(dir=tmp_path), workers=1)
        work()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak


@pytest.fixture
def history_buffers(monkeypatch):
    """One entry per History built during the test: True when it allocated
    its own buffers, False when a workspace lent them."""
    fresh = []
    real = kernels.History.__init__

    def counting(self, weights, shape=(), buffers=None):
        fresh.append(buffers is None)
        real(self, weights, shape, buffers)

    monkeypatch.setattr(kernels.History, "__init__", counting)
    return fresh
