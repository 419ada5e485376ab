"""The vectorized '%.17g' formatter against Python's own '%'."""

import numpy as np
import pytest

from volterra_mv import textfmt

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def _texts(values):
    cells = textfmt.format_g17(np.asarray(values, dtype=float))
    return [c.tobytes().replace(b"\0", b"").decode() for c in cells.reshape(-1, textfmt.WIDTH)]


def _expected(values):
    return ["%.17g" % v for v in np.asarray(values, dtype=float).ravel().tolist()]


def _ulps(x, k):
    # x moved k ulps away from zero (k > 0) or towards it (k < 0)
    for _ in range(abs(k)):
        x = np.nextafter(x, np.copysign(np.inf, x) if k > 0 else 0.0)
    return float(x)


# ties (k + 1/2) 2^-j: short binary fractions, whose exact decimal expansion
# can end in a 5 right after the 17th digit
ties = st.builds(lambda k, j: (k + 0.5) * 2.0**-j,
                 st.integers(0, 2**52), st.integers(0, 60))
# 10^k and its neighbours, where log10 is one off
near_powers = st.builds(lambda k, u: _ulps(10.0**k, u), st.integers(-5, 14), st.integers(-3, 3))
# the window edges 1e-4 and 1e13
edges = st.builds(_ulps, st.sampled_from([1e-4, 1e13]), st.integers(-2, 2))
targeted = st.one_of(ties, near_powers, edges).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_any_floats_match_percent(values):
    assert _texts(values) == _expected(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(targeted, min_size=1, max_size=64))
def test_targeted_floats_match_percent(values):
    assert _texts(values) == _expected(values)


def test_sweep_matches_percent():
    # every decade of the window and past it, random bit patterns, ties,
    # every power of ten and its neighbours, with both signs
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    scales = 10.0 ** rng.uniform(-6, 15, size=20_000)
    k = rng.integers(0, 2**40, size=5000).astype(float)
    tie = np.ldexp(k + 0.5, -rng.integers(0, 60, size=5000))
    powers = [_ulps(10.0**e, u) for e in range(-6, 17) for u in range(-3, 4)]
    values = np.concatenate([bits, scales, tie, powers])
    values = np.concatenate([values, -values])
    assert _texts(values) == _expected(values)


def test_fallback_values():
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
              9.9999999999999991e-05, 1e13, 1.7976931348623157e308, 1e16, 123456789012345680.0]
    assert _texts(values) == _expected(values)


def test_shape_and_padding():
    cells = textfmt.format_g17(np.array([[1.5, -0.25, 100.0]]))
    assert cells.shape == (1, 3, textfmt.WIDTH) and cells.dtype == np.uint8
    assert _texts([1.5, -0.25, 100.0, 1e-4, 0.1]) == ["1.5", "-0.25", "100", "0.0001",
                                                     "0.10000000000000001"]


def test_csv_rows():
    left = textfmt.text_cells(["a", "bcd"])
    right = textfmt.format_g17(np.array([[1.0, -2.5], [np.nan, 0.1]]))
    assert textfmt.csv_rows(left, right) == b"a,1,-2.5\r\nbcd,nan,0.10000000000000001\r\n"
