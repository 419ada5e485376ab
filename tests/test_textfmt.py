"""The vectorized shortest round-trip formatter, and the scalar one that
runner cells and the formatter's fallback share, against an oracle built on
Python's repr."""

import numpy as np
import pytest
from conftest import shortest_text

from volterra_mv import textfmt
from volterra_mv.floattext import float_text

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings


def _texts(values):
    cells = textfmt.format_shortest(np.asarray(values, dtype=float))
    return [c.tobytes().replace(b"\0", b"").decode() for c in cells.reshape(-1, textfmt.WIDTH)]


def _check(values):
    values = np.asarray(values, dtype=float).ravel()
    expected = [shortest_text(v) for v in values.tolist()]
    assert _texts(values) == expected
    assert [float_text(v) for v in values.tolist()] == expected
    for v, text in zip(values.tolist(), expected):
        # the text reads back as the same double, and is never longer than
        # the 17 digits it replaced
        assert np.float64(text).view(np.uint64) == np.float64(v).view(np.uint64) or v != v
        assert len(text) <= len("%.17g" % v)


def _ulps(x, k):
    # x moved k ulps away from zero (k > 0) or towards it (k < 0)
    for _ in range(abs(k)):
        x = np.nextafter(x, np.copysign(np.inf, x) if k > 0 else 0.0)
    return float(x)


GRID_STEPS = (3, 7, 200, 400, 1600)

# ties (k + 1/2) 2^-j: short binary fractions, whose exact decimal expansion
# can end in a 5 right after the 17th digit
ties = st.builds(lambda k, j: (k + 0.5) * 2.0**-j,
                 st.integers(0, 2**52), st.integers(0, 60))
# 10^k and its neighbours, where the decimal exponent changes
near_powers = st.builds(lambda k, u: _ulps(10.0**k, u), st.integers(-5, 14), st.integers(-3, 3))
# the window edges 1e-4 and 1e13
edges = st.builds(_ulps, st.sampled_from([1e-4, 1e13]), st.integers(-2, 2))
# mantissa 2^52, whose rounding interval is half as wide below it, and the
# neighbours of such powers of two
powers_of_two = st.builds(lambda k, u: _ulps(2.0**k, u), st.integers(-20, 60), st.integers(-3, 3))
# grid times i / n and i (T / n), as a time grid holds them
grid_times = st.builds(lambda i, n, t: i / n if t is None else i * (t / n),
                       st.integers(0, 3200), st.sampled_from(GRID_STEPS),
                       st.sampled_from([None, 1.0, 0.7, 2.5]))
# doubles from 2^54 up, whose rounding interval ends on an integer: there a
# multiple of 10 can lie exactly on an edge, and reads back as v only if the
# mantissa is even; both parities come up
on_edges = st.builds(lambda k, j: float(2**k + j * 2 ** (k - 52)),
                     st.integers(54, 60), st.integers(0, 2**20))
# v = (2k + 1) 2^-(16 - a) in [8 10^a, 10^(a+1)): 17 digits ending in 5, half
# way between two 16-digit candidates that both read back as v
ties16 = st.builds(lambda a, f: (2 * int((8 + 2 * f) * 10**a * 2.0 ** (15 - a)) + 1)
                   * 2.0 ** (a - 16),
                   st.integers(-1, 10), st.floats(0.0, 0.999))
targeted = st.one_of(ties, near_powers, edges, powers_of_two, grid_times, on_edges,
                     ties16).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=64))
def test_any_floats_match_oracle(values):
    _check(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(targeted, min_size=1, max_size=64))
def test_targeted_floats_match_oracle(values):
    _check(values)


def test_sweep_matches_oracle():
    # every decade of the window and past it, random bit patterns, ties,
    # every power of ten and of two and their neighbours, and grid times,
    # with both signs
    rng = np.random.default_rng(12)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64).view(np.float64)
    scales = 10.0 ** rng.uniform(-6, 15, size=20_000)
    k = rng.integers(0, 2**40, size=5000).astype(float)
    tie = np.ldexp(k + 0.5, -rng.integers(0, 60, size=5000))
    powers = [_ulps(10.0**e, u) for e in range(-6, 17) for u in range(-3, 4)]
    twos = [_ulps(2.0**e, u) for e in range(-20, 60) for u in range(-3, 4)]
    grids = [np.arange(3 * n + 1) / n for n in GRID_STEPS]
    grids += [np.arange(3 * n + 1) * (t / n) for n in GRID_STEPS for t in (1.0, 0.7, 2.5)]
    values = np.concatenate([bits, scales, tie, powers, twos, *grids])
    values = np.concatenate([values, -values])
    _check(values)


def test_ties_between_16_digit_candidates_go_to_the_even_one():
    # 9.0000152587890625 = 589825 2^-16 is 17 digits ending in 5; both 16-digit
    # neighbours read back as it, and the even one is written
    assert _texts([9.0000152587890625, -589827 * 2.0**-16]) == ["9.000015258789062",
                                                                "-9.000045776367188"]


def test_fallback_values():
    values = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072014e-308,
              9.9999999999999991e-05, 1e13, 1.7976931348623157e308, 1e16, 123456789012345680.0]
    _check(values)
    assert _texts(values[:7]) == ["0", "-0", "nan", "nan", "inf", "-inf", "5e-324"]


def test_shape_and_padding():
    cells = textfmt.format_shortest(np.array([[1.5, -0.25, 100.0]]))
    assert cells.shape == (1, 3, textfmt.WIDTH) and cells.dtype == np.uint8
    assert _texts([1.5, -0.25, 100.0, 1e-4, 0.1, 0.005, 1e16, 1e17, 2.0**60]) == [
        "1.5", "-0.25", "100", "0.0001", "0.1", "0.005", "10000000000000000", "1e+17",
        "1.152921504606847e+18"]


def test_csv_rows():
    left = textfmt.text_cells(["a", "bcd"])
    right = textfmt.format_shortest(np.array([[1.0, -2.5], [np.nan, 0.1]]))
    assert textfmt.csv_rows(left, right) == b"a,1,-2.5\r\nbcd,nan,0.1\r\n"
