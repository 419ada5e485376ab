import math

import numpy as np
import pytest

from volterra_mv.kernels import HISTORY_BLOCK, Workspace
from volterra_mv.rng import (
    _BLOCK,
    DrawScratch,
    _step_increments,
    derived_seed,
    fnv1a64,
    mix64,
    ndtri,
    normal_increments,
    stream_key,
    substream_uint64,
    uniform_from_uint64,
)

EXP_M2 = 0.13533528323661269189


def _mix64_out_of_place(z):
    # the splitmix64 formula as first written, one new array per operation
    with np.errstate(over="ignore"):
        z = np.asarray(z, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def test_mix64_reference_values():
    # splitmix64 from seed 0 produces this well-known first output
    assert int(mix64(np.uint64(0))) == 0xE220A8397B1DCDAF


def test_mix64_in_place_matches_out_of_place_formula():
    z = np.random.default_rng(3).integers(0, 2**64, size=(300, 7), dtype=np.uint64)
    z[0, :4] = [0, 1, 2**63, 2**64 - 1]
    want = _mix64_out_of_place(z)
    kept = z.copy()
    assert np.array_equal(mix64(z), want)
    assert np.array_equal(z, kept)  # without out, the argument is left alone
    assert mix64(z, out=z) is z
    assert np.array_equal(z, want)


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


def _central(u):
    # Cephes' central branch: not flipped (u <= 1 - e^-2) and then u > e^-2
    return (u <= 1.0 - EXP_M2) & (u > EXP_M2)


def test_ndtri_matches_cephes_on_generator_uniforms():
    special = pytest.importorskip("scipy.special")
    u = uniform_from_uint64(substream_uint64(stream_key(11, "ndtri"),
                                             np.arange(10**6, dtype=np.uint64), 0, 0))
    got, want = ndtri(u), special.ndtri(u)
    central = _central(u)
    assert 0.6 < central.mean() < 0.8
    assert np.array_equal(got[central], want[central])
    assert _ulps(got[~central], want[~central]).max() <= 8


def test_ndtri_matches_cephes_at_branch_edges():
    special = pytest.importorskip("scipy.special")
    k = np.arange(-200, 201)
    centres = [2.0**-54, EXP_M2, 1.0 - EXP_M2, math.exp(-32.0), 0.5, 1.0 - 2.0**-53]
    u = np.concatenate([np.clip(c + k * np.spacing(c), 2.0**-60, 1.0 - 2.0**-53)
                        for c in centres])
    u = np.concatenate([u, 2.0**-54 * np.arange(1, 200), 1.0 - 2.0**-53 * np.arange(1, 200)])
    got, want = ndtri(u), special.ndtri(u)
    central = _central(u)
    assert np.array_equal(got[central], want[central])
    assert _ulps(got[~central], want[~central]).max() <= 8
    # both sides of the x = sqrt(-2 log u) = 8 switch of the tail branches
    x = np.sqrt(-2.0 * np.log(np.minimum(u, 1.0 - u)))
    assert (x < 8.0).any() and (x >= 8.0).any()


def test_ndtri_special_values():
    got = ndtri(np.array([0.0, 1.0, 0.5, -0.25, 1.5, np.nan]))
    assert got[0] == -np.inf and got[1] == np.inf and got[2] == 0.0
    assert np.isnan(got[3:]).all()
    assert ndtri(0.975).shape == () and abs(float(ndtri(0.975)) - 1.959963984540054) < 1e-15


def _formula(n_p, s0, s1, m, dt):
    # the stream formula of the module docstring over steps s0 <= s < s1,
    # time-major
    key = stream_key(19, "particles")
    h = substream_uint64(key, np.arange(n_p, dtype=np.uint64)[None, :, None],
                         np.arange(s0, s1, dtype=np.uint64)[:, None, None],
                         np.arange(m, dtype=np.uint64)[None, None, :])
    return ndtri(uniform_from_uint64(h)) * np.sqrt(dt)


@pytest.mark.parametrize("shape", [(5, 7, 2), (700, 200, 1), (3, _BLOCK + 70, 2),
                                   (2, 3, _BLOCK + 5), (0, 4, 1), (4, 0, 1)])
def test_blocked_increments_match_one_pass_formula(shape):
    # the stream formula over the whole array at once
    n_p, n, m = shape
    got = normal_increments(19, "particles", n_p, n, m, 0.3)
    assert got.shape == shape
    assert np.array_equal(got, _formula(n_p, 0, n, m, 0.3).transpose(1, 0, 2))


@pytest.mark.parametrize("shape", [(5, 37, 1), (64, 40, 2), (7, 29, 3), (_BLOCK + 5, 3, 1),
                                   (_BLOCK // 2 + 1, 3, 3)])
@pytest.mark.parametrize("width", [1, 7, 32])
def test_step_range_draws_match_normal_increments(shape, width):
    # runs of steps that do not divide n, and steps with more draws than one
    # block, which are drawn a run of particles at a time
    n_p, n, m = shape
    whole = normal_increments(19, "particles", n_p, n, m, 0.3)
    for s0 in range(0, n, width):
        s1 = min(s0 + width, n)
        got = _step_increments(19, "particles", n_p, s0, s1, m, 0.3)
        assert got.shape == (s1 - s0, n_p, m)
        assert np.array_equal(got, whole[:, s0:s1].transpose(1, 0, 2))


@pytest.mark.parametrize("shape", [(1, 7, 1), (2000, 400, 1), (5000, 200, 1), (3, 100, 2),
                                   (70000, 40, 3)])
def test_step_draws_in_a_lent_scratch_match_the_formula(shape):
    # the scratch a march lends its draws, and runs of steps that fit it,
    # that do not (33 steps) and that do not divide n; at 70000 particles of
    # 3 components a step is drawn a run of particles at a time.  Every run
    # draws over what the one before left in the scratch
    n_p, n, m = shape
    scratch = Workspace().draws(n_p, HISTORY_BLOCK, m)
    widths = [1, 7, 32, 3, 33, 2] if n_p * m < 10**5 else [1, 3, 2]
    s0, k = 0, 0
    while s0 < n:
        s1 = min(s0 + widths[k % len(widths)], n)
        got = _step_increments(19, "particles", n_p, s0, s1, m, 0.3, scratch)
        assert got.shape == (s1 - s0, n_p, m)
        assert np.array_equal(got.view(np.uint64), _formula(n_p, s0, s1, m, 0.3).view(np.uint64))
        s0, k = s1, k + 1


def test_a_workspace_lends_one_draw_scratch():
    pool = Workspace()
    scratch = pool.draws(500, HISTORY_BLOCK, 1)
    assert isinstance(scratch, DrawScratch)
    # smaller draws take it as it is; a larger one replaces it
    assert pool.draws(20, HISTORY_BLOCK, 2) is scratch
    assert pool.draws(1, 1, 1) is scratch
    bigger = pool.draws(10**5, HISTORY_BLOCK, 1)
    assert bigger is not scratch and bigger.size >= scratch.size
    assert pool.draws(500, HISTORY_BLOCK, 1) is bigger


def test_identical_keys_identical_values():
    a = normal_increments(42, "particles", 5, 7, 2, 0.1)
    b = normal_increments(42, "particles", 5, 7, 2, 0.1)
    assert np.array_equal(a, b)


def test_distinct_tags_and_seeds_differ():
    a = normal_increments(42, "particles", 4, 6, 1, 0.1)
    b = normal_increments(42, "other", 4, 6, 1, 0.1)
    c = normal_increments(43, "particles", 4, 6, 1, 0.1)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_prefix_stability():
    # the first particles/steps are unchanged when the array grows
    small = normal_increments(7, "particles", 3, 5, 1, 0.2)
    big = normal_increments(7, "particles", 10, 9, 1, 0.2)
    assert np.array_equal(small, big[:3, :5, :])


def test_moments():
    dt = 0.01
    z = normal_increments(123, "particles", 400, 250, 1, dt)
    flat = z.reshape(-1)
    n = flat.size
    assert abs(flat.mean()) <= 5 * np.sqrt(dt / n)
    assert abs(flat.var() - dt) <= 5 * dt * np.sqrt(2.0 / n)


def test_step_and_particle_independence():
    z = normal_increments(9, "particles", 2000, 2, 1, 1.0)
    corr = np.corrcoef(z[:, 0, 0], z[:, 1, 0])[0, 1]
    assert abs(corr) <= 5 / np.sqrt(2000)


def test_substream_vectorization_matches_scalar():
    key = stream_key(5, "particles")
    grid = substream_uint64(
        key,
        np.arange(3, dtype=np.uint64)[:, None],
        np.arange(4, dtype=np.uint64)[None, :],
        np.uint64(0),
    )
    for p in range(3):
        for s in range(4):
            single = substream_uint64(key, np.uint64(p), np.uint64(s), np.uint64(0))
            assert grid[p, s] == single


def test_derived_seed_distinct():
    seeds = {derived_seed(1, i) for i in range(100)}
    assert len(seeds) == 100


def test_fnv_distinct():
    assert fnv1a64("particles") != fnv1a64("init")


def _uniform_unclamped(h):
    # the uniform formula before the clamp below 1
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def test_top_code_stays_below_one():
    top = np.array([2**64 - 1], dtype=np.uint64)
    u = uniform_from_uint64(top)
    assert u[0] < 1.0 and u[0] == 1.0 - 2.0**-53
    assert np.isfinite(ndtri(u)).all()


def test_clamp_leaves_every_other_code_alone():
    # a random sample, the bottom code and the two codes below the top one
    h = np.random.default_rng(3).integers(0, 2**64, size=10**5, dtype=np.uint64, endpoint=False)
    below_top = (np.uint64(2**53 - 2) << np.uint64(11), np.uint64(2**53 - 3) << np.uint64(11))
    h = np.concatenate([h, np.array([0, *below_top, 2**64 - 2**11 - 1], dtype=np.uint64)])
    u = uniform_from_uint64(h)
    assert np.array_equal(u, _uniform_unclamped(h))
    assert u.max() < 1.0 and u.min() > 0.0
