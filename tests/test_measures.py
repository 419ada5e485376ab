import numpy as np
import pytest

from volterra_mv import (
    DimensionMismatchError,
    EmpiricalMeasure,
    distance_to_dirac0,
    wasserstein2,
    wasserstein2_full,
)


class TestMeasureInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(points=np.zeros((2, 1)), weights=np.array([0.6, 0.6]))

    def test_weights_nonnegative(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(points=np.zeros((2, 1)), weights=np.array([1.5, -0.5]))

    def test_finite_points(self):
        with pytest.raises(ValueError):
            EmpiricalMeasure(points=np.array([[np.inf]]))

    def test_mean_and_second_moment(self):
        mu = EmpiricalMeasure(points=np.array([[0.0], [3.0], [4.0]]))
        assert mu.mean()[0] == pytest.approx(7.0 / 3.0)
        assert mu.second_moment() == pytest.approx(25.0 / 3.0)


class TestWasserstein:
    def test_identity(self):
        rng = np.random.default_rng(1)
        mu = EmpiricalMeasure(points=rng.normal(size=(17, 3)))
        assert wasserstein2(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_point_masses(self):
        assert wasserstein2(
            EmpiricalMeasure.dirac([0.0]), EmpiricalMeasure.dirac([1.0])
        ) == pytest.approx(1.0)

    def test_two_point_example(self):
        # brute force over both pairings: sqrt((1 + 1) / 2) = 1
        mu = EmpiricalMeasure(points=np.array([[0.0], [2.0]]))
        nu = EmpiricalMeasure(points=np.array([[1.0], [1.0]]))
        assert wasserstein2(mu, nu) == pytest.approx(1.0)

    def test_weighted_matches_replicated_uniform(self):
        # a 2/3-1/3 weighting equals the uniform measure on replicated atoms
        mu_w = EmpiricalMeasure(points=np.array([[0.0], [3.0]]),
                                weights=np.array([2.0 / 3.0, 1.0 / 3.0]))
        mu_r = EmpiricalMeasure(points=np.array([[0.0], [0.0], [3.0]]))
        nu = EmpiricalMeasure(points=np.array([[1.0], [2.0], [4.0]]))
        assert wasserstein2(mu_w, nu) == pytest.approx(wasserstein2(mu_r, nu), rel=1e-12)

    def test_weighted_1d_against_linear_program(self):
        # independent oracle: the full transport LP on small weighted clouds
        from scipy.optimize import linprog
        from volterra_mv.measures import _w2_sorted_quantiles

        def w2_lp(x, wx, y, wy):
            cost = (x[:, None] - y[None, :]) ** 2
            a_eq, b_eq = [], []
            for i in range(len(x)):
                row = np.zeros_like(cost)
                row[i, :] = 1
                a_eq.append(row.reshape(-1))
                b_eq.append(wx[i])
            for j in range(len(y)):
                row = np.zeros_like(cost)
                row[:, j] = 1
                a_eq.append(row.reshape(-1))
                b_eq.append(wy[j])
            res = linprog(cost.reshape(-1), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                          bounds=(0, None), method="highs")
            return np.sqrt(res.fun)

        rng = np.random.default_rng(42)
        for trial in range(20):
            x = rng.normal(size=rng.integers(2, 7))
            y = rng.normal(size=rng.integers(2, 7))
            wx = rng.uniform(0.0, 1.0, x.size)
            if trial % 5 == 0:
                wx[rng.integers(x.size)] = 0.0
            wx = wx / wx.sum()
            wy = rng.uniform(0.1, 1.0, y.size)
            wy = wy / wy.sum()
            assert _w2_sorted_quantiles(x, wx, y, wy) == pytest.approx(
                w2_lp(x, wx, y, wy), abs=1e-12
            )

    def test_metric_axioms_1d(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            mu = EmpiricalMeasure(points=rng.normal(size=(6, 1)))
            nu = EmpiricalMeasure(points=rng.normal(size=(9, 1)))
            rho = EmpiricalMeasure(points=rng.normal(size=(4, 1)))
            dxy = wasserstein2(mu, nu)
            assert dxy == pytest.approx(wasserstein2(nu, mu), abs=1e-12)
            assert dxy <= wasserstein2(mu, rho) + wasserstein2(rho, nu) + 1e-10
            assert wasserstein2(mu, mu) <= 1e-10

    def test_assignment_exact_2d(self):
        # translation of a cloud: W2 equals the translation length
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(32, 2))
        shift = np.array([0.7, -0.4])
        mu = EmpiricalMeasure(points=pts)
        nu = EmpiricalMeasure(points=pts + shift)
        res = wasserstein2_full(mu, nu)
        assert not res.approximate and res.method == "assignment"
        assert res.value == pytest.approx(np.linalg.norm(shift), rel=1e-9)

    def test_sliced_flagged_and_documented_accuracy(self):
        # not asserted hard: record the sliced-vs-exact spread on d=2 clouds
        rng = np.random.default_rng(11)
        rel_errors = []
        for _ in range(100):
            mu = EmpiricalMeasure(points=rng.normal(size=(64, 2)))
            nu = EmpiricalMeasure(points=rng.normal(size=(64, 2)) + rng.normal(size=2))
            exact = wasserstein2_full(mu, nu)
            big = EmpiricalMeasure(points=mu.points, weights=np.full(64, 1 / 64))
            approx = wasserstein2_full(big, nu)
            assert approx.approximate and approx.method == "sliced"
            rel_errors.append(abs(approx.value - exact.value) / exact.value)
        med = float(np.median(rel_errors))
        print(f"sliced-vs-exact d=2 relative error: median {med:.3f}, "
              f"p90 {np.quantile(rel_errors, 0.9):.3f}")
        assert med <= 0.35

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            wasserstein2(
                EmpiricalMeasure(points=np.zeros((3, 1))),
                EmpiricalMeasure(points=np.zeros((3, 2))),
            )


class TestDiracDistance:
    def test_at_origin(self):
        assert distance_to_dirac0(EmpiricalMeasure.dirac([0.0])) == 0.0

    def test_symmetric_pair(self):
        mu = EmpiricalMeasure(points=np.array([[-1.0], [1.0]]))
        assert distance_to_dirac0(mu) == pytest.approx(1.0)

    def test_three_points(self):
        mu = EmpiricalMeasure(points=np.array([[0.0], [3.0], [4.0]]))
        assert distance_to_dirac0(mu) == pytest.approx(np.sqrt(25.0 / 3.0))

    def test_consistent_with_transport(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mu = EmpiricalMeasure(points=rng.normal(size=(13, 1)))
            zero = EmpiricalMeasure.dirac([0.0])
            assert wasserstein2(mu, zero) == pytest.approx(
                distance_to_dirac0(mu), abs=1e-10
            )
