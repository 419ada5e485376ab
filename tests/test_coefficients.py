import numpy as np
import pytest

from volterra_mv import (
    BuiltinLinearMeanField,
    CoefficientSet,
    EmpiricalMeasure,
    default_sampler,
    lions_fd_check,
    lipschitz_probe,
)


class TestBuiltin:
    def test_linear_form(self):
        coeffs = BuiltinLinearMeanField(a=2.0, b=3.0, sigma0=0.5).coefficients()
        mu = EmpiricalMeasure(points=np.array([[1.0], [3.0]]))
        x = np.array([[4.0]])
        assert coeffs.drift(0.0, x, mu)[0, 0] == pytest.approx(2.0 * 4.0 + 3.0 * 2.0)
        assert coeffs.diffusion(0.0, x, mu)[0, 0, 0] == 0.5
        assert coeffs.drift_gradient(0.0, x, mu)[0, 0, 0] == 2.0
        assert coeffs.drift_measure_derivative(0.0, x[0], mu, x)[0, 0, 0] == 3.0

    def test_affine_diffusion(self):
        coeffs = BuiltinLinearMeanField(a=0.0, b=0.0, sigma0=1.0, sigma1=0.5).coefficients()
        mu = EmpiricalMeasure.dirac([0.0])
        x = np.array([[2.0]])
        assert coeffs.diffusion(0.0, x, mu)[0, 0, 0] == pytest.approx(1.0 + 0.5 * 2.0)

    @pytest.mark.parametrize("d, m", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
    def test_affine_diffusion_is_the_einsum_bit_for_bit(self, d, m):
        # signed zeros, subnormals and far-apart magnitudes: at d = 2 the
        # columns are formed without einsum, whose sum starts at +0.0
        rng = np.random.default_rng(10 * d + m)
        vals = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 1.0, -2.5, 1e100, -1e100])
        s0, s1 = rng.choice(vals, size=(d, m)), rng.choice(vals, size=(d, m, d))
        mu = EmpiricalMeasure.dirac(np.zeros(d))
        x = rng.choice(vals, size=(600, d))
        for sigma1 in (s1, 0.5):
            coeffs = BuiltinLinearMeanField(sigma0=s0, sigma1=sigma1, d=d, m=m).coefficients()
            full = s1 if sigma1 is s1 else np.zeros((d, m, d))
            if sigma1 is not s1:
                for i in range(min(d, m)):
                    full[i, i, i] = 0.5
            for pts in (x, x[None, :7], x[:1]):
                got = coeffs.diffusion(0.0, pts, mu)
                want = s0 + np.einsum("dmk,...k->...dm", full, pts)
                assert got.shape == want.shape == (*pts.shape[:-1], d, m)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_multidimensional(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        coeffs = BuiltinLinearMeanField(a=a, b=0.0, sigma0=np.eye(2), d=2, m=2).coefficients()
        mu = EmpiricalMeasure.dirac([0.0, 0.0])
        x = np.array([[1.0, 2.0]])
        np.testing.assert_allclose(coeffs.drift(0.0, x, mu)[0], a @ x[0])


class TestLipschitzProbe:
    def test_constant_coefficients(self):
        coeffs = BuiltinLinearMeanField(a=0.0, b=0.0, sigma0=1.0).coefficients()
        rep = lipschitz_probe(coeffs, default_sampler(), n_samples=12, seed=0)
        assert rep.l1_hat == pytest.approx(0.0, abs=1e-12)
        assert not rep.falsified

    def test_pure_state_feedback_ratio(self):
        coeffs = BuiltinLinearMeanField(a=2.0, b=0.0, sigma0=0.0).coefficients()
        rep = lipschitz_probe(coeffs, default_sampler(), n_samples=40, seed=1)
        assert rep.l1_hat <= 2.0 + 1e-9
        assert rep.l1_hat >= 1.5  # most pairs differ in measure too, ratio below 2

    def test_never_falsifies_builtin_constants(self):
        for seed, n in ((0, 10), (1, 25), (2, 60)):
            coeffs = BuiltinLinearMeanField(a=1.5, b=0.7, sigma0=1.0).coefficients()
            rep = lipschitz_probe(coeffs, default_sampler(), n_samples=n, seed=seed)
            assert not rep.falsified

    def test_superlinear_drift_falsified(self):
        def b(t, x, mu):
            return x**2

        def sigma(t, x, mu):
            return np.zeros((*x.shape, 1))

        coeffs = CoefficientSet(b=b, sigma=sigma, d=1, m=1, constants={"L1": 19.0})
        rep = lipschitz_probe(coeffs, default_sampler(box=10.0), n_samples=60, seed=3)
        assert "L1" in rep.falsified

    def test_growth_denominator_is_the_root_second_moment(self):
        # W2(mu, delta_0) in closed form; at d = 2 a sliced estimate moves l2_hat by 0.2%
        coeffs = BuiltinLinearMeanField(a=1.5 * np.eye(2), b=0.7, sigma0=np.eye(2),
                                        d=2, m=2).coefficients()
        sampler = default_sampler(d=2)
        rep = lipschitz_probe(coeffs, sampler, n_samples=12, seed=0)
        rng = np.random.default_rng(0)
        want = 0.0
        for _ in range(12):
            t, x, mu = sampler(rng)
            num = (np.linalg.norm(coeffs.drift(t, x[None, :], mu)[0])
                   + np.linalg.norm(coeffs.diffusion(t, x[None, :], mu)[0]))
            root_m2 = np.sqrt(np.mean(np.sum(mu.points**2, axis=1)))
            want = max(want, num / (1.0 + np.linalg.norm(x) + root_m2))
        assert rep.l2_hat == pytest.approx(want, rel=1e-12)

    def test_sample_count_validated(self):
        coeffs = BuiltinLinearMeanField().coefficients()
        with pytest.raises(ValueError):
            lipschitz_probe(coeffs, default_sampler(), n_samples=1)


class TestMeasureDerivativeCheck:
    def test_builtin_exact_for_constant_direction(self):
        coeffs = BuiltinLinearMeanField(a=0.3, b=1.7, sigma0=1.0).coefficients()
        rng = np.random.default_rng(2)
        mu = EmpiricalMeasure(points=rng.normal(size=(50, 1)))
        rep = lions_fd_check(
            coeffs, 0.0, np.array([0.4]), mu,
            direction=lambda pts: np.ones_like(pts),
            eps_list=[1e-1, 1e-2, 1e-3],
        )
        assert rep.passed
        assert rep.discrepancies.max() <= 1e-10

    def test_builtin_exact_large_support(self):
        coeffs = BuiltinLinearMeanField(a=0.0, b=0.9, sigma0=1.0).coefficients()
        rng = np.random.default_rng(4)
        mu = EmpiricalMeasure(points=rng.normal(size=(1000, 1)))
        rep = lions_fd_check(
            coeffs, 0.0, np.array([0.0]), mu,
            direction=lambda pts: np.sin(pts),
            eps_list=[1e-1, 1e-2, 1e-3, 1e-4],
        )
        assert rep.passed

    def test_squared_mean_drift(self):
        # b(mu) = mean(mu)^2 at delta_2 along the constant direction:
        # difference quotient (2 + eps)^2 - 4 over eps -> 4, pairing 2*mean = 4
        def b(t, x, mu):
            mval = mu.mean()[0]
            return np.full_like(x, mval * mval)

        def sigma(t, x, mu):
            return np.zeros((*x.shape, 1))

        def lions(t, x, mu, y):
            y = np.asarray(y)
            return np.full((*y.shape[:-1], 1, 1), 2.0 * mu.mean()[0])

        coeffs = CoefficientSet(b=b, sigma=sigma, lions_b=lions, d=1, m=1)
        mu = EmpiricalMeasure.dirac([2.0])
        rep = lions_fd_check(
            coeffs, 0.0, np.array([0.0]), mu,
            direction=lambda pts: np.ones_like(pts),
            eps_list=[1e-1, 1e-2, 1e-3, 1e-4],
        )
        assert rep.passed
        # the quotient is 4 + eps, so the discrepancy is exactly eps
        np.testing.assert_allclose(rep.discrepancies, rep.eps_values, rtol=1e-6)

    def test_measure_independent_drift(self):
        coeffs = BuiltinLinearMeanField(a=1.0, b=0.0, sigma0=1.0).coefficients()
        mu = EmpiricalMeasure(points=np.array([[1.0], [2.0]]))
        rep = lions_fd_check(
            coeffs, 0.0, np.array([0.5]), mu,
            direction=lambda pts: pts,
            eps_list=[1e-2, 1e-3],
        )
        assert rep.passed
        assert rep.discrepancies.max() == 0.0

    def test_eps_list_validation(self):
        coeffs = BuiltinLinearMeanField(b=1.0).coefficients()
        mu = EmpiricalMeasure.dirac([0.0])
        with pytest.raises(ValueError):
            lions_fd_check(coeffs, 0.0, np.array([0.0]), mu,
                           direction=lambda p: p, eps_list=[1e-3, 1e-2])
