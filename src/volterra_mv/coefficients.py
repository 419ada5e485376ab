"""Coefficient sets (drift, diffusion, their derivatives) and numerical probes.

Evaluators are vectorized over a batch of states: ``b(t, x, mu)`` takes
``x`` of shape (n, d) and returns (n, d); ``sigma`` returns (n, d, m).
``grad_b`` returns state Jacobians (n, d, d) and ``lions_b(t, x, mu, y)``
the measure-derivative matrices (n_y, d, d) paired against perturbation
directions at the atoms ``y``.  Evaluators must be pure: the engine calls
them concurrently and caches nothing on their behalf.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError
from .measures import EmpiricalMeasure, distance_to_dirac0, wasserstein2


@dataclass
class CoefficientSet:
    b: object
    sigma: object
    d: int
    m: int
    grad_b: object | None = None
    lions_b: object | None = None
    constants: dict = field(default_factory=dict)

    def drift(self, t, x, mu) -> np.ndarray:
        out = np.asarray(self.b(t, x, mu), dtype=float)
        if out.shape != x.shape:
            raise DimensionMismatchError(f"drift returned shape {out.shape}, expected {x.shape}")
        return out

    def diffusion(self, t, x, mu) -> np.ndarray:
        out = np.asarray(self.sigma(t, x, mu), dtype=float)
        want = (*x.shape[:-1], self.d, self.m)
        if out.shape != want:
            raise DimensionMismatchError(f"diffusion returned shape {out.shape}, expected {want}")
        return out

    def drift_gradient(self, t, x, mu) -> np.ndarray:
        if self.grad_b is None:
            raise ValueError("coefficient set declares no drift gradient")
        out = np.asarray(self.grad_b(t, x, mu), dtype=float)
        want = (*x.shape[:-1], self.d, self.d)
        if out.shape != want:
            raise DimensionMismatchError(f"grad_b returned shape {out.shape}, expected {want}")
        return out

    def drift_measure_derivative(self, t, x, mu, y) -> np.ndarray:
        if self.lions_b is None:
            raise ValueError("coefficient set declares no measure derivative")
        out = np.asarray(self.lions_b(t, x, mu, y), dtype=float)
        want = (*np.asarray(y).shape[:-1], self.d, self.d)
        if out.shape != want:
            raise DimensionMismatchError(f"lions_b returned shape {out.shape}, expected {want}")
        return out


def _as_matrix(value, rows, cols) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        if rows != cols:
            out = np.zeros((rows, cols))
            np.fill_diagonal(out, float(arr))
            return out
        return float(arr) * np.eye(rows)
    if arr.shape != (rows, cols):
        raise ValueError(f"expected shape {(rows, cols)}, got {arr.shape}")
    return arr


def _affine_sigma_2d(s0: np.ndarray, s1: np.ndarray, x: np.ndarray) -> np.ndarray:
    """s0 + einsum("dmk,...k->...dm", s1, x) at d = 2, bit for bit, formed one
    strided column of the (..., 2, m) result at a time, where einsum takes
    about 60 us at N = 2000, m = 2 for 5 us at d = 1.

    einsum sums the two products from +0.0, which differs from their bare sum
    only where both are -0.0; adding s0 + 0.0 in place of s0 gives its bits.
    """
    m = s1.shape[1]
    rows = x.reshape(-1, 2)
    s = s1.reshape(2 * m, 2)
    s0z = s0.reshape(-1) + 0.0
    out = np.empty((len(rows), 2 * m))
    second = np.empty(len(rows))
    for j in range(2 * m):
        col = np.multiply(rows[:, 0], s[j, 0], out=out[:, j])
        col += np.multiply(rows[:, 1], s[j, 1], out=second)
        col += s0z[j]
    return out.reshape(*x.shape[:-1], 2, m)


@dataclass(frozen=True)
class BuiltinLinearMeanField:
    """b(t, x, mu) = A x + B mean(mu), sigma(t, x, mu) = sigma0 (+ sigma1 . x).

    The canonical smoke-test model: globally Lipschitz, with grad_b = A and
    measure derivative identically B.
    """

    a: object = 0.0
    b: object = 0.0
    sigma0: object = 1.0
    sigma1: object = None
    d: int = 1
    m: int = 1

    def coefficients(self) -> CoefficientSet:
        d, m = self.d, self.m
        a_mat = _as_matrix(self.a, d, d)
        b_mat = _as_matrix(self.b, d, d)
        s0 = _as_matrix(self.sigma0, d, m)
        s1 = None
        if self.sigma1 is not None:
            arr = np.asarray(self.sigma1, dtype=float)
            if arr.ndim == 0:
                # scalar sigma1 means sigma_ii(x) = sigma0_ii + sigma1 * x_i
                s1 = np.zeros((d, m, d))
                for i in range(min(d, m)):
                    s1[i, i, i] = float(arr)
            elif arr.shape == (d, m, d):
                s1 = arr
            else:
                raise ValueError(f"sigma1 must be scalar or shape {(d, m, d)}")

        def drift(t, x, mu):
            return np.dot(x, a_mat.T) + np.dot(mu.mean(), b_mat.T)

        def diffusion(t, x, mu):
            if s1 is None:
                out = np.empty((*x.shape[:-1], d, m))
                out[...] = s0
                return out
            if d == 2:
                return _affine_sigma_2d(s0, s1, x)
            return s0 + np.einsum("dmk,...k->...dm", s1, x)

        def gradient(t, x, mu):
            return np.broadcast_to(a_mat, (*x.shape[:-1], d, d)).copy()

        def measure_derivative(t, x, mu, y):
            y = np.asarray(y, dtype=float)
            return np.broadcast_to(b_mat, (*y.shape[:-1], d, d)).copy()

        op_norm = lambda mat: float(np.linalg.norm(mat, 2))
        sigma_lip = 0.0 if s1 is None else float(np.linalg.norm(s1.reshape(d * m, d), 2))
        constants = {
            "L1": op_norm(a_mat) + op_norm(b_mat) + sigma_lip,
            "L2": max(
                op_norm(a_mat) + op_norm(b_mat) + sigma_lip,
                float(np.linalg.norm(s0)),
                1.0,
            ),
        }
        return CoefficientSet(
            b=drift, sigma=diffusion, grad_b=gradient, lions_b=measure_derivative,
            d=d, m=m, constants=constants,
        )


def default_sampler(d: int = 1, box: float = 10.0, atoms: int = 8, horizon: float = 1.0):
    """Seeded generator of (t, x, mu) triples used by the Lipschitz probe."""

    def sample(rng: np.random.Generator):
        t = float(rng.uniform(0.0, horizon))
        x = rng.uniform(-box, box, size=d)
        pts = rng.uniform(-box, box, size=(atoms, d))
        return t, x, EmpiricalMeasure(points=pts)

    return sample


@dataclass(frozen=True)
class LipschitzReport:
    l1_hat: float
    l2_hat: float
    l1_witness: tuple
    l2_witness: tuple
    falsified: dict


def lipschitz_probe(coeffs: CoefficientSet, sampler, n_samples: int,
                    seed: int = 0) -> LipschitzReport:
    """Empirical Lipschitz / linear-growth constants over sampled pairs.

    Returns the maximal difference quotient of (drift, diffusion) against
    |x - y| + W2(mu, nu), the maximal growth ratio against
    1 + |x| + W2(mu, delta_0), the witnesses attaining them, and which
    declared constants (if any) the samples falsify beyond 1e-9.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(n_samples):
        t, x, mu = sampler(rng)
        x = np.asarray(x, dtype=float)
        if x.shape != (coeffs.d,) or mu.dim != coeffs.d:
            raise DimensionMismatchError("sampler dimension does not match the coefficients")
        triples.append((t, x, mu))

    l1_hat, l1_wit = 0.0, None
    l2_hat, l2_wit = 0.0, None
    evals = []
    for (t, x, mu) in triples:
        bv = coeffs.drift(t, x[None, :], mu)[0]
        sv = coeffs.diffusion(t, x[None, :], mu)[0]
        evals.append((bv, sv))
        denom = 1.0 + float(np.linalg.norm(x)) + distance_to_dirac0(mu)
        ratio = (float(np.linalg.norm(bv)) + float(np.linalg.norm(sv))) / denom
        if ratio > l2_hat:
            l2_hat, l2_wit = ratio, (t, x, mu)
    for i in range(len(triples)):
        ti, xi, mi = triples[i]
        for j in range(i + 1, len(triples)):
            _, xj, mj = triples[j]
            denom = float(np.linalg.norm(xi - xj)) + wasserstein2(mi, mj)
            if denom >= 1e-12:
                bj = coeffs.drift(ti, xj[None, :], mj)[0]
                sj = coeffs.diffusion(ti, xj[None, :], mj)[0]
                num = float(np.linalg.norm(evals[i][0] - bj)) + float(
                    np.linalg.norm(evals[i][1] - sj)
                )
                ratio = num / denom
                if ratio > l1_hat:
                    l1_hat, l1_wit = ratio, (ti, xi, mi, xj, mj)
            # pure state increment at a shared measure: mu = nu is admissible too
            denom_x = float(np.linalg.norm(xi - xj))
            if denom_x >= 1e-12:
                bj_s = coeffs.drift(ti, xj[None, :], mi)[0]
                sj_s = coeffs.diffusion(ti, xj[None, :], mi)[0]
                num = float(np.linalg.norm(evals[i][0] - bj_s)) + float(
                    np.linalg.norm(evals[i][1] - sj_s)
                )
                ratio = num / denom_x
                if ratio > l1_hat:
                    l1_hat, l1_wit = ratio, (ti, xi, mi, xj, mi)
    falsified = {}
    for name, hat in (("L1", l1_hat), ("L2", l2_hat)):
        declared = coeffs.constants.get(name)
        if declared is not None and hat > declared + 1e-9:
            falsified[name] = (declared, hat)
    return LipschitzReport(
        l1_hat=l1_hat, l2_hat=l2_hat,
        l1_witness=l1_wit, l2_witness=l2_wit, falsified=falsified,
    )


@dataclass(frozen=True)
class MeasureDerivativeReport:
    eps_values: np.ndarray
    discrepancies: np.ndarray
    extrapolated: float
    first_order: bool
    passed: bool


# how far lions_fd_check lets the ratio of a discrepancy to its eps grow
# above the ratio at the largest eps: C eps + D eps^2 stays within it while
# |D| eps_max <= C / 2, and a discrepancy that does not vanish has a ratio
# that grows like 1 / eps
_FD_RATIO_MARGIN = 2.0


def lions_fd_check(coeffs: CoefficientSet, t: float, x, mu: EmpiricalMeasure,
                   direction, eps_list) -> MeasureDerivativeReport:
    """Finite-difference check of the declared measure derivative of the drift.

    Pushes mu forward under id + eps * direction, compares the difference
    quotient of b against the pairing sum_i w_i lions_b(t, x, mu, y_i)
    direction(y_i), and reports whether the discrepancy vanishes at first
    order in eps: whether each discrepancy, over its eps, is at most twice
    that ratio at the largest eps, up to a slack of 1e-8 times
    max(1, |pairing|).
    """
    eps_arr = np.asarray(list(eps_list), dtype=float)
    if eps_arr.size < 2 or np.any(np.diff(eps_arr) >= 0) or np.any(eps_arr <= 0):
        raise ValueError("eps_list must be strictly decreasing and positive")
    x = np.asarray(x, dtype=float)
    phi = direction(mu.points)  # (n, d)
    base = coeffs.drift(t, x[None, :], mu)[0]
    mats = coeffs.drift_measure_derivative(t, x, mu, mu.points)  # (n, d, d)
    w = mu.weight_vector()
    pairing = np.einsum("n,ndk,nk->d", w, mats, phi)
    disc = np.empty_like(eps_arr)
    for i, eps in enumerate(eps_arr):
        shifted = EmpiricalMeasure(points=mu.points + eps * phi, weights=mu.weights)
        bumped = coeffs.drift(t, x[None, :], shifted)[0]
        if not np.all(np.isfinite(bumped)):
            raise ValueError("perturbed drift evaluation is not finite")
        fd = (bumped - base) / eps
        disc[i] = float(np.linalg.norm(fd - pairing))
    slack = 1e-8 * max(1.0, float(np.linalg.norm(pairing)))
    # linear-in-eps decay: discrepancy(eps) <= margin * C * eps, with C the
    # ratio at the largest eps
    bound = _FD_RATIO_MARGIN * (disc[0] / eps_arr[0]) * eps_arr + slack
    first_order = bool(np.all(disc <= bound))
    extrapolated = float(disc[-1])
    passed = first_order and extrapolated <= bound[-1]
    return MeasureDerivativeReport(
        eps_values=eps_arr, discrepancies=disc,
        extrapolated=extrapolated, first_order=first_order, passed=passed,
    )
