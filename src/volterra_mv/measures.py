"""Empirical measures and quadratic-cost optimal transport distances.

A finite weighted point cloud stands in for every probability law the solvers
touch: the simulated particle law, the Dirac mass at the deterministic limit,
and the origin Dirac used in growth bounds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

ASSIGNMENT_BUDGET = 512
SLICED_DIRECTIONS = 64
_SLICED_SEED = 20240814


@dataclass
class EmpiricalMeasure:
    """Weighted point cloud in R^d; weights default to uniform and sum to one."""

    points: np.ndarray
    weights: np.ndarray | None = None
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        self.points = pts
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
        if self._validate:
            if pts.ndim != 2 or pts.shape[0] == 0:
                raise ValueError("points must form a nonempty (n, d) array")
            if not np.all(np.isfinite(pts)):
                raise ValueError("measure support contains non-finite points")
            if self.weights is not None:
                w = self.weights
                if w.shape != (pts.shape[0],):
                    raise ValueError("weights must match the number of points")
                if np.any(w < 0.0):
                    raise ValueError("weights must be nonnegative")
                if abs(float(w.sum()) - 1.0) > 1e-12:
                    raise ValueError("weights must sum to 1 within 1e-12")
        self._mean_cache = None

    @classmethod
    def dirac(cls, x) -> "EmpiricalMeasure":
        return cls(points=np.atleast_1d(np.asarray(x, dtype=float))[None, :], _validate=False)

    @property
    def n_atoms(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def uniform(self) -> bool:
        return self.weights is None

    def weight_vector(self) -> np.ndarray:
        if self.weights is None:
            return np.full(self.n_atoms, 1.0 / self.n_atoms)
        return self.weights

    def mean(self) -> np.ndarray:
        if self._mean_cache is None:
            if self.weights is None:
                self._mean_cache = np.add.reduce(self.points, axis=0) / self.n_atoms
            else:
                self._mean_cache = self.weights @ self.points
        return self._mean_cache

    def second_moment(self) -> float:
        sq = np.einsum("nd,nd->n", self.points, self.points)
        return float(self.weight_vector() @ sq)

    def to_csv(self, path) -> None:
        """Debug dump with columns index,x1..xd,weight."""
        w = self.weight_vector()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index"] + [f"x{k + 1}" for k in range(self.dim)] + ["weight"])
            for i in range(self.n_atoms):
                writer.writerow([i] + [f"{v:.17g}" for v in self.points[i]] + [f"{w[i]:.17g}"])


@dataclass(frozen=True)
class W2Result:
    value: float
    approximate: bool
    method: str


def _w2_sorted_quantiles(x, wx, y, wy) -> float:
    """Exact 1-d W2 via the monotone rearrangement of cumulative weights."""
    ox = np.argsort(x, kind="stable")
    oy = np.argsort(y, kind="stable")
    xs, ws = x[ox], wx[ox]
    ys, vs = y[oy], wy[oy]
    cx = np.cumsum(ws)
    cy = np.cumsum(vs)
    levels = np.union1d(cx, cy)
    levels = levels[(levels > 1e-15) & (levels <= 1.0 + 1e-15)]
    prev = 0.0
    total = 0.0
    ix = iy = 0
    for lv in levels:
        mass = lv - prev
        if mass <= 0:
            continue
        while ix < len(cx) - 1 and cx[ix] <= prev + 1e-15:
            ix += 1
        while iy < len(cy) - 1 and cy[iy] <= prev + 1e-15:
            iy += 1
        diff = xs[ix] - ys[iy]
        total += mass * diff * diff
        prev = lv
    return float(np.sqrt(max(total, 0.0)))


def wasserstein2_full(mu: EmpiricalMeasure, nu: EmpiricalMeasure,
                      n_directions: int = SLICED_DIRECTIONS, seed: int = _SLICED_SEED) -> W2Result:
    """Quadratic Wasserstein distance with an exactness flag.

    d = 1 is always exact (sorted coupling / monotone rearrangement).  In
    higher dimension, equal-size uniform clouds within the assignment budget
    are solved exactly by minimum-cost matching; anything else falls back to
    a sliced estimate over seeded random directions, flagged approximate.
    The sliced mean square is multiplied by d, which makes the estimate exact
    for point masses and isotropic displacements.
    """
    if mu.dim != nu.dim:
        raise DimensionMismatchError(
            f"measures have different dimensions ({mu.dim} vs {nu.dim})"
        )
    d = mu.dim
    if d == 1:
        x = mu.points[:, 0]
        y = nu.points[:, 0]
        if mu.uniform and nu.uniform and mu.n_atoms == nu.n_atoms:
            xs = np.sort(x)
            ys = np.sort(y)
            val = float(np.sqrt(np.mean((xs - ys) ** 2)))
        else:
            val = _w2_sorted_quantiles(x, mu.weight_vector(), y, nu.weight_vector())
        return W2Result(value=val, approximate=False, method="quantile")
    if (
        mu.uniform and nu.uniform and mu.n_atoms == nu.n_atoms
        and mu.n_atoms <= ASSIGNMENT_BUDGET
    ):
        from scipy.optimize import linear_sum_assignment
        from scipy.spatial.distance import cdist

        cost = cdist(mu.points, nu.points, metric="sqeuclidean")
        rows, cols = linear_sum_assignment(cost)
        val = float(np.sqrt(cost[rows, cols].mean()))
        return W2Result(value=val, approximate=False, method="assignment")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_directions, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    wx = mu.weight_vector()
    wy = nu.weight_vector()
    acc = 0.0
    for theta in dirs:
        acc += _w2_sorted_quantiles(mu.points @ theta, wx, nu.points @ theta, wy) ** 2
    val = float(np.sqrt(d * acc / n_directions))
    return W2Result(value=val, approximate=True, method="sliced")


def wasserstein2(mu: EmpiricalMeasure, nu: EmpiricalMeasure) -> float:
    return wasserstein2_full(mu, nu).value


def distance_to_dirac0(mu: EmpiricalMeasure) -> float:
    """W2 to the Dirac at the origin: the root second moment."""
    return float(np.sqrt(mu.second_moment()))
