"""Uniform time grids shared by every kernel and solver object."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < t_1 < ... < t_n = T with step dt = T / n_steps."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not (self.horizon > 0.0):
            raise ValueError("grid horizon must be positive")
        if self.n_steps < 2:
            raise ValueError("grid needs at least 2 steps")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def index_of(self, t: float) -> int:
        """Nearest grid index of a time; raises if t is off-grid by more than dt/4."""
        i = int(round(t / self.dt))
        if i < 0 or i > self.n_steps or abs(i * self.dt - t) > 0.25 * self.dt:
            raise ValueError(f"time {t} is not a grid node")
        return i

