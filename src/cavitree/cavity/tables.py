"""Containers for cavity and decision tables, with their consistency checks.

Both are dense arrays indexed by packed trajectories: ``CavityTable`` holds
a message Q[sigma, tau, s], ``DecisionTable`` a deterministic decision
table g[x, packed neighbor trajectories].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class TableError(ValueError):
    """Table array of the wrong rank, or too short or long for its horizon."""


@dataclass(frozen=True)
class CavityTable:
    """Q[sigma, tau, s]: law of a neighbor's trajectory in the zombie process."""

    horizon: int
    alphabet_size: int
    array: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=float)
        object.__setattr__(self, "array", arr)
        if arr.ndim != 3:
            raise TableError("cavity table must be (sigma, tau, state)")
        if arr.shape[0] != self.alphabet_size ** (self.horizon + 1):
            raise TableError("trajectory axis does not match the horizon")

    def normalization_defect(self) -> float:
        """Worst |sum over trajectories - 1| across (tau, state) slices."""
        return float(np.max(np.abs(self.array.sum(axis=0) - 1.0)))

    def marginalization_defect(self, prev: "CavityTable") -> float:
        """Worst gap between the round-marginal and the horizon-(t-1) table.

        Summing out the round-t vote and the conditioning round t-1 entry
        must reproduce the previous table at the prefix conditioning.
        """
        n_a = self.alphabet_size
        m = n_a ** self.horizon
        marg = self.array.reshape(n_a, m, self.array.shape[1], -1).sum(axis=0)
        m_tau_prev = prev.array.shape[1]
        worst = 0.0
        for tau in range(self.array.shape[1]):
            ref = prev.array[:, tau % m_tau_prev, :]
            worst = max(worst, float(np.max(np.abs(marg[:, tau, :] - ref))))
        return worst


@dataclass(frozen=True)
class DecisionTable:
    """g[x, packed neighbor trajectories] -> own packed trajectory."""

    horizon: int
    alphabet_size: int
    degree: int
    array: np.ndarray

    def prefix_consistent_with(self, prev: "DecisionTable") -> bool:
        n_in = self.alphabet_size ** self.horizon
        m = self.alphabet_size ** prev.horizon
        total = self.array.shape[1]
        js = np.arange(total, dtype=np.int64)
        j_prev = np.zeros_like(js)
        for k in range(self.degree):
            j_prev += ((js // n_in ** k) % n_in % m) * m ** k
        trunc = self.array % self.alphabet_size ** (prev.horizon + 1)
        return bool(np.all(trunc == prev.array[:, j_prev]))
