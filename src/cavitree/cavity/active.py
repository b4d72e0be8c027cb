"""Random edge activation: the regular-tree recursion over an erasure channel.

Each edge is independently active with probability p in every round, one
draw for both endpoints; an inactive round shows the observer a ``*``
instead of the vote.  Observed trajectories take values in the extended
alphabet A + {*} (star encoded as the digit ``n_actions``), while a node's
own trajectory stays in A.  Conventions: a message at horizon h carries the
Bernoulli weight of its own edge's round-h activation, while the activation
pattern of rounds 0..h-1 is fixed by the conditioning trajectory (the
pattern of what the observer showed is the pattern of what it saw).

The engine is the class-graph engine of ``engine.py``, planned as
``RegularTreeEngine``, with the channel swapped: the core steps take it as
their one ``channel`` argument, and it changes only two things in them.
A cavity step emits each trajectory through round t twice: masked like the
observer's trajectory in rounds 0..t-1, then active (weight p) or starred
(weight 1-p); round 0's step, with no slots, splits the round-0 vote the
same way.  And each message
is folded once, before the next steps read it, into the slot table
indexed by the action trajectory a of the node that reads it:

    Q~_h[c, a, s] = bern_h(pat(c)) * Q_h[c, mask_h(a, pat(c)), s],

where pat(c) is the activation pattern of rounds 0..h-1 of c, mask_h shows
a through that pattern and bern_h is the pattern's probability.  The
core's loops then run unchanged, with no per-slot mask or Bernoulli
lookups.  With p = 1 there is no star: the engine keeps the all-active
channel and its tables are the regular-tree engine's.
"""

from __future__ import annotations

import numpy as np

from ..model import ModelError, SignalModel, UpdateRule
from .homogeneous import RegularTreeEngine


class ErasureChannel:
    """Observation channel of edges that fire with probability p per round."""

    def __init__(self, n_actions: int, p: float):
        self.n_actions = n_actions
        self.size = n_actions + 1
        self.p = p
        self._folds: dict[int, tuple[np.ndarray, ...]] = {}

    def emit(self, out: np.ndarray, tau: np.ndarray, t: int):
        """Observed codes of action trajectories ``out`` through round t.

        Rounds 0..t-1 show the activation pattern of the observer's observed
        trajectory ``tau``; round t is active or starred.
        """
        n_a, e = self.n_actions, self.size
        seen = np.zeros_like(out)
        for r in range(t):
            starred = (tau // e ** r) % e == n_a
            seen += np.where(starred, n_a, (out // n_a ** r) % n_a) * e ** r
        return [(seen + (out // n_a ** t) * e ** t, self.p),
                (seen + n_a * e ** t, 1.0 - self.p)]

    def fold(self, q: np.ndarray, h: int) -> np.ndarray:
        """Slot table Q~_h[c, a, s] of the horizon-h message ``q``."""
        c, tau, bern = self._fold_index(h)
        return bern * q[c, tau]

    def _fold_index(self, h: int) -> tuple[np.ndarray, ...]:
        """The fold's gather at horizon h, built once per horizon: each
        observed code c, the masked code tau[c, a] of each action
        trajectory a, and bern_h(pat(c)) as a (codes, 1, 1) column."""
        if h not in self._folds:
            n_a, e = self.n_actions, self.size
            c = np.arange(e ** (h + 1), dtype=np.int64)[:, None]
            a = np.arange(n_a ** h, dtype=np.int64)[None, :]
            tau = np.zeros((c.shape[0], a.shape[1]), dtype=np.int64)
            fired = np.zeros_like(c)
            for r in range(h):
                active = (c // e ** r) % e != n_a
                tau += np.where(active, (a // n_a ** r) % n_a, n_a) * e ** r
                fired += active
            bern = self.p ** fired * (1.0 - self.p) ** (h - fired)
            self._folds[h] = c, tau, bern[:, :, None]
        return self._folds[h]


class ActiveEdgeEngine(RegularTreeEngine):
    """Homogeneous d-regular engine with i.i.d. edge activations.

    Bayesian deterministic rules only.  For p < 1 the cavity tables and the
    inputs of the decision tables are packed in base n_actions+1 with star
    as the top digit value; with p = 1 every table equals the all-active
    engine's.
    """

    def __init__(self, model: SignalModel, d: int, rule: UpdateRule, p: float):
        if not 0.0 < p <= 1.0:
            raise ModelError("activation probability must be in (0, 1]; an edge "
                             "that can never fire is not an edge")
        if rule.variant != "bayesian" or not rule.deterministic_for_degree(d):
            raise ModelError("the active-edge engine supports deterministic "
                             "Bayesian updates only")
        super().__init__(model, d, rule)
        self.p = p
        if p < 1.0:
            self.channel = ErasureChannel(self.n_actions, p)
