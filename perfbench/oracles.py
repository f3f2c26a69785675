"""Independent reference solvers over `MarkovModel.export_text()`.

Nothing here calls an engine algorithm of rcprob: the explicit model is read
back from its plain-text export, and values are computed with a graph
search, a sparse LU solve (`scipy.sparse.linalg.spsolve`) or plain backward
iteration over a fixed number of steps.  Reward rules are derived again
from the export's transition tags, not from the engine's reward tables.

Export format (one line each):
    STATES n / KIND dtmc|mdp / INITIAL i / VARS name ...
    STATE i [@deadlock] name=value ...
    src (action) prob dst [tag,tag,...]
A move is the run of consecutive lines with one source and action whose
probabilities add up to exactly one.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve


@dataclass
class Move:
    action: str
    tags: frozenset
    branches: list  # [(Fraction, dst)]


@dataclass
class Export:
    kind: str
    initial: int
    states: list  # dict name -> value text, per state
    moves: list  # list[Move], per state

    @property
    def n(self) -> int:
        return len(self.states)

    def column(self, name: str) -> list:
        return [st[name] for st in self.states]


def parse_export(text: str) -> Export:
    lines = text.splitlines()
    n = int(lines[0].split()[1])
    kind = lines[1].split()[1]
    initial = int(lines[2].split()[1])
    states = []
    for line in lines[4:4 + n]:
        fields = line.split()[2:]
        states.append(dict(f.split("=", 1) for f in fields if not f.startswith("@")))
    moves: list[list[Move]] = [[] for _ in range(n)]
    open_sum = {}
    fractions: dict[str, Fraction] = {}
    for line in lines[4 + n:]:
        src, rest = line.split(" (", 1)
        action, rest = rest.split(") ", 1)
        prob, dst, tags = rest.split(" ", 2)
        s = int(src)
        p = fractions.get(prob)
        if p is None:
            p = fractions[prob] = Fraction(prob)
        row = moves[s]
        if not row or row[-1].action != action or open_sum[s] == 1:
            tagset = frozenset(tags[1:-1].split(",")) if tags != "[]" else frozenset()
            row.append(Move(action, tagset, []))
            open_sum[s] = Fraction(0)
        row[-1].branches.append((p, int(dst)))
        open_sum[s] += p
    for s in range(n):
        if not moves[s]:
            raise ValueError(f"export: state {s} has no moves")
        for mv in moves[s]:
            if sum(p for p, _ in mv.branches) != 1:
                raise ValueError(f"export: state {s} move {mv.action} does not sum to 1")
    return Export(kind, initial, states, moves)


def _flat_moves(ex: Export):
    """Per-move owner, weight in the uniform mixture, and a moves x states matrix."""
    owners, weights, rows, cols, data = [], [], [], [], []
    for s, row in enumerate(ex.moves):
        for mv in row:
            m = len(owners)
            owners.append(s)
            weights.append(1.0 / len(row))
            for p, d in mv.branches:
                rows.append(m)
                cols.append(d)
                data.append(float(p))
    mat = csr_matrix((data, (rows, cols)), shape=(len(owners), ex.n))
    return np.array(owners), np.array(weights), mat


def uniform_matrix(ex: Export) -> csr_matrix:
    """The dtmc of an export: each state mixes its moves uniformly."""
    owners, weights, mat = _flat_moves(ex)
    mix = csr_matrix((weights, (owners, np.arange(owners.size))),
                     shape=(ex.n, owners.size))
    return (mix @ mat).tocsr()


def move_rewards(ex: Export, rule) -> np.ndarray:
    """Per-move reward: rule(state values, move) for each move in order."""
    return np.array([float(rule(ex.states[s], mv))
                     for s, row in enumerate(ex.moves) for mv in row])


def _state_step_reward(ex: Export, per_move: np.ndarray) -> np.ndarray:
    owners, weights, _ = _flat_moves(ex)
    return np.bincount(owners, weights=weights * per_move, minlength=ex.n)


def _backward_reach(ex: Export, seeds: np.ndarray, through: np.ndarray) -> np.ndarray:
    """States with a positive-probability path into `seeds` whose states
    before the last all lie in `through`."""
    preds = [[] for _ in range(ex.n)]
    for s, row in enumerate(ex.moves):
        for mv in row:
            for p, d in mv.branches:
                if p > 0:
                    preds[d].append(s)
    seen = seeds.copy()
    queue = deque(np.flatnonzero(seeds))
    while queue:
        d = queue.popleft()
        for s in preds[d]:
            if not seen[s] and through[s]:
                seen[s] = True
                queue.append(s)
    return seen


def reach_almost_surely(ex: Export, target: np.ndarray) -> np.ndarray:
    """dtmc states that reach `target` with probability one."""
    everywhere = np.ones(ex.n, dtype=bool)
    can_reach = _backward_reach(ex, target, everywhere)
    return ~_backward_reach(ex, ~can_reach, ~target)


def reward_to_target(ex: Export, target: np.ndarray, per_move: np.ndarray) -> float:
    """Expected reward accumulated before reaching `target` in the dtmc,
    solved exactly with sparse LU; inf when the target may be missed."""
    sure = reach_almost_surely(ex, target)
    if not sure[ex.initial]:
        return math.inf
    if target[ex.initial]:
        return 0.0
    free = np.flatnonzero(sure & ~target)
    q = uniform_matrix(ex)[free, :][:, free]
    r = _state_step_reward(ex, per_move)[free]
    sol = spsolve((identity(free.size, format="csc") - q).tocsc(), r)
    return float(sol[np.searchsorted(free, ex.initial)])


def bounded_reach(ex: Export, target: np.ndarray, k: int, opt: str = "exact") -> float:
    """Probability of reaching `target` within k steps: the dtmc value
    (`exact`), or the min/max over adversaries of an mdp."""
    x = target.astype(float)
    if opt == "exact":
        mat = uniform_matrix(ex)
        for _ in range(k):
            x = np.where(target, 1.0, mat @ x)
        return float(x[ex.initial])
    owners, _, mat = _flat_moves(ex)
    starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
    reduce = np.maximum if opt == "max" else np.minimum
    for _ in range(k):
        x = np.where(target, 1.0, reduce.reduceat(mat @ x, starts))
    return float(x[ex.initial])


def cumulative_reward(ex: Export, per_move: np.ndarray, k: int) -> float:
    """Expected reward of the first k steps of the dtmc."""
    mat = uniform_matrix(ex)
    step = _state_step_reward(ex, per_move)
    x = np.zeros(ex.n)
    for _ in range(k):
        x = step + mat @ x
    return float(x[ex.initial])


def rel_err(value: float, ref: float) -> float:
    """Deviation from a reference, relative when the reference is above 1."""
    if math.isinf(ref) or math.isinf(value):
        return 0.0 if value == ref else math.inf
    return abs(value - ref) / max(1.0, abs(ref))


def apmc_min_samples(epsilon: float, delta: float) -> float:
    """The Chernoff-Hoeffding sample bound ln(2/delta) / (2 epsilon^2)."""
    return math.log(2.0 / delta) / (2.0 * epsilon * epsilon)
