"""Fast self-test of the reference solvers against closed forms.

    python3 perfbench/selftest.py

The models are written directly in the export format, so the test needs
nothing from rcprob.  Every run of the benchmark calls `run()` before it
trusts the oracles.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

import oracles as O


def _export(kind: str, rows: dict, n: int, tags=None) -> str:
    """rows: state -> list of moves, each a list of (prob, dst)."""
    lines = [f"STATES {n}", f"KIND {kind}", "INITIAL 0", "VARS v"]
    lines += [f"STATE {i} v={i}" for i in range(n)]
    for s in range(n):
        for j, branches in enumerate(rows.get(s, [[(1, s)]])):
            tag = (tags or {}).get((s, j), "")
            lines += [f"{s} (m{j}) {p} {d} [{tag}]" for p, d in branches]
    return "\n".join(lines) + "\n"


def _check(ok: bool, what: str):
    if not ok:
        raise RuntimeError(f"oracle self-test failed: {what}")


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def gamblers_ruin():
    """Walk on positions 0..n, absorbing at both ends, stepping up with
    probability p; it enters at position `start` from a separate initial
    state."""
    n, p, start = 12, Fraction(3, 5), 5
    q = 1 - p
    # state 0 is a dedicated initial state stepping to `start`; walk
    # positions 0..n are states 1..n+1
    rows = {0: [[(1, start + 1)]]}
    for i in range(1, n):
        rows[i + 1] = [[(p, i + 2), (q, i)]]
    text = _export("dtmc", rows, n + 2, tags={(i + 1, 0): "step" for i in range(1, n)})
    ex = O.parse_export(text)
    win = np.zeros(ex.n, dtype=bool)
    win[n + 1] = True
    r = float(q / p)
    ruin_win = (1 - r ** start) / (1 - r ** n)
    ends = win.copy()
    ends[1] = True
    # expected duration: one unit per step of the walk
    steps = O.move_rewards(ex, lambda st, mv: "step" in mv.tags)
    pp, qq = float(p), float(q)
    duration = start / (qq - pp) - n / (qq - pp) * ruin_win
    _check(_close(O.reward_to_target(ex, ends, steps), duration), "ruin duration")
    # only the winning end as target: missed with positive probability
    _check(O.reward_to_target(ex, win, steps) == math.inf, "infinite reward")
    # after enough steps the bounded value approaches the ruin probability
    _check(_close(O.bounded_reach(ex, win, 2000), ruin_win, 1e-9), "bounded ruin")


def geometric():
    """One state leaving with probability a per step: reach within k steps
    with probability 1 - (1-a)^k; reward 1 per waiting step."""
    a, b, k = Fraction(1, 4), Fraction(2, 3), 9
    dtmc = O.parse_export(_export("dtmc", {0: [[(a, 1), (1 - a, 0)]]}, 2))
    target = np.array([False, True])
    _check(_close(O.bounded_reach(dtmc, target, k), 1 - (1 - float(a)) ** k), "geometric")
    once = O.move_rewards(dtmc, lambda st, mv: st["v"] == "0")
    expect = (1 - (1 - float(a)) ** k) / float(a)
    _check(_close(O.cumulative_reward(dtmc, once, k), expect), "cumulative reward")
    _check(_close(O.reward_to_target(dtmc, target, once), 1 / float(a)), "mean wait")
    # an mdp choosing between exit chances a and b
    mdp = O.parse_export(_export("mdp", {0: [[(a, 1), (1 - a, 0)], [(b, 1), (1 - b, 0)]]}, 2))
    _check(_close(O.bounded_reach(mdp, target, k, "max"), 1 - (1 - float(b)) ** k), "max")
    _check(_close(O.bounded_reach(mdp, target, k, "min"), 1 - (1 - float(a)) ** k), "min")
    # as a dtmc the two moves mix uniformly
    mixed = O.parse_export(_export("dtmc", {0: [[(a, 1), (1 - a, 0)],
                                                 [(b, 1), (1 - b, 0)]]}, 2))
    c = (float(a) + float(b)) / 2
    _check(_close(O.bounded_reach(mixed, target, k), 1 - (1 - c) ** k), "uniform mixture")


def bounds():
    _check(_close(O.apmc_min_samples(0.05, 0.01), math.log(200) / 0.005), "apmc bound")
    _check(O.rel_err(16.25, 16.0) == 0.25 / 16.0 and O.rel_err(0.5, 0.25) == 0.25, "rel_err")


def run():
    gamblers_ruin()
    geometric()
    bounds()


if __name__ == "__main__":
    run()
    print("oracle self-test passed")
    sys.exit(0)
