"""Statistical model checking: seeded forward simulation plus the CI, ACI,
APMC, and SPRT estimation/decision methods.

Sampling is reproducible: sample `i` of a run with seed `s` draws from its
own generator derived from (s, i), so serial and partitioned runs produce
identical estimates.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from . import ast as A
from .build import ClosedModel, MarkovModel
from .exact import ExactChecker, UnsupportedError

DEFAULT_PATHLEN = 10_000
MAX_SEQUENTIAL_SAMPLES = 10_000_000


class SmcError(ValueError):
    pass


@dataclass
class SimPath:
    entries: list  # (state index, action tag, successor index)
    terminal: str  # "bound-hit" | "absorbing" | "pathlen-cap"


@dataclass
class Estimate:
    method: str
    point: float
    n: int
    seed: int
    half_width: float | None = None
    alpha: float | None = None
    epsilon: float | None = None
    delta: float | None = None
    decision: str | None = None  # accept-H0 | accept-H1 (SPRT)
    satisfied: bool | None = None  # bound properties only
    cap_hits: int = 0

    def verdict_json(self):
        if self.satisfied is not None:
            return self.satisfied
        return self.point


# --- normal quantile ---------------------------------------------------------


def normal_quantile(p: float) -> float:
    if not 0.0 < p < 1.0:
        raise SmcError(f"quantile argument must be in (0,1), got {p}")
    return statistics.NormalDist().inv_cdf(p)


def _student_quantile(p: float, df: int) -> float:
    # imported here: scipy.stats is most of `import rcprob` and only ACI with
    # fewer than 50 samples needs it
    from scipy import stats
    return float(stats.t.ppf(p, df))


# --- simulation --------------------------------------------------------------


def _rng_for(seed: int, i: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64((seed & 0xFFFFFFFF) * 2654435761 + i))


class _Sampler:
    """Per-state cumulative successor distributions of a dtmc."""

    def __init__(self, mm: MarkovModel):
        if mm.kind != "dtmc":
            raise SmcError("simulation needs a dtmc; build the model with kind=dtmc "
                           "(uniform resolution) instead of mdp")
        self.mm = mm
        self._rows = {}

    def row(self, s: int):
        got = self._rows.get(s)
        if got is None:
            items = sorted(self.mm.row(s).items())
            dests = [d for d, _ in items]
            cum = np.cumsum([float(p) for _, p in items])
            cum[-1] = 1.0
            got = (dests, cum)
            self._rows[s] = got
        return got

    def step(self, s: int, rng) -> int:
        dests, cum = self.row(s)
        u = rng.random()
        return dests[int(np.searchsorted(cum, u, side="right"))]

    def is_absorbing(self, s: int) -> bool:
        dests, _ = self.row(s)
        return dests == [s]


@dataclass
class Monitor:
    """On-the-fly decision procedure for a bounded-or-reachability formula."""

    kind: str  # F | U | G | X
    sat1: np.ndarray | None
    sat2: np.ndarray
    k: int | None = None

    def decide(self, s: int, step: int, absorbing: bool):
        """None = undecided; otherwise the 0/1 sample."""
        if self.kind == "X":
            if step == 0:
                if absorbing:  # the only successor is the state itself
                    return 1 if self.sat2[s] else 0
                return None
            return 1 if self.sat2[s] else 0
        if self.kind in ("F", "U"):
            if self.k is not None and step > self.k:
                return 0
            if self.sat2[s]:
                return 1
            if self.kind == "U" and not self.sat1[s]:
                return 0
            if absorbing:
                return 0
            return None
        # G
        if not self.sat2[s]:
            return 0
        if self.k is not None and step >= self.k:
            return 1
        if absorbing:
            return 1
        return None

    @property
    def censor_value(self) -> int:
        return 1 if self.kind == "G" else 0


def compile_monitor(checker: ExactChecker, path: A.Expr) -> Monitor:
    def bound_k(b):
        return checker._step_bound(b)

    if isinstance(path, A.Next):
        return Monitor("X", None, checker.sat(path.operand))
    if isinstance(path, A.Finally_):
        return Monitor("F", None, checker.sat(path.operand), bound_k(path.bound))
    if isinstance(path, A.Globally):
        return Monitor("G", None, checker.sat(path.operand), bound_k(path.bound))
    if isinstance(path, A.Until):
        return Monitor("U", checker.sat(path.left), checker.sat(path.right),
                       bound_k(path.bound))
    raise UnsupportedError(
        f"{type(path).__name__} is not simulable; use F, G, U, or X")


def simulate(mm: MarkovModel, closed: ClosedModel, seed: int, pathlen: int,
             path: A.Expr):
    """Simulate one path, monitoring the formula; returns (SimPath, sample)."""
    if pathlen < 1:
        raise SmcError("pathlen must be at least 1")
    checker = ExactChecker(mm, closed)
    monitor = compile_monitor(checker, path)
    sampler = _Sampler(mm)
    rng = _rng_for(seed, 0)
    entries = []
    s = mm.initial
    step = 0
    while True:
        absorbing = sampler.is_absorbing(s)
        verdict = monitor.decide(s, step, absorbing)
        if verdict is not None:
            return SimPath(entries, "bound-hit"), verdict
        if absorbing:
            return SimPath(entries, "absorbing"), monitor.censor_value
        if step >= pathlen:
            return SimPath(entries, "pathlen-cap"), monitor.censor_value
        nxt = sampler.step(s, rng)
        moves = mm.moves[s]
        tag = moves[0].action if len(moves) == 1 else "mix"
        entries.append((s, tag, nxt))
        s = nxt
        step += 1


class _SampleStream:
    """Deterministic Bernoulli sample stream for a formula on a dtmc."""

    def __init__(self, mm: MarkovModel, closed: ClosedModel, path: A.Expr,
                 seed: int, pathlen: int):
        checker = ExactChecker(mm, closed)
        self.monitor = compile_monitor(checker, path)
        self.sampler = _Sampler(mm)
        self.mm = mm
        self.seed = seed
        self.pathlen = pathlen
        self.cap_hits = 0

    def sample(self, i: int) -> int:
        rng = _rng_for(self.seed, i)
        s = self.mm.initial
        step = 0
        monitor = self.monitor
        sampler = self.sampler
        while True:
            absorbing = sampler.is_absorbing(s)
            verdict = monitor.decide(s, step, absorbing)
            if verdict is not None:
                return verdict
            if absorbing:
                return monitor.censor_value
            if step >= self.pathlen:
                self.cap_hits += 1
                return monitor.censor_value
            s = sampler.step(s, rng)
            step += 1


def _two_of_three(**kwargs):
    given = {k: v for k, v in kwargs.items() if v is not None}
    if len(given) != 2:
        raise SmcError(
            f"exactly two of {tuple(kwargs)} must be given, got {tuple(given) or 'none'}")
    return given


def run_ci(mm, closed, path, w=None, alpha=None, n=None, seed=0,
           pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Confidence-interval estimation with a normal-approximation interval."""
    return _ci_like(mm, closed, path, "CI", w, alpha, n, seed, pathlen)


def run_aci(mm, closed, path, w=None, alpha=None, n=None, seed=0,
            pathlen=DEFAULT_PATHLEN) -> Estimate:
    """As run_ci but with the variance estimated from the samples
    (Student-t quantile below 50 samples)."""
    return _ci_like(mm, closed, path, "ACI", w, alpha, n, seed, pathlen)


def _half_width(method, alpha, mean, var_sum, n):
    if method == "CI":
        sigma2 = mean * (1.0 - mean)
        q = normal_quantile(1.0 - alpha / 2.0)
    else:
        sigma2 = var_sum / (n - 1) if n > 1 else 0.0
        q = _student_quantile(1.0 - alpha / 2.0, n - 1) if n < 50 \
            else normal_quantile(1.0 - alpha / 2.0)
    return q * math.sqrt(max(sigma2, 0.0) / n)


def _ci_like(mm, closed, path, method, w, alpha, n, seed, pathlen) -> Estimate:
    given = _two_of_three(w=w, alpha=alpha, n=n)
    stream = _SampleStream(mm, closed, path, seed, pathlen)
    if "n" in given and "alpha" in given:
        n = int(n)
        total = sum(stream.sample(i) for i in range(n))
        mean = total / n
        var_sum = total * (1.0 - mean) ** 2 + (n - total) * mean ** 2
        hw = _half_width(method, alpha, mean, var_sum, n)
        return Estimate(method, mean, n, seed, half_width=hw, alpha=alpha,
                        cap_hits=stream.cap_hits)
    if "w" in given and "alpha" in given:
        total = 0
        count = 0
        hw = math.inf
        while count < MAX_SEQUENTIAL_SAMPLES:
            total += stream.sample(count)
            count += 1
            if count < 2:
                continue
            mean = total / count
            var_sum = total * (1.0 - mean) ** 2 + (count - total) * mean ** 2
            hw = _half_width(method, alpha, mean, var_sum, count)
            if hw <= w:
                break
        else:
            raise SmcError("sequential sampling exceeded the sample cap")
        mean = total / count
        return Estimate(method, mean, count, seed, half_width=hw, alpha=alpha,
                        cap_hits=stream.cap_hits)
    # w and n given: solve for alpha
    n = int(n)
    total = sum(stream.sample(i) for i in range(n))
    mean = total / n
    if method == "CI":
        sigma = math.sqrt(mean * (1.0 - mean) / n)
    else:
        var_sum = total * (1.0 - mean) ** 2 + (n - total) * mean ** 2
        sigma = math.sqrt((var_sum / (n - 1) if n > 1 else 0.0) / n)
    if sigma == 0.0:
        alpha_solved = 0.0
    else:
        z = w / sigma
        alpha_solved = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
    return Estimate(method, mean, n, seed, half_width=w, alpha=alpha_solved,
                    cap_hits=stream.cap_hits)


def apmc_samples(epsilon: float, delta: float) -> int:
    """The Chernoff-Hoeffding sample count: the smallest n >= 1 with
    n >= ln(2/delta) / (2 epsilon^2)."""
    return max(1, math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon)))


def run_apmc(mm, closed, path, epsilon=None, delta=None, n=None, seed=0,
             pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Approximate model checking with the Chernoff-Hoeffding bound
    n >= ln(2/delta) / (2 epsilon^2); the missing parameter is solved for."""
    given = _two_of_three(epsilon=epsilon, delta=delta, n=n)
    if "epsilon" in given and "delta" in given:
        n = apmc_samples(epsilon, delta)
    elif "n" in given and "delta" in given:
        n = int(n)
        epsilon = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    else:
        n = int(n)
        delta = 2.0 * math.exp(-2.0 * n * epsilon * epsilon)
    stream = _SampleStream(mm, closed, path, seed, pathlen)
    total = sum(stream.sample(i) for i in range(n))
    return Estimate("APMC", total / n, n, seed, epsilon=epsilon, delta=delta,
                    cap_hits=stream.cap_hits)


def run_sprt(mm, closed, path, bound: A.Bound, theta: float, alpha=None,
             delta=None, seed=0, pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Wald sequential probability ratio test of a bounded property.

    Tests H0: p >= theta + delta against H1: p <= theta - delta with
    type I = type II = alpha; the decision is mapped back to the bound's
    direction."""
    if alpha is None or delta is None:
        raise SmcError("SPRT needs both alpha and delta")
    p0 = theta + delta
    p1 = theta - delta
    if p1 <= 0.0 or p0 >= 1.0:
        raise SmcError(
            f"SPRT indifference region around {theta} with delta {delta} leaves (0,1)")
    log_accept_h1 = math.log((1.0 - alpha) / alpha)
    log_accept_h0 = math.log(alpha / (1.0 - alpha))
    lr_one = math.log(p1 / p0)
    lr_zero = math.log((1.0 - p1) / (1.0 - p0))
    stream = _SampleStream(mm, closed, path, seed, pathlen)
    llr = 0.0
    total = 0
    count = 0
    decision = None
    while count < MAX_SEQUENTIAL_SAMPLES:
        x = stream.sample(count)
        count += 1
        total += x
        llr += lr_one if x else lr_zero
        if llr >= log_accept_h1:
            decision = "accept-H1"
            break
        if llr <= log_accept_h0:
            decision = "accept-H0"
            break
    if decision is None:
        raise SmcError("SPRT exceeded the sample cap without a decision")
    high = decision == "accept-H0"  # p is on the high side of theta
    satisfied = high if bound.op in (">", ">=") else not high
    return Estimate("SPRT", total / count, count, seed, alpha=alpha, delta=delta,
                    decision=decision, satisfied=satisfied, cap_hits=stream.cap_hits)


# --- reward sampling -----------------------------------------------------------


def run_reward_ci(mm, closed, rname, rpath, alpha=0.05, n=1000, seed=0,
                  pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Mean-reward estimation for Cumul k and almost-sure Reachable formulas."""
    checker = ExactChecker(mm, closed)
    state_r, move_r = checker._reward_arrays(rname)
    first_move = checker.mdp_arrays()[1].tolist()
    sampler = _Sampler(mm)
    if isinstance(rpath, A.Cumul):
        k = int(closed.spec_expr(rpath.operand)(None))
        target = None
    elif isinstance(rpath, A.Reachable):
        k = None
        target = checker.sat(rpath.operand)
    else:
        raise UnsupportedError("simulation supports Cumul and Reachable rewards only")
    cap_hits = 0
    values = []
    for i in range(int(n)):
        rng = _rng_for(seed, i)
        s = mm.initial
        acc = 0.0
        steps = 0
        while True:
            if target is not None and target[s]:
                break
            if k is not None and steps >= k:
                break
            if steps >= pathlen:
                cap_hits += 1
                break
            if target is not None and sampler.is_absorbing(s) and not target[s]:
                cap_hits += 1  # reward diverges on this path; censored
                break
            # choose a move uniformly, then a branch
            moves = mm.moves[s]
            j = int(rng.integers(len(moves))) if len(moves) > 1 else 0
            acc += state_r[s] + move_r[first_move[s] + j]
            branches = moves[j].branches
            u = rng.random()
            cum = 0.0
            nxt = branches[-1][1]
            for p, d in branches:
                cum += float(p)
                if u < cum:
                    nxt = d
                    break
            s = nxt
            steps += 1
        values.append(acc)
    arr = np.array(values)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    hw = normal_quantile(1.0 - alpha / 2.0) * sd / math.sqrt(len(arr))
    return Estimate("CI", mean, len(arr), seed, half_width=hw, alpha=alpha,
                    cap_hits=cap_hits)
