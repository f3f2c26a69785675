"""Statistical model checking: seeded forward simulation plus the CI, ACI,
APMC, and SPRT estimation/decision methods.

Sampling is reproducible: sample `i` of a run with seed `s` draws one
uniform per step from its own generator derived from (s, i), so serial and
partitioned runs produce identical estimates.  Paths walk the model's
`SampleTable`, a batch of consecutive sample indices in lockstep, and a
model that is still growing expands the states they reach as they reach
them; the sequential methods (CI with w and alpha, SPRT) use the samples in
index order and stop at the first index that decides them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from . import ast as A
from .build import ClosedModel, MarkovModel, RewardStructure, reward_evaluator
from .exact import ExactChecker, UnsupportedError, reward_source

DEFAULT_PATHLEN = 10_000
MAX_SEQUENTIAL_SAMPLES = 10_000_000


class SmcError(ValueError):
    pass


@dataclass
class SimPath:
    entries: list  # (state index, action tag, successor index)
    terminal: str  # "bound-hit" | "pathlen-cap"


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
    path_len_mean: float = 0.0  # steps per sampled path
    path_len_max: int = 0

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

_CHUNK = 64  # uniforms drawn per path at a time
# paths advanced in lockstep; each holds its generator, about 1.2 KB
_MAX_BATCH = 1024
_FIRST_BATCH = 64  # the sequential methods' first batch; later ones double


def _rng_for(seed: int, i: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64((seed & 0xFFFFFFFF) * 2654435761 + i))


def _require_dtmc(mm: MarkovModel):
    if mm.kind != "dtmc":
        raise SmcError("simulation needs a dtmc; build the model with kind=dtmc "
                       "(uniform resolution) instead of mdp")


def _walk(mm: MarkovModel, closed: ClosedModel, rngs: list, pathlen: int,
          monitor: Monitor, rewards: _Rewards | None = None, trace=None):
    """Advance one path per generator in `rngs` from the initial state, all
    in lockstep.

    Before each step the states that live paths reach for the first time
    are expanded, and the monitor (and rewards) extended over them.  Then
    the monitor decides which live paths end and their values; paths still
    undecided at step `pathlen` end censored.  Every other path draws one
    uniform u from its own generator and moves to the first entry of its
    state's row whose cumulative weight exceeds u.  With `rewards` a path
    gains its state's reward plus its move's per step; `trace` collects the
    live paths' (states, moves, successors) per step.  Returns per path its
    value, whether it was censored, its length and its gain.

    A step is a fixed number of numpy calls over the live paths, whatever
    their count and the width of their states' rows, so the last paths of a
    batch cost about as much per step as one path walked alone."""
    n = len(rngs)
    value = np.zeros(n)
    capped = np.zeros(n, dtype=bool)
    length = np.zeros(n, dtype=np.int64)
    gain = np.zeros(n)
    draws = np.empty((n, _CHUNK))
    live = np.arange(n)
    states = np.full(n, mm.initial)
    # the live paths' (row, u) as complex numbers, to search table.key
    query = np.empty(n, dtype=complex)
    table = mm.sample_table()
    horizon = monitor.horizon
    t = 0
    while live.size:
        rows = table.row[states]
        if rows.min() < 0:
            mm.expand(np.unique(states[rows < 0]).tolist())
            rows = table.row[states]
        monitor.cover(mm, closed)
        if rewards is not None:
            rewards.cover(mm)
        if t == horizon:
            value[live] = monitor.final[rows]
            break
        done = monitor.ends[rows]
        if t >= pathlen:
            capped[live[~done]] = True
            value[live] = monitor.value[rows]
            break
        if np.count_nonzero(done):
            ended = live[done]
            value[ended] = monitor.value[rows[done]]
            length[ended] = t
            live, states, rows = live[~done], states[~done], rows[~done]
            query = query[:live.size]
            if not live.size:
                break
        j = t % _CHUNK
        if j == 0:
            draws[live] = [rngs[i].random(_CHUNK) for i in live.tolist()]
        query.real = rows
        query.imag = draws[:, j][live]
        # the keys <= (row, u) end at the row's first entry whose
        # cumulative weight exceeds u; its last one is 1.0 > u
        pos = table.key.searchsorted(query, "right")
        move = table.move[pos]
        if rewards is not None:
            gain[live] += rewards.state[rows] + rewards.move[move]
        if trace is not None:
            trace.append((states, move, table.dest[pos]))
        states = table.dest[pos]
        t += 1
    length[live] = t
    return value, capped, length, gain


class _Extended:
    """Arrays over a model's expanded states in expansion order (its rows),
    extended over the rows expanded since by `cover`."""

    def cover(self, mm: MarkovModel, *args):
        while self.size < len(mm.order):
            self.extend(mm, np.array(mm.order[self.size:], dtype=np.int64), *args)


class Monitor(_Extended):
    """On-the-fly decision procedure of a path formula, as arrays over rows.

    Before step t a path at row r is decided when `ends[r]`, with the sample
    `value[r]`; at step `horizon` (never when None) every path is decided
    with the sample `final[r]`.  A censored path counts as `censor_value`.
    `rule(sat, absorbing)` gives (ends, value, final) of some rows from
    `sat`, the rows' truth of a state formula, and their absorbing flags."""

    def __init__(self, rule, horizon: int | None = None, censor_value: int = 0):
        self.rule = rule
        self.horizon = horizon
        self.censor_value = censor_value
        self.ends = self.value = self.final = np.zeros(0, dtype=bool)

    @property
    def size(self) -> int:
        return self.ends.size

    def extend(self, mm: MarkovModel, states: np.ndarray, closed: ClosedModel):
        lo = self.size
        absorbing = mm.sample_table().absorbing[lo:lo + states.size]
        parts = self.rule(ExactChecker(mm, closed, states=states).sat, absorbing)
        self.ends, self.value, self.final = (
            np.concatenate([old, new]) for old, new in
            zip((self.ends, self.value, self.final), parts))


def compile_monitor(checker: ExactChecker, path: A.Expr) -> Monitor:
    if isinstance(path, A.Next):
        # at step 0 an absorbing state's only successor is itself
        return Monitor(lambda sat, absorbing: (absorbing, sat(path.operand),
                                               sat(path.operand)), 1)
    if isinstance(path, (A.Finally_, A.Until)):
        k = checker._step_bound(path.bound)  # -1 for an empty horizon

        def rule(sat, absorbing):
            if isinstance(path, A.Finally_):
                hit = sat(path.operand)
                ends = hit | absorbing
            else:
                hit = sat(path.right)
                ends = hit | absorbing | ~sat(path.left)
            # at step k a path is decided by whether it is at a target
            return ends, hit, hit & (k != -1)

        return Monitor(rule, None if k is None else max(k, 0))
    if isinstance(path, A.Globally):
        k = checker._step_bound(path.bound)
        return Monitor(lambda sat, absorbing: (~sat(path.operand) | absorbing,
                                               sat(path.operand), sat(path.operand)),
                       None if k is None else max(k, 0), censor_value=1)
    raise UnsupportedError(
        f"{type(path).__name__} is not simulable; use F, G, U, or X")


def simulate(mm: MarkovModel, closed: ClosedModel, seed: int, pathlen: int,
             path: A.Expr):
    """Simulate one path, monitoring the formula; returns (SimPath, sample).
    It is sample 0 of the run with this seed."""
    if pathlen < 1:
        raise SmcError("pathlen must be at least 1")
    _require_dtmc(mm)
    monitor = compile_monitor(ExactChecker(mm, closed), path)
    steps = []
    value, capped, _, _ = _walk(mm, closed, [_rng_for(seed, 0)], pathlen, monitor,
                                trace=steps)
    table = mm.sample_table()
    entries = []
    for s, move, nxt in steps:
        s, move = int(s[0]), int(move[0])
        first = table.bounds[table.row[s]]
        entries.append((s, mm.moves[s][move - first].action, int(nxt[0])))
    if capped[0]:
        return SimPath(entries, "pathlen-cap"), monitor.censor_value
    return SimPath(entries, "bound-hit"), int(value[0])


class _SampleStream:
    """Deterministic Bernoulli sample stream for a formula on a dtmc.

    `batches` yields the samples in index order; a method that stops after
    `n` samples, all drawn, reads the path statistics of those from
    `stats(n)`.  Only the last batch's per-path arrays are kept; earlier
    batches, used in full, are kept as sums."""

    def __init__(self, mm: MarkovModel, closed: ClosedModel, path: A.Expr,
                 seed: int, pathlen: int):
        _require_dtmc(mm)
        self.monitor = compile_monitor(ExactChecker(mm, closed), path)
        self.mm = mm
        self.closed = closed
        self.seed = seed
        self.pathlen = pathlen
        self._earlier = _PathTotals()
        self._last = (np.zeros(0, dtype=bool), np.zeros(0, dtype=np.int64))

    def batches(self, n: int | None = None):
        """The 0/1 samples as one list per batch: the first `n`, or with `n`
        None batches that double in size up to the sequential sample cap."""
        limit = MAX_SEQUENTIAL_SAMPLES if n is None else n
        size = _FIRST_BATCH if n is None else _MAX_BATCH
        lo = 0
        while lo < limit:
            hi = min(lo + size, limit)
            rngs = [_rng_for(self.seed, i) for i in range(lo, hi)]
            value, capped, length, _ = _walk(self.mm, self.closed, rngs, self.pathlen,
                                             self.monitor)
            value[capped] = self.monitor.censor_value
            self._earlier.add(*self._last)
            self._last = (capped, length)
            yield value.astype(np.int64).tolist()
            lo, size = hi, min(2 * size, _MAX_BATCH)

    def samples(self):
        """The samples one by one, for the sequential methods."""
        for batch in self.batches():
            yield from batch

    def stats(self, n: int) -> dict:
        used = replace(self._earlier)
        used.add(*(a[:n - used.count] for a in self._last))
        return used.fields()


@dataclass
class _PathTotals:
    """Running path statistics of the samples used."""

    count: int = 0
    cap_hits: int = 0
    length_sum: int = 0
    length_max: int = 0

    def add(self, capped: np.ndarray, length: np.ndarray):
        self.count += length.size
        self.cap_hits += int(capped.sum())
        self.length_sum += int(length.sum())
        self.length_max = max(self.length_max, int(length.max(initial=0)))

    def fields(self) -> dict:
        """The Estimate fields that summarise these paths."""
        return {"cap_hits": self.cap_hits, "path_len_mean": self.length_sum / self.count,
                "path_len_max": self.length_max}


def _sample_count(n) -> int:
    n = int(n)
    if n < 1:
        raise SmcError(f"the sample count n must be at least 1, got {n}")
    return n


def _two_of_three(**kwargs):
    given = {k: v for k, v in kwargs.items() if v is not None}
    if len(given) != 2:
        raise SmcError(
            f"exactly two of {tuple(kwargs)} must be given, got {tuple(given) or 'none'}")
    return given


def run_ci(mm, closed, path, w=None, alpha=None, n=None, seed=0,
           pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Confidence-interval estimation with a normal-approximation interval;
    given w and alpha, sampling stops once the Wilson score interval is
    within w of the mean."""
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
    if "n" in given:
        n = _sample_count(n)
    if "n" in given and "alpha" in given:
        total = sum(sum(batch) for batch in stream.batches(n))
        mean = total / n
        var_sum = total * (1.0 - mean) ** 2 + (n - total) * mean ** 2
        hw = _half_width(method, alpha, mean, var_sum, n)
        return Estimate(method, mean, n, seed, half_width=hw, alpha=alpha,
                        **stream.stats(n))
    if "w" in given and "alpha" in given:
        z = normal_quantile(1.0 - alpha / 2.0)
        total = 0
        count = 0
        for x in stream.samples():
            total += x
            count += 1
            hw = _wilson_half_width(z, total, count)
            if hw <= w:
                break
        else:
            raise SmcError("sequential sampling exceeded the sample cap")
        return Estimate(method, total / count, count, seed, half_width=hw, alpha=alpha,
                        **stream.stats(count))
    # w and n given: solve for alpha
    total = sum(sum(batch) for batch in stream.batches(n))
    mean = total / n
    if method == "CI":
        sigma = math.sqrt(mean * (1.0 - mean) / n)
    else:
        var_sum = total * (1.0 - mean) ** 2 + (n - total) * mean ** 2
        sigma = math.sqrt((var_sum / (n - 1) if n > 1 else 0.0) / n)
    if sigma == 0.0:
        # no spread to scale by: the Chernoff-Hoeffding bound for w
        alpha_solved = min(1.0, 2.0 * math.exp(-2.0 * n * w * w))
    else:
        z = w / sigma
        alpha_solved = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
    return Estimate(method, mean, n, seed, half_width=w, alpha=alpha_solved,
                    **stream.stats(n))


def _wilson_half_width(z: float, total: int, n: int) -> float:
    """The larger distance from the mean of n 0/1 samples to the ends of
    their Wilson score interval with quantile z, so that mean +- the result
    contains that interval.  Unlike the normal interval it does not vanish
    when every sample agrees."""
    mean = total / n
    shrink = z * z / n
    center = (mean + shrink / 2.0) / (1.0 + shrink)
    half = z / (1.0 + shrink) * math.sqrt(mean * (1.0 - mean) / n + shrink / (4.0 * n))
    return abs(mean - center) + half


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
        n = _sample_count(n)
        epsilon = math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    else:
        n = _sample_count(n)
        delta = 2.0 * math.exp(-2.0 * n * epsilon * epsilon)
    stream = _SampleStream(mm, closed, path, seed, pathlen)
    total = sum(sum(batch) for batch in stream.batches(n))
    return Estimate("APMC", total / n, n, seed, epsilon=epsilon, delta=delta,
                    **stream.stats(n))


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
    for x in stream.samples():
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
                    decision=decision, satisfied=satisfied, **stream.stats(count))


# --- reward sampling -----------------------------------------------------------


def run_reward_ci(mm, closed, rname, rpath, alpha=0.05, n=1000, seed=0,
                  pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Mean-reward estimation for Cumul k and almost-sure Reachable formulas.
    A path that reaches an absorbing state outside the target of Reachable
    diverges; it is censored and counted as a cap hit."""
    n = _sample_count(n)
    _require_dtmc(mm)
    rewards = _Rewards(mm, closed, rname)
    if isinstance(rpath, A.Cumul):
        k = max(int(closed.spec_expr(rpath.operand)(None)), 0)
        monitor = Monitor(lambda sat, absorbing: [np.zeros_like(absorbing)] * 3, k)
    elif isinstance(rpath, A.Reachable):
        # the value of a path is whether it diverged
        def rule(sat, absorbing):
            target = sat(rpath.operand)
            return target | absorbing, absorbing & ~target, np.zeros_like(absorbing)

        monitor = Monitor(rule)
    else:
        raise UnsupportedError("simulation supports Cumul and Reachable rewards only")
    gains = []
    used = _PathTotals()
    for lo in range(0, n, _MAX_BATCH):
        rngs = [_rng_for(seed, i) for i in range(lo, min(lo + _MAX_BATCH, n))]
        diverged, capped, length, gain = _walk(mm, closed, rngs, pathlen, monitor,
                                               rewards=rewards)
        gains.append(gain)
        used.add(capped | (diverged > 0), length)
    arr = np.concatenate(gains)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    hw = normal_quantile(1.0 - alpha / 2.0) * sd / math.sqrt(len(arr))
    return Estimate("CI", mean, len(arr), seed, half_width=hw, alpha=alpha,
                    **used.fields())


class _Rewards(_Extended):
    """A reward structure's state reward per row and move reward per move
    (numbered as in the sample table), over the expanded states: from the
    structure attached to the model, else from its declaration."""

    def __init__(self, mm: MarkovModel, closed: ClosedModel, rname: str | None):
        source = reward_source(mm, closed, rname)
        if isinstance(source, RewardStructure):
            self.rewards_of = lambda states: ([source.state[s] for s in states], source.move)
        else:
            self.rewards_of = reward_evaluator(mm, source, closed)
        self.state = np.zeros(0)
        self.move = np.zeros(0)

    @property
    def size(self) -> int:
        return self.state.size

    def extend(self, mm: MarkovModel, states: np.ndarray):
        states = states.tolist()
        state_r, move_r = self.rewards_of(states)
        self.state = np.concatenate([self.state, np.array(state_r, dtype=float)])
        self.move = np.concatenate([self.move, [float(move_r.get((s, mi), 0)) for s in states
                                                for mi in range(len(mm.moves[s]))]])
