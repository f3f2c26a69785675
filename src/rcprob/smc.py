"""Statistical model checking: seeded forward simulation plus the CI, ACI,
APMC, and SPRT estimation/decision methods.

Sampling is reproducible: sample `i` of a run with seed `s` draws one
uniform per step from its own generator derived from (s, i), so serial and
partitioned runs produce identical estimates.  Paths walk the model's
`SampleTable`, a batch of consecutive sample indices in lockstep; the
sequential methods (CI with w and alpha, SPRT) use the samples in index
order and stop at the first index that decides them.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from . import ast as A
from .build import ClosedModel, MarkovModel, SampleTable
from .exact import ExactChecker, UnsupportedError

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


def _table(mm: MarkovModel) -> SampleTable:
    if mm.kind != "dtmc":
        raise SmcError("simulation needs a dtmc; build the model with kind=dtmc "
                       "(uniform resolution) instead of mdp")
    return mm.sample_table()


def _walk(table: SampleTable, initial: int, rngs: list, pathlen: int,
          monitor: Monitor, rewards=None, trace=None):
    """Advance one path per generator in `rngs` from `initial`, all in lockstep.

    Before each step the monitor decides which live paths end and their
    values; paths still undecided at step `pathlen` end censored.  Every
    other path draws one uniform u from its own generator and moves to the
    first entry of its state whose cumulative weight exceeds u.  With
    `rewards = (state_r, move_r)` a path gains state_r[s] + move_r[move] per
    step; `trace` collects the live paths' (states, moves, successors) per
    step.  Returns per path its value, whether it was censored, its length
    and its gain.

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
    states = np.full(n, initial)
    # the live paths' (state, u) as complex numbers, to search table.key
    query = np.empty(n, dtype=complex)
    ends, horizon = monitor.ends, monitor.horizon
    search, dest, move = table.key.searchsorted, table.dest, table.move
    t = 0
    while live.size:
        if t == horizon:
            value[live] = monitor.final[states]
            break
        done = ends[states]
        if t >= pathlen:
            capped[live[~done]] = True
            value[live] = monitor.value[states]
            break
        if np.count_nonzero(done):
            ended = live[done]
            value[ended] = monitor.value[states[done]]
            length[ended] = t
            live, states = live[~done], states[~done]
            query = query[:live.size]
            if not live.size:
                break
        j = t % _CHUNK
        if j == 0:
            draws[live] = [rngs[i].random(_CHUNK) for i in live.tolist()]
        query.real = states
        query.imag = draws[:, j][live]
        # the keys <= (state, u) end at the state's first entry whose
        # cumulative weight exceeds u; its last one is 1.0 > u
        pos = search(query, "right")
        if rewards is not None:
            gain[live] += rewards[0][states] + rewards[1][move[pos]]
        if trace is not None:
            trace.append((states, move[pos], dest[pos]))
        states = dest[pos]
        t += 1
    length[live] = t
    return value, capped, length, gain


@dataclass
class Monitor:
    """On-the-fly decision procedure of a path formula, as per-state arrays.

    Before step t a path at state s is decided when `ends[s]`, with the
    sample `value[s]`; at step `horizon` (never when None) every path is
    decided with the sample `final[s]`.  A censored path counts as
    `censor_value`."""

    ends: np.ndarray
    value: np.ndarray
    horizon: int | None = None
    final: np.ndarray | None = None
    censor_value: int = 0


def compile_monitor(checker: ExactChecker, path: A.Expr,
                    absorbing: np.ndarray) -> Monitor:
    if isinstance(path, A.Next):
        sat = checker.sat(path.operand)
        # at step 0 an absorbing state's only successor is itself
        return Monitor(absorbing, sat, 1, sat)
    if isinstance(path, (A.Finally_, A.Until)):
        k = checker._step_bound(path.bound)
        if isinstance(path, A.Finally_):
            hit = checker.sat(path.operand)
            ends = hit | absorbing
        else:
            hit = checker.sat(path.right)
            ends = hit | absorbing | ~checker.sat(path.left)
        return Monitor(ends, hit, None if k is None else k + 1, np.zeros_like(hit))
    if isinstance(path, A.Globally):
        sat = checker.sat(path.operand)
        k = checker._step_bound(path.bound)  # -1 for an empty horizon
        return Monitor(~sat | absorbing, sat, None if k is None else max(k, 0), sat,
                       censor_value=1)
    raise UnsupportedError(
        f"{type(path).__name__} is not simulable; use F, G, U, or X")


def simulate(mm: MarkovModel, closed: ClosedModel, seed: int, pathlen: int,
             path: A.Expr):
    """Simulate one path, monitoring the formula; returns (SimPath, sample).
    It is sample 0 of the run with this seed."""
    if pathlen < 1:
        raise SmcError("pathlen must be at least 1")
    table = _table(mm)
    monitor = compile_monitor(ExactChecker(mm, closed), path, table.absorbing)
    steps = []
    value, capped, _, _ = _walk(table, mm.initial, [_rng_for(seed, 0)], pathlen,
                                monitor, trace=steps)
    bounds = mm.choice_csr()[1]
    entries = []
    for s, move, nxt in steps:
        s, move = int(s[0]), int(move[0])
        entries.append((s, mm.moves[s][move - bounds[s]].action, int(nxt[0])))
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
        self.table = _table(mm)
        self.monitor = compile_monitor(ExactChecker(mm, closed), path,
                                       self.table.absorbing)
        self.initial = mm.initial
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
            value, capped, length, _ = _walk(self.table, self.initial, rngs,
                                             self.pathlen, self.monitor)
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
        total = 0
        count = 0
        hw = math.inf
        for x in stream.samples():
            total += x
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
        alpha_solved = 0.0
    else:
        z = w / sigma
        alpha_solved = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0))))
    return Estimate(method, mean, n, seed, half_width=w, alpha=alpha_solved,
                    **stream.stats(n))


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
    table = _table(mm)
    checker = ExactChecker(mm, closed)
    rewards = checker._reward_arrays(rname)
    if isinstance(rpath, A.Cumul):
        k = max(int(closed.spec_expr(rpath.operand)(None)), 0)
        never = np.zeros(mm.num_states, dtype=bool)
        monitor = Monitor(never, never, k, never)
    elif isinstance(rpath, A.Reachable):
        target = checker.sat(rpath.operand)
        # the value of a path is whether it diverged
        monitor = Monitor(target | table.absorbing, table.absorbing & ~target)
    else:
        raise UnsupportedError("simulation supports Cumul and Reachable rewards only")
    gains = []
    used = _PathTotals()
    for lo in range(0, n, _MAX_BATCH):
        rngs = [_rng_for(seed, i) for i in range(lo, min(lo + _MAX_BATCH, n))]
        diverged, capped, length, gain = _walk(table, mm.initial, rngs, pathlen,
                                               monitor, rewards=rewards)
        gains.append(gain)
        used.add(capped | (diverged > 0), length)
    arr = np.concatenate(gains)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    hw = normal_quantile(1.0 - alpha / 2.0) * sd / math.sqrt(len(arr))
    return Estimate("CI", mean, len(arr), seed, half_width=hw, alpha=alpha,
                    **used.fields())
