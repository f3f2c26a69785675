"""Statistical model checking: seeded forward simulation plus the CI, ACI,
APMC, and SPRT estimation/decision methods.

Sampling is reproducible by construction: the uniform that sample `i` of a
run with seed `s` draws at step `t` is a pure function of (s, i, t), so a
sample does not depend on its batch, its order or the process.  It comes
from Philox4x32-10 (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC 2011) keyed with the 64 bits of `s`, at the counter
(t // 2 as two 32-bit words, i low, i high): of the four words (a, b, c, d)
that a counter gives, an even step takes a and b and an odd one c and d, as
((a >> 5) * 2**26 + (b >> 6)) / 2**53, numpy's 53-bit construction.
Paths walk the model's move store through its `SampleTable`, a batch of
consecutive sample indices in lockstep, and a model that is still growing
expands the states they reach as they reach them, each with the
deterministic chain that follows it.  A path takes the first entry of its
state's row whose cumulative weight exceeds its uniform, stepping along
the row from its first entry (`_select`), so a step costs a few array
operations over the live paths plus one round per entry of the widest row
reached.  Since a path depends only on its sample index, one walk serves
several jobs: each is a lane with its own monitor, path length, sample
count and rewards (`_walk`), and every simulation job of a configuration
is a lane of one `SamplePool`, which the runners take.  A fixed-count lane (CI and ACI given n,
APMC, reward CI) reads its first n samples; a sequential one (CI and ACI
given w and alpha, SPRT) reads the samples in index order and stops at the
first that decides it.
"""

from __future__ import annotations

import math
import statistics
import sys

import numpy as np

from . import ast as A
from .build import MarkovModel, RewardStructure, SampleTable, _extended, _fmt_value
from .exact import ExactChecker, UnsupportedError, reward_source, step_bound, until_form
from .props import pretty_pexpr
from .record import Record, field

DEFAULT_PATHLEN = 10_000
# the confidence and the sample count of a CI whose method gives none
DEFAULT_ALPHA = 0.05
DEFAULT_SAMPLES = 1000
MAX_SEQUENTIAL_SAMPLES = 10_000_000


class SmcError(ValueError):
    pass


class SimPath(Record):
    entries: list  # (state index, action tag, successor index)
    terminal: str  # "bound-hit" | "pathlen-cap"


class Estimate(Record):
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
    # imported here, like every scipy module rcprob uses: only ACI with fewer
    # than 50 samples needs it
    from scipy import stats
    return float(stats.t.ppf(p, df))


# --- simulation --------------------------------------------------------------

_BLOCK = 16  # steps whose uniforms one Philox call draws for every live path
_MAX_BATCH = 1024  # paths advanced in lockstep
_FIRST_BATCH = 64  # a pool's first batch when its lanes are all sequential
SEED_LIMIT = 2 ** 64  # seeds are the 64-bit Philox keys: 0 <= seed < SEED_LIMIT

# Philox4x32 multipliers, one per multiplied word, and each round's key
# increment: round r adds r times the Weyl words to the key
_PHILOX_M = np.array([0xD2511F53, 0xCD9E8D57], dtype=np.uint64).reshape(2, 1, 1)
_PHILOX_BUMPS = np.arange(10, dtype=np.uint64)[:, None] * np.array(
    [0x9E3779B9, 0xBB67AE85], dtype=np.uint64)
# the positions of the low and high 32-bit halves of a uint64 seen as two uint32
_LO, _HI = (0, 1) if sys.byteorder == "little" else (1, 0)


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 32-bit words of each element of a uint64 array, as
    views."""
    words = x.view(np.uint32)
    return words[..., _LO::2], words[..., _HI::2]


def philox_uniforms(seed: int, samples: np.ndarray, t0: int, steps: int) -> np.ndarray:
    """The uniforms of steps t0 .. t0 + steps - 1 of each sample in
    `samples` (an int64 array of sample indices) under `seed`, one row per
    sample: Philox4x32-10 over every (sample, pair of steps) counter at once.

    The counter words (c0, c1, c2, c3) are kept as two stacked arrays, the
    multiplied words x = (c0, c2) and the others y = (c1, c3), so that a
    round is three array operations: one uint64 product of both multiplied
    words, whose 32-bit halves are read as views, and two xors."""
    pairs = np.arange(t0 // 2, (t0 + steps + 1) // 2, dtype=np.uint64)
    n, m = len(samples), pairs.size
    x = np.empty((2, n, m), dtype=np.uint32)
    y = np.empty_like(x)
    x[0], y[0] = _halves(pairs)
    lo, hi = _halves(samples.astype(np.uint64))
    x[1], y[1] = lo[:, None], hi[:, None]
    keys = (np.array([seed & 0xFFFFFFFF, seed >> 32], dtype=np.uint64)
            + _PHILOX_BUMPS).astype(np.uint32)
    for key in keys[:, :, None, None]:
        lo, hi = _halves(x * _PHILOX_M)
        # c0, c2 = hi(M1 c2) ^ c1 ^ k0, hi(M0 c0) ^ c3 ^ k1; c1, c3 = lo(M1 c2), lo(M0 c0)
        x = hi[::-1] ^ y ^ key
        y = lo[::-1]
    # the uniforms of each counter's even step, from (c0, c1), and odd step,
    # from (c2, c3), interleaved: computed in place in that layout, through
    # a (2, n, m) view of it, so that no temporary is as large as the result
    u = np.empty((n, m, 2))
    words = u.transpose(2, 0, 1)
    np.multiply(x >> 5, 2.0 ** 26, out=words)
    words += y >> 6
    words *= 2.0 ** -53
    first = t0 % 2
    return u.reshape(n, 2 * m)[:, first:first + steps]


def _require_dtmc(mm: MarkovModel):
    if mm.kind != "dtmc":
        raise SmcError("simulation needs a dtmc; build the model with kind=dtmc "
                       "(uniform resolution) instead of mdp")


class _Lane(Record):
    """One job's share of a walk: its monitor, its path length, the number
    of samples it counts (None: every sample of the walk), the reward
    structure whose gain it sums, if any, and for a sequential job the rule
    that stops it before its n-th sample.  A lane of a `SamplePool` gathers
    its samples into `tally` once walked."""

    monitor: Monitor
    pathlen: int
    n: int | None = None
    rewards: RewardStructure | None = None
    rule: _Wilson | _Wald | None = None
    tally: _Tally | None = None

    def __post_init__(self):
        self.pathlen = _count("pathlen", self.pathlen)

    @property
    def last(self) -> int:
        """The last step at which its paths stand."""
        horizon = self.monitor.horizon
        return self.pathlen if horizon is None else min(self.pathlen, horizon)


def _walk(mm: MarkovModel, seed: int, samples: np.ndarray, lanes: list[_Lane],
          trace=None) -> list[tuple]:
    """Advance one path per sample index in `samples` from the initial
    state, all in lockstep, for one or more lanes.

    Before each step the states that live paths reach for the first time
    are expanded, each with its deterministic chain as far as the last step
    of a lane still open (`MarkovModel.expand`), and the lanes' monitors
    and rewards are extended over the new rows.  Then each lane's monitor
    decides which of the paths that the lane counts end, and their values;
    its paths still undecided at its `pathlen` end censored.  A path stays
    live while a lane that counts it is undecided.  Every live path takes
    its sample's uniform u of the step (`philox_uniforms`, drawn once per
    block of steps for the live paths, each into its own row of the batch's
    block) and moves to the first entry of its state's row whose cumulative
    weight exceeds u (`_select`); the table gives the entry's move.  A lane
    with rewards gains, on each path it still counts, the reward of the
    path's state plus that of its move per step; `trace` collects the live
    paths' (states, moves, successors) per step.  Returns per lane, per
    path, its value, whether it was censored, its length and its gain: a
    path's figures in a lane are those of the lane walked alone.

    A step is a few numpy calls over the live paths per lane, plus one
    round of `_select` per entry of the widest row a live path stands on,
    so the last paths of a batch cost about as much per step as one path
    walked alone, and the lanes of a walk share its steps."""
    if not 0 <= seed < SEED_LIMIT:
        raise SmcError(f"the seed must lie in [0, 2**64), got {seed}")
    n = len(samples)
    outs = [(np.zeros(n), np.zeros(n, dtype=bool), np.zeros(n, dtype=np.int64), np.zeros(n))
            for _ in lanes]
    # per lane, the paths it counts and has not decided, and how many: when
    # they are all the live paths, as in a walk of one lane, no mask is read
    counted = [np.ones(n, dtype=bool) if lane.n is None else samples < lane.n
               for lane in lanes]
    undecided = [int(np.count_nonzero(c)) for c in counted]
    live = np.arange(n)
    states = np.full(n, mm.initial)
    draws = np.empty((n, _BLOCK))  # per path, its uniforms of the current block
    table = mm.sample_table()
    t = 0
    while live.size:
        rows = mm.row_of[states]
        if rows.min() < 0:
            last = max(lane.last for lane, left in zip(lanes, undecided) if left)
            mm.expand(np.unique(states[rows < 0]).tolist(), ahead=last - t)
            rows = mm.row_of[states]
        ended = False
        for i, lane in enumerate(lanes):
            if not undecided[i]:
                continue
            monitor = lane.monitor
            monitor.cover()
            if lane.rewards is not None:
                lane.rewards.cover(mm)
            here = slice(None) if undecided[i] == live.size else counted[i][live]
            at, at_rows = live[here], rows[here]
            value, capped, length, _ = outs[i]
            if t == monitor.horizon:
                values = monitor.final
            else:
                values = monitor.value
                done = monitor.ends[at_rows]
                if t >= lane.pathlen:
                    capped[at[~done]] = True
                elif np.count_nonzero(done):
                    at, at_rows = at[done], at_rows[done]
                else:
                    continue
            value[at] = values[at_rows]
            length[at] = t
            counted[i][at] = False
            undecided[i] -= at.size
            ended = True
        if ended:
            keep = np.zeros(live.size, dtype=bool)
            for c, left in zip(counted, undecided):
                if left:
                    keep |= c[live]
            live, states, rows = live[keep], states[keep], rows[keep]
            if not live.size:
                break
        j = t % _BLOCK
        if j == 0:
            draws[live] = philox_uniforms(seed, samples[live], t, _BLOCK)
        # draws[live, j], read as a column and then a gather, which numpy
        # does faster than one mixed index
        pos = _select(table, rows, draws[:, j][live])
        for i, lane in enumerate(lanes):
            if lane.rewards is not None and undecided[i]:
                here = slice(None) if undecided[i] == live.size else counted[i][live]
                outs[i][3][live[here]] += lane.rewards.state[rows[here]] + \
                    lane.rewards.move[table.move[pos[here]]]
        if trace is not None:
            trace.append((states, table.move[pos], mm.dest[pos]))
        states = mm.dest[pos]
        t += 1
    return outs


def _select(table: SampleTable, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The entry that a path at each of `rows` takes with its uniform u in
    [0, 1): the first of its row whose cumulative weight exceeds u.  Each
    path steps from its row's first entry while the weight is <= u, which
    the row's last entry, 1.0, stops; only the paths that still step are
    read each round, and there are at most as many rounds as the widest of
    `rows` has entries."""
    pos = table.first[rows]
    ahead = (table.cum[pos] <= u).nonzero()[0]
    while ahead.size:
        pos[ahead] += 1
        ahead = ahead[table.cum[pos[ahead]] <= u[ahead]]
    return pos


class Monitor:
    """On-the-fly decision procedure of a path formula, as arrays over rows.

    Before step t a path at row r is decided when `ends[r]`, with the sample
    `value[r]`; at step `horizon` (never when None) every path is decided
    with the sample `final[r]`.  A censored path counts as `censor_value`.
    `rule(*truths, absorbing)` gives (ends, value, final) of some rows from
    the truths of the state formulas `operands` at the rows' states, and
    the rows' absorbing flags.  The operands are compiled once by
    `checker`, the model's, which the monitor keeps for the model's life
    (`ExactChecker.node`): a cover reads them at the new rows only, and a
    P, R, A or E in one expands the whole model when it is first read."""

    def __init__(self, checker: ExactChecker, rule, operands: tuple = (),
                 horizon: int | None = None, censor_value: int = 0):
        self.checker = checker
        self.rule = rule
        self.nodes = [checker.node(e) for e in operands]
        self.horizon = horizon
        self.censor_value = censor_value
        self.ends = self.value = self.final = np.zeros(0, dtype=bool)

    def cover(self):
        """Extend the arrays over the rows expanded since."""
        mm = self.checker.mm
        lo = self.ends.size
        if lo < len(mm.order):
            states = np.array(mm.order[lo:], dtype=np.int64)
            absorbing = mm.sample_table().absorbing[lo:]
            parts = self.rule(*(self.checker.sat(node, states) for node in self.nodes), absorbing)
            self.ends, self.value, self.final = (
                _extended(old, new) for old, new in zip((self.ends, self.value, self.final), parts))


def compile_monitor(checker: ExactChecker, path: A.Expr) -> Monitor:
    """The monitor of a path formula in the until normal form (`until_form`):
    X decides at step 1, and [not] (left U<=k right) when the path reaches a
    right state, leaves the left states or sticks, or at step k by whether it
    is at a right state.  A negated until flips the until's samples."""
    form = until_form(path, checker.mm.closed)
    if form is None:
        raise UnsupportedError(
            f"{type(path).__name__} is not simulable; simulation accepts X, F, G, U, "
            "W and R over state formulas, bounded or not")
    if isinstance(form, A.Next):
        # at step 0 an absorbing state's only successor is itself
        return Monitor(checker, lambda hit, absorbing: (absorbing, hit, hit), (form.operand,), 1)
    negated, left, right, k = form

    def rule(hit, holds, absorbing):
        # with the empty horizon (k = -1) the until fails at step 0
        return hit | absorbing | ~holds, hit ^ negated, (hit & (k != -1)) ^ negated

    return Monitor(checker, rule, (right, left), None if k is None else max(k, 0),
                   censor_value=int(negated))


def simulate(mm: MarkovModel, seed: int, pathlen: int, path: A.Expr):
    """Simulate one path, monitoring the formula; returns (SimPath, sample).
    It is sample 0 of the run with this seed."""
    _require_dtmc(mm)
    lane = _Lane(compile_monitor(ExactChecker(mm), path), pathlen)
    steps = []
    [(value, capped, _, _)] = _walk(mm, seed, np.zeros(1, dtype=np.int64), [lane], trace=steps)
    entries = [(int(s[0]), mm.move_action[move[0]], int(nxt[0])) for s, move, nxt in steps]
    if capped[0]:
        return SimPath(entries, "pathlen-cap"), lane.monitor.censor_value
    return SimPath(entries, "bound-hit"), int(value[0])


class _Wilson(Record, frozen=True):
    """The rule of CI and ACI given w and alpha: stop at the first sample
    whose Wilson score interval, with quantile z, lies within w of the
    mean."""

    z: float
    w: float

    def stop(self, tally: _Tally, samples: list) -> int | None:
        """How many of `samples`, the 0/1 samples that follow those of
        `tally`, the rule reads; None: all, and it is not decided."""
        total = tally.total
        for i, x in enumerate(samples, 1):
            total += x
            if _wilson_half_width(self.z, total, tally.count + i) <= self.w:
                return i
        return None


class _Wald(Record, frozen=True):
    """The rule of Wald's SPRT: stop at the first sample whose
    log-likelihood ratio, summed in `tally.score`, leaves (accept_h0,
    accept_h1); `one` and `zero` are the terms of a 1 and a 0."""

    one: float
    zero: float
    accept_h0: float
    accept_h1: float

    def stop(self, tally: _Tally, samples: list) -> int | None:
        for i, x in enumerate(samples, 1):
            tally.score += self.one if x else self.zero
            if not self.accept_h0 < tally.score < self.accept_h1:
                return i
        return None


class _Tally(Record):
    """What a job reads of its samples, in index order: their count and path
    statistics, the sum of the 0/1 samples (a censored path counts as its
    monitor's `censor_value`), a sequential rule's running score and
    whether the rule stopped, and for a reward job each batch's gains,
    whose paths count as cap hits when censored or diverged.  A 0/1 lane
    keeps sums only."""

    count: int = 0
    cap_hits: int = 0
    length_sum: int = 0
    length_max: int = 0
    total: int = 0
    score: float = 0.0
    stopped: bool = False
    gains: list = field(default_factory=list)

    def gather(self, lane: _Lane, value, capped, length, gain) -> bool:
        """Add the paths of the next batch that the lane reads: up to its
        sample count n, or to the sample its rule stops at.  True once the
        lane reads no more."""
        k = min(lane.n - self.count, value.size)
        if lane.rewards is not None:
            self.gains.append(gain[:k])
            capped = capped | (value > 0)
        else:
            value[capped] = lane.monitor.censor_value
            if lane.rule is not None:
                used = lane.rule.stop(self, value[:k].astype(np.int64).tolist())
                self.stopped = used is not None
                k = used if self.stopped else k
            self.total += int(np.count_nonzero(value[:k]))
        self.count += k
        self.cap_hits += int(np.count_nonzero(capped[:k]))
        self.length_sum += int(length[:k].sum())
        self.length_max = max(self.length_max, int(length[:k].max(initial=0)))
        return self.stopped or self.count == lane.n

    def fields(self) -> dict:
        """The Estimate fields that summarise these paths."""
        return {"cap_hits": self.cap_hits, "path_len_mean": self.length_sum / self.count,
                "path_len_max": self.length_max}


class SamplePool:
    """The simulation jobs of one model, walked once under one seed, their
    formulas read in the model's configuration (`MarkovModel.closed`).  The
    runners (`run_ci`, `run_aci`, `run_apmc`, `run_sprt`, `run_reward_ci`)
    take the pool and read their job's lane from it; a pool made for one
    job walks that job alone.

    `add` registers a job's lane, by its path formula (a reward job: its
    reward path and reward structure), path length and what stops it: a
    sample count n, or a sequential rule that reads the samples in index
    order and stops at the first that decides it, up to
    `MAX_SEQUENTIAL_SAMPLES`.  The jobs of one path formula share one
    monitor.  `lane` gives a job its lane, tallied: the first call walks
    every lane registered and not yet walked, together, and a lane not
    registered is added first.  The pool walks consecutive batches of
    sample indices while a lane is open: of `_MAX_BATCH` while a fixed-count
    lane is open, else of `_FIRST_BATCH` and doubling up to `_MAX_BATCH`.
    Each lane's tally is that of the lane walked alone.  A joint walk that
    fails is dropped and the lane asked for walks alone; the states that the
    dropped walk expanded stay in the model."""

    def __init__(self, mm: MarkovModel, seed: int):
        self.mm = mm
        self.checker = ExactChecker(mm)  # that of every monitor of the pool
        self.seed = seed
        self._monitors: dict[str, Monitor] = {}
        self._lanes: dict[tuple, _Lane] = {}

    def add(self, path: A.Expr, pathlen, stop, rname: str | None = None) -> _Lane:
        """The lane of `path` cut off at `pathlen` stopped by `stop` (a
        sample count, a `_Wilson` or a `_Wald`), registered once; with a
        reward path it sums the rewards `rname`."""
        text = pretty_pexpr(path)
        key = (text, rname, pathlen, stop)
        if key not in self._lanes:
            _require_dtmc(self.mm)
            rewards = None
            if isinstance(path, A.REWARD_PATH_NODES):
                rewards = reward_source(self.mm, rname)
            monitor = self._monitors.get(text)
            if monitor is None:
                monitor = self._monitors[text] = _reward_monitor(self.checker, path) \
                    if rewards is not None else compile_monitor(self.checker, path)
            rule = stop if isinstance(stop, (_Wilson, _Wald)) else None
            n = MAX_SEQUENTIAL_SAMPLES if rule else _count("the sample count n", stop)
            self._lanes[key] = _Lane(monitor, pathlen, n, rewards, rule)
        return self._lanes[key]

    def lane(self, path: A.Expr, pathlen, stop, rname: str | None = None) -> _Lane:
        lane = self.add(path, pathlen, stop, rname)
        if lane.tally is None:
            pending = [other for other in self._lanes.values() if other.tally is None]
            try:
                self._walk(pending)
            except ValueError:
                if len(pending) == 1:
                    raise
                # an error of some lane's monitor, rewards or states: this
                # lane walks alone, so that the error is raised by the job
                # whose samples meet it, as it is without a pool
                self._walk([lane])
        return lane

    def _walk(self, lanes: list[_Lane]):
        tallies = [_Tally() for _ in lanes]
        open_lanes = list(zip(lanes, tallies))
        lo, size = 0, _FIRST_BATCH
        while open_lanes:
            if any(lane.rule is None for lane, _ in open_lanes):
                size = _MAX_BATCH
            hi = min(lo + size, max(lane.n for lane, _ in open_lanes))
            outs = _walk(self.mm, self.seed, np.arange(lo, hi),
                         [lane for lane, _ in open_lanes])
            open_lanes = [(lane, tally) for (lane, tally), out in zip(open_lanes, outs)
                          if not tally.gather(lane, *out)]
            lo, size = hi, min(2 * size, _MAX_BATCH)
        for lane, tally in zip(lanes, tallies):
            lane.tally = tally


def _count(name: str, value) -> int:
    """A sample count or a path length: a whole number of at least 1."""
    if value < 1 or value != int(value):
        raise SmcError(f"{name} must be at least 1 and whole, got {_fmt_value(value)}")
    return int(value)


def _within(name: str, value, hi: float = 1.0):
    """A rate or a width, if given: strictly between 0 and hi."""
    if value is not None and not 0 < value < hi:
        where = "positive" if hi == math.inf else f"in (0, {hi:g})"
        raise SmcError(f"{name} must be {where}, got {_fmt_value(value)}")


def _two_of_three(**kwargs):
    given = {k: v for k, v in kwargs.items() if v is not None}
    if len(given) != 2:
        raise SmcError(
            f"exactly two of {tuple(kwargs)} must be given, got {tuple(given) or 'none'}")
    return given


def run_ci(pool: SamplePool, path, w=None, alpha=None, n=None,
           pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Confidence-interval estimation with a normal-approximation interval,
    on the job's lane in `pool`; given w and alpha, sampling stops once the
    Wilson score interval is within w of the mean."""
    return _ci_like(pool, path, "CI", w, alpha, n, pathlen)


def run_aci(pool: SamplePool, path, w=None, alpha=None, n=None,
            pathlen=DEFAULT_PATHLEN) -> Estimate:
    """As run_ci but with the variance estimated from the samples
    (Student-t quantile below 50 samples)."""
    return _ci_like(pool, path, "ACI", w, alpha, n, pathlen)


def _half_width(method, alpha, mean, var_sum, n):
    if method == "CI":
        sigma2 = mean * (1.0 - mean)
        q = normal_quantile(1.0 - alpha / 2.0)
    else:
        sigma2 = var_sum / (n - 1)  # n >= 2 (`ci_stop`)
        q = _student_quantile(1.0 - alpha / 2.0, n - 1) if n < 50 \
            else normal_quantile(1.0 - alpha / 2.0)
    return q * math.sqrt(max(sigma2, 0.0) / n)


def ci_stop(method, w=None, alpha=None, n=None):
    """What stops the lane of CI or ACI (`method`) given two of w, alpha and
    n (`SamplePool.add`): the sample count n, or given w and alpha the
    Wilson rule."""
    given = _two_of_three(w=w, alpha=alpha, n=n)
    _within("w", w, math.inf)
    _within("alpha", alpha)
    if "n" not in given:
        return _Wilson(normal_quantile(1.0 - alpha / 2.0), w)
    if method == "ACI" and "alpha" in given and _count("the sample count n", n) < 2:
        raise SmcError(f"the sample count n must be at least 2 for ACI given alpha, got "
                       f"{_fmt_value(n)}")
    return n


def _ci_like(pool: SamplePool, path, method, w, alpha, n, pathlen) -> Estimate:
    stop = ci_stop(method, w, alpha, n)
    tally, seed = pool.lane(path, pathlen, stop).tally, pool.seed
    n, total = tally.count, tally.total
    mean = total / n
    if isinstance(stop, _Wilson):
        if not tally.stopped:
            raise SmcError("sequential sampling exceeded the sample cap")
        return Estimate(method, mean, n, seed, half_width=_wilson_half_width(stop.z, total, n),
                        alpha=alpha, **tally.fields())
    var_sum = total * (1.0 - mean) ** 2 + (n - total) * mean ** 2
    if alpha is not None:
        hw = _half_width(method, alpha, mean, var_sum, n)
        return Estimate(method, mean, n, seed, half_width=hw, alpha=alpha, **tally.fields())
    # w and n given: solve for alpha
    if method == "CI":
        sigma = math.sqrt(mean * (1.0 - mean) / n)
    else:
        sigma = math.sqrt((var_sum / (n - 1) if n > 1 else 0.0) / n)
    if sigma == 0.0:
        # no spread to scale by: the Chernoff-Hoeffding bound for w
        alpha_solved = min(1.0, 2.0 * math.exp(-2.0 * n * w * w))
    else:
        alpha_solved = 2.0 * (1.0 - statistics.NormalDist().cdf(w / sigma))
    return Estimate(method, mean, n, seed, half_width=w, alpha=alpha_solved,
                    **tally.fields())


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


def apmc_parameters(epsilon=None, delta=None, n=None) -> tuple[float, float, int]:
    """(epsilon, delta, n) of APMC from two of them, the third solved for by
    the Chernoff-Hoeffding bound n >= ln(2/delta) / (2 epsilon^2)."""
    given = _two_of_three(epsilon=epsilon, delta=delta, n=n)
    _within("epsilon", epsilon, math.inf)
    _within("delta", delta)
    if "epsilon" in given and "delta" in given:
        return epsilon, delta, apmc_samples(epsilon, delta)
    n = _count("the sample count n", n)
    if "delta" in given:
        return math.sqrt(math.log(2.0 / delta) / (2.0 * n)), delta, n
    return epsilon, 2.0 * math.exp(-2.0 * n * epsilon * epsilon), n


def run_apmc(pool: SamplePool, path, epsilon=None, delta=None, n=None,
             pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Approximate model checking with the Chernoff-Hoeffding bound
    (`apmc_parameters`), on the job's lane in `pool`."""
    epsilon, delta, n = apmc_parameters(epsilon, delta, n)
    tally = pool.lane(path, pathlen, n).tally
    return Estimate("APMC", tally.total / n, n, pool.seed, epsilon=epsilon, delta=delta,
                    **tally.fields())


def sprt_rule(theta: float, alpha=None, delta=None) -> _Wald:
    """What stops the lane of an SPRT of the threshold theta
    (`SamplePool.add`)."""
    if alpha is None or delta is None:
        raise SmcError("SPRT needs both alpha and delta")
    _within("alpha", alpha, 0.5)
    _within("delta", delta)
    p0 = theta + delta
    p1 = theta - delta
    if p1 <= 0.0 or p0 >= 1.0:
        raise SmcError(
            f"SPRT indifference region around {theta} with delta {delta} leaves (0,1)")
    return _Wald(math.log(p1 / p0), math.log((1.0 - p1) / (1.0 - p0)),
                 math.log(alpha / (1.0 - alpha)), math.log((1.0 - alpha) / alpha))


def run_sprt(pool: SamplePool, path, bound: A.Bound, theta: float, alpha=None, delta=None,
             pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Wald sequential probability ratio test of a bounded property, on the
    job's lane in `pool`.

    Tests H0: p >= theta + delta against H1: p <= theta - delta with
    type I = type II = alpha; the decision is mapped back to the bound's
    direction."""
    rule = sprt_rule(theta, alpha, delta)
    tally = pool.lane(path, pathlen, rule).tally
    if not tally.stopped:
        raise SmcError("SPRT exceeded the sample cap without a decision")
    decision = "accept-H1" if tally.score >= rule.accept_h1 else "accept-H0"
    high = decision == "accept-H0"  # p is on the high side of theta
    satisfied = high if bound.op in (">", ">=") else not high
    return Estimate("SPRT", tally.total / tally.count, tally.count, pool.seed, alpha=alpha,
                    delta=delta, decision=decision, satisfied=satisfied, **tally.fields())


# --- reward sampling -----------------------------------------------------------


def _reward_monitor(checker: ExactChecker, rpath: A.Expr) -> Monitor:
    """The monitor of a reward path: Cumul k decides at step k; Reachable
    when a path reaches its target or an absorbing state outside it, where
    the path diverges, and the value of a path is whether it diverged."""
    if isinstance(rpath, A.Cumul):
        k = max(step_bound(checker.mm.closed, A.Bound("<=", rpath.operand)), 0)
        return Monitor(checker, lambda absorbing: [np.zeros_like(absorbing)] * 3, (), k)
    if isinstance(rpath, A.Reachable):
        def rule(target, absorbing):
            return target | absorbing, absorbing & ~target, np.zeros_like(absorbing)

        return Monitor(checker, rule, (rpath.operand,))
    raise UnsupportedError("simulation supports Cumul and Reachable rewards only")


def run_reward_ci(pool: SamplePool, rname, rpath, alpha=DEFAULT_ALPHA, n=DEFAULT_SAMPLES,
                  pathlen=DEFAULT_PATHLEN) -> Estimate:
    """Mean-reward estimation for Cumul k and almost-sure Reachable formulas,
    on the job's lane in `pool`.  A path that reaches an absorbing state
    outside the target of Reachable diverges; it is censored and counted as
    a cap hit."""
    n = _count("the sample count n", n)
    _within("alpha", alpha)
    tally = pool.lane(rpath, pathlen, n, rname).tally
    arr = np.concatenate(tally.gains)
    mean = float(arr.mean())
    sd = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    hw = normal_quantile(1.0 - alpha / 2.0) * sd / math.sqrt(len(arr))
    return Estimate("CI", mean, len(arr), pool.seed, half_width=hw, alpha=alpha,
                    **tally.fields())
