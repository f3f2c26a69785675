import itertools
import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as scipy_stats

from rcprob import ast as A
from rcprob import props as P
from rcprob.build import (BuildError, MarkovModel, Move, RewardStructure, attach_rewards,
                          open_markov)
from rcprob.props import parse_expression
from rcprob.smc import (SmcError, _SampleStream, apmc_samples, normal_quantile,
                        run_aci, run_apmc, run_ci, run_reward_ci, run_sprt, simulate)

import oracles
from conftest import make_srw
from oracles import StubContext, var_eq, var_in


def chain30():
    """s0 -> goal with p=0.3, sink with p=0.7; both absorbing."""
    moves = [
        [Move("a", ((Fraction(3, 10), 1), (Fraction(7, 10), 2)))],
        [Move("loop", ((Fraction(1), 1),))],
        [Move("loop", ((Fraction(1), 2),))],
    ]
    mm = MarkovModel("dtmc", ("x",), [(0,), (1,), (2,)], moves,
                     [False, True, True], [False] * 3)
    return mm, StubContext(("x",))


GOAL = var_eq("x", 1)


def test_normal_quantile_accuracy():
    for p in (0.0005, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 0.9999):
        assert normal_quantile(p) == pytest.approx(scipy_stats.norm.ppf(p), abs=1e-7)


def test_simulate_deterministic_and_decided():
    mm, ctx = chain30()
    path, sample = simulate(mm, ctx, seed=5, pathlen=100, path=A.Finally_(None, GOAL))
    assert sample in (0, 1)
    assert path.terminal == "bound-hit"
    again, sample2 = simulate(mm, ctx, seed=5, pathlen=100, path=A.Finally_(None, GOAL))
    assert sample2 == sample and again.entries == path.entries


def test_simulate_globally_on_absorbing():
    mm, ctx = chain30()
    phi = A.Unary("not", GOAL)  # holds in s0 and the sink
    path, sample = simulate(mm, ctx, seed=1, pathlen=50, path=A.Globally(None, phi))
    assert sample in (0, 1)
    # a path absorbed in the sink satisfies G(not goal) and decides there
    results = {simulate(mm, ctx, seed=s, pathlen=50,
                        path=A.Globally(None, phi))[1] for s in range(30)}
    assert results == {0, 1}


def test_simulate_rejects_mdp():
    mm, ctx = chain30()
    mm.kind = "mdp"
    with pytest.raises(SmcError, match="kind=dtmc"):
        simulate(mm, ctx, seed=0, pathlen=10, path=A.Finally_(None, GOAL))


def test_simulate_srw_fixture_deterministic(srw_small):
    closed, mm = srw_small
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    runs = [simulate(mm, closed, seed=9, pathlen=500, path=A.Finally_(None, stuck))
            for _ in range(3)]
    assert all(r[0].entries == runs[0][0].entries for r in runs)
    assert all(r[1] == runs[0][1] for r in runs)


def test_ci_alpha_n():
    mm, ctx = chain30()
    est = run_ci(mm, ctx, A.Finally_(None, GOAL), alpha=0.01, n=100, seed=0)
    assert est.n == 100
    assert est.method == "CI"
    assert 0.0 <= est.point <= 1.0
    assert est.half_width > 0


def test_ci_degenerate_variance():
    mm, ctx = chain30()
    # goal always reached from the goal state itself: all samples 1
    mm2 = MarkovModel("dtmc", ("x",), mm.states, mm.moves, mm.deadlock, mm.quiescent,
                      initial=1)
    est = run_ci(mm2, ctx, A.Finally_(None, GOAL), alpha=0.05, n=40, seed=0)
    assert est.point == 1.0
    assert est.half_width == 0.0


def test_ci_solve_for_n():
    mm, ctx = chain30()
    est = run_ci(mm, ctx, A.Finally_(None, GOAL), w=0.15, alpha=0.1, seed=3)
    assert est.half_width <= 0.15
    assert est.n >= 2


def test_ci_solve_for_alpha():
    mm, ctx = chain30()
    est = run_ci(mm, ctx, A.Finally_(None, GOAL), w=0.1, n=200, seed=1)
    assert 0.0 <= est.alpha <= 1.0


def test_ci_needs_two_parameters():
    mm, ctx = chain30()
    with pytest.raises(SmcError, match="exactly two"):
        run_ci(mm, ctx, A.Finally_(None, GOAL), alpha=0.05)
    with pytest.raises(SmcError, match="exactly two"):
        run_ci(mm, ctx, A.Finally_(None, GOAL), w=0.1, alpha=0.05, n=10)


def test_aci_student_t_path():
    mm, ctx = chain30()
    est = run_aci(mm, ctx, A.Finally_(None, GOAL), alpha=0.05, n=30, seed=0)
    assert est.method == "ACI"
    # t quantile exceeds the normal one, so the ACI interval is wider than a
    # CI of the same data whenever the variance estimates agree roughly
    ci = run_ci(mm, ctx, A.Finally_(None, GOAL), alpha=0.05, n=30, seed=0)
    assert est.point == ci.point
    assert est.n == 30


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats dominates start-up time; only small-sample ACI loads it
    code = "import sys, rcprob; sys.exit('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_aci_all_ones_degenerate():
    mm, ctx = chain30()
    mm2 = MarkovModel("dtmc", ("x",), mm.states, mm.moves, mm.deadlock, mm.quiescent,
                      initial=1)
    est = run_aci(mm2, ctx, A.Finally_(None, GOAL), alpha=0.05, n=30, seed=0)
    assert est.point == 1.0 and est.half_width == 0.0


def test_apmc_sample_bound():
    assert apmc_samples(0.05, 0.01) == 1060
    # ln(2) / (2 * 0.25) = 1.386 needs two samples
    assert apmc_samples(0.5, 1.0) == 2
    # ln(40) / (2 * 0.0009) = 2049.4 rounds up, not to the nearest integer
    assert apmc_samples(0.03, 0.05) == 2050


@pytest.mark.parametrize("epsilon", [0.01, 0.03, 0.05, 0.1, 0.25])
@pytest.mark.parametrize("delta", [0.001, 0.01, 0.05, 0.1, 0.5])
def test_apmc_samples_meet_bound(epsilon, delta):
    bound = math.log(2.0 / delta) / (2.0 * epsilon * epsilon)
    n = apmc_samples(epsilon, delta)
    assert n >= bound
    assert n - 1 < bound


def test_apmc_inverse_solves():
    mm, ctx = chain30()
    est = run_apmc(mm, ctx, A.Finally_(None, GOAL), n=1060, delta=0.01, seed=0)
    expected_eps = math.sqrt(math.log(2 / 0.01) / (2 * 1060))
    assert est.epsilon == pytest.approx(expected_eps, abs=1e-6)
    est = run_apmc(mm, ctx, A.Finally_(None, GOAL), n=500, epsilon=0.05, seed=0)
    assert est.delta == pytest.approx(2 * math.exp(-2 * 500 * 0.05 ** 2), abs=1e-9)


def test_apmc_runs_with_bound():
    mm, ctx = chain30()
    est = run_apmc(mm, ctx, A.Finally_(None, GOAL), epsilon=0.05, delta=0.01, seed=0)
    assert est.n == 1060
    assert abs(est.point - 0.3) < 0.06


def test_sprt_decisions():
    mm, ctx = chain30()
    # true probability 0.3 tested against >= 0.5: overwhelmingly accept-H1
    wrong = 0
    for seed in range(100):
        est = run_sprt(mm, ctx, A.Finally_(None, GOAL), A.Bound(">=", A.Lit(Fraction(1, 2))),
                       theta=0.5, alpha=0.01, delta=0.05, seed=seed)
        if est.decision != "accept-H1" or est.satisfied:
            wrong += 1
    assert wrong <= 1
    # tested against >= 0.1: accept-H0
    wrong = 0
    for seed in range(100):
        est = run_sprt(mm, ctx, A.Finally_(None, GOAL), A.Bound(">=", A.Lit(Fraction(1, 10))),
                       theta=0.1, alpha=0.01, delta=0.05, seed=seed)
        if est.decision != "accept-H0" or not est.satisfied:
            wrong += 1
    assert wrong <= 1


def test_sprt_upper_bound_direction():
    mm, ctx = chain30()
    est = run_sprt(mm, ctx, A.Finally_(None, GOAL), A.Bound("<=", A.Lit(Fraction(1, 2))),
                   theta=0.5, alpha=0.01, delta=0.05, seed=0)
    assert est.satisfied  # 0.3 <= 0.5


def test_sprt_terminates_inside_indifference():
    mm, ctx = chain30()
    est = run_sprt(mm, ctx, A.Finally_(None, GOAL), A.Bound(">=", A.Lit(Fraction(3, 10))),
                   theta=0.3, alpha=0.05, delta=0.05, seed=0)
    assert est.decision in ("accept-H0", "accept-H1")


def test_sprt_bad_region():
    mm, ctx = chain30()
    with pytest.raises(SmcError, match="leaves"):
        run_sprt(mm, ctx, A.Finally_(None, GOAL), A.Bound(">=", A.Lit(0)),
                 theta=0.0, alpha=0.01, delta=0.05, seed=0)


def test_pathlen_censoring_counted(srw_default):
    closed, mm = srw_default
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    est = run_ci(mm, closed, A.Finally_(None, stuck), alpha=0.05, n=50, seed=0,
                 pathlen=5)
    assert est.cap_hits == 50  # nothing decides within 5 steps
    assert est.point == 0.0   # censored F samples count as 0


def test_partitioned_reproducibility():
    mm, ctx = chain30()
    a = run_ci(mm, ctx, A.Finally_(None, GOAL), alpha=0.05, n=200, seed=7)
    b = run_ci(mm, ctx, A.Finally_(None, GOAL), alpha=0.05, n=200, seed=7)
    assert a.point == b.point and a.half_width == b.half_width
    c = run_ci(mm, ctx, A.Finally_(None, GOAL), alpha=0.05, n=200, seed=8)
    assert c.point != a.point or c.half_width != a.half_width


def test_reward_simulation_geometric():
    from fractions import Fraction as Fr
    from rcprob.build import MarkovModel, Move, RewardStructure
    from rcprob.smc import run_reward_ci
    mm = MarkovModel("dtmc", ("x",), [(0,), (1,)], [
        [Move("a", ((Fr(1, 2), 1), (Fr(1, 2), 0)))],
        [Move("loop", ((Fr(1), 1),))],
    ], [False, True], [False, False])
    ctx = StubContext(("x",))
    mm.rewards["R"] = RewardStructure("R", [Fr(1), Fr(0)], {})
    est = run_reward_ci(mm, ctx, "R", A.Reachable(var_eq("x", 1)),
                        alpha=0.05, n=3000, seed=0)
    assert abs(est.point - 2.0) < 0.15
    est2 = run_reward_ci(mm, ctx, "R", A.Cumul(A.Lit(3)), alpha=0.05, n=2000, seed=1)
    # expected cumulative reward over 3 steps: 1 + 1/2 + 1/4
    assert abs(est2.point - 1.75) < 0.1


# --- differential tests against the one-path-at-a-time reference sampler ---------------


def _sat(mm, ctx, expr):
    fn = ctx.spec_expr(expr)
    return [bool(fn(st)) for st in mm.states]


def _bound(k):
    return None if k is None else A.Bound("<=", A.Lit(k))


def _shapes(p, q):
    """(kind, path formula, left, right, step bound) of every simulable shape."""
    out = [("X", A.Next(q), None, q, None)]
    for k in (None, 3):
        out += [("F", A.Finally_(_bound(k), q), None, q, k),
                ("G", A.Globally(_bound(k), p), None, p, k),
                ("U", A.Until(p, _bound(k), q), p, q, k)]
    return out


def _reference(mm, ctx, kind, left, right, k, seed, pathlen):
    """The reference sampler's samples in index order: (0/1 sample, steps
    taken, whether the path hit the pathlen cap)."""
    stop = oracles.reference_monitor(kind, left and _sat(mm, ctx, left),
                                     _sat(mm, ctx, right), k)
    for i in itertools.count():
        value, steps, _ = oracles.reference_path(mm, oracles.reference_rng(seed, i),
                                                 pathlen, stop)
        if value is None:
            yield (1 if kind == "G" else 0), steps, True
        else:
            yield value, steps, False


def wide_row_dtmc(seed=7, n=60, width=40):
    """One move per state over `width` successors in random order, with
    uneven weights; every tenth state is absorbing."""
    rng = random.Random(seed)
    moves = []
    for s in range(n):
        if s % 10 == 9:
            moves.append([Move("loop", ((Fraction(1), s),))])
            continue
        dests = rng.sample(range(n), width)
        weights = [rng.randint(1, 9) for _ in dests]
        moves.append([Move("a", tuple((Fraction(w, sum(weights)), d)
                                      for w, d in zip(weights, dests)))])
    mm = MarkovModel("dtmc", ("x",), [(i,) for i in range(n)], moves,
                     [s % 10 == 9 for s in range(n)], [False] * n)
    mm.check_stochastic()
    return mm, StubContext(("x",))


def _single_move_models(srw_small):
    closed, srw = srw_small
    yield (srw, closed, parse_expression("SRWMod::SRWRP::x >= -1"),
           parse_expression(
               "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck"))
    mm, ctx = chain30()
    yield mm, ctx, A.Unary("not", var_eq("x", 2)), GOAL
    # branches in random destination order
    rnd = oracles.random_dtmc(random.Random(4), 25)
    yield rnd, StubContext(("x",)), A.Binary("<", A.Ref(A.QName(("x",))), A.Lit(18)), \
        var_in("x", [3, 7, 11, 19])
    # rows of 40 entries
    wide, ctx = wide_row_dtmc()
    yield wide, ctx, A.Binary("<", A.Ref(A.QName(("x",))), A.Lit(45)), var_in("x", [2, 23])


@pytest.mark.parametrize("pathlen", [3, 1000])
def test_samples_match_reference_on_single_move_models(srw_small, pathlen):
    n = 150
    checked = caps = 0
    for mm, ctx, p, q in _single_move_models(srw_small):
        assert all(len(row) == 1 for row in mm.moves)
        for kind, path, left, right, k in _shapes(p, q):
            stream = _SampleStream(mm, ctx, path, 11, pathlen)
            got = [x for batch in stream.batches(n) for x in batch]
            want = list(itertools.islice(
                _reference(mm, ctx, kind, left, right, k, 11, pathlen), n))
            assert got == [value for value, _, _ in want], (kind, k)
            lengths = [steps for _, steps, _ in want]
            caps += sum(capped for _, _, capped in want)
            assert stream.stats(n) == {
                "cap_hits": sum(capped for _, _, capped in want),
                "path_len_mean": sum(lengths) / n, "path_len_max": max(lengths)}, (kind, k)
            checked += 1
    assert checked == 28
    assert (caps > 0) == (pathlen == 3)


def test_rewards_match_reference_on_single_move_models(srw_small):
    closed, mm = srw_small
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    target = _sat(mm, closed, stuck)
    cases = [(A.Cumul(A.Lit(15)), lambda s, t, a: 0 if t >= 15 else None),
             (A.Reachable(stuck), lambda s, t, a: 0 if target[s] or a else None)]
    for rpath, stop in cases:
        est = run_reward_ci(mm, closed, "R_origins", rpath, n=300, seed=2, pathlen=40)
        rs = attach_rewards(mm, closed.spec.find(P.RewardsDecl, "R_origins"),
                            closed).rewards["R_origins"]
        values = []
        for i in range(300):
            _, _, steps = oracles.reference_path(mm, oracles.reference_rng(2, i), 40, stop)
            acc = 0.0
            for s, j in steps:
                acc += float(rs.state[s]) + float(rs.move.get((s, j), 0))
            values.append(acc)
        assert est.point == float(np.array(values).mean())
        assert est.point > 0


def _stop_index(samples, stop):
    """The number of samples a sequential rule uses, with their path
    statistics."""
    used = []
    for sample in samples:
        used.append(sample)
        if stop([x for x, _, _ in used]):
            lengths = [steps for _, steps, _ in used]
            return len(used), {"cap_hits": sum(capped for _, _, capped in used),
                               "path_len_mean": sum(lengths) / len(used),
                               "path_len_max": max(lengths)}


@pytest.mark.parametrize("seed", range(6))
def test_sequential_methods_stop_where_reference_does(srw_small, seed):
    closed, mm = srw_small
    goal = parse_expression("SRWMod::SRWRP::x == 2")
    path = A.Finally_(None, goal)
    pathlen = 12  # some paths hit the cap

    def samples():
        return _reference(mm, closed, "F", None, goal, None, seed, pathlen)

    z = statistics.NormalDist().inv_cdf(1 - 0.05 / 2)

    def ci_done(xs):
        # the Wilson score interval's ends are the p with
        # (mean - p)^2 = z^2 p (1 - p) / n
        n, mean = len(xs), sum(xs) / len(xs)
        a, b, c = 1 + z * z / n, -(2 * mean + z * z / n), mean * mean
        root = math.sqrt(b * b - 4 * a * c)
        lo, hi = (-b - root) / (2 * a), (-b + root) / (2 * a)
        return max(mean - lo, hi - mean) <= 0.04

    count, stats = _stop_index(samples(), ci_done)
    est = run_ci(mm, closed, path, w=0.04, alpha=0.05, seed=seed, pathlen=pathlen)
    assert (est.n, est.cap_hits, est.path_len_mean, est.path_len_max) == \
        (count, *stats.values())

    theta, delta, alpha = 0.5, 0.01, 0.01
    lr_one = math.log((theta - delta) / (theta + delta))
    lr_zero = math.log((1 - theta + delta) / (1 - theta - delta))

    def sprt_done(xs):
        llr = 0.0
        for x in xs:
            llr += lr_one if x else lr_zero
        return abs(llr) >= math.log((1 - alpha) / alpha)

    count, stats = _stop_index(samples(), sprt_done)
    est = run_sprt(mm, closed, path, A.Bound(">=", A.Lit(theta)), theta=theta,
                   alpha=alpha, delta=delta, seed=seed, pathlen=pathlen)
    assert (est.n, est.cap_hits, est.path_len_mean, est.path_len_max) == \
        (count, *stats.values())
    assert count > 64 + 128  # past the first two batches
    assert stats["cap_hits"] > 0


def multi_move_dtmc():
    """s0 mixes three moves uniformly; the successors' mixture is
    1: 1/6, 2: 1/6 + 1/9, 3: 2/9 + 1/3."""
    third = Fraction(1, 3)
    moves = [
        [Move("a", ((Fraction(1, 2), 1), (Fraction(1, 2), 2))),
         Move("b", ((third, 2), (2 * third, 3))),
         Move("c", ((Fraction(1), 3),))],
        [Move("l", ((Fraction(1), 1),))],
        [Move("l", ((Fraction(1), 2),))],
        [Move("l", ((Fraction(1), 3),))],
    ]
    mm = MarkovModel("dtmc", ("x",), [(i,) for i in range(4)], moves,
                     [False] * 4, [False] * 4)
    mm.check_stochastic()
    return mm, StubContext(("x",))


def test_multi_move_frequencies_match_mixture():
    mm, ctx = multi_move_dtmc()
    n = 3000
    succ = [round(run_ci(mm, ctx, A.Next(var_eq("x", d)), alpha=0.05, n=n,
                         seed=3).point * n) for d in (1, 2, 3)]
    assert sum(succ) == n
    exact = [Fraction(1, 6), Fraction(5, 18), Fraction(5, 9)]
    assert scipy_stats.chisquare(succ, [float(p) * n for p in exact]).pvalue > 1e-3
    # one indicator reward per move: Cumul 1 counts the move taken first
    for j, name in enumerate("abc"):
        mm.rewards[name] = RewardStructure(name, [Fraction(0)] * 4, {(0, j): Fraction(1)})
    taken = [round(run_reward_ci(mm, ctx, name, A.Cumul(A.Lit(1)), n=n, seed=3).point * n)
             for name in "abc"]
    assert sum(taken) == n
    assert scipy_stats.chisquare(taken, [n / 3] * 3).pvalue > 1e-3
    entries = [simulate(mm, ctx, seed=s, pathlen=1, path=A.Next(GOAL))[0].entries[0]
               for s in range(30)]
    assert {tag for _, tag, _ in entries} == {"a", "b", "c"}


def test_block_draws_equal_scalar_draws():
    # every path draws its uniforms in blocks; the reproducibility of each
    # (seed, i) sample rests on blocks continuing the scalar stream
    for a, b in [(1, 1), (64, 64), (3, 61), (64, 7)]:
        blocks = oracles.reference_rng(5, 9)
        got = np.concatenate([blocks.random(a), blocks.random(b)])
        scalar = oracles.reference_rng(5, 9)
        assert got.tolist() == [scalar.random() for _ in range(a + b)]


def test_sequential_stream_keeps_only_its_last_batch(srw_small):
    closed, mm = srw_small
    goal = parse_expression("SRWMod::SRWRP::x == 2")
    stream = _SampleStream(mm, closed, A.Finally_(None, goal), 3, 12)
    used = 64 + 128 + 256 + 100  # into the fourth batch
    got = list(itertools.islice(stream.samples(), used))
    want = list(itertools.islice(_reference(mm, closed, "F", None, goal, None, 3, 12), used))
    assert got == [value for value, _, _ in want]
    assert [a.size for a in stream._last] == [512, 512]
    lengths = [steps for _, steps, _ in want]
    assert stream.stats(used) == {
        "cap_hits": sum(capped for _, _, capped in want),
        "path_len_mean": sum(lengths) / used, "path_len_max": max(lengths)}


@pytest.mark.parametrize("run", [
    lambda mm, ctx: run_ci(mm, ctx, A.Finally_(None, GOAL), alpha=0.05, n=0),
    lambda mm, ctx: run_aci(mm, ctx, A.Finally_(None, GOAL), w=0.1, n=-3),
    lambda mm, ctx: run_apmc(mm, ctx, A.Finally_(None, GOAL), delta=0.1, n=0),
    lambda mm, ctx: run_reward_ci(mm, ctx, "R", A.Cumul(A.Lit(3)), n=0),
])
def test_sample_count_must_be_positive(run):
    mm, ctx = chain30()
    with pytest.raises(SmcError, match="at least 1"):
        run(mm, ctx)


def test_complex_keys_order_by_state_then_weight():
    # the successor search rests on numpy ordering complex numbers by real
    # part, then imaginary part, with exact comparisons
    big = float(2 ** 40)
    c = 0.3
    keys = np.array([big - 1 + 1j, big + c * 1j, big + np.nextafter(c, 1) * 1j, big + 1j,
                     big + 1 + 0.5j])
    queries = np.array([big + np.nextafter(c, 0) * 1j, big + c * 1j,
                        big + np.nextafter(c, 1) * 1j, big + 0.999j, big + 1 + 0j])
    assert keys.searchsorted(queries, "right").tolist() == [1, 2, 3, 3, 4]
    # equal to a searchsorted within each state's own row
    rng = np.random.default_rng(1)
    rows = [np.sort(rng.random(rng.integers(1, 6))) for _ in range(50)]
    for row in rows:
        row[-1] = 1.0
    start = np.cumsum([0] + [len(row) for row in rows])
    flat = np.concatenate(rows)
    key = np.repeat(np.arange(50), np.diff(start)) + 1j * flat
    states = rng.integers(0, 50, 500)
    u = np.where(rng.random(500) < 0.2, flat[start[states]], rng.random(500))
    query = np.empty(500, dtype=complex)
    query.real, query.imag = states, u
    want = [start[s] + np.searchsorted(rows[s], x, side="right") for s, x in zip(states, u)]
    assert key.searchsorted(query, "right").tolist() == want


def test_empty_horizons_decide_at_the_initial_state():
    mm, ctx = chain30()
    not_goal = A.Unary("not", GOAL)
    for path, want in [(A.Globally(A.Bound("<", A.Lit(0)), not_goal), 1.0),
                       (A.Finally_(A.Bound("<", A.Lit(0)), not_goal), 0.0)]:
        est = run_ci(mm, ctx, path, alpha=0.05, n=20, seed=1)
        assert (est.point, est.path_len_max, est.cap_hits) == (want, 0, 0)
    mm.rewards["R"] = RewardStructure("R", [Fraction(1)] * 3, {})
    est = run_reward_ci(mm, ctx, "R", A.Cumul(A.Lit(-1)), n=20, seed=1, pathlen=5)
    assert (est.point, est.path_len_max, est.cap_hits) == (0.0, 0, 0)


def test_uniform_equal_to_a_cumulative_weight_moves_past_it():
    # the first branch's weight is exactly the first uniform of sample 0
    u = oracles.reference_rng(6, 0).random()
    moves = [[Move("a", ((Fraction(u), 1), (1 - Fraction(u), 2)))],
             [Move("l", ((Fraction(1), 1),))],
             [Move("l", ((Fraction(1), 2),))]]
    mm = MarkovModel("dtmc", ("x",), [(0,), (1,), (2,)], moves, [False] * 3, [False] * 3)
    path, sample = simulate(mm, StubContext(("x",)), seed=6, pathlen=5,
                            path=A.Next(var_eq("x", 2)))
    assert (path.entries, sample) == ([(0, "a", 2)], 1)
    reached, _, _ = oracles.reference_path(mm, oracles.reference_rng(6, 0), 5,
                                           lambda s, t, a: s if t == 1 else None)
    assert reached == 2


# --- on-the-fly expansion ---------------------------------------------------------


def lazy_copy(mm):
    """A model that expands the states of the complete model `mm` on demand,
    numbering them in the order it meets them."""
    index = {st: s for s, st in enumerate(mm.states)}

    def successors(state):
        s = index[state]
        return ([(mv.action, mv.tags, [(p, mm.states[d]) for p, d in mv.branches])
                 for mv in mm.moves[s]], mm.deadlock[s], mm.quiescent[s])

    return MarkovModel.open(mm.kind, mm.var_names, mm.states[mm.initial], successors)


def _state_reward(ctx, guard, value):
    """A context whose spec declares the state reward R = value where guard."""
    ctx.spec = P.SpecAst([P.RewardsDecl("R", [P.RewardItem(None, guard, value)])])
    return ctx


def _lazy_and_full_models(srw_small):
    closed, srw = srw_small
    yield (srw, open_markov(closed), closed, parse_expression("SRWMod::SRWRP::x >= -1"),
           parse_expression("SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck"),
           "R_origins")
    x = A.Ref(A.QName(("x",)))
    mm, ctx = chain30()
    yield mm, lazy_copy(mm), _state_reward(ctx, var_eq("x", 0), A.Lit(2)), \
        A.Unary("not", var_eq("x", 2)), GOAL, "R"
    rnd = oracles.random_dtmc(random.Random(4), 25)
    yield rnd, lazy_copy(rnd), _state_reward(StubContext(("x",)), A.Lit(True), x), \
        A.Binary("<", x, A.Lit(18)), var_in("x", [3, 7, 11, 19]), "R"
    wide, ctx = wide_row_dtmc()
    yield wide, lazy_copy(wide), _state_reward(ctx, A.Binary("<", x, A.Lit(30)), x), \
        A.Binary("<", x, A.Lit(45)), var_in("x", [2, 23]), "R"
    three, ctx = multi_move_dtmc()
    yield three, lazy_copy(three), _state_reward(ctx, A.Lit(True), A.Lit(1)), \
        A.Unary("not", var_eq("x", 2)), var_in("x", [1, 3]), "R"


@pytest.mark.parametrize("pathlen", [3, 1000])
def test_lazy_expansion_samples_equal_full_build(srw_small, pathlen):
    n = 300
    smaller = 0
    for full, lazy, ctx, p, q, rname in _lazy_and_full_models(srw_small):
        for kind, path, _, _, k in _shapes(p, q):
            streams = [_SampleStream(mm, ctx, path, 13, pathlen) for mm in (full, lazy)]
            got = [[x for batch in stream.batches(n) for x in batch] for stream in streams]
            assert got[0] == got[1], (kind, k)
            assert streams[0].stats(n) == streams[1].stats(n), (kind, k)
        for seed in range(5):
            walks = []
            for mm in (full, lazy):
                sim, sample = simulate(mm, ctx, seed, pathlen, A.Finally_(None, q))
                walks.append(([(mm.states[s], tag, mm.states[d]) for s, tag, d in sim.entries],
                              sim.terminal, sample))
            assert walks[0] == walks[1]
        target = A.Binary("\\/", q, A.Unary("not", p))
        for rpath in (A.Cumul(A.Lit(4)), A.Reachable(target)):
            ests = [run_reward_ci(mm, ctx, rname, rpath, n=n, seed=13, pathlen=pathlen)
                    for mm in (full, lazy)]
            assert ests[0] == ests[1], rpath
        assert full.num_states == len(full.order)
        smaller += len(lazy.order) < full.num_states
    assert smaller  # some paths never reach every state


def test_lazy_srw_matches_the_full_build_and_grows_only_where_paths_go(srw_model, srw_spec):
    closed, full = make_srw(srw_model, srw_spec, maxdist=6, maxsteps=40)
    lazy = open_markov(closed)
    goal = parse_expression("SRWMod::SRWRP::x == 3")
    runs = [run_ci(mm, closed, A.Finally_(A.Bound("<=", A.Lit(30)), goal), alpha=0.05,
                   n=500, seed=4) for mm in (full, lazy)]
    assert runs[0] == runs[1]
    assert 0 < len(lazy.order) < full.num_states / 4
    # every state a path stood on is expanded, and the sample table has one
    # row per expanded state
    table = lazy.sample_table()
    assert table.absorbing.size == len(lazy.order) == table.bounds.size - 1
    assert sorted(np.flatnonzero(table.row >= 0)) == sorted(lazy.order)
    # expanding the rest gives the full build, state for state
    lazy.expand_all()
    remap = {st: s for s, st in enumerate(full.states)}
    for s, st in enumerate(lazy.states):
        want = {(p, full.states[d]) for mv in full.moves[remap[st]] for p, d in mv.branches}
        assert {(p, lazy.states[d]) for mv in lazy.moves[s] for p, d in mv.branches} == want


def test_state_cap_applies_to_the_states_paths_discover(srw_small):
    closed, _ = srw_small
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    with pytest.raises(BuildError, match="state-space cap of 12 states"):
        run_ci(open_markov(closed, max_states=12), closed, A.Finally_(None, stuck),
               alpha=0.05, n=100, seed=0)
    # a cap above the states that short paths discover is not reached
    est = run_ci(open_markov(closed, max_states=12), closed, A.Next(stuck), alpha=0.05,
                 n=100, seed=0)
    assert est.n == 100


def test_cli_smc_exceeds_max_states_as_a_build_error(tmp_path, capsys):
    from rcprob.cli import main
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    rcp = tmp_path / "cap.rcp"
    rcp.write_text("""
    label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
    constants C_all:
      SRWMod::SRWRP::MaxDist set to 2,
      SRWMod::SRWRP::MaxSteps set to 4, and
      SRWMod::SRWRP::Pl set to 0.5
    defs D_all:
      pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
      pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
      pfunction Update(v, maxv, origin) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
    prob property P_sim:
      Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=50
      with constants C_all
      with definitions D_all
    """)
    argv = ["check", os.path.join(fixtures, "srw.rcm"), str(rcp), "--engine", "smc",
            "--kind", "dtmc", "--out", str(tmp_path / "out")]
    assert main(argv + ["--max-states", "10"]) == 2
    assert "state-space cap of 10 states exceeded" in capsys.readouterr().err
    assert main(argv) == 0


def _bad_distribution_dtmc():
    """s0 -> s1 (target, absorbing) or s2, each 1/2; s2 -> s3, whose only
    move sums to 9/10."""
    half = Fraction(1, 2)
    moves = [[Move("a", ((half, 1), (half, 2)))],
             [Move("l", ((Fraction(1), 1),))],
             [Move("b", ((Fraction(1), 3),))],
             [Move("c", ((Fraction(9, 10), 3),))]]
    return MarkovModel("dtmc", ("x",), [(i,) for i in range(4)], moves, [False] * 4,
                       [False] * 4)


def test_bad_distribution_is_fatal_on_the_states_paths_reach():
    mm = _bad_distribution_dtmc()
    with pytest.raises(BuildError, match="sum to 9/10"):
        mm.check_stochastic()
    ctx = StubContext(("x",))
    with pytest.raises(BuildError, match="sum to 9/10"):
        run_ci(lazy_copy(mm), ctx, A.Finally_(None, GOAL), alpha=0.05, n=20, seed=0)
    # within one step no path leaves s2, so s3 is never expanded or checked
    lazy = lazy_copy(mm)
    est = run_ci(lazy, ctx, A.Finally_(A.Bound("<=", A.Lit(1)), GOAL), alpha=0.05, n=20,
                 seed=0)
    assert 0 < est.point < 1 and sorted(lazy.order) == [0, 1, 2]
    with pytest.raises(BuildError, match="sum to 9/10"):
        lazy.expand_all()


def test_nested_probability_operand_expands_the_whole_model(srw_small, monkeypatch):
    from rcprob.exact import ExactChecker
    solves = []
    prob_path = ExactChecker.prob_path
    monkeypatch.setattr(ExactChecker, "prob_path",
                        lambda self, *args: solves.append(self.n) or prob_path(self, *args))
    closed, full = srw_small
    likely = parse_expression("Prob>=0.8 of [Finally SRWMod::SRWRP::x == 2]")
    path = A.Finally_(None, likely)
    lazy = open_markov(closed)
    runs = [run_ci(mm, closed, path, alpha=0.05, n=300, seed=8) for mm in (full, lazy)]
    assert runs[0] == runs[1]
    assert 0 < runs[0].point < 1
    assert len(lazy.order) == lazy.num_states == full.num_states
    # solved once per model, over the whole model
    assert solves == [full.num_states] * 2


def test_bounded_finally_decides_at_its_bound():
    # a two-state cycle that never reaches x == 2
    moves = [[Move("a", ((Fraction(1), 1),))], [Move("b", ((Fraction(1), 0),))]]
    mm = MarkovModel("dtmc", ("x",), [(0,), (1,)], moves, [False] * 2, [False] * 2)
    ctx = StubContext(("x",))
    for path in (A.Finally_(A.Bound("<=", A.Lit(4)), var_eq("x", 2)),
                 A.Until(A.Lit(True), A.Bound("<=", A.Lit(4)), var_eq("x", 2))):
        est = run_ci(mm, ctx, path, alpha=0.05, n=30, seed=0, pathlen=4)
        assert (est.point, est.cap_hits, est.path_len_max) == (0.0, 0, 4)
    est = run_ci(mm, ctx, A.Finally_(A.Bound("<=", A.Lit(4)), var_eq("x", 0)),
                 alpha=0.05, n=30, seed=0, pathlen=4)
    assert (est.point, est.path_len_max) == (1.0, 0)


def test_ci_solve_for_alpha_without_spread_uses_hoeffding():
    mm, ctx = chain30()
    ones = MarkovModel("dtmc", ("x",), mm.states, mm.moves, mm.deadlock, mm.quiescent,
                       initial=1)
    for run in (run_ci, run_aci):
        est = run(ones, ctx, A.Finally_(None, GOAL), w=0.1, n=50, seed=0)
        assert est.point == 1.0
        assert est.alpha == pytest.approx(2 * math.exp(-2 * 50 * 0.1 ** 2))
        assert run(ones, ctx, A.Finally_(None, GOAL), w=0.01, n=5, seed=0).alpha == 1.0


def _coverage_models():
    mm, ctx = chain30()
    yield mm, ctx, A.Finally_(None, GOAL)
    rnd = oracles.random_dtmc(random.Random(11), 20)
    yield rnd, StubContext(("x",)), A.Finally_(None, var_in("x", [2, 5, 9]))


def test_sequential_interval_covers_the_exact_value():
    from rcprob.exact import prob_path
    alpha, w, seeds = 0.05, 0.06, 200
    # a binomial slack of three standard deviations below 1 - alpha
    floor = 1 - alpha - 3 * math.sqrt(alpha * (1 - alpha) / seeds)
    for mm, ctx, path in _coverage_models():
        exact = prob_path(mm, ctx, path)[mm.initial]
        assert 0.05 < exact < 0.95
        covered = 0
        for seed in range(seeds):
            est = run_ci(mm, ctx, path, w=w, alpha=alpha, seed=seed)
            assert est.half_width <= w
            covered += abs(est.point - exact) <= est.half_width
        assert covered / seeds >= floor, (covered, exact)
        # ACI stops by the same rule
        aci = run_aci(mm, ctx, path, w=w, alpha=alpha, seed=seed)
        assert (aci.point, aci.n, aci.half_width) == (est.point, est.n, est.half_width)
