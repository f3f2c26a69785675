import itertools
import math
import os
import random
import statistics
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from rcprob import ast as A
from rcprob import props as P
from rcprob.build import (BuildError, MarkovModel, SampleTable, WeightTable, attach_rewards,
                          open_markov)
from rcprob.exact import ExactChecker, check_property, expected_reward
from rcprob.props import parse_expression
from rcprob.smc import (SamplePool, SmcError, _Lane, _select, _walk, apmc_samples, ci_stop,
                        compile_monitor, normal_quantile, philox_uniforms, run_aci, run_apmc,
                        run_ci, run_reward_ci, run_sprt, simulate, sprt_rule)

import oracles
from conftest import make_srw
from oracles import (Move, all_moves, explicit_model, move_rewards_of, moves_of,
                     reward_structure, var_eq, var_in)


def chain30():
    """s0 -> goal with p=0.3, sink with p=0.7; both absorbing."""
    moves = [
        [Move("a", ((Fraction(3, 10), 1), (Fraction(7, 10), 2)))],
        [Move("loop", ((Fraction(1), 1),))],
        [Move("loop", ((Fraction(1), 2),))],
    ]
    return explicit_model("dtmc", ("x",), [(0,), (1,), (2,)], moves, [False, True, True])


GOAL = var_eq("x", 1)


def test_normal_quantile_accuracy():
    for p in (0.0005, 0.01, 0.025, 0.2, 0.5, 0.8, 0.975, 0.99, 0.9999):
        assert normal_quantile(p) == pytest.approx(scipy_stats.norm.ppf(p), abs=1e-7)


def test_simulate_deterministic_and_decided():
    mm = chain30()
    path, sample = simulate(mm, seed=5, pathlen=100, path=A.Finally_(None, GOAL))
    assert sample in (0, 1)
    assert path.terminal == "bound-hit"
    again, sample2 = simulate(mm, seed=5, pathlen=100, path=A.Finally_(None, GOAL))
    assert sample2 == sample and again.entries == path.entries


def test_simulate_globally_on_absorbing():
    mm = chain30()
    phi = A.Unary("not", GOAL)  # holds in s0 and the sink
    path, sample = simulate(mm, seed=1, pathlen=50, path=A.Globally(None, phi))
    assert sample in (0, 1)
    # a path absorbed in the sink satisfies G(not goal) and decides there
    results = {simulate(mm, seed=s, pathlen=50,
                        path=A.Globally(None, phi))[1] for s in range(30)}
    assert results == {0, 1}


def test_simulate_rejects_mdp():
    mm = chain30()
    mm.kind = "mdp"
    with pytest.raises(SmcError, match="kind=dtmc"):
        simulate(mm, seed=0, pathlen=10, path=A.Finally_(None, GOAL))


def test_simulate_srw_fixture_deterministic(srw_small):
    closed, mm = srw_small
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    runs = [simulate(mm, seed=9, pathlen=500, path=A.Finally_(None, stuck))
            for _ in range(3)]
    assert all(r[0].entries == runs[0][0].entries for r in runs)
    assert all(r[1] == runs[0][1] for r in runs)


def test_ci_alpha_n():
    mm = chain30()
    est = run_ci(SamplePool(mm, 0), A.Finally_(None, GOAL), alpha=0.01, n=100)
    assert est.n == 100
    assert est.method == "CI"
    assert 0.0 <= est.point <= 1.0
    assert est.half_width > 0


def test_ci_degenerate_variance():
    mm = chain30()
    # goal always reached from the goal state itself: all samples 1
    mm2 = explicit_model("dtmc", ("x",), mm.states, all_moves(mm), mm.deadlock, initial=1)
    est = run_ci(SamplePool(mm2, 0), A.Finally_(None, GOAL), alpha=0.05, n=40)
    assert est.point == 1.0
    assert est.half_width == 0.0


def test_ci_solve_for_n():
    mm = chain30()
    est = run_ci(SamplePool(mm, 3), A.Finally_(None, GOAL), w=0.15, alpha=0.1)
    assert est.half_width <= 0.15
    assert est.n >= 2


def test_ci_solve_for_alpha():
    mm = chain30()
    est = run_ci(SamplePool(mm, 1), A.Finally_(None, GOAL), w=0.1, n=200)
    assert 0.0 <= est.alpha <= 1.0


def test_ci_needs_two_parameters():
    mm = chain30()
    with pytest.raises(SmcError, match="exactly two"):
        run_ci(SamplePool(mm, 0), A.Finally_(None, GOAL), alpha=0.05)
    with pytest.raises(SmcError, match="exactly two"):
        run_ci(SamplePool(mm, 0), A.Finally_(None, GOAL), w=0.1, alpha=0.05, n=10)


def test_aci_student_t_path():
    mm = chain30()
    est = run_aci(SamplePool(mm, 0), A.Finally_(None, GOAL), alpha=0.05, n=30)
    assert est.method == "ACI"
    # t quantile exceeds the normal one, so the ACI interval is wider than a
    # CI of the same data whenever the variance estimates agree roughly
    ci = run_ci(SamplePool(mm, 0), A.Finally_(None, GOAL), alpha=0.05, n=30)
    assert est.point == ci.point
    assert est.n == 30


def test_aci_all_ones_degenerate():
    mm = chain30()
    mm2 = explicit_model("dtmc", ("x",), mm.states, all_moves(mm), mm.deadlock, initial=1)
    est = run_aci(SamplePool(mm2, 0), A.Finally_(None, GOAL), alpha=0.05, n=30)
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
    mm = chain30()
    est = run_apmc(SamplePool(mm, 0), A.Finally_(None, GOAL), n=1060, delta=0.01)
    expected_eps = math.sqrt(math.log(2 / 0.01) / (2 * 1060))
    assert est.epsilon == pytest.approx(expected_eps, abs=1e-6)
    est = run_apmc(SamplePool(mm, 0), A.Finally_(None, GOAL), n=500, epsilon=0.05)
    assert est.delta == pytest.approx(2 * math.exp(-2 * 500 * 0.05 ** 2), abs=1e-9)


def test_apmc_runs_with_bound():
    mm = chain30()
    est = run_apmc(SamplePool(mm, 0), A.Finally_(None, GOAL), epsilon=0.05, delta=0.01)
    assert est.n == 1060
    assert abs(est.point - 0.3) < 0.06


def test_sprt_decisions():
    mm = chain30()
    # true probability 0.3 tested against >= 0.5: overwhelmingly accept-H1
    wrong = 0
    for seed in range(100):
        est = run_sprt(SamplePool(mm, seed), A.Finally_(None, GOAL),
                       A.Bound(">=", A.Lit(Fraction(1, 2))), theta=0.5, alpha=0.01, delta=0.05)
        if est.decision != "accept-H1" or est.satisfied:
            wrong += 1
    assert wrong <= 1
    # tested against >= 0.1: accept-H0
    wrong = 0
    for seed in range(100):
        est = run_sprt(SamplePool(mm, seed), A.Finally_(None, GOAL),
                       A.Bound(">=", A.Lit(Fraction(1, 10))), theta=0.1, alpha=0.01, delta=0.05)
        if est.decision != "accept-H0" or not est.satisfied:
            wrong += 1
    assert wrong <= 1


def test_sprt_upper_bound_direction():
    mm = chain30()
    est = run_sprt(SamplePool(mm, 0), A.Finally_(None, GOAL),
                   A.Bound("<=", A.Lit(Fraction(1, 2))), theta=0.5, alpha=0.01, delta=0.05)
    assert est.satisfied  # 0.3 <= 0.5


def test_sprt_terminates_inside_indifference():
    mm = chain30()
    est = run_sprt(SamplePool(mm, 0), A.Finally_(None, GOAL),
                   A.Bound(">=", A.Lit(Fraction(3, 10))), theta=0.3, alpha=0.05, delta=0.05)
    assert est.decision in ("accept-H0", "accept-H1")


def test_sprt_bad_region():
    mm = chain30()
    with pytest.raises(SmcError, match="leaves"):
        run_sprt(SamplePool(mm, 0), A.Finally_(None, GOAL), A.Bound(">=", A.Lit(0)),
                 theta=0.0, alpha=0.01, delta=0.05)


def test_pathlen_censoring_counted(srw_default):
    closed, mm = srw_default
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    est = run_ci(SamplePool(mm, 0), A.Finally_(None, stuck), alpha=0.05, n=50,
                 pathlen=5)
    assert est.cap_hits == 50  # nothing decides within 5 steps
    assert est.point == 0.0   # censored F samples count as 0


def test_partitioned_reproducibility():
    mm = chain30()
    a = run_ci(SamplePool(mm, 7), A.Finally_(None, GOAL), alpha=0.05, n=200)
    b = run_ci(SamplePool(mm, 7), A.Finally_(None, GOAL), alpha=0.05, n=200)
    assert a.point == b.point and a.half_width == b.half_width
    c = run_ci(SamplePool(mm, 8), A.Finally_(None, GOAL), alpha=0.05, n=200)
    assert c.point != a.point or c.half_width != a.half_width


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_64_bits_is_refused(seed):
    mm = chain30()
    with pytest.raises(SmcError, match="seed must lie in"):
        run_ci(SamplePool(mm, seed), A.Finally_(None, GOAL), alpha=0.05, n=10)


def test_reward_simulation_geometric():
    from fractions import Fraction as Fr
    from rcprob.smc import run_reward_ci
    mm = explicit_model("dtmc", ("x",), [(0,), (1,)], [
        [Move("a", ((Fr(1, 2), 1), (Fr(1, 2), 0)))],
        [Move("loop", ((Fr(1), 1),))],
    ], [False, True])
    reward_structure(mm, "R", [1, 0])
    est = run_reward_ci(SamplePool(mm, 0), "R", A.Reachable(var_eq("x", 1)),
                        alpha=0.05, n=3000)
    assert abs(est.point - 2.0) < 0.15
    est2 = run_reward_ci(SamplePool(mm, 1), "R", A.Cumul(A.Lit(3)), alpha=0.05, n=2000)
    # expected cumulative reward over 3 steps: 1 + 1/2 + 1/4
    assert abs(est2.point - 1.75) < 0.1


# --- differential tests against the one-path-at-a-time reference sampler ---------------


def _sat(mm, expr):
    fn = mm.closed.spec_expr(expr)
    return [bool(fn(st)) for st in mm.states]


def _bound(k):
    return None if k is None else A.Bound("<=", A.Lit(k))


def _shapes(p, q):
    """(kind, path formula, left, right, step bound) of every simulable shape."""
    out = [("X", A.Next(q), None, q, None)]
    for k in (None, 3, -1):
        out += [("F", A.Finally_(_bound(k), q), None, q, k),
                ("G", A.Globally(_bound(k), p), None, p, k),
                ("U", A.Until(p, _bound(k), q), p, q, k),
                ("W", A.WeakUntil(p, _bound(k), q), p, q, k),
                # q releases p: p holds up to and including the first q
                ("R", A.Release(q, _bound(k), p), q, p, k)]
    return out


def _reference(mm, kind, left, right, k, seed, pathlen):
    """The reference sampler's samples in index order: (0/1 sample, steps
    taken, whether the path hit the pathlen cap)."""
    stop = oracles.reference_monitor(kind, left and _sat(mm, left), _sat(mm, right), k)
    for i in itertools.count():
        value, steps, _ = oracles.reference_path(mm, oracles.reference_rng(seed, i),
                                                 pathlen, stop)
        if value is None:
            # an undecided path has kept the safety operators G, W and R so far
            yield (1 if kind in ("G", "W", "R") else 0), steps, True
        else:
            yield value, steps, False


def _walked(mm, path, seed, pathlen, n):
    """Samples 0 .. n-1 of `path` walked as one lane: the 0/1 samples, a
    censored path counted as its monitor's `censor_value`, and the path
    statistics of the tally of the same lane in a pool."""
    lane = _Lane(compile_monitor(ExactChecker(mm), path), pathlen)
    [(value, capped, _, _)] = _walk(mm, seed, np.arange(n), [lane])
    value[capped] = lane.monitor.censor_value
    tally = SamplePool(mm, seed).lane(path, pathlen, n).tally
    assert tally.total == np.count_nonzero(value)
    return value.astype(int).tolist(), tally.fields()


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
    return explicit_model("dtmc", ("x",), [(i,) for i in range(n)], moves,
                          [s % 10 == 9 for s in range(n)])


def _single_move_models(srw_small):
    closed, srw = srw_small
    yield (srw, parse_expression("SRWMod::SRWRP::x >= -1"),
           parse_expression(
               "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck"))
    yield chain30(), A.Unary("not", var_eq("x", 2)), GOAL
    # branches in random destination order
    rnd = oracles.random_dtmc(random.Random(4), 25)
    yield rnd, A.Binary("<", A.Ref(A.QName(("x",))), A.Lit(18)), var_in("x", [3, 7, 11, 19])
    # rows of 40 entries
    yield wide_row_dtmc(), A.Binary("<", A.Ref(A.QName(("x",))), A.Lit(45)), var_in("x", [2, 23])


@pytest.mark.parametrize("pathlen", [3, 1000])
def test_samples_match_reference_on_single_move_models(srw_small, pathlen):
    n = 150
    checked = caps = 0
    for mm, p, q in _single_move_models(srw_small):
        assert all(len(row) == 1 for row in all_moves(mm))
        for kind, path, left, right, k in _shapes(p, q):
            got, stats = _walked(mm, path, 11, pathlen, n)
            want = list(itertools.islice(
                _reference(mm, kind, left, right, k, 11, pathlen), n))
            assert got == [value for value, _, _ in want], (kind, k)
            lengths = [steps for _, steps, _ in want]
            caps += sum(capped for _, _, capped in want)
            assert stats == {
                "cap_hits": sum(capped for _, _, capped in want),
                "path_len_mean": sum(lengths) / n, "path_len_max": max(lengths)}, (kind, k)
            checked += 1
    assert checked == 64
    assert (caps > 0) == (pathlen == 3)


def test_rewards_match_reference_on_single_move_models(srw_small):
    closed, mm = srw_small
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    target = _sat(mm, stuck)
    cases = [(A.Cumul(A.Lit(15)), lambda s, t, a: 0 if t >= 15 else None),
             (A.Reachable(stuck), lambda s, t, a: 0 if target[s] or a else None)]
    for rpath, stop in cases:
        est = run_reward_ci(SamplePool(mm, 2), "R_origins", rpath, n=300, pathlen=40)
        decl = closed.spec.find(P.RewardsDecl, "R_origins")
        rs = attach_rewards(mm, decl).rewards["R_origins"]
        values = []
        for i in range(300):
            _, _, steps = oracles.reference_path(mm, oracles.reference_rng(2, i), 40, stop)
            acc = 0.0
            for s, j in steps:
                r = mm.row_of[s]
                acc += rs.state[r] + rs.move[mm.first_move[r] + j]
            values.append(acc)
        assert est.point == float(np.array(values).mean())
        assert est.point > 0


def test_rewards_match_reference_on_rows_of_several_moves():
    # a path gains its state's reward plus that of the move it takes, which
    # the rows mix uniformly: each move of a row has a reward of its own
    models = [multi_move_dtmc()]
    for seed in (3, 6, 8):  # the initial state mixes several moves
        mdp = oracles.random_mdp(random.Random(seed), 30, max_nondet_states=20)
        models.append(explicit_model("dtmc", mdp.var_names, mdp.states, all_moves(mdp),
                                     mdp.deadlock))
    goal = var_in("x", [1, 2, 3])
    later_moves = 0
    for mm in models:
        rows = all_moves(mm)
        assert max(len(row) for row in rows) > 1
        rng = random.Random(len(rows))
        rs = reward_structure(mm, "R", [rng.randint(0, 3) for _ in rows],
                              {(s, j): rng.randint(1, 9) / 4 for s, row in enumerate(rows)
                               for j in range(len(row))})
        target = _sat(mm, goal)
        cases = [(A.Cumul(A.Lit(15)), lambda s, t, a: 0 if t >= 15 else None),
                 (A.Reachable(goal), lambda s, t, a: 0 if target[s] or a else None)]
        for rpath, stop in cases:
            est = run_reward_ci(SamplePool(mm, 2), "R", rpath, n=300, pathlen=40)
            values = []
            for i in range(300):
                _, _, steps = oracles.reference_path(mm, oracles.reference_rng(2, i), 40, stop)
                acc = 0.0
                for s, j in steps:
                    r = mm.row_of[s]
                    acc += rs.state[r] + rs.move[mm.first_move[r] + j]
                    later_moves += j > 0
                values.append(acc)
            assert est.point == float(np.array(values).mean()), rpath
            assert est.point > 0
    assert later_moves > 0


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
        return _reference(mm, "F", None, goal, None, seed, pathlen)

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
    est = run_ci(SamplePool(mm, seed), path, w=0.04, alpha=0.05, pathlen=pathlen)
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
    est = run_sprt(SamplePool(mm, seed), path, A.Bound(">=", A.Lit(theta)), theta=theta,
                   alpha=alpha, delta=delta, pathlen=pathlen)
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
    return explicit_model("dtmc", ("x",), [(i,) for i in range(4)], moves, [False] * 4)


def test_multi_move_frequencies_match_mixture():
    mm = multi_move_dtmc()
    n = 3000
    succ = [round(run_ci(SamplePool(mm, 3), A.Next(var_eq("x", d)), alpha=0.05, n=n).point * n)
            for d in (1, 2, 3)]
    assert sum(succ) == n
    exact = [Fraction(1, 6), Fraction(5, 18), Fraction(5, 9)]
    assert scipy_stats.chisquare(succ, [float(p) * n for p in exact]).pvalue > 1e-3
    # one indicator reward per move: Cumul 1 counts the move taken first
    for j, name in enumerate("abc"):
        reward_structure(mm, name, [0] * 4, {(0, j): 1})
    taken = [round(run_reward_ci(SamplePool(mm, 3), name, A.Cumul(A.Lit(1)), n=n).point * n)
             for name in "abc"]
    assert sum(taken) == n
    assert scipy_stats.chisquare(taken, [n / 3] * 3).pvalue > 1e-3
    entries = [simulate(mm, seed=s, pathlen=1, path=A.Next(GOAL))[0].entries[0]
               for s in range(30)]
    assert {tag for _, tag, _ in entries} == {"a", "b", "c"}


@pytest.mark.parametrize("counter, key, words", [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
     (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1)),
])
def test_philox_oracle_gives_the_known_answers(counter, key, words):
    # the known-answer vectors that Random123 ships for Philox4x32-10
    assert oracles.philox4x32(counter, key) == words


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       samples=st.lists(st.integers(0, 2 ** 40), min_size=1, max_size=4),
       t0=st.one_of(st.integers(0, 40), st.integers(0, 2 ** 34)),
       steps=st.integers(1, 20))
def test_block_uniforms_equal_the_oracle(seed, samples, t0, steps):
    # a path's uniforms of a block of steps, drawn for every live path at
    # once, are the scalar stream of its (seed, sample) from the block's start
    got = philox_uniforms(seed, np.array(samples, dtype=np.int64), t0, steps)
    for i, row in zip(samples, got.tolist()):
        scalar = oracles.reference_rng(seed, i)
        scalar.t = t0
        assert row == [scalar.random() for _ in range(steps)]


def test_a_sequential_lane_reads_its_samples_in_order_and_keeps_sums(srw_small,
                                                                      monkeypatch):
    import rcprob.smc as smc
    closed, mm = srw_small
    goal = parse_expression("SRWMod::SRWRP::x == 2")
    path = A.Finally_(None, goal)
    sizes = []  # of each batch walked
    walk = smc._walk

    def counted(mm, seed, samples, lanes, trace=None):
        sizes.append(samples.size)
        return walk(mm, seed, samples, lanes, trace)

    monkeypatch.setattr(smc, "_walk", counted)
    stop = ci_stop("CI", w=0.033, alpha=0.05)
    tally = SamplePool(mm, 3).lane(path, 12, stop).tally
    # the reference samples up to the first whose Wilson interval is narrow
    # enough, into the fourth batch
    want, total = [], 0
    for value, steps, capped in _reference(mm, "F", None, goal, None, 3, 12):
        want.append((value, steps, capped))
        total += value
        if smc._wilson_half_width(stop.z, total, len(want)) <= 0.033:
            break
    used = len(want)
    assert 64 + 128 + 256 < used <= 64 + 128 + 256 + 512
    assert sizes == [64, 128, 256, 512]
    assert (tally.stopped, tally.count, tally.total) == (True, used, total)
    lengths = [steps for _, steps, _ in want]
    assert tally.fields() == {
        "cap_hits": sum(capped for _, _, capped in want),
        "path_len_mean": sum(lengths) / used, "path_len_max": max(lengths)}
    # a 0/1 lane's tally keeps sums, not per-path arrays
    assert tally.gains == []
    assert all(np.ndim(v) == 0 for k, v in vars(tally).items() if k != "gains")


@pytest.mark.parametrize("run", [
    lambda pool: run_ci(pool, A.Finally_(None, GOAL), alpha=0.05, n=0),
    lambda pool: run_aci(pool, A.Finally_(None, GOAL), w=0.1, n=-3),
    lambda pool: run_apmc(pool, A.Finally_(None, GOAL), delta=0.1, n=0),
    lambda pool: run_reward_ci(pool, "R", A.Cumul(A.Lit(3)), n=0),
    # the Student-t quantile of ACI needs n - 1 >= 1 degrees of freedom
    lambda pool: run_aci(pool, A.Finally_(None, GOAL), alpha=0.05, n=1),
])
def test_sample_count_must_be_positive(run):
    with pytest.raises(SmcError, match="the sample count n must be at least [12]"):
        run(SamplePool(chain30(), 0))


def test_selection_within_a_row_equals_a_search_of_the_row():
    # rows of widths 1 to 64 of sorted cumulative weights, the last 1.0; each
    # row is tried at u = 0, at each inner cumulative weight, which the path
    # moves past, and at the largest uniform below 1
    rng = np.random.default_rng(5)
    rows = []
    for width in range(1, 65):
        row = np.sort(rng.random(width))
        row[-1] = 1.0
        rows.append(row)
    first = np.cumsum([0] + [row.size for row in rows])
    table = SampleTable(first[:-1], np.concatenate(rows), np.zeros(first[-1], dtype=np.int64),
                        np.zeros(len(rows), dtype=bool))
    at, us, want = [], [], []
    for r, row in enumerate(rows):
        for u in [0.0, *row[:-1], 1.0 - 2.0 ** -53]:
            at.append(r)
            us.append(u)
            want.append(first[r] + np.searchsorted(row, u, "right"))
    # the rows in a shuffled order, so that paths of every width walk together
    order = rng.permutation(len(at))
    at, us = np.array(at)[order], np.array(us)[order]
    assert len(at) == sum(range(1, 65)) + 64
    assert _select(table, at, us).tolist() == np.array(want)[order].tolist()


def test_empty_horizons_decide_at_the_initial_state():
    from rcprob.exact import prob_path
    mm = chain30()
    not_goal = A.Unary("not", GOAL)
    for path, want in [(A.Globally(A.Bound("<", A.Lit(0)), not_goal), 1.0),
                       (A.Globally(A.Bound("<", A.Lit(0)), GOAL), 1.0),
                       (A.Finally_(A.Bound("<", A.Lit(0)), not_goal), 0.0)]:
        assert prob_path(mm, path)[mm.initial] == want
        est = run_ci(SamplePool(mm, 1), path, alpha=0.05, n=20)
        assert (est.point, est.path_len_max, est.cap_hits) == (want, 0, 0)
    reward_structure(mm, "R", [1] * 3)
    est = run_reward_ci(SamplePool(mm, 1), "R", A.Cumul(A.Lit(-1)), n=20, pathlen=5)
    assert (est.point, est.path_len_max, est.cap_hits) == (0.0, 0, 0)


def test_uniform_equal_to_a_cumulative_weight_moves_past_it():
    # the first branch's weight is exactly the first uniform of sample 0
    u = oracles.reference_rng(6, 0).random()
    moves = [[Move("a", ((Fraction(u), 1), (1 - Fraction(u), 2)))],
             [Move("l", ((Fraction(1), 1),))],
             [Move("l", ((Fraction(1), 2),))]]
    mm = explicit_model("dtmc", ("x",), [(0,), (1,), (2,)], moves, [False] * 3)
    path, sample = simulate(mm, seed=6, pathlen=5,
                            path=A.Next(var_eq("x", 2)))
    assert (path.entries, sample) == ([(0, "a", 2)], 1)
    reached, _, _ = oracles.reference_path(mm, oracles.reference_rng(6, 0), 5,
                                           lambda s, t, a: s if t == 1 else None)
    assert reached == 2


# --- on-the-fly expansion ---------------------------------------------------------


def lazy_copy(mm):
    """A model that expands the states of the complete model `mm` on demand,
    numbering them in the order it meets them."""
    return explicit_model(mm.kind, mm.var_names, mm.states, all_moves(mm), mm.deadlock,
                          mm.initial, lazy=True, closed=mm.closed)


def _state_reward(mm, guard, value):
    """mm, whose spec declares the state reward R = value where guard."""
    mm.closed.spec = P.SpecAst([P.RewardsDecl("R", [P.RewardItem(None, guard, value)])])
    return mm


def _lazy_and_full_models(srw_small):
    closed, srw = srw_small
    yield (srw, open_markov(closed), parse_expression("SRWMod::SRWRP::x >= -1"),
           parse_expression("SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck"),
           "R_origins")
    x = A.Ref(A.QName(("x",)))
    mm = _state_reward(chain30(), var_eq("x", 0), A.Lit(2))
    yield mm, lazy_copy(mm), A.Unary("not", var_eq("x", 2)), GOAL, "R"
    rnd = _state_reward(oracles.random_dtmc(random.Random(4), 25), A.Lit(True), x)
    yield rnd, lazy_copy(rnd), A.Binary("<", x, A.Lit(18)), var_in("x", [3, 7, 11, 19]), "R"
    wide = _state_reward(wide_row_dtmc(), A.Binary("<", x, A.Lit(30)), x)
    yield wide, lazy_copy(wide), A.Binary("<", x, A.Lit(45)), var_in("x", [2, 23]), "R"
    three = _state_reward(multi_move_dtmc(), A.Lit(True), A.Lit(1))
    yield three, lazy_copy(three), A.Unary("not", var_eq("x", 2)), var_in("x", [1, 3]), "R"


@pytest.mark.parametrize("pathlen", [3, 1000])
def test_lazy_expansion_samples_equal_full_build(srw_small, pathlen):
    n = 300
    smaller = 0
    for full, lazy, p, q, rname in _lazy_and_full_models(srw_small):
        for kind, path, _, _, k in _shapes(p, q):
            got = [_walked(mm, path, 13, pathlen, n) for mm in (full, lazy)]
            assert got[0] == got[1], (kind, k)
        for seed in range(5):
            walks = []
            for mm in (full, lazy):
                sim, sample = simulate(mm, seed, pathlen, A.Finally_(None, q))
                walks.append(([(mm.states[s], tag, mm.states[d]) for s, tag, d in sim.entries],
                              sim.terminal, sample))
            assert walks[0] == walks[1]
        target = A.Binary("\\/", q, A.Unary("not", p))
        for rpath in (A.Cumul(A.Lit(4)), A.Reachable(target)):
            ests = [run_reward_ci(SamplePool(mm, 13), rname, rpath, n=n, pathlen=pathlen)
                    for mm in (full, lazy)]
            assert ests[0] == ests[1], rpath
        assert full.num_states == len(full.order)
        smaller += len(lazy.order) < full.num_states
    assert smaller  # some paths never reach every state


def test_lazy_srw_matches_the_full_build_and_grows_only_where_paths_go(srw_model, srw_spec):
    closed, full = make_srw(srw_model, srw_spec, maxdist=6, maxsteps=40)
    lazy = open_markov(closed)
    goal = parse_expression("SRWMod::SRWRP::x == 3")
    runs = [run_ci(SamplePool(mm, 4), A.Finally_(A.Bound("<=", A.Lit(30)), goal), alpha=0.05,
                   n=500) for mm in (full, lazy)]
    assert runs[0] == runs[1]
    assert 0 < len(lazy.order) < full.num_states / 4
    # every state a path stood on is expanded, and the store and the sample
    # table have one row per expanded state
    table = lazy.sample_table()
    assert table.absorbing.size == len(lazy.order) == lazy.first_move.size - 1
    assert sorted(np.flatnonzero(lazy.row_of >= 0)) == sorted(lazy.order)
    assert table.cum.size == table.move.size == lazy.dest.size == lazy.num_transitions()
    assert (table.first == lazy.first_branch[lazy.first_move[:-1]]).all()
    assert (table.move == lazy.first_branch.searchsorted(np.arange(lazy.dest.size), "right")
            - 1).all()
    # expanding the rest gives the full build, state for state
    lazy.expand_all()
    remap = {st: s for s, st in enumerate(full.states)}
    for s, st in enumerate(lazy.states):
        want = {(p, full.states[d]) for mv in moves_of(full, remap[st]) for p, d in mv.branches}
        assert {(p, lazy.states[d]) for mv in moves_of(lazy, s) for p, d in mv.branches} == want
    # and the same choice CSR, up to the numbering of states, though the
    # lazy model's rows are out of state order
    assert lazy.order != sorted(lazy.order)
    to_lazy = np.argsort([remap[st] for st in lazy.states])  # full state -> lazy state
    mat, bounds = lazy.choice_csr()
    want_mat, want_bounds = full.choice_csr()
    assert (np.diff(want_bounds) == np.diff(bounds)[to_lazy]).all()
    moves = np.concatenate([np.arange(bounds[s], bounds[s + 1]) for s in to_lazy])
    assert (want_mat != mat[moves][:, to_lazy]).nnz == 0
    for name in ("P_deadlock_free", "P_stuck", "P_stuck_not_origin", "R_stuck_not_origin"):
        prop = srw_spec.find(P.ProbProperty, name)
        got, want = (check_property(mm, prop).verdict for mm in (lazy, full))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), name


def test_rewards_on_rows_out_of_state_order_match_the_full_build(srw_model, srw_spec):
    closed, full = make_srw(srw_model, srw_spec, maxdist=6, maxsteps=40)
    lazy = open_markov(closed)
    # a reward simulation attaches R_origins (move rewards) to the part its
    # paths expand, and R_right (state rewards) is attached there too
    run_reward_ci(SamplePool(lazy, 4), "R_origins", A.Cumul(A.Lit(30)), n=20)
    right = P.parse_spec("rewards R_right = (SRWMod::SRWRP::x > 0) : 1; endrewards")
    for mm in (lazy, full):
        attach_rewards(mm, right.statements[0])
    assert lazy.rewards["R_right"].state.size == len(lazy.order) < full.num_states / 4
    for _ in range(3):  # the unexpanded states last found first
        lazy.expand(np.flatnonzero(lazy.row_of < 0)[::-1].tolist())
    lazy.expand_all()
    assert lazy.order != sorted(lazy.order)
    stuck = parse_expression("SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck "
                             "/\\ SRWMod::SRWRP::x != 0")
    index = {st: s for s, st in enumerate(full.states)}
    remap = [index[st] for st in lazy.states]  # lazy state -> full state
    for name in ("R_origins", "R_right"):
        for rpath in (A.Reachable(stuck), A.Cumul(A.Lit(25))):
            got, want = (expected_reward(mm, name, rpath, tol=1e-13)
                         for mm in (lazy, full))
            assert got == pytest.approx(want[remap], rel=1e-12, abs=1e-12), (name, rpath)
    # the exact engine covered the rest of the model; the choice CSR takes
    # store moves of differing rewards out of order
    origins = lazy.rewards["R_origins"]
    assert (origins.move[lazy.choice_moves] != origins.move).any()
    assert {(remap[s], mi): value for (s, mi), value in move_rewards_of(lazy, origins).items()} \
        == move_rewards_of(full, full.rewards["R_origins"]) != {}


def test_state_cap_applies_to_the_states_paths_discover(srw_small):
    closed, _ = srw_small
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    with pytest.raises(BuildError, match="state-space cap of 12 states"):
        run_ci(SamplePool(open_markov(closed, max_states=12), 0), A.Finally_(None, stuck),
               alpha=0.05, n=100)
    # an expansion that fails leaves no row of its batch behind
    lazy = open_markov(closed, max_states=12)
    with pytest.raises(BuildError, match="state-space cap of 12 states"):
        lazy.expand_all()
    assert lazy.order == lazy.move_action == [] and lazy.num_transitions() == 0
    # a cap above the states that short paths discover is not reached
    est = run_ci(SamplePool(open_markov(closed, max_states=12), 0), A.Next(stuck), alpha=0.05,
                 n=100)
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
    move sums to 9/10.  Expanded on demand, from s0."""
    half = Fraction(1, 2)
    moves = [[Move("a", ((half, 1), (half, 2)))],
             [Move("l", ((Fraction(1), 1),))],
             [Move("b", ((Fraction(1), 3),))],
             [Move("c", ((Fraction(9, 10), 3),))]]
    return explicit_model("dtmc", ("x",), [(i,) for i in range(4)], moves, [False] * 4,
                          lazy=True)


def test_bad_distribution_is_fatal_on_the_states_paths_reach():
    with pytest.raises(BuildError, match="sum to 9/10"):
        _bad_distribution_dtmc().expand_all()
    with pytest.raises(BuildError, match="sum to 9/10"):
        run_ci(SamplePool(_bad_distribution_dtmc(), 0), A.Finally_(None, GOAL), alpha=0.05, n=20)
    # within one step no path leaves s2, so s3 is never expanded or checked
    lazy = _bad_distribution_dtmc()
    est = run_ci(SamplePool(lazy, 0), A.Finally_(A.Bound("<=", A.Lit(1)), GOAL), alpha=0.05, n=20)
    assert 0 < est.point < 1 and sorted(lazy.order) == [0, 1, 2]
    with pytest.raises(BuildError, match="sum to 9/10"):
        lazy.expand_all()


def _capped_at_two_states():
    """s0, a deadlock, has a move to the new states s1 and s2; the model
    holds at most two states, so that expanding s0 fails at s2."""
    nodes = WeightTable()

    def successors(state):
        half = nodes.leaf(Fraction(1, 2))
        return [("a", frozenset(), [(half, (1,)), (half, (2,))])], True

    return MarkovModel("dtmc", ("x",), [(0,)], successors, nodes, max_states=2,
                       closed=oracles.StubContext(("x",)))


@pytest.mark.parametrize("make,first,error", [
    (_bad_distribution_dtmc, [0], "^state 3 action c: branch probabilities sum to 9/10$"),
    (_capped_at_two_states, [], "^state-space cap of 2 states exceeded$")],
    ids=["distribution", "state-cap"])
def test_a_failed_expansion_leaves_the_model_as_it_was(make, first, error):
    # a failed distribution check left its batch stored, so that a retry
    # passed the bad model; a row that hit the state cap kept its deadlock flag
    lazy = make()
    lazy.expand(first)

    def snapshot():
        return (list(lazy.states), list(lazy.order), list(lazy.deadlock),
                lazy.first_move.tolist(), lazy.dest.tolist(), lazy.row_of.tolist())

    before = snapshot()
    for _ in range(2):
        with pytest.raises(BuildError, match=error):
            lazy.expand_all()
        assert snapshot() == before


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
    runs = [run_ci(SamplePool(mm, 8), path, alpha=0.05, n=300) for mm in (full, lazy)]
    assert runs[0] == runs[1]
    assert 0 < runs[0].point < 1
    assert len(lazy.order) == lazy.num_states == full.num_states
    # solved once per model, over the whole model
    assert solves == [full.num_states] * 2


def test_bounded_finally_decides_at_its_bound():
    # a two-state cycle that never reaches x == 2
    moves = [[Move("a", ((Fraction(1), 1),))], [Move("b", ((Fraction(1), 0),))]]
    mm = explicit_model("dtmc", ("x",), [(0,), (1,)], moves, [False] * 2)
    for path in (A.Finally_(A.Bound("<=", A.Lit(4)), var_eq("x", 2)),
                 A.Until(A.Lit(True), A.Bound("<=", A.Lit(4)), var_eq("x", 2))):
        est = run_ci(SamplePool(mm, 0), path, alpha=0.05, n=30, pathlen=4)
        assert (est.point, est.cap_hits, est.path_len_max) == (0.0, 0, 4)
    est = run_ci(SamplePool(mm, 0), A.Finally_(A.Bound("<=", A.Lit(4)), var_eq("x", 0)),
                 alpha=0.05, n=30, pathlen=4)
    assert (est.point, est.path_len_max) == (1.0, 0)


def test_ci_solve_for_alpha_without_spread_uses_hoeffding():
    mm = chain30()
    ones = explicit_model("dtmc", ("x",), mm.states, all_moves(mm), mm.deadlock, initial=1)
    for run in (run_ci, run_aci):
        est = run(SamplePool(ones, 0), A.Finally_(None, GOAL), w=0.1, n=50)
        assert est.point == 1.0
        assert est.alpha == pytest.approx(2 * math.exp(-2 * 50 * 0.1 ** 2))
        assert run(SamplePool(ones, 0), A.Finally_(None, GOAL), w=0.01, n=5).alpha == 1.0


def _coverage_models():
    yield chain30(), A.Finally_(None, GOAL)
    yield oracles.random_dtmc(random.Random(11), 20), A.Finally_(None, var_in("x", [2, 5, 9]))


def test_sequential_interval_covers_the_exact_value():
    from rcprob.exact import prob_path
    alpha, w, seeds = 0.05, 0.06, 200
    # a binomial slack of three standard deviations below 1 - alpha
    floor = 1 - alpha - 3 * math.sqrt(alpha * (1 - alpha) / seeds)
    for mm, path in _coverage_models():
        exact = prob_path(mm, path)[mm.initial]
        assert 0.05 < exact < 0.95
        covered = 0
        for seed in range(seeds):
            est = run_ci(SamplePool(mm, seed), path, w=w, alpha=alpha)
            assert est.half_width <= w
            covered += abs(est.point - exact) <= est.half_width
        assert covered / seeds >= floor, (covered, exact)
        # ACI stops by the same rule
        aci = run_aci(SamplePool(mm, seed), path, w=w, alpha=alpha)
        assert (aci.point, aci.n, aci.half_width) == (est.point, est.n, est.half_width)


def test_sprt_wrong_verdicts_within_alpha():
    from rcprob.exact import prob_path
    alpha, delta, margin, seeds = 0.05, 0.05, 0.02, 200
    # a binomial slack of three standard deviations above alpha
    ceiling = alpha + 3 * math.sqrt(alpha * (1 - alpha) / seeds)
    for mm, path in _coverage_models():
        exact = prob_path(mm, path)[mm.initial]
        # theta outside the indifference region, below and then above p
        for theta, holds in ((exact - delta - margin, True), (exact + delta + margin, False)):
            bound = A.Bound(">=", A.Lit(theta))
            wrong = sum(run_sprt(SamplePool(mm, seed), path, bound, theta, alpha=alpha,
                                 delta=delta).satisfied != holds for seed in range(seeds))
            assert wrong / seeds <= ceiling, (theta, wrong)


# --- joint walks and lookahead ----------------------------------------------------


def test_a_pool_gives_each_job_the_estimate_it_has_alone(srw_model, srw_spec, monkeypatch):
    import rcprob.smc as smc
    from rcprob.smc import apmc_parameters
    closed, _ = make_srw(srw_model, srw_spec, maxdist=6, maxsteps=40)
    far = parse_expression("SRWMod::SRWRP::x >= 3 \\/ SRWMod::SRWRP::x <= -3")
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    near = A.Finally_(A.Bound("<=", A.Lit(12)), far)
    cumul = A.Cumul(A.Lit(25))
    at_least = A.Bound(">=", A.Lit(0.3))
    # in property order: (runner, arguments, keywords, lane of the pool)
    jobs = [
        (run_ci, (near,), dict(alpha=0.05, n=700, pathlen=30), (near, 30, 700)),
        (run_apmc, (near,), dict(epsilon=0.1, delta=0.05),
         (near, 10_000, apmc_parameters(0.1, 0.05)[2])),
        (run_aci, (A.Finally_(None, stuck),), dict(w=0.05, alpha=0.05),
         (A.Finally_(None, stuck), 10_000, ci_stop("ACI", w=0.05, alpha=0.05))),
        (run_sprt, (A.Finally_(None, far), at_least, 0.3), dict(alpha=0.05, delta=0.05),
         (A.Finally_(None, far), 10_000, sprt_rule(0.3, 0.05, 0.05))),
        (run_reward_ci, ("R_origins", cumul), dict(alpha=0.05, n=1500),
         (cumul, 10_000, 1500, "R_origins")),
        (run_aci, (near,), dict(w=0.05, n=300), (near, 10_000, 300)),
    ]
    walks = []  # the lanes of each walk
    walk = smc._walk

    def counted(mm, seed, samples, lanes, trace=None):
        walks.append(len(lanes))
        return walk(mm, seed, samples, lanes, trace)

    monkeypatch.setattr(smc, "_walk", counted)
    mm = open_markov(closed)
    pool = SamplePool(mm, 9)
    for *_, lane in jobs:
        pool.add(*lane)
    joint = [run(pool, *args, **kw) for run, args, kw, _ in jobs]
    # all six jobs, the two sequential ones included, walk their first batch
    # together, the reward job its second alone
    assert walks[:2] == [6, 1]
    for (run, args, kw, _), est in zip(jobs, joint):
        alone = run(SamplePool(open_markov(closed), 9), *args, **kw)
        assert est == alone, run.__name__
    assert [est.method for est in joint] == ["CI", "APMC", "ACI", "SPRT", "CI", "ACI"]
    assert joint[0].cap_hits == 0 < joint[4].point and joint[3].decision is not None
    # and the samples that the reference sampler checks
    samples, stats = _walked(open_markov(closed), near, 9, 30, 700)
    assert joint[0].point == sum(samples) / 700
    assert stats == {key: getattr(joint[0], key) for key in
                     ("cap_hits", "path_len_mean", "path_len_max")}


def _chains():
    """0 -> 1 or 5, each 1/2; 1 -> 2 -> 3, which goes back to 0 or to 4, an
    absorbing state; 5 -> 6 -> 7 -> 8 -> 6.  Expanded on demand, from 0."""
    half = Fraction(1, 2)

    def to(d):
        return [Move("a", ((Fraction(1), d),))]

    moves = [[Move("a", ((half, 1), (half, 5)))], to(2), to(3),
             [Move("a", ((half, 0), (half, 4)))], to(4), to(6), to(7), to(8), to(6)]
    return explicit_model("dtmc", ("x",), [(i,) for i in range(9)], moves, [False] * 9,
                          lazy=True)


def test_lookahead_expands_the_deterministic_chains_of_the_states_reached():
    lazy = _chains()

    def rows():
        return [lazy.states[s][0] for s in lazy.order]

    lazy.expand([0], ahead=5)  # a state of two branches has no chain
    assert rows() == [0]
    # the chains after the states; 1's ends after 3, whose move branches,
    # and 5's after two states, as far as the walk could go
    lazy.expand([lazy.states.index((1,)), lazy.states.index((5,))], ahead=2)
    assert rows() == [0, 1, 5, 2, 3, 6, 7]
    # 8's chain ends before 6, expanded earlier, and 4's at 4 itself
    lazy.expand([lazy.states.index((4,)), lazy.states.index((8,))], ahead=5)
    assert rows() == [0, 1, 5, 2, 3, 6, 7, 4, 8]
    # a chain that meets a state expanded in its own batch ends there
    fresh = _chains()
    fresh.expand([0])
    fresh.expand([fresh.states.index((5,))], ahead=10)
    assert [fresh.states[s][0] for s in fresh.order] == [0, 5, 6, 7, 8]
    # the sample table and the distribution check cover the chains
    table = fresh.sample_table()
    assert table.absorbing.size == len(fresh.order) == fresh.first_move.size - 1


@pytest.mark.parametrize("bound,pathlen,reached", [(4, 100, 5), (30, 7, 8), (None, 12, 13)])
def test_a_walk_looks_ahead_no_further_than_its_last_step(bound, pathlen, reached):
    # a line 0 -> 1 -> ... -> 39 whose paths never reach their target
    n = 40
    moves = [[Move("a", ((Fraction(1), min(i + 1, n - 1)),))] for i in range(n)]
    lazy = explicit_model("dtmc", ("x",), [(i,) for i in range(n)], moves, [False] * n,
                          lazy=True)
    bound = None if bound is None else A.Bound("<=", A.Lit(bound))
    est = run_ci(SamplePool(lazy, 0), A.Finally_(bound, var_eq("x", 99)), alpha=0.05,
                 n=10, pathlen=pathlen)
    assert est.point == 0.0
    # the first expansion took the whole chain that the walk could reach
    assert sorted(lazy.states[s][0] for s in lazy.order) == list(range(reached))


def test_a_chain_that_fails_is_dropped_for_the_states_reached():
    # 0 -> 1 (the target) -> 2, whose only move sums to 9/10: the batch of
    # 0 and its chain fails, and 0 alone does not
    moves = [[Move("a", ((Fraction(1), 1),))], [Move("b", ((Fraction(1), 2),))],
             [Move("c", ((Fraction(9, 10), 2),))]]
    lazy = explicit_model("dtmc", ("x",), [(i,) for i in range(3)], moves, [False] * 3,
                          lazy=True)
    path = A.Finally_(A.Bound("<=", A.Lit(5)), var_eq("x", 1))
    est = run_ci(SamplePool(lazy, 0), path, alpha=0.05, n=10)
    assert est.point == 1.0 and sorted(lazy.order) == [0, 1]
    with pytest.raises(BuildError, match="sum to 9/10"):
        lazy.expand_all()
