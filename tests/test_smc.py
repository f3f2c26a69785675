import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from scipy import stats as scipy_stats

from rcprob import ast as A
from rcprob.build import MarkovModel, Move
from rcprob.props import parse_expression
from rcprob.smc import (SmcError, apmc_samples, normal_quantile, run_aci,
                        run_apmc, run_ci, run_sprt, simulate)

from oracles import StubContext, var_eq


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
