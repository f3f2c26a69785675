import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcprob import ast as A
from rcprob.build import build_markov, instantiate
from rcprob.exact import (ExactChecker, UnsupportedError, check_AE,
                          check_property, check_state_formula, expected_reward,
                          prob_path)
from rcprob.model import parse_model
from rcprob.props import parse_expression, ProbProperty, RewardsDecl

from conftest import make_srw
from oracles import (Move, all_moves, brute_ae, dense_reach, dense_reach_reward,
                     dtmc_row, explicit_dtmc_csr, explicit_dtmc_matrix, explicit_model,
                     explicit_step_reward, mdp_extremal_reach, mdp_zero_one_sets, moves_of,
                     parse_explicit, random_dtmc, random_mdp, reward_structure,
                     sparse_reach, sparse_reach_reward, sparse_total_reward, var_eq,
                     var_in)


def chain(moves_spec, kind="dtmc"):
    """Tiny model builder: moves_spec[s] = [(action, [(prob, dst), ...])]."""
    n = len(moves_spec)
    moves = []
    for s, actions in enumerate(moves_spec):
        row = []
        for a, branches in actions:
            row.append(Move(a, tuple(
                (Fraction(str(p)) if isinstance(p, float) else Fraction(p), d)
                for p, d in branches)))
        moves.append(row)
    return explicit_model(kind, ("x",), [(i,) for i in range(n)], moves, [False] * n)


def F(e):
    return A.Finally_(None, e)


def G(e):
    return A.Globally(None, e)


# --- state formulas -----------------------------------------------------------


def test_initial_state_formula(srw_mdp):
    closed, mm = srw_mdp
    sat = check_state_formula(mm, parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck"))
    pc_i = closed.index["ctrl_ref.stm_ref.pc"]
    for i, st in enumerate(mm.states):
        assert sat[i] == (st[pc_i] == "Stuck")


def test_next_move_false_at_init(srw_mdp):
    closed, mm = srw_mdp
    # X(pc=Move) is false at the initial state: the successor is Move_entering
    is_in_move = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Move")
    sat = check_AE(mm, "A", A.Next(is_in_move))
    assert not sat[mm.initial]


def test_true_everywhere(srw_small):
    closed, mm = srw_small
    sat = check_state_formula(mm, A.Lit(True))
    assert sat.all()


def test_prob_bound_as_state_formula():
    mm = chain([
        [("a", [(0.3, 1), (0.7, 2)])],
        [("loop", [(1, 1)])],
        [("loop", [(1, 2)])],
    ])
    sat = check_state_formula(mm, A.ProbFormula(A.Bound(">=", A.Lit(Fraction(1, 4))),
                                                None, F(var_eq("x", 1))))
    assert sat[0] and sat[1] and not sat[2]


# --- probability computation -----------------------------------------------------


def test_single_step_reachability():
    mm = chain([
        [("a", [(0.3, 1), (0.7, 2)])],
        [("loop", [(1, 1)])],
        [("loop", [(1, 2)])],
    ])
    values = prob_path(mm, F(var_eq("x", 1)))
    assert values[0] == pytest.approx(0.3, abs=1e-12)
    assert values[1] == 1.0 and values[2] == 0.0


def test_srw_stuck_probability_one(srw_default):
    closed, mm = srw_default
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    values = prob_path(mm, F(stuck))
    assert values[mm.initial] == pytest.approx(1.0, abs=1e-6)


def test_small_instance_matches_export_oracle(srw_small):
    closed, mm = srw_small
    target_expr = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck "
        "/\\ SRWMod::SRWRP::x != 0")
    values = prob_path(mm, F(target_expr), tol=1e-13)
    parsed = parse_explicit(mm.export_text())
    mat = explicit_dtmc_matrix(parsed)
    pc = [st["ctrl_ref.stm_ref.pc"] for st in parsed["states"]]
    x = [st["SRWRP.x"] for st in parsed["states"]]
    target = np.array([p == "Stuck" and v != "0" for p, v in zip(pc, x)])
    oracle = dense_reach(mat, target)
    assert np.max(np.abs(values - oracle)) < 1e-9


def test_bounded_zero_steps():
    mm = chain([
        [("a", [(0.5, 1), (0.5, 0)])],
        [("loop", [(1, 1)])],
    ])
    target = var_eq("x", 1)
    values = prob_path(mm, A.Finally_(A.Bound("<=", A.Lit(0)), target))
    assert values[0] == 0.0 and values[1] == 1.0


def test_step_bounds_stop_at_a_fixed_point():
    # chain30: s0 -> goal with p=0.3, sink with p=0.7; both absorbing.  Every
    # backup after the first returns the same array, so any bound past one
    # step runs two (all k ran, and 10**11 steps on the SRW fixture took
    # more than a minute)
    mm = chain([
        [("a", [(Fraction(3, 10), 1), (Fraction(7, 10), 2)])],
        [("loop", [(1, 1)])],
        [("loop", [(1, 2)])],
    ])
    goal = var_eq("x", 1)
    reward_structure(mm, "R", [1, 0, 0])
    for mode in ("exact", "max"):
        for k, iterations in ((1, 1), (1000, 2), (10 ** 12, 2)):
            checker = ExactChecker(mm)
            values = checker.prob_path(A.Finally_(A.Bound("<=", A.Lit(k)), goal), mode)
            assert (values.tolist(), checker.iterations) == ([0.3, 1.0, 0.0], iterations)
            values = checker.expected_reward("R", A.Cumul(A.Lit(k)), mode)
            assert (values.tolist(), checker.iterations) == ([1.0, 0.0, 0.0], iterations)


def brute_force_bounded_reach(mm, target, k):
    """Exhaustive enumeration of all paths of length <= k."""
    n = mm.num_states
    out = np.zeros(n)
    for s0 in range(n):
        total = Fraction(0)
        stack = [(s0, Fraction(1), 0)]
        while stack:
            s, p, depth = stack.pop()
            if target[s]:
                total += p
                continue
            if depth == k:
                continue
            for d, q in dtmc_row(mm, s).items():
                stack.append((d, p * q, depth + 1))
        out[s0] = float(total)
    return out


def test_bounded_matches_path_enumeration(srw_model, srw_spec):
    closed, mm = make_srw(srw_model, srw_spec, maxdist=2, maxsteps=2)
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    checker = ExactChecker(mm)
    target = checker.sat(stuck)
    values = prob_path(mm, A.Finally_(A.Bound("<=", A.Lit(10)), stuck))
    brute = brute_force_bounded_reach(mm, target, 10)
    assert np.max(np.abs(values - brute)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(0, 8))
def test_bounded_globally_duality(seed, k):
    rng = random.Random(seed)
    mm = random_dtmc(rng, rng.randint(3, 12))
    phi = var_in("x", [0, 2])
    g = prob_path(mm, A.Globally(A.Bound("<=", A.Lit(k)), phi))
    f = prob_path(mm, A.Finally_(A.Bound("<=", A.Lit(k)),
                                 A.Unary("not", phi)))
    assert np.max(np.abs(g - (1.0 - f))) < 1e-12


def test_unbounded_duality_dtmc():
    rng = random.Random(7)
    for _ in range(25):
        mm = random_dtmc(rng, rng.randint(3, 30))
        phi = var_in("x", [0, 1, 4])
        g = prob_path(mm, G(phi), tol=1e-13)
        f = prob_path(mm, F(A.Unary("not", phi)), tol=1e-13)
        assert np.max(np.abs(g + f - 1.0)) < 1e-9


def test_unbounded_duality_mdp():
    rng = random.Random(11)
    for _ in range(15):
        mm = random_mdp(rng, rng.randint(3, 12))
        phi = var_in("x", [0, 1])
        gmin = prob_path(mm, G(phi), mode="min", tol=1e-13)
        fmax = prob_path(mm, F(A.Unary("not", phi)), mode="max", tol=1e-13)
        assert np.max(np.abs(gmin - (1.0 - fmax))) < 1e-9


def test_monotone_in_bound(srw_small):
    closed, mm = srw_small
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    prev = np.zeros(mm.num_states)
    for k in (0, 2, 5, 10, 25, 60):
        cur = prob_path(mm, A.Finally_(A.Bound("<=", A.Lit(k)), stuck))
        assert (cur >= prev - 1e-12).all()
        prev = cur
    unbounded = prob_path(mm, F(stuck), tol=1e-10)
    assert (prev <= unbounded + 1e-6).all()


def test_value_iteration_matches_dense_solve():
    rng = random.Random(123)
    for trial in range(120):
        mm = random_dtmc(rng, rng.randint(3, 60))
        target_vals = rng.sample(range(mm.num_states), max(1, mm.num_states // 6))
        phi = var_in("x", target_vals)
        values = prob_path(mm, F(phi), tol=1e-13)
        mat = explicit_dtmc_matrix(parse_explicit(mm.export_text()))
        target = np.zeros(mm.num_states, dtype=bool)
        target[target_vals] = True
        oracle = dense_reach(mat, target)
        assert np.max(np.abs(values - oracle)) < 1e-9, trial


def test_mdp_extrema_match_adversary_enumeration():
    rng = random.Random(321)
    for trial in range(40):
        mm = random_mdp(rng, rng.randint(3, 9), max_nondet_states=6)
        target_vals = rng.sample(range(mm.num_states), max(1, mm.num_states // 4))
        phi = var_in("x", target_vals)
        target = np.zeros(mm.num_states, dtype=bool)
        target[target_vals] = True
        for mode in ("min", "max"):
            engine = prob_path(mm, F(phi), mode=mode, tol=1e-13)
            oracle = mdp_extremal_reach(mm, target, mode)
            assert np.max(np.abs(engine - oracle)) < 1e-9, (trial, mode)


def test_weak_until_release_identities():
    rng = random.Random(5)
    for _ in range(15):
        mm = random_dtmc(rng, rng.randint(3, 20))
        p = var_in("x", [0, 1, 5])
        q = var_eq("x", 2)
        w = prob_path(mm, A.WeakUntil(p, None, q), tol=1e-13)
        u = prob_path(mm, A.Until(p, None, q), tol=1e-13)
        g = prob_path(mm, G(p), tol=1e-13)
        # W >= max(U, G) and W <= U + G
        assert (w >= np.maximum(u, g) - 1e-9).all()
        assert (w <= u + g + 1e-9).all()
        r = prob_path(mm, A.Release(p, None, q), tol=1e-13)
        dual = prob_path(mm, A.Until(A.Unary("not", p), None,
                                     A.Unary("not", q)), tol=1e-13)
        assert np.max(np.abs(r - (1.0 - dual))) < 1e-9


def test_nested_temporal_under_p_rejected(srw_small):
    closed, mm = srw_small
    with pytest.raises(UnsupportedError, match="nested"):
        prob_path(mm, F(G(A.Lit(True))))


def test_plain_query_on_nondeterministic_mdp_rejected():
    mm = chain([
        [("a", [(1, 1)]), ("b", [(1, 2)])],
        [("loop", [(1, 1)])],
        [("loop", [(1, 2)])],
    ], kind="mdp")
    from rcprob.exact import CheckError
    with pytest.raises(CheckError, match="min =\\? or max =\\?"):
        prob_path(mm, F(var_eq("x", 1)), mode="exact")


# --- A/E checking -------------------------------------------------------------------


def test_ae_fragment_against_lasso_oracle():
    rng = random.Random(42)
    shapes = ["F", "G", "GF", "FG", "X"]
    for trial in range(60):
        mm = random_mdp(rng, rng.randint(2, 10), max_nondet_states=4)
        n = mm.num_states
        p_vals = rng.sample(range(n), max(1, n // 3))
        q_vals = rng.sample(range(n), max(1, n // 3))
        p = np.zeros(n, dtype=bool)
        p[p_vals] = True
        q = np.zeros(n, dtype=bool)
        q[q_vals] = True
        sats = {"p": p, "q": q}
        pe, qe = var_in("x", p_vals), var_in("x", q_vals)
        formulas = {
            ("F", "p"): F(pe),
            ("G", "p"): G(pe),
            ("U", "p", "q"): A.Until(pe, None, qe),
            ("GF", "p"): G(F(pe)),
            ("FG", "p"): F(G(pe)),
            ("X", "p"): A.Next(pe),
            ("GF=>GF", "p", "q"): A.Binary("=>", G(F(pe)), G(F(qe))),
            ("FG=>GF", "p", "q"): A.Binary("=>", F(G(pe)), G(F(qe))),
            ("G=>F", "p", "q"): G(A.Binary("=>", pe, F(qe))),
        }
        for shape, formula in formulas.items():
            for quant in ("A", "E"):
                engine = check_AE(mm, quant, formula)
                oracle = brute_ae(mm, quant, shape, sats)
                assert (engine == oracle).all(), (trial, quant, shape)


def test_ae_one_cycle_graph():
    # single absorbing state with a self-loop where phi holds
    mm = chain([
        [("a", [(1, 1)])],
        [("loop", [(1, 1)])],
    ])
    phi = var_eq("x", 1)
    assert check_AE(mm, "E", F(G(phi)))[0]
    assert not check_AE(mm, "A", G(F(A.Unary("not", phi))))[0]


def test_ae_bounded():
    mm = chain([
        [("a", [(1, 1)])],
        [("b", [(1, 2)])],
        [("loop", [(1, 2)])],
    ])
    target = var_eq("x", 2)
    assert not check_AE(mm, "A", A.Finally_(A.Bound("<=", A.Lit(1)), target))[0]
    assert check_AE(mm, "A", A.Finally_(A.Bound("<=", A.Lit(2)), target))[0]


def test_ae_unsupported_shape(srw_small):
    closed, mm = srw_small
    with pytest.raises(UnsupportedError, match="fragment"):
        check_AE(mm, "A", G(F(G(A.Lit(True)))))


# --- rewards ------------------------------------------------------------------------


def geometric_chain(p):
    mm = chain([
        [("a", [(p, 1), (1 - p, 0)])],
        [("loop", [(1, 1)])],
    ])
    reward_structure(mm, "R", [1, 0])
    return mm


def test_geometric_expected_reward():
    for p, expected in ((0.5, 2.0), (0.25, 4.0)):
        mm = geometric_chain(Fraction(p))
        values = expected_reward(mm, "R", A.Reachable(var_eq("x", 1)), tol=1e-13)
        assert values[0] == pytest.approx(expected, abs=1e-9)


def test_reward_zero_structure(srw_small):
    closed, mm = srw_small
    from rcprob.props import parse_spec
    decl = parse_spec("rewards R_zero = false : 1; endrewards").statements[0]
    from rcprob.build import attach_rewards
    attach_rewards(mm, decl)
    stuck = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
    values = expected_reward(mm, "R_zero", A.Reachable(stuck))
    reach = prob_path(mm, F(stuck), tol=1e-12)
    assert (values[reach > 1 - 1e-9] == 0).all()


def test_unreachable_target_infinite_reward():
    mm = chain([
        [("a", [(1, 0)])],
        [("loop", [(1, 1)])],
    ])
    reward_structure(mm, "R", [1, 0])
    values = expected_reward(mm, "R", A.Reachable(var_eq("x", 1)))
    assert values[0] == np.inf


def test_reward_matches_dense_solve(srw_default, srw_spec):
    closed, mm = srw_default
    decl = srw_spec.find(RewardsDecl, "R_origins")
    from rcprob.build import attach_rewards
    attach_rewards(mm, decl)
    target_expr = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck "
        "/\\ SRWMod::SRWRP::x != 0")
    values = expected_reward(mm, "R_origins", A.Reachable(target_expr),
                             tol=1e-13)
    parsed = parse_explicit(mm.export_text())
    mat = explicit_dtmc_matrix(parsed)
    checker = ExactChecker(mm)
    target = checker.sat(target_expr)
    state_r, move_r = checker._reward_arrays("R_origins")
    step = checker._dtmc_reward_base(state_r, move_r)
    oracle = dense_reach_reward(mat, target, step)
    finite = ~np.isinf(oracle)
    assert np.max(np.abs(values[finite] - oracle[finite])) < 1e-7


def test_cumulative_reward():
    mm = chain([
        [("a", [(1, 1)])],
        [("b", [(1, 0)])],
    ])
    reward_structure(mm, "R", [2, 3])
    values = expected_reward(mm, "R", A.Cumul(A.Lit(4)))
    assert values[0] == pytest.approx(2 + 3 + 2 + 3)
    assert values[1] == pytest.approx(3 + 2 + 3 + 2)


def test_total_reward():
    mm = chain([
        [("a", [(0.5, 1), (0.5, 0)])],
        [("loop", [(1, 1)])],
    ])
    # reward only in the transient state: total = expected visits of s0 = 2
    reward_structure(mm, "R", [1, 0])
    values = expected_reward(mm, "R", A.TotalReward(), tol=1e-13)
    assert values[0] == pytest.approx(2.0, abs=1e-8)
    # positive reward in the absorbing state diverges
    reward_structure(mm, "R2", [0, 1])
    values = expected_reward(mm, "R2", A.TotalReward())
    assert values[0] == np.inf and values[1] == np.inf


def test_ltl_reward_restricted():
    mm = geometric_chain(Fraction(1, 2))
    values = expected_reward(mm, "R", A.LTLReward(F(var_eq("x", 1))), tol=1e-13)
    assert values[0] == pytest.approx(2.0, abs=1e-9)
    with pytest.raises(UnsupportedError, match="Finally"):
        expected_reward(mm, "R", A.LTLReward(G(var_eq("x", 1))))


# --- direct dtmc solves at the default tolerance ---------------------------------------


def srw_origin_reward(valuation, tags):
    """R_origins re-derived from the export: the machine's left/right output
    fired at the origin earns 1."""
    outs = ("SRWMod::ctrl_ref::stm_ref::left.out", "SRWMod::ctrl_ref::stm_ref::right.out")
    return float(valuation["SRWRP.x"] == "0" and any(t in outs for t in tags))


@pytest.mark.parametrize("defs, pl, maxsteps", [
    ("D_recharge", Fraction(1, 2), 40),
    ("D_norecharge", Fraction(4, 5), 60),
])
def test_default_tolerance_matches_sparse_oracle(srw_model, srw_spec, defs, pl, maxsteps):
    closed, mm = make_srw(srw_model, srw_spec, maxsteps=maxsteps, pl=pl, defs=defs)
    parsed = parse_explicit(mm.export_text())
    mat = explicit_dtmc_csr(parsed)
    step = explicit_step_reward(parsed, srw_origin_reward)
    stuck_not_origin = np.array([st["ctrl_ref.stm_ref.pc"] == "Stuck" and st["SRWRP.x"] != "0"
                                 for st in parsed["states"]])
    far = np.array([st["SRWRP.x"] == "5" for st in parsed["states"]])
    queries = [
        (srw_spec.find(ProbProperty, "R_stuck_not_origin"),
         sparse_reach_reward(mat, stuck_not_origin, step)),
        (ProbProperty(name="P_far",
                      body=parse_expression("Prob=? of [Finally SRWMod::SRWRP::x == 5]")),
         sparse_reach(mat, far)),
        (ProbProperty(name="R_total",
                      body=parse_expression("Reward {R_origins} =? of [Total]")),
         sparse_total_reward(mat, step)),
    ]
    for prop, oracle in queries:
        result = check_property(mm, prop)  # engine default tolerance
        expected = oracle[mm.initial]
        assert 0 < expected < np.inf
        assert result.verdict == pytest.approx(expected, rel=1e-9, abs=0), prop.name
        assert result.iterations == 1, prop.name


# --- the solve over branching states --------------------------------------------------


def _lu_of_whole_system(checker, idx, b):
    from scipy import sparse
    from scipy.sparse.linalg import splu
    q = checker.dtmc_matrix()[idx][:, idx]
    return splu((sparse.identity(idx.size, format="csc") - q).tocsc()).solve(b)


@pytest.fixture
def solves(monkeypatch):
    """Each system the exact engine solves, checked against one LU
    factorisation of the whole system; the list holds, per system, how many
    of its rows are a single 1.0, which the solve eliminates."""
    unit_rows = []
    solve = ExactChecker._solve

    def checked(self, idx, b):
        x = solve(self, idx, b)
        np.testing.assert_allclose(x, _lu_of_whole_system(self, idx, b), rtol=1e-12, atol=0)
        q = self.dtmc_matrix()[idx][:, idx]
        single = np.flatnonzero(np.diff(q.indptr) == 1)
        unit_rows.append(int((q.data[q.indptr[single]] == 1.0).sum()))
        return x

    monkeypatch.setattr(ExactChecker, "_solve", checked)
    return unit_rows


def test_the_solve_matches_one_lu_on_every_srw_configuration(srw_model, srw_spec, solves):
    names = ("P_stuck", "P_stuck_not_origin", "R_stuck_not_origin")
    for maxsteps in range(20, 101, 10):  # C_fair_MD10_MS20_100
        closed, mm = make_srw(srw_model, srw_spec, maxsteps=maxsteps)
        for name in names:
            check_property(mm, srw_spec.find(ProbProperty, name))
    # the probabilities are decided by the precomputation, the rewards solved
    assert len(solves) == 9 and min(solves) > 0


def test_the_solve_matches_one_lu_on_random_dtmcs(solves):
    from test_acceptance import random_model_text
    rng = random.Random(99)  # criterion 6's models, each as a dtmc
    for _ in range(100):
        closed = instantiate(parse_model(random_model_text(rng)), {}, None, None, "dtmc")
        mm = build_markov(closed)
        checker = ExactChecker(mm)
        ones = np.ones(mm.num_states, dtype=bool)
        reward_structure(mm, "R", [1] * mm.num_states)
        state_r, move_r = checker._reward_arrays("R")
        for t in range(mm.num_states):
            target = np.arange(mm.num_states) == t
            checker._until_dtmc(ones, target)
            checker._until_dtmc(~(np.arange(mm.num_states) == 0), target)
            checker._reach_reward(target, state_r, move_r, "exact")
        reward_structure(mm, "R0", [int(s == 0) for s in range(mm.num_states)])
        checker._total_reward(*checker._reward_arrays("R0"), "exact")
    assert sum(n > 0 for n in solves) > 500


def test_the_solve_follows_chains_to_each_kind_of_end(solves):
    # 0 branches into four chains: 1-2 ends at 2, whose successor is the
    # target 3; 4-10 at 10, whose successor is the prob-0 sink 5; 6-7 at the
    # branching state 0; and 8, whose two moves lead to 9, so that its dtmc
    # row is 1.0 by mixing, at the branching state 9
    quarter = Fraction(1, 4)
    mm = chain([
        [("a", [(quarter, 1), (quarter, 4), (quarter, 6), (quarter, 8)])],
        [("a", [(1, 2)])], [("a", [(1, 3)])], [("loop", [(1, 3)])],
        [("a", [(1, 10)])], [("loop", [(1, 5)])],
        [("a", [(1, 7)])], [("a", [(1, 0)])],
        [("a", [(1, 9)]), ("b", [(1, 9)])],
        [("a", [(0.5, 0), (0.5, 3)])],
        [("a", [(1, 5)])],
    ])
    checker = ExactChecker(mm)
    idx = np.array([0, 1, 2, 4, 6, 7, 8, 9, 10])  # every state leaves it surely
    for b in (np.ones(idx.size), np.random.default_rng(1).random(idx.size)):
        checker._solve(idx, b)
    target = var_eq("x", 3)
    values = prob_path(mm, F(target), tol=1e-13)
    oracle = dense_reach(explicit_dtmc_matrix(parse_explicit(mm.export_text())),
                         np.arange(11) == 3)
    np.testing.assert_allclose(values, oracle, rtol=1e-12)
    reward_structure(mm, "R", [1] * 11)
    rewards = expected_reward(mm, "R", A.Reachable(target), tol=1e-13)
    assert rewards[[1, 2, 3]].tolist() == [2.0, 1.0, 0.0] and np.isinf(rewards[0])
    # the probabilities are undecided at 0, 6, 7, 8 and 9, and the rewards
    # finite at 1 and 2
    assert solves == [5, 5, 3, 1]


# --- property-level checks -----------------------------------------------------------


def test_check_property_deadlock_free(srw_default, srw_spec):
    closed, mm = srw_default
    prop = srw_spec.find(ProbProperty, "P_deadlock_free")
    result = check_property(mm, prop, "cfg")
    assert result.verdict is True
    assert result.engine == "graph"


def test_check_property_query(srw_default, srw_spec):
    closed, mm = srw_default
    prop = srw_spec.find(ProbProperty, "P_stuck")
    result = check_property(mm, prop, "cfg")
    assert result.verdict == pytest.approx(1.0, abs=1e-6)
    assert result.mode == "exact"


def test_forall_globally_trivial(srw_small):
    closed, mm = srw_small
    prop = ProbProperty("P", parse_expression("Forall [Globally true]"))
    result = check_property(mm, prop)
    assert result.verdict is True


def test_min_max_collapse_on_dtmc(srw_small):
    closed, mm = srw_small
    stuck_text = ("Prob min =? of [Finally SRWMod::ctrl_ref::stm_ref is in "
                  "SRWMod::ctrl_ref::stm_ref::Stuck]")
    prop = ProbProperty("P", parse_expression(stuck_text))
    result = check_property(mm, prop)
    assert result.mode == "exact"
    assert result.verdict == pytest.approx(1.0, abs=1e-6)


def test_mdp_bound_direction_uses_worst_adversary():
    # s0: action a reaches the goal surely, action b loops forever
    mm = chain([
        [("a", [(1, 1)]), ("b", [(1, 0)])],
        [("loop", [(1, 1)])],
    ], kind="mdp")
    goal = var_eq("x", 1)
    # >= bounds quantify over the minimum (which is 0 here)
    sat = check_state_formula(mm, A.ProbFormula(A.Bound(">=", A.Lit(Fraction(1, 2))),
                                                None, F(goal)))
    assert not sat[0]
    # <= bounds quantify over the maximum (which is 1 here)
    sat = check_state_formula(mm, A.ProbFormula(A.Bound("<=", A.Lit(Fraction(1, 2))),
                                                None, F(goal)))
    assert not sat[0]


def test_mdp_reward_extremes():
    mm = chain([
        [("a", [(1, 1)]), ("b", [(1, 0)])],
        [("loop", [(1, 1)])],
    ], kind="mdp")
    reward_structure(mm, "R", [1, 0])
    goal = var_eq("x", 1)
    rmin = expected_reward(mm, "R", A.Reachable(goal), mode="min", tol=1e-12)
    assert rmin[0] == pytest.approx(1.0, abs=1e-9)
    rmax = expected_reward(mm, "R", A.Reachable(goal), mode="max")
    assert rmax[0] == np.inf  # the adversary can loop forever


def test_bounded_weak_until_and_release_ae():
    # 0 -> 1 -> 2(absorbing); p holds on {0,1}, q on {2}
    mm = chain([
        [("a", [(1, 1)])],
        [("b", [(1, 2)])],
        [("loop", [(1, 2)])],
    ])
    p = var_in("x", [0, 1])
    q = var_eq("x", 2)
    # p W<=1 q: within one step we neither reach q nor fail p -> still fine,
    # the weak form allows "globally p" over the horizon
    assert check_AE(mm, "A", A.WeakUntil(p, A.Bound("<=", A.Lit(1)), q))[0]
    # p U<=1 q fails from state 0 (q needs two steps)
    assert not check_AE(mm, "A", A.Until(p, A.Bound("<=", A.Lit(1)), q))[0]
    assert check_AE(mm, "A", A.Until(p, A.Bound("<=", A.Lit(2)), q))[0]
    # q R p: p must hold up to and including the first q-state; here p never
    # fails before q, but q and p never overlap, so release demands G p on
    # the q-free prefix; state 2 breaks p exactly when q arrives
    rel = check_AE(mm, "A", A.Release(q, None, p))
    assert not rel[0]
    rel2 = check_AE(mm, "A", A.Release(q, None, var_in("x", [0, 1, 2])))
    assert rel2[0]


def bounded_prefixes(mm, s, k):
    """Every k+1-state path prefix from s over positive branches."""
    succ = [sorted({d for mv in row for p, d in mv.branches if p > 0}) for row in all_moves(mm)]
    paths = [[s]]
    for _ in range(k):
        paths = [path + [d] for path in paths for d in succ[path[-1]]]
    return paths


def bounded_holds(kind, path, p, q):
    """A step-bounded path formula over the whole of a path prefix; for U, W
    and R, p is the left and q the right operand."""
    if kind == "F":
        return any(p[u] for u in path)
    if kind == "G":
        return all(p[u] for u in path)
    if kind == "R":
        return all(q[u] or any(p[w] for w in path[:i]) for i, u in enumerate(path))
    until = any(q[u] and all(p[w] for w in path[:i]) for i, u in enumerate(path))
    if kind == "U":
        return until
    return until or all(p[u] for u in path)  # W


def test_bounded_ae_shapes_against_prefix_enumeration():
    rng = random.Random(31)
    for trial in range(30):
        mm = random_mdp(rng, rng.randint(2, 8), max_nondet_states=4)
        n = mm.num_states
        p_vals = rng.sample(range(n), max(1, n // 2))
        q_vals = rng.sample(range(n), max(1, n // 3))
        p = np.isin(np.arange(n), p_vals)
        q = np.isin(np.arange(n), q_vals)
        pe, qe = var_in("x", p_vals), var_in("x", q_vals)
        for k in range(4):
            b = A.Bound("<=", A.Lit(k))
            formulas = {"F": A.Finally_(b, pe), "G": A.Globally(b, pe),
                        "U": A.Until(pe, b, qe), "W": A.WeakUntil(pe, b, qe),
                        "R": A.Release(pe, b, qe)}
            for kind, formula in formulas.items():
                holds = [[bounded_holds(kind, path, p, q) for path in bounded_prefixes(mm, s, k)]
                         for s in range(n)]
                for quant, agg in (("A", all), ("E", any)):
                    oracle = np.array([agg(h) for h in holds])
                    engine = check_AE(mm, quant, formula)
                    assert (engine == oracle).all(), (trial, k, kind, quant)


def test_qualitative_zero_one_exactness():
    rng = random.Random(77)
    for _ in range(30):
        mm = random_dtmc(rng, rng.randint(4, 40))
        targets = rng.sample(range(mm.num_states), max(1, mm.num_states // 5))
        phi = var_in("x", targets)
        values = prob_path(mm, F(phi), tol=1e-10)
        sat = np.zeros(mm.num_states, dtype=bool)
        sat[targets] = True
        assert (values[sat] == 1.0).all()
        # states that cannot reach the target must be exactly zero
        mat = explicit_dtmc_matrix(parse_explicit(mm.export_text()))
        can = sat.copy()
        changed = True
        while changed:
            changed = False
            for s in range(mm.num_states):
                if not can[s] and (mat[s][can] > 0).any():
                    can[s] = True
                    changed = True
        assert (values[~can] == 0.0).all()
        assert (values >= 0).all() and (values <= 1).all()


def test_formula_and_label_refs_in_checking(srw_small):
    closed, mm = srw_small
    # l_stuck/l_origin come from the fixture property file; formulas inline
    sat = check_state_formula(mm, parse_expression("#l_stuck /\\ not #l_origin"))
    pc_i = closed.index["ctrl_ref.stm_ref.pc"]
    x_i = closed.index["SRWRP.x"]
    for i, st in enumerate(mm.states):
        assert sat[i] == (st[pc_i] == "Stuck" and st[x_i] != 0)


def test_formula_ref_resolution(srw_model):
    from rcprob.build import instantiate, build_markov
    from rcprob.props import parse_spec
    spec = parse_spec("""
    formula f_origin = SRWMod::SRWRP::x == 0
    defs D:
      pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
      pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
      pfunction Update(v, maxv, origin) = { return ``v + 1 }
    """)
    from rcprob.props import DefinitionsDecl
    closed = instantiate(srw_model, {"MaxDist": 1, "MaxSteps": 1, "Pl": Fraction(1, 2)},
                         spec.find(DefinitionsDecl, "D"), None, "dtmc", spec)
    mm = build_markov(closed)
    sat = check_state_formula(mm, parse_expression("`f_origin \\/ false"))
    x_i = closed.index["SRWRP.x"]
    for i, st in enumerate(mm.states):
        assert sat[i] == (st[x_i] == 0)


def test_prob_path_bounded_entrypoint():
    from rcprob.exact import prob_path_bounded, CheckError
    mm = chain([
        [("a", [(0.5, 1), (0.5, 0)])],
        [("loop", [(1, 1)])],
    ])
    goal = var_eq("x", 1)
    values = prob_path_bounded(mm, A.Finally_(A.Bound("<=", A.Lit(2)), goal))
    assert values[0] == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(CheckError, match="step bound"):
        prob_path_bounded(mm, F(goal))


def test_mdp_until_matches_adversary_enumeration():
    rng = random.Random(999)
    for trial in range(25):
        mm = random_mdp(rng, rng.randint(3, 8), max_nondet_states=5)
        n = mm.num_states
        hold = rng.sample(range(n), max(2, 2 * n // 3))
        goal = rng.sample(range(n), max(1, n // 4))
        pe, qe = var_in("x", hold), var_in("x", goal)
        hold_a = np.zeros(n, dtype=bool)
        hold_a[hold] = True
        goal_a = np.zeros(n, dtype=bool)
        goal_a[goal] = True
        for mode in ("min", "max"):
            engine = prob_path(mm, A.Until(pe, None, qe), mode=mode, tol=1e-13)
            best = None
            for combo in itertools.product(*[range(len(moves_of(mm, s))) for s in range(n)]):
                mat = np.zeros((n, n))
                for s in range(n):
                    for p, d in moves_of(mm, s)[combo[s]].branches:
                        mat[s, d] += float(p)
                # dense until on the induced chain: zero out escapes
                vals = np.zeros(n)
                vals[goal_a] = 1.0
                run = hold_a & ~goal_a
                # iterate to convergence on the small chain
                for _ in range(4000):
                    new = np.where(goal_a, 1.0, np.where(run, mat.dot(vals), 0.0))
                    if np.max(np.abs(new - vals)) < 1e-14:
                        vals = new
                        break
                    vals = new
                best = vals if best is None else (
                    np.maximum(best, vals) if mode == "max" else np.minimum(best, vals))
            assert np.max(np.abs(engine - best)) < 1e-7, (trial, mode)


def test_mdp_zero_one_sets_match_adversary_graphs():
    rng = random.Random(2024)
    for trial in range(40):
        mm = random_mdp(rng, rng.randint(3, 8), max_nondet_states=5)
        n = mm.num_states
        reward_structure(mm, "R", [1] * n)
        hold = rng.sample(range(n), max(2, 2 * n // 3))
        goal = rng.sample(range(n), max(1, n // 4))
        pe, qe = var_in("x", hold), var_in("x", goal)
        hold_a = np.isin(np.arange(n), hold)
        goal_a = np.isin(np.arange(n), goal)
        min0, max0, min1, max1 = mdp_zero_one_sets(mm, hold_a, goal_a)
        for mode, zero, one in (("min", min0, min1), ("max", max0, max1)):
            values = prob_path(mm, A.Until(pe, None, qe), mode=mode, tol=1e-13)
            assert ((values == 0.0) == zero).all(), (trial, mode)
            assert ((values == 1.0) == one).all(), (trial, mode)
        # the minimum reward is finite where some adversary reaches goal
        # almost surely, the maximum where every adversary does
        ones = np.ones(n, dtype=bool)
        _, _, reach_min1, reach_max1 = mdp_zero_one_sets(mm, ones, goal_a)
        for mode, finite in (("min", reach_max1), ("max", reach_min1)):
            reward = expected_reward(mm, "R", A.Reachable(qe), mode=mode, tol=1e-12)
            assert (np.isinf(reward) == ~finite).all(), (trial, mode)
