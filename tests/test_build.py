import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rcprob
from rcprob.build import (BuildError, attach_rewards, build_markov,
                          eval_expr, expand_sweep, instantiate, open_markov)
from rcprob.model import parse_model
from rcprob.props import (ConstantsConfig, DefinitionsDecl, PModulesDecl,
                          RewardsDecl, parse_expression, parse_spec)

from conftest import make_srw
from oracles import Move, all_moves, dtmc_row, explicit_model, move_rewards_of, moves_of


def entry(names, state, mm):
    return dict(zip(mm.short_var_names(), mm.states[state]))


# --- sweeps ---------------------------------------------------------------------


def test_sweep_nine_configurations(srw_spec):
    cfg = srw_spec.find(ConstantsConfig, "C_fair_MD10_MS20_100")
    vals = expand_sweep(cfg)
    assert len(vals) == 9
    assert [v["MaxSteps"] for v in vals] == list(range(20, 101, 10))
    assert all(v["MaxDist"] == 10 and v["Pl"] == Fraction(1, 2) for v in vals)


def test_sweep_all_exact_single():
    spec = parse_spec("constants C: M::P::A set to 1, M::P::B set to true")
    vals = expand_sweep(spec.find(ConstantsConfig, "C"))
    assert vals == [{"A": 1, "B": True}]


def test_sweep_product():
    spec = parse_spec("constants C: M::P::A from set {1, 2}, "
                      "M::P::B from set {1 to 3 by step 1}")
    vals = expand_sweep(spec.find(ConstantsConfig, "C"))
    assert len(vals) == 6
    assert vals[0] == {"A": 1, "B": 1}
    assert vals[-1] == {"A": 2, "B": 3}


def test_sweep_empty_set_rejected(srw_spec):
    from rcprob.props import FromSet, ConfigEntry
    from rcprob import ast as A
    cfg = ConstantsConfig("C", [ConfigEntry(A.QName(("A",)), FromSet(()))])
    with pytest.raises(BuildError, match="empty value set"):
        expand_sweep(cfg)


# --- instantiation ---------------------------------------------------------------


def test_junction_sum_ok(srw_model, srw_spec):
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    for pl in (Fraction(1, 2), Fraction(3, 10)):
        closed = instantiate(srw_model, {"MaxDist": 10, "MaxSteps": 20, "Pl": pl},
                             defs, None, "dtmc", srw_spec)
        leaves = closed.machines[0].junction_weights["p0"]
        assert sum(closed.weight_table.weights[w] for _, w in leaves) == 1


def test_junction_sum_violation(srw_model_text, srw_spec):
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    model = parse_model(srw_model_text.replace("prob 1 - Pl", "prob 1 - Pl - 0.1"))
    with pytest.raises(BuildError, match="sum to 9/10"):
        instantiate(model, {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(6, 10)},
                    defs, None, "dtmc", srw_spec)


def test_uncovered_loose_symbol(srw_model, srw_spec):
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    with pytest.raises(BuildError, match="loose constants not covered"):
        instantiate(srw_model, {"MaxDist": 10}, defs, None, "dtmc", srw_spec)
    with pytest.raises(BuildError, match="loose functions not defined"):
        instantiate(srw_model, {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(1, 2)},
                    None, None, "dtmc", srw_spec)


def test_a_connection_end_that_names_no_event_is_a_build_error():
    # without validation, the closures raised a KeyError: in the controller
    # P names the machine, which declares no go
    model = parse_model("""
    module M { platform P { event go; }
      controller c { requires P; event go;
        machine P { initial i; state A; transition t0 { from i to A } }
        connection P.go -> c.go; } }
    """)
    with pytest.raises(BuildError, match=r"^connection P\.go -> c\.go: an end names no event$"):
        instantiate(model, {}, None, None, "dtmc")


@pytest.mark.parametrize("old,new,message", [
    ("var x : int = 0;", "var x : int = true;", "int variable SRWRP.x cannot take value true"),
    ("initial i0;", "var b : bool = 3; initial i0;",
     "bool variable ctrl_ref.stm_ref.b cannot take value 3"),
    # printed as the model writes it, not as Fraction(5, 2)
    ("var steps : nat = 0;", "var steps : nat = 2.5;",
     "nat variable SRWRP.steps cannot take value 2.5"),
    ("var x : int = 0;", "var x : int = Pl * 2;", r"int variable SRWRP.x cannot take value 1\.0"),
], ids=["platform", "machine", "real", "whole real"])
def test_an_initial_value_outside_its_type_is_a_build_error(srw_model_text, srw_spec,
                                                            old, new, message):
    # without validation, SRWRP.x was true in every state
    model = parse_model(srw_model_text.replace(old, new, 1))
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    with pytest.raises(BuildError, match=f"bad initial value: {message}"):
        instantiate(model, {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(1, 2)},
                    defs, None, "dtmc", srw_spec)


@pytest.mark.parametrize("old,new", [
    ("var x : int = 0;", "var x : int = Pl * 2;"),
    ("initial i0;", "var b : bool = 3; initial i0;")], ids=["platform", "machine"])
def test_a_bad_initial_value_names_the_line_of_its_declaration(srw_model_text, srw_spec,
                                                               old, new):
    # a real-valued initial value passes validation, and its build error
    # named no position
    text = srw_model_text.replace(old, new, 1)
    line = text[:text.index(new)].count("\n") + 1
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    with pytest.raises(BuildError, match=f"^bad initial value: .*, declared at line {line}$"):
        instantiate(parse_model(text), {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(1, 2)},
                    defs, None, "dtmc", srw_spec)


# --- expression evaluation --------------------------------------------------------


@pytest.fixture(scope="module")
def closed_recharge(srw_model, srw_spec):
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    return instantiate(srw_model, {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(1, 2)},
                       defs, None, "dtmc", srw_spec)


def test_update_examples(closed_recharge):
    cases = [
        ("&Update(0, 20, true)", 0),
        ("&Update(5, 20, false)", 6),
        ("&Update(20, 20, false)", 20),
        ("&Update(7, 7, false)", 7),
    ]
    for text, expected in cases:
        value = eval_expr(closed_recharge, parse_expression(text))
        assert value == expected, text


def test_eval_division_truncates(closed_recharge):
    assert eval_expr(closed_recharge, parse_expression("7 / 2")) == 3
    assert eval_expr(closed_recharge, parse_expression("-7 / 2")) == -3
    assert eval_expr(closed_recharge, parse_expression("7 % 2")) == 1
    assert eval_expr(closed_recharge, parse_expression("-7 % 2")) == -1


def test_eval_division_by_zero(closed_recharge):
    from rcprob.build import EvalError
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(closed_recharge, parse_expression("1 / 0"))


@pytest.mark.parametrize("text, value", [
    ("64 / 2 / 2 / 2", 8), ("7 / 2 / 2", 1), ("-7 / 2 / 2", -1), ("100 % 30 % 7", 3),
    ("((1 == 1) == (2 == 2)) == true", True), ("((1 < 2) != false) != true", False),
    ("true iff false iff false", True), ("1" + " / 1" * 240, 1)])
def test_a_chain_of_one_operator_folds_as_nested_operators_would(closed_recharge, text, value):
    # one call over the operands, not one bracket per operator, so that the
    # parser's longest chains compile
    assert eval_expr(closed_recharge, parse_expression(text)) == value


def test_a_chain_raises_the_error_of_its_first_failing_operation(closed_recharge):
    from rcprob.build import EvalError
    # an operand is evaluated after the operations before it
    with pytest.raises(EvalError, match="division by zero"):
        eval_expr(closed_recharge, parse_expression("1 / 0 / 1 / (0.5 % 2)"))
    with pytest.raises(EvalError, match="'%' needs integer operands"):
        eval_expr(closed_recharge, parse_expression("1 / 1 / (0.5 % 2) / 0"))


def test_a_property_expression_is_compiled_once_per_closed_model(closed_recharge):
    # simulation asks for an atom's function each time its paths reach new
    # states; compiling it anew each time cost srw-smc a tenth of its time
    from rcprob.build import EvalError
    e = parse_expression("SRWMod::SRWRP::x == 0 /\\ SRWMod::SRWRP::steps > 1")
    fn = closed_recharge.spec_expr(e)
    assert closed_recharge.spec_expr(e) is fn and closed_recharge.spec_expr(e, real=True) is not fn
    assert fn((0, 2, 0, "Move")) is True and fn((1, 2, 0, "Move")) is False
    with pytest.raises(EvalError, match="expression needs a state"):
        fn(None)


# --- chain construction -----------------------------------------------------------


def test_t0_chain(srw_default):
    closed, mm = srw_default
    names = mm.short_var_names()
    s0 = mm.states[0]
    assert dict(zip(names, s0)) == {"x": 0, "steps": 0, "lk": 0, "pc": "i0"}
    mv = moves_of(mm, 0)[0]
    assert len(moves_of(mm, 0)) == 1 and len(mv.branches) == 1
    s1 = dict(zip(names, mm.states[mv.branches[0][1]]))
    assert s1 == {"x": 0, "steps": 0, "lk": "t0", "pc": "Move_entering"}
    mv2 = moves_of(mm, mv.branches[0][1])[0]
    s2 = dict(zip(names, mm.states[mv2.branches[0][1]]))
    assert s2 == {"x": 0, "steps": 0, "lk": 0, "pc": "Move"}


def test_t1_junction_chain(srw_default):
    closed, mm = srw_default
    names = mm.short_var_names()
    # initial -> Move (2 steps), then t1 locks to p0 and branches
    move_state = moves_of(mm, moves_of(mm, 0)[0].branches[0][1])[0].branches[0][1]
    t1 = moves_of(mm, move_state)[0]
    assert t1.action.endswith(".t1")
    p0_state = t1.branches[0][1]
    assert dict(zip(names, mm.states[p0_state]))["pc"] == "p0"
    assert dict(zip(names, mm.states[p0_state]))["lk"] == "t1"
    branch = moves_of(mm, p0_state)[0]
    assert sorted((str(p), dict(zip(names, mm.states[d]))["pc"])
                  for p, d in branch.branches) == [("1/2", "t2_act_1"), ("1/2", "t3_act_1")]
    # follow the left branch: x decremented, then sync, then entry
    left = next(d for p, d in branch.branches
                if dict(zip(names, mm.states[d]))["pc"] == "t3_act_1")
    after_assign = moves_of(mm, left)[0].branches[0][1]
    assert dict(zip(names, mm.states[after_assign]))["x"] == -1
    assert dict(zip(names, mm.states[after_assign]))["pc"] == "t3_act_2"
    after_sync = moves_of(mm, after_assign)[0]
    assert ("SRWMod::ctrl_ref::stm_ref::left", "out") in after_sync.tags
    entering = after_sync.branches[0][1]
    assert dict(zip(names, mm.states[entering]))["pc"] == "Move_entering"
    done = moves_of(mm, entering)[0].branches[0][1]
    got = dict(zip(names, mm.states[done]))
    assert got == {"x": -1, "steps": 1, "lk": 0, "pc": "Move"}


def test_initial_labels(srw_default):
    _, mm = srw_default
    assert mm.labels(0) == {"x=0", "steps=0", "lk=0", "pc=i0", "init"}


def test_row_stochastic_and_deterministic_rebuild(srw_model, srw_spec):
    closed, mm = make_srw(srw_model, srw_spec, maxdist=2, maxsteps=4)
    mm.check_stochastic()
    closed2, mm2 = make_srw(srw_model, srw_spec, maxdist=2, maxsteps=4)
    assert mm.states == mm2.states
    assert all_moves(mm) == all_moves(mm2)


def test_bad_distribution_is_fatal_at_its_first_state():
    # states 1 and 2 share a distribution that sums to 2/3: only weight
    # sequences that passed are remembered, so it fails at each of them
    third = Fraction(1, 3)
    moves = [[Move("a", ((Fraction(1, 2), 1), (Fraction(1, 2), 2)))],
             [Move("b", ((third, 0), (third, 2)))],
             [Move("c", ((third, 0), (third, 1)))]]
    mm = explicit_model("dtmc", ("x",), [(0,), (1,), (2,)], moves, [False] * 3, lazy=True)
    with pytest.raises(BuildError, match="^state 1 action b: branch probabilities sum to 2/3$"):
        mm.expand_all()
    mm.expand([0])
    with pytest.raises(BuildError, match="^state 2 action c: branch probabilities sum to 2/3$"):
        mm.expand([2])


def test_state_count_same_for_dtmc_and_mdp(srw_model, srw_spec):
    _, dtmc = make_srw(srw_model, srw_spec, maxdist=2, maxsteps=4, kind="dtmc")
    _, mdp = make_srw(srw_model, srw_spec, maxdist=2, maxsteps=4, kind="mdp")
    assert dtmc.num_states == mdp.num_states
    assert set(dtmc.states) == set(mdp.states)


def test_pc_values_statically_enumerable(srw_default):
    closed, mm = srw_default
    m = closed.machines[0]
    allowed = set(m.static_pcs)
    pc_i = m.pc_i
    assert {st[pc_i] for st in mm.states} <= allowed


def test_lock_values_valid(srw_default):
    closed, mm = srw_default
    m = closed.machines[0]
    tids = set(m.trans_by_id) | {0}
    assert {st[m.lk_i] for st in mm.states} <= tids


def test_stuck_is_quiescent_not_deadlock(srw_default):
    closed, mm = srw_default
    m = closed.machines[0]
    stuck = [i for i, st in enumerate(mm.states) if st[m.pc_i] == "Stuck"]
    assert stuck
    for i in stuck:
        # no step: the state loops, and resting in a terminal state is no deadlock
        assert not mm.deadlock[i]
        assert [(mv.action, mv.branches) for mv in moves_of(mm, i)] == [("loop", ((Fraction(1), i),))]


def test_state_cap(srw_model, srw_spec):
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    closed = instantiate(srw_model, {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(1, 2)},
                         defs, None, "dtmc", srw_spec)
    with pytest.raises(BuildError, match="cap"):
        build_markov(closed, max_states=50)


def test_export_roundtrip(srw_small):
    from oracles import parse_explicit
    closed, mm = srw_small
    parsed = parse_explicit(mm.export_text())
    assert parsed["n"] == mm.num_states
    assert parsed["kind"] == "dtmc"
    assert parsed["initial"] == 0
    total_edges = sum(len(b) for mvs in parsed["moves"] for b in mvs.values())
    assert total_edges == mm.num_transitions()


# --- rewards ----------------------------------------------------------------------


def test_attach_rewards_origins(srw_default, srw_spec):
    closed, mm = srw_default
    decl = srw_spec.find(RewardsDecl, "R_origins")
    attach_rewards(mm, decl)
    rs = mm.rewards["R_origins"]
    assert all(v == 0 for v in rs.state)
    x_i = closed.index["SRWRP.x"]
    tagged = 0
    for (s, mi), value in move_rewards_of(mm, rs).items():
        assert value == 1
        assert mm.states[s][x_i] == 0
        tags = moves_of(mm, s)[mi].tags
        assert any(ep.endswith("left") or ep.endswith("right") for ep, d in tags)
        tagged += 1
    assert tagged > 0


def test_state_reward_everywhere(srw_small):
    closed, mm = srw_small
    decl = parse_spec("rewards R_steps = true : 1; endrewards").statements[0]
    attach_rewards(mm, decl)
    assert all(v == 1 for v in mm.rewards["R_steps"].state)


def test_unsatisfied_guard_zero_structure(srw_small):
    closed, mm = srw_small
    decl = parse_spec("rewards R_none = (SRWMod::SRWRP::x == 999) : 5; endrewards") \
        .statements[0]
    attach_rewards(mm, decl)
    rs = mm.rewards["R_none"]
    assert all(v == 0 for v in rs.state)
    assert move_rewards_of(mm, rs) == {}


def test_negative_reward_rejected(srw_small):
    closed, mm = srw_small
    decl = parse_spec("rewards R_bad = true : -1; endrewards").statements[0]
    with pytest.raises(BuildError, match="negative reward"):
        attach_rewards(mm, decl)


@pytest.mark.parametrize("items,fails", [
    ("true : 1 / (SRWMod::SRWRP::x + 3); (10 / SRWMod::SRWRP::x > 0) : 1;", {0}),
    ("(SRWMod::SRWRP::x < 0) : 1 / (SRWMod::SRWRP::x + 1); "
     "(10 / (SRWMod::SRWRP::x - 1) > 0) : 1;", {-1, 1}),
    ("(10 / (SRWMod::SRWRP::x - 1) > 0) : 1; "
     "(SRWMod::SRWRP::x < 0) : 1 / (SRWMod::SRWRP::x + 1);", {-1, 1})],
    ids=["guard", "value first", "guard first"])
def test_a_failing_reward_item_names_the_first_failing_state(srw_small, items, fails):
    # the guards are read for every state at once, through the model's
    # cache; the error still names the first state, in expansion order, at
    # which a guard or a value fails (`fails` holds the values of x there)
    closed, mm = srw_small
    decl = parse_spec(f"rewards R_bad = {items} endrewards").statements[0]
    x = closed.index["SRWRP.x"]
    first = next(s for s in mm.order if mm.states[s][x] in fails)
    with pytest.raises(BuildError, match=rf"^rewards R_bad at state {first}: division by zero$"):
        attach_rewards(mm, decl)


# --- synchronisation between machines ----------------------------------------------

SYNC_MODEL = """
module SyncMod {
  platform RP { event done; }
  controller C {
    requires RP;
    event ping : int;
    event done;
    machine A {
      event ping : int;
      event done;
      initial a0;
      state A1;
      state A2 { entry done };
      transition s0 { from a0 to A1 }
      transition s1 { from A1 to A2 action ping ! 3 }
    }
    machine B {
      var y : int = 0;
      event ping : int;
      initial b0;
      state B1;
      state B2;
      transition r0 { from b0 to B1 }
      transition r1 { from B1 to B2 trigger ping ? y }
    }
    connection A.ping -> B.ping;
    connection A.done -> C.done;
  }
  connection C.done -> RP.done;
}
"""


def build_sync(kind="mdp"):
    model = parse_model(SYNC_MODEL)
    closed = instantiate(model, {}, None, None, kind)
    return closed, build_markov(closed)


def test_value_passing_joint_step():
    closed, mm = build_sync()
    y_i = closed.index["C.B.y"]
    a = next(m for m in closed.machines if m.mach.name == "A")
    b = next(m for m in closed.machines if m.mach.name == "B")
    # find the joint step: somewhere a move is tagged with the ping closure
    joint = [(s, mv) for s in range(mm.num_states) for mv in moves_of(mm, s)
             if any("ping" in ep for ep, _ in mv.tags)]
    assert joint
    s, mv = joint[0]
    dst = mv.branches[0][1]
    assert mm.states[dst][y_i] == 3          # value exchanged in the same step
    assert mm.states[dst][b.pc_i] == "B2"    # receiver moved
    latch_vars = [v for v in closed.vars if v.kind == "latch"]
    assert len(latch_vars) == 1
    latch_i = closed.index[latch_vars[0].name]
    assert mm.states[dst][latch_i] == 3


def test_sender_blocked_until_receiver_ready():
    # remove B's initial transition target readiness by making r1 guarded false
    text = SYNC_MODEL.replace("transition r1 { from B1 to B2 trigger ping ? y }",
                              "transition r1 { from B1 to B2 trigger ping ? y guard y > 5 }")
    model = parse_model(text)
    closed = instantiate(model, {}, None, None, "mdp")
    mm = build_markov(closed)
    # A can never fire ping: no move is tagged with the ping closure
    assert not any("ping" in ep for s in range(mm.num_states)
                   for mv in moves_of(mm, s) for ep, _ in mv.tags)
    # the composition eventually blocks with A mid-nothing: A waits at A1 with
    # r1 unable to engage; that state has no moves at all and is a deadlock
    assert any(mm.deadlock)


def test_platform_event_is_free(srw_default):
    # srw left/right reach only the platform: sync steps fire freely (already
    # exercised by the walk reaching Stuck, which needs many left/right syncs)
    closed, mm = srw_default
    assert any(("SRWMod::SRWRP::left", "in") in mv.tags
               for row in all_moves(mm) for mv in row)


# --- platform-driven typed inputs ---------------------------------------------------

INPUT_MODEL = """
module InMod {
  platform RP { event cmd : Power; }
  controller C {
    requires RP;
    event cmd : Power;
    machine S {
      var last : Power = Power::Off;
      event cmd : Power;
      initial i0;
      state Idle;
      state Got;
      transition t0 { from i0 to Idle }
      transition t1 { from Idle to Got trigger cmd ? last }
    }
    connection C.cmd -> S.cmd;
  }
  connection RP.cmd -> C.cmd;
  enum Power { Off, On }
}
"""


def test_platform_input_enumerates_payload():
    model = parse_model(INPUT_MODEL)
    closed = instantiate(model, {}, None, None, "mdp")
    mm = build_markov(closed)
    s = closed.machines[0]
    idle = [i for i, st in enumerate(mm.states) if st[s.pc_i] == "Idle"][0]
    assert len(moves_of(mm, idle)) == 2  # one move per payload value
    last_i = closed.index["C.S.last"]
    got = {mm.states[mv.branches[0][1]][last_i] for mv in moves_of(mm, idle)}
    assert got == {"Power::Off", "Power::On"}


# --- exit actions (chains with exit steps) ------------------------------------------

EXIT_MODEL = """
module ExMod {
  controller C {
    machine S {
      var v : int = 0;
      initial i0;
      state A { exit v = v + 1 };
      state B { entry v = v * 10 };
      transition t0 { from i0 to A }
      transition t1 { from A to B }
    }
  }
}
"""


def test_exit_action_chain():
    model = parse_model(EXIT_MODEL)
    closed = instantiate(model, {}, None, None, "dtmc")
    mm = build_markov(closed)
    m = closed.machines[0]
    names = mm.short_var_names()
    # initial -> A is a single trivial step (no entry on A)
    s1 = moves_of(mm, 0)[0].branches[0][1]
    assert dict(zip(names, mm.states[s1]))["pc"] == "A"
    # chain: lock+Sub_ACT, exec exit (v:=1, Sub_EXITED), continue to entering,
    # exec entry (v:=10), enter B
    chain = [s1]
    for _ in range(4):
        chain.append(moves_of(mm, chain[-1])[0].branches[0][1])
    snap = [dict(zip(names, mm.states[i])) for i in chain]
    assert snap[1]["exit"] == "Sub_ACT" and snap[1]["lk"] == "t1" and snap[1]["pc"] == "A"
    assert snap[2]["exit"] == "Sub_EXITED" and snap[2]["v"] == 1
    assert snap[3]["pc"] == "B_entering" and snap[3]["exit"] == "NONE"
    assert snap[4] == {"v": 10, "lk": 0, "pc": "B", "exit": "NONE"}


# --- environment modules -------------------------------------------------------------


def test_env_module_sync_and_blocking(srw_model, srw_spec):
    spec_text = """
    pmodules MEnv: pmodule Par {
      moved : bool init false;
      [SRWMod::ctrl_ref::stm_ref::left.out] true -> (@moved = true);
      [SRWMod::ctrl_ref::stm_ref::right.out] true -> (@moved = true);
    }
    """
    env_spec = parse_spec(spec_text)
    env = env_spec.find(PModulesDecl, "MEnv")
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    closed = instantiate(srw_model, {"MaxDist": 1, "MaxSteps": 2, "Pl": Fraction(1, 2)},
                         defs, env, "dtmc", srw_spec)
    mm = build_markov(closed)
    moved_i = closed.index["env.Par.moved"]
    assert mm.states[0][moved_i] is False
    # after any tagged sync step the flag is raised
    for s in range(mm.num_states):
        for mv in moves_of(mm, s):
            if any("left" in ep or "right" in ep for ep, _ in mv.tags):
                for _, d in mv.branches:
                    assert mm.states[d][moved_i] is True


def test_env_alternator_blocks(srw_model, srw_spec):
    # an environment that permits only a single left sync ever: after the
    # first left the guard stays false and left is blocked for good
    spec_text = """
    pmodules MOnce: pmodule Once {
      used : bool init false;
      [SRWMod::ctrl_ref::stm_ref::left.out] @used == false -> (@used = true);
    }
    """
    env = parse_spec(spec_text).find(PModulesDecl, "MOnce")
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    closed = instantiate(srw_model, {"MaxDist": 1, "MaxSteps": 2, "Pl": Fraction(1, 2)},
                         defs, env, "dtmc", srw_spec)
    mm = build_markov(closed)
    used_i = closed.index["env.Once.used"]
    for s in range(mm.num_states):
        if mm.states[s][used_i] is True:
            for mv in moves_of(mm, s):
                assert not any(ep.endswith("left") for ep, _ in mv.tags)
    # blocking mid-chain produces a genuine deadlock somewhere
    assert any(mm.deadlock)


def test_env_unlabelled_interleaves_probabilistically(srw_model, srw_spec):
    spec_text = """
    pmodules MCoin: pmodule Coin {
      heads : bool init false;
      [] @heads == false -> (0.5: @heads = true) & (0.5: @heads = false);
    }
    """
    env = parse_spec(spec_text).find(PModulesDecl, "MCoin")
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    closed = instantiate(srw_model, {"MaxDist": 1, "MaxSteps": 1, "Pl": Fraction(1, 2)},
                         defs, env, "mdp", srw_spec)
    mm = build_markov(closed)
    env_moves = [mv for row in all_moves(mm) for mv in row if mv.action.startswith("Coin.")]
    assert env_moves
    assert any(len(mv.branches) == 2 for mv in env_moves)


def test_env_update_probability_outside_unit_interval_rejected(srw_model, srw_spec):
    # 3/2 and -1/2 sum to 1, but neither is a probability
    env = parse_spec("""
    pmodules MCoin: pmodule Coin {
      heads : bool init false;
      [] @heads == false -> (1.5: @heads = true) & (-0.5: @heads = false);
    }
    """).find(PModulesDecl, "MCoin")
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    with pytest.raises(BuildError, match=r"update probability 3/2 outside \[0,1\]"):
        build_markov(instantiate(srw_model, {"MaxDist": 1, "MaxSteps": 1, "Pl": Fraction(1, 2)},
                                 defs, env, "mdp", srw_spec))


# --- uniform resolution of simultaneous enabledness ---------------------------------

CHOICE_MODEL = """
module ChMod {
  controller C {
    machine S {
      var v : int = 0;
      initial i0;
      state A;
      state B;
      state Done;
      transition t0 { from i0 to A }
      transition t4 { from A to B action v = 1 }
      transition t6 { from A to Done action v = 2 }
    }
  }
}
"""


# a plain A->B beside an A->B with an action: only the second one runs a chain
AB_MODEL = """
module ABMod {
  controller C {
    machine S {
      var x : int = 0;
      initial i0;
      state A;
      state B;
      transition t0 { from i0 to A }
      transition t1 { from A to B }
      transition t2 { from A to B action x = 0 }
    }
  }
}
"""


def test_two_enabled_transitions_uniform_dtmc():
    model = parse_model(CHOICE_MODEL)
    closed = instantiate(model, {}, None, None, "dtmc")
    mm = build_markov(closed)
    m = closed.machines[0]
    a_state = next(i for i, st in enumerate(mm.states) if st[m.pc_i] == "A")
    row = dtmc_row(mm, a_state)
    assert sorted(row.values()) == [Fraction(1, 2), Fraction(1, 2)]
    assert len(moves_of(mm, a_state)) == 2


def test_two_enabled_transitions_nondet_mdp():
    model = parse_model(CHOICE_MODEL)
    closed = instantiate(model, {}, None, None, "mdp")
    mm = build_markov(closed)
    m = closed.machines[0]
    a_state = next(i for i, st in enumerate(mm.states) if st[m.pc_i] == "A")
    actions = sorted(mv.action for mv in moves_of(mm, a_state))
    assert actions == ["C.S.t4", "C.S.t6"]


def test_env_guard_reads_latch():
    # the observer syncs on the platform input, then reads the latched value
    # in a follow-up unlabelled command (synchronise first, exchange second)
    model = parse_model(INPUT_MODEL)
    env = parse_spec("""
    pmodules MObs: pmodule Obs {
      pending : bool init false;
      seen_on : bool init false;
      [InMod::RP::cmd.out] @pending == false -> (@pending = true);
      [] @pending == true /\\ InMod::RP::cmd.out.val == Power::On -> (@pending = false) & (@seen_on = true);
      [] @pending == true /\\ InMod::RP::cmd.out.val != Power::On -> (@pending = false);
    }
    """).find(PModulesDecl, "MObs")
    closed = instantiate(model, {}, None, env, "mdp")
    mm = build_markov(closed)
    seen_i = closed.index["env.Obs.seen_on"]
    latch_i = next(closed.index[v.name] for v in closed.vars if v.kind == "latch")
    seen_states = [st for st in mm.states if st[seen_i] is True]
    assert seen_states
    assert all(st[latch_i] == "Power::On" for st in seen_states)


# --- trigger-meets-trigger synchronisation (joint initiation) -------------------------

TRIGGER_SYNC_MODEL = """
module TSMod {
  controller C {
    event ping : int;
    machine A {
      var a : int = 0;
      event ping : int;
      initial a0;
      state A1;
      state A2 { entry a = a + 1 };
      transition s0 { from a0 to A1 }
      transition s1 { from A1 to A2 trigger ping ! 7 }
    }
    machine B {
      var y : int = 0;
      event ping : int;
      initial b0;
      state B1;
      state B2 { entry y = y * 2 };
      transition r0 { from b0 to B1 }
      transition r1 { from B1 to B2 trigger ping ? y }
    }
    connection A.ping -> B.ping;
  }
}
"""


def test_trigger_trigger_joint_initiation():
    model = parse_model(TRIGGER_SYNC_MODEL)
    closed = instantiate(model, {}, None, None, "mdp")
    mm = build_markov(closed)
    a = next(m for m in closed.machines if m.mach.name == "A")
    b = next(m for m in closed.machines if m.mach.name == "B")
    y_i = closed.index["C.B.y"]
    # find the joint initiation step: tagged move where both locks are taken
    joint = [(s, mv) for s in range(mm.num_states) for mv in moves_of(mm, s)
             if any("ping" in ep for ep, _ in mv.tags)]
    assert len(joint) == 1
    s, mv = joint[0]
    src = mm.states[s]
    dst = mm.states[mv.branches[0][1]]
    assert src[a.lk_i] == 0 and src[b.lk_i] == 0
    # both machines lock in the same step (both targets have entry actions)
    assert dst[a.lk_i] == "s1" and dst[b.lk_i] == "r1"
    assert dst[a.pc_i] == "A2_entering" and dst[b.pc_i] == "B2_entering"
    assert dst[y_i] == 7  # the value moves on the initiation step
    # afterwards, the two entry actions interleave: two moves, one per machine
    mid = mv.branches[0][1]
    assert len(moves_of(mm, mid)) == 2
    owners = {m.action.split(".")[1] for m in moves_of(mm, mid)}
    assert owners == {"A", "B"}


def test_send_meets_send_rejected():
    text = TRIGGER_SYNC_MODEL.replace(
        "transition r1 { from B1 to B2 trigger ping ? y }",
        "transition r1 { from B1 to B2 action ping ! 1 }")
    model = parse_model(text)
    closed = instantiate(model, {}, None, None, "mdp")
    mm = build_markov(closed)
    # the two senders can never pair up: no tagged step exists and the
    # composition deadlocks with both machines waiting
    assert not any("ping" in ep for row in all_moves(mm) for mv in row
                   for ep, _ in mv.tags)
    assert any(mm.deadlock)


def test_receiver_without_a_value_fails_only_when_paired():
    # A sends ping without a value; B can answer with r1, which binds y, or
    # with r2, which binds nothing.  Only the pairing with r1 is an error,
    # reported when that pairing is enabled.
    text = TRIGGER_SYNC_MODEL.replace(
        "transition s1 { from A1 to A2 trigger ping ! 7 }",
        "transition s1 { from A1 to A2 action ping }").replace(
        "transition r1 { from B1 to B2 trigger ping ? y }",
        "transition r1 { from B1 to B2 trigger ping ? y guard y > GUARD }\n"
        "      transition r2 { from B1 to B2 trigger ping }")
    closed = instantiate(parse_model(text.replace("GUARD", "0")), {}, None, None, "mdp")
    mm = build_markov(closed)
    assert sum(any("ping" in ep for ep, _ in mv.tags) for row in all_moves(mm) for mv in row) == 1
    closed = instantiate(parse_model(text.replace("GUARD", "0 - 1")), {}, None, None, "mdp")
    with pytest.raises(BuildError, match="receiver on TSMod::C::A::ping needs a value but "
                                         "the sender provides none"):
        build_markov(closed)


def test_validate_sync_fixtures_clean():
    from rcprob.resolve import validate
    from rcprob.props import SpecAst
    for text in (SYNC_MODEL, TRIGGER_SYNC_MODEL, EXIT_MODEL, INPUT_MODEL):
        model = parse_model(text)
        diags = [d for d in validate(model, SpecAst()) if d.severity == "error"]
        assert diags == [], [str(d) for d in diags]


# --- operations, chained junctions ---------------------------------------------------

OP_MODEL = """
module OpMod {
  platform P {
    var x : int = 0;
    var y : int = 0;
    operation bump(d : int);
  }
  controller C {
    requires P;
    machine S {
      initial i0;
      state A;
      state B;
      transition t0 { from i0 to A }
      transition t1 { from A to B action bump(3) }
    }
  }
}
"""


def test_operation_call_executes_definition():
    model = parse_model(OP_MODEL)
    defs = parse_spec("""
    defs D:
      poperation bump(d) = { (OpMod::P::x = OpMod::P::x + ``d) and (OpMod::P::y = ``d * 2) }
    """).statements[0]
    closed = instantiate(model, {}, defs, None, "dtmc")
    mm = build_markov(closed)
    m = closed.machines[0]
    x_i, y_i = closed.index["P.x"], closed.index["P.y"]
    final = [st for st in mm.states if st[m.pc_i] == "B"]
    assert final
    # the operation performed both assignments atomically in one step
    assert all(st[x_i] == 3 and st[y_i] == 6 for st in final)


CHAINED_JUNCTION_MODEL = """
module CJMod {
  controller C {
    machine S {
      var v : int = 0;
      initial i0;
      pjunction j1;
      pjunction j2;
      state Done;
      transition t0 { from i0 to Start }
      state Start;
      transition t1 { from Start to j1 action v = v + 1 }
      transition t2 { from j1 to Done prob 0.5 }
      transition t3 { from j1 to j2 prob 0.5 }
      transition t4 { from j2 to Done prob 0.25 action v = 10 }
      transition t5 { from j2 to Done prob 0.75 }
    }
  }
}
"""


def test_chained_junctions_and_action_into_junction():
    model = parse_model(CHAINED_JUNCTION_MODEL)
    closed = instantiate(model, {}, None, None, "dtmc")
    mm = build_markov(closed)
    m = closed.machines[0]
    v_i = closed.index["C.S.v"]
    # find the first junction state: lock held by t1 after its action ran
    j1 = [i for i, st in enumerate(mm.states) if st[m.pc_i] == "j1"]
    assert len(j1) == 1
    assert mm.states[j1[0]][v_i] == 1  # t1's action ran before the junction
    branch = moves_of(mm, j1[0])[0]
    targets = {mm.states[d][m.pc_i] for _, d in branch.branches}
    assert targets == {"Done_entering", "j2"} or targets == {"Done", "j2"}
    # reach Done both with v=1 (straight branches) and v=10 (t4's action)
    done_vals = {st[v_i] for st in mm.states if st[m.pc_i] == "Done"}
    assert done_vals == {1, 10}
    mm.check_stochastic()


def test_shared_variable_interleaving_orders():
    model = parse_model("""
    module ShMod {
      platform P { var v : int = 0; }
      controller C {
        requires P;
        machine A {
          initial a0; state A1;
          transition ta { from a0 to A1 action v = v + 1 }
        }
        machine B {
          initial b0; state B1;
          transition tb { from b0 to B1 action v = v * 3 }
        }
      }
    }
    """)
    closed = instantiate(model, {}, None, None, "mdp")
    mm = build_markov(closed)
    v_i = closed.index["P.v"]
    a = next(m for m in closed.machines if m.mach.name == "A")
    b = next(m for m in closed.machines if m.mach.name == "B")
    finals = {st[v_i] for st in mm.states
              if st[a.pc_i] == "A1" and st[b.pc_i] == "B1"}
    # (0+1)*3 = 3 and 0*3+1 = 1: both interleavings are reachable
    assert finals == {1, 3}


def test_bidirectional_plain_event_rejected():
    model = parse_model("""
    module BiMod {
      controller C {
        machine A { event e;
          initial a0; state A0; state A1;
          transition t0 { from a0 to A0 }
          transition t { from A0 to A1 action e } }
        machine B { event e;
          initial b0; state B0; state B1;
          transition r0 { from b0 to B0 }
          transition r { from B0 to B1 trigger e } }
        connection A.e -> B.e;
        connection B.e -> A.e;
      }
    }
    """)
    with pytest.raises(BuildError, match="both directions"):
        instantiate(model, {}, None, None, "mdp")


def test_sync_across_controllers_via_relay():
    model = parse_model("""
    module RelMod {
      controller C1 {
        event ping;
        machine A { event ping;
          initial a0; state A1; state A2;
          transition s0 { from a0 to A1 }
          transition s1 { from A1 to A2 action ping } }
        connection A.ping -> C1.ping;
      }
      controller C2 {
        event ping;
        machine B { event ping;
          initial b0; state B1; state B2;
          transition r0 { from b0 to B1 }
          transition r1 { from B1 to B2 trigger ping } }
        connection C2.ping -> B.ping;
      }
      connection C1.ping -> C2.ping;
    }
    """)
    closed = instantiate(model, {}, None, None, "dtmc")
    mm = build_markov(closed)
    b = next(m for m in closed.machines if m.mach.name == "B")
    # the relayed sync reaches B: some state has B in B2
    assert any(st[b.pc_i] == "B2" for st in mm.states)
    # and the joint step carries tags for every endpoint along the chain
    tagged = [mv.tags for row in all_moves(mm) for mv in row if mv.tags]
    assert tagged
    endpoints = {ep for tags in tagged for ep, _ in tags}
    assert {"RelMod::C1::A::ping", "RelMod::C1::ping",
            "RelMod::C2::ping", "RelMod::C2::B::ping"} <= endpoints


def test_exit_then_transition_action_then_junction():
    model = parse_model("""
    module EJMod {
      controller C {
        machine S {
          var v : int = 0;
          initial i0;
          state A { exit v = v + 1 };
          pjunction j;
          state Done;
          transition t0 { from i0 to A }
          transition t1 { from A to j action v = v * 10 }
          transition t2 { from j to Done prob 0.5 }
          transition t3 { from j to Done prob 0.5 action v = v + 100 }
        }
      }
    }
    """)
    closed = instantiate(model, {}, None, None, "dtmc")
    mm = build_markov(closed)
    m = closed.machines[0]
    v_i = closed.index["C.S.v"]
    # exit runs first (v=1), then the transition action (v=10), then branches
    j_states = [st for st in mm.states if st[m.pc_i] == "j"]
    assert len(j_states) == 1 and j_states[0][v_i] == 10
    done_vals = {st[v_i] for st in mm.states if st[m.pc_i] == "Done"}
    assert done_vals == {10, 110}
    mm.check_stochastic()


# --- exact weights interned once per closed model ----------------------------------

JOIN_ENV = """
pmodules MTwo:
  pmodule A {
    a : [0 to 2] init 0;
    [SRWMod::ctrl_ref::stm_ref::left.out] true -> (1/2: @a = 1) & (1/3: @a = 2) & (1/6: @a = 0);
  }
  pmodule B {
    b : [0 to 2] init 0;
    [SRWMod::ctrl_ref::stm_ref::left.out] true -> (1/3: @b = 1) & (1/2: @b = 2) & (1/6: @b = 0);
  }
"""


def _join_closed(srw_model, srw_spec):
    env = parse_spec(JOIN_ENV).find(PModulesDecl, "MTwo")
    return instantiate(srw_model, {"MaxDist": 2, "MaxSteps": 4, "Pl": Fraction(1, 2)},
                       srw_spec.find(DefinitionsDecl, "D_recharge"), env, "dtmc", srw_spec)


def _junction_closed(first: str, second: str):
    model = parse_model(f"""
    module JMod {{
      controller C {{
        machine S {{
          initial i0;
          pjunction j;
          state A;
          state B;
          transition t0 {{ from i0 to j }}
          transition t1 {{ from j to A prob {first} }}
          transition t2 {{ from j to A prob {second} }}
          transition t3 {{ from j to B prob 1 - {first} - {second} }}
        }}
      }}
    }}
    """)
    return instantiate(model, {}, None, None, "dtmc")


def _junction_move(closed, mm):
    j = next(s for s, st in enumerate(mm.states) if st[closed.machines[0].pc_i] == "j")
    return moves_of(mm, j)[0]


def test_env_join_products_are_made_once_per_pair_of_leaves(srw_model, srw_spec):
    closed = _join_closed(srw_model, srw_spec)
    mm = build_markov(closed)
    joins = [m for m, action in enumerate(mm.move_action) if action.endswith("+A.c0+B.c0")]
    assert len(joins) > 1
    products = {tuple(mm.node_id[mm.first_branch[m]:mm.first_branch[m + 1]].tolist())
                for m in joins}
    # every join takes the same nine product nodes, one per pair of leaves,
    # to nine destinations; 1/2*1/3 and 1/3*1/2 stay two nodes of one value
    (nodes,) = products
    assert len(nodes) == len(set(nodes)) == 9
    assert all(closed.weight_table.ops[n][0] is operator.mul for n in nodes)
    assert sorted(mm.weights[n] for n in nodes) == [
        Fraction(1, 36), Fraction(1, 18), Fraction(1, 18), Fraction(1, 12), Fraction(1, 12),
        Fraction(1, 9), Fraction(1, 6), Fraction(1, 6), Fraction(1, 4)]


def test_junction_branches_to_one_target_merge_to_their_exact_sum():
    closed = _junction_closed("0.25", "1/3")
    mm = build_markov(closed)
    move = _junction_move(closed, mm)
    assert [p for p, _ in move.branches] == [Fraction(7, 12), Fraction(5, 12)]
    assert len(set(mm.weights)) == len(mm.weights)
    mm.check_stochastic()


def test_prob_zero_branch_is_not_stored():
    closed = _junction_closed("0", "0")
    mm = build_markov(closed)
    move = _junction_move(closed, mm)
    assert [p for p, _ in move.branches] == [Fraction(1)]
    assert all(mm.weights[w] > 0 for w in mm.node_id.tolist())
    # the two zero leaves are known when they are made, and no branch keeps one
    zero = closed.weight_table.zero
    assert len(closed.weight_table.zero_leaves()) == 2 == len(zero)
    assert not zero & set(mm.node_id.tolist())


def _floats_match(mm):
    assert (mm.node_id < len(mm.weight_float)).all()
    assert all(mm.weight_float[i] == float(mm.weights[i]) for i in range(len(mm.weight_float)))


def test_models_of_one_closed_model_share_its_weight_table(srw_model, srw_spec):
    closed = _join_closed(srw_model, srw_spec)
    lazy = open_markov(closed)
    lazy.expand([0])  # before any environment join
    _floats_match(lazy)
    with pytest.raises(BuildError, match="cap"):
        build_markov(closed, max_states=40)
    full = build_markov(closed)
    assert full.weights is lazy.weights is closed.weight_table.weights
    assert full.nodes is lazy.nodes is closed.weight_table
    _floats_match(full)
    lazy.expand_all()  # meets the products that the other builds made
    _floats_match(lazy)
    assert lazy.export_text() == full.export_text()
    again = build_markov(closed)
    _floats_match(again)
    assert again.export_text() == full.export_text()


def _fraction_calls(closed, monkeypatch):
    """The model of `closed`, and the `Fraction` hashes and comparisons
    that exploring it made."""
    calls = {"hash": 0, "eq": 0}
    real_hash, real_eq = Fraction.__hash__, Fraction.__eq__

    def counted_hash(self):
        calls["hash"] += 1
        return real_hash(self)

    def counted_eq(self, other):
        calls["eq"] += 1
        return real_eq(self, other)

    monkeypatch.setattr(Fraction, "__hash__", counted_hash)
    monkeypatch.setattr(Fraction, "__eq__", counted_eq)
    mm = build_markov(closed)
    monkeypatch.undo()
    return mm, calls


def test_exploration_hashes_and_compares_no_fraction_per_state(srw_model, srw_spec, monkeypatch):
    closed = instantiate(srw_model, {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(1, 2)},
                         srw_spec.find(DefinitionsDecl, "D_recharge"), None, "dtmc", srw_spec)
    mm, calls = _fraction_calls(closed, monkeypatch)
    assert mm.num_states > 1000
    assert calls["hash"] == 0 and calls["eq"] <= len(set(mm.weights)), calls


def test_exploring_environment_joins_hashes_no_fraction(srw_model, srw_spec, monkeypatch):
    mm, calls = _fraction_calls(_join_closed(srw_model, srw_spec), monkeypatch)
    assert any(action.endswith("+A.c0+B.c0") for action in mm.move_action)
    assert calls["hash"] == 0 and calls["eq"] <= len(set(mm.weights)), calls


# --- generated source ----------------------------------------------------------------

# Prints the successors source of the SRW fixture, of it with JOIN_ENV's
# modules and of SYNC_MODEL (the arguments: the fixtures, JOIN_ENV, SYNC_MODEL).
SOURCE_OF = """
import sys
from fractions import Fraction
from pathlib import Path
from rcprob.build import _Explorer, instantiate
from rcprob.model import parse_model
from rcprob.props import DefinitionsDecl, PModulesDecl, parse_spec
fixtures, join_env, sync_model = sys.argv[1:]
model = parse_model((Path(fixtures) / "srw.rcm").read_text())
spec = parse_spec((Path(fixtures) / "srw.rcp").read_text())
for env in (None, parse_spec(join_env).find(PModulesDecl, "MTwo")):
    print(_Explorer(instantiate(model, {"MaxDist": 2, "MaxSteps": 4, "Pl": Fraction(1, 2)},
                                spec.find(DefinitionsDecl, "D_recharge"), env, "dtmc",
                                spec)).source)
print(_Explorer(instantiate(parse_model(sync_model), {}, None, None, "mdp")).source)
"""


def test_generated_source_does_not_depend_on_the_hash_seed():
    # no set or dict order may leak into the code
    fixtures = Path(__file__).parent / "fixtures"
    env = dict(os.environ, PYTHONPATH=str(Path(rcprob.__file__).parent.parent))
    texts = [subprocess.run([sys.executable, "-c", SOURCE_OF, str(fixtures), JOIN_ENV, SYNC_MODEL],
                            env=dict(env, PYTHONHASHSEED=seed), capture_output=True, text=True,
                            check=True, timeout=60).stdout
             for seed in ("1", "2")]
    assert texts[0].count("def successors(s):") == 3 and "+A.c0+B.c0" in texts[0]
    assert texts[0] == texts[1]
