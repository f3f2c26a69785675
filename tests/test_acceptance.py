"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Criterion 1 applies the stated fallback where the engine's converged value
and the published table value disagree beyond the print tolerance: those
cells must instead agree with an independent linear-solve oracle over the
exported explicit model to 1e-9, and the discrepancy is printed.
"""

import random
import time
from fractions import Fraction

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import spsolve

from rcprob import ast as A
from rcprob.ast import QName
from rcprob.build import build_markov, instantiate
from rcprob.exact import ExactChecker, check_AE, check_property, prob_path
from rcprob.model import parse_model
from rcprob.props import (DefinitionsDecl, PModulesDecl, ProbProperty,
                          parse_expression, parse_spec)
from rcprob.prism import (Mangler, _ModelEmitter, _PropsEmitter, check_prism_model,
                          check_prism_props, emit_pair)
from rcprob.resolve import validate
from rcprob.smc import SamplePool, apmc_samples, run_ci, run_sprt

from conftest import make_srw
from oracles import dtmc_row, moves_of, parse_explicit

PASS = "ACCEPTANCE {n} PASS: {what}"
FAIL = "ACCEPTANCE {n} FAIL: {what}"


def report(n, ok, what):
    print(PASS.format(n=n, what=what) if ok else FAIL.format(n=n, what=what))
    assert ok, f"criterion {n}: {what}"


STUCK = ("SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck")
STUCK_NOT_ORIGIN = parse_expression(f"{STUCK} /\\ SRWMod::SRWRP::x != 0")


# --- criterion 1: reward table reproduction ----------------------------------------

TABLE = [
    ("Pl=0.5 non-recharging", Fraction(1, 2), "D_norecharge",
     [(2.5, 0.05), (4.0, 0.05), (5.1, 0.05), (6.2, 0.05), (7.3, 0.05)]),
    ("Pl=0.5 recharging", Fraction(1, 2), "D_recharge",
     [(4.7, 0.05), (7.0, 0.05), (9.5, 0.05), (12.5, 0.05), (16.2, 0.05)]),
    ("Pl=0.3 non-recharging", Fraction(3, 10), "D_norecharge",
     [(1.33, 0.01), (1.47, 0.01), (1.5, 0.05), (1.51, 0.01), (1.7, 0.05)]),
    ("Pl=0.8 non-recharging", Fraction(8, 10), "D_norecharge",
     [(0.66, 0.01), (0.67, 0.01), (0.67, 0.01), (0.67, 0.01), (0.67, 0.01)]),
]


def oracle_reward(mm, closed):
    """Reward-to-target by sparse LU solve over the exported explicit model."""
    parsed = parse_explicit(mm.export_text())
    n = parsed["n"]
    pc = [st["ctrl_ref.stm_ref.pc"] for st in parsed["states"]]
    x = [int(st["SRWRP.x"]) for st in parsed["states"]]
    target = np.array([p == "Stuck" and v != 0 for p, v in zip(pc, x)])
    rows, cols, data = [], [], []
    step_reward = np.zeros(n)
    for s in range(n):
        actions = parsed["moves"][s]
        k = len(actions)
        merged = {}
        for action, branches in actions.items():
            for prob, dst in branches:
                merged[dst] = merged.get(dst, Fraction(0)) + Fraction(prob, k)
        for d, p in merged.items():
            rows.append(s)
            cols.append(d)
            data.append(float(p))
    # re-derive the reward rule independently from the raw export text:
    # syncs on left/right out of the machine, fired from the origin
    for line in mm.export_text().splitlines():
        if line.startswith(("STATES", "KIND", "INITIAL", "VARS", "STATE")):
            continue
        src, rest = line.split(" (", 1)
        action, rest = rest.split(") ", 1)
        _, _, tags = rest.split(" ", 2)
        src = int(src)
        if x[src] == 0 and ("left.out" in tags or "right.out" in tags):
            k = len(parsed["moves"][src])
            step_reward[src] += 1.0 / k
    mat = csr_matrix((data, (rows, cols)), shape=(n, n))
    # all states must reach the target almost surely for the solve to be valid
    free = np.flatnonzero(~target)
    ident = csr_matrix((np.ones(free.size), (range(free.size), range(free.size))),
                       shape=(free.size, free.size))
    q = mat[free, :][:, free]
    sol = spsolve((ident - q).tocsc(), step_reward[free])
    out = np.zeros(n)
    out[free] = sol
    return out, target


def test_criterion_1_reward_table(srw_model, srw_spec):
    t0 = time.time()
    engine_values = {}
    models = {}
    for name, pl, defs, cells in TABLE:
        for i, maxsteps in enumerate((20, 40, 60, 80, 100)):
            closed, mm = make_srw(srw_model, srw_spec, maxsteps=maxsteps, pl=pl,
                                  defs=defs)
            prop = srw_spec.find(ProbProperty, "R_stuck_not_origin")
            res = check_property(mm, prop)  # engine default tolerance
            engine_values[(name, maxsteps)] = res.verdict
            models[(name, maxsteps)] = (closed, mm)
    elapsed = time.time() - t0
    discrepancies = []
    for name, pl, defs, cells in TABLE:
        for (expected, tolerance), maxsteps in zip(cells, (20, 40, 60, 80, 100)):
            got = engine_values[(name, maxsteps)]
            if abs(got - expected) <= tolerance:
                continue
            # fallback: converged value must match the linear-solve oracle
            closed, mm = models[(name, maxsteps)]
            checker = ExactChecker(mm, tol=1e-13)
            tight = checker.expected_reward("R_origins", A.Reachable(STUCK_NOT_ORIGIN),
                                            "exact")[mm.initial]
            oracle, target = oracle_reward(mm, closed)
            deviation = abs(tight - oracle[mm.initial])
            discrepancies.append(
                f"  {name} MaxSteps={maxsteps}: engine {got:.4f} vs published "
                f"{expected} (oracle agreement {deviation:.2e})")
            assert deviation <= 1e-9, (name, maxsteps, deviation)
    for line in discrepancies:
        print(line)
    ok = elapsed < 60
    report(1, ok, f"reward table reproduced ({len(discrepancies)} cells via the "
                  f"documented oracle fallback), sweep took {elapsed:.1f}s")


# --- criterion 2: probability of sticking is one -------------------------------------


def test_criterion_2_stuck_probability(srw_model, srw_spec):
    worst = 0.0
    for defs in ("D_recharge", "D_norecharge"):
        for pl in (Fraction(1, 2), Fraction(3, 10), Fraction(8, 10)):
            closed, mm = make_srw(srw_model, srw_spec, pl=pl, defs=defs)
            values = prob_path(mm, A.Finally_(None, parse_expression(STUCK)))
            worst = max(worst, abs(values[mm.initial] - 1.0))
    report(2, worst <= 1e-6, f"P[F stuck] = 1 across 6 configurations "
                             f"(worst deviation {worst:.2e})")


# --- criterion 3: deadlock freedom ----------------------------------------------------


def test_criterion_3_deadlock_freedom(srw_model, srw_spec):
    prop = srw_spec.find(ProbProperty, "P_deadlock_free")
    verdicts = []
    for maxsteps in range(20, 101, 10):
        closed, mm = make_srw(srw_model, srw_spec, maxsteps=maxsteps)
        verdicts.append(check_property(mm, prop).verdict)
    report(3, all(v is True for v in verdicts),
           f"deadlock freedom over all 9 configurations: {verdicts}")


# --- criterion 4: qualitative suite ----------------------------------------------------


class RawAtomContext:
    """Closed-model wrapper exposing the program counter to test formulas."""

    def __init__(self, closed, extras):
        self._closed = closed
        self.spec = closed.spec
        self._extras = extras

    def spec_expr(self, e, real=False):
        if isinstance(e, A.Binary) and isinstance(e.left, A.Ref) \
                and len(e.left.name.segments) == 1 \
                and e.left.name.segments[0] in self._extras:
            read = self._extras[e.left.name.segments[0]]
            value = e.right.value
            if e.op == "==":
                return lambda s: read(s) == value
            if e.op == "!=":
                return lambda s: read(s) != value
        return self._closed.spec_expr(e, real)


def pc_eq(value):
    return A.Binary("==", A.Ref(QName(("pc",))), A.Lit(value))


def test_criterion_4_qualitative_suite(srw_model, srw_spec):
    closed, mm = make_srw(srw_model, srw_spec, kind="mdp")
    m = closed.machines[0]
    mm.closed = RawAtomContext(closed, {"pc": lambda s, i=m.pc_i: s[i]})
    stuck = parse_expression(STUCK)
    move = parse_expression(
        "SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Move")
    at_p0 = pc_eq("p0")
    steps_max = parse_expression("SRWMod::SRWRP::steps == SRWMod::SRWRP::MaxSteps")
    bounded = parse_expression("SRWMod::SRWRP::x <= SRWMod::SRWRP::MaxDist /\\ "
                               "SRWMod::SRWRP::x >= -SRWMod::SRWRP::MaxDist")
    i = mm.initial
    F, G = (lambda e: A.Finally_(None, e)), (lambda e: A.Globally(None, e))
    checks = [
        ("(pc=i0)", "pc=i0" in mm.labels(i), True),
        ("X(pc=Move)", bool(check_AE(mm, "A", A.Next(move))[i]), False),
        ("A[F Stuck]", bool(check_AE(mm, "A", F(stuck))[i]), False),
        ("E[G !Stuck]", bool(check_AE(mm, "E", G(A.Unary("not", stuck)))[i]), True),
        ("A[FG Stuck]", bool(check_AE(mm, "A", F(G(stuck)))[i]), False),
        ("E[FG Stuck]", bool(check_AE(mm, "E", F(G(stuck)))[i]), True),
        ("A[GF Move]", bool(check_AE(mm, "A", G(F(move)))[i]), False),
        ("A[GF Move => GF p0]",
         bool(check_AE(mm, "A", A.Binary("=>", G(F(move)), G(F(at_p0))))[i]), True),
        ("A[FG Stuck => GF steps=MaxSteps]",
         bool(check_AE(mm, "A", A.Binary("=>", F(G(stuck)), G(F(steps_max))))[i]),
         True),
        ("A[G (steps=MaxSteps => F Stuck)]",
         bool(check_AE(mm, "A", G(A.Binary("=>", steps_max, F(stuck))))[i]), True),
        ("A[G bounded]", bool(check_AE(mm, "A", G(bounded))[i]), True),
    ]
    bad = [(name, got, want) for name, got, want in checks if got != want]
    for name, got, want in bad:
        print(f"  {name}: got {got}, expected {want}")
    report(4, not bad, f"all {len(checks)} qualitative verdicts reproduced on the mdp")


# --- criterion 5: oracle equivalence ---------------------------------------------------


def test_criterion_5_oracle_equivalence():
    from oracles import (brute_ae, dense_reach, explicit_dtmc_matrix,
                         mdp_extremal_reach, random_dtmc, random_mdp, var_in)
    rng = random.Random(20240801)
    worst = 0.0
    for trial in range(500):
        mm = random_dtmc(rng, rng.randint(3, 200))
        targets = rng.sample(range(mm.num_states), max(1, mm.num_states // 8))
        values = prob_path(mm, A.Finally_(None, var_in("x", targets)), tol=1e-13)
        mat = explicit_dtmc_matrix(parse_explicit(mm.export_text()))
        want = np.zeros(mm.num_states, dtype=bool)
        want[targets] = True
        oracle = dense_reach(mat, want)
        worst = max(worst, float(np.max(np.abs(values - oracle))))
    assert worst < 1e-9
    worst_mdp = 0.0
    for trial in range(30):
        mm = random_mdp(rng, rng.randint(3, 9), max_nondet_states=6)
        targets = rng.sample(range(mm.num_states), max(1, mm.num_states // 4))
        want = np.zeros(mm.num_states, dtype=bool)
        want[targets] = True
        for mode in ("min", "max"):
            engine = prob_path(mm, A.Finally_(None, var_in("x", targets)),
                               mode=mode, tol=1e-13)
            oracle = mdp_extremal_reach(mm, want, mode)
            worst_mdp = max(worst_mdp, float(np.max(np.abs(engine - oracle))))
    assert worst_mdp < 1e-9
    mismatches = 0
    for trial in range(80):
        mm = random_mdp(rng, rng.randint(2, 10), max_nondet_states=4)
        n = mm.num_states
        p_vals = rng.sample(range(n), max(1, n // 3))
        q_vals = rng.sample(range(n), max(1, n // 3))
        p = np.zeros(n, dtype=bool)
        p[p_vals] = True
        q = np.zeros(n, dtype=bool)
        q[q_vals] = True
        pe, qe = var_in("x", p_vals), var_in("x", q_vals)
        F, G = (lambda e: A.Finally_(None, e)), (lambda e: A.Globally(None, e))
        shapes = {
            ("F", "p"): F(pe), ("G", "p"): G(pe),
            ("U", "p", "q"): A.Until(pe, None, qe),
            ("GF", "p"): G(F(pe)), ("FG", "p"): F(G(pe)),
            ("GF=>GF", "p", "q"): A.Binary("=>", G(F(pe)), G(F(qe))),
        }
        for shape, formula in shapes.items():
            for quant in ("A", "E"):
                engine = check_AE(mm, quant, formula)
                oracle = brute_ae(mm, quant, shape, {"p": p, "q": q})
                if not (engine == oracle).all():
                    mismatches += 1
    assert mismatches == 0
    report(5, True,
           f"500 dtmcs vs dense solve (worst {worst:.1e}), 30 mdps vs adversary "
           f"enumeration (worst {worst_mdp:.1e}), 80 graphs vs lasso enumeration")


# --- criterion 6: stochasticity invariants ----------------------------------------------


def random_model_text(rng):
    n_states = rng.randint(2, 4)
    states = [f"S{i}" for i in range(n_states)]
    n_vars = rng.randint(1, 2)
    lines = ["module M {", "  controller ctl {", "    machine mac {"]
    for i in range(n_vars):
        lines.append(f"      var v{i} : bool = {'true' if rng.random() < 0.5 else 'false'};")
    lines.append("      initial ini;")
    lines.append("      pjunction pj;")
    for s in states:
        if rng.random() < 0.4:
            i = rng.randrange(n_vars)
            lines.append(f"      state {s} {{ entry v{i} = not v{i} }};")
        else:
            lines.append(f"      state {s};")
    lines.append(f"      transition t0 {{ from ini to {states[0]} }}")
    tid = 1
    for _ in range(rng.randint(1, 4)):
        src = rng.choice(states)
        dst = rng.choice(states + ["pj"])
        guard = ""
        if rng.random() < 0.5:
            guard = f" guard v{rng.randrange(n_vars)} == {'true' if rng.random() < 0.5 else 'false'}"
        action = ""
        if rng.random() < 0.5:
            i = rng.randrange(n_vars)
            action = f" action v{i} = not v{i}"
        lines.append(f"      transition t{tid} {{ from {src} to {dst}{guard}{action} }}")
        tid += 1
    den = rng.choice([2, 3, 4, 5])
    num = rng.randint(1, den - 1)
    lines.append(f"      transition t{tid} {{ from pj to {states[0]} prob {num}/{den} }}")
    lines.append(f"      transition t{tid+1} {{ from pj to {states[-1]} prob 1 - {num}/{den} }}")
    lines.extend(["    }", "  }", "}"])
    return "\n".join(lines)


def test_criterion_6_stochasticity(srw_model, srw_spec):
    # fixtures
    for kind in ("dtmc", "mdp"):
        closed, mm = make_srw(srw_model, srw_spec, maxdist=2, maxsteps=4, kind=kind)
        mm.check_stochastic()
    rng = random.Random(99)
    checked = 0
    branching = 0  # models whose junction is reached and splits two ways
    for _ in range(1000):
        text = random_model_text(rng)
        model = parse_model(text)
        kind = "dtmc" if rng.random() < 0.5 else "mdp"
        closed = instantiate(model, {}, None, None, kind)
        mm = build_markov(closed)
        mm.check_stochastic()  # exact rational row sums
        for s in range(mm.num_states):
            if mm.kind == "dtmc":
                assert sum(dtmc_row(mm, s).values()) == 1
            for mv in moves_of(mm, s):
                assert sum(p for p, _ in mv.branches) == 1
        m = closed.machines[0]
        at_junction = [s for s, st in enumerate(mm.states) if st[m.pc_i] == "pj"]
        if at_junction and len({t.target for t, _ in m.junction_weights["pj"]}) == 2:
            # both `prob num/den` branches are positive, so none is dropped
            assert all(len(mv.branches) == 2 for s in at_junction for mv in moves_of(mm, s)), text
            branching += 1
        checked += 1
    report(6, checked == 1000 and branching > 0,
           f"exact distribution checks on fixtures and {checked} fuzzed models, "
           f"{branching} of them with a two-way junction")


# --- criterion 7: statistical calibration -------------------------------------------------


def test_criterion_7_smc_calibration(srw_model, srw_spec):
    closed, mm = make_srw(srw_model, srw_spec, maxdist=2, maxsteps=4,
                          defs="D_norecharge")
    target = parse_expression("SRWMod::SRWRP::x == 2")
    exact = prob_path(mm, A.Finally_(None, target), tol=1e-12)[mm.initial]
    assert 0.0 < exact < 1.0
    covered = 0
    for seed in range(200):
        est = run_ci(SamplePool(mm, seed), A.Finally_(None, target), alpha=0.05, n=100,
                     pathlen=1000)
        if abs(est.point - exact) <= est.half_width:
            covered += 1
    ok_ci = covered >= 180
    ok_apmc = apmc_samples(0.05, 0.01) == 1060
    # SPRT: true probability exactly two deltas below the threshold
    from oracles import Move, explicit_model, var_eq
    p_true = Fraction(3, 10)
    chain = explicit_model("dtmc", ("x",), [(0,), (1,), (2,)], [
        [Move("a", ((p_true, 1), (1 - p_true, 2)))],
        [Move("l", ((Fraction(1), 1),))],
        [Move("l", ((Fraction(1), 2),))],
    ], [False, True, True])
    correct = 0
    for seed in range(100):
        est = run_sprt(SamplePool(chain, seed), A.Finally_(None, var_eq("x", 1)),
                       A.Bound(">=", A.Lit(Fraction(4, 10))), theta=0.4,
                       alpha=0.01, delta=0.05)
        if est.decision == "accept-H1" and est.satisfied is False:
            correct += 1
    ok_sprt = correct >= 99
    report(7, ok_ci and ok_apmc and ok_sprt,
           f"CI coverage {covered}/200 (>=180), APMC n={apmc_samples(0.05, 0.01)}, "
           f"SPRT correct {correct}/100 (>=99)")


# --- criterion 8: emission ------------------------------------------------------------------


def test_criterion_8_emission(srw_model, srw_spec):
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    closed = instantiate(srw_model, {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(1, 2)},
                         defs, None, "mdp", srw_spec)
    pair = emit_pair(closed, srw_spec)
    model_errors = check_prism_model(pair.model_text)
    props_errors = check_prism_props(pair.props_text)
    em = _ModelEmitter(closed, None, Mangler())
    pe = _PropsEmitter(closed, em)
    cases = [
        ("not Exists [Finally deadlock]", '!E [ F "deadlock" ]'),
        ("Prob=? of [Finally #l_stuck /\\ not #l_origin]",
         'P=? [ F "l_stuck" & !"l_origin" ]'),
        ("Forall [Globally #l3]", 'A [ G "l3" ]'),
    ]
    translation_ok = all(pe.property_line(parse_expression(s)) == want
                         for s, want in cases)
    report(8, not model_errors and not props_errors and translation_ok,
           f"emitted model/properties pass the subset validator "
           f"({len(model_errors) + len(props_errors)} errors) and the three "
           f"translations are byte-exact")


# --- criterion 9: validation corpus ----------------------------------------------------------


def test_criterion_9_validation_corpus(srw_model):
    from pathlib import Path
    corpus = Path(__file__).parent / "corpus"
    codes = ["WFREF-1", "WFREF-2", "WFProp-1", "WFProp-2", "WFProp-3", "WFProp-4",
             "WFExp-1", "WFExp-2", "WFExp-3", "WFExp-4", "WFExp-5", "WFExp-6",
             "WFExp-7"]
    per_file = {}
    for path in sorted(corpus.glob("*.rcp")):
        per_file[path.name] = validate(srw_model, parse_spec(path.read_text()))
    ok = True
    for code in codes:
        expected = f"{code.replace('-', '').lower()}.rcp"
        firing = {name for name, ds in per_file.items()
                  if any(d.code == code for d in ds)}
        count = sum(1 for d in per_file.get(expected, []) if d.code == code)
        if firing != {expected} or count != 1:
            ok = False
            print(f"  {code}: files {sorted(firing)}, count {count}")
    for name, ds in per_file.items():
        if name.startswith("valid") and ds:
            ok = False
            print(f"  {name}: unexpected diagnostics {[str(d) for d in ds]}")
    report(9, ok, f"all {len(codes)} codes fire exactly once, valid corpus clean")


# --- criterion 10: environment-module integration ----------------------------------------------


ENV_SPEC = """
pmodules MEnv: pmodule Par {
  moved : bool init false;
  [SRWMod::ctrl_ref::stm_ref::left.out] true -> (@moved = true);
  [SRWMod::ctrl_ref::stm_ref::right.out] true -> (@moved = true);
}
label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
label l_ok = @moved \\/ not #l_stuck
prob property P_env:
  Forall [Globally #l_ok]
  with modules MEnv
"""


def hand_product():
    """Manual construction of the composed model for MaxDist=1, MaxSteps=2,
    Pl=1/2, non-recharging Update, with the Par observer.

    States are (x, steps, pc, lk, moved); the chain rules are written out by
    hand from the step semantics.
    """
    def upd(steps):
        return steps + 1 if steps < 2 else steps

    def plus(x):
        return x + 1 if x < 1 else x

    def minus(x):
        return x - 1 if x > -1 else x

    states = {}
    order = []

    def intern(st):
        if st not in states:
            states[st] = len(order)
            order.append(st)
        return states[st]

    init = (0, 0, "i0", 0, False)
    intern(init)
    edges = {}
    frontier = [init]
    while frontier:
        st = frontier.pop(0)
        x, steps, pc, lk, moved = st
        succs = []
        if pc == "i0":
            succs = [(1, (x, steps, "Move_entering", "t0", moved))]
        elif pc == "Move_entering":
            succs = [(1, (x, upd(steps), "Move", 0, moved))]
        elif pc == "Move":
            if steps == 2:
                succs = [(1, (x, steps, "Stuck", 0, moved))]
            elif -1 < x < 1:
                succs = [(1, (x, steps, "p0", "t1", moved))]
            elif x >= 1:
                succs = [(1, (x, steps, "t4_act", "t4", moved))]
            else:
                succs = [(1, (x, steps, "t5_act", "t5", moved))]
        elif pc == "p0":
            succs = [(Fraction(1, 2), (x, steps, "t3_act_1", lk, moved)),
                     (Fraction(1, 2), (x, steps, "t2_act_1", lk, moved))]
        elif pc == "t3_act_1":
            succs = [(1, (minus(x), steps, "t3_act_2", lk, moved))]
        elif pc == "t3_act_2":
            succs = [(1, (x, steps, "Move_entering", lk, True))]
        elif pc == "t2_act_1":
            succs = [(1, (plus(x), steps, "t2_act_2", lk, moved))]
        elif pc == "t2_act_2":
            succs = [(1, (x, steps, "Move_entering", lk, True))]
        elif pc == "t4_act":
            succs = [(1, (minus(x), steps, "t4_act_1", lk, moved))]
        elif pc == "t4_act_1":
            succs = [(1, (x, steps, "Move_entering", lk, True))]
        elif pc == "t5_act":
            succs = [(1, (plus(x), steps, "t5_act_1", lk, moved))]
        elif pc == "t5_act_1":
            succs = [(1, (x, steps, "Move_entering", lk, True))]
        elif pc == "Stuck":
            succs = [(1, st)]
        new = []
        for p, nxt in succs:
            if nxt not in states:
                new.append(nxt)
            edges.setdefault(st, []).append((p, intern(nxt)))
        frontier.extend(new)
    return order, edges, states


def test_criterion_10_environment_module(srw_model):
    spec = parse_spec(ENV_SPEC)
    env = spec.find(PModulesDecl, "MEnv")
    prop = spec.find(ProbProperty, "P_env")
    defs = parse_spec("""
    defs D:
      pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
      pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
      pfunction Update(v, maxv, origin) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
    """).statements[0]
    closed = instantiate(srw_model, {"MaxDist": 1, "MaxSteps": 2, "Pl": Fraction(1, 2)},
                         defs, env, "dtmc", spec)
    mm = build_markov(closed)
    result = check_property(mm, prop)

    order, edges, index = hand_product()
    assert len(order) <= 50
    # the hand product and the built model agree on the state space
    m = closed.machines[0]
    moved_i = closed.index["env.Par.moved"]
    built = {(st[closed.index["SRWRP.x"]], st[closed.index["SRWRP.steps"]],
              st[m.pc_i], st[m.lk_i], st[moved_i]) for st in mm.states}
    assert built == set(order)
    # hand-computed verdict of Forall [Globally l_ok]
    ok_everywhere = all((moved or pc != "Stuck") for (x, s, pc, lk, moved) in order)
    assert result.verdict == ok_everywhere
    # and the expected verdict is true: every stuck state follows a move
    report(10, result.verdict is True and len(order) == mm.num_states,
           f"environment composition: {mm.num_states} states match the "
           f"hand-built product, Forall [Globally l_ok] = {result.verdict}")
