import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import rcprob.build
import rcprob.prism
from rcprob import ast as A
from rcprob.build import ClosedModel, MarkovModel, build_markov, instantiate
from rcprob.model import parse_model
from rcprob.props import DefinitionsDecl, PModulesDecl, parse_expression, parse_spec
from rcprob.prism import (Mangler, _ModelEmitter, _PropsEmitter, check_prism_model,
                          check_prism_props, emit_pair, emit_properties, mangle)

from oracles import PrismModel, moves_of

GOLDEN = Path(__file__).parent / "fixtures" / "srw_golden.prism"


@pytest.fixture(scope="module")
def srw_closed(srw_model, srw_spec):
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    return instantiate(srw_model, {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(1, 2)},
                       defs, None, "mdp", srw_spec)


@pytest.fixture(scope="module")
def srw_pair(srw_closed, srw_spec):
    return emit_pair(srw_closed, srw_spec)


def test_mangle_separator():
    assert mangle(A.QName(("SRWMod", "SRWRP", "x"))) == "SRWMod_SRWRP_x"
    assert mangle("SRWMod::ctrl_ref::stm_ref::pc") == "SRWMod_ctrl_ref_stm_ref_pc"


def test_mangle_collision_disambiguated():
    m = Mangler()
    a = m.mangle("A::B_C")
    b = m.mangle("A::B::C")
    assert a == "A_B_C"
    assert b == "A_B_C_2"
    assert m.name_map[a] == "A::B_C"
    assert m.name_map[b] == "A::B::C"
    m.check_bijective()


def test_module_counts(srw_pair, srw_closed, srw_spec):
    assert srw_pair.model_text.splitlines()[0] == "mdp"
    assert srw_pair.model_text.count("\nmodule ") + \
        srw_pair.model_text.startswith("module ") == 1
    env_spec = parse_spec("""
    pmodules MEnv: pmodule Par {
      moved : bool init false;
      [SRWMod::ctrl_ref::stm_ref::left.out] true -> (@moved = true);
    }
    """)
    env = env_spec.find(PModulesDecl, "MEnv")
    defs = srw_spec.find(DefinitionsDecl, "D_recharge")
    closed = instantiate(srw_closed.model,
                         {"MaxDist": 2, "MaxSteps": 2, "Pl": Fraction(1, 2)},
                         defs, env, "dtmc", srw_spec)
    pair = emit_pair(closed, srw_spec)
    assert pair.model_text.count("endmodule") == 2
    assert pair.model_text.splitlines()[0] == "dtmc"
    assert not check_prism_model(pair.model_text)


def test_emitted_passes_subset_validator(srw_pair):
    assert check_prism_model(srw_pair.model_text) == []
    assert check_prism_props(srw_pair.props_text) == []


def test_namemap_bijective(srw_pair):
    srw_pair.mangler.check_bijective()
    tsv = srw_pair.mangler.tsv()
    rows = [ln.split("\t") for ln in tsv.splitlines()]
    assert all(len(r) == 2 for r in rows)
    mangled = [r[0] for r in rows]
    qualified = [r[1] for r in rows]
    assert len(set(mangled)) == len(mangled)
    assert len(set(qualified)) == len(qualified)
    # the pc encoding is documented in the name map
    assert any("::pc::Move" in q for q in qualified)


def test_golden_model(srw_pair):
    # snapshot committed after the first validator-checked emission;
    # delete the file to regenerate deliberately
    if not GOLDEN.exists():
        assert check_prism_model(srw_pair.model_text) == []
        GOLDEN.write_text(srw_pair.model_text)
    assert srw_pair.model_text == GOLDEN.read_text()


NAMEMAPS = {
    "srw": "srw_golden.namemap.tsv",
    "srw with environment": "srw_env_golden.namemap.tsv",
    "latch": "input_golden.namemap.tsv",
}


@pytest.mark.parametrize("case", NAMEMAPS)
def test_golden_namemap(case, srw_pair, srw_model, srw_spec):
    """The name maps of the SRW fixture, of it with environment modules
    and of a model with a latch, as committed."""
    from test_build import INPUT_MODEL, _join_closed
    if case == "srw":
        pair = srw_pair
    elif case == "srw with environment":
        pair = emit_pair(_join_closed(srw_model, srw_spec), srw_spec)
    else:
        pair = emit_pair(instantiate(parse_model(INPUT_MODEL), {}, None, None, "mdp"),
                         parse_spec(""))
    assert pair.mangler.tsv() == (GOLDEN.parent / NAMEMAPS[case]).read_text()


def test_property_translations(srw_closed):
    em = _ModelEmitter(srw_closed, None, Mangler())
    pe = _PropsEmitter(srw_closed, em)
    cases = [
        ("not Exists [Finally deadlock]", '!E [ F "deadlock" ]'),
        ("Prob=? of [Finally #l_stuck /\\ not #l_origin]",
         'P=? [ F "l_stuck" & !"l_origin" ]'),
        ("Forall [Globally #l3]", 'A [ G "l3" ]'),
    ]
    for source, expected in cases:
        got = pe.property_line(parse_expression(source))
        assert got == expected, (source, got)


def test_properties_emit_without_exploring(srw_model, srw_spec, srw_pair, monkeypatch):
    # the model text sized its variable ranges from a second exploration;
    # now every way to explore fails, and the pair is the same
    def explored(*args, **kwargs):
        raise AssertionError("explored")

    monkeypatch.setattr(rcprob.prism, "build_markov", explored)
    monkeypatch.setattr(rcprob.build, "build_markov", explored)
    monkeypatch.setattr(MarkovModel, "expand", explored)
    monkeypatch.setattr(ClosedModel, "successors", property(explored))
    closed = instantiate(srw_model, {"MaxDist": 10, "MaxSteps": 20, "Pl": Fraction(1, 2)},
                         srw_spec.find(DefinitionsDecl, "D_recharge"), None, "mdp", srw_spec)
    pair = emit_pair(closed, srw_spec)
    assert (pair.model_text, pair.props_text) == (srw_pair.model_text, srw_pair.props_text)
    assert emit_properties(closed, srw_spec) == srw_pair.props_text


def test_more_translations(srw_closed):
    em = _ModelEmitter(srw_closed, None, Mangler())
    pe = _PropsEmitter(srw_closed, em)
    cases = [
        ("Prob>=0.9 of [#a Until<=10 #b]", 'P>=9/10 [ "a" U<=10 "b" ]'),
        ("Prob min =? of [Next #a]", 'Pmin=? [ X "a" ]'),
        ("Prob max =? of [Globally #a]", 'Pmax=? [ G "a" ]'),
        ("Reward {R} =? of [Reachable #a]", 'R{"R"}=? [ F "a" ]'),
        ("Reward {R} =? of [Cumul 10]", 'R{"R"}=? [ C<=10 ]'),
        ("Reward {R} =? of [Total]", 'R{"R"}=? [ C ]'),
        ("Prob=? of [#a Weak Until #b]", 'P=? [ "a" W "b" ]'),
        ("Prob=? of [#a Release #b]", 'P=? [ "a" R "b" ]'),
        ("Forall [Globally init => Finally #b]", 'A [ G "init" => F "b" ]'),
    ]
    for source, expected in cases:
        got = pe.property_line(parse_expression(source))
        assert got == expected, (source, got)


def test_property_emission_order(srw_pair, srw_spec):
    lines = [ln for ln in srw_pair.props_text.splitlines() if ln.startswith("//")]
    assert lines == [f"// {p.name}" for p in srw_spec.properties]


def test_validator_rejects_bad_model():
    bad = "dtmc\nmodule M\n  x : [0..1] init 0\nendmodule\n"  # missing semicolon
    assert check_prism_model(bad)
    bad2 = "module M\n[] true -> (x'=1);\nendmodule\n"  # missing header
    assert check_prism_model(bad2)
    bad3 = "dtmc\nmodule M\n  x : [0..1] init 0;\n  [] true -> x'=1;\nendmodule\n"
    assert check_prism_model(bad3)  # update not parenthesised
    bad4 = "dtmc\nmodule M\n  x : [0..1] init 0;\n  [] true -> (x'=1);\n"
    assert check_prism_model(bad4)  # unterminated module
    bad5 = "dtmc\nglobal x : [-1..1] init 0;\nmodule M\n  [] true -> 1/2:(x'=-2) + 1/2:(x'=1);\nendmodule\n"
    assert check_prism_model(bad5)  # literal update outside the declared range
    assert not check_prism_model(bad5.replace("x'=-2", "x'=-1"))


def test_validator_rejects_bad_props():
    assert check_prism_props('label "l" = x=1') != []       # missing ';'
    assert check_prism_props('rewards "r"\n  true : 1;\n')  # unterminated
    assert check_prism_props("Q=? [ F x ]") != []           # unknown head


# --- fuzz: every valid formula hits a mapped construct --------------------------------


def random_formula(rng, depth=0):
    atoms = [
        lambda: A.LabelRef("l_stuck"),
        lambda: A.LabelRef("l_origin"),
        lambda: A.DeadlockRef(),
        lambda: A.InitRef(),
        lambda: parse_expression("SRWMod::SRWRP::x == 0"),
        lambda: parse_expression("SRWMod::SRWRP::steps < SRWMod::SRWRP::MaxSteps"),
        lambda: A.Binary(rng.choice(["<", ">="]), random_number(rng), random_number(rng)),
    ]
    if depth > 2:
        return rng.choice(atoms)()
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice(atoms)()
    if kind == 1:
        return A.Unary("not", random_formula(rng, depth + 1))
    if kind == 2:
        op = rng.choice(["/\\", "\\/", "=>"])
        return A.Binary(op, random_formula(rng, depth + 1),
                        random_formula(rng, depth + 1))
    if kind == 3:
        path = random_path(rng, depth + 1)
        bound = A.Bound(rng.choice([">=", "<", "<=", ">"]),
                        A.Lit(Fraction(rng.randrange(1, 10), 10)))
        if depth > 0 or rng.random() < 0.5:
            return A.ProbFormula(bound, None, path)
        query = rng.choice([A.QUERY_PLAIN, A.QUERY_MIN, A.QUERY_MAX])
        return A.ProbFormula(None, query, path)
    if kind == 4:
        return A.Forall(random_path(rng, depth + 1))
    return A.Exists(random_path(rng, depth + 1))


def random_number(rng, depth=0):
    """An integer expression over `/` and `%`, with formula references."""
    kind = rng.randrange(4) if depth < 2 else rng.randrange(3)
    if kind == 0:
        return parse_expression("SRWMod::SRWRP::x")
    if kind == 1:
        return A.Lit(rng.randrange(1, 5))
    if kind == 2:
        return A.FormulaRef("f_dist")
    return A.Binary(rng.choice(["/", "%", "+"]), random_number(rng, depth + 1),
                    random_number(rng, depth + 1))


def random_path(rng, depth):
    state = lambda: random_formula(rng, depth + 1)
    kind = rng.randrange(5)
    if kind == 0:
        return A.Next(state())
    if kind == 1:
        b = A.Bound("<=", A.Lit(rng.randrange(1, 20))) if rng.random() < 0.3 else None
        return A.Finally_(b, state())
    if kind == 2:
        b = A.Bound("<=", A.Lit(rng.randrange(1, 20))) if rng.random() < 0.3 else None
        return A.Globally(b, state())
    if kind == 3:
        return A.Until(state(), None, state())
    return A.WeakUntil(state(), None, state())


def test_translation_total_over_random_formulas(srw_closed):
    em = _ModelEmitter(srw_closed, None, Mangler())
    pe = _PropsEmitter(srw_closed, em)
    rng = random.Random(2024)
    for _ in range(300):
        formula = random_formula(rng)
        text = pe.property_line(formula)
        assert text
        assert check_prism_props(text) == [], text
    # a query divided at the top level
    query = A.ProbFormula(None, A.QUERY_PLAIN, A.Finally_(None, A.LabelRef("l_stuck")))
    text = pe.property_line(A.Binary("/", query, A.Lit(2)))
    assert text == 'P=? [ F "l_stuck" ] / 2'
    assert check_prism_props(text) == [], text


def test_division_in_properties_as_in_the_explorer(srw_closed):
    # a probability bound and a reward divide exactly, as the explorer
    # evaluates them; a state expression truncates on integers
    spec = parse_spec("""
    formula f_half = SRWMod::SRWRP::x / 2
    label l_half = `f_half / 2 >= 1
    rewards r_half =
      true : 1/2;
    endrewards
    prob property P_quarter:
      Prob>=3/4 of [Finally #l_half]
    """)
    text = emit_properties(srw_closed, spec)
    trunc = lambda q: f"({q} >= 0 ? floor({q}) : ceil({q}))"
    assert f"formula f_half = {trunc('SRWMod_SRWRP_x/2')};" in text, text
    assert f'label "l_half" = {trunc("f_half/2")} >= 1;' in text, text
    assert "  true : 1 / 2;" in text and "P>=3 / 4 [ F \"l_half\" ]" in text, text
    assert check_prism_props(text) == [], text
    reward = spec.statements[2].items[0].value
    assert srw_closed.spec_expr(reward, real=True)(None) == Fraction(1, 2)
    assert srw_closed.spec_expr(reward)(None) == 0


def test_emit_exit_and_sync_models_validate():
    from test_build import EXIT_MODEL, INPUT_MODEL, SYNC_MODEL, TRIGGER_SYNC_MODEL
    from rcprob.model import parse_model
    # the validator checks literal updates against the declared ranges
    assert check_prism_model("dtmc\nmodule M\n  pc : [0..4] init 0;\n"
                             "  [] pc=0 -> (pc'=5);\nendmodule\n")
    for text in (EXIT_MODEL, SYNC_MODEL, TRIGGER_SYNC_MODEL, INPUT_MODEL):
        model = parse_model(text)
        closed = instantiate(model, {}, None, None, "mdp")
        pair = emit_pair(closed, parse_spec(""))
        assert check_prism_model(pair.model_text) == [], pair.model_text


def test_plain_transition_emitted_as_explored():
    # A->B without actions enters B in one step, lock-free, in the explorer
    # and in the emitted model alike, although A->B with an action beside it
    # runs a chain through B_entering
    from test_build import AB_MODEL
    from rcprob.build import build_markov
    from rcprob.model import parse_model
    closed = instantiate(parse_model(AB_MODEL), {}, None, None, "mdp")
    mm = build_markov(closed)
    m = closed.machines[0]
    a_state = next(i for i, st in enumerate(mm.states) if st[m.pc_i] == "A")
    t1 = next(mv for mv in moves_of(mm, a_state) if mv.action == "C.S.t1")
    assert mm.states[t1.branches[0][1]][m.pc_i] == "B"
    em = _ModelEmitter(closed, None, Mangler())
    codes, locks = em.pc_codes["C.S"], em.lk_codes["C.S"]
    starts = [ln.split(" -> ")[1] for ln in em.emit().splitlines()
              if ln.startswith(f"  [] ABMod_C_S_pc={codes['A']} & ABMod_C_S_lk=0 ->")]
    assert sorted(starts) == sorted([f"(ABMod_C_S_pc'={codes['B']});",
                                     f"(ABMod_C_S_lk'={locks['t2']}) & (ABMod_C_S_pc'={codes['t2_act']});"])


# --- differential: the emitted model takes the explorer's steps -----------------------

# `/` on integers truncates towards zero, for both signs
DIV_MODEL = """
module DMod {
  controller C {
    machine S {
      var x : int = 7;
      var y : int = 0 - 7;
      initial i0;
      state S0;
      transition t0 { from i0 to S0 }
      transition t1 { from S0 to S0 guard x > 1 action x = x / 2 }
      transition t2 { from S0 to S0 guard y < 0 - 1 action y = y / 2 }
    }
  }
}
"""


# environment modules beside the fixtures: one joins a joint step and
# counts, the other observes a platform input and interleaves
OBSERVERS = {
    "trigger_sync_observed": ("TRIGGER_SYNC_MODEL", """
    pmodules M: pmodule Obs {
      pings : [0 to 1] init 0;
      [TSMod::C::A::ping.out] true -> (1/4: @pings = 1) & (3/4: @pings = 0);
    }
    """),
    "input_observed": ("INPUT_MODEL", """
    pmodules M: pmodule Obs {
      pending : bool init false;
      seen_on : bool init false;
      [InMod::RP::cmd.out] @pending == false -> (@pending = true);
      [] @pending == true /\\ InMod::RP::cmd.out.val == Power::On -> (@pending = false) & (@seen_on = true);
      [] @pending == true /\\ InMod::RP::cmd.out.val != Power::On -> (@pending = false);
    }
    """),
}


def _differential_closed(name):
    import test_build
    from rcprob.model import parse_model
    from test_explore_golden import closed_model
    if name == "division":
        return instantiate(parse_model(DIV_MODEL), {}, None, None, "mdp")
    if name in OBSERVERS:
        model, env = OBSERVERS[name]
        return instantiate(parse_model(getattr(test_build, model)), {}, None,
                           parse_spec(env).find(PModulesDecl, "M"), "mdp")
    return closed_model(name)


def _decoder(closed, pair, prism):
    """Maps an interpreter state back to the explorer's valuation through
    the name map: pc, lock and exit codes and enumeration literals."""
    ident = {q: m for m, q in pair.mangler.name_map.items()}
    columns = []
    for v in closed.vars:
        name = ident[v.qualified]
        if v.domain[0] in ("pc", "lock", "exit"):
            prefix = f"{v.qualified}::"
            codes = {int(m.split("=")[1]): pair.mangler.name_map[m][len(prefix):]
                     for m in pair.mangler.name_map if m.startswith(f"{name}=")}
            columns.append((name, lambda x, codes=codes: codes.get(x, x)))
        elif v.domain[0] == "enum":
            codes = {prism.consts[ident[lit]]: lit for lit in v.domain[1]}
            columns.append((name, codes.__getitem__))
        else:
            columns.append((name, lambda x: x))
    at = {n: i for i, n in enumerate(prism.names)}

    def decode(state):
        return tuple(fn(state[at[name]]) for name, fn in columns)
    return decode


def _move_multiset(moves):
    return Counter(frozenset(dist.items()) for dist in moves)


@pytest.mark.parametrize("name", ["ab", "chained_junction", "choice", "exit", "input", "op",
                                  "sync", "trigger_sync", "srw_2_4", "division",
                                  *OBSERVERS])
def test_emitted_model_takes_the_explorers_steps(name):
    closed = _differential_closed(name)
    pair = emit_pair(closed, parse_spec(""))
    _assert_takes_the_explorers_steps(closed, build_markov(closed), pair,
                                      PrismModel(pair.model_text), name)


def _assert_takes_the_explorers_steps(closed, mm, pair, prism, name):
    """The interpreted emission reaches the explored states and takes the
    same moves at each, with the same deadlocks."""
    decode = _decoder(closed, pair, prism)
    found = prism.explore()
    index = {st: s for s, st in enumerate(mm.states)}
    reached = [index.get(decode(state)) for state in found]
    assert None not in reached and sorted(reached) == list(range(mm.num_states)), name
    deadlock = _PropsEmitter(closed, _ModelEmitter(closed, None, pair.mangler)) \
        .state_expr(A.DeadlockRef())
    for state, moves in found.items():
        s = index[decode(state)]
        got = _move_multiset({decode(d): p for d, p in dist.items()} for dist in moves)
        want = _move_multiset({mm.states[d]: p for p, d in mv.branches}
                              for mv in moves_of(mm, s))
        assert got == want, (name, mm.states[s])
        assert prism.holds(deadlock, state) == mm.deadlock[s], (name, mm.states[s])



def _random_env(rng) -> str:
    """An environment module of unlabelled commands, each with two or three
    probabilistic updates of a variable of its own, one of them sometimes 0."""
    hi = rng.randint(1, 3)
    lines = ["pmodules E: pmodule R {", f"  r : [0 to {hi}] init 0;"]
    for _ in range(rng.randint(1, 2)):
        den = rng.choice([2, 3, 4, 6])
        num = rng.randint(0, den)
        probs = [f"{num}/{den}", f"1 - {num}/{den}"] + (["0"] if rng.random() < 0.3 else [])
        rng.shuffle(probs)
        updates = " & ".join(f"({p}: @r = {rng.choice([str(rng.randint(0, hi)), '@r'])})"
                             for p in probs)
        lines.append(f"  [] @r {rng.choice(['<', '<=', '!='])} {rng.randint(0, hi)} -> {updates};")
    return "\n".join(lines + ["}"])


def test_fuzzed_models_with_an_environment_take_the_explorers_steps():
    from test_acceptance import random_model_text
    rng = random.Random(15)
    with_zero = 0
    for _ in range(100):
        text, env = random_model_text(rng), _random_env(rng)
        closed = instantiate(parse_model(text), {}, None,
                             parse_spec(env).find(PModulesDecl, "E"), rng.choice(["dtmc", "mdp"]))
        pair = emit_pair(closed, parse_spec(""))
        assert check_prism_model(pair.model_text) == [], pair.model_text
        _assert_takes_the_explorers_steps(closed, build_markov(closed), pair,
                                          PrismModel(pair.model_text), f"{text}\n{env}")
        with_zero += bool(closed.weight_table.zero_leaves())
    assert with_zero > 0


def test_a_latch_is_declared_in_the_module_that_writes_it():
    """PRISM lets a labelled command update the variables of its own module
    only: a latch is declared in the one machine module that writes it, and
    the validator refuses a labelled command that updates a global."""
    from test_build import INPUT_MODEL, TRIGGER_SYNC_MODEL
    for text, latch, module in ((TRIGGER_SYNC_MODEL, "TSMod_C_A_ping_val", "TSMod_C_A"),
                                (INPUT_MODEL, "InMod_C_S_cmd_val", "InMod_C_S")):
        pair = emit_pair(instantiate(parse_model(text), {}, None, None, "mdp"), parse_spec(""))
        assert check_prism_model(pair.model_text) == [] and "global" not in pair.model_text
        lines = pair.model_text.splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith(f"  {latch} : "))
        assert [ln for ln in lines[:at] if ln.startswith("module ")][-1] == f"module {module}"
        as_global = pair.model_text.replace(lines[at] + "\n", "").replace(
            "\nmodule ", f"\nglobal {lines[at].strip()}\nmodule ", 1)
        errors = check_prism_model(as_global)
        assert errors and all("labelled command updates global" in e for e in errors), errors


HALF_MODEL = """
module HMod {
  platform P { const N : int; }
  controller C {
    requires P;
    machine S {
      function Half(v : int) : real;
      initial i0;
      pjunction j;
      state A;
      state B;
      transition t0 { from i0 to j }
      transition t1 { from j to A prob Half(N) }
      transition t2 { from j to B prob 1 - Half(N) }
    }
  }
}
"""
HALF_DEFS = "defs D: pfunction Half(v) = { return (``v / 2) }"


def _half_closed(n: int):
    defs = parse_spec(HALF_DEFS).find(DefinitionsDecl, "D")
    return instantiate(parse_model(HALF_MODEL), {"N": n}, defs, None, "dtmc")


def test_a_weight_that_calls_a_function_divides_exactly():
    # `prob Half(1)` divided as integers: 0, and its sibling 1
    closed = _half_closed(1)
    mm = build_markov(closed)
    j = next(s for s, st in enumerate(mm.states) if st[closed.machines[0].pc_i] == "j")
    assert [p for p, _ in moves_of(mm, j)[0].branches] == [Fraction(1, 2), Fraction(1, 2)]
    pair = emit_pair(closed, parse_spec(""))
    assert "-> 1/2:(" in pair.model_text and "+ 1/2:(" in pair.model_text
    _assert_takes_the_explorers_steps(closed, mm, pair, PrismModel(pair.model_text), "half")


@pytest.mark.parametrize("name, closed_at, values, printed", [
    ("srw", lambda pl: instantiate(
        parse_model((Path(__file__).parent / "fixtures" / "srw.rcm").read_text()),
        {"MaxDist": 2, "MaxSteps": 4, "Pl": pl},
        parse_spec((Path(__file__).parent / "fixtures" / "srw.rcp").read_text())
        .find(DefinitionsDecl, "D_recharge"), None, "dtmc"),
     {"Pl": (Fraction(3, 10), Fraction(1, 2))}, "1 - Pl:"),
    # a function body divides as reals in a weight; N = 2 drops a branch
    ("half", _half_closed, {"N": (1, 2)}, "N / 2:"),
])
def test_swept_weights_are_emitted_as_expressions(name, closed_at, values, printed):
    """The emission of the first configuration, with the swept constant
    open, takes each configuration's steps at that configuration's value."""
    (const, points), = values.items()
    first = closed_at(points[0])
    pair = emit_pair(first, parse_spec(""), sweep={const: points})
    assert f" {const};" in pair.model_text and printed in pair.model_text
    assert not check_prism_model(pair.model_text)
    for value in points:
        _assert_takes_the_explorers_steps(first, build_markov(closed_at(value)), pair,
                                          PrismModel(pair.model_text, {const: value}), name)


def _srw_closed_at(maxsteps: int):
    fixtures = Path(__file__).parent / "fixtures"
    spec = parse_spec((fixtures / "srw.rcp").read_text())
    return instantiate(parse_model((fixtures / "srw.rcm").read_text()),
                       {"MaxDist": 2, "MaxSteps": maxsteps, "Pl": Fraction(1, 2)},
                       spec.find(DefinitionsDecl, "D_recharge"), None, "dtmc")


def test_the_ranges_of_a_swept_emission_hold_for_every_configuration():
    # the ranges were those explored in the first configuration: `steps`
    # was declared [0..2] and left it at MaxSteps 4 and 6
    points = (2, 4, 6)
    first = _srw_closed_at(points[0])
    pair = emit_pair(first, parse_spec(""), sweep={"MaxSteps": points})
    assert "global SRWMod_SRWRP_steps : [0..6] init 0;" in pair.model_text
    assert "global SRWMod_SRWRP_x : [-2..2] init 0;" in pair.model_text
    for value in points:
        _assert_takes_the_explorers_steps(first, build_markov(_srw_closed_at(value)), pair,
                                          PrismModel(pair.model_text, {"MaxSteps": value}),
                                          f"MaxSteps={value}")


# two robots each report done once to a coordinator that counts the reports
# with no guard: only the protocol bounds the count
FLEET_MODEL = """
module Fleet {
  platform FP { const MaxWork : nat; event alldone; }
  controller Ctl {
    requires FP;
    event alldone;
""" + "".join(f"""
    machine R{i} {{
      var w : nat = 0;
      event done;
      initial i0;
      pjunction p0;
      state Idle;
      state Finished;
      transition t0 {{ from i0 to Idle }}
      transition t1 {{ from Idle to p0 guard w < MaxWork }}
      transition t2 {{ from p0 to Idle prob 0.5 action w = w + 1 }}
      transition t3 {{ from p0 to Idle prob 0.5 }}
      transition t4 {{ from Idle to Finished guard w == MaxWork action done }}
    }}""" for i in (1, 2)) + """
    machine Coord {
      var count : nat = 0;
      event done1;
      event done2;
      event alldone;
      initial c0;
      state Wait;
      state All;
      transition w0 { from c0 to Wait }
      transition d1 { from Wait to Wait trigger done1 action count = count + 1 }
      transition d2 { from Wait to Wait trigger done2 action count = count + 1 }
      transition fin { from Wait to All guard count == 2 action alldone }
    }
    connection R1.done -> Coord.done1;
    connection R2.done -> Coord.done2;
    connection Coord.alldone -> Ctl.alldone;
  }
  connection Ctl.alldone -> FP.alldone;
}
"""


def test_a_counter_that_only_the_protocol_bounds_is_counted():
    # each robot's `w` is bounded by its guard, on another step than its
    # increment; the count by the number of times its increments can fire
    closed = instantiate(parse_model(FLEET_MODEL), {"MaxWork": 2}, None, None, "mdp")
    pair = emit_pair(closed, parse_spec(""))
    assert "  Fleet_Ctl_Coord_count : [0..2] init 0;" in pair.model_text
    assert pair.model_text.count("_w : [0..2] init 0;") == 2
    _assert_takes_the_explorers_steps(closed, build_markov(closed), pair,
                                      PrismModel(pair.model_text), "fleet")
