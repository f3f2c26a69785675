import random
from fractions import Fraction
from pathlib import Path

import pytest

import rcprob.prism
from rcprob import ast as A
from rcprob.build import instantiate
from rcprob.props import DefinitionsDecl, PModulesDecl, parse_expression, parse_spec
from rcprob.prism import (Mangler, _ModelEmitter, _PropsEmitter, check_prism_model,
                          check_prism_props, emit_pair, emit_properties, mangle)

from oracles import moves_of

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


def test_properties_emit_without_exploring(srw_closed, srw_spec, srw_pair, monkeypatch):
    # only the model text sizes variable ranges from an exploration
    def no_build(closed):
        raise AssertionError("explored")

    monkeypatch.setattr(rcprob.prism, "build_markov", no_build)
    assert emit_properties(srw_closed, srw_spec) == srw_pair.props_text
    with pytest.raises(AssertionError, match="explored"):
        emit_pair(srw_closed, srw_spec)


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


def test_emit_exit_and_sync_models_validate():
    from test_build import EXIT_MODEL, INPUT_MODEL, SYNC_MODEL, TRIGGER_SYNC_MODEL
    from rcprob.model import parse_model
    # the validator checks literal updates against the declared ranges,
    # which catches a receive pc left out of the pc range
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
