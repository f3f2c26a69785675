from fractions import Fraction

import pytest

from rcprob import ast as A
from rcprob.lexer import ParseError
from rcprob.props import (ConstantDecl, ConstantsConfig, DefinitionsDecl, Exactly,
                          FormulaDecl, FromRange, LabelDecl, PModulesDecl,
                          ProbProperty, RewardsDecl, parse_expression,
                          parse_sim_method, parse_spec, pretty_spec)


def test_constants_config_example(srw_spec):
    cfg = srw_spec.find(ConstantsConfig, "C_fair_MD10_MS20_100")
    assert len(cfg.entries) == 3
    specs = {e.name.segments[-1]: e.spec for e in cfg.entries}
    assert isinstance(specs["MaxDist"], Exactly)
    rng = specs["MaxSteps"]
    assert isinstance(rng, FromRange)
    assert rng.lo.value == 20 and rng.hi.value == 100 and rng.step.value == 10
    assert isinstance(specs["Pl"], Exactly)
    assert specs["Pl"].value.value == Fraction(1, 2)


def test_deadlock_free_property(srw_spec):
    prop = srw_spec.find(ProbProperty, "P_deadlock_free")
    body = prop.body
    assert isinstance(body, A.Unary) and body.op == "not"
    ex = body.operand
    assert isinstance(ex, A.Exists)
    assert isinstance(ex.path, A.Finally_)
    assert isinstance(ex.path.operand, A.DeadlockRef)
    assert prop.with_constants.ref == "C_fair_MD10_MS20_100"
    assert prop.with_definitions.ref == "D_recharge"
    assert prop.with_modules is None


def test_empty_file():
    spec = parse_spec("")
    assert spec.statements == []


def test_expression_query_form():
    e = parse_expression("Prob=? of [Finally #l_stuck /\\ not #l_origin]")
    assert isinstance(e, A.ProbFormula)
    assert e.query == A.QUERY_PLAIN
    path = e.path
    assert isinstance(path, A.Finally_)
    conj = path.operand
    assert isinstance(conj, A.Binary) and conj.op == "/\\"
    assert isinstance(conj.left, A.LabelRef) and conj.left.name == "l_stuck"
    assert isinstance(conj.right, A.Unary)


def test_reward_formula_parse():
    e = parse_expression("Reward {R_origins} =? of [Reachable #l_stuck /\\ not #l_origin]")
    assert isinstance(e, A.RewardFormula)
    assert e.rewards == "R_origins"
    assert isinstance(e.path, A.Reachable)


def test_parenthesized_literal():
    e = parse_expression("(1)")
    assert isinstance(e, A.Lit) and e.value == 1


def test_precedence_and_or():
    e = parse_expression("a /\\ b \\/ c")
    assert e.op == "\\/"
    assert e.left.op == "/\\"


def test_precedence_implication_over_temporal():
    e = parse_expression("Globally Finally a => Globally Finally b", in_formula=True)
    assert isinstance(e, A.Binary) and e.op == "=>"
    assert isinstance(e.left, A.Globally) and isinstance(e.left.operand, A.Finally_)
    assert isinstance(e.right, A.Globally)


def test_temporal_over_conjunction():
    e = parse_expression("Finally a /\\ b", in_formula=True)
    assert isinstance(e, A.Finally_)
    assert e.operand.op == "/\\"


def test_temporal_outside_bracket_rejected():
    with pytest.raises(ParseError, match="outside a formula bracket"):
        parse_expression("Finally x")


def test_bounded_next_rejected():
    with pytest.raises(ParseError, match="bounded Next"):
        parse_expression("Prob=? of [Next<=3 x]")


def test_until_with_bound():
    e = parse_expression("Prob>=0.9 of [a Until<=10 b]")
    u = e.path
    assert isinstance(u, A.Until)
    assert u.bound.op == "<=" and u.bound.expr.value == 10
    assert e.bound.op == ">=" and e.bound.expr.value == Fraction(9, 10)


def test_weak_until_release():
    e = parse_expression("Prob=? of [a Weak Until b]")
    assert isinstance(e.path, A.WeakUntil)
    e = parse_expression("Prob=? of [a Release b]")
    assert isinstance(e.path, A.Release)


def test_sim_ci_example():
    sm = parse_sim_method("using sim with CI at alpha=0.01, n=100, and pathlen=1000000")
    assert sm.method == "CI"
    assert sm.params["alpha"].value == Fraction(1, 100)
    assert sm.params["n"].value == 100
    assert sm.pathlen.value == 1000000


def test_sim_sprt_example():
    sm = parse_sim_method("using sim with SPRT at alpha=0.05, delta=0.01")
    assert sm.method == "SPRT"
    assert set(sm.params) == {"alpha", "delta"}


def test_sim_apmc_reordered():
    sm = parse_sim_method("using sim with APMC at n=100, epsilon=0.05")
    assert sm.method == "APMC"
    assert set(sm.params) == {"n", "epsilon"}
    assert sm.pathlen is None


def test_sim_bad_parameter():
    with pytest.raises(ParseError, match="not valid for method"):
        parse_sim_method("using sim with SPRT at epsilon=0.1")


def test_rewards_statement(srw_spec):
    decl = srw_spec.find(RewardsDecl, "R_origins")
    assert len(decl.items) == 2
    assert all(i.event is not None for i in decl.items)
    assert decl.items[0].event.direction == "out"


def test_state_reward_item():
    spec = parse_spec("rewards R_steps = true : 1; endrewards")
    decl = spec.find(RewardsDecl, "R_steps")
    assert decl.items[0].event is None


def test_defs_params_and_body(srw_spec):
    decl = srw_spec.find(DefinitionsDecl, "D_recharge")
    update = next(f for f in decl.functions if f.name == "Update")
    assert update.params == ("v", "maxv", "origin")
    body = update.body
    assert isinstance(body, A.Cond)
    assert isinstance(body.cond, A.ParamRef) and body.cond.name == "origin"


def test_poperation_parse():
    spec = parse_spec("""
    defs D:
      poperation move(v) = { (M::P::x = ``v) and (M::P::y = ``v + 1) }
    """)
    decl = spec.find(DefinitionsDecl, "D")
    op = decl.operations[0]
    assert op.name == "move" and len(op.assignments) == 2


def test_pmodules_parse():
    spec = parse_spec("""
    pmodules MEnv: pmodule Par {
      moved : bool init false;
      cnt : [0 to 3] init 0;
      [M::c::s::ping.out] (@moved == false) -> (@moved = true) & (@cnt = @cnt + 1);
      [] @cnt > 0 -> skip;
    }
    """)
    decl = spec.find(PModulesDecl, "MEnv")
    mod = decl.modules[0]
    assert [v.name for v in mod.variables] == ["moved", "cnt"]
    assert mod.commands[0].label.direction == "out"
    assert len(mod.commands[0].updates) == 2
    assert mod.commands[1].label is None
    assert mod.commands[1].updates == ()


def test_pmodule_probabilistic_updates():
    spec = parse_spec("""
    pmodules M: pmodule Coin {
      heads : bool init false;
      [] true -> (0.5: @heads = true) & (0.5: @heads = false);
    }
    """)
    cmd = spec.find(PModulesDecl, "M").modules[0].commands[0]
    assert all(u.prob is not None for u in cmd.updates)


def test_const_declaration():
    spec = parse_spec("const t : core::int")
    decl = spec.find(ConstantDecl, "t")
    assert decl.type.name == "int"


def test_label_and_formula(srw_spec):
    assert srw_spec.find(LabelDecl, "l_stuck") is not None
    spec = parse_spec("formula f = 1 + 2")
    assert spec.find(FormulaDecl, "f") is not None


def test_formula_and_param_refs():
    e = parse_expression("`f + ``p")
    assert isinstance(e.left, A.FormulaRef) and e.left.name == "f"
    assert isinstance(e.right, A.ParamRef) and e.right.name == "p"


def test_module_var_refs():
    e = parse_expression("@M3::P3::P3_scpc != -1")
    ref = e.left
    assert isinstance(ref, A.ModVarRef)
    assert (ref.group, ref.module, ref.var) == ("M3", "P3", "P3_scpc")
    e = parse_expression("@moved")
    assert isinstance(e, A.ModVarRef) and e.group is None


def test_event_val_ref():
    e = parse_expression("M::rp::power.out.val == Power::Off")
    assert isinstance(e.left, A.EventVal)
    assert e.left.event.direction == "out"
    assert isinstance(e.right, A.Ref)


def test_is_in_parse():
    e = parse_expression("M::c::s is in M::c::s::Stuck")
    assert isinstance(e, A.IsIn)


def test_set_extension_and_range():
    e = parse_expression("{1, 2, 3}")
    assert isinstance(e, A.SetExt) and len(e.items) == 3
    e = parse_expression("{1 to 3 by step 1}")
    assert isinstance(e, A.SetRange)
    e = parse_expression("{1 to 3}")
    assert isinstance(e, A.SetRange) and e.step is None


def test_array_indexing_parsed():
    e = parse_expression("xs[1, 2]")
    assert isinstance(e, A.Index) and len(e.indexes) == 2


def test_forall_exists():
    e = parse_expression("Forall [Globally #l3]")
    assert isinstance(e, A.Forall) and isinstance(e.path, A.Globally)
    e = parse_expression("Exists [Finally deadlock]")
    assert isinstance(e, A.Exists)


def test_query_variants():
    assert parse_expression("Prob min =? of [Finally a]").query == A.QUERY_MIN
    assert parse_expression("Prob max =? of [Finally a]").query == A.QUERY_MAX
    # both spellings of the query token are accepted
    assert parse_expression("Prob ?= of [Finally a]").query == A.QUERY_PLAIN


def test_prob_bound_variant():
    e = parse_expression("Prob>0 of [Finally a]")
    assert e.bound.op == ">" and e.query is None


def test_using_sim_attached_to_formula():
    e = parse_expression(
        "Prob>0 of [Finally a] using sim with CI at alpha=0.01, n=100, and pathlen=1000000")
    assert e.method is not None
    assert e.method.method == "CI"


def test_inline_with_clauses():
    spec = parse_spec("""
    prob property P:
      Prob=? of [Finally a]
      with constants M::P::C set to 1, M::P::D set to 2
      with definitions pfunction f(v) = { return ``v }
      with modules pmodule E { b : bool; [] true -> (@b = true); }
    """)
    prop = spec.find(ProbProperty, "P")
    assert prop.with_constants.inline is not None
    assert len(prop.with_constants.inline.entries) == 2
    assert prop.with_definitions.inline.functions[0].name == "f"
    assert prop.with_modules.inline.modules[0].name == "E"


def test_duplicate_statement_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_spec("label l = true\nlabel l = false")


def test_negative_cases():
    bad = [
        "constants C: M::x set 1",      # missing 'to'
        "rewards R = true : 1;",        # missing endrewards
        "defs D:",                      # no items
        "pmodules M: pmodule P { }",    # no commands
        "prob property P",              # missing colon and body
        "label = true",                 # missing name
        "formula f 1",                  # missing '='
        "const t :",                    # missing type
    ]
    for text in bad:
        with pytest.raises(ParseError):
            parse_spec(text)


def test_pretty_reparse_fixpoint(srw_spec):
    printed = pretty_spec(srw_spec)
    again = parse_spec(printed)
    assert again.statements == srw_spec.statements
    assert pretty_spec(again) == printed


def test_a_whole_real_literal_prints_as_a_real():
    # `2.0` and `1.0` printed as `2` and `1`, which parse as integers: the
    # printed path was the key of `x / 2` too, and a swept real became whole
    spec = parse_spec("""
    constants C:
      M::P::Pl set to 1.0
    prob property P:
      Prob=? of [Finally M::P::x / 2.0 == 1]
    """)
    printed = pretty_spec(spec)
    assert "Pl set to 1.0" in printed and "M::P::x / 2.0 == 1" in printed
    again = parse_spec(printed)
    pl = again.find(ConstantsConfig, "C").entries[0].spec.value.value
    divisor = again.find(ProbProperty, "P").body.path.operand.left.right.value
    assert type(pl) is type(divisor) is Fraction


def test_pretty_reparse_pmodules():
    text = """
    pmodules MEnv: pmodule Par {
      moved : bool init false;
      [M::c::s::ping.out] @moved == false -> (@moved = true);
      [] true -> (0.5: @moved = true) & (0.5: @moved = false);
    }
    prob property P:
      Prob max =? of [a Until<=5 b]
      with modules MEnv
    """
    spec = parse_spec(text)
    printed = pretty_spec(spec)
    assert parse_spec(printed).statements == spec.statements


# --- generative pretty-print round trip -----------------------------------------------


def _random_pexpr(rng, depth=0, in_formula=False):
    import random as _r
    atoms = [
        lambda: A.Lit(rng.randrange(0, 20)),
        lambda: A.Lit(Fraction(rng.randrange(1, 9), 10)),
        lambda: A.Lit(rng.random() < 0.5),
        lambda: A.LabelRef("l1"),
        lambda: A.Ref(A.QName(("M", "P", "x"))),
        lambda: A.DeadlockRef(),
        lambda: A.FormulaRef("f1"),
        lambda: A.ModVarRef(None, None, "v"),
    ]
    if depth > 3:
        return rng.choice(atoms)()
    kind = rng.randrange(9)
    if kind == 0:
        return rng.choice(atoms)()
    if kind == 1:
        return A.Unary("not", _boolish(rng, depth + 1))
    if kind == 2:
        op = rng.choice(["/\\", "\\/", "=>", "iff"])
        return A.Binary(op, _boolish(rng, depth + 1), _boolish(rng, depth + 1))
    if kind == 3:
        op = rng.choice(["==", "!=", "<", "<=", ">", ">="])
        return A.Binary(op, _numish(rng, depth + 1), _numish(rng, depth + 1))
    if kind == 4:
        op = rng.choice(["+", "-", "*", "/", "%"])
        return A.Binary(op, _numish(rng, depth + 1), _numish(rng, depth + 1))
    if kind == 5:
        return A.Cond(_boolish(rng, depth + 1), _numish(rng, depth + 1),
                      _numish(rng, depth + 1))
    if kind == 6:
        bound = A.Bound(rng.choice([">=", "<", "<=", ">"]),
                        A.Lit(Fraction(rng.randrange(1, 10), 10)))
        return A.ProbFormula(bound, None, _random_path(rng, depth + 1))
    if kind == 7:
        return A.Forall(_random_path(rng, depth + 1))
    return A.FunCall("g", tuple(_numish(rng, depth + 1)
                                for _ in range(rng.randrange(1, 3))))


def _boolish(rng, depth):
    e = _random_pexpr(rng, depth)
    from rcprob import ast as _A
    if isinstance(e, (_A.Lit,)) and not isinstance(e.value, bool):
        return _A.Lit(True)
    return e


def _numish(rng, depth):
    return A.Lit(rng.randrange(0, 50)) if rng.random() < 0.6 \
        else _random_pexpr(rng, depth)


def _random_path(rng, depth):
    state = lambda: _boolish(rng, depth + 1)
    kind = rng.randrange(5)
    bound = A.Bound("<=", A.Lit(rng.randrange(1, 30))) if rng.random() < 0.3 else None
    if kind == 0:
        return A.Next(state())
    if kind == 1:
        return A.Finally_(bound, state())
    if kind == 2:
        return A.Globally(bound, state())
    if kind == 3:
        return A.Until(state(), bound, state())
    return A.WeakUntil(state(), bound, state())


def test_generative_pretty_roundtrip():
    import random
    from rcprob.props import pretty_pexpr
    rng = random.Random(31337)
    for i in range(400):
        expr = _random_pexpr(rng)
        printed = pretty_pexpr(expr)
        reparsed = parse_expression(printed)
        assert reparsed == expr, (i, printed)
