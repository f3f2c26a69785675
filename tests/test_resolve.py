from pathlib import Path

import pytest

from rcprob import ast as A
from rcprob.model import parse_model
from rcprob.props import parse_expression, parse_spec, SpecAst
from rcprob.resolve import (ANY, BOOL, NUM, Resolver, ResolveError, classify, enum_of,
                            resolve_fqn, set_of, validate)

CORPUS = Path(__file__).parent / "corpus"
WF_CODES = ["WFREF-1", "WFREF-2", "WFProp-1", "WFProp-2", "WFProp-3", "WFProp-4",
            "WFExp-1", "WFExp-2", "WFExp-3", "WFExp-4", "WFExp-5", "WFExp-6",
            "WFExp-7"]


def qn(text):
    return A.QName(tuple(text.split("::")))


def test_resolve_state(srw_model, srw_spec):
    ref = resolve_fqn(srw_model, srw_spec, qn("SRWMod::ctrl_ref::stm_ref::Move"))
    assert ref.kind == "state"
    assert ref.decl.name == "Move"


def test_resolve_violates_both_conditions(srw_model, srw_spec):
    with pytest.raises(ResolveError) as exc:
        resolve_fqn(srw_model, srw_spec, qn("SRWCtrl::SRWMod"))
    codes = [d.code for d in exc.value.diagnostics]
    assert codes == ["WFREF-1", "WFREF-2"]


def test_resolve_shared_variable(srw_model, srw_spec):
    ref = resolve_fqn(srw_model, srw_spec, qn("SRWMod::SRWRP::x"))
    assert ref.kind == "variable"
    assert ref.type == NUM
    assert ref.flat == "SRWRP.x"


# a model with one entity of each kind that a qualified name can reach
TABLE_MODEL = """
module TMod {
  platform P {
    const N : int;
    var x : int = 0;
    event go : Mode;
    operation stop(v : int);
  }
  controller C {
    requires P;
    event go : Mode;
    machine S {
      var on : bool = false;
      event go : Mode;
      function f(v : int) : int;
      initial i0;
      pjunction j;
      state A;
      transition t0 { from i0 to j }
      transition t1 { from j to A prob 1 }
    }
    connection S.go -> C.go;
  }
  connection C.go -> P.go;
  enum Mode { Off, On }
}
"""

# name: (kind, path, flat, owner, type); an owner is named by the entity
# it is, a pair of them by a tuple
RESOLVE_TABLE = {
    "TMod": ("module", ("TMod",), None, None, ANY),
    "TMod::P": ("platform", ("TMod", "P"), None, None, ANY),
    "TMod::C": ("controllerInstance", ("TMod", "C"), None, None, ANY),
    "TMod::C::S": ("machineInstance", ("TMod", "C", "S"), None, "C", ANY),
    "TMod::Mode": ("enum", ("TMod", "Mode"), None, None, ANY),
    "Mode::On": ("enumLiteral", ("Mode", "On"), None, None, enum_of("Mode")),
    "TMod::Mode::Off": ("enumLiteral", ("TMod", "Mode", "Off"), None, None, enum_of("Mode")),
    "TMod::P::N": ("constant", ("TMod", "P", "N"), None, "P", NUM),
    "TMod::P::x": ("variable", ("TMod", "P", "x"), "P.x", "P", NUM),
    "TMod::P::go": ("event", ("TMod", "P", "go"), None, "P", enum_of("Mode")),
    "TMod::P::stop": ("operation", ("TMod", "P", "stop"), None, "P", ANY),
    "TMod::C::go": ("event", ("TMod", "C", "go"), None, "C", enum_of("Mode")),
    "TMod::C::S::on": ("variable", ("TMod", "C", "S", "on"), "C.S.on", "S", BOOL),
    "TMod::C::S::go": ("event", ("TMod", "C", "S", "go"), None, ("C", "S"), enum_of("Mode")),
    "TMod::C::S::f": ("function", ("TMod", "C", "S", "f"), None, "S", NUM),
    "TMod::C::S::i0": ("junction", ("TMod", "C", "S", "i0"), None, ("C", "S"), ANY),
    "TMod::C::S::j": ("junction", ("TMod", "C", "S", "j"), None, ("C", "S"), ANY),
    "TMod::C::S::A": ("state", ("TMod", "C", "S", "A"), None, ("C", "S"), ANY),
    "TMod::C::S::t1": ("transition", ("TMod", "C", "S", "t1"), None, ("C", "S"), ANY),
    "K": ("constant", ("K",), None, None, NUM),
}


@pytest.mark.parametrize("name", RESOLVE_TABLE)
def test_resolve_each_kind_of_entity(name):
    model = parse_model(TABLE_MODEL)
    ctrl = model.controller("C")
    nodes = {"P": model.platform("P"), "C": ctrl, "S": ctrl.machines[0]}
    kind, path, flat, owner, type_ = RESOLVE_TABLE[name]
    ref, diags = Resolver(model, parse_spec("const K : int")).resolve_fqn(qn(name))
    assert diags == []
    assert (ref.kind, ref.path, ref.flat, ref.type) == (kind, path, flat, type_)
    assert ref.qualified() == "::".join(path)
    if isinstance(owner, tuple):
        assert len(ref.owner) == 2 and all(o is nodes[n] for o, n in zip(ref.owner, owner))
    else:
        assert ref.owner is (nodes[owner] if owner is not None else None)


def test_resolve_diagnostics(srw_model, srw_spec):
    resolver = Resolver(srw_model, srw_spec)
    # a known entity as the head: an error, but the walk goes on from it
    ref, diags = resolver.resolve_fqn(qn("SRWRP::x"))
    assert [(d.code, d.message) for d in diags] == [
        ("WFREF-1", "first segment 'SRWRP' must be the module 'SRWMod'")]
    assert (ref.kind, ref.path, ref.flat) == ("variable", ("SRWRP", "x"), "SRWRP.x")
    ref, diags = resolver.resolve_fqn(qn("Nope::x"))
    assert ref is None and [(d.code, d.message) for d in diags] == [
        ("WFREF-1", "first segment 'Nope' must be the module 'SRWMod'"),
        ("WFREF-2", "'x' is not a child of 'Nope'")]
    ref, diags = resolver.resolve_fqn(qn("SRWMod::SRWRP::nope"))
    assert ref is None and [(d.code, d.message) for d in diags] == [
        ("WFREF-2", "'nope' is not a child of 'SRWRP'")]
    ref, diags = resolver.resolve_fqn(qn("nope"))
    assert ref is None and [(d.code, d.message) for d in diags] == [
        ("SCOPE", "unknown name 'nope'")]


def test_resolve_roundtrip(srw_model, srw_spec):
    for path in ["SRWMod::SRWRP::x", "SRWMod::ctrl_ref::stm_ref::Move",
                 "SRWMod::ctrl_ref::stm_ref::t3", "SRWMod::SRWRP::left",
                 "SRWMod::ctrl_ref::stm_ref::Update"]:
        ref = resolve_fqn(srw_model, srw_spec, qn(path))
        again = resolve_fqn(srw_model, srw_spec, qn(ref.qualified()))
        assert again.kind == ref.kind and again.path == ref.path


def test_classify_boolean_predicate(srw_model, srw_spec):
    e = parse_expression("SRWMod::SRWRP::x <= SRWMod::SRWRP::MaxDist /\\ "
                         "SRWMod::SRWRP::x >= -SRWMod::SRWRP::MaxDist")
    assert classify(srw_model, srw_spec, e) == BOOL


def test_classify_set_range(srw_model, srw_spec):
    e = parse_expression("{1 to 3 by step 1}")
    assert classify(srw_model, srw_spec, e) == set_of(NUM)


def test_classify_type_error(srw_model, srw_spec):
    e = parse_expression("true + 1")
    with pytest.raises(ResolveError) as exc:
        classify(srw_model, srw_spec, e)
    assert exc.value.diagnostics[0].code == "WFExp-3"


def test_validate_srw_clean(srw_model, srw_spec):
    diags = validate(srw_model, srw_spec)
    assert [d for d in diags if d.severity == "error"] == []


def test_validate_is_in_swap(srw_model):
    ok = parse_spec("label l = SRWMod::ctrl_ref::stm_ref is in "
                    "SRWMod::ctrl_ref::stm_ref::Stuck")
    assert [d.code for d in validate(srw_model, ok)] == []
    swapped = parse_spec("label l = SRWMod::ctrl_ref::stm_ref::Stuck is in "
                         "SRWMod::ctrl_ref::stm_ref")
    assert "WFExp-5" in [d.code for d in validate(srw_model, swapped)]


def test_validate_idempotent_and_stable(srw_model):
    spec = parse_spec((CORPUS / "wfprop2.rcp").read_text())
    first = [str(d) for d in validate(srw_model, spec)]
    second = [str(d) for d in validate(srw_model, spec)]
    assert first == second and first


def test_async_connection_rejected():
    from rcprob.model import parse_model
    model = parse_model("""
    module M {
      platform P { event e; }
      controller c { requires P; event e;
        machine s { event e; initial i; state A; transition t0 { from i to A } }
        connection s.e -> c.e; }
      connection c.e -> P.e async;
    }
    """)
    diags = validate(model, SpecAst())
    assert any(d.code == "UNSUPPORTED" and "asynchronous" in d.message for d in diags)


# a controller with a machine named like the module's platform, and
# connections in both scopes
SCOPED_MODEL = """
module M {
  platform P { event go; }
  controller c { requires P; event go;
    machine P { event done; initial i; state A; transition t0 { from i to A } }
    machine s { event go; initial i; state A; transition t0 { from i to A } }
    connection s.go -> c.go;
    connection P.done -> c.go; }
  connection c.go -> P.go;
}
"""


def test_a_connection_end_names_the_controller_then_its_machines_then_the_module():
    from rcprob.model import parse_model
    model = parse_model(SCOPED_MODEL)
    resolver, c = Resolver(model), model.controller("c")
    assert resolver.endpoint("c", "go", c).qualified() == "M::c::go"
    assert resolver.endpoint("s", "go", c).qualified() == "M::c::s::go"
    assert resolver.endpoint("P", "done", c).qualified() == "M::c::P::done"
    # in the controller the machine P hides the platform P, which declares go
    assert resolver.endpoint("P", "go", c) is None
    assert resolver.endpoint("P", "go").qualified() == "M::P::go"
    assert resolver.endpoint("c", "go").qualified() == "M::c::go"
    assert resolver.endpoint("s", "go") is None  # no machine is in the module's scope
    assert resolver.endpoint("c", "s", c) is None  # a machine is no event
    assert [(str(conn), src.qualified(), dst.qualified())
            for conn, src, dst in resolver.connections()] == [
        ("c.go -> P.go", "M::c::go", "M::P::go"),
        ("s.go -> c.go", "M::c::s::go", "M::c::go"),
        ("P.done -> c.go", "M::c::P::done", "M::c::go")]
    assert validate(model, SpecAst()) == []


def test_a_connection_joining_events_of_different_payload_types_is_a_type_error():
    from rcprob.model import parse_model
    model = parse_model("""
    module M {
      platform P { event ping : int; }
      controller c { requires P; event ping : int;
        machine s { event ping; initial i; state A; transition t0 { from i to A } }
        connection s.ping -> c.ping; }
      connection c.ping -> P.ping;
    }
    """)
    assert [(d.code, d.message, d.pos) for d in validate(model, SpecAst())] == [
        ("TYPE", "connection s.ping -> c.ping joins events of different payload types: "
                 "none and int", (6, 9))]


def test_controller_and_machine_event_payloads_are_validated():
    # they passed validation, and `check` then exited 2 with no position:
    # "unsupported state variable type 'Foo'"
    model = parse_model("""
    module M {
      controller c { event ping : Foo; event pong : real;
        machine s { event ping : Foo; event pong : real; initial i; state A;
          transition t0 { from i to A action ping } }
        connection s.ping -> c.ping; connection s.pong -> c.pong; }
    }
    """)
    assert [(d.code, *d.pos, d.message) for d in validate(model, SpecAst())] == [
        ("TYPE", 3, 35, "unknown type 'Foo'"),
        ("TYPE", 3, 40, "real event payloads are not supported"),
        ("TYPE", 4, 34, "unknown type 'Foo'"),
        ("TYPE", 4, 39, "real event payloads are not supported"),
    ]


def test_real_variable_rejected():
    from rcprob.model import parse_model
    model = parse_model("""
    module M { platform P { var r : real = 0; }
      controller c { requires P;
        machine s { initial i; state A; transition t0 { from i to A } } } }
    """)
    diags = validate(model, SpecAst())
    assert any(d.code == "TYPE" and "real" in d.message for d in diags)


def test_unreachable_state_warning():
    from rcprob.model import parse_model
    model = parse_model("""
    module M { controller c {
      machine s { initial i; state A; state Orphan;
        transition t0 { from i to A } } } }
    """)
    diags = validate(model, SpecAst())
    warnings = [d for d in diags if d.severity == "warning"]
    assert any("Orphan" in d.message for d in warnings)
    assert not any(d.severity == "error" for d in diags)


def test_val_on_untyped_event(srw_model):
    spec = parse_spec("label l = (SRWMod::SRWRP::left.out.val == 0)")
    diags = validate(srw_model, spec)
    assert any(d.code == "TYPE" and "no payload" in d.message for d in diags)


def test_array_indexing_unsupported(srw_model):
    spec = parse_spec("label l = (SRWMod::SRWRP::x[1] == 0)")
    diags = validate(srw_model, spec)
    assert any(d.code == "UNSUPPORTED" for d in diags)


def test_loose_constant_coverage(srw_model):
    spec = parse_spec("""
    constants C_partial: SRWMod::SRWRP::MaxDist set to 2
    defs D_all:
      pfunction Plus(v, maxv) = { return ``v + 1 }
      pfunction Minus(v, minv) = { return ``v - 1 }
      pfunction Update(v, maxv, origin) = { return ``v }
    prob property P:
      not Exists [Finally deadlock]
      with constants C_partial
      with definitions D_all
    """)
    diags = validate(srw_model, spec)
    messages = [d.message for d in diags if d.code == "SCOPE"]
    assert any("MaxSteps" in m for m in messages)
    assert any("Pl" in m for m in messages)


def test_negated_enum_literal_is_not_a_configuration_literal(srw_model):
    spec = parse_spec("constants C: SRWMod::SRWRP::MaxDist set to -E::L\n")
    messages = [d.message for d in validate(srw_model, spec) if d.code == "TYPE"]
    assert messages == ["configuration value for SRWMod::SRWRP::MaxDist must be a literal"]


def test_missing_function_coverage(srw_model):
    spec = parse_spec("""
    constants C_all:
      SRWMod::SRWRP::MaxDist set to 2,
      SRWMod::SRWRP::MaxSteps set to 2, and
      SRWMod::SRWRP::Pl set to 0.5
    defs D_partial:
      pfunction Plus(v, maxv) = { return ``v + 1 }
    prob property P:
      not Exists [Finally deadlock]
      with constants C_all
      with definitions D_partial
    """)
    diags = validate(srw_model, spec)
    assert any("Update" in d.message for d in diags if d.code == "SCOPE")


# --- corpus -------------------------------------------------------------------


def corpus_diagnostics(srw_model):
    out = {}
    for path in sorted(CORPUS.glob("*.rcp")):
        spec = parse_spec(path.read_text())
        out[path.name] = validate(srw_model, spec)
    return out


def test_corpus_code_bijection(srw_model):
    """Every WF code fires in exactly its own corpus file, nowhere else."""
    per_file = corpus_diagnostics(srw_model)
    expected_file = {code: f"{code.replace('-', '').lower()}.rcp" for code in WF_CODES}
    for code in WF_CODES:
        hits = {name: sum(1 for d in diags if d.code == code)
                for name, diags in per_file.items()}
        firing = {name for name, k in hits.items() if k > 0}
        assert firing == {expected_file[code]}, (code, firing)
        assert hits[expected_file[code]] == 1, (code, hits)


def test_corpus_valid_files_clean(srw_model):
    per_file = corpus_diagnostics(srw_model)
    for name, diags in per_file.items():
        if name.startswith("valid"):
            assert diags == [], (name, [str(d) for d in diags])


def test_inline_with_clause_content_validated(srw_model):
    spec = parse_spec("""
    prob property P:
      not Exists [Finally deadlock]
      with constants SRWMod::SRWRP::MaxDist set to 2,
        SRWMod::SRWRP::MaxSteps set to 2,
        SRWMod::SRWRP::Pl set to 0.5
      with definitions
        pfunction Plus(v, maxv) = { return ``v + ``missing }
        pfunction Minus(v, minv) = { return ``v }
        pfunction Update(v, maxv, origin) = { return ``v }
    """)
    diags = validate(srw_model, spec)
    assert any("``missing" in d.message or "missing" in d.message
               for d in diags if d.code == "SCOPE")


# --- model diagnostics ----------------------------------------------------------

T6_GUARD = "guard steps == MaxSteps"
T2_ACTION = "action x = Plus(x, MaxDist); right"

# one-line edits of srw.rcm: (text replaced, its replacement, the errors as
# (code, line, col)); each edit replaces the first occurrence only
MODEL_EDITS = {
    "not-num": (T6_GUARD, "guard not steps", [("TYPE", 34, 48)]),
    "and-num": (T6_GUARD, "guard steps /\\ true", [("TYPE", 34, 54)]),
    "compare-bool": (T6_GUARD, "guard (x < 1) < 2", [("TYPE", 34, 56)]),
    "equal-mixed": (T6_GUARD, "guard steps == true", [("TYPE", 34, 54)]),
    "unknown-name": (T6_GUARD, "guard stepz == 0", [("SCOPE", 34, 48)]),
    "qualified-name": (T6_GUARD, "guard A::b == 0", [("SCOPE", 34, 48)]),
    "unknown-enum": (T6_GUARD, "guard E::L == 0", [("SCOPE", 34, 48)]),
    "branches-differ": (T6_GUARD, "guard if x > 0 then true else 1 end", [("TYPE", 34, 48)]),
    "negate-bool": (T6_GUARD, "guard -(x < 0)", [("TYPE", 34, 48), ("TYPE", 34, 7)]),
    "prob-reads-var": ("prob Pl", "prob x", [("TYPE", 31, 44)]),
    "unknown-function": ("x = Plus(x, MaxDist)", "x = Plux(x, MaxDist)", [("SCOPE", 30, 62)]),
    "arity": ("x = Plus(x, MaxDist)", "x = Plus(x)", [("TYPE", 30, 62)]),
    "assign-mixed": ("x = Plus(x, MaxDist)", "x = true", [("TYPE", 30, 58)]),
    "assign-unknown": ("x = Plus(x, MaxDist)", "z = 1", [("SCOPE", 30, 58)]),
    "output-untyped": (T2_ACTION, "action x = 1; right ! 1", [("TYPE", 30, 65)]),
    "unknown-event": (T2_ACTION, "action x = 1; rigt", [("SCOPE", 30, 65)]),
    "if-guard-num": (T2_ACTION, "action if x then x = 1 else x = 2 end", [("TYPE", 30, 58)]),
    "unknown-trigger": (T6_GUARD, "trigger nope " + T6_GUARD, [("SCOPE", 34, 7)]),
    "input-untyped": (T6_GUARD, "trigger left ? x " + T6_GUARD, [("TYPE", 34, 7)]),
    # mended: an argument or initial value of another type than declared
    "argument-type": ("Update(steps, MaxSteps, x == 0)", "Update(steps, MaxSteps, x + 0)",
                      [("TYPE", 26, 60)]),
    "platform-init": ("var x : int = 0;", "var x : int = true;", [("TYPE", 9, 19)]),
    "machine-init": ("initial i0;", "var b : bool = 3; initial i0;", [("TYPE", 24, 22)]),
    # mended: an initial value that reads a variable
    "init-reads-var": ("initial i0;", "var b : int = x; initial i0;", [("TYPE", 24, 21)]),
    # mended: a real or negative literal that initialises an int or nat
    # variable, which `check` refused with no position
    "nat-real-init": ("var steps : nat = 0;", "var steps : nat = 2.5;", [("TYPE", 10, 23)]),
    "int-real-init": ("var x : int = 0;", "var x : int = 0.0;", [("TYPE", 9, 19)]),
    "nat-negative-init": ("var steps : nat = 0;", "var steps : nat = -1;", [("TYPE", 10, 23)]),
}


@pytest.mark.parametrize("case", MODEL_EDITS)
def test_model_diagnostics_are_pinned(srw_model_text, srw_spec, case):
    from rcprob.model import parse_model
    old, new, expected = MODEL_EDITS[case]
    assert old in srw_model_text
    model = parse_model(srw_model_text.replace(old, new, 1))
    errors = [(d.code, *d.pos) for d in validate(model, srw_spec) if d.severity == "error"]
    assert errors == expected


def test_operation_arguments_are_checked_against_their_parameters():
    from rcprob.model import parse_model
    model = parse_model("""
    module M { platform P { operation move(d : int, on : bool); }
      controller c { requires P; machine s { initial i;
        state A { entry move(true, 1 > 0) };
        state B { entry move(1, 2) };
        transition t0 { from i to A } transition t1 { from A to B } } } }
    """)
    errors = [(d.code, *d.pos, d.message) for d in validate(model, SpecAst())]
    assert errors == [
        ("TYPE", 4, 30, "argument d of move must be numeric, got boolean"),
        ("TYPE", 5, 33, "argument on of move must be boolean, got numeric"),
    ]


def test_communications_are_checked_against_their_payload_type():
    from rcprob.model import parse_model
    model = parse_model("""
    module M { controller C { event ping : int;
      machine A { event ping : int; initial a0; state A1; state A2;
        transition s0 { from a0 to A1 } transition s1 { from A1 to A2 action ping ! true } }
      machine B { var y : bool = false; event ping : int; initial b0; state B1; state B2;
        transition r0 { from b0 to B1 } transition r1 { from B1 to B2 trigger ping ? y } }
      connection A.ping -> B.ping; } }
    """)
    errors = [(d.code, *d.pos, d.message) for d in validate(model, SpecAst())]
    assert errors == [
        ("TYPE", 4, 78, "transition s1: the value sent on 'ping' must be numeric, got boolean"),
        ("TYPE", 6, 41, "transition r1: input variable 'y' of event 'ping' must be numeric, "
                        "got boolean"),
    ]


def test_validation_diagnostics_name_their_source(srw_model_text):
    from rcprob.model import parse_model
    model = parse_model(srw_model_text.replace("var x : int = 0;", "var x : int = true;"))
    spec = parse_spec("label l = (SRWMod::SRWRP::x == SRWMod::SRWRP::left)\n")
    assert [(d.code, d.source) for d in validate(model, spec)] == [
        ("TYPE", "model"), ("TYPE", "spec")]
