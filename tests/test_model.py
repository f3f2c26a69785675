import pytest
from hypothesis import given, settings, strategies as st

from rcprob.lexer import ParseError
from rcprob.model import loose_symbols, parse_model, pretty_model
from rcprob.props import SpecAst
from rcprob.resolve import validate


def test_srw_inventory(srw_model):
    assert srw_model.name == "SRWMod"
    assert [p.name for p in srw_model.platforms] == ["SRWRP"]
    assert [c.name for c in srw_model.controllers] == ["ctrl_ref"]
    ctrl = srw_model.controllers[0]
    assert [m.name for m in ctrl.machines] == ["stm_ref"]
    mach = ctrl.machines[0]
    assert mach.initial == "i0"
    assert mach.junctions == ["p0"]
    assert sorted(s.name for s in mach.states) == ["Move", "Stuck"]
    assert [t.id for t in mach.transitions] == [f"t{i}" for i in range(7)]
    assert len(srw_model.connections) == 2
    assert len(ctrl.connections) == 2


def test_srw_loose_symbols(srw_model):
    consts, funcs, ops = loose_symbols(srw_model)
    assert consts == {"MaxDist", "MaxSteps", "Pl"}
    assert funcs == {"Plus", "Minus", "Update"}
    assert ops == set()


def test_empty_controller_module():
    m = parse_model("module M { platform P { var v : int = 0; } }")
    assert m.controllers == []
    assert m.connections == []


def test_all_constants_valued_not_loose():
    m = parse_model("""
    module M { platform P { const C : int = 3; var v : int = 0; }
      controller c { requires P;
        machine s { initial i; state A; transition t0 { from i to A } } } }
    """)
    consts, funcs, ops = loose_symbols(m)
    assert consts == set()


def test_loose_operation_reported():
    m = parse_model("""
    module M { platform P { operation move(v : int); }
      controller c { requires P;
        machine s { initial i; state A; transition t0 { from i to A } } } }
    """)
    _, _, ops = loose_symbols(m)
    assert ops == {"move"}


def test_prob_on_non_junction_rejected():
    with pytest.raises(ParseError, match="non-probabilistic source"):
        parse_model("""
        module M { controller c {
          machine s { initial i; state A; state B;
            transition t0 { from i to A }
            transition t2 { from A to B prob 1 - 0 } } } }
        """)


def test_junction_branch_needs_prob():
    with pytest.raises(ParseError, match="missing probability"):
        parse_model("""
        module M { controller c {
          machine s { initial i; pjunction j; state A;
            transition t0 { from i to j }
            transition t1 { from j to A } } } }
        """)


def test_duplicate_names_rejected():
    with pytest.raises(ParseError, match="duplicate"):
        parse_model("""
        module M { controller c {
          machine s { var v : int = 0; var v : int = 1;
            initial i; state A; transition t0 { from i to A } } } }
        """)


def test_dangling_node_reference():
    with pytest.raises(ParseError, match="unknown target node"):
        parse_model("""
        module M { controller c {
          machine s { initial i; state A;
            transition t0 { from i to Nowhere } } } }
        """)


def test_initial_junction_exactly_one_outgoing():
    with pytest.raises(ParseError, match="exactly one outgoing"):
        parse_model("""
        module M { controller c {
          machine s { initial i; state A; state B;
            transition t0 { from i to A }
            transition t1 { from i to B } } } }
        """)


def test_initial_transition_unguarded():
    with pytest.raises(ParseError, match="unguarded"):
        parse_model("""
        module M { controller c {
          machine s { initial i; state A;
            transition t0 { from i to A guard true } } } }
        """)


def test_guard_on_junction_branch_rejected():
    with pytest.raises(ParseError, match="guard on a probabilistic junction"):
        parse_model("""
        module M { controller c {
          machine s { initial i; pjunction j; state A;
            transition t0 { from i to j }
            transition t1 { from j to A prob 1 guard true } } } }
        """)


def test_two_modules_rejected():
    with pytest.raises(ParseError, match="one top-level module"):
        parse_model("module A { } module B { }")


def test_nested_machines_rejected():
    with pytest.raises(ParseError, match="nested machines"):
        parse_model("""
        module M { controller c { machine s { initial i;
          machine inner { initial j; } } } }
        """)


def test_connection_unknown_event():
    # a connection end is resolved at validation, under the scoping rule
    # of `Resolver.endpoint`: a SCOPE diagnostic at the connection, where
    # the parser raised a syntax error
    model = parse_model("""
        module M {
          platform P { event ping; }
          controller c { requires P; event ping;
            machine s { event ping; initial i; state A;
              transition t0 { from i to A } }
            connection s.pong -> c.ping; } }
        """)
    assert [(d.code, d.message, d.pos) for d in validate(model, SpecAst())] == [
        ("SCOPE", "connection s.pong -> c.ping: s.pong names no event", (7, 13))]


def test_roundtrip_srw(srw_model, srw_model_text):
    printed = pretty_model(srw_model)
    again = parse_model(printed)
    assert again == srw_model
    assert pretty_model(again) == printed


# --- random well-formed models -----------------------------------------------------


def model_text_strategy():
    names = st.sampled_from(["A", "B", "C", "D"])

    @st.composite
    def gen(draw):
        n_states = draw(st.integers(2, 4))
        states = [f"S{i}" for i in range(n_states)]
        n_vars = draw(st.integers(1, 2))
        lines = ["module M {", "  controller ctl {", "    machine mac {"]
        for i in range(n_vars):
            init = draw(st.booleans())
            lines.append(f"      var v{i} : bool = {'true' if init else 'false'};")
        lines.append("      initial ini;")
        lines.append("      pjunction pj;")
        for s in states:
            if draw(st.booleans()):
                var = draw(st.integers(0, n_vars - 1))
                value = draw(st.booleans())
                lines.append(
                    f"      state {s} {{ entry v{var} = {'true' if value else 'false'} }};")
            else:
                lines.append(f"      state {s};")
        lines.append(f"      transition t0 {{ from ini to {states[0]} }}")
        tid = 1
        n_trans = draw(st.integers(1, 4))
        for _ in range(n_trans):
            src = draw(st.sampled_from(states))
            dst = draw(st.sampled_from(states + ["pj"]))
            guard = ""
            if draw(st.booleans()):
                var = draw(st.integers(0, n_vars - 1))
                guard = f" guard v{var} == true"
            action = ""
            if draw(st.booleans()):
                var = draw(st.integers(0, n_vars - 1))
                action = f" action v{var} = not v{var}"
            lines.append(f"      transition t{tid} {{ from {src} to {dst}{guard}{action} }}")
            tid += 1
        # junction needs outgoing branches summing to one
        lines.append(f"      transition t{tid} {{ from pj to {states[0]} prob 1 - 0.25 }}")
        lines.append(f"      transition t{tid+1} {{ from pj to {states[-1]} prob 0.25 }}")
        lines.append("    }")
        lines.append("  }")
        lines.append("}")
        return "\n".join(lines)

    return gen()


@settings(max_examples=60, deadline=None)
@given(model_text_strategy())
def test_random_model_roundtrip(text):
    model = parse_model(text)
    printed = pretty_model(model)
    assert parse_model(printed) == model
    # every transition endpoint resolves to a declared node
    for ctrl in model.controllers:
        for mach in ctrl.machines:
            nodes = mach.node_names()
            for t in mach.transitions:
                assert t.source in nodes and t.target in nodes
