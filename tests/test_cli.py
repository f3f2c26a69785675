import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rcprob.cli import RunPlan, config_id_of, main, run, sweep_experiments
from rcprob.model import parse_model
from rcprob.parsing import MAX_EXPANDED_HEIGHT, MAX_HEIGHT, MAX_NESTING
from rcprob.props import parse_spec

FIXTURES = Path(__file__).parent / "fixtures"
SRW_RCM = str(FIXTURES / "srw.rcm")
SRW_RCP = str(FIXTURES / "srw.rcp")
SRW_RCP_TEXT = (FIXTURES / "srw.rcp").read_text()


def fixed_timer():
    return 0.0


def test_sweep_experiments_counts(srw_model, srw_spec):
    jobs = sweep_experiments(srw_model, srw_spec)
    per_prop = {}
    for job in jobs:
        per_prop.setdefault(job.prop.name, []).append(job.config_id)
    assert all(len(v) == 9 for v in per_prop.values())
    assert len(jobs) == 9 * len(srw_spec.properties)


def test_module_entry_point_runs_without_warnings(tmp_path):
    # `rcprob` does not import `rcprob.cli`, so runpy finds it unloaded
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "rcprob.cli",
                           "check", SRW_RCM, SRW_RCP, "--kind", "dtmc", "--prop", "P_stuck",
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "report.jsonl").read_text().count("\n") == 9


def test_sweep_no_config_single_job():
    model = parse_model("""
    module M { controller c { machine s {
      initial i; state A; transition t0 { from i to A } } } }
    """)
    spec = parse_spec("prob property P: not Exists [Finally deadlock]")
    jobs = sweep_experiments(model, spec)
    assert len(jobs) == 1
    assert jobs[0].config_id == ""


def test_sweep_two_by_three():
    model = parse_model("""
    module M { platform P { const A : int; const B : int; }
      controller c { requires P; machine s {
        initial i; state S0; transition t0 { from i to S0 } } } }
    """)
    spec = parse_spec("""
    constants C: M::P::A from set {1, 2}, M::P::B from set {1 to 3 by step 1}
    prob property Q: not Exists [Finally deadlock] with constants C
    """)
    jobs = sweep_experiments(model, spec)
    assert len(jobs) == 6


def test_cli_deadlock_sweep(tmp_path):
    code = main(["check", SRW_RCM, SRW_RCP, "--engine", "internal",
                 "--kind", "dtmc", "--prop", "P_deadlock_free",
                 "--out", str(tmp_path)])
    assert code == 0
    records = [json.loads(ln) for ln in
               (tmp_path / "report.jsonl").read_text().splitlines()]
    assert len(records) == 9
    assert all(rec["verdict"] is True for rec in records)
    assert (tmp_path / "report.txt").exists()


def test_cli_validation_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.rcp"
    bad.write_text("label l = (SRWMod::SRWRP::Move == 0)\n")
    code = main(["check", SRW_RCM, str(bad), "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    rec = json.loads(err.splitlines()[0])
    assert rec["code"] == "WFREF-2"
    assert rec["severity"] == "error"
    assert rec["line"] > 0
    diag_file = (tmp_path / "out" / "diagnostics.jsonl").read_text()
    assert "WFREF-2" in diag_file


def test_cli_syntax_error_exit_2(tmp_path):
    bad = tmp_path / "bad.rcp"
    bad.write_text("prob property\n")
    code = main(["check", SRW_RCM, str(bad), "--out", str(tmp_path / "out")])
    assert code == 2


def test_cli_missing_file_exit_3(tmp_path):
    code = main(["check", "no-such.rcm", SRW_RCP, "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("which", ["model", "spec"])
def test_a_file_that_is_not_utf8_exits_3_naming_it(which, tmp_path, capsys):
    bad = tmp_path / f"bad.{'rcm' if which == 'model' else 'rcp'}"
    bad.write_bytes(b"// \xff\n")
    files = [str(bad), SRW_RCP] if which == "model" else [SRW_RCM, str(bad)]
    code = main(["check", *files, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err.splitlines()
    assert code == 3
    assert err == [f"error: {bad}: not UTF-8 text at byte 3"]


def test_cli_failing_property_exit_1(tmp_path):
    rcp = tmp_path / "f.rcp"
    rcp.write_text("""
    constants C_all:
      SRWMod::SRWRP::MaxDist set to 2,
      SRWMod::SRWRP::MaxSteps set to 2, and
      SRWMod::SRWRP::Pl set to 0.5
    defs D_all:
      pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
      pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
      pfunction Update(v, maxv, origin) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
    prob property P_false:
      Exists [Finally deadlock]
      with constants C_all
      with definitions D_all
    """)
    code = main(["check", SRW_RCM, str(rcp), "--kind", "dtmc",
                 "--out", str(tmp_path / "out")])
    assert code == 1


def test_cli_emit(tmp_path):
    code = main(["check", SRW_RCM, SRW_RCP, "--engine", "emit",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "srw.prism").exists()
    assert (tmp_path / "srw.props").exists()
    assert (tmp_path / "srw.namemap.tsv").exists()
    # a nine-way sweep leaves the swept constant undefined plus a sidecar
    assert (tmp_path / "srw.sweep.tsv").exists()
    model_text = (tmp_path / "srw.prism").read_text()
    assert "const int MaxSteps;" in model_text
    assert len((tmp_path / "srw.sweep.tsv").read_text().splitlines()) == 9


# both machines send on ping, so both write its latch
TWO_WRITERS_MODEL = """
module TSMod {
  controller C {
    event ping : int;
    machine A {
      var a : int = 0;
      event ping : int;
      initial a0;
      state A1;
      state A2;
      state A3;
      transition s0 { from a0 to A1 }
      transition s1 { from A1 to A2 trigger ping ! 7 }
      transition s2 { from A2 to A3 trigger ping ? a }
    }
    machine B {
      var y : int = 0;
      event ping : int;
      initial b0;
      state B1;
      state B2;
      state B3;
      transition r0 { from b0 to B1 }
      transition r1 { from B1 to B2 trigger ping ? y }
      transition r2 { from B2 to B3 trigger ping ! 3 }
    }
    connection A.ping -> B.ping;
    connection B.ping -> A.ping;
  }
}
"""


def test_emitting_a_latch_that_two_machines_write_exits_2(tmp_path, capsys):
    # it stayed a global that both modules' labelled commands update, and
    # the run wrote a model that PRISM refuses and exited 0
    model, spec = tmp_path / "two.rcm", tmp_path / "two.rcp"
    model.write_text(TWO_WRITERS_MODEL)
    spec.write_text(DEADLOCK_FREE)
    assert main(["check", str(model), str(spec), "--out", str(tmp_path / "internal")]) == 0
    code = main(["check", str(model), str(spec), "--engine", "emit",
                 "--out", str(tmp_path / "emit")])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert err.splitlines() == ["error: latch TSMod::C::A::ping::val is written by machines "
                                "C.A and C.B; emitting a latch that more than one machine "
                                "writes is not supported"]
    assert not (tmp_path / "emit" / "two.prism").exists()


# a step that adds to x forever: nothing bounds its range
UNBOUNDED_MODEL = """
module Up {
  controller C {
    machine S {
      var x : int = 0;
      initial i0;
      state A;
      transition t0 { from i0 to A }
      transition t1 { from A to A action x = x + 1 }
    }
  }
}
"""


def test_emitting_a_variable_that_nothing_bounds_exits_2(tmp_path, capsys):
    model, spec = tmp_path / "up.rcm", tmp_path / "up.rcp"
    model.write_text(UNBOUNDED_MODEL)
    spec.write_text(DEADLOCK_FREE)
    code = main(["check", str(model), str(spec), "--engine", "emit", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    assert err.splitlines() == ["error: cannot bound the range of Up::C::S::x: no guard, "
                                "conditional or count of the steps that write it limits its "
                                "values, and PRISM needs a finite range"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["diagnostics.jsonl", "up.rcm", "up.rcp"]


def test_cli_smc_engine(tmp_path):
    rcp = tmp_path / "s.rcp"
    rcp.write_text("""
    label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
    constants C_all:
      SRWMod::SRWRP::MaxDist set to 2,
      SRWMod::SRWRP::MaxSteps set to 4, and
      SRWMod::SRWRP::Pl set to 0.5
    defs D_all:
      pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
      pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
      pfunction Update(v, maxv, origin) = { return (if ``origin then 0 else (if ``v < ``maxv then ``v + 1 else ``v end) end) }
    prob property P_sim:
      Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=200
      with constants C_all
      with definitions D_all
    """)
    code = main(["check", SRW_RCM, str(rcp), "--engine", "smc", "--kind", "dtmc",
                 "--seed", "3", "--out", str(tmp_path / "out")])
    assert code == 0
    rec = json.loads((tmp_path / "out" / "report.jsonl").read_text().splitlines()[0])
    assert rec["mode"] == "smc-CI"
    assert rec["n"] == 200
    assert 0.8 <= rec["value"] <= 1.0
    assert 0 < rec["pathLen"]["mean"] <= rec["pathLen"]["max"]
    header = (tmp_path / "out" / "report.txt").read_text().splitlines()[0]
    assert header.split() == ["property", "config", "result", "states", "transitions",
                              "buildMs", "checkMs"]


def test_simulation_checks_the_properties_it_can_simulate(tmp_path, capsys):
    # the README example: P_deadlock_free is an E formula, which hid the rest
    code = main(["check", SRW_RCM, SRW_RCP, "--kind", "dtmc", "--engine", "smc",
                 "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: P_deadlock_free: simulation needs a P or R formula; not checked"]
    records = [json.loads(ln) for ln in (tmp_path / "report.jsonl").read_text().splitlines()]
    assert len(records) == 3 * 9
    assert {r["property"] for r in records} == {"P_stuck", "P_stuck_not_origin",
                                                "R_stuck_not_origin"}


def test_simulation_with_nothing_to_simulate_exits_2(tmp_path, capsys):
    code = main(["check", SRW_RCM, SRW_RCP, "--kind", "dtmc", "--engine", "smc",
                 "--prop", "P_deadlock_free", "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "warning: P_deadlock_free: simulation needs a P or R formula; not checked",
        "error: no property left to simulate"]
    assert not (tmp_path / "report.jsonl").exists()


ENGINE_FLAGS = {"internal": ["--kind", "dtmc"], "smc": ["--kind", "dtmc", "--engine", "smc"],
                "emit": ["--engine", "emit"]}


@pytest.mark.parametrize("engine", ENGINE_FLAGS)
def test_a_prop_glob_that_matches_nothing_exits_2(engine, tmp_path, capsys):
    # it exited 0 with an empty report, and under emit 2 naming loose constants
    code = main(["check", SRW_RCM, SRW_RCP, "--prop", "nomatch", *ENGINE_FLAGS[engine],
                 "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --prop 'nomatch' matches no property (P_deadlock_free, P_stuck, "
        "P_stuck_not_origin, R_stuck_not_origin)"]
    assert not (tmp_path / "report.jsonl").exists()


# the parser's own levels bound brackets and `not`s, the height of the tree a
# chain of binary operators
BOUNDS = {"brackets": MAX_NESTING, "not": MAX_NESTING, "chain": MAX_HEIGHT}


def _nested(shape, levels, atom):
    """An expression over `atom` that nests `levels` levels deep."""
    if shape == "brackets":
        return "(" * levels + atom + ")" * levels
    if shape == "not":
        return "not " * levels + atom
    return " /\\ ".join([atom] * (levels + 1))


def _nested_pair(tmp_path, where, shape, levels):
    """Paths to the SRW fixture with the guard of t6 (rcm) or a label of
    the spec (rcp) nested `levels` deep, with the text of that file and the
    offset in it where the expression starts."""
    model_text, spec_text = Path(SRW_RCM).read_text(), _srw_prop("Prob=? of [Finally #l_deep]")
    expr = _nested(shape, levels, "true" if where == "rcm" else "#l_stuck")
    if where == "rcm":
        model_text = model_text.replace("guard steps == MaxSteps", f"guard {expr}")
    label = expr if where == "rcp" else "#l_stuck"
    spec_text = spec_text.replace("prob property", f"label l_deep = {label}\nprob property")
    text = model_text if where == "rcm" else spec_text
    model, spec = tmp_path / "m.rcm", tmp_path / "s.rcp"
    model.write_text(model_text)
    spec.write_text(spec_text)
    return str(model), str(spec), text, text.index(expr)


NESTINGS = [(where, shape) for where in ("rcm", "rcp")
            for shape in ("brackets", "not", "chain")]


@pytest.mark.parametrize("where,shape", NESTINGS)
def test_an_expression_nested_to_the_bound_runs_under_every_engine(where, shape, tmp_path):
    # chains of up to about 490 operators ran before there was a bound
    model, spec, *_ = _nested_pair(tmp_path, where, shape, BOUNDS[shape])
    for engine, flags in ENGINE_FLAGS.items():
        assert main(["check", model, spec, *flags, "--out", str(tmp_path / engine)]) == 0


@pytest.mark.parametrize("where,shape", NESTINGS)
def test_an_expression_nested_past_the_bound_is_a_syntax_error(where, shape, tmp_path, capsys):
    # 75 brackets or 600 nots, and a chain of 800 operators, ended in a
    # RecursionError traceback in the parser or in an engine; the error
    # names the file, and in it the opener of the first level past the
    # bound, or the first token of an expression too high
    model, spec, text, at = _nested_pair(tmp_path, where, shape, BOUNDS[shape] + 1)
    at += {"brackets": MAX_NESTING, "not": 4 * MAX_NESTING, "chain": 0}[shape]
    message = (f"expression more than {MAX_HEIGHT} operators deep" if shape == "chain"
               else f"expression nested deeper than {MAX_NESTING} levels")
    line, col = text[:at].count("\n") + 1, at - text.rfind("\n", 0, at)
    for engine, flags in ENGINE_FLAGS.items():
        code = main(["check", model, spec, *flags, "--out", str(tmp_path / engine)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err, err
        want = {"code": "SYNTAX", "severity": "error", "line": line, "col": col,
                "message": message, "file": model if where == "rcm" else spec}
        assert json.loads(err) == want
        assert json.loads((tmp_path / engine / "diagnostics.jsonl").read_text()) == want


# (an edit of srw.rcm, an edit of srw.rcp, the file the diagnostics name)
FILE_NAMED = {
    "real variable": (("var x : int = 0;", "var x : real = 0;"), None, "rcm"),
    "argument": (("x == 0)", "x + 0)"), None, "rcm"),
    "initial value": (("var x : int = 0;", "var x : int = true;"), None, "rcm"),
    "property": (None, ("(SRWMod::SRWRP::x == 0)", "(SRWMod::SRWRP::x == true)"), "rcp"),
}


@pytest.mark.parametrize("case", FILE_NAMED)
def test_a_validation_diagnostic_names_its_file(case, tmp_path, capsys):
    # a diagnostic about the model was written against the property file,
    # and printed with no file at all
    paths = {}
    for ext, edit in zip(("rcm", "rcp"), FILE_NAMED[case][:2]):
        text = (FIXTURES / f"srw.{ext}").read_text()
        paths[ext] = tmp_path / f"srw.{ext}"
        paths[ext].write_text(text.replace(*edit, 1) if edit else text)
    out = tmp_path / "out"
    code = main(["check", str(paths["rcm"]), str(paths["rcp"]), "--kind", "dtmc",
                 "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err, err
    printed = [json.loads(line) for line in err.splitlines()]
    assert printed == [json.loads(line) for line in
                       (out / "diagnostics.jsonl").read_text().splitlines()]
    assert {rec["file"] for rec in printed} == {str(paths[FILE_NAMED[case][2]])}


def _clash_pair():
    """The fixture pair with machine stm_ref renamed SRWRP, the platform's
    name, and without its event left: in the controller, `SRWRP.left`
    names the machine, which declares no left."""
    rcm = (FIXTURES / "srw.rcm").read_text().replace("stm_ref", "SRWRP")
    rcm = rcm.replace("    machine SRWRP {\n      event left;\n", "    machine SRWRP {\n")
    rcm = rcm.replace("; left }", " }")
    assert rcm.count("event left;") == 2 and "    connection SRWRP.left -> ctrl_ref.left;" in rcm
    rcp = SRW_RCP_TEXT.replace("stm_ref", "SRWRP").replace(
        "  [SRWMod::ctrl_ref::SRWRP::left.out] (SRWMod::SRWRP::x == 0) : 1;\n", "")
    return rcm, rcp


# a machine sends a bool on a closure that reaches an int platform event
MISTYPED_RCM = """\
module M {
  platform P { event ping : int; }
  controller c { requires P; event ping : bool;
    machine s { event ping : bool; initial i; state A; state B;
      transition t0 { from i to A }
      transition t1 { from A to B action ping ! true } }
    connection s.ping -> c.ping; }
  connection c.ping -> P.ping;
}
"""
# (model, spec, the diagnostic's code, line, column and message)
BAD_CONNECTIONS = {
    # the parser took SRWRP for the platform and the closures for the
    # machine, which ended in a KeyError traceback
    "name clash": (*_clash_pair(), "SCOPE", 35, 5,
                   "connection SRWRP.left -> ctrl_ref.left: SRWRP.left names no event"),
    # the latch held the machine's true, which `.val == 1` read as 1
    "payload types": (MISTYPED_RCM,
                      "prob property P:\n  Prob=? of [Finally M::P::ping.in.val == 1]\n",
                      "TYPE", 8, 3, "connection c.ping -> P.ping joins events of different "
                                    "payload types: bool and int"),
}


@pytest.mark.parametrize("case", BAD_CONNECTIONS)
def test_a_bad_connection_is_one_diagnostic_under_every_engine(case, tmp_path, capsys):
    rcm_text, rcp_text, code, line, col, message = BAD_CONNECTIONS[case]
    rcm, rcp = tmp_path / "bad.rcm", tmp_path / "bad.rcp"
    rcm.write_text(rcm_text)
    rcp.write_text(rcp_text)
    want = [{"code": code, "severity": "error", "message": message, "file": str(rcm),
             "line": line, "col": col}]
    for engine, flags in ENGINE_FLAGS.items():
        out = tmp_path / engine
        assert main(["check", str(rcm), str(rcp), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [json.loads(ln) for ln in err.splitlines()] == want
        assert [json.loads(ln) for ln in
                (out / "diagnostics.jsonl").read_text().splitlines()] == want


def _with_decls(tmp_path, decls, body):
    """The small SRW setup with the declarations and one property."""
    spec = tmp_path / "decls.rcp"
    spec.write_text(_srw_prop(body).replace("prob property", "\n".join(decls + ["prob property"])))
    return str(spec)


def _trues(n):
    return " /\\ ".join(["true"] * n)


@pytest.mark.parametrize("count", [5, 40])
def test_label_chains_are_bounded_with_references_expanded(count, tmp_path, capsys):
    # each label is within the parser's bounds, but 40 of them composed into
    # a tree that ended in a RecursionError traceback under internal and smc
    labels = [f"label d_0 = {_trues(41)}"] + [f"label d_{i} = #d_{i - 1} /\\ {_trues(40)}"
                                              for i in range(1, count)]
    spec = _with_decls(tmp_path, labels, f"Prob=? of [Finally #d_{count - 1}]")
    for engine, flags in ENGINE_FLAGS.items():
        code = main(["check", SRW_RCM, spec, *flags, "--out", str(tmp_path / engine)])
        err = capsys.readouterr().err
        if count == 5:
            assert code == 0, err
            continue
        # d_i is 40 + 41 i levels high, so d_7 is the first past the bound
        assert code == 2 and "Traceback" not in err, err
        assert [json.loads(line)["message"] for line in err.splitlines()] == [
            f"label d_7 is more than {MAX_EXPANDED_HEIGHT} levels high with the labels and "
            "formulas it references expanded"]


@pytest.mark.parametrize("kind", ["label", "formula"])
def test_a_chain_of_references_to_the_bound_runs_under_every_engine(kind, tmp_path, capsys):
    # a reference counts one level: the property's Prob, Finally and
    # reference levels and the chain's reach the bound, and one more is past it
    sigil = "#" if kind == "label" else "`"
    for depth, want in ((MAX_EXPANDED_HEIGHT - 3, 0), (MAX_EXPANDED_HEIGHT - 2, 2)):
        decls = [f"{kind} d_0 = true"] + [f"{kind} d_{i} = {sigil}d_{i - 1}"
                                          for i in range(1, depth + 1)]
        spec = _with_decls(tmp_path, decls, f"Prob=? of [Finally {sigil}d_{depth}]")
        for engine, flags in ENGINE_FLAGS.items():
            code = main(["check", SRW_RCM, spec, *flags, "--out", str(tmp_path / engine)])
            err = capsys.readouterr().err
            assert code == want and "Traceback" not in err, err
        if want:
            assert json.loads(err)["message"].startswith("property P_bad is more than")


def test_a_cycle_of_label_references_exits_2(tmp_path, capsys):
    # it ended in a RecursionError traceback
    spec = _with_decls(tmp_path, ["label a = #b", "label b = not #a"],
                       "Prob=? of [Finally #a]")
    for engine, flags in ENGINE_FLAGS.items():
        code = main(["check", SRW_RCM, spec, *flags, "--out", str(tmp_path / engine)])
        err = capsys.readouterr().err
        assert code == 2 and "Traceback" not in err, err
        assert [json.loads(line)["message"] for line in err.splitlines()] == [
            "cyclic label reference #a"]


def test_smc_requires_dtmc():
    with pytest.raises(ValueError, match="requires kind=dtmc"):
        RunPlan(SRW_RCM, SRW_RCP, engine="smc", kind="mdp")


@pytest.mark.parametrize("engine", ["internal", "smc"])
def test_a_min_or_max_query_on_a_dtmc_warns_under_every_engine(engine, tmp_path, capsys):
    rcp = tmp_path / "minmax.rcp"
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
    rewards R_steps = true : 1; endrewards
    prob property P_min:
      Prob min=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=50
      with constants C_all
      with definitions D_all
    prob property P_plain:
      Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=50
      with constants C_all
      with definitions D_all
    prob property R_max:
      Reward {R_steps} max=? of [Cumul 3] using sim with CI at alpha=0.05, n=50
      with constants C_all
      with definitions D_all
    """)
    code = main(["check", SRW_RCM, str(rcp), "--kind", "dtmc", "--engine", engine,
                 "--out", str(tmp_path / "out")])
    assert code == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: {name}: a dtmc has a single adversary; treating the query as plain =?"
        for name in ("P_min", "R_max")]
    records = [json.loads(line)
               for line in (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
    assert [r["property"] for r in records] == ["P_min", "P_plain", "R_max"]
    # Cumul 3 counts the first three steps
    assert records[2]["value"] == 3


def test_record_count_and_order(tmp_path):
    plan = RunPlan(SRW_RCM, SRW_RCP, engine="internal", kind="dtmc",
                   prop_glob="P_*", out_dir=str(tmp_path), timer=fixed_timer)
    assert run(plan) == 0
    records = [json.loads(ln) for ln in
               (tmp_path / "report.jsonl").read_text().splitlines()]
    assert len(records) == 27  # three P_* properties, nine configurations each
    keys = [(r["property"], r["config"]) for r in records]
    assert keys == sorted(keys)


def test_reports_byte_identical_with_fixed_timer(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        plan = RunPlan(SRW_RCM, SRW_RCP, engine="internal", kind="dtmc",
                       prop_glob="P_deadlock_free", out_dir=str(out),
                       seed=1, timer=fixed_timer)
        assert run(plan) == 0
    assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()


def test_config_id_format():
    from fractions import Fraction
    assert config_id_of({"A": 1, "B": Fraction(1, 2), "C": True}) == "A=1,B=0.5,C=true"


def test_cli_inline_with_clauses(tmp_path):
    rcp = tmp_path / "inline.rcp"
    rcp.write_text("""
    label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
    prob property P_inline:
      Prob=? of [Finally #l_stuck]
      with constants SRWMod::SRWRP::MaxDist set to 2,
        SRWMod::SRWRP::MaxSteps from set {2, 3}, and
        SRWMod::SRWRP::Pl set to 0.5
      with definitions
        pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
        pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
        pfunction Update(v, maxv, origin) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
    """)
    out = tmp_path / "out"
    code = main(["check", SRW_RCM, str(rcp), "--kind", "dtmc", "--out", str(out)])
    assert code == 0
    records = [json.loads(ln) for ln in (out / "report.jsonl").read_text().splitlines()]
    assert len(records) == 2
    assert all(abs(rec["value"] - 1.0) < 1e-6 for rec in records)


def test_cli_smc_sprt(tmp_path):
    rcp = tmp_path / "sprt.rcp"
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
    prob property P_likely_stuck:
      Prob>=0.5 of [Finally #l_stuck] using sim with SPRT at alpha=0.01, delta=0.05
      with constants C_all
      with definitions D_all
    """)
    out = tmp_path / "out"
    code = main(["check", SRW_RCM, str(rcp), "--engine", "smc", "--kind", "dtmc",
                 "--seed", "5", "--out", str(out)])
    assert code == 0  # stuck happens almost surely, so the bound holds
    rec = json.loads((out / "report.jsonl").read_text().splitlines()[0])
    assert rec["mode"] == "smc-SPRT"
    assert rec["verdict"] is True


def test_a_failed_simulation_leaves_no_earlier_report(tmp_path, capsys):
    # a run that exited 2 left the previous run's report.jsonl in place
    out = tmp_path / "out"
    assert main(["check", SRW_RCM, SRW_RCP, "--engine", "smc", "--kind", "dtmc",
                 "--prop", "P_stuck", "--out", str(out)]) == 0
    assert (out / "report.jsonl").exists() and (out / "report.txt").exists()
    rcp = tmp_path / "query.rcp"
    rcp.write_text(SRW_RCP_TEXT.replace("Prob=? of [Finally #l_stuck]",
                                        "Prob=? of [Finally #l_stuck] using sim with SPRT "
                                        "at alpha=0.01, delta=0.05"))
    assert main(["check", SRW_RCM, str(rcp), "--engine", "smc", "--kind", "dtmc",
                 "--prop", "P_stuck", "--out", str(out)]) == 2
    assert "SPRT needs a probability bound, not a query" in capsys.readouterr().err
    assert sorted(f.name for f in out.iterdir()) == ["diagnostics.jsonl"]


def test_an_unswept_emission_leaves_no_earlier_sweep(tmp_path):
    # the sweep of an earlier emission stayed next to a model that fixes MaxSteps
    assert main(["check", SRW_RCM, SRW_RCP, "--engine", "emit", "--out", str(tmp_path)]) == 0
    assert len((tmp_path / "srw.sweep.tsv").read_text().splitlines()) == 9
    rcp = tmp_path / "fixed.rcp"
    rcp.write_text(SRW_RCP_TEXT.replace("MaxSteps from set {20 to 100 by step 10}",
                                        "MaxSteps set to 20"))
    assert main(["check", SRW_RCM, str(rcp), "--engine", "emit", "--out", str(tmp_path)]) == 0
    assert "const int MaxSteps = 20;" in (tmp_path / "srw.prism").read_text()
    assert not (tmp_path / "srw.sweep.tsv").exists()
    # a check of the same directory keeps the emission's files
    assert main(["check", SRW_RCM, str(rcp), "--kind", "dtmc", "--prop", "P_stuck",
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "srw.prism").exists() and (tmp_path / "report.jsonl").exists()


def test_each_job_of_a_failed_joint_walk_reports_its_own_error(tmp_path, capsys):
    # A_ok's samples meet no error and B_bad's parameters are wrong; the
    # joint walk of A_ok and C_neg meets C_neg's negative reward, which
    # was raised as A_ok's before B_bad's own error
    rcp = tmp_path / "errors.rcp"
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
    rewards R_neg =
      (SRWMod::SRWRP::x == 2) : -1;
    endrewards
    prob property A_ok:
      Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=100
      with constants C_all
      with definitions D_all
    prob property B_bad:
      Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=100, pathlen=0
      with constants C_all
      with definitions D_all
    prob property C_neg:
      Reward {R_neg} =? of [Cumul 10] using sim with CI at alpha=0.05, n=100
      with constants C_all
      with definitions D_all
    """)
    argv = ["check", SRW_RCM, str(rcp), "--engine", "smc", "--kind", "dtmc",
            "--out", str(tmp_path / "out")]
    for prop, error in (("*", "property B_bad [MaxDist=2,MaxSteps=4,Pl=0.5] at line 18: "
                              "pathlen must be at least 1 and whole, got 0"),
                        ("[AC]*", "rewards R_neg: negative reward -1 at state")):
        assert main(argv + ["--prop", prop]) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}")
    assert main(argv + ["--prop", "A_ok"]) == 0


# one configuration whose jobs use every simulation method: SPRT, CI and ACI
# given w and alpha, CI given n, APMC and reward CI
MIXED_RCP = r"""
    label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
    label l_origin = (SRWMod::SRWRP::x == 0)
    label l_far = (SRWMod::SRWRP::x >= 3) \/ (SRWMod::SRWRP::x <= -3)
    constants C_one:
      SRWMod::SRWRP::MaxDist set to 10,
      SRWMod::SRWRP::MaxSteps set to 40, and
      SRWMod::SRWRP::Pl set to 0.5
    defs D_norecharge:
      pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
      pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
      pfunction Update(v, maxv, origin) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
    rewards R_origins =
      [SRWMod::ctrl_ref::stm_ref::left.out] (SRWMod::SRWRP::x == 0) : 1;
      [SRWMod::ctrl_ref::stm_ref::right.out] (SRWMod::SRWRP::x == 0) : 1;
    endrewards
    prob property P_sprt:
      Prob>=0.3 of [Finally #l_far] using sim with SPRT at alpha=0.05, delta=0.05
      with constants C_one
      with definitions D_norecharge
    prob property P_ci_w:
      Prob=? of [Finally<=12 #l_far] using sim with CI at w=0.05, alpha=0.05
      with constants C_one
      with definitions D_norecharge
    prob property P_aci_w:
      Prob=? of [Finally #l_stuck /\ not #l_origin] using sim with ACI at w=0.04, alpha=0.05
      with constants C_one
      with definitions D_norecharge
    prob property P_ci_n:
      Prob=? of [Finally<=12 #l_far] using sim with CI at alpha=0.05, n=700, pathlen=30
      with constants C_one
      with definitions D_norecharge
    prob property P_apmc:
      Prob<=0.9 of [Finally<=12 #l_far] using sim with APMC at epsilon=0.1, delta=0.05
      with constants C_one
      with definitions D_norecharge
    prob property R_ci:
      Reward {R_origins} =? of [Cumul 25] using sim with CI at alpha=0.05, n=1500
      with constants C_one
      with definitions D_norecharge
    """


def test_a_mixed_method_configuration_reports_what_each_job_reports_alone(tmp_path,
                                                                          monkeypatch):
    import rcprob.smc as smc
    rcp = tmp_path / "mixed.rcp"
    rcp.write_text(MIXED_RCP)
    walks = []  # the lanes of each walk
    walk = smc._walk

    def counted(mm, seed, samples, lanes, trace=None):
        walks.append(len(lanes))
        return walk(mm, seed, samples, lanes, trace)

    monkeypatch.setattr(smc, "_walk", counted)

    def records(prop):
        # each record without the sizes of the model, which grows with the
        # paths of every job of a walk, and without the timings
        out = tmp_path / prop.replace("*", "all")
        assert main(["check", SRW_RCM, str(rcp), "--engine", "smc", "--kind", "dtmc",
                     "--seed", "3", "--prop", prop, "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in (out / "report.jsonl").read_text().splitlines()]
        for rec in recs:
            for key in ("buildMs", "checkMs", "states", "transitions"):
                del rec[key]
        return {rec.pop("property"): rec for rec in recs}

    joint = records("*")
    # the six jobs walk their first batch together, the sequential ones too
    assert walks[0] == 6
    assert sorted(rec["mode"] for rec in joint.values()) == [
        "smc-ACI", "smc-APMC", "smc-CI", "smc-CI", "smc-CI", "smc-SPRT"]
    for name, rec in joint.items():
        assert records(name) == {name: rec}, name


# two paths that differ in one literal: x / 2 divides whole numbers, x / 2.0
# exactly, so only the first can hold at x == 3
DIVISIONS_RCP = r"""
    constants C_one:
      SRWMod::SRWRP::MaxDist set to 5,
      SRWMod::SRWRP::MaxSteps set to 20, and
      SRWMod::SRWRP::Pl set to 0.5
    defs D_norecharge:
      pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
      pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
      pfunction Update(v, maxv, origin) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
    prob property P_int:
      Prob=? of [Finally (SRWMod::SRWRP::x / 2 == 1 /\ SRWMod::SRWRP::x == 3)]
      using sim with CI at alpha=0.05, n=500
      with constants C_one
      with definitions D_norecharge
    prob property P_real:
      Prob=? of [Finally (SRWMod::SRWRP::x / 2.0 == 1 /\ SRWMod::SRWRP::x == 3)]
      using sim with CI at alpha=0.05, n=500
      with constants C_one
      with definitions D_norecharge
    """


def test_an_integer_and_a_real_division_are_simulated_apart(tmp_path):
    # both paths printed as `x / 2`, so the joint walk gave P_real the
    # monitor of P_int
    rcp = tmp_path / "divisions.rcp"
    rcp.write_text(DIVISIONS_RCP)

    def records(prop):
        out = tmp_path / prop.replace("*", "all")
        assert main(["check", SRW_RCM, str(rcp), "--engine", "smc", "--kind", "dtmc",
                     "--seed", "3", "--prop", prop, "--out", str(out)]) == 0
        recs = [json.loads(ln) for ln in (out / "report.jsonl").read_text().splitlines()]
        for rec in recs:
            for key in ("buildMs", "checkMs", "states", "transitions"):
                del rec[key]
        return {rec.pop("property"): rec for rec in recs}

    joint = records("*")
    assert joint["P_real"]["value"] == 0.0 < joint["P_int"]["value"]
    for name, rec in joint.items():
        assert records(name) == {name: rec}, name


def test_models_released_after_their_last_job(tmp_path, monkeypatch):
    import weakref
    import rcprob.cli as cli

    rcp = tmp_path / "two.rcp"
    rcp.write_text("""
    label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
    constants C_short:
      SRWMod::SRWRP::MaxDist set to 2,
      SRWMod::SRWRP::MaxSteps set to 4, and
      SRWMod::SRWRP::Pl set to 0.5
    constants C_long:
      SRWMod::SRWRP::MaxDist set to 2,
      SRWMod::SRWRP::MaxSteps set to 6, and
      SRWMod::SRWRP::Pl set to 0.5
    defs D_all:
      pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
      pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
      pfunction Update(v, maxv, origin) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
    prob property A_stuck:
      Prob=? of [Finally #l_stuck]
      with constants C_short
      with definitions D_all
    prob property B_deadlock:
      not Exists [Finally deadlock]
      with constants C_short
      with definitions D_all
    prob property C_stuck:
      Prob=? of [Finally #l_stuck]
      with constants C_long
      with definitions D_all
    """)
    # the builds of each process, whether this one or a forked worker:
    # (pid, MaxSteps, the MaxSteps of its earlier models still alive)
    log = tmp_path / "builds.jsonl"
    built = []  # (MaxSteps, weak reference to the model)
    build_markov = cli.build_markov

    def tracking_build(closed, *args):
        alive = [steps for steps, ref in built if ref() is not None]
        mm = build_markov(closed, *args)
        built.append((closed.consts["MaxSteps"], weakref.ref(mm)))
        with open(log, "a") as fh:
            fh.write(json.dumps([os.getpid(), closed.consts["MaxSteps"], alive]) + "\n")
        return mm

    monkeypatch.setattr(cli, "build_markov", tracking_build)
    plan = RunPlan(SRW_RCM, str(rcp), engine="internal", kind="dtmc",
                   out_dir=str(tmp_path / "out"))
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
        built.clear()
        log.unlink(missing_ok=True)
        assert run(plan) == 0
        builds = [json.loads(line) for line in log.read_text().splitlines()]
        alive_at_build = [alive for _, _, alive in builds]
        if cpus == 1:
            # C_short serves A_stuck and B_deadlock from one build, and is
            # gone before C_long is built
            assert [steps for _, steps, _ in builds] == [4, 6]
            assert alive_at_build == [[], []]
            assert {pid for pid, _, _ in builds} == {os.getpid()}
        else:
            # each structure is built once, in a worker, which takes its
            # structures in order and frees each before the next
            assert sorted(steps for _, steps, _ in builds) == [4, 6]
            assert alive_at_build == [[], []]
            assert os.getpid() not in {pid for pid, _, _ in builds}
            for pid in {pid for pid, _, _ in builds}:
                mine = [steps for p, steps, _ in builds if p == pid]
                assert mine == sorted(mine)
        records = [json.loads(ln) for ln in
                   (tmp_path / "out" / "report.jsonl").read_text().splitlines()]
        assert [r["property"] for r in records] == ["A_stuck", "B_deadlock", "C_stuck"]


@pytest.mark.parametrize("engine", ["smc", "internal", "emit"])
def test_a_run_leaves_no_cyclic_garbage(engine, tmp_path, monkeypatch):
    # each closed model was freed by the cyclic collector, not when the run
    # dropped it: it, its explorer, its steps and their entries formed cycles
    import gc
    import rcprob.cli as cli

    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)  # the models are built here
    plan = RunPlan(SRW_RCM, SRW_RCP, engine=engine, kind="dtmc", seed=3,
                   out_dir=str(tmp_path))
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert run(plan) == 0
        gc.collect()
        kept = {type(o).__qualname__ for o in gc.garbage
                if type(o).__module__.startswith("rcprob")}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert kept == set()


def test_cli_smc_rejects_empty_sample(tmp_path, capsys):
    rcp = tmp_path / "zero.rcp"
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
    prob property P_none:
      Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=0
      with constants C_all
      with definitions D_all
    """)
    code = main(["check", SRW_RCM, str(rcp), "--engine", "smc", "--kind", "dtmc",
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "n must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1"])
def test_tol_outside_the_unit_interval_exits_2(tol, tmp_path, capsys):
    # inf stopped value iteration at once and 0, -1 and nan ran it to its cap
    code = main(["check", SRW_RCM, SRW_RCP, f"--tol={tol}", "--out", str(tmp_path)])
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert code == 2 and len(errors) == 1 and "--tol" in errors[0], errors
    assert not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize("seed", [str(-2 ** 32), "-1", str(2 ** 64)])
def test_seed_outside_64_bits_exits_2(seed, tmp_path, capsys):
    # -2**32 simulated the samples of seed 0
    code = main(["check", SRW_RCM, SRW_RCP, "--kind", "dtmc", "--engine", "smc",
                 "--seed", seed, "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [f"error: --seed must lie in [0, 2**64), got {seed}"]
    assert not (tmp_path / "report.jsonl").exists()


def test_seeds_that_differ_above_bit_32_give_different_estimates(tmp_path):
    # the seed was masked to its low 32 bits, so 0 and 2**32 gave one estimate
    spec = tmp_path / "one.rcp"
    spec.write_text(Path(SRW_RCP).read_text().replace("from set {20 to 100 by step 10}",
                                                       "set to 20"))
    values = []
    for seed in (0, 2 ** 32, 1):
        out = tmp_path / str(seed)
        assert main(["check", SRW_RCM, str(spec), "--kind", "dtmc", "--engine", "smc",
                     "--prop", "R_stuck_not_origin", "--seed", str(seed),
                     "--out", str(out)]) == 0
        values.append(json.loads((out / "report.jsonl").read_text())["value"])
    assert len(set(values)) == 3, values


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_max_states_below_one_exits_2(cap, tmp_path, capsys):
    # a cap below one state passed validation and failed the first build
    code = main(["check", SRW_RCM, SRW_RCP, "--max-states", cap, "--out", str(tmp_path)])
    err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert err == [f"error: --max-states must be a positive integer, got {cap}"]
    assert not (tmp_path / "report.jsonl").exists()


@pytest.mark.parametrize("body", [
    "Prob>=1/2 of [Finally (SRWMod::SRWRP::x == 2)]",
    "Prob>=0.5 of [Finally (SRWMod::SRWRP::x == 2)]",
    "Prob>=1/2 of [Finally (SRWMod::SRWRP::x == 2)] using sim with SPRT at alpha=1/100, "
    "delta=1/20",
])
def test_fraction_bound_divides_exactly(body, tmp_path):
    # the value is 1/4; integer division made the bound 1/2 and alpha=1/100 zero
    rcp = tmp_path / "bound.rcp"
    rcp.write_text(_srw_prop(body))
    engine = ["--engine", "smc"] if "sim" in body else []
    out = tmp_path / "out"
    assert main(["check", SRW_RCM, str(rcp), "--kind", "dtmc", "--out", str(out)] + engine) == 1
    assert json.loads((out / "report.jsonl").read_text())["verdict"] is False


# --- failures in user expressions: one error line, exit code 2 ------------------------

DIV_MODEL = """
module DivMod {
  controller C {
    event ping : int;
    machine A {
      var a : int = 0;
      event ping : int;
      initial a0;
      state A1;
      state A2;
      transition s0 { from a0 to A1 }
      transition s1 { from A1 to A2 STEP }
    }
    machine B {
      var y : TYPE = 0;
      event ping : int;
      initial b0;
      state B1;
      state B2;
      transition r0 { from b0 to B1 }
      transition r1 { from B1 to B2 trigger ping ? y }
    }
    connection A.ping -> B.ping;
  }
}
"""
SRW_SETUP = """
label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
label l_div = (10 / SRWMod::SRWRP::x > 1)
constants C_all:
  SRWMod::SRWRP::MaxDist set to 2,
  SRWMod::SRWRP::MaxSteps set to 4, and
  SRWMod::SRWRP::Pl set to 0.5
defs D_all:
  pfunction Plus(v, maxv) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
  pfunction Minus(v, minv) = { return (if ``v > ``minv then ``v - 1 else ``v end) }
  pfunction Update(v, maxv, origin) = { return (if ``v < ``maxv then ``v + 1 else ``v end) }
rewards R_origins =
  [SRWMod::ctrl_ref::stm_ref::left.out] (SRWMod::SRWRP::x == 0) : 1;
endrewards
pmodules MEnv: pmodule E {
  n : [0 to 2] init 0;
  COMMAND
}
"""
AT_PROPERTY = "property P_bad [MaxDist=2,MaxSteps=4,Pl=0.5] at line {line}: "


def _div_model(step, var_type="int"):
    return DIV_MODEL.replace("STEP", step).replace("TYPE", var_type)


# A's s1 and B's r1 synchronise on go, so B first waits at B1 with A at A1,
# where A's s2 initiates the joint step and evaluates B's guard on r2
PARTNER_MODEL = """
module SyncDiv {
  controller C {
    event go;
    event ping : int;
    machine A {
      event go;
      event ping : int;
      initial a0;
      state A0;
      state A1;
      state A2;
      transition s0 { from a0 to A0 }
      transition s1 { from A0 to A1 trigger go }
      transition s2 { from A1 to A2 trigger ping ! 1 }
    }
    machine B {
      var y : int = 0;
      event go;
      event ping : int;
      initial b0;
      state B0;
      state B1;
      state B2;
      transition r0 { from b0 to B0 }
      transition r1 { from B0 to B1 trigger go }
      transition r2 { from B1 to B2 trigger ping ? y guard 1 / y > 0 }
    }
    connection A.go -> B.go;
    connection A.ping -> B.ping;
  }
}
"""


def _srw_prop(body, command="[] true -> (@n = 0);", modules=False):
    return (SRW_SETUP.replace("COMMAND", command) + f"prob property P_bad:\n  {body}\n"
            "  with constants C_all\n  with definitions D_all\n"
            + ("  with modules MEnv\n" if modules else ""))


DEADLOCK_FREE = "prob property P: not Exists [Finally deadlock]\n"
FAILING_INPUTS = {
    "guard": (_div_model("guard 1 / a > 0"), DEADLOCK_FREE, [], "C.A.s1 at state ("),
    # the send keeps B's trigger a partner of A, not a platform input
    "update": (_div_model("action a = 1 / a; ping ! 1"), DEADLOCK_FREE, [],
               "C.A.s1@act0 at state ("),
    "send": (_div_model("action ping ! (1 / a)"), DEADLOCK_FREE, [],
             "C.A.s1@act0 at state ("),
    "received": (_div_model("trigger ping ! (0 - 3)", "nat"), DEADLOCK_FREE, [],
                 "C.A.s1+C.B.r1 at state (C.A.a=0, C.A.lk=0, C.A.pc=A1, C.B.y=0, "),
    # a partner's guard fails within the step that initiates the joint step
    "partner guard": (PARTNER_MODEL, DEADLOCK_FREE, [],
                      "C.A.s2 at state (C.A.lk=0, C.A.pc=A1, C.B.y=0, C.B.lk=0, C.B.pc=B1, "),
    # simulation explores the states its paths reach, as they reach them
    "guard smc": (_div_model("guard 1 / a > 0"),
                  "prob property P:\n  Prob=? of [Finally DivMod::C::A is in DivMod::C::A::A2] "
                  "using sim with CI at alpha=0.05, n=10\n",
                  ["--kind", "dtmc", "--engine", "smc"], "C.A.s1 at state ("),
    "pmodule guard": (None, _srw_prop("Prob=? of [Finally #l_stuck]",
                                      "[] 1 / @n > 0 -> (@n = 1);", modules=True),
                      ["--kind", "dtmc"], "E.c0 at state ("),
    "pmodule update": (None, _srw_prop("Prob=? of [Finally #l_stuck]",
                                       "[] true -> (@n = 1 / @n);", modules=True),
                       ["--kind", "dtmc"], "E.c0 at state ("),
    "pmodule range": (None, _srw_prop("Prob=? of [Finally #l_stuck]",
                                      "[] true -> (@n = @n + 1);", modules=True),
                      ["--kind", "dtmc"], "E.c0 at state ("),
    "label": (None, _srw_prop("Prob=? of [Finally #l_div]"), ["--kind", "dtmc"],
              AT_PROPERTY),
    "label smc": (None, _srw_prop("Prob=? of [Finally #l_div] using sim with CI at "
                                    "alpha=0.05, n=10"),
                  ["--kind", "dtmc", "--engine", "smc"],
                  AT_PROPERTY),
    "fractional n": (None, _srw_prop("Prob=? of [Finally #l_stuck] using sim with CI at "
                                     "alpha=0.05, n=200.5"),
                     ["--kind", "dtmc", "--engine", "smc"], AT_PROPERTY),
    "zero pathlen": (None, _srw_prop("Prob=? of [Finally #l_stuck] using sim with CI at "
                                     "alpha=0.05, n=200, pathlen=0"),
                     ["--kind", "dtmc", "--engine", "smc"], AT_PROPERTY),
    "fractional reward n": (None, _srw_prop("Reward {R_origins} =? of [Cumul 2] using sim "
                                            "with CI at alpha=0.05, n=0.5"),
                            ["--kind", "dtmc", "--engine", "smc"], AT_PROPERTY),
    "fractional Cumul": (None, _srw_prop("Reward {R_origins} =? of [Cumul 2.5]"),
                         ["--kind", "dtmc"], AT_PROPERTY),
    "fractional Cumul smc": (None, _srw_prop("Reward {R_origins} =? of [Cumul 2.5] using sim "
                                             "with CI at alpha=0.05, n=10"),
                             ["--kind", "dtmc", "--engine", "smc"], AT_PROPERTY),
    # an initial value out of range was an EvalError traceback
    "pmodule init": (None, _srw_prop("Prob=? of [Finally #l_stuck]", modules=True)
                     .replace("init 0", "init 7"), ["--kind", "dtmc"],
                     "bad initial value: variable env.E.n range [0..2] violated by 7"),
}
# simulation parameters outside their ranges: alpha and delta in (0,1), SPRT
# alpha in (0, 1/2), epsilon and w positive
SIM_PARAMETERS = {
    "APMC epsilon 0": "Prob=? of [Finally #l_stuck] using sim with APMC at epsilon=0, delta=0.05",
    "APMC delta 0": "Prob=? of [Finally #l_stuck] using sim with APMC at epsilon=0.05, delta=0",
    "APMC delta 3": "Prob=? of [Finally #l_stuck] using sim with APMC at epsilon=0.05, delta=3",
    "SPRT alpha 0": "Prob>=0.5 of [Finally #l_stuck] using sim with SPRT at alpha=0, delta=0.05",
    "SPRT alpha 1/2": "Prob>=0.5 of [Finally #l_stuck] using sim with SPRT at alpha=0.5, "
                      "delta=0.05",
    "SPRT delta 0": "Prob>=0.5 of [Finally #l_stuck] using sim with SPRT at alpha=0.01, delta=0",
    "CI w 0": "Prob=? of [Finally #l_stuck] using sim with CI at w=0, alpha=0.05",
    "ACI w negative": "Prob=? of [Finally #l_stuck] using sim with ACI at w=0 - 0.1, alpha=0.05",
    "CI alpha 1": "Prob=? of [Finally #l_stuck] using sim with CI at alpha=1, n=10",
    "reward alpha 0": "Reward {R_origins} =? of [Cumul 2] using sim with CI at alpha=0, n=10",
}
FAILING_INPUTS.update({case: (None, _srw_prop(body), ["--kind", "dtmc", "--engine", "smc"],
                              AT_PROPERTY) for case, body in SIM_PARAMETERS.items()})


@pytest.mark.parametrize("case", FAILING_INPUTS)
def test_failing_expression_exits_2_with_one_error_line(case, tmp_path, capsys):
    model_text, spec_text, flags, where = FAILING_INPUTS[case]
    model = SRW_RCM
    if model_text is not None:
        model = tmp_path / "m.rcm"
        model.write_text(model_text)
    spec = tmp_path / "s.rcp"
    spec.write_text(spec_text)
    code = main(["check", str(model), str(spec), "--out", str(tmp_path / "out"), *flags])
    err = capsys.readouterr().err
    errors = [ln for ln in err.splitlines() if ln.startswith("error:")]
    assert code == 2 and len(errors) == 1 and "Traceback" not in err, err
    line = spec_text[:spec_text.find("prob property")].count("\n") + 1
    assert errors[0].startswith("error: " + where.format(line=line)), errors[0]


def _props(tmp_path, name, decls, props, *flags):
    """The records, without timings, of the SRW_SETUP model with the
    declarations `decls` and the properties `props` (name: body)."""
    spec = tmp_path / f"{name}.rcp"
    spec.write_text(SRW_SETUP.replace("COMMAND", "[] true -> (@n = 0);") + decls + "".join(
        f"prob property {prop}:\n  {body}\n  with constants C_all\n  with definitions D_all\n"
        for prop, body in props.items()))
    out = tmp_path / name
    assert main(["check", SRW_RCM, str(spec), "--kind", "dtmc", "--seed", "3",
                 "--out", str(out), *flags]) == 0
    recs = [json.loads(ln) for ln in (out / "report.jsonl").read_text().splitlines()]
    for rec in recs:
        del rec["buildMs"], rec["checkMs"]
    return {rec.pop("property"): rec for rec in recs}


@pytest.mark.parametrize("engine", ["internal", "smc"])
def test_a_connective_reads_its_right_operand_only_where_the_left_does_not_decide(
        engine, tmp_path):
    # 10 / x fails at x == 0, where the left operand decides; elsewhere
    # 10 / x > 5 holds at x == 1 alone (x ranges over -2..2)
    decls = ("label l_and = SRWMod::SRWRP::x != 0 /\\ 10 / SRWMod::SRWRP::x > 5\n"
             "label l_or = SRWMod::SRWRP::x == 0 \\/ 10 / SRWMod::SRWRP::x > 5\n")
    recs = _props(tmp_path, engine, decls, {
        "P_and": "Prob=? of [Finally #l_and]",
        "P_and_ref": "Prob=? of [Finally SRWMod::SRWRP::x == 1]",
        "P_or": "Prob=? of [Globally #l_or]",
        "P_or_ref": "Prob=? of [Globally SRWMod::SRWRP::x == 0 \\/ SRWMod::SRWRP::x == 1]"},
        "--engine", engine)
    assert recs["P_and"] == recs["P_and_ref"] and recs["P_or"] == recs["P_or_ref"], recs
    assert 0 < recs["P_and"]["value"] < 1 and 0 < recs["P_or"]["value"] < 1, recs


@pytest.mark.parametrize("through", ["label", "formula"])
def test_a_simulated_operand_nesting_prob_by_name_reads_the_whole_model(through, tmp_path,
                                                                        monkeypatch):
    # the monitor finds the Prob behind the name and expands the model
    # before its first rows, as for a Prob written in place; one that missed
    # it would judge the Prob over the states the paths had reached
    from rcprob.exact import ExactChecker
    solves = []  # per solve, the states of the model and how many are expanded
    prob_path = ExactChecker.prob_path
    monkeypatch.setattr(ExactChecker, "prob_path", lambda self, *args: solves.append(
        (self.n, len(self.mm.order))) or prob_path(self, *args))
    likely = "Prob>=0.8 of [Finally SRWMod::SRWRP::x == 2]"
    decls = f"label l_likely = {likely}\nformula f_likely = {likely}\n"
    name = "#l_likely" if through == "label" else "`f_likely"
    inline = {"P": f"Prob=? of [Finally ({likely})]"}
    simulated = _props(tmp_path, through, decls, {"P": f"Prob=? of [Finally {name}]"},
                       "--engine", "smc")
    named = list(solves)
    assert simulated == _props(tmp_path, "inline", decls, inline, "--engine", "smc")
    assert 0 < simulated["P"]["value"] < 1
    full = simulated["P"]["states"]
    assert full == _props(tmp_path, "exact", decls, inline)["P"]["states"]
    assert named == [(full, full)], named


def test_a_chain_of_divisions_as_long_as_the_parser_admits_explores(tmp_path, capsys):
    # Python's parser nests at most 200 brackets; printed as one nested call
    # per division, this guard exited 2 with "expression too deep to compile"
    guard = "guard steps == MaxSteps"
    values = []
    for chain in (" / 1" * 240, ""):
        model = tmp_path / "m.rcm"
        model.write_text(Path(SRW_RCM).read_text().replace(
            guard, f"guard x{chain} == 0 /\\ steps == MaxSteps"))
        spec = tmp_path / "s.rcp"
        spec.write_text(_srw_prop("Prob=? of [Finally #l_stuck]"))
        out = tmp_path / f"out{len(chain)}"
        code = main(["check", str(model), str(spec), "--out", str(out), "--kind", "dtmc"])
        assert code == 0, capsys.readouterr().err
        values.append(json.loads((out / "report.jsonl").read_text())["value"])
    assert values[0] == values[1]


def test_weak_until_and_release_simulate_near_their_exact_values(tmp_path):
    bodies = {"W": "(SRWMod::SRWRP::x >= 0) Weak Until #l_stuck",
              "W5": "(SRWMod::SRWRP::x >= 0) Weak Until<=5 #l_stuck",
              "R": "#l_stuck Release (SRWMod::SRWRP::x >= -1)",
              "R5": "(SRWMod::SRWRP::x > 0) Release<=5 (SRWMod::SRWRP::x >= 0)"}
    spec = tmp_path / "s.rcp"
    spec.write_text(SRW_SETUP.replace("COMMAND", "[] true -> (@n = 0);") + "".join(
        f"prob property P_{name}:\n  Prob=? of [{body}] using sim with CI at alpha=0.05, "
        "n=1000\n  with constants C_all\n  with definitions D_all\n"
        for name, body in bodies.items()))
    records = {}
    for engine in ("internal", "smc"):
        out = tmp_path / engine
        assert main(["check", SRW_RCM, str(spec), "--kind", "dtmc", "--engine", engine,
                     "--out", str(out)]) == 0
        for ln in (out / "report.jsonl").read_text().splitlines():
            rec = json.loads(ln)
            records[engine, rec["property"]] = rec
    for name in bodies:
        exact, sim = records["internal", f"P_{name}"], records["smc", f"P_{name}"]
        assert 0 < exact["value"] < 1 and sim["mode"] == "smc-CI", name
        assert abs(sim["value"] - exact["value"]) <= 4 * sim["halfWidth"], name


# An expression that must be a constant but reads the state is rejected by
# validation, at its position, before any model is built.
STATE_DEPENDENT = {
    "bound": ("Prob>=SRWMod::SRWRP::x of [Finally #l_stuck]", []),
    "step bound": ("Prob=? of [Finally<=SRWMod::SRWRP::x #l_stuck]", []),
    "Cumul": ("Reward =? of [Cumul SRWMod::SRWRP::x]", []),
    "sim parameter": ("Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, "
                      "n=SRWMod::SRWRP::x", ["--engine", "smc"]),
}


@pytest.mark.parametrize("case", STATE_DEPENDENT)
def test_state_dependent_constant_is_a_validation_error(case, tmp_path, capsys):
    body, flags = STATE_DEPENDENT[case]
    spec_text = _srw_prop(body)
    spec = tmp_path / "s.rcp"
    spec.write_text(spec_text)
    code = main(["check", SRW_RCM, str(spec), "--kind", "dtmc", "--out", str(tmp_path / "out"),
                 *flags])
    diags = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
    line = spec_text[:spec_text.find("prob property")].count("\n") + 2
    col = spec_text.splitlines()[line - 1].find("SRWMod::SRWRP::x") + 1
    assert code == 2
    assert [(d["code"], d["line"], d["col"]) for d in diags] == [("TYPE", line, col)], diags
    assert "cannot depend on the state" in diags[0]["message"]
    assert not (tmp_path / "out" / "report.jsonl").exists()


# A property-file constant that the property's configuration leaves open is
# a validation error naming the property, wherever the property reads it.
OPEN_CONSTANT = {
    "step bound": ("Prob=? of [Finally<=K #l_stuck]", []),
    "sim parameter": ("Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=K",
                      ["--engine", "smc"]),
    "sim path length": ("Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, "
                        "n=100, pathlen=K", ["--engine", "smc"]),
}


@pytest.mark.parametrize("case", OPEN_CONSTANT)
def test_an_unconfigured_constant_is_a_validation_error_naming_the_property(case, tmp_path,
                                                                             capsys):
    body, flags = OPEN_CONSTANT[case]
    spec = tmp_path / "k.rcp"
    spec.write_text(Path(SRW_RCP).read_text() + "\nconst K : nat\n\nprob property P_k:\n"
                    f"  {body}\n  with constants C_fair_MD10_MS20_100\n"
                    "  with definitions D_norecharge\n")
    code = main(["check", SRW_RCM, str(spec), "--kind", "dtmc", "--out", str(tmp_path / "out"),
                 *flags])
    diags = [json.loads(ln) for ln in capsys.readouterr().err.splitlines()]
    assert code == 2
    assert [(d["code"], d["message"]) for d in diags] == [
        ("SCOPE", "property P_k: constant 'K' is not covered by its constant configuration")]
    assert not (tmp_path / "out" / "report.jsonl").exists()


# Only the internal engine loads scipy, and no engine loads dataclasses.  Each
# case runs in a fresh interpreter with the srw model, a property file and an
# output directory as arguments, and prints the scipy modules loaded at its
# end and whether dataclasses is.
COLD_START = """
import json, sys, time
from pathlib import Path
import rcprob
from rcprob.cli import RunPlan, run, sweep_experiments
model_path, spec_path, out_dir = sys.argv[1:]
{body}
print(json.dumps({{"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "dataclasses": "dataclasses" in sys.modules}}))
"""
COLD_START_CASES = {
    "import": "",
    "validate": "model = rcprob.parse_model(Path(model_path).read_text())\n"
                "spec = rcprob.parse_spec(Path(spec_path).read_text())\n"
                "assert not [d for d in rcprob.validate(model, spec) if d.severity == 'error']\n"
                "assert sweep_experiments(model, spec)",
    "emit": "assert run(RunPlan(model_path, spec_path, engine='emit', out_dir=out_dir)) == 0",
    "smc": "assert run(RunPlan(model_path, spec_path, engine='smc', kind='dtmc', "
           "out_dir=out_dir)) == 0",
}
SIM_SPEC = _srw_prop("Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=200") \
    + "prob property R_sim:\n  Reward {R_origins} =? of [Cumul 4]\n" \
      "  with constants C_all\n  with definitions D_all\n"


def _cold_start(body: str, spec: str, tmp_path) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", COLD_START.format(body=body), SRW_RCM, spec,
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cold_start_case(case: str, tmp_path) -> dict:
    spec = tmp_path / "sim.rcp"
    spec.write_text(SIM_SPEC)
    return _cold_start(COLD_START_CASES[case], str(spec) if case == "smc" else SRW_RCP,
                       tmp_path)


@pytest.mark.parametrize("case", COLD_START_CASES)
def test_cold_start_leaves_scipy_unloaded(case, tmp_path):
    assert _cold_start_case(case, tmp_path)["scipy"] == []


# whether scipy is loaded when the checks start, under simulation
AT_CHECKS = """
import json, sys
import rcprob.cli as cli
model_path, spec_path, out_dir = sys.argv[1:]
loaded, checks = [], cli._run_checks
def recorded(*args):
    loaded.append("scipy.sparse.linalg" in sys.modules)
    return checks(*args)
cli._run_checks = recorded
plan = cli.RunPlan(model_path, spec_path, engine="smc", kind="dtmc", seed=3, out_dir=out_dir)
assert cli.run(plan) == 0
print(json.dumps(loaded))
"""


@pytest.mark.parametrize("path, loaded", [
    ("[Finally #l_stuck]", False),
    ("[Finally (Prob>0.5 of [Finally #l_stuck])]", True),
    ("[Finally #nested]", True),
])
def test_a_simulation_that_nests_a_solve_loads_scipy_before_its_timers(path, loaded, tmp_path):
    # the first nested solve of each process imported scipy within its
    # record's checkMs
    spec = tmp_path / "sim.rcp"
    spec.write_text("label nested = Prob>0.5 of [Finally #l_stuck]\n"
                    + _srw_prop(f"Prob=? of {path} using sim with CI at alpha=0.05, n=200"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", AT_CHECKS, SRW_RCM, str(spec),
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [loaded]


@pytest.mark.parametrize("case", COLD_START_CASES)
def test_cold_start_leaves_dataclasses_unloaded(case, tmp_path):
    # the record classes are `rcprob.record`'s: processing 104 classes with
    # dataclasses took about 40 ms of each cold start
    assert _cold_start_case(case, tmp_path)["dataclasses"] is False


def test_internal_engine_loads_scipy_before_its_first_timer(tmp_path):
    # the case that keeps the test above from passing vacuously: the exact
    # engine needs scipy, and loads it before any buildMs/checkMs starts
    spec = tmp_path / "p.rcp"
    spec.write_text(_srw_prop("Prob=? of [Finally #l_stuck]"))
    body = ("seen = []\n"
            "def timer():\n"
            "    if not seen:\n"
            "        seen.append({'scipy.sparse.csgraph', 'scipy.sparse.linalg'}\n"
            "                    <= set(sys.modules))\n"
            "    return time.perf_counter()\n"
            "assert run(RunPlan(model_path, spec_path, kind='dtmc', out_dir=out_dir, "
            "timer=timer)) == 0\n"
            "assert seen == [True], seen")
    assert "scipy.sparse.csgraph" in _cold_start(body, str(spec), tmp_path)["scipy"]


# --- state formulas that mix nested operators with plain operands ----------------

X = "SRWMod::SRWRP::x"
# `10 / x` fails where x is 0, which the left operand of the outer `/\` excludes
MIXED = {"P_mixed": "Prob>0.5 of [Finally #l_stuck]",
         "P_mixed_k": "Prob>0.5 of [Finally<=10 #l_stuck]"}
MIXED_PATH = f"Finally ({X} != 0 /\\ ((NESTED) /\\ 10 / {X} > 1))"


def _mixed_spec(query: str) -> str:
    head = SRW_RCP_TEXT[:SRW_RCP_TEXT.index("prob property")]
    return head + ("constants C_small:\n  SRWMod::SRWRP::MaxDist set to 3,\n"
                   "  SRWMod::SRWRP::MaxSteps set to 10, and\n  SRWMod::SRWRP::Pl set to 0.5\n") \
        + "".join(f"prob property {name}:\n  Prob{query} of [{MIXED_PATH.replace('NESTED', n)}]\n"
                  "  with constants C_small\n  with definitions D_norecharge\n"
                  for name, n in MIXED.items())


def _mixed_oracle(kind: str) -> dict:
    """Per property, the value at the initial state from the short-circuit
    oracle, with the nested probabilities from the exported matrix."""
    import numpy as np
    from fractions import Fraction
    from oracles import (all_moves, explicit_dtmc_csr, parse_explicit, short_circuit_sat,
                         sparse_reach)
    from rcprob.build import build_markov, instantiate
    from rcprob.props import DefinitionsDecl, parse_expression, pretty_pexpr
    spec = parse_spec(_mixed_spec("=?"))
    closed = instantiate(parse_model(Path(SRW_RCM).read_text()),
                         {"MaxDist": 3, "MaxSteps": 10, "Pl": Fraction(1, 2)},
                         spec.find(DefinitionsDecl, "D_norecharge"), None, kind, spec)
    mm = build_markov(closed)
    # one move per state: every adversary of the mdp gives the dtmc's values
    assert all(len(moves) == 1 for moves in all_moves(mm))
    mat = explicit_dtmc_csr(parse_explicit(mm.export_text()))
    xs = [st[closed.index["SRWRP.x"]] for st in mm.states]
    stuck = np.array([st[closed.index["ctrl_ref.stm_ref.pc"]] == "Stuck" for st in mm.states])
    within = stuck.astype(float)
    for _ in range(10):
        within = np.where(stuck, 1.0, mat @ within)
    nested = {MIXED["P_mixed"]: sparse_reach(mat, stuck) > 0.5,
              MIXED["P_mixed_k"]: within > 0.5}
    asked = []

    def atom(e, s):
        x = xs[s]
        asked.append(x)
        return {f"{X} != 0": lambda: x != 0, f"10 / {X} > 1": lambda: int(10 / x) > 1}[
            pretty_pexpr(e)]()

    values = {}
    for name, text in MIXED.items():
        phi = parse_expression(f"Prob=? of [{MIXED_PATH.replace('NESTED', text)}]").path.operand
        sat = short_circuit_sat(phi, mm.num_states, lambda e: nested[pretty_pexpr(e)], atom)
        values[name] = sparse_reach(mat, sat)[mm.initial]
        assert 0 < values[name] < 1
    assert 0 in asked  # the guard reads states with x = 0 and keeps `10 / x` from them
    return values


@pytest.mark.parametrize("kind,query,flags", [
    ("dtmc", "=?", ["--kind", "dtmc"]),
    ("mdp", " max=?", ["--kind", "mdp"]),
    ("dtmc", "=?", ["--kind", "dtmc", "--engine", "smc", "--seed", "3"])],
    ids=["dtmc", "mdp", "smc"])
def test_a_nested_probability_beside_a_guarded_division_short_circuits(
        kind, query, flags, tmp_path, capsys):
    # `10 / x` was read at every state, also where x != 0 fails: exit 2 with
    # "division by zero" under every engine
    spec = tmp_path / "mixed.rcp"
    spec.write_text(_mixed_spec(query))
    out = tmp_path / "out"
    assert main(["check", SRW_RCM, str(spec), *flags, "--out", str(out)]) == 0, \
        capsys.readouterr().err
    records = {r["property"]: r for r in map(json.loads,
                                              (out / "report.jsonl").read_text().splitlines())}
    for name, want in _mixed_oracle(kind).items():
        rec = records[name]
        if "--engine" in flags:
            assert abs(rec["value"] - want) <= rec["halfWidth"], (name, rec, want)
        else:
            assert rec["value"] == pytest.approx(want, abs=1e-9), name
