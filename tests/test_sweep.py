"""One exploration per model structure across a constant sweep: the
weight-only constants, the reweighed models and the CLI's grouping, each
against builds of single configurations."""

import collections
import json
from fractions import Fraction

import numpy as np
import pytest

from rcprob import cli
from rcprob.build import BuildError, MarkovModel, build_markov, instantiate, open_markov
from rcprob.exact import ExactChecker, check_property
from rcprob.model import parse_model
from rcprob.props import (DefinitionsDecl, PModulesDecl, ProbProperty, parse_expression,
                          parse_spec, pretty_pexpr)
from rcprob.resolve import Resolver, weight_only_constants

from conftest import FIXTURES

SRW_RCM = FIXTURES / "srw.rcm"

TABLE = """
label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
label l_origin = (SRWMod::SRWRP::x == 0)
constants C:
  SRWMod::SRWRP::MaxDist set to 3,
  SRWMod::SRWRP::MaxSteps STEPS, and
  SRWMod::SRWRP::Pl PL
defs D:
  pfunction Plus(v, maxv) = { return (if (``v) < (``maxv) then (``v) + 1 else (``v) end) }
  pfunction Minus(v, minv) = { return (if (``v) > (``minv) then (``v) - 1 else (``v) end) }
  pfunction Update(v, maxv, origin) = { return (if ((``v) < (``maxv)) then (``v + 1) else (``v) end) }
rewards R_origins =
  [SRWMod::ctrl_ref::stm_ref::left.out] (SRWMod::SRWRP::x == 0) : 1;
  [SRWMod::ctrl_ref::stm_ref::right.out] (SRWMod::SRWRP::x == 0) : 1;
endrewards
pmodules MW:
  pmodule A {
    a : [0 to 2] init 0;
    [SRWMod::ctrl_ref::stm_ref::left.out] true -> (PL_: @a = 1) & (1 - PL_: @a = 0);
  }
  pmodule B {
    b : [0 to 2] init 0;
    [SRWMod::ctrl_ref::stm_ref::left.out] true -> (1 - PL_: @b = 1) & (PL_: @b = 2);
  }
prob property R_table:
  Reward {R_origins} =? of [Reachable #l_stuck /\\ not #l_origin]
  with constants C
  with definitions D
prob property P_stuck:
  Prob=? of [Finally #l_stuck /\\ not #l_origin]
  with constants C
  with definitions D
prob property P_env:
  Prob=? of [Finally @b == 2]
  with constants C
  with definitions D
  with modules MW
"""


def _table(steps: str, pls: str) -> str:
    return TABLE.replace("PL_", "SRWMod::SRWRP::Pl").replace("STEPS", steps).replace("PL", pls)


def _records(tmp_path, name: str, spec_text: str) -> list[dict]:
    rcp = tmp_path / f"{name}.rcp"
    rcp.write_text(spec_text)
    out = tmp_path / name
    assert cli.main(["check", str(SRW_RCM), str(rcp), "--kind", "dtmc",
                     "--out", str(out)]) == 0
    records = [json.loads(ln) for ln in (out / "report.jsonl").read_text().splitlines()]
    for rec in records:
        del rec["buildMs"], rec["checkMs"]
    return records


@pytest.fixture
def builds(monkeypatch, tmp_path):
    """The number of closed models that `cli` has explored, in this process
    or in the workers it forks."""
    log = tmp_path / "builds.log"
    log.touch()

    def counted(closed, max_states):
        with open(log, "a") as fh:
            fh.write(f"{cli.config_id_of(closed.consts)}\n")
        return build_markov(closed, max_states)

    monkeypatch.setattr(cli, "build_markov", counted)
    return lambda: len(log.read_text().splitlines())


@pytest.mark.parametrize("pls, structures", [
    # Pl is weight-only: one build per MaxSteps and set of modules
    ("0.3, 0.5, 0.8", 1),
    # Pl = 0 and Pl = 1 each drop a branch of the junction and of both modules
    ("0, 0.5, 1", 3),
])
def test_a_sweep_reports_what_single_configurations_report(tmp_path, builds, pls, structures):
    swept = _records(tmp_path, "swept", _table("from set {6, 8}", f"from set {{{pls}}}"))
    assert len(swept) == 3 * 2 * 3
    assert builds() == 2 * 2 * structures
    alone = []
    for steps in (6, 8):
        for pl in pls.split(", "):
            alone += _records(tmp_path, f"alone_{steps}_{pl}",
                              _table(f"set to {steps}", f"set to {pl}"))
    # two per configuration: with the modules and without
    assert builds() == 2 * 2 * structures + 6 * 2
    assert sorted(alone, key=lambda r: (r["property"], r["config"])) == swept


@pytest.mark.parametrize("modules", [None, "MW"])
def test_reweighed_models_are_the_builds_of_their_configurations(srw_model, modules):
    spec = parse_spec(_table("set to 6", "set to 0.5"))
    defs = spec.find(DefinitionsDecl, "D")
    env = spec.find(PModulesDecl, modules) if modules else None

    def closed(pl):
        return instantiate(srw_model, {"MaxDist": 3, "MaxSteps": 6, "Pl": pl}, defs, env,
                           "dtmc", spec)

    base = build_markov(closed(Fraction(3, 10)))
    for pl in (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)):
        alone, view = build_markov(closed(pl)), base.reweigh(closed(pl))
        assert view.export_text() == alone.export_text()
        # the nodes that exploring makes, in its order, with the values of
        # this configuration
        assert view.weights == alone.weights and view.weights is not base.weights
        assert np.array_equal(view.node_id, alone.node_id)
        assert view.states is base.states and view.dest is base.dest
        assert view.nodes is base.nodes
    # at Pl = 1/2, `prob Pl` and `prob 1 - Pl` are two leaves of one value,
    # as are the products
    half = base.reweigh(closed(Fraction(1, 2)))
    assert len(half.weights) == len(base.weights)
    assert len(set(half.weights)) < len(set(base.weights))


def test_a_bad_distribution_on_a_shared_structure_is_fatal(srw_model):
    spec = parse_spec(_table("set to 6", "set to 0.5"))
    defs = spec.find(DefinitionsDecl, "D")
    configs = [instantiate(srw_model, {"MaxDist": 3, "MaxSteps": 6, "Pl": pl}, defs, None,
                           "dtmc", spec) for pl in (Fraction(1, 2), Fraction(1, 4))]
    base = build_markov(configs[0])
    # a leaf that instantiation would have refused: t3's `prob Pl` made 1/2
    table = configs[1].weight_table
    leaf = next(n for n, w in enumerate(table.weights)
                if table.ops[n] is None and w == Fraction(1, 4))
    table.weights[leaf] = Fraction(1, 2)
    with pytest.raises(BuildError, match="branch probabilities sum to 5/4"):
        base.reweigh(configs[1])


@pytest.mark.parametrize("t3, bad, message", [
    ("prob Pl", "1.5", "probability of t2 is -1/2, outside [0,1]"),
    ("prob 1/2", "0.25", "outgoing probabilities sum to 5/4, not 1"),
])
def test_a_bad_weight_under_one_configuration_exits_2_naming_it(tmp_path, capsys, t3, bad,
                                                                  message):
    rcm = tmp_path / "m.rcm"
    rcm.write_text(SRW_RCM.read_text().replace("prob Pl ", f"{t3} "))
    rcp = tmp_path / "s.rcp"
    rcp.write_text(_table("set to 6", f"from set {{0.5, {bad}}}"))
    code = cli.main(["check", str(rcm), str(rcp), "--kind", "dtmc", "--out", str(tmp_path)])
    errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
    assert code == 2 and len(errors) == 1, errors
    assert message in errors[0] and errors[0].endswith(
        f"[configuration MaxDist=3,MaxSteps=6,Pl={bad}]"), errors[0]


# --- what the models of a structure share ----------------------------------------

NESTED = """
prob property P_next:
  Prob=? of [Finally (Prob>0.4 of [Next (SRWMod::SRWRP::x < 0)])]
  with constants C
  with definitions D
"""


def test_a_weight_only_sweep_derives_its_structure_once(tmp_path, monkeypatch):
    made = collections.Counter()

    def counted(name, fn):
        def call(*args):
            made[name] += 1
            return fn(*args)
        return call

    per_structure = ExactChecker._per_structure

    def per_structure_counted(self, key, make):
        return per_structure(self, key, counted(key if isinstance(key, str) else key[0], make))

    monkeypatch.setattr(ExactChecker, "_per_structure", per_structure_counted)
    monkeypatch.setattr(MarkovModel, "evaluate", counted("atom", MarkovModel.evaluate))
    monkeypatch.setattr(MarkovModel, "_choice_layout",
                        counted("choice order", MarkovModel._choice_layout))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)  # no worker keeps a count of its own
    records = _records(tmp_path, "swept", _table("set to 6", "from set {0.3, 0.5, 0.8}"))
    assert len(records) == 3 * 3
    # two structures, with the modules and without, of three configurations
    # each: R_table and P_stuck share one atom, their conjunction of l_stuck
    # and not l_origin, and one pair of prob-0/1 sets, and R_origins' two
    # equal guards take one pass; P_env reads one atom and another pair
    assert made == {"atom": 3, "choice order": 2, "succ": 2, "pred": 2, "_prob01": 2}


def test_equal_state_formulas_are_evaluated_once_per_structure(tmp_path, monkeypatch):
    # the reward table's shape: three rows share each structure of the rows
    # without recharge, and one has structures of its own, over five values
    # of MaxSteps.  The conjunction, written in each row, took one pass per
    # row, 20, where one per structure is 10; the two equal guards of
    # R_origins take one pass per structure too
    passes = collections.Counter()
    evaluate = MarkovModel.evaluate

    def counted(self, e, states):
        passes[pretty_pexpr(e)] += 1
        return evaluate(self, e, states)

    monkeypatch.setattr(MarkovModel, "evaluate", counted)
    monkeypatch.setattr(cli, "_cpu_count", lambda: 1)
    table = TABLE[:TABLE.index("pmodules MW")].replace("STEPS", "from set {2, 4, 6, 8, 10}")
    table = table.replace("Pl PL", "Pl set to 0.5").replace(
        "defs D:", "defs D_norecharge:") + (
        "defs D_recharge:\n"
        "  pfunction Plus(v, maxv) = { return (if (``v) < (``maxv) then (``v) + 1 "
        "else (``v) end) }\n"
        "  pfunction Minus(v, minv) = { return (if (``v) > (``minv) then (``v) - 1 "
        "else (``v) end) }\n"
        "  pfunction Update(v, maxv, origin) = { return (if ``origin then 0 else (if ((``v) < "
        "(``maxv)) then (``v + 1) else (``v) end) end) }\n")
    for row, defs in (("R_a", "D_norecharge"), ("R_b", "D_recharge"), ("R_c", "D_norecharge"),
                      ("R_d", "D_norecharge")):
        table += (f"prob property {row}:\n"
                  "  Reward {R_origins} =? of [Reachable #l_stuck /\\ not #l_origin]\n"
                  f"  with constants C\n  with definitions {defs}\n")
    assert len(_records(tmp_path, "table", table)) == 4 * 5
    guard = pretty_pexpr(parse_expression("(SRWMod::SRWRP::x == 0)"))
    assert passes == {"#l_stuck /\\ not #l_origin": 10, guard: 10}


def test_a_nested_probability_is_judged_per_configuration(tmp_path):
    # Prob>0.4 of [Next x < 0] holds at states that differ with Pl, and with
    # them the prob-0/1 sets of the Finally around it
    swept = _records(tmp_path, "swept", _table("set to 6", "from set {0.3, 0.5, 0.8}") + NESTED)
    alone = []
    for pl in ("0.3", "0.5", "0.8"):
        alone += _records(tmp_path, f"alone_{pl}", _table("set to 6", f"set to {pl}") + NESTED)
    nested = [r for r in swept if r["property"] == "P_next"]
    assert len({r["value"] for r in nested}) == 3
    assert sorted(alone, key=lambda r: (r["property"], r["config"])) == swept


def test_reweighed_models_share_the_structure_and_not_the_weights(srw_model):
    spec = parse_spec(_table("set to 6", "set to 0.5"))

    def closed(pl):
        return instantiate(srw_model, {"MaxDist": 3, "MaxSteps": 6, "Pl": pl},
                           spec.find(DefinitionsDecl, "D"), None, "dtmc", spec)

    base = build_markov(closed(Fraction(3, 10)))
    view = base.reweigh(closed(Fraction(4, 5)))
    prop = spec.find(ProbProperty, "R_table")
    values = [check_property(mm, prop).verdict for mm in (base, view)]
    assert values[0] != values[1]
    assert view.derived is base.derived and view.atoms is base.atoms and base.derived
    assert (view.dtmc_csr() != base.dtmc_csr()).nnz > 0
    # a growing model keeps nothing derived from its store past an expansion
    lazy = open_markov(closed(Fraction(1, 2)))
    lazy.expand([0])
    lazy.derived["support"] = "of the states expanded so far"
    lazy.expand(np.flatnonzero(lazy.row_of < 0).tolist())
    assert lazy.derived == {}


# --- which constants are weight-only ----------------------------------------------

SCALED = ("function Plus(v : int, maxv : int) : int;",
          "function Plus(v : int, maxv : int) : int;\n      function Scale(v : int) : real;")
SCALE_DEF = "  pfunction Scale(v) = { return (``v * SRWMod::SRWRP::Pl) }\n"


def _weight_only(model_edits=(), spec_text=""):
    text = SRW_RCM.read_text()
    for old, new in model_edits:
        assert old in text
        text = text.replace(old, new)
    spec = parse_spec(_table("set to 6", "set to 0.5").replace(
        "rewards R_origins", SCALE_DEF + "rewards R_origins") + spec_text)
    return weight_only_constants(Resolver(parse_model(text), spec),
                                 spec.find(DefinitionsDecl, "D"), ["MaxDist", "MaxSteps", "Pl"])


@pytest.mark.parametrize("case, model_edits, spec_text", [
    ("junction and environment weights", (), ""),
    ("a function called from a weight", [SCALED, ("prob Pl ", "prob Scale(1) "),
                                          ("prob 1 - Pl ", "prob 1 - Scale(1) ")], ""),
])
def test_weights_alone_read_a_weight_only_constant(case, model_edits, spec_text):
    assert _weight_only(model_edits, spec_text) == {"Pl"}, case


@pytest.mark.parametrize("case, model_edits, spec_text", [
    ("guard", [("guard steps == MaxSteps", "guard steps == MaxSteps /\\ Pl > 0")], ""),
    ("label", (), "label l_pl = (SRWMod::SRWRP::x < SRWMod::SRWRP::Pl)\n"),
    ("reward item", (), "rewards R_pl =\n  (SRWMod::SRWRP::x == 0) : SRWMod::SRWRP::Pl;\n"
                        "endrewards\n"),
    ("function called from an action", [SCALED, ("action x = Plus(x, MaxDist); right",
                                                 "action x = Plus(x, Scale(1)); right")], ""),
    ("environment guard", (), "pmodules MG: pmodule G {\n  g : bool init false;\n"
                              "  [] SRWMod::SRWRP::Pl > 0 -> (@g = true);\n}\n"),
    ("sim parameter", (), "prob property P_sim:\n  Prob=? of [Finally #l_stuck] using sim "
                          "with CI at alpha=SRWMod::SRWRP::Pl, n=10\n  with constants C\n"
                          "  with definitions D\n"),
])
def test_any_other_read_makes_a_constant_structural(case, model_edits, spec_text):
    assert _weight_only(model_edits, spec_text) == set(), case
