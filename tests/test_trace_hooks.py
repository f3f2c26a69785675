"""The benchmark's tracer (`perfbench/tracing.py`) wraps rcprob functions and
methods by name; a rename must fail here rather than in a traced benchmark
run."""

from pathlib import Path

import rcprob.cli
import rcprob.exact
from rcprob.exact import ExactChecker
from rcprob.props import ProbProperty

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_wraps_existing_names(monkeypatch, srw_small, srw_spec):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import _ASSEMBLE_CACHES, Tracer

    closed, mm = srw_small
    prop = srw_spec.find(ProbProperty, "P_stuck")
    tracer = Tracer()
    tracer.install()
    try:
        checker = ExactChecker(mm)
        result = rcprob.exact.check_property(mm, prop, "cfg")
    finally:
        tracer.remove()
    assert result.verdict > 0.99
    assert {"check", "assemble"} <= {span[0] for span in tracer.spans}
    for method, cache in _ASSEMBLE_CACHES.items():
        assert not hasattr(getattr(ExactChecker, method), "__wrapped__"), method
        assert hasattr(checker, cache), cache


def test_tracer_records_smc_spans(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer, layer_metrics

    fixtures = Path(__file__).resolve().parent / "fixtures"
    rcp = tmp_path / "sim.rcp"
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
    prob property P_sim:
      Prob=? of [Finally #l_stuck] using sim with APMC at epsilon=0.1, delta=0.1
      with constants C_all
      with definitions D_all
    """)
    plan = rcprob.cli.RunPlan(str(fixtures / "srw.rcm"), str(rcp), engine="smc",
                              kind="dtmc", out_dir=str(tmp_path / "out"))
    tracer = Tracer()
    tracer.install()
    try:
        assert rcprob.cli.run(plan) == 0
    finally:
        tracer.remove()
    smc = [span for span in tracer.spans if span[0] == "smc"]
    assert len(smc) == 1
    assert smc[0][4] == {"samples": 150, "cap_hits": 0}
    metrics = layer_metrics(tracer.spans, 1.0)
    assert metrics["smc.samples"] == 150
    # each expansion of the growing model checks its distributions
    assert any(span[0] == "stochastic" for span in tracer.spans)
    assert metrics["stochastic.s"] > 0


def test_tracer_times_the_distribution_check_within_exploration(monkeypatch, srw_small):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracing import Tracer, layer_metrics

    closed, built = srw_small
    tracer = Tracer()
    tracer.install()
    try:
        mm = rcprob.cli.build_markov(closed)
    finally:
        tracer.remove()
    assert mm.num_transitions() == built.num_transitions()
    explore = [i for i, span in enumerate(tracer.spans) if span[0] == "explore"]
    stochastic = [span for span in tracer.spans if span[0] == "stochastic"]
    assert len(explore) == 1 and len(stochastic) == 1
    assert stochastic[0][3] == explore[0]  # its parent span
    assert tracer.spans[explore[0]][4] == {"states": mm.num_states,
                                           "transitions": mm.num_transitions()}
    assert layer_metrics(tracer.spans, 1.0)["stochastic.s"] > 0
