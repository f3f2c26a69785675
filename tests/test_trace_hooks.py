"""The benchmark's tracer (`perfbench/tracing.py`) wraps rcprob functions and
methods by name; a rename must fail here rather than in a traced benchmark
run."""

from pathlib import Path

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
        checker = ExactChecker(mm, closed)
        result = rcprob.exact.check_property(mm, closed, prop, "cfg")
    finally:
        tracer.remove()
    assert result.verdict > 0.99
    assert {"check", "assemble"} <= {span[0] for span in tracer.spans}
    for method, cache in _ASSEMBLE_CACHES.items():
        assert not hasattr(getattr(ExactChecker, method), "__wrapped__"), method
        assert hasattr(checker, cache), cache
