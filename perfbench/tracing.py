"""Spans around the calls into each rcprob layer, recorded from outside.

`Tracer.install()` replaces the public functions and methods that the
pipeline calls through module or class attributes with timing wrappers, and
`Tracer.remove()` puts the originals back, so untraced rounds run the
program unchanged.  Spans stay in memory; `layer_metrics` turns them into
the per-layer figures and `dump` writes them out.

A span's self time is its duration minus that of its child spans.  Spans
under emission (`emit`) count only towards the emit figures, because the
emitter explores the whole model again to size variable ranges.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import rcprob.build
import rcprob.cli
import rcprob.exact
import rcprob.prism
import rcprob.smc

# ExactChecker methods that build a structure once and cache it: a call
# that finds the cache filled is not a span.
_ASSEMBLE_CACHES = {"succ": "_succ", "pred": "_pred", "dtmc_matrix": "_dtmc_csr",
                    "mdp_arrays": "_mdp_arrays"}


def _explore_counts(mm):
    return {"states": mm.num_states, "transitions": mm.num_transitions()}


def _smc_counts(est):
    return {"samples": est.n, "cap_hits": est.cap_hits}


def _emit_counts(pair):
    return {"bytes": len(pair.model_text.encode()) + len(pair.props_text.encode())}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, counts]
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, owner, attr: str, name: str, counts=None, cache_attr=None):
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if cache_attr is not None and getattr(args[0], cache_attr, None) is not None:
                return original(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counts is not None:
                span[4] = counts(result)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self):
        cli, exact, smc = rcprob.cli, rcprob.exact, rcprob.smc
        self._wrap(cli, "parse_model", "parse")
        self._wrap(cli, "parse_spec", "parse")
        self._wrap(cli, "validate", "validate")
        self._wrap(cli, "sweep_experiments", "sweep", lambda jobs: {"jobs": len(jobs)})
        self._wrap(cli, "instantiate", "instantiate")
        self._wrap(cli, "build_markov", "explore", _explore_counts)
        self._wrap(cli, "emit_pair", "emit", _emit_counts)
        self._wrap(rcprob.prism, "build_markov", "emit.explore")
        self._wrap(rcprob.build.MarkovModel, "check_stochastic", "stochastic")
        self._wrap(exact, "attach_rewards", "rewards")
        self._wrap(exact, "check_property", "check",
                   lambda res: {"iterations": res.iterations})
        for method, cache in _ASSEMBLE_CACHES.items():
            self._wrap(exact.ExactChecker, method, "assemble", cache_attr=cache)
        for runner in ("run_ci", "run_aci", "run_apmc", "run_sprt", "run_reward_ci"):
            self._wrap(smc, runner, "smc", _smc_counts)

    def remove(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, fh, round_index: int):
        """Write the spans as JSON lines, tagged with their round."""
        for name, start, end, parent, counts in self.spans:
            fh.write(json.dumps({"round": round_index, "name": name, "start": start,
                                 "end": end, "parent": parent, "counts": counts}) + "\n")


TIME_METRICS = ("parse.s", "validate.s", "sweep.s", "instantiate.s", "explore.s",
                "stochastic.s", "rewards.s", "assemble.s", "check.numeric_s",
                "check.qualitative_s", "smc.s", "emit.s")


def layer_metrics(spans: list[list], wall: float) -> dict:
    """Per-layer figures of one traced round whose wall time was `wall`."""
    self_time = [end - start for _, start, end, _, _ in spans]
    under_emit = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            self_time[parent] -= end - start
            under_emit[i] = under_emit[parent] or spans[parent][0] == "emit"
    out = {k: 0.0 for k in TIME_METRICS}
    out.update({"emit.explore_s": 0.0, "sweep.jobs": 0, "build.models": 0,
                "explore.states": 0, "explore.transitions": 0, "check.iterations": 0,
                "smc.samples": 0, "smc.cap_hits": 0, "emit.bytes": 0})
    top = 0.0
    for i, (name, start, end, parent, counts) in enumerate(spans):
        if parent < 0:
            top += end - start
        if name == "emit":
            out["emit.s"] += end - start
            out["emit.bytes"] += counts["bytes"]
        elif name == "emit.explore":
            out["emit.explore_s"] += end - start
        if under_emit[i] or name.startswith("emit"):
            continue
        if name == "check":
            kind = "numeric" if counts["iterations"] > 0 else "qualitative"
            out[f"check.{kind}_s"] += self_time[i]
            out["check.iterations"] += counts["iterations"]
        else:
            out[f"{name}.s"] += self_time[i]
        if name == "sweep":
            out["sweep.jobs"] += counts["jobs"]
        elif name == "explore":
            out["build.models"] += 1
            out["explore.states"] += counts["states"]
            out["explore.transitions"] += counts["transitions"]
        elif name == "smc":
            out["smc.samples"] += counts["samples"]
            out["smc.cap_hits"] += counts["cap_hits"]
    out["explore.states_per_s"] = (out["explore.states"] / out["explore.s"]
                                   if out["explore.s"] > 0 else 0.0)
    out["smc.samples_per_s"] = (out["smc.samples"] / out["smc.s"]
                                if out["smc.s"] > 0 else 0.0)
    out["trace.wall_s"] = wall
    out["trace.unaccounted_s"] = wall - top
    return out


def median_metrics(rounds: list[dict]) -> dict:
    """Each figure's median over traced rounds (counts repeat exactly)."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
