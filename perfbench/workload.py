"""Measured rounds of one workload, in a process of its own.

    python3 perfbench/workload.py JOB.json --seconds S --trace 0|1

A round is the workload's `rcprob check` invocations through
`rcprob.cli.run`, timed from the first call to the last report written.
Rounds repeat until `--seconds` have passed; with `--trace 1` untraced and
traced rounds alternate.  After the rounds the outputs of every round are
judged against the independent oracles in `oracles.py`.

Prints notes, then one JSON line: the round walls, peak RSS, operation
counts, and with tracing the per-layer figures.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import resource
import shutil
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import rcprob.cli as cli
from rcprob.build import build_markov, instantiate
from rcprob.model import parse_model
from rcprob.props import DefinitionsDecl, PModulesDecl, parse_spec

import oracles as O
import selftest
from gen import TOL
from tracing import Tracer, layer_metrics, median_metrics


class Verdicts:
    """Operation counts of a run.  An operation fails when its output is
    wrong; `correct` turns false when the output is malformed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.max_rel_err = 0.0
        self.notes: list[str] = []

    def op(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self._note(what)

    def malformed(self, what: str):
        self.correct = False
        self._note(f"malformed output: {what}")

    def _note(self, what: str):
        if what not in self.notes:
            self.notes.append(what)


def _records(out_dir: str) -> dict:
    recs = {}
    path = Path(out_dir) / "report.jsonl"
    if not path.exists():
        return recs
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            cfg = dict(kv.split("=", 1) for kv in rec["config"].split(","))
            recs[(rec["property"], cfg.get("MaxSteps"))] = rec
    return recs


def _load(job):
    model = parse_model(Path(job["model"]).read_text())
    spec = parse_spec(Path(job["props"]).read_text())
    return model, spec


def _export(model, spec, valuation, defs, env, kind) -> O.Export:
    closed = instantiate(model, valuation, defs, env, kind, spec)
    return O.parse_export(build_markov(closed).export_text())


def _srw_reward_rule(st, mv):
    return st["SRWRP.x"] == "0" and bool(
        mv.tags & {"SRWMod::ctrl_ref::stm_ref::left.out",
                   "SRWMod::ctrl_ref::stm_ref::right.out"})


# --- reward-table ----------------------------------------------------------------


def reward_table_refs(job) -> dict:
    model, spec = _load(job)
    refs = {}
    for cell in job["cells"]:
        defs = spec.find(DefinitionsDecl, cell["defs"])
        ex = _export(model, spec, {"MaxDist": job["maxdist"], "MaxSteps": cell["maxsteps"],
                                   "Pl": Fraction(cell["pl"])}, defs, None, "dtmc")
        pc = ex.column("ctrl_ref.stm_ref.pc")
        x = ex.column("SRWRP.x")
        target = np.array([p == "Stuck" and v != "0" for p, v in zip(pc, x)])
        value = O.reward_to_target(ex, target, O.move_rewards(ex, _srw_reward_rule))
        refs[(cell["property"], str(cell["maxsteps"]))] = (value, ex.n)
    return refs


def reward_table_judge(job, refs, outputs, v: Verdicts):
    for codes, recs in outputs:
        if codes != job["codes"] or len(recs) != len(refs):
            v.malformed(f"exit codes {codes}, {len(recs)} records")
        for key, (ref, n) in refs.items():
            rec = recs.get(key)
            if rec is None or rec["states"] != n or not isinstance(rec.get("value"), float):
                v.malformed(f"cell {key}: {rec}")
                v.op(False, f"cell {key[0]} MaxSteps={key[1]} missing")
                continue
            err = O.rel_err(rec["value"], ref)
            v.max_rel_err = max(v.max_rel_err, err)
            v.op(err <= TOL, f"cell {key[0]} MaxSteps={key[1]}: {rec['value']!r} "
                             f"vs {ref!r} (rel. err {err:.2e})")


# --- fleet-mdp -----------------------------------------------------------------


def fleet_refs(job) -> dict:
    model, spec = _load(job)
    env = spec.find(PModulesDecl, "MObs")
    ex = _export(model, spec, {"MaxWork": job["maxwork"]}, None, env, "mdp")
    target = np.array([p == "All" for p in ex.column("Ctl.Coord.pc")])
    k = job["bound"]
    # by construction: every robot finishes with probability one under any
    # scheduler, yet a robot may retry forever on some path
    return {"P_deadlock_free": True, "E_all": True, "A_all": False,
            "Pmin_all": 1.0, "Pmax_all": 1.0,
            "Pmin_bounded": O.bounded_reach(ex, target, k, "min"),
            "Pmax_bounded": O.bounded_reach(ex, target, k, "max"),
            "_states": ex.n}


def _emit_problems(job, files: dict) -> list[str]:
    """By-construction facts of the emitted PRISM pair."""
    problems = []
    model, props, namemap = files["prism"], files["props"], files["namemap.tsv"]
    if not model.startswith("mdp\n"):
        problems.append("model does not start with 'mdp'")
    if f"const int MaxWork = {job['maxwork']};" not in model:
        problems.append("MaxWork constant missing")
    modules = re.findall(r"^module (\S+)\n(.*?)^endmodule", model, re.S | re.M)
    if len(modules) != job["robots"] + 2:
        problems.append(f"{len(modules)} modules")
    for name, body in modules:
        probs = {Fraction(p) for p in re.findall(r"([0-9][0-9./]*):\(", body)}
        robot = re.search(r"_R(\d+)$", name)
        if robot:
            p = Fraction(job["probs"][int(robot.group(1)) - 1], 100)
            if probs != {p, 1 - p}:
                problems.append(f"{name}: branch probabilities {sorted(probs)}")
        elif probs:
            problems.append(f"{name}: unexpected probabilistic branches")
    names = re.findall(r"^// (\S+)$", props, re.M)
    if names != job["properties"]:
        problems.append(f"properties {names}")
    if props.count(f"F<={job['bound']} ") != 2:
        problems.append("step bounds missing from the properties")
    rows = [line.split("\t") for line in namemap.splitlines()]
    if any(len(r) != 2 for r in rows) or len({r[0] for r in rows}) != len(rows) \
            or len({r[1] for r in rows}) != len(rows):
        problems.append("name map is not a bijection")
    return problems


def fleet_judge(job, refs, outputs, v: Verdicts):
    for codes, (recs, files) in outputs:
        if codes != job["codes"] or len(recs) != len(job["properties"]):
            v.malformed(f"exit codes {codes}, {len(recs)} records")
        for name in job["properties"]:
            rec = recs.get((name, None))
            ref = refs[name]
            if rec is None or rec["states"] != refs["_states"]:
                v.malformed(f"{name}: {rec}")
                v.op(False, f"{name} missing")
                continue
            if isinstance(ref, bool):
                v.op(rec.get("verdict") is ref, f"{name}: {rec.get('verdict')} vs {ref}")
                continue
            err = O.rel_err(rec.get("value", math.nan), ref)
            v.max_rel_err = max(v.max_rel_err, err)
            v.op(err <= TOL, f"{name}: {rec.get('value')!r} vs {ref!r} (rel. err {err:.2e})")
        problems = _emit_problems(job, files)
        v.op(not problems, "emit: " + "; ".join(problems))


def _fleet_outputs(job):
    stem = Path(job["model"]).stem
    emit = Path(job["plans"][1]["out_dir"])
    files = {ext: emit / f"{stem}.{ext}" for ext in ("prism", "props", "namemap.tsv")}
    return _records(job["plans"][0]["out_dir"]), \
        {ext: f.read_text() if f.exists() else "" for ext, f in files.items()}


# --- srw-smc -------------------------------------------------------------------


def smc_refs(job) -> dict:
    model, spec = _load(job)
    defs = spec.find(DefinitionsDecl, "D_norecharge")
    ex = _export(model, spec, {"MaxDist": job["maxdist"], "MaxSteps": job["maxsteps"],
                               "Pl": Fraction(job["pl"])}, defs, None, "dtmc")
    far = np.array([abs(int(x)) >= job["far"] for x in ex.column("SRWRP.x")])
    k = job["bound"]
    return {"P_far": O.bounded_reach(ex, far, k),
            "R_origins": O.cumulative_reward(ex, O.move_rewards(ex, _srw_reward_rule), k)}


def smc_judge(job, refs, outputs, v: Verdicts):
    for codes, recs in outputs:
        if codes != job["codes"] or len(recs) != 3:
            v.malformed(f"exit codes {codes}, {len(recs)} records")
        checks = {
            "P_far_ci": (refs["P_far"], lambda r, ref: r["n"] == job["ci_n"]
                         and abs(r["value"] - ref) <= 4 * r["halfWidth"]),
            "P_far_apmc": (refs["P_far"], lambda r, ref: r["n"] >= O.apmc_min_samples(
                job["epsilon"], job["delta"]) and abs(r["value"] - ref) <= 2 * job["epsilon"]),
            "R_origins_ci": (refs["R_origins"], lambda r, ref: r["n"] == job["reward_n"]
                             and abs(r["value"] - ref) <= 4 * r["halfWidth"]),
        }
        for name, (ref, ok) in checks.items():
            rec = recs.get((name, str(job["maxsteps"])))
            if rec is None:
                v.malformed(f"{name} missing")
                v.op(False, f"{name} missing")
                continue
            v.op(ok(rec, ref), f"{name}: {rec} vs exact {ref!r}")


WORKLOADS = {
    "reward-table": (reward_table_refs, reward_table_judge,
                     lambda job: _records(job["plans"][0]["out_dir"])),
    "fleet-mdp": (fleet_refs, fleet_judge, _fleet_outputs),
    "srw-smc": (smc_refs, smc_judge, lambda job: _records(job["plans"][0]["out_dir"])),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("job")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    job = json.loads(Path(args.job).read_text())
    refs_of, judge, collect = WORKLOADS[job["workload"]]
    plans = [cli.RunPlan(**p) for p in job["plans"]]

    walls, traced, tracers, outputs = [], [], [], []
    start = perf_counter()
    while True:
        for plan in plans:  # no report of an earlier round may be judged again
            shutil.rmtree(plan.out_dir, ignore_errors=True)
        tracer = Tracer() if args.trace and len(walls) > len(traced) else None
        if tracer:
            tracer.install()
        try:
            t0 = perf_counter()
            codes = [cli.run(plan) for plan in plans]
            wall = perf_counter() - t0
        finally:
            if tracer:
                tracer.remove()
        if tracer:
            tracers.append(tracer)
            traced.append(layer_metrics(tracer.spans, wall))
        else:
            walls.append(wall)
        outputs.append((codes, collect(job)))
        if perf_counter() - start >= args.seconds and (not args.trace or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    selftest.run()
    verdicts = Verdicts()
    judge(job, refs_of(job), outputs, verdicts)
    result = {"rounds": len(outputs), "walls": walls, "peak_rss_mb": peak_rss_mb,
              "attempted": verdicts.attempted, "failed": verdicts.failed,
              "correct": verdicts.correct}
    if args.trace:
        layers = median_metrics(traced)
        layers["check.max_rel_err"] = verdicts.max_rel_err
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(walls)
        result["layers"] = layers
        spans_path = Path(args.job).with_name("spans.jsonl")
        with open(spans_path, "w") as fh:
            for i, tracer in enumerate(tracers):
                tracer.dump(fh, i)
    for note in verdicts.notes:
        print(f"  {note}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
