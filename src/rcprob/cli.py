"""Command-line pipeline: parse, validate, sweep, build, check or emit, report.

    rcprob check model.rcm props.rcp [--engine internal|smc|emit]
        [--kind dtmc|mdp] [--prop GLOB] [--out DIR] [--seed N]
        [--max-states N] [--tol X]

Exit codes: 0 all good, 1 a bounded property failed, 2 validation errors,
3 I/O errors.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import ast as A
from . import exact, smc
from .build import (DEFAULT_STATE_CAP, BuildError, build_markov, expand_sweep,
                    instantiate, open_markov)
from .lexer import ParseError
from .model import parse_model, _fraction_literal
from .props import ProbProperty, parse_spec
from .prism import EmitError, emit_pair
from .resolve import Diagnostic, Resolver, property_context, validate


@dataclass
class RunPlan:
    model_path: str
    spec_path: str
    engine: str = "internal"  # internal | smc | emit
    kind: str = "mdp"
    prop_glob: str = "*"
    out_dir: str = "rcprob-out"
    seed: int = 0
    max_states: int = DEFAULT_STATE_CAP
    tol: float = exact.DEFAULT_TOL
    timer: object = time.perf_counter

    def __post_init__(self):
        if self.engine == "smc" and self.kind != "dtmc":
            raise ValueError("engine=smc requires kind=dtmc")


@dataclass
class Job:
    prop: ProbProperty
    config_id: str
    valuation: dict
    defs: object
    env: object


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return str(v.numerator)
        return _fraction_literal(v)
    return str(v)


def config_id_of(valuation: dict) -> str:
    return ",".join(f"{k}={_fmt_value(v)}" for k, v in valuation.items())


def sweep_experiments(model, spec, prop_glob: str = "*"):
    """One job per property and configuration, in deterministic order."""
    resolver = Resolver(model, spec)
    jobs: list[Job] = []
    diags: list[Diagnostic] = []
    for prop in spec.properties:
        if not fnmatch.fnmatch(prop.name, prop_glob):
            continue
        config, defs, env = property_context(resolver, prop, diags)
        for valuation in expand_sweep(config):
            jobs.append(Job(prop, config_id_of(valuation), valuation, defs, env))
    if any(d.severity == "error" for d in diags):
        raise BuildError("; ".join(str(d) for d in diags))
    return jobs


def _verdict_fields(record_value):
    if isinstance(record_value, bool):
        return {"verdict": record_value}
    if record_value == math.inf:
        return {"value": "inf"}
    return {"value": record_value}


def run(plan: RunPlan) -> int:
    out_dir = Path(plan.out_dir)
    try:
        model_text = Path(plan.model_path).read_text()
        spec_text = Path(plan.spec_path).read_text()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    try:
        model = parse_model(model_text)
        spec = parse_spec(spec_text)
    except ParseError as exc:
        diag = Diagnostic("SYNTAX", "error", exc.message, (exc.line, exc.col))
        _write_diagnostics(out_dir, [diag], plan)
        print(diag.to_json(), file=sys.stderr)
        return 2

    diags = validate(model, spec)
    _write_diagnostics(out_dir, diags, plan)
    for d in diags:
        print(d.to_json(), file=sys.stderr)
    if any(d.severity == "error" for d in diags):
        return 2

    try:
        jobs = sweep_experiments(model, spec, plan.prop_glob)
    except BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if plan.engine == "emit":
        return _run_emit(plan, model, spec, jobs, out_dir)
    try:
        records = _run_checks(plan, model, spec, jobs)
    except (BuildError, exact.CheckError, exact.UnsupportedError, smc.SmcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_reports(out_dir, records)
    failed = any(rec.get("verdict") is False for rec in records)
    return 1 if failed else 0


def _run_checks(plan: RunPlan, model, spec, jobs) -> list[dict]:
    keys = [(tuple(sorted(job.valuation.items())), id(job.defs), id(job.env), plan.kind)
            for job in jobs]
    uses = Counter(keys)
    records = []
    build_cache: dict = {}
    for job, key in zip(jobs, keys):
        t0 = plan.timer()
        if key in build_cache:
            closed, mm, build_ms = build_cache[key]
        else:
            closed = instantiate(model, job.valuation, job.defs, job.env,
                                 plan.kind, spec)
            # simulation expands the states that its paths reach
            build = build_markov if plan.engine == "internal" else open_markov
            mm = build(closed, plan.max_states)
            build_ms = int((plan.timer() - t0) * 1000)
            build_cache[key] = (closed, mm, build_ms)
        uses[key] -= 1
        if not uses[key]:
            del build_cache[key]
        t1 = plan.timer()
        if plan.engine == "internal":
            body = job.prop.body
            if plan.kind == "dtmc" and isinstance(body, (A.ProbFormula, A.RewardFormula)) \
                    and body.query in (A.QUERY_MIN, A.QUERY_MAX):
                print(f"warning: {job.prop.name}: a dtmc has a single adversary; "
                      f"treating the query as plain =?", file=sys.stderr)
            result = exact.check_property(mm, closed, job.prop, job.config_id,
                                          tol=plan.tol)
            check_ms = int((plan.timer() - t1) * 1000)
            rec = {
                "property": job.prop.name,
                "config": job.config_id,
                **_verdict_fields(result.verdict_json()),
                "mode": result.mode,
                "states": mm.num_states,
                "transitions": mm.num_transitions(),
                "buildMs": build_ms,
                "checkMs": check_ms,
            }
        else:
            est = _run_smc_job(plan, mm, closed, job)
            check_ms = int((plan.timer() - t1) * 1000)
            rec = {
                "property": job.prop.name,
                "config": job.config_id,
                **_verdict_fields(est.verdict_json()),
                "mode": f"smc-{est.method}",
                "n": est.n,
                "states": len(mm.order),
                "transitions": mm.num_transitions(),
                "buildMs": build_ms,
                "checkMs": check_ms,
                "pathLen": {"mean": est.path_len_mean, "max": est.path_len_max},
            }
            if est.half_width is not None:
                rec["halfWidth"] = est.half_width
            if est.cap_hits:
                rec["capHits"] = est.cap_hits
        records.append(rec)
        # after the last job of its key nothing holds the model, so it is
        # freed before the next one is built
        del closed, mm
    records.sort(key=lambda r: (r["property"], r["config"]))
    return records


def _sim_params(method: A.SimMethodSpec | None, closed):
    if method is None:
        return "CI", {"alpha": 0.05, "n": 1000}, smc.DEFAULT_PATHLEN
    params = {}
    for name, expr in method.params.items():
        value = closed.spec_expr(expr)(None)
        params[name] = float(value) if name != "n" else int(value)
    pathlen = smc.DEFAULT_PATHLEN
    if method.pathlen is not None:
        pathlen = int(closed.spec_expr(method.pathlen)(None))
    return method.method, params, pathlen


def _run_smc_job(plan: RunPlan, mm, closed, job) -> smc.Estimate:
    body = job.prop.body
    if isinstance(body, A.ProbFormula):
        method, params, pathlen = _sim_params(body.method, closed)
        if method == "SPRT":
            if body.bound is None:
                raise smc.SmcError("SPRT needs a probability bound, not a query")
            theta = float(closed.spec_expr(body.bound.expr)(None))
            return smc.run_sprt(mm, closed, body.path, body.bound, theta,
                                alpha=params.get("alpha"), delta=params.get("delta"),
                                seed=plan.seed, pathlen=pathlen)
        runner = {"CI": smc.run_ci, "ACI": smc.run_aci, "APMC": smc.run_apmc}[method]
        est = runner(mm, closed, body.path, seed=plan.seed, pathlen=pathlen, **params)
        if body.bound is not None:
            theta = float(closed.spec_expr(body.bound.expr)(None))
            op = body.bound.op
            est.satisfied = {"<": est.point < theta, "<=": est.point <= theta,
                             ">": est.point > theta, ">=": est.point >= theta}[op]
        return est
    if isinstance(body, A.RewardFormula):
        method, params, pathlen = _sim_params(body.method, closed)
        est = smc.run_reward_ci(mm, closed, body.rewards, body.path,
                                alpha=params.get("alpha", 0.05),
                                n=params.get("n", 1000),
                                seed=plan.seed, pathlen=pathlen)
        if body.bound is not None:
            theta = float(closed.spec_expr(body.bound.expr)(None))
            op = body.bound.op
            est.satisfied = {"<": est.point < theta, "<=": est.point <= theta,
                             ">": est.point > theta, ">=": est.point >= theta}[op]
        return est
    raise smc.SmcError(f"property {job.prop.name} is not simulable; "
                       "simulation needs a P or R formula")


def _run_emit(plan: RunPlan, model, spec, jobs, out_dir: Path) -> int:
    stem = Path(plan.model_path).stem
    resolver = Resolver(model, spec)
    diags: list[Diagnostic] = []
    config = defs = env = None
    sweep_rows = []
    if jobs:
        prop = jobs[0].prop
        config, defs, env = property_context(resolver, prop, diags)
    valuations = expand_sweep(config)
    sweep_names = set()
    if config is not None and len(valuations) > 1:
        sweep_rows = [config_id_of(v) for v in valuations]
        first = valuations[0]
        sweep_names = {k for k in first
                       if len({_fmt_value(v[k]) for v in valuations}) > 1}
    valuation = valuations[0]
    try:
        closed = instantiate(model, valuation, defs, env, plan.kind, spec)
        pair = emit_pair(closed, spec, sweep_names=sweep_names)
    except (BuildError, EmitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (out_dir / f"{stem}.prism").write_text(pair.model_text)
    (out_dir / f"{stem}.props").write_text(pair.props_text)
    (out_dir / f"{stem}.namemap.tsv").write_text(pair.mangler.tsv())
    if sweep_rows:
        (out_dir / f"{stem}.sweep.tsv").write_text("\n".join(sweep_rows) + "\n")
    return 0


def _write_diagnostics(out_dir: Path, diags, plan: RunPlan):
    lines = [d.to_json(plan.spec_path) for d in diags]
    (out_dir / "diagnostics.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))


def _write_reports(out_dir: Path, records: list[dict]):
    jsonl = "\n".join(json.dumps(rec, sort_keys=True) for rec in records)
    (out_dir / "report.jsonl").write_text(jsonl + ("\n" if jsonl else ""))
    widths = {"property": 24, "config": 44, "result": 12}
    lines = [f"{'property':<{widths['property']}} {'config':<{widths['config']}} "
             f"{'result':<{widths['result']}} states transitions buildMs checkMs"]
    for rec in records:
        result = rec.get("verdict", rec.get("value"))
        lines.append(
            f"{rec['property']:<{widths['property']}} {rec['config']:<{widths['config']}} "
            f"{str(result):<{widths['result']}} {rec['states']} {rec['transitions']} "
            f"{rec['buildMs']} {rec['checkMs']}")
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rcprob",
                                     description="probabilistic checking of "
                                                 "state-machine models")
    sub = parser.add_subparsers(dest="command", required=True)
    check = sub.add_parser("check", help="verify properties against a model")
    check.add_argument("model", help="model file (.rcm)")
    check.add_argument("spec", help="property file (.rcp)")
    check.add_argument("--engine", choices=("internal", "smc", "emit"),
                       default="internal")
    check.add_argument("--kind", choices=("dtmc", "mdp"), default="mdp")
    check.add_argument("--prop", default="*", help="property name glob")
    check.add_argument("--out", default="rcprob-out", help="output directory")
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--max-states", type=int, default=DEFAULT_STATE_CAP)
    check.add_argument("--tol", type=float, default=exact.DEFAULT_TOL)
    args = parser.parse_args(argv)
    try:
        plan = RunPlan(args.model, args.spec, args.engine, args.kind, args.prop,
                       args.out, args.seed, args.max_states, args.tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(plan)


if __name__ == "__main__":
    sys.exit(main())
