"""Command-line pipeline: parse, validate, sweep, build, check or emit, report.

    rcprob check model.rcm props.rcp [--engine internal|smc|emit]
        [--kind dtmc|mdp] [--prop GLOB] [--out DIR] [--seed N]
        [--max-states N] [--tol X]

Exit codes: 0 all good, 1 a bounded property failed, 2 validation, build or
check errors, 3 I/O errors.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import os
import sys
import time
from pathlib import Path

from . import ast as A
from . import exact, smc
from .build import (DEFAULT_STATE_CAP, BuildError, EvalError, _fmt_value, build_markov,
                    expand_sweep, instantiate, open_markov)
from .lexer import ParseError
from .model import parse_model
from .props import ProbProperty, parse_spec
from .prism import EmitError, emit_pair
from .record import Record
from .resolve import (Diagnostic, Resolver, property_context, validate, walk_uses,
                      weight_only_constants)


class RunPlan(Record):
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
        if not 0 < self.tol < 1:  # also refuses nan
            raise ValueError(f"--tol must lie strictly between 0 and 1, got {self.tol}")
        if self.max_states < 1:
            raise ValueError(f"--max-states must be a positive integer, got {self.max_states}")
        if not 0 <= self.seed < smc.SEED_LIMIT:
            raise ValueError(f"--seed must lie in [0, 2**64), got {self.seed}")


class Job(Record):
    prop: ProbProperty
    config_id: str
    valuation: dict
    defs: object
    env: object


def config_id_of(valuation: dict) -> str:
    return ",".join(f"{k}={_fmt_value(v)}" for k, v in valuation.items())


def sweep_experiments(model, spec, prop_glob: str = "*"):
    """One job per property that `prop_glob` matches and per configuration,
    in deterministic order.  A glob that matches none of the spec's
    properties is an error."""
    props = [prop for prop in spec.properties if fnmatch.fnmatch(prop.name, prop_glob)]
    if spec.properties and not props:
        raise BuildError(f"--prop {prop_glob!r} matches no property "
                         f"({', '.join(prop.name for prop in spec.properties)})")
    resolver = Resolver(model, spec)
    jobs: list[Job] = []
    diags: list[Diagnostic] = []
    for prop in props:
        config, defs, env = property_context(resolver, prop, diags)
        for valuation in expand_sweep(config):
            jobs.append(Job(prop, config_id_of(valuation), valuation, defs, env))
    if any(d.severity == "error" for d in diags):
        raise BuildError("; ".join(str(d) for d in diags))
    return jobs


# the files that a check writes to its output directory besides
# diagnostics.jsonl, and the extensions of those that an emission names
# after the model
_REPORTS = ("report.jsonl", "report.txt")
_EMITTED = ("prism", "props", "namemap.tsv", "sweep.tsv")


def _verdict_fields(record_value):
    return {"verdict" if isinstance(record_value, bool) else "value": record_value}


def run(plan: RunPlan) -> int:
    out_dir = Path(plan.out_dir)
    texts = []
    for path in (plan.model_path, plan.spec_path):
        try:
            texts.append(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except UnicodeDecodeError as exc:
            print(f"error: {path}: not UTF-8 text at byte {exc.start}", file=sys.stderr)
            return 3
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # an earlier run's outputs, which this run replaces or, if it
        # fails, leaves out
        stem = Path(plan.model_path).stem
        stale = [f"{stem}.{ext}" for ext in _EMITTED] if plan.engine == "emit" else _REPORTS
        for name in stale:
            (out_dir / name).unlink(missing_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    paths = {"model": plan.model_path, "spec": plan.spec_path}
    parsed = []
    for parse, source, text in zip((parse_model, parse_spec), paths, texts):
        try:
            parsed.append(parse(text))
        except ParseError as exc:
            _report_diagnostics(out_dir, [Diagnostic("SYNTAX", "error", exc.message,
                                                     (exc.line, exc.col), source)], paths)
            return 2
    model, spec = parsed

    diags = validate(model, spec)
    _report_diagnostics(out_dir, diags, paths)
    if any(d.severity == "error" for d in diags):
        return 2

    try:
        jobs = sweep_experiments(model, spec, plan.prop_glob)
    except BuildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if plan.engine == "emit":
        return _run_emit(plan, model, spec, jobs, out_dir)
    if plan.engine == "smc":
        skipped = dict.fromkeys(job.prop.name for job in jobs if not isinstance(
            job.prop.body, (A.ProbFormula, A.RewardFormula)))
        for name in skipped:
            print(f"warning: {name}: simulation needs a P or R formula; not checked",
                  file=sys.stderr)
        jobs = [job for job in jobs if job.prop.name not in skipped]
        if skipped and not jobs:
            print("error: no property left to simulate", file=sys.stderr)
            return 2
    if plan.engine == "internal" or any(isinstance(node, exact.NESTED) for job in jobs
                                        for node in walk_uses(spec, job.prop.body.path)):
        # loaded before the first timer starts, so that no record's
        # buildMs/checkMs holds the import; a simulated formula needs it
        # where it nests a formula that the exact engine solves
        import scipy.sparse.csgraph  # noqa: F401
        import scipy.sparse.linalg  # noqa: F401
    try:
        records = _run_checks(plan, model, spec, jobs)
    except (BuildError, exact.CheckError, exact.UnsupportedError, smc.SmcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _write_reports(out_dir, records)
    failed = any(rec.get("verdict") is False for rec in records)
    return 1 if failed else 0


def _by_structure(plan: RunPlan, model, spec, jobs) -> list[list[list[Job]]]:
    """The jobs by configuration, and the configurations by the structure
    they explore to, each in order of first appearance.  Under the internal
    engine, configurations that differ only in weight-only constants
    (`weight_only_constants`) have one structure, unless their weights are
    zero at different leaves (`_check_structure` tells those apart)."""
    resolver = Resolver(model, spec)
    weight_only: dict = {}
    groups: dict = {}
    for job in jobs:
        context = (id(job.defs), id(job.env))
        names = set()
        if plan.engine == "internal":
            key = (id(job.defs), tuple(job.valuation))
            if key not in weight_only:
                weight_only[key] = weight_only_constants(resolver, job.defs, job.valuation)
            names = weight_only[key]
        structure = (tuple(sorted(kv for kv in job.valuation.items() if kv[0] not in names)),
                     *context)
        config = (tuple(sorted(job.valuation.items())), *context)
        groups.setdefault(structure, {}).setdefault(config, []).append(job)
    return [list(configs.values()) for configs in groups.values()]


def _run_checks(plan: RunPlan, model, spec, jobs) -> list[dict]:
    """Check the structures of the sweep (`_by_structure`), one per task of
    a pool of forked processes when there are two or more and this process
    may run on two or more CPUs, else one after another here.  Either way
    each structure's warnings are printed, and its first error raised, in
    structure order, as a serial run would."""
    structures = _by_structure(plan, model, spec, jobs)
    workers = min(len(structures), _cpu_count())
    outcomes = _in_workers(plan, model, spec, structures, workers) if workers > 1 \
        else (_check_structure(plan, model, spec, configs) for configs in structures)
    records = []
    try:
        for recs, warnings, error in outcomes:
            for line in warnings:
                print(line, file=sys.stderr)
            if error is not None:
                raise error
            records += recs
    finally:
        outcomes.close()  # a pool cancels the tasks not begun and ends its workers
    records.sort(key=lambda r: (r["property"], r["config"]))
    return records


def _cpu_count() -> int:
    """The CPUs this process may run on, as `taskset` sets them; 1 where the
    platform does not tell, so that nothing forks there."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


_worker_inputs: tuple = ()  # set in each worker, by its initializer


def _set_worker_inputs(*inputs):
    global _worker_inputs
    _worker_inputs = inputs


def _check_structure_at(index: int):
    plan, model, spec, structures = _worker_inputs
    return _check_structure(plan, model, spec, structures[index])


def _in_workers(plan: RunPlan, model, spec, structures, workers: int):
    """The outcomes of `_check_structure` on each structure, in order, from
    `workers` processes that fork from this one and so inherit its inputs,
    which are not pickled.  Forking is safe here: no thread of this program
    runs, and OpenBLAS stops its own threads in its fork handler.

    The heap is frozen around the forks (`gc.freeze`), so that a worker's
    first full collection does not walk the inherited objects and copy
    their pages; it is thawed after, unless the caller had frozen objects
    of its own, which stay frozen."""
    import gc
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    thaw = gc.get_freeze_count() == 0
    gc.freeze()
    # the fork start method flushes stdout and stderr before each fork, so
    # that no child writes text buffered here a second time
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_set_worker_inputs,
                               initargs=(plan, model, spec, structures))
    try:
        futures = [pool.submit(_check_structure_at, i) for i in range(len(structures))]
        for future in futures:
            yield future.result()
    except BrokenProcessPool:
        raise exact.CheckError("a worker process ended abruptly while checking "
                               "the sweep") from None
    finally:
        pool.shutdown(cancel_futures=True)
        if thaw:
            gc.unfreeze()


def _check_structure(plan: RunPlan, model, spec, configs: list[list[Job]]) \
        -> tuple[list[dict], list[str], Exception | None]:
    """The records of one structure's jobs, its warnings, and the error that
    stopped it (or None).  Under the internal engine the first configuration
    explores the structure and the others reweigh that build
    (`MarkovModel.reweigh`).  Simulation expands a model of its own per
    configuration, as its paths reach the states, and registers every job
    of the configuration with one `smc.SamplePool` before it checks the
    first, so that one walk serves them all."""
    records, warnings = [], []
    built: dict = {}  # the first model of each set of zero leaves
    try:
        for config_jobs in configs:
            job = config_jobs[0]
            t0 = plan.timer()
            try:
                closed = instantiate(model, job.valuation, job.defs, job.env,
                                     plan.kind, spec)
                if plan.engine == "internal":
                    zeros = closed.weight_table.zero_leaves()
                    mm = built[zeros].reweigh(closed) if zeros in built \
                        else build_markov(closed, plan.max_states)
                    built.setdefault(zeros, mm)
                else:
                    mm = open_markov(closed, plan.max_states)
            except BuildError as exc:
                if not job.config_id:
                    raise
                raise BuildError(f"{exc} [configuration {job.config_id}]") from exc
            build_ms = int((plan.timer() - t0) * 1000)
            sims = [None] * len(config_jobs)
            if plan.engine == "smc":
                pool = smc.SamplePool(mm, plan.seed)
                sims = [_sim_job(job, pool) for job in config_jobs]
            for job, sim in zip(config_jobs, sims):
                try:
                    records.append(_check_job(plan, job, mm, build_ms, warnings, sim))
                except (EvalError, exact.CheckError, exact.UnsupportedError,
                        smc.SmcError) as exc:
                    where = f" [{job.config_id}]" if job.config_id else ""
                    raise exact.CheckError(f"property {job.prop.name}{where} at line "
                                           f"{job.prop.pos[0]}: {exc}") from exc
    except (BuildError, exact.CheckError, exact.UnsupportedError, smc.SmcError) as exc:
        return records, warnings, exc
    return records, warnings, None


def _check_job(plan: RunPlan, job: Job, mm, build_ms: int, warnings: list, sim=None) -> dict:
    """The report record of one job on its model, simulated by `sim`
    (`_sim_job`) under the smc engine; a warning about the job goes to
    `warnings`."""
    t1 = plan.timer()
    body = job.prop.body
    if plan.kind == "dtmc" and isinstance(body, (A.ProbFormula, A.RewardFormula)) \
            and body.query in (A.QUERY_MIN, A.QUERY_MAX):
        warnings.append(f"warning: {job.prop.name}: a dtmc has a single adversary; "
                        f"treating the query as plain =?")
    if plan.engine == "internal":
        result = exact.check_property(mm, job.prop, job.config_id, tol=plan.tol)
        rec = {**_verdict_fields(result.verdict_json()), "mode": result.mode,
               "states": mm.num_states}
    else:
        est = sim()
        rec = {**_verdict_fields(est.verdict_json()), "mode": f"smc-{est.method}",
               "n": est.n, "states": len(mm.order),
               "pathLen": {"mean": est.path_len_mean, "max": est.path_len_max}}
        if est.half_width is not None:
            rec["halfWidth"] = est.half_width
        if est.cap_hits:
            rec["capHits"] = est.cap_hits
    check_ms = int((plan.timer() - t1) * 1000)
    return {"property": job.prop.name, "config": job.config_id, **rec,
            "transitions": mm.num_transitions(), "buildMs": build_ms, "checkMs": check_ms}


def _sim_params(method: A.SimMethodSpec | None, closed):
    """The method, its parameters and the path length; the sample count n
    and the path length stay as written, for `smc` to check."""
    if method is None:
        return "CI", {"alpha": smc.DEFAULT_ALPHA, "n": smc.DEFAULT_SAMPLES}, smc.DEFAULT_PATHLEN
    params = {}
    for name, expr in method.params.items():
        value = closed.spec_expr(expr, real=name != "n")(None)
        params[name] = value if name == "n" else float(value)
    pathlen = smc.DEFAULT_PATHLEN
    if method.pathlen is not None:
        pathlen = closed.spec_expr(method.pathlen)(None)
    return method.method, params, pathlen


def _sim_job(job: Job, pool: smc.SamplePool):
    """The call that simulates a job on its lane of `pool`, its parameters
    evaluated once, here, and its lane registered, so that the first job
    checked walks every lane; an error of the job is raised by the call."""
    body, closed = job.prop.body, pool.mm.closed
    error = None
    try:
        method, params, pathlen = _sim_params(body.method, closed)
        theta = None if body.bound is None \
            else float(closed.spec_expr(body.bound.expr, real=True)(None))
        rname = None
        if isinstance(body, A.RewardFormula):
            rname = body.rewards
            params = {"alpha": params.get("alpha", smc.DEFAULT_ALPHA),
                      "n": params.get("n", smc.DEFAULT_SAMPLES)}
            run, args, stop = smc.run_reward_ci, (rname, body.path), params["n"]
        elif method == "SPRT":
            if theta is None:
                raise smc.SmcError("SPRT needs a probability bound, not a query")
            params = {"alpha": params.get("alpha"), "delta": params.get("delta")}
            run, args = smc.run_sprt, (body.path, body.bound, theta)
            stop = smc.sprt_rule(theta, **params)
        elif method == "APMC":
            run, args, stop = smc.run_apmc, (body.path,), smc.apmc_parameters(**params)[2]
        else:
            run = {"CI": smc.run_ci, "ACI": smc.run_aci}[method]
            args, stop = (body.path,), smc.ci_stop(method, **params)
        pool.add(body.path, pathlen, stop, rname)
    except ValueError as exc:
        error = exc

    def simulate() -> smc.Estimate:
        if error is not None:
            raise error
        est = run(pool, *args, pathlen=pathlen, **params)
        if theta is not None and est.satisfied is None:
            est.satisfied = {"<": est.point < theta, "<=": est.point <= theta,
                             ">": est.point > theta, ">=": est.point >= theta}[body.bound.op]
        return est

    return simulate


def _run_emit(plan: RunPlan, model, spec, jobs, out_dir: Path) -> int:
    """Emit the model closed over the first property's first configuration;
    the constants that its sweep varies stay open, and the variable ranges
    hold for each of their values."""
    stem = Path(plan.model_path).stem
    sweep = [job for job in jobs if job.prop is jobs[0].prop] if jobs else []
    defs, env = (sweep[0].defs, sweep[0].env) if sweep else (None, None)
    valuations = [job.valuation for job in sweep] or [{}]
    varied = {k: [v[k] for v in valuations] for k in valuations[0]
              if len({_fmt_value(v[k]) for v in valuations}) > 1}
    try:
        closed = instantiate(model, valuations[0], defs, env, plan.kind, spec)
        pair = emit_pair(closed, spec, sweep=varied)
    except (BuildError, EmitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (out_dir / f"{stem}.prism").write_text(pair.model_text)
    (out_dir / f"{stem}.props").write_text(pair.props_text)
    (out_dir / f"{stem}.namemap.tsv").write_text(pair.mangler.tsv())
    if len(sweep) > 1:
        (out_dir / f"{stem}.sweep.tsv").write_text(
            "\n".join(job.config_id for job in sweep) + "\n")
    return 0


def _report_diagnostics(out_dir: Path, diags, paths: dict):
    """Write the diagnostics to diagnostics.jsonl and standard error, each
    naming the path of its source file."""
    lines = [d.to_json(paths[d.source]) for d in diags]
    (out_dir / "diagnostics.jsonl").write_text("\n".join(lines) + ("\n" if lines else ""))
    for line in lines:
        print(line, file=sys.stderr)


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
