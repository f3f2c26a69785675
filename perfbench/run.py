"""Benchmark of the `rcprob check` pipeline.

    python3 perfbench/run.py --workload reward-table|fleet-mdp|srw-smc|all
                             --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
For one workload it generates the inputs from the seed, times cold starts
(`setup_s`), then runs the measured rounds in a child process of their own
(`wall_s`, `peak_rss_mb`) and checks every output there.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics, or with `--trace 1` the per-layer
ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gen import GENERATORS  # noqa: E402

COLD_STARTS = 4  # measured, after one discarded start
CHILD_TIMEOUT = 170.0  # seconds; a run must end within 180
# The environment of every child process, held fixed: one BLAS/OpenMP
# thread, no bytecode written (so each cold start compiles rcprob again),
# a fixed hash seed.  Only PATH and HOME are taken from the caller.
FIXED_ENV = {"PYTHONDONTWRITEBYTECODE": "1", "PYTHONHASHSEED": "0",
             "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "LC_ALL": "C"}

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = {k: os.environ[k] for k in ("PATH", "HOME") if k in os.environ}
    env.update(FIXED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _child(args: list[str], deadline: float) -> str:
    """Run a child Python to completion; return its standard output."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    proc = subprocess.run([sys.executable, *args], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with {proc.returncode}")
    return proc.stdout


def cold_starts(job: dict, count: int, deadline: float):
    """Wall times of `count` cold starts, and the modules `import rcprob` loaded."""
    times, modules = [], set()
    for _ in range(count):
        t0 = time.perf_counter()
        out = _child([str(HERE / "coldstart.py"), job["model"], job["props"]], deadline)
        times.append(time.perf_counter() - t0)
        info = json.loads(out.splitlines()[-1])
        if info["errors"] or info["jobs"] != job["jobs"]:
            raise BenchError(f"cold start: {info}, expected {job['jobs']} jobs")
        modules.add(info["modules"])
    if len(modules) != 1:
        raise BenchError(f"import loaded differing module counts {sorted(modules)}")
    return times, modules.pop()


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    work = HERE / "out" / f"{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    job = GENERATORS[name](seed, work)
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job, indent=1))
    # one discarded start, then half the measured starts before the rounds
    # and half after them, so that setup_s samples the whole run
    before, modules = cold_starts(job, 1 + COLD_STARTS // 2, deadline)
    out = _child([str(HERE / "workload.py"), str(job_path), "--seconds", str(seconds),
                  "--trace", str(int(trace))], deadline)
    after, _ = cold_starts(job, COLD_STARTS - COLD_STARTS // 2, deadline)
    setup_s = statistics.median(before[1:] + after)
    *notes, last = out.splitlines()
    res = json.loads(last)
    if trace:
        values = dict(res["layers"], **{"import.modules": modules})
        units = PER_LAYER
    else:
        values = {"wall_s": statistics.median(res["walls"]), "setup_s": setup_s,
                  "peak_rss_mb": res["peak_rss_mb"]}
        units = END_TO_END
    print(f"{name} seed {seed}: {res['rounds']} rounds, {res['attempted']} operations "
          f"attempted, {res['failed']} failed, outputs "
          f"{'correct' if res['correct'] else 'MALFORMED'}")
    for line in notes:
        print(line)
    for key, unit in units.items():
        print(f"  {key:24s} {values[key]:>14.6g} {unit}")
    if not trace:
        print(f"  {'(import.modules)':24s} {modules:>14d} count")
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rcprob end-to-end and per-layer benchmark")
    ap.add_argument("--workload", required=True, choices=(*GENERATORS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "rcprob" / "__init__.py").is_file():
        print(f"error: no rcprob sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("child environment: " + " ".join(f"{k}={v}" for k, v in FIXED_ENV.items())
          + f" PYTHONPATH=src, interpreter {sys.executable}")
    names = list(GENERATORS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + CHILD_TIMEOUT * len(names)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), deadline)
                   for n in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
