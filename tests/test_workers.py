"""The structures of a sweep checked in forked worker processes: the same
reports, warnings, errors and exit codes as checking them one after another
in the calling process, and no process left behind."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys

import pytest

from rcprob import cli

from conftest import FIXTURES

SRW_RCM = str(FIXTURES / "srw.rcm")

# three structures (MaxSteps), each of two configurations that differ in
# the weight-only Pl
SWEEP = """
label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
label l_origin = (SRWMod::SRWRP::x == 0)
constants C:
  SRWMod::SRWRP::MaxDist set to 3,
  SRWMod::SRWRP::MaxSteps from set {STEPS}, and
  SRWMod::SRWRP::Pl from set {0.3, 0.5}
defs D:
  pfunction Plus(v, maxv) = { return (if (``v) < (``maxv) then (``v) + 1 else (``v) end) }
  pfunction Minus(v, minv) = { return (if (``v) > (``minv) then (``v) - 1 else (``v) end) }
  pfunction Update(v, maxv, origin) = { return (if ``origin then 0 else (if ((``v) < (``maxv)) then (``v + 1) else (``v) end) end) }
rewards R_origins =
  [SRWMod::ctrl_ref::stm_ref::left.out] (SRWMod::SRWRP::x == 0) : 1;
  [SRWMod::ctrl_ref::stm_ref::right.out] (SRWMod::SRWRP::x == 0) : 1;
endrewards
prob property P_max:
  Prob max =? of [Finally #l_stuck /\\ not #l_origin]
  with constants C
  with definitions D
prob property R_min:
  Reward {R_origins} min =? of [Reachable #l_stuck]
  with constants C
  with definitions D
prob property P_bounded:
  Prob>=0.5 of [Finally<=20 #l_stuck]
  with constants C
  with definitions D
prob property P_sim:
  Prob=? of [Finally #l_stuck] using sim with CI at alpha=0.05, n=200
  with constants C
  with definitions D
"""

WARNING = "warning: {}: a dtmc has a single adversary; treating the query as plain =?"


@pytest.fixture(autouse=True)
def no_children_left():
    yield
    assert multiprocessing.active_children() == []


def _check(tmp_path, monkeypatch, capsys, cpus: int, *args, steps="4, 6, 8"):
    """Exit code, standard error and timing-free report lines of one run
    with `cpus` CPUs to fork workers for."""
    rcp = tmp_path / "sweep.rcp"
    rcp.write_text(SWEEP.replace("STEPS", steps))
    out = tmp_path / f"out{cpus}"
    monkeypatch.setattr(cli, "_cpu_count", lambda: cpus)
    capsys.readouterr()
    code = cli.main(["check", SRW_RCM, str(rcp), "--out", str(out), *args])
    report = []
    if (out / "report.jsonl").exists():
        for line in (out / "report.jsonl").read_text().splitlines():
            rec = json.loads(line)
            del rec["buildMs"], rec["checkMs"]
            report.append(json.dumps(rec, sort_keys=True))
    return code, capsys.readouterr().err, report


@pytest.mark.parametrize("args, steps, records", [
    (["--kind", "dtmc", "--prop", "[PR]_[mb]*"], "4, 6, 8", 3 * 6),
    (["--kind", "mdp", "--prop", "[PR]_[mb]*"], "4, 6, 8", 3 * 6),
    # each configuration is a structure of its own under simulation
    (["--kind", "dtmc", "--engine", "smc", "--prop", "P_sim", "--seed", "4"], "4", 2),
], ids=["dtmc", "mdp", "smc"])
def test_workers_report_what_one_process_reports(tmp_path, monkeypatch, capsys, args,
                                                 steps, records):
    inline = _check(tmp_path, monkeypatch, capsys, 1, *args, steps=steps)
    pooled = _check(tmp_path, monkeypatch, capsys, 2, *args, steps=steps)
    assert len(inline[2]) == records
    assert pooled == inline


def test_a_failing_structure_reads_as_it_does_in_one_process(tmp_path, monkeypatch,
                                                             capsys):
    # MaxSteps=4 fits in 100 states, 6 and 8 do not: the error is the
    # second structure's, however the workers finish
    args = ["--kind", "dtmc", "--prop", "[PR]_[mb]*", "--max-states", "100"]
    inline = _check(tmp_path, monkeypatch, capsys, 1, *args)
    pooled = _check(tmp_path, monkeypatch, capsys, 3, *args)
    assert pooled == inline
    code, err, report = pooled
    assert code == 2 and report == []
    assert err.splitlines() == [WARNING.format("P_max"), WARNING.format("R_min")] * 2 + [
        "error: state-space cap of 100 states exceeded "
        "[configuration MaxDist=3,MaxSteps=6,Pl=0.30]"]


def test_warnings_come_once_per_job_in_job_order(tmp_path, monkeypatch, capsys):
    for cpus in (1, 2):
        code, err, _ = _check(tmp_path, monkeypatch, capsys, cpus, "--kind", "dtmc",
                              "--prop", "[PR]_[mb]*")
        assert code == 1  # P_bounded fails
        assert err.splitlines() == [WARNING.format("P_max"), WARNING.format("R_min")] * 6


def test_a_killed_worker_is_one_error_line(tmp_path, monkeypatch, capsys):
    parent = os.getpid()
    build_markov = cli.build_markov

    def dying_build(closed, *args):
        if os.getpid() != parent and closed.consts["MaxSteps"] == 6:
            os.kill(os.getpid(), signal.SIGKILL)
        return build_markov(closed, *args)

    monkeypatch.setattr(cli, "build_markov", dying_build)
    code, err, report = _check(tmp_path, monkeypatch, capsys, 2, "--kind", "dtmc",
                               "--prop", "[PR]_[mb]*")
    assert (code, report) == (2, [])
    errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
    assert errors == ["error: a worker process ended abruptly while checking the sweep"]


def test_text_buffered_before_the_fork_is_written_once(tmp_path):
    rcp = tmp_path / "sweep.rcp"
    rcp.write_text(SWEEP.replace("STEPS", "4, 6, 8"))
    script = ("import sys\n"
              "from rcprob import cli\n"
              "cli._cpu_count = lambda: 2\n"
              "print('written before the workers fork')\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script, "check", SRW_RCM, str(rcp),
                           "--kind", "dtmc", "--prop", "P_max", "--out", str(tmp_path / "out")],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "written before the workers fork\n")
