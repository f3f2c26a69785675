"""Seeded input generators for the three benchmark workloads.

Each generator writes a `.rcm`/`.rcp` pair and returns a job description:
the `rcprob check` invocations of one round, the operations they perform,
and the facts the checker needs to judge the outputs.  The program only
ever sees the generated files.

The seed never changes how much work a round does, so that runs with
different seeds can be compared:

- reward-table: the cells are the paper's table and do not depend on the
  seed; the seed only permutes the order in which rows and MaxSteps values
  are declared.
- fleet-mdp: the seed picks each robot's success probability.  The state
  space and the step bound are fixed.
- srw-smc: the seed picks the walk's left probability from a narrow band
  around 1/2 and is the sampling seed.  Path lengths barely move.
"""

from __future__ import annotations

import random
from pathlib import Path

TOL = 1e-6  # the --tol every exact invocation requests

SRW_MODEL = """\
// Bounded random walk: a coin flip before each move picks left or right,
// positions are clamped to [-MaxDist, MaxDist], and the walk halts after
// MaxSteps counted steps.
module SRWMod {
  platform SRWRP {
    const MaxDist : int;
    const MaxSteps : nat;
    const Pl : real;
    var x : int = 0;
    var steps : nat = 0;
    event left;
    event right;
  }
  controller ctrl_ref {
    requires SRWRP;
    event left;
    event right;
    machine stm_ref {
      event left;
      event right;
      function Plus(v : int, maxv : int) : int;
      function Minus(v : int, minv : int) : int;
      function Update(v : nat, maxv : nat, origin : bool) : nat;
      initial i0;
      pjunction p0;
      state Move { entry steps = Update(steps, MaxSteps, x == 0) };
      state Stuck;
      transition t0 { from i0 to Move }
      transition t1 { from Move to p0 guard x < MaxDist /\\ x > -MaxDist /\\ steps < MaxSteps }
      transition t2 { from p0 to Move prob 1 - Pl action x = Plus(x, MaxDist); right }
      transition t3 { from p0 to Move prob Pl action x = Minus(x, -MaxDist); left }
      transition t4 { from Move to Move guard x >= MaxDist /\\ steps < MaxSteps action x = Minus(x, -MaxDist); left }
      transition t5 { from Move to Move guard x <= -MaxDist /\\ steps < MaxSteps action x = Plus(x, MaxDist); right }
      transition t6 { from Move to Stuck guard steps == MaxSteps }
    }
    connection stm_ref.left -> ctrl_ref.left;
    connection stm_ref.right -> ctrl_ref.right;
  }
  connection ctrl_ref.left -> SRWRP.left;
  connection ctrl_ref.right -> SRWRP.right;
}
"""

SRW_COMMON = """\
label l_stuck = SRWMod::ctrl_ref::stm_ref is in SRWMod::ctrl_ref::stm_ref::Stuck
label l_origin = (SRWMod::SRWRP::x == 0)

defs D_recharge:
  pfunction Plus(v, maxv) = { return (if (``v) < (``maxv) then (``v) + 1 else (``v) end) }
  pfunction Minus(v, minv) = { return (if (``v) > (``minv) then (``v) - 1 else (``v) end) }
  pfunction Update(v, maxv, origin) = { return (if ``origin then 0 else (if ((``v) < (``maxv)) then (``v + 1) else (``v) end) end) }

defs D_norecharge:
  pfunction Plus(v, maxv) = { return (if (``v) < (``maxv) then (``v) + 1 else (``v) end) }
  pfunction Minus(v, minv) = { return (if (``v) > (``minv) then (``v) - 1 else (``v) end) }
  pfunction Update(v, maxv, origin) = { return (if ((``v) < (``maxv)) then (``v + 1) else (``v) end) }

rewards R_origins =
  [SRWMod::ctrl_ref::stm_ref::left.out] (SRWMod::SRWRP::x == 0) : 1;
  [SRWMod::ctrl_ref::stm_ref::right.out] (SRWMod::SRWRP::x == 0) : 1;
endrewards
"""

# The rows of the paper's reward table: property, Pl, definitions.
REWARD_ROWS = [
    ("R_pl05_norecharge", "0.5", "D_norecharge"),
    ("R_pl05_recharge", "0.5", "D_recharge"),
    ("R_pl03_norecharge", "0.3", "D_norecharge"),
    ("R_pl08_norecharge", "0.8", "D_norecharge"),
]
REWARD_MAXSTEPS = (20, 40, 60, 80, 100)
REWARD_MAXDIST = 10

FLEET_ROBOTS = 3
FLEET_MAXWORK = 2
FLEET_BOUND = 80

SMC_MAXDIST = 20
SMC_MAXSTEPS = 300
SMC_FAR = 6
SMC_BOUND = 150
SMC_CI_N = 2000
SMC_ALPHA = 0.05
SMC_APMC_EPSILON = 0.05
SMC_APMC_DELTA = 0.05
SMC_REWARD_N = 2000


def _plan(model, props, out, **kw):
    return {"model_path": str(model), "spec_path": str(props), "out_dir": str(out), **kw}


def reward_table(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    rows = list(REWARD_ROWS)
    rng.shuffle(rows)
    parts = ["// The reward table: expected returns to the origin before getting\n"
             "// stuck away from it, per row and MaxSteps.\n\n", SRW_COMMON]
    for name, pl, _ in rows:
        steps = list(REWARD_MAXSTEPS)
        rng.shuffle(steps)
        parts.append(f"""
constants C_{name}:
  SRWMod::SRWRP::MaxDist set to {REWARD_MAXDIST},
  SRWMod::SRWRP::MaxSteps from set {{{", ".join(map(str, steps))}}}, and
  SRWMod::SRWRP::Pl set to {pl}
""")
    for name, _, defs in rows:
        parts.append(f"""
prob property {name}:
  Reward {{R_origins}} =? of [Reachable #l_stuck /\\ not #l_origin]
  with constants C_{name}
  with definitions {defs}
""")
    model, props = work / "srw.rcm", work / "reward_table.rcp"
    model.write_text(SRW_MODEL)
    props.write_text("".join(parts))
    cells = [{"property": name, "pl": pl, "defs": defs, "maxsteps": ms}
             for name, pl, defs in REWARD_ROWS for ms in REWARD_MAXSTEPS]
    return {"workload": "reward-table", "model": str(model), "props": str(props),
            "jobs": len(cells), "cells": cells, "maxdist": REWARD_MAXDIST,
            "plans": [_plan(model, props, work / "out", kind="dtmc", tol=TOL)],
            "codes": [0]}


def fleet_mdp(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    n = FLEET_ROBOTS
    # success probabilities in hundredths, written as decimals: `a/b` would
    # be integer division in the model language
    probs = [rng.randint(20, 80) for _ in range(n)]
    lines = ["// A fleet of robots: each retries a probabilistic unit of work until",
             "// its counter reaches MaxWork, then reports done to a coordinator.",
             "module Fleet {", "  platform FP {", "    const MaxWork : nat;",
             "    event alldone;", "  }", "  controller Ctl {", "    requires FP;",
             "    event alldone;"]
    for i, p in enumerate(probs, start=1):
        lines += [f"    machine R{i} {{", "      var w : nat = 0;", "      event done;",
                  "      initial i0;", "      pjunction p0;", "      state Idle;",
                  "      state Finished;", "      transition t0 { from i0 to Idle }",
                  "      transition t1 { from Idle to p0 guard w < MaxWork }",
                  f"      transition t2 {{ from p0 to Idle prob 0.{p:02d} action w = w + 1 }}",
                  f"      transition t3 {{ from p0 to Idle prob 1 - 0.{p:02d} }}",
                  "      transition t4 { from Idle to Finished guard w == MaxWork action done }",
                  "    }"]
    lines += ["    machine Coord {", "      var count : nat = 0;"]
    lines += [f"      event done{i};" for i in range(1, n + 1)]
    lines += ["      event alldone;", "      initial c0;", "      state Wait;",
              "      state All;", "      transition w0 { from c0 to Wait }"]
    lines += [f"      transition d{i} {{ from Wait to Wait trigger done{i} "
              f"action count = count + 1 }}" for i in range(1, n + 1)]
    lines += [f"      transition fin {{ from Wait to All guard count == {n} action alldone }}",
              "    }"]
    lines += [f"    connection R{i}.done -> Coord.done{i};" for i in range(1, n + 1)]
    lines += ["    connection Coord.alldone -> Ctl.alldone;", "  }",
              "  connection Ctl.alldone -> FP.alldone;", "}"]
    props_by_name = [
        ("P_deadlock_free", "not Exists [Finally deadlock]"),
        ("E_all", "Exists [Finally #l_all]"),
        ("A_all", "Forall [Finally #l_all]"),
        ("Pmin_all", "Prob min=? of [Finally #l_all]"),
        ("Pmax_all", "Prob max=? of [Finally #l_all]"),
        ("Pmin_bounded", f"Prob min=? of [Finally<={FLEET_BOUND} #l_all]"),
        ("Pmax_bounded", f"Prob max=? of [Finally<={FLEET_BOUND} #l_all]"),
    ]
    spec = [f"""// The environment observes the coordinator's final report.
pmodules MObs: pmodule Obs {{
  seen : bool init false;
  [Fleet::Ctl::Coord::alldone.out] @seen == false -> (@seen = true);
}}

label l_all = Fleet::Ctl::Coord is in Fleet::Ctl::Coord::All

constants C_fleet: Fleet::FP::MaxWork set to {FLEET_MAXWORK}
"""]
    for name, body in props_by_name:
        spec.append(f"""
prob property {name}:
  {body}
  with constants C_fleet
  with modules MObs
""")
    model, props = work / "fleet.rcm", work / "fleet.rcp"
    model.write_text("\n".join(lines) + "\n")
    props.write_text("".join(spec))
    return {"workload": "fleet-mdp", "model": str(model), "props": str(props),
            "jobs": len(props_by_name), "robots": n, "maxwork": FLEET_MAXWORK,
            "bound": FLEET_BOUND, "probs": probs,
            "properties": [name for name, _ in props_by_name],
            "plans": [_plan(model, props, work / "out", kind="mdp", tol=TOL),
                      _plan(model, props, work / "emit", kind="mdp", engine="emit")],
            "codes": [1, 0]}  # 1: A_all is false by construction


def srw_smc(seed: int, work: Path) -> dict:
    rng = random.Random(seed)
    pl = f"0.{rng.randint(45, 55)}"
    spec = ["// Statistical checks on a large walk whose sampled paths see only\n"
            "// its first few hundred steps.\n\n", SRW_COMMON, f"""
label l_far = (SRWMod::SRWRP::x >= {SMC_FAR}) \\/ (SRWMod::SRWRP::x <= -{SMC_FAR})

constants C_smc:
  SRWMod::SRWRP::MaxDist set to {SMC_MAXDIST},
  SRWMod::SRWRP::MaxSteps set to {SMC_MAXSTEPS}, and
  SRWMod::SRWRP::Pl set to {pl}

prob property P_far_ci:
  Prob=? of [Finally<={SMC_BOUND} #l_far] using sim with CI at alpha={SMC_ALPHA}, n={SMC_CI_N}
  with constants C_smc
  with definitions D_norecharge

prob property P_far_apmc:
  Prob=? of [Finally<={SMC_BOUND} #l_far] using sim with APMC at epsilon={SMC_APMC_EPSILON}, delta={SMC_APMC_DELTA}
  with constants C_smc
  with definitions D_norecharge

prob property R_origins_ci:
  Reward {{R_origins}} =? of [Cumul {SMC_BOUND}] using sim with CI at alpha={SMC_ALPHA}, n={SMC_REWARD_N}
  with constants C_smc
  with definitions D_norecharge
"""]
    model, props = work / "srw.rcm", work / "srw_smc.rcp"
    model.write_text(SRW_MODEL)
    props.write_text("".join(spec))
    return {"workload": "srw-smc", "model": str(model), "props": str(props),
            "jobs": 3, "pl": pl, "maxdist": SMC_MAXDIST, "maxsteps": SMC_MAXSTEPS,
            "far": SMC_FAR, "bound": SMC_BOUND, "ci_n": SMC_CI_N,
            "reward_n": SMC_REWARD_N, "epsilon": SMC_APMC_EPSILON,
            "delta": SMC_APMC_DELTA,
            "plans": [_plan(model, props, work / "out", kind="dtmc", engine="smc",
                            seed=seed)],
            "codes": [0]}


GENERATORS = {"reward-table": reward_table, "fleet-mdp": fleet_mdp, "srw-smc": srw_smc}
