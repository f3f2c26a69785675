"""One cold start: a fresh interpreter through `import rcprob`, parse,
validate and `sweep_experiments` on a workload's files.

    python3 perfbench/coldstart.py MODEL.rcm PROPS.rcp

Prints one JSON line: modules loaded by `import rcprob`, validation errors
and the number of property x configuration jobs.
"""

import json
import sys

before = len(sys.modules)
import rcprob  # noqa: E402
from rcprob.cli import sweep_experiments  # noqa: E402

loaded = len(sys.modules) - before

with open(sys.argv[1]) as fh:
    model = rcprob.parse_model(fh.read())
with open(sys.argv[2]) as fh:
    spec = rcprob.parse_spec(fh.read())
errors = sum(1 for d in rcprob.validate(model, spec) if d.severity == "error")
jobs = sweep_experiments(model, spec)
print(json.dumps({"modules": loaded, "errors": errors, "jobs": len(jobs)}))
