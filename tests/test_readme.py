"""The README's library example runs as written."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_library_example_prints_its_verdict():
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("\n## Library\n"):]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1.0\n"
