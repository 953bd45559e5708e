import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_quick_start_runs(tmp_path):
    # the README's library example, run as written in a fresh interpreter
    # with src on the path: it exits 0 and its first line, the flow's
    # largest increment of Q, is nonpositive up to roundoff
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```$",
                      readme, re.S | re.M)
    assert block is not None
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", block.group(1)], env=env,
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert float(run.stdout.splitlines()[0]) <= 1e-8
