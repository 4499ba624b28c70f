"""The benchmark runs on the package as it stands: `gsbench/run.py` from a copy
of `src/` and `gsbench/` finishes one workload and judges it correct.  This
guards what the benchmark imports (`Problem(V, beta, alpha)` positionally,
`FixedStep`, `LineSearchStep`, the flows' names) against a change in `src/`."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_strong_linesearch_runs_once_and_is_correct(tmp_path):
    skip = shutil.ignore_patterns("__pycache__", "out")
    for name in ("src", "gsbench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "gsbench/run.py", "--workload", "strong_linesearch",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
