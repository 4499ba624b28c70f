"""The benchmark runs on the package as it stands.  Every workload of
`gsbench/workloads.py` builds its set-up (`Problem(V, beta, alpha)`
positionally, its start, `constant` or `linear`) and its flow configurations
(`FixedStep`, `LineSearchStep`, BFSP's `FlowConfig(kind, alpha, dt)`), and
`gsbench/run.py` from a copy of `src/` and `gsbench/` finishes the
`strong_linesearch` workload and judges it correct.  This guards what the
benchmark calls against a change in `src/`."""

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gpflow.energy import Problem, State
from gpflow.flows import FlowConfig

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("gsbench_workloads",
                                               ROOT / "gsbench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_sets_up_and_configures_its_solves(name):
    """Each workload's set-up and flow configurations build, and the labels
    are the ones its check reads; no solve runs (a `linear` start runs its
    beta = 0 flow)."""
    w = workloads.WORKLOADS[name]
    problem, u0 = workloads.set_up(w, 1)
    assert isinstance(problem, Problem) and isinstance(u0, State)
    assert problem.potential.shape == (u0.disc.ndof,)
    assert abs(float(np.dot(u0.coeffs * u0.disc.weights, u0.coeffs)) - 1.0) <= 1e-12
    solves = w.solves(problem, u0)
    assert solves and all(isinstance(flow, FlowConfig) for _, flow in solves)
    w.check({label: workloads.Outcome(label, flow.kind, 0.0)
             for label, flow in solves})


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
