"""Smoke runs of the scripts under scripts/ on tiny arguments, so a change
to an API they call shows up in the test suite."""

import importlib.util
import pathlib
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script, args, code", [
    ("run_table.py", ["--small"], 0),
    ("compare_flows_2d.py", ["--cells", "32", "--all-metrics"], 0),
    # 7^3 nodes: the residual decays by ~0.5% per step and is still 4.4e-11
    # at the default max_iter of 3000, so the script reports no convergence
    ("strong_interaction_study.py", ["--cells", "2", "--degree", "4", "--tau", "0.05"], 2),
])
def test_script_runs(monkeypatch, capsys, script, args, code):
    spec = importlib.util.spec_from_file_location(script[:-3], SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [script, *args])
    assert module.main() == code
    assert capsys.readouterr().out
