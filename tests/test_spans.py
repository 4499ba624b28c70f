"""The benchmark's outside-in tracer (gsbench/spans.py) still fits the code.

The tracer wraps functions where their callers look them up.  A refactor
that calls a function some other way would silently drop its spans; these
tests catch that.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from gpflow.energy import Problem
from gpflow.flows import (FixedStep, FlowConfig, FlowKind, StopRule,
                          default_initial_state)
from gpflow.grids import GridSpec, Scheme, TensorOperator

_path = Path(__file__).resolve().parents[1] / "gsbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("gsbench_spans", _path)
spans = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

GRADIENT_FLOWS = [FlowKind.MODIFIED_H1, FlowKind.L2, FlowKind.A0, FlowKind.AU]


def sites():
    return [(owner, attr) for places in spans.LAYERS.values()
            for owner, attr in places]


def traced_run(kind):
    disc = TensorOperator(GridSpec(1.0, 1, 16, Scheme.FD2))
    problem = Problem(np.ones(disc.ndof), 2.0, 0.2)
    flow = FlowConfig(kind=kind, alpha=0.2, step=FixedStep(0.5))
    stop = StopRule(residual_tol=0.0, max_iter=3)
    tracer = spans.Tracer()
    with tracer.installed():
        report = spans.flows_mod.run(flow, problem,
                                     default_initial_state(disc), stop)
    assert report.iterations == 3
    names = [s.name for s in tracer.spans]
    return report, names


def test_tracer_wraps_and_restores_every_site():
    before = {(owner, attr): owner.__dict__[attr] for owner, attr in sites()}
    with spans.Tracer().installed():
        for (owner, attr), original in before.items():
            wrapped = owner.__dict__[attr]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    for (owner, attr), original in before.items():
        assert owner.__dict__[attr] is original


@pytest.mark.parametrize("kind", GRADIENT_FLOWS)
def test_gradient_flows_trace_one_gradient_per_iteration(kind):
    report, names = traced_run(kind)
    assert names.count("energy.riemannian_gradient") == report.iterations
    assert names.count("flows.step_bfsp") == 0
    if kind in (FlowKind.A0, FlowKind.AU):
        assert names.count("linalg.pcg") >= 2 * report.iterations


def test_bfsp_traces_one_step_per_iteration():
    report, names = traced_run(FlowKind.BFSP)
    assert names.count("flows.step_bfsp") == report.iterations
    assert names.count("energy.riemannian_gradient") == 0


def test_tensor_grid_solves_trace_through_fast_solver():
    """shifted_solver builds the FastSolver class the tracer patches.  The
    modified-H1 flow uses the grid's transforms, which the tracer does not
    wrap; BFSP still calls the solver's solve once per iteration."""
    _, names = traced_run(FlowKind.MODIFIED_H1)
    assert names.count("linalg.fastsolver_init") == 1
    report, names = traced_run(FlowKind.BFSP)
    assert names.count("linalg.fastsolver_init") == 1
    assert names.count("linalg.solve") >= report.iterations
