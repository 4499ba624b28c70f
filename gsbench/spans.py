"""Outside-in tracing of gpflow's public functions, and the per-layer metrics.

The tracer wraps each public function where its caller looks it up (module
attributes, and methods on their classes), records one span per call and
keeps all spans in memory.  Nothing inside `src/` is changed.

A span's self time is its duration minus the durations of its child
spans.  Calls are synchronous and single threaded, so children never
overlap and their durations simply add.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import dataclass

import numpy as np

from gpflow.grids import TensorOperator
from gpflow.linalg import FastSolver

# `gpflow.energy` as an attribute is the function the package re-exports,
# so take the modules themselves
energy_mod, flows_mod, linalg_mod = (
    importlib.import_module(f"gpflow.{m}")
    for m in ("energy", "flows", "linalg"))

# layer name -> where each caller looks the function up
LAYERS = {
    "grids.build": [(TensorOperator, "__init__")],
    "grids.laplacian": [(TensorOperator, "apply_neg_laplacian")],
    "linalg.fastsolver_init": [(FastSolver, "__init__")],
    "linalg.solve": [(FastSolver, "solve")],
    "linalg.pcg": [(linalg_mod, "pcg"), (flows_mod, "pcg")],
    # default_initial_state imports it lazily from gpflow.linalg
    "linalg.eigensolve": [(linalg_mod, "lowest_two_eigenpairs")],
    # flows imports these five by name, so patch both modules
    "energy.energy": [(energy_mod, "energy"), (flows_mod, "energy")],
    "energy.residual": [(energy_mod, "residual"),
                        (flows_mod, "residual")],
    "energy.eigenvalue_estimate": [(energy_mod, "eigenvalue_estimate"),
                                   (flows_mod, "eigenvalue_estimate")],
    "energy.riemannian_gradient": [(energy_mod, "riemannian_gradient"),
                                   (flows_mod, "riemannian_gradient")],
    "energy.retract": [(energy_mod, "retract"), (flows_mod, "retract")],
    "flows.run": [(flows_mod, "run")],
    "flows.line_search": [(flows_mod, "line_search_step")],
    "flows.step_bfsp": [(flows_mod, "step_bfsp")],
    "flows.initial_state": [(flows_mod, "default_initial_state")],
}

DIAGNOSTICS = ("energy.energy", "energy.residual",
               "energy.eigenvalue_estimate")

# layer name -> the count a span takes from the call's return value
COUNTS = {
    "linalg.pcg": lambda result: result[1],        # PCG iterations
    "flows.run": lambda result: result.iterations,  # flow iterations
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    solve: str   # which set-up or solve of the workload made the call
    count: int = 0  # from the return value, see COUNTS


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.solve = ""
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        stack[-1] if stack else -1, self.solve)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter()
            if count is not None:
                span.count = count(result)
            return result
        return traced

    def records(self) -> list[list]:
        """[name, start, end, parent, solve, count] per span, times in
        seconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - t0, s.end - t0, s.parent, s.solve, s.count]
                for s in self.spans]

    @contextlib.contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block."""
        saved = []
        try:
            for name, sites in LAYERS.items():
                wrapper = self._wrap(name, getattr(*sites[0]))
                for owner, attr in sites:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


UNITS = {"calls": "count", "self_s": "s", "ms_per_call": "ms",
         "per_iter": "calls/iter", "gflops": "GFLOP/s", "gbytes": "GB/s",
         "evals_per_iter": "evals/iter", "s_per_iter": "s/iter",
         "iterations": "count", "overhead_ratio": "ratio"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its suffix (the longest match)."""
    return UNITS[max((k for k in UNITS if metric.endswith(k)), key=len)]


def kernel_flops(n: int, d: int) -> tuple[int, int]:
    """Flops of one (solve, Laplacian): 2 n^(d+1) per axis pass, 2d passes
    for the solve (forward and back) and d for the Laplacian."""
    per_pass = 2 * n ** (d + 1)
    return 2 * d * per_pass, d * per_pass


def kernel_bytes(n: int, d: int) -> tuple[int, int]:
    """Computed bytes of one (solve, Laplacian): per axis pass the input and
    output vectors (n^d doubles each) and the n x n 1D matrix.  Cache
    misses, axis-move copies, the division and the accumulation are not
    counted."""
    per_pass = 8 * (2 * n ** d + n * n)
    return 2 * d * per_pass, d * per_pass


def dgemm_gflops(n: int, d: int, seconds: float = 0.5) -> float:
    """Median GEMM rate at the kernel's shape, (n x n) @ (n x n^(d-1))."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n ** (d - 1)))
    a @ b  # warm up the BLAS threads
    times = []
    stop = time.perf_counter() + seconds
    while len(times) < 5 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return 2.0 * n * n * n ** (d - 1) / statistics.median(times) / 1e9


def layer_metrics(spans: list[Span], n: int, d: int) -> dict[str, float]:
    """Per-layer numbers from one traced pass on an (n,)*d grid."""
    dur = [s.end - s.start for s in spans]
    self_s = list(dur)
    in_run = [False] * len(spans)  # has flows.run as itself or ancestor
    for i, s in enumerate(spans):
        if s.parent >= 0:
            self_s[s.parent] -= dur[i]
            in_run[i] = in_run[s.parent]
        in_run[i] = in_run[i] or s.name == "flows.run"

    m: dict[str, float] = {}
    for name in LAYERS:
        idx = [i for i, s in enumerate(spans) if s.name == name]
        total = sum(self_s[i] for i in idx)
        m[f"{name}.calls"] = len(idx)
        m[f"{name}.self_s"] = total
        m[f"{name}.ms_per_call"] = 1e3 * total / len(idx) if idx else 0.0

    def per(x, count):
        return x / count if count else 0.0

    run_idx = [i for i, s in enumerate(spans) if s.name == "flows.run"]
    iterations = sum(spans[i].count for i in run_idx)
    for layer in ("grids.laplacian", "linalg.solve"):
        calls = sum(1 for i, s in enumerate(spans)
                    if s.name == layer and in_run[i])
        m[f"{layer}.per_iter"] = per(calls, iterations)
    solve_flops, lap_flops = kernel_flops(n, d)
    solve_bytes, lap_bytes = kernel_bytes(n, d)
    for layer, flops, nbytes in (("grids.laplacian", lap_flops, lap_bytes),
                                 ("linalg.solve", solve_flops, solve_bytes)):
        busy = m[f"{layer}.self_s"]
        m[f"{layer}.gflops"] = per(m[f"{layer}.calls"] * flops / 1e9, busy)
        m[f"{layer}.gbytes"] = per(m[f"{layer}.calls"] * nbytes / 1e9, busy)
    m["linalg.pcg.iterations"] = sum(s.count for s in spans
                                     if s.name == "linalg.pcg")
    m["flows.line_search.evals_per_iter"] = per(
        sum(1 for s in spans if s.name == "energy.energy" and s.parent >= 0
            and spans[s.parent].name == "flows.line_search"),
        m["flows.line_search.calls"])
    m["energy.diagnostics_s_per_iter"] = per(
        sum(dur[i] for i, s in enumerate(spans)
            if s.name in DIAGNOSTICS and s.parent >= 0
            and spans[s.parent].name == "flows.run"), iterations)
    m["flows.iterations"] = iterations
    m["flows.s_per_iter"] = per(sum(dur[i] for i in run_idx), iterations)
    return m
