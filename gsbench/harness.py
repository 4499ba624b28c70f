"""Timed passes, the end-to-end and traced runs, provenance and the output.

A pass is one execution of a workload: set-up, then its solves back to
back.  The gate runs after the pass, outside the timers and the tracer.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass

import numpy
import scipy

import gpflow.flows as flows
import spans
from workloads import WORKLOADS, Outcome, Workload, gate, set_up

# setup_s is the median over every set-up of a run; after the passes, more
# set-ups run while there are fewer than SETUP_SAMPLES and all of them
# together took under SETUP_BUDGET_S.  flow_s does the same with rounds of
# solves repeated from the last pass's starting state, so the short flows
# of lattice2d_linear are a median too.
SETUP_SAMPLES = 7
SETUP_BUDGET_S = 2.0
FLOW_SAMPLES = 5
FLOW_BUDGET_S = 10.0

clock = time.perf_counter


@dataclass
class Pass:
    """A set-up and one round of the workload's solves.  A round repeated
    from an earlier set-up has no set-up and no time to solution."""

    setup_s: float | None
    flow_s: float
    time_to_solution_s: float | None
    outcomes: list[Outcome]
    problem: object = None  # the problem and starting state, until checked
    u0: object = None


def solve_round(w: Workload, problem, u0, tracer: spans.Tracer) -> Pass:
    outcomes = []
    for label, flow in w.solves(problem, u0):
        tracer.solve = label
        ts = clock()
        try:
            rep = flows.run(flow, problem, u0, w.stop)
        except Exception as exc:  # a failed solve; the others still run
            outcomes.append(Outcome(label, flow.kind, clock() - ts,
                                    error=f"{type(exc).__name__}: {exc}"))
            continue
        outcomes.append(Outcome(label, flow.kind, clock() - ts, report=rep))
    return Pass(None, sum(o.seconds for o in outcomes), None, outcomes,
                problem, u0)


def timed_pass(w: Workload, seed: int, tracer: spans.Tracer) -> Pass:
    tracer.solve = "setup"
    t0 = clock()
    problem, u0 = set_up(w, seed)
    t1 = clock()
    p = solve_round(w, problem, u0, tracer)
    p.time_to_solution_s = clock() - t0
    p.setup_s = t1 - t0
    return p


def gate_pass(w: Workload, p: Pass) -> Pass:
    """Gate the pass's solves, then drop their states."""
    gate(w, p.outcomes, p.problem)
    for o in p.outcomes:
        o.report = None
    p.problem = p.u0 = None
    return p


def end_to_end(w: Workload, seed: int, seconds: float,
               tracer: spans.Tracer) -> tuple[list[Pass], dict]:
    start = clock()
    passes = [timed_pass(w, seed, tracer)]
    while clock() - start < seconds:
        gate_pass(w, passes[-1])
        passes.append(timed_pass(w, seed, tracer))
    last = passes[-1]
    while (len(passes) < FLOW_SAMPLES
           and sum(p.flow_s for p in passes) < FLOW_BUDGET_S):
        again = solve_round(w, last.problem, last.u0, tracer)
        passes.append(gate_pass(w, again))
    gate_pass(w, last)
    setups = [p.setup_s for p in passes if p.setup_s is not None]
    while len(setups) < SETUP_SAMPLES and sum(setups) < SETUP_BUDGET_S:
        t0 = clock()
        set_up(w, seed)
        setups.append(clock() - t0)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return passes, {
        "time_to_solution_s": (statistics.median(
            p.time_to_solution_s for p in passes
            if p.time_to_solution_s is not None), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "flow_s": (statistics.median(p.flow_s for p in passes), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MiB"),
    }


def per_layer(w: Workload, seed: int,
              tracer: spans.Tracer) -> tuple[list[Pass], dict]:
    base = gate_pass(w, timed_pass(w, seed, tracer))
    with tracer.installed():
        traced = timed_pass(w, seed, tracer)
    gate_pass(w, traced)
    n, d = w.spec.interior_per_dim, w.spec.dim
    values = spans.layer_metrics(tracer.spans, n, d)
    values["machine.dgemm_gflops"] = spans.dgemm_gflops(n, d)
    values["trace.overhead_ratio"] = (traced.time_to_solution_s
                                      / base.time_to_solution_s)
    return [base, traced], {k: (v, spans.unit(k)) for k, v in values.items()}


def git_sha(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas(module) -> str:
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


def provenance(w: Workload, root: str) -> dict:
    spec = w.spec
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v]
                         for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "workload": w.name,
        "scheme": (f"sem{spec.degree}" if spec.scheme.value == "sem"
                   else spec.scheme.value),
        "dim": spec.dim, "cells_per_dim": spec.cells_per_dim,
        "ndof": spec.ndof,
    }


def main(args, root: str) -> int:
    if args.workload not in WORKLOADS:
        raise SystemExit(f"gsbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    tracer = spans.Tracer()
    if args.trace:
        passes, metrics = per_layer(w, args.seed, tracer)
    else:
        passes, metrics = end_to_end(w, args.seed, args.seconds, tracer)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    outcomes = [o for p in passes for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.failures)
    prov = provenance(w, root)
    print(f"gsbench {w.name} seed={args.seed} trace={args.trace} "
          f"passes={len(passes)} ndof={prov['ndof']} scheme={prov['scheme']}")
    for i, p in enumerate(passes):
        for o in p.outcomes:
            f = o.facts
            verdict = ("FAIL: " + "; ".join(o.failures) if o.failures
                       else "pass")
            kind = "pass" if p.setup_s is not None else "round"
            print(f"  {kind} {i} {o.label}: {f.get('reason', 'raised')} after "
                  f"{f.get('iterations', '-')} it, residual "
                  f"{f.get('residual', float('nan')):.3e}, {o.seconds:.3f} s, "
                  f"gate {verdict}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print("  provenance " + json.dumps(prov))

    out_dir = os.path.join(root, "gsbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(
        out_dir, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({
            "provenance": prov, "seed": args.seed, "trace": args.trace,
            "passes": [{"setup_s": p.setup_s, "flow_s": p.flow_s,
                        "time_to_solution_s": p.time_to_solution_s,
                        "solves": [{"label": o.label, "seconds": o.seconds,
                                    "error": o.error, "failures": o.failures,
                                    **o.facts} for o in p.outcomes]}
                       for p in passes],
            "metrics": metrics,
            "spans": tracer.records(),
        }, f)
    print(f"  record {os.path.relpath(path, root)}")

    print(json.dumps({"correct": failed == 0, "attempted": len(outcomes),
                      "failed": failed, "metrics": metrics}))
    return 0
