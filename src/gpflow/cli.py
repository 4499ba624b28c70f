"""Command-line front end: gpflow <subcommand> --config <path> [options].

Subcommands: solve, convergence, eigengap, compare, verify.  Each returns
its exit status and its tables, and `main` alone writes them as CSV next to
the configured output prefix.  Exit code 0 on success, 1 on configuration
errors, 2 on non-convergence, failed checks or any error during the run (an
output that cannot be written included); a failed run leaves no tables.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys

import numpy as np

from .analysis import (convergence_study, eigengap_study, linearized_eigenpairs,
                       rate_fit, set_up)
from .config import ConfigError, RunConfig, parse_config
from .energy import eigenvalue_estimate, eigenvalue_from_energy
from .flows import ENERGY_RISE_RTOL, FlowKind, RunReport, run

FMT = "%.16e"  # 17 significant digits


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FMT % float(x)


def _trace(path, report: RunReport):
    return (path, ["iter", "energy", "residual", "lambda", "step"],
            [(r.index, r.energy, r.residual, r.eigenvalue, r.step_size)
             for r in report.records])


def _print_run(kind: FlowKind, report: RunReport):
    print(f"{kind.value}  reason={report.reason}  iterations={report.iterations}  "
          f"residual={report.records[-1].residual:.3e}")


def run_solve(cfg: RunConfig) -> tuple[int, list]:
    problem, u0 = set_up(cfg.grid, cfg.potential_fn, cfg.beta, cfg.flow, cfg.initial)
    report = run(cfg.flow, problem, u0, cfg.stop)
    _print_run(cfg.flow.kind, report)
    last = report.records[-1]
    return 0 if report.converged else 2, [
        _trace(f"{cfg.prefix}_trace.csv", report),
        (f"{cfg.prefix}_summary.csv", ["lambda", "energy", "iterations", "wall_seconds"],
         [(last.eigenvalue, last.energy, report.iterations, report.wall_seconds)])]


def run_convergence(cfg: RunConfig) -> tuple[int, list]:
    table = convergence_study(cfg.study_specs, cfg.beta, cfg.flow, cfg.stop, cfg.initial)
    rows = []
    for name, scheme_rows in table.items():
        for r in scheme_rows:
            rows.append((name, r.label, r.h, r.lambda_err, r.lambda_order,
                         r.energy_err, r.energy_order, r.sup_err, r.sup_order,
                         r.iterations, int(r.converged)))
    failing = [(name, r) for name, rs in table.items() for r in rs if not r.converged]
    for name, r in failing:
        print(f"{name} {r.label}: stopped by {r.reason} after {r.iterations} iterations",
              file=sys.stderr)
    return 2 if failing else 0, [(f"{cfg.prefix}_table.csv",
                             ["scheme", "grid", "h", "lambda_err", "lambda_order",
                              "energy_err", "energy_order", "sup_err", "sup_order",
                              "iterations", "converged"], rows)]


def run_eigengap(cfg: RunConfig) -> tuple[int, list]:
    rows = eigengap_study(cfg.study_specs, cfg.potential_fn, cfg.beta, cfg.flow, cfg.stop,
                          cfg.initial)
    failing = [r for r in rows if r.gap <= 0]
    for r in failing:
        print(f"h = {r.h:g}: u is not A_u's lowest mode: delta <= {r.gap:.3e}", file=sys.stderr)
    return 2 if failing else 0, [(f"{cfg.prefix}_table.csv", ["h", "lambda0", "lambda1", "gap"],
                                  [(r.h, r.lambda0, r.lambda1, r.gap) for r in rows])]


def run_compare(cfg: RunConfig) -> tuple[int, list]:
    """One trace per flow kind, each cfg.flow with that kind, in one column schema."""
    problem, u0 = set_up(cfg.grid, cfg.potential_fn, cfg.beta, cfg.flow, cfg.initial)
    kinds = [FlowKind.MODIFIED_H1, FlowKind.BFSP, FlowKind.L2, FlowKind.A0, FlowKind.AU]
    tables, summary = [], []
    status = 0
    for kind in kinds:
        report = run(dataclasses.replace(cfg.flow, kind=kind), problem, u0, cfg.stop)
        _print_run(kind, report)
        tables.append(_trace(f"{cfg.prefix}_{kind.value}_trace.csv", report))
        last = report.records[-1]
        summary.append((kind.value, last.eigenvalue, last.energy,
                        report.iterations, report.wall_seconds))
        if not report.converged:
            status = 2
    return status, tables + [(f"{cfg.prefix}_summary.csv",
                              ["flow", "lambda", "energy", "iterations", "wall_seconds"],
                              summary)]


def run_verify(cfg: RunConfig) -> tuple[int, list]:
    """The paper's hypotheses checked on the configured run; prints pass counts."""
    problem, u0 = set_up(cfg.grid, cfg.potential_fn, cfg.beta, cfg.flow, cfg.initial)
    disc = u0.disc
    checks: list[tuple[str, bool]] = []

    report = run(cfg.flow, problem, u0, cfg.stop)
    checks.append(("flow converged", report.converged))
    state = report.final_state
    if cfg.flow.kind is not FlowKind.BFSP:  # no gradient flow: its energy may rise
        rise = np.diff(report.energies).max(initial=0.0)  # run's rule and the benchmark's
        checks.append(("energy monotone decreasing",
                       bool(rise <= ENERGY_RISE_RTOL * abs(report.energies[-1]))))
    lam = eigenvalue_estimate(state, problem)
    checks.append(("eigenvalue identity lambda = 2E + (beta/2)<u^2,u^2>",
                   abs(lam - eigenvalue_from_energy(state, problem)) <= 1e-10 * max(1, abs(lam))))

    if disc.monotone:  # -Delta_h, so A_u, an M-matrix: the paper's sign results hold
        u = state.coeffs * np.sign(disc.weights @ state.coeffs)
        tol = report.records[-1].residual * np.abs(u).max()  # the run's resolution
        checks.append(("converged state entrywise positive (none below -residual max|u|)",
                       bool(u.min() >= -tol)))
    # gap > 0, u A_u's lowest mode, is the local theorem's one hypothesis: checked at a
    # converged u of any size (LOBPCG's constraint to u^perp needs 6 unknowns)
    if report.converged and disc.ndof >= 6:
        checks.append(("ground-state eigenvalue simple (gap > 0)",
                       linearized_eigenpairs(state, problem).gap > 0))
    with contextlib.suppress(ValueError):  # too few iterations to fit a rate
        checks.append(("geometric residual decay (rate < 1)", rate_fit(report).rate < 1.0))

    passed = sum(ok for _, ok in checks)
    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"{passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 2, [(f"{cfg.prefix}_table.csv", ["check", "passed"],
                                                [(name, int(ok)) for name, ok in checks])]


_COMMANDS = {
    "solve": run_solve,
    "convergence": run_convergence,
    "eigengap": run_eigengap,
    "compare": run_compare,
    "verify": run_verify,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gpflow",
                                     description="Gross-Pitaevskii ground states "
                                     "by Riemannian Sobolev gradient descent")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to an INI run config")
    parser.add_argument("--out", default=None, help="override the output prefix")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as f:
            cfg = parse_config(f.read(), args.subcommand)
    except (OSError, ConfigError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1

    if args.out is not None:
        cfg.prefix = args.out
    written = []
    try:  # a SolverError is a RuntimeError
        status, tables = _COMMANDS[args.subcommand](cfg)
        os.makedirs(os.path.dirname(cfg.prefix) or ".", exist_ok=True)
        for path, header, rows in tables:
            with open(path, "w", newline="") as f:
                written.append(path)
                writer = csv.writer(f, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([_fmt(x) for x in row] for row in rows)
        return status
    except (RuntimeError, ValueError, OSError) as e:
        for path in written:  # a failed run leaves none of its tables
            with contextlib.suppress(OSError):
                os.unlink(path)
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
