"""Command-line front end: gpflow <subcommand> --config <path> [options].

Subcommands: solve, convergence, eigengap, compare, verify.  Each writes
CSV next to the configured output prefix; exit code 0 on success, 2 on
non-convergence or failed checks, 1 on configuration errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import os
import sys

import numpy as np

from .analysis import (_is_monotone_scheme, convergence_study, convexity_check,
                       dense_Au, eigengap_study, linearized_eigenpairs,
                       m_matrix_check, monotonicity_oracle, rate_fit, set_up)
from .config import ConfigError, RunConfig, parse_config
from .energy import eigenvalue_estimate, eigenvalue_from_energy
from .flows import FlowKind, RunReport, run
from .linalg import SolverError

FMT = "%.16e"  # 17 significant digits


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FMT % float(x)


def _write_csv(path, header, rows, created):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(x) for x in row] for row in rows)
    created.append(path)


def _write_trace(prefix, report: RunReport, created, tag=""):
    path = f"{prefix}{tag}_trace.csv"
    rows = [(r.index, r.energy, r.residual, r.eigenvalue, r.step_size)
            for r in report.records]
    _write_csv(path, ["iter", "energy", "residual", "lambda", "step"], rows, created)


def _write_summary(prefix, report: RunReport, created):
    last = report.records[-1]
    rows = [(last.eigenvalue, last.energy, report.iterations, report.wall_seconds)]
    _write_csv(f"{prefix}_summary.csv",
               ["lambda", "energy", "iterations", "wall_seconds"], rows, created)


def _print_run(kind: FlowKind, report: RunReport):
    print(f"{kind.value}  reason={report.reason}  iterations={report.iterations}  "
          f"residual={report.records[-1].residual:.3e}")


def run_solve(cfg: RunConfig, created) -> int:
    problem, u0 = set_up(cfg.grid, cfg.potential_fn, cfg.beta, cfg.flow, cfg.initial)
    report = run(cfg.flow, problem, u0, cfg.stop)
    _print_run(cfg.flow.kind, report)
    _write_trace(cfg.prefix, report, created)
    _write_summary(cfg.prefix, report, created)
    return 0 if report.converged else 2


def run_convergence(cfg: RunConfig, created) -> int:
    table = convergence_study(cfg.study_specs, cfg.beta, cfg.flow, cfg.stop, cfg.initial)
    rows = []
    ok = True
    for name, scheme_rows in table.items():
        for r in scheme_rows:
            ok &= r.converged
            rows.append((name, r.label, r.h, r.lambda_err, r.lambda_order,
                         r.energy_err, r.energy_order, r.sup_err, r.sup_order,
                         r.iterations, int(r.converged)))
    _write_csv(f"{cfg.prefix}_table.csv",
               ["scheme", "grid", "h", "lambda_err", "lambda_order", "energy_err",
                "energy_order", "sup_err", "sup_order", "iterations", "converged"],
               rows, created)
    return 0 if ok else 2


def run_eigengap(cfg: RunConfig, created) -> int:
    rows = eigengap_study(cfg.study_specs, cfg.potential_fn, cfg.beta, cfg.flow, cfg.stop,
                          cfg.initial)
    _write_csv(f"{cfg.prefix}_table.csv", ["h", "lambda0", "lambda1", "gap"],
               [(r.h, r.lambda0, r.lambda1, r.gap) for r in rows], created)
    failing = [r for r in rows if r.gap <= 0]
    for r in failing:
        print(f"h = {r.h:g}: u is not A_u's lowest mode: delta <= {r.gap:.3e}", file=sys.stderr)
    return 2 if failing else 0


def run_compare(cfg: RunConfig, created) -> int:
    """One trace per flow kind, each cfg.flow with that kind, in one column schema."""
    problem, u0 = set_up(cfg.grid, cfg.potential_fn, cfg.beta, cfg.flow, cfg.initial)
    kinds = [FlowKind.MODIFIED_H1, FlowKind.BFSP, FlowKind.L2, FlowKind.A0, FlowKind.AU]
    summary = []
    status = 0
    for kind in kinds:
        report = run(dataclasses.replace(cfg.flow, kind=kind), problem, u0, cfg.stop)
        _print_run(kind, report)
        _write_trace(cfg.prefix, report, created, tag=f"_{kind.value}")
        last = report.records[-1]
        summary.append((kind.value, last.eigenvalue, last.energy,
                        report.iterations, report.wall_seconds))
        if not report.converged:
            status = 2
    _write_csv(f"{cfg.prefix}_summary.csv",
               ["flow", "lambda", "energy", "iterations", "wall_seconds"],
               summary, created)
    return status


def run_verify(cfg: RunConfig, created) -> int:
    """Structural checks on the configured problem; prints pass counts."""
    problem, u0 = set_up(cfg.grid, cfg.potential_fn, cfg.beta, cfg.flow, cfg.initial)
    disc = u0.disc
    checks: list[tuple[str, bool]] = []

    report = run(cfg.flow, problem, u0, cfg.stop)
    checks.append(("flow converged", report.converged))
    state = report.final_state
    checks.append(("energy monotone decreasing",
                   bool(np.all(np.diff(report.energies) <= 1e-12))))
    lam = eigenvalue_estimate(state, problem)
    checks.append(("eigenvalue identity lambda = 2E + (beta/2)<u^2,u^2>",
                   abs(lam - eigenvalue_from_energy(state, problem)) <= 1e-10 * max(1, abs(lam))))

    monotone = _is_monotone_scheme(disc)
    if monotone:
        checks.append(("converged state entrywise positive",
                       bool(np.min(state.coeffs) > 0)))
    if disc.ndof <= 200:
        A = dense_Au(state, problem)
        Ah = A * disc.weights[:, None]  # <., .>_h-symmetric form
        if monotone:
            mm = m_matrix_check(Ah)
            checks.append(("A_u M-matrix sufficient condition", mm.passes_sufficient))
            checks.append(("A_u inverse nonnegative", monotonicity_oracle(A)))
        cv = convexity_check(disc, problem, samples=5)
        if cv.supported:
            checks.append(("E(sqrt(v)) Hessian PSD", cv.hessian_psd))
            checks.append(("E(u) >= E(|u|)", cv.abs_value_inequality))
    if 6 <= disc.ndof <= 200:  # LOBPCG's constraint needs 6; gap > 0: u is the lowest mode
        gap = linearized_eigenpairs(state, problem).gap
        u = state.coeffs * np.sign(disc.weights @ state.coeffs)
        checks.append(("ground-state eigenvalue simple (gap > 0)", gap > 0))
        checks.append(("lowest eigenvector positive", gap > 0 and u.min() > 0))
    with contextlib.suppress(ValueError):  # too few iterations to fit a rate
        checks.append(("geometric residual decay (rate < 1)", rate_fit(report).rate < 1.0))

    passed = sum(ok for _, ok in checks)
    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    print(f"{passed}/{len(checks)} checks passed")
    _write_csv(f"{cfg.prefix}_table.csv", ["check", "passed"],
               [(name, int(ok)) for name, ok in checks], created)
    return 0 if passed == len(checks) else 2


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
    outdir = os.path.dirname(cfg.prefix)
    if outdir:
        os.makedirs(outdir, exist_ok=True)

    created: list[str] = []
    try:
        return _COMMANDS[args.subcommand](cfg, created)
    except (SolverError, RuntimeError, ValueError) as e:
        for path in created:
            try:
                os.unlink(path)
            except OSError:
                pass
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
