"""Manufactured solutions, convergence and eigengap studies, the gap of A_u and
rate fits.

The manufactured case uses the potential V = beta (1 - u*^2) with
u*(x) = prod_i sin(pi (x_i + 1) / 2) on [-1, 1]^d, for which

    lambda* = d pi^2 / 4 + beta,
    E*      = lambda*/2 - (beta/4) (3/4)^d,
    rho*    = (3/4)^d.

On FD2 grids the nodal restriction of u* is an exact discrete eigenvector,
so discrete eigenvalue/energy errors have the closed forms d (mu1 - pi^2/4)
and d (mu1 - pi^2/4) / 2 with mu1 = (4/h^2) sin^2(pi h / 4), independent of
beta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import Problem, State, apply_Au, au_preconditioner
from .flows import FlowConfig, RunReport, StopRule, default_initial_state, run
from .grids import GridSpec, Scheme, TensorOperator
from .linalg import lowest_two_eigenpairs
from .potentials import _u_star, axes, exact_case_potential


@dataclass(frozen=True)
class ExactCase:
    u_star: np.ndarray        # node values of the amplitude-1 ground state
    lambda_star: float
    energy_star: float
    rho_star: float


def exact_case(disc, beta: float) -> ExactCase:
    """Manufactured ground state on [-1, 1]^d, per axis at the nodes; V: exact_case_potential."""
    if hasattr(disc, "spec") and disc.spec.half_width != 1.0:
        raise ValueError("the manufactured case lives on [-1, 1]^d (half_width 1)")
    coords = disc.node_coordinates()
    d = len(axes(coords))
    lam = d * np.pi ** 2 / 4.0 + beta
    return ExactCase(
        u_star=_u_star(coords),
        lambda_star=lam,
        energy_star=lam / 2.0 - (beta / 4.0) * (3.0 / 4.0) ** d,
        rho_star=(3.0 / 4.0) ** d,
    )


@dataclass
class ConvergenceRow:
    label: str
    h: float
    lambda_err: float
    energy_err: float
    sup_err: float
    iterations: int
    reason: str  # the run's stop reason
    lambda_order: float = np.nan
    energy_order: float = np.nan
    sup_order: float = np.nan
    converged = RunReport.converged  # the run's rule, from `reason`


def _order(coarse: float, fine: float) -> float:
    if coarse <= 0 or fine <= 0:
        return np.nan
    return np.log2(coarse / fine)


# the studies' flow: modified H1 with alpha = 0.2 at the fixed step tau = 1
STUDY_FLOW = FlowConfig(alpha=0.2)


def set_up(spec: GridSpec, potential, beta: float, flow: FlowConfig,
           initial: str) -> tuple[Problem, State]:
    """A run's problem, with `potential` (node_coordinates() -> values, per axis)
    at the nodes of spec's grid, and its start from `initial` on that grid."""
    disc = TensorOperator(spec)
    V = np.asarray(potential(disc.node_coordinates()), dtype=float)
    problem = Problem(V, beta, flow.alpha)
    return problem, default_initial_state(disc, initial, problem)


def solve_exact_case(spec: GridSpec, beta: float, flow: FlowConfig = STUDY_FLOW,
                     stop: StopRule = StopRule(), initial: str = "constant"):
    """Run `flow` from `initial` on the manufactured case; returns (report, case)."""
    problem, u0 = set_up(spec, exact_case_potential(beta), beta, flow, initial)
    case = exact_case(u0.disc, beta)
    return run(flow, problem, u0, stop), case


def convergence_study(specs, beta: float, flow: FlowConfig = STUDY_FLOW,
                      stop: StopRule = StopRule(),
                      initial: str = "constant") -> dict[str, list[ConvergenceRow]]:
    """Errors and observed orders of the manufactured case on `specs`, per scheme.

    The specs of one scheme, in order, are its levels; each is assumed to
    double the resolution of the one before when orders are formed.
    """
    levels: dict[str, list[GridSpec]] = {}
    for spec in specs:
        name = spec.scheme.value if spec.scheme is not Scheme.SEM else f"sem{spec.degree}"
        levels.setdefault(name, []).append(spec)
    if not levels or min(map(len, levels.values())) < 2:
        raise ValueError("need at least two refinement levels per scheme")
    table: dict[str, list[ConvergenceRow]] = {}
    for name, scheme_specs in levels.items():
        rows = []
        for spec in scheme_specs:
            report, case = solve_exact_case(spec, beta, flow, stop, initial)
            state, last = report.final_state, report.records[-1]
            u = state.coeffs
            if float(np.dot(state.disc.weights, u)) < 0:
                u = -u
            rows.append(ConvergenceRow(
                label=f"{spec.interior_per_dim}^{spec.dim}", h=spec.cell_size,
                lambda_err=abs(last.eigenvalue - case.lambda_star),
                energy_err=abs(last.energy - case.energy_star),
                sup_err=float(np.max(np.abs(u - case.u_star))),
                iterations=report.iterations,
                reason=report.reason,
            ))
        for prev, cur in zip(rows, rows[1:]):
            cur.lambda_order = _order(prev.lambda_err, cur.lambda_err)
            cur.energy_order = _order(prev.energy_err, cur.energy_err)
            cur.sup_order = _order(prev.sup_err, cur.sup_err)
        table[name] = rows
    return table


@dataclass
class EigengapRow:
    h: float
    lambda0: float
    lambda1: float
    gap: float


def linearized_eigenpairs(state: State, problem: Problem):
    """lowest_two_eigenpairs of A_u = -Delta_h + V + beta u^2 at v0 = u, preconditioned
    by `au_preconditioner` at u: gap > 0 makes u A_u's lowest mode."""
    return lowest_two_eigenpairs(apply_Au(state, problem), state.disc.weights, state.coeffs,
                                 tol=1e-9, solve_inner=au_preconditioner(state, problem).solve)


def eigengap_study(specs, potential, beta: float, flow: FlowConfig = STUDY_FLOW,
                   stop: StopRule = StopRule(),
                   initial: str = "constant") -> list[EigengapRow]:
    """Gap of A_{u*} across refinement levels; u* from a converged `flow` run
    from `initial` (see `set_up`)."""
    rows = []
    for spec in specs:
        problem, u0 = set_up(spec, potential, beta, flow, initial)
        report = run(flow, problem, u0, stop)
        if not report.converged:
            raise RuntimeError(f"{spec.cells_per_dim} cells: ground state stopped by "
                               f"{report.reason} at iteration {report.iterations}, "
                               f"residual {report.records[-1].residual:.3e}")
        res = linearized_eigenpairs(report.final_state, problem)
        rows.append(EigengapRow(h=spec.cell_size, lambda0=res.lambda0,
                                lambda1=res.lambda1, gap=res.gap))
    return rows


@dataclass(frozen=True)
class RateFit:
    rate: float
    r_squared: float


def rate_fit(report: RunReport, tail_fraction: float = 0.5) -> RateFit:
    """Geometric convergence rate fitted to the tail of the residual trace."""
    res = report.residuals
    res = res[res > 0]
    tail = res[int(len(res) * (1.0 - tail_fraction)):]
    if len(tail) < 10:
        raise ValueError(f"need >= 10 tail iterations, got {len(tail)}")
    x = np.arange(len(tail), dtype=float)
    y = np.log(tail)
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    return RateFit(rate=float(np.exp(slope)), r_squared=r2)
