"""Gradient-flow drivers: step maps, step-size policies, stopping, reporting."""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.optimize import minimize_scalar

from .energy import (Problem, State, apply_Au, energy, eigenvalue_estimate,
                     inner_h, norm_h, residual, retract, riemannian_gradient)
from .grids import TensorOperator
from .linalg import FastSolver, SolverError, pcg


class FlowKind(enum.Enum):
    MODIFIED_H1 = "modified_h1"
    H1_SEMINORM = "h1_seminorm"   # modified H1 with alpha = 0
    L2 = "l2"
    A0 = "a0"
    AU = "au"
    BFSP = "bfsp"


@dataclass(frozen=True)
class FixedStep:
    tau: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"fixed step size must be positive, got {self.tau}")


@dataclass(frozen=True)
class LineSearchStep:
    lo: float = 1e-3
    hi: float = 4.0
    tol: float = 1e-4
    max_evals: int = 100

    def __post_init__(self):
        if not 0 < self.lo < self.hi:
            raise ValueError(f"need 0 < lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class FlowConfig:
    kind: FlowKind = FlowKind.MODIFIED_H1
    alpha: float = 0.15
    step: FixedStep | LineSearchStep = FixedStep(1.0)
    dt: float = 0.1  # BFSP only

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.kind is FlowKind.BFSP and self.dt <= 0:
            raise ValueError(f"BFSP time step must be positive, got {self.dt}")

    @property
    def effective_alpha(self) -> float:
        return 0.0 if self.kind is FlowKind.H1_SEMINORM else self.alpha


# relative improvement of the best residual that resets the stall window
STALL_RTOL = 1e-14
# relative energy rise inside the stall window that makes a gradient-flow
# stall a divergence (the flow's energy must not rise)
ENERGY_RISE_RTOL = 1e-12


@dataclass(frozen=True)
class StopRule:
    residual_tol: float = 1e-12
    stall_window: int = 10
    max_iter: int = 500

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.stall_window < 2:
            raise ValueError(f"stall_window must be >= 2, got {self.stall_window}")


@dataclass
class IterationRecord:
    index: int
    energy: float
    residual: float
    eigenvalue: float
    step_size: float


@dataclass
class RunReport:
    records: list[IterationRecord]
    final_state: State
    # "tol" | "stall" | "diverged" (a gradient flow stalled while its energy
    # rose) | "max_iter" | "step_failure"
    reason: str
    wall_seconds: float

    @property
    def iterations(self) -> int:
        return self.records[-1].index

    @property
    def converged(self) -> bool:
        return self.reason in ("tol", "stall")

    @property
    def energies(self) -> np.ndarray:
        return np.array([r.energy for r in self.records])

    @property
    def residuals(self) -> np.ndarray:
        return np.array([r.residual for r in self.records])

    @property
    def best_residual(self) -> float:
        return min(r.residual for r in self.records)

    @property
    def best_iter(self) -> int:
        """Index of the first record with the best residual."""
        return min(self.records, key=lambda r: r.residual).index


def step_bfsp(state: State, problem: Problem, dt: float, alpha: float,
              solver: FastSolver | None = None) -> State:
    """Backward-forward Euler with stabilization shift, then renormalize."""
    state.require_normalized()
    disc = state.disc
    if solver is None:
        solver = FastSolver(disc, alpha + 1.0 / dt)
    u = state.coeffs
    rhs = (alpha + 1.0 / dt - problem.potential - problem.beta * u ** 2) * u
    return State(retract(disc, solver.solve(rhs)), disc)


def _pcg_inverse(apply_A, precond: FastSolver, weights: np.ndarray, name: str):
    """G = A^{-1} applied by PCG with the unshifted fast solver as preconditioner."""
    def solve(w):
        x, _, ok = pcg(apply_A, precond.solve, w, weights, tol=1e-12, maxiter=1000)
        if not ok:
            raise SolverError(f"{name} metric solve did not converge")
        return x
    return SimpleNamespace(solve=solve)


def metric_inverse(kind: FlowKind, problem: Problem, disc, alpha: float):
    """state -> G, the inverse metric of a gradient flow (an object with .solve).

    modified H1 / H1 seminorm: (-Delta_h + alpha I)^{-1}; L2: I;
    A0: (-Delta_h + V)^{-1}; AU: A_u^{-1} at the given state.
    """
    if kind is FlowKind.AU:
        precond = FastSolver(disc, 0.0)
        return lambda state: _pcg_inverse(
            lambda z: apply_Au(state, problem, z), precond, disc.weights, "AU")
    if kind in (FlowKind.MODIFIED_H1, FlowKind.H1_SEMINORM):
        G = FastSolver(disc, alpha)
    elif kind is FlowKind.L2:
        G = SimpleNamespace(solve=lambda w: w)
    elif kind is FlowKind.A0:
        G = _pcg_inverse(
            lambda w: disc.apply_neg_laplacian(w) + problem.potential * w,
            FastSolver(disc, 0.0), disc.weights, "A0")
    else:
        raise ValueError(f"not a gradient flow: {kind}")
    return lambda state: G


def gradient_step(state: State, problem: Problem, G,
                  policy: FixedStep | LineSearchStep) -> tuple[State, float]:
    """u <- R_h(u - tau g) with g the Riemannian gradient under the inverse
    metric G and tau fixed or from the line search."""
    g = riemannian_gradient(state, problem, G)
    if isinstance(policy, LineSearchStep):
        tau = line_search_step(state, problem, g, policy)
    else:
        tau = policy.tau
    return State(retract(state.disc, state.coeffs - tau * g), state.disc), tau


def line_search_step(state: State, problem: Problem, g: np.ndarray,
                     policy: LineSearchStep) -> float:
    """Step size minimizing tau -> E_h(R_h(u - tau g)) over [lo, hi]."""
    disc = state.disc
    gnorm = np.sqrt(max(inner_h(disc, g, g), 0.0))
    if gnorm == 0:
        return policy.lo
    # -Delta_h is linear: each trial point's Laplacian is a vector update
    lap_g = disc.apply_neg_laplacian(g)

    def phi(tau):
        w = state.coeffs - tau * g
        nrm = norm_h(disc, w)
        trial = State(w / nrm, disc, _neg_lap=(state.neg_lap - tau * lap_g) / nrm)
        val = energy(trial, problem)
        if not np.isfinite(val):
            raise SolverError(f"non-finite energy in line search at tau={tau}")
        return val

    res = minimize_scalar(phi, bounds=(policy.lo, policy.hi), method="bounded",
                          options={"xatol": policy.tol, "maxiter": policy.max_evals})
    return float(res.x)


def default_initial_state(disc, kind: str = "constant",
                          problem: Problem | None = None) -> State:
    """'constant': normalized all-ones; 'linear': beta=0 ground state."""
    if kind == "constant":
        return State(retract(disc, np.ones(disc.ndof)), disc)
    if kind == "linear":
        if problem is None:
            raise ValueError("linear initial guess needs the problem")
        # looked up at call time: the benchmark's tracer patches it on gpflow.linalg
        from .linalg import lowest_two_eigenpairs
        pre = FastSolver(disc, max(float(np.min(problem.potential)), problem.alpha))
        res = lowest_two_eigenpairs(
            lambda w: disc.apply_neg_laplacian(w) + problem.potential * w,
            disc.weights, tol=1e-10, solve_inner=pre.solve, k=1)
        return State(retract(disc, res.v0), disc)
    raise ValueError(f"unknown initial guess kind: {kind}")


def run(flow: FlowConfig, problem: Problem, u0: State, stop: StopRule) -> RunReport:
    """Iterate the chosen flow until tolerance, stall, or max_iter."""
    disc = u0.disc
    if not isinstance(disc, TensorOperator):
        raise ValueError("flows need a tensor-product discretization (FastSolver)")
    t0 = time.perf_counter()

    alpha = flow.effective_alpha
    if flow.kind is FlowKind.BFSP:
        solver = FastSolver(disc, alpha + 1.0 / flow.dt)

        def step(state):
            return step_bfsp(state, problem, flow.dt, alpha, solver), flow.dt
    else:
        G_at = metric_inverse(flow.kind, problem, disc, alpha)

        def step(state):
            return gradient_step(state, problem, G_at(state), flow.step)

    state = u0
    records = [IterationRecord(0, energy(state, problem),
                               residual(state, problem),
                               eigenvalue_estimate(state, problem), 0.0)]
    best = records[0].residual
    best_iter = 0
    reason = "max_iter"
    for it in range(1, stop.max_iter + 1):
        try:
            state, tau = step(state)
        except SolverError:
            reason = "step_failure"
            break
        rec = IterationRecord(it, energy(state, problem),
                              residual(state, problem),
                              eigenvalue_estimate(state, problem), tau)
        records.append(rec)
        if rec.residual <= stop.residual_tol:
            reason = "tol"
            break
        if rec.residual < best * (1.0 - STALL_RTOL):
            best = rec.residual
            best_iter = it
        elif it - best_iter >= stop.stall_window:
            window = np.array([r.energy for r in records[-stop.stall_window - 1:]])
            rose = np.diff(window).max() > ENERGY_RISE_RTOL * abs(window[-1])
            # BFSP is no gradient flow: its energy may rise near its fixed point
            reason = "diverged" if rose and flow.kind is not FlowKind.BFSP else "stall"
            break
    return RunReport(records, state, reason, time.perf_counter() - t0)
