"""Gradient-flow drivers: step maps, step-size policies, stopping, reporting."""

from __future__ import annotations

import enum
import time
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import reduce
from types import SimpleNamespace

import numpy as np

from .energy import (Problem, State, _record, apply_Au, au_preconditioner, energy,
                     eigenvalue_estimate, euclidean_gradient, residual,
                     retract, riemannian_gradient)
from .grids import TensorOperator, checked_vector
from .linalg import SolverError, daxpy, pcg, shifted_solver


class FlowKind(enum.Enum):
    MODIFIED_H1 = "modified_h1"   # alpha = 0 gives the H1 seminorm flow
    L2 = "l2"
    A0 = "a0"
    AU = "au"
    BFSP = "bfsp"  # Bao & Du (2004): no metric, dt its one setting


@dataclass(frozen=True)
class FixedStep:
    tau: float

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive, got {self.tau}")


LINE_SEARCH_HI = 4.0  # the line search takes its step from (0, LINE_SEARCH_HI]


@dataclass(frozen=True)
class LineSearchStep:
    """Exact line search over (0, LINE_SEARCH_HI] along PR+ directions."""


@dataclass(frozen=True)
class FlowConfig:
    kind: FlowKind = FlowKind.MODIFIED_H1
    alpha: float = 0.15  # modified H1's shift, and the linear start's; not BFSP's
    step: FixedStep | LineSearchStep = FixedStep(1.0)
    dt: float = 0.1  # BFSP's one setting: run takes its shift from bfsp_shift

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive, got {self.dt}")


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
        if not 0 <= self.residual_tol < np.inf:
            raise ValueError(f"tol must be >= 0, got {self.residual_tol}")
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
    # "tol" | "stall" (a gradient flow's with its energy flat) | "diverged" (a
    # gradient flow stalled while its energy rose) | "max_iter" | "step_failure"
    reason: str
    wall_seconds: float
    refreshes: int = 0  # states rebuilt to check a record that met the tolerance
    restarts: int = 0  # line-search iterates that fell back to the gradient

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


def step_bfsp(state: State, problem: Problem, solver) -> State:
    """BFSP: R_h(x), x = solve(rhs), rhs = s u - (V + beta u^2) u = s u - (A_u u + Delta_h u)
    in the record's A_u u, s = bfsp_shift + 1/dt; carries -Delta_h x = rhs - s x and R_h(x)*w."""
    state.require_normalized()
    rhs = euclidean_gradient(state, problem)  # its last use: take its buffer
    state._Au_u = state._wu = None  # and free u*w before the solve
    rhs = daxpy(state.coeffs, np.subtract(state.neg_lap, rhs, out=rhs), a=solver.alpha)
    x = solver.solve(rhs)
    t = np.multiply(x, state.disc.weights)  # x*w, then R_h(x)*w
    nrm = np.sqrt(max(float(np.dot(t, x)), 0.0))  # norm_h(disc, x)
    rhs = daxpy(x, rhs, a=-solver.alpha)  # -Delta_h x, in rhs's buffer
    x /= nrm  # R_h(x), as `retract` computes it
    rhs /= nrm  # -Delta_h R_h(x), carried to the next record
    return State(x, state.disc, rhs, _wu=np.multiply(x, state.disc.weights, out=t))


def bfsp_shift(problem: Problem, u0: State) -> float:
    """BFSP's shift, which `run` takes from its start u0: the midpoint of V + beta u0^2."""
    b = problem.potential + problem.beta * u0.coeffs ** 2
    return 0.5 * (float(np.max(b)) + float(np.min(b)))


def _pcg_inverse(apply_A, precond, weights: np.ndarray, name: str):
    """G = A^{-1} applied by PCG to 1e-12, preconditioned by `precond`."""
    def solve(w):
        x, _, ok = pcg(apply_A, precond.solve, w, weights, tol=1e-12, maxiter=1000)
        if not ok:
            raise SolverError(f"{name} metric solve did not converge")
        return x
    return SimpleNamespace(solve=solve)


def metric_inverse(kind: FlowKind, problem: Problem, u0: State, alpha: float):
    """state -> G, the inverse metric of a gradient flow from u0 (an object with .solve).

    modified H1: (-Delta_h + alpha I)^{-1}; L2: I; AU: A_u^{-1} at the given state by PCG,
    preconditioned by `au_preconditioner` at u0; A0: A_u^{-1} at beta = 0, (-Delta_h + V)^{-1}.
    """
    if kind in (FlowKind.A0, FlowKind.AU):
        p = problem if kind is FlowKind.AU else replace(problem, beta=0.0)
        precond = au_preconditioner(u0, p)
        return lambda state: _pcg_inverse(apply_Au(state, p), precond, u0.disc.weights, kind.name)
    if kind is FlowKind.MODIFIED_H1:
        G = shifted_solver(u0.disc, alpha)
    elif kind is FlowKind.L2:
        G = SimpleNamespace(solve=lambda w: w)
    else:
        raise ValueError(f"not a gradient flow: {kind}")
    return lambda state: G


# a line search's d, -Delta_h d, transform(d) (or None), g and <g, g>_X; d is g on restart
Direction = namedtuple("Direction", "d neg_lap transformed g gg")


def gradient_step(state: State, problem: Problem, G,
                  policy: FixedStep | LineSearchStep) -> tuple[State, float]:
    """u <- R_h(u - tau d), g the Riemannian gradient under the inverse metric G:
    d = g at a fixed tau.  The line search's exact tau takes d = g + beta P d' (PR+;
    P the h-projection onto u's tangent space, (d', g') = `state.direction`, beta =
    max(0, <g, g - P g'>_X / <g', g'>_X), <g, v>_X = <r, v>_h, r = A_u u - lambda u), or
    d = g if <r, d>_h <= 0 or E does not fall along d.  The new state carries -Delta_h u' and
    transform(u') by linearity from (u - tau d) / |u - tau d|_h, and a `Direction`; it
    drops the old state's carried values before it allocates u'*w."""
    u, weights = state.coeffs, state.disc.weights
    prev, state.direction = state.direction, None
    if prev is not None:  # P v = v - <u, v>_h u
        sd, sg = float(np.dot(state.wu, prev.d)), float(np.dot(state.wu, prev.g))
    state._wu = None  # the record's u*w: free it before the transforms
    g, lap_g, c = d, lap_d, c_d = riemannian_gradient(state, problem, G)
    if isinstance(policy, FixedStep):
        tau, out, direction = policy.tau, (g, lap_g, c), None
    else:
        alpha = getattr(G, "alpha", None)  # then A_u u - gamma u = -Delta_h g + alpha g
        wr = (g * alpha if alpha is not None else  # else r: it holds no lambda-multiple of u
              euclidean_gradient(state, problem) - _record(state, problem).eigenvalue * u)
        if alpha is not None:
            wr += lap_g
        wr *= weights
        gg, beta = float(np.dot(wr, g)), 0.0
        if prev is not None and prev.gg > 0:
            ru = float(np.dot(wr, u))  # <r, P v>_h = <r, v>_h - <u, v>_h <r, u>_h
            beta = max(0.0, (gg - float(np.dot(wr, prev.g)) + sg * ru) / prev.gg)
        if beta > 0 and gg + beta * (float(np.dot(wr, prev.d)) - sd * ru) > 0:
            d, lap_d, c_d = prev[:3]
            for v, x, y in zip(prev[:3], (u, state.neg_lap, state.transformed),
                               (g, lap_g, c)):
                if v is not None:  # beta P v + y, -Delta_h and transform by linearity
                    v *= beta
                    daxpy(x, v, a=-beta * sd)  # in place: v is C-contiguous float64
                    v += y
        wr = prev = None  # frees g', and d' unless d took its buffers
        tau, rise = line_search_step(state, problem, d, lap_d)
        if rise >= 0 and d is not g:
            d, lap_d, c_d = g, lap_g, c
            tau, rise = line_search_step(state, problem, d, lap_d)
        if rise > ENERGY_RISE_RTOL * abs(_record(state, problem).energy):
            raise SolverError(f"no step along g lowers E: the best raises it by {rise:.3e}")
        out = (None, None, None) if d is g else (None, lap_g, c)
        direction = Direction(d, lap_d, c_d, g, gg)
    # |u - tau d|_h^2 from <d, u>_h and <d, d>_h, on the transforms by Parseval (Z^T M Z = I)
    x, y, z = (c_d, state.transformed, c_d) if c_d is not None else (d * weights, u, d)
    du, dd, x = float(np.dot(x, y)), float(np.dot(x, z)), None
    nrm = np.sqrt(max(state.h_norm_sq - 2.0 * tau * du + tau * tau * dd, 0.0))
    w = daxpy(u, np.multiply(d, -tau / nrm, out=out[0]), a=1.0 / nrm)  # R_h(u - tau d)
    carried = [x if x is None else  # (old - tau x) / nrm, in place
               daxpy(old, np.multiply(x, -tau / nrm, out=o), a=1.0 / nrm)
               for x, old, o in ((lap_d, state.neg_lap, out[1]),
                                 (c_d, state.transformed, out[2]))]
    state._neg_lap = state.transformed = None  # the old ones go before u'*w is allocated
    return State(w, state.disc, *carried, w * weights, direction), tau


def line_energy(state: State, problem: Problem, d: np.ndarray,
                lap_d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(tau) - phi(0), phi(tau) = E_h(R_h(u - tau d)), in closed form: A / n + (beta/4) Q / n^2
    with n(tau) = <v, v>_h, v = u - tau d; returns (A, Q, n), coefficients lowest degree first,
    A of degree 2 and Q of degree 4 with no constant term.  Taking phi(0) out before the sums
    are combined keeps the rise accurate where phi itself varies only in its last digits.  From
    10 weighted sums, the record's k, p and q for phi(0) (the record is built if the state has
    none), and two scratch vectors wd = w d and t, given lap_d = -Delta_h d."""
    _record(state, problem)
    k, p, q0 = state._record[2]
    u, w = state.coeffs, state.disc.weights
    wd = w * d
    a, b, c = state.h_norm_sq, np.dot(wd, u), np.dot(wd, d)
    # 1/2 <v, (-Delta_h + V) v>_h = k0 - 2 tau k1 + tau^2 k2, one V wd for k1 and k2
    t = problem.potential * wd
    k2 = 0.5 * (np.dot(wd, lap_d) + np.dot(t, d))
    k1 = 0.5 * (np.dot(wd, state.neg_lap) + np.dot(t, u))
    # <v^2, v^2>_h = sum_j binom(4, j) (-tau)^j q_j with q_j = <u^(4-j), d^j>_h
    np.multiply(u, u, out=t)
    t *= wd  # w d u^2
    q1, q2 = np.dot(t, u), np.dot(t, d)
    wd *= d
    wd *= d  # w d^3
    q3, q4 = np.dot(wd, u), np.dot(wd, d)

    n = np.array([a, -2.0 * b, c])
    e_quad, e_quart = 0.5 * (k + p) / a, q0 / (a * a)
    # phi(tau) - phi(0): subtract phi(0) n / n and phi(0) n^2 / n^2 termwise
    A = np.array([0.0, 2.0 * (e_quad * b - k1), k2 - e_quad * c])
    Q = np.array([q0, -4.0 * q1, 6.0 * q2, -4.0 * q3, q4]) - e_quart * np.convolve(n, n)
    Q[0] = 0.0
    return A, Q, n


def stationary_points(A: np.ndarray, Q: np.ndarray, n: np.ndarray,
                      beta: float) -> np.ndarray:
    """Roots of phi' n^3 = (A'n - An')n + (beta/4)(Q'n - 2Qn'), complex ones
    included, for `line_energy`'s (A, Q, n); its degree-5 terms cancel exactly,
    and `np.roots` drops the leading zero."""
    dA, dQ, dn = (p[1:] * np.arange(1, len(p)) for p in (A, Q, n))
    num = np.convolve(np.convolve(dA, n) - np.convolve(A, dn), n)
    num += 0.25 * beta * (np.convolve(dQ, n) - 2 * np.convolve(Q, dn))
    return np.roots(num[::-1])


def line_search_step(state: State, problem: Problem, d: np.ndarray,
                     lap_d: np.ndarray) -> tuple[float, float]:
    """Exact minimizer tau of tau -> E_h(R_h(u - tau d)) over (0, LINE_SEARCH_HI],
    with its phi(tau) - phi(0): the best of LINE_SEARCH_HI and the stationary
    points of the closed form inside, from lap_d = -Delta_h d.  A zero
    direction has a zero closed form and no stationary point: (LINE_SEARCH_HI, 0)."""
    hi, (A, Q, n) = LINE_SEARCH_HI, line_energy(state, problem, d, lap_d)
    if not np.isfinite(np.concatenate((A, Q, n))).all():
        raise SolverError("non-finite energy in line search")
    # a complex pair near a double root still marks a stationary point
    taus = np.append([t for t in stationary_points(A, Q, n, problem.beta).real
                      if 0 < t < hi], hi)
    A, Q, n = (np.polyval(p[::-1], taus) for p in (A, Q, n))  # Horner's rule
    rise = A / n + 0.25 * problem.beta * Q / (n * n)
    return float(taus[np.argmin(rise)]), float(np.min(rise))


def default_initial_state(disc, kind: str = "constant",
                          problem: Problem | None = None) -> State:
    """'constant': normalized all-ones; 'linear': the beta = 0 ground state by
    the line-search flow to residual 1e-10 from z0 x ... x z0 (all-ones on a P1
    mesh), z0 the 1D ground mode; a SolverError if that flow stops short.  Where V
    mirrors along every axis (|V - J_k V| <= 1e-12 max V), that flow runs on the
    grid's `even` sector, and the start is its result extended to the full grid."""
    if kind == "constant":
        return State(retract(disc, np.ones(disc.ndof)), disc)
    if kind == "linear":
        if problem is None:
            raise ValueError("linear initial guess needs the problem")
        checked_vector(problem.potential, disc.ndof)  # before V is reshaped
        grid, V, u0 = disc, problem.potential, None
        if isinstance(disc, TensorOperator):
            V, z0 = V.reshape(disc.shape), disc.eigen.vectors[:, 0]
            if disc.multiplicity is None and all(np.abs(V - np.flip(V, k)).max() <= 1e-12 * V.max()
                                                 for k in range(disc.dim)):
                grid = disc.even
            V = V[(slice(grid.n),) * disc.dim].ravel()
            # z0 is signed by its sum: eigh's sign is arbitrary
            u0 = reduce(np.multiply.outer, [z0[:grid.n] * np.sign(z0.sum())] * disc.dim).ravel()
        u0 = State(retract(grid, np.ones(disc.ndof) if u0 is None else u0), grid)
        report = run(FlowConfig(alpha=problem.alpha, step=LineSearchStep()),
                     Problem(V, 0.0, problem.alpha), u0, StopRule(1e-10))
        if not report.converged:
            raise SolverError(f"linear initial guess stopped by {report.reason}")
        u = report.final_state
        return u if grid is disc else State(grid.extend(u.coeffs), disc)
    raise ValueError(f"unknown initial guess kind: {kind}")


def run(flow: FlowConfig, problem: Problem, u0: State, stop: StopRule) -> RunReport:
    """Iterate the flow until tolerance, stall (a gradient flow's needs flat E and a
    residual floor), divergence (its stall window with E rising), a step failure or max_iter."""
    disc = u0.disc
    checked_vector(problem.potential, disc.ndof)  # V of another length might broadcast
    # freed at once: glibc raises its mmap and trim thresholds to it (32 MiB at most), so
    # the run's vectors stay in its heap, where fresh mmaps fault in every page each iterate
    np.empty(3 * disc.ndof)
    t0 = time.perf_counter()

    if flow.kind is FlowKind.BFSP:
        solver = shifted_solver(disc, bfsp_shift(problem, u0) + 1.0 / flow.dt)
        step = lambda state: (step_bfsp(state, problem, solver), flow.dt)
    else:
        G_at = metric_inverse(flow.kind, problem, u0, flow.alpha)
        step = lambda state: gradient_step(state, problem, G_at(state), flow.step)

    def record(it, state, tau):
        return IterationRecord(it, energy(state, problem), residual(state, problem),
                               eigenvalue_estimate(state, problem), tau)

    refreshes = restarts = 0
    state = State(u0.coeffs, disc)  # fills no cache of the caller's state
    records = [record(0, state, 0.0)]
    best = records[0].residual
    best_iter = 0
    reason = "max_iter"
    for it in range(1, stop.max_iter + 1):
        conjugate = state.direction is not None
        try:
            state, tau = step(state)
        except SolverError:
            reason = "step_failure"
            break
        restarts += conjugate and state.direction.d is state.direction.g
        rec = record(it, state, tau)
        if rec.residual <= stop.residual_tol:
            # values a step carried follow u only to round-off: stop on exact ones
            state = State(state.coeffs, disc)
            refreshes += 1
            rec = record(it, state, tau)
        records.append(rec)
        if rec.residual <= stop.residual_tol:
            reason = "tol"
            break
        if rec.residual < best * (1.0 - STALL_RTOL):
            best = rec.residual
            best_iter = it
        elif it - best_iter >= stop.stall_window:
            window = np.array([r.energy for r in records[-stop.stall_window - 1:]])
            rtol = ENERGY_RISE_RTOL * abs(window[-1])
            # BFSP is no gradient flow: its energy may rise near its fixed point
            gradient, rose = flow.kind is not FlowKind.BFSP, np.diff(window).max() > rtol
            # a gradient flow stalls at a floor: flat E, and no better residual for as
            # long as its best took to gain its last decade; else it is on a plateau
            decade = next(r.index for r in records if r.residual <= 10.0 * best)
            if gradient and not rose and (window[0] - window[-1] > rtol
                                          or it - best_iter < best_iter - decade):
                continue
            reason = "diverged" if gradient and rose else "stall"
            break
    return RunReport(records, State(state.coeffs, disc),  # no carried values
                     reason, time.perf_counter() - t0, refreshes, restarts)
