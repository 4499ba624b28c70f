"""Discrete GP energy, inner products, gradients, retraction and residuals.

Everything here is a pure function of (coefficients, discretization,
problem).  The discretization handle only needs `weights` and
`apply_neg_laplacian` (and `transform` under a FastSolver metric), so tensor
grids and P1 meshes are interchangeable.
u*w and -Delta_h u are held on the state.  One record per state takes the
energy, the residual and the Rayleigh value from one u^3 and one Vu, and
holds A_u u, built from the same two, for the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import daxpy, shifted_solver

NORMALIZATION_TOL = 1e-10


class NormalizationError(ValueError):
    pass


@dataclass(frozen=True)
class Problem:
    """Potential values at nodes, interaction strength, and alpha, read only as the `linear`
    start's shift; kept since gsbench/workloads.py calls Problem(V, beta, alpha) positionally."""

    potential: np.ndarray
    beta: float
    alpha: float = 0.15

    def __post_init__(self):
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        # NaN fails both comparisons; two reductions, no node-sized temporary
        if not (np.min(self.potential) >= 0 and np.max(self.potential) < np.inf):
            raise ValueError("potential must be finite and nonnegative at every node")


@dataclass
class State:
    """Coefficient vector on interior nodes with its discretization handle.

    <u, u>_h is cached at construction; -Delta_h u, which every step carries
    in, u*w, and the record with A_u u on first use, so `coeffs` must not be
    mutated; a caller that clears `_Au_u` owns A_u u's buffer.
    `transformed` is disc.transform(u), carried in by a gradient step or set
    by `riemannian_gradient`, and `direction` is a line-search step's.  Carried
    values follow u only to round-off: `flows.run` stops on a fresh state.
    """

    coeffs: np.ndarray
    disc: object
    _neg_lap: np.ndarray | None = field(default=None, repr=False)
    transformed: np.ndarray | None = field(default=None, repr=False)
    _wu: np.ndarray | None = field(default=None, repr=False)
    direction: tuple | None = field(default=None, repr=False)
    h_norm_sq: float = field(init=False, repr=False)
    _Au_u: tuple | None = field(default=None, init=False, repr=False)
    _record: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        wu = self.coeffs * self.disc.weights if self._wu is None else self._wu
        self.h_norm_sq = float(np.dot(wu, self.coeffs))
        if not np.isfinite(self.h_norm_sq):  # NaN and +-inf in u propagate into it
            raise ValueError("state coefficients must be finite")

    @property
    def wu(self) -> np.ndarray:
        """u*w, so <u, v>_h = dot(wu, v); each step frees it before its solves."""
        if self._wu is None:
            self._wu = self.coeffs * self.disc.weights
        return self._wu

    @property
    def neg_lap(self) -> np.ndarray:
        """-Delta_h u, computed on first use unless carried in."""
        if self._neg_lap is None:
            self._neg_lap = self.disc.apply_neg_laplacian(self.coeffs)
        return self._neg_lap

    def require_normalized(self):
        if abs(self.h_norm_sq - 1.0) > NORMALIZATION_TOL:
            raise NormalizationError(
                f"state is not h-normalized: <u,u>_h = {self.h_norm_sq!r}")


def inner_h(disc, u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u * disc.weights, v))


def norm_h(disc, u: np.ndarray) -> float:
    return np.sqrt(max(inner_h(disc, u, u), 0.0))


class Record(NamedTuple):
    """One state's E_h(u), residual and Rayleigh value <u, A_u u>_h."""

    energy: float
    residual: float
    eigenvalue: float


def _record(state: State, problem: Problem) -> Record:
    """E, the residual and <u, A_u u>_h from one u^3 and one Vu, held on the
    state with A_u u = Vu - Delta_h u + beta u^3 for the last problem asked.
    E = k/2 + p/2 + (beta/4) q from k = <u, -Delta_h u>_h, p = <u, Vu>_h and
    q = <u, u^3>_h reads no A_u u, so `eigenvalue_from_energy` stays a check;
    (k, p, q) is held after the Record for the line search's phi(0).  A sector
    grid's `multiplicity` weighs the residual's norms: they are the extensions'."""
    if state._record is None or state._record[0] is not problem:
        if state.h_norm_sq == 0:
            raise NormalizationError("residual of the zero vector is undefined")
        u, wu, neg_lap, beta = state.coeffs, state.wu, state.neg_lap, problem.beta
        u3 = u * u  # products, not pow: libm pow is slow on negative entries
        u3 *= u
        Au = problem.potential * u
        k, p, q = (float(np.dot(wu, x)) for x in (neg_lap, Au, u3))
        Au += neg_lap
        Au = daxpy(u3, Au, a=beta)
        state._Au_u = (problem, Au)
        # F(u / |u|_h) |u|_h = A_u u + beta (1/|u|_h^2 - 1) u^3 has F's direction
        u3 *= beta * (1.0 / state.h_norm_sq - 1.0)
        F = daxpy(Au, u3)
        mu = getattr(state.disc, "multiplicity", None)
        norm = np.linalg.norm if mu is None else lambda x: np.sqrt(np.dot(x * mu, x))
        Fn, un, r = float(norm(F)), float(norm(u)), 1.0
        if Fn != 0:  # || u/|u| - F/|F| || explicitly: 1 - cos loses digits below 1e-8
            F *= -un / Fn
            F += u
            r = float(norm(F)) / un
        state._record = (problem, Record(0.5 * k + 0.5 * p + 0.25 * beta * q, r,
                                         float(np.dot(wu, Au))), (k, p, q))
    return state._record[1]


def energy(state: State, problem: Problem) -> float:
    """E_h(u) = 1/2 u'Su + 1/2 u'MVu + beta/4 (u^2)'M u^2."""
    return _record(state, problem).energy


def apply_Au(state: State, problem: Problem):
    """The linearized operator w -> (-Delta_h + V + beta diag(u^2)) w at the
    state, its diagonal built once (V itself at beta = 0)."""
    V, beta = problem.potential, problem.beta
    diag = V + beta * state.coeffs ** 2 if beta else V

    def apply(w):
        w = np.asarray(w, dtype=float)
        if w.shape != diag.shape:
            raise ValueError(f"length mismatch: {w.shape} vs {diag.shape}")
        return state.disc.apply_neg_laplacian(w) + diag * w
    return apply


def au_preconditioner(state: State, problem: Problem):
    """A_u's one preconditioner at the state: (-Delta_h + max(mean(V + beta u^2), 1e-3))^{-1}."""
    shift = float(np.mean(problem.potential + problem.beta * state.coeffs ** 2))
    return shifted_solver(state.disc, max(shift, 1e-3))


def euclidean_gradient(state: State, problem: Problem) -> np.ndarray:
    """A_u u, the Frechet gradient of E_h in the <.,.>_h geometry: the record's, held on
    the state for the last problem asked; a caller that clears `state._Au_u` owns it."""
    if state._Au_u is None or state._Au_u[0] is not problem:
        state._record = None
        _record(state, problem)
    return state._Au_u[1]


class Gradient(NamedTuple):
    """g = G(A_u u - gamma u), neg_lap = -Delta_h g, transformed = disc.transform(g) or None."""

    g: np.ndarray
    neg_lap: np.ndarray
    transformed: np.ndarray | None


def riemannian_gradient(state: State, problem: Problem, G) -> Gradient:
    """Metric gradient G A_u u projected onto the tangent space of the h-unit
    sphere (<u, g>_h = 0) for any inverse metric G with a .solve method, and
    -Delta_h g.  A G with a `denominator` D (a FastSolver) uses <u, G x>_h =
    T(u)^T D^{-1} T(x), T = disc.transform and T(u) kept on the state: one
    transform of A_u u and one inverse transform.  A G with a shift alpha inverts
    -Delta_h + alpha I, so -Delta_h g = A_u u - gamma u - alpha g is free;
    any other G applies -Delta_h to g once."""
    state.require_normalized()
    u, disc = state.coeffs, state.disc
    if hasattr(G, "denominator"):
        if state.transformed is None:
            state.transformed = disc.transform(u)
        c_u, D = state.transformed, G.denominator
        c = disc.transform(euclidean_gradient(state, problem))
        t = c_u / D  # transform(G u)
        gamma = float(np.dot(t, c)) / float(np.dot(t, c_u))
        c /= D  # transform(G A_u u)
        c = daxpy(t, c, a=-gamma)
        del t  # before the inverse transform
        g = disc.transform(c, inverse=True)
    else:
        grad = G.solve(euclidean_gradient(state, problem))
        Gu = G.solve(u)
        gamma = inner_h(state.disc, u, grad) / inner_h(state.disc, u, Gu)
        g, c = grad - gamma * Gu, None
    alpha = getattr(G, "alpha", None)
    if alpha is None:
        return Gradient(g, state.disc.apply_neg_laplacian(g), c)
    neg_lap = euclidean_gradient(state, problem)  # its last use: take its buffer
    state._Au_u = None
    neg_lap = daxpy(g, daxpy(u, neg_lap, a=-gamma), a=-alpha)
    return Gradient(g, neg_lap, c)


def retract(disc, u: np.ndarray) -> np.ndarray:
    """R_h(u) = u / sqrt(<u, u>_h)."""
    nrm = norm_h(disc, u)
    if nrm == 0:
        raise NormalizationError("cannot retract the zero vector")
    return u / nrm


def residual(state: State, problem: Problem) -> float:
    """Relative residue || u/|u| - F(u)/|F(u)| || with F = -Delta_h u + Vu + beta u^3.

    F is evaluated at the h-normalized state (the manifold the flow lives
    on; the cubic term is not scale invariant), and the misalignment of the
    two unit directions is measured in the plain Euclidean coefficient norm,
    on a sector grid weighed by each node's multiplicity: the extended state's.
    Exact eigenpairs give 0 and rescaling u changes nothing; a zero F gives 1.
    """
    return _record(state, problem).residual


def eigenvalue_estimate(state: State, problem: Problem) -> float:
    """Rayleigh value <u, A_u u>_h for an h-normalized state."""
    state.require_normalized()
    return _record(state, problem).eigenvalue


def eigenvalue_from_energy(state: State, problem: Problem) -> float:
    """Check value 2 E_h(u) + (beta/2) <u^2, u^2>_h; equals the Rayleigh value
    for any h-normalized u."""
    state.require_normalized()
    u2 = state.coeffs ** 2
    return 2.0 * energy(state, problem) + 0.5 * problem.beta * inner_h(state.disc, u2, u2)
