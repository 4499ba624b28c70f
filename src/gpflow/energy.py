"""Discrete GP energy, inner products, gradients, retraction and residuals.

Everything here is a pure function of (coefficients, discretization,
problem).  The discretization handle only needs `weights` and
`apply_neg_laplacian`, so tensor grids and P1 meshes are interchangeable.
u*w, -Delta_h u and A_u u are held on the state and shared by the energy,
the residual, the Rayleigh value and the gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NORMALIZATION_TOL = 1e-10


class NormalizationError(ValueError):
    pass


@dataclass(frozen=True)
class Problem:
    """Potential values at nodes, interaction strength, and metric shift."""

    potential: np.ndarray
    beta: float
    alpha: float = 0.15

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        # NaN fails both comparisons; two reductions, no node-sized temporary
        if not (np.min(self.potential) >= 0 and np.max(self.potential) < np.inf):
            raise ValueError("potential must be finite and nonnegative at every node")


@dataclass
class State:
    """Coefficient vector on interior nodes with its discretization handle.

    <u, u>_h is cached at construction; -Delta_h u, which every step carries
    in, u*w and A_u u on first use (`riemannian_gradient` frees A_u u for a
    shifted G), so `coeffs` must not be mutated after construction.
    `transformed` is FastSolver.forward(u), carried in by a gradient step or set
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


def energy(state: State, problem: Problem) -> float:
    """E_h(u) = 1/2 u'Su + 1/2 u'MVu + beta/4 (u^2)'M u^2."""
    disc = state.disc
    u2 = state.coeffs * state.coeffs  # products, not pow: libm pow is slow on negative entries
    kinetic = 0.5 * float(np.dot(state.wu, state.neg_lap))
    potential = 0.5 * float(np.dot(disc.weights * problem.potential, u2))
    u2 *= u2
    quartic = 0.25 * problem.beta * float(np.dot(disc.weights, u2))
    return kinetic + potential + quartic


def apply_Au(state: State, problem: Problem, w: np.ndarray) -> np.ndarray:
    """Linearized operator (-Delta_h + V + beta diag(u^2)) w."""
    w = np.asarray(w, dtype=float)
    if w.shape != state.coeffs.shape:
        raise ValueError(f"length mismatch: {w.shape} vs {state.coeffs.shape}")
    return (state.disc.apply_neg_laplacian(w)
            + (problem.potential + problem.beta * state.coeffs ** 2) * w)


def euclidean_gradient(state: State, problem: Problem) -> np.ndarray:
    """A_u u, the Frechet gradient of E_h in the <.,.>_h geometry, held on
    the state for the last problem asked (do not mutate it)."""
    if state._Au_u is None or state._Au_u[0] is not problem:
        u = state.coeffs
        Au = u * u  # (V + beta u^2) u + -Delta_h u, built in place
        Au *= problem.beta
        Au += problem.potential
        Au *= u
        Au += state.neg_lap
        state._Au_u = (problem, Au)
    return state._Au_u[1]


class Gradient(NamedTuple):
    """g = G(A_u u - gamma u), neg_lap = -Delta_h g, transformed = forward(g) or None."""

    g: np.ndarray
    neg_lap: np.ndarray
    transformed: np.ndarray | None


def riemannian_gradient(state: State, problem: Problem, G) -> Gradient:
    """Metric gradient G A_u u projected onto the tangent space of the h-unit
    sphere (<u, g>_h = 0) for any inverse metric G with a .solve method, and
    -Delta_h g.  A G with transforms (a FastSolver) uses <u, G x>_h =
    forward(u)^T D^{-1} forward(x), forward(u) kept on the state: one forward
    pass of A_u u and one backward pass.  A G with a shift alpha inverts
    -Delta_h + alpha I, so -Delta_h g = A_u u - gamma u - alpha g is free;
    any other G applies -Delta_h to g once."""
    state.require_normalized()
    u = state.coeffs
    if hasattr(G, "forward"):
        if state.transformed is None:
            state.transformed = G.forward(u)
        c_u, D = state.transformed, G.denominator
        c = G.forward(euclidean_gradient(state, problem)) / D  # forward(G A_u u)
        gamma = float(np.dot(c_u, c)) / float(np.dot(c_u / D, c_u))
        c -= gamma / D * c_u
        g = G.backward(c)
    else:
        grad = G.solve(euclidean_gradient(state, problem))
        Gu = G.solve(u)
        gamma = inner_h(state.disc, u, grad) / inner_h(state.disc, u, Gu)
        g, c = grad - gamma * Gu, None
    alpha = getattr(G, "alpha", None)
    if alpha is None:
        return Gradient(g, state.disc.apply_neg_laplacian(g), c)
    neg_lap = g * -alpha
    neg_lap += euclidean_gradient(state, problem)
    state._Au_u = None  # its last use here: free it before the next arrays
    neg_lap -= gamma * u
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
    two unit directions is measured in the plain Euclidean coefficient norm.
    Exact eigenpairs give 0 and rescaling u changes nothing.
    """
    u = state.coeffs
    hn2 = state.h_norm_sq
    if hn2 == 0:
        raise NormalizationError("residual of the zero vector is undefined")
    # F(u / |u|_h) |u|_h = -Delta_h u + (V + beta u^2 / |u|_h^2) u has F's
    # direction; build it in place
    F = u * u
    F *= problem.beta / hn2
    F += problem.potential
    F *= u
    F += state.neg_lap
    Fn = float(np.linalg.norm(F))
    if Fn == 0:
        return 1.0
    un = float(np.linalg.norm(u))
    # || u/|u| - F/|F| || as an explicit difference (1 - cos loses the digits
    # below ~1e-8)
    F *= -un / Fn
    F += u
    return float(np.linalg.norm(F)) / un


def eigenvalue_estimate(state: State, problem: Problem) -> float:
    """Rayleigh value <u, A_u u>_h for an h-normalized state."""
    state.require_normalized()
    return float(np.dot(state.wu, euclidean_gradient(state, problem)))


def eigenvalue_from_energy(state: State, problem: Problem) -> float:
    """Check value 2 E_h(u) + (beta/2) <u^2, u^2>_h; equals the Rayleigh value
    for any h-normalized u."""
    state.require_normalized()
    u2 = state.coeffs ** 2
    return 2.0 * energy(state, problem) + 0.5 * problem.beta * inner_h(state.disc, u2, u2)
