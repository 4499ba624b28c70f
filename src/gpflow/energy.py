"""Discrete GP energy, inner products, gradients, retraction and residuals.

Everything here is a pure function of (coefficients, discretization,
problem).  The discretization handle only needs `weights` and
`apply_neg_laplacian` (and `transform` under a FastSolver metric), so tensor
grids and P1 meshes are interchangeable.
-Delta_h u is held on the state.  One record per state takes the energy, the residual
and the Rayleigh value from one u^3 and one Vu, by flat chunks of CHUNK nodes, and holds
A_u u, built from the same two, for the gradient.  E is taken at any u; the residual and
the Rayleigh value on the h-unit sphere, where F(u) = A_u u.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import CHUNK, daxpy, shifted_solver

NORMALIZATION_TOL = 1e-10


def _chunks(n: int) -> list[slice]:
    return [slice(i, i + CHUNK) for i in range(0, n, CHUNK)]


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

    <u, u>_h is cached at construction, by `_chunks` like every <u, .>_h of the record;
    -Delta_h u, which every step carries in, and the record with A_u u on first use, so
    `coeffs` must not be mutated; a caller that clears `_Au_u` owns A_u u's buffer.
    `transformed` is disc.transform(u), carried in by a gradient step or set
    by `riemannian_gradient`, and `direction` is a line-search step's.  Carried
    values follow u only to round-off: `flows.run` stops on a fresh state.
    """

    coeffs: np.ndarray
    disc: object
    _neg_lap: np.ndarray | None = field(default=None, repr=False)
    transformed: np.ndarray | None = field(default=None, repr=False)
    direction: tuple | None = field(default=None, repr=False)
    h_norm_sq: float = field(init=False, repr=False)
    _Au_u: tuple | None = field(default=None, init=False, repr=False)
    _record: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.coeffs = u = np.asarray(self.coeffs, dtype=float)
        self.h_norm_sq = inner_h(self.disc, u, u)
        if not np.isfinite(self.h_norm_sq):  # NaN and +-inf in u propagate into it
            raise ValueError("state coefficients must be finite")

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
    return sum(float(np.dot(u[s] * disc.weights[s], v[s])) for s in _chunks(len(u)))


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
    (k, p, q) is held after the Record for the line search's phi(0).  The residual reads
    A_u u as F, which it is on the h-unit sphere.  A sector grid's `multiplicity` weighs the
    residual's norms: they are the extensions'.  It runs by `_chunks`, each with its own
    u*w and u^3; the residual's pass reads A_u u back and forms no u^3."""
    if state._record is None or state._record[0] is not problem:
        if state.h_norm_sq == 0:
            raise NormalizationError("residual of the zero vector is undefined")
        u, w, neg_lap, beta = state.coeffs, state.disc.weights, state.neg_lap, problem.beta
        mu, chunks = getattr(state.disc, "multiplicity", None), _chunks(len(u))
        sq = lambda x, s: float(np.dot(x, x) if mu is None else np.dot(x * mu[s], x))
        Au, sums = np.empty_like(u), np.zeros(6)  # k, p, q, <u, A_u u>_h, |A_u u|^2, |u|^2
        for s in chunks:
            wu = u[s] * w[s]
            u3 = u[s] * u[s]  # products, not pow: libm pow is slow on negative entries
            u3 *= u[s]
            A = np.multiply(problem.potential[s], u[s], out=Au[s])
            k, p, q = (float(np.dot(wu, x)) for x in (neg_lap[s], A, u3))
            A += neg_lap[s]
            daxpy(u3, A, a=beta)
            sums += (k, p, q, float(np.dot(wu, A)), sq(A, s), sq(u[s], s))
            wu = u3 = None  # before the next chunk's
        state._Au_u = (problem, Au)
        Fn, un, r = *np.sqrt(sums[4:]).tolist(), 1.0
        if Fn != 0:  # || u/|u| - F/|F| || explicitly: 1 - cos loses digits below 1e-8
            r = 0.0
            for s in chunks:
                F = np.multiply(Au[s], -un / Fn)
                F += u[s]
                r, F = r + sq(F, s), None
            r = np.sqrt(r) / un
        k, p, q, lam = sums[:4].tolist()
        state._record = (problem, Record(0.5 * k + 0.5 * p + 0.25 * beta * q, float(r), lam),
                         (k, p, q))
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


def riemannian_gradient(state: State, problem: Problem, G, tau: float | None = None) -> Gradient:
    """Metric gradient G A_u u projected onto the tangent space of the h-unit
    sphere (<u, g>_h = 0) for any inverse metric G with a .solve method, and
    -Delta_h g.  A G with `denominator_blocks` of D (a FastSolver) uses <u, G x>_h =
    T(u)^T D^{-1} T(x), T = disc.transform and T(u) kept on the state: one transform of
    A_u u and one inverse transform, gamma's sums and then T(g) = (T(A_u u) - gamma T(u)) / D,
    one division, by the same blocks, each forming its D once.  A G with
    a shift alpha inverts -Delta_h + alpha I, so -Delta_h g = A_u u - gamma u - alpha g
    is free; any other G applies -Delta_h to g once.  Given a fixed step tau, a FastSolver
    returns u' = (u - tau g) / |u - tau g|_h, -Delta_h u' and T(u') in g's fields, in buffers
    the state gives up: L = -Delta_h u - tau A_u u, so that -Delta_h u' = (L + tau gamma u +
    tau alpha g) / |u - tau g|_h, and both transforms consume their input."""
    state.require_normalized()
    u, disc = state.coeffs, state.disc
    if hasattr(G, "denominator_blocks"):
        if state.transformed is None:
            state.transformed = disc.transform(u)
        c_u, c = state.transformed, euclidean_gradient(state, problem)
        if tau is not None:  # A_u u's last use: its transform consumes it
            L = daxpy(c, state.neg_lap, a=-tau)
            state._Au_u = state._neg_lap = state.transformed = None
        c = disc.transform(c, consume=tau is not None)
        sums = np.zeros(4)  # <G u, A_u u>_h, <G u, u>_h, then the step's <g, u>_h, <g, g>_h
        for s, D in G.denominator_blocks():
            t = np.divide(c_u[s], D, out=D)  # transform(G u)
            sums[:2] += (np.dot(t, c[s]), np.dot(t, c_u[s]))
        gamma = float(sums[0] / sums[1])
        t = D = None  # each loop holds one block at a time
        for s, D in G.denominator_blocks():
            x = daxpy(c_u[s], c[s], a=-gamma)
            x /= D  # transform(g)
            if tau is not None:
                sums[2:] += (np.dot(x, c_u[s]), np.dot(x, x))
        D = None  # the last block goes before the inverse transform
        if tau is not None:  # by linearity, with |u - tau g|_h^2 by Parseval
            nrm = np.sqrt(max(state.h_norm_sq - 2.0 * tau * sums[2] + tau * tau * sums[3], 0.0))
            c *= -tau / nrm
            c_u = daxpy(c, np.multiply(c_u, 1.0 / nrm, out=c_u))  # T(u')
            g = disc.transform(c, inverse=True, consume=True)  # -tau g / nrm
            L = np.multiply(daxpy(u, L, a=tau * gamma), 1.0 / nrm, out=L)
            L = daxpy(g, L, a=-G.alpha)  # -Delta_h u'
            return Gradient(daxpy(u, g, a=1.0 / nrm), L, c_u)
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
    """Relative residue || u/|u| - F(u)/|F(u)| || with F = -Delta_h u + Vu + beta u^3 at an
    h-normalized state (the manifold the flow lives on), measured in the plain Euclidean
    coefficient norm, on a sector grid weighed by each node's multiplicity: the extended
    state's.  Exact eigenpairs give 0 and a zero F gives 1.  F is read at u itself, so a
    state at the NORMALIZATION_TOL edge carries an error of order beta |<u, u>_h - 1|."""
    rec = _record(state, problem)  # first, so the zero state is refused as such
    state.require_normalized()
    return rec.residual


def eigenvalue_estimate(state: State, problem: Problem) -> float:
    """Rayleigh value <u, A_u u>_h for an h-normalized state."""
    state.require_normalized()
    return _record(state, problem).eigenvalue


def eigenvalue_from_energy(state: State, problem: Problem) -> float:
    """Check value 2 E_h(u) + (beta/2) <u^2, u^2>_h; equals the Rayleigh value
    for any h-normalized u."""
    state.require_normalized()
    u, w, q = state.coeffs, state.disc.weights, 0.0
    for s in _chunks(len(u)):  # <u^2, u^2>_h as `inner_h` sums it, with no whole u^2
        u2 = u[s] ** 2
        q += float(np.dot(u2 * w[s], u2))
    return 2.0 * energy(state, problem) + 0.5 * problem.beta * q
