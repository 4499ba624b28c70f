"""Shifted-Laplacian solves, PCG, and LOBPCG for the lowest eigenpairs.

`shifted_solver(disc, alpha)` picks the solver for (-Delta_h + alpha I)^{-1}.
On a tensor grid it is a FastSolver, by fast diagonalization (Lynch, Rice &
Thomas 1964): the grid's transform into the eigenbasis of its 1D pencil
S z = mu M z (one pass per axis), division by the Kronecker-sum eigenvalues
plus alpha, and the inverse transform.  Cost is
O(d n^{d+1}) per solve and no d-dimensional matrix is ever formed.  On an
assembled P1 mesh it is one sparse LU of S + alpha M, and
solve(b) = (S + alpha M)^{-1} M b.  The shifted solver is also the
preconditioner of the metric flows' PCG and of the eigensolver, scipy's
LOBPCG.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import reduce
from types import SimpleNamespace

import numpy as np

from .grids import TensorOperator


class SolverError(RuntimeError):
    pass


class FastSolver:
    """Direct tensor-product solver for (-Delta_h + alpha I) x = b by fast
    diagonalization: solve(b) = Z (D^{-1} Z^T M b), Z^T M and Z the grid's
    `transform` and its inverse, D = `denominator` the Kronecker sum of the
    grid's 1D eigenvalues `eigen.values` ([even | odd] on each axis) plus alpha."""

    def __init__(self, op: TensorOperator, alpha: float):
        if alpha < 0:
            raise ValueError(f"shift alpha must be >= 0, got {alpha}")
        self.op, self.alpha = op, alpha
        # the transforms' matrices first, or they split the heap hole `total` leaves
        op.mirror or op._plain
        total = reduce(np.add.outer, [op.eigen.values] * op.dim)
        self.denominator = (total + alpha).reshape(-1)
        if np.any(self.denominator <= 0):
            raise SolverError("shifted operator is singular")

    def solve(self, b: np.ndarray) -> np.ndarray:
        # the quotient stays unnamed so that the first inverse pass frees it
        # (held, it costs a solve ~2%)
        return self.op.transform(self.op.transform(b) / self.denominator, inverse=True)


def shifted_solver(disc, alpha: float):
    """(-Delta_h + alpha I)^{-1} with .solve and its shift .alpha: a FastSolver
    on a tensor grid, else (an assembled P1 operator) one sparse LU of S + alpha M."""
    if isinstance(disc, TensorOperator):
        return FastSolver(disc, alpha)
    if alpha < 0:
        raise ValueError(f"shift alpha must be >= 0, got {alpha}")
    import scipy.sparse as sp  # on first use: tensor-grid runs never load scipy.sparse
    from scipy.sparse.linalg import factorized
    lu = factorized((disc.stiffness + alpha * sp.diags(disc.weights)).tocsc())
    return SimpleNamespace(solve=lambda b: lu(disc.weights * b), alpha=alpha)


class PCGBreakdown(SolverError):
    def __init__(self, iteration: int, curvature: float):
        super().__init__(f"pcg breakdown at iteration {iteration}: curvature {curvature}")
        self.iteration = iteration


def pcg(apply_A, apply_P, b, weights, tol=1e-10, maxiter=500):
    """Preconditioned CG in the weighted inner product <u, v> = u^T diag(w) v.

    apply_A must be symmetric positive definite in that inner product and
    apply_P a SPD preconditioner (an approximate inverse of A).  Returns
    (x, iterations, converged).
    """
    b = np.asarray(b, dtype=float)

    def inner(u, v):
        return float(np.dot(u * weights, v))

    bnorm = np.sqrt(inner(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0, True
    x = np.zeros_like(b)
    r = b.copy()
    z = apply_P(r)
    p = z.copy()
    rz = inner(r, z)
    for it in range(1, maxiter + 1):
        Ap = apply_A(p)
        pAp = inner(p, Ap)
        if pAp <= 0:
            raise PCGBreakdown(it, pAp)
        gamma = rz / pAp
        x += gamma * p
        r -= gamma * Ap
        if np.sqrt(inner(r, r)) <= tol * bnorm:
            return x, it, True
        z = apply_P(r)
        rz_new = inner(r, z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x, maxiter, False


def lobpcg(*args, **kwargs):  # scipy's, imported on the first call
    from scipy.sparse.linalg import lobpcg
    return lobpcg(*args, **kwargs)


@dataclass
class EigenResult:
    """The two lowest eigenvalues of an <.,.>_h-symmetric A v = lambda v, and v0 for lambda0."""

    lambda0: float
    lambda1: float
    v0: np.ndarray

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda0


def lowest_two_eigenpairs(apply_A, weights, tol=1e-9, solve_inner=None,
                          start=None) -> EigenResult:
    """The two smallest eigenpairs by LOBPCG (Knyazev 2001).

    apply_A acts on coefficient vectors and is symmetric w.r.t. the weighted
    inner product; solve_inner, when given, is the preconditioner (typically
    the solve of a shifted_solver for a shifted Laplacian close to A).
    LOBPCG starts from a seeded random block whose first columns the m <= 2
    vectors in `start` replace; a start must neither be orthogonal to the wanted
    eigenvectors nor keep a symmetry (a parity, say) that they break.
    LOBPCG runs on the similar standard problem in y = sqrt(w) v, where the
    h-norm is the 2-norm.  Both pairs meet ||A v - lambda v||_h <= tol |lambda|,
    else SolverError; lambdas ascend, and the returned v0 is h-normalized with a
    nonnegative weighted mean.
    """
    s = np.sqrt(weights)[:, None]

    def similar(f):  # Y -> s f(Y / s), column by column
        return lambda Y: s * np.column_stack([f(x) for x in (Y / s).T])

    A = similar(apply_A)
    M = None if solve_inner is None else similar(solve_inner)
    Y = np.random.default_rng(0).standard_normal((len(weights), 2))
    if start is not None:
        Y[:, :len(start)] = s * np.column_stack(start)
    # lobpcg's tol is absolute: when |lambda| < 1, go on from the last block
    atol = tol
    for _ in range(2):
        with warnings.catch_warnings():  # the contract is checked below
            warnings.simplefilter("ignore", UserWarning)
            lam, Y = lobpcg(A, Y, M=M, tol=atol, maxiter=500, largest=False)
        res = np.linalg.norm(A(Y) - Y * lam, axis=0)
        if np.all(res <= tol * np.abs(lam)):
            break
        atol = tol * float(np.min(np.abs(lam)))
    else:
        raise SolverError(f"LOBPCG missed ||A v - lambda v||_h <= {tol} |lambda|: "
                          f"residuals {res}, lambda {lam}")
    V = Y / s
    V *= np.where(weights @ V < 0, -1.0, 1.0)
    return EigenResult(float(lam[0]), float(lam[1]), V[:, 0])
