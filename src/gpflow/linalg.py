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
LOBPCG.  `daxpy` fuses the flows' updates y <- a x + y by the CBLAS daxpy of numpy's
BLAS, through ctypes (scipy's f2py daxpy where numpy's linalg extension links none).
"""

from __future__ import annotations

import ctypes
import warnings
from dataclasses import dataclass
from functools import reduce
from types import SimpleNamespace

import numpy as np

from .grids import TensorOperator


class SolverError(RuntimeError):
    pass


def _cblas_daxpy():
    """The CBLAS daxpy, bound, of the scipy-openblas that numpy >= 2.0's wheels link
    (64-bit integers), by dlsym on numpy's linalg extension, or None."""
    try:
        f = ctypes.CDLL(np.linalg._umath_linalg.__file__).scipy_cblas_daxpy64_
    except (OSError, AttributeError):
        return None
    i = ctypes.c_int64
    f.argtypes, f.restype = (i, ctypes.c_double, ctypes.c_void_p, i, ctypes.c_void_p, i), None
    return f


_CBLAS_DAXPY = _cblas_daxpy()


def daxpy(x, y: np.ndarray, a: float = 1.0) -> np.ndarray:
    """y <- a x + y in place, returning y; the checks below guard the foreign call's memory."""
    x = np.ascontiguousarray(x, dtype=float)
    if not (isinstance(y, np.ndarray) and y.dtype == np.float64 and y.ndim == 1
            and y.shape == x.shape and y.flags.c_contiguous and y.flags.writeable):
        raise ValueError("daxpy needs a writeable 1-D C-contiguous float64 y as long as x")
    if _CBLAS_DAXPY is None:
        from scipy.linalg.blas import daxpy as f2py_daxpy
        return f2py_daxpy(x, y, a=a)
    _CBLAS_DAXPY(len(y), a, x.ctypes.data, 1, y.ctypes.data, 1)
    return y


class FastSolver:
    """Direct tensor-product solver for (-Delta_h + alpha I) x = b by fast
    diagonalization: solve(b) = Z (D^{-1} Z^T M b), Z^T M and Z the grid's
    `transform` and its inverse, D = `denominator` the Kronecker sum of the
    grid's 1D eigenvalues `eigen.values` ([even | odd] on each axis) plus alpha."""

    def __init__(self, op: TensorOperator, alpha: float):
        if not 0 <= alpha < np.inf:
            raise ValueError(f"shift alpha must be >= 0, got {alpha}")
        self.op, self.alpha = op, alpha
        # the transforms' matrices first, or they split the heap hole `total` leaves
        op.mirror or op._plain
        total = reduce(np.add.outer, [op.eigen.values] * op.dim)
        self.denominator = (total + alpha).reshape(-1)
        if np.any(self.denominator <= 0):
            raise SolverError("shifted operator is singular")

    def solve(self, b: np.ndarray) -> np.ndarray:
        # the quotient stays unnamed so that a folded grid's first inverse pass frees
        # it (held, it costs a solve ~2%); the plain passes hold their input to the end
        return self.op.transform(self.op.transform(b) / self.denominator, inverse=True)


def shifted_solver(disc, alpha: float):
    """(-Delta_h + alpha I)^{-1} with .solve and its shift .alpha: a FastSolver
    on a tensor grid, else (an assembled P1 operator) one sparse LU of S + alpha M."""
    if isinstance(disc, TensorOperator):
        return FastSolver(disc, alpha)
    if not 0 <= alpha < np.inf:
        raise ValueError(f"shift alpha must be >= 0, got {alpha}")
    import scipy.sparse as sp  # on first use: tensor-grid runs never load scipy.sparse
    from scipy.sparse.linalg import factorized
    lu = factorized((disc.stiffness + alpha * sp.diags(disc.weights)).tocsc())
    return SimpleNamespace(solve=lambda b: lu(disc.weights * b), alpha=alpha)


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
            raise SolverError(f"pcg breakdown at iteration {it}: curvature {pAp}")
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
    """lambda0 = <v0, A v0>_h at an h-unit v0; lambda1 = A's lowest eigenvalue on
    v0's h-orthogonal complement, or an upper bound on it below lambda0."""

    lambda0: float
    lambda1: float

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda0


def lowest_two_eigenpairs(apply_A, weights, v0, tol=1e-9, solve_inner=None) -> EigenResult:
    """v0's Rayleigh value and, by one LOBPCG column (Knyazev 2001) constrained
    to v0's h-orthogonal complement, A's lowest eigenvalue theta there.

    apply_A is symmetric in the weighted inner product; solve_inner, when given,
    preconditions it.  LOBPCG runs on the similar problem in y = sqrt(w) v, where
    the h-norm is the 2-norm, from the ramp 1, ..., n: positive, and of no parity.
    theta < lambda0 proves that v0 is not A's lowest eigenvector, converged or not;
    else ||A v - theta v||_h <= tol |theta| or SolverError, as below 6 unknowns,
    where scipy's LOBPCG takes no constraint.
    """
    n = len(weights)
    if n < 6:
        raise SolverError(f"LOBPCG on v0's complement needs at least 6 unknowns, got {n}")
    s = np.sqrt(weights)[:, None]

    def similar(f):  # lobpcg's one column y -> s f(y / s)
        return lambda Y: s * f(Y[:, 0] / s[:, 0])[:, None]

    A = similar(apply_A)
    M = None if solve_inner is None else similar(solve_inner)
    y0 = s * v0[:, None] / np.linalg.norm(s[:, 0] * v0)
    lambda0 = float(np.vdot(y0, A(y0)))
    with warnings.catch_warnings():  # the contract is checked below
        warnings.simplefilter("ignore", UserWarning)
        lam, Y = lobpcg(A, s * np.arange(1.0, n + 1)[:, None], M=M, Y=y0,
                        tol=tol * abs(lambda0), maxiter=500, largest=False)
    theta, res = float(lam[0]), np.linalg.norm(A(Y) - lam * Y)
    if theta >= lambda0 and res > tol * abs(theta):
        raise SolverError(f"LOBPCG missed ||A v - theta v||_h <= {tol} |theta| on "
                          f"v0's complement: residual {res:.3e}, theta {theta}")
    return EigenResult(lambda0, theta)
