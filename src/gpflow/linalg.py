"""Shifted-Laplacian solves, PCG, and LOBPCG for the lowest eigenpairs.

`shifted_solver(disc, alpha)` picks the solver for (-Delta_h + alpha I)^{-1}.
On a tensor grid it is a FastSolver, by fast diagonalization (Lynch, Rice &
Thomas 1964): one eigendecomposition of the grid's 1D pencil S z = mu M z,
then per axis a forward transform, division by the Kronecker-sum
eigenvalues plus alpha, and per axis a back transform.  Cost is
O(d n^{d+1}) per solve and no d-dimensional matrix is ever formed.  On an
assembled P1 mesh it is one sparse LU of S + alpha M, and
solve(b) = (S + alpha M)^{-1} M b.  The shifted solver is also the
preconditioner of the metric flows' PCG and of the eigensolver, scipy's
LOBPCG.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import factorized, lobpcg

from .grids import Operator1D, TensorOperator, axis_apply


class SolverError(RuntimeError):
    pass


@dataclass
class Eigen1D:
    """M-orthonormal eigendecomposition of the 1D pencil S z = mu M z."""

    values: np.ndarray   # ascending
    vectors: np.ndarray  # columns z_i, Z^T M Z = I


def generalized_sym_eig(op: Operator1D) -> Eigen1D:
    S = op.stiffness
    if not np.allclose(S, S.T, rtol=0, atol=1e-12 * np.abs(S).max()):
        raise SolverError("stiffness matrix is not symmetric")
    if np.any(op.weights <= 0):
        raise SolverError("mass weights must be strictly positive")
    if op.mass_aux is not None:
        # COMPACT4: diagonalize T^{-1} M^{-1} S through the pencil (M^{-1}S, T);
        # T and M^{-1}S commute, so eigenvectors are M-orthogonal.
        K = S / op.weights[:, None]
        mu, Z = scipy.linalg.eigh(K, op.mass_aux)
        norms = np.sqrt(np.einsum("ij,i,ij->j", Z, op.weights, Z))
        Z = Z / norms
    else:
        d = np.sqrt(op.weights)
        A = S / d[:, None] / d[None, :]
        A = 0.5 * (A + A.T)
        mu, Y = np.linalg.eigh(A)
        Z = Y / d[:, None]
    mu = np.maximum(mu, 0.0)  # clip -1e-16 round-off on the smallest modes
    return Eigen1D(values=mu, vectors=Z)


class FastSolver:
    """Direct tensor-product solver for (-Delta_h + alpha I) x = b: solve(b) =
    backward(forward(b) / denominator), forward(b) = Z^T M b and backward(c) = Z c
    each one pass per axis; Z is the grid's 1D eigenbasis `op.eigen`, shared.
    2D grids from n = FOLD_MIN_N on split each pass in two halves by `fold` =
    `op.mirror` (else None), the modes running [even | odd] along each axis.  Solve
    time, fold / plain, 1 BLAS thread: n = 63 x1.63, 79 x1.37, 99 x1.14, 103 x0.91,
    127 x0.74, 199 x0.80, 299 x0.72, 479 x0.66 (3D, a prototype: 39 x1.33, 47 x~1.5,
    79 x~1.15, 99 x~1.45, 149 x~1.0)."""

    FOLD_MIN_N = 100

    def __init__(self, op: TensorOperator, alpha: float):
        if alpha < 0:
            raise ValueError(f"shift alpha must be >= 0, got {alpha}")
        self.op, self.alpha, e = op, alpha, op.eigen
        self.fold = op.mirror if op.dim == 2 and op.n >= self.FOLD_MIN_N else None
        if self.fold is None:  # [(Z, ...), (Z^T M, ...)], each with its 3D slabs' transpose
            self._plain = [(m, np.ascontiguousarray(m.T) if op.dim == 3 else None)
                           for m in (e.vectors, e.vectors.T * op.op.weights)]
        total = values = e.values if self.fold is None else e.values[self.fold.perm]
        for _ in range(op.dim - 1):
            total = total[..., None] + values
        self.denominator = (total + alpha).reshape(-1)
        if np.any(self.denominator <= 0):
            raise SolverError("shifted operator is singular")

    def _transform(self, X: np.ndarray, forward: bool) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape != (self.op.ndof,):
            raise ValueError(f"expected vector of length {self.op.ndof}, got shape {X.shape}")
        X, f, h = X.reshape(self.op.shape), self.fold, (self.op.n + 1) // 2
        for axis in range(self.op.dim):
            head, tail = ((slice(None),) * axis + (s,) for s in (slice(h), slice(h, None)))
            if f is None:
                X = axis_apply(X, axis, *self._plain[forward])
                continue
            S, A = ((X[head] + np.flip(X, axis)[head], X[head] - np.flip(X, axis)[head]) if forward
                    else (axis_apply(X[head], axis, f.be), axis_apply(X[tail], axis, f.bo)))
            del X  # frees the pass's input unless a caller holds it
            X = np.empty(self.op.shape)
            if forward:  # [fe (x + Jx)[:h] | fo (x - Jx)[:h]]
                axis_apply(S, axis, f.fe, out=X[head])
                axis_apply(A, axis, f.fo, out=X[tail])
            else:  # [E + O | J(E - O)] with E = be c_even and O = bo c_odd
                np.subtract(S, A, out=np.flip(X, axis)[head])
                np.add(S, A, out=X[head])  # last: an odd n's centre row is E + O
            S = A = None  # before the next pass
        return X.reshape(-1)  # a fresh array

    def forward(self, b: np.ndarray) -> np.ndarray:  # Z^T M b
        return self._transform(b, True)

    def backward(self, c: np.ndarray) -> np.ndarray:  # Z c, forward's inverse
        return self._transform(c, False)

    def solve(self, b: np.ndarray) -> np.ndarray:
        # backward(forward(b) / D); the quotient stays unnamed so that the
        # first backward pass frees it (held, it costs a solve ~2%)
        return self._transform(self.forward(b) / self.denominator, False)


def shifted_solver(disc, alpha: float):
    """(-Delta_h + alpha I)^{-1} with .solve and its shift .alpha: a FastSolver
    on a tensor grid, else (an assembled P1 operator) one sparse LU of S + alpha M."""
    if isinstance(disc, TensorOperator):
        return FastSolver(disc, alpha)
    if alpha < 0:
        raise ValueError(f"shift alpha must be >= 0, got {alpha}")
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


@dataclass
class EigenResult:
    """Lowest eigenpairs of an <.,.>_h-symmetric operator A v = lambda v;
    lambda1 and v1 are None when one pair was asked for."""

    lambda0: float
    lambda1: float | None
    v0: np.ndarray
    v1: np.ndarray | None

    @property
    def gap(self) -> float:
        return self.lambda1 - self.lambda0


def lowest_two_eigenpairs(apply_A, weights, tol=1e-9, solve_inner=None,
                          k=2, start=None) -> EigenResult:
    """The k (1 or 2) smallest eigenpairs by LOBPCG (Knyazev 2001).

    apply_A acts on coefficient vectors and is symmetric w.r.t. the weighted
    inner product; solve_inner, when given, is the preconditioner (typically
    the solve of a shifted_solver for a shifted Laplacian close to A).
    LOBPCG starts from a seeded random block whose first columns the m <= k
    vectors in `start` replace; a start must neither be orthogonal to the wanted
    eigenvectors nor keep a symmetry (a parity, say) that they break.
    LOBPCG runs on the similar standard problem in y = sqrt(w) v, where the
    h-norm is the 2-norm.  Every returned pair meets ||A v - lambda v||_h <= tol |lambda|,
    else SolverError; lambdas ascend, and each v is h-normalized with a
    nonnegative weighted mean.
    """
    if k not in (1, 2):
        raise ValueError(f"k must be 1 or 2, got {k}")
    s = np.sqrt(weights)[:, None]

    def similar(f):  # Y -> s f(Y / s), column by column
        return lambda Y: s * np.column_stack([f(x) for x in (Y / s).T])

    A = similar(apply_A)
    M = None if solve_inner is None else similar(solve_inner)
    Y = np.random.default_rng(0).standard_normal((len(weights), k))
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
    lambda1, v1 = (float(lam[1]), V[:, 1]) if k == 2 else (None, None)
    return EigenResult(lambda0=float(lam[0]), lambda1=lambda1, v0=V[:, 0], v1=v1)
