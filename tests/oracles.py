"""Dense oracles for small discretizations: -Delta_h and A_u assembled column by
column, the M-matrix and inverse-nonnegativity checks, and the convexity of
v -> E_h(sqrt(v)).  They describe the discretization, not a run, so they serve
the tests only; each builds an ndof x ndof matrix.  Beside them, the 1D set-up as
products and loops: the per-cell assembly and the mirror sectors' restriction and
extension by the dense n x k matrix P, which `gpflow.grids` does by index arithmetic,
and the tensor passes axis by axis, each into a new array (`gpflow.grids` runs a 3D
grid's axes 1 and 2 in place per chunk).  Last, the memory tests' one tracemalloc
measure."""

import math
import tracemalloc
from dataclasses import dataclass

import numpy as np

from gpflow.energy import Problem, State, energy
from gpflow.grids import (Eigen1D, GridSpec, Operator1D, Scheme, gauss_lobatto_rule,
                          generalized_sym_eig, lagrange_diff_matrix)


def assembly_loop(spec: GridSpec) -> Operator1D:
    """`build_1d` cell by cell: each cell writes its nodes (a shared node keeps the
    later cell's) and adds its local weights and stiffness to the global arrays."""
    L, h, k = spec.half_width, spec.cell_size, spec.degree
    ref_nodes, ref_w = gauss_lobatto_rule(k)
    D = lagrange_diff_matrix(ref_nodes)
    Sloc = (2.0 / h) * D.T @ (ref_w[:, None] * D)
    wloc = (h / 2.0) * ref_w
    n_total = spec.cells_per_dim * k + 1
    nodes_g = np.empty(n_total)
    weights_g = np.zeros(n_total)
    S_g = np.zeros((n_total, n_total))
    for c in range(spec.cells_per_dim):
        left = -L + c * h
        idx = slice(c * k, c * k + k + 1)
        nodes_g[idx] = left + (ref_nodes + 1.0) * h / 2.0
        weights_g[idx.start:idx.stop] += wloc
        S_g[idx, idx] += Sloc
    keep = slice(1, n_total - 1)
    S = np.ascontiguousarray(S_g[keep, keep])
    if spec.scheme is Scheme.COMPACT4:
        S = np.linalg.solve(np.eye(len(S)) - (h / 12.0) * S, S)
        S = 0.5 * (S + S.T)
    return Operator1D(nodes_g[keep], weights_g[keep], S)


def mirror_matrix(n: int, k: int, sign: float) -> np.ndarray:
    """The n x k P with P v = [v | sign Jv] (J the reversal), an odd n's centre once."""
    P, i = np.zeros((n, k)), np.arange(k)
    P[i, i], P[n - 1 - i, i] = 1.0, sign
    return P


def sector_by_products(op: Operator1D, k: int, sign: float) -> Operator1D:
    """Operator1D(nodes[:k], diag(P^T M P), P^T S P) by dense products."""
    P = mirror_matrix(op.n, k, sign)
    return Operator1D(op.nodes[:k], (P * P).T @ op.weights, P.T @ op.stiffness @ P)


def eigen_by_products(op: Operator1D, sector_eigen=None) -> Eigen1D:
    """The pencil's eigenbasis [even | odd] from its sectors, each extended by P Y: Y
    from `sector_eigen(k, sign)` if given (a degree-1 grid's closed form), else from
    the eigensolve of P^T S P and diag(P^T M P)."""
    n, sectors = op.n, []
    for k, sign in (((n + 1) // 2, 1.0), (n // 2, -1.0)):
        if k:
            e = (sector_eigen(k, sign) if sector_eigen else
                 generalized_sym_eig(sector_by_products(op, k, sign)))
            sectors.append((e.values, mirror_matrix(n, k, sign) @ e.vectors))
    return Eigen1D(*map(np.hstack, zip(*sectors)))


def axis_apply(X: np.ndarray, axis: int, mat: np.ndarray) -> np.ndarray:
    """(I x mat x I) X for an (m, n) mat along one axis of a grid array, by one
    batched GEMM into a new C-contiguous array."""
    out = np.empty(X.shape[:axis] + (len(mat),) + X.shape[axis + 1:])
    k = math.prod(X.shape[:axis])
    np.matmul(mat, X.reshape(k, X.shape[axis], -1), out=out.reshape(k, len(mat), -1))
    return out


def kron_product(X: np.ndarray, m: np.ndarray, mt: np.ndarray) -> np.ndarray:
    """m along every axis of X, each pass into a new array; the last axis as
    slabs times mt, m's transpose."""
    for axis in range(X.ndim - 1):
        X = axis_apply(X, axis, m)
    return np.matmul(X, mt)


def kron_sum(X: np.ndarray, m: np.ndarray, mt: np.ndarray) -> np.ndarray:
    """The Kronecker sum's terms, each into a new array (the last axis's as X mt),
    added in axis order."""
    terms = [axis_apply(X, axis, m) for axis in range(X.ndim - 1)] + [np.matmul(X, mt)]
    out = terms[0]
    for t in terms[1:]:
        out += t
    return out


@dataclass(frozen=True)
class MMatrixReport:
    passes_sufficient: bool
    witness: str


def m_matrix_check(A: np.ndarray) -> MMatrixReport:
    """Sufficient M-matrix test of a dense A: positive diagonal, nonpositive
    off-diagonal, nonnegative row sums with at least one positive row sum."""
    A = np.asarray(A, dtype=float)
    diag = np.diag(A)
    if np.any(diag <= 0):
        i = int(np.argmin(diag))
        return MMatrixReport(False, f"nonpositive diagonal at row {i}: {diag[i]}")
    off_max = np.max(A - np.diag(diag))
    if off_max > 1e-13 * np.max(diag):
        return MMatrixReport(False, f"positive off-diagonal entry {off_max}")
    rowsums = A.sum(axis=1)
    tol = 1e-10 * np.max(np.abs(diag))
    if np.any(rowsums < -tol):
        i = int(np.argmin(rowsums))
        return MMatrixReport(False, f"negative row sum at row {i}: {rowsums[i]}")
    if not np.any(rowsums > tol):
        return MMatrixReport(False, "no strictly positive row sum")
    return MMatrixReport(True, "")


def monotonicity_oracle(A: np.ndarray) -> bool:
    """Explicit-inverse check that A^{-1} >= 0 entrywise (small dense only)."""
    A = np.asarray(A, dtype=float)
    if A.shape[0] > 200:
        raise ValueError("monotonicity oracle is restricted to n <= 200")
    inv = np.linalg.inv(A)
    return bool(np.min(inv) >= -1e-12 * np.max(np.abs(inv)))


def dense_neg_laplacian(disc) -> np.ndarray:
    """Densely assembled -Delta_h via unit-vector applies."""
    n = disc.ndof
    A = np.empty((n, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        A[:, j] = disc.apply_neg_laplacian(e)
        e[j] = 0.0
    return A


def dense_Au(state: State, problem: Problem) -> np.ndarray:
    return (dense_neg_laplacian(state.disc)
            + np.diag(problem.potential + problem.beta * state.coeffs ** 2))


@dataclass(frozen=True)
class ConvexityReport:
    supported: bool
    hessian_psd: bool
    abs_value_inequality: bool


def sqrt_energy_hessian(S: np.ndarray, weights: np.ndarray, beta: float,
                        v: np.ndarray) -> np.ndarray:
    """Hessian of v -> E_h(sqrt(v)) at v > 0, with S = W(-Delta_h) and s = sqrt(v):
    1/4 diag(1/s) S diag(1/s) - 1/4 diag(S s / s^3) + (beta/2) W (V's term is
    linear in v)."""
    s = np.sqrt(v)
    H = S / np.outer(s, s)
    H += np.diag(-(S @ s) / s ** 3 + 2.0 * beta * weights)
    return 0.25 * H


def convexity_check(disc, problem: Problem, samples: int = 20,
                    rng=None) -> ConvexityReport:
    """(a) the Hessian of v -> E_h(sqrt(v)) is PSD at random positive v; (b) E_h(u) >=
    E_h(|u|) for random u.  Unsupported unless `disc.monotone` (-Delta_h an M-matrix)."""
    if not disc.monotone:
        return ConvexityReport(False, False, False)
    rng = np.random.default_rng(0) if rng is None else rng
    S = disc.weights[:, None] * dense_neg_laplacian(disc)
    min_eig = np.inf
    scale = 0.0
    for _ in range(samples):
        v = rng.uniform(0.2, 1.0, size=disc.ndof)
        v /= float(np.dot(disc.weights, v))
        H = sqrt_energy_hessian(S, disc.weights, problem.beta, v)
        scale = max(scale, float(np.max(np.abs(H))))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(H)[0]))

    abs_ok = True
    for _ in range(samples):
        u = rng.standard_normal(disc.ndof)
        if energy(State(u, disc), problem) < energy(State(np.abs(u), disc), problem) - 1e-12:
            abs_ok = False
    return ConvexityReport(True, min_eig >= -1e-8 * max(scale, 1.0), abs_ok)


def traced_in_vectors(f, ndof: int):
    """(f(), peak, kept): tracemalloc's peak over f() and what f() left allocated, each
    above what was allocated before it and in ndof-sized float64 vectors (numpy reports
    its buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = f()
        kept, peak = (m - start for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return result, peak / (8 * ndof), kept / (8 * ndof)
