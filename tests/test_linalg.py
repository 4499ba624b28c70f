import ctypes
import gc
import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import gpflow
from gpflow.energy import Problem, State, riemannian_gradient, retract
from gpflow.flows import default_initial_state
from gpflow.grids import (GridSpec, Operator1D, Scheme, TensorOperator, build_1d,
                          generalized_sym_eig)
from gpflow import linalg
from gpflow.linalg import (FastSolver, SolverError, daxpy,
                           lowest_two_eigenpairs, pcg)
from gpflow.potentials import sin2_product

from test_tensor import dense, dense_lap


def counting(f):
    """f, counting its calls in .calls."""
    def counted(*args):
        counted.calls += 1
        return f(*args)

    counted.calls = 0
    return counted


ALL_1D = [
    GridSpec(1.0, 1, 12, Scheme.FD2),
    GridSpec(1.0, 1, 12, Scheme.COMPACT4),
    GridSpec(1.0, 1, 4, Scheme.SEM, 3),
    GridSpec(2.0, 1, 2, Scheme.SEM, 2),
]


@pytest.mark.parametrize("spec", ALL_1D, ids=str)
def test_eigen_matches_dense_oracle(spec):
    op = build_1d(spec)
    eig = generalized_sym_eig(op)
    lap = op.laplacian_matrix()
    mu_oracle = np.sort(np.linalg.eigvals(lap).real)
    assert np.allclose(eig.values, mu_oracle, atol=1e-12 * max(1.0, mu_oracle.max()))
    # M-orthonormal columns
    Z = eig.vectors
    G = Z.T @ (op.weights[:, None] * Z)
    assert np.allclose(G, np.eye(op.n), atol=1e-10)
    # eigen residual in the pencil sense
    for i in range(op.n):
        r = lap @ Z[:, i] - eig.values[i] * Z[:, i]
        assert np.linalg.norm(r) <= 1e-9 * max(1.0, eig.values[i])


@pytest.mark.parametrize("stiffness, weights, match", [
    ([[2.0, -1.0], [-0.5, 2.0]], [1.0, 1.0], "not symmetric"),
    ([[2.0, -1.0], [-1.0, 2.0]], [1.0, 0.0], "strictly positive")])
def test_eigen_refuses_asymmetric_stiffness_or_nonpositive_mass(stiffness, weights, match):
    op = Operator1D(np.array([-0.5, 0.5]), np.array(weights), np.array(stiffness))
    with pytest.raises(ValueError, match=match):
        generalized_sym_eig(op)


def test_fd2_eigenvalues_closed_form():
    spec = GridSpec(1.0, 1, 16, Scheme.FD2)
    eig = generalized_sym_eig(build_1d(spec))
    h = spec.cell_size
    k = np.arange(1, spec.interior_per_dim + 1)
    want = (4.0 / h ** 2) * np.sin(k * np.pi * h / 4.0) ** 2
    assert np.allclose(eig.values, want, atol=1e-10 * want.max())


def test_sem2_two_cells_vs_generalized_dense():
    spec = GridSpec(1.0, 1, 2, Scheme.SEM, 2)
    op = build_1d(spec)
    mu, _ = scipy.linalg.eigh(op.stiffness, np.diag(op.weights))
    eig = generalized_sym_eig(op)
    assert np.allclose(eig.values, mu, atol=1e-12 * max(1.0, mu.max()))


@pytest.mark.parametrize("spec", [
    GridSpec(1.0, 2, 8, Scheme.FD2),
    GridSpec(1.0, 2, 8, Scheme.COMPACT4),
    GridSpec(1.0, 3, 3, Scheme.FD2),
    GridSpec(1.0, 2, 3, Scheme.SEM, 2),
    GridSpec(1.0, 1, 2, Scheme.FD2),  # n = 1: no odd sector
    GridSpec(1.0, 3, 2, Scheme.FD2),
], ids=str)
def test_fast_solver_matches_dense(spec):
    disc = TensorOperator(spec)
    alpha = 0.15
    fs = FastSolver(disc, alpha)
    A = dense_lap(disc) + alpha * np.eye(disc.ndof)
    rng = np.random.default_rng(0)
    for _ in range(3):
        b = rng.standard_normal(disc.ndof)
        x = fs.solve(b)
        want = np.linalg.solve(A, b)
        assert np.allclose(x, want, atol=1e-11 * max(1.0, np.abs(want).max()))
        # round trip
        assert np.allclose(disc.apply_neg_laplacian(x) + alpha * x, b,
                           atol=1e-11 * max(1.0, np.abs(b).max()))


@pytest.mark.parametrize("spec", [
    GridSpec(1.0, 2, 8, Scheme.FD2),
    GridSpec(1.0, 3, 6, Scheme.COMPACT4),
    GridSpec(1.0, 3, 3, Scheme.SEM, 3),
    GridSpec(8.0, 2, 128, Scheme.FD2),  # folded, n = 127 odd
    GridSpec(8.0, 2, 101, Scheme.COMPACT4),  # folded, n = 100 even
], ids=str)
def test_fast_solver_is_its_two_transform_halves(spec):
    """solve(b) = T^{-1}(T(b) / D) bit for bit with T the grid's transform, and
    the inverse transform inverts it: T(T^{-1}(c)) = c since Z^T M Z = I."""
    disc = TensorOperator(spec)
    fs = FastSolver(disc, 0.15)
    rng = np.random.default_rng(3)
    for _ in range(3):
        b = rng.standard_normal(disc.ndof)
        assert np.array_equal(fs.solve(b),
                              disc.transform(disc.transform(b) / fs.denominator, inverse=True))
        c = rng.standard_normal(disc.ndof)
        assert np.allclose(disc.transform(disc.transform(c, inverse=True)), c,
                           rtol=0, atol=1e-13 * np.abs(c).max())


@pytest.mark.parametrize("spec", [
    GridSpec(1.0, 3, 6, Scheme.SEM, 3),
    GridSpec(8.0, 2, 64, Scheme.FD2),  # plain passes
    GridSpec(8.0, 2, 128, Scheme.FD2),  # folded
], ids=str)
def test_fast_solver_keeps_only_its_shift(spec):
    """A solver holds its grid, its shift and its denominator; the transforms
    and everything they read belong to the grid."""
    assert set(vars(FastSolver(TensorOperator(spec), 0.15))) == {"op", "alpha", "denominator"}


@pytest.mark.parametrize("spec", [
    GridSpec(8.0, 3, 4, Scheme.SEM, 2),
    GridSpec(8.0, 3, 8, Scheme.FD2),  # degree 1: the closed form, no eigensolve
    GridSpec(8.0, 3, 8, Scheme.COMPACT4),
], ids=str)
def test_fast_solver_decomposes_the_1d_pencil_once(monkeypatch, spec):
    """Every axis shares one 1D operator, and solvers for any shift and the
    linear start's mode share its eigendecomposition: a sem grid decomposes each
    of its two mirror sectors once, a degree-1 grid none.  The solves match those
    of a solver on a grid of its own, bit for bit."""
    calls = []

    def counted(op):
        calls.append(op)
        return generalized_sym_eig(op)

    monkeypatch.setattr("gpflow.grids.generalized_sym_eig", counted)
    disc = TensorOperator(spec)
    solvers = [FastSolver(disc, alpha) for alpha in (0.0, 0.15, 10.15)]
    default_initial_state(disc, "linear",
                          Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15))
    sectors = [(disc.n + 1) // 2, disc.n // 2]
    assert [op.n for op in calls] == (sectors if spec.degree > 1 else [])
    b = np.random.default_rng(5).standard_normal(disc.ndof)
    for fs in solvers:
        alone = FastSolver(TensorOperator(spec), fs.alpha)
        assert np.array_equal(fs.denominator, alone.denominator)
        assert np.array_equal(fs.solve(b), alone.solve(b))


@pytest.mark.parametrize("spec", ALL_1D + [
    GridSpec(1.0, 1, 2, Scheme.FD2),  # n = 1: no odd sector
    GridSpec(1.0, 1, 3, Scheme.FD2),  # n = 2
], ids=str)
def test_grid_eigenbasis_runs_even_then_odd(spec):
    """The grid's eigenbasis, built from its two mirror sectors, is
    M-orthonormal, its first ceil(n/2) columns are even and the rest odd
    (<z, Jz>_M = +-1, J the reversal), and its values are the dense
    oracle's."""
    disc = TensorOperator(spec)
    Z, w, n = disc.eigen.vectors, disc.op.weights, disc.n
    assert np.abs(Z.T @ (w[:, None] * Z) - np.eye(n)).max() <= 1e-13
    parity = np.einsum("ij,i,ij->j", Z, w, Z[::-1])
    h = (n + 1) // 2
    assert np.abs(parity - np.r_[np.ones(h), -np.ones(n - h)]).max() <= 1e-13
    mu_oracle = np.sort(np.linalg.eigvals(disc.op.laplacian_matrix()).real)
    assert np.allclose(np.sort(disc.eigen.values), mu_oracle,
                       atol=1e-12 * max(1.0, mu_oracle.max()))


@pytest.mark.parametrize("spec", [
    GridSpec(8.0, 2, 300, Scheme.FD2),
    GridSpec(8.0, 2, 299, Scheme.FD2),
    GridSpec(8.0, 2, 299, Scheme.COMPACT4),
    GridSpec(8.0, 2, 150, Scheme.SEM, 2),
], ids=str)
def test_folded_transforms_are_the_kronecker_products(spec):
    """On n = 299 and 298 the folded transform is (F x F) b, F = Z^T M, and
    its inverse (Z x Z) c, to 1e-13 relative, with Z the grid's eigenbasis
    itself, whose columns run [even | odd].  The half blocks are views of it.
    The folded solve's residual stays below 1e-13 relative."""
    disc = TensorOperator(spec)
    fs = FastSolver(disc, 0.15)
    assert disc.mirror is not None
    Z = disc.eigen.vectors
    assert all(np.shares_memory(b, Z) for b in (disc.mirror.be, disc.mirror.bo))
    F = Z.T * disc.op.weights
    B, C = np.random.default_rng(7).standard_normal((2,) + disc.shape)
    for got, want in ((disc.transform(B.ravel()), F @ B @ F.T),
                      (disc.transform(C.ravel(), inverse=True), Z @ C @ Z.T)):
        assert np.linalg.norm(got - want.ravel()) <= 1e-13 * np.linalg.norm(want)
    b = B.ravel()
    x = fs.solve(b)
    assert np.linalg.norm(disc.apply_neg_laplacian(x) + 0.15 * x - b) <= 1e-13 * np.linalg.norm(b)


@pytest.mark.parametrize("spec, folds", [
    (GridSpec(8.0, 3, 100, Scheme.FD2), False), (GridSpec(8.0, 3, 24, Scheme.SEM, 2), False),
    (GridSpec(8.0, 2, 64, Scheme.FD2), False), (GridSpec(8.0, 2, 150, Scheme.SEM, 2), True),
    (GridSpec(8.0, 2, 129, Scheme.FD2), True)], ids=str)
def test_fold_selection_rule(monkeypatch, spec, folds):
    """2D grids with n >= FOLD_MIN_N fold; 3D grids and small n keep the
    plain passes.  Either way a sem grid decomposes its two sectors once and
    a degree-1 grid none (n = 99, 47, 63, 299 and 128)."""
    calls = counting(generalized_sym_eig)
    monkeypatch.setattr("gpflow.grids.generalized_sym_eig", calls)
    disc = TensorOperator(spec)
    FastSolver(disc, 0.0)
    assert (disc.mirror is not None) is folds
    disc.transform(np.ones(disc.ndof))
    assert calls.calls == (2 if spec.degree > 1 else 0)


def test_zero_stiffness_at_zero_shift_is_singular():
    """A 1D operator with zero stiffness has a zero eigenvalue, so at alpha = 0
    the shifted operator -Delta_h + alpha is singular and the solver refuses it."""
    n = 5
    op = Operator1D(np.linspace(-1, 1, n + 2)[1:-1], np.full(n, 1 / 3), np.zeros((n, n)))
    disc = TensorOperator(GridSpec(1.0, 2, n + 1, Scheme.FD2), op)
    with pytest.raises(SolverError, match="shifted operator is singular"):
        FastSolver(disc, 0.0)
    assert np.all(FastSolver(disc, 0.5).denominator == 0.5)


def test_folded_grid_shares_its_blocks_and_spectral_order(monkeypatch):
    """Solvers at three shifts on a folded grid share one eigenbasis (two
    sector decompositions) and its half blocks, and the spectral order is
    the grid's: a state's `transformed` serves them all, each gradient
    matching a fresh state's bit for bit."""
    calls = counting(generalized_sym_eig)
    monkeypatch.setattr("gpflow.grids.generalized_sym_eig", calls)
    disc = TensorOperator(GridSpec(8.0, 2, 43, Scheme.SEM, 3))  # n = 128
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15)
    solvers = [FastSolver(disc, alpha) for alpha in (0.0, 0.15, 10.15)]
    assert calls.calls == 2
    u = retract(disc, 1.0 + np.random.default_rng(2).random(disc.ndof))
    transformed = disc.transform(u)
    for fs in solvers:
        got = riemannian_gradient(State(u, disc, transformed=transformed.copy()), problem, fs)
        want = riemannian_gradient(State(u, disc), problem, fs)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert calls.calls == 2


@pytest.mark.parametrize("spec", [
    GridSpec(8.0, 2, 300, Scheme.FD2),  # h = 150 >= FOLD_MIN_N
    GridSpec(8.0, 3, 9, Scheme.COMPACT4),  # even n
    GridSpec(8.0, 3, 4, Scheme.SEM, 3),
    GridSpec(8.0, 1, 2, Scheme.FD2),  # n = 1
], ids=str)
def test_even_sector_grid(monkeypatch, spec):
    """The even sector's grid takes `eigen`'s even block with no decomposition
    of its own, which is its own pencil's M-orthonormal eigenbasis; it never
    folds; and its extension and multiplicity carry sums, inner products,
    the Laplacian and the shifted solve of even vectors to the full grid."""
    disc = TensorOperator(spec)
    disc.eigen
    calls = counting(generalized_sym_eig)
    monkeypatch.setattr("gpflow.grids.generalized_sym_eig", calls)
    even, h, d = disc.even, (disc.n + 1) // 2, disc.dim
    x = 1.0 + np.random.default_rng(3).random(even.ndof)
    y = FastSolver(even, 0.15).solve(x)
    assert calls.calls == 0
    assert even.mirror is None and disc.multiplicity is None
    assert even.shape == (h,) * d
    assert np.array_equal(even.eigen.values, disc.eigen.values[:h])
    assert np.array_equal(even.eigen.vectors, disc.eigen.vectors[:h, :h])
    Z, op, mu = even.eigen.vectors, even.op, even.eigen.values
    assert np.abs(Z.T @ (op.weights[:, None] * Z) - np.eye(h)).max() <= 1e-13
    assert (np.abs(op.stiffness @ Z - op.weights[:, None] * Z * mu).max()
            <= 1e-12 * max(1.0, mu.max()))
    X = even.extend(x)
    assert all(np.array_equal(np.flip(X.reshape(disc.shape), k), X.reshape(disc.shape))
               for k in range(d))
    assert np.array_equal(X.reshape(disc.shape)[(slice(h),) * d].ravel(), x)
    assert np.dot(even.multiplicity, x) == pytest.approx(X.sum(), rel=1e-14)
    assert np.dot(even.weights * x, x) == pytest.approx(np.dot(disc.weights * X, X), rel=1e-14)
    for got, want in ((even.extend(even.apply_neg_laplacian(x)), disc.apply_neg_laplacian(X)),
                      (even.extend(y), FastSolver(disc, 0.15).solve(X))):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_even_sector_grid_is_freed_with_its_parent():
    """A grid and its sector grid make no reference cycle: dropping the grid
    frees both without the cycle collector.  (With one, every set-up's grids
    outlived it, and a benchmark run of fd2 299^2 peaked 32 MiB higher.)"""
    gc.disable()
    try:
        disc = TensorOperator(GridSpec(8.0, 2, 9, Scheme.FD2))
        disc.even.extend(np.ones(disc.even.ndof))
        refs = weakref.ref(disc), weakref.ref(disc.even)
        del disc
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


def test_fast_solver_eigenvector_division():
    spec = GridSpec(1.0, 2, 8, Scheme.FD2)
    disc = TensorOperator(spec)
    alpha = 0.3
    fs = FastSolver(disc, alpha)
    h = spec.cell_size
    x1 = disc.op.nodes
    v1 = np.sin(np.pi * (x1 + 1.0) / 2.0)
    v2 = np.sin(2 * np.pi * (x1 + 1.0) / 2.0)
    mu = lambda k: (4.0 / h ** 2) * np.sin(k * np.pi * h / 4.0) ** 2
    b = np.outer(v1, v2).reshape(-1)
    assert np.allclose(fs.solve(b), b / (mu(1) + mu(2) + alpha), atol=1e-12)


def test_fast_solver_alpha_zero_poisson():
    spec = GridSpec(1.0, 2, 10, Scheme.FD2)
    disc = TensorOperator(spec)
    fs = FastSolver(disc, 0.0)
    b = np.ones(disc.ndof)
    x = fs.solve(b)
    assert np.allclose(disc.apply_neg_laplacian(x), b, atol=1e-11)


def test_fast_solver_rejects_negative_shift():
    disc = TensorOperator(GridSpec(1.0, 1, 8, Scheme.FD2))
    with pytest.raises(ValueError):
        FastSolver(disc, -1.0)


def test_pcg_exact_preconditioner_one_iteration():
    disc = TensorOperator(GridSpec(1.0, 2, 8, Scheme.FD2))
    fs = FastSolver(disc, 0.5)

    def apply(x):
        return disc.apply_neg_laplacian(x) + 0.5 * x

    b = np.random.default_rng(0).standard_normal(disc.ndof)
    x, it, ok = pcg(apply, fs.solve, b, disc.weights, tol=1e-10)
    assert ok and it == 1
    assert np.allclose(apply(x), b, atol=1e-9)


def test_pcg_diagonal_closed_form():
    n = 50
    rng = np.random.default_rng(0)
    d = rng.uniform(0.5, 3.0, size=n)
    b = rng.standard_normal(n)
    w = np.ones(n)
    x, _, ok = pcg(lambda u: d * u, lambda r: r, b, w, tol=1e-13, maxiter=500)
    assert ok
    assert np.allclose(x, b / d, atol=1e-12 * np.abs(b / d).max())


def test_pcg_laplacian_preconditioner_within_30_iterations():
    """A = -Delta_h + V on a 64^2 grid, P = (-Delta_h)^-1, tol 1e-10."""
    spec = GridSpec(16.0, 2, 64, Scheme.FD2)
    disc = TensorOperator(spec)
    V = sin2_product(disc.node_coordinates())
    pre = FastSolver(disc, 0.0)
    b = np.random.default_rng(0).standard_normal(disc.ndof)
    x, it, ok = pcg(lambda u: disc.apply_neg_laplacian(u) + V * u, pre.solve,
                    b, disc.weights, tol=1e-10, maxiter=100)
    assert ok
    assert it <= 30


def test_pcg_breakdown_on_indefinite():
    n = 4
    w = np.ones(n)
    A = np.diag([1.0, 1.0, 1.0, -1.0])
    b = np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(SolverError, match="breakdown at iteration 1: curvature -1.0"):
        pcg(lambda u: A @ u, lambda r: r, b, w, tol=1e-12)


def test_pcg_zero_rhs_returns_zero_without_a_solve():
    x, it, ok = pcg(lambda u: pytest.fail("A applied"), lambda r: pytest.fail("P applied"),
                    np.zeros(5), np.ones(5))
    assert np.array_equal(x, np.zeros(5)) and (it, ok) == (0, True)


def test_pcg_monotone_A_norm_error():
    rng = np.random.default_rng(0)
    n = 40
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    A = Q @ np.diag(rng.uniform(0.1, 10.0, n)) @ Q.T
    b = rng.standard_normal(n)
    x_star = np.linalg.solve(A, b)
    w = np.ones(n)
    errs = []
    for it in range(1, 25):
        x, _, _ = pcg(lambda u: A @ u, lambda r: r, b, w, tol=0.0, maxiter=it)
        e = x - x_star
        errs.append(float(e @ A @ e))
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_lowest_two_dense_oracle():
    spec = GridSpec(1.0, 1, 33, Scheme.FD2)
    disc = TensorOperator(spec)
    rng = np.random.default_rng(3)
    V = rng.uniform(0.0, 5.0, size=disc.ndof)
    A = dense_lap(disc) + np.diag(V)
    fs = FastSolver(disc, 1.0)
    v0 = default_initial_state(disc, "linear", Problem(V, 0.0, 1.0)).coeffs
    res = lowest_two_eigenpairs(lambda u: disc.apply_neg_laplacian(u) + V * u,
                                disc.weights, v0, tol=1e-10, solve_inner=fs.solve)
    oracle = np.sort(np.linalg.eigvals(A).real)[:2]
    assert np.allclose([res.lambda0, res.lambda1], oracle, atol=1e-8 * oracle[1])
    assert res.gap > 0


def test_lowest_two_closed_form_fd2_2d():
    """beta=0, V=c: lambda0 = 2 mu1 + c, lambda1 = mu1 + mu2 + c."""
    c = 0.7
    spec = GridSpec(1.0, 2, 10, Scheme.FD2)
    disc = TensorOperator(spec)
    h = spec.cell_size
    mu = lambda k: (4.0 / h ** 2) * np.sin(k * np.pi * h / 4.0) ** 2
    fs = FastSolver(disc, c)
    x = dense(disc.node_coordinates())
    mode = np.prod(np.sin(np.pi * (x + 1.0) / 2.0), axis=1)
    res = lowest_two_eigenpairs(lambda u: disc.apply_neg_laplacian(u) + c * u,
                                disc.weights, mode, tol=1e-10, solve_inner=fs.solve)
    assert res.lambda0 == pytest.approx(2 * mu(1) + c, rel=1e-9)
    assert res.lambda1 == pytest.approx(mu(1) + mu(2) + c, rel=1e-9)


def test_lowest_two_diagonal():
    d = np.array([5.0, 1.0, 3.0, 2.0, 9.0, 7.0])
    res = lowest_two_eigenpairs(lambda u: d * u, np.ones(6), np.eye(6)[1], tol=1e-12)
    assert res.lambda0 == pytest.approx(1.0, abs=1e-9)
    assert res.lambda1 == pytest.approx(2.0, abs=1e-9)


def test_lowest_two_below_six_unknowns_raises():
    """scipy's LOBPCG takes no constraint below 6 unknowns."""
    d = np.array([5.0, 1.0, 3.0, 2.0, 9.0])
    with pytest.raises(SolverError, match="6 unknowns, got 5"):
        lowest_two_eigenpairs(lambda u: d * u, np.ones(5), np.eye(5)[1])


def test_lowest_two_unreachable_tol_raises():
    spec = GridSpec(1.0, 1, 33, Scheme.FD2)
    disc = TensorOperator(spec)
    V = np.random.default_rng(3).uniform(0.0, 5.0, size=disc.ndof)
    fs = FastSolver(disc, 1.0)
    v0 = default_initial_state(disc, "linear", Problem(V, 0.0, 1.0)).coeffs
    with pytest.raises(SolverError):
        lowest_two_eigenpairs(lambda u: disc.apply_neg_laplacian(u) + V * u,
                              disc.weights, v0, tol=1e-30, solve_inner=fs.solve)


SPARSE_FREE_RUNS = """
import sys
import gpflow
from gpflow.energy import Problem
from gpflow.flows import (FlowConfig, FlowKind, LineSearchStep, StopRule,
                          default_initial_state, run)
from gpflow.grids import GridSpec, Scheme, TensorOperator
from gpflow.potentials import sin2_product

disc = TensorOperator(GridSpec(8.0, 2, 12, Scheme.SEM, 2))
problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15)
u0 = default_initial_state(disc, "linear", problem)
for flow in (FlowConfig(), FlowConfig(step=LineSearchStep()),
             FlowConfig(kind=FlowKind.BFSP, dt=0.1)):
    assert run(flow, problem, u0, StopRule(max_iter=5)).iterations == 5
assert gpflow.linalg._CBLAS_DAXPY is not None or not sys.platform.startswith("linux")
print(sorted(m for m in sys.modules if m.startswith(("scipy.sparse", "scipy.linalg"))))
"""


def test_tensor_grid_runs_never_load_scipy_sparse_or_linalg():
    """scipy.sparse serves only P1 meshes (assembly and LU) and LOBPCG, and
    loads on their first call; `daxpy` calls the CBLAS daxpy that numpy's linalg
    extension links, and scipy.linalg only where it links none (on Linux that
    fallback fails here):
    a fresh process that imports gpflow and runs the linear start, a modified-H1
    fixed step, a line-search run and a BFSP run on a tensor grid loads neither."""
    src = os.path.dirname(os.path.dirname(gpflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", SPARSE_FREE_RUNS],
                         env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


@pytest.mark.parametrize("cdll", [no_library, lambda path: SimpleNamespace()],
                         ids=["no library", "no symbol"])
def test_cblas_lookup_is_none_without_numpys_symbol(monkeypatch, cdll):
    """Where numpy's linalg extension cannot be opened or links no
    scipy_cblas_daxpy64_, nothing is bound and `daxpy` takes the fallback."""
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert linalg._cblas_daxpy() is None


@pytest.fixture(params=["cblas", "scipy"])
def daxpy_path(request, monkeypatch):
    """`daxpy` by numpy's CBLAS (where this numpy exports one) and by the
    fallback, scipy.linalg.blas.daxpy."""
    if request.param == "scipy":
        monkeypatch.setattr(linalg, "_CBLAS_DAXPY", None)
    elif linalg._CBLAS_DAXPY is None:
        pytest.skip("this numpy's BLAS exports no CBLAS daxpy")
    return request.param


@pytest.mark.parametrize("n", [1, 1000, 103823])
@pytest.mark.parametrize("a", [0.0, 1.0, -0.37])
def test_daxpy_has_scipys_bits_in_place(daxpy_path, n, a):
    """y <- a x + y into y itself, equal bit for bit to scipy's f2py daxpy;
    a strided x is copied first."""
    rng = np.random.default_rng(n)
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    want = scipy.linalg.blas.daxpy(x, y.copy(), a=a)
    got = y.copy()
    assert daxpy(x, got, a=a) is got and np.array_equal(got, want)
    wide = np.zeros((n, 2))
    wide[:, 0] = x
    got = y.copy()
    assert daxpy(wide[:, 0], got, a=a) is got and np.array_equal(got, want)


def read_only(y):
    y.flags.writeable = False
    return y


@pytest.mark.parametrize("make_y, n_x", [
    (lambda: np.ones(8, dtype=np.float32), 8), (lambda: np.ones(16)[::2], 8),
    (lambda: read_only(np.ones(8)), 8), (lambda: np.ones((2, 4)), 8),
    (lambda: np.ones(8), 7)], ids=["float32", "strided", "read-only", "2-D", "length"])
def test_daxpy_refuses_what_it_cannot_update_in_place(daxpy_path, make_y, n_x):
    """ValueError before any BLAS call, and y as it was."""
    y = make_y()
    before = y.copy()
    with pytest.raises(ValueError):
        daxpy(np.ones(n_x), y, a=2.0)
    assert np.array_equal(y, before)
