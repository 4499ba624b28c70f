import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpflow.energy import (NormalizationError, Problem, State, apply_Au,
                           eigenvalue_estimate, eigenvalue_from_energy, energy,
                           euclidean_gradient, inner_h, norm_h, residual,
                           retract, riemannian_gradient)
from gpflow.grids import GridSpec, Scheme, TensorOperator
from gpflow.linalg import FastSolver

from test_tensor import dense, dense_lap


def inner_X(disc, alpha: float, u: np.ndarray, v: np.ndarray) -> float:
    """Modified-H1 inner product u^T (S + alpha M) v."""
    return inner_h(disc, u, disc.apply_neg_laplacian(v)) + alpha * inner_h(disc, u, v)


def norm_X(disc, alpha: float, u: np.ndarray) -> float:
    return np.sqrt(max(inner_X(disc, alpha, u, u), 0.0))


def sobolev_gradient(state: State, problem: Problem, solver) -> np.ndarray:
    """(-Delta_h + alpha I)^{-1} A_u u, with solver a shifted_solver."""
    return solver.solve(euclidean_gradient(state, problem))


def make(spec=None, beta=2.0, alpha=0.15, seed=0):
    disc = TensorOperator(spec or GridSpec(1.0, 2, 8, Scheme.FD2))
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.0, 3.0, size=disc.ndof)
    return disc, Problem(V, beta, alpha), rng


def rand_state(disc, rng, normalized=True):
    u = rng.standard_normal(disc.ndof)
    if normalized:
        u = retract(disc, u)
    return State(u, disc)


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(np.array([1.0, -0.1]), 1.0)
    with pytest.raises(ValueError):
        Problem(np.array([1.0]), -1.0)
    with pytest.raises(ValueError):
        Problem(np.array([1.0]), 1.0, alpha=-0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_problem_rejects_non_finite_potential(bad):
    """NaN < 0 is False, so a nonnegativity check alone lets NaN through."""
    with pytest.raises(ValueError, match="finite"):
        Problem(np.array([1.0, bad]), 1.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_state_rejects_non_finite_coeffs(bad):
    """The check reads <u, u>_h, into which NaN and +-inf propagate."""
    disc, _, _ = make()
    u = np.ones(disc.ndof)
    u[3] = bad
    with pytest.raises(ValueError, match="^state coefficients must be finite$"):
        State(u, disc)


def test_length_mismatch_rejected():
    disc, problem, rng = make()
    u, short = rand_state(disc, rng), np.ones(disc.ndof - 1)
    with pytest.raises(ValueError, match="length mismatch"):
        inner_h(disc, u.coeffs, short)
    with pytest.raises(ValueError, match="length mismatch"):
        apply_Au(u, problem)(short)


def test_energy_quadratic_oracle():
    """E_h against a brute-force dense evaluation."""
    disc, problem, rng = make()
    A = dense_lap(disc)
    M = np.diag(disc.weights)
    for _ in range(5):
        u = rng.standard_normal(disc.ndof)
        s = State(u, disc)
        want = (0.5 * u @ M @ A @ u + 0.5 * u @ M @ (problem.potential * u)
                + 0.25 * problem.beta * (u ** 2) @ M @ (u ** 2))
        assert energy(s, problem) == pytest.approx(want, rel=1e-12)


def test_euclidean_gradient_is_frechet_derivative():
    """<grad, w>_h matches a central difference of E_h."""
    disc, problem, rng = make(GridSpec(1.0, 1, 12, Scheme.FD2))
    u = rng.standard_normal(disc.ndof)
    s = State(u, disc)
    g = euclidean_gradient(s, problem)
    eps = 1e-6
    for _ in range(5):
        w = rng.standard_normal(disc.ndof)
        fd = (energy(State(u + eps * w, disc), problem)
              - energy(State(u - eps * w, disc), problem)) / (2 * eps)
        assert inner_h(disc, g, w) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_sobolev_gradient_definition():
    disc, problem, rng = make()
    fs = FastSolver(disc, problem.alpha)
    s = rand_state(disc, rng)
    g = sobolev_gradient(s, problem, fs)
    assert np.allclose(disc.apply_neg_laplacian(g) + problem.alpha * g,
                       euclidean_gradient(s, problem), atol=1e-10)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_riemannian_gradient_tangent_and_smaller(seed):
    disc, problem, rng = make(seed=seed)
    fs = FastSolver(disc, problem.alpha)
    s = rand_state(disc, rng)
    g = riemannian_gradient(s, problem, fs).g
    # tangency in <.,.>_h
    assert abs(inner_h(disc, s.coeffs, g)) <= 1e-10 * max(1.0, norm_h(disc, g))
    # ||grad_R||_X <= ||grad_X||_X
    full = sobolev_gradient(s, problem, fs)
    assert norm_X(disc, problem.alpha, g) <= norm_X(disc, problem.alpha, full) * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_norm_lemmas(seed):
    """||u||_h <= alpha^(-1/2) ||u||_X and ||G u||_X <= alpha^(-1/2) ||u||_h."""
    disc, problem, rng = make(seed=seed)
    alpha = problem.alpha
    fs = FastSolver(disc, alpha)
    u = rng.standard_normal(disc.ndof)
    assert norm_h(disc, u) <= norm_X(disc, alpha, u) / np.sqrt(alpha) * (1 + 1e-12)
    gu = fs.solve(u)
    assert norm_X(disc, alpha, gu) <= norm_h(disc, u) / np.sqrt(alpha) * (1 + 1e-12)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_retraction_bound(seed):
    """||R(u+v) - (u+v)||_X <= 0.5 ||v||_h^2 ||u+v||_X for tangent v."""
    disc, problem, rng = make(seed=seed)
    alpha = problem.alpha
    u = retract(disc, rng.standard_normal(disc.ndof))
    v = rng.standard_normal(disc.ndof)
    v -= inner_h(disc, u, v) * u  # tangent at u
    v *= rng.uniform(0.0, 2.0) / max(norm_h(disc, v), 1e-30)
    w = u + v
    r = retract(disc, w) - w
    lhs = norm_X(disc, alpha, r)
    rhs = 0.5 * norm_h(disc, v) ** 2 * norm_X(disc, alpha, w)
    assert lhs <= rhs * (1 + 1e-10)


def test_retract_basics():
    disc, _, rng = make()
    u = retract(disc, rng.standard_normal(disc.ndof))
    assert norm_h(disc, u) == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(retract(disc, 2 * u), u)
    assert np.allclose(retract(disc, u), u)
    with pytest.raises(NormalizationError):
        retract(disc, np.zeros(disc.ndof))


def test_require_normalized():
    disc, problem, rng = make()
    s = State(2.0 * retract(disc, rng.standard_normal(disc.ndof)), disc)
    with pytest.raises(NormalizationError):
        eigenvalue_estimate(s, problem)


def test_residual_exact_eigenpair_zero():
    """beta=0 with constant V: any discrete Laplacian eigenvector is exact."""
    spec = GridSpec(1.0, 1, 16, Scheme.FD2)
    disc = TensorOperator(spec)
    problem = Problem(np.full(disc.ndof, 0.4), 0.0)
    x = disc.op.nodes
    v = retract(disc, np.sin(np.pi * (x + 1.0) / 2.0))
    assert residual(State(v, disc), problem) <= 1e-13


def test_residual_nonlinear_exact_eigenpair_zero():
    """Manufactured GP eigenpair: V = beta(1 - u*^2) with h-normalized u*."""
    spec = GridSpec(1.0, 2, 20, Scheme.FD2)
    disc = TensorOperator(spec)
    coords = dense(disc.node_coordinates())
    u = np.prod(np.sin(np.pi * (coords + 1.0) / 2.0), axis=1)
    beta = 3.0
    problem = Problem(beta * (1.0 - u ** 2), beta)
    assert abs(norm_h(disc, u) - 1.0) < 1e-12  # exact on FD2 grids
    assert residual(State(u, disc), problem) <= 1e-13


def test_residual_scale_invariant():
    disc, problem, rng = make()
    u = rng.standard_normal(disc.ndof)
    r1 = residual(State(u, disc), problem)
    r2 = residual(State(5.0 * u, disc), problem)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_residual_brute_force_oracle():
    disc, problem, rng = make(GridSpec(1.0, 1, 10, Scheme.FD2))
    A = dense_lap(disc)
    for _ in range(5):
        u = rng.standard_normal(disc.ndof)
        v = u / np.sqrt(u @ np.diag(disc.weights) @ u)
        F = A @ v + problem.potential * v + problem.beta * v ** 3
        want = np.linalg.norm(v / np.linalg.norm(v) - F / np.linalg.norm(F))
        got = residual(State(u, disc), problem)
        assert got == pytest.approx(want, abs=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_eigenvalue_identity(seed):
    """<u, A_u u>_h = 2 E_h(u) + (beta/2) <u^2, u^2>_h on the unit sphere."""
    disc, problem, rng = make(seed=seed)
    s = rand_state(disc, rng)
    a = eigenvalue_estimate(s, problem)
    b = eigenvalue_from_energy(s, problem)
    assert a == pytest.approx(b, rel=1e-11)


def test_inner_X_definition():
    disc, problem, rng = make()
    u = rng.standard_normal(disc.ndof)
    v = rng.standard_normal(disc.ndof)
    want = inner_h(disc, u, disc.apply_neg_laplacian(v)) + 0.15 * inner_h(disc, u, v)
    assert inner_X(disc, 0.15, u, v) == pytest.approx(want, rel=1e-13)


def test_apply_Au_dense_oracle():
    disc, problem, rng = make(GridSpec(1.0, 2, 6, Scheme.COMPACT4))
    A = dense_lap(disc)
    u = rng.standard_normal(disc.ndof)
    s = State(u, disc)
    Adense = A + np.diag(problem.potential + problem.beta * u ** 2)
    w = rng.standard_normal(disc.ndof)
    assert np.allclose(apply_Au(s, problem)(w), Adense @ w, atol=1e-11)


@pytest.mark.parametrize("scale", [1.0, 1.7])
def test_record_matches_textbook_formulas(scale):
    """E, the residual and the Rayleigh value, which one record shares u^3
    and Vu between, against formulas built here from -Delta_h, V and u; the
    residual of u scaled by 1.7 is that of the h-normalized u."""
    disc, problem, rng = make(GridSpec(1.0, 2, 8, Scheme.SEM, 3))
    u = retract(disc, rng.standard_normal(disc.ndof))
    V, beta, h = problem.potential, problem.beta, lambda a, b: inner_h(disc, a, b)
    v = scale * u
    lap = disc.apply_neg_laplacian(v)
    want_e = 0.5 * h(v, lap) + 0.5 * h(v, V * v) + 0.25 * beta * h(v ** 2, v ** 2)
    F = disc.apply_neg_laplacian(u) + V * u + beta * u ** 3
    want_r = np.linalg.norm(u / np.linalg.norm(u) - F / np.linalg.norm(F))
    s = State(v, disc)
    assert energy(s, problem) == pytest.approx(want_e, rel=1e-13)
    assert residual(s, problem) == pytest.approx(want_r, rel=1e-13)
    if scale == 1.0:
        assert eigenvalue_estimate(s, problem) == pytest.approx(h(u, F), rel=1e-13)
    else:
        with pytest.raises(NormalizationError):
            eigenvalue_estimate(s, problem)


def test_record_of_the_zero_state_raises():
    """The zero vector has no direction, so its record (and its residual) is
    refused rather than read off a 0/0."""
    disc, problem, _ = make()
    with pytest.raises(NormalizationError, match="zero vector"):
        residual(State(np.zeros(disc.ndof), disc), problem)


def test_energy_does_not_read_Au_u():
    """E is its own sum, never taken from A_u u or the Rayleigh value, so
    `eigenvalue_from_energy` checks them: a wrong A_u u held on the state
    leaves E bit-identical."""
    disc, problem, rng = make()
    u = retract(disc, rng.standard_normal(disc.ndof))
    want = energy(State(u, disc), problem)
    s = State(u, disc)
    s._Au_u = (problem, rng.standard_normal(disc.ndof))
    assert energy(s, problem) == want
    s._Au_u = (problem, rng.standard_normal(disc.ndof))
    assert energy(s, problem) == want
