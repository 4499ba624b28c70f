import os
import platform
import subprocess
import sys
from functools import reduce

import numpy as np
import pytest
import scipy.linalg

from gpflow.analysis import exact_case, solve_exact_case
from gpflow.energy import (CHUNK, Problem, State, _record, energy, eigenvalue_estimate,
                           euclidean_gradient, inner_h, norm_h, residual,
                           retract, riemannian_gradient)
from gpflow import flows
from gpflow.flows import (LINE_SEARCH_HI, FixedStep,
                          FlowConfig, FlowKind, LineSearchStep, StopRule,
                          default_initial_state, gradient_step, line_energy,
                          line_search_step, metric_inverse, run, step_bfsp)
from gpflow.grids import GridSpec, Scheme, TensorOperator
from gpflow.linalg import FastSolver, SolverError, lobpcg, shifted_solver
from gpflow.meshes import p1_assemble, structured_right_triangle_mesh
from gpflow.potentials import exact_case_potential, harmonic_lattice, sin2_product

from oracles import dense_neg_laplacian, traced_in_vectors
from test_energy import norm_X
from test_tensor import dense, dense_lap


def exact_problem(spec, beta, alpha=0.2):
    disc = TensorOperator(spec)
    potential = exact_case_potential(beta)(disc.node_coordinates())
    return disc, Problem(potential, beta, alpha), exact_case(disc, beta)


def converged_ground_state(spec=None, beta=2.0, alpha=0.2):
    spec = spec or GridSpec(1.0, 2, 16, Scheme.FD2)
    report, _ = solve_exact_case(spec, beta, FlowConfig(alpha=alpha))
    assert report.reason == "tol"
    disc = report.final_state.disc
    return report.final_state, exact_problem(spec, beta, alpha)[1], disc


def test_config_validation():
    with pytest.raises(ValueError, match="^tau must be positive"):
        FixedStep(0.0)
    with pytest.raises(ValueError, match="^alpha must be >= 0"):
        FlowConfig(alpha=-0.1)
    with pytest.raises(ValueError, match="^dt must be positive"):
        FlowConfig(kind=FlowKind.BFSP, dt=0.0)
    with pytest.raises(ValueError, match="^dt must be positive"):
        FlowConfig(dt=-1.0)  # checked for every kind, as the config parser does
    with pytest.raises(ValueError):
        StopRule(max_iter=0)
    with pytest.raises(ValueError):
        StopRule(stall_window=1)
    with pytest.raises(ValueError, match="^tol must be >= 0"):
        StopRule(residual_tol=-1.0)
    assert StopRule(residual_tol=0.0).residual_tol == 0.0  # valid: never stops by tol


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("build, message", [
    (lambda v: FixedStep(v), "tau must be positive"),
    (lambda v: FlowConfig(alpha=v), "alpha must be >= 0"),
    (lambda v: FlowConfig(dt=v), "dt must be positive"),
    (lambda v: StopRule(residual_tol=v), "tol must be >= 0"),
    (lambda v: GridSpec(v, 1, 4), "half_width must be positive"),
    (lambda v: Problem(np.ones(3), v), "beta must be >= 0"),
    (lambda v: Problem(np.ones(3), 1.0, v), "alpha must be >= 0"),
    (lambda v: FastSolver(TensorOperator(GridSpec(1.0, 1, 4)), v), "shift alpha must be >= 0"),
    (lambda v: shifted_solver(p1_assemble(structured_right_triangle_mesh(2)), v),
     "shift alpha must be >= 0")],
    ids=["FixedStep.tau", "FlowConfig.alpha", "FlowConfig.dt", "StopRule.residual_tol",
         "GridSpec.half_width", "Problem.beta", "Problem.alpha", "FastSolver", "shifted_solver-P1"])
def test_float_guards_refuse_nan_and_inf(build, message, value):
    """NaN fails every comparison, so each guard asks its value to pass one (0 <= v
    < inf or 0 < v < inf): a non-finite value fails with the guard's message.  NaN
    once built a config that failed at step 1, or a StopRule that never stopped by tol."""
    with pytest.raises(ValueError, match=f"^{message}, got {value}"):
        build(value)


@pytest.mark.parametrize("count", [1, 226])
def test_potential_of_another_length_is_refused(count):
    """On the fd2 15^2 grid a V of 1 value once ran with V = 1 broadcast, one of
    226 failed in a numpy broadcast, and the linear start failed to reshape either:
    run, for both flow kinds, and the linear start refuse it by the discretizations'
    length check, which names both lengths."""
    disc = TensorOperator(GridSpec(8.0, 2, 16))
    problem, u0 = Problem(np.ones(count), 1.0), default_initial_state(disc)
    message = rf"^expected vector of length 225, got shape \({count},\)$"
    for flow in (FlowConfig(), FlowConfig(kind=FlowKind.BFSP)):
        with pytest.raises(ValueError, match=message):
            run(flow, problem, u0, StopRule(max_iter=5))
    with pytest.raises(ValueError, match=message):
        default_initial_state(disc, "linear", problem)


def test_modified_h1_ground_state_fixed_point():
    state, problem, disc = converged_ground_state()
    fs = FastSolver(disc, problem.alpha)
    nxt, _ = gradient_step(state, problem, fs, FixedStep(1.0))
    assert norm_h(disc, nxt.coeffs - state.coeffs) <= 1e-10


def test_modified_h1_contracts_excited_component():
    """beta=0, V = alpha: the linear iteration contracts mode 2 against mode 1."""
    alpha = 0.4
    spec = GridSpec(1.0, 1, 16, Scheme.FD2)
    disc = TensorOperator(spec)
    problem = Problem(np.full(disc.ndof, alpha), 0.0, alpha)
    fs = FastSolver(disc, alpha)
    h = spec.cell_size
    x = disc.op.nodes
    mu = lambda k: (4.0 / h ** 2) * np.sin(k * np.pi * h / 4.0) ** 2
    v1 = retract(disc, np.sin(np.pi * (x + 1.0) / 2.0))
    v2 = retract(disc, np.sin(2.0 * np.pi * (x + 1.0) / 2.0))
    u = retract(disc, v1 + 0.5 * v2)
    tau = 0.7
    nxt, _ = gradient_step(State(u, disc), problem, fs, FixedStep(tau))
    before = abs(inner_h(disc, u, v2)) / abs(inner_h(disc, u, v1))
    after = abs(inner_h(disc, nxt.coeffs, v2)) / abs(inner_h(disc, nxt.coeffs, v1))
    assert after < before
    # closed form: with V = alpha the Sobolev gradient is u itself, so the
    # update is (1 - tau) u + tau c G u with c = 1/<u, Gu>_h and mode k of
    # G u divided by mu_k + alpha
    a1, a2 = inner_h(disc, u, v1), inner_h(disc, u, v2)
    c = 1.0 / (a1 ** 2 / (mu(1) + alpha) + a2 ** 2 / (mu(2) + alpha))
    factor = lambda m: (1.0 - tau) + tau * c / (m + alpha)
    want = before * abs(factor(mu(2)) / factor(mu(1)))
    assert after == pytest.approx(want, rel=1e-10)


def test_modified_h1_energy_nonincrease_random_starts():
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 10, Scheme.FD2), 3.0)
    fs = FastSolver(disc, problem.alpha)
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = State(retract(disc, rng.standard_normal(disc.ndof)), disc)
        nxt, _ = gradient_step(s, problem, fs, FixedStep(0.1))
        assert energy(nxt, problem) <= energy(s, problem) + 1e-12


def test_energy_decay_constant():
    """E(u^n) - E(u^{n+1}) >= (tau/2) ||g^n||_X^2 for >= 95% of iterations."""
    tau = 0.5
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 20, Scheme.FD2), 5.0)
    fs = FastSolver(disc, problem.alpha)
    state = default_initial_state(disc)
    hold, total = 0, 0
    for _ in range(200):
        if residual(state, problem) <= 1e-11:
            break
        g = riemannian_gradient(state, problem, fs).g
        nxt = State(retract(disc, state.coeffs - tau * g), disc)
        e0 = energy(state, problem)
        drop = e0 - energy(nxt, problem)
        bound = 0.5 * tau * norm_X(disc, problem.alpha, g) ** 2
        total += 1
        # allowance: a few ulps of the energy, the roundoff floor of the drop
        if drop >= bound * (1.0 - 1e-10) - 1e-14 * max(1.0, abs(e0)):
            hold += 1
        state = nxt
    assert total >= 15
    assert hold >= 0.95 * total


def test_bfsp_laplacian_eigenvector_fixed_point():
    spec = GridSpec(1.0, 1, 16, Scheme.FD2)
    disc = TensorOperator(spec)
    problem = Problem(np.zeros(disc.ndof), 0.0, 0.5)
    x = disc.op.nodes
    u = retract(disc, np.sin(np.pi * (x + 1.0) / 2.0))
    nxt = step_bfsp(State(u, disc), problem, shifted_solver(disc, 0.5 + 1.0 / 0.1))
    assert np.allclose(nxt.coeffs, u, atol=1e-12)


def test_bfsp_matches_dense_formula():
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 8, Scheme.FD2), 2.0)
    rng = np.random.default_rng(1)
    u = retract(disc, rng.standard_normal(disc.ndof))
    dt, alpha = 0.2, 0.7
    nxt = step_bfsp(State(u, disc), problem, shifted_solver(disc, alpha + 1.0 / dt))
    A = dense_lap(disc) + (alpha + 1.0 / dt) * np.eye(disc.ndof)
    rhs = (alpha + 1.0 / dt - problem.potential - problem.beta * u ** 2) * u
    want = np.linalg.solve(A, rhs)
    want /= norm_h(disc, want)
    assert np.allclose(nxt.coeffs, want, atol=1e-11)


def test_bfsp_takes_its_rhs_from_the_record(monkeypatch):
    """On a state whose record is held, step_bfsp forms s u - (V + beta u^2) u from
    the record's A_u u and -Delta_h u, in A_u u's buffer, and hands that buffer on
    as the new state's -Delta_h u': the step touches no V and applies no Laplacian."""
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 8, Scheme.FD2), 2.0)
    ufuncs = []

    class Watched(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            ufuncs.append(ufunc.__name__)
            inputs = [np.asarray(x) if isinstance(x, Watched) else x for x in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    problem = Problem(problem.potential.view(Watched), problem.beta, problem.alpha)
    state = State(retract(disc, np.random.default_rng(1).standard_normal(disc.ndof)), disc)
    Au = euclidean_gradient(state, problem)  # the record, with its one V u
    ufuncs.clear()
    counts = {"lap": 0}
    monkeypatch.setattr(TensorOperator, "apply_neg_laplacian",
                        counted(counts, TensorOperator.apply_neg_laplacian, "lap"))
    nxt = step_bfsp(state, problem, shifted_solver(disc, 0.7 + 1.0 / 0.2))
    assert nxt._neg_lap is Au and state._Au_u is None
    assert ufuncs == [] and counts["lap"] == 0
    monkeypatch.undo()
    exact = disc.apply_neg_laplacian(nxt.coeffs)
    assert np.linalg.norm(nxt.neg_lap - exact) <= 1e-13 * np.linalg.norm(exact)


def test_bfsp_requires_normalized():
    disc = TensorOperator(GridSpec(1.0, 1, 8, Scheme.FD2))
    problem = Problem(np.ones(disc.ndof), 1.0)
    from gpflow.energy import NormalizationError
    with pytest.raises(NormalizationError):
        step_bfsp(State(2.0 * np.ones(disc.ndof), disc), problem,
                  shifted_solver(disc, 0.5 + 1.0 / 0.1))


def test_bfsp_small_step_stalls_at_floor_large_step_worse():
    """BFSP's fixed point is not a discrete eigenpair: the residual floors
    out at a positive level and the stall rule fires; a much larger dt
    floors higher."""
    spec = GridSpec(8.0, 2, 32, Scheme.FD2)
    disc = TensorOperator(spec)
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.5)
    u0 = default_initial_state(disc)
    stop = StopRule(residual_tol=1e-12, stall_window=10, max_iter=2000)
    small = run(FlowConfig(kind=FlowKind.BFSP, alpha=0.5, dt=0.1), problem, u0, stop)
    big = run(FlowConfig(kind=FlowKind.BFSP, alpha=0.5, dt=2.0), problem, u0, stop)
    assert small.reason == "stall"
    assert small.iterations < 2000
    assert 1e-6 < small.records[-1].residual < small.records[0].residual / 10
    assert big.records[-1].residual > 5 * small.records[-1].residual


def test_bfsp_takes_its_shift_from_the_start_not_from_alpha():
    """run builds BFSP's solver at bfsp_shift(problem, u0) + 1/dt: FlowConfig.alpha
    does not reach it, so two alphas give bit-identical runs."""
    disc = TensorOperator(GridSpec(8.0, 2, 32, Scheme.FD2))
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0)
    u0 = default_initial_state(disc)
    stop = StopRule(residual_tol=1e-12, max_iter=30)
    a, b = (run(FlowConfig(kind=FlowKind.BFSP, alpha=alpha, dt=0.1), problem, u0, stop)
            for alpha in (0.15, 7.0))
    assert a.records == b.records and len(a.records) == 31
    assert np.array_equal(a.final_state.coeffs, b.final_state.coeffs)


@pytest.mark.parametrize("kind", [FlowKind.AU, FlowKind.A0], ids=lambda k: k.value)
def test_metric_pcg_is_preconditioned_at_the_start(monkeypatch, kind):
    """The A_u and A0 metric solves are preconditioned by `au_preconditioner` at
    the start, -Delta_h shifted by max(mean(V + beta u0^2), 1e-3), not by
    -Delta_h itself: on sem8 6^2 at beta = 1600 each PCG solve takes at most 40
    iterations (up to 152 and 165 with the unshifted -Delta_h), and the line
    search reaches the energy it reached then."""
    disc = TensorOperator(GridSpec(8.0, 2, 6, Scheme.SEM, 8))
    problem = Problem(harmonic_lattice(disc.node_coordinates()), 1600.0, 10.0)
    counts, pcg = [], flows.pcg

    def counting_pcg(*args, **kwargs):
        out = pcg(*args, **kwargs)
        counts.append(out[1])  # the solve's iterations
        return out
    monkeypatch.setattr(flows, "pcg", counting_pcg)
    rep = run(FlowConfig(kind=kind, alpha=10.0, step=LineSearchStep()), problem,
              default_initial_state(disc), StopRule(residual_tol=1e-8, max_iter=3000))
    assert rep.reason == "tol"
    assert 0 < max(counts) <= 40
    assert abs(rep.records[-1].energy - 37.307505843166) <= 1e-10


@pytest.mark.parametrize("metric", [FlowKind.L2, FlowKind.A0, FlowKind.AU])
def test_metric_updates_are_tangent(metric):
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 8, Scheme.FD2), 2.0)
    rng = np.random.default_rng(0)
    s = State(retract(disc, rng.standard_normal(disc.ndof)), disc)
    g = riemannian_gradient(s, problem, metric_inverse(metric, problem, s, 0.0)(s)).g
    assert abs(inner_h(disc, s.coeffs, g)) <= 1e-10 * max(1.0, norm_h(disc, g))


def test_au_metric_ground_state_fixed_point():
    state, problem, disc = converged_ground_state()
    G = metric_inverse(FlowKind.AU, problem, state, 0.0)(state)
    nxt, _ = gradient_step(state, problem, G, FixedStep(1.0))
    assert norm_h(disc, nxt.coeffs - state.coeffs) <= 1e-8


def test_l2_metric_reduces_rayleigh_quotient():
    """beta=0, V = 0: small-step L2 flow is a shifted power-like iteration."""
    disc = TensorOperator(GridSpec(1.0, 1, 16, Scheme.FD2))
    problem = Problem(np.zeros(disc.ndof), 0.0)
    rng = np.random.default_rng(2)
    s = State(retract(disc, np.abs(rng.standard_normal(disc.ndof)) + 0.1), disc)
    tau = 1e-3
    lam0 = eigenvalue_estimate(s, problem)
    G = metric_inverse(FlowKind.L2, problem, s, 0.0)(s)
    nxt, _ = gradient_step(s, problem, G, FixedStep(tau))
    assert eigenvalue_estimate(nxt, problem) < lam0


def test_metric_gradient_rejects_wrong_kind():
    disc = TensorOperator(GridSpec(1.0, 1, 8, Scheme.FD2))
    problem = Problem(np.ones(disc.ndof), 0.0)
    with pytest.raises(ValueError):
        metric_inverse(FlowKind.BFSP, problem, default_initial_state(disc), 0.0)


def test_line_search_matches_scan_oracle():
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 10, Scheme.FD2), 4.0)
    fs = FastSolver(disc, problem.alpha)
    s = default_initial_state(disc)
    g, lap_g, _ = riemannian_gradient(s, problem, fs)
    tau_star, rise = line_search_step(s, problem, g, lap_g)

    taus = np.linspace(1e-3, LINE_SEARCH_HI, 10_000)
    phis = [energy(State(retract(disc, s.coeffs - t * g), disc), problem)
            for t in taus]
    tau_scan = taus[int(np.argmin(phis))]
    assert abs(tau_star - tau_scan) <= 10 * 1e-4 + (taus[1] - taus[0])
    # near-stationarity of phi at the returned step
    eps = 1e-5
    phi = lambda t: energy(State(retract(disc, s.coeffs - t * g), disc), problem)
    dphi = (phi(tau_star + eps) - phi(tau_star - eps)) / (2 * eps)
    assert abs(dphi) <= 1e-3 * max(1.0, abs(phi(tau_star)))
    # the returned rise is phi(tau*) - phi(0), a decrease
    assert rise < 0 and abs(rise - (phi(tau_star) - energy(s, problem))) <= 1e-12



@pytest.mark.parametrize("recorded", [True, False], ids=["record", "no_record"])
@pytest.mark.parametrize("direction", ["gradient", "random"])
@pytest.mark.parametrize("spec, potential", [
    (GridSpec(8.0, 2, 20, Scheme.FD2), sin2_product),
    (GridSpec(8.0, 3, 3, Scheme.SEM, 3), harmonic_lattice),
])
def test_line_energy_matches_energy_of_retracted_point(spec, potential, direction,
                                                       recorded):
    """E_h(u) plus the closed form's rise is E_h(R_h(u - tau d)) at every tau,
    for the gradient and for a seeded random d, which is neither tangent nor a
    gradient, whether the state holds its record (phi(0)'s k0 and q0 come
    from it) or line_energy builds it."""
    disc = TensorOperator(spec)
    problem = Problem(potential(disc.node_coordinates()), 50.0, 1.0)
    rng = np.random.default_rng(7)
    u = default_initial_state(disc).coeffs * (1 + 0.3 * rng.random(disc.ndof))
    u = retract(disc, u)
    if direction == "gradient":
        d = riemannian_gradient(State(u, disc), problem, FastSolver(disc, problem.alpha)).g
    else:
        d = retract(disc, rng.standard_normal(disc.ndof))
        assert abs(inner_h(disc, u, d)) > 1e-3
    s = State(u, disc)
    if recorded:
        energy(s, problem)
    assert (s._record is not None) == recorded
    A, Q, n = (np.polyval(p[::-1], np.linspace(1e-3, LINE_SEARCH_HI, 5))
               for p in line_energy(s, problem, d, disc.apply_neg_laplacian(d)))
    phi = energy(s, problem) + A / n + 0.25 * problem.beta * Q / (n * n)
    for tau, got in zip(np.linspace(1e-3, LINE_SEARCH_HI, 5), phi):
        want = energy(State(retract(disc, s.coeffs - tau * d), disc), problem)
        assert abs(got - want) <= 1e-12 * abs(want)


def reference_stationary_points(A, Q, n, beta):
    """The roots of phi' n^3 by numpy.polynomial."""
    P = np.polynomial.polynomial
    dn = P.polyder(n)
    num = P.polyadd(
        P.polymul(P.polysub(P.polymul(P.polyder(A), n), P.polymul(A, dn)), n),
        0.25 * beta * P.polysub(P.polymul(P.polyder(Q), n), 2 * P.polymul(Q, dn)))
    return P.polyroots(num)


@pytest.mark.parametrize("case", ["random", "beta_0", "A_0"])
def test_closed_form_matches_numpy_polynomial(case):
    """The convolutions give numpy.polynomial's stationary points on seeded
    random coefficients (n(tau) > 0 as <v, v>_h)."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, c = rng.uniform(0.5, 2.0, 2)
        n = np.array([a, -2.0 * rng.uniform(-1.0, 1.0) * np.sqrt(a * c), c])
        A, Q = rng.standard_normal(3), rng.standard_normal(5)
        A[0] = Q[0] = 0.0
        beta = 0.0 if case == "beta_0" else rng.uniform(0.0, 100.0)
        if case == "A_0":
            A[:] = 0.0
        got = flows.stationary_points(A, Q, n, beta)
        roots = reference_stationary_points(A, Q, n, beta)
        assert len(got) == len(roots) == 4
        np.testing.assert_allclose(np.sort(got.real), np.sort(roots.real),
                                   rtol=1e-10, atol=1e-10)


def test_line_search_run_energy_never_rises():
    """The strong-interaction 1D lattice, where a fixed step of 0.5 diverges;
    the conjugate directions reach the tolerance inside 40 iterations.  And
    the L2 flow on 1,000 fd2 cells, whose best steps lie below 1e-3: a
    search that kept tau >= 1e-3 raised E on 41 steps and ended `diverged`
    at iteration 80."""
    disc = TensorOperator(GridSpec(8.0, 1, 64, Scheme.FD2))
    problem = Problem(harmonic_lattice(disc.node_coordinates()), 1600.0, 10.0)
    report = run(FlowConfig(alpha=10.0, step=LineSearchStep()), problem,
                 default_initial_state(disc),
                 StopRule(residual_tol=1e-12, stall_window=10, max_iter=40))
    assert report.reason == "tol"
    disc = TensorOperator(GridSpec(8.0, 1, 1000, Scheme.FD2))
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0)
    l2 = run(FlowConfig(kind=FlowKind.L2, step=LineSearchStep()), problem,
             default_initial_state(disc), StopRule(max_iter=500))
    for E in (report.energies, l2.energies):
        assert np.all(np.diff(E) <= 1e-12 * np.abs(E[1:]))


def test_line_search_rise_along_g_is_a_step_failure(monkeypatch):
    """A best rise along g above ENERGY_RISE_RTOL |E| ends the run with
    `step_failure`; one within it is taken."""
    disc = TensorOperator(GridSpec(8.0, 1, 64, Scheme.FD2))
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0)
    u0 = default_initial_state(disc)
    E0 = energy(u0, problem)
    for rise, reason, iterations in ((2e-12, "step_failure", 0), (0.1e-12, "max_iter", 3)):
        monkeypatch.setattr(flows, "line_search_step",
                            lambda *args, rise=rise: (0.1, rise * E0))
        report = run(FlowConfig(step=LineSearchStep()), problem, u0, StopRule(max_iter=3))
        assert (report.reason, report.iterations) == (reason, iterations)


def test_a0_metric_solve_that_misses_its_tolerance_is_a_step_failure(monkeypatch):
    """A PCG that misses its tolerance inside the A0 metric ends the run with
    `step_failure` before any step is taken from its inexact solve."""
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 8, Scheme.FD2), 2.0)
    monkeypatch.setattr(flows, "pcg", lambda apply_A, apply_P, b, weights, tol, maxiter:
                        (b, maxiter, False))
    report = run(FlowConfig(kind=FlowKind.A0), problem, default_initial_state(disc),
                 StopRule())
    assert (report.reason, report.iterations) == ("step_failure", 0)


def test_linear_start_raises_when_its_flow_stops_short(monkeypatch):
    """The `linear` start is the beta = 0 flow run to residual 1e-10: held to
    one iteration, that flow stops by max_iter, and the start is refused."""
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 12, Scheme.FD2), 3.0)
    monkeypatch.setattr(flows, "StopRule", lambda tol: StopRule(tol, max_iter=1))
    with pytest.raises(SolverError, match="linear initial guess stopped by max_iter"):
        default_initial_state(disc, "linear", problem)


@pytest.mark.parametrize("beta", [0.0, 3.0])
def test_line_search_zero_direction_returns_hi(monkeypatch, beta):
    """A zero direction has a zero closed form (A = Q = 0) and no stationary
    point, so the search returns (LINE_SEARCH_HI, 0) with no branch of its
    own, and a line-search step along a zero gradient leaves u as it was."""
    disc = TensorOperator(GridSpec(1.0, 1, 8, Scheme.FD2))
    problem = Problem(np.ones(disc.ndof), beta)
    s = default_initial_state(disc)
    zero = np.zeros(disc.ndof)
    assert line_search_step(s, problem, zero, zero) == (LINE_SEARCH_HI, 0.0)
    monkeypatch.setattr(flows, "riemannian_gradient",
                        lambda *args: (zero.copy(), zero.copy(), None))
    nxt, tau = gradient_step(s, problem, FastSolver(disc, 0.2), LineSearchStep())
    assert tau == LINE_SEARCH_HI
    assert np.allclose(nxt.coeffs, s.coeffs, rtol=1e-15, atol=0)


def test_line_search_non_finite_energy_raises():
    disc = TensorOperator(GridSpec(1.0, 1, 8, Scheme.FD2))
    problem = Problem(np.ones(disc.ndof), 1.0)
    s = default_initial_state(disc)
    g = np.full(disc.ndof, 1e300)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(SolverError, match="non-finite"):
        line_search_step(s, problem, g, disc.apply_neg_laplacian(g))


def test_line_search_run_iteration_count_close_to_fixed():
    """The line search along conjugate directions reaches the tolerance in at
    most half the iterations of tau = 1."""
    spec = GridSpec(16.0, 2, 64, Scheme.FD2)
    disc = TensorOperator(spec)
    problem = Problem(sin2_product(disc.node_coordinates()), 10.0, 0.15)
    u0 = default_initial_state(disc)
    stop = StopRule(residual_tol=1e-10, stall_window=10, max_iter=300)
    fixed = run(FlowConfig(alpha=0.15, step=FixedStep(1.0)), problem, u0, stop)
    ls = run(FlowConfig(alpha=0.15, step=LineSearchStep()), problem, u0, stop)
    assert fixed.reason == "tol" and ls.reason == "tol"
    assert ls.records[-1].residual <= 1e-7
    assert ls.iterations <= fixed.iterations // 2


def h_residual(state, problem):
    """r = A_u u - <u, A_u u>_h u, so <r, d>_h < 0 makes d no descent direction."""
    r = euclidean_gradient(state, problem).copy()
    r -= float(np.dot(state.coeffs * state.disc.weights, r)) * state.coeffs
    return r


@pytest.mark.parametrize("kind", [FlowKind.MODIFIED_H1, FlowKind.L2, FlowKind.A0,
                                  FlowKind.AU], ids=lambda k: k.value)
def test_conjugate_directions_are_descent_directions(kind):
    """Every direction the line search steps along is tangent at u, has
    <r, d>_h > 0, and is the PR+ direction g + beta P d' built from dense
    projections; after the first step most of them are conjugate (d is not g).
    beta reads <r, .>_h: equal to <A_u u, .>_h on tangent vectors, but without
    the lambda u that cancels there only to round-off."""
    disc = TensorOperator(GridSpec(8.0, 2, 8, Scheme.SEM, 3))
    problem = Problem(harmonic_lattice(disc.node_coordinates()), 200.0, 1.0)
    state = default_initial_state(disc)
    G_at = metric_inverse(kind, problem, state, problem.alpha)
    conjugate = 0
    for _ in range(15):
        u, r = state.coeffs, h_residual(state, problem)
        copy = State(u, disc, state.neg_lap.copy(), state.transformed)
        want = riemannian_gradient(copy, problem, G_at(copy)).g
        prev = state.direction
        if prev is not None:
            P = lambda v: v - inner_h(disc, u, v) * u
            beta = max(0.0, inner_h(disc, r, want - P(prev.g)) / prev.gg)
            want = want + beta * P(prev.d.copy())
        state, _ = gradient_step(state, problem, G_at(state), LineSearchStep())
        d = state.direction.d
        assert abs(inner_h(disc, u, d)) <= 1e-12 * norm_h(disc, d)
        assert inner_h(disc, r, d) > 0
        assert np.linalg.norm(d - want) <= 1e-10 * np.linalg.norm(want)
        conjugate += d is not state.direction.g
    assert conjugate >= 10


@pytest.mark.parametrize("kind", [FlowKind.L2, FlowKind.A0, FlowKind.AU],
                         ids=lambda k: k.value)
def test_line_search_without_a_shift_does_not_restart(kind):
    """A metric with no shift takes PR+'s <g, .>_X from r = A_u u - lambda u.  Taken
    from A_u u, whose lambda u cancels only to round-off, beta loses its digits below
    residual 1e-6: these runs would restart 34, 2 and 3 times, and L2 would take 122
    iterations.  E is modified H1's."""
    disc = TensorOperator(GridSpec(8.0, 2, 40, Scheme.FD2))
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15)
    u0 = default_initial_state(disc, "linear", problem)
    stop = StopRule(residual_tol=1e-10, max_iter=2000)
    report = run(FlowConfig(kind=kind, alpha=0.15, step=LineSearchStep()), problem, u0, stop)
    h1 = run(FlowConfig(alpha=0.15, step=LineSearchStep()), problem, u0, stop)
    assert report.reason == h1.reason == "tol"
    assert report.restarts == 0 and report.iterations <= 100
    assert abs(report.records[-1].energy - h1.records[-1].energy) <= 1e-12 * h1.records[-1].energy


def stale_direction(state, problem, G, rule):
    """A carried direction d' with g' = 0 and <g', g'>_X = |r|_h^2, so beta =
    <g, g>_X / |r|_h^2.  'ascent': d' = -2r, so <r, d>_h = -<g, g>_X < 0.
    'no_decrease': d' = 1e6 v with v tangent, h-orthogonal to r and rough,
    so d is a descent direction whose best decrease, about 1e-22 at tau ~ 3e-20,
    is round-off (`no_decrease_below_round_off` reads it as none)."""
    disc = state.disc
    r = h_residual(state, problem)
    rr = float(np.dot(state.coeffs * state.disc.weights, r * r))
    if rule == "ascent":
        zero = np.zeros_like(r)
        return flows.Direction(-2.0 * r, zero, zero.copy(), zero.copy(), rr)
    v = np.random.default_rng(3).standard_normal(disc.ndof)
    for x in (state.coeffs, r):
        v -= inner_h(disc, x, v) / inner_h(disc, x, x) * x
    v *= 1e6
    return flows.Direction(v, disc.apply_neg_laplacian(v), disc.transform(v),
                           np.zeros_like(v), rr)


def no_decrease_below_round_off(monkeypatch, problem):
    """Make the line search report a change of E below 1e-15 |E| as no
    decrease.  Along a direction with <r, d>_h > 0 the search over (0, hi]
    always finds some decrease, so only round-off reaches the restart that a
    rise >= 0 asks for."""
    search = flows.line_search_step

    def rounded(state, *args):
        tau, rise = search(state, *args)
        return tau, 0.0 if abs(rise) < 1e-15 * energy(state, problem) else rise

    monkeypatch.setattr(flows, "line_search_step", rounded)


@pytest.mark.parametrize("rule", ["ascent", "no_decrease"])
def test_stale_direction_restarts_with_the_gradient(monkeypatch, rule):
    """A carried direction along which <r, d>_h <= 0, or along which the
    energy does not fall, gives exactly the steepest descent step, and run()
    counts each such iterate as a restart."""
    disc = TensorOperator(GridSpec(8.0, 2, 8, Scheme.SEM, 3))
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15)
    no_decrease_below_round_off(monkeypatch, problem)
    G = shifted_solver(disc, problem.alpha)
    start, _ = gradient_step(default_initial_state(disc), problem, G, FixedStep(1.0))

    def copy(direction=None):
        return State(start.coeffs, disc, start.neg_lap.copy(),
                     start.transformed.copy(), direction=direction)

    stale = stale_direction(copy(), problem, G, rule)
    restarted, _ = gradient_step(copy(stale), problem, G, LineSearchStep())
    steepest, _ = gradient_step(copy(), problem, G, LineSearchStep())
    assert np.array_equal(restarted.coeffs, steepest.coeffs)
    assert restarted.direction.d is restarted.direction.g

    step = flows.gradient_step

    def stale_step(state, *args):
        if state.direction is not None:
            state.direction = stale_direction(state, problem, G, rule)
        return step(state, *args)

    monkeypatch.setattr(flows, "gradient_step", stale_step)
    stop = StopRule(residual_tol=0.0, max_iter=6)
    report = run(FlowConfig(alpha=0.15, step=LineSearchStep()), problem, start, stop)
    assert report.iterations == 6 and report.restarts == 5
    monkeypatch.undo()
    assert run(FlowConfig(alpha=0.15, step=LineSearchStep()), problem, start,
               stop).restarts == 0
    assert run(FlowConfig(alpha=0.15, step=FixedStep(1.0)), problem, start,
               stop).restarts == 0


def test_run_linear_problem_closed_form():
    """beta=0, V = 1: converges to the lowest Laplacian eigenpair."""
    spec = GridSpec(1.0, 2, 16, Scheme.FD2)
    disc = TensorOperator(spec)
    problem = Problem(np.ones(disc.ndof), 0.0, 0.15)
    report = run(FlowConfig(alpha=0.15, step=FixedStep(1.0)), problem,
                 default_initial_state(disc),
                 StopRule(residual_tol=1e-12, max_iter=300))
    assert report.converged
    h = spec.cell_size
    mu1 = (4.0 / h ** 2) * np.sin(np.pi * h / 4.0) ** 2
    lam = eigenvalue_estimate(report.final_state, problem)
    assert abs(lam - (2 * mu1 + 1.0)) <= 1e-9


def test_run_exact_case_residual_decreasing_and_positive_limit():
    report, case = solve_exact_case(GridSpec(1.0, 2, 20, Scheme.FD2), 5.0)
    assert report.reason == "tol"
    res = report.residuals
    # strictly decreasing after the first couple of transients
    assert np.all(np.diff(res[2:]) < 0)
    # terminal residual within 10x of the tolerance
    assert res[-1] <= 10 * 1e-12
    u = report.final_state.coeffs
    if float(np.sum(u)) < 0:
        u = -u
    assert np.min(u) > 0
    assert np.max(np.abs(u - case.u_star)) < 1e-3


def test_h1_seminorm_flow_converges():
    """The H1 seminorm flow is the modified-H1 flow with alpha = 0."""
    disc, problem, case = exact_problem(GridSpec(1.0, 1, 24, Scheme.FD2), 2.0, 0.0)
    report = run(FlowConfig(kind=FlowKind.MODIFIED_H1, alpha=0.0,
                            step=FixedStep(1.0)),
                 problem, default_initial_state(disc),
                 StopRule(residual_tol=1e-12, max_iter=200))
    assert report.converged
    lam = eigenvalue_estimate(report.final_state, problem)
    # second-order discrete eigenvalue, close to the continuum value
    assert abs(lam - case.lambda_star) < 5e-3


def test_run_max_iter():
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 12, Scheme.FD2), 4.0)
    report = run(FlowConfig(alpha=0.2, step=FixedStep(1.0)), problem,
                 default_initial_state(disc),
                 StopRule(residual_tol=1e-16, stall_window=50, max_iter=5))
    assert report.reason == "max_iter"
    assert not report.converged
    assert report.iterations == 5
    assert len(report.records) == 6  # includes the initial record


def test_report_schema():
    report, _ = solve_exact_case(GridSpec(1.0, 1, 16, Scheme.FD2), 1.0)
    assert report.records[0].index == 0
    assert [r.index for r in report.records] == list(range(len(report.records)))
    assert np.all(np.isfinite(report.energies))
    assert np.all(np.isfinite(report.residuals))
    assert report.wall_seconds >= 0
    assert report.records[0].step_size == 0.0
    assert all(r.step_size > 0 for r in report.records[1:])
    assert report.best_residual == report.residuals.min() == report.records[-1].residual
    assert report.best_iter == report.iterations


def test_default_initial_state_constant():
    disc = TensorOperator(GridSpec(1.0, 2, 8, Scheme.FD2))
    s = default_initial_state(disc)
    assert norm_h(disc, s.coeffs) == pytest.approx(1.0, abs=1e-13)
    assert np.allclose(s.coeffs, s.coeffs[0])


def test_default_initial_state_linear_is_linear_ground_state():
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 12, Scheme.FD2), 3.0)
    s = default_initial_state(disc, "linear", problem)
    W = np.diag(disc.weights)
    _, vecs = scipy.linalg.eigh(
        W @ (dense_neg_laplacian(disc) + np.diag(problem.potential)), W)
    v = vecs[:, 0] / norm_h(disc, vecs[:, 0])
    assert min(np.max(np.abs(s.coeffs - v)), np.max(np.abs(s.coeffs + v))) < 1e-7
    with pytest.raises(ValueError):
        default_initial_state(disc, "linear")
    with pytest.raises(ValueError):
        default_initial_state(disc, "quadratic", problem)


def lobpcg_ground_state(disc, problem):
    """v0 of -Delta_h + V by one LOBPCG column from all-ones, on the similar
    problem in y = sqrt(w) v: h-normalized, with a nonnegative weighted mean."""
    s = np.sqrt(disc.weights)
    pre = shifted_solver(disc, problem.alpha)

    def similar(f):  # lobpcg's one column y -> s f(y / s)
        return lambda Y: (s * f(Y[:, 0] / s))[:, None]

    _, Y = lobpcg(similar(lambda v: disc.apply_neg_laplacian(v) + problem.potential * v),
                  s[:, None].copy(), M=similar(pre.solve), tol=1e-10, maxiter=500,
                  largest=False)
    v = Y[:, 0] / s
    return v * np.sign(disc.weights @ v) / norm_h(disc, v)


@pytest.mark.parametrize("spec", [
    GridSpec(8.0, 2, 64, Scheme.FD2),
    # eigh gives this grid's 1D ground mode a negative sum: an unsigned
    # z0 x z0 x z0 would start, and end, at -u
    GridSpec(8.0, 3, 16, Scheme.COMPACT4),
    GridSpec(8.0, 3, 10, Scheme.SEM, 2)], ids=["fd2-2D", "compact4-3D", "sem2-3D"])
def test_linear_start_is_lobpcgs_ground_state_without_lobpcg(monkeypatch, spec):
    """The linear start runs the beta = 0 line-search flow: it makes no LOBPCG
    call, and it matches LOBPCG's v0 to 1e-10 in the h-norm, with a positive
    weighted mean."""
    disc = TensorOperator(spec)
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15)
    v0 = lobpcg_ground_state(disc, problem)

    def refuse(*args, **kwargs):
        raise AssertionError("the linear start called LOBPCG")

    monkeypatch.setattr("gpflow.linalg.lowest_two_eigenpairs", refuse)
    monkeypatch.setattr("gpflow.linalg.lobpcg", refuse)
    u = default_initial_state(disc, "linear", problem).coeffs
    assert norm_h(disc, u - v0) <= 1e-10
    assert float(np.dot(disc.weights, u)) > 0


def linear_start_peak_in_vectors():
    """tracemalloc's peak over the linear start at fd2 299^2, in ndof-sized
    vectors, the full grid's 1D matrices built before."""
    disc = TensorOperator(GridSpec(8.0, 2, 300, Scheme.FD2))
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15)
    shifted_solver(disc, 0.15).solve(np.ones(disc.ndof))  # the grid's 1D matrices
    return traced_in_vectors(lambda: default_initial_state(disc, "linear", problem),
                             disc.ndof)[1]


def test_linear_start_peak_memory_in_vectors():
    """The linear start holds at most a line-search run's 12 ndof-sized arrays
    and the normalized start that run() is given (LOBPCG's blocks held 19)."""
    assert linear_start_peak_in_vectors() < 13 + 0.5


def test_linear_start_on_the_even_sector_peak_memory_in_vectors():
    """On the even sector (150^2 nodes) the line-search run's arrays are a
    quarter of the full grid's: with the sector grid's own weights,
    multiplicity and 1D matrices, the symmetry check's two temporaries and the
    extended start, the start peaks below 5.5 vectors (13.1 on the full grid)."""
    assert linear_start_peak_in_vectors() < 5.5


def spy_on_run(monkeypatch) -> list:
    """The grids of the runs that flows.run is called for from now on."""
    grids = []

    def spy(flow, problem, u0, stop):
        grids.append(u0.disc)
        return run(flow, problem, u0, stop)

    monkeypatch.setattr(flows, "run", spy)
    return grids


def full_grid_linear_start(disc, problem) -> np.ndarray:
    """The linear start's flow run on the full grid, as the start ran it before
    it had a sector grid."""
    z0 = disc.eigen.vectors[:, 0]
    z0 = z0 * np.sign(z0.sum())
    u0 = State(retract(disc, reduce(np.multiply.outer, [z0] * disc.dim).ravel()), disc)
    return run(FlowConfig(alpha=problem.alpha, step=LineSearchStep()),
               Problem(problem.potential, 0.0, problem.alpha), u0,
               StopRule(1e-10)).final_state.coeffs


@pytest.mark.parametrize("spec", [
    GridSpec(8.0, 2, 300, Scheme.FD2),  # odd n, and h = 150 >= FOLD_MIN_N
    GridSpec(8.0, 2, 65, Scheme.COMPACT4),  # even n
    GridSpec(8.0, 3, 10, Scheme.SEM, 2),
    GridSpec(8.0, 1, 64, Scheme.FD2),
    GridSpec(8.0, 2, 2, Scheme.FD2),  # n = 1
], ids=str)
def test_linear_start_runs_on_the_even_sector(monkeypatch, spec):
    """With a mirror-symmetric V the linear start's flow runs once, on the even
    sector's grid, and its extended result is a fresh full-grid state within
    1e-12 in the h-norm of the full grid's own run."""
    disc = TensorOperator(spec)
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15)
    want = full_grid_linear_start(disc, problem)
    grids = spy_on_run(monkeypatch)
    u = default_initial_state(disc, "linear", problem)
    assert len(grids) == 1 and grids[0] is disc.even
    assert u.disc is disc and u.coeffs.shape == (disc.ndof,)
    assert u._neg_lap is None and u._record is None
    assert norm_h(disc, u.coeffs - want) <= 1e-12


def test_linear_start_with_an_asymmetric_potential_keeps_the_full_grid(monkeypatch):
    """A linear ramp breaks V's mirror symmetry: the start's flow runs on the
    full grid, builds no sector grid, and still matches LOBPCG's v0 to 1e-10."""
    disc = TensorOperator(GridSpec(8.0, 2, 64, Scheme.FD2))
    x = dense(disc.node_coordinates())
    problem = Problem(sin2_product(x) + 0.1 * (x[:, 0] + 8.0), 5.0, 0.15)
    v0 = lobpcg_ground_state(disc, problem)
    grids = spy_on_run(monkeypatch)
    u = default_initial_state(disc, "linear", problem).coeffs
    assert grids == [disc] and "even" not in vars(disc)
    assert norm_h(disc, u - v0) <= 1e-10


def test_sector_residual_is_the_extended_states():
    """On the even sector the residual weighs each node by its multiplicity:
    it equals the full grid's residual of the extended state (the plain
    Euclidean norms read 0.524 against 0.579 at beta = 0 here), and so do E
    and the Rayleigh value."""
    disc = TensorOperator(GridSpec(8.0, 3, 9, Scheme.SEM, 2))
    even = disc.even
    V = sin2_product(disc.node_coordinates())
    x = dense(even.node_coordinates())
    u = retract(even, np.exp(-0.1 * (x * x).sum(axis=1)))
    restrict = (slice(even.n),) * disc.dim
    for beta in (0.0, 5.0):
        want = _record(State(even.extend(u), disc), Problem(V, beta))
        got = _record(State(u, even), Problem(V.reshape(disc.shape)[restrict].ravel(), beta))
        assert want.residual > 0.5
        assert np.allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("step", [FixedStep(1.0), LineSearchStep()], ids=["fixed", "linesearch"])
def test_sector_and_full_grid_runs_stop_alike(step):
    """From the same even start, the modified-H1 flow on the even sector and on
    the full grid stops for the same reason after the same iterations, with E
    and lambda within 1e-12 relative."""
    disc = TensorOperator(GridSpec(8.0, 2, 64, Scheme.FD2))
    even = disc.even
    V = sin2_product(disc.node_coordinates())
    problem = Problem(V, 5.0, 0.15)
    u0 = default_initial_state(disc, "linear", problem)

    def restrict(v):
        return v.reshape(disc.shape)[(slice(even.n),) * disc.dim].ravel()

    flow, stop = FlowConfig(alpha=0.15, step=step), StopRule(1e-10)
    full = run(flow, problem, u0, stop)
    half = run(flow, Problem(restrict(V), 5.0, 0.15), State(restrict(u0.coeffs), even), stop)
    assert (half.reason, half.iterations) == (full.reason, full.iterations)
    assert full.reason == "tol"
    for got, want in ((half.records[-1].energy, full.records[-1].energy),
                      (half.records[-1].eigenvalue, full.records[-1].eigenvalue)):
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("spec", [GridSpec(8.0, 2, 40, Scheme.FD2),
                                  GridSpec(8.0, 3, 6, Scheme.SEM, 3)], ids=str)
def test_every_recorded_state_is_h_unit(monkeypatch, spec):
    """The record reads A_u u as F(u), which it is on the h-unit sphere: every state `run`
    records is h-unit to 1e-13, in the linear start's beta = 0 flow on its even sector
    and in a fixed step's, a line search's and BFSP's run from that start."""
    disc = TensorOperator(spec)
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15)
    seen = []

    def spy(state, problem):
        seen.append((state.disc, abs(state.h_norm_sq - 1.0)))
        return residual(state, problem)

    monkeypatch.setattr(flows, "residual", spy)
    u0 = default_initial_state(disc, "linear", problem)
    assert {grid for grid, _ in seen} == {disc.even}
    for flow in (FlowConfig(), FlowConfig(step=LineSearchStep()),
                 FlowConfig(kind=FlowKind.BFSP)):
        count = len(seen)
        report = run(flow, problem, u0, StopRule(1e-10, max_iter=200))
        assert len(seen) - count >= len(report.records) > 5
    assert max(err for _, err in seen) <= 1e-13


def test_linear_flow_whose_energy_falls_does_not_stall():
    """On this grid the beta = 0 line-search flow's residual rises (0.36 to
    0.66) before it falls, while E falls from 87.6: a stall window over a
    falling energy does not stop the run, which ends by tol."""
    disc = TensorOperator(GridSpec(8.0, 3, 6, Scheme.SEM, 8))
    problem = Problem(harmonic_lattice(disc.node_coordinates()), 0.0, 10.0)
    z0 = disc.eigen.vectors[:, 0]
    u0 = State(retract(disc, reduce(np.multiply.outer, [z0] * 3).ravel()), disc)
    report = run(FlowConfig(alpha=10.0, step=LineSearchStep()), problem, u0,
                 StopRule(1e-10))
    r, e = report.residuals, report.energies
    assert r[1:11].min() > r[0] and e[10] < e[0]  # a stall window over falling E
    assert report.reason == "tol"


def test_stall_with_rising_energy_is_diverged():
    """A gradient flow whose step is far above its stability threshold
    stalls with the energy going up: that is no convergence."""
    disc = TensorOperator(GridSpec(8.0, 1, 64, Scheme.FD2))
    problem = Problem(harmonic_lattice(disc.node_coordinates()), 1600.0, 10.0)
    report = run(FlowConfig(alpha=10.0, step=FixedStep(0.5)), problem,
                 default_initial_state(disc),
                 StopRule(residual_tol=1e-12, stall_window=10, max_iter=3000))
    assert report.reason == "diverged"
    assert not report.converged
    assert np.diff(report.energies[-11:]).max() > 1e-12 * abs(report.energies[-1])
    assert report.best_residual < report.records[-1].residual
    assert report.best_iter < report.iterations


def counted(counts: dict, fn, key: str):
    """fn, counting its calls in counts[key]."""
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("tol", [0.0, 1e-10])
@pytest.mark.parametrize("kind, policy", [
    pytest.param(FlowKind.MODIFIED_H1, FixedStep(0.5), id="FixedStep(tau=0.5)"),
    pytest.param(FlowKind.MODIFIED_H1, LineSearchStep(), id="LineSearchStep()"),
    # a fixed L2 step must stay below 2 / lambda_max(-Delta_h) ~ 0.007 here
    pytest.param(FlowKind.L2, FixedStep(0.005), id="l2-FixedStep(tau=0.005)"),
    pytest.param(FlowKind.L2, LineSearchStep(), id="l2-LineSearchStep()"),
])
def test_operator_counts_per_iteration(monkeypatch, kind, policy, tol):
    """A modified-H1 iterate costs one transform (of A_u u) and one inverse
    transform, with no solve and no Laplacian: -Delta_h u and transform(u)
    are carried and -Delta_h g is free, the line search's included.  An L2
    iterate costs one Laplacian, of its gradient, which the line search
    reuses.  Only the start and the states rebuilt to check a record that
    met the tolerance apply -Delta_h u and transform(u) to the state itself."""
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 12, Scheme.FD2), 3.0)
    u0 = default_initial_state(disc)
    counts = dict.fromkeys(["lap", "forward", "backward", "solve"], 0)
    monkeypatch.setattr(TensorOperator, "apply_neg_laplacian",
                        counted(counts, TensorOperator.apply_neg_laplacian, "lap"))
    transform = TensorOperator.transform

    def counted_transform(self, x, inverse=False, **kwargs):
        counts["backward" if inverse else "forward"] += 1
        return transform(self, x, inverse, **kwargs)
    monkeypatch.setattr(TensorOperator, "transform", counted_transform)
    monkeypatch.setattr(FastSolver, "solve", counted(counts, FastSolver.solve, "solve"))
    report = run(FlowConfig(kind=kind, alpha=problem.alpha, step=policy), problem, u0,
                 StopRule(residual_tol=tol, stall_window=50, max_iter=6 if tol == 0 else 300))
    k, refreshes = report.iterations, report.refreshes
    if tol == 0:
        assert report.reason == "max_iter" and k == 6 and refreshes == 0
        unused = 0
    else:
        assert report.reason == "tol" and refreshes >= 1
        # the stopping state was rebuilt; no step follows to take its transform(u)
        unused = 1
    if kind is FlowKind.L2:
        assert counts["lap"] == 1 + k + refreshes
        assert counts["forward"] == counts["backward"] == 0
    else:
        assert counts["lap"] == 1 + refreshes
        assert counts["backward"] == k
        assert counts["forward"] == 1 + k + refreshes - unused
    assert counts["solve"] == 0
    if tol > 0:  # the record that stopped the run is the rebuilt state's
        s = State(report.final_state.coeffs, disc)
        assert report.records[-1].residual == residual(s, problem) <= tol
        assert report.records[-1].energy == energy(s, problem)


@pytest.mark.parametrize("tol", [0.0, 1e-10])
def test_bfsp_step_applies_no_laplacian(monkeypatch, tol):
    """A BFSP iterate is one solve, and -Delta_h u' comes out of it: only the
    start and the states rebuilt to check a record that met the tolerance
    apply -Delta_h.  With V = 0 and beta = 0, BFSP is shifted inverse
    iteration and its fixed point is the ground state, so a run can stop by
    tol."""
    disc = TensorOperator(GridSpec(1.0, 2, 12, Scheme.FD2))
    problem = Problem(np.zeros(disc.ndof), 0.0, 0.5)
    u0 = default_initial_state(disc)
    counts = dict.fromkeys(["lap", "solve"], 0)
    monkeypatch.setattr(TensorOperator, "apply_neg_laplacian",
                        counted(counts, TensorOperator.apply_neg_laplacian, "lap"))
    monkeypatch.setattr(FastSolver, "solve", counted(counts, FastSolver.solve, "solve"))
    report = run(FlowConfig(kind=FlowKind.BFSP, alpha=0.5, dt=0.1), problem, u0,
                 StopRule(residual_tol=tol, stall_window=50, max_iter=6 if tol == 0 else 300))
    if tol == 0:
        assert report.reason == "max_iter" and report.iterations == 6
        assert report.refreshes == 0
    else:
        assert report.reason == "tol" and report.refreshes >= 1
    assert counts["lap"] == 1 + report.refreshes
    assert counts["solve"] == report.iterations


@pytest.mark.parametrize("kind, policy", [
    pytest.param(kind, policy, id=str(policy) if kind is FlowKind.MODIFIED_H1
                 else f"{kind.value}-{policy}")
    for kind in (FlowKind.MODIFIED_H1, FlowKind.L2, FlowKind.A0, FlowKind.AU)
    for policy in (FixedStep(1.0), LineSearchStep())])
def test_carried_values_stay_exact_over_20_steps(kind, policy):
    """-Delta_h u, and transform(u) for a FastSolver G, carried by linearity
    through the steps, match the operators applied to the iterate, for every
    metric."""
    disc = TensorOperator(GridSpec(8.0, 2, 8, Scheme.SEM, 3))
    problem = Problem(sin2_product(disc.node_coordinates()), 5.0, 0.15)
    state = default_initial_state(disc)
    G_at = metric_inverse(kind, problem, state, problem.alpha)
    for _ in range(20):
        state, _ = gradient_step(state, problem, G_at(state), policy)
    assert state._neg_lap is not None
    pairs = [(state.neg_lap, disc.apply_neg_laplacian(state.coeffs))]
    if kind is FlowKind.MODIFIED_H1:
        assert state.transformed is not None
        pairs.append((state.transformed, disc.transform(state.coeffs)))
    for carried, exact in pairs:
        assert np.linalg.norm(carried - exact) <= 1e-12 * np.linalg.norm(exact)


@pytest.mark.parametrize("flow, vectors, spec", [
    pytest.param(FlowConfig(alpha=0.15, step=FixedStep(1.0)), 7,
                 GridSpec(8.0, 3, 8, Scheme.SEM, 3), id="FixedStep(tau=1.0)"),
    pytest.param(FlowConfig(alpha=0.15, step=LineSearchStep()), 12,
                 GridSpec(8.0, 3, 8, Scheme.SEM, 3), id="LineSearchStep()"),
    pytest.param(FlowConfig(kind=FlowKind.BFSP, alpha=1.0, dt=0.1), 6,
                 GridSpec(8.0, 3, 8, Scheme.SEM, 3), id="BFSP"),
    pytest.param(FlowConfig(alpha=0.15, step=FixedStep(1.0)), 7,
                 GridSpec(8.0, 2, 300, Scheme.FD2), id="folded-2D-FixedStep(tau=1.0)"),
    pytest.param(FlowConfig(alpha=0.15, step=FixedStep(1.0)), 4,
                 GridSpec(8.0, 3, 27, Scheme.SEM, 3), id="multi-chunk-FixedStep(tau=1.0)"),
    pytest.param(FlowConfig(alpha=0.15, step=LineSearchStep()), 11,
                 GridSpec(8.0, 3, 27, Scheme.SEM, 3), id="multi-chunk-LineSearchStep()"),
    pytest.param(FlowConfig(kind=FlowKind.BFSP, alpha=1.0, dt=0.1), 4,
                 GridSpec(8.0, 3, 27, Scheme.SEM, 3), id="multi-chunk-BFSP")])
def test_run_peak_memory_in_vectors(flow, vectors, spec):
    """The most ndof-sized arrays a run() holds at once, above its inputs
    (numpy reports its buffers to tracemalloc), stays at its count.  No state carries
    u*w: the record forms it, with u^3, per chunk of CHUNK nodes.  The solver holds no
    denominator: it forms D by blocks of at most CHUNK nodes and half the grid's slabs
    (a whole D was one vector more at the peaks of the 80^3 and 2D grids, and the 23^3
    fixed step peaked at 7.31, BFSP at 6.24, the line search at 12.33).  On the 23^3 grid
    (one chunk) a fixed step's peak is in the record: u, -Delta_h u, transform(u), A_u u
    and the chunk's u*w and u^3 (6.47 vectors).  On the 80^3 grid (16 chunks) the step's
    transforms consume their input: the peak, 4.27, is in a transform of the step (u,
    -Delta_h u - tau A_u u, transform(u) and A_u u's buffer or the gradient's transform,
    beside one column block); 7.17 with whole-vector records and fresh transform
    outputs.  A transform that did not consume its input or a carried u*w would each add
    a vector; so would a BFSP rhs formed beside the record's A_u u, not in it.  BFSP's
    peak is in its solve's transforms (5.32 on the 23^3 grid, 4.27 on the 80^3 grid).
    The line search adds the four vectors its conjugate direction keeps across a step:
    d, -Delta_h d, transform(d) and g (its peak is in the line energy: 11.38 on the
    23^3 grid, 11.07 on the 80^3 grid).  A state built from coefficients holds no vector of
    its own until a diagnostic asks for one.  On the 2D lattice grid a 1D matrix is as
    large as a vector, so its count also holds the 1D eigenbasis and the half blocks (the
    plain passes' forward matrix before the fold): 7 (6.72 vectors; 7.71 with a whole D,
    8.53 with a carried u*w, 9.62 before the step's forward transform consumed A_u u)."""
    disc = TensorOperator(spec)
    problem = Problem(sin2_product(disc.node_coordinates()), 10.0, 0.15)
    u0 = default_initial_state(disc)
    report, peak, _ = traced_in_vectors(lambda: run(flow, problem, u0, StopRule(max_iter=15)),
                                        disc.ndof)
    held, _, kept = traced_in_vectors(lambda: State(u0.coeffs, disc), disc.ndof)
    assert report.iterations == 15
    assert peak < vectors + 0.5
    assert kept < 0.5 and held.h_norm_sq == u0.h_norm_sq


@pytest.mark.parametrize("spec", [GridSpec(8.0, 3, 8, Scheme.SEM, 3),
                                  GridSpec(8.0, 3, 27, Scheme.SEM, 3)],
                         ids=["one-chunk", "multi-chunk"])
@pytest.mark.parametrize("flow, vectors", [
    pytest.param(FlowConfig(alpha=0.15, step=FixedStep(1.0)), 3, id="FixedStep(tau=1.0)"),
    pytest.param(FlowConfig(alpha=0.15, step=LineSearchStep()), 3, id="LineSearchStep()"),
    pytest.param(FlowConfig(kind=FlowKind.BFSP, alpha=1.0, dt=0.1), 2, id="BFSP")])
def test_a_step_hands_on_u_its_laplacian_and_transform_only(flow, vectors, spec):
    """The state a step returns keeps u', -Delta_h u' and, under a FastSolver,
    transform(u') (a line search's direction aside): 3 vectors, 2 for BFSP, on the
    23^3 grid (one chunk) and on the 80^3 grid (16 chunks).  No u'*w rides along: its
    <u', u'>_h, like its record, forms u'*w by chunks.  A carried u'*w was a fourth
    vector (a third for BFSP, on both grids)."""
    disc = TensorOperator(spec)
    problem = Problem(sin2_product(disc.node_coordinates()), 10.0, 0.15)
    u = default_initial_state(disc).coeffs
    if flow.kind is FlowKind.BFSP:
        solver = shifted_solver(disc, flow.alpha + 1.0 / flow.dt)
        step = lambda: step_bfsp(State(u, disc), problem, solver)
    else:
        G = shifted_solver(disc, flow.alpha)

        def step():
            nxt, _ = gradient_step(State(u, disc), problem, G, flow.step)
            nxt.direction = None  # a line search's d, -Delta_h d, transform(d) and g
            return nxt
    step()  # what the grid and the solver build on first use, outside the trace
    nxt, _, kept = traced_in_vectors(step, disc.ndof)
    assert vectors - 0.5 < kept < vectors + 0.5
    assert nxt._neg_lap is not None and nxt._record is None
    assert (nxt.transformed is None) == (flow.kind is FlowKind.BFSP)
    want = float(np.dot(nxt.coeffs * disc.weights, nxt.coeffs))
    if disc.ndof <= CHUNK:
        assert nxt.h_norm_sq == want
    assert nxt.h_norm_sq == pytest.approx(want, rel=1e-14, abs=0)


@pytest.mark.parametrize("spec", [GridSpec(8.0, 3, 8, Scheme.SEM, 3),
                                  GridSpec(8.0, 3, 27, Scheme.SEM, 3)],
                         ids=["one-chunk", "multi-chunk"])
def test_record_memory_in_vectors(spec):
    """A record of a state that holds -Delta_h u keeps one ndof-sized array, A_u u,
    for the step, and allocates beside it only one chunk's u*w and u^3 (which becomes
    F): 3.02 vectors on the 23^3 grid (one chunk), 1.13 on the 80^3 grid (16 chunks)."""
    disc = TensorOperator(spec)
    problem = Problem(sin2_product(disc.node_coordinates()), 10.0, 0.15)
    state = default_initial_state(disc)
    held = state.neg_lap
    record = lambda: (energy(state, problem), residual(state, problem),
                      eigenvalue_estimate(state, problem))
    values, peak, kept = traced_in_vectors(record, disc.ndof)
    assert all(np.isfinite(values)) and held is state.neg_lap
    assert peak < 1 + 2 * min(CHUNK, disc.ndof) / disc.ndof + 0.05
    assert 0.5 < kept < 1.5
    assert euclidean_gradient(state, problem) is state._Au_u[1]


def test_line_energy_memory_in_vectors():
    """The line energy of a state that holds its record and -Delta_h u
    allocates at most two ndof-sized arrays at once (w d and V w d, then
    w d u^2) and keeps none."""
    disc = TensorOperator(GridSpec(8.0, 3, 8, Scheme.SEM, 3))
    problem = Problem(sin2_product(disc.node_coordinates()), 10.0, 0.15)
    state = default_initial_state(disc)
    energy(state, problem)
    held = state.neg_lap
    d = retract(disc, np.random.default_rng(5).standard_normal(disc.ndof))
    lap_d = disc.apply_neg_laplacian(d)
    (A, Q, n), peak, kept = traced_in_vectors(lambda: line_energy(state, problem, d, lap_d),
                                              disc.ndof)
    assert np.isfinite(np.concatenate((A, Q, n))).all() and held is state.neg_lap
    assert peak < 2.5
    assert kept < 0.5


def test_tol_stop_reports_exact_record_and_final_state():
    """The refreshes make the stopping record exact, and no final state
    holds carried values, however the run stopped."""
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 16, Scheme.FD2), 2.0)
    u0 = default_initial_state(disc)
    report = run(FlowConfig(alpha=problem.alpha), problem, u0,
                 StopRule(residual_tol=1e-11))
    assert report.reason == "tol" and report.refreshes >= 1
    s = report.final_state
    assert np.array_equal(s.neg_lap, disc.apply_neg_laplacian(s.coeffs))
    assert residual(s, problem) == report.records[-1].residual
    assert energy(s, problem) == report.records[-1].energy
    assert u0._neg_lap is None  # run() fills no cache of the caller's state
    cut = run(FlowConfig(alpha=problem.alpha), problem, u0, StopRule(max_iter=3))
    assert cut.reason == "max_iter" and cut.refreshes == 0
    s = cut.final_state
    assert np.array_equal(s.neg_lap, disc.apply_neg_laplacian(s.coeffs))


def test_tol_stop_is_decided_on_a_fresh_state(monkeypatch):
    """Carried values that claim convergence do not stop a run: every step
    here returns a state whose carried -Delta_h u is lam u - (V + beta u^2) u
    (lam = 1), so its residual reads ~0, and the run still ends on the exact record of
    an iterate that meets the tolerance."""
    disc, problem, _ = exact_problem(GridSpec(1.0, 2, 16, Scheme.FD2), 2.0)
    step = flows.gradient_step

    def corrupted(*args):
        state, tau = step(*args)
        u = state.coeffs
        state._neg_lap = u - (problem.potential + problem.beta * u ** 2) * u
        assert residual(state, problem) <= 1e-14
        return state, tau

    monkeypatch.setattr(flows, "gradient_step", corrupted)
    tol = 1e-10
    report = run(FlowConfig(alpha=problem.alpha), problem,
                 default_initial_state(disc), StopRule(residual_tol=tol))
    assert report.reason == "tol" and report.iterations > 1
    s = report.final_state
    assert residual(s, problem) <= tol
    last = report.records[-1]
    assert (last.energy, last.residual, last.eigenvalue) == (
        energy(s, problem), residual(s, problem), eigenvalue_estimate(s, problem))


RUN_FAULTS = """
import resource, sys
import numpy as np
from gpflow.energy import Problem, State, retract
from gpflow.flows import FixedStep, FlowConfig, LineSearchStep, StopRule, run
from gpflow.grids import GridSpec, Scheme, TensorOperator
from gpflow.potentials import harmonic_lattice

disc = TensorOperator(GridSpec(8.0, 3, 32, Scheme.FD2))
problem = Problem(harmonic_lattice(disc.node_coordinates()), 100.0, 10.0)
u0 = State(retract(disc, np.ones(disc.ndof)), disc)
for step in (FixedStep(1.0), LineSearchStep()):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    rep = run(FlowConfig(alpha=10.0, step=step), problem, u0,
              StopRule(0.0, stall_window=1000, max_iter=30))
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    print(faults / rep.iterations / (8 * disc.ndof / 4096))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
def test_run_keeps_its_vectors_in_the_heap():
    """A run serves its per-iterate vectors from glibc's heap, not from fresh mmaps
    that fault in every page: in a fresh process, whose set-up frees no chunk
    above one vector, 30 fixed-step and 30 line-search iterates on fd2 31^3 fault
    in 0.25 and 0.17 vectors' pages per iterate (0.92 and 1.57 without the run's
    freed 3-vector chunk)."""
    src = os.path.dirname(os.path.dirname(flows.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", RUN_FAULTS],
                         env=env, capture_output=True, text=True, check=True)
    assert all(float(x) < 0.6 for x in out.stdout.split())


def test_slow_flow_runs_past_its_plateau_to_tol():
    """sem3 2D, 16 cells of [-8, 8]^2, harmonic_lattice, beta = 20, alpha = 1, line
    search, tol 1e-10, stall_window 10: a slow flow (A_u's gap is 6.06e-6).  From
    iteration 201 its best residual, 8.4e-7, has not improved for 10 iterates and
    E is flat to 1e-12 |E|: a plateau, where run stopped by `stall` when flat E
    alone made a floor.  Its last decade took longer than 10 iterates, so it runs
    on and ends by tol at iteration 350."""
    disc = TensorOperator(GridSpec(8.0, 2, 16, Scheme.SEM, 3))
    problem = Problem(harmonic_lattice(disc.node_coordinates()), 20.0, 1.0)
    report = run(FlowConfig(alpha=1.0, step=LineSearchStep()), problem,
                 default_initial_state(disc), StopRule(1e-10, stall_window=10))
    assert (report.reason, report.iterations) == ("tol", 350)
    r, E = report.residuals, report.energies
    plateau = [i for i in range(11, len(r)) if r[i - 9:i + 1].min() >= r[:i - 9].min()
               and np.ptp(E[i - 10:i + 1]) <= flows.ENERGY_RISE_RTOL * abs(E[i])]
    assert plateau[0] == 201 and 8e-7 < r[:192].min() < 9e-7
