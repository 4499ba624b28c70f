import numpy as np
import pytest

from gpflow.analysis import (RateFit, _order, convergence_study, eigengap_study, exact_case,
                             linearized_eigenpairs, rate_fit, set_up, solve_exact_case)
from gpflow.energy import Problem, State, energy, inner_h, retract
from gpflow.flows import (FlowConfig, FlowKind, LineSearchStep, RunReport, IterationRecord,
                          StopRule, default_initial_state, run)
from gpflow.grids import GridSpec, Scheme, TensorOperator, build_1d
from gpflow.linalg import FastSolver, lowest_two_eigenpairs
from gpflow.potentials import exact_case_potential, harmonic_lattice, sin2_product

from oracles import (ConvexityReport, MMatrixReport, convexity_check, dense_Au,
                     dense_neg_laplacian, m_matrix_check, monotonicity_oracle,
                     sqrt_energy_hessian)


def test_exact_case_values_3d():
    disc = TensorOperator(GridSpec(1.0, 3, 8, Scheme.FD2))
    case = exact_case(disc, 1.0)
    assert case.lambda_star == pytest.approx(3 * np.pi ** 2 / 4 + 1)
    assert case.lambda_star == pytest.approx(8.40220, abs=5e-6)
    assert case.rho_star == pytest.approx((3.0 / 4.0) ** 3)
    assert np.all(exact_case_potential(1.0)(disc.node_coordinates()) >= 0)


def test_exact_case_values_1d_linear():
    disc = TensorOperator(GridSpec(1.0, 1, 16, Scheme.FD2))
    case = exact_case(disc, 0.0)
    assert np.array_equal(exact_case_potential(0.0)(disc.node_coordinates()), np.zeros(15))
    assert case.lambda_star == pytest.approx(np.pi ** 2 / 4)
    assert case.energy_star == pytest.approx(np.pi ** 2 / 8)


def test_exact_case_discrete_norm_identities():
    """h = 0.05 in 3D: <u*, u*>_h = 1 and <u*^2, u*^2>_h = (3/4)^3 exactly."""
    disc = TensorOperator(GridSpec(1.0, 3, 40, Scheme.FD2))
    assert disc.spec.cell_size == pytest.approx(0.05)
    case = exact_case(disc, 2.0)
    u = case.u_star
    assert inner_h(disc, u, u) == pytest.approx(1.0, abs=1e-14)
    assert inner_h(disc, u ** 2, u ** 2) == pytest.approx((0.75) ** 3, abs=1e-14)


def test_exact_case_rejects_wrong_domain():
    disc = TensorOperator(GridSpec(2.0, 1, 8, Scheme.FD2))
    with pytest.raises(ValueError):
        exact_case(disc, 1.0)


def solve_exact_case_with_problem(monkeypatch, spec, beta, **kw):
    """solve_exact_case's (report, case), and the problem its run was given."""
    problems = []

    def spy(flow, problem, u0, stop):
        problems.append(problem)
        return run(flow, problem, u0, stop)

    with monkeypatch.context() as m:
        m.setattr("gpflow.analysis.run", spy)
        report, case = solve_exact_case(spec, beta, **kw)
    return report, case, problems[0]


def test_solve_exact_case_sets_up_the_manufactured_potential(monkeypatch):
    """The run's V is exact_case_potential(beta) at the grid's nodes, and the
    case's u* is at the nodes of the run's grid."""
    spec = GridSpec(1.0, 2, 12, Scheme.SEM, 2)
    report, case, problem = solve_exact_case_with_problem(monkeypatch, spec, 3.0)
    coords = report.final_state.disc.node_coordinates()
    assert np.array_equal(problem.potential, exact_case_potential(3.0)(coords))
    assert np.array_equal(case.u_star, exact_case(TensorOperator(spec), 3.0).u_star)
    assert (problem.beta, problem.alpha) == (3.0, 0.2)


def test_solve_exact_case_fd2_closed_form_error(monkeypatch):
    """FD2 discrete eigenvalue is d mu1 + beta regardless of beta."""
    spec = GridSpec(1.0, 2, 20, Scheme.FD2)
    report, _, problem = solve_exact_case_with_problem(monkeypatch, spec, 7.0)
    assert report.reason == "tol"
    from gpflow.energy import eigenvalue_estimate
    lam = eigenvalue_estimate(report.final_state, problem)
    h = spec.cell_size
    mu1 = (4.0 / h ** 2) * np.sin(np.pi * h / 4.0) ** 2
    assert lam == pytest.approx(2 * mu1 + 7.0, abs=1e-10)


def test_convergence_study_fd2_1d_orders():
    table = convergence_study([GridSpec(1.0, 1, c) for c in (10, 20, 40)], 1.0)
    rows = table["fd2"]
    assert len(rows) == 3
    assert all(r.converged for r in rows)
    assert np.isnan(rows[0].lambda_order)
    for r in rows[1:]:
        assert r.lambda_order == pytest.approx(2.0, abs=0.05)
        assert r.energy_order == pytest.approx(2.0, abs=0.05)
    # the nodal restriction of u* is the exact FD2 eigenvector, so the sup
    # error sits at solver tolerance on every level
    assert all(r.sup_err < 1e-8 for r in rows)
    # closed-form eigenvalue error: mu1 - pi^2/4
    h = rows[0].h
    mu1 = (4.0 / h ** 2) * np.sin(np.pi * h / 4.0) ** 2
    assert rows[0].lambda_err == pytest.approx(abs(mu1 - np.pi ** 2 / 4), rel=1e-6)


def test_convergence_study_from_the_negated_start_gives_the_same_table(monkeypatch):
    """The flow is odd in u, so a run from -u0 ends at -u, which the study flips
    back: the same table, bit for bit."""
    specs = [GridSpec(1.0, 1, c) for c in (10, 20)]
    want = convergence_study(specs, 1.0, stop=StopRule(max_iter=20))
    negated = lambda *args: State(-default_initial_state(*args).coeffs, args[0])
    monkeypatch.setattr("gpflow.analysis.default_initial_state", negated)
    got = convergence_study(specs, 1.0, stop=StopRule(max_iter=20))
    assert repr(got) == repr(want)


def test_order_of_a_zero_error_is_nan():
    assert _order(4e-3, 1e-3) == 2.0
    assert np.isnan(_order(1e-3, 0.0)) and np.isnan(_order(0.0, 1e-3))


def test_convergence_study_needs_two_levels_per_scheme(monkeypatch):
    """A scheme with one spec is refused before any run."""
    calls = []
    monkeypatch.setattr("gpflow.analysis.run", lambda *args: calls.append(args))
    specs = [GridSpec(1.0, 1, 10), GridSpec(1.0, 1, 20), GridSpec(1.0, 1, 5, Scheme.SEM, 2)]
    for bad in (specs, specs[2:], []):
        with pytest.raises(ValueError, match="two refinement levels per scheme"):
            convergence_study(bad, 1.0)
    assert calls == []


def fd2_Au_matrix(n=50, seed=0):
    disc = TensorOperator(GridSpec(1.0, 1, n + 1, Scheme.FD2))
    rng = np.random.default_rng(seed)
    V = rng.uniform(0.1, 2.0, size=disc.ndof)
    u = rng.standard_normal(disc.ndof)
    problem = Problem(V, 1.5)
    return dense_Au(State(u, disc), problem)


def test_m_matrix_fd2_Au_passes():
    rep = m_matrix_check(fd2_Au_matrix())
    assert rep.passes_sufficient
    assert rep.witness == ""


def test_m_matrix_identity_passes():
    assert m_matrix_check(np.eye(5)).passes_sufficient


def test_m_matrix_sem2_fails():
    """SEM(2) stiffness has positive off-diagonal entries."""
    op = build_1d(GridSpec(1.0, 1, 4, Scheme.SEM, 2))
    A = op.stiffness + np.diag(op.weights)  # S + M: strictly diag-dominant
    rep = m_matrix_check(A)
    assert not rep.passes_sufficient
    assert "off-diagonal" in rep.witness


def test_m_matrix_witnesses():
    rep = m_matrix_check(np.diag([1.0, -2.0]))
    assert not rep.passes_sufficient and "diagonal" in rep.witness
    bad_rows = np.array([[1.0, -3.0], [0.0, 1.0]])
    rep = m_matrix_check(bad_rows)
    assert not rep.passes_sufficient and "row sum" in rep.witness
    # zero row sums everywhere: Neumann-like, fails the strict condition
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    rep = m_matrix_check(A)
    assert not rep.passes_sufficient and "positive row sum" in rep.witness


def test_monotonicity_oracle_examples():
    assert monotonicity_oracle(fd2_Au_matrix())
    n = 20
    neg_lap = (np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1)
               + np.diag(np.ones(n - 1), -1))
    assert not monotonicity_oracle(neg_lap)
    assert monotonicity_oracle(np.eye(7))
    with pytest.raises(np.linalg.LinAlgError):
        monotonicity_oracle(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        monotonicity_oracle(np.eye(201))


def test_m_matrix_implies_monotonicity():
    """Sufficient condition => explicit-inverse nonnegativity, many instances."""
    rng = np.random.default_rng(0)
    checked = 0
    for seed in range(30):
        A = fd2_Au_matrix(n=rng.integers(5, 60), seed=seed)
        rep = m_matrix_check(A)
        if rep.passes_sufficient:
            assert monotonicity_oracle(A)
            checked += 1
    assert checked >= 25


def sine_mode(disc, k):
    """The k-th sine mode of -Delta_h on FD2 1D, h-normalized."""
    return retract(disc, np.sin(k * np.pi * (disc.op.nodes + 1.0) / 2.0))


def test_perron_linear_sine_mode():
    """beta=0, V = 0, FD2 1D: the positive sine mode has lambda0 = mu1 and a
    positive gap, so it is the lowest eigenvector."""
    spec = GridSpec(1.0, 1, 32, Scheme.FD2)
    disc = TensorOperator(spec)
    fs = FastSolver(disc, 0.1)
    mode = sine_mode(disc, 1)
    res = lowest_two_eigenpairs(lambda w: disc.apply_neg_laplacian(w), disc.weights, mode,
                                solve_inner=fs.solve)
    assert mode.min() > 0 and res.gap > 0
    h = spec.cell_size
    assert res.lambda0 == pytest.approx((4.0 / h ** 2) * np.sin(np.pi * h / 4.0) ** 2,
                                        rel=1e-12)


def test_perron_gap_approaches_continuum():
    """beta=0 gap = mu2 - mu1 -> 3 pi^2 / 4 as h -> 0."""
    gaps = []
    for cells in (16, 32, 64):
        spec = GridSpec(1.0, 1, cells, Scheme.FD2)
        disc = TensorOperator(spec)
        fs = FastSolver(disc, 0.1)
        res = lowest_two_eigenpairs(lambda w: disc.apply_neg_laplacian(w), disc.weights,
                                    sine_mode(disc, 1), solve_inner=fs.solve)
        h = spec.cell_size
        mu = lambda k: (4.0 / h ** 2) * np.sin(k * np.pi * h / 4.0) ** 2
        assert res.gap == pytest.approx(mu(2) - mu(1), rel=1e-7)
        gaps.append(res.gap)
    assert gaps[-1] == pytest.approx(3 * np.pi ** 2 / 4, rel=5e-3)


def test_perron_converged_2d_ground_state(monkeypatch):
    report, _, problem = solve_exact_case_with_problem(
        monkeypatch, GridSpec(1.0, 2, 16, Scheme.FD2), 3.0)
    state = report.final_state
    from gpflow.energy import apply_Au
    disc = state.disc
    fs = FastSolver(disc, 1.0)
    res = lowest_two_eigenpairs(apply_Au(state, problem), disc.weights, state.coeffs,
                                solve_inner=fs.solve)
    u = state.coeffs * np.sign(disc.weights @ state.coeffs)
    assert u.min() > 0 and res.gap > 0


def test_linearized_eigenpairs_at_an_excited_state():
    """u the second sine mode (fd2 1D, 32 cells, V = 0, beta = 0): lambda0 is
    u's Rayleigh value mu2 = 9.8379 and the column on u's complement finds mu1,
    so the gap, mu1 - mu2 = -7.373, says that u is not the lowest mode."""
    disc = TensorOperator(GridSpec(1.0, 1, 32, Scheme.FD2))
    res = linearized_eigenpairs(State(sine_mode(disc, 2), disc),
                                Problem(np.zeros(disc.ndof), 0.0, 0.15))
    assert res.lambda0 == pytest.approx(9.8379, abs=1e-4)
    assert res.gap == pytest.approx(-7.373, abs=1e-3)


def test_eigengap_study_stable_across_levels():
    specs = [GridSpec(1.0, 1, c, Scheme.FD2) for c in (20, 40, 80)]
    rows = eigengap_study(specs, exact_case_potential(2.0), 2.0)
    gaps = np.array([r.gap for r in rows])
    assert np.all(gaps > 0)
    assert np.max(gaps) / np.min(gaps) <= 1.05
    assert np.min(gaps) >= 0.5 * gaps[0]
    assert [r.h for r in rows] == [s.cell_size for s in specs]


def test_convexity_fd2_1d():
    disc = TensorOperator(GridSpec(1.0, 1, 9, Scheme.FD2))  # n = 8
    rng = np.random.default_rng(0)
    V = rng.uniform(0.0, 2.0, size=disc.ndof)
    rep = convexity_check(disc, Problem(V, 2.0), samples=20)
    assert rep.supported
    assert rep.hessian_psd
    assert rep.abs_value_inequality


def test_convexity_abs_equality_for_nonnegative():
    disc = TensorOperator(GridSpec(1.0, 1, 8, Scheme.FD2))
    problem = Problem(np.ones(disc.ndof), 1.0)
    from gpflow.energy import energy
    rng = np.random.default_rng(1)
    u = np.abs(rng.standard_normal(disc.ndof))
    assert energy(State(u, disc), problem) == energy(State(np.abs(u), disc), problem)


def test_sqrt_energy_hessian_matches_finite_differences():
    """The closed form against the centred finite-difference Hessian of
    v -> E_h(sqrt(v)) from `energy` (step 1e-5), at 25 dofs."""
    disc = TensorOperator(GridSpec(1.0, 2, 6, Scheme.FD2))
    n, step = disc.ndof, 1e-5
    rng = np.random.default_rng(3)
    problem = Problem(rng.uniform(0.0, 2.0, size=n), 2.0)
    v = rng.uniform(0.2, 1.0, size=n)
    v /= float(np.dot(disc.weights, v))

    def E_of_v(v):
        return energy(State(np.sqrt(v), disc), problem)

    fd = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            ei = np.zeros(n); ei[i] = step
            ej = np.zeros(n); ej[j] = step
            fd[i, j] = fd[j, i] = (
                E_of_v(v + ei + ej) - E_of_v(v + ei - ej)
                - E_of_v(v - ei + ej) + E_of_v(v - ei - ej)
            ) / (4.0 * step ** 2)
    S = disc.weights[:, None] * dense_neg_laplacian(disc)
    H = sqrt_energy_hessian(S, disc.weights, problem.beta, v)
    assert np.linalg.norm(H - fd) <= 1e-4 * np.linalg.norm(H)


@pytest.mark.parametrize("scheme, degree, monotone", [
    (Scheme.FD2, 1, True), (Scheme.SEM, 1, True),
    (Scheme.COMPACT4, 1, False), (Scheme.SEM, 2, False)])
@pytest.mark.parametrize("dim", [1, 2])
def test_monotone_per_scheme_and_on_the_even_sector(scheme, degree, monotone, dim):
    """-Delta_h is an M-matrix on fd2 and sem1 only; the even sector's grid says
    what its parent says."""
    disc = TensorOperator(GridSpec(1.0, dim, 6, scheme, degree))
    assert disc.monotone is monotone and disc.even.monotone is monotone
    assert m_matrix_check(disc.weights[:, None] * dense_neg_laplacian(disc)).passes_sufficient \
        is monotone


def test_convexity_sem2_unsupported():
    disc = TensorOperator(GridSpec(1.0, 1, 4, Scheme.SEM, 2))
    rep = convexity_check(disc, Problem(np.ones(disc.ndof), 1.0), samples=1)
    assert not rep.supported
    assert not rep.hessian_psd


@pytest.mark.parametrize("spec, potential, beta, flow, stop, initial", [
    (GridSpec(1.0, 1, 24), exact_case_potential(2.0), 2.0, FlowConfig(alpha=0.2), StopRule(),
     "constant"),
    (GridSpec(1.0, 2, 6), exact_case_potential(2.0), 2.0, FlowConfig(alpha=0.2), StopRule(),
     "constant"),
    (GridSpec(1.0, 1, 6), exact_case_potential(2.0), 2.0, FlowConfig(alpha=0.2),
     StopRule(max_iter=100), "constant"),
    (GridSpec(8.0, 2, 8), lambda x: harmonic_lattice(x) + 1e4, 1000.0,
     FlowConfig(alpha=10.0, step=LineSearchStep()), StopRule(residual_tol=0.0), "constant"),
    (GridSpec(8.0, 2, 12), sin2_product, 5.0, FlowConfig(kind=FlowKind.BFSP), StopRule(),
     "linear")], ids=["fd2_1d_24", "fd2_2d_6", "fd2_1d_6", "stall_2d_8", "bfsp_2d_12"])
def test_dense_oracles_pass_at_the_small_verify_states(spec, potential, beta, flow, stop,
                                                       initial):
    """The dense oracles at the converged states of the small fd2 runs that
    test_cli's verify tests make (the exact case at beta = 2 on 24 cells in 1D, 6
    in 2D and 6 in 1D; the stall and BFSP reproducers): A_u is an M-matrix with a
    nonnegative inverse, v -> E_h(sqrt(v)) has a PSD Hessian and E_h(u) >=
    E_h(|u|).  They hold of the discretization, so verify checks the run only."""
    problem, u0 = set_up(spec, potential, beta, flow, initial)
    report = run(flow, problem, u0, stop)
    state, disc = report.final_state, u0.disc
    assert report.converged
    A = dense_Au(state, problem)
    assert m_matrix_check(A * disc.weights[:, None]).passes_sufficient
    assert monotonicity_oracle(A)
    assert convexity_check(disc, problem, samples=5) == ConvexityReport(True, True, True)


def synthetic_report(residuals):
    records = [IterationRecord(i, 1.0, r, 1.0, 1.0)
               for i, r in enumerate(residuals)]
    state = None
    return RunReport(records, state, "tol", 0.0)


def test_rate_fit_geometric():
    fit = rate_fit(synthetic_report(0.5 ** np.arange(40)))
    assert fit.rate == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared > 1 - 1e-12


def test_rate_fit_exact_case_run():
    report, _ = solve_exact_case(GridSpec(1.0, 2, 20, Scheme.FD2), 2.0,
                                 stop=StopRule(residual_tol=1e-12, max_iter=200))
    fit = rate_fit(report, 0.8)
    assert fit.rate < 1.0
    assert fit.r_squared > 0.99


def test_rate_fit_noise_low_r2():
    rng = np.random.default_rng(0)
    fit = rate_fit(synthetic_report(rng.uniform(0.1, 1.0, size=60)))
    assert fit.r_squared < 0.5


def test_rate_fit_needs_tail():
    with pytest.raises(ValueError):
        rate_fit(synthetic_report(0.5 ** np.arange(6)))
