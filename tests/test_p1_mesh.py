import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.spatial import Delaunay

from gpflow.analysis import linearized_eigenpairs
from gpflow.energy import (Problem, State, euclidean_gradient, inner_h, norm_h,
                           retract, riemannian_gradient)
from gpflow.flows import (FixedStep, FlowConfig, FlowKind, LineSearchStep,
                          StopRule, default_initial_state, run, step_bfsp)
from gpflow.grids import GridSpec, Scheme, TensorOperator
from gpflow.linalg import daxpy, shifted_solver
from gpflow.meshes import (MeshError, MonotonicityReport, TriMesh2D, edge_cotangent_sums,
                           mesh_monotonicity_check, p1_assemble,
                           structured_right_triangle_mesh)

from oracles import ConvexityReport, convexity_check, dense_Au, m_matrix_check
from test_flows import lobpcg_ground_state
from test_tensor import dense


def delaunay_mesh(points: np.ndarray) -> TriMesh2D:
    tri = Delaunay(points)
    boundary = np.zeros(len(points), dtype=bool)
    boundary[np.unique(tri.convex_hull)] = True
    # scipy triangles are counter-clockwise already; enforce anyway
    tris = tri.simplices.copy()
    p = points
    for t in range(len(tris)):
        i, j, k = tris[t]
        e1, e2 = p[j] - p[i], p[k] - p[i]
        if e1[0] * e2[1] - e1[1] * e2[0] < 0:
            tris[t] = (i, k, j)
    return TriMesh2D(points, tris, boundary)


def jittered_mesh(n: int, seed: int, jitter: float = 0.3) -> TriMesh2D:
    """Delaunay mesh of the (n+1)^2 grid on the unit square, interior points
    moved by up to `jitter` cells in each coordinate."""
    x = np.linspace(0.0, 1.0, n + 1)
    pts = np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1).reshape(-1, 2)
    inside = np.all((pts > 0) & (pts < 1), axis=1)
    rng = np.random.default_rng(seed)
    pts[inside] += rng.uniform(-jitter, jitter, size=(int(inside.sum()), 2)) / n
    mesh = delaunay_mesh(pts)
    assert np.array_equal(mesh.boundary_mask, ~inside)
    return mesh


def harmonic_problem(disc, beta=10.0, alpha=1.0):
    """V = 50 |x - (1/2, 1/2)|^2 on the unit square."""
    x = disc.node_coordinates()
    if not isinstance(x, np.ndarray):  # a tensor grid's per-axis arrays
        x = dense(x)
    return Problem(50.0 * np.sum((x - 0.5) ** 2, axis=1), beta, alpha)


def test_structured_mesh_equals_five_point_stencil():
    """Cotangent P1 stiffness on right-triangle squares = FD2 5-point matrix."""
    cells = 4
    mesh = structured_right_triangle_mesh(cells)
    op = p1_assemble(mesh)
    n = cells - 1
    h = 1.0 / cells
    # 5-point stencil: diag 4, off -1 (no h scaling: cot 45 = 1, cot 90 = 0)
    lap1 = np.diag(np.full(n, 2.0)) - np.diag(np.ones(n - 1), 1) - np.diag(np.ones(n - 1), -1)
    want = np.kron(lap1, np.eye(n)) + np.kron(np.eye(n), lap1)
    S = op.stiffness.toarray()
    # interior vertex order: vid grid is (i, j) C-order, matching kron layout
    assert np.allclose(S, want, atol=1e-12)
    assert np.allclose(op.weights, h * h)


def test_full_row_sums_zero():
    mesh = structured_right_triangle_mesh(3)
    # assemble with no eliminated vertices by marking all interior
    free = TriMesh2D(mesh.vertices, mesh.triangles,
                     np.zeros(len(mesh.vertices), dtype=bool))
    op = p1_assemble(free)
    rs = np.asarray(op.stiffness.sum(axis=1)).ravel()
    assert np.allclose(rs, 0.0, atol=1e-13)


def test_regular_fan_row():
    """Single interior vertex of a 6-triangle equilateral fan."""
    angles = np.pi / 3 * np.arange(6)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    verts = np.vstack([[0.0, 0.0], ring])
    tris = np.array([(0, 1 + i, 1 + (i + 1) % 6) for i in range(6)])
    boundary = np.array([False] + [True] * 6)
    op = p1_assemble(TriMesh2D(verts, tris, boundary))
    # each edge to the center has two opposite 60-degree angles:
    # S_center,neighbor = -cot(60), diagonal = 6 cot(60) = 2 sqrt(3)
    assert op.ndof == 1
    assert np.allclose(op.stiffness.toarray(), [[6.0 / np.sqrt(3.0)]])
    # lumped mass: one third of total fan area
    area = 6 * (np.sqrt(3.0) / 4.0)
    assert np.allclose(op.weights, [area / 3.0])


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.data())
def test_stiffness_psd(cells, data):
    mesh = structured_right_triangle_mesh(cells)
    op = p1_assemble(mesh)
    u = np.array([data.draw(st.floats(-1, 1)) for _ in range(op.ndof)])
    assert u @ (op.stiffness @ u) >= -1e-12 * max(1.0, u @ u)


def test_monotonicity_structured():
    rep = mesh_monotonicity_check(structured_right_triangle_mesh(5))
    assert rep.ok
    assert rep.worst_value >= -1e-12


def test_monotonicity_violated_by_obtuse_pair():
    """Two triangles sharing an edge with both opposite angles > 90 degrees."""
    # edge from (0,0) to (1,0); apexes close to the edge -> obtuse opposite angles
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.15], [0.5, -0.15]])
    tris = np.array([[0, 1, 2], [0, 3, 1]])
    mesh = TriMesh2D(verts, tris, np.array([True, True, True, True]))
    rep = mesh_monotonicity_check(mesh)
    assert not rep.ok
    assert rep.worst_edge == (0, 1)
    # oracle: cot of the apex angles, both obtuse
    a = np.array([0.5, 0.15])
    e1, e2 = -a, np.array([1.0, 0.0]) - a
    c1 = np.dot(e1, e2) / abs(e1[0] * e2[1] - e1[1] * e2[0])
    assert rep.worst_value == pytest.approx(2 * c1, rel=1e-12)


def test_monotonicity_random_delaunay():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-1, 1, size=(60, 2))
    mesh = delaunay_mesh(pts)
    rep = mesh_monotonicity_check(mesh)
    assert rep.ok


def test_degenerate_triangle_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    tris = np.array([[0, 1, 2]])
    mesh = TriMesh2D(verts, tris, np.zeros(3, dtype=bool))
    with pytest.raises(MeshError, match="triangle 0"):
        p1_assemble(mesh)


@pytest.mark.parametrize("vertices, triangles, boundary, match", [
    (np.zeros((3, 3)), np.array([[0, 1, 2]]), np.zeros(3, bool), "vertices"),
    (np.zeros((3, 2)), np.array([[0, 1]]), np.zeros(3, bool), "triangles"),
    (np.zeros((3, 2)), np.array([[0, 1, 2]]), np.zeros(2, bool), "boundary_mask")])
def test_trimesh_rejects_bad_shapes(vertices, triangles, boundary, match):
    with pytest.raises(MeshError, match=match):
        TriMesh2D(vertices, triangles, boundary)


def test_mesh_without_interior_vertex_or_edge():
    """One square, two triangles: every vertex on the boundary, one shared edge.
    One triangle: no interior edge, so nothing to violate."""
    with pytest.raises(MeshError, match="no interior vertex"):
        p1_assemble(structured_right_triangle_mesh(1))
    one = TriMesh2D(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 1, 2]]), np.ones(3, bool))
    assert mesh_monotonicity_check(one) == MonotonicityReport(True, (-1, -1), np.inf)


def test_p1_length_mismatch_rejected():
    op = p1_assemble(structured_right_triangle_mesh(4))
    with pytest.raises(ValueError, match=f"length {op.ndof}, got shape"):
        op.apply_neg_laplacian(np.ones(op.ndof + 1))


def test_convexity_check_supports_p1_meshes():
    """P1 with lumped mass on a Delaunay mesh is monotone: the check runs."""
    op = p1_assemble(structured_right_triangle_mesh(4))
    rep = convexity_check(op, Problem(np.ones(op.ndof), 2.0), samples=5)
    assert op.monotone
    assert rep == ConvexityReport(True, True, True)


def test_non_delaunay_p1_mesh_is_not_monotone():
    """The structured 4x4 mesh with vertex 6 moved from (0.25, 0.25) to (0.35, 0.15)
    fails the lens condition, and its A_u has a positive off-diagonal entry 4/21 in
    the h-symmetric form: the assembled operator says it is not monotone, and the
    convexity check does not run on it."""
    base = structured_right_triangle_mesh(4)
    vertices = base.vertices.copy()
    vertices[6] = (0.35, 0.15)
    mesh = TriMesh2D(vertices, base.triangles, base.boundary_mask)
    op = p1_assemble(mesh)
    assert not mesh_monotonicity_check(mesh).ok and not op.monotone
    problem = Problem(np.ones(op.ndof), 2.0)
    A = dense_Au(State(np.ones(op.ndof) / np.sqrt(op.weights.sum()), op), problem)
    mm = m_matrix_check(A * op.weights[:, None])
    assert not mm.passes_sufficient
    assert float(mm.witness.removeprefix("positive off-diagonal entry ")) == pytest.approx(4 / 21)
    assert not convexity_check(op, problem, samples=5).supported


def edge_sum_dict(mesh):
    """Sorted edge (i, j) -> (sum of opposite cotangents, incident triangle count)."""
    return {(int(i), int(j)): (float(v), int(c))
            for (i, j), v, c in zip(*edge_cotangent_sums(mesh))}


def test_edge_cotangent_sums_interior_edge_counts_both_sides():
    mesh = structured_right_triangle_mesh(2)
    sums = edge_sum_dict(mesh)
    shared = {e: v for e, (v, n) in sums.items() if n == 2}
    # diagonal edges have two 45-degree opposite angles: cot sum 2
    # axis-aligned interior edges: 45 + 90 -> cot sum 1
    assert min(v for v, _ in sums.values()) >= -1e-13
    assert max(shared.values()) == pytest.approx(2.0)


def test_vectorized_assembly_matches_per_triangle_loop():
    """Stiffness, lumped mass and edge sums against a per-triangle loop.

    The loop takes each dot product with np.dot, so cotangents may differ in
    the last bit; the mass is summed in the same order and must be equal."""
    rng = np.random.default_rng(3)
    mesh = delaunay_mesh(rng.uniform(-1, 1, size=(80, 2)))
    nv = len(mesh.vertices)
    full = sp.lil_matrix((nv, nv))
    lumped = np.zeros(nv)
    sums = {}
    for i, j, k in mesh.triangles:
        p = mesh.vertices
        e_jk, e_ki, e_ij = p[k] - p[j], p[i] - p[k], p[j] - p[i]
        area2 = e_ij[0] * (-e_ki[1]) - e_ij[1] * (-e_ki[0])
        cots = np.array([-np.dot(e_ij, e_ki), -np.dot(e_jk, e_ij),
                         -np.dot(e_ki, e_jk)]) / area2
        for (a, b), c in (((j, k), cots[0]), ((k, i), cots[1]), ((i, j), cots[2])):
            full[a, b] -= c / 2.0
            full[b, a] -= c / 2.0
            full[a, a] += c / 2.0
            full[b, b] += c / 2.0
            entry = sums.setdefault((min(a, b), max(a, b)), [0.0, 0])
            entry[0] += c
            entry[1] += 1
        lumped[[i, j, k]] += (area2 / 2.0) / 3.0
    interior = mesh.interior_indices
    want = full.toarray()[np.ix_(interior, interior)]
    op = p1_assemble(mesh)
    assert np.allclose(op.stiffness.toarray(), want, rtol=0, atol=1e-14 * np.abs(want).max())
    assert np.array_equal(op.weights, lumped[interior])
    got = edge_sum_dict(mesh)
    assert got.keys() == sums.keys()
    for e, (v, count) in sums.items():
        assert got[e][1] == count
        assert abs(got[e][0] - v) <= 1e-14 * max(1.0, abs(v))


@pytest.mark.parametrize("alpha", [0.0, 1.5])
def test_shifted_solver_inverts_p1_shifted_laplacian(alpha):
    disc = p1_assemble(jittered_mesh(8, seed=1))
    solver = shifted_solver(disc, alpha)
    b = np.random.default_rng(2).standard_normal(disc.ndof)
    x = solver.solve(b)
    assert np.allclose(disc.apply_neg_laplacian(x) + alpha * x, b,
                       rtol=0, atol=1e-12 * np.abs(b).max())
    with pytest.raises(ValueError, match="alpha"):
        shifted_solver(disc, -1.0)


@pytest.mark.parametrize("mesh", [False, True], ids=["fast_solver", "p1_lu"])
def test_neg_laplacian_of_gradient_is_free(mesh, monkeypatch):
    """G = (-Delta_h + alpha I)^{-1} exactly, so the gradient g = G(A_u u -
    gamma u) comes with -Delta_h g = A_u u - gamma u - alpha g and no
    Laplacian, on tensor grids (the gradient from transforms, as the flow
    forms it) and P1 meshes."""
    disc = (p1_assemble(jittered_mesh(12, seed=5)) if mesh
            else TensorOperator(GridSpec(1.0, 2, 6, Scheme.SEM, 3)))
    problem = harmonic_problem(disc)
    G = shifted_solver(disc, 0.7)
    state = default_initial_state(disc)
    Au_u = euclidean_gradient(state, problem).copy()
    laplacians = []
    monkeypatch.setattr(disc, "apply_neg_laplacian", laplacians.append)
    g, lap_g, c = riemannian_gradient(state, problem, G)
    monkeypatch.undo()
    assert laplacians == []
    # the two-solve projection: G A_u u - gamma' G u with <u, g>_h = 0
    u = state.coeffs
    GAu, Gu = G.solve(Au_u), G.solve(u)
    solved = GAu - inner_h(disc, u, GAu) / inner_h(disc, u, Gu) * Gu
    assert np.linalg.norm(g - solved) <= 1e-12 * np.linalg.norm(solved)
    if mesh:
        assert c is None
    else:  # the transform path, transform(u) stored on the state
        assert np.array_equal(disc.transform(c, inverse=True), g)
        assert np.array_equal(state.transformed, disc.transform(u))
    exact = disc.apply_neg_laplacian(g)
    assert np.linalg.norm(lap_g - exact) <= 1e-12 * np.linalg.norm(Au_u)


@pytest.mark.parametrize("mesh", [False, True], ids=["fast_solver", "p1_lu"])
def test_bfsp_carries_neg_laplacian_from_its_solve(mesh):
    """The shifted solve inverts -Delta_h + s, so x = solve(rhs) has
    -Delta_h x = rhs - s x: a BFSP step carries -Delta_h u' with no
    Laplacian, and its coefficients are R_h(solve(rhs)) bit for bit, rhs =
    s u - (A_u u - (-Delta_h u)) from the record, (s - V - beta u^2) u to round-off."""
    disc = (p1_assemble(jittered_mesh(12, seed=5)) if mesh
            else TensorOperator(GridSpec(1.0, 2, 6, Scheme.SEM, 3)))
    problem = harmonic_problem(disc)
    solver = shifted_solver(disc, problem.alpha + 1.0 / 0.1)
    u = retract(disc, 1.0 + np.random.default_rng(3).random(disc.ndof))
    nxt = step_bfsp(State(u, disc), problem, solver)
    assert nxt._neg_lap is not None
    ref = State(u, disc)
    rhs = daxpy(u, ref.neg_lap - euclidean_gradient(ref, problem), a=solver.alpha)
    formula = (solver.alpha - problem.potential - problem.beta * u ** 2) * u
    assert np.linalg.norm(rhs - formula) <= 1e-13 * np.linalg.norm(formula)
    assert np.array_equal(nxt.coeffs, retract(disc, solver.solve(rhs)))
    exact = disc.apply_neg_laplacian(nxt.coeffs)
    assert np.linalg.norm(nxt.neg_lap - exact) <= 1e-12 * np.linalg.norm(exact)


def test_modified_h1_on_p1_meshes_is_mesh_independent():
    """The paper's theorem for P1 on shape-regular meshes: the eigengap of
    A_u* has a mesh-independent lower bound, so the flow's iteration count
    does not grow under refinement."""
    iterations, gaps = [], []
    for n in (16, 32, 64):
        mesh = jittered_mesh(n, seed=n)
        assert mesh_monotonicity_check(mesh).ok
        disc = p1_assemble(mesh)
        problem = harmonic_problem(disc)
        report = run(FlowConfig(kind=FlowKind.MODIFIED_H1, alpha=1.0, step=FixedStep(1.0)),
                     problem, default_initial_state(disc),
                     StopRule(residual_tol=1e-10, max_iter=100))
        assert report.reason == "tol"
        star = report.final_state
        eig = linearized_eigenpairs(star, problem)
        iterations.append(report.iterations)
        gaps.append(eig.gap)
    assert max(iterations) - min(iterations) <= 2
    assert max(gaps) <= 1.1 * min(gaps)


def test_p1_linear_start_matches_lobpcg():
    """A P1 mesh has no 1D eigenbasis: the linear start's flow begins at all-ones
    and ends at LOBPCG's v0 to 1e-10 in the h-norm, with a positive weighted mean."""
    disc = p1_assemble(jittered_mesh(16, seed=4))
    problem = harmonic_problem(disc)
    u = default_initial_state(disc, "linear", problem).coeffs
    assert norm_h(disc, u - lobpcg_ground_state(disc, problem)) <= 1e-10
    assert float(np.dot(disc.weights, u)) > 0


def test_p1_gradient_flows_reach_one_energy():
    disc = p1_assemble(jittered_mesh(16, seed=4))
    problem = harmonic_problem(disc)
    u0 = default_initial_state(disc)
    stop = StopRule(residual_tol=1e-10, max_iter=200)
    energies = []
    for kind, step in [(FlowKind.MODIFIED_H1, FixedStep(1.0)),
                       (FlowKind.MODIFIED_H1, LineSearchStep()),
                       (FlowKind.A0, FixedStep(1.0)),
                       (FlowKind.AU, FixedStep(1.0))]:
        report = run(FlowConfig(kind=kind, alpha=1.0, step=step), problem, u0, stop)
        assert report.reason == "tol", (kind, step)
        energies.append(report.records[-1].energy)
    assert max(energies) - min(energies) <= 1e-12 * abs(energies[0])
