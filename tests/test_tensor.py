import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpflow.grids import FOLD_MIN_N, GridSpec, Scheme, TensorOperator, build_1d
from gpflow.potentials import (_u_star, constant, exact_case_potential, from_file,
                               harmonic_lattice, sin2_product)
from oracles import kron_product, kron_sum


def dense_lap(disc: TensorOperator) -> np.ndarray:
    """Kronecker-sum oracle: sum over axes of I x ... x lap x ... x I."""
    lap = disc.op.laplacian_matrix()
    n, d = disc.n, disc.dim
    total = np.zeros((n ** d, n ** d))
    for axis in range(d):
        mats = [np.eye(n)] * d
        mats[axis] = lap
        acc = mats[0]
        for m in mats[1:]:
            acc = np.kron(acc, m)
        total += acc
    return total


SPECS = [
    GridSpec(1.0, 1, 9, Scheme.FD2),
    GridSpec(1.0, 2, 8, Scheme.FD2),
    GridSpec(1.0, 3, 3, Scheme.FD2),
    GridSpec(2.0, 2, 7, Scheme.COMPACT4),
    GridSpec(1.0, 2, 3, Scheme.SEM, 2),
    GridSpec(1.0, 3, 2, Scheme.SEM, 2),
]


@pytest.mark.parametrize("spec", SPECS, ids=str)
def test_apply_matches_dense_kronecker(spec):
    disc = TensorOperator(spec)
    assert disc.ndof <= 4096
    A = dense_lap(disc)
    rng = np.random.default_rng(0)
    for _ in range(5):
        u = rng.standard_normal(disc.ndof)
        got = disc.apply_neg_laplacian(u)
        want = A @ u
        assert np.allclose(got, want, atol=1e-11 * max(1.0, np.abs(want).max()))


def test_rank_one_eigenvector_scaling():
    """-Delta_h on a sin x sin grid tensor scales by mu_1 + mu_1 (d=2 FD2)."""
    spec = GridSpec(1.0, 2, 4, Scheme.FD2)  # n=3, h=0.5
    disc = TensorOperator(spec)
    h, L = spec.cell_size, spec.half_width
    mu1 = (4.0 / h ** 2) * np.sin(np.pi * h / (4.0 * L)) ** 2
    x = disc.op.nodes
    v = np.sin(np.pi * (x + 1.0) / 2.0)
    u = np.outer(v, v).reshape(-1)
    assert np.allclose(disc.apply_neg_laplacian(u), 2.0 * mu1 * u, atol=1e-12 * mu1)


def test_1d_apply_is_Minv_S():
    spec = GridSpec(1.0, 1, 12, Scheme.FD2)
    disc = TensorOperator(spec)
    op = build_1d(spec)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(disc.ndof)
    assert np.allclose(disc.apply_neg_laplacian(u), (op.stiffness @ u) / op.weights)


def test_length_mismatch_rejected():
    disc = TensorOperator(GridSpec(1.0, 2, 5, Scheme.FD2))
    for apply in (disc.apply_neg_laplacian, disc.transform):
        with pytest.raises(ValueError, match=f"length {disc.ndof}, got shape"):
            apply(np.ones(disc.ndof + 1))


def test_weights_are_tensor_products():
    spec = GridSpec(1.0, 2, 3, Scheme.SEM, 3)
    disc = TensorOperator(spec)
    w1 = disc.op.weights
    assert np.allclose(disc.weights, np.outer(w1, w1).reshape(-1))
    # total measure of the interior-weight product is (2L)^d in the limit;
    # with boundary rows removed it is slightly less but positive
    assert np.all(disc.weights > 0)


def dense(xs) -> np.ndarray:
    """The (ndof, d) array of per-axis coordinates that broadcast to a grid, C-order."""
    return np.stack(np.broadcast_arrays(*xs), -1).reshape(-1, len(xs))


def test_node_coordinates_c_order():
    spec = GridSpec(1.0, 2, 4, Scheme.FD2)
    disc = TensorOperator(spec)
    coords = dense(disc.node_coordinates())
    assert coords.shape == (9, 2)
    # C-order: last axis fastest
    assert np.allclose(coords[0], [-0.5, -0.5])
    assert np.allclose(coords[1], [-0.5, 0.0])
    assert np.allclose(coords[3], [0.0, -0.5])


@pytest.mark.parametrize("spec", [
    GridSpec(8.0, 1, 12, Scheme.SEM, 3), GridSpec(1.0, 2, 9, Scheme.FD2),
    GridSpec(8.0, 3, 4, Scheme.SEM, 2)], ids=["sem3-1D", "fd2-2D", "sem2-3D"])
def test_node_coordinates_are_the_meshgrid_with_contiguous_columns(spec):
    """On a full grid and on its even sector, node_coordinates broadcast to the
    stacked meshgrid, bit for bit, and each axis's array is contiguous."""
    for disc in (TensorOperator(spec), TensorOperator(spec).even):
        coords = dense(disc.node_coordinates())
        grids = np.meshgrid(*[disc.op.nodes] * disc.dim, indexing="ij")
        assert np.array_equal(coords, np.stack([g.reshape(-1) for g in grids], axis=1))
        assert all(x.flags.c_contiguous for x in disc.node_coordinates())


@pytest.mark.parametrize("spec", [
    GridSpec(8.0, 1, 12, Scheme.SEM, 3), GridSpec(1.0, 2, 9, Scheme.FD2),
    GridSpec(8.0, 3, 4, Scheme.SEM, 2)], ids=["sem3-1D", "fd2-2D", "sem2-3D"])
def test_node_coordinates_broadcast_to_the_meshgrid(spec):
    """On a full grid and on its even sector, node_coordinates is the sparse
    C-order meshgrid: axis i's array holds the n nodes along axis i, has 1 on
    every other axis, is a read-only view of op.nodes, and the d arrays
    broadcast to the dense meshgrid bit for bit."""
    for disc in (TensorOperator(spec), TensorOperator(spec).even):
        xs, n, d = disc.node_coordinates(), disc.n, disc.dim
        assert len(xs) == d
        for i, x in enumerate(xs):
            assert x.shape == tuple(n if j == i else 1 for j in range(d))
            assert np.array_equal(x.reshape(-1), disc.op.nodes)
            assert not x.flags.writeable and np.shares_memory(x, disc.op.nodes)
        grids = np.meshgrid(*[disc.op.nodes] * d, indexing="ij")
        assert all(g.shape == b.shape and np.array_equal(g, b)
                   for g, b in zip(grids, np.broadcast_arrays(*xs)))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SPECS), st.data())
def test_integration_by_parts(spec, data):
    """<u, -Delta_h v>_h = <-Delta_h u, v>_h to 1e-12 relative."""
    disc = TensorOperator(spec)
    u = np.array([data.draw(st.floats(-1, 1)) for _ in range(disc.ndof)])
    v = np.array([data.draw(st.floats(-1, 1)) for _ in range(disc.ndof)])
    a = float(np.dot(u * disc.weights, disc.apply_neg_laplacian(v)))
    b = float(np.dot(disc.apply_neg_laplacian(u) * disc.weights, v))
    scale = max(1.0, abs(a), abs(b))
    assert abs(a - b) <= 1e-12 * scale


def peak_in_vectors(f, ndof: int) -> float:
    """tracemalloc's peak over f() (numpy reports its buffers to it), in ndof-sized vectors."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        f()
        return (tracemalloc.get_traced_memory()[1] - start) / (8 * ndof)
    finally:
        tracemalloc.stop()


def test_potentials_peak_memory_in_vectors():
    """On a 39^3 sem2 grid each potential goes axis by axis: from the per-axis
    coordinates, sin2_product peaks at 2 vectors and harmonic_lattice at 3 (6
    and 7 above an (ndof, d) array with the whole-array expressions)."""
    disc = TensorOperator(GridSpec(8.0, 3, 20, Scheme.SEM, 2))
    coords = disc.node_coordinates()
    for potential, vectors in ((sin2_product, 2), (harmonic_lattice, 3)):
        assert peak_in_vectors(lambda: potential(coords), disc.ndof) < vectors + 0.5


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_node_coordinates_peak_memory_in_vectors(dim):
    """Views of the 1D nodes, no node-sized buffer: the peak is under 0.01 vectors
    (d with an (ndof, d) array).  In 1D a vector is the n nodes themselves, and
    the views' Python objects alone read 0.07 of one at n = 1999."""
    disc = TensorOperator(GridSpec(8.0, dim, {1: 1000, 2: 200, 3: 20}[dim], Scheme.SEM, 2))
    assert peak_in_vectors(disc.node_coordinates, disc.ndof) < (0.1 if dim == 1 else 0.01)


@pytest.mark.parametrize("spec", [
    GridSpec(8.0, 3, 6, Scheme.SEM, 8), GridSpec(8.0, 2, 20, Scheme.COMPACT4),
    GridSpec(8.0, 1, 40, Scheme.FD2), None], ids=["sem8-3D", "compact4-2D", "fd2-1D", "random-2D"])
def test_potentials_by_columns_have_the_whole_array_bits(spec):
    """sin2_product, harmonic_lattice, _u_star, exact_case_potential and constant
    equal, bit for bit, the expressions on the whole (ndof, dim) array, given
    that array or a grid's per-axis coordinates, on a full grid and its even
    sector."""
    if spec is None:
        inputs = [np.random.default_rng(2).uniform(-8.0, 8.0, (1000, 2))]
    else:
        full = TensorOperator(spec)
        inputs = [form for disc in (full, full.even)
                  for form in (disc.node_coordinates(), dense(disc.node_coordinates()))]
    for given in inputs:
        coords = given if isinstance(given, np.ndarray) else dense(given)
        s = np.sin(np.pi * coords / 4.0) ** 2
        u = np.prod(np.sin(np.pi * (coords + 1.0) / 2.0), axis=1)
        assert np.array_equal(sin2_product(given), reduce(np.multiply, s.T))
        assert np.array_equal(harmonic_lattice(given),
                              np.sum(coords ** 2, axis=1) + 100.0 * np.sum(s, axis=1))
        assert np.array_equal(_u_star(given), u)
        assert np.array_equal(exact_case_potential(3.0)(given), 3.0 * (1.0 - u ** 2))
        assert np.array_equal(constant(0.5)(given), np.full(len(coords), 0.5))


def test_file_potential_counts_the_nodes_of_either_form(tmp_path):
    """from_file's count check takes the node count from the broadcast shape of a
    grid's per-axis coordinates (3^3 = 27 on sem2 3D, 2 cells) or from an (N, d)
    array's rows, and refuses a file one value short in both."""
    disc = TensorOperator(GridSpec(8.0, 3, 2, Scheme.SEM, 2))
    xs = disc.node_coordinates()
    for count in (disc.ndof, disc.ndof - 1):
        np.savetxt(tmp_path / "V.txt", np.arange(count, dtype=float))
        V = from_file(str(tmp_path / "V.txt"))
        for given in (xs, dense(xs)):
            if count == disc.ndof:
                assert np.array_equal(V(given), np.arange(disc.ndof, dtype=float))
            else:
                with pytest.raises(ValueError, match=f": {count} values for {disc.ndof} nodes"):
                    V(given)


IN_PLACE_SPECS = [GridSpec(8.0, 3, 8, Scheme.SEM, 3), GridSpec(8.0, 3, 6, Scheme.SEM, 8),
                  GridSpec(1.0, 3, 20, Scheme.SEM, 5)]


def assert_per_axis_bits(disc: TensorOperator):
    """The transform both ways and -Delta_h equal, bit for bit, the passes axis by
    axis, each into a new array, the last axis times m's transpose (contiguous on a
    3D grid, the view elsewhere), and the Laplacian's terms added in axis order."""
    assert disc.mirror is None
    x = np.random.default_rng(3).standard_normal(disc.ndof)
    Z = disc.eigen.vectors
    mats = {False: Z.T * disc.op.weights, True: Z, "lap": disc.op.laplacian_matrix()}
    mats = {k: (m, np.ascontiguousarray(m.T) if disc.dim == 3 else m.T) for k, m in mats.items()}
    X = x.reshape(disc.shape)
    for inverse in (False, True):
        want = kron_product(X, *mats[inverse]).ravel()
        assert np.array_equal(disc.transform(x, inverse=inverse), want)
    assert np.array_equal(disc.apply_neg_laplacian(x), kron_sum(X, *mats["lap"]).ravel())


@pytest.mark.parametrize("spec", IN_PLACE_SPECS, ids=["n23", "n47", "n99"])
def test_3d_in_place_passes_have_the_per_axis_bits(spec):
    """On 3D grids of n = 23, 47 and 99 nodes, which n // 8 slabs do not divide,
    the in-place passes (axes 1 and 2 per chunk) have the per-axis passes' bits.
    (Axis 2 times the transposed view differs in bits at n = 99.)"""
    disc = TensorOperator(spec)
    assert disc.n % (disc.n // 8)
    assert_per_axis_bits(disc)


@pytest.mark.parametrize("spec", [
    GridSpec(8.0, 1, 2), GridSpec(8.0, 1, 17), GridSpec(8.0, 1, 300),
    GridSpec(8.0, 1, 7, Scheme.SEM, 4), GridSpec(8.0, 2, 24), GridSpec(8.0, 2, 7, Scheme.SEM, 4),
    GridSpec(8.0, 2, 20, Scheme.COMPACT4), GridSpec(8.0, 2, 300)],
    ids=["fd2-1D-n1", "fd2-1D-n16", "fd2-1D-n299", "sem4-1D", "fd2-2D-n23", "sem4-2D-n27",
         "compact4-2D-n19", "fd2-2D-even-n150"])
def test_1d_and_2d_passes_have_the_per_axis_bits(spec):
    """On 1D grids, 2D grids below FOLD_MIN_N and the even sector of the 299^2
    grid (150^2, which never folds), one GEMM per axis has the per-axis passes'
    bits (1D: x m^T alone; 2D: the last axis as one GEMM, not per chunk)."""
    disc = TensorOperator(spec)
    disc = disc.even if disc.n >= FOLD_MIN_N and spec.dim == 2 else disc
    assert_per_axis_bits(disc)


@pytest.mark.parametrize("spec", IN_PLACE_SPECS, ids=["n23", "n47", "n99"])
def test_3d_passes_peak_memory_in_vectors(spec):
    """A 3D transform, either way, and -Delta_h each allocate their one
    ndof-sized result and, beside it, at most a chunk's temporary, n // 8 of n
    slabs: at most 1/8 of a vector (two results at once before), and 4 KiB of
    Python objects (1.6 KiB at n = 23)."""
    disc = TensorOperator(spec)
    x = np.random.default_rng(3).standard_normal(disc.ndof)
    disc.transform(x)  # builds the grid's transform matrices outside the count
    chunk = (disc.n // 8) / disc.n
    assert chunk <= 1 / 8
    for f in (disc.transform, lambda v: disc.transform(v, inverse=True),
              disc.apply_neg_laplacian):
        assert peak_in_vectors(lambda: f(x), disc.ndof) < 1 + chunk + 4096 / (8 * disc.ndof)
