import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gpflow.grids import (GridSpec, Scheme, TensorOperator, build_1d, gauss_lobatto_rule,
                          generalized_sym_eig, lagrange_diff_matrix)
from oracles import assembly_loop, eigen_by_products, sector_by_products


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(-1.0, 1, 8)
    with pytest.raises(ValueError):
        GridSpec(1.0, 4, 8)
    with pytest.raises(ValueError):
        GridSpec(1.0, 1, 1)  # no interior unknowns
    with pytest.raises(ValueError):
        GridSpec(1.0, 1, 8, Scheme.SEM, 0)
    # degree is SEM's: fd2 and compact4 reject any but 1
    with pytest.raises(ValueError, match="degree"):
        GridSpec(1.0, 2, 8, Scheme.FD2, 3)
    with pytest.raises(ValueError, match="degree"):
        GridSpec(1.0, 1, 8, Scheme.COMPACT4, 2)


def test_gridspec_counts():
    assert GridSpec(1.0, 3, 40).interior_per_dim == 39
    assert GridSpec(1.0, 3, 20, Scheme.SEM, 5).interior_per_dim == 99
    assert GridSpec(1.0, 3, 20, Scheme.SEM, 5).ndof == 99 ** 3
    assert GridSpec(16.0, 2, 300).cell_size == pytest.approx(32.0 / 300)


def test_fd2_small_grid_explicit():
    # L=1, N_c=4: h=0.5, n=3, S = tridiag(-2, 4, -2), weights 0.5
    op = build_1d(GridSpec(1.0, 1, 4, Scheme.FD2))
    assert np.allclose(op.nodes, [-0.5, 0.0, 0.5])
    assert np.allclose(op.weights, [0.5, 0.5, 0.5])
    want = np.array([[4.0, -2.0, 0.0], [-2.0, 4.0, -2.0], [0.0, -2.0, 4.0]])
    assert np.allclose(op.stiffness, want)


def fd2_eigen(k, n, h, L):
    """Closed-form FD2 eigenpair: mu_k = (4/h^2) sin^2(k pi h / (4 L))."""
    mu = (4.0 / h ** 2) * np.sin(k * np.pi * h / (4.0 * L)) ** 2
    x = -L + h * np.arange(1, n + 1)
    v = np.sin(k * np.pi * (x + L) / (2.0 * L))
    return mu, v


@pytest.mark.parametrize("Nc,L", [(8, 1.0), (16, 1.0), (10, 16.0)])
def test_fd2_closed_form_spectrum(Nc, L):
    op = build_1d(GridSpec(L, 1, Nc, Scheme.FD2))
    lap = op.laplacian_matrix()
    for k in (1, 2, Nc - 1):
        mu, v = fd2_eigen(k, op.n, op.nodes[1] - op.nodes[0], L)
        assert np.allclose(lap @ v, mu * v, atol=1e-10 * max(1.0, mu))


def test_sem1_equals_fd2():
    for Nc in (4, 9, 32):
        fd = build_1d(GridSpec(1.0, 1, Nc, Scheme.FD2))
        sem = build_1d(GridSpec(1.0, 1, Nc, Scheme.SEM, 1))
        assert np.array_equal(fd.nodes, sem.nodes)
        assert np.array_equal(fd.weights, sem.weights)
        assert np.array_equal(fd.stiffness, sem.stiffness)


def test_sem2_single_cell_against_quadrature_oracle():
    """SEM(2) local stiffness vs dense high-order quadrature of basis gradients."""
    spec = GridSpec(1.0, 1, 1, Scheme.SEM, 2)
    # one cell has a single interior unknown (the midpoint)
    op = build_1d(spec)
    assert op.n == 1
    # oracle: S_mid,mid = int_{-1}^{1} (l_1'(x))^2 dx with 10-point Gauss
    nodes, _ = gauss_lobatto_rule(2)
    D_coeff = np.polyfit(nodes, [0.0, 1.0, 0.0], 2)
    gx, gw = np.polynomial.legendre.leggauss(10)
    lp = np.polyval(np.polyder(D_coeff), gx)
    oracle = float(gw @ lp ** 2)
    assert abs(op.stiffness[0, 0] - oracle) < 1e-14 * abs(oracle)


@pytest.mark.parametrize("k,Nc", [(2, 3), (3, 2), (5, 2)])
def test_sem_stiffness_matches_dense_quadrature(k, Nc):
    """Assembled SEM stiffness vs brute-force integration of global basis grads."""
    L = 1.0
    spec = GridSpec(L, 1, Nc, Scheme.SEM, k)
    op = build_1d(spec)
    h = spec.cell_size
    ref, _ = gauss_lobatto_rule(k)
    gx, gw = np.polynomial.legendre.leggauss(4 * k)

    # global node list including boundary
    nodes_g = []
    for c in range(Nc):
        left = -L + c * h
        cell = left + (ref + 1.0) * h / 2.0
        nodes_g.extend(cell[:-1])
    nodes_g.append(L)
    nodes_g = np.array(nodes_g)
    n_total = len(nodes_g)

    def grad(i, x_cell, left):
        # derivative of global basis i at mapped points inside [left, left+h]
        loc = np.zeros(k + 1)
        # local indices of cell nodes
        c = int(round((left + L) / h))
        gids = list(range(c * k, c * k + k + 1))
        if i not in gids:
            return np.zeros_like(x_cell)
        loc[gids.index(i)] = 1.0
        coeff = np.polyfit(ref, loc, k)
        return np.polyval(np.polyder(coeff), x_cell) * (2.0 / h)

    S_oracle = np.zeros((n_total, n_total))
    for c in range(Nc):
        left = -L + c * h
        xq = gx  # reference points
        for i in range(n_total):
            gi = grad(i, xq, left)
            if not gi.any():
                continue
            for j in range(n_total):
                gj = grad(j, xq, left)
                if gj.any():
                    S_oracle[i, j] += (h / 2.0) * float(gw @ (gi * gj))
    S_oracle = S_oracle[1:-1, 1:-1]
    assert np.allclose(op.stiffness, S_oracle, atol=1e-10 * np.abs(S_oracle).max())


def test_compact4_matrices():
    """COMPACT4 has the FD2 weights and the stiffness T^{-1} S, S the FD2
    stiffness and T = tridiag(1, 10, 1) / 12 the Pade matrix: T = I - (h^2/12) K
    with K = M^{-1} S, so T^{-1} S is symmetric.  Its Laplacian is the Pade form
    T^{-1} M^{-1} S; all three to 1e-13 of the largest entry, at n = 7, 39, 299."""
    for cells in (8, 40, 300):
        op = build_1d(GridSpec(1.0, 1, cells, Scheme.COMPACT4))
        fd2 = build_1d(GridSpec(1.0, 1, cells, Scheme.FD2))
        n, S, w = op.n, fd2.stiffness, fd2.weights
        T = (10.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 12.0
        h = op.nodes[1] - op.nodes[0]
        assert np.allclose(T, np.eye(n) - (h ** 2 / 12.0) * S / w[:, None], atol=1e-13)
        assert np.array_equal(op.weights, w) and np.array_equal(op.nodes, fd2.nodes)
        X = np.linalg.solve(T, S)
        assert np.abs(X - X.T).max() <= 1e-13 * np.abs(X).max()
        assert np.abs(op.stiffness - 0.5 * (X + X.T)).max() <= 1e-13 * np.abs(X).max()
        pade = np.linalg.solve(T, S / w[:, None])
        assert np.abs(op.laplacian_matrix() - pade).max() <= 1e-13 * np.abs(pade).max()


def test_compact4_mode_eigenvalues():
    """-Delta_h sine mode k has eigenvalue mu_k / (1 - h^2 mu_k / 12)."""
    spec = GridSpec(1.0, 1, 20, Scheme.COMPACT4)
    op = build_1d(spec)
    lap = op.laplacian_matrix()
    h = spec.cell_size
    for k in (1, 3):
        mu = (4.0 / h ** 2) * np.sin(k * np.pi * h / 4.0) ** 2
        muc = mu / (1.0 - h ** 2 * mu / 12.0)
        x = op.nodes
        v = np.sin(k * np.pi * (x + 1.0) / 2.0)
        assert np.allclose(lap @ v, muc * v, atol=1e-10 * muc)


def test_compact4_fourth_order_mode_error():
    # mode-1 eigenvalue error = (pi^2/4) theta^4/15 + O(theta^6), theta = pi h/4
    for Nc in (20, 40):
        spec = GridSpec(1.0, 1, Nc, Scheme.COMPACT4)
        h = spec.cell_size
        mu = (4.0 / h ** 2) * np.sin(np.pi * h / 4.0) ** 2
        muc = mu / (1.0 - h ** 2 * mu / 12.0)
        theta = np.pi * h / 4.0
        model = (np.pi ** 2 / 4.0) * theta ** 4 / 15.0
        assert abs((np.pi ** 2 / 4.0 - muc) - model) < 0.05 * model


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(Scheme.FD2, 1), (Scheme.COMPACT4, 1),
                        (Scheme.SEM, 2), (Scheme.SEM, 4)]),
       st.integers(2, 8), st.data())
def test_stiffness_symmetric_psd(scheme_deg, Nc, data):
    scheme, deg = scheme_deg
    op = build_1d(GridSpec(1.0, 1, Nc, scheme, deg))
    S = op.stiffness
    assert np.allclose(S, S.T, atol=1e-13 * np.abs(S).max())
    u = np.array([data.draw(st.floats(-1, 1)) for _ in range(op.n)])
    assert u @ S @ u >= -1e-12 * max(1.0, u @ u) * np.abs(S).max()
    assert np.all(op.weights > 0)


def test_fd2_offdiagonals_nonpositive():
    op = build_1d(GridSpec(1.0, 1, 16, Scheme.FD2))
    S = op.stiffness.copy()
    np.fill_diagonal(S, 0.0)
    assert np.all(S <= 0)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# n = cells * degree - 1: n = 1, 2, 3 (no odd sector; an even n; an odd centre) and larger
SET_UP_SPECS = [GridSpec(8.0, 2, c, Scheme.FD2) for c in (2, 3, 4, 17, 300)] + [
    GridSpec(8.0, 3, c, Scheme.COMPACT4) for c in (2, 3, 4, 80, 81)] + [
    GridSpec(8.0, 2, c, Scheme.SEM, 2) for c in (1, 2, 10)] + [
    GridSpec(8.0, 3, c, Scheme.SEM, 5) for c in (1, 2, 20)] + [
    GridSpec(8.0, 3, c, Scheme.SEM, 8) for c in (1, 6, 19)]


@pytest.mark.parametrize("spec", SET_UP_SPECS,
                         ids=lambda s: f"{s.scheme.value}{s.degree}-n{s.interior_per_dim}")
def test_set_up_by_index_arithmetic_has_the_products_bits(spec):
    """`build_1d`'s whole-array assembly, `_sector`'s folds, `eigen`'s gathered
    extension and the `even` grid's operator are bit for bit (sign bits of zeros
    included) the per-cell loop and the dense P^T S P, diag(P^T M P) and P Y, Y the
    sectors' eigenvectors: the closed form's on fd2 and compact4, else the eigensolve's."""
    op, loop = build_1d(spec), assembly_loop(spec)
    for got, want in ((op.nodes, loop.nodes), (op.weights, loop.weights),
                      (op.stiffness, loop.stiffness)):
        assert same_bits(got, want)
    disc = TensorOperator(spec)
    n = disc.n
    for k, sign in (((n + 1) // 2, 1.0), (n // 2, -1.0)):
        if k:
            got, want = disc._sector(k, sign), sector_by_products(disc.op, k, sign)
            assert all(same_bits(getattr(got, f), getattr(want, f))
                       for f in ("nodes", "weights", "stiffness"))
            assert got.stiffness.flags.c_contiguous
    got, want = disc.eigen, eigen_by_products(disc.op, disc._sines and disc._sine_sector)
    assert same_bits(got.values, want.values) and same_bits(got.vectors, want.vectors)
    even = sector_by_products(disc.op, (n + 1) // 2, 1.0)
    assert same_bits(disc.even.op.stiffness, even.stiffness)
    assert same_bits(disc.even.op.weights, even.weights)


@pytest.mark.parametrize("spec", [GridSpec(8.0, 2, 300, Scheme.FD2),
                                  GridSpec(8.0, 2, 150, Scheme.SEM, 2)], ids=str)
def test_sectors_are_restricted_once_and_no_n_by_k_array_stays(monkeypatch, spec):
    """`eigen` and `even` on a fresh 299^2 grid restrict each sector at most once:
    sem2 restricts both (`even` takes `eigen`'s even restriction), fd2 only the even
    one, for `even` (its `eigen` is the closed form).  What the grid keeps after both
    is the eigenbasis (n^2), the even grid's stiffness, 1D Laplacian, weights and
    multiplicity (4 h^2) and O(n): no n x h array of the restriction or extension
    (h = 150), nor the odd sector's h x h operator."""
    calls = []
    sector = TensorOperator._sector
    monkeypatch.setattr(TensorOperator, "_sector",
                        lambda self, k, sign: calls.append((k, sign)) or sector(self, k, sign))
    disc = TensorOperator(spec)
    n, h = disc.n, (disc.n + 1) // 2
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        disc.eigen, disc.even
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert sorted(calls) == [(h - 1, -1.0)] * (spec.degree > 1) + [(h, 1.0)]
    assert 8 * (n * n + 4 * h * h) <= kept < 8 * (n * n + 4 * h * h + 8 * n)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 79, 80, 299])
@pytest.mark.parametrize("scheme", [Scheme.FD2, Scheme.SEM, Scheme.COMPACT4],
                         ids=["fd2", "sem1", "compact4"])
def test_degree_1_eigen_is_the_closed_form_of_the_dense_pencil(monkeypatch, scheme, n):
    """A degree-1 grid built from its spec takes the sines with no eigensolve: its
    values are the sector eigensolves' to 1e-11 relative and its vectors to 1e-12 after
    sign alignment, Z^T M Z = I to 1e-14, and each column's mirror parity is exact in
    bits (an odd n's centre is +0 in the odd modes).  The same operator handed in by
    the caller goes through `generalized_sym_eig`, once per sector, as before."""
    calls = []
    monkeypatch.setattr("gpflow.grids.generalized_sym_eig",
                        lambda op: calls.append(op.n) or generalized_sym_eig(op))
    spec = GridSpec(8.0, 1, n + 1, scheme)
    disc = TensorOperator(spec)
    Z, mu, w, h = disc.eigen.vectors, disc.eigen.values, disc.op.weights, (n + 1) // 2
    assert calls == []
    want = eigen_by_products(disc.op)
    assert np.abs(mu / want.values - 1.0).max() <= 1e-11
    signs = np.sign(np.einsum("ij,ij->j", Z, want.vectors))
    assert np.abs(Z - want.vectors * signs).max() <= 1e-12
    assert np.abs(Z.T @ (w[:, None] * Z) - np.eye(n)).max() <= 1e-14
    assert same_bits(Z[::-1, :h], Z[:, :h]) and same_bits(Z[::-1, h:], 0.0 - Z[:, h:])
    if n % 2:
        assert same_bits(Z[h - 1, h:], np.zeros(n - h))
    calls.clear()
    handed = TensorOperator(spec, build_1d(spec))
    assert same_bits(handed.eigen.vectors, want.vectors) and calls == [h, n - h][:1 + (n > 1)]
