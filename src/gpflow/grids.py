"""1D operator construction and tensor-product discretizations on [-L, L]^d.

Three schemes share one interface and one assembly path:

* SEM(k)   -- Q^k spectral elements collocated at Gauss-Lobatto nodes with
              Gauss-Lobatto (lumped) mass.
* FD2      -- classical second-order centered differences with trapezoid
              weights, built as SEM(1), with which it coincides.
* COMPACT4 -- fourth-order Pade compact Laplacian T^{-1} K with the FD2
              weights; its stiffness is the FD2 one times T^{-1}.

A grid has one 1D operator (nodes, weights, stiffness), shared by every axis.
The d-dimensional Laplacian is never materialized: it acts as the Kronecker sum
of that operator, and the nodes' coordinates are the 1D ones along each axis (the
sparse meshgrid).  The grid also owns what fast diagonalization (Lynch, Rice &
Thomas 1964) derives from the operator: its eigenbasis from the even and odd mirror
sectors, once per grid (a degree-1 grid's in closed form), and the transforms,
Kronecker products; one routine runs them and the Laplacian's sum, a GEMM per axis
(2D from FOLD_MIN_N nodes folds them).
Its `even` sector is a grid too, on ceil(n/2) nodes per axis, that weighs each
node by the number of full-grid nodes it stands for.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, reduce
from types import SimpleNamespace

import numpy as np
from numpy.polynomial import legendre


class Scheme(enum.Enum):
    FD2 = "fd2"
    COMPACT4 = "compact4"
    SEM = "sem"


@dataclass(frozen=True)
class GridSpec:
    """Mesh of uniform cells on [-L, L]^d with one of the supported schemes."""

    half_width: float
    dim: int
    cells_per_dim: int
    scheme: Scheme = Scheme.FD2
    degree: int = 1  # polynomial degree: SEM's k, 1 on FD2 and COMPACT4

    def __post_init__(self):
        if not 0 < self.half_width < np.inf:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.cells_per_dim < 1:
            raise ValueError(f"cells_per_dim must be >= 1, got {self.cells_per_dim}")
        if self.degree != 1 and (self.scheme is not Scheme.SEM or self.degree < 1):
            raise ValueError(f"degree must be >= 1 on sem and 1 elsewhere, got {self.degree}")
        if self.interior_per_dim < 1:
            raise ValueError("grid has no interior unknowns")

    @property
    def interior_per_dim(self) -> int:
        return self.cells_per_dim * self.degree - 1

    @property
    def cell_size(self) -> float:
        return 2.0 * self.half_width / self.cells_per_dim

    @property
    def ndof(self) -> int:
        return self.interior_per_dim ** self.dim


def gauss_lobatto_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(k+1)-point Gauss-Lobatto rule on [-1, 1], exact for degree <= 2k-1.

    Interior nodes are the roots of P_k'; weights are 2 / (k (k+1) P_k(x)^2).
    """
    if k < 1:
        raise ValueError(f"Gauss-Lobatto rule needs degree k >= 1, got {k}")
    pk = legendre.Legendre.basis(k)
    interior = np.sort(pk.deriv().roots().real)
    nodes = np.concatenate(([-1.0], interior, [1.0]))
    weights = 2.0 / (k * (k + 1) * pk(nodes) ** 2)
    return nodes, weights


def lagrange_diff_matrix(nodes: np.ndarray) -> np.ndarray:
    """D[q, i] = l_i'(x_q) for the Lagrange basis on the given nodes."""
    n = len(nodes)
    # barycentric weights
    b = np.ones(n)
    for i in range(n):
        b[i] = 1.0 / np.prod(nodes[i] - np.delete(nodes, i))
    D = np.zeros((n, n))
    for q in range(n):
        for i in range(n):
            if i != q:
                D[q, i] = (b[i] / b[q]) / (nodes[q] - nodes[i])
    # rows of D sum to zero (derivative of the constant)
    np.fill_diagonal(D, -D.sum(axis=1))
    return D


@dataclass
class Operator1D:
    """Interior-node 1D operator bundle, shared by every axis of a grid:
    the stiffness S (symmetric PSD) and the diagonal of the lumped mass M."""

    nodes: np.ndarray
    weights: np.ndarray
    stiffness: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    def laplacian_matrix(self) -> np.ndarray:
        """Dense -Delta_h = M^{-1} S."""
        return self.stiffness / self.weights[:, None]


def build_1d(spec: GridSpec) -> Operator1D:
    """Assemble the 1D interior operator for the spec's scheme.

    Every scheme goes through the Q^k assembly; FD2 and COMPACT4 are its
    k = 1 case.  COMPACT4's Pade matrix T = tridiag(1, 10, 1) / 12 is
    I - (h/12) S, the interior weights all being h: T is a polynomial in S, so
    its stiffness T^{-1} S is symmetric (the solve's round-off is averaged out).
    """
    L = spec.half_width
    h = spec.cell_size
    k = spec.degree
    ref_nodes, ref_w = gauss_lobatto_rule(k)
    D = lagrange_diff_matrix(ref_nodes)
    # local stiffness: exact since grad products have degree 2k-2 <= 2k-1
    Sloc = (2.0 / h) * D.T @ (ref_w[:, None] * D)
    wloc = (h / 2.0) * ref_w

    n_total = spec.cells_per_dim * k + 1
    cells = np.arange(spec.cells_per_dim)[:, None]
    idx = cells * k + np.arange(k + 1)  # a row per cell: its nodes' global indices
    table = -L + cells * h + (ref_nodes + 1.0) * h / 2.0
    nodes_g = np.append(table[:, :k], table[-1, k])  # a shared node: the later cell's
    weights_g, S_g = np.zeros(n_total), np.zeros((n_total, n_total))
    # even cells, then odd ones: no two cells of a pass share a node, so a shared entry
    # is one two-term sum (np.add.at is wrong in numpy 2.4.6 when its values broadcast)
    for part in (idx[0::2], idx[1::2]):
        weights_g[part] += wloc
        S_g[part[:, :, None], part[:, None, :]] += Sloc
    # eliminate Dirichlet boundary nodes
    keep = slice(1, n_total - 1)
    S = np.ascontiguousarray(S_g[keep, keep])
    if spec.scheme is Scheme.COMPACT4:
        S = np.linalg.solve(np.eye(len(S)) - (h / 12.0) * S, S)
        S = 0.5 * (S + S.T)
    return Operator1D(nodes_g[keep], weights_g[keep], S)


@dataclass
class Eigen1D:
    """M-orthonormal eigendecomposition of the 1D pencil S z = mu M z."""

    values: np.ndarray   # a grid's: [even | odd], each sector ascending; a sector grid's even
    vectors: np.ndarray  # columns z_i, Z^T M Z = I


def generalized_sym_eig(op: Operator1D) -> Eigen1D:
    S = op.stiffness
    if not np.allclose(S, S.T, rtol=0, atol=1e-12 * np.abs(S).max()):
        raise ValueError("stiffness matrix is not symmetric")
    if np.any(op.weights <= 0):
        raise ValueError("mass weights must be strictly positive")
    d = np.sqrt(op.weights)
    A = S / d[:, None] / d[None, :]
    mu, Y = np.linalg.eigh(0.5 * (A + A.T))
    # clip -1e-16 round-off on the smallest modes
    return Eigen1D(values=np.maximum(mu, 0.0), vectors=Y / d[:, None])


def checked_vector(x, ndof: int) -> np.ndarray:
    """x as a float vector of ndof values, every discretization's one length check."""
    x = np.asarray(x, dtype=float)
    if x.shape != (ndof,):
        raise ValueError(f"expected vector of length {ndof}, got shape {x.shape}")
    return x


# 2D grids fold their transforms from this many nodes per axis on.  Solve time,
# fold / plain, 1 BLAS thread: n = 63 x1.63, 79 x1.37, 99 x1.14, 103 x0.91, 127
# x0.74, 199 x0.80, 299 x0.72, 479 x0.66 (3D, a prototype: 39 x1.33, 47 x~1.5,
# 79 x~1.15, 99 x~1.45, 149 x~1.0)
FOLD_MIN_N = 100


class TensorOperator:
    """Kronecker-sum action of -Delta_h on [-L, L]^d grid vectors, with the
    tensor-product mass weights.  Every axis carries the same 1D operator `op`,
    and the grid holds what fast diagonalization takes from it, once: the
    eigenbasis `eigen`, its modes [even | odd], and its transforms.  A sector
    grid (`even`) takes its 1D operator from its parent.

    Vectors are flattened C-order over the (n, ..., n) interior grid.
    """

    multiplicity = None  # a sector grid's: the full-grid nodes each node stands for
    # -Delta_h an M-matrix (fd2, sem1), which the discrete ground state's sign needs
    monotone = property(lambda g: g.spec.degree == 1 and g.spec.scheme is not Scheme.COMPACT4)

    def __init__(self, spec: GridSpec, op: Operator1D | None = None):
        self.spec = spec
        self._sines = op is None and spec.degree == 1  # its own S: `eigen` in closed form
        self.op = op = build_1d(spec) if op is None else op
        self.dim = spec.dim
        self.n = op.n
        self.shape = (op.n,) * spec.dim
        self.ndof = op.n ** spec.dim
        self.weights = reduce(np.multiply.outer, [op.weights] * spec.dim).reshape(-1)
        self._lap1d = self._pair(op.laplacian_matrix())

    def _pair(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(m, m^T) for `_passes`, m^T contiguous in 3D and the view elsewhere, as the
        bits were taken (at n = 99 the two differ)."""
        return m, np.ascontiguousarray(m.T) if self.dim == 3 else m.T

    def _sector(self, k: int, sign: float) -> Operator1D:
        """The Galerkin restriction Operator1D(nodes[:k], diag(P^T M P), P^T S P), P v =
        [v | sign Jv] (J the reversal) from k nodes, an odd n's centre once, by folds: P^T
        A's row a is A[a] + sign A[n-1-a] below min(k, n - k) (its GEMM's two terms)."""
        n, op, m = self.n, self.op, min(k, self.n - k)
        fold = lambda A, s=sign: np.concatenate((A[:m] + s * A[::-1][:m], A[m:k]))  # P^T A
        return Operator1D(op.nodes[:k], fold(op.weights, 1.0),
                          np.ascontiguousarray(fold(fold(op.stiffness).T).T))

    def _sine_sector(self, k: int, sign: float) -> Eigen1D:
        """A degree-1 sector's eigenpairs in closed form: S = tridiag(-1, 2, -1) / h and
        M = h I have the discrete sines, mode m's vector sqrt(2/((n+1)h)) sin(j m pi/(n+1))
        on rows j = 1..k, value (4/h^2) sin^2 t, t = m pi/(2(n+1)), which compact4's
        T^{-1} S, T = I - (h/12) S, divides by 1 - sin^2 t / 3.  The even sector has the
        odd m, the odd one the even m; j m is reduced mod 2(n+1) before the sine."""
        n, h = self.n, self.spec.cell_size
        m = np.arange(1 if sign > 0 else 2, n + 1, 2)
        s2 = np.sin(m * (np.pi / (2 * (n + 1)))) ** 2
        mu = 4 / h**2 * s2 / (1 - s2 / 3 if self.spec.scheme is Scheme.COMPACT4 else 1)
        jm = np.outer(np.arange(1, k + 1), m) % (2 * (n + 1))
        return Eigen1D(mu, np.sqrt(2 / ((n + 1) * h)) * np.sin(jm * (np.pi / (n + 1))))

    @cached_property
    def _even_op(self) -> Operator1D:  # the even sector's restriction: `even`'s, `eigen`'s
        return self._sector((self.n + 1) // 2, 1.0)

    @cached_property
    def eigen(self) -> Eigen1D:
        """The 1D pencil's from its mirror sectors (Solomonoff 1992): the even one on
        h = ceil(n/2) nodes, then the odd one on floor(n/2), each by `_sine_sector` on a
        degree-1 grid built from its spec, else solved.  Each one's eigenvectors Y extend
        to P Y by a gather: row i is sign_i Y[min(i, n-1-i)], sign_i = 1 for i < k, an
        odd n's odd centre row 0 (+ 0.0: P Y's GEMM gives no -0)."""
        n, h, i = self.n, (self.n + 1) // 2, np.arange(self.n)
        j, sectors = np.minimum(i, i[::-1]), []
        for k, sign in ((h, 1.0), (n - h, -1.0)):
            if k:  # n = 1 has no odd sector
                e = (self._sine_sector(k, sign) if self._sines else
                     generalized_sym_eig(self._sector(k, sign) if sign < 0 else self._even_op))
                Y = np.append(e.vectors, np.zeros((1, k)), axis=0)  # row k: the centre's
                sectors.append((e.values, Y[j] * np.where(i < k, 1.0, sign)[:, None] + 0.0))
        return Eigen1D(*map(np.hstack, zip(*sectors)))

    @cached_property
    def even(self) -> TensorOperator:
        """The even mirror sector's grid on its restriction (`eigen`'s, if it made one):
        `extend` (P along every axis) takes its vectors to this grid's even ones, and its
        `multiplicity` P^T 1 x ... x P^T 1 weighs each node.  Its `eigen` is this one's
        even block, exactly (P's first rows are I); it never folds (nodes not symmetric)."""
        h, i = (self.n + 1) // 2, np.arange(self.n)
        i = np.minimum(i, i[::-1])  # each node's sector node: P's nonzero column in its row
        grid = TensorOperator(self.spec, self._even_op)
        grid.eigen, grid.mirror = Eigen1D(self.eigen.values[:h], self.eigen.vectors[:h, :h]), None
        grid.multiplicity = reduce(np.multiply.outer, [np.bincount(i) * 1.0] * self.dim).ravel()
        shape, ix = grid.shape, np.ix_(*[i] * self.dim)  # no cycle through grid or self
        grid.extend = lambda x: x.reshape(shape)[ix].ravel()
        return grid

    @cached_property
    def mirror(self) -> SimpleNamespace | None:
        """`eigen`'s half blocks on a 2D grid from FOLD_MIN_N on, else None: Z^T M x =
        [fe (x + Jx)[:h] | fo (x - Jx)[:h]], Z c = [be c_e + bo c_o | J(be c_e - bo c_o)]."""
        if self.dim != 2 or self.n < FOLD_MIN_N:
            return None
        h, m, Z, w = (self.n + 1) // 2, self.n // 2, self.eigen.vectors, self.op.weights
        F = Z[:h].T * np.append(w[:m], 0.5 * w[m:h])  # odd n: (x + Jx)_m = 2 x_m
        return SimpleNamespace(fe=F[:h], fo=F[h:], be=Z[:h, :h], bo=Z[:h, h:])

    @cached_property
    def _plain(self) -> list:  # [Z^T M, Z] as `_pair`s
        Z = self.eigen.vectors
        return [self._pair(m) for m in (Z.T * self.op.weights, Z)]

    def _passes(self, x: np.ndarray, m: np.ndarray, mt: np.ndarray, add=False) -> np.ndarray:
        """m along every axis of a grid array x (the Kronecker product), or with `add` the
        Kronecker sum, into a new array y by a GEMM per axis: y = m x on axis 0 and slabs
        times mt, the `_pair`'s, on the last.  3D runs axes 1 and 2 in place in y per chunk c
        of n // 8 slabs: y[c] <- m y[c] mt, or y[c] + m x[c] + x[c] mt (3.3 ms at 99^3,
        4.6 ms as one tall GEMM; temporaries of 1/8 vector at most)."""
        if self.dim == 1:
            return np.matmul(x, mt)
        y = np.matmul(m, x.reshape(self.n, -1)).reshape(self.shape)
        if self.dim == 2:
            return np.add(y, np.matmul(x, mt), out=y) if add else np.matmul(y, mt)
        k = max(1, self.n // 8)
        for c in (slice(i, i + k) for i in range(0, self.n, k)):
            if add:
                y[c] += np.matmul(m, x[c])
                y[c] += np.matmul(x[c], mt)
            else:
                np.matmul(np.matmul(m, y[c]), mt, out=y[c])
        return y

    def transform(self, x: np.ndarray, inverse: bool = False) -> np.ndarray:
        """Z^T M x, or its inverse Z x (Z^T M Z = I), with Z = `eigen.vectors`
        applied along every axis by `_passes`.  A grid with half blocks (`mirror`)
        splits each pass in two halves, each into a fresh array."""
        x, f, h = checked_vector(x, self.ndof), self.mirror, (self.n + 1) // 2
        x = x.reshape(self.shape)
        if f is None:
            return self._passes(x, *self._plain[inverse]).reshape(-1)
        # the fold's GEMMs: b along axis 0 of a 2D array X, or along axis 1 as X b^T
        mul = lambda b, X, axis, out=None: (np.matmul(X, b.T, out=out) if axis
                                            else np.matmul(b, X, out=out))
        for axis in range(self.dim):
            head, tail = ((slice(None),) * axis + (s,) for s in (slice(h), slice(h, None)))
            S, A = ((mul(f.be, x[head], axis), mul(f.bo, x[tail], axis)) if inverse
                    else (x[head] + np.flip(x, axis)[head], x[head] - np.flip(x, axis)[head]))
            del x  # frees the pass's input unless a caller holds it
            x = np.empty(self.shape)
            if inverse:  # [E + O | J(E - O)] with E = be c_even and O = bo c_odd
                np.subtract(S, A, out=np.flip(x, axis)[head])
                np.add(S, A, out=x[head])  # last: an odd n's centre row is E + O
            else:  # [fe (x + Jx)[:h] | fo (x - Jx)[:h]]
                mul(f.fe, S, axis, out=x[head])
                mul(f.fo, A, axis, out=x[tail])
            S = A = None  # before the next pass
        return x.reshape(-1)

    def apply_neg_laplacian(self, u: np.ndarray) -> np.ndarray:
        """-Delta_h u, the 1D one's Kronecker sum by `_passes`, in a new array."""
        U = checked_vector(u, self.ndof).reshape(self.shape)
        return self._passes(U, *self._lap1d, add=True).reshape(-1)

    def node_coordinates(self) -> tuple[np.ndarray, ...]:
        """The sparse C-order meshgrid: per axis a read-only view of `op.nodes`, shaped
        (n, 1, 1), (1, n, 1), (1, 1, n) in 3D; no (ndof, dim) array (see gpflow.potentials)."""
        xs = np.meshgrid(*[self.op.nodes] * self.dim, indexing="ij", sparse=True, copy=False)
        return tuple(np.broadcast_to(x, x.shape) for x in xs)
