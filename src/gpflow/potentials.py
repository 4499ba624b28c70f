"""Named catalog of trapping potentials evaluated at node coordinates: a tensor grid's
per-axis arrays, each term on its axis's n nodes and broadcast once, or an (N, d) array."""

from __future__ import annotations

from functools import reduce

import numpy as np


def axes(coords) -> list[np.ndarray]:
    """Per-axis coordinates: an (N, d) array's columns, or the broadcast arrays as given."""
    return list(coords.T if isinstance(coords, np.ndarray) else coords)


def constant(c: float):  # V >= 0 is Problem's check
    def V(coords) -> np.ndarray:
        return np.full(np.broadcast(*axes(coords)).size, float(c))  # N from the broadcast shape
    return V


def _sin2(x: np.ndarray) -> np.ndarray:
    """sin^2(pi x / 4) of one coordinate axis, in one buffer."""
    s = np.pi * x
    s /= 4.0
    np.sin(s, out=s)
    s *= s
    return s


def sin2_product(coords) -> np.ndarray:
    """prod_i sin^2(pi x_i / 4), per axis."""
    return reduce(np.multiply, map(_sin2, axes(coords))).reshape(-1)


def harmonic_lattice(coords) -> np.ndarray:
    """|x|^2 + 100 sum_i sin^2(pi x_i / 4) (harmonic trap + optical lattice), per axis."""
    xs = axes(coords)
    r = reduce(np.add, (x * x for x in xs))
    r += 100.0 * reduce(np.add, map(_sin2, xs))
    return r.reshape(-1)


def _u_star(coords) -> np.ndarray:
    """u* = prod_i sin(pi (x_i + 1) / 2), the manufactured ground state on [-1, 1]^d, per axis."""
    return reduce(np.multiply, (np.sin(np.pi * (x + 1.0) / 2.0) for x in axes(coords))).reshape(-1)


def exact_case_potential(beta: float):
    """V = beta (1 - u*^2), whose ground state is u* (see gpflow.analysis)."""
    def exact_case(coords) -> np.ndarray:
        return beta * (1.0 - _u_star(coords) ** 2)
    return exact_case


def from_file(path: str):
    """Whitespace-separated node values, one per interior node in C-order, read now."""
    vals = np.loadtxt(path).reshape(-1)
    if not np.all((vals >= 0) & (vals < np.inf)):  # NaN fails both
        raise ValueError(f"{path}: potential values must be finite and nonnegative")

    def V(coords) -> np.ndarray:
        n = np.broadcast(*axes(coords)).size  # from the broadcast shape: no node-sized array
        if len(vals) != n:
            raise ValueError(f"{path}: {len(vals)} values for {n} nodes")
        return vals
    return V
