"""Named catalog of trapping potentials evaluated at node coordinates."""

from __future__ import annotations

from functools import reduce

import numpy as np


def constant(c: float):  # V >= 0 is Problem's check
    def V(coords: np.ndarray) -> np.ndarray:
        return np.full(len(coords), float(c))
    return V


def _sin2(x: np.ndarray) -> np.ndarray:
    """sin^2(pi x / 4) of one coordinate column, in one buffer."""
    s = np.pi * x
    s /= 4.0
    np.sin(s, out=s)
    s *= s
    return s


def sin2_product(coords: np.ndarray) -> np.ndarray:
    """prod_i sin^2(pi x_i / 4), by columns."""
    v = _sin2(coords[:, 0])
    for x in coords.T[1:]:
        v *= _sin2(x)
    return v


def harmonic_lattice(coords: np.ndarray) -> np.ndarray:
    """|x|^2 + 100 sum_i sin^2(pi x_i / 4) (harmonic trap + optical lattice), by columns."""
    r, q = np.square(coords[:, 0]), _sin2(coords[:, 0])
    for x in coords.T[1:]:
        r += x * x
        q += _sin2(x)
    r += 100.0 * q
    return r


def _u_star(coords: np.ndarray) -> np.ndarray:
    """u* = prod_i sin(pi (x_i + 1) / 2), the manufactured ground state on [-1, 1]^d, by columns."""
    return reduce(np.multiply, (np.sin(np.pi * (x + 1.0) / 2.0) for x in coords.T))


def exact_case_potential(beta: float):
    """V = beta (1 - u*^2), whose ground state is u* (see gpflow.analysis)."""
    def exact_case(coords: np.ndarray) -> np.ndarray:
        return beta * (1.0 - _u_star(coords) ** 2)
    return exact_case


def from_file(path: str):
    """Whitespace-separated node values, one per interior node in C-order, read now."""
    vals = np.loadtxt(path).reshape(-1)
    if not np.all((vals >= 0) & (vals < np.inf)):  # NaN fails both
        raise ValueError(f"{path}: potential values must be finite and nonnegative")

    def V(coords: np.ndarray) -> np.ndarray:
        if len(vals) != len(coords):
            raise ValueError(
                f"{path}: {len(vals)} values for {len(coords)} nodes")
        return vals
    return V
