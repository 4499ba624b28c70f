"""Gross-Pitaevskii ground states by Riemannian Sobolev gradient descent."""

from .grids import GridSpec, Scheme, TensorOperator, gauss_lobatto_rule
from .meshes import TriMesh2D, p1_assemble
from .linalg import lowest_two_eigenpairs, pcg, shifted_solver
from .energy import Problem, State, energy, residual, retract
from .flows import (FixedStep, FlowConfig, FlowKind, LineSearchStep,
                    StopRule, default_initial_state, run)
from .analysis import (convergence_study, eigengap_study, exact_case,
                       linearized_eigenpairs, rate_fit, set_up)
from .config import RunConfig, parse_config

__all__ = [
    "GridSpec", "Scheme", "TensorOperator", "gauss_lobatto_rule",
    "TriMesh2D", "p1_assemble",
    "lowest_two_eigenpairs", "pcg", "shifted_solver",
    "Problem", "State", "energy", "residual", "retract",
    "FixedStep", "FlowConfig", "FlowKind", "LineSearchStep", "StopRule",
    "default_initial_state", "run",
    "convergence_study", "eigengap_study", "exact_case",
    "linearized_eigenpairs", "rate_fit", "set_up",
    "RunConfig", "parse_config",
]
