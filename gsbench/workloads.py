"""Workloads of the time-to-ground-state benchmark, and the per-solve gate.

Each workload is one of the paper's acceptance configurations, run through
the library's public API the way `scripts/` run it: build the
discretization, the potential, the `Problem` and the initial state
(set-up), then call `flows.run` once per solve.  Every solve is checked
against the workload's reference after the timed region.

`flows.default_initial_state` is looked up on the module at call time, so
the traced run sees the wrapped version.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gpflow.flows as flows
from gpflow.energy import (Problem, State, eigenvalue_estimate,
                           eigenvalue_from_energy, energy)
from gpflow.flows import (FixedStep, FlowConfig, FlowKind, LineSearchStep,
                          StopRule)
from gpflow.grids import GridSpec, Scheme, TensorOperator
from gpflow.potentials import harmonic_lattice, sin2_product

# relative size of the seeded, positive multiplicative perturbation of the
# flow's starting vector
PERTURBATION = 1e-3


@dataclass
class Outcome:
    """One solve: what `flows.run` returned and what the gate found."""

    label: str
    kind: FlowKind
    seconds: float
    report: flows.RunReport | None = None
    error: str | None = None
    facts: dict = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    spec: GridSpec
    potential: Callable[[np.ndarray], np.ndarray]
    beta: float
    alpha: float
    initial: str
    stop: StopRule
    # (problem, starting state) -> [(label, flow config)], in run order
    solves: Callable[[Problem, State], list[tuple[str, FlowConfig]]]
    # outcomes by label -> appends reference failures to each outcome
    check: Callable[[dict[str, Outcome]], None]


def set_up(w: Workload, seed: int):
    """Discretization, potential, problem and the seeded starting state."""
    disc = TensorOperator(w.spec)
    problem = Problem(w.potential(disc.node_coordinates()), w.beta, w.alpha)
    u0 = flows.default_initial_state(disc, w.initial, problem)
    rng = np.random.default_rng(seed)
    v = u0.coeffs * (1.0 + PERTURBATION * rng.random(disc.ndof))
    v /= np.sqrt(float(np.dot(v * disc.weights, v)))
    return problem, State(v, disc)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def gate(w: Workload, outcomes: list[Outcome], problem: Problem) -> None:
    """Fill `facts` and `failures` of every outcome (run outside any timer
    and with tracing off)."""
    for o in outcomes:
        if o.report is None:
            o.failures.append(f"raised {o.error}")
            continue
        rep, s = o.report, o.report.final_state
        e = energy(s, problem)
        lam = eigenvalue_estimate(s, problem)
        lam_check = eigenvalue_from_energy(s, problem)
        max_rise = float(np.diff(rep.energies).max(initial=0.0)) / abs(e)
        o.facts = {"reason": rep.reason, "iterations": rep.iterations,
                   "residual": rep.records[-1].residual, "energy": e,
                   "eigenvalue": lam, "max_energy_rise_rel": max_rise}
        if rep.reason not in ("tol", "stall"):
            o.failures.append(f"stopped by {rep.reason}")
        if o.kind is FlowKind.BFSP:
            continue  # BFSP is no gradient flow; its energy may rise
        if abs(lam - lam_check) > 1e-10 * max(1.0, abs(lam)):
            o.failures.append(f"Rayleigh value {lam!r} != 2E + beta/2 "
                              f"<u^2,u^2> = {lam_check!r}")
        if max_rise > 1e-12:
            o.failures.append(f"energy rose by {max_rise:.3e} relative")
    w.check({o.label: o for o in outcomes})


def _check_sem5(out: dict[str, Outcome]) -> None:
    o = out["modified_h1"]
    if o.facts and rel(o.facts["eigenvalue"], 0.143834048046) > 1e-7:
        o.failures.append(f"lambda {o.facts['eigenvalue']!r} not within 1e-7 "
                          f"of 0.143834048046")


def _check_lattice(out: dict[str, Outcome]) -> None:
    h1, bfsp = out["modified_h1"], out["bfsp"]
    if h1.facts:
        if h1.facts["residual"] > 1e-10:
            h1.failures.append(f"residual {h1.facts['residual']:.3e} > 1e-10")
        if rel(h1.facts["eigenvalue"], 0.341747612931) > 1e-8:
            h1.failures.append(f"lambda {h1.facts['eigenvalue']!r} not within "
                               f"1e-8 of 0.341747612931")
    if not bfsp.facts:
        return
    if not h1.facts:
        bfsp.failures.append("no modified-H1 energy to compare against")
        return
    e_b, e_h = bfsp.facts["energy"], h1.facts["energy"]
    # BFSP's fixed point depends on dt, so it sits just above the minimum
    if e_b < e_h - 1e-12 or rel(e_b, e_h) > 1e-4:
        bfsp.failures.append(f"BFSP energy {e_b!r} not in [E_h1 - 1e-12, "
                             f"E_h1 (1 + 1e-4)] with E_h1 = {e_h!r}")


def _check_strong(out: dict[str, Outcome]) -> None:
    o = out["modified_h1_linesearch"]
    # the sem8 6^3 discrete value, which the tau = 0.08 fixed step reaches
    # too; not criterion 6's continuum reference
    if o.facts and rel(o.facts["energy"], 33.80690357017) > 1e-9:
        o.failures.append(f"E {o.facts['energy']!r} not within 1e-9 of "
                          f"33.80690357017")


def _bfsp_shift(problem: Problem, u0: State) -> float:
    """Midpoint of V + beta u0^2, as in scripts/compare_flows_2d.py."""
    b = problem.potential + problem.beta * u0.coeffs ** 2
    return 0.5 * (float(np.max(b)) + float(np.min(b)))


WORKLOADS = {w.name: w for w in [
    Workload(
        "sem5_flow", GridSpec(16.0, 3, 20, Scheme.SEM, 5), sin2_product,
        beta=10.0, alpha=0.15, initial="constant",
        # criterion 5 asks for 1e-12, which sits on the round-off floor: the
        # iteration that crosses it moves with the seed (82-92), the one
        # that crosses 1e-10 does not (65)
        stop=StopRule(residual_tol=1e-10, stall_window=10, max_iter=200),
        solves=lambda p, u0: [
            ("modified_h1", FlowConfig(alpha=0.15, step=FixedStep(1.0)))],
        check=_check_sem5),
    Workload(
        "lattice2d_linear", GridSpec(8.0, 2, 300, Scheme.FD2), sin2_product,
        beta=5.0, alpha=0.15, initial="linear",
        stop=StopRule(residual_tol=1e-10, stall_window=10, max_iter=2000),
        solves=lambda p, u0: [
            ("modified_h1", FlowConfig(alpha=0.15, step=FixedStep(1.0))),
            ("bfsp", FlowConfig(kind=FlowKind.BFSP, alpha=_bfsp_shift(p, u0),
                                dt=0.1))],
        check=_check_lattice),
    Workload(
        "strong_linesearch", GridSpec(8.0, 3, 6, Scheme.SEM, 8),
        harmonic_lattice, beta=1600.0, alpha=10.0, initial="constant",
        # below 1e-6 the line search works on energy differences near
        # round-off and the run stalls at a seed-dependent iteration
        # (294-347 at tol 1e-12); every seed crosses 1e-6 at iteration 233
        stop=StopRule(residual_tol=1e-6, stall_window=10, max_iter=3000),
        solves=lambda p, u0: [
            ("modified_h1_linesearch",
             FlowConfig(alpha=10.0, step=LineSearchStep()))],
        check=_check_strong),
]}
