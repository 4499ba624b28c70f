"""INI-style run configuration with line-number error reporting.

Sections and keys:

    [grid]     scheme (fd2 | compact4 | sem<k>, k the SEM degree), d, cells,
               half_width
    [problem]  potential (exact_case | sin2_product | harmonic_lattice |
               constant(c) | file(path)), beta
    [flow]     kind, alpha (modified H1's and the linear start's shift; bfsp takes
               only dt, its shift the midpoint of V + beta u0^2), tau (number or
               'linesearch'), dt, initial
    [stop]     tol, max_iter, stall_window
    [study]    levels (whitespace-separated cells values), schemes (each once)
    [output]   prefix

[grid] and [problem] are required; everything else has defaults (alpha = 0.15,
tau = 1, modified_h1 flow; studies at [grid] cells and twice that, [grid] scheme).
The studies' grids, schemes x levels at [grid] d and half_width, are study_specs.
parse_config(text, command) refuses, at its line, what `gpflow <command>` cannot
run: bfsp in a study; in convergence, any potential but exact_case, half_width != 1
or one level; in eigengap, any scheme but [grid]'s, or a file(path) potential at
two levels or more; a file(path) potential whose count misses the grid it runs on.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .flows import FixedStep, FlowConfig, FlowKind, LineSearchStep, StopRule
from .grids import GridSpec, Scheme
from . import potentials


class ConfigError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


_KNOWN = {
    "grid": {"scheme", "d", "cells", "half_width"},
    "problem": {"potential", "beta"},
    "flow": {"kind", "alpha", "tau", "dt", "initial"},
    "stop": {"tol", "max_iter", "stall_window"},
    "study": {"levels", "schemes"},
    "output": {"prefix"},
}

_FLOWS = {k.value: k for k in FlowKind}

# first word of a GridSpec error -> the [grid] key whose value it rejects
_GRID_ERROR_KEYS = {"half_width": "half_width", "dim": "d", "cells_per_dim": "cells",
                    "grid": "cells", "degree": "scheme"}


@dataclass
class RunConfig:
    grid: GridSpec
    potential_fn: object        # callable coords -> node values
    beta: float
    flow: FlowConfig
    stop: StopRule
    study_specs: list[GridSpec]  # the studies' grids, schemes x levels
    initial: str = "constant"
    prefix: str = "gpflow"


def _tokenize(text: str):
    """Yield (line_number, section, key, value) for every assignment."""
    section = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.fullmatch(r"\[([a-z_]+)\]", line)
        if m:
            section = m.group(1)
            if section not in _KNOWN:
                raise ConfigError(ln, f"unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(ln, f"expected key = value, got {line!r}")
        if section is None:
            raise ConfigError(ln, "assignment before any [section] header")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _KNOWN[section]:
            raise ConfigError(ln, f"unknown key {key!r} in section [{section}]")
        yield ln, section, key, value


def _number(ln, value, key, kind=float):
    try:
        x = kind(value)
    except ValueError:
        raise ConfigError(ln, f"{key}: expected a {kind.__name__}, got {value!r}")
    if not np.isfinite(x):
        raise ConfigError(ln, f"{key}: value must be finite, got {value!r}")
    return x


def _parse_potential(ln, value, beta):
    m = re.fullmatch(r"([a-z_0-9]+)(?:\((.*)\))?", value.strip())
    if not m:
        raise ConfigError(ln, f"malformed potential spec {value!r}")
    name, arg = m.group(1), m.group(2)
    if name == "constant":
        if arg is None:
            raise ConfigError(ln, "constant potential needs a value: constant(c)")
        c = _number(ln, arg, "potential")
        if c < 0:
            raise ConfigError(ln, f"constant potential must be >= 0, got {c}")
        return potentials.constant(c)
    if name == "file":
        if not arg:
            raise ConfigError(ln, "file potential needs a path: file(path)")
        try:
            return potentials.from_file(arg)
        except (OSError, ValueError) as e:
            raise ConfigError(ln, f"potential file {arg!r}: {e}")
    if arg is not None:
        raise ConfigError(ln, f"potential {name!r} takes no argument")
    if name == "sin2_product":
        return potentials.sin2_product
    if name == "harmonic_lattice":
        return potentials.harmonic_lattice
    if name == "exact_case":
        return potentials.exact_case_potential(beta)
    raise ConfigError(ln, f"unknown potential {name!r}")


def _scheme_token(ln, tok):
    """'fd2', 'compact4', 'sem3' -> (Scheme, degree)."""
    m = re.fullmatch(r"(fd2|compact4)|sem(\d+)", tok)
    if not m:
        raise ConfigError(ln, f"unknown scheme {tok!r}")
    if m.group(1):
        return Scheme(m.group(1)), 1
    return Scheme.SEM, int(m.group(2))


def parse_config(text: str, command: str) -> RunConfig:
    values: dict[tuple[str, str], tuple[int, str]] = {}
    sections = set()
    for ln, section, key, value in _tokenize(text):
        sections.add(section)
        values[(section, key)] = (ln, value)

    for required in ("grid", "problem"):
        if required not in sections:
            raise ConfigError(0, f"missing required section [{required}]")

    def get(section, key, default=None):
        return values.get((section, key), (0, default))

    # grid
    ln, tok = get("grid", "scheme", "fd2")
    scheme, degree = _scheme_token(ln, tok.lower())
    d = int(_number(*get("grid", "d", "1"), "d", int))
    cells = int(_number(*get("grid", "cells", "32"), "cells", int))
    half_width = _number(*get("grid", "half_width", "1"), "half_width")
    try:
        grid = GridSpec(half_width, d, cells, scheme, degree)
    except ValueError as e:
        raise ConfigError(get("grid", _GRID_ERROR_KEYS[str(e).split()[0]])[0], str(e))
    if command == "convergence" and half_width != 1:  # the manufactured case's [-1, 1]^d
        raise ConfigError(get("grid", "half_width")[0], "convergence needs [grid] half_width = 1")

    # problem
    beta = _number(*get("problem", "beta", "0"), "beta")
    if beta < 0:
        raise ConfigError(get("problem", "beta")[0], f"beta must be >= 0, got {beta}")
    pot_ln, pot = get("problem", "potential", None)
    if pot is None:
        raise ConfigError(0, "missing key 'potential' in section [problem]")
    pot_fn = _parse_potential(pot_ln, pot, beta)
    if command == "convergence" and pot != "exact_case":
        raise ConfigError(pot_ln, "convergence needs [problem] potential = exact_case")

    # flow
    ln, kind_tok = get("flow", "kind", "modified_h1")
    if kind_tok not in _FLOWS:
        raise ConfigError(ln, f"unknown flow kind {kind_tok!r}")
    if kind_tok == "bfsp" and command in ("convergence", "eigengap"):  # a fixed point set by dt
        raise ConfigError(ln, "[flow] kind = bfsp: the studies need a gradient flow")
    alpha = _number(*get("flow", "alpha", "0.15"), "alpha")
    ln, tau_tok = get("flow", "tau", "1")
    tau = None if tau_tok.strip().lower() == "linesearch" else _number(ln, tau_tok, "tau")
    dt = _number(*get("flow", "dt", "0.1"), "dt")
    try:
        step = LineSearchStep() if tau is None else FixedStep(tau)
        flow = FlowConfig(kind=_FLOWS[kind_tok], alpha=alpha, step=step, dt=dt)
    except ValueError as e:  # an alpha, tau or dt error begins with its key
        raise ConfigError(get("flow", str(e).split()[0])[0], str(e))

    ln, initial = get("flow", "initial", "constant")
    if initial not in ("constant", "linear"):
        raise ConfigError(ln, f"initial must be 'constant' or 'linear', got {initial!r}")

    # stop
    tol = _number(*get("stop", "tol", "1e-12"), "tol")
    max_iter = int(_number(*get("stop", "max_iter", "500"), "max_iter", int))
    stall = int(_number(*get("stop", "stall_window", "10"), "stall_window", int))
    try:
        stop = StopRule(residual_tol=tol, stall_window=stall, max_iter=max_iter)
    except ValueError as e:  # a StopRule error begins with the key it rejects
        raise ConfigError(get("stop", str(e).split()[0])[0], str(e))

    # study
    levels_ln, lv = get("study", "levels", "")
    levels = [int(_number(levels_ln, t, "levels", int)) for t in lv.split()] or [cells, 2 * cells]
    if command == "convergence" and len(levels) < 2:
        raise ConfigError(levels_ln, "[study] levels: convergence needs two or more")
    ln, sv = get("study", "schemes", "")
    schemes = [_scheme_token(ln, t.lower()) for t in sv.split()] or [(scheme, degree)]
    if len(set(schemes)) < len(schemes):
        raise ConfigError(ln, f"schemes: each scheme may appear once, got {sv!r}")
    if command == "eigengap" and schemes != [(scheme, degree)]:
        raise ConfigError(ln, "[study] schemes: eigengap runs the [grid] scheme")
    try:
        specs = [GridSpec(half_width, d, c, s, k)
                 for (s, k), c in itertools.product(schemes, levels)]
    except ValueError as e:  # a degree error, or default levels: the schemes line's
        raise ConfigError(ln if str(e).startswith("degree") else levels_ln or ln, str(e))
    if pot.startswith("file("):  # its V checks the count: no other V is evaluated here
        if command == "eigengap" and len(levels) > 1:  # one file holds one grid's count
            raise ConfigError(levels_ln or pot_ln,
                              "a file(path) potential needs [study] levels to be one value")
        spec = specs[0] if command == "eigengap" else grid
        try:  # the grid's shape as per-axis index arrays: no ndof-sized array
            pot_fn(np.ix_(*[range(spec.interior_per_dim)] * spec.dim))
        except ValueError as e:
            raise ConfigError(pot_ln, str(e))

    prefix = get("output", "prefix", "gpflow")[1]
    return RunConfig(grid=grid, potential_fn=pot_fn,
                     beta=beta, flow=flow, stop=stop, initial=initial,
                     prefix=prefix, study_specs=specs)
