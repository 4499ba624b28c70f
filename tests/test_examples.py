"""examples/*.ini parse to what their acceptance criteria run, and run shrunk."""

import dataclasses
import pathlib
import re

import numpy as np
import pytest

from gpflow.analysis import STUDY_FLOW
from gpflow.cli import main
from gpflow.config import parse_config
from gpflow.flows import FlowKind, StopRule
from gpflow.potentials import exact_case_potential, harmonic_lattice, sin2_product

from test_acceptance import LATTICE, LATTICE_BFSP, SEM5, STRONG, TABLE_3D

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def parse_example(name):
    """examples/<name> parsed for the one subcommand its header comment runs it with."""
    text = (EXAMPLES / name).read_text()
    (command,) = re.findall(rf"(?m)^#\s+gpflow (\w+) --config examples/{re.escape(name)}$", text)
    return parse_config(text, command)


@pytest.mark.parametrize("name", sorted(p.name for p in EXAMPLES.glob("*.ini")))
def test_example_parses_under_its_subcommand(name):
    parse_example(name)


@pytest.mark.parametrize("name, schemes", [("table_fd.ini", ["fd2", "compact4"]),
                                           ("table_sem2.ini", ["sem2"])])
def test_table_example_is_the_table_3d_fixture(name, schemes):
    cfg = parse_example(name)
    assert cfg.study_specs == [spec for s in schemes for spec in TABLE_3D[s]]
    assert (cfg.grid.dim, cfg.grid.half_width, cfg.beta) == (3, 1.0, 1.0)
    x = np.linspace(-1.0, 1.0, 12).reshape(4, 3)
    assert np.array_equal(cfg.potential_fn(x), exact_case_potential(1.0)(x))
    assert (cfg.flow, cfg.stop, cfg.initial) == (STUDY_FLOW, StopRule(), "linear")


@pytest.mark.parametrize("name, criterion, potential, beta, initial", [
    ("sem5.ini", SEM5, sin2_product, 10.0, "constant"),
    ("strong.ini", STRONG, harmonic_lattice, 1600.0, "constant"),
    ("lattice2d.ini", LATTICE, sin2_product, 5.0, "linear"),
])
def test_example_is_its_criterion(name, criterion, potential, beta, initial):
    cfg = parse_example(name)
    assert (cfg.grid, cfg.flow, cfg.stop) == criterion
    assert (cfg.potential_fn, cfg.beta, cfg.initial) == (potential, beta, initial)


@pytest.mark.parametrize("name, command, key, value, code", [
    ("table_fd.ini", "convergence", "levels", "8 16", 0),
    ("table_sem2.ini", "convergence", "levels", "2 4", 0),
    ("sem5.ini", "solve", "cells", "2", 0),
    ("strong.ini", "solve", "cells", "2", 2),        # tau = 0.1 diverges here too
    ("lattice2d.ini", "compare", "cells", "32", 2),  # the L2 flow diverges
])
def test_example_runs(tmp_path, name, command, key, value, code):
    text, n = re.subn(rf"(?m)^{key} = .*", f"{key} = {value}", (EXAMPLES / name).read_text())
    assert n == 1
    (tmp_path / name).write_text(text)
    out = str(tmp_path / "run")
    assert main([command, "--config", str(tmp_path / name), "--out", out]) == code


def test_bfsp_shift_is_criterion_7s():
    """compare runs lattice2d.ini's flow with kind = bfsp, and run takes BFSP's shift
    from the problem and the start for it as for criterion 7: the same BFSP."""
    cfg = parse_example("lattice2d.ini")
    assert dataclasses.replace(cfg.flow, kind=FlowKind.BFSP) == LATTICE_BFSP
