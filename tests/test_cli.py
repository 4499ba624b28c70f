import csv
import dataclasses
import io
import os
import re

import numpy as np
import pytest

import gpflow.analysis
from gpflow.cli import main
from gpflow.config import ConfigError, parse_config
from gpflow.energy import State, retract
from gpflow import flows
from gpflow.flows import FixedStep, FlowKind, LineSearchStep, StopRule, run
from gpflow.grids import GridSpec, Scheme, TensorOperator
from gpflow.linalg import EigenResult, SolverError
from gpflow.potentials import harmonic_lattice


MINIMAL = """
[grid]
scheme = fd2
d = 2
cells = 64
[problem]
potential = constant(1)
beta = 0
"""


def test_parse_minimal_config_defaults():
    cfg = parse_config(MINIMAL, "solve")
    assert cfg.grid.scheme is Scheme.FD2
    assert cfg.grid.dim == 2
    assert cfg.grid.cells_per_dim == 64
    assert cfg.beta == 0.0
    assert cfg.flow.kind is FlowKind.MODIFIED_H1
    assert cfg.flow.alpha == 0.15
    assert cfg.flow.step == FixedStep(1.0)
    assert cfg.stop.residual_tol == 1e-12
    assert cfg.initial == "constant"
    assert cfg.prefix == "gpflow"
    # the studies default to [grid] cells and twice that, with the [grid] scheme
    assert cfg.study_specs == [GridSpec(1.0, 2, 64, Scheme.FD2, 1),
                               GridSpec(1.0, 2, 128, Scheme.FD2, 1)]
    V = cfg.potential_fn(np.zeros((3, 2)))
    assert np.allclose(V, 1.0)


def test_parse_full_config():
    cfg = parse_config("""
[grid]
scheme = sem3
d = 3
cells = 5
half_width = 16
[problem]
potential = sin2_product
beta = 10
[flow]
kind = modified_h1
alpha = 0.2
tau = linesearch
initial = linear
[stop]
tol = 1e-10
max_iter = 120
stall_window = 5
[study]
levels = 10 20 40
schemes = fd2 sem2 compact4
[output]
prefix = out/run1
""", "solve")
    assert cfg.grid.scheme is Scheme.SEM and cfg.grid.degree == 3
    assert cfg.grid.half_width == 16.0
    assert isinstance(cfg.flow.step, LineSearchStep)
    assert cfg.initial == "linear"
    assert cfg.stop.max_iter == 120 and cfg.stop.stall_window == 5
    # schemes x levels, each at [grid] d and half_width
    assert cfg.study_specs == [GridSpec(16.0, 3, c, s, k)
                               for s, k in [(Scheme.FD2, 1), (Scheme.SEM, 2), (Scheme.COMPACT4, 1)]
                               for c in (10, 20, 40)]
    assert cfg.prefix == "out/run1"


@pytest.mark.parametrize("text,line,match", [
    ("[grid]\nscheme = fd2\nwhat = 3\n", 3, "unknown key"),
    ("[grid]\nscheme = sem5\ndegree = 3\n", 3, "unknown key"),
    ("[nope]\n", 1, "unknown section"),
    ("x = 1\n", 1, "before any"),
    ("[grid]\njunk line\n", 2, "key = value"),
    ("[grid]\ncells = few\n[problem]\npotential = constant(1)\n", 2,
     "expected a int"),
    (MINIMAL + "[flow]\nalpha = -1\n", 10, "alpha must be >= 0"),
    (MINIMAL + "[flow]\ntau = 0\n", 10, "tau must be positive"),
    (MINIMAL + "[flow]\ntau = abc\n", 10, "tau: expected a float"),
    # FixedStep and FlowConfig errors name the line of the value they reject
    (MINIMAL + "[flow]\nalpha = 0.2\ndt = 0\n", 11, "dt must be positive"),
    (MINIMAL + "[flow]\nkind = cg\n", 10, "unknown flow kind"),
    # the H1 seminorm flow is kind = modified_h1 with alpha = 0
    (MINIMAL + "[flow]\nkind = h1_seminorm\n", 10, "unknown flow kind"),
    (MINIMAL + "[flow]\ninitial = random\n", 10, "initial"),
    ("[grid]\nscheme = fd3\n[problem]\npotential = constant(1)\n", 2,
     "unknown scheme"),
    ("[grid]\nscheme = sem\n[problem]\npotential = constant(1)\n", 2,
     "unknown scheme"),
    (MINIMAL.replace("constant(1)", "constant"), 7, "needs a value"),
    (MINIMAL.replace("constant(1)", "constant(-1)"), 7, "constant potential must be >= 0"),
    (MINIMAL.replace("constant(1)", "mystery"), 7, "unknown potential"),
    (MINIMAL.replace("beta = 0", "beta = -2"), 8, "beta must be >= 0"),
    (MINIMAL + "[flow]\nalpha = nan\n", 10, "value must be finite"),
    (MINIMAL.replace("constant(1)", "sin2_product("), 7, "malformed potential spec"),
    (MINIMAL.replace("constant(1)", "file()"), 7, "needs a path"),
    (MINIMAL.replace("constant(1)", "sin2_product(3)"), 7, "takes no argument"),
    # GridSpec and StopRule errors name the line of the value they reject
    ("[grid]\nscheme = fd2\n[problem]\npotential = constant(1)\n"
     "[stop]\ntol = 1e-8\nmax_iter = 0\n", 7, "max_iter must be >= 1"),
    ("[grid]\nscheme = fd2\n[problem]\npotential = constant(1)\n"
     "[stop]\nstall_window = 1\n", 6, "stall_window must be >= 2"),
    ("[grid]\nscheme = fd2\n[problem]\npotential = constant(1)\n"
     "[stop]\nmax_iter = 5\ntol = -1\n", 7, "tol must be >= 0"),
    ("[grid]\nd = 4\n[problem]\npotential = constant(1)\n", 2,
     "dim must be 1, 2 or 3"),
    ("[grid]\nscheme = fd2\ncells = 0\n[problem]\npotential = constant(1)\n", 3,
     "cells_per_dim must be >= 1"),
    ("[grid]\nscheme = fd2\nhalf_width = -1\n[problem]\npotential = constant(1)\n", 3,
     "half_width must be positive"),
    ("[grid]\nscheme = sem0\n[problem]\npotential = constant(1)\n", 2,
     "degree must be >= 1"),
    # every study grid is built here: a level or scheme it rejects names its line
    (MINIMAL + "[study]\nlevels = 0 16\n", 10, "cells_per_dim must be >= 1"),
    (MINIMAL + "[study]\nlevels = 1 2\n", 10, "no interior unknowns"),
    # with the default levels (1 and 2 here) it is the schemes line's
    ("[grid]\nscheme = sem2\ncells = 1\n[problem]\npotential = constant(1)\n"
     "[study]\nschemes = fd2\n", 7, "no interior unknowns"),
    # a study runs each scheme once
    (MINIMAL + "[study]\nlevels = 8 16\nschemes = fd2 fd2\n", 11, "each scheme may appear once"),
])
def test_parse_errors_with_line_numbers(text, line, match):
    with pytest.raises(ConfigError, match=match) as e:
        parse_config(text, "solve")
    assert e.value.line == line


def test_parse_missing_sections():
    with pytest.raises(ConfigError, match="missing required section"):
        parse_config("[grid]\nscheme = fd2\n", "solve")
    with pytest.raises(ConfigError, match="potential"):
        parse_config("[grid]\nscheme = fd2\n[problem]\nbeta = 1\n", "solve")


def test_harmonic_lattice_zero_at_origin():
    V = harmonic_lattice(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert V[0] == 0.0
    assert V[1] == pytest.approx(1.0 + 100 * np.sin(np.pi / 4) ** 2)


def write_cfg(tmp_path, text, name="run.ini"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def small_cfg(tmp_path, prefix, extra=""):
    return write_cfg(tmp_path, f"""
[grid]
scheme = fd2
d = 1
cells = 32
[problem]
potential = exact_case
beta = 2
[flow]
alpha = 0.2
[stop]
max_iter = 100
[output]
prefix = {prefix}
{extra}
""")


def read_csv(path):
    with open(path) as f:
        return f.read()


def test_cli_solve_end_to_end(tmp_path, capsys):
    prefix = str(tmp_path / "s")
    code = main(["solve", "--config", small_cfg(tmp_path, prefix)])
    assert code == 0
    assert capsys.readouterr().out.startswith("modified_h1  reason=tol  iterations=")
    trace = read_csv(prefix + "_trace.csv").splitlines()
    assert trace[0] == "iter,energy,residual,lambda,step"
    assert len(trace) >= 3
    summary = read_csv(prefix + "_summary.csv").splitlines()
    assert summary[0] == "lambda,energy,iterations,wall_seconds"
    lam = float(summary[1].split(",")[0])
    # 1D exact case: lambda_h = mu1 + beta
    h = 2.0 / 32
    mu1 = (4.0 / h ** 2) * np.sin(np.pi * h / 4.0) ** 2
    assert lam == pytest.approx(mu1 + 2.0, abs=1e-9)


def test_cli_convergence_end_to_end(tmp_path):
    prefix = str(tmp_path / "c")
    cfg = small_cfg(tmp_path, prefix, extra="[study]\nlevels = 8 16\n")
    assert main(["convergence", "--config", cfg]) == 0
    table = read_csv(prefix + "_table.csv").splitlines()
    assert table[0].startswith("scheme,grid,h,lambda_err,lambda_order")
    assert len(table) == 3
    parts = table[2].split(",")
    assert parts[0] == "fd2"
    assert float(parts[4]) == pytest.approx(2.0, abs=0.1)  # lambda order


def test_cli_eigengap_end_to_end(tmp_path):
    prefix = str(tmp_path / "g")
    cfg = small_cfg(tmp_path, prefix, extra="[study]\nlevels = 16 32\n")
    assert main(["eigengap", "--config", cfg]) == 0
    table = read_csv(prefix + "_table.csv").splitlines()
    assert table[0] == "h,lambda0,lambda1,gap"
    gaps = [float(line.split(",")[3]) for line in table[1:]]
    assert len(gaps) == 2 and all(g > 0 for g in gaps)
    # [study] schemes may name the [grid] scheme, the one eigengap runs: the same table
    cfg = small_cfg(tmp_path, prefix + "2", extra="[study]\nlevels = 16 32\nschemes = fd2\n")
    assert main(["eigengap", "--config", cfg]) == 0
    assert read_csv(prefix + "2_table.csv").splitlines() == table


def test_cli_compare_end_to_end(tmp_path, capsys, monkeypatch):
    prefix = str(tmp_path / "cmp")
    cfg = small_cfg(tmp_path, prefix)
    flows = []
    monkeypatch.setattr(gpflow.cli, "run", lambda f, *a: flows.append(f) or run(f, *a))
    main(["compare", "--config", cfg])  # BFSP may stall; status not asserted
    kinds = ["modified_h1", "bfsp", "l2", "a0", "au"]
    # every run is the configured flow with its kind replaced: BFSP too, as solve runs it
    configured = parse_config(open(cfg).read(), "compare").flow
    assert [flow.kind.value for flow in flows] == kinds
    assert [dataclasses.replace(flow, kind=configured.kind) for flow in flows] == [configured] * 5
    # one line per run: kind, stop reason, iterations, last residual
    line = r"(\w+)  reason=(tol|stall|diverged|max_iter|step_failure)  iterations=\d+  "
    assert [re.match(line, s)[1] for s in capsys.readouterr().out.splitlines()] == kinds
    header = None
    for kind in kinds:
        lines = read_csv(f"{prefix}_{kind}_trace.csv").splitlines()
        if header is None:
            header = lines[0]
        assert lines[0] == header == "iter,energy,residual,lambda,step"
    summary = read_csv(prefix + "_summary.csv").splitlines()
    assert summary[0] == "flow,lambda,energy,iterations,wall_seconds"
    assert [line.split(",")[0] for line in summary[1:]] == kinds


def test_cli_verify_end_to_end(tmp_path, capsys):
    prefix = str(tmp_path / "v")
    cfg = write_cfg(tmp_path, f"""
[grid]
scheme = fd2
d = 1
cells = 24
[problem]
potential = exact_case
beta = 2
[flow]
alpha = 0.2
[output]
prefix = {prefix}
""")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out
    assert "checks passed" in out
    table = read_csv(prefix + "_table.csv").splitlines()
    assert table[0] == "check,passed"
    assert all(line.endswith(",1") for line in table[1:])
    rows = list(csv.reader(io.StringIO(read_csv(prefix + "_table.csv"))))
    assert all(len(row) == 2 for row in rows)


def test_cli_verify_short_converged_run(tmp_path, capsys):
    """A run that converges in fewer iterations than a rate fit needs (16
    here) skips that check and passes the others."""
    prefix = str(tmp_path / "v")
    cfg = write_cfg(tmp_path, f"""
[grid]
scheme = fd2
d = 2
cells = 6
[problem]
potential = exact_case
beta = 2
[flow]
alpha = 0.2
[output]
prefix = {prefix}
""")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("[PASS]") == 5 and "[FAIL]" not in out
    assert "5/5 checks passed" in out
    assert "geometric residual decay" not in out


def test_cli_verify_below_six_unknowns_skips_the_gap_checks(tmp_path, capsys):
    """fd2 1D on 6 cells has 5 unknowns, too few for LOBPCG's constraint to
    u^perp: verify leaves out its gap check and passes the others."""
    prefix = str(tmp_path / "v")
    cfg = write_cfg(tmp_path, open(small_cfg(tmp_path, prefix)).read().replace(
        "cells = 32", "cells = 6"), name="six.ini")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "4/4 checks passed" in out and "gap" not in out


def test_cli_eigengap_negative_gap_exit_2(tmp_path, capsys, monkeypatch):
    """A level whose u is not A_u's lowest mode (stubbed here) keeps the table,
    names the level and its bound on stderr, and exits 2."""
    monkeypatch.setattr(gpflow.analysis, "linearized_eigenpairs",
                        lambda state, problem: EigenResult(9.75, 2.5))
    prefix = str(tmp_path / "g")
    assert main(["eigengap", "--config", small_cfg(tmp_path, prefix)]) == 2
    table = read_csv(prefix + "_table.csv").splitlines()
    assert [float(line.split(",")[3]) for line in table[1:]] == [-7.25, -7.25]
    assert capsys.readouterr().err.splitlines() == [
        f"h = {h:g}: u is not A_u's lowest mode: delta <= -7.250e+00" for h in (2 / 32, 2 / 64)]


def test_cli_convergence_honours_stop(tmp_path):
    prefix = str(tmp_path / "c")
    cfg = write_cfg(tmp_path, open(small_cfg(tmp_path, prefix)).read().replace(
        "max_iter = 100", "tol = 1e-4\nmax_iter = 3"), name="short.ini")
    assert main(["convergence", "--config", cfg]) == 2
    table = read_csv(prefix + "_table.csv").splitlines()
    assert len(table) == 3
    assert all(line.split(",")[-1] == "0" for line in table[1:])
    assert all(line.split(",")[-2] == "3" for line in table[1:])


def test_cli_determinism(tmp_path):
    """Identical config + seed -> byte-identical trace and table output."""
    a = str(tmp_path / "a")
    b = str(tmp_path / "b")
    cfg = small_cfg(tmp_path, "unused")
    assert main(["solve", "--config", cfg, "--out", a]) == 0
    assert main(["solve", "--config", cfg, "--out", b]) == 0
    assert read_csv(a + "_trace.csv") == read_csv(b + "_trace.csv")
    # summaries agree except for the wall-clock column
    sa = [line.rsplit(",", 1)[0] for line in read_csv(a + "_summary.csv").splitlines()]
    sb = [line.rsplit(",", 1)[0] for line in read_csv(b + "_summary.csv").splitlines()]
    assert sa == sb
    assert main(["eigengap", "--config", cfg, "--out", a]) == 0
    assert main(["eigengap", "--config", cfg, "--out", b]) == 0
    assert read_csv(a + "_table.csv") == read_csv(b + "_table.csv")


def test_cli_config_error_exit_1(tmp_path, capsys):
    bad = write_cfg(tmp_path, "[grid]\nscheme = fd9\n")
    assert main(["solve", "--config", bad]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["solve", "--config", str(tmp_path / "missing.ini")]) == 1
    # a negative tol could never stop a run: rejected at its line
    neg_tol = write_cfg(tmp_path, "[grid]\nscheme = fd2\n[problem]\npotential = constant(1)\n"
                        "[stop]\ntol = -1\n", name="tol.ini")
    assert main(["solve", "--config", neg_tol]) == 1
    assert "line 6: tol must be >= 0" in capsys.readouterr().err
    # a negative constant potential too, at the potential's line
    neg_v = write_cfg(tmp_path, "[grid]\nscheme = fd2\n[problem]\npotential = constant(-1)\n",
                      name="v.ini")
    assert main(["solve", "--config", neg_v]) == 1
    assert "line 4: constant potential must be >= 0" in capsys.readouterr().err


def file_potential_cfg(tmp_path, prefix, path, extra=""):
    """small_cfg's 1D fd2 grid (31 interior nodes) with V read from path."""
    return write_cfg(tmp_path, open(small_cfg(tmp_path, prefix, extra)).read().replace(
        "potential = exact_case", f"potential = file({path})"), name="file.ini")


def test_cli_file_potential_round_trip(tmp_path):
    V = np.linspace(0.0, 3.0, 31) ** 2
    path = tmp_path / "V.txt"
    np.savetxt(path, V)
    cfg = parse_config(open(file_potential_cfg(tmp_path, "f", path)).read(), "solve")
    assert np.array_equal(cfg.potential_fn(np.zeros((31, 1))), V)
    prefix = str(tmp_path / "f")
    assert main(["solve", "--config", file_potential_cfg(tmp_path, prefix, path)]) == 0


def test_cli_file_potential_missing_file_exit_1(tmp_path, capsys):
    cfg = file_potential_cfg(tmp_path, str(tmp_path / "f"), tmp_path / "absent.txt")
    line = next(i for i, text in enumerate(open(cfg).read().splitlines(), start=1)
                if text.startswith("potential"))
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: ") and "absent.txt" in err


def test_cli_file_potential_non_finite_exit_1(tmp_path, capsys):
    V = np.ones(31)
    V[7] = np.nan
    path = tmp_path / "V.txt"
    np.savetxt(path, V)
    prefix = str(tmp_path / "f")
    cfg = file_potential_cfg(tmp_path, prefix, path)
    line = next(i for i, text in enumerate(open(cfg).read().splitlines(), start=1)
                if text.startswith("potential"))
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: ") and "must be finite" in err
    assert not os.path.exists(prefix + "_trace.csv")


def test_cli_file_potential_negative_exit_1(tmp_path, capsys):
    """A negative node value is a config error at the potential's line, as
    NaN is, not a run-time error from `Problem` (exit 2)."""
    V = np.ones(31)
    V[7] = -1.0
    path = tmp_path / "V.txt"
    np.savetxt(path, V)
    prefix = str(tmp_path / "f")
    cfg = file_potential_cfg(tmp_path, prefix, path)
    line = next(i for i, text in enumerate(open(cfg).read().splitlines(), start=1)
                if text.startswith("potential"))
    assert main(["solve", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: ") and "nonnegative" in err
    assert not os.path.exists(prefix + "_trace.csv")


@pytest.mark.parametrize("subcommand, count, nodes, output, extra", [
    ("solve", 30, 31, "_trace.csv", ""),
    # fits the [grid] (32 cells), not eigengap's one level
    ("eigengap", 31, 63, "_table.csv", "[study]\nlevels = 64\n"),
], ids=["solve", "eigengap-study-level"])
def test_cli_file_potential_wrong_count_exit_1(tmp_path, capsys, subcommand, count, nodes,
                                               output, extra):
    """A file whose value count misses the grid the subcommand runs ([grid], or
    eigengap's one study level) is a config error at the potential's line, found
    before any run (it failed the run with exit 2)."""
    path = tmp_path / "V.txt"
    np.savetxt(path, np.ones(count))
    prefix = str(tmp_path / "f")
    cfg = file_potential_cfg(tmp_path, prefix, path, extra)
    assert main([subcommand, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err == f"config error: line 7: {path}: {count} values for {nodes} nodes\n"
    assert not os.path.exists(prefix + output)


@pytest.mark.parametrize("levels, line", [("", 7), ("[study]\nlevels = 32 64\n", 16)],
                         ids=["default-levels", "two-levels"])
def test_eigengap_file_potential_needs_one_level(tmp_path, levels, line):
    """One file holds one grid's values, so eigengap with a file(path) potential
    needs [study] levels to be one value: without it the default two levels are
    refused, and the message says why, at the levels line or else the potential's."""
    path = tmp_path / "V.txt"
    np.savetxt(path, np.ones(31))  # fits the 32-cell [grid] and the first level
    text = open(file_potential_cfg(tmp_path, str(tmp_path / "f"), path, levels)).read()
    with pytest.raises(ConfigError) as e:
        parse_config(text, "eigengap")
    assert str(e.value) == (f"line {line}: a file(path) potential needs [study] levels "
                            "to be one value")
    assert text.splitlines()[line - 1].startswith("levels" if levels else "potential")
    one = text.replace("32 64", "32") if levels else text + "[study]\nlevels = 32\n"
    assert parse_config(one, "eigengap").study_specs == [GridSpec(1.0, 1, 32, Scheme.FD2)]


def test_cli_solve_and_compare_run_one_bfsp(tmp_path):
    """BFSP takes its shift from the problem and the start, not from [flow] alpha,
    so `solve` with kind = bfsp and `compare` write byte-identical BFSP traces."""
    text = """
[grid]
scheme = fd2
d = 2
cells = 32
half_width = 8
[problem]
potential = sin2_product
beta = 5
[flow]
alpha = 0.15
dt = 0.1
initial = linear
[stop]
tol = 1e-10
max_iter = 300
"""
    solve, cmp = str(tmp_path / "s"), str(tmp_path / "c")
    main(["solve", "--config", write_cfg(tmp_path, text.replace("[flow]\n", "[flow]\nkind = bfsp\n"),
                                         name="bfsp.ini"), "--out", solve])
    main(["compare", "--config", write_cfg(tmp_path, text), "--out", cmp])
    trace = read_csv(solve + "_trace.csv")
    assert trace == read_csv(cmp + "_bfsp_trace.csv")
    assert len(trace.splitlines()) > 20


@pytest.mark.parametrize("subcommand, old, new, key, line", [
    ("convergence", "[flow]\n", "[flow]\nkind = bfsp\n", "[flow] kind", 10),
    ("eigengap", "[flow]\n", "[flow]\nkind = bfsp\n", "[flow] kind", 10),
    ("convergence", "potential = exact_case", "potential = sin2_product", "potential", 7),
    ("convergence", "d = 1", "d = 1\nhalf_width = 8", "half_width", 5),
    ("eigengap", "[flow]\n", "[study]\nschemes = sem2 compact4\n[flow]\n", "[study] schemes", 10),
    ("eigengap", "[flow]\n", "[study]\nlevels = 0 16\n[flow]\n", "cells_per_dim", 10),
    ("convergence", "[flow]\n", "[study]\nlevels = 1 2\n[flow]\n", "grid has no", 10),
    ("convergence", "[flow]\n", "[study]\nschemes = fd2 FD2\n[flow]\n", "schemes", 10),
    ("convergence", "[flow]\n", "[study]\nlevels = 16\n[flow]\n", "[study] levels", 10),
], ids=["bfsp-convergence", "bfsp-eigengap", "potential", "half_width", "eigengap-schemes",
        "levels-0", "fd2-levels-1", "repeated-scheme", "one-level"])
def test_cli_study_rejects_config_it_cannot_run(tmp_path, capsys, subcommand, old, new, key,
                                                line):
    """BFSP's fixed point depends on dt, so it is not the discrete ground state
    a study measures; convergence measures its errors against the
    manufactured case on [-1, 1]^d, and forms orders from two or more levels;
    eigengap runs the [grid] scheme only; a study runs each scheme once; and
    every level must make a grid: anything else is a config error at the line
    of the rejected value."""
    prefix = str(tmp_path / "x")
    cfg = write_cfg(tmp_path, open(small_cfg(tmp_path, prefix)).read().replace(old, new),
                    name="study.ini")
    assert main([subcommand, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: line {line}: ") and key in err
    assert not os.path.exists(prefix + "_table.csv")


def test_solve_accepts_config_the_studies_refuse(tmp_path, capsys):
    """The refusals belong to the studies: solve, compare and verify run a config
    with kind = bfsp, potential = sin2_product and half_width = 8, while
    convergence stops at half_width's line and eigengap at kind's.  solve runs
    it to its end: BFSP stops by max_iter here (exit 2, not 1)."""
    prefix = str(tmp_path / "b")
    text = open(small_cfg(tmp_path, prefix)).read().replace(
        "d = 1", "d = 1\nhalf_width = 8").replace(
        "potential = exact_case", "potential = sin2_product").replace(
        "[flow]\n", "[flow]\nkind = bfsp\n")
    for command in ("solve", "compare", "verify"):
        cfg = parse_config(text, command)
        assert (cfg.flow.kind, cfg.grid.half_width) == (FlowKind.BFSP, 8.0)
    for command, line in (("convergence", 5), ("eigengap", 11)):
        with pytest.raises(ConfigError) as e:
            parse_config(text, command)
        assert e.value.line == line
    assert main(["solve", "--config", write_cfg(tmp_path, text, name="bfsp.ini")]) == 2
    assert capsys.readouterr().out.startswith("bfsp  reason=max_iter")
    assert os.path.exists(prefix + "_trace.csv")


def test_cli_linear_start_that_stops_short_exit_2(tmp_path, capsys, monkeypatch):
    """A `linear` start whose beta = 0 flow stops short (held here to one
    iteration) fails the run: exit 2 with the start's reason, and no trace."""
    monkeypatch.setattr(flows, "StopRule", lambda tol: StopRule(tol, max_iter=1))
    prefix = str(tmp_path / "s")
    cfg = write_cfg(tmp_path, open(small_cfg(tmp_path, prefix)).read().replace(
        "[flow]\n", "[flow]\ninitial = linear\n"), name="linear.ini")
    assert main(["solve", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: linear initial guess stopped by max_iter\n"
    assert not os.path.exists(prefix + "_trace.csv")


@pytest.mark.parametrize("tau, iterations", [("1", ["10", "10"]),
                                             ("linesearch", ["8", "7"])],
                         ids=["1-10", "linesearch-8-7"])
def test_cli_convergence_runs_configured_flow(tmp_path, tau, iterations):
    """The study runs the [flow] it is given: on the two levels (32 and 64
    cells) tau = 1 takes 10 iterations each, and the line search, along its
    conjugate directions, 8 and 7."""
    prefix = str(tmp_path / "c")
    cfg = write_cfg(tmp_path, open(small_cfg(tmp_path, prefix)).read().replace(
        "[flow]\n", f"[flow]\ntau = {tau}\n"), name="study.ini")
    assert main(["convergence", "--config", cfg]) == 0
    table = read_csv(prefix + "_table.csv").splitlines()
    assert [line.split(",")[-2] for line in table[1:]] == iterations


def test_cli_eigengap_honours_initial(tmp_path, monkeypatch):
    starts = []
    real = gpflow.analysis.default_initial_state

    def spy(disc, kind="constant", problem=None):
        starts.append(kind)
        return real(disc, kind, problem)

    monkeypatch.setattr(gpflow.analysis, "default_initial_state", spy)
    prefix = str(tmp_path / "g")
    cfg = small_cfg(tmp_path, prefix, extra="[study]\nlevels = 16 32\n")
    cfg = write_cfg(tmp_path, open(cfg).read().replace(
        "[flow]\n", "[flow]\ninitial = linear\n"), name="linear.ini")
    assert main(["eigengap", "--config", cfg]) == 0
    assert starts == ["linear", "linear"]


def lattice_cfg(tmp_path, scheme, d, cells, beta, flow="", stop="", extra=""):
    """`scheme` on [-8, 8]^d, harmonic_lattice with `beta`."""
    return write_cfg(tmp_path, f"""
[grid]
scheme = {scheme}
d = {d}
cells = {cells}
half_width = 8
[problem]
potential = harmonic_lattice
beta = {beta}
[flow]
{flow}
[stop]
{stop}
{extra}
[output]
prefix = {tmp_path / "out"}
""", name=f"{scheme}.ini")


def test_cli_eigengap_level_not_converged_exit_2(tmp_path, capsys):
    """A study level whose ground state stops short (fd2 1D, 16 cells, beta = 5,
    max_iter = 5) fails the run, names the level's cells and the run's stop reason,
    iteration and last residual, and leaves no table."""
    cfg = lattice_cfg(tmp_path, "fd2", 1, 16, 5, stop="max_iter = 5",
                      extra="[study]\nlevels = 16")
    assert main(["eigengap", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "error: 16 cells: ground state stopped by max_iter at iteration 5, residual 6.049e-01\n")
    assert not os.path.exists(tmp_path / "out_table.csv")


def test_cli_eigengap_of_a_slow_flow_past_its_plateau(tmp_path, capsys):
    """sem3 2D, 16 cells, harmonic_lattice, beta = 20, alpha = 1, line search, tol
    1e-10: the flow runs past its residual plateau at 8.4e-7 and `solve` stops by
    tol at iteration 350; on that state `eigengap` converges and exits 0 with
    delta = 6.06e-6.  Stopped by `stall` on the plateau, `eigengap` exited 2:
    LOBPCG missed its tolerance on the half-converged state."""
    cfg = lattice_cfg(tmp_path, "sem3", 2, 16, 20, flow="alpha = 1\ntau = linesearch",
                      stop="tol = 1e-10", extra="[study]\nlevels = 16")
    assert main(["solve", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("modified_h1  reason=tol  iterations=350  ")
    assert main(["eigengap", "--config", cfg]) == 0
    table = np.loadtxt(tmp_path / "out_table.csv", delimiter=",", skiprows=1)
    assert table[3] == pytest.approx(6.06e-6, rel=1e-3)


def test_cli_convergence_names_each_unconverged_level(tmp_path, capsys):
    """Levels that stop short keep the table (converged 0) and each prints its stop
    reason and iteration count on stderr."""
    prefix = str(tmp_path / "c")
    cfg = write_cfg(tmp_path, f"""
[grid]
scheme = fd2
d = 1
[problem]
potential = exact_case
beta = 1
[flow]
alpha = 0.2
[stop]
max_iter = 5
[study]
levels = 8 16
[output]
prefix = {prefix}
""")
    assert main(["convergence", "--config", cfg]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "fd2 7^1: stopped by max_iter after 5 iterations",
        "fd2 15^1: stopped by max_iter after 5 iterations"]
    table = read_csv(prefix + "_table.csv").splitlines()
    assert table[0] == ("scheme,grid,h,lambda_err,lambda_order,energy_err,energy_order,"
                        "sup_err,sup_order,iterations,converged")
    assert [line.split(",")[-2:] for line in table[1:]] == [["5", "0"], ["5", "0"]]


@pytest.mark.parametrize("scheme, d, cells, beta, flow", [
    ("sem2", 1, 10, 5, "initial = linear"), ("compact4", 2, 12, 20, "")])
def test_cli_verify_checks_no_sign_off_monotone_schemes(tmp_path, capsys, scheme, d, cells,
                                                        beta, flow):
    """sem2 and compact4 are not monotone, and their converged ground states change
    sign (8 of 19 and 56 of 121 nodal values are negative): verify runs no sign check
    there, and passes."""
    cfg = lattice_cfg(tmp_path, scheme, d, cells, beta,
                      flow=f"alpha = 1\ntau = linesearch\n{flow}", stop="tol = 1e-10")
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out and "positive" not in out
    assert "[PASS] ground-state eigenvalue simple (gap > 0)" in out


SIGN_ROW = "converged state entrywise positive (none below -residual max|u|)"
GAP_ROW = "ground-state eigenvalue simple (gap > 0)"


@pytest.mark.parametrize("dip", [None, 1e-6], ids=["converged", "dipped"])
def test_cli_verify_judges_the_sign_at_the_run_resolution(tmp_path, capsys, monkeypatch, dip):
    """fd2 2D, 24 cells, harmonic_lattice, beta = 5, line search, tol 1e-10: the run
    stops by tol with residual 9.8e-11 and 67 of 529 entries <= 0, the least -2.0e-12
    against a largest 1.44.  Those are round-off, above -residual max|u|: verify
    passes.  The same state with one entry at -1e-6 max|u| fails the sign row.
    Either way verify checks A_u's gap at the run's 529 unknowns, and it passes."""
    reports = []

    def spy(*a):
        rep = run(*a)
        if dip is not None:
            disc, u = rep.final_state.disc, rep.final_state.coeffs.copy()
            u[np.argmin(np.abs(u))] = -dip * np.abs(u).max() * np.sign(disc.weights @ u)
            rep = dataclasses.replace(rep, final_state=State(retract(disc, u), disc))
        reports.append(rep)
        return rep

    monkeypatch.setattr(gpflow.cli, "run", spy)
    cfg = lattice_cfg(tmp_path, "fd2", 2, 24, 5, flow="tau = linesearch", stop="tol = 1e-10")
    assert main(["verify", "--config", cfg]) == (0 if dip is None else 2)
    out = capsys.readouterr().out
    assert f"[PASS] {GAP_ROW}" in out
    (rep,) = reports
    u = rep.final_state.coeffs * np.sign(rep.final_state.disc.weights @ rep.final_state.coeffs)
    assert rep.reason == "tol" and 1e-11 < rep.records[-1].residual < 1e-10
    if dip is None:
        assert f"[PASS] {SIGN_ROW}" in out and "[FAIL]" not in out
        assert np.count_nonzero(u <= 0) == 67 and -1e-11 < u.min() < 0
    else:
        assert f"[FAIL] {SIGN_ROW}" in out
        assert u.min() == pytest.approx(-dip * np.abs(u).max(), rel=1e-12)


def test_cli_verify_checks_no_gap_of_an_unconverged_run(tmp_path, capsys):
    """The run above stopped by max_iter after 5 iterations: no gap row, exit 2,
    and its table kept with the failed flow row."""
    cfg = lattice_cfg(tmp_path, "fd2", 2, 24, 5, flow="tau = linesearch",
                      stop="tol = 1e-10\nmax_iter = 5")
    assert main(["verify", "--config", cfg]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] flow converged" in out and "gap" not in out
    table = read_csv(tmp_path / "out_table.csv").splitlines()
    assert table[:2] == ["check,passed", "flow converged,0"]
    assert not any("gap" in line for line in table)


def test_cli_failed_subcommand_removes_its_files(tmp_path, capsys, monkeypatch):
    """compare's second flow raises after the first wrote its trace: exit 2, the
    error printed and the written trace removed."""
    calls = []

    def failing(*a):
        calls.append(a)
        if len(calls) == 2:
            raise SolverError("metric solve did not converge")
        return run(*a)

    monkeypatch.setattr(gpflow.cli, "run", failing)
    prefix = str(tmp_path / "cmp")
    assert main(["compare", "--config", small_cfg(tmp_path, prefix)]) == 2
    assert "error: metric solve did not converge" in capsys.readouterr().err
    assert len(calls) == 2
    assert not os.path.exists(prefix + "_modified_h1_trace.csv")
    assert os.listdir(tmp_path) == ["run.ini"]


def test_cli_unwritable_output_exit_2(tmp_path, capsys):
    """An output that cannot be written (the summary's path is a directory) is an
    error during the run: exit 2, one error line and no traceback, and the trace
    written before it is removed."""
    prefix = str(tmp_path / "o" / "clash")
    os.makedirs(prefix + "_summary.csv")
    assert main(["solve", "--config", small_cfg(tmp_path, prefix)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "_summary.csv" in err and "Traceback" not in err
    assert os.listdir(tmp_path / "o") == ["clash_summary.csv"]


def verify_reproducer(tmp_path, kind):
    """fd2 2D, 8 cells on [-8, 8]^2: harmonic_lattice + 1e4 from a file, beta
    = 1000, alpha = 10, line search, tol 0 (a gradient flow that stops by
    stall); or BFSP on fd2 12^2, sin2_product, beta = 5, dt = 0.1."""
    if kind == "bfsp":
        grid, problem = "cells = 12", "potential = sin2_product\nbeta = 5"
        flow, stop = "kind = bfsp\ndt = 0.1\ninitial = linear", ""
    else:
        nodes = TensorOperator(GridSpec(8.0, 2, 8, Scheme.FD2)).node_coordinates()
        np.savetxt(tmp_path / "V.txt", harmonic_lattice(nodes) + 1e4)
        grid, problem = "cells = 8", f"potential = file({tmp_path / 'V.txt'})\nbeta = 1000"
        flow, stop = "alpha = 10\ntau = linesearch", "tol = 0"
    return write_cfg(tmp_path, f"""
[grid]
scheme = fd2
d = 2
{grid}
half_width = 8
[problem]
{problem}
[flow]
{flow}
[stop]
{stop}
[output]
prefix = {tmp_path / "v"}
""", name=f"{kind}.ini")


@pytest.mark.parametrize("kind", ["modified_h1", "bfsp"])
def test_cli_verify_judges_energy_by_the_run_rule(tmp_path, capsys, kind):
    """verify passes a gradient flow whose energy rises by round-off relative to
    |E| (ENERGY_RISE_RTOL, run's stall rule), and checks no energy for BFSP,
    which is no gradient flow."""
    cfg = verify_reproducer(tmp_path, kind)
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert ("energy monotone" in out) == (kind != "bfsp")
    if kind != "bfsp":  # its largest rise is above an absolute 1e-12
        assert main(["solve", "--config", cfg]) == 0
        assert capsys.readouterr().out.startswith("modified_h1  reason=stall")
        E = np.loadtxt(tmp_path / "v_trace.csv", delimiter=",", skiprows=1)[:, 1]
        assert 1e-12 < np.diff(E).max() <= flows.ENERGY_RISE_RTOL * abs(E[-1])


def test_cli_nonconvergence_exit_2(tmp_path):
    prefix = str(tmp_path / "n")
    cfg = small_cfg(tmp_path, prefix, extra="")
    cfg2 = write_cfg(tmp_path, open(cfg).read().replace(
        "max_iter = 100", "max_iter = 3"), name="short.ini")
    assert main(["solve", "--config", cfg2]) == 2
    # files from a completed-but-unconverged run are kept
    assert os.path.exists(prefix + "_trace.csv")


def test_cli_seventeen_digit_csv(tmp_path):
    prefix = str(tmp_path / "p")
    assert main(["solve", "--config", small_cfg(tmp_path, prefix)]) == 0
    line = read_csv(prefix + "_trace.csv").splitlines()[1]
    energy_field = line.split(",")[1]
    mantissa = energy_field.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 17
