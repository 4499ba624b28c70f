"""The ordering and summary of scripts/bench_pairs.py (the runs themselves
are not exercised here)."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def test_sides_alternate_which_runs_first():
    orders = [bench_pairs.order(i) for i in range(10)]
    assert orders[0] == ("base", "work") and orders[1] == ("work", "base")
    assert all(sorted(o) == ["base", "work"] for o in orders)
    assert sum(o[0] == "base" for o in orders) == 5


def run(pair, side, flow_s, rss, failed=0, workload="w", load=1.0, results=(), rounds=0):
    return {"pair": pair, "workload": workload, "side": side, "failed": failed,
            "load": load, "metrics": {"flow_s": flow_s, "peak_rss_mb": rss},
            "results": list(results), "passes": 1, "rounds": rounds}


def test_summary_quartiles_changes_and_wins():
    runs = []
    for i, (b, v) in enumerate([(10.0, 7.0), (12.0, 8.0), (11.0, 12.0), (9.0, 6.0),
                                (10.0, 5.0)]):
        runs += [run(i, "base", b, 100.0), run(i, "work", v, 100.0 + i, failed=i == 4)]
    runs.append(run(5, "base", 99.0, 1.0))  # no partner: left out
    s = bench_pairs.summarize(runs, {"flow_s": "lower", "peak_rss_mb": "lower"})["w"]
    assert s["pairs"] == 5 and s["failed"] == {"base": 0, "work": 1}
    flow = s["flow_s"]
    assert flow["base"] == {"q1": 10.0, "median": 10.0, "q3": 11.0}
    assert flow["work"] == {"q1": 6.0, "median": 7.0, "q3": 8.0}
    assert flow["relative_change"]["median"] == pytest.approx(-1.0 / 3.0)
    assert flow["work_better"] == 4
    # a tie is no win; higher RSS loses
    assert s["peak_rss_mb"]["work_better"] == 0
    assert s["peak_rss_mb"]["relative_change"]["q1"] == pytest.approx(0.01)


def test_summary_honours_higher_is_better():
    runs = [run(0, "base", 1.0, 1.0), run(0, "work", 2.0, 1.0),
            run(1, "base", 1.0, 1.0), run(1, "work", 0.5, 1.0)]
    s = bench_pairs.summarize(runs, {"flow_s": "higher"})["w"]
    assert s["flow_s"]["work_better"] == 1


def test_summary_reports_each_sides_median_load_per_workload():
    runs = []
    for i, (lb, lw) in enumerate([(0.5, 2.0), (1.5, 3.0), (0.7, 1.0), (9.0, 0.1)]):
        runs += [run(i, "base", 1.0, 1.0, load=lb), run(i, "work", 1.0, 1.0, load=lw),
                 run(i, "base", 1.0, 1.0, workload="v", load=4.0),
                 run(i, "work", 1.0, 1.0, workload="v", load=0.25)]
    runs.append(run(4, "base", 1.0, 1.0, load=100.0))  # no partner: left out
    s = bench_pairs.summarize(runs, {"flow_s": "lower"})
    assert s["w"]["load"] == {"base": 1.1, "work": 1.5}
    assert s["v"]["load"] == {"base": 4.0, "work": 0.25}


def test_summary_claim_met_and_within_bound():
    """A claim is met when the work side wins 9 of 10 pairs and its median
    gap exceeds the base's quartile spread; a bound caps how much worse the
    work median may be."""
    base = [10.0 + 0.1 * i for i in range(10)]  # quartile spread 0.45
    cases = {"met": [b - 1.0 for b in base[:9]] + [base[9] + 1.0],
             "spread": [10.0 + i - 0.5 for i in range(10)],  # spread 4.5, gap 0.5
             "regressed": [b * 1.3 for b in base]}
    runs = []
    for w, work in cases.items():
        b_side = [10.0 + i for i in range(10)] if w == "spread" else base
        for i, (b, v) in enumerate(zip(b_side, work)):
            runs += [run(i, "base", b, 1.0, workload=w), run(i, "work", v, 1.0, workload=w)]
    s = bench_pairs.summarize(runs, {"flow_s": "lower", "peak_rss_mb": "lower"},
                              {"flow_s": 0.25})
    flow = {w: s[w]["flow_s"] for w in cases}
    assert [flow[w]["work_better"] for w in cases] == [9, 10, 0]
    assert [flow[w]["claim_met"] for w in cases] == [True, False, False]
    assert [flow[w]["within_bound"] for w in cases] == [True, True, False]
    assert s["met"]["peak_rss_mb"]["within_bound"] is None
    assert s["met"]["peak_rss_mb"]["claim_met"] is False  # ties win nothing


def solve(label, iterations, energy, reason="tol"):
    return {"label": label, "seconds": 0.1 * iterations, "error": None, "failures": [],
            "reason": reason, "iterations": iterations, "residual": 1e-11,
            "energy": energy, "eigenvalue": 2.0 * energy, "max_energy_rise_rel": 0.0}


def test_solve_facts_are_each_distinct_solve_once():
    """Passes that repeat a run's solves give one fact list; timings and the
    gate's fields are left out."""
    a, b = solve("modified_h1", 22, 0.16), solve("bfsp", 114, 0.17, "stall")
    record = {"passes": [{"solves": [a, b]}, {"solves": [dict(a, seconds=9.0), b]}]}
    assert bench_pairs.solve_facts(record) == [
        ["modified_h1", "tol", 22, 0.16, 0.32, 1e-11],
        ["bfsp", "stall", 114, 0.17, 0.34, 1e-11]]


def test_summary_same_results_needs_equal_facts_in_every_pair():
    same = bench_pairs.solve_facts({"passes": [{"solves": [solve("m", 22, 0.16)]}]})
    other = bench_pairs.solve_facts({"passes": [{"solves": [solve("m", 22, 0.16 + 1e-16)]}]})
    runs = []
    for i in range(3):
        runs += [run(i, "base", 1.0, 1.0, workload=w, results=same)
                 for w in ("equal", "unequal")]
        runs += [run(i, "work", 1.0, 1.0, workload="equal", results=same),
                 run(i, "work", 1.0, 1.0, workload="unequal",
                     results=other if i == 2 else same)]
    s = bench_pairs.summarize(runs, {"flow_s": "lower"})
    assert s["equal"]["same_results"] is True
    assert s["unequal"]["same_results"] is False


def test_summary_same_counts_needs_equal_labels_reasons_and_iterations():
    """Energies that differ in round-off leave `same_counts` true and make
    `same_results` false; one more iteration makes `same_counts` false."""
    def facts(iterations, energy):
        return bench_pairs.solve_facts({"passes": [{"solves": [
            solve("m", 22, 0.16), solve("b", iterations, energy, "stall")]}]})
    runs = []
    for i in range(3):
        runs += [run(i, "base", 1.0, 1.0, workload=w, results=facts(114, 0.17))
                 for w in ("equal", "unequal")]
        runs += [run(i, "work", 1.0, 1.0, workload="equal",
                     results=facts(114, 0.17 + 1e-16)),
                 run(i, "work", 1.0, 1.0, workload="unequal",
                     results=facts(113 if i == 1 else 114, 0.17))]
    s = bench_pairs.summarize(runs, {"flow_s": "lower"})
    assert (s["equal"]["same_counts"], s["equal"]["same_results"]) == (True, False)
    assert (s["unequal"]["same_counts"], s["unequal"]["same_results"]) == (False, False)


def test_pass_counts_tell_timed_passes_from_rounds():
    """A pass whose setup_s is null is a round, repeated from the last timed
    pass's start."""
    timed = {"setup_s": 0.05, "flow_s": 1.0, "time_to_solution_s": 1.05, "solves": []}
    repeated = {"setup_s": None, "flow_s": 1.0, "time_to_solution_s": None, "solves": []}
    record = {"passes": [timed, timed, timed, repeated, repeated]}
    assert bench_pairs.pass_counts(record) == {"passes": 3, "rounds": 2}
    assert bench_pairs.pass_counts({"passes": [timed]}) == {"passes": 1, "rounds": 0}


def test_summary_same_rounds_needs_equal_rounds_in_every_pair():
    """A pair whose sides ran different numbers of flow rounds makes
    `same_rounds` false, whatever their metrics."""
    runs = []
    for i in range(3):
        runs += [run(i, side, 1.0, 140.0, workload=w, rounds=2)
                 for w in ("equal", "unequal") for side in ("base", "work")
                 if (w, side, i) != ("unequal", "work", 1)]
    runs.append(run(1, "work", 1.0, 150.0, workload="unequal", rounds=1))
    s = bench_pairs.summarize(runs, {"peak_rss_mb": "lower"})
    assert s["equal"]["same_rounds"] is True
    assert s["unequal"]["same_rounds"] is False


def test_workload_flag_picks_workloads_and_refuses_unknown_names(monkeypatch, tmp_path):
    """--workload runs only the named workloads of BENCHMARK.json, each once
    per side and pair however often it is named; without it every workload
    runs.  An unknown name exits 2 before any export or run.  Nothing is
    benchmarked here: the export and the runs are stand-ins."""
    bench = json.loads((_path.parents[1] / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: 1.0 for m in bench["end_to_end"]}
    calls = []

    def run_once(tree, workload, seed, seconds):
        calls.append(workload)
        return {"metrics": metrics, "correct": True, "failed": 0, "results": [],
                "passes": 1, "rounds": 0}

    def export(rev, dest):
        calls.append("export")
        return "0" * 40

    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "export", export)
    # the work tree's HEAD and diff: a tree exported by `git archive` has no git
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "1" * 40)
    monkeypatch.setattr(bench_pairs, "diff_sha256", lambda: None)
    out = str(tmp_path / "pairs.json")
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--base", "HEAD", "--out", out, "--workload", "nope"])
    assert exc.value.code == 2 and calls == []
    picked = [names[-1], names[0]]
    assert bench_pairs.main(["--base", "HEAD", "--out", out, "--workload", picked[0],
                             "--workload", picked[1], "--workload", picked[0]]) == 0
    assert calls == ["export"] + [w for w in picked for _ in range(2)] * 2
    assert sorted(json.loads(Path(out).read_text())["summary"]) == sorted(picked)
    calls.clear()
    assert bench_pairs.main(["--base", "HEAD", "--out", out]) == 0
    assert calls == ["export"] + [w for w in names for _ in range(2)] * 2


def test_first_seed_flag_offsets_every_pairs_seed(monkeypatch, tmp_path):
    """Pair i runs seed i + N on both sides with --first-seed N, and seed i + 1
    without it; the JSON records each run's seed.  The export and the runs are
    stand-ins."""
    bench = json.loads((_path.parents[1] / "BENCHMARK.json").read_text())
    seeds = []

    def run_once(tree, workload, seed, seconds):
        seeds.append(seed)
        return {"metrics": {m["name"]: 1.0 for m in bench["end_to_end"]}, "correct": True,
                "failed": 0, "results": [], "passes": 1, "rounds": 0}

    monkeypatch.setattr(bench_pairs, "PAIRS", 3)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "1" * 40)
    monkeypatch.setattr(bench_pairs, "diff_sha256", lambda: None)
    out, name = tmp_path / "pairs.json", bench["workloads"][0]["name"]
    for argv, want in (([], [1, 2, 3]), (["--first-seed", "101"], [101, 102, 103])):
        seeds.clear()
        assert bench_pairs.main(["--base", "HEAD", "--out", str(out), "--workload", name,
                                 *argv]) == 0
        assert seeds == [s for s in want for _ in range(2)]
        assert [r["seed"] for r in json.loads(out.read_text())["runs"]] == seeds


def test_src_lines_counts_each_sides_package_lines(monkeypatch, tmp_path):
    """The JSON's `src_lines` is, per side, the newlines of its src/gpflow/*.py as
    `wc -l` counts them (a last line without one adds none), and no other file's.
    The export, the copy and the runs are stand-ins."""
    bench = json.loads((_path.parents[1] / "BENCHMARK.json").read_text())
    trees = {"base": {"src/gpflow/a.py": "1\n2\n3\n", "src/gpflow/b.py": "4\n5",
                      "src/other.py": "6\n", "src/gpflow/notes.txt": "7\n"},
             "work": {"src/gpflow/a.py": "1\n"}}

    def write(dest):
        for name, text in trees[Path(dest).name].items():
            (Path(dest) / name).parent.mkdir(parents=True, exist_ok=True)
            (Path(dest) / name).write_text(text)

    def run_once(tree, workload, seed, seconds):
        return {"metrics": {m["name"]: 1.0 for m in bench["end_to_end"]}, "correct": True,
                "failed": 0, "results": [], "passes": 1, "rounds": 0}

    monkeypatch.setattr(bench_pairs, "PAIRS", 2)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: write(dest) or "0" * 40)
    monkeypatch.setattr(bench_pairs, "export_work", write)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "1" * 40)
    monkeypatch.setattr(bench_pairs, "diff_sha256", lambda: None)
    out = tmp_path / "pairs.json"
    assert bench_pairs.main(["--base", "HEAD", "--out", str(out), "--workload",
                             bench["workloads"][0]["name"]]) == 0
    assert json.loads(out.read_text())["src_lines"] == {"base": 4, "work": 1}


def test_work_side_runs_from_a_copy_of_the_listed_files(monkeypatch, tmp_path):
    """The work side runs from <tmp>/work beside the base's <tmp>/base: a copy of
    every file `git ls-files --cached --others --exclude-standard` lists, as it
    stands (an uncommitted edit included), without a tracked file deleted from
    the tree or an unlisted one.  The JSON records both directories.  git and
    the runs are stand-ins."""
    root = tmp_path / "checkout"
    (root / "src").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text((_path.parents[1] / "BENCHMARK.json").read_text())
    (root / "src" / "edited.py").write_text("uncommitted = True\n")
    (root / "new.txt").write_text("untracked\n")
    (root / "ignored.log").write_text("build output\n")
    listed = ["BENCHMARK.json", "src/edited.py", "new.txt", "deleted.py"]
    git_calls, seen = [], {}

    def git(*args):
        git_calls.append(args)
        return "\0".join(listed) + "\0" if args[0] == "ls-files" else "1" * 40

    def export(rev, dest):
        (Path(dest) / "base.txt").write_text(rev)
        return "0" * 40

    def run_once(tree, workload, seed, seconds):  # the files each side runs from
        seen[Path(tree).name] = {str(p.relative_to(tree)): p.read_text()
                                 for p in Path(tree).rglob("*") if p.is_file()}
        return {"metrics": {"flow_s": 1.0}, "correct": True, "failed": 0,
                "results": [], "passes": 1, "rounds": 0}

    monkeypatch.setattr(bench_pairs, "ROOT", str(root))
    monkeypatch.setattr(bench_pairs, "PAIRS", 1)
    monkeypatch.setattr(bench_pairs, "git", git)
    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "summarize", lambda runs, better, bounds: {})
    monkeypatch.setattr(bench_pairs, "diff_sha256", lambda: "f" * 64)
    out = tmp_path / "pairs.json"
    name = json.loads((root / "BENCHMARK.json").read_text())["workloads"][0]["name"]
    assert bench_pairs.main(["--base", "HEAD", "--out", str(out), "--workload", name]) == 0
    assert ("ls-files", "-z", "--cached", "--others", "--exclude-standard") in git_calls
    assert seen == {"base": {"base.txt": "HEAD"},
                    "work": {"BENCHMARK.json": (root / "BENCHMARK.json").read_text(),
                             "new.txt": "untracked\n", "src/edited.py": "uncommitted = True\n"}}
    trees = json.loads(out.read_text())["trees"]
    assert [Path(trees[s]).name for s in ("base", "work")] == ["base", "work"]
    assert Path(trees["base"]).parent == Path(trees["work"]).parent != root
    assert not Path(trees["work"]).exists()  # the temporary directory is gone
