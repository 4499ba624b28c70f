#!/usr/bin/env python3
"""Before/after pairs of the benchmark's end-to-end metrics.

    python3 scripts/bench_pairs.py --base HEAD~1 --out BENCH_pairs.json
    python3 scripts/bench_pairs.py --base HEAD~1 --workload sem5_flow
    python3 scripts/bench_pairs.py --base HEAD~1 --first-seed 101

Exports the base revision with `git archive` into `<tmp>/base` of a
temporary directory (no worktree is registered, so an interrupted run leaves
`.git` as it was), and copies the working tree into `<tmp>/work` beside it:
every file that `git ls-files --cached --others --exclude-standard` lists,
as it stands, uncommitted changes included.  Both sides run from sibling
copies, so no metric moves with the directory a side runs from (run from
the checkout itself, `sem5_flow`'s peak RSS moved by one 99^3 vector with
the directory, not with the code).  It then runs `gsbench/run.py --trace 0`
on each copy, PAIRS times per workload of BENCHMARK.json (or per `--workload`,
which may be repeated; an unknown name exits 2 before any run), each run
in a fresh process for the benchmark's run_seconds.  The side that runs first
alternates from pair to pair, so a drift of the host's speed hits both
sides alike; pair i uses seed i + N on both sides (`--first-seed N`, 1 by
default: seeds 1-10; another N re-checks a claim on seeds the change was not
measured on while it was written).  Each run records the
host's 1-minute load average as it starts, and, from the record that
gsbench writes to gsbench/out/, the facts of its solves (label, reason,
iterations, energy, eigenvalue, residual) and how many timed passes and
repeated flow rounds it ran (a round is a pass with no set-up, whose
`setup_s` is null).  The output JSON holds every run,
each side's median load per workload (a busy host slows both sides and
widens the spread), whether both sides of every pair gave the same facts
(`same_results`: a change meant to keep the numbers shows here that it
did) and the same label, reason and iterations (`same_counts`: a change
that moves only round-off shows here that its runs stop alike), whether
both sides of every pair ran as many rounds (`same_rounds`: a round runs
while the last pass's states are alive, so a `peak_rss_mb` gap where it is
false may come from the rounds alone), and, per
workload and metric, the median and
quartiles of each side and of the per-pair relative change, how many
pairs the working tree won, whether a claimed gain is met and whether the
working tree stays within the metric's bound (see `summarize`).  It names
the working tree by its HEAD and the SHA-256 of `git diff --binary HEAD`
taken as it is copied (null for a clean tree), records each side's
directory (`trees`), both gone when the script exits, and each side's
`src_lines`, the line count of its src/gpflow/*.py as `wc -l` counts it
(the measure of the code's size that simplicity is judged by).  Metric
names, directions and bounds come from BENCHMARK.json, which is read only.
Nothing under gsbench/ is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "work")
PAIRS = 10
FACTS = ("label", "reason", "iterations", "energy", "eigenvalue", "residual")
COUNTED = 3  # FACTS[:COUNTED] say how a solve stopped, the rest where


def order(pair: int) -> tuple[str, str]:
    """The sides in run order: the base first in even pairs."""
    return SIDES if pair % 2 == 0 else SIDES[::-1]


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str],
              bounds: dict[str, float] | None = None) -> dict:
    """Per workload: each side's median load, `same_results` (every pair's
    sides gave equal solve facts), `same_counts` (equal labels, reasons and
    iterations: the first COUNTED facts), `same_rounds` (every pair's sides
    ran as many flow rounds), and per metric the quartiles
    of each side, of the relative change work/base - 1 within each pair, and
    the pairs the work side won (strictly better in the metric's direction).
    `claim_met`: the work side won at least 9 in 10 pairs and its median is
    better than the base's by more than the base's q3 - q1.  `within_bound`:
    the work median is not worse than the base median by more than the
    metric's bound times the base median (None for a metric with no bound)."""
    bounds = bounds or {}
    out: dict = {}
    for w in sorted({r["workload"] for r in runs}):
        pairs: dict[int, dict[str, dict]] = {}
        for r in runs:
            if r["workload"] == w:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        complete = [p for p in pairs.values() if set(p) == set(SIDES)]
        out[w] = {"pairs": len(complete),
                  "failed": {s: sum(p[s]["failed"] for p in complete) for s in SIDES},
                  "load": {s: statistics.median(p[s]["load"] for p in complete)
                           for s in SIDES},
                  "same_results": all(p["base"]["results"] == p["work"]["results"]
                                      for p in complete),
                  "same_counts": all([f[:COUNTED] for f in p["base"]["results"]]
                                     == [f[:COUNTED] for f in p["work"]["results"]]
                                     for p in complete),
                  "same_rounds": all(p["base"]["rounds"] == p["work"]["rounds"]
                                     for p in complete)}
        for metric, direction in better.items():
            sign = -1.0 if direction == "lower" else 1.0
            base = [p["base"]["metrics"][metric] for p in complete]
            work = [p["work"]["metrics"][metric] for p in complete]
            qb, qw = quartiles(base), quartiles(work)
            won = sum(sign * (v - b) > 0 for b, v in zip(base, work))
            gain = sign * (qw["median"] - qb["median"])
            bound = bounds.get(metric)
            out[w][metric] = {
                "base": qb,
                "work": qw,
                "relative_change": quartiles([b and v / b - 1.0 for b, v in zip(base, work)]),
                "work_better": won,
                "claim_met": won >= 0.9 * len(complete) and gain > qb["q3"] - qb["q1"],
                "within_bound": None if bound is None else gain >= -bound * abs(qb["median"]),
            }
    return out


def solve_facts(record: dict) -> list[list]:
    """The distinct facts of a gsbench record's solves, in the order first
    met: each pass of a run sets up from the same seed and repeats them."""
    facts: list[list] = []
    for p in record["passes"]:
        for s in p["solves"]:
            f = [s.get(k) for k in FACTS]
            if f not in facts:
                facts.append(f)
    return facts


def pass_counts(record: dict) -> dict[str, int]:
    """A gsbench record's timed passes and its flow rounds: the passes
    repeated from the last timed pass's start, which have no set-up."""
    rounds = sum(p["setup_s"] is None for p in record["passes"])
    return {"passes": len(record["passes"]) - rounds, "rounds": rounds}


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("gsbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(tree, "gsbench", "out", f"{workload}-seed{seed}-trace0.json")) as f:
        record = json.load(f)
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "correct": result["correct"], "failed": result["failed"],
            "results": solve_facts(record), **pass_counts(record)}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def diff_sha256() -> str | None:
    """SHA-256 of the working tree's changes against HEAD; None if clean."""
    diff = subprocess.run(["git", "diff", "--binary", "HEAD"], cwd=ROOT,
                          capture_output=True, check=True).stdout
    return hashlib.sha256(diff).hexdigest() if diff else None


def export(rev: str, dest: str) -> str:
    """The tree of `rev` unpacked into dest; returns the full sha."""
    sha = git("rev-parse", rev)
    archive = subprocess.Popen(["git", "archive", "--format=tar", sha],
                               cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise subprocess.CalledProcessError(archive.returncode, "git archive")
    return sha


def export_work(dest: str) -> None:
    """The working tree's files, as `git ls-files --cached --others
    --exclude-standard` lists them and as they stand, copied into dest; a
    tracked file deleted from the tree is left out."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src, dst = os.path.join(ROOT, name), os.path.join(dest, name)
        if name and (os.path.isfile(src) or os.path.islink(src)):
            os.makedirs(os.path.dirname(dst), exist_ok=True)
            shutil.copy2(src, dst, follow_symlinks=False)


def src_lines(tree: str) -> int:
    """The newlines in a tree's src/gpflow/*.py files, as `wc -l` counts them."""
    return sum(p.read_bytes().count(b"\n") for p in Path(tree, "src", "gpflow").glob("*.py"))


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--out", default="BENCH_pairs.json")
    ap.add_argument("--workload", action="append", choices=names,
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--first-seed", type=int, default=1, help="pair 0's seed (default: 1)")
    args = ap.parse_args(argv)
    workloads = list(dict.fromkeys(args.workload or names))
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"] if "bound" in m}
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        for tree in trees.values():
            os.mkdir(tree)
        sha = export(args.base, trees["base"])
        work = {"head": git("rev-parse", "HEAD"), "diff_sha256": diff_sha256()}
        export_work(trees["work"])
        lines = {side: src_lines(tree) for side, tree in trees.items()}
        for pair in range(PAIRS):
            for w in workloads:
                for side in order(pair):
                    load = os.getloadavg()[0]
                    seed = pair + args.first_seed
                    r = run_once(trees[side], w, seed, seconds)
                    runs.append({"pair": pair, "workload": w, "side": side,
                                 "seed": seed, "load": load, **r})
                    print(f"pair {pair} {w} {side} load={load:.2f} "
                          f"passes={r['passes']} rounds={r['rounds']}: " + " ".join(
                        f"{k}={v:.4g}" for k, v in r["metrics"].items()), flush=True)
    record = {"base": sha, "work": work, "trees": trees, "src_lines": lines, "seconds": seconds,
              "nproc": os.cpu_count(), "summary": summarize(runs, better, bounds), "runs": runs}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps(record["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
