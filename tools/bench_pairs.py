"""Run perfbench on a parent revision and on HEAD in alternating pairs.

Usage (from anywhere inside the repository):

    python3 tools/bench_pairs.py --parent <rev> --pr <n> \
        --workloads spectrum ladder_eigen cli_cold operator_family \
        --seeds 2101-2110 --traced spectrum:2111

Both sides are committed trees: the parent revision and HEAD are each
extracted with ``git archive`` into a temporary directory, so uncommitted
edits are never measured, no git worktree is created and nothing stays
behind.  Each seed is one pair: ``perfbench/run.py --trace 0`` runs once
from the root of each tree for ``BENCHMARK.json``'s ``run_seconds``, and
the side that runs first alternates from pair to pair.
``--traced WORKLOAD:SEED`` adds one ``--trace 1`` run per side for the
per-layer metrics.  The record is written to ``BENCH_<pr>.json`` at the
repository root, with both commit hashes: per pair the end-to-end metrics
of ``BENCHMARK.json`` with the attempted and failed operation counts, and
per metric each side's quartiles, the change's wins, the ratio of the
medians, the parent's quartile distance and the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = "perfbench/run.py"
TIMEOUT_S = 900


def parse_seeds(spec: str) -> list:
    """'2101-2110' or '2101,2105' as a list of ints."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def commit_of(revision: str) -> str:
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", revision + "^{commit}"],
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def extract(commit: str, dest: Path, name: str) -> Path:
    """The tree of ``commit`` under ``dest / name``, written by ``git archive``."""
    archive = dest / f"{name}.tar"
    with archive.open("wb") as fh:
        subprocess.run(["git", "-C", str(ROOT), "archive", commit], stdout=fh, check=True)
    tree = dest / name
    tree.mkdir()
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last JSON line of one perfbench run from the root of ``tree``."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list, metrics: list) -> dict:
    """Per end-to-end metric: both sides' quartiles and the pairwise wins."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        par = [p["parent"][name] for p in pairs]
        chg = [p["change"][name] for p in pairs]
        wins = sum((c < q) if lower else (c > q) for c, q in zip(chg, par))
        qp, qc = quartiles(par), quartiles(chg)
        out[name] = {
            "parent": qp,
            "change": qc,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_over_parent": qc["median"] / qp["median"],
            "parent_quartile_distance": qp["q3"] - qp["q1"],
            "bound": m["bound"],
        }
    return out


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="perfbench in alternating parent/change pairs")
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--pr", required=True, help="the record is written to BENCH_<pr>.json")
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", required=True, help="one pair per seed: '2101-2110' or '1,5,9'")
    ap.add_argument("--traced", action="append", default=[], metavar="WORKLOAD:SEED",
                    help="one --trace 1 run per side, for the per-layer metrics")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]
    seeds = parse_seeds(args.seeds)
    commits = {"parent": commit_of(args.parent), "change": commit_of("HEAD")}
    record = {
        "what": f"perfbench end-to-end metrics of {commits['change']} against "
                f"{commits['parent']}, in alternating pairs",
        "commits": commits,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} "
                   "--trace 0, run from the root of each tree; the side that runs first "
                   "alternates by pair",
        "environment": environment(),
        "seconds": seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: extract(commit, Path(tmp), side) for side, commit in commits.items()}
        for workload in args.workloads:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    res = run_bench(trees[side], workload, seed, seconds, 0)
                    pair[side] = {m["name"]: res["metrics"][m["name"]]["value"] for m in metrics}
                    pair[side].update({k: res[k] for k in ("attempted", "failed", "correct")})
                pairs.append(pair)
                print(json.dumps({"workload": workload, **pair}), flush=True)
            record["workloads"][workload] = {
                "pairs": pairs,
                "summary": summarize(pairs, metrics),
                "failed": {side: sum(p[side]["failed"] for p in pairs)
                           for side in ("parent", "change")},
            }
        for spec in args.traced:
            workload, _, seed = spec.partition(":")
            traced = {"command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                                 f"--seconds {seconds:g} --trace 1, one run per side"}
            for side in ("parent", "change"):
                res = run_bench(trees[side], workload, int(seed), seconds, 1)
                traced[side] = {k: v["value"] for k, v in res["metrics"].items()}
            record[f"traced_{workload}"] = traced
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
