"""The ruelle benchmark: one workload, one seed, one JSON line of metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload ladder_eigen --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last line carries the end-to-end metrics
(``run_cal_s``, ``setup_s``, ``peak_rss_mb``) from two fresh measuring processes; with
``--trace 1`` it carries the per-layer metrics of a traced pass from one.
The line before it is a summary with the environment stamp, per-operation
times, known defects and input properties; the same summary is written to
``perfbench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKER = HERE / "worker.py"
OUT = HERE / "out"
# An untraced run measures in this many fresh processes and times set-up in
# one more that only sets up, so set-up is sampled three times.
PROCESSES = 2
SETUP_PROBES = 1
# Time of the worker's calibration kernel on the reference machine (see
# README): run_cal_s is pass time in seconds of that machine at that speed.
REFERENCE_CALIBRATION_S = 0.5
TIMEOUT_S = 170


def spawn(args: list, timeout: float) -> dict:
    """Run the worker in a fresh process and parse its JSON line.

    The worker gets its own process group, so that on a timeout its CLI
    children are killed with it.
    """
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--t0", repr(t0)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ruelle benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true", help="reduced sizes, for the self-test")
    args = ap.parse_args(argv)
    start = perf_counter()
    if not (SRC / "ruelle" / "__init__.py").is_file():
        sys.stderr.write("perfbench: no src/ruelle package next to the benchmark\n")
        return 2

    # Untraced runs split --seconds over fresh processes, so that speed
    # differences between processes average out.
    processes = 1 if args.trace else PROCESSES
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds / processes), "--trace", str(args.trace)]
    common += ["--quick"] if args.quick else []
    try:
        probes = [spawn(common + ["--setup-only"], TIMEOUT_S)
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        runs = []
        for _ in range(processes):
            runs.append(spawn(common, TIMEOUT_S - (perf_counter() - start)))
        report = check(args, runs + probes)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1

    passes = [p for r in runs for p in r["passes"]]
    untraced = [p for p in passes if not p["traced"]]
    op_s = {name: statistics.median(p["ops"][name]["s"] for p in untraced)
            for name in untraced[0]["ops"]}
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "digest": runs[0]["digest"],
        "run_s": statistics.median(p["s"] for p in untraced),
        "run_cal_s": statistics.median(p["s"] * REFERENCE_CALIBRATION_S / p["ref_s"]
                                       for p in untraced),
        "calibration_s": [[p["ref_s"] for p in r["passes"]] for r in runs],
        "setup_s": statistics.median(r["setup_s"] for r in runs + probes),
        "setup_samples_s": [r["setup_s"] for r in runs + probes],
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "pass_s": [[p["s"] for p in r["passes"]] for r in runs],
        "pass_traced": [[p["traced"] for p in r["passes"]] for r in runs],
        "op_s": op_s,
        **report,
        "env": runs[0]["env"],
    }
    if args.trace:
        from tracing import CLI_NAMES, PER_LAYER

        layer = dict(runs[0]["per_layer"])
        layer["trace.overhead_s"] = layer["trace.run_s"] - summary["run_s"]
        layer["fail_frac"] = summary["fail_frac"]
        for cmd in CLI_NAMES:
            layer[f"cli.{cmd}.s"] = op_s.get(f"cli.{cmd}", 0.0)
        summary["spans_file"] = runs[0]["spans_file"]
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {
            "run_cal_s": {"value": summary["run_cal_s"], "unit": "s"},
            "setup_s": {"value": summary["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MiB"},
        }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**summary, "metrics": metrics}, indent=1))
    print(json.dumps(summary))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


def check(args, runs: list) -> dict:
    """Check every pass of every process against the oracles, once."""
    sys.path.insert(0, str(SRC))
    import workloads as W

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        inputs = W.build(args.workload, args.seed, W.QUICK if args.quick else W.FULL, Path(tmp))
        digests = {r["digest"] for r in runs} | {inputs.digest()}
        if len(digests) != 1:
            raise RuntimeError(f"seed {args.seed} generated different inputs: {sorted(digests)}")
        return W.check_passes(inputs, [p for r in runs for p in r.get("passes", ())])


if __name__ == "__main__":
    sys.exit(main())
