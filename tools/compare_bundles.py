"""Compare every command's bundle on the shipped configs between a parent
revision and HEAD.

Usage (from anywhere inside the repository):

    python3 tools/compare_bundles.py --parent <rev>

Both sides are committed trees, extracted with ``git archive`` like
``tools/bench_pairs.py`` does.  Each command runs on each config of HEAD's
``configs/`` from the root of each tree, as
``python -m ruelle.cli <command> --config configs/<name> --out <out>`` with
that tree's ``src`` on ``PYTHONPATH`` and the same ``<out>`` on both sides.
The exit codes, stdout, stderr and every file of the bundle are compared;
``report.json`` is compared with its ``timestamp`` key dropped.  One line is
printed per run, with each side's wall time in seconds (interpreter start
included, so it shows start-up changes per command; the side that runs first
alternates from run to run), and the exit code is 1 when any run differs,
else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from bench_pairs import commit_of, extract

COMMANDS = ("classify", "pressure", "rpf", "spectrum", "escape", "perturb", "dimension", "renewal")
TIMEOUT_S = 600


def run(tree: Path, command: str, config: str, out: Path) -> dict:
    """Exit code, stdout, stderr, bundle files and wall time of a command in ``tree``."""
    if out.exists():
        shutil.rmtree(out)
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "ruelle.cli", command, "--config", f"configs/{config}",
         "--out", str(out)],
        cwd=tree, env={**os.environ, "PYTHONPATH": str(tree / "src")},
        capture_output=True, timeout=TIMEOUT_S,
    )
    wall_s = perf_counter() - start
    files = {}
    if out.exists():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            body = path.read_bytes()
            if path.name == "report.json":
                doc = json.loads(body)
                doc.pop("timestamp", None)
                body = json.dumps(doc).encode()
            files[str(path.relative_to(out))] = body
    return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr, "files": files,
            "wall_s": wall_s}


def differences(parent: dict, change: dict) -> list:
    """The names of the parts of two runs that differ."""
    out = [part for part in ("exit", "stdout", "stderr") if parent[part] != change[part]]
    for name in sorted(set(parent["files"]) | set(change["files"])):
        if parent["files"].get(name) != change["files"].get(name):
            out.append(name)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare the shipped bundles of a parent and HEAD")
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    args = ap.parse_args(argv)

    commits = {"parent": commit_of(args.parent), "change": commit_of("HEAD")}
    print(f"parent {commits['parent']}  change {commits['change']}", flush=True)
    runs = differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: extract(commit, Path(tmp), side) for side, commit in commits.items()}
        configs = sorted(p.name for p in (trees["change"] / "configs").glob("*.json"))
        out = Path(tmp) / "out"
        for command in COMMANDS:
            for config in configs:
                order = sorted(trees, reverse=runs % 2 == 1)
                sides = {side: run(trees[side], command, config, out) for side in order}
                diff = differences(sides["parent"], sides["change"])
                runs += 1
                differ += bool(diff)
                status = "differs: " + ", ".join(diff) if diff else "identical"
                print(f"{command:10s} {config:22s} exit {sides['change']['exit']}  "
                      f"{sides['parent']['wall_s']:.3f} -> {sides['change']['wall_s']:.3f} s  {status}",
                      flush=True)
    print(f"{differ} of {runs} runs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
