"""One workload process: set up, then run timed passes for --seconds.

Started by ``run.py`` with the monotonic clock reading taken just before the
process was spawned, so ``setup_s`` covers interpreter start, ``import
ruelle`` and input generation up to the first timed operation.  Prints one
JSON object on stdout: set-up time, input digest, peak RSS, every pass with
its per-operation times and output summaries, and the environment stamp;
with ``--trace 1`` also the per-layer metrics of the median traced pass.
The outputs are checked by ``run.py``, outside this process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
CALIBRATE_EVERY_S = 3.0


def parse(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, default=None, help="perf_counter() at spawn")
    ap.add_argument("--setup-only", action="store_true", help="report set-up time and exit")
    ap.add_argument("--quick", action="store_true", help="reduced sizes (self-test)")
    return ap.parse_args(argv)


def run_pass(inputs, tracer=None) -> tuple:
    """One closed-loop pass: each operation starts after the previous returns.

    Returns the pass record and, when traced, each operation's span index.
    """
    root = tracer.open("pass") if tracer else None
    start = perf_counter()
    ops, op_spans = {}, {}
    for op in inputs.ops:
        idx = tracer.open("op." + op.name) if tracer else None
        t = perf_counter()
        summary, error = None, None
        try:
            summary = op.summarize(op.call())
        except Exception as exc:  # recorded per operation; the pass goes on
            error = (type(exc).__name__, str(exc))
        dt = perf_counter() - t
        if tracer:
            tracer.close(idx)
            op_spans[op.name] = idx
        ops[op.name] = {"s": dt, "summary": summary, "error": error}
    wall = perf_counter() - start
    if tracer:
        tracer.close(root)
    return {"s": wall, "traced": tracer is not None, "ops": ops}, op_spans


def main(argv=None) -> int:
    args = parse(argv)
    t0 = args.t0 if args.t0 is not None else perf_counter()
    sys.path.insert(0, str(SRC))
    import ruelle  # noqa: F401  (part of set-up)
    import tracing
    import workloads as W

    if args.workload not in W.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {W.WORKLOADS}\n")
        return 2
    sizes = W.QUICK if args.quick else W.FULL
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _measure(args, t0, sizes, workdir, W, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, t0, sizes, workdir, W, tracing) -> int:
    cli = args.workload == "cli_cold"
    launcher = [sys.executable, str(HERE / "cli_child.py"), str(workdir)]
    inputs = W.build(args.workload, args.seed, sizes, workdir)
    setup_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "digest": inputs.digest()}))
        return 0

    passes = []
    tracers = []
    calibration = Calibration()
    cals = [(perf_counter(), calibration.run())]
    begin = perf_counter()
    while True:
        if perf_counter() - cals[-1][0] >= CALIBRATE_EVERY_S:
            cals.append((perf_counter(), calibration.run()))
        traced = bool(args.trace) and len(passes) % 2 == 1
        fresh = W.build(args.workload, args.seed, sizes, workdir,
                        launcher=launcher if traced and cli else None)
        tracer = tracing.Tracer() if traced else None
        restore = tracing.install(tracer) if traced and not cli else None
        started = perf_counter()
        try:
            p, op_spans = run_pass(fresh, tracer)
        finally:
            if restore:
                restore()
        if traced and cli:
            for cmd, idx in op_spans.items():
                spans_file = workdir / f"spans-{cmd.split('.', 1)[1]}.json"
                tracer.graft(idx, json.loads(spans_file.read_text()))
        p["started"] = started
        passes.append(p)
        tracers.append(tracer)
        # A pass starts when it is expected to end at most half a pass past
        # --seconds, so a process measures --seconds on average.
        typical = statistics.median(q["s"] for q in passes)
        if perf_counter() - begin + typical / 2 >= args.seconds and len(passes) >= 1 + args.trace:
            break
    cals.append((perf_counter(), calibration.run()))
    for p in passes:
        before = [ref for t, ref in cals if t <= p["started"]][-1]
        after = next(ref for t, ref in cals if t > p["started"])
        p["ref_s"] = (before + after) / 2
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
    result = {
        "setup_s": setup_s,
        "digest": inputs.digest(),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "passes": passes,
        "env": environment(args.seed),
    }
    if args.trace:
        # Per-layer figures come from one traced pass, the one of median
        # length, so that its self times add up to its own run time.
        traced = sorted(((p["s"], t) for p, t in zip(passes, tracers) if p["traced"]),
                        key=lambda pt: pt[0])
        run_s, tracer = traced[(len(traced) - 1) // 2]
        result["per_layer"] = {**tracing.pass_metrics(tracer.spans), "trace.run_s": run_s}
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracer.spans))
        result["spans_file"] = str(spans_file.relative_to(HERE.parent))
    print(json.dumps(result))
    return 0


class Calibration:
    """A fixed mix of interpreter, numpy and sparse work, timed around passes.

    The host's speed swings by tens of percent within minutes, and every
    workload swings with it.  Dividing a pass's time by this kernel's time,
    measured just before and after the pass, cancels most of the swing; the
    kernel never calls ``ruelle``, so a change to the program leaves it alone.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        self.n = n = 16384
        rows = np.repeat(np.arange(n), 4)
        self.mat = sp.csr_matrix((rng.random(4 * n), (rows, rng.integers(0, n, 4 * n))),
                                 shape=(n, n))
        self.state = rng.integers(0, 1024, size=50_000)

    def run(self) -> float:
        import numpy as np

        start = perf_counter()
        table = {}
        for i in range(600_000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i
        for j in range(0, 1024, 2):
            self.state[self.state == j].sum()
        v = np.ones(self.n)
        for _ in range(3000):
            v = self.mat @ v
            v /= v.max()
        return perf_counter() - start


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    head = HERE.parent / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (HERE.parent / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
