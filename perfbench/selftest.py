"""Quick-mode self-test of the benchmark itself (about a minute).

    python3 perfbench/selftest.py

Checks, at reduced sizes:
  * every workload prints a last line with exactly the keys ``correct``,
    ``attempted``, ``failed`` and ``metrics``, and every end-to-end
    (``--trace 0``) and per-layer (``--trace 1``) metric of BENCHMARK.json is
    emitted with its unit and a finite value;
  * span arithmetic of each traced pass: self times are nonnegative, every
    child lies inside its parent, and the self times sum to the root span;
  * one seed always generates identical inputs (same digest), another seed
    different ones.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EPS = 1e-9


def run(workload: str, trace: int, seed: int = 3) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result: dict, expected: list, what: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{what}: keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        raise AssertionError(f"{what}: not correct: {result['attempted']} attempted, "
                             f"{result['failed']} failed")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        missing = sorted(set(want.items()) ^ set(got.items()))
        raise AssertionError(f"{what}: metric names or units differ: {missing}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            raise AssertionError(f"{what}: {name} = {m['value']!r}")


def check_spans(spans: list, what: str) -> None:
    from tracing import self_times

    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[3] is None]
    if len(roots) != 1:
        raise AssertionError(f"{what}: {len(roots)} root spans")
    for i, (name, start, end, parent, _) in enumerate(spans):
        if selfs[i] < -EPS:
            raise AssertionError(f"{what}: span {name} has self time {selfs[i]}")
        if parent is not None:
            p = spans[parent]
            if not (p[1] - EPS <= start <= end <= p[2] + EPS):
                raise AssertionError(f"{what}: span {name} lies outside its parent {p[0]}")
    root = spans[roots[0]]
    total = sum(selfs)
    if abs(total - (root[2] - root[1])) > EPS * max(1.0, len(spans)):
        raise AssertionError(f"{what}: self times sum to {total}, root lasts {root[2] - root[1]}")


def check_span_arithmetic_on_known_tree() -> None:
    from tracing import Tracer, pass_metrics

    t = Tracer()
    root = t.open("pass")
    a = t.open("transfer.rpf_triplet")
    b = t.open("shifts.admissible_words")
    t.close(b, {"words": 3})
    t.close(a, {"iterations": 5, "nonconverged": 0})
    t.close(root)
    check_spans(t.spans, "synthetic tree")
    m = pass_metrics(t.spans)
    assert m["shifts.admissible_words.words"] == 3 and m["transfer.rpf_triplet.calls"] == 1
    layers = sum(v for k, v in m.items() if k.count(".") == 1 and k.endswith(".self_s"))
    assert abs(layers - (t.spans[0][2] - t.spans[0][1])) < EPS, "layer self times"


def check_digests() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as W

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for name in W.WORKLOADS:
            one = W.build(name, 11, W.QUICK, Path(tmp)).digest()
            again = W.build(name, 11, W.QUICK, Path(tmp)).digest()
            other = W.build(name, 12, W.QUICK, Path(tmp)).digest()
            if one != again:
                raise AssertionError(f"{name}: seed 11 gave two different input digests")
            if one == other:
                raise AssertionError(f"{name}: seeds 11 and 12 gave the same inputs")


def main() -> int:
    sys.path.insert(0, str(HERE))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    checks = [("span arithmetic on a known tree", check_span_arithmetic_on_known_tree),
              ("one seed, one input digest", check_digests)]
    import workloads as W

    # Every workload, including one kept out of BENCHMARK.json.
    for name in W.WORKLOADS:

        def end_to_end(name=name):
            check_result(run(name, 0)[1], spec["end_to_end"], f"{name} --trace 0")

        def per_layer(name=name):
            summary, result = run(name, 1)
            check_result(result, spec["per_layer"], f"{name} --trace 1")
            check_spans(json.loads((ROOT / summary["spans_file"]).read_text()), name)

        checks += [(f"{name}: end-to-end metrics", end_to_end),
                   (f"{name}: per-layer metrics and spans", per_layer)]
    for label, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {label}: {exc}")
        else:
            print(f"ok   {label}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
