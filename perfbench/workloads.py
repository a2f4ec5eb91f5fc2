"""Seeded inputs, timed operations and independent output checks.

Each workload is a list of operations.  An operation is one closed-loop call
into the ``ruelle`` package (the timed part), a summary step that reduces the
result to a few numbers (untimed), and a check that compares the summary with
an oracle computed by this file from the raw seeded data, never through the
code path under test.

``build(name, seed, sizes)`` returns a fresh object graph on every call, so
every pass starts with cold ``cached_property`` values, as a fresh analysis
would.  The raw seeded data (``Inputs.raw``) is plain numbers; its digest is
the identity of the workload's inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

WORKLOADS = ("ladder_eigen", "operator_family", "spectrum", "cli_cold")

FULL = {
    "ladder_rungs": (5, 6, 7),
    "pressure_rungs": (5, 6),
    "pressure_n_max": 40,
    "banded_n": 1600,
    "renewal_truncations": (30, 60),
    "family_m": 5,
    "escape_m": 6,
    "escape_n_max": 200,
    "mc_paths": 200_000,
    "mc_n": 20,
    "gifs_vertices": 6,
    "gifs_edges": 72,
    "spectrum_banded_n": 800,
    "cyclic_n": 300,
    "blocks_n": 300,
}

# Reduced sizes for the self-test: same operations, seconds instead of minutes.
QUICK = {
    **FULL,
    "ladder_rungs": (3, 4),
    "pressure_rungs": (3,),
    "pressure_n_max": 12,
    "banded_n": 60,
    "family_m": 2,
    "escape_m": 2,
    "escape_n_max": 30,
    "mc_paths": 2_000,
    "mc_n": 6,
    "gifs_vertices": 3,
    "gifs_edges": 9,
    "spectrum_banded_n": 40,
    "cyclic_n": 30,
    "blocks_n": 30,
}

CLI_COMMANDS = (
    ("classify", "golden_hole"),
    ("pressure", "golden_hole"),
    ("rpf", "golden_hole"),
    ("spectrum", "period_three"),
    ("escape", "golden_hole"),
    ("perturb", "golden_hole"),
    ("dimension", "cantor_ifs"),
    ("renewal", "renewal_quarter"),
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
HOLE = ((1, 1), (2, 3))
RADIUS_RTOL = 1e-9
CHECKS_TOL = 1e-8
ESCAPE_TOL = 1e-8
MC_Z_MAX = 5.0
DIMENSION_TOL = 1e-6
# rpf_triplet flags converged=False when its post-refinement residual exceeds
# 10 * tol although the radius is right; that signature is a known defect.
NONCONVERGED_RESIDUAL_CAP = 1e-8


class CheckFailed(Exception):
    """An operation's output disagrees with its oracle."""


class KnownDefect(Exception):
    """An operation hit one of the documented defects of the program."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    summarize: Callable[[object], dict]
    check: Callable[[dict], None]
    # Exception types (by name and message fragment) that are known defects.
    known_raises: tuple = ()


@dataclass
class Inputs:
    raw: dict
    ops: list = field(default_factory=list)

    def digest(self) -> str:
        body = json.dumps(self.raw, sort_keys=True, default=_plain)
        return hashlib.sha256(body.encode()).hexdigest()


def _plain(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(type(obj))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([stream, seed])


# -- raw seeded data ---------------------------------------------------------------


def _words(symbols, allowed, n):
    words = [(s,) for s in symbols]
    for _ in range(n - 1):
        words = [w + (t,) for w in words for t in symbols if (w[-1], t) in allowed]
    return sorted(words)


def _full4_weights(seed: int, stream: int, depth: int) -> dict:
    symbols = (0, 1, 2, 3)
    vals = _rng(seed, stream).uniform(-1.0, 1.0, size=4**depth)
    words = list(itertools.product(symbols, repeat=depth))
    return {w: float(v) for w, v in zip(words, vals)}


def _decaying_weights(seed: int, stream: int, symbols) -> dict:
    """-2 log i plus seeded noise on 1-cylinders (i is the 1-based rank)."""
    noise = _rng(seed, stream).uniform(-0.5, 0.5, size=len(symbols))
    return {(s,): -2.0 * math.log(i + 1) + float(e) for i, (s, e) in enumerate(zip(symbols, noise))}


def _banded_entries(n: int, width: int) -> set:
    return {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if abs(i - j) <= width}


def _cyclic_entries(n: int) -> set:
    """Period-3 banded structure: steps +1, -2, +4 always advance i mod 3."""
    return {(i, i + d) for i in range(n) for d in (1, -2, 4) if 0 <= i + d < n}


def _blocks_entries(n: int, seed: int) -> set:
    """Two banded blocks 1..n/2 and n/2+1..n joined by one-way bridges."""
    half = n // 2
    ent = {(i, j) for (i, j) in _banded_entries(half, 2)}
    ent |= {(i + half, j + half) for (i, j) in _banded_entries(half, 2)}
    rng = _rng(seed, 40)
    ent.add((half, half + 1))
    for a, b in zip(rng.integers(1, half + 1, size=4), rng.integers(half + 1, n + 1, size=4)):
        ent.add((int(a), int(b)))
    return ent


def _gifs_edges(seed: int, n_vertices: int, n_edges: int) -> list:
    """Strongly connected: a Hamiltonian cycle plus seeded random edges."""
    rng = _rng(seed, 30)
    pairs = [(v, (v + 1) % n_vertices) for v in range(n_vertices)]
    extra = n_edges - n_vertices
    pairs += [(int(a), int(b)) for a, b in zip(rng.integers(0, n_vertices, size=extra),
                                               rng.integers(0, n_vertices, size=extra))]
    ratios = rng.uniform(0.05, 0.25, size=n_edges)
    return [(f"e{k}", a, b, float(r)) for k, ((a, b), r) in enumerate(zip(pairs, ratios))]


# -- oracles: dense matrices assembled here, never by ruelle ------------------------------


def word_matrix(symbols, allowed, weights: dict, depth: int, governing=None) -> np.ndarray:
    """Dense transfer matrix on depth-max(d-1,1) words, [target, source].

    ``governing`` restricts the prepended transition (open systems); every
    symbol of these systems reaches a cycle, so all admissible words count.
    """
    gov = allowed if governing is None else governing
    m = max(depth - 1, 1)
    words = _words(symbols, allowed, m)
    index = {w: i for i, w in enumerate(words)}
    succ = {s: [] for s in symbols}
    for a, b in allowed:
        succ[a].append(b)
    mat = np.zeros((len(words), len(words)))
    for w, j in index.items():
        for c in succ[w[-1]]:
            v = w[1:] + (c,)
            i = index.get(v)
            if i is None or (w[0], v[0]) not in gov:
                continue
            mat[i, j] = math.exp(weights[(w + (c,))[:depth]])
    return mat


def perron(mat: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(mat)).max())


def _close(a: float, b: float, rtol: float, what: str) -> None:
    if not abs(a - b) <= rtol * max(abs(b), 1e-300):
        raise CheckFailed(f"{what}: {a!r} differs from oracle {b!r}")


def _check_triplet(s: dict, radius: float) -> None:
    _close(s["lam"], radius, RADIUS_RTOL, "radius")
    if not s["converged"]:
        worst = max(s["residual_g"], s["residual_nu"])
        if worst <= NONCONVERGED_RESIDUAL_CAP:
            raise KnownDefect(f"rpf_triplet returned converged=False (residual {worst:.2e})")
        raise CheckFailed(f"rpf_triplet not converged (residual {worst:.2e})")


def _triplet_summary(trip) -> dict:
    return {
        "lam": trip.lam,
        "converged": bool(trip.converged),
        "residual_g": trip.residual_g,
        "residual_nu": trip.residual_nu,
        "iterations": trip.iterations,
    }


# -- workloads -------------------------------------------------------------------------


def ladder_eigen(seed: int, sizes: dict) -> Inputs:
    import ruelle as r

    w3 = _full4_weights(seed, 1, 3)
    n_band = sizes["banded_n"]
    band_syms = tuple(range(1, n_band + 1))
    wb = _decaying_weights(seed, 2, band_syms)
    raw = {"full4_depth3": sorted(w3.items()), "banded_weights": sorted(wb.items()),
           "renewal": {"a_ratio": 0.25, "b_ratio": 0.25, "truncations": sizes["renewal_truncations"]}}
    inp = Inputs(raw=raw)

    full4 = r.full_shift((0, 1, 2, 3))
    phi3 = r.potential_from_weights(w3)
    banded = r.banded_structure(n_band, 2)
    phib = r.potential_from_weights(wb, tail=r.TailModel.geometric(1.0, 0.5))
    full4_pairs = set(full4.entries)
    oracle = _Lazy(lambda: perron(word_matrix((0, 1, 2, 3), full4_pairs, w3, 3)))
    oracle_b = _Lazy(lambda: perron(word_matrix(band_syms, _banded_entries(n_band, 2), wb, 1)))

    for m in sizes["ladder_rungs"]:
        inp.ops.append(Op(
            f"rpf.full4.m{m}",
            call=lambda m=m: r.rpf_triplet(r.build_transfer_matrix(full4, phi3, depth=m)),
            summarize=_triplet_summary,
            check=lambda s: _check_triplet(s, oracle()),
        ))
    for m in sizes["pressure_rungs"]:
        inp.ops.append(Op(
            f"pressure.full4.m{m}",
            call=lambda m=m: r.topological_pressure(full4, phi3, n_max=sizes["pressure_n_max"], depth=m),
            summarize=lambda rep: {"spectral": rep.spectral, "bracket": list(rep.bracket)},
            check=lambda s: _check_pressure(s, oracle()),
        ))
    inp.ops.append(Op(
        f"rpf.banded{n_band}",
        call=lambda: r.rpf_triplet(r.build_transfer_matrix(banded, phib)),
        summarize=_triplet_summary,
        check=lambda s: _check_triplet(s, oracle_b()),
    ))
    for t in sizes["renewal_truncations"]:
        spec = r.RenewalSpec(a=lambda n: 0.25**n, b=lambda n: 0.25**n, truncation=t,
                             tail=r.TailModel.geometric(1.0, 0.25))
        inp.ops.append(Op(
            f"renewal.t{t}",
            call=lambda spec=spec: r.renewal_analysis(spec),
            summarize=lambda rep: {"lam_matrix": rep.lam_matrix, "lam_scalar": rep.lam_scalar},
            check=lambda s, radius=_Lazy(lambda t=t: renewal_radius(t)): _check_renewal(s, radius()),
            # prod_b underflows to 0 past truncation ~37 and log(0) raises.
            known_raises=(("ValueError", "math domain error"),),
        ))
    return inp


def _check_pressure(s: dict, radius: float) -> None:
    lo, hi = s["bracket"]
    if not lo <= s["spectral"] <= hi:
        raise CheckFailed(f"spectral pressure {s['spectral']!r} outside its bracket {s['bracket']}")
    _close(math.exp(s["spectral"]), radius, RADIUS_RTOL, "exp(pressure)")


def renewal_radius(truncation: int) -> float:
    """Both renewal sequences are 0.25**i, so every weight is i log 0.25."""
    ts = {(i, 1) for i in range(1, truncation + 1)} | {(i, i + 1) for i in range(1, truncation)}
    weights = {(i, j): i * math.log(0.25) for (i, j) in ts}
    return perron(word_matrix(tuple(range(1, truncation + 1)), ts, weights, 2))


def _check_renewal(s: dict, radius: float) -> None:
    _close(s["lam_matrix"], radius, RADIUS_RTOL, "renewal matrix radius")
    _close(s["lam_scalar"], s["lam_matrix"], RADIUS_RTOL, "renewal scalar radius")


def operator_family(seed: int, sizes: dict) -> Inputs:
    import ruelle as r

    syms = (0, 1, 2, 3)
    w2 = _full4_weights(seed, 3, 2)
    edges = _gifs_edges(seed, sizes["gifs_vertices"], sizes["gifs_edges"])
    epsilons = tuple(2.0**-j for j in range(0, 21))
    mc_seed = int(_rng(seed, 31).integers(0, 2**31))
    raw = {"full4_depth2": sorted(w2.items()), "hole": HOLE, "gifs": edges, "mc_seed": mc_seed}
    inp = Inputs(raw=raw)

    closed = r.full_shift(syms)
    hole = r.HoleSpec.from_hole(closed, HOLE)
    phi = r.potential_from_weights(w2)
    allowed = set(closed.entries)
    open_pairs = allowed - set(HOLE)
    cylinders = [w for n in (1, 2, 3) for w in _words(syms, open_pairs, n)]
    spec = r.GifsSpec(
        vertices=tuple(range(sizes["gifs_vertices"])),
        edges=tuple(r.GifsEdge(label=l, source=a, target=b, ratio=q) for l, a, b, q in edges),
    )
    dense_closed = _Lazy(lambda: word_matrix(syms, allowed, w2, 2))
    dense_open = _Lazy(lambda: word_matrix(syms, allowed, w2, 2, governing=open_pairs))
    dimension = _Lazy(lambda: gifs_dimension(edges, sizes["gifs_vertices"]))
    fm, em = sizes["family_m"], sizes["escape_m"]

    inp.ops.append(Op(
        "perturbation.conditions",
        call=lambda: r.verify_perturbation_conditions(phi, hole, epsilons),
        summarize=lambda rep: {"failures": list(rep.failures)},
        check=_check_conditions,
    ))
    inp.ops.append(Op(
        f"perturbation.gibbs_trace.m{fm}",
        call=lambda: r.gibbs_convergence_trace(phi, hole, epsilons, cylinders, depth=fm),
        summarize=lambda tr: {"monotone": tr.monotone, "lam_limit": tr.lam_limit,
                              "lam_bracket": list(tr.lam_bracket)},
        check=lambda s: _check_trace(s, perron(dense_open())),
    ))
    inp.ops.append(Op(
        f"escape.m{em}",
        call=lambda: r.escape_rate(hole, phi, n_max=sizes["escape_n_max"], depth=em),
        summarize=lambda rep: {"discrepancy": rep.discrepancy, "lam_closed": rep.lam_closed,
                               "lam_open": rep.lam_open},
        check=lambda s: _check_escape(s, perron(dense_closed()), perron(dense_open())),
    ))

    def mc():
        trip = r.rpf_triplet(r.build_transfer_matrix(closed, phi, depth=fm))
        return r.monte_carlo_survival(hole, phi, trip, sizes["mc_n"], sizes["mc_paths"], seed=mc_seed)

    inp.ops.append(Op(
        f"monte_carlo.m{fm}",
        call=mc,
        summarize=lambda est: {"estimate": est.estimate, "stderr": est.stderr},
        check=lambda s: _check_mc(s, survivor_mass(dense_closed(), dense_open(), sizes["mc_n"])),
    ))
    inp.ops.append(Op(
        "dimension.gifs",
        call=lambda: r.bowen_dimension(spec),
        summarize=lambda rep: {"root": rep.root},
        check=lambda s: _close(s["root"], dimension(), DIMENSION_TOL, "dimension"),
    ))
    return inp


def _check_conditions(s: dict) -> None:
    if s["failures"]:
        raise CheckFailed("perturbation conditions failed: " + "; ".join(s["failures"]))


def _check_trace(s: dict, lam_open: float) -> None:
    if not s["monotone"]:
        raise CheckFailed("perturbed radii are not monotone")
    lo, hi = s["lam_bracket"]
    if not lo <= s["lam_limit"] <= hi:
        raise CheckFailed(f"open radius {s['lam_limit']!r} outside lam_bracket {s['lam_bracket']}")
    _close(s["lam_limit"], lam_open, RADIUS_RTOL, "open radius")


def _check_escape(s: dict, lam_closed: float, lam_open: float) -> None:
    if not s["discrepancy"] <= ESCAPE_TOL:
        raise CheckFailed(f"escape-rate discrepancy {s['discrepancy']:.3e} above {ESCAPE_TOL}")
    _close(s["lam_closed"], lam_closed, RADIUS_RTOL, "closed radius")
    _close(s["lam_open"], lam_open, RADIUS_RTOL, "open radius")


def survivor_mass(closed: np.ndarray, open_: np.ndarray, n: int) -> float:
    """mu(n-step survivors) = lam^-n nu(L_open^n h) with nu(h) = 1."""
    vals, right = np.linalg.eig(closed)
    k = int(np.argmax(vals.real))
    lam = float(vals[k].real)
    h = np.abs(right[:, k].real)
    lvals, left = np.linalg.eig(closed.T)
    nu = np.abs(left[:, int(np.argmax(lvals.real))].real)
    nu = nu / (nu @ h)
    v = h
    for _ in range(n):
        v = open_ @ v / lam
    return float(nu @ v)


def _check_mc(s: dict, exact: float) -> None:
    z = (s["estimate"] - exact) / s["stderr"]
    if not abs(z) <= MC_Z_MAX:
        raise CheckFailed(f"Monte Carlo z-score {z:.2f} against exact mass {exact:.6g}")


def gifs_dimension(edges, n_vertices: int) -> float:
    """Root of log rho(V(s)), V(s)[u, v] = sum of ratio^s over edges u -> v."""

    def log_rho(s):
        mat = np.zeros((n_vertices, n_vertices))
        for _, a, b, q in edges:
            mat[a, b] += q**s
        return math.log(perron(mat))

    lo, hi = 0.0, 1.0
    while log_rho(hi) > 0.0:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if log_rho(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi)


def spectrum(seed: int, sizes: dict) -> Inputs:
    import ruelle as r

    nb, nc, nr = sizes["spectrum_banded_n"], sizes["cyclic_n"], sizes["blocks_n"]
    band_syms = tuple(range(1, nb + 1))
    cyc_syms = tuple(range(nc))
    blk_syms = tuple(range(1, nr + 1))
    wb = _decaying_weights(seed, 20, band_syms)
    wc = _decaying_weights(seed, 21, cyc_syms)
    half = nr // 2
    # Each block decays like the banded system; the second is shifted down
    # by one so that the first block dominates uniquely.
    wr = _decaying_weights(seed, 22, blk_syms[:half])
    wr.update({(s + half,): v - 1.0 for (s,), v in _decaying_weights(seed, 23, blk_syms[:half]).items()})
    cyc_ent = _cyclic_entries(nc)
    blk_ent = _blocks_entries(nr, seed)
    raw = {"banded": sorted(wb.items()), "cyclic": sorted(wc.items()),
           "blocks": sorted(wr.items()), "blocks_entries": sorted(blk_ent)}
    inp = Inputs(raw=raw)

    banded = r.banded_structure(nb, 2)
    cyclic = r.from_entries(cyc_syms, cyc_ent, name="cyclic-banded")
    blocks = r.from_entries(blk_syms, blk_ent, name="two-block")
    cases = (
        (f"spectral.banded{nb}", 1, lambda: r.spectral_decomposition(
            r.build_transfer_matrix(banded, r.potential_from_weights(wb))),
         lambda: word_matrix(band_syms, _banded_entries(nb, 2), wb, 1)),
        (f"spectral.cyclic{nc}", 3, lambda: r.spectral_decomposition(
            r.build_transfer_matrix(cyclic, r.potential_from_weights(wc))),
         lambda: word_matrix(cyc_syms, cyc_ent, wc, 1)),
        (f"component.blocks{nr}", 1, lambda: r.component_decomposition(
            blocks, r.potential_from_weights(wr)),
         lambda: word_matrix(blk_syms, blk_ent, wr, 1)),
    )
    for name, p, call, dense in cases:
        inp.ops.append(Op(
            name,
            call=call,
            summarize=_decomposition_summary,
            check=lambda s, p=p, radius=_Lazy(lambda dense=dense: perron(dense())):
                _check_decomposition(s, p, radius()),
        ))
    return inp


def _decomposition_summary(dec) -> dict:
    h = np.abs(dec.peripherals[0].h)
    pos = h[h > 0]
    return {"lam": dec.lam, "p": dec.p, "checks": dict(dec.checks),
            "remainder_radius": dec.remainder_radius,
            # Input property: the decades h spans (denormal-heavy remainders are slow).
            "properties": {"h_log10_range": float(np.log10(pos.max()) - np.log10(pos.min()))}}


def _check_decomposition(s: dict, p: int, radius: float) -> None:
    if s["p"] != p:
        raise CheckFailed(f"period {s['p']} instead of {p}")
    bad = {k: v for k, v in s["checks"].items() if not v <= CHECKS_TOL}
    if bad:
        raise CheckFailed(f"decomposition checks above {CHECKS_TOL}: {bad}")
    if not s["remainder_radius"] < s["lam"]:
        raise CheckFailed(f"remainder radius {s['remainder_radius']!r} not below {s['lam']!r}")
    _close(s["lam"], radius, RADIUS_RTOL, "radius")


def cli_cold(seed: int, sizes: dict, workdir: Path, launcher: Optional[list] = None) -> Inputs:
    """The eight commands on the shipped configs, one fresh process each.

    Setup writes seeded copies of the configs into ``workdir``; ``launcher``
    replaces ``python -m ruelle.cli`` (the traced pass uses its own launcher).
    """
    import ruelle  # noqa: F401  (set-up cost is part of every workload)

    cfg_seeds = _rng(seed, 50).integers(0, 2**31, size=len(CLI_COMMANDS))
    configs = {}
    raw = {}
    for (cmd, cfg), s in zip(CLI_COMMANDS, cfg_seeds):
        doc = json.loads((CONFIGS / f"{cfg}.json").read_text())
        doc["seed"] = int(s)
        path = workdir / f"{cmd}.json"
        path.write_text(json.dumps(doc, indent=2))
        configs[cmd] = path
        raw[cmd] = doc
    inp = Inputs(raw=raw)
    base = launcher or [sys.executable, "-m", "ruelle.cli"]
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    for cmd, _ in CLI_COMMANDS:
        out = workdir / f"out-{cmd}"

        def call(cmd=cmd, out=out):
            shutil.rmtree(out, ignore_errors=True)
            proc = subprocess.run(
                base + [cmd, "--config", str(configs[cmd]), "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=120,
            )
            return proc, out

        inp.ops.append(Op(f"cli.{cmd}", call=call, summarize=_cli_summary,
                          check=lambda s, cmd=cmd: _check_cli(cmd, s)))
    return inp


def _cli_summary(res) -> dict:
    proc, out = res
    report = out / "report.json"
    results = json.loads(report.read_text())["results"] if report.exists() else None
    return {"code": proc.returncode, "stderr": proc.stderr[-400:], "results": results}


def _check_cli(cmd: str, s: dict) -> None:
    if s["code"] != 0 or s["results"] is None:
        raise CheckFailed(f"exit code {s['code']}: {s['stderr'].strip()}")
    res = s["results"]
    if cmd == "classify":
        if not res["flags"]["primitive"]:
            raise CheckFailed("golden-mean shift not reported primitive")
    elif cmd == "pressure":
        _close(res["pressure"]["spectral"], math.log(GOLDEN), RADIUS_RTOL, "golden pressure")
    elif cmd == "rpf":
        _close(res["lam"], GOLDEN, RADIUS_RTOL, "golden-mean radius")
    elif cmd == "spectrum":
        if res["period"] != 3:
            raise CheckFailed(f"period_three reports p = {res['period']}")
        _close(res["lam"], 1.0, RADIUS_RTOL, "period_three radius")
    elif cmd == "escape":
        _close(res["fitted_rate"], math.log(2.0) - math.log(GOLDEN), 1e-6, "golden escape rate")
        if not abs(res["monte_carlo"]["z_score"]) <= MC_Z_MAX:
            raise CheckFailed(f"Monte Carlo z-score {res['monte_carlo']['z_score']:.2f}")
    elif cmd == "perturb":
        if not res["monotone"]:
            raise CheckFailed("perturbed radii are not monotone")
        _close(res["lam_limit"], GOLDEN, RADIUS_RTOL, "perturbation limit")
    elif cmd == "dimension":
        _close(res["dimension"], math.log(2.0) / math.log(3.0), DIMENSION_TOL, "Cantor dimension")
    elif cmd == "renewal":
        _close(res["lam_scalar"], res["lam_matrix"], RADIUS_RTOL, "renewal radius")


class _Lazy:
    """An oracle value computed on first use, after the timed passes."""

    def __init__(self, fn):
        self.fn = fn
        self.value = None

    def __call__(self):
        if self.value is None:
            self.value = self.fn()
        return self.value


def build(name: str, seed: int, sizes: dict, workdir: Optional[Path] = None,
          launcher: Optional[list] = None) -> Inputs:
    if name == "cli_cold":
        return cli_cold(seed, sizes, workdir, launcher)
    return {"ladder_eigen": ladder_eigen, "operator_family": operator_family,
            "spectrum": spectrum}[name](seed, sizes)


def classify_outcome(op: Op, summary: Optional[dict], error: Optional[tuple]):
    """('ok' | 'known_defect' | 'failed', detail) for one operation's outcome.

    ``error`` is the (type name, message) of an exception the call raised.
    """
    if error is not None:
        kind, message = error
        for name, fragment in op.known_raises:
            if kind == name and fragment in message:
                return "known_defect", f"{kind}: {message}"
        return "failed", f"{kind}: {message}"
    try:
        op.check(summary)
    except KnownDefect as exc:
        return "known_defect", str(exc)
    except CheckFailed as exc:
        return "failed", f"CheckFailed: {exc}"
    return "ok", ""


def check_passes(inputs: Inputs, passes: list) -> dict:
    """Classify every operation of every pass; oracles are computed once."""
    counts = {"ok": 0, "known_defect": 0, "failed": 0}
    listed = {"known_defect": [], "failed": []}
    properties = {}
    for p in passes:
        for op in inputs.ops:
            rec = p["ops"][op.name]
            kind, detail = classify_outcome(op, rec["summary"], rec["error"])
            counts[kind] += 1
            entry = {"op": op.name, "detail": detail}
            if kind != "ok" and entry not in listed[kind]:
                listed[kind].append(entry)
            for key, val in ((rec["summary"] or {}).get("properties") or {}).items():
                properties[f"{op.name}.{key}"] = val
    attempted = sum(counts.values())
    return {
        "attempted": attempted,
        "failed": counts["failed"],
        "known_defects": counts["known_defect"],
        "fail_frac": (counts["failed"] + counts["known_defect"]) / attempted,
        "failures": listed["failed"],
        "defects": listed["known_defect"],
        "properties": properties,
    }
