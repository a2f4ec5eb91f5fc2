"""Command-line entry point.

One command per process: read a config, run one analysis, write a
machine-readable report plus CSV tables into the output directory.  Reports
are byte-reproducible for a fixed config and seed (the timestamp field is the
only exception and is excluded from the hash).

Exit codes: 0 on success, 2 when an iteration did not converge (a partial
bundle is still written), 3 on configuration or precondition failures.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import SystemConfig
from .errors import ConfigError, ConvergenceError, PreconditionError, RuelleError
from .opensystem import escape_rate, monte_carlo_survival
from .perturbation import gibbs_convergence_trace, verify_perturbation_conditions
from .shifts import classify, period_classes, scc_quotient
from .spectral import component_decomposition, spectral_decomposition
from .transfer import build_transfer_matrix, rpf_triplet, topological_pressure
from .applications import bowen_dimension, renewal_analysis

EXIT_OK = 0
EXIT_NONCONVERGED = 2
EXIT_PRECONDITION = 3


def _jsonify(obj):
    if isinstance(obj, dict):
        return {_key(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": _jsonify(obj.real), "im": _jsonify(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, frozenset):
        return sorted(_jsonify(v) for v in obj)
    return obj


def _key(k):
    if isinstance(k, tuple):
        return ",".join(str(s) for s in k)
    return str(k)


def _word_key(word):
    return ",".join(str(s) for s in word)


class Bundle:
    """Accumulates one command's report document and CSV tables."""

    def __init__(self, command: str, cfg: SystemConfig):
        self.command = command
        self.cfg = cfg
        self.results = {}
        self.statements = []
        self.tables = {}
        self.converged = True

    def table(self, name: str, header, rows):
        self.tables[name] = (list(header), [list(r) for r in rows])

    def write(self, out_dir: Path) -> Path:
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = {
            "command": self.command,
            "version": __version__,
            "config_hash": self.cfg.config_hash(),
            "seed": self.cfg.seed,
            "tolerance": self.cfg.tolerance,
            "converged": self.converged,
            "results": _jsonify(self.results),
            "statements": self.statements,
        }
        # Keys sorted at every level, then the timestamp as the last key.
        doc = json.loads(json.dumps(doc, sort_keys=True))
        doc["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        path = out_dir / "report.json"
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, indent=2) + "\n")
        for name, (header, rows) in self.tables.items():
            with open(out_dir / f"{name}.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(header)
                for row in rows:
                    w.writerow([_csv_cell(c) for c in row])
        return path


def _csv_cell(c):
    if isinstance(c, float):
        return repr(c)
    if isinstance(c, tuple):
        return _word_key(c)
    return c


# -- commands ---------------------------------------------------------------------


def cmd_classify(cfg: SystemConfig) -> Bundle:
    b = Bundle("classify", cfg)
    ts = cfg.open_structure()
    flags = classify(ts)
    dag = scc_quotient(ts)
    comps = []
    for i, comp in enumerate(dag.components):
        rec = {
            "symbols": [_key((s,)) for s in comp.symbols],
            "irreducible": comp.irreducible,
            "has_periodic_point": comp.has_periodic_point,
            "period": comp.period,
        }
        if comp.has_periodic_point:
            pc = period_classes(ts, component=comp.symbols)
            rec["classes"] = [[_key((s,)) for s in cls] for cls in pc.classes]
        comps.append(rec)
    b.results["flags"] = {
        "irreducible": flags.irreducible,
        "finitely_irreducible": flags.finitely_irreducible,
        "weakly_primitive": flags.weakly_primitive,
        "primitive": flags.primitive,
        "finitely_primitive": flags.finitely_primitive,
        "has_periodic_point": flags.has_periodic_point,
    }
    b.results["witness"] = [list(map(str, w)) for w in (flags.witness or ())]
    b.results["notes"] = list(flags.notes)
    b.results["components"] = comps
    b.results["order"] = sorted([a, bb] for (a, bb) in dag.order)
    b.statements.append(
        "components are classes of mutual reachability; the period is the gcd "
        "of cycle lengths and the classes advance cyclically under every "
        "allowed transition"
    )
    b.table(
        "components",
        ["component", "symbols", "irreducible", "has_periodic_point", "period"],
        [
            [i, ";".join(map(str, c.symbols)), c.irreducible, c.has_periodic_point, c.period]
            for i, c in enumerate(dag.components)
        ],
    )
    return b


def cmd_pressure(cfg: SystemConfig) -> Bundle:
    b = Bundle("pressure", cfg)
    ts = cfg.open_structure()
    phi = cfg.potential(on=ts)
    rep = topological_pressure(ts, phi, n_max=cfg.n_max, depth=cfg.depth, tol=cfg.tolerance)
    b.results["pressure"] = {
        "spectral": rep.spectral,
        "spectral_bracket": rep.spectral_bracket,
        "bracket": rep.bracket,
        "value": rep.value,
    }
    b.results["note"] = rep.theta_note
    b.statements.append(
        "the pressure is the growth rate of cylinder sup-weight sums; the "
        "spectral route reports the log radius of the exact reduction and "
        "always lies inside the two-sided cylinder bracket"
    )
    b.table(
        "pressure_bounds",
        ["n", "upper", "lower", "sup_route", "inf_route"],
        [
            [n, rep.upper[i], rep.lower[i], rep.sup_route[i], rep.inf_route[i]]
            for i, n in enumerate(rep.ns)
        ],
    )
    return b


def cmd_rpf(cfg: SystemConfig) -> Bundle:
    b = Bundle("rpf", cfg)
    ts = cfg.open_structure()
    phi = cfg.potential(on=ts)
    tm = build_transfer_matrix(ts, phi, depth=cfg.depth)
    try:
        trip = rpf_triplet(tm, tol=cfg.tolerance, max_iter=cfg.max_iter)
    except ConvergenceError as exc:
        # Partial bundle: best available iterate, flagged non-converged.
        trip = exc.partial
        b.results["warning"] = str(exc)
    b.converged = trip.converged
    b.results["lam"] = trip.lam
    b.results["log_lam"] = math.log(trip.lam)
    b.results["residuals"] = {"eigenfunction": trip.residual_g, "eigenvector": trip.residual_nu}
    b.results["iterations"] = trip.iterations
    b.results["period_used"] = trip.period_used
    b.results["normalization"] = "sup norm one for the eigenfunction, total mass one for the eigenvector"
    b.statements.append(
        "the radius equals the exponential of the pressure, the eigenfunction "
        "is nonnegative with sup norm one, and the eigenvector is a probability "
        "on cylinders"
    )
    b.table(
        "triplet",
        ["word", "g", "nu", "h"],
        [
            [_word_key(w), float(trip.g[i]), float(trip.nu[i]), float(trip.h[i])]
            for i, w in enumerate(tm.words)
        ],
    )
    return b


def cmd_spectrum(cfg: SystemConfig) -> Bundle:
    b = Bundle("spectrum", cfg)
    ts = cfg.open_structure()
    phi = cfg.potential(on=ts)
    dag = scc_quotient(ts)
    if len(dag.components) == 1 and not dag.isolated:
        tm = build_transfer_matrix(ts, phi, depth=cfg.depth)
        dec = spectral_decomposition(tm, tol=cfg.tolerance)
    else:
        dec = component_decomposition(ts, phi, depth=cfg.depth, tol=cfg.tolerance)
    b.results["lam"] = dec.lam
    b.results["period"] = dec.p
    b.results["peripheral_eigenvalues"] = [
        {"re": per.eigenvalue.real, "im": per.eigenvalue.imag, "modulus": abs(per.eigenvalue)}
        for per in dec.peripherals
    ]
    b.results["remainder_radius"] = dec.remainder_radius
    b.results["remainder_method"] = dec.remainder_method
    b.results["checks"] = dec.checks
    if dec.component_pressures is not None:
        b.results["component_pressures"] = list(dec.component_pressures)
        b.results["dominant_component"] = dec.dominant_component
    if dec.support_patterns is not None:
        b.results["support_patterns"] = dict(dec.support_patterns)
    b.statements.append(
        "an irreducible system of period p has exactly p simple peripheral "
        "eigenvalues, the radius times the p-th roots of unity, each with a "
        "rank-one projection, and the remainder radius falls strictly below"
    )
    b.table(
        "peripherals",
        ["i", "re", "im", "modulus"],
        [
            [i, per.eigenvalue.real, per.eigenvalue.imag, abs(per.eigenvalue)]
            for i, per in enumerate(dec.peripherals)
        ],
    )
    return b


def cmd_escape(cfg: SystemConfig) -> Bundle:
    b = Bundle("escape", cfg)
    hole = cfg.hole_spec()
    if hole is None:
        raise PreconditionError("escape command needs a holes section")
    phi = cfg.potential(on=hole.closed)
    rep = escape_rate(hole, phi, n_max=cfg.n_max, depth=cfg.depth, tol=cfg.tolerance)
    b.results["fitted_rate"] = rep.fitted_rate
    b.results["spectral_prediction"] = rep.spectral_prediction
    b.results["discrepancy"] = rep.discrepancy
    b.results["lam_closed"] = rep.lam_closed
    b.results["lam_open"] = rep.lam_open
    b.results["period"] = rep.period
    mc = cfg.mc_params()
    est = monte_carlo_survival(hole, phi, rep.triplet_closed, mc["n"], mc["samples"], seed=cfg.seed)
    exact = math.exp(rep.log_masses[mc["n"] - 1])
    b.results["monte_carlo"] = {
        "n": mc["n"],
        "samples": est.samples,
        "estimate": est.estimate,
        "stderr": est.stderr,
        "exact": exact,
        "z_score": (est.estimate - exact) / est.stderr if est.stderr > 0 else 0.0,
    }
    b.statements.append(
        "the escape rate of the open system equals the closed pressure minus "
        "the open pressure; survivor masses are computed by the exact operator "
        "identity and cross-checked by a seeded path sampler"
    )
    b.table(
        "survivor_masses",
        ["n", "log_mass", "mass"],
        [[n, lm, math.exp(lm)] for n, lm in zip(rep.ns, rep.log_masses)],
    )
    return b


def cmd_perturb(cfg: SystemConfig) -> Bundle:
    b = Bundle("perturb", cfg)
    hole = cfg.hole_spec()
    if hole is None:
        raise PreconditionError("perturb command needs a holes section")
    phi = cfg.potential(on=hole.closed)
    eps = cfg.epsilons()
    cond = verify_perturbation_conditions(phi, hole, eps, k=cfg.k, theta=cfg.theta)
    if cond.failures:
        raise PreconditionError("; ".join(cond.failures))
    cyls = cfg.test_cylinders()
    trace = gibbs_convergence_trace(
        phi, hole, eps, cyls, depth=cfg.depth, tol=cfg.tolerance
    )
    b.results["epsilons"] = list(trace.epsilons)
    b.results["lams"] = list(trace.lams)
    b.results["lam_limit"] = trace.lam_limit
    b.results["lam_bracket"] = list(trace.lam_bracket)
    b.results["monotone"] = trace.monotone
    b.results["operator_distances"] = list(trace.operator_distances)
    b.results["mass_distances"] = list(trace.mass_distances)
    b.results["uniform_seminorm"] = cond.seminorm_uniform
    b.results["uniform_sum"] = cond.uniform_sum
    b.results["summability_total"] = cond.summability_total
    b.statements.append(
        "along a decreasing schedule the perturbed radii decrease to the open "
        "radius, the perturbed operators converge in sup norm, and the "
        "perturbed invariant masses converge on every finite cylinder algebra"
    )
    b.table(
        "trace",
        ["epsilon", "lam", "operator_distance", "mass_distance"],
        [
            [trace.epsilons[i], trace.lams[i], trace.operator_distances[i], trace.mass_distances[i]]
            for i in range(len(trace.epsilons))
        ],
    )
    return b


def cmd_dimension(cfg: SystemConfig) -> Bundle:
    b = Bundle("dimension", cfg)
    spec = cfg.gifs_spec()
    rep = bowen_dimension(spec, tol=max(cfg.tolerance, 1e-12))
    b.results["dimension"] = rep.root
    b.results["bracket"] = list(rep.bracket)
    b.results["root_pressure"] = rep.root_pressure
    b.results["boundary"] = rep.boundary
    b.statements.append(
        "the dimension of the limit set is the zero of the strictly decreasing "
        "pressure of the scaled log-contraction potential; the bracket is "
        "certified by a sign change"
    )
    b.table(
        "pressure_samples", ["s", "pressure"], [[s, p] for s, p in rep.pressure_samples]
    )
    return b


def cmd_renewal(cfg: SystemConfig) -> Bundle:
    b = Bundle("renewal", cfg)
    spec = cfg.renewal_spec()
    rep = renewal_analysis(spec, tol=cfg.tolerance)
    b.results["lam_matrix"] = rep.lam_matrix
    b.results["lam_scalar"] = rep.lam_scalar
    b.results["lam_difference"] = abs(rep.lam_matrix - rep.lam_scalar)
    b.results["truncation_tail_bound"] = rep.truncation_tail_bound
    b.results["cohomology_residual"] = rep.cohomology_residual
    b.results["notes"] = list(rep.notes)
    b.statements.append(
        "the radius solves the scalar renewal series equation; the reversal "
        "kernel is the time reversal of the forward chain, so its columns sum "
        "to one while its rows carry a reported defect"
    )
    b.table(
        "kernel",
        ["i", "j", "value", "row_sum_of_i", "column_sum_of_j"],
        [
            [i, j, v, rep.row_sums[i], rep.column_sums[j]]
            for (i, j), v in sorted(rep.kernel.items())
        ],
    )
    return b


COMMANDS = {
    "classify": cmd_classify,
    "pressure": cmd_pressure,
    "rpf": cmd_rpf,
    "spectrum": cmd_spectrum,
    "escape": cmd_escape,
    "perturb": cmd_perturb,
    "dimension": cmd_dimension,
    "renewal": cmd_renewal,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ruelle",
        description="transfer-operator analyses of topological Markov shifts with holes",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON system description")
        p.add_argument("--out", default="out", help="output directory for report and tables")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--tol", type=float, default=None, help="override the config tolerance")
        p.add_argument("--n-max", type=int, default=None, help="override the config n_max")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = SystemConfig.from_path(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            cfg.raw["seed"] = args.seed
        if args.tol is not None:
            cfg.tolerance = args.tol
            cfg.raw["tolerance"] = args.tol
        if args.n_max is not None:
            cfg.n_max = args.n_max
            cfg.raw["n_max"] = args.n_max
        bundle = COMMANDS[args.command](cfg)
    except ConvergenceError as exc:
        sys.stderr.write(f"non-converged: {exc}\n")
        return EXIT_NONCONVERGED
    except (ConfigError, PreconditionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except RuelleError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    path = bundle.write(Path(args.out))
    sys.stdout.write(f"{path}\n")
    return EXIT_OK if bundle.converged else EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
