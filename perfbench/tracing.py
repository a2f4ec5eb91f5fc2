"""Span recording around the public functions of the ``ruelle`` modules.

``install`` replaces every public module-level function of each layer, and a
few named methods, with a wrapper that opens a span on entry and closes it on
exit.  The replacement is made in every ``ruelle`` module that holds the
function, so calls through an imported copy (``ruelle.opensystem`` calling
``build_transfer_matrix``) are recorded too, and in module-level dicts of
functions (``ruelle.cli.COMMANDS``).  Nothing under ``src/`` is edited; the
returned ``restore`` puts the originals back.

Spans stay in memory as a flat list with parent indices.  A span's self time
is its duration minus the durations of its direct children, so the self
times of a tree sum to the duration of its root.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from time import perf_counter

LAYERS = ("shifts", "potentials", "transfer", "spectral", "opensystem",
          "perturbation", "applications", "config", "cli")
METHODS = {
    "transfer": ("RpfTriplet.mu_mass",),
    "config": ("SystemConfig.from_path",),
    "cli": ("Bundle.write",),
}
CLI_NAMES = ("classify", "pressure", "rpf", "spectrum", "escape", "perturb",
             "dimension", "renewal")


class Tracer:
    """In-memory spans: [name, start, end, parent, attrs]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, attrs=None) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        span[4] = attrs
        self._stack.pop()

    def graft(self, parent: int, spans: list) -> None:
        """Append spans recorded elsewhere (a child process) under ``parent``."""
        base = len(self.spans)
        for name, start, end, par, attrs in spans:
            self.spans.append([name, start, end, parent if par is None else base + par, attrs])


# -- work counts taken from arguments and results ------------------------------------


def _rpf_attrs(args, out, exc):
    trip = out if exc is None else getattr(exc, "partial", None)
    if trip is None:
        return {}
    return {"iterations": trip.iterations, "nonconverged": int(not trip.converged)}


def _build_attrs(args, out, exc):
    if out is None:
        return {}
    # The pattern is the word index and its depth; equal patterns hash equal.
    return {"dim": out.dim, "nnz": int(out.matrix.nnz),
            "pattern": hash((out.index_structure, out.depth))}


def _decomposition_attrs(args, out, exc):
    # One complex dense copy of the operator, computed from the dimension.
    return {} if out is None else {"dense_bytes": 16 * len(out.words) ** 2}


ATTRS = {
    "shifts.admissible_words": lambda a, out, exc: {} if out is None else {"words": len(out)},
    "transfer.build_transfer_matrix": _build_attrs,
    "transfer.rpf_triplet": _rpf_attrs,
    "spectral.spectral_decomposition": _decomposition_attrs,
    "spectral.component_decomposition": _decomposition_attrs,
    "opensystem.log_survivor_masses": lambda a, out, exc: {"steps": a["n_max"]},
    "opensystem.monte_carlo_survival": lambda a, out, exc: {"path_steps": a["sample_count"] * a["n"]},
}


def _wrap(tracer: Tracer, name: str, fn):
    extract = ATTRS.get(name)
    sig = inspect.signature(fn) if extract else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as exc:
            attrs = {"error": type(exc).__name__}
            if extract:
                attrs.update(extract(_bound(sig, args, kwargs), None, exc))
            tracer.close(idx, attrs)
            raise
        tracer.close(idx, extract(_bound(sig, args, kwargs), out, None) if extract else None)
        return out

    return wrapper


def _bound(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def install(tracer: Tracer):
    """Wrap the layers' public functions everywhere they are bound; return restore."""
    import ruelle  # noqa: F401  (the package namespace is patched below)

    wrapped = {}  # id(original) -> (original, wrapper)
    patches = []  # (setter, owner, key, original)
    for layer in LAYERS:
        mod = importlib.import_module(f"ruelle.{layer}")
        for attr, fn in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped[id(fn)] = (fn, _wrap(tracer, f"{layer}.{attr}", fn))
        for path in METHODS.get(layer, ()):
            cls_name, meth = path.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, staticmethod):
                new = staticmethod(_wrap(tracer, f"{layer}.{path}", raw.__func__))
            else:
                new = _wrap(tracer, f"{layer}.{path}", raw)
            patches.append((setattr, cls, meth, raw))
            setattr(cls, meth, new)

    def swap(setter, owner, key, val):
        hit = wrapped.get(id(val))
        if hit is not None and hit[0] is val:
            patches.append((setter, owner, key, val))
            setter(owner, key, hit[1])

    modules = [m for n, m in sys.modules.items() if n == "ruelle" or n.startswith("ruelle.")]
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            swap(setattr, mod, attr, val)
            if isinstance(val, dict) and not attr.startswith("__"):
                for key, item in list(val.items()):
                    swap(dict.__setitem__, val, key, item)

    def restore():
        for setter, owner, key, val in reversed(patches):
            setter(owner, key, val)

    return restore


# -- span arithmetic and per-layer metrics ------------------------------------------------


def self_times(spans: list) -> list:
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "harness"


def _has_ancestor(spans: list, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent is not None:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


# (metric, unit) of the traced run, in the order they are printed.
PER_LAYER = (
    [(f"{layer}.self_s", "s") for layer in LAYERS + ("harness",)]
    + [
        ("shifts.admissible_words.calls", "count"),
        ("shifts.admissible_words.self_s", "s"),
        ("shifts.admissible_words.words", "count"),
        ("shifts.scc_quotient.calls", "count"),
        ("shifts.scc_quotient.self_s", "s"),
        ("shifts.classify.self_s", "s"),
        ("shifts.period_classes.self_s", "s"),
        ("potentials.perturbed_potential.calls", "count"),
        ("potentials.perturbed_potential.self_s", "s"),
        ("potentials.summability_certificate.self_s", "s"),
        ("transfer.build_transfer_matrix.calls", "count"),
        ("transfer.build_transfer_matrix.self_s", "s"),
        ("transfer.build_transfer_matrix.dim_sum", "count"),
        ("transfer.build_transfer_matrix.nnz_sum", "count"),
        ("transfer.build_transfer_matrix.pattern_repeats", "count"),
        ("transfer.rpf_triplet.calls", "count"),
        ("transfer.rpf_triplet.self_s", "s"),
        ("transfer.rpf_triplet.iterations", "count"),
        ("transfer.rpf_triplet.nonconverged", "count"),
        ("transfer.RpfTriplet.mu_mass.calls", "count"),
        ("transfer.RpfTriplet.mu_mass.self_s", "s"),
        ("transfer.topological_pressure.self_s", "s"),
        ("spectral.spectral_decomposition.calls", "count"),
        ("spectral.spectral_decomposition.self_s", "s"),
        ("spectral.component_decomposition.self_s", "s"),
        ("spectral.dense_bytes", "bytes"),
        ("opensystem.escape_rate.self_s", "s"),
        ("opensystem.log_survivor_masses.calls", "count"),
        ("opensystem.log_survivor_masses.self_s", "s"),
        ("opensystem.log_survivor_masses.steps", "count"),
        ("opensystem.monte_carlo_survival.self_s", "s"),
        ("opensystem.monte_carlo_survival.path_steps_per_s", "1/s"),
        ("perturbation.verify_perturbation_conditions.self_s", "s"),
        ("perturbation.gibbs_convergence_trace.self_s", "s"),
        ("perturbation.operator_distance.calls", "count"),
        ("perturbation.operator_distance.self_s", "s"),
        ("applications.bowen_dimension.self_s", "s"),
        ("applications.bowen_dimension.pressure_evals", "count"),
        ("applications.renewal_analysis.self_s", "s"),
        ("applications.renewal_analysis.failures", "count"),
        ("cli.import_s", "s"),
    ]
    + [(f"cli.{cmd}.s", "s") for cmd in CLI_NAMES]
    + [
        ("config.SystemConfig.from_path.self_s", "s"),
        ("cli.Bundle.write.self_s", "s"),
        ("trace.run_s", "s"),
        ("trace.overhead_s", "s"),
        ("fail_frac", "ratio"),
    ]
)

_SUMS = {
    "shifts.admissible_words.words": ("shifts.admissible_words", "words"),
    "transfer.build_transfer_matrix.dim_sum": ("transfer.build_transfer_matrix", "dim"),
    "transfer.build_transfer_matrix.nnz_sum": ("transfer.build_transfer_matrix", "nnz"),
    "transfer.rpf_triplet.iterations": ("transfer.rpf_triplet", "iterations"),
    "transfer.rpf_triplet.nonconverged": ("transfer.rpf_triplet", "nonconverged"),
    "opensystem.log_survivor_masses.steps": ("opensystem.log_survivor_masses", "steps"),
    "spectral.dense_bytes": (("spectral.spectral_decomposition",
                              "spectral.component_decomposition"), "dense_bytes"),
}


def pass_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass (one root span)."""
    selfs = self_times(spans)
    calls, self_by_name, layer_self, sums = {}, {}, {}, {}
    patterns, repeats, failures, evals, mc_steps = set(), 0, {}, 0, 0
    for i, (name, _, _, _, attrs) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + selfs[i]
        layer = layer_of(name)
        layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
        attrs = attrs or {}
        for key, val in attrs.items():
            if key != "error" and key != "pattern":
                sums[(name, key)] = sums.get((name, key), 0) + val
        if "error" in attrs:
            failures[name] = failures.get(name, 0) + 1
        if name == "transfer.build_transfer_matrix" and "pattern" in attrs:
            repeats += attrs["pattern"] in patterns
            patterns.add(attrs["pattern"])
        if name == "transfer.rpf_triplet" and _has_ancestor(spans, i, "applications.bowen_dimension"):
            evals += 1
        if name == "opensystem.monte_carlo_survival":
            mc_steps += attrs.get("path_steps", 0)

    out = {}
    for metric, unit in PER_LAYER:
        head, _, stat = metric.rpartition(".")
        if metric.endswith(".self_s") and head in LAYERS + ("harness",):
            out[metric] = layer_self.get(head, 0.0)
        elif metric in _SUMS:
            names, key = _SUMS[metric]
            names = (names,) if isinstance(names, str) else names
            out[metric] = sum(sums.get((n, key), 0) for n in names)
        elif stat == "calls":
            out[metric] = calls.get(head, 0)
        elif stat == "self_s":
            out[metric] = self_by_name.get(head, 0.0)
    out["transfer.build_transfer_matrix.pattern_repeats"] = repeats
    out["applications.bowen_dimension.pressure_evals"] = evals
    out["applications.renewal_analysis.failures"] = failures.get("applications.renewal_analysis", 0)
    mc_self = self_by_name.get("opensystem.monte_carlo_survival", 0.0)
    out["opensystem.monte_carlo_survival.path_steps_per_s"] = mc_steps / mc_self if mc_self > 0 else 0.0
    imports = [e - s for n, s, e, _, _ in spans if n == "cli.import"]
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return out
