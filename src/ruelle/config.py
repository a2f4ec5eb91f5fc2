"""System configuration: a JSON document describing the shift, the hole, the
potential and the run parameters, validated against a published schema.

The same document drives every subcommand; a command reads only the sections
it needs.  The canonical serialization (sorted keys, compact separators) is
hashed so that reports can prove which inputs produced them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields
from typing import Optional

import jsonschema

from .errors import ConfigError
from .potentials import (
    DEFAULT_K, DEFAULT_MAX_ITER, DEFAULT_N_MAX, DEFAULT_S_RANGE, DEFAULT_TAIL_COEFF,
    DEFAULT_THETA, DEFAULT_TOL, Potential, TailModel, constant_potential, potential_from_weights,
)
from .shifts import (
    HoleSpec,
    TransitionStructure,
    banded_structure,
    from_entries,
    full_shift,
    full_truncated,
    nonempty_cylinder_words,
    renewal_structure,
)

_OPEN_UNIT = {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1}
_PAIRS = {"type": "array", "items": {"type": "array", "minItems": 2, "maxItems": 2}}
_SCHEDULE = {
    "type": "object",
    "additionalProperties": False,
    "required": ["ratio", "count"],
    "properties": {
        "start": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "ratio": _OPEN_UNIT,
        "count": {"type": "integer", "minimum": 1},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ruelle system configuration",
    "type": "object",
    "additionalProperties": False,
    "properties": {
        "alphabet": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "symbols": {"type": "array", "items": {"type": ["integer", "string"]}},
                "family": {"enum": ["renewal", "full", "banded"]},
                "truncation": {"type": "integer", "minimum": 2},
                "width": {"type": "integer", "minimum": 1, "default": 1},
            },
        },
        "transitions": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "entries": _PAIRS,
                "full": {"type": "boolean"},
            },
        },
        "holes": {
            "type": "object",
            "additionalProperties": False,
            "required": ["entries"],
            "properties": {"entries": _PAIRS},
        },
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "constant": {"type": "number", "default": 0.0},
                "depth": {"type": "integer", "minimum": 1},
                "weights": {"type": "object", "additionalProperties": {"type": "number"}},
                "rule": {"enum": ["renewal_log"]},
                "a_ratio": {**_OPEN_UNIT, "default": 0.25},
                "b_ratio": _OPEN_UNIT,
                "tail": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["geometric", "harmonic", "zero"], "default": "geometric"},
                        "coeff": {"type": "number", "default": DEFAULT_TAIL_COEFF},
                        "ratio": {"type": "number"},
                    },
                    # The default kind is geometric, so an absent kind needs it too.
                    "if": {"properties": {"kind": {"const": "geometric"}}},
                    "then": {"required": ["ratio"]},
                },
            },
        },
        "gifs": {
            "type": "object",
            "additionalProperties": False,
            "required": ["vertices", "edges"],
            "properties": {
                "vertices": {"type": "array", "items": {"type": ["integer", "string"]}},
                "edges": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["label", "source", "target", "ratio"],
                        "additionalProperties": False,
                        "properties": {
                            "label": {"type": ["integer", "string"]},
                            "source": {"type": ["integer", "string"]},
                            "target": {"type": ["integer", "string"]},
                            "ratio": {"type": "number"},
                        },
                    },
                },
                "s_range": {
                    "type": "array",
                    "items": {"type": "number"},
                    "minItems": 2,
                    "maxItems": 2,
                    "default": list(DEFAULT_S_RANGE),
                },
            },
        },
        "theta": {**_OPEN_UNIT, "default": DEFAULT_THETA},
        "k": {"type": "integer", "minimum": 1, "default": DEFAULT_K},
        "epsilons": {
            "anyOf": [
                {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
                _SCHEDULE,
            ],
            "default": {"start": 1.0, "ratio": 0.5, "count": 21},
        },
        "test_cylinders": {
            "type": "array",
            "items": {"type": "array", "items": {"type": ["integer", "string"]}},
            "minItems": 1,
        },
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1, "default": 10},
                "samples": {"type": "integer", "minimum": 100, "default": 100_000},
            },
        },
        "n_max": {"type": "integer", "minimum": 2, "default": DEFAULT_N_MAX},
        "max_iter": {"type": "integer", "minimum": 1, "default": DEFAULT_MAX_ITER},
        "depth": {"type": ["integer", "null"], "minimum": 1, "default": None},
        "tolerance": {"type": "number", "exclusiveMinimum": 0, "default": DEFAULT_TOL},
        "seed": {"type": "integer", "default": 0},
    },
}

# Built once: jsonschema.validate would check the schema itself on every call.
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _symbol(token):
    if isinstance(token, int):
        return token
    try:
        return int(token)
    except (TypeError, ValueError):
        return token


def _word(tokens):
    if isinstance(tokens, str):
        tokens = tokens.split(",")
    return tuple(_symbol(t) for t in tokens)


def _non_finite(doc, path=()):
    """(path, value) of the first NaN or infinite number in ``doc``, or None.
    JSON schema ranges let NaN through, so this is checked on its own."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else (path, doc)
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return None
    for key, value in items:
        found = _non_finite(value, (*path, key))
        if found is not None:
            return found
    return None


def _with_defaults(doc: dict, *path, schema: dict = CONFIG_SCHEMA) -> dict:
    """The section of ``doc`` at ``path`` (``doc`` itself when empty) as a new
    dict over the defaults ``schema`` declares there; a missing one is empty."""
    for key in path:
        doc, schema = doc[key] if key in doc else {}, schema["properties"][key]
    props = schema["properties"]
    return {**{k: p["default"] for k, p in props.items() if "default" in p}, **doc}


@dataclass
class SystemConfig:
    """Validated configuration with lazily built domain objects.  ``raw`` is
    the document as loaded; each key it omits takes its CONFIG_SCHEMA default."""

    raw: dict
    theta: float
    k: int
    n_max: int
    tolerance: float
    seed: int
    depth: Optional[int]
    max_iter: int

    @staticmethod
    def from_dict(doc: dict) -> "SystemConfig":
        bad = _non_finite(doc)
        if bad is not None:
            path = "/".join(str(p) for p in bad[0]) or "<root>"
            raise ConfigError(f"config number at {path} is not finite: {bad[1]}")
        err = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
        if err is not None:
            path = "/".join(str(p) for p in err.absolute_path) or "<root>"
            raise ConfigError(f"config schema violation at {path}: {err.message}") from err
        run = _with_defaults(doc)
        return SystemConfig(doc, *(run[f.name] for f in fields(SystemConfig)[1:]))

    @staticmethod
    def from_path(path, **overrides) -> "SystemConfig":
        """The config at ``path`` with each override that is not None set as a
        top-level key before validation, so overrides meet the schema too."""
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if isinstance(doc, dict):  # any other document fails the schema below
            doc.update((k, v) for k, v in overrides.items() if v is not None)
        return SystemConfig.from_dict(doc)

    # -- canonical form ------------------------------------------------------

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- structures ------------------------------------------------------------

    def closed_structure(self) -> TransitionStructure:
        alpha = _with_defaults(self.raw, "alphabet")
        family = alpha.get("family")
        if family == "renewal":
            return renewal_structure(alpha["truncation"])
        if family == "full":
            return full_truncated(alpha["truncation"])
        if family == "banded":
            return banded_structure(alpha["truncation"], alpha["width"])
        if not alpha.get("symbols"):
            raise ConfigError("alphabet.symbols is required without a family")
        symbols = tuple(_symbol(s) for s in alpha["symbols"])
        trans = _with_defaults(self.raw, "transitions")
        if trans.get("full") or "entries" not in trans:
            return full_shift(symbols)
        entries = [(_symbol(i), _symbol(j)) for i, j in trans["entries"]]
        return from_entries(symbols, entries)

    def hole_spec(self) -> Optional[HoleSpec]:
        holes = self.raw.get("holes")
        if not holes:
            return None
        closed = self.closed_structure()
        pairs = [(_symbol(i), _symbol(j)) for i, j in holes["entries"]]
        return HoleSpec.from_hole(closed, pairs)

    def open_structure(self) -> TransitionStructure:
        hole = self.hole_spec()
        return hole.open_ if hole is not None else self.closed_structure()

    # -- potential ----------------------------------------------------------------

    def _tail(self) -> Optional[TailModel]:
        if not _with_defaults(self.raw, "potential").get("tail"):
            return None
        tail = _with_defaults(self.raw, "potential", "tail")
        if tail["kind"] == "geometric":
            return TailModel.geometric(tail["coeff"], tail["ratio"])
        if tail["kind"] == "harmonic":
            return TailModel.harmonic(tail["coeff"])
        return TailModel.zero()

    def potential(self, on: Optional[TransitionStructure] = None) -> Potential:
        """Potential on the closed structure (or ``on`` when given)."""
        ts = on if on is not None else self.closed_structure()
        pot = _with_defaults(self.raw, "potential")
        if "weights" in pot:
            weights = {_word(k): float(v) for k, v in pot["weights"].items()}
            return potential_from_weights(weights, tail=self._tail())
        if pot.get("rule") == "renewal_log":
            spec = self.renewal_spec()
            from .applications import renewal_potential

            return renewal_potential(spec, ts)
        return constant_potential(ts, pot["constant"])

    def renewal_spec(self) -> "RenewalSpec":
        pot = _with_defaults(self.raw, "potential")
        if pot.get("rule") != "renewal_log":
            raise ConfigError("renewal analysis needs potential.rule = renewal_log")
        alpha = _with_defaults(self.raw, "alphabet")
        if alpha.get("family") != "renewal":
            raise ConfigError("renewal analysis needs alphabet.family = renewal")
        ra = pot["a_ratio"]
        rb = pot.get("b_ratio", ra)
        from .applications import RenewalSpec

        return RenewalSpec(
            a=lambda n: ra**n,
            b=lambda n: rb**n,
            truncation=alpha["truncation"],
            tail=TailModel.geometric(1.0, max(ra, rb)),
        )

    # -- other sections -------------------------------------------------------------

    def epsilons(self) -> tuple:
        eps = _with_defaults(self.raw)["epsilons"]
        if isinstance(eps, dict):
            eps = _with_defaults(eps, schema=_SCHEDULE)
            return tuple(eps["start"] * eps["ratio"] ** j for j in range(eps["count"]))
        return tuple(float(e) for e in eps)

    def test_cylinders(self) -> tuple:
        cyls = self.raw.get("test_cylinders")
        if cyls is None:
            ts = self.open_structure()
            return tuple(w for n in (1, 2, 3) for w in nonempty_cylinder_words(ts, n))
        return tuple(_word(c) for c in cyls)

    def gifs_spec(self) -> "GifsSpec":
        if "gifs" not in self.raw:
            raise ConfigError("dimension command needs a gifs section")
        from .applications import GifsEdge, GifsSpec

        g = _with_defaults(self.raw, "gifs")
        edges = tuple(
            GifsEdge(
                label=_symbol(e["label"]),
                source=_symbol(e["source"]),
                target=_symbol(e["target"]),
                ratio=float(e["ratio"]),
            )
            for e in g["edges"]
        )
        return GifsSpec(
            vertices=tuple(_symbol(v) for v in g["vertices"]),
            edges=edges,
            s_range=tuple(g["s_range"]),
        )

    def mc_params(self) -> dict:
        return _with_defaults(self.raw, "mc")


if __name__ == "__main__":
    # Prints the published docs/config_schema.json.
    import sys

    sys.stdout.write(json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True) + "\n")
