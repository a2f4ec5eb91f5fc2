"""System configuration: a JSON document describing the shift, the hole, the
potential and the run parameters, validated against a published schema.

The same document drives every subcommand; a command reads only the sections
it needs.  The canonical serialization (sorted keys, compact separators) is
hashed so that reports can prove which inputs produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import jsonschema

from .applications import GifsEdge, GifsSpec, RenewalSpec
from .errors import ConfigError
from .opensystem import HoleSpec
from .potentials import Potential, TailModel, constant_potential, potential_from_weights
from .shifts import (
    TransitionStructure,
    banded_structure,
    from_entries,
    full_shift,
    full_truncated,
    renewal_structure,
)

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
                "width": {"type": "integer", "minimum": 1},
            },
        },
        "transitions": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "entries": {
                    "type": "array",
                    "items": {"type": "array", "minItems": 2, "maxItems": 2},
                },
                "full": {"type": "boolean"},
            },
        },
        "holes": {
            "type": "object",
            "additionalProperties": False,
            "required": ["entries"],
            "properties": {
                "entries": {
                    "type": "array",
                    "items": {"type": "array", "minItems": 2, "maxItems": 2},
                }
            },
        },
        "potential": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "constant": {"type": "number"},
                "depth": {"type": "integer", "minimum": 1},
                "weights": {"type": "object", "additionalProperties": {"type": "number"}},
                "rule": {"enum": ["renewal_log"]},
                "a_ratio": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "b_ratio": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "tail": {
                    "type": "object",
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["geometric", "harmonic", "zero"]},
                        "coeff": {"type": "number"},
                        "ratio": {"type": "number"},
                    },
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
                },
            },
        },
        "theta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "k": {"type": "integer", "minimum": 1},
        "epsilons": {
            "anyOf": [
                {"type": "array", "items": {"type": "number", "exclusiveMinimum": 0}},
                {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["ratio", "count"],
                    "properties": {
                        "start": {"type": "number", "exclusiveMinimum": 0},
                        "ratio": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                        "count": {"type": "integer", "minimum": 1},
                    },
                },
            ]
        },
        "test_cylinders": {
            "type": "array",
            "items": {"type": "array", "items": {"type": ["integer", "string"]}},
        },
        "mc": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n": {"type": "integer", "minimum": 1},
                "samples": {"type": "integer", "minimum": 100},
            },
        },
        "n_max": {"type": "integer", "minimum": 2},
        "max_iter": {"type": "integer", "minimum": 1},
        "depth": {"type": ["integer", "null"], "minimum": 1},
        "tolerance": {"type": "number", "exclusiveMinimum": 0},
        "seed": {"type": "integer"},
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


@dataclass
class SystemConfig:
    """Validated configuration with lazily built domain objects."""

    raw: dict
    theta: float = 0.5
    k: int = 1
    n_max: int = 40
    tolerance: float = 1e-12
    seed: int = 0
    depth: Optional[int] = None
    max_iter: int = 100_000

    @staticmethod
    def from_dict(doc: dict) -> "SystemConfig":
        err = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
        if err is not None:
            path = "/".join(str(p) for p in err.absolute_path) or "<root>"
            raise ConfigError(f"config schema violation at {path}: {err.message}") from err
        return SystemConfig(
            raw=doc,
            theta=doc.get("theta", 0.5),
            k=doc.get("k", 1),
            n_max=doc.get("n_max", 40),
            tolerance=doc.get("tolerance", 1e-12),
            seed=doc.get("seed", 0),
            depth=doc.get("depth"),
            max_iter=doc.get("max_iter", 100_000),
        )

    @staticmethod
    def from_path(path) -> "SystemConfig":
        with open(path) as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return SystemConfig.from_dict(doc)

    # -- canonical form ------------------------------------------------------

    def canonical_json(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- structures ------------------------------------------------------------

    def closed_structure(self) -> TransitionStructure:
        alpha = self.raw.get("alphabet", {})
        family = alpha.get("family")
        if family == "renewal":
            return renewal_structure(alpha["truncation"])
        if family == "full":
            return full_truncated(alpha["truncation"])
        if family == "banded":
            return banded_structure(alpha["truncation"], alpha.get("width", 1))
        symbols = tuple(_symbol(s) for s in alpha.get("symbols", ()))
        if not symbols:
            raise ConfigError("alphabet.symbols is required without a family")
        trans = self.raw.get("transitions", {})
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
        pot = self.raw.get("potential", {})
        tail = pot.get("tail")
        if not tail:
            return None
        kind = tail.get("kind", "geometric")
        if kind == "geometric":
            return TailModel.geometric(tail.get("coeff", 1.0), tail["ratio"])
        if kind == "harmonic":
            return TailModel.harmonic(tail.get("coeff", 1.0))
        return TailModel.zero()

    def potential(self, on: Optional[TransitionStructure] = None) -> Potential:
        """Potential on the closed structure (or ``on`` when given)."""
        ts = on if on is not None else self.closed_structure()
        pot = self.raw.get("potential", {})
        if "weights" in pot:
            weights = {_word(k): float(v) for k, v in pot["weights"].items()}
            return potential_from_weights(weights, tail=self._tail())
        if pot.get("rule") == "renewal_log":
            spec = self.renewal_spec()
            from .applications import renewal_potential

            return renewal_potential(spec, ts)
        return constant_potential(ts, pot.get("constant", 0.0))

    def renewal_spec(self) -> RenewalSpec:
        pot = self.raw.get("potential", {})
        if pot.get("rule") != "renewal_log":
            raise ConfigError("renewal analysis needs potential.rule = renewal_log")
        alpha = self.raw.get("alphabet", {})
        if alpha.get("family") != "renewal":
            raise ConfigError("renewal analysis needs alphabet.family = renewal")
        ra = pot.get("a_ratio", 0.25)
        rb = pot.get("b_ratio", ra)
        return RenewalSpec(
            a=lambda n: ra**n,
            b=lambda n: rb**n,
            truncation=alpha["truncation"],
            tail=TailModel.geometric(1.0, max(ra, rb)),
        )

    # -- other sections -------------------------------------------------------------

    def epsilons(self) -> tuple:
        eps = self.raw.get("epsilons")
        if eps is None:
            return tuple(2.0**-j for j in range(0, 21))
        if isinstance(eps, dict):
            start = eps.get("start", 1.0)
            return tuple(start * eps["ratio"] ** j for j in range(eps["count"]))
        return tuple(float(e) for e in eps)

    def test_cylinders(self) -> tuple:
        cyls = self.raw.get("test_cylinders")
        if cyls is None:
            ts = self.open_structure()
            from .shifts import admissible_words

            out = []
            for n in (1, 2, 3):
                out.extend(w for w in admissible_words(ts, n) if ts.has_nonempty_cylinder(w))
            return tuple(out)
        return tuple(_word(c) for c in cyls)

    def gifs_spec(self) -> GifsSpec:
        g = self.raw.get("gifs")
        if not g:
            raise ConfigError("dimension command needs a gifs section")
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
            s_range=tuple(g.get("s_range", (0.0, 8.0))),
        )

    def mc_params(self) -> dict:
        mc = self.raw.get("mc", {})
        return {"n": mc.get("n", 10), "samples": mc.get("samples", 100_000)}
