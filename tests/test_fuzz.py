"""A seeded config fuzz: every command, run in-process on schema-valid
configs, exits 0, 2 or 3 as ``cli`` promises, and no ``report.json`` it
writes holds a NaN."""

import itertools
import json
import random
import shutil

from ruelle import cli

# Configs drawn; each runs all 8 commands.  The 960 runs take 3 to 5 s on
# a 2-core Xeon, inside a 10 s budget on a host that runs twice as slow.
CONFIGS = 120


def draw(rng: random.Random) -> dict:
    """One config: up to 4 symbols, a full or random table, random holes,
    a constant or depth-1..3 weight potential, and small run settings."""
    syms = list(range(rng.randint(1, 4)))
    pairs = [[i, j] for i in syms for j in syms]
    doc = {"alphabet": {"symbols": syms}}
    if rng.random() < 0.3:
        doc["transitions"] = {"full": True}
    else:
        doc["transitions"] = {"entries": [p for p in pairs if rng.random() < 0.5]}
    doc["holes"] = {"entries": [p for p in pairs if rng.random() < 0.25]}
    if rng.random() < 0.5:
        doc["potential"] = {"constant": rng.choice((0, -1, 3, -700))}
    else:
        weights = {}
        for word in itertools.product(syms, repeat=rng.randint(1, 3)):
            value = rng.choice((0, -1, None))
            weights[",".join(map(str, word))] = rng.uniform(-50, 5) if value is None else value
        doc["potential"] = {"weights": weights}
    doc["n_max"] = rng.choice((2, 3, 10))
    doc["mc"] = {"n": rng.choice((1, 2, 5)), "samples": 100}
    doc["max_iter"] = rng.choice((1, 50, 100000))
    depth = rng.choice((None, 1, 2, 3))
    if depth is not None:
        doc["depth"] = depth
    doc["epsilons"] = {"ratio": 0.5, "count": 3}
    doc["test_cylinders"] = [[rng.choice(syms)]]
    doc["seed"] = 1
    return doc


def holds_nan(value) -> bool:
    """Whether a loaded report holds a NaN, which the bundle writes as "nan"."""
    if isinstance(value, dict):
        return any(holds_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(holds_nan(v) for v in value)
    return value == "nan" or (isinstance(value, float) and value != value)


def test_every_command_exits_0_2_or_3_and_writes_no_nan(tmp_path):
    rng = random.Random(20261020)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    failures = []
    for _ in range(CONFIGS):
        doc = draw(rng)
        cfg.write_text(json.dumps(doc))
        for command in cli.COMMANDS:
            try:
                code = cli.main([command, "--config", str(cfg), "--out", str(out)])
            except Exception as exc:  # a traceback out of main is the failure sought
                failures.append((command, doc, repr(exc)))
                continue
            report = out / "report.json"
            if code not in (0, 2, 3) or (report.exists() and holds_nan(json.loads(report.read_text()))):
                failures.append((command, doc, code))
            shutil.rmtree(out, ignore_errors=True)
    assert not failures, failures
