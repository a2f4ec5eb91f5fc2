"""Seeded config fuzzes: every command, run in-process on schema-valid
configs, exits 0, 2 or 3 as ``cli`` promises, and no ``report.json`` it
writes holds a NaN.  One draws explicit symbol tables, the other the
alphabet families and graph-directed IFS configs."""

import itertools
import json
import random
import shutil

from ruelle import cli

# Configs drawn; each runs all 8 commands.  The 960 runs take 3 to 5 s on
# a 2-core Xeon, inside a 10 s budget on a host that runs twice as slow.
CONFIGS = 120
# Family and GIFS configs drawn; their 240 runs take 2 to 3 s on the
# same host, inside a 5 s budget.
FAMILY_CONFIGS = 30


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


def allowed_pairs(family: str, truncation: int, width: int) -> list:
    """The transitions of a family's truncation, symbols 1..truncation."""
    syms = range(1, truncation + 1)
    if family == "renewal":
        return [[i, 1] for i in syms] + [[i, i + 1] for i in syms if i < truncation]
    return [[i, j] for i in syms for j in syms if family == "full" or abs(i - j) <= width]


def draw_family_or_gifs(rng: random.Random) -> dict:
    """One config: a renewal, full or banded family of truncation 2..60
    under a renewal_log or constant potential with optional holes, or a
    graph-directed IFS of 1..3 vertices and 1..6 edges of ratio
    U(0.05, 0.6); small run settings either way."""
    if rng.random() < 0.5:
        family, truncation = rng.choice(("renewal", "full", "banded")), rng.randint(2, 60)
        doc = {"alphabet": {"family": family, "truncation": truncation}}
        width = rng.randint(1, 3)
        if family == "banded":
            doc["alphabet"]["width"] = width
        # renewal_log is read on the renewal family only.
        if family == "renewal" and rng.random() < 0.7:
            doc["potential"] = {"rule": "renewal_log", "a_ratio": rng.uniform(0.05, 0.95)}
            if rng.random() < 0.5:
                doc["potential"]["b_ratio"] = rng.uniform(0.05, 0.95)
        else:
            doc["potential"] = {"constant": rng.choice((0, -1, 3, -700))}
        if rng.random() < 0.7:
            pairs = allowed_pairs(family, truncation, width)
            doc["holes"] = {"entries": rng.sample(pairs, rng.randint(1, min(3, len(pairs))))}
        doc["depth"] = rng.choice((None, 1, 2))
        doc["test_cylinders"] = [[rng.randint(1, truncation)]]
    else:
        # Half the graphs start with a cycle through every vertex.
        vertices, cycle = list(range(rng.randint(1, 3))), rng.random() < 0.5
        edges = []
        for e in range(rng.randint(1, 6)):
            if cycle and e < len(vertices):
                ends = (e, (e + 1) % len(vertices))
            else:
                ends = (rng.choice(vertices), rng.choice(vertices))
            edges.append({"label": e, "source": ends[0], "target": ends[1],
                          "ratio": rng.uniform(0.05, 0.6)})
        doc = {"gifs": {"vertices": vertices, "edges": edges}}
    doc["n_max"] = rng.choice((2, 3, 10))
    doc["mc"] = {"n": rng.choice((1, 2, 5)), "samples": 100}
    doc["max_iter"] = rng.choice((1, 50, 100000))
    doc["epsilons"] = {"ratio": 0.5, "count": 3}
    doc["seed"] = 1
    return doc


def failures_of(docs, tmp_path) -> list:
    """(command, config, exception or exit code) of every run that raised
    out of ``main``, exited other than 0, 2 or 3, or wrote a NaN."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    failures = []
    for doc in docs:
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
    return failures


def test_every_command_exits_0_2_or_3_and_writes_no_nan(tmp_path):
    rng = random.Random(20261020)
    failures = failures_of((draw(rng) for _ in range(CONFIGS)), tmp_path)
    assert not failures, failures


def test_family_and_gifs_configs_exit_0_2_or_3_and_write_no_nan(tmp_path):
    rng = random.Random(20261021)
    failures = failures_of((draw_family_or_gifs(rng) for _ in range(FAMILY_CONFIGS)), tmp_path)
    assert not failures, failures
