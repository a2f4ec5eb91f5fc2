import json
import re
from pathlib import Path

import jsonschema
import pytest

from ruelle import ConfigError, SystemConfig
from ruelle.cli import main
from ruelle.config import CONFIG_SCHEMA

GOLDEN = {
    "alphabet": {"symbols": [0, 1]},
    "transitions": {"full": True},
    "holes": {"entries": [[0, 0]]},
    "potential": {"constant": 0.0},
    "theta": 0.5,
    "k": 1,
    "n_max": 40,
    "tolerance": 1e-12,
    "seed": 20240501,
    "mc": {"n": 10, "samples": 20000},
}


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def strip_timestamp(text: str) -> str:
    return re.sub(r'^\s*"timestamp": .*$', "", text, flags=re.M)


class TestConfig:
    def test_round_trip_and_hash_stability(self, tmp_path):
        p = write_config(tmp_path, GOLDEN)
        a = SystemConfig.from_path(p)
        b = SystemConfig.from_dict(json.loads(p.read_text()))
        assert a.config_hash() == b.config_hash()
        assert a.closed_structure().entries == b.closed_structure().entries

    def test_schema_violation_names_the_field(self):
        bad = dict(GOLDEN)
        bad["theta"] = 2.0
        with pytest.raises(ConfigError) as exc:
            SystemConfig.from_dict(bad)
        assert "theta" in str(exc.value)

    def test_undeclared_symbol_in_entries(self):
        bad = {
            "alphabet": {"symbols": [0, 1]},
            "transitions": {"entries": [[0, 2]]},
            "potential": {"constant": 0.0},
        }
        cfg = SystemConfig.from_dict(bad)
        with pytest.raises(ConfigError) as exc:
            cfg.closed_structure()
        assert "2" in str(exc.value)

    def test_published_schema_is_the_validated_one(self):
        doc = Path(__file__).resolve().parent.parent / "docs" / "config_schema.json"
        assert json.loads(doc.read_text()) == CONFIG_SCHEMA

    def test_config_schema_is_a_valid_schema(self):
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)

    def test_schema_messages_match_jsonschema_validate(self):
        bads = [
            dict(GOLDEN, theta=2.0),
            dict(GOLDEN, theta="half"),
            dict(GOLDEN, tolerance=0),
            dict(GOLDEN, seed=1.5),
            dict(GOLDEN, alphabet={"symbols": "ab"}),
            [],
        ]
        for bad in bads:
            with pytest.raises(jsonschema.ValidationError) as ref:
                jsonschema.validate(bad, CONFIG_SCHEMA)
            path = "/".join(str(p) for p in ref.value.absolute_path) or "<root>"
            with pytest.raises(ConfigError) as exc:
                SystemConfig.from_dict(bad)
            assert str(exc.value) == f"config schema violation at {path}: {ref.value.message}"

    def test_epsilon_schedules(self):
        cfg = SystemConfig.from_dict({"epsilons": {"ratio": 0.5, "count": 3}})
        assert cfg.epsilons() == (1.0, 0.5, 0.25)
        cfg = SystemConfig.from_dict({"epsilons": [0.5, 0.125]})
        assert cfg.epsilons() == (0.5, 0.125)


class TestCli:
    def test_escape_runs_and_reports(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, GOLDEN)
        rc = main(["escape", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["command"] == "escape"
        assert doc["results"]["monte_carlo"]["samples"] == 20000
        assert (tmp_path / "out" / "survivor_masses.csv").exists()

    def test_determinism_modulo_timestamp(self, tmp_path):
        cfgp = write_config(tmp_path, GOLDEN)
        for cmd in ("classify", "rpf", "escape", "spectrum", "pressure"):
            out1 = tmp_path / f"{cmd}1"
            out2 = tmp_path / f"{cmd}2"
            assert main([cmd, "--config", str(cfgp), "--out", str(out1)]) == 0
            assert main([cmd, "--config", str(cfgp), "--out", str(out2)]) == 0
            t1 = (out1 / "report.json").read_text()
            t2 = (out2 / "report.json").read_text()
            assert strip_timestamp(t1) == strip_timestamp(t2)
            for csv1 in out1.glob("*.csv"):
                assert csv1.read_bytes() == (out2 / csv1.name).read_bytes()

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = dict(GOLDEN)
        bad["theta"] = -1.0
        cfgp = write_config(tmp_path, bad)
        rc = main(["rpf", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "theta" in capsys.readouterr().err

    def test_missing_section_exit_code(self, tmp_path, capsys):
        doc = {"alphabet": {"symbols": [0, 1]}, "transitions": {"full": True}}
        cfgp = write_config(tmp_path, doc)
        rc = main(["escape", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        assert rc == 3

    def test_seed_override_changes_hash(self, tmp_path):
        cfgp = write_config(tmp_path, GOLDEN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["escape", "--config", str(cfgp), "--out", str(out1), "--seed", "1"]) == 0
        assert main(["escape", "--config", str(cfgp), "--out", str(out2), "--seed", "2"]) == 0
        d1 = json.loads((out1 / "report.json").read_text())
        d2 = json.loads((out2 / "report.json").read_text())
        assert d1["config_hash"] != d2["config_hash"]
        assert d1["seed"] == 1 and d2["seed"] == 2

    def test_report_is_one_document_with_the_timestamp_last(self, tmp_path):
        cfgp = write_config(tmp_path, GOLDEN)
        assert main(["rpf", "--config", str(cfgp), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "report.json").read_text()
        doc = json.loads(text)
        assert list(doc)[-1] == "timestamp"
        assert text == json.dumps(doc, indent=2) + "\n"

    def test_dimension_command(self, tmp_path):
        doc = {
            "gifs": {
                "vertices": ["v"],
                "edges": [
                    {"label": "L", "source": "v", "target": "v", "ratio": 1 / 3},
                    {"label": "R", "source": "v", "target": "v", "ratio": 1 / 3},
                ],
                "s_range": [0.0, 4.0],
            }
        }
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "dim"
        assert main(["dimension", "--config", str(cfgp), "--out", str(out)]) == 0
        doc = json.loads((out / "report.json").read_text())
        import math

        assert doc["results"]["dimension"] == pytest.approx(
            math.log(2) / math.log(3), abs=1e-8
        )

    def test_perturb_command(self, tmp_path):
        doc = dict(GOLDEN)
        doc["epsilons"] = [1.0, 0.25, 2.0**-20]
        doc["test_cylinders"] = [[0], [1], [0, 1], [1, 1, 0]]
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "pert"
        assert main(["perturb", "--config", str(cfgp), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["monotone"] is True
        assert rep["results"]["mass_distances"][-1] <= 1e-6

    def test_renewal_command(self, tmp_path):
        doc = {
            "alphabet": {"family": "renewal", "truncation": 25},
            "potential": {"rule": "renewal_log", "a_ratio": 0.25},
            "seed": 5,
        }
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "ren"
        assert main(["renewal", "--config", str(cfgp), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["lam_difference"] <= 1e-10
        assert (out / "kernel.csv").exists()
