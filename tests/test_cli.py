import dataclasses
import hashlib
import json
import math
import re
from pathlib import Path

import jsonschema
import pytest

from ruelle import ConfigError, ConvergenceError, SystemConfig, cli
from ruelle.cli import main
from ruelle.config import CONFIG_SCHEMA
from ruelle.potentials import DEFAULT_THETA
from ruelle.transfer import DEFAULT_MAX_ITER, DEFAULT_TOL

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


def declared_defaults(schema):
    """Every subschema of ``schema`` that declares a ``"default"``."""
    if isinstance(schema, dict):
        if "default" in schema:
            yield schema
        for sub in schema.values():
            yield from declared_defaults(sub)
    elif isinstance(schema, list):
        for sub in schema:
            yield from declared_defaults(sub)


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

    def test_published_schema_is_generated_by_the_config_module(self):
        import os
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        out = subprocess.run(
            [sys.executable, "-m", "ruelle.config"],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            check=True,
        )
        assert out.stdout == (root / "docs" / "config_schema.json").read_bytes()

    def test_schema_command_writes_nothing_to_stderr(self):
        # ruelle/__init__ loads the config module lazily, so running it as
        # __main__ draws no runpy warning; importing ruelle skips jsonschema.
        import os
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = subprocess.run(
            [sys.executable, "-m", "ruelle.config"], capture_output=True, env=env, check=True
        )
        assert out.stderr == b""
        assert out.stdout == (root / "docs" / "config_schema.json").read_bytes()
        probe = "import sys, ruelle; print('jsonschema' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, env=env, check=True, text=True
        )
        assert out.stdout.strip() == "False"

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

    def test_every_declared_default_meets_its_own_subschema(self):
        subs = list(declared_defaults(CONFIG_SCHEMA))
        assert len(subs) >= 17
        for sub in subs:
            jsonschema.validate(sub["default"], sub)

    def test_empty_document_takes_each_run_field_from_the_schema(self):
        cfg = SystemConfig.from_dict({})
        assert cfg.raw == {}
        for field in dataclasses.fields(SystemConfig):
            if field.name != "raw":
                default = CONFIG_SCHEMA["properties"][field.name]["default"]
                assert getattr(cfg, field.name) == default
        assert (cfg.theta, cfg.tolerance, cfg.max_iter) == (
            DEFAULT_THETA,
            DEFAULT_TOL,
            DEFAULT_MAX_ITER,
        )
        assert cfg.mc_params() == {"n": 10, "samples": 100_000}

    def test_empty_document_hashes_as_an_empty_object(self):
        cfg = SystemConfig.from_dict({})
        assert cfg.config_hash() == hashlib.sha256(b"{}").hexdigest()

    def test_default_epsilon_schedule_halves_from_one(self):
        assert SystemConfig.from_dict({}).epsilons() == tuple(2.0**-j for j in range(21))


class TestCli:
    def test_escape_runs_and_reports(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, GOLDEN)
        rc = main(["escape", "--config", str(cfgp), "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["command"] == "escape"
        assert doc["results"]["monte_carlo"]["samples"] == 20000
        assert (tmp_path / "out" / "survivor_masses.csv").exists()

    def test_escape_refuses_a_sample_length_past_n_max(self, tmp_path, capsys):
        cfgp = write_config(tmp_path, GOLDEN)
        out = tmp_path / "escape"
        assert main(["escape", "--config", str(cfgp), "--out", str(out), "--n-max", "5"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: mc.n = 10 exceeds n_max = 5")
        assert "Traceback" not in err and not out.exists()

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

    @pytest.mark.parametrize("tail", [{"kind": "geometric"}, {"coeff": 2.0}])
    def test_geometric_tail_without_ratio_exits_3(self, tmp_path, capsys, tail):
        doc = {
            "alphabet": {"symbols": [0, 1]},
            "potential": {"weights": {"0": 0.0, "1": -1.0}, "tail": tail},
        }
        cfgp = write_config(tmp_path, doc)
        rc = main(["rpf", "--config", str(cfgp), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error: config schema violation at potential/tail")
        assert "'ratio' is a required property" in err
        assert not (tmp_path / "o").exists()

    def test_seed_override_changes_hash(self, tmp_path):
        cfgp = write_config(tmp_path, GOLDEN)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["escape", "--config", str(cfgp), "--out", str(out1), "--seed", "1"]) == 0
        assert main(["escape", "--config", str(cfgp), "--out", str(out2), "--seed", "2"]) == 0
        d1 = json.loads((out1 / "report.json").read_text())
        d2 = json.loads((out2 / "report.json").read_text())
        assert d1["config_hash"] != d2["config_hash"]
        assert d1["seed"] == 1 and d2["seed"] == 2

    @pytest.mark.parametrize(
        "command, flag, value, field",
        [("pressure", "--n-max", "1", "n_max"), ("rpf", "--tol", "-1", "tolerance")],
    )
    def test_overrides_meet_the_schema(self, tmp_path, capsys, command, flag, value, field):
        cfgp = write_config(tmp_path, GOLDEN)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfgp), "--out", str(out), flag, value]) == 3
        assert f"violation at {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, doc, path",
        [
            (["--tol", "nan"], {}, "tolerance"),
            (["--tol", "inf"], {}, "tolerance"),
            ([], {"tolerance": math.nan}, "tolerance"),
            ([], {"theta": math.nan}, "theta"),
            ([], {"epsilons": [0.5, math.inf]}, "epsilons/1"),
        ],
        ids=["tol-nan", "tol-inf", "json-nan-tolerance", "json-nan-theta", "json-inf-epsilon"],
    )
    def test_non_finite_number_exits_3(self, tmp_path, capsys, flags, doc, path):
        # The schema's ranges let NaN through; json writes and reads NaN and
        # Infinity as bare tokens.
        cfgp = write_config(tmp_path, {**GOLDEN, **doc})
        out = tmp_path / "o"
        assert main(["rpf", "--config", str(cfgp), "--out", str(out), *flags]) == 3
        assert capsys.readouterr().err.startswith(f"error: config number at {path} is not finite")
        assert not out.exists()

    def test_override_on_a_document_that_is_not_an_object(self, tmp_path, capsys):
        cfgp = tmp_path / "list.json"
        cfgp.write_text("[]")
        out = tmp_path / "o"
        assert main(["rpf", "--config", str(cfgp), "--out", str(out), "--seed", "1"]) == 3
        assert "schema violation" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            # One symbol without a transition: no component carries a cycle.
            ("spectrum", {"alphabet": {"symbols": [0]}, "transitions": {"entries": []}},
             "no component carries a cycle"),
            # Two self-loops, one of them the hole: the survivors die after
            # one step, so no log-mass past the first is finite.
            ("escape", {"alphabet": {"symbols": [0, 1]},
                        "transitions": {"entries": [[0, 0], [1, 1]]},
                        "holes": {"entries": [[0, 0]]},
                        "potential": {"weights": {"0": -1, "1": -6}},
                        "mc": {"n": 2, "samples": 100}},
             "survivor masses vanish"),
        ],
    )
    def test_degenerate_system_exits_3(self, tmp_path, capsys, command, doc, message):
        cfgp = write_config(tmp_path, doc)
        assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3
        assert message in capsys.readouterr().err

    # Every weight at -700: the 2-cycle {1, 2} and the loop {3} both have
    # radius e^-700, a real tie.  Unscaled, the 2-cycle's loop would take
    # L^2 u = e^-1400 u, which underflows to the zero vector.
    TIED_AT_MINUS_700 = {
        "alphabet": {"symbols": [0, 1, 2, 3]},
        "transitions": {"entries": [[0, 1], [0, 3], [1, 2], [2, 1], [3, 2], [3, 3]]},
        "holes": {"entries": []},
        "potential": {"constant": -700},
        "n_max": 10,
        "mc": {"n": 2, "samples": 100},
        "epsilons": {"ratio": 0.5, "count": 3},
        "test_cylinders": [[1]],
    }

    @pytest.mark.parametrize("command", ["rpf", "perturb", "escape", "spectrum"])
    def test_tie_at_minus_700_exits_3(self, tmp_path, capsys, command):
        cfgp = write_config(tmp_path, self.TIED_AT_MINUS_700)
        assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3
        assert "error: non-unique dominant" in capsys.readouterr().err

    def test_pressure_at_minus_700_reports_the_tied_radius(self, tmp_path):
        cfgp = write_config(tmp_path, self.TIED_AT_MINUS_700)
        out = tmp_path / "o"
        assert main(["pressure", "--config", str(cfgp), "--out", str(out)]) == 0
        spectral = json.loads((out / "report.json").read_text())["results"]["pressure"]["spectral"]
        assert spectral == pytest.approx(-700.0, rel=1e-12)

    def test_weight_below_the_normal_range(self, tmp_path):
        # Symbol 3 at -710: its loop's only entry, e^-710, is subnormal, and
        # the 2-cycle's radius e^-700 dominates.
        weights = {"0": -700, "1": -700, "2": -700, "3": -710}
        doc = dict(self.TIED_AT_MINUS_700, potential={"weights": weights})
        cfgp = write_config(tmp_path, doc)
        for command in ("rpf", "pressure"):
            assert main([command, "--config", str(cfgp), "--out", str(tmp_path / command)]) == 0
        rpf = json.loads((tmp_path / "rpf" / "report.json").read_text())["results"]
        assert rpf["lam"] == pytest.approx(math.exp(-700.0), rel=1e-12)
        pressure = json.loads((tmp_path / "pressure" / "report.json").read_text())["results"]
        assert pressure["pressure"]["spectral"] == pytest.approx(-700.0, rel=1e-12)

    def test_period_three_at_minus_700_writes_no_nan(self, tmp_path):
        # Solved at depth 1 and lifted to depth 3; unscaled, the period-3
        # loop's L^3 u = e^-2100 u underflows and leaves NaN residuals.
        doc = {
            "alphabet": {"symbols": [0, 1, 2]},
            "transitions": {"entries": [[0, 1], [1, 2], [2, 0]]},
            "potential": {"constant": -700},
            "depth": 3,
        }
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["rpf", "--config", str(cfgp), "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["results"]["period_used"] == 3
        assert rep["results"]["log_lam"] == pytest.approx(-700.0, rel=1e-12)
        for residual in rep["results"]["residuals"].values():
            assert isinstance(residual, float) and residual <= 1e-11

    def test_radius_below_the_float_range_exits_3(self, tmp_path, capsys):
        # At -745 each entry is the least subnormal, 5e-324: the scaled loop
        # finds the pair, but no Rayleigh quotient holds the radius e^-745.
        doc = {
            "alphabet": {"symbols": [0, 1]},
            "transitions": {"entries": [[0, 1], [1, 0]]},
            "potential": {"constant": -745},
        }
        cfgp = write_config(tmp_path, doc)
        assert main(["rpf", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3
        assert "spectral radius underflows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pressure", "rpf", "spectrum"])
    def test_weight_above_the_float_range_exits_3(self, tmp_path, capsys, command):
        # e^710 is past the largest float, about e^709.78.
        doc = {
            "alphabet": {"symbols": [0, 1]},
            "transitions": {"full": True},
            "potential": {"weights": {"0": 710, "1": 0}},
        }
        cfgp = write_config(tmp_path, doc)
        assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 3
        assert "error: weight 710.0 for (0,) exceeds" in capsys.readouterr().err

    def test_survivors_on_words_of_mass_zero_log_minus_inf(self, tmp_path):
        # The third step's survivors live only on words where the closed nu
        # is 0: their mass is 0, logged as -inf.
        doc = {
            "alphabet": {"symbols": [0, 1, 2, 3]},
            "transitions": {
                "entries": [[0, 0], [0, 1], [1, 0], [1, 2], [1, 3], [2, 0], [2, 3], [3, 3]]
            },
            "holes": {"entries": [[0, 0], [1, 0], [1, 2]]},
            "potential": {"constant": 3},
            "depth": 3,
            "n_max": 3,
            "mc": {"n": 2, "samples": 100},
        }
        cfgp = write_config(tmp_path, doc)
        out = tmp_path / "o"
        assert main(["escape", "--config", str(cfgp), "--out", str(out)]) == 0
        rows = (out / "survivor_masses.csv").read_text().splitlines()
        assert rows[-1] == "3,-inf,0.0"

    def test_spectrum_honours_max_iter(self, tmp_path, capsys):
        root = Path(__file__).resolve().parents[1]
        doc = json.loads((root / "configs" / "golden_hole.json").read_text())
        cfgp = write_config(tmp_path, dict(doc, max_iter=1))
        for command in ("rpf", "spectrum"):
            out = tmp_path / command
            assert main([command, "--config", str(cfgp), "--out", str(out)]) == 2
        assert "cap of 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["rpf", "spectrum", "pressure", "escape", "perturb"])
    def test_capped_command_writes_a_flagged_bundle(self, tmp_path, command):
        root = Path(__file__).resolve().parents[1]
        doc = json.loads((root / "configs" / "golden_hole.json").read_text())
        cfgp = write_config(tmp_path, dict(doc, max_iter=1))
        out = tmp_path / command
        assert main([command, "--config", str(cfgp), "--out", str(out)]) == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["converged"] is False
        assert "cap of 1" in rep["results"]["warning"]

    @pytest.mark.parametrize("command", ["rpf", "spectrum", "pressure", "escape", "perturb"])
    def test_capped_command_prints_its_error(self, tmp_path, capsys, command):
        root = Path(__file__).resolve().parents[1]
        doc = json.loads((root / "configs" / "golden_hole.json").read_text())
        cfgp = write_config(tmp_path, dict(doc, max_iter=1))
        assert main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("non-converged:")

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_partial_results_survive_a_convergence_error(self, tmp_path, monkeypatch, command):
        def stub(bundle, cfg):
            bundle.results["filled"] = 1.5
            raise ConvergenceError("stub loop hit its cap")

        monkeypatch.setitem(cli.COMMANDS, command, stub)
        cfgp = write_config(tmp_path, GOLDEN)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfgp), "--out", str(out)]) == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["command"] == command
        assert rep["converged"] is False
        assert rep["results"] == {"filled": 1.5, "warning": "stub loop hit its cap"}

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

    @pytest.mark.parametrize("field", ["epsilons", "test_cylinders"])
    def test_perturb_empty_array_exits_3(self, tmp_path, capsys, field):
        cfgp = write_config(tmp_path, dict(GOLDEN, **{field: []}))
        out = tmp_path / "pert"
        assert main(["perturb", "--config", str(cfgp), "--out", str(out)]) == 3
        assert f"config schema violation at {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word", [[5], ["a"]])
    def test_perturb_cylinder_outside_the_alphabet_exits_3(self, tmp_path, capsys, word):
        cfgp = write_config(tmp_path, dict(GOLDEN, test_cylinders=[[0], word]))
        assert main(["perturb", "--config", str(cfgp), "--out", str(tmp_path / "pert")]) == 3
        assert f"test cylinder {tuple(word)!r}" in capsys.readouterr().err

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

    def test_shipped_spectra_leave_scipy_sparse_linalg_unloaded(self, tmp_path):
        # The shipped configs are all below the dense limit of the remainder
        # radius, and the operators they meet that are not known irreducible
        # (`perturb`'s L_eps whose hole weights underflow) have no cyclic
        # block outside the dominant one, so the block route needs no sparse
        # LU: neither the import nor any of the eight commands on them loads
        # the package of ARPACK and of the LU.
        import os
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        code = (
            "import runpy, sys\n"
            "import ruelle\n"
            "out, configs = sys.argv[1], sys.argv[2:]\n"
            "seen = ['scipy.sparse.linalg' in sys.modules]\n"
            "for i, cfg in enumerate(configs):\n"
            f"    for cmd in {sorted(cli.COMMANDS)}:\n"
            "        sys.argv = ['ruelle', cmd, '--config', cfg, '--out', f'{out}/{cmd}{i}']\n"
            "        try:\n"
            "            runpy.run_module('ruelle.cli', run_name='__main__', alter_sys=True)\n"
            "        except SystemExit:\n"
            "            pass\n"
            "        seen.append('scipy.sparse.linalg' in sys.modules)\n"
            "print(seen)\n"
        )
        configs = sorted(str(p) for p in (root / "configs").glob("*.json"))
        out = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path), *configs],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            check=True,
        )
        assert len(configs) == 4 and len(cli.COMMANDS) == 8
        assert len(list(tmp_path.glob("spectrum*/report.json"))) == 3  # cantor_ifs has none
        assert len(list(tmp_path.glob("perturb*/report.json"))) >= 1
        assert out.stdout.splitlines()[-1] == str([False] * 33)

    @pytest.mark.parametrize(
        "config", sorted(p.name for p in (Path(__file__).resolve().parents[1] / "configs").glob("*.json"))
    )
    def test_classify_loads_neither_scipy_nor_the_operator_layers(self, tmp_path, config):
        # `classify` reads only the config and the shift's combinatorics, so a
        # fresh process that runs it never imports the transfer layer, and so
        # no scipy; the cantor_ifs config has no alphabet and exits 3.
        import os
        import subprocess
        import sys

        root = Path(__file__).resolve().parents[1]
        code = (
            "import runpy, sys\n"
            "sys.argv = ['ruelle', 'classify', '--config', sys.argv[1], '--out', sys.argv[2]]\n"
            "try:\n"
            "    runpy.run_module('ruelle.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "print(code, 'scipy' in sys.modules, 'ruelle.transfer' in sys.modules)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(root / "configs" / config), str(tmp_path / "out")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
            check=True,
        )
        exit_code = 3 if config == "cantor_ifs.json" else 0
        assert out.stdout.splitlines()[-1] == f"{exit_code} False False"


def test_import_loads_only_the_numpy_layers_and_resolves_every_name():
    # `import ruelle` loads errors, shifts and potentials; every other
    # exported name loads its module on first access, and each one is
    # listed by dir().
    import os
    import subprocess
    import sys

    import ruelle

    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import ruelle\n"
        "print(sorted(m for m in sys.modules if m.startswith(('ruelle', 'scipy', 'jsonschema'))))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True,
    )
    assert out.stdout.strip() == str(["ruelle", "ruelle.errors", "ruelle.potentials", "ruelle.shifts"])
    for name in ruelle.__all__:
        getattr(ruelle, name)  # an AttributeError fails the test
    assert set(ruelle.__all__) <= set(dir(ruelle))
    assert {"classify", "rpf_triplet", "SystemConfig"} <= set(ruelle.__all__)
    # Resolved names are not copied into the package, so a patched module
    # attribute is what the package returns.
    assert "rpf_triplet" not in vars(ruelle) and "SystemConfig" not in vars(ruelle)
