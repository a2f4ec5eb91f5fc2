"""Cross-module invariants: positivity, supports, and the non-converged
reporting path."""

import json
import math

import numpy as np
import pytest

from ruelle import (
    ConvergenceError,
    build_transfer_matrix,
    potential_from_weights,
    rpf_triplet,
    zero_potential,
)
from ruelle.cli import main as cli_main

from conftest import f1, f2, f3, f3p, period2_rich, random5_primitive


class TestPositivity:
    def test_eigen_data_positive_on_irreducible_fixtures(self):
        cases = [
            (f1(), zero_potential(f1())),
            (f2(), zero_potential(f2())),
            (f3(), zero_potential(f3())),
            (f3p(), zero_potential(f3p())),
            period2_rich(),
            random5_primitive(),
        ]
        for ts, phi in cases:
            for depth in (1, 2):
                trip = rpf_triplet(build_transfer_matrix(ts, phi, depth=depth))
                # The eigenvector charges every admissible cylinder and the
                # eigenfunction is positive on every symbol cylinder.
                assert float(trip.nu.min()) > 0.0
                assert float(trip.g.min()) > 0.0


class TestNonConvergedPath:
    def test_convergence_error_carries_partial(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=1)
        with pytest.raises(ConvergenceError) as exc:
            rpf_triplet(tm, tol=1e-18, max_iter=500)
        partial = exc.value.partial
        assert partial is not None
        assert not partial.converged
        assert partial.lam == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)

    def test_cli_writes_partial_bundle_with_exit_two(self, tmp_path):
        doc = {
            "alphabet": {"symbols": [0, 1]},
            "transitions": {"full": True},
            "holes": {"entries": [[0, 0]]},
            "potential": {"constant": 0.0},
            "tolerance": 1e-18,
            "max_iter": 500,
            "seed": 1,
        }
        cfgp = tmp_path / "cfg.json"
        cfgp.write_text(json.dumps(doc))
        out = tmp_path / "out"
        rc = cli_main(["rpf", "--config", str(cfgp), "--out", str(out)])
        assert rc == 2
        rep = json.loads((out / "report.json").read_text())
        assert rep["converged"] is False
        assert "warning" in rep["results"]
        assert rep["results"]["lam"] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)
