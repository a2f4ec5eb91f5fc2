"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import contextlib
import io
import json
import math
import re
import time

import numpy as np
import pytest

from ruelle import (
    admissible_words,
    build_transfer_matrix,
    eigenvector_identity_check,
    escape_rate,
    extend_potential,
    gibbs_convergence_trace,
    lasota_yorke_check,
    monte_carlo_survival,
    perturbed_potential,
    potential_from_weights,
    renewal_analysis,
    rpf_triplet,
    small_eigenfunction,
    spectral_decomposition,
    survivor_mass,
    topological_pressure,
    variation,
    bowen_dimension,
    zero_potential,
)
from ruelle.cli import main as cli_main

from conftest import (
    PHI,
    f1,
    f2,
    f3,
    f3p,
    f4_spec,
    f5,
    golden_hole,
    golden_mu,
    period2_rich,
    random5_primitive,
)

GIFS_HALVES = {
    "vertices": ("v",),
    "edges": None,  # built in the test
}


def _ok(n, msg):
    print(f"[criterion {n:2d}] PASS  {msg}")


def test_criterion_1_rpf_correctness():
    cases = [
        ("full 2-shift", f1(), zero_potential(f1())),
        ("golden mean", f2(), zero_potential(f2())),
        ("two-cycle", f3(), zero_potential(f3())),
        ("three-cycle", f3p(), zero_potential(f3p())),
        ("random 5-state depth-2", *random5_primitive()),
    ]
    for name, ts, phi in cases:
        t0 = time.perf_counter()
        tm = build_transfer_matrix(ts, phi)
        trip = rpf_triplet(tm)
        assert trip.residual_g <= 1e-10, name
        assert trip.residual_nu <= 1e-10, name
        rep = topological_pressure(ts, phi, n_max=30)
        lo, hi = rep.bracket
        assert math.exp(lo) - 1e-12 <= trip.lam <= math.exp(hi) + 1e-12, name
        mid = math.exp(0.5 * (lo + hi))
        assert abs(trip.lam - mid) <= (math.exp(hi) - math.exp(lo)) + 1e-12, name
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{name} took {elapsed:.3f}s"
    _ok(1, "eigen-residuals below 1e-10 and radius inside the pressure bracket "
           "on all five fixtures, under a second each")


def test_criterion_2_peripheral_spectrum():
    cases = [
        ("golden mean p=1", f2(), zero_potential(f2())),
        ("two-cycle p=2", f3(), zero_potential(f3())),
        ("rich period-2", *period2_rich()),
        ("three-cycle p=3", f3p(), zero_potential(f3p())),
    ]
    for name, ts, phi in cases:
        tm = build_transfer_matrix(ts, phi, depth=1)
        dec = spectral_decomposition(tm)
        lam, p = dec.lam, dec.p
        eigs = np.linalg.eigvals(tm.dense())
        on_circle = [e for e in eigs if abs(abs(e) - lam) <= 1e-10 * max(lam, 1.0)]
        assert len(on_circle) == p, name
        for e in on_circle:
            assert min(abs(e - per.eigenvalue) for per in dec.peripherals) <= 1e-10, name
            # simplicity: one singular value of (L - e I) vanishes
            s = np.linalg.svd(tm.dense() - e * np.eye(tm.dim), compute_uv=False)
            assert sum(1 for v in s if v <= 1e-8 * max(lam, 1.0)) == 1, name
        recon_err = np.abs(dec.reconstruction() - tm.dense()).max()
        assert recon_err <= 1e-10 * max(lam, 1.0), name
        assert dec.remainder_radius < lam * (1.0 - 1e-3), name
    _ok(2, "periods 1, 2, 3: exactly p simple peripheral eigenvalues on the "
           "circle, reconstruction to 1e-10, remainder strictly inside")


def test_criterion_3_escape_rate():
    t0 = time.perf_counter()
    hole = golden_hole()
    phi = zero_potential(f1())
    rep = escape_rate(hole, phi, n_max=40)
    target = math.log(2.0) - math.log((1.0 + math.sqrt(5.0)) / 2.0)
    assert abs(rep.fitted_rate - target) <= 1e-4
    tm = build_transfer_matrix(hole.closed, phi, depth=1)
    trip = rpf_triplet(tm)
    exact = survivor_mass(hole, phi, trip, 10)
    est = monte_carlo_survival(hole, phi, trip, 10, 100_000, seed=20240501)
    assert abs(est.estimate - exact) <= 3.0 * est.stderr
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _ok(3, f"fitted rate {rep.fitted_rate:.7f} within 1e-4 of log 2 - log phi; "
           f"Monte Carlo at n=10 within {abs(est.estimate - exact) / est.stderr:.2f} "
           "standard errors of the exact mass")


def test_criterion_4_perturbation_program():
    hole = golden_hole()
    phi = zero_potential(f1())
    cyls = [
        w
        for n in (1, 2, 3)
        for w in admissible_words(f1(), n)
    ]
    inverse = [1.0 / j for j in range(1, 21)]
    dists = gibbs_convergence_trace(phi, hole, inverse, cyls).operator_distances
    assert len(dists) == 20
    for j, d in enumerate(dists, start=1):
        assert abs(d - math.exp(-j)) <= 1e-12, j
    eps = [2.0**-j for j in range(0, 21)]
    trace = gibbs_convergence_trace(phi, hole, eps, cyls)
    assert trace.monotone
    assert abs(trace.lams[-1] - PHI) <= 1e-6
    final = {w: None for w in cyls}
    # Recompute the final perturbed masses directly for the comparison.
    from ruelle import build_transfer_matrix as btm

    pe = perturbed_potential(phi, hole.closed, hole.open_, 2.0**-20)
    trip = rpf_triplet(btm(hole.closed, pe, depth=1))
    for w in cyls:
        assert abs(trip.mu_mass(w) - golden_mu(w)) <= 1e-6, w
    _ok(4, "operator distance equals exp(-j) to 1e-12 for j = 1..20, radii "
           "monotone with |lam(2^-20) - phi| <= 1e-6, depth-3 masses within "
           "1e-6 of the golden Markov values")


def test_criterion_5_extension():
    sub, amb = f2(), f1()
    phi = potential_from_weights({(0, 1): 0.45, (1, 0): -0.35, (1, 1): 0.2})
    ext = extend_potential(phi, sub, amb)
    for w in admissible_words(sub, 6):
        if sub.has_nonempty_cylinder(w):
            assert ext.value(w) == phi.value(w)  # exact
    assert max(abs(v) for v in ext.weights.values()) == max(
        abs(v) for v in phi.weights.values()
    )
    for n in range(1, 9):
        assert variation(ext, amb, n) == variation(phi, sub, n), n
    _ok(5, "extension agrees exactly on the subshift, preserves the sup norm "
           "and every variation up to depth 8")


def test_criterion_6_eigenvector_identity():
    hole = golden_hole()
    phi = zero_potential(f1())
    tm_open = build_transfer_matrix(hole.open_, phi, depth=1, index_structure=hole.closed)
    trip = rpf_triplet(tm_open)
    basis = [np.eye(tm_open.dim)[i] for i in range(tm_open.dim)]
    for eps in (1.0, 0.5, 0.25):
        pe = perturbed_potential(phi, hole.closed, hole.open_, eps)
        tme = build_transfer_matrix(hole.closed, pe, depth=1)
        trip_e = rpf_triplet(tme)
        rows = eigenvector_identity_check(
            tm_open.dense(), tme.dense(), trip, trip_e.nu, basis
        )
        for row in rows:
            assert row.residual <= 1e-10, (eps, row.vector)
    _ok(6, "perturbed-eigenvector identity holds to 1e-10 on a basis for "
           "eps in {1, 1/2, 1/4}")


def test_criterion_7_bowen_dimension():
    t0 = time.perf_counter()
    rep = bowen_dimension(f5(), tol=1e-10)
    assert abs(rep.root - math.log(2.0) / math.log(3.0)) <= 1e-8
    from ruelle import GifsEdge, GifsSpec

    halves = GifsSpec(
        vertices=("v",),
        edges=(GifsEdge("L", "v", "v", 0.5), GifsEdge("R", "v", "v", 0.5)),
    )
    rep2 = bowen_dimension(halves, tol=1e-10)
    assert abs(rep2.root - 1.0) <= 1e-8
    for r in (rep, rep2):
        ps = [p for _, p in r.pressure_samples]
        assert all(b < a for a, b in zip(ps, ps[1:]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(7, f"dimension {rep.root:.10f} matches log2/log3 to 1e-8 and the "
           "equal-halves pair returns 1; sampled pressures strictly decrease")


def test_criterion_8_renewal():
    rep = renewal_analysis(f4_spec(30))
    assert abs(rep.lam_matrix - rep.lam_scalar) < 1e-10
    assert abs(rep.lam_matrix - rep.lam_scalar) <= max(rep.truncation_tail_bound, 1e-10)
    assert rep.cohomology_residual < 1e-8
    # The reversal kernel's row-sum report is emitted with its documented
    # defect; the columns are the stochastic direction.
    assert set(rep.row_sums) == set(range(1, 31))
    for i in range(1, 30):
        assert rep.row_sums[i] == pytest.approx(1.0 + rep.kernel[(i, 1)], abs=1e-12)
    assert rep.column_sums[1] == pytest.approx(1.0, abs=1e-10)
    assert any("column-stochastic" in note for note in rep.notes)
    _ok(8, "renewal radius agrees across the scalar and matrix routes to "
           f"{abs(rep.lam_matrix - rep.lam_scalar):.2e}; cohomology residual "
           f"{rep.cohomology_residual:.2e}; row-sum report emitted")


def test_criterion_9_lasota_yorke():
    hole = golden_hole()
    phi = zero_potential(f1())
    tm_closed = build_transfer_matrix(hole.closed, phi, depth=4)
    trip0 = rpf_triplet(tm_closed)
    tm_open = build_transfer_matrix(hole.open_, phi, depth=4, index_structure=hole.closed)
    rng = np.random.default_rng(24680)
    samples = [rng.uniform(-1.0, 1.0, size=tm_open.dim) for _ in range(20)]
    rep = lasota_yorke_check(
        tm_open, phi, phi, trip0, samples, m_values=range(4, 17), k=1, theta=0.5
    )
    bound = math.log(0.5) + 0.05
    for slope in rep.seminorm_slopes:
        assert slope <= bound
    assert rep.all_hold
    assert math.isfinite(rep.c_l1) and math.isfinite(rep.c_sem)
    _ok(9, f"two-term bound holds with fitted constants ({rep.c_l1:.2f}, "
           f"{rep.c_sem:.2f}); seminorm slopes all below log theta + 0.05 "
           f"({rep.collapsed}/20 collapse to exact zero at these depths)")


def test_criterion_10_small_disc_eigenfunctions():
    tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=1)
    trip = rpf_triplet(tm)
    rep = small_eigenfunction(tm, trip, p_value=0.3, m=4, theta=0.5, n_points=50)
    assert len(rep.residuals) == 50
    assert rep.max_residual <= 1e-6
    _ok(10, f"series eigenfunction at p = 0.3 has pointwise residual "
            f"{rep.max_residual:.2e} on 50 eventually periodic points")


def test_criterion_11_determinism(tmp_path):
    golden_cfg = {
        "alphabet": {"symbols": [0, 1]},
        "transitions": {"full": True},
        "holes": {"entries": [[0, 0]]},
        "potential": {"constant": 0.0},
        "theta": 0.5,
        "k": 1,
        "n_max": 30,
        "tolerance": 1e-12,
        "seed": 424242,
        "mc": {"n": 10, "samples": 10000},
        "epsilons": [1.0, 0.25, 0.0009765625],
    }
    renewal_cfg = {
        "alphabet": {"family": "renewal", "truncation": 20},
        "potential": {"rule": "renewal_log", "a_ratio": 0.25},
        "seed": 11,
    }
    gifs_cfg = {
        "gifs": {
            "vertices": ["v"],
            "edges": [
                {"label": "L", "source": "v", "target": "v", "ratio": 1 / 3},
                {"label": "R", "source": "v", "target": "v", "ratio": 1 / 3},
            ],
        },
        "seed": 12,
    }
    runs = [
        ("classify", golden_cfg),
        ("pressure", golden_cfg),
        ("rpf", golden_cfg),
        ("spectrum", golden_cfg),
        ("escape", golden_cfg),
        ("perturb", golden_cfg),
        ("dimension", gifs_cfg),
        ("renewal", renewal_cfg),
    ]
    strip = lambda text: re.sub(r'^\s*"timestamp": .*$', "", text, flags=re.M)
    for cmd, doc in runs:
        cfgp = tmp_path / f"{cmd}.json"
        cfgp.write_text(json.dumps(doc))
        o1, o2 = tmp_path / f"{cmd}_1", tmp_path / f"{cmd}_2"
        with contextlib.redirect_stdout(io.StringIO()):
            rc1 = cli_main([cmd, "--config", str(cfgp), "--out", str(o1)])
            rc2 = cli_main([cmd, "--config", str(cfgp), "--out", str(o2)])
        assert rc1 == 0 and rc2 == 0, cmd
        r1 = (o1 / "report.json").read_text()
        r2 = (o2 / "report.json").read_text()
        assert strip(r1) == strip(r2), cmd
        for c1 in sorted(o1.glob("*.csv")):
            assert c1.read_bytes() == (o2 / c1.name).read_bytes(), (cmd, c1.name)
    _ok(11, "all eight commands re-run byte-identically modulo the timestamp")
