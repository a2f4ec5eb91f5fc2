import cmath
import math
import tracemalloc

import numpy as np
import pytest

from ruelle import (
    ConvergenceError,
    NonUniqueDominantError,
    PreconditionError,
    admissible_words,
    banded_structure,
    build_transfer_matrix,
    cone_contraction_constant,
    cone_membership,
    component_decomposition,
    from_entries,
    gibbs_check,
    lasota_yorke_check,
    potential_from_weights,
    rpf_triplet,
    small_eigenfunction,
    spectral_decomposition,
    zero_potential,
)
from ruelle.spectral import DENSE_RADIUS_LIMIT, Peripheral, _projection_checks, _word_seminorm

from conftest import (
    PHI,
    f1,
    f2,
    f3,
    f3p,
    golden_hole,
    golden_mu,
    period2_rich,
    random5_primitive,
    two_component_dag,
)


class TestSpectralDecomposition:
    def test_permutation_two_peripherals(self):
        tm = build_transfer_matrix(f3(), zero_potential(f3()), depth=1)
        dec = spectral_decomposition(tm)
        assert dec.p == 2
        eigs = sorted((per.eigenvalue.real for per in dec.peripherals))
        assert eigs == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert dec.remainder_radius <= 1e-12
        assert np.abs(dec.reconstruction() - tm.dense()).max() <= 1e-12

    def test_golden_gap(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=1)
        dec = spectral_decomposition(tm)
        assert dec.p == 1
        assert dec.lam == pytest.approx(PHI, abs=1e-11)
        assert dec.remainder_radius == pytest.approx(PHI - 1.0, abs=1e-9)
        assert dec.checks["reconstruction_error"] <= 1e-11

    def test_three_cycle_cube_roots(self):
        tm = build_transfer_matrix(f3p(), zero_potential(f3p()), depth=1)
        dec = spectral_decomposition(tm)
        assert dec.p == 3
        for i, per in enumerate(dec.peripherals):
            expected = cmath.exp(2j * math.pi * i / 3)
            assert abs(per.eigenvalue - expected) <= 1e-12

    def test_depth_two_reduction_same_decomposition(self):
        tm = build_transfer_matrix(f3(), zero_potential(f3()), depth=2)
        dec = spectral_decomposition(tm)
        assert dec.p == 2
        eigs = sorted(per.eigenvalue.real for per in dec.peripherals)
        assert eigs == pytest.approx([-1.0, 1.0], abs=1e-12)
        assert np.abs(dec.reconstruction() - tm.dense()).max() <= 1e-11

    def test_rich_period2_remainder(self):
        ts, phi = period2_rich()
        tm = build_transfer_matrix(ts, phi, depth=1)
        dec = spectral_decomposition(tm)
        assert dec.p == 2
        assert 0.0 < dec.remainder_radius < dec.lam * (1 - 1e-3)
        # Projections behave like a resolution of the peripheral part.
        assert dec.checks["projection_orthogonality"] <= 1e-11
        assert dec.checks["projection_idempotence"] <= 1e-11
        assert dec.checks["remainder_commutation"] <= 1e-11

    def test_eigenvalue_set_on_circle_is_exactly_the_orbit(self):
        for ts, phi in [
            (f2(), zero_potential(f2())),
            (f3(), zero_potential(f3())),
            (f3p(), zero_potential(f3p())),
            period2_rich(),
        ]:
            tm = build_transfer_matrix(ts, phi, depth=1)
            dec = spectral_decomposition(tm)
            eigs = np.linalg.eigvals(tm.dense())
            on_circle = [e for e in eigs if abs(abs(e) - dec.lam) <= 1e-9 * dec.lam]
            assert len(on_circle) == dec.p
            for e in on_circle:
                dists = [abs(e - per.eigenvalue) for per in dec.peripherals]
                assert min(dists) <= 1e-9 * dec.lam

    def test_simplicity_via_rank(self):
        ts, phi = period2_rich()
        tm = build_transfer_matrix(ts, phi, depth=1)
        dec = spectral_decomposition(tm)
        dense = tm.dense()
        for per in dec.peripherals:
            s = np.linalg.svd(dense - per.eigenvalue * np.eye(tm.dim), compute_uv=False)
            assert sum(1 for v in s if v <= 1e-9 * dec.lam) == 1

    def test_tol_reaches_the_triplet(self):
        ts, phi = period2_rich()
        tm = build_transfer_matrix(ts, phi, depth=1)
        assert spectral_decomposition(tm, tol=1e-6).lam == rpf_triplet(tm, tol=1e-6).lam

    def test_reducible_rejected(self):
        ts, phi = two_component_dag()
        tm = build_transfer_matrix(ts, phi, depth=1)
        with pytest.raises(PreconditionError):
            spectral_decomposition(tm)

    def test_remainder_radius_is_the_largest_off_circle_eigenvalue(self):
        # Period-3 cyclic structure (steps +1, -2, +4) at dim 240, where a
        # power estimate of the remainder radius lands 2.7e-5 low.
        n = 240
        syms = tuple(range(n))
        pairs = {(i, i + d) for i in syms for d in (1, -2, 4) if 0 <= i + d < n}
        phi = potential_from_weights({(s,): -2.0 * math.log(s + 1) for s in syms})
        tm = build_transfer_matrix(from_entries(syms, pairs), phi)
        dec = spectral_decomposition(tm)
        mods = np.abs(np.linalg.eigvals(tm.dense()))
        off_circle = float(mods[mods < dec.lam * (1 - 1e-9)].max())
        assert dec.p == 3
        assert abs(dec.remainder_radius - off_circle) <= 1e-12 * off_circle
        assert dec.remainder_method == "arpack"


def banded_system(n):
    ts = banded_structure(n, 2)
    phi = potential_from_weights({(s,): -2.0 * math.log(s + 1) for s in ts.alphabet.symbols})
    return build_transfer_matrix(ts, phi)


def two_banded_blocks(half):
    """Two banded blocks joined by one bridge; the second is one lower in
    pressure, so the first dominates uniquely."""
    syms = tuple(range(2 * half))
    pairs = {(i, j) for i in syms for j in syms if abs(i - j) <= 2 and (i < half) == (j < half)}
    pairs.add((half - 1, half))
    weights = {(s,): -2.0 * math.log(s % half + 1) - (s >= half) for s in syms}
    return from_entries(syms, pairs), potential_from_weights(weights)


def largest_remainder_eigenvalue(dec):
    return float(np.abs(np.linalg.eigvals(dec.remainder)).max())


class TestRemainderRadiusRoutes:
    @pytest.mark.parametrize(
        "n, method", [(60, "dense_eigvals"), (DENSE_RADIUS_LIMIT, "dense_eigvals"), (400, "arpack")]
    )
    def test_banded_radius_matches_the_dense_remainder(self, n, method):
        tm = banded_system(n)
        dec = spectral_decomposition(tm)
        assert dec.remainder_method == method
        assert dec.remainder.dtype == np.float64
        exact = largest_remainder_eigenvalue(dec)
        assert abs(dec.remainder_radius - exact) <= 1e-12 * exact
        assert spectral_decomposition(tm).remainder_radius == dec.remainder_radius
        assert dec.checks["eigen_residual_h"] <= 1e-13
        assert dec.checks["eigen_residual_nu"] <= 1e-13

    def test_reducible_blocks_above_the_limit(self):
        ts, phi = two_banded_blocks(60)
        dec = component_decomposition(ts, phi)
        assert dec.tm.dim > DENSE_RADIUS_LIMIT
        assert dec.remainder_method == "arpack"
        assert dec.dominant_component == dec.tm.governing.quotient.component_of(0)
        exact = largest_remainder_eigenvalue(dec)
        assert abs(dec.remainder_radius - exact) <= 1e-12 * exact
        assert component_decomposition(ts, phi).remainder_radius == dec.remainder_radius

    def test_rounding_imaginary_part_kept_as_a_real_remainder(self):
        # Period 3: the peripheral data is complex, the remainder real.
        n = 120
        syms = tuple(range(n))
        pairs = {(i, i + d) for i in syms for d in (1, -2, 4) if 0 <= i + d < n}
        phi = potential_from_weights({(s,): -2.0 * math.log(s + 1) for s in syms})
        dec = spectral_decomposition(build_transfer_matrix(from_entries(syms, pairs), phi))
        assert dec.p == 3
        assert dec.remainder.dtype == np.float64
        exact = largest_remainder_eigenvalue(dec)
        assert abs(dec.remainder_radius - exact) <= 1e-12 * exact

    @pytest.mark.parametrize("kind", ["no_convergence", "error"])
    def test_arpack_failure_is_a_convergence_error(self, monkeypatch, kind):
        import scipy.sparse.linalg as spla

        def failing_eigs(*args, **kwargs):
            if kind == "no_convergence":
                raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])
            raise spla.ArpackError(-9)

        monkeypatch.setattr(spla, "eigs", failing_eigs)
        with pytest.raises(ConvergenceError, match="remainder radius"):
            spectral_decomposition(banded_system(DENSE_RADIUS_LIMIT + 1))
        # At the limit the dense route never calls ARPACK.
        spectral_decomposition(banded_system(DENSE_RADIUS_LIMIT))

def dense_projection_checks(dense, peripherals, remainder, lam) -> dict:
    """Reference: the projection identities on the n x n projections, and
    the eigen-residuals on the dense operator."""
    scale = max(lam, 1.0)
    recon = remainder.astype(complex).copy()
    worst_orth = 0.0
    worst_idem = 0.0
    worst_commute = 0.0
    projs = [np.outer(per.h, per.nu) for per in peripherals]
    for i, per in enumerate(peripherals):
        recon += per.eigenvalue * projs[i]
        worst_idem = max(worst_idem, float(np.abs(projs[i] @ projs[i] - projs[i]).max()))
        worst_commute = max(
            worst_commute,
            float(np.abs(projs[i] @ remainder).max()),
            float(np.abs(remainder @ projs[i]).max()),
        )
        for jj in range(i + 1, len(peripherals)):
            worst_orth = max(worst_orth, float(np.abs(projs[i] @ projs[jj]).max()))
    recon_err = float(np.abs(recon - dense).max())
    res_h = max(
        float(np.abs(dense @ per.h - per.eigenvalue * per.h).max() / np.abs(per.h).max())
        for per in peripherals
    )
    res_nu = max(
        float(np.abs(dense.T @ per.nu - per.eigenvalue * per.nu).max() / np.abs(per.nu).max())
        for per in peripherals
    )
    return {
        "reconstruction_error": recon_err / scale,
        "projection_orthogonality": worst_orth / scale,
        "projection_idempotence": worst_idem,
        "remainder_commutation": worst_commute / scale,
        "eigen_residual_h": res_h / lam,
        "eigen_residual_nu": res_nu / lam,
    }


def fixture_decompositions():
    for ts, phi in [
        (f2(), zero_potential(f2())),
        (f3(), zero_potential(f3())),
        (f3p(), zero_potential(f3p())),
        period2_rich(),
    ]:
        tm = build_transfer_matrix(ts, phi, depth=1)
        yield tm, spectral_decomposition(tm)
    for depth in (1, 2):
        ts, phi = two_component_dag()
        yield build_transfer_matrix(ts, phi, depth=depth), component_decomposition(
            ts, phi, depth=depth
        )


class TestRankOneChecks:
    def test_match_the_dense_reference_on_fixtures(self):
        for tm, dec in fixture_decompositions():
            ref = dense_projection_checks(tm.dense(), dec.peripherals, dec.remainder, dec.lam)
            assert dec.checks.keys() == ref.keys()
            for key, value in ref.items():
                assert abs(dec.checks[key] - value) <= 1e-15, (tm.dim, key)

    def test_corrupted_decomposition_reported_as_the_dense_reference(self):
        # nu_0 scaled and mixed with nu_1, h_1 mixed into h_0: the pair is
        # neither idempotent nor orthogonal.  Against the original remainder
        # the reconstruction fails; against the remainder of the corrupted
        # pair the commutation does.  The transposed decomposition (h and nu
        # swapped) exercises the other side of each product.
        ts, phi = period2_rich()
        tm = build_transfer_matrix(ts, phi, depth=1)
        dec = spectral_decomposition(tm)
        (p0, p1) = dec.peripherals
        bad = (
            Peripheral(p0.eigenvalue, p0.h + 0.25 * p1.h, 1.01 * p0.nu + 0.2 * p1.nu),
            p1,
        )
        own = tm.dense() - sum(per.eigenvalue * np.outer(per.h, per.nu) for per in bad)
        for transpose in (False, True):
            dense = tm.dense().T if transpose else tm.dense()
            pers = tuple(Peripheral(q.eigenvalue, q.nu, q.h) for q in bad) if transpose else bad
            for remainder, violated in [
                (dec.remainder, "reconstruction_error"),
                (own, "remainder_commutation"),
            ]:
                remainder = remainder.T if transpose else remainder
                new = _projection_checks(dense, pers, remainder, dec.lam)
                ref = dense_projection_checks(dense, pers, remainder, dec.lam)
                for key in ("projection_idempotence", "projection_orthogonality", violated):
                    assert new[key] >= 1e-3
                for key, value in ref.items():
                    assert new[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key


def cyclic_system(n):
    """Period-3 banded-like system on n symbols (steps +1, -2, +4)."""
    syms = tuple(range(n))
    pairs = {(i, i + d) for i in syms for d in (1, -2, 4) if 0 <= i + d < n}
    phi = potential_from_weights({(s,): -2.0 * math.log(s + 1) for s in syms})
    return build_transfer_matrix(from_entries(syms, pairs), phi)


def traced_peak(call):
    """``call()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMatrixFreeDecomposition:
    # One float64 n x n copy is 122 MiB at n = 4000 and 30.5 MiB at n = 2000.
    PEAK = 16 * 2**20

    def assert_matrix_free(self, dec, peak):
        assert dec.tm.dim > DENSE_RADIUS_LIMIT
        assert peak < self.PEAK
        assert "remainder" not in vars(dec)
        assert dec.remainder_method == "arpack"
        assert dec.checks["eigen_residual_h"] <= 1e-13
        assert dec.checks["eigen_residual_nu"] <= 1e-13
        assert all(value <= 1e-8 for value in dec.checks.values()), dec.checks

    def test_banded_4000_allocates_no_dense_array(self):
        tm = banded_system(4000)
        dec, peak = traced_peak(lambda: spectral_decomposition(tm))
        self.assert_matrix_free(dec, peak)

    def test_reducible_blocks_allocate_no_dense_array(self):
        ts, phi = two_banded_blocks(1000)
        dec, peak = traced_peak(lambda: component_decomposition(ts, phi))
        self.assert_matrix_free(dec, peak)
        assert dec.dominant_component == dec.tm.governing.quotient.component_of(0)

    def test_remainder_formed_on_first_use(self):
        tm = banded_system(DENSE_RADIUS_LIMIT + 20)
        dec = spectral_decomposition(tm)
        assert "remainder" not in vars(dec)
        (per,) = dec.peripherals
        expected = tm.dense() - per.eigenvalue.real * np.outer(per.h.real, per.nu.real)
        assert np.array_equal(dec.remainder, expected)
        assert dec.remainder is dec.remainder

    @pytest.mark.parametrize("system", [banded_system, cyclic_system])
    def test_checks_match_the_dense_reference_across_blocks(self, system):
        tm = system(150)
        dec = spectral_decomposition(tm)
        ref = dense_projection_checks(tm.dense(), dec.peripherals, dec.remainder, dec.lam)
        assert dec.checks.keys() == ref.keys()
        for key, value in ref.items():
            assert abs(dec.checks[key] - value) <= 1e-15, key

    def test_reconstruction_blocks_cover_every_row(self):
        # An entry planted in the first, a middle and the last row (the last
        # block is a partial one) shows in the reconstruction error.
        tm = banded_system(150)
        dec = spectral_decomposition(tm)
        for row in (0, 75, 149):
            bad = dec.remainder.copy()
            bad[row, 149 - row] += 1e-3
            checks = _projection_checks(tm.matrix, dec.peripherals, bad, dec.lam)
            scale = max(dec.lam, 1.0)
            assert checks["reconstruction_error"] == pytest.approx(1e-3 / scale, rel=1e-9)


class TestComponentDecomposition:
    def test_dominant_found_and_supports_forward(self):
        # Dominant full block feeds the singleton: the eigenfunction spreads
        # downstream, the eigenvector stays on components reaching the
        # dominant one.
        ts, phi = two_component_dag(forward=True)
        dec = component_decomposition(ts, phi)
        assert math.exp(max(dec.component_pressures)) == pytest.approx(2.0, abs=1e-10)
        pat = dec.support_patterns
        assert pat["h_nonzero_by_component"] == pat["expected_h"]
        assert pat["nu_nonzero_by_component"] == pat["expected_nu"]
        dom = dec.dominant_component
        assert pat["expected_h"][dom] and pat["expected_nu"][dom]
        other = 1 - dom
        assert pat["expected_h"][other] != pat["expected_nu"][other]

    def test_dominant_found_and_supports_backward(self):
        ts, phi = two_component_dag(forward=False)
        dec = component_decomposition(ts, phi)
        pat = dec.support_patterns
        assert pat["h_nonzero_by_component"] == pat["expected_h"]
        assert pat["nu_nonzero_by_component"] == pat["expected_nu"]

    def test_reconstruction_and_eigenvalue(self):
        ts, phi = two_component_dag(forward=True)
        dec = component_decomposition(ts, phi)
        tm = build_transfer_matrix(ts, phi, depth=1)
        assert np.abs(dec.reconstruction() - tm.dense()).max() <= 1e-10
        assert dec.remainder_radius == pytest.approx(1.5, abs=1e-9)
        per = dec.peripherals[0]
        lhs = tm.dense() @ per.h
        assert np.abs(lhs - per.eigenvalue * per.h).max() <= 1e-10

    def test_single_component_reduces(self):
        dec = component_decomposition(f2(), zero_potential(f2()))
        assert dec.lam == pytest.approx(PHI, abs=1e-11)
        assert dec.dominant_component == 0

    def test_periodic_dominant_component(self):
        # Weighted 2-cycle (radius 1.5) feeding a self-loop of radius 1.2:
        # two simple peripherals at +-1.5, remainder radius 1.2.
        from ruelle import from_entries

        ts = from_entries((0, 1, 2), [(0, 1), (1, 0), (1, 2), (2, 2)])
        phi = potential_from_weights(
            {(0,): math.log(2.0), (1,): math.log(1.125), (2,): math.log(1.2)}
        )
        dec = component_decomposition(ts, phi)
        assert dec.p == 2
        assert dec.lam == pytest.approx(1.5, abs=1e-10)
        eigs = sorted(per.eigenvalue.real for per in dec.peripherals)
        assert eigs == pytest.approx([-1.5, 1.5], abs=1e-9)
        assert dec.remainder_radius == pytest.approx(1.2, abs=1e-9)
        tm = build_transfer_matrix(ts, phi, depth=1)
        assert np.abs(dec.reconstruction() - tm.dense()).max() <= 1e-9
        for per in dec.peripherals:
            resid = tm.dense() @ per.h - per.eigenvalue * per.h
            assert np.abs(resid).max() <= 1e-9
            resid_l = per.nu @ tm.dense() - per.eigenvalue * per.nu
            assert np.abs(resid_l).max() <= 1e-9
        pat = dec.support_patterns
        assert pat["h_nonzero_by_component"] == pat["expected_h"]
        assert pat["nu_nonzero_by_component"] == pat["expected_nu"]

    def test_depth_two_word_index_blocks(self):
        # At depth 2 the word index mixes components (words may start in the
        # dominant block and leave it); the resolvent extension must still
        # reproduce the operator.
        ts, phi = two_component_dag(forward=True)
        dec = component_decomposition(ts, phi, depth=2)
        tm = build_transfer_matrix(ts, phi, depth=2)
        assert dec.lam == pytest.approx(2.0, abs=1e-10)
        assert np.abs(dec.reconstruction() - tm.dense()).max() <= 1e-9
        per = dec.peripherals[0]
        assert np.abs(tm.dense() @ per.h - per.eigenvalue * per.h).max() <= 1e-9
        assert np.abs(per.nu @ tm.dense() - per.eigenvalue * per.nu).max() <= 1e-9
        assert dec.remainder_radius == pytest.approx(1.5, abs=1e-8)

    def test_tie_is_an_error_with_the_tied_set(self):
        ts = type(f1())(
            f1().alphabet.__class__((0, 1, 2, 3)),
            frozenset({(0, 1), (1, 0), (2, 3), (3, 2)}),
        )
        phi = zero_potential(ts)
        with pytest.raises(NonUniqueDominantError) as exc:
            component_decomposition(ts, phi)
        assert set(exc.value.tied) == {0, 1}


class TestComponentPressuresFromOneMatrix:
    @staticmethod
    def induced_operator(ts, phi, symbols, depth):
        """The component's operator as its own structure and potential: the
        structure induced on its symbols, the weights of words inside it."""
        keep = set(symbols)
        sub = from_entries(
            tuple(s for s in ts.alphabet.symbols if s in keep),
            {(i, j) for (i, j) in ts.entries if i in keep and j in keep},
        )
        sub_phi = potential_from_weights({w: v for w, v in phi.weights.items() if set(w) <= keep})
        return build_transfer_matrix(sub, sub_phi, depth=depth)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_blocks_and_pressures_equal_the_induced_route(self, depth):
        from ruelle.spectral import _component_pairs, component_pressures

        ts, phi = two_banded_blocks(30)
        tm = build_transfer_matrix(ts, phi, depth=depth)
        pairs = _component_pairs(tm, 1e-12, 100_000)
        expected = []
        for comp, (rows, _) in zip(ts.quotient.components, pairs):
            ref = self.induced_operator(ts, phi, comp.symbols, depth)
            block = tm.matrix[rows][:, rows]
            for name in ("indptr", "indices", "data"):
                got, want = getattr(block, name), getattr(ref.matrix, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            expected.append(math.log(rpf_triplet(ref).lam))
        assert component_pressures(ts, phi, depth=depth) == tuple(expected)
        dec = component_decomposition(ts, phi, depth=depth)
        assert dec.component_pressures == tuple(expected)

    def test_component_without_cycle_reports_minus_inf(self):
        # 0 -> 0 feeds the transient symbol 1, which feeds 2 -> 2.
        ts = from_entries((0, 1, 2), [(0, 0), (0, 1), (1, 2), (2, 2)])
        phi = potential_from_weights({(0,): math.log(2.0), (1,): 0.0, (2,): 0.0})
        dec = component_decomposition(ts, phi)
        by_symbol = dict(zip((c.symbols for c in ts.quotient.components), dec.component_pressures))
        assert by_symbol == {(0,): math.log(2.0), (1,): -math.inf, (2,): 0.0}
        assert dec.lam == pytest.approx(2.0, abs=1e-12)

    def test_capped_component_pair_is_a_convergence_error(self):
        ts, phi = two_banded_blocks(30)
        with pytest.raises(ConvergenceError, match=r"component 0 \(30 symbols\).*cap of 5") as exc:
            component_decomposition(ts, phi, max_iter=5)
        pair = exc.value.partial
        assert not pair.converged and pair.iterations == 10 and pair.lam > 0.0
        assert pair.tm is None
        assert len(pair.g) == len(pair.nu) == 30


class TestConeMembership:
    def test_eigenfunction_in_cone(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=2)
        trip = rpf_triplet(tm)
        c1 = cone_contraction_constant(0.0, 0.5)
        rep = cone_membership(trip.g, tm.words, c=c1, k=1)
        assert rep.member

    def test_indicator_of_short_cylinder(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=2)
        f = np.array([1.0 if w[0] == 1 else 0.0 for w in tm.words])
        assert cone_membership(f, tm.words, c=0.0, k=1).member

    def test_negative_entry_fails(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=2)
        f = np.array([1.0, -0.1, 1.0, 1.0])
        rep = cone_membership(f, tm.words, c=5.0, k=1)
        assert not rep.member

    def test_violating_pair_reported(self):
        tm = build_transfer_matrix(f1(), zero_potential(f1()), depth=2)
        f = np.array([10.0 if w == (0, 0) else 1.0 for w in tm.words])
        rep = cone_membership(f, tm.words, c=0.1, k=1)
        assert not rep.member
        hi, lo, margin = rep.worst_pair
        assert hi == (0, 0) and margin > 0

    def test_operator_stability(self):
        # Applying the operator keeps cone members inside, at the stated
        # contraction constant.
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        ts = f2()
        tm = build_transfer_matrix(ts, phi, depth=3)
        from ruelle import seminorm_bracket

        sem = seminorm_bracket(phi, ts, k=2, enumeration_depth=5).upper
        c1 = cone_contraction_constant(sem, 0.5)
        f = np.array([1.0 if w[:1] == (1,) else 0.0 for w in tm.words])
        assert cone_membership(f, tm.words, c=c1, k=1).member
        Lf = tm.apply(f)
        assert cone_membership(Lf, tm.words, c=c1, k=1).member


class TestGibbsCheck:
    def test_full_shift_ratios_one(self):
        tm = build_transfer_matrix(f1(), zero_potential(f1()), depth=1)
        trip = rpf_triplet(tm)
        rep = gibbs_check(trip, zero_potential(f1()), math.log(2.0), depths=(2, 4, 6))
        assert rep.c_min == pytest.approx(1.0, abs=1e-10)
        assert rep.c_max == pytest.approx(1.0, abs=1e-10)

    def test_golden_constants_stable_to_depth_12(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=1)
        trip = rpf_triplet(tm)
        rep = gibbs_check(trip, zero_potential(f2()), math.log(PHI), depths=range(3, 13))
        spread = [hi / lo for hi, lo in zip(rep.c_max_by_depth, rep.c_min_by_depth)]
        assert max(spread) == pytest.approx(min(spread), rel=1e-9)
        assert rep.stable
        # Cross-check the ratio values against the closed-form measure.
        for w in admissible_words(f2(), 5):
            if f2().has_nonempty_cylinder(w):
                assert trip.mu_mass(w) == pytest.approx(golden_mu(w), rel=1e-9)

    def test_product_measure_control_grows(self):
        # Bernoulli(1/2) masses are not the golden Gibbs measure: the ratio
        # spread must blow up with depth.
        spreads = []
        for n in (2, 6, 10):
            ratios = []
            for w in admissible_words(f2(), n):
                if not f2().has_nonempty_cylinder(w):
                    continue
                mass = 2.0 ** -len(w)
                ratios.append(mass / math.exp(-n * math.log(PHI)))
            spreads.append(max(ratios) / min(ratios))
        assert spreads[0] == spreads[1] == spreads[2]  # spread of masses alone
        # The centering drifts: the absolute ratios leave every fixed bracket.
        drift = [
            2.0**-n / math.exp(-n * math.log(PHI)) for n in (2, 6, 10)
        ]
        assert drift[2] < drift[1] < drift[0]


class TestLasotaYorke:
    def _setup(self):
        hole = golden_hole()
        phi = zero_potential(f1())
        tm_closed = build_transfer_matrix(hole.closed, phi, depth=4)
        trip0 = rpf_triplet(tm_closed)
        tm_open = build_transfer_matrix(hole.open_, phi, depth=4, index_structure=hole.closed)
        return hole, phi, tm_open, trip0

    def test_inequality_holds_with_finite_constants(self, rng):
        hole, phi, tm_open, trip0 = self._setup()
        fs = [rng.uniform(-1, 1, size=tm_open.dim) for _ in range(6)]
        rep = lasota_yorke_check(tm_open, phi, phi, trip0, fs, m_values=range(1, 10))
        assert rep.all_hold
        assert math.isfinite(rep.c_l1) and math.isfinite(rep.c_sem)

    def test_seminorm_transient_decays(self, rng):
        hole, phi, tm_open, trip0 = self._setup()
        f = rng.uniform(-1, 1, size=tm_open.dim)
        rep = lasota_yorke_check(tm_open, phi, phi, trip0, [f], m_values=[1, 2, 3])
        semis = [row.seminorm for row in rep.rows]
        assert semis[0] > 0.0
        # Depth-4 data collapses to constants after three applications.
        rep2 = lasota_yorke_check(tm_open, phi, phi, trip0, [f], m_values=[4, 8])
        assert all(row.seminorm == 0.0 for row in rep2.rows)
        assert rep2.collapsed == 1
        assert rep2.seminorm_slopes[0] == -math.inf

    def test_constant_vector_l1_dominates(self):
        hole, phi, tm_open, trip0 = self._setup()
        f = np.ones(tm_open.dim)
        rep = lasota_yorke_check(tm_open, phi, phi, trip0, [f], m_values=[2, 4, 6])
        assert rep.all_hold
        assert all(row.seminorm <= 1e-12 for row in rep.rows)

    def test_seminorm_equals_the_word_grouping(self, rng):
        # Reference: group the word tuples by n-prefix in dicts.
        def reference(f, words, k, theta):
            best = 0.0
            for n in range(k, len(words[0])):
                groups = {}
                for i, w in enumerate(words):
                    groups.setdefault(w[:n], []).append(float(f[i]))
                v = max(max(vals) - min(vals) for vals in groups.values())
                best = max(best, v / theta**n)
            return best

        hole, phi, tm_open, _ = self._setup()
        ts, phi5 = random5_primitive()
        for tm in (tm_open, build_transfer_matrix(ts, phi5, depth=5)):
            for k in (1, 2, 3):
                f = rng.uniform(-1, 1, size=tm.dim)
                assert _word_seminorm(f, tm.ranks, k, 0.5) == reference(f, tm.words, k, 0.5)

    def test_domination_enforced(self):
        hole, phi, tm_open, trip0 = self._setup()
        phi_low = potential_from_weights(
            {w: -0.5 for w in admissible_words(f1(), 2)}
        )
        with pytest.raises(PreconditionError):
            lasota_yorke_check(tm_open, phi, phi_low, trip0, [np.ones(tm_open.dim)], [1])


class TestSmallEigenfunctions:
    def test_golden_inside_disc(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=1)
        trip = rpf_triplet(tm)
        rep = small_eigenfunction(tm, trip, p_value=0.3, m=4, theta=0.5)
        assert rep.case == "sibling"
        assert rep.max_residual <= 1e-8
        assert rep.max_residual <= max(rep.tail_bound * 10, 1e-10)

    def test_complex_eigenvalue(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=1)
        trip = rpf_triplet(tm)
        rep = small_eigenfunction(tm, trip, p_value=0.2 + 0.2j, m=3, theta=0.5)
        assert rep.max_residual <= 1e-8

    def test_boundary_rejected(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=1)
        trip = rpf_triplet(tm)
        with pytest.raises(PreconditionError):
            small_eigenfunction(tm, trip, p_value=0.0, m=3)
        with pytest.raises(PreconditionError):
            small_eigenfunction(tm, trip, p_value=0.95 * PHI * 0.5 / 0.5, m=3)

    def test_single_orbit_needs_ambient(self):
        tm = build_transfer_matrix(f3(), zero_potential(f3()), depth=1)
        trip = rpf_triplet(tm)
        with pytest.raises(PreconditionError):
            small_eigenfunction(tm, trip, p_value=0.2, m=3)

    def test_single_orbit_ambient_detour(self):
        # The two-cycle inside the full shift: the kernel element detours
        # through the hole word.
        tm = build_transfer_matrix(f3(), zero_potential(f3()), depth=1)
        trip = rpf_triplet(tm)
        rep = small_eigenfunction(tm, trip, p_value=0.25, m=3, ambient=f1())
        assert rep.case == "ambient_detour"
        assert rep.max_residual <= 1e-8
