import math

import numpy as np
import pytest

from ruelle import (
    GifsEdge,
    GifsSpec,
    PreconditionError,
    bowen_dimension,
    build_transfer_matrix,
    gifs_build,
    locally_constant_analysis,
    potential_from_weights,
    renewal_analysis,
    zero_potential,
)

from conftest import f2, f4_spec, f5


class TestRenewal:
    def test_matrix_and_scalar_routes_agree(self):
        rep = renewal_analysis(f4_spec(20))
        assert abs(rep.lam_matrix - rep.lam_scalar) <= 1e-10
        assert rep.scalar_residual <= 1e-12

    def test_truncation_insensitive_past_convergence(self):
        # With superexponentially small terms the radius freezes early.
        lam20 = renewal_analysis(f4_spec(20)).lam_matrix
        lam30 = renewal_analysis(f4_spec(30)).lam_matrix
        assert lam30 == pytest.approx(lam20, abs=1e-12)
        assert lam30 >= lam20 - 1e-13  # monotone in the truncation

    def test_cohomology_residual_small(self):
        rep = renewal_analysis(f4_spec(30))
        assert rep.cohomology_residual <= 1e-8

    def test_kernel_sums(self):
        rep = renewal_analysis(f4_spec(25))
        # Reversal kernel: columns sum to one, rows carry a defect.
        assert rep.column_sums[1] == pytest.approx(1.0, abs=1e-10)
        for i in range(2, 25):
            assert rep.column_sums[i + 1] == pytest.approx(1.0) or i + 1 > 25
        for i in range(1, 25):
            assert rep.row_sums[i] == pytest.approx(1.0 + rep.kernel[(i, 1)], abs=1e-12)
        # Forward kernel rows are exactly stochastic.
        assert max(abs(v - 1.0) for v in rep.forward_row_sums.values()) <= 1e-9

    def test_underflowing_pairs_left_out_of_the_residual(self):
        # Past truncation ~36 the kernel and h underflow to zero deep in the
        # chain; the residual is then taken over the pairs with normal values.
        rep = renewal_analysis(f4_spec(60))
        assert rep.lam_matrix == rep.lam_scalar
        assert rep.cohomology_residual <= 1e-12
        assert rep.notes[-1].startswith("cohomology residual over 64 of 119 pairs: 55 with")
        assert len(renewal_analysis(f4_spec(30)).notes) == 3

    @pytest.mark.parametrize("truncation", [30, 60, 200])
    def test_kernel_sums_repr_equal_the_quadratic_definition(self, monkeypatch, truncation):
        import ruelle.applications as applications

        calls = []

        def recording(table, axis, n):
            calls.append((dict(table), axis, n, pair_sums(table, axis, n)))
            return calls[-1][-1]

        pair_sums = applications._pair_sums
        monkeypatch.setattr(applications, "_pair_sums", recording)
        rep = renewal_analysis(f4_spec(truncation))
        for table, axis, n, out in calls:
            ref = {i: sum(v for key, v in table.items() if key[axis] == i) for i in range(1, n + 1)}
            assert repr(out) == repr(ref)
        assert [out for *_, out in calls] == [rep.row_sums, rep.column_sums, rep.forward_row_sums]

    def test_asymmetric_sequences(self):
        from ruelle import RenewalSpec, TailModel

        spec = RenewalSpec(
            a=lambda n: 3.0**-n,
            b=lambda n: 5.0**-n,
            truncation=25,
            tail=TailModel.geometric(1.0, 1.0 / 3.0),
        )
        rep = renewal_analysis(spec)
        assert abs(rep.lam_matrix - rep.lam_scalar) <= 1e-10
        assert rep.cohomology_residual <= 1e-8

    def test_scalar_route_leaves_scipy_optimize_unloaded(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = (
            "import sys\n"
            "from ruelle import RenewalSpec, TailModel, renewal_analysis\n"
            "spec = RenewalSpec(a=lambda n: 4.0**-n, b=lambda n: 4.0**-n, truncation=20,\n"
            "                   tail=TailModel.geometric(1.0, 0.25))\n"
            "rep = renewal_analysis(spec)\n"
            "assert abs(rep.lam_matrix - rep.lam_scalar) <= 1e-15, rep\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            check=True,
        )
        assert out.stdout.strip() == "False"

    def test_non_summable_spec_rejected(self):
        from ruelle import RenewalSpec, TailModel

        spec = RenewalSpec(
            a=lambda n: 1.0 / n,
            b=lambda n: 1.0 / n,
            truncation=10,
            tail=TailModel.harmonic(),
        )
        with pytest.raises(PreconditionError):
            renewal_analysis(spec)


def _renewal_equation_reference(spec, lam: float) -> float:
    """The renewal series summed term by term from the spec's sequences."""
    total = 0.0
    prod_b = 1.0
    for i in range(1, spec.truncation + 1):
        total += prod_b * spec.a(i) / lam**i
        prod_b *= spec.b(i)
    return total


RENEWAL_SEQUENCES = {
    "quarter": (lambda n: 0.25**n, lambda n: 0.25**n),
    "asymmetric": (lambda n: 3.0**-n, lambda n: 5.0**-n),
    "slow": (lambda n: 0.9**n / n, lambda n: 0.99**n),
}


class TestRenewalSeries:
    @pytest.mark.parametrize("truncation", [2, 30, 60])
    @pytest.mark.parametrize("sequences", sorted(RENEWAL_SEQUENCES))
    def test_hoisted_coefficients_sum_bitwise_as_the_series(self, truncation, sequences):
        from types import SimpleNamespace

        from ruelle.applications import _bisect, _renewal_equation, _renewal_series

        a, b = RENEWAL_SEQUENCES[sequences]
        # RenewalSpec asks for three states; the series itself is defined from two.
        spec = SimpleNamespace(a=a, b=b, truncation=truncation)
        coeffs, prod_b = _renewal_series(spec)
        assert len(coeffs) == truncation
        assert prod_b == math.prod(b(i) for i in range(1, truncation + 1))
        # The bisection's bracket, as renewal_analysis finds it from the root.
        lo, hi = 1.0, 1.0
        while _renewal_equation_reference(spec, lo) < 1.0:
            lo *= 0.5
        while _renewal_equation_reference(spec, hi) > 1.0:
            hi *= 2.0
        steps = []
        _bisect(lambda x: steps.append(x) or _renewal_equation_reference(spec, x) - 1.0, lo, hi, 1e-15)
        for lam in [lo, hi, *steps, *np.geomspace(lo / 64, hi * 64, 41).tolist()]:
            got, want = _renewal_equation(coeffs, lam), _renewal_equation_reference(spec, lam)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64), lam
        assert len(steps) >= 40


class TestGifsBuild:
    def test_cantor_edges(self):
        system = gifs_build(f5())
        assert set(system.structure.alphabet.symbols) == {"L", "R"}
        assert len(system.structure.entries) == 4  # full shift on two edges
        assert system.log_ratios["L"] == pytest.approx(math.log(1.0 / 3.0))

    def test_two_vertex_three_edges(self):
        spec = GifsSpec(
            vertices=("u", "v"),
            edges=(
                GifsEdge("a", "u", "v", 0.5),
                GifsEdge("b", "v", "u", 1.0 / 3.0),
                GifsEdge("c", "v", "v", 0.25),
            ),
        )
        system = gifs_build(spec)
        # e may be followed by e' exactly when e ends where e' starts.
        assert ("a", "b") in system.structure.entries
        assert ("a", "c") in system.structure.entries
        assert ("b", "a") in system.structure.entries
        assert ("a", "a") not in system.structure.entries
        assert ("c", "b") in system.structure.entries

    def test_expansion_rejected(self):
        spec = GifsSpec(
            vertices=("v",),
            edges=(GifsEdge("e", "v", "v", 1.0),),
        )
        with pytest.raises(PreconditionError):
            gifs_build(spec)

    def test_disconnected_rejected(self):
        spec = GifsSpec(
            vertices=("u", "v"),
            edges=(GifsEdge("a", "u", "u", 0.5), GifsEdge("b", "v", "v", 0.5)),
        )
        with pytest.raises(PreconditionError):
            gifs_build(spec)


class TestBowenDimension:
    def test_cantor_log2_over_log3(self):
        rep = bowen_dimension(f5(), tol=1e-10)
        assert rep.root == pytest.approx(math.log(2.0) / math.log(3.0), abs=1e-8)
        assert not rep.boundary

    def test_two_halves_dimension_one(self):
        spec = GifsSpec(
            vertices=("v",),
            edges=(GifsEdge("L", "v", "v", 0.5), GifsEdge("R", "v", "v", 0.5)),
        )
        rep = bowen_dimension(spec, tol=1e-10)
        assert rep.root == pytest.approx(1.0, abs=1e-8)

    def test_single_map_boundary(self):
        spec = GifsSpec(vertices=("v",), edges=(GifsEdge("e", "v", "v", 0.5),))
        rep = bowen_dimension(spec)
        assert rep.boundary
        assert rep.root == 0.0

    def test_pressure_strictly_decreasing(self):
        rep = bowen_dimension(f5())
        ps = [p for _, p in rep.pressure_samples]
        assert all(b < a for a, b in zip(ps, ps[1:]))

    def test_sign_certified_bracket(self):
        rep = bowen_dimension(f5())
        lo, hi = rep.bracket
        assert lo <= rep.root <= hi

    def test_two_vertex_system_matches_dense_eig(self):
        spec = GifsSpec(
            vertices=("u", "v"),
            edges=(
                GifsEdge("a", "u", "v", 0.5),
                GifsEdge("b", "v", "u", 1.0 / 3.0),
                GifsEdge("c", "v", "v", 0.25),
            ),
        )
        rep = bowen_dimension(spec, tol=1e-10)
        system = gifs_build(spec)

        def pressure_by_eig(s):
            tm = build_transfer_matrix(system.structure, system.potential(s), depth=1)
            return math.log(max(abs(np.linalg.eigvals(tm.dense()))))

        assert pressure_by_eig(rep.root) == pytest.approx(0.0, abs=1e-8)


class TestLocallyConstant:
    def test_golden_depth2_gives_depth1_eigenfunction(self):
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        rep = locally_constant_analysis(f2(), phi, thetas=(0.5, 0.25))
        assert rep.g_locally_constant
        assert rep.refinement_deviation <= 1e-10
        assert rep.g_depth == 1

    def test_fine_eigenfunction_is_its_own_solve(self, monkeypatch):
        # The fine pair comes from loops on the depth-2 matrix (3 words),
        # not from a lift of the depth-1 pair (2 words).
        import ruelle.transfer as transfer

        dims = []

        def recording(mat, p, tol, max_iter=transfer.DEFAULT_MAX_ITER):
            dims.append(mat.shape[0])
            return solver(mat, p, tol, max_iter)

        solver = transfer._perron_vector
        monkeypatch.setattr(transfer, "_perron_vector", recording)
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        locally_constant_analysis(f2(), phi)
        assert dims == [2, 2, 3, 3]

    def test_constant_potential_constant_eigenfunction(self):
        rep = locally_constant_analysis(f2(), zero_potential(f2()))
        assert rep.g_locally_constant

    def test_quoted_essential_radii_scale(self):
        phi = zero_potential(f2())
        rep = locally_constant_analysis(f2(), phi, thetas=(0.5, 0.25))
        assert rep.essential_radii[0.5] == pytest.approx(2 * rep.essential_radii[0.25])

    def test_depth_beyond_claim_rejected(self):
        phi = potential_from_weights(
            {w: 0.1 for w in __import__("ruelle").admissible_words(f2(), 3)}
        )
        with pytest.raises(PreconditionError):
            locally_constant_analysis(f2(), phi, k=1)
