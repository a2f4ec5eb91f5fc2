import math
import re

import numpy as np
import pytest

from ruelle import (
    HoleSpec,
    NonUniqueDominantError,
    PreconditionError,
    admissible_words,
    build_transfer_matrix,
    eigenvector_identity_check,
    extend_potential,
    gibbs_convergence_trace,
    perturbed_potential,
    potential_from_weights,
    rpf_triplet,
    verify_perturbation_conditions,
    zero_potential,
)

from conftest import PHI, f1, f2, f3, golden_hole, golden_mu, hole_cases


def _trace(phi, hole, epsilons, **kwargs):
    """The trace with the empty cylinder (mass 1) as its one test cylinder,
    for the fields that do not read the cylinders."""
    return gibbs_convergence_trace(phi, hole, epsilons, [()], **kwargs)


class TestPerturbationConditions:
    def test_golden_hole_all_pass(self):
        rep = verify_perturbation_conditions(
            zero_potential(f1()), golden_hole(), [1.0, 0.5, 0.25, 0.125], k=1
        )
        assert rep.failures == ()
        assert rep.seminorm_uniform <= rep.seminorm_reference + 1e-12
        assert rep.uniform_sum <= rep.summability_total + 1e-12
        # On the hole cylinder the distance is exactly exp(-1/eps), under
        # twice the cylinder sup bound.
        for dist, eps, bound in zip(
            rep.distance_tables[0], rep.epsilons, rep.distance_bound[0]
        ):
            assert dist == pytest.approx(math.exp(-1.0 / eps))
            assert dist <= bound

    def test_no_hole_distances_vanish(self):
        hole = HoleSpec(closed=f1(), open_=f1())
        rep = verify_perturbation_conditions(zero_potential(f1()), hole, [1.0, 0.25], k=1)
        assert rep.failures == ()
        assert all(v == 0.0 for tbl in rep.distance_tables.values() for v in tbl)

    def test_renewal_hole_uniform_sum_below_certificate(self):
        # Depth-2 potential on a renewal truncation with one ramp transition
        # removed: the uniform symbol sum stays below the summability total.
        from conftest import f4, f4_spec
        from ruelle.applications import renewal_potential

        closed = f4(8)
        phi = renewal_potential(f4_spec(8), closed)
        hole = HoleSpec.from_hole(closed, [(2, 3)])
        rep = verify_perturbation_conditions(phi, hole, [1.0, 0.5, 0.25], k=1)
        assert rep.failures == ()
        assert rep.uniform_sum <= rep.summability_total + 1e-12

    def test_empty_schedule_refused(self):
        with pytest.raises(PreconditionError, match="at least one epsilon"):
            verify_perturbation_conditions(zero_potential(f1()), golden_hole(), [])

    def test_weighted_uniform_sum_below_certificate(self):
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        ext = extend_potential(phi, f2(), f1())
        rep = verify_perturbation_conditions(ext, golden_hole(), [1.0, 0.5, 0.25], k=1)
        assert rep.failures == ()
        assert rep.uniform_sum <= rep.summability_total + 1e-12


class TestOperatorDistance:
    @pytest.mark.parametrize("j", [1, 2, 3, 4, 6, 8, 12, 16, 20])
    def test_exact_exponential(self, j):
        d = _trace(zero_potential(f1()), golden_hole(), [1.0 / j]).operator_distances[0]
        assert d == math.exp(-j)

    def test_no_hole_zero(self):
        hole = HoleSpec(closed=f1(), open_=f1())
        assert _trace(zero_potential(f1()), hole, [0.25]).operator_distances[0] == 0.0

    def test_decreasing_in_epsilon(self):
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        ext = extend_potential(phi, f2(), f1())
        ds = _trace(ext, golden_hole(), [1.0, 0.5, 0.25, 0.125]).operator_distances
        assert all(b < a for a, b in zip(ds, ds[1:]))


class TestPressureTrace:
    def test_golden_hole_monotone_to_limit(self):
        eps = [2.0**-j for j in range(0, 21, 2)]
        trace = _trace(zero_potential(f1()), golden_hole(), eps)
        assert trace.monotone
        assert trace.lam_limit == pytest.approx(PHI, abs=1e-10)
        assert trace.lams[-1] == pytest.approx(PHI, abs=1e-6)
        assert trace.lam_bracket[0] <= PHI <= trace.lam_bracket[1] + 1e-12

    def test_perturbed_eigenvalue_closed_form(self):
        # Radius of [[x, 1], [1, 1]] with x = exp(-1/eps).
        for eps in (0.125, 0.5):
            x = math.exp(-1.0 / eps)
            expected = ((1 + x) + math.sqrt((1 + x) ** 2 - 4 * (x - 1))) / 2.0
            trace = _trace(zero_potential(f1()), golden_hole(), [eps])
            assert trace.lams[0] == pytest.approx(expected, abs=1e-10)

    def test_no_hole_constant(self):
        hole = HoleSpec(closed=f1(), open_=f1())
        trace = _trace(zero_potential(f1()), hole, [1.0, 0.25, 0.0625])
        assert all(v == pytest.approx(2.0, abs=1e-11) for v in trace.lams)

    def test_depth_three_schedule_with_underflowing_weights(self):
        # From eps = 2^-10 on exp(-1/eps) underflows, so every hole word of
        # L_eps carries an explicit zero on the full shift's irreducible
        # pattern; the depth-3 radii must still match depth 1.
        phi, hole = zero_potential(f1()), golden_hole()
        eps = [2.0**-j for j in range(21)]
        cyls = [w for n in (1, 2, 3) for w in admissible_words(f1(), n)]
        ref = _trace(phi, hole, eps)
        for trace in (
            _trace(phi, hole, eps, depth=3),
            gibbs_convergence_trace(phi, hole, eps, cyls, depth=3),
        ):
            assert abs(trace.lam_limit - ref.lam_limit) <= 1e-12
            assert max(abs(a - b) for a, b in zip(trace.lams, ref.lams)) <= 1e-12

    def test_two_cycle_hole_limit_one(self):
        hole = HoleSpec(closed=f1(), open_=f3())
        eps = [2.0**-j for j in range(0, 16, 3)]
        trace = _trace(zero_potential(f1()), hole, eps)
        assert trace.monotone
        assert trace.lam_limit == pytest.approx(1.0, abs=1e-12)
        assert trace.lams[-1] == pytest.approx(1.0, abs=1e-4)


class TestGibbsTrace:
    def test_masses_converge_to_golden(self):
        cyls = [w for n in (1, 2, 3) for w in admissible_words(f1(), n)]
        eps = [2.0**-j for j in (0, 4, 8, 14, 20)]
        trace = gibbs_convergence_trace(zero_potential(f1()), golden_hole(), eps, cyls)
        assert trace.mass_distances[-1] <= 1e-6
        assert all(b <= a + 1e-12 for a, b in zip(trace.mass_distances, trace.mass_distances[1:]))
        for w in cyls:
            assert trace.limit_masses[tuple(w)] == pytest.approx(golden_mu(w), abs=1e-9)

    def test_no_hole_zero_distances(self):
        hole = HoleSpec(closed=f1(), open_=f1())
        cyls = [(0,), (1,), (0, 1)]
        trace = gibbs_convergence_trace(zero_potential(f1()), hole, [1.0, 0.5], cyls)
        assert all(d <= 1e-11 for d in trace.mass_distances)

    def test_one_solve_per_operator(self, monkeypatch):
        import ruelle.perturbation as perturbation

        solve, solved = perturbation.rpf_triplet, []

        def counting(tm, *args, **kwargs):
            solved.append(tm)
            return solve(tm, *args, **kwargs)

        monkeypatch.setattr(perturbation, "rpf_triplet", counting)
        eps = [2.0**-j for j in range(21)]
        trace = gibbs_convergence_trace(zero_potential(f1()), golden_hole(), eps, [(0,), (0, 1)])
        # 21 perturbed operators and one open operator, which gives both
        # the limit masses and the limit radius.
        assert len(solved) == len(eps) + 1 == 22
        assert trace.lam_limit == pytest.approx(PHI, rel=1e-12)

    @pytest.mark.parametrize("word", [(5,), ("a",), (0, 1, 7)])
    def test_symbol_outside_the_alphabet_named(self, word):
        with pytest.raises(PreconditionError, match=re.escape(repr(word))):
            gibbs_convergence_trace(zero_potential(f1()), golden_hole(), [0.5], [(0,), word])

    @pytest.mark.parametrize("eps, cyls", [([], [(0,)]), ([0.5], [])])
    def test_empty_schedule_or_cylinders_refused(self, eps, cyls):
        with pytest.raises(PreconditionError, match="at least one"):
            gibbs_convergence_trace(zero_potential(f1()), golden_hole(), eps, cyls)

    def test_tie_surfaces(self):
        from ruelle import from_entries

        closed = from_entries(
            (0, 1, 2, 3),
            [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (0, 0), (1, 1), (2, 2), (3, 3)],
        )
        opened = closed.restrict([(0, 0), (1, 1), (2, 2), (3, 3), (0, 2)])
        hole = HoleSpec(closed=closed, open_=opened)
        with pytest.raises(NonUniqueDominantError):
            gibbs_convergence_trace(zero_potential(closed), hole, [0.5], [(0,)])


class TestEigenvectorIdentity:
    def _setup(self, eps):
        hole = golden_hole()
        phi = zero_potential(f1())
        tm = build_transfer_matrix(hole.open_, phi, depth=1, index_structure=hole.closed)
        tmA = build_transfer_matrix(hole.closed, phi, depth=1)
        trip = rpf_triplet(tm)
        pe = perturbed_potential(phi, hole.closed, hole.open_, eps)
        tme = build_transfer_matrix(hole.closed, pe, depth=1)
        trip_e = rpf_triplet(tme)
        return tm.dense(), tme.dense(), trip, trip_e.nu

    def test_identity_on_basis(self):
        for eps in (1.0, 0.5, 0.25):
            L, Le, trip, nue = self._setup(eps)
            rows = eigenvector_identity_check(
                L, Le, trip, nue, [np.eye(2)[0], np.eye(2)[1]]
            )
            for row in rows:
                assert row.residual <= 1e-10

    def test_degenerate_at_eigenfunction(self):
        L, Le, trip, nue = self._setup(0.5)
        rows = eigenvector_identity_check(L, Le, trip, nue, [trip.h])
        assert rows[0].lhs == pytest.approx(1.0, abs=1e-10)
        assert rows[0].rhs == pytest.approx(1.0, abs=1e-10)

    def test_no_hole_reads_kappa_equals_nu(self):
        hole = HoleSpec(closed=f1(), open_=f1())
        phi = zero_potential(f1())
        tm = build_transfer_matrix(hole.closed, phi, depth=1)
        trip = rpf_triplet(tm)
        pe = perturbed_potential(phi, hole.closed, hole.open_, 0.5)
        tme = build_transfer_matrix(hole.closed, pe, depth=1)
        trip_e = rpf_triplet(tme)
        rows = eigenvector_identity_check(
            tm.dense(), tme.dense(), trip, trip_e.nu, [np.eye(2)[0], np.eye(2)[1]]
        )
        for i, row in enumerate(rows):
            assert row.lhs == pytest.approx(trip.nu[i], abs=1e-11)
            assert row.residual <= 1e-11


class TestLimitMasses:
    def test_reducible_subsystem_masses(self):
        # Hole cuts the full 3-shift down to a two-component system with a
        # unique dominant part: the limit measure lives on the dominant
        # component's words.
        from ruelle import from_entries

        closed = from_entries((0, 1, 2), [(i, j) for i in range(3) for j in range(3)])
        kept = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)]
        opened = closed.restrict([p for p in closed.entries if p not in kept])
        hole = HoleSpec(closed=closed, open_=opened)
        masses = gibbs_convergence_trace(
            zero_potential(closed), hole, [1.0], [(0,), (1,), (2,), (1, 2)]
        ).limit_masses
        assert masses[(2,)] == pytest.approx(0.0, abs=1e-9)
        assert masses[(1, 2)] == pytest.approx(0.0, abs=1e-9)
        assert masses[(0,)] + masses[(1,)] == pytest.approx(1.0, abs=1e-9)


# -- distances against the word-by-word definition --------------------------------------

GAP_EPSILONS = (1.0, 0.25, 2.0**-6)


def _reference_gap(phi, pe, hole, w):
    """|exp(phi_eps) - psi| on the word, psi = exp(phi) off the hole and 0 on it."""
    psi = math.exp(phi.value(w)) if hole.open_.allows(w[0], w[1]) else 0.0
    return abs(math.exp(pe.value(w)) - psi)


def _reference_operator_distance(phi, hole, epsilon):
    """Sup over contexts of the gaps summed over prepended symbols in order."""
    A = hole.closed
    pe = perturbed_potential(phi, A, hole.open_, epsilon)
    worst = 0.0
    for ctx in admissible_words(A, pe.depth - 1):
        if not A.has_nonempty_cylinder(ctx):
            continue
        total = 0.0
        for a in A.alphabet.symbols:
            if A.allows(a, ctx[0]):
                total += _reference_gap(phi, pe, hole, (a,) + ctx)
        worst = max(worst, total)
    return worst


def _reference_distance_tables(phi, hole, epsilons):
    """Per first symbol, the largest gap over the nonempty words it starts."""
    A = hole.closed
    pes = [perturbed_potential(phi, A, hole.open_, e) for e in sorted(epsilons, reverse=True)]
    tables = {}
    for s in A.alphabet.symbols:
        if not A.has_nonempty_cylinder((s,)):
            continue
        per_eps = []
        for pe in pes:
            worst = 0.0
            for w in admissible_words(A, pe.depth):
                if w[0] == s and A.has_nonempty_cylinder(w):
                    worst = max(worst, _reference_gap(phi, pe, hole, w))
            per_eps.append(worst)
        tables[s] = tuple(per_eps)
    return tables


@pytest.mark.parametrize("case", hole_cases(), ids=lambda c: c[0])
def test_operator_distance_bitwise_equals_word_loop(case):
    _, hole, phi = case
    for e in GAP_EPSILONS:
        got = _trace(phi, hole, [e]).operator_distances[0]
        assert got == _reference_operator_distance(phi, hole, e)


@pytest.mark.parametrize("case", hole_cases(), ids=lambda c: c[0])
def test_distance_tables_bitwise_equal_word_loop(case):
    _, hole, phi = case
    rep = verify_perturbation_conditions(phi, hole, GAP_EPSILONS)
    assert rep.distance_tables == _reference_distance_tables(phi, hole, GAP_EPSILONS)


@pytest.mark.parametrize("case", hole_cases(), ids=lambda c: c[0])
def test_trace_distances_from_the_assembled_operators(case):
    # At any matrix depth a row sum only reads the first depth - 1 symbols of
    # its context, so the trace's distances are the standalone ones.
    _, hole, phi = case
    ref = tuple(_reference_operator_distance(phi, hole, e) for e in GAP_EPSILONS)
    m = build_transfer_matrix(hole.closed, perturbed_potential(phi, hole.closed, hole.open_, 1.0)).depth
    for depth in (None, m + 1):
        trace = _trace(phi, hole, GAP_EPSILONS, depth=depth)
        assert trace.operator_distances == ref


def test_nilpotent_transient_block_leaves_scipy_sparse_linalg_unloaded():
    # A depth-3 potential makes depth 2 the least exact depth, which
    # ``rpf_triplet`` solves itself.  There the hole word (0, 0) of each
    # L_eps whose hole weight underflowed is transient: the dominant block
    # feeds it and it feeds no cycle.  The block route extends the dominant
    # block across that nilpotent B22 by substitution sweeps, so a fresh
    # process never loads scipy's sparse LU.
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "import ruelle.transfer as t\n"
        "from itertools import product\n"
        "from ruelle import HoleSpec, full_shift, gibbs_convergence_trace, potential_from_weights\n"
        "extend, rest = t._extend, []\n"
        "def recording(mat, rows, *args, **kwargs):\n"
        "    rest.append(int((~rows).sum()))\n"
        "    return extend(mat, rows, *args, **kwargs)\n"
        "t._extend = recording\n"
        "closed = full_shift((0, 1))\n"
        "hole = HoleSpec.from_hole(closed, [(0, 0)])\n"
        "eps = [2.0**-j for j in range(21)]\n"
        "phi = potential_from_weights({w: 0.0 for w in product((0, 1), repeat=3)})\n"
        "gibbs_convergence_trace(phi, hole, eps, [(1,), (0, 1)], depth=2)\n"
        "print(rest, 'scipy.sparse.linalg' in sys.modules)\n"
    )
    root = Path(__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        check=True,
    )
    assert out.stdout.strip() == str([1] * 11) + " False"
