import math

import numpy as np
import pytest

from ruelle import (
    ConvergenceError,
    NonUniqueDominantError,
    PreconditionError,
    admissible_words,
    banded_structure,
    build_transfer_matrix,
    constant_potential,
    from_entries,
    full_shift,
    potential_from_weights,
    rpf_triplet,
    topological_pressure,
    zero_potential,
)

from ruelle.transfer import DEFAULT_MAX_ITER, DEFAULT_TOL

from conftest import (
    PHI,
    SQRT5,
    direct_operator_apply,
    f4_spec,
    f1,
    f2,
    f3,
    golden_nu,
    period2_rich,
    random5_primitive,
    two_component_dag,
)


class TestBuild:
    def test_full_shift_all_ones(self):
        tm = build_transfer_matrix(f1(), zero_potential(f1()), depth=1)
        assert np.allclose(tm.dense(), np.ones((2, 2)))

    def test_golden_pattern_and_radius(self):
        tm = build_transfer_matrix(f2(), zero_potential(f2()), depth=1)
        dense = tm.dense()
        assert dense[tm.word_index[(0,)], tm.word_index[(0,)]] == 0.0
        assert np.linalg.eigvals(dense).max() == pytest.approx(PHI)

    def test_permutation_eigenvalues(self):
        tm = build_transfer_matrix(f3(), zero_potential(f3()), depth=1)
        eig = sorted(np.linalg.eigvals(tm.dense()).real)
        assert eig == pytest.approx([-1.0, 1.0])

    def test_depth_too_small_rejected(self):
        phi = potential_from_weights({w: 0.0 for w in admissible_words(f2(), 3)})
        with pytest.raises(PreconditionError):
            build_transfer_matrix(f2(), phi, depth=1)

    def test_structures_over_different_alphabets_rejected(self):
        loop = from_entries((0,), [(0, 0)])
        with pytest.raises(PreconditionError, match="share one alphabet"):
            build_transfer_matrix(loop, zero_potential(f1()), index_structure=f1())

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matrix_matches_direct_summation(self, depth, rng):
        ts, phi = random5_primitive()
        tm = build_transfer_matrix(ts, phi, depth=depth)
        f = rng.uniform(0.1, 1.0, size=tm.dim)
        by_word = dict(zip(tm.words, f))
        out = tm.apply(f)
        for w, i in tm.word_index.items():
            assert out[i] == pytest.approx(
                direct_operator_apply(ts, phi, by_word, w), rel=1e-14
            )

    def test_apply_refuses_a_vector_of_the_wrong_length(self):
        tm = build_transfer_matrix(f1(), zero_potential(f1()), depth=1)
        with pytest.raises(PreconditionError, match="length 3 does not match the 2 index words"):
            tm.apply(np.ones(3))


class TestRpfTriplet:
    def test_full_shift(self):
        trip = rpf_triplet(build_transfer_matrix(f1(), zero_potential(f1()), depth=1))
        assert trip.lam == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(trip.g, 1.0)
        assert np.allclose(trip.nu, 0.5)

    def test_golden_closed_forms(self):
        trip = rpf_triplet(build_transfer_matrix(f2(), zero_potential(f2()), depth=1))
        assert trip.lam == pytest.approx(PHI, abs=1e-11)
        i0 = trip.tm.word_index[(0,)]
        i1 = trip.tm.word_index[(1,)]
        assert trip.g[i1] == pytest.approx(1.0)
        assert trip.g[i0] == pytest.approx(1.0 / PHI, abs=1e-11)
        assert trip.nu[i0] == pytest.approx(golden_nu(0), abs=1e-11)
        assert trip.nu[i1] == pytest.approx(golden_nu(1), abs=1e-11)

    def test_permutation_via_averaging(self):
        trip = rpf_triplet(build_transfer_matrix(f3(), zero_potential(f3()), depth=1))
        assert trip.lam == pytest.approx(1.0, abs=1e-12)
        assert trip.period_used == 2
        assert np.allclose(trip.g, 1.0)

    def test_underflowed_block_takes_its_own_period(self):
        # The loops underflow: the operator is the 2-cycle [[0, e], [1, 0]]
        # on a structure of period 1.
        ts = full_shift((0, 1))
        phi = potential_from_weights({(0, 0): -800.0, (1, 1): -800.0, (0, 1): 0.0, (1, 0): 1.0})
        tm = build_transfer_matrix(ts, phi)
        assert tm.cesaro_period == 1 and not tm.irreducible
        trip = rpf_triplet(tm, max_iter=2000)
        assert trip.converged and trip.period_used == 2
        assert abs(trip.lam - math.exp(0.5)) <= 1e-13 * math.exp(0.5)

    def test_residuals_tiny(self):
        ts, phi = random5_primitive()
        trip = rpf_triplet(build_transfer_matrix(ts, phi))
        assert trip.residual_g <= 1e-10
        assert trip.residual_nu <= 1e-10

    def test_zero_radius_rejected(self):
        sub = type(f1())(f1().alphabet, frozenset({(0, 1)}))
        phi = constant_potential(f1(), 0.0)
        with pytest.raises(PreconditionError):
            rpf_triplet(build_transfer_matrix(sub, phi, depth=1, index_structure=f1()))
        with pytest.raises(PreconditionError):
            rpf_triplet(build_transfer_matrix(sub, phi, depth=1))

    def test_nonpositive_max_iter_names_max_iter(self):
        tm = build_transfer_matrix(f1(), zero_potential(f1()), depth=1)
        for max_iter in (0, -3):
            with pytest.raises(PreconditionError, match="max_iter"):
                rpf_triplet(tm, max_iter=max_iter)

    def test_nu_mass_recursion_consistent(self):
        trip = rpf_triplet(build_transfer_matrix(f2(), zero_potential(f2()), depth=1))
        # nu[w] = lam^{-(len-1)} nu[last] for the zero potential.
        for w in admissible_words(f2(), 4):
            if not f2().has_nonempty_cylinder(w):
                continue
            expected = PHI ** (1 - len(w)) * golden_nu(w[-1])
            assert trip.nu_mass(w) == pytest.approx(expected, rel=1e-10)

    def test_mu_mass_additive(self):
        trip = rpf_triplet(build_transfer_matrix(f2(), zero_potential(f2()), depth=1))
        for w in admissible_words(f2(), 3):
            if not f2().has_nonempty_cylinder(w):
                continue
            kids = [w + (c,) for c in f2().successors[w[-1]]]
            assert trip.mu_mass(w) == pytest.approx(
                sum(trip.mu_mass(k) for k in kids), rel=1e-10
            )

    def test_deep_reduction_radius_matches_minimal_depth(self):
        # Full 4-shift, seeded depth-3 potential, m = 7 (dim 16384): the
        # radius must equal the dense radius of the m = 2 reduction.
        ts = full_shift((0, 1, 2, 3))
        vals = np.random.default_rng(7).uniform(-1.0, 1.0, size=4**3)
        phi = potential_from_weights(dict(zip(admissible_words(ts, 3), vals)))
        tol = 1e-12
        trip = rpf_triplet(build_transfer_matrix(ts, phi, depth=7), tol=tol)
        assert trip.tm.dim == 4**7
        assert trip.converged
        assert trip.residual_g <= 10 * tol and trip.residual_nu <= 10 * tol
        small = build_transfer_matrix(ts, phi, depth=2).dense()
        oracle = float(np.abs(np.linalg.eigvals(small)).max())
        assert abs(trip.lam - oracle) <= 1e-13 * oracle

    def test_eigenvector_spanning_hundreds_of_decades(self):
        ts = banded_structure(200, 2)
        phi = potential_from_weights({(i,): -2.0 * math.log(i) for i in range(1, 201)})
        tm = build_transfer_matrix(ts, phi, depth=1)
        trip = rpf_triplet(tm)
        tiny = np.finfo(float).tiny
        for vec, op in ((trip.g, tm.apply), (trip.nu, lambda nu: tm.matrix.T @ nu)):
            live = vec >= tiny
            assert np.log10(vec[live].max() / vec[live].min()) > 250
            rel = (op(vec) - trip.lam * vec)[live] / (trip.lam * vec[live])
            assert float(np.abs(rel).max()) <= 1e-10
        with pytest.raises(ConvergenceError) as exc:
            rpf_triplet(tm, max_iter=40)
        assert not exc.value.partial.converged

    def test_loop_never_multiplies_a_subnormal_iterate(self, monkeypatch):
        # Summable weights: most entries of g and nu end below the normal
        # range.  The loop folds each entry's binary exponent into the
        # matrix before the iterate reaches it, so no matvec sees a
        # subnormal input, in as many matvecs as an unfolded loop takes.
        from ruelle import TailModel, transfer

        tiny = np.finfo(float).tiny
        seen = []

        def spy(*args):
            x = args[-2]
            seen.append(bool(np.any((x > 0.0) & (x < tiny))))
            return matvec(*args)

        matvec = transfer._csr_matvec
        monkeypatch.setattr(transfer, "_csr_matvec", spy)
        noise = np.random.default_rng(1101).uniform(-0.5, 0.5, size=800)
        weights = {(i,): -2.0 * math.log(i) + float(e) for i, e in zip(range(1, 801), noise)}
        ts = banded_structure(800, 2)
        phi = potential_from_weights(weights, tail=TailModel.geometric(1.0, 0.5))
        tm = build_transfer_matrix(ts, phi)
        trip = rpf_triplet(tm)
        assert len(seen) == trip.iterations == 194
        assert not any(seen)
        for vec, op in ((trip.g, tm.apply), (trip.nu, lambda nu: tm.matrix.T @ nu)):
            live = vec >= tiny
            rel = (op(vec) - trip.lam * vec)[live] / (trip.lam * vec[live])
            assert float(np.abs(rel).max()) <= 1e-10

    def test_folded_loop_stops_where_the_unfolded_loop_stops(self):
        # The t = 60 renewal chain's g reaches 2^-1065, so its loop folds
        # three times.  Each step still divides by the largest true entry,
        # so the change on every normal entry, and with it the count, is the
        # unfolded loop's: 45 matvecs for g and 14 for nu.
        from ruelle import renewal_structure
        from ruelle.applications import renewal_potential

        tiny = np.finfo(float).tiny
        ts = renewal_structure(60)
        tm = build_transfer_matrix(ts, renewal_potential(f4_spec(60), ts))
        trip = rpf_triplet(tm)
        assert trip.iterations == 59
        live = trip.g >= tiny
        rel = (tm.apply(trip.g) - trip.lam * trip.g)[live] / (trip.lam * trip.g[live])
        assert float(np.abs(rel).max()) <= 1e-10

    def test_error_names_the_capped_loops(self):
        # Period 2 and max_iter 1: each loop runs one Cesaro block of two
        # matvecs and stops at the cap.
        ts, phi = period2_rich()
        tm = build_transfer_matrix(ts, phi, depth=1)
        assert tm.cesaro_period == 2
        with pytest.raises(ConvergenceError) as exc:
            rpf_triplet(tm, max_iter=1)
        assert "the eigenfunction loop and the eigenvector loop hit the cap of 1 matvecs" in str(
            exc.value
        )

    def test_error_names_the_eigenvector_loop(self):
        # exp(phi(a b)) sums to 2 over a for each b, so g = 1 is exact and its
        # loop stops at once; the sums over b differ, so nu does not.
        ts = full_shift((0, 1))
        weights = {(0, 0): 0.5, (0, 1): 1.0, (1, 0): 1.5, (1, 1): 1.0}
        phi = potential_from_weights({w: math.log(v) for w, v in weights.items()})
        with pytest.raises(ConvergenceError) as exc:
            rpf_triplet(build_transfer_matrix(ts, phi, depth=1), max_iter=1)
        msg = str(exc.value)
        assert "the eigenvector loop hit the cap of 1 matvecs" in msg
        assert "eigenfunction" not in msg

    def test_reducible_small_pressure_gap(self):
        # 0 -> 0, 0 -> 1, 1 -> 1 with weights 0 and -delta: radius 1, right
        # eigenvector (1 - e^-delta, 1), left eigenvector (1, 0).  Power
        # iteration on the whole matrix would wait for nu's second entry to
        # decay by e^-delta per step; the block route solves {0} alone.
        delta, tol = 5e-3, 1e-12
        ts = from_entries((0, 1), {(0, 0), (0, 1), (1, 1)})
        phi = potential_from_weights({(0,): 0.0, (1,): -delta})
        trip = rpf_triplet(build_transfer_matrix(ts, phi, depth=1), tol=tol)
        assert abs(trip.lam - 1.0) <= 1e-13
        assert trip.g[0] == pytest.approx(-math.expm1(-delta), rel=1e-9)
        assert trip.g[1] == 1.0
        assert trip.nu[0] == pytest.approx(1.0, abs=10 * tol)
        assert 0.0 <= trip.nu[1] <= 10 * tol
        # Both vectors need about log(1/tol)/delta steps; decaying until
        # underflow would take more than 700/delta.
        assert trip.iterations <= 4 * math.log(1 / tol) / delta

    @pytest.mark.parametrize("depth", [1, 2])
    def test_underflowing_bridge_on_an_irreducible_structure(self, depth):
        # The same operator with the bridge 1 -> 0 added at weight -800: the
        # structure is the full 2-shift, but exp(-800) underflows to an
        # explicit 0, so the matrix is still reducible and takes the block
        # route, which reads its components off the nonzero pattern.
        delta, tol = 5e-3, 1e-12
        ts = full_shift((0, 1))
        phi = potential_from_weights({(0, 0): 0.0, (0, 1): 0.0, (1, 1): -delta, (1, 0): -800.0})
        tm = build_transfer_matrix(ts, phi, depth=depth)
        assert ts.irreducible and not tm.irreducible
        trip = rpf_triplet(tm, tol=tol)
        assert abs(trip.lam - 1.0) <= 1e-13
        assert trip.nu[tm.ranks[:, 0] == 0].sum() == pytest.approx(1.0, abs=10 * tol)
        assert trip.iterations <= 4 * math.log(1 / tol) / delta

    @pytest.mark.parametrize("delta", [1e-2, 5e-3, 1e-3])
    def test_pressure_gap_sweep_matches_dense(self, delta):
        # The same operator down to delta = 1e-3: the block route's cost and
        # accuracy do not depend on the gap, and the transient symbol's nu
        # entry is an exact zero.
        import time

        ts = from_entries((0, 1), {(0, 0), (0, 1), (1, 1)})
        phi = potential_from_weights({(0,): 0.0, (1,): -delta})
        tm = build_transfer_matrix(ts, phi, depth=1)
        rpf_triplet(tm)
        times = []
        for _ in range(5):
            start = time.perf_counter()
            trip = rpf_triplet(tm)
            times.append(time.perf_counter() - start)
        assert min(times) <= 0.010
        vals, right = np.linalg.eig(tm.dense())
        h = np.abs(right[:, np.argmax(vals.real)].real)
        vals, left = np.linalg.eig(tm.dense().T)
        nu = np.abs(left[:, np.argmax(vals.real)].real)
        assert np.abs(trip.g / (h / h.max()) - 1.0).max() <= 1e-12
        assert trip.nu[1] == 0.0
        assert trip.nu[0] == pytest.approx(nu[0] / nu.sum(), rel=1e-12)

    def test_chained_tie_raises_at_once(self):
        # Two blocks of radius 1, the first feeding the second: no unique
        # positive eigenvector, and a typed error instead of a run to the cap.
        ts = from_entries((0, 1), {(0, 0), (0, 1), (1, 1)})
        with pytest.raises(NonUniqueDominantError) as exc:
            rpf_triplet(build_transfer_matrix(ts, zero_potential(ts)))
        assert exc.value.tied == (0, 1) and exc.value.lam == 1.0

    @pytest.mark.parametrize(
        "entries", [{(0, 0), (1, 1)}, {(0, 0), (0, 1), (1, 1)}], ids=["disjoint", "chained"]
    )
    def test_tie_keeps_the_spectral_pressure(self, entries):
        ts = from_entries((0, 1), entries)
        assert topological_pressure(ts, zero_potential(ts)).spectral == 0.0


class TestPressure:
    def test_full_shift_log2_every_n(self):
        rep = topological_pressure(f1(), zero_potential(f1()), n_max=12)
        assert all(u == pytest.approx(math.log(2)) for u in rep.upper)
        assert rep.spectral == pytest.approx(math.log(2), abs=1e-12)

    def test_golden_bracket_and_rate(self):
        rep = topological_pressure(f2(), zero_potential(f2()), n_max=40)
        target = math.log(PHI)
        assert rep.bracket[0] <= target <= rep.bracket[1]
        assert rep.spectral == pytest.approx(target, abs=1e-11)
        # The upper route converges at rate O(1/n): n * (upper - target) is
        # bounded and approaches the constant log((phi^2)/sqrt5).
        gaps = [n * (u - target) for n, u in zip(rep.ns, rep.upper)]
        const = math.log(PHI**2 / SQRT5)
        assert gaps[-1] == pytest.approx(const, abs=0.05)

    def test_constant_shift(self):
        c = 0.37
        rep0 = topological_pressure(f1(), zero_potential(f1()), n_max=10)
        repc = topological_pressure(f1(), constant_potential(f1(), c), n_max=10)
        assert repc.spectral == pytest.approx(rep0.spectral + c, abs=1e-11)

    def test_spectral_inside_bracket_on_fixtures(self):
        cases = [
            (f1(), zero_potential(f1())),
            (f2(), zero_potential(f2())),
            (f2(), potential_from_weights({(0, 1): 0.4, (1, 0): -0.1, (1, 1): 0.2})),
            random5_primitive(),
        ]
        for ts, phi in cases:
            rep = topological_pressure(ts, phi, n_max=30)
            assert rep.bracket[0] <= rep.spectral <= rep.bracket[1] + 1e-12

    def test_not_summable_rejected(self):
        from ruelle import TailModel
        from ruelle.applications import renewal_potential
        from conftest import f4, f4_spec

        phi = renewal_potential(f4_spec(6), f4(6))
        phi = potential_from_weights(phi.weights, tail=TailModel.harmonic())
        with pytest.raises(PreconditionError):
            topological_pressure(f4(6), phi, n_max=6)

    def test_no_nonempty_cylinder_rejected(self):
        # 0 -> 1 is the only transition: no infinite path, an empty index.
        ts = from_entries((0, 1), [(0, 1)])
        with pytest.raises(PreconditionError, match="no nonempty cylinders"):
            topological_pressure(ts, zero_potential(ts))


class TestStructureProperties:
    def test_radius_is_max_over_components(self):
        # Block fixture: dominant full 2-shift feeding a slow self-loop.
        ts, phi = two_component_dag(forward=True)
        tm = build_transfer_matrix(ts, phi, depth=1)
        lam_full = rpf_triplet(tm).lam
        from ruelle.spectral import component_decomposition

        per_comp = component_decomposition(ts, phi).component_pressures
        assert lam_full == pytest.approx(math.exp(max(per_comp)), abs=1e-10)
        assert sorted(math.exp(q) for q in per_comp) == pytest.approx([1.5, 2.0], abs=1e-10)

    def test_three_component_max(self):
        from ruelle import from_entries
        from ruelle.spectral import component_decomposition

        ts = from_entries(
            (0, 1, 2, 3),
            [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3)],
        )
        phi = potential_from_weights(
            {(0,): math.log(1.2), (1,): math.log(1.9), (2,): math.log(0.7), (3,): math.log(1.4)}
        )
        tm = build_transfer_matrix(ts, phi, depth=1)
        lam = rpf_triplet(tm).lam
        assert lam == pytest.approx(1.9, abs=1e-10)
        per_comp = component_decomposition(ts, phi).component_pressures
        assert math.exp(max(per_comp)) == pytest.approx(1.9, abs=1e-10)

    def test_monotone_under_holes(self):
        lam_closed = rpf_triplet(build_transfer_matrix(f1(), zero_potential(f1()), depth=1)).lam
        lam_open = rpf_triplet(build_transfer_matrix(f2(), zero_potential(f2()), depth=1)).lam
        assert lam_open < lam_closed

    def test_deeper_reduction_same_radius(self):
        for depth in (1, 2, 3):
            trip = rpf_triplet(build_transfer_matrix(f2(), zero_potential(f2()), depth=depth))
            assert trip.lam == pytest.approx(PHI, abs=1e-10)


# -- assembly from rank arrays against the tuple-loop definition -----------------------


def _reference_words(ts, m):
    """Admissible depth-m words with a nonempty cylinder, by tuple concatenation."""
    words = [(s,) for s in ts.alphabet.symbols]
    for _ in range(m - 1):
        words = [w + (t,) for w in words for t in ts.successors[w[-1]]]
    return [w for w in words if ts.has_nonempty_cylinder(w)]


def _reference_matrix(ts, phi, m, ind):
    """The reduction entry by entry: source w, successor c, target w[1:] + (c,)."""
    import scipy.sparse as sp

    words = _reference_words(ind, m)
    index = {w: i for i, w in enumerate(words)}
    rows, cols, vals = [], [], []
    for w, j in index.items():
        for c in ind.successors[w[-1]]:
            v = w[1:] + (c,)
            i = index.get(v)
            if i is None or not ts.allows(w[0], v[0]):
                continue
            rows.append(i)
            cols.append(j)
            vals.append(math.exp(phi.value(w + (c,))))
    n = len(words)
    return words, sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _reference_bounds(ind, phi, words, m):
    """Extremes over viable continuations of the m window sums, in sum() order."""
    d = phi.depth
    sup = np.full(len(words), -np.inf)
    inf = np.full(len(words), np.inf)
    for i, v in enumerate(words):
        exts = [v]
        for _ in range(d - 1):
            exts = [w + (c,) for w in exts for c in ind.successors[w[-1]]]
        for w in exts:
            if w[-1] in ind.viable_symbols:
                s = sum(phi.value(w[j : j + d]) for j in range(m))
                sup[i] = max(sup[i], s)
                inf[i] = min(inf[i], s)
    return sup, inf


def _seeded_weights(ts, depth, seed):
    rng = np.random.default_rng(seed)
    words = admissible_words(ts, depth)
    return potential_from_weights(dict(zip(words, rng.uniform(-2.0, 1.0, len(words)).tolist())))


def _cycle_structure(n):
    return from_entries(tuple(range(n)), [(i, (i + 1) % n) for i in range(n)])


def _assembly_cases():
    from ruelle import HoleSpec, renewal_structure
    from ruelle.applications import renewal_potential

    full4 = full_shift((0, 1, 2, 3))
    phi3 = _seeded_weights(full4, 3, 11)
    for m in (2, 3, 4, 5):
        yield f"full4-m{m}", full4, phi3, m, None
    hole = HoleSpec.from_hole(full4, [(1, 1), (2, 3)])
    yield "open-on-closed", hole.open_, _seeded_weights(full4, 2, 12), 3, hole.closed
    # Deleting every transition out of 3 leaves 3 without a forward path.
    dead = full4.restrict([(3, 0), (3, 1), (3, 2), (3, 3)])
    assert 3 not in dead.viable_symbols
    yield "pure-open-nonviable", dead, _seeded_weights(dead, 2, 13), 3, None
    renewal = renewal_structure(60)
    yield "renewal-t60", renewal, renewal_potential(f4_spec(60), renewal), 1, None
    banded = banded_structure(300, 2)
    yield "banded300-m3", banded, _seeded_weights(banded, 2, 14), 3, None
    # 5000**6 exceeds the int64 range: no rank code of a depth-6 word fits.
    cycle = _cycle_structure(5000)
    yield "cycle5000-m6", cycle, _seeded_weights(cycle, 2, 15), 6, None
    # At m = 1 a depth-2 potential's prefix is the whole extended word and
    # the target is the successor itself.
    yield "open-on-closed-m1", hole.open_, _seeded_weights(full4, 2, 19), 1, hole.closed
    # 10000**5 exceeds the int64 range too, over only 160k words.
    big_renewal = renewal_structure(10000)
    yield "renewal10000-m5", big_renewal, _seeded_weights(big_renewal, 2, 20), 5, None
    yield "full4-m6", full4, phi3, 6, None
    # At m = b = 2 a depth-3 potential's prefix is the whole extended word,
    # and the target reads the group of its parent in W_1.
    yield "open-on-closed-m2-d3", hole.open_, _seeded_weights(full4, 3, 21), 2, hole.closed


@pytest.mark.parametrize("case", list(_assembly_cases()), ids=lambda c: c[0])
def test_assembly_bitwise_equals_tuple_definition(case):
    from ruelle.transfer import _continuation_bounds

    _, ts, phi, m, ind = case
    tm = build_transfer_matrix(ts, phi, depth=m, index_structure=ind)
    words, ref = _reference_matrix(ts, phi, m, ind if ind is not None else ts)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(tm.matrix, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    sup, inf = _continuation_bounds(tm)
    ref_sup, ref_inf = _reference_bounds(tm.index_structure, phi, words, m)
    assert sup.tobytes() == ref_sup.tobytes()
    assert inf.tobytes() == ref_inf.tobytes()
    assert tm.words == tuple(words)



def _recursive_reference_bounds(ind, phi, words, m):
    """Extremes over viable continuations of the m window sums in the
    recursion's order: the windows inside the word left to right from 0.0,
    plus the first continuation window, plus the later ones added right to
    left from 0.0."""
    d = phi.depth
    sup = np.full(len(words), -np.inf)
    inf = np.full(len(words), np.inf)
    for i, v in enumerate(words):
        inner = 0.0
        for j in range(m - d + 1):
            inner += phi.value(v[j : j + d])
        exts = [v]
        for _ in range(d - 1):
            exts = [w + (c,) for w in exts for c in ind.successors[w[-1]]]
        for w in exts:
            if w[-1] in ind.viable_symbols:
                tail = 0.0
                for j in range(m - 1, m - d + 1, -1):
                    tail = phi.value(w[j : j + d]) + tail
                s = (inner + phi.value(w[m - d + 1 : m + 1])) + tail
                sup[i] = max(sup[i], s)
                inf[i] = min(inf[i], s)
    return sup, inf


def _depth4_cases():
    from ruelle import HoleSpec

    full4 = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(full4, 4, 22)
    for m in (3, 5):
        yield f"full4-m{m}", full4, phi, m, None
    # The bounds step over the index's own transitions, not the open matrix.
    hole = HoleSpec.from_hole(full4, [(1, 1), (2, 3)])
    yield "open-on-closed-m3", hole.open_, phi, 3, hole.closed
    dead = full4.restrict([(3, 0), (3, 1), (3, 2), (3, 3)])
    yield "pure-open-nonviable-m4", dead, _seeded_weights(dead, 4, 23), 4, None
    # 3 -> 0 -> 1 is transient, 4 is isolated, {1, 2} is the one cycle.
    transient = from_entries((0, 1, 2, 3, 4), [(0, 1), (1, 2), (2, 1), (2, 2), (3, 0)])
    yield "transient-m3", transient, _seeded_weights(transient, 4, 24), 3, None


@pytest.mark.parametrize("case", list(_depth4_cases()), ids=lambda c: c[0])
def test_depth4_bounds_bitwise_equal_the_recursion_order(case):
    from ruelle.transfer import _continuation_bounds

    _, ts, phi, m, ind = case
    tm = build_transfer_matrix(ts, phi, depth=m, index_structure=ind)
    sup, inf = _continuation_bounds(tm)
    ref_sup, ref_inf = _recursive_reference_bounds(tm.index_structure, phi, tm.words, m)
    assert sup.tobytes() == ref_sup.tobytes()
    assert inf.tobytes() == ref_inf.tobytes()


@pytest.mark.parametrize("d", [4, 5, 6])
def test_deep_bounds_match_the_left_to_right_sums(d):
    from ruelle.transfer import _continuation_bounds

    ts = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(ts, d, d)
    tm = build_transfer_matrix(ts, phi)
    sup, inf = _continuation_bounds(tm)
    # 64 words spread over the index: each has 4**(d-1) continuations.
    rows = np.arange(0, tm.dim, 4 ** (d - 4))
    ref_sup, ref_inf = _reference_bounds(ts, phi, [tm.words[i] for i in rows], tm.depth)
    assert np.abs(sup[rows] - ref_sup).max() <= 4e-15
    assert np.abs(inf[rows] - ref_inf).max() <= 4e-15


def test_deep_pressure_holds_no_continuation_window():
    import tracemalloc

    # The d = 6 bounds range over 4**5 continuations of each of the 1024
    # index words; held as windows they take over 300 MiB.
    peak_limit = 16 * 2**20
    ts = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(ts, 6, 6)
    tracemalloc.start()
    try:
        rep = topological_pressure(ts, phi, n_max=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < peak_limit
    assert rep.bracket[0] <= rep.spectral <= rep.bracket[1]

def test_eigendata_and_pressure_leave_words_unbuilt(monkeypatch):
    import ruelle.transfer as transfer

    built = []

    def recording_build(*args, **kwargs):
        built.append(build_transfer_matrix(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(transfer, "build_transfer_matrix", recording_build)
    ts = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(ts, 3, 16)
    tm = build_transfer_matrix(ts, phi, depth=4)
    rpf_triplet(tm)
    topological_pressure(ts, phi, n_max=12, depth=4)
    # The triplet is solved on the depth-2 reduction and lifted to depth 4;
    # the pressure reuses that reduction, which the potential holds.
    assert [t.depth for t in built] == [2]
    for t in (tm, *built):
        assert "words" not in t.__dict__


def test_deep_pressure_runs_at_the_minimal_depth(monkeypatch):
    import ruelle.transfer as transfer

    built, dims = [], []

    def recording_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def recording_orbit(tm, u, steps, norm):
        dims.append(tm.dim)
        return orbit(tm, u, steps, norm)

    build, orbit = transfer.build_transfer_matrix, transfer._orbit
    monkeypatch.setattr(transfer, "build_transfer_matrix", recording_build)
    monkeypatch.setattr(transfer, "_orbit", recording_orbit)
    ts = full_shift((0, 1, 2, 3))
    rep = topological_pressure(ts, _seeded_weights(ts, 3, 16), n_max=40, depth=6)
    assert rep.ns == tuple(range(6, 41))
    assert [t.depth for t in built] == [2]
    # The ones orbit and the one pinned return orbit of the full shift.
    assert dims == [16, 16]


def test_pressure_beyond_the_enumeration_cap():
    # |W_13| = 4^13 exceeds the word cap; the pressure never enumerates it.
    ts = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(ts, 3, 16)
    rep = topological_pressure(ts, phi, n_max=20, depth=13)
    assert rep.ns == tuple(range(13, 21))
    assert rep.spectral == math.log(rpf_triplet(build_transfer_matrix(ts, phi, depth=2)).lam)
    assert rep.bracket[0] <= rep.spectral <= rep.bracket[1]


def test_deep_pressure_keeps_its_error_paths():
    from ruelle import TailModel
    from ruelle.applications import renewal_potential
    from conftest import f4

    ts = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(ts, 3, 16)
    with pytest.raises(PreconditionError, match="matrix depth 1 too small for potential depth 3"):
        topological_pressure(ts, phi, depth=1)
    with pytest.raises(PreconditionError, match=r"n_max = 5 is below the matrix depth 6"):
        topological_pressure(ts, phi, n_max=5, depth=6)
    dead = from_entries((0, 1), [(0, 1)])
    with pytest.raises(PreconditionError, match="no nonempty cylinders"):
        topological_pressure(dead, zero_potential(dead), depth=3)
    renewal = renewal_potential(f4_spec(6), f4(6))
    harmonic = potential_from_weights(renewal.weights, tail=TailModel.harmonic())
    with pytest.raises(PreconditionError, match="not summable"):
        topological_pressure(f4(6), harmonic, n_max=6, depth=3)
    chained = from_entries((0, 1), {(0, 0), (0, 1), (1, 1)})
    assert topological_pressure(chained, zero_potential(chained), depth=3).spectral == 0.0
    with pytest.raises(ConvergenceError) as exc:
        topological_pressure(ts, phi, depth=5, max_iter=5)
    msg = str(exc.value)
    assert msg.startswith("power iteration did not reach")
    assert "the eigenfunction loop and the eigenvector loop hit the cap of 5 matvecs" in msg


def test_structure_quotient_computed_once(monkeypatch):
    import ruelle.shifts as shifts
    from ruelle import spectral_decomposition

    builds, dfs = [], []
    quotient, tarjan = shifts._quotient, shifts._tarjan_sccs
    monkeypatch.setattr(shifts, "_quotient", lambda ts: builds.append(ts) or quotient(ts))
    monkeypatch.setattr(shifts, "_tarjan_sccs", lambda *a: dfs.append(1) or tarjan(*a))
    certified = from_entries((0, 1, 2), [(0, 1), (1, 0), (1, 2), (2, 2), (2, 0)])
    # Irreducible with period 2, refused by the chain certificate.
    refused = from_entries((0, 1, 2, 3), [(0, 1), (1, 2), (2, 1), (2, 3), (3, 0)])
    weights = {(0,): 0.3, (1,): -0.2, (2,): 0.1, (3,): 0.05}
    for ts, dfs_calls in ((certified, 0), (refused, 1)):
        for phi in (zero_potential(ts), potential_from_weights(weights)):
            tm = build_transfer_matrix(ts, phi, depth=2)
            rpf_triplet(tm)
            spectral_decomposition(tm)
        assert builds.count(ts) == 1 and len(dfs) == dfs_calls
    assert len(builds) == 2


def _cyclic_operator(n):
    """Period-3 operator on n symbols (steps +1, -2, +4)."""
    syms = tuple(range(n))
    pairs = {(i, i + d) for i in syms for d in (1, -2, 4) if 0 <= i + d < n}
    phi = potential_from_weights({(s,): -2.0 * math.log(s + 1) for s in syms})
    return build_transfer_matrix(from_entries(syms, pairs), phi)


def _banded_operator(n):
    ts = banded_structure(n, 2)
    phi = potential_from_weights({(i,): -2.0 * math.log(i) for i in range(1, n + 1)})
    return build_transfer_matrix(ts, phi, depth=1)


def test_operator_irreducibility_flag():
    from ruelle import open_operator

    from conftest import golden_hole

    banded = banded_structure(200, 2)
    assert build_transfer_matrix(banded, zero_potential(banded)).irreducible
    assert build_transfer_matrix(banded, zero_potential(banded), depth=3).irreducible
    assert _cyclic_operator(120).irreducible
    assert not open_operator(golden_hole(), zero_potential(f1())).irreducible
    ts, phi = two_component_dag()
    assert not build_transfer_matrix(ts, phi).irreducible


@pytest.mark.parametrize("depth", [1, 2])
def test_component_decomposition_solves_one_pair_per_cyclic_component(monkeypatch, depth):
    # Each cyclic component's diagonal block is its own irreducible word
    # graph: one pair of loops per component, and the dominant component's
    # pair is the one the decomposition extends.  The pairs are solved at
    # depth 1, the potential's least exact depth, and at depth 2 the
    # dominant pair is lifted.  There the word (1, 2) starts in the dominant
    # component {0, 1} but leaves it; it is extended like any other row,
    # with no separate pair for the words starting there.
    import ruelle.transfer as transfer
    from ruelle import component_decomposition

    dims = []

    def recording(mat, p, tol, max_iter=transfer.DEFAULT_MAX_ITER):
        dims.append(mat.shape[0])
        return solver(mat, p, tol, max_iter)

    solver = transfer._perron_vector
    monkeypatch.setattr(transfer, "_perron_vector", recording)
    ts, phi = two_component_dag(forward=True)
    dec = component_decomposition(ts, phi, depth=depth)
    assert dims == [2, 2, 1, 1]
    assert dec.dominant_component == 0 and dec.lam == pytest.approx(2.0, rel=1e-12)
    assert dec.checks["eigen_residual_h"] <= 1e-12
    assert dec.checks["eigen_residual_nu"] <= 1e-12


def _lift_cases():
    from ruelle import open_operator, perturbed_potential

    from conftest import golden_hole

    full4 = full_shift((0, 1, 2, 3))
    phi3 = _seeded_weights(full4, 3, 16)
    for m in (3, 4, 5, 6):
        yield f"full4-m{m}", build_transfer_matrix(full4, phi3, depth=m)
    banded = banded_structure(200, 2)
    phib = potential_from_weights({(i,): -2.0 * math.log(i) for i in range(1, 201)})
    yield "banded200-m3", build_transfer_matrix(banded, phib, depth=3)
    hole = golden_hole()
    yield "golden-hole-open-m4", open_operator(hole, zero_potential(f1()), depth=4)
    ts, phi = two_component_dag()
    yield "two-component-m3", build_transfer_matrix(ts, phi, depth=3)
    # At eps = 2^-12 the hole weight exp(-4096) underflows to 0.
    eps = perturbed_potential(zero_potential(f1()), hole.closed, hole.open_, 2.0**-12)
    yield "underflowed-hole-m3", build_transfer_matrix(hole.closed, eps, depth=3)


@pytest.mark.parametrize("case", list(_lift_cases()), ids=lambda c: c[0])
def test_lifted_pair_equals_the_cold_loop(case):
    # Both pairs are solved to 1e-14, below the 1e-13 compared: at the
    # default tol each vector is only within about tol of the eigenvector.
    from ruelle.transfer import DEFAULT_MAX_ITER, _perron_pair

    _, tm = case
    tol = 1e-14
    trip = rpf_triplet(tm, tol=tol)
    cold = _perron_pair(tm.matrix, tm.cesaro_period, tol, DEFAULT_MAX_ITER, tm.irreducible, tm)
    minimal = build_transfer_matrix(tm.governing, tm.potential, index_structure=tm.index_structure)
    assert minimal.depth < tm.depth
    assert trip.tm is tm and trip.converged
    assert trip.lam == rpf_triplet(minimal, tol=tol).lam
    assert abs(trip.lam - cold.lam) <= 1e-14 * cold.lam
    tiny = np.finfo(float).tiny
    for got, want in ((trip.g, cold.g), (trip.nu, cold.nu)):
        live = (got >= tiny) | (want >= tiny)
        assert live.any()
        assert np.all(np.abs(got - want)[live] <= 1e-13 * np.maximum(got, want)[live])


def _window_lift(tm, small, g, nu, lam):
    """The lift as a product of depth-b windows: each window found by a walk
    down the enumeration's links, its entry read off the depth-b matrix."""
    from ruelle.shifts import _walk

    b = small.depth
    at = [
        np.searchsorted(small.positions, _walk(tm.index_structure, tm.starts, tm.ranks[:, j : j + b]))
        for j in range(tm.depth - b + 1)
    ]
    out = nu[at[-1]]
    for j in range(tm.depth - b - 1, -1, -1):
        out = out * np.asarray(small.matrix[at[j + 1], at[j]]).ravel() / lam
    return g[at[0]], out / float(out.sum())


@pytest.mark.parametrize("case", list(_lift_cases()), ids=lambda c: c[0])
def test_lift_bitwise_equals_the_window_product(case):
    from ruelle.transfer import _lift

    _, tm = case
    small = build_transfer_matrix(tm.governing, tm.potential, index_structure=tm.index_structure)
    pair = rpf_triplet(small)
    got = _lift(tm, small, pair.g, pair.nu, pair.lam)
    want = _window_lift(tm, small, pair.g, pair.nu, pair.lam)
    for x, y in zip(got, want):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("forward", [True, False])
def test_component_lift_bitwise_equals_the_window_product(monkeypatch, forward):
    import ruelle.transfer as transfer
    from ruelle import component_decomposition

    ts, phi = two_component_dag(forward=forward)
    got = component_decomposition(ts, phi, depth=3)
    monkeypatch.setattr(transfer, "_lift", _window_lift)
    want = component_decomposition(ts, phi, depth=3)
    assert got.lam == want.lam
    for x, y in zip(got.peripherals, want.peripherals):
        assert x.h.tobytes() == y.h.tobytes() and x.nu.tobytes() == y.nu.tobytes()


def test_deep_triplet_walks_no_word(monkeypatch):
    import ruelle.transfer as transfer

    def refuse(*args):
        raise AssertionError("the lift walked the enumeration")

    monkeypatch.setattr(transfer, "_walk", refuse)
    ts = full_shift((0, 1, 2, 3))
    trip = rpf_triplet(build_transfer_matrix(ts, _seeded_weights(ts, 3, 17), depth=7))
    assert trip.converged and len(trip.g) == len(trip.nu) == 4**7


def test_deep_triplet_runs_no_loop_on_the_deep_matrix(monkeypatch):
    import ruelle.transfer as transfer

    dims = []

    def recording(mat, p, tol, max_iter=transfer.DEFAULT_MAX_ITER):
        dims.append(mat.shape[0])
        return solver(mat, p, tol, max_iter)

    solver = transfer._perron_vector
    monkeypatch.setattr(transfer, "_perron_vector", recording)
    ts = full_shift((0, 1, 2, 3))
    trip = rpf_triplet(build_transfer_matrix(ts, _seeded_weights(ts, 3, 16), depth=7))
    assert trip.tm.dim == 4**7 and len(trip.g) == len(trip.nu) == 4**7
    assert dims == [16, 16]


def test_lifted_convergence_error_carries_the_deep_partial():
    ts = full_shift((0, 1, 2, 3))
    tm = build_transfer_matrix(ts, _seeded_weights(ts, 3, 16), depth=5)
    with pytest.raises(ConvergenceError) as exc:
        rpf_triplet(tm, max_iter=5)
    msg = str(exc.value)
    assert "the eigenfunction loop and the eigenvector loop hit the cap of 5 matvecs" in msg
    partial = exc.value.partial
    assert partial.tm is tm and partial.tm.depth == 5 and not partial.converged
    assert len(partial.g) == len(partial.nu) == tm.dim


def test_lifted_tie_raises_with_the_minimal_radius():
    ts = from_entries((0, 1), {(0, 0), (0, 1), (1, 1)})
    errors = []
    for depth in (1, 3):
        with pytest.raises(NonUniqueDominantError) as exc:
            rpf_triplet(build_transfer_matrix(ts, zero_potential(ts), depth=depth))
        errors.append(exc.value)
    assert errors[1].lam == errors[0].lam and errors[1].tied == errors[0].tied


def _recording(monkeypatch):
    """Record the depths ``transfer`` builds and the dims of its loops."""
    import ruelle.transfer as transfer

    built, dims = [], []
    build, vector = transfer.build_transfer_matrix, transfer._perron_vector

    def recording_build(*args, **kwargs):
        tm = build(*args, **kwargs)
        built.append(tm.depth)
        return tm

    def recording_vector(mat, p, tol, max_iter=transfer.DEFAULT_MAX_ITER):
        dims.append(mat.shape[0])
        return vector(mat, p, tol, max_iter)

    monkeypatch.setattr(transfer, "build_transfer_matrix", recording_build)
    monkeypatch.setattr(transfer, "_perron_vector", recording_vector)
    return built, dims


def test_depth_ladder_builds_and_solves_the_reduction_once(monkeypatch):
    ts = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(ts, 3, 16)
    tms = [build_transfer_matrix(ts, phi, depth=m) for m in (3, 4, 5, 6)]
    built, dims = _recording(monkeypatch)
    trips = [rpf_triplet(tm) for tm in tms]
    reps = [topological_pressure(ts, phi, n_max=12, depth=m) for m in (4, 5)]
    assert built == [2] and dims == [16, 16]
    assert len({t.lam for t in trips} | {math.exp(r.spectral) for r in reps}) == 1
    assert [t.tm for t in trips] == tms and all(t.iterations == trips[0].iterations for t in trips)
    # Another depth-2 build of the same system gets the held pair.
    own = build_transfer_matrix(ts, phi)
    trip = rpf_triplet(own)
    assert trip.tm is own and dims == [16, 16]
    held = phi._reduction[1][(DEFAULT_TOL, DEFAULT_MAX_ITER)]
    assert trip.g is held.g and trip.nu is held.nu and trip.lam == held.lam


def test_failed_solve_is_not_kept(monkeypatch):
    ts = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(ts, 3, 16)
    tm = build_transfer_matrix(ts, phi, depth=5)
    built, dims = _recording(monkeypatch)
    for _ in range(2):
        with pytest.raises(ConvergenceError, match="hit the cap of 5 matvecs"):
            rpf_triplet(tm, max_iter=5)
    assert built == [2] and dims == [16] * 4
    assert phi._reduction[1] == {}
    # A caller's own depth-2 build of the held system gets its own partial.
    own = build_transfer_matrix(ts, phi)
    with pytest.raises(ConvergenceError) as exc:
        rpf_triplet(own, max_iter=5)
    assert exc.value.partial.tm is own and built == [2]
    assert rpf_triplet(tm, max_iter=1000).converged
    assert list(phi._reduction[1]) == [(DEFAULT_TOL, 1000)]
    # A tie is refused on every call too.
    ts2 = from_entries((0, 1), {(0, 0), (0, 1), (1, 1)})
    tie = build_transfer_matrix(ts2, zero_potential(ts2), depth=3)
    for _ in range(2):
        with pytest.raises(NonUniqueDominantError):
            rpf_triplet(tie)
    assert tie.potential._reduction[1] == {}


def test_held_vectors_are_read_only():
    ts = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(ts, 3, 16)
    rpf_triplet(build_transfer_matrix(ts, phi, depth=4))
    small, pairs = phi._reduction
    trip = rpf_triplet(small)
    for v in (trip.g, trip.nu, *(getattr(p, n) for p in pairs.values() for n in ("g", "nu"))):
        with pytest.raises(ValueError, match="read-only"):
            v[0] = 0.0


def test_other_tolerance_and_equal_potential_solve_afresh(monkeypatch):
    ts = full_shift((0, 1, 2, 3))
    weights = _seeded_weights(ts, 3, 16).weights
    phi, twin = potential_from_weights(weights), potential_from_weights(dict(weights))
    assert phi == twin and phi is not twin
    built, dims = _recording(monkeypatch)
    rpf_triplet(build_transfer_matrix(ts, phi, depth=4))
    rpf_triplet(build_transfer_matrix(ts, phi, depth=4), tol=1e-10)
    assert built == [2] and dims == [16] * 4
    assert sorted(phi._reduction[1]) == [(1e-12, DEFAULT_MAX_ITER), (1e-10, DEFAULT_MAX_ITER)]
    rpf_triplet(build_transfer_matrix(ts, twin, depth=4))
    assert built == [2, 2] and dims == [16] * 6
    assert twin._reduction[0] is not phi._reduction[0]


def test_held_reduction_lives_and_dies_with_its_potential():
    import gc
    import weakref

    phi = _seeded_weights(full_shift((0, 1, 2, 3)), 3, 16)
    refs = []
    for _ in range(20):
        topological_pressure(full_shift((0, 1, 2, 3)), phi, n_max=4)
        refs.append(weakref.ref(phi._reduction[0]))
    gc.collect()
    assert [r() is None for r in refs] == [True] * 19 + [False]
    del phi
    gc.collect()
    assert refs[-1]() is None


def test_perron_vector_same_bytes_on_csr_and_csc():
    import scipy.sparse as sp

    from ruelle.transfer import _perron_vector

    for tm in (_banded_operator(200), _cyclic_operator(120)):
        for mat in (tm.matrix, tm.matrix.T):
            csr = _perron_vector(mat.tocsr(), tm.cesaro_period, 1e-12)
            csc = _perron_vector(mat.tocsc(), tm.cesaro_period, 1e-12)
            assert (csr[0], csr[2], csr[3]) == (csc[0], csc[2], csc[3])
            assert csr[1].tobytes() == csc[1].tobytes()
    # Integer weights are taken as float64, not dropped by the kernel.
    golden = np.array([[1, 1], [1, 0]])
    lam, vec, _, ok = _perron_vector(sp.csr_matrix(golden), 1, 1e-12)
    _, ref, _, _ = _perron_vector(sp.csr_matrix(golden.astype(float)), 1, 1e-12)
    assert ok and lam == pytest.approx(PHI, abs=1e-12)
    assert vec.tobytes() == ref.tobytes()


def test_perron_vector_scales_instead_of_underflowing():
    # 2-cycles: unscaled, L^2 u = e^-1400 u underflows to the zero vector at
    # weights e^-700 and overflows at e^700.  At e^700 and e^-700 (radius 1)
    # a scale putting the largest entry in [1, 2) would flush the least to
    # 0, so the scale goes down only while the least entry stays normal.
    import scipy.sparse as sp

    from ruelle.transfer import _perron_vector

    for a, b in ((-700.0, -700.0), (700.0, 700.0), (700.0, -700.0)):
        mat = sp.csr_matrix([[0.0, math.exp(a)], [math.exp(b), 0.0]])
        lam, vec, _, ok = _perron_vector(mat, 2, 1e-12)
        assert ok and lam == pytest.approx(math.exp((a + b) / 2), rel=1e-12)
        assert vec.max() == 1.0 and vec.min() > 0.0
    # A subnormal largest entry takes the clamped scale 2^1023.
    tiny = math.exp(-710.0)
    lam, vec, _, ok = _perron_vector(sp.csr_matrix([[tiny]]), 1, 1e-12)
    assert ok and lam == tiny and vec.tolist() == [1.0]


@pytest.mark.parametrize("seed", range(5))
def test_bound_kernel_equals_matmul(seed):
    # _perron_vector calls scipy's private csr_matvec; a scipy release that
    # changes that kernel must fail here rather than move results silently.
    import scipy.sparse as sp

    from ruelle.transfer import _csr_matvec

    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 400))
    mat = sp.random(n, n, density=0.05, format="csr", random_state=rng)
    x = rng.standard_normal(n)
    out = np.zeros(n)
    _csr_matvec(n, n, mat.indptr, mat.indices, mat.data, x, out)
    assert out.tobytes() == (mat @ x).tobytes()


def _full_change_loop(mat, p, tol, max_iter=DEFAULT_MAX_ITER):
    """The Perron loop taking the full componentwise change on every step:
    ``_perron_vector`` without its probe."""
    from ruelle.transfer import FOLD_BELOW, _csr_matvec, _settled, _sup, _unfold

    mat = mat.tocsr().astype(np.float64, copy=False)
    n = mat.shape[0]
    shift = min(1 - math.frexp(_sup(mat.data))[1], 1023)
    if shift < 0:
        least = float(mat.data.min(where=mat.data > 0.0, initial=math.inf))
        shift = min(0, max(shift, -1021 - math.frexp(least)[1]))
    data = np.ldexp(mat.data, shift) if shift else mat.data
    csr = [n, n, mat.indptr, mat.indices, data]
    tiny = np.finfo(float).tiny
    exps, weight, floor = np.zeros(n, dtype=np.int32), None, tiny
    u, new = np.ones(n), np.empty(n)
    rel, big, diff, live = np.empty(n), np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    block = [u] + [np.empty(n) for _ in range(p)]
    change_prev = math.inf
    lam = 0.0
    it = 0
    while it < max_iter:
        block[0] = u
        for i in range(p):
            block[i + 1].fill(0.0)
            _csr_matvec(*csr, block[i], block[i + 1])
        it += p
        if weight is None:
            norm_p, norm_u = float(block[-1].sum()), float(u.sum())
        else:
            norm_p, norm_u = float(block[-1] @ weight), float(u @ weight)
        if norm_p == 0.0:
            return 0.0, np.zeros(n), it, True
        lam = (norm_p / norm_u) ** (1.0 / p)
        np.divide(block[1], lam, out=new)
        for i in range(2, p + 1):
            new += np.divide(block[i], lam**i, out=big)
        if weight is None:
            new /= float(new.max())
        else:
            new /= float(np.multiply(new, weight, out=big).max())
        np.maximum(new, u, out=big)
        np.abs(np.subtract(new, u, out=diff), out=diff)
        rel.fill(0.0)
        np.divide(diff, big, out=rel, where=np.greater_equal(big, floor, out=live))
        change = float(rel.max(initial=0.0))
        if _settled(change, change_prev, tol):
            return math.ldexp(lam, -shift), _unfold(new, exps), it, True
        if new.min() < FOLD_BELOW and new.min(where=new > 0.0, initial=1.0) < FOLD_BELOW:
            new, e = np.frexp(new)
            exps += e
            rows = np.repeat(np.arange(n), np.diff(mat.indptr))
            scaled = np.ldexp(data, exps[mat.indices] - exps[rows])
            scaled[scaled < tiny] = 0.0
            csr[4] = scaled
            weight, floor = np.ldexp(1.0, exps), np.ldexp(tiny, np.minimum(-exps, 2045))
        u, new = new, u
        change_prev = change
    return math.ldexp(lam, -shift), _unfold(u, exps), it, False


def _fuzz_draws(count):
    """The first ``count`` systems of the seeded fuzz of badly scaled
    weights: 2 to 5 symbols, random transitions, depth 1 to 3, weights
    U(-A, A/6) with A in {1, 30, 300}, built at the least depth."""
    rng = np.random.default_rng(20261019)
    for _ in range(count):
        k = int(rng.integers(2, 6))
        syms = tuple(range(k))
        ent = {(i, j) for i in syms for j in syms if rng.random() < 0.5}
        if not ent:
            continue
        d = int(rng.integers(1, 4))
        a = float(rng.choice([1.0, 30.0, 300.0]))
        ts = from_entries(syms, ent)
        words = admissible_words(ts, d)
        if not words:
            continue
        weights = dict(zip(words, rng.uniform(-a, a / 6, size=len(words)).tolist()))
        rng.integers(0, 2)  # a depth offset, unused at the least depth
        yield build_transfer_matrix(ts, potential_from_weights(weights))


def test_probed_loop_is_bitwise_the_full_change_loop(monkeypatch):
    # Every stop, radius, vector, matvec count and flag of the probed loop
    # equals the loop that takes the full change on every step: on plain,
    # folding, periodic and badly scaled matrices, and at small caps that
    # stop it between a probe and the late full change.
    import scipy.sparse as sp

    from ruelle import TailModel, renewal_structure, transfer
    from ruelle.applications import renewal_potential

    def result(out):
        lam, vec, it, ok = out
        return float(lam).hex(), vec.tobytes(), it, ok

    full4 = full_shift((0, 1, 2, 3))
    noise = np.random.default_rng(1101).uniform(-0.5, 0.5, size=800)
    weights = {(i,): -2.0 * math.log(i) + float(e) for i, e in zip(range(1, 801), noise)}
    phi = potential_from_weights(weights, tail=TailModel.geometric(1.0, 0.5))
    banded = build_transfer_matrix(banded_structure(800, 2), phi)
    renewal = renewal_structure(60)
    cases = [
        (tm, tm.cesaro_period)
        for tm in (
            build_transfer_matrix(full4, _seeded_weights(full4, 3, 16), depth=3),
            banded,
            build_transfer_matrix(renewal, renewal_potential(f4_spec(60), renewal)),
            _cyclic_operator(120),
        )
    ]
    loops = [(mat, p, DEFAULT_MAX_ITER) for tm, p in cases for mat in (tm.matrix, tm.matrix.T)]
    for a, b in ((-700.0, -700.0), (700.0, 700.0), (700.0, -700.0)):
        mat = sp.csr_matrix([[0.0, math.exp(a)], [math.exp(b), 0.0]])
        loops.append((mat, 2, DEFAULT_MAX_ITER))
    # A slowly mixing two-state block, with a nine-step chain of weight
    # e^-230 leaving state 0 and closing back into it.  The loop folds, the
    # chain's far end stays far below the normal range and lags nine steps
    # behind, and the stop reads the change of a step taken late: it counts
    # only what that step's own floor counts.
    chain = np.zeros((11, 11))
    chain[:2, :2] = [[0.6, 0.1], [0.1, 0.8]]
    chain[range(2, 11), [0, *range(2, 10)]] = math.exp(-230.0)
    chain[0, 10] = 1.0
    loops += [(sp.csr_matrix(mat), 1, DEFAULT_MAX_ITER) for mat in (chain, chain.T)]
    loops += [(mat, p, cap) for mat, p, _ in list(loops) for cap in (1, 2, 5, 17)]
    # Every loop the fuzz's solves run, blocks included, at 3000 matvecs.
    solve = transfer._perron_vector

    def record(mat, p, tol, max_iter):
        loops.append((mat, p, max_iter))
        return solve(mat, p, tol, max_iter)

    monkeypatch.setattr(transfer, "_perron_vector", record)
    for tm in _fuzz_draws(40):
        try:
            rpf_triplet(tm, max_iter=3000)
        except (ConvergenceError, NonUniqueDominantError, PreconditionError):
            pass
    monkeypatch.undo()
    assert len(loops) > 150
    for mat, p, cap in loops:
        got = solve(mat, p, DEFAULT_TOL, cap)
        assert result(got) == result(_full_change_loop(mat, p, DEFAULT_TOL, cap))


def test_loop_takes_the_full_change_on_few_steps(monkeypatch):
    # The probe entry keeps proving the change above tol; the full change
    # is taken on the last steps only, 3 of about 40 per loop here.
    from ruelle import transfer

    takes = []
    change = transfer._change
    monkeypatch.setattr(transfer, "_change", lambda *a: takes.append(1) or change(*a))
    full4 = full_shift((0, 1, 2, 3))
    tm = build_transfer_matrix(full4, _seeded_weights(full4, 3, 16), depth=2)
    for mat in (tm.matrix, tm.matrix.T):
        takes.clear()
        _, _, steps, ok = transfer._perron_vector(mat, 1, DEFAULT_TOL)
        assert ok and steps >= 40
        assert len(takes) <= 4


def test_assembly_refuses_over_cap_before_allocating():
    import time

    from ruelle import EnumerationCapExceeded

    ts = full_shift(range(5))  # |W_11| = 5**11 = 48.8M words
    start = time.perf_counter()
    with pytest.raises(EnumerationCapExceeded):
        build_transfer_matrix(ts, zero_potential(ts), depth=11)
    assert time.perf_counter() - start < 1.0


# -- cylinder masses against the word-by-word definition ---------------------------------


def _reference_masses(tm, h, nu, lam, cylinders):
    """Cylinder masses word by word: the sum of h nu over the index words
    below a cylinder of length <= m, the log-space extension past m."""
    words = tm.words
    index = {w: i for i, w in enumerate(words)}
    m, phi = tm.depth, tm.potential
    out = []
    for w in cylinders:
        if not w:
            out.append(1.0)
        elif len(w) <= m:
            total = 0.0
            for i, v in enumerate(words):
                if v[: len(w)] == w:
                    total += h[i] * nu[i]
            out.append(total)
        elif not tm.index_structure.has_nonempty_cylinder(w) or nu[index[w[-m:]]] <= 0.0:
            out.append(0.0)
        else:
            log_mass = 0.0
            for j in range(len(w) - m):
                log_mass += phi.value(w[j : j + phi.depth]) - math.log(lam)
            out.append(h[index[w[:m]]] * math.exp(log_mass + math.log(nu[index[w[-m:]]])))
    return out


def _mass_cylinders(ts, m):
    """The empty cylinder, every admissible word of length 1..m+2, and
    words with a symbol outside the alphabet."""
    cyl = [()]
    for n in range(1, m + 3):
        cyl += admissible_words(ts, n)
    first = ts.alphabet.symbols[0]
    return cyl + [("x",), (first, "x"), (first,) * m + ("x",)]


def _reducible_hole():
    from ruelle import HoleSpec

    closed = from_entries((0, 1, 2), [(i, j) for i in range(3) for j in range(3)])
    kept = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2)]
    return HoleSpec(closed=closed, open_=closed.restrict([p for p in closed.entries if p not in kept]))


class TestCylinderMasses:
    def _check(self, tm, h, nu, lam):
        from ruelle.transfer import _cylinder_masses

        cyl = _mass_cylinders(tm.index_structure, tm.depth)
        got = _cylinder_masses(tm, h, nu, lam, cyl)
        want = _reference_masses(tm, h, nu, lam, cyl)
        assert got[0] == 1.0
        for w, a, b in zip(cyl, got.tolist(), want):
            assert abs(a - b) <= 1e-15 * abs(b), w
        assert any(0.0 < v for v, w in zip(got, cyl) if len(w) > tm.depth)
        return dict(zip(cyl, got.tolist()))

    def _check_triplet(self, trip):
        self._check(trip.tm, trip.h, trip.nu, trip.lam)
        masses = self._check(trip.tm, np.ones(trip.tm.dim), trip.nu, trip.lam)
        for w in [(), (1,), (0, 1), (1, 0, 1)]:
            assert trip.nu_mass(w) == masses[w]
        return masses

    def test_golden(self):
        for depth in (None, 2):
            trip = rpf_triplet(build_transfer_matrix(f2(), zero_potential(f2()), depth=depth))
            masses = self._check_triplet(trip)
            assert masses[("x",)] == masses[(0, "x")] == 0.0
            # (0, 0) is not admissible: no index word at m = 2, past m at m = 1.
            assert trip.mu_mass((0, 0)) == trip.nu_mass((0, 0)) == 0.0

    def test_full4_depth2_potential_at_m3(self):
        ts = full_shift((0, 1, 2, 3))
        trip = rpf_triplet(build_transfer_matrix(ts, _seeded_weights(ts, 2, 17), depth=3))
        self._check_triplet(trip)
        for w in [(2,), (3, 1), (0, 1, 2), (1, 2, 3, 0)]:
            assert trip.mu_mass(w) == pytest.approx(
                sum(trip.mu_mass(w + (c,)) for c in range(4)), rel=1e-14
            )

    def test_dead_end_symbol(self):
        # 2 has no successor: (1, 2) is admissible but its cylinder is empty.
        ts = from_entries((0, 1, 2), [(0, 0), (0, 1), (1, 0), (1, 2)])
        trip = rpf_triplet(build_transfer_matrix(ts, zero_potential(ts), depth=2))
        masses = self._check_triplet(trip)
        assert masses[(1, 2)] == masses[(0, 1, 2)] == masses[(2,)] == 0.0
        assert masses[(0, 1, 0)] > 0.0

    def test_reducible_fixture(self):
        from ruelle.spectral import component_decomposition

        hole = _reducible_hole()
        for phi in (zero_potential(hole.closed), _seeded_weights(hole.closed, 2, 18)):
            for depth in (None, 2):
                dec = component_decomposition(hole.open_, phi, depth=depth)
                assert dec.words == dec.tm.words
                per = dec.peripherals[0]
                masses = self._check(dec.tm, per.h.real, per.nu.real, dec.lam)
                assert masses[(2,)] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_deep_masses_are_bitwise_the_per_word_sums(self, depth):
        # Past the depth the steps are gathered from the weight table and
        # added left to right from 0.0, as the per-word loop adds them.
        from ruelle.transfer import _cylinder_masses

        ts = from_entries((0, 1, 2), [(0, 0), (0, 1), (1, 0), (1, 2), (2, 0), (2, 1), (2, 2)])
        trip = rpf_triplet(build_transfer_matrix(ts, _seeded_weights(ts, depth, 30 + depth)))
        m = trip.tm.depth
        cyl = [w for n in range(m + 1, m + 5) for w in admissible_words(ts, n)]
        got = _cylinder_masses(trip.tm, trip.h, trip.nu, trip.lam, cyl)
        want = _reference_masses(trip.tm, trip.h, trip.nu, trip.lam, cyl)
        assert got.view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()

    def test_reducible_fixture_words_off_the_index(self):
        # Every word over the closed alphabet: the open index misses those
        # with a hole pair, at lengths up to m and past it.
        from ruelle.transfer import _cylinder_masses

        hole = _reducible_hole()
        tm = build_transfer_matrix(hole.open_, _seeded_weights(hole.closed, 2, 21), depth=2)
        trip = rpf_triplet(tm)
        cyl = [w for n in range(1, 5) for w in admissible_words(hole.closed, n)]
        got = _cylinder_masses(tm, trip.h, trip.nu, trip.lam, cyl)
        want = _reference_masses(tm, trip.h, trip.nu, trip.lam, cyl)
        for w, a, b in zip(cyl, got.tolist(), want):
            assert abs(a - b) <= 1e-15 * abs(b), w
        off = [w for w in cyl if not hole.open_.is_admissible(w)]
        assert {len(w) for w in off} == {2, 3, 4}
        assert all(got[cyl.index(w)] == 0.0 for w in off)

    def test_mass_routines_never_read_the_word_tuples(self, monkeypatch):
        from ruelle import HoleSpec, gibbs_check, gibbs_convergence_trace
        from ruelle.transfer import TransferMatrix

        def refuse(self):
            raise AssertionError("a mass routine read TransferMatrix.words")

        monkeypatch.setattr(TransferMatrix, "words", property(refuse))
        trip = rpf_triplet(build_transfer_matrix(f2(), zero_potential(f2()), depth=2))
        trip.mu_mass((0, 1, 0))
        trip.nu_mass((1,))
        gibbs_check(trip, zero_potential(f2()), math.log(trip.lam), depths=(1, 2, 3))
        for hole in (HoleSpec.from_hole(f1(), [(0, 0)]), _reducible_hole()):
            cyl = [(0,), (0, 1), (1, 0, 1)]
            gibbs_convergence_trace(zero_potential(hole.closed), hole, (1.0, 0.5), cyl, depth=2)
