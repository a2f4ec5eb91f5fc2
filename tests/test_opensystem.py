import math

import numpy as np
import pytest

from ruelle import (
    HoleSpec,
    PreconditionError,
    build_transfer_matrix,
    escape_rate,
    from_entries,
    log_survivor_masses,
    monte_carlo_survival,
    potential_from_weights,
    rpf_triplet,
    survivor_mass,
    zero_potential,
)

from conftest import PHI, f1, f2, f3, fib, golden_hole, hole_cases


def closed_triplet(depth=1):
    tm = build_transfer_matrix(f1(), zero_potential(f1()), depth=depth)
    return rpf_triplet(tm)


class TestSurvivorMass:
    def test_no_hole_mass_one(self):
        hole = HoleSpec(closed=f1(), open_=f1())
        trip = closed_triplet()
        for n in (1, 5, 20):
            assert survivor_mass(hole, zero_potential(f1()), trip, n) == pytest.approx(1.0)

    def test_open_system_over_another_alphabet_rejected(self):
        from ruelle import from_entries

        with pytest.raises(PreconditionError, match="share one alphabet"):
            HoleSpec(closed=f1(), open_=from_entries((0,), [(0, 0)]))

    def test_golden_hole_fibonacci(self):
        # Survivors over n transitions are the no-00 words of length n+1;
        # under the uniform closed measure the mass is the word count over
        # 2^{n+1}.
        hole = golden_hole()
        trip = closed_triplet()
        phi = zero_potential(f1())
        for n in range(1, 25):
            expected = fib(n + 3) / 2.0 ** (n + 1)
            assert survivor_mass(hole, phi, trip, n) == pytest.approx(expected, rel=1e-10)

    def test_first_step_mass(self):
        hole = golden_hole()
        trip = closed_triplet()
        assert survivor_mass(hole, zero_potential(f1()), trip, 1) == pytest.approx(0.75)

    def test_monotone_and_submultiplicative(self):
        hole = golden_hole()
        trip = closed_triplet()
        logs = log_survivor_masses(hole, zero_potential(f1()), trip, 30)
        assert all(b <= a + 1e-12 for a, b in zip(logs, logs[1:]))
        # log-mass differences stabilize: masses decay cleanly.
        diffs = [b - a for a, b in zip(logs, logs[1:])]
        assert diffs[-1] == pytest.approx(math.log(PHI / 2.0), abs=1e-8)

    def test_deeper_reduction_same_masses(self):
        hole = golden_hole()
        phi = zero_potential(f1())
        trip1 = closed_triplet(depth=1)
        trip3 = closed_triplet(depth=3)
        for n in (1, 4, 9):
            assert survivor_mass(hole, phi, trip1, n) == pytest.approx(
                survivor_mass(hole, phi, trip3, n), rel=1e-10
            )


class TestEscapeRate:
    def test_golden_hole_rate(self):
        rep = escape_rate(golden_hole(), zero_potential(f1()), n_max=40)
        target = math.log(2.0) - math.log(PHI)
        assert rep.fitted_rate == pytest.approx(target, abs=1e-6)
        assert rep.spectral_prediction == pytest.approx(target, abs=1e-10)
        assert rep.discrepancy <= 1e-6

    def test_no_hole_rate_zero(self):
        hole = HoleSpec(closed=f1(), open_=f1())
        rep = escape_rate(hole, zero_potential(f1()), n_max=20)
        assert rep.fitted_rate == pytest.approx(0.0, abs=1e-12)
        assert rep.spectral_prediction == pytest.approx(0.0, abs=1e-12)

    def test_period_two_subsystem(self):
        # The two-cycle inside the full shift escapes at rate log 2; the
        # oscillating masses need the period-aligned averaging.
        hole = HoleSpec(closed=f1(), open_=f3())
        rep = escape_rate(hole, zero_potential(f1()), n_max=40)
        assert rep.period == 2
        assert rep.lam_open == pytest.approx(1.0, abs=1e-12)
        assert rep.fitted_rate == pytest.approx(math.log(2.0), abs=1e-9)

    def test_strictly_positive_when_hole_present(self):
        rep = escape_rate(golden_hole(), zero_potential(f1()), n_max=20)
        assert rep.fitted_rate > 0.0

    def test_weighted_potential(self):
        # Nonuniform closed system: rate equals the log ratio of radii.
        phi = potential_from_weights({(0,): 0.4, (1,): -0.1})
        hole = golden_hole()
        rep = escape_rate(hole, phi, n_max=40)
        assert rep.fitted_rate == pytest.approx(
            math.log(rep.lam_closed) - math.log(rep.lam_open), abs=1e-8
        )
        assert rep.lam_closed > rep.lam_open

    def test_vanishing_survivors_are_refused(self):
        # The hole cuts the dominant self-loop, and the closed measure puts
        # no mass on the other: no log-mass after the first is finite.
        hole = HoleSpec.from_hole(from_entries((0, 1), [(0, 0), (1, 1)]), [(0, 0)])
        phi = potential_from_weights({(0,): -1.0, (1,): -6.0})
        trip = rpf_triplet(build_transfer_matrix(hole.closed, phi))
        assert math.isinf(log_survivor_masses(hole, phi, trip, 2)[1])
        with pytest.raises(PreconditionError, match="survivor masses vanish"):
            escape_rate(hole, phi, n_max=10)


class TestMonteCarlo:
    def test_matches_exact_within_three_sigma(self):
        hole = golden_hole()
        trip = closed_triplet()
        phi = zero_potential(f1())
        exact = survivor_mass(hole, phi, trip, 10)
        est = monte_carlo_survival(hole, phi, trip, 10, 100_000, seed=20240501)
        assert abs(est.estimate - exact) <= 3.0 * est.stderr

    def test_no_hole_always_survives(self):
        hole = HoleSpec(closed=f1(), open_=f1())
        trip = closed_triplet()
        est = monte_carlo_survival(hole, zero_potential(f1()), trip, 5, 2000, seed=7)
        assert est.estimate == 1.0

    def test_single_step_two_cylinder_mass(self):
        hole = golden_hole()
        trip = closed_triplet()
        est = monte_carlo_survival(hole, zero_potential(f1()), trip, 1, 200_000, seed=11)
        assert abs(est.estimate - 0.75) <= 3.0 * est.stderr

    def test_reproducible_and_chunk_invariant(self):
        hole = golden_hole()
        trip = closed_triplet()
        phi = zero_potential(f1())
        a = monte_carlo_survival(hole, phi, trip, 8, 30_000, seed=99)
        b = monte_carlo_survival(hole, phi, trip, 8, 30_000, seed=99)
        assert a.estimate == b.estimate

    def test_small_sample_rejected(self):
        hole = golden_hole()
        trip = closed_triplet()
        with pytest.raises(PreconditionError):
            monte_carlo_survival(hole, zero_potential(f1()), trip, 5, 50, seed=1)

    def test_deeper_blocks_agree(self):
        # Depth-3 reduction carries two transitions in the initial block.
        hole = golden_hole()
        phi = zero_potential(f1())
        trip = closed_triplet(depth=3)
        exact = survivor_mass(hole, phi, trip, 2)
        est = monte_carlo_survival(hole, phi, trip, 2, 100_000, seed=5)
        assert abs(est.estimate - exact) <= 3.0 * est.stderr


class TestHoleSpec:
    def test_partition_of_closed_pairs(self):
        hole = golden_hole()
        assert hole.open_.entries == hole.closed.entries - hole.hole_pairs
        assert hole.open_.entries | hole.hole_pairs == f1().entries
        assert not hole.open_.entries & hole.hole_pairs

    def test_refinement_enforced(self):
        with pytest.raises(PreconditionError):
            HoleSpec(closed=f2(), open_=f1())


# -- the sampler kernel against the word-by-word definition -----------------------------


def _reference_step_table(hole, trip):
    """Per source word: targets, cumulative probabilities and hole-free flags."""
    tm = trip.tm
    table = []
    for j, w in enumerate(tm.words):
        tos, probs, oks = [], [], []
        for c in tm.index_structure.successors[w[-1]]:
            i = tm.word_index.get(w[1:] + (c,))
            if i is None:
                continue
            weight = math.exp(tm.potential.value(w + (c,)))
            tos.append(i)
            probs.append(weight * trip.nu[i] / (trip.lam * trip.nu[j]) if trip.nu[j] > 0 else 0.0)
            oks.append(hole.open_.allows(w[-1], c))
        probs = np.array(probs, dtype=float)
        total = probs.sum()
        if total > 0:
            probs = probs / total
        table.append((np.array(tos, dtype=np.int64), np.cumsum(probs), np.array(oks, dtype=bool)))
    return table


def _reference_sampler(hole, trip, n, sample_count, seed, chunk_size):
    """The path sampler with one search per distinct state."""
    tm = trip.tm
    m = tm.depth
    table = _reference_step_table(hole, trip)
    init = np.maximum(trip.h * trip.nu, 0.0)
    init = init / init.sum()
    t0 = min(m - 1, n)
    block_ok = np.array(
        [all(hole.open_.allows(a, b) for a, b in zip(w[:t0], w[1 : t0 + 1])) for w in tm.words]
    )
    survived = drawn = 0
    for chunk_seed in np.random.SeedSequence(seed).spawn(math.ceil(sample_count / chunk_size)):
        size = min(chunk_size, sample_count - drawn)
        rng = np.random.default_rng(chunk_seed)
        state = rng.choice(tm.dim, size=size, p=init)
        alive = block_ok[state].copy()
        for _ in range(max(0, n + 1 - m)):
            u = rng.random(size)
            new_state = state.copy()
            for j in np.unique(state):
                sel = state == j
                tos, cum, oks = table[j]
                slot = np.minimum(np.searchsorted(cum, u[sel], side="right"), len(cum) - 1)
                new_state[sel] = tos[slot]
                alive[sel] &= oks[slot]
            state = new_state
        survived += int(alive.sum())
        drawn += size
    return survived / drawn


@pytest.mark.parametrize("depth_step", [0, 1])
@pytest.mark.parametrize("case", hole_cases(), ids=lambda c: c[0])
def test_step_table_bitwise_equals_word_loop(case, depth_step):
    from ruelle.opensystem import _step_table

    _, hole, phi = case
    tm = build_transfer_matrix(hole.closed, phi)
    trip = rpf_triplet(build_transfer_matrix(hole.closed, phi, depth=tm.depth + depth_step))
    indptr, targets, cum, ok = _step_table(hole, trip)
    ref = _reference_step_table(hole, trip)
    assert np.diff(indptr).tolist() == [len(tos) for tos, _, _ in ref]
    assert targets.tolist() == np.concatenate([tos for tos, _, _ in ref]).tolist()
    assert cum.tobytes() == np.concatenate([c for _, c, _ in ref]).tobytes()
    assert ok.tolist() == np.concatenate([o for _, _, o in ref]).tolist()


@pytest.mark.parametrize("case", hole_cases(), ids=lambda c: c[0])
def test_sampler_estimate_equals_word_loop(case):
    _, hole, phi = case
    tm = build_transfer_matrix(hole.closed, phi)
    for depth, n in ((tm.depth, 7), (tm.depth + 1, 5)):
        trip = rpf_triplet(build_transfer_matrix(hole.closed, phi, depth=depth))
        est = monte_carlo_survival(hole, phi, trip, n, 12_000, seed=31, chunk_size=5_000)
        assert est.estimate == _reference_sampler(hole, trip, n, 12_000, 31, 5_000)
