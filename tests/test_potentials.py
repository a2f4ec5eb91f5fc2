import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ruelle import (
    Alphabet,
    from_entries,
    PreconditionError,
    Potential,
    TailModel,
    admissible_words,
    build_transfer_matrix,
    constant_potential,
    cylinder_sup,
    extend_potential,
    full_shift,
    perturbed_potential,
    potential_from_weights,
    seminorm_bracket,
    summability_certificate,
    variation,
    zero_potential,
)

from conftest import f1, f2, f4, f4_spec, golden_hole
from ruelle.applications import renewal_potential
from ruelle.potentials import _lex_min_extension
from ruelle.shifts import _word_trie


class TestSeminorm:
    def test_zero_potential(self):
        br = seminorm_bracket(zero_potential(f1()), f1(), k=1)
        assert br.lower == br.upper == 0.0

    def test_depth_equals_k_vanishes(self):
        phi = potential_from_weights({(0, 1): 0.7, (1, 0): -0.3, (1, 1): 0.1})
        br = seminorm_bracket(phi, f2(), k=2)
        assert br.lower == br.upper == 0.0

    def test_golden_depth2_variation_is_zero_on_subshift(self):
        # From state 0 the only continuation is 01, so depth-1 groups are
        # singletons or equal-valued; the brute-force enumeration agrees.
        phi = potential_from_weights({(0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0})
        ts = f2()
        br = seminorm_bracket(phi, ts, k=1, theta=0.5)
        groups = {}
        for w in admissible_words(ts, 6):
            if not ts.has_nonempty_cylinder(w):
                continue
            for n in range(1, 6):
                groups.setdefault((n, w[:n]), []).append(phi.value(w))
        oracle = 0.0
        for (n, _), vals in groups.items():
            if len(vals) > 1:
                oracle = max(oracle, (max(vals) - min(vals)) / 0.5**n)
        assert br.lower == pytest.approx(oracle) == 0.0

    def test_full_shift_variant_sees_the_gap(self):
        # The same weights with a default on the hole word have variation 1
        # at depth 1: [phi]_1 = 1 / theta = 2.
        phi = potential_from_weights({(0, 0): 0.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0})
        br = seminorm_bracket(phi, f1(), k=1, theta=0.5)
        assert br.lower == br.upper == pytest.approx(2.0)
        assert br.attained_at == 1

    def test_variation_below_the_depth_counts_at_every_n(self):
        # Depth-3 weights 5 x_2 vary by 5 at n = 1 and n = 2, so
        # [phi]_1 = max(5 / 0.5, 5 / 0.25) = 20, attained at n = 2.
        ts = full_shift((0, 1))
        phi = potential_from_weights({w: 5.0 * w[2] for w in admissible_words(ts, 3)})
        br = seminorm_bracket(phi, ts, k=1, theta=0.5)
        assert br.lower == br.upper == 20.0
        assert br.attained_at == 2

    def test_monotone_in_k(self):
        phi = potential_from_weights(
            {w: hash(w) % 7 * 0.1 for w in admissible_words(f1(), 3)}
        )
        brackets = [
            seminorm_bracket(phi, f1(), k=k).upper for k in (1, 2, 3)
        ]
        assert brackets[0] >= brackets[1] >= brackets[2]

    def test_variation_vanishes_past_depth(self):
        phi = potential_from_weights({w: 0.3 for w in admissible_words(f2(), 2)})
        assert variation(phi, f2(), 2) == 0.0
        assert variation(phi, f2(), 5) == 0.0


class TestSummability:
    def test_two_symbols_zero_potential(self):
        cert = summability_certificate(zero_potential(f1()), f1())
        assert cert.partial_sum == pytest.approx(2.0)
        assert cert.tail_bound == 0.0
        assert cert.summable

    def test_renewal_geometric(self):
        ts = f4(10)
        phi = renewal_potential(f4_spec(10), ts)
        cert = summability_certificate(phi, ts)
        # sup over the cylinder of n is log max(a_n, b_n) = -n log 4.
        assert cert.partial_sum == pytest.approx(sum(4.0**-n for n in range(1, 11)))
        assert cert.partial_sum == pytest.approx(1 / 3, abs=1e-6)
        assert cert.tail_bound == pytest.approx(4.0**-10 / 3.0)

    def test_harmonic_tail_not_summable(self):
        ts = f4(6)
        phi = renewal_potential(f4_spec(6), ts)
        phi = potential_from_weights(phi.weights, tail=TailModel.harmonic())
        cert = summability_certificate(phi, ts)
        assert not cert.summable


class TestBirkhoff:
    def test_zero(self):
        assert zero_potential(f1()).birkhoff((0, 1, 0, 1), 3) == 0.0

    def test_renewal_table_lookup(self):
        ts = f4(6)
        phi = renewal_potential(f4_spec(6), ts)
        val = phi.birkhoff((1, 2, 1), 2)
        assert val == pytest.approx(math.log(0.25) + math.log(4.0**-2))

    def test_constant_scales(self):
        phi = constant_potential(f1(), 0.7)
        assert phi.birkhoff((0, 1, 0, 1, 0), 5) == pytest.approx(3.5)

    def test_too_short_rejected(self):
        phi = potential_from_weights({w: 1.0 for w in admissible_words(f1(), 2)})
        with pytest.raises(PreconditionError):
            phi.birkhoff((0, 1), 2)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 200))
    def test_additivity(self, n, m, pick):
        ts = f2()
        phi = potential_from_weights({(0, 1): 0.2, (1, 0): -0.4, (1, 1): 0.9})
        words = admissible_words(ts, n + m + phi.depth - 1) if n + m else [()]
        if not words:
            return
        w = words[pick % len(words)]
        total = phi.birkhoff(w, n + m)
        assert total == pytest.approx(
            phi.birkhoff(w, n) + phi.birkhoff(w[n:], m)
        )


class TestExtension:
    def setup_method(self):
        self.sub = f2()
        self.amb = f1()
        self.phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        self.ext = extend_potential(self.phi, self.sub, self.amb)

    def test_agrees_on_subshift_words(self):
        for w in admissible_words(self.sub, 5):
            if self.sub.has_nonempty_cylinder(w):
                assert self.ext.value(w) == self.phi.value(w)

    def test_hole_word_takes_representative_value(self):
        # Points entering 00 read the value at the representative of [0],
        # which continues 0 -> 1 by the lexicographic policy.
        assert self.ext.value((0, 0)) == self.phi.value((0, 1))

    def test_sup_norm_preserved(self):
        orig = max(abs(v) for v in self.phi.weights.values())
        new = max(abs(v) for v in self.ext.weights.values())
        assert new == orig

    def test_variations_preserved_to_depth_8(self):
        for n in range(1, 9):
            assert variation(self.ext, self.amb, n) == pytest.approx(
                variation(self.phi, self.sub, n), abs=0.0
            )

    def test_missing_symbol_cylinder_rejected(self):
        # 2 has no transitions in the subsystem, so [2] misses it entirely.
        amb = f1()
        amb3 = from_entries((0, 1, 2), [(i, j) for i in range(3) for j in range(3)])
        with pytest.raises(PreconditionError):
            extend_potential(self.phi, self.sub, amb3)


class TestPerturbedPotential:
    def test_hole_branch(self):
        hole = golden_hole()
        pe = perturbed_potential(zero_potential(f1()), hole.closed, hole.open_, 1.0)
        assert pe.depth == 2
        assert pe.value((0, 0)) == pytest.approx(-1.0)
        assert pe.value((0, 1)) == 0.0
        assert pe.value((1, 0)) == 0.0
        assert pe.value((1, 1)) == 0.0

    def test_allowed_points_unchanged_without_clamp(self):
        hole = golden_hole()
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        ext = extend_potential(phi, hole.open_, hole.closed)
        pe = perturbed_potential(ext, hole.closed, hole.open_, 0.5)
        for w in admissible_words(hole.open_, 2):
            if hole.open_.has_nonempty_cylinder(w):
                assert pe.value(w) == ext.value(w)

    def test_clamp_branch(self):
        # A deep dip below sup - 1/eps on an allowed word gets lifted; on the
        # hole it also pays the indicator drop.
        phi = potential_from_weights({(0, 0): -10.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0})
        hole = golden_hole()
        pe = perturbed_potential(phi, hole.closed, hole.open_, 1.0)
        assert pe.value((0, 1)) == pytest.approx(0.0)
        assert pe.value((0, 0)) == pytest.approx(-1.0 - 1.0)

    def test_monotone_in_epsilon_on_allowed(self):
        hole = golden_hole()
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        ext = extend_potential(phi, hole.open_, hole.closed)
        values = []
        for eps in (1.0, 0.5, 0.25, 0.125):
            pe = perturbed_potential(ext, hole.closed, hole.open_, eps)
            values.append([pe.value(w) for w in admissible_words(hole.open_, 2)])
        for older, newer in zip(values, values[1:]):
            assert all(b <= a + 1e-12 for a, b in zip(older, newer))

    def test_dominates_original_on_allowed(self):
        hole = golden_hole()
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        ext = extend_potential(phi, hole.open_, hole.closed)
        pe = perturbed_potential(ext, hole.closed, hole.open_, 0.25)
        for w in admissible_words(hole.closed, 2):
            if hole.open_.allows(w[0], w[1]):
                assert pe.value(w) >= ext.value(w) - 1e-12

    def test_seminorm_bound_at_k_plus_1(self):
        hole = golden_hole()
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        ext = extend_potential(phi, hole.open_, hole.closed)
        ref = seminorm_bracket(ext, hole.closed, k=2).upper
        for eps in (1.0, 0.25, 0.0625):
            pe = perturbed_potential(ext, hole.closed, hole.open_, eps)
            got = seminorm_bracket(pe, hole.closed, k=2).upper
            assert got <= ref + 1e-12

    def test_epsilon_positive(self):
        hole = golden_hole()
        with pytest.raises(PreconditionError):
            perturbed_potential(zero_potential(f1()), hole.closed, hole.open_, 0.0)


class TestRepresentatives:
    def test_lex_min_point(self):
        assert _lex_min_extension(f2(), (0,), 5) == (0, 1, 0, 1, 0)
        assert _lex_min_extension(f2(), (1, 1), 4) == (1, 1, 0, 1)

    def test_cylinder_sup_exact(self):
        phi = potential_from_weights({(0, 1): 0.3, (1, 0): -0.2, (1, 1): 0.5})
        assert cylinder_sup(phi, f2(), (0,)) == pytest.approx(0.3)
        assert cylinder_sup(phi, f2(), (1,)) == pytest.approx(0.5)


def _bits(values) -> list:
    """The IEEE bit patterns of a float sequence."""
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestWeightTable:
    """``Potential.gather``: the weights compiled once per alphabet."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_gather_is_bitwise_the_weight_lookup(self, seed, depth):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        symbols = tuple(rng.permutation(k) * 10)  # not in rank order
        pairs = [(a, b) for a in symbols for b in symbols if rng.random() < 0.6]
        ts = from_entries(symbols, pairs)
        words = admissible_words(ts, depth)
        phi = potential_from_weights({w: float(rng.uniform(-40.0, 40.0)) for w in words})
        rows, _, _ = _word_trie(ts, depth)
        for order in (slice(None), rng.permutation(len(words))):
            want = [words[i] for i in np.arange(len(words))[order]]
            got_exp = phi.gather(ts.alphabet, rows[order], exp=True)
            got = phi.gather(ts.alphabet, rows[order])
            assert _bits(got_exp) == _bits([math.exp(phi.value(w)) for w in want])
            assert _bits(got) == _bits([phi.value(w) for w in want])
        if len(words):
            at = rng.integers(0, len(words), size=3 * len(words))
            got = phi.gather(ts.alphabet, rows, at, exp=True)
            assert _bits(got) == _bits([math.exp(phi.value(words[i])) for i in at])

    def test_a_missing_word_raises_and_is_named(self):
        ts = full_shift(("a", "b", "c"))
        words = admissible_words(ts, 2)
        phi = potential_from_weights({w: 0.5 for w in words if w != ("c", "a")})
        rows, _, _ = _word_trie(ts, 2)
        with pytest.raises(PreconditionError, match=r"word \('c', 'a'\) is not admissible"):
            phi.gather(ts.alphabet, rows)
        with pytest.raises(PreconditionError) as exc:
            phi.value(("c", "a"))
        missing = words.index(("c", "a"))
        with pytest.raises(PreconditionError, match=str(exc.value).replace("(", r"\(").replace(")", r"\)")):
            phi.gather(ts.alphabet, rows, np.array([0, missing]))
        # Only the rows asked for are checked.
        asked = np.array([i for i in range(len(words)) if i != missing])
        assert phi.gather(ts.alphabet, rows, asked).tolist() == [0.5] * len(asked)

    def test_one_potential_on_two_alphabets_gets_two_tables(self):
        phi = potential_from_weights({(0, 0): -1.0, (0, 1): 2.0, (1, 0): 0.25, (1, 2): 7.0})
        forward, backward = full_shift((0, 1, 2)), full_shift((2, 1, 0))
        for ts in (forward, backward, forward):
            rank = ts.alphabet.rank
            rows = np.array([[rank[s] for s in w] for w in phi.weights], dtype=np.int32)
            assert phi.gather(ts.alphabet, rows).tolist() == list(phi.weights.values())
        assert len(phi._tables) == 2
        # A word over symbols outside the alphabet is left out of its table.
        pair = full_shift((0, 1))
        rows = np.array([[0, 0], [0, 1], [1, 0]], dtype=np.int32)
        assert phi.gather(pair.alphabet, rows).tolist() == [-1.0, 2.0, 0.25]
        with pytest.raises(PreconditionError, match=r"word \(1, 1\)"):
            phi.gather(pair.alphabet, np.array([[1, 1]], dtype=np.int32))
        assert len(phi._tables) == 3

    def test_keys_stay_exact_past_int64(self):
        # 3000**6 > 2**63: the rank code of a depth-6 word would overflow.
        k, depth = 3000, 6
        assert k**depth > 2**63
        alphabet = Alphabet(tuple(range(k)))
        rng = np.random.default_rng(6)
        words = {tuple(int(r) for r in rng.integers(0, k, size=depth)) for _ in range(200)}
        # Words that differ in one late symbol only, and the extreme words.
        words |= {(k - 1,) * depth, (0,) * depth, (k - 1,) * 5 + (0,), (5, 7, 11, 13, 17, 19),
                  (5, 7, 11, 13, 17, 20), (5, 7, 11, 13, 18, 19)}
        weights = {w: float(i) for i, w in enumerate(sorted(words))}
        phi = Potential(depth=depth, weights=weights)
        rows = np.array(list(weights), dtype=np.int32)
        assert phi.gather(alphabet, rows).tolist() == list(weights.values())
        # Words whose int64 rank code wraps onto a present word's are absent.
        top = np.array([(k - 1,) * depth], dtype=np.int64)
        code = int((top[0] * k ** np.arange(depth - 1, -1, -1, dtype=np.int64)).sum())
        assert code != sum(r * k ** (depth - 1 - j) for j, r in enumerate((k - 1,) * depth))
        for absent in [(5, 7, 11, 13, 17, 21), (k - 1,) * 5 + (1,), (0,) * 5 + (1,)]:
            assert absent not in weights
            with pytest.raises(PreconditionError, match=re.escape(repr(absent))):
                phi.gather(alphabet, np.array([absent], dtype=np.int32))

    def test_assembly_reads_the_table(self):
        phi = potential_from_weights({w: 0.1 * i for i, w in enumerate(admissible_words(f1(), 2))})
        build_transfer_matrix(f1(), phi, depth=3)
        assert list(phi._tables) == [f1().alphabet]
