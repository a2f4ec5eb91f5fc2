import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ruelle import (
    ConfigError,
    EnumerationCapExceeded,
    PreconditionError,
    admissible_words,
    banded_structure,
    classify,
    from_entries,
    full_shift,
    full_truncated,
    nonempty_cylinder_words,
    period_classes,
    renewal_structure,
    scc_quotient,
)

from ruelle.shifts import _word_trie, count_admissible_words

from conftest import brute_words, f1, f2, f3, f3p, reachability_oracle


def small_structures():
    """Hypothesis strategy: random structures on up to five symbols."""
    return st.integers(2, 5).flatmap(
        lambda n: st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n
        ).map(lambda pairs: from_entries(tuple(range(n)), pairs))
    )


class TestAdmissibleWords:
    def test_full_shift_pairs(self):
        assert admissible_words(f1(), 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_golden_triples(self):
        words = admissible_words(f2(), 3)
        assert words == [(0, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]

    def test_permutation_pairs(self):
        assert admissible_words(f3(), 2) == [(0, 1), (1, 0)]

    def test_length_one_is_alphabet(self):
        assert admissible_words(f2(), 1) == [(0,), (1,)]

    def test_cap_refused(self):
        with pytest.raises(EnumerationCapExceeded):
            admissible_words(f1(), 30, cap=1000)

    def test_bad_length(self):
        with pytest.raises(PreconditionError):
            admissible_words(f1(), 0)

    @settings(max_examples=60, deadline=None)
    @given(ts=small_structures(), n=st.integers(1, 4))
    def test_matches_brute_force(self, ts, n):
        assert admissible_words(ts, n) == brute_words(ts, n)

    def test_nonempty_cylinder_filter(self):
        # 1 is a dead end: words ending in 1 have empty cylinders.
        ts = from_entries((0, 1), [(0, 0), (0, 1)])
        assert nonempty_cylinder_words(ts, 2) == [(0, 0)]


def _dict_loop_count(ts, n):
    """|W_n| by the per-symbol dict recurrence over the successor table."""
    counts = {s: 1 for s in ts.alphabet.symbols}
    for _ in range(n - 1):
        nxt = {s: 0 for s in ts.alphabet.symbols}
        for s, c in counts.items():
            for t in ts.successors[s]:
                nxt[t] += c
        counts = nxt
    return sum(counts.values())


class TestCountAdmissibleWords:
    @pytest.mark.parametrize("ts", [
        full_shift((0, 1, 2)),
        banded_structure(50, 2),
        renewal_structure(40),
        from_entries((0, 1, 2, 3), [(0, 0), (0, 1), (1, 0), (1, 2), (2, 2), (2, 3)]),
        from_entries((0, 1), []),
        from_entries((), []),
    ], ids=["full3", "banded50", "renewal40", "reducible", "no-entries", "no-symbols"])
    def test_equals_the_dict_loop(self, ts):
        for n in range(1, 8):
            got = count_admissible_words(ts, n)
            assert type(got) is int and got == _dict_loop_count(ts, n)

    def test_exact_beyond_int64(self):
        ts = full_shift(tuple(range(100)))
        assert count_admissible_words(ts, 11) == 100**11 == _dict_loop_count(ts, 11)
        for n in (62, 63, 64, 65, 130):
            assert count_admissible_words(f1(), n) == 2**n

    def test_cap_refusal_keeps_its_message(self):
        with pytest.raises(EnumerationCapExceeded, match=r"\|W_11\| = 177147 exceeds cap 100000"):
            _word_trie(full_shift((0, 1, 2)), 11, cap=100_000)


class TestSccQuotient:
    def test_golden_single_component(self):
        dag = scc_quotient(f2())
        assert len(dag.components) == 1
        assert dag.components[0].symbols == (0, 1)
        assert dag.components[0].irreducible

    def test_two_singletons_ordered(self):
        dag = scc_quotient(from_entries((0, 1), [(0, 1)]))
        assert len(dag.components) == 2
        assert not dag.components[0].has_periodic_point
        assert not dag.components[1].has_periodic_point
        i0, i1 = dag.labels.tolist()
        assert dag.precedes(i0, i1) and not dag.precedes(i1, i0)

    def test_full_shift_period_one(self):
        dag = scc_quotient(f1())
        assert len(dag.components) == 1
        assert dag.components[0].period == 1  # cycles of lengths 1 and 2 coexist

    def test_isolated_symbols_excluded(self):
        ts = from_entries((0, 1, 2), [(0, 1), (1, 0)])
        dag = scc_quotient(ts)
        assert dag.isolated == (2,)
        assert dag.labels.tolist() == [0, 0, -1]

    @settings(max_examples=60, deadline=None)
    @given(ts=small_structures())
    def test_components_match_mutual_reachability(self, ts):
        dag = scc_quotient(ts)
        reach = reachability_oracle(ts)
        for a in ts.alphabet.symbols:
            for b in ts.alphabet.symbols:
                if a == b:
                    continue
                ca, cb = (dag.labels[ts.alphabet.rank[s]] for s in (a, b))
                together = ca >= 0 and ca == cb
                mutual = (a, b) in reach and (b, a) in reach
                assert together == mutual
        touched = {s for pair in ts.entries for s in pair}
        assert dag.isolated == tuple(s for s in ts.alphabet.symbols if s not in touched)
        indptr, succ = ts.successor_ranks
        syms = ts.alphabet.symbols
        for r, s in enumerate(syms):
            assert tuple(syms[t] for t in succ[indptr[r] : indptr[r + 1]]) == ts.successors[s]
            assert ts.successors[s] == tuple(t for t in syms if (s, t) in ts.entries)
            assert ts.predecessors[s] == tuple(t for t in syms if (t, s) in ts.entries)
        assert ts.irreducible == classify(ts).irreducible
        # Viable: a symbol reaching a cycle, i.e. one that reaches a symbol
        # that reaches itself.
        on_cycle = {s for s in syms if (s, s) in reach}
        viable = {a for a in syms if a in on_cycle or any((a, b) in reach for b in on_cycle)}
        assert ts.viable_symbols == frozenset(viable)
        assert ts.viable_ranks.tolist() == [s in viable for s in syms]

    @settings(max_examples=40, deadline=None)
    @given(ts=small_structures())
    def test_order_matches_reachability(self, ts):
        dag = scc_quotient(ts)
        reach = reachability_oracle(ts)
        for i, ci in enumerate(dag.components):
            for j, cj in enumerate(dag.components):
                if i == j:
                    continue
                expected = any((a, b) in reach for a in ci.symbols for b in cj.symbols)
                assert dag.precedes(i, j) == expected


    @settings(max_examples=40, deadline=None)
    @given(ts=small_structures())
    def test_reach_masks_match_brute_force_closure(self, ts):
        dag = scc_quotient(ts)
        reach = reachability_oracle(ts)
        n = len(dag.components)
        closure = [
            {a}
            | {
                b
                for b, cb in enumerate(dag.components)
                if any((x, y) in reach for x in ca.symbols for y in cb.symbols)
            }
            for a, ca in enumerate(dag.components)
        ]
        for a in range(n):
            assert dag.reach[a] == sum(1 << b for b in closure[a])
            assert dag.upset(a) == tuple(sorted(closure[a]))
            assert [c for c in range(n) if dag.precedes(c, a)] == [
                c for c in range(n) if a in closure[c]
            ]

    def test_reach_masks_on_a_long_chain(self):
        # i -> i + 1 with a self-loop at the end: component i is symbol i and
        # reaches exactly the components j >= i.
        n = 800
        pairs = [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)]
        ts = from_entries(tuple(range(n)), pairs)
        dag = scc_quotient(ts)
        assert [c.symbols for c in dag.components] == [(i,) for i in range(n)]
        full = (1 << n) - 1
        assert dag.reach == tuple(full ^ ((1 << i) - 1) for i in range(n))
        assert dag.upset(0) == tuple(range(n)) and dag.upset(n - 1) == (n - 1,)
        assert [c for c in range(n) if dag.precedes(c, n - 1)] == list(range(n))
        assert [c for c in range(n) if dag.precedes(c, 0)] == [0]
        assert dag.precedes(3, 700) and not dag.precedes(700, 3)
        assert ts.viable_symbols == frozenset(range(n))
        cyclic = [c.has_periodic_point for c in dag.components]
        assert cyclic == [False] * (n - 1) + [True]
        assert dag.components[-1].period == 1 and not ts.irreducible


class TestPeriodClasses:
    def test_two_cycle(self):
        pc = period_classes(f3())
        assert pc.p == 2
        assert pc.classes == ((0,), (1,))

    def test_three_cycle(self):
        pc = period_classes(f3p())
        assert pc.p == 3
        assert all(len(c) == 1 for c in pc.classes)

    def test_golden_aperiodic(self):
        assert period_classes(f2()).p == 1

    def test_acyclic_rejected(self):
        with pytest.raises(PreconditionError):
            period_classes(from_entries((0, 1), [(0, 1)]))

    def test_symbol_set_must_be_one_component(self):
        # Components {0, 1} (period 2), {2} (a self-loop) and {3} (no cycle).
        ts = from_entries((0, 1, 2, 3), [(0, 1), (1, 0), (1, 2), (2, 2), (2, 3)])
        assert period_classes(ts, component=(1, 0)).classes == ((0,), (1,))
        assert period_classes(ts, component=[2]).p == 1
        for bad in ((0,), (0, 1, 2), (1, 9), ()):
            with pytest.raises(PreconditionError, match="not one transitive component"):
                period_classes(ts, component=bad)
        with pytest.raises(PreconditionError, match="no periodic point"):
            period_classes(ts, component=(3,))
        with pytest.raises(PreconditionError, match="no periodic point"):
            period_classes(ts)

    def test_large_banded_one_aperiodic_component(self):
        ts = banded_structure(1600, 2)
        dag = scc_quotient(ts)
        assert len(dag.components) == 1 and dag.components[0].period == 1
        assert ts.irreducible and not dag.isolated
        assert period_classes(ts).classes == (ts.alphabet.symbols,)

    def test_large_cyclic_classes_are_residues_mod_three(self):
        # Steps +1, -2 and +4 each advance i mod 3.
        n = 300
        ts = from_entries(
            tuple(range(n)), {(i, i + d) for i in range(n) for d in (1, -2, 4) if 0 <= i + d < n}
        )
        assert ts.irreducible and scc_quotient(ts).components[0].period == 3
        pc = period_classes(ts)
        assert pc.p == 3 and pc.base == 0
        assert pc.classes == tuple(tuple(range(r, n, 3)) for r in range(3))

    @settings(max_examples=60, deadline=None)
    @given(ts=small_structures())
    def test_class_step_property_and_maximality(self, ts):
        dag = scc_quotient(ts)
        for comp in dag.components:
            if not comp.has_periodic_point:
                continue
            pc = period_classes(ts, component=comp.symbols)
            comp_set = set(comp.symbols)
            for (i, j) in ts.entries:
                if i in comp_set and j in comp_set:
                    assert pc.class_of(j) == (pc.class_of(i) + 1) % pc.p
            # No multiple of p above p admits the same class structure: the
            # gcd of cycle lengths through the base equals p exactly.
            cycles = _cycle_lengths_through(ts, comp.symbols[0], comp_set, max_len=8)
            if cycles:
                g = 0
                for c in cycles:
                    g = math.gcd(g, c)
                assert g % pc.p == 0


def _cycle_lengths_through(ts, base, comp, max_len):
    lengths = set()
    frontier = {(base,)}
    for _ in range(max_len):
        nxt = set()
        for path in frontier:
            for t in ts.successors[path[-1]]:
                if t not in comp:
                    continue
                if t == base:
                    lengths.add(len(path))
                elif t not in path:
                    nxt.add(path + (t,))
        frontier = nxt
    return lengths


class TestClassify:
    def test_golden_primitive_with_witness(self):
        c = classify(f2())
        assert c.irreducible and c.primitive
        assert c.finitely_irreducible and c.finitely_primitive
        # Witness words connect every ordered pair.
        ts = f2()
        for a in (0, 1):
            for b in (0, 1):
                assert any(ts.is_admissible((a,) + w + (b,)) for w in c.witness)

    def test_permutation_not_primitive(self):
        c = classify(f3())
        assert c.irreducible and not c.primitive and c.has_periodic_point

    def test_implication_chain_on_samples(self):
        for ts in (f1(), f2(), f3(), f3p(), renewal_structure(8)):
            c = classify(ts)
            if c.primitive:
                assert c.weakly_primitive
            if c.weakly_primitive:
                assert c.irreducible

    def test_renewal_truncation_flags(self):
        c = classify(renewal_structure(9))
        assert c.irreducible and c.finitely_irreducible
        ts = renewal_structure(9)
        for a in ts.alphabet.symbols:
            for b in ts.alphabet.symbols:
                assert any(ts.is_admissible((a,) + w + (b,)) for w in c.witness)
        # The untruncated family caveat is recorded.
        assert any("not finitely irreducible" in note for note in c.notes)

    def test_reducible_not_irreducible(self):
        assert not classify(from_entries((0, 1), [(0, 1)])).irreducible

    @settings(max_examples=60, deadline=None)
    @given(ts=small_structures(), data=st.data())
    def test_witness_check_matches_the_tuple_definition(self, ts, data):
        from ruelle.shifts import _irreducibility_witness, _verify_witness

        syms = ts.alphabet.symbols
        word = st.lists(st.sampled_from(syms + (len(syms),)), max_size=3).map(tuple)
        drawn = data.draw(st.lists(word, max_size=8))
        short = [w for n in (1, 2) for w in admissible_words(ts, n)]
        bfs = _irreducibility_witness(ts) or ()
        for witness in (drawn, short, short + drawn, bfs):
            expected = all(
                any(ts.is_admissible((a,) + tuple(w) + (b,)) for w in witness)
                for a in syms
                for b in syms
            )
            assert _verify_witness(ts, witness) == expected

    def test_incomplete_witness_refused(self):
        from ruelle.shifts import _verify_witness

        ts = from_entries((0, 1, 2), [(0, 1), (1, 2), (2, 0)])
        short = [w for n in (1, 2) for w in admissible_words(ts, n)]
        # On the 3-cycle a w (a+1) needs |w| divisible by 3: no short word serves it.
        assert not _verify_witness(ts, short)
        assert _verify_witness(ts, short + [()])

    def test_witness_check_memory_is_quadratic_in_the_alphabet(self):
        import tracemalloc

        from ruelle.shifts import _irreducibility_witness, _verify_witness

        ts = banded_structure(100, 2)
        witness = _irreducibility_witness(ts)
        tracemalloc.start()
        try:
            assert _verify_witness(ts, witness)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A (words x k) product would need about 7.5 MiB here.
        assert peak < 2**20


class TestConstruction:
    def test_subsystem_entries_checked(self):
        with pytest.raises(ConfigError):
            f2().restrict([(0, 0)])  # already removed

    def test_undeclared_symbols_rejected(self):
        with pytest.raises(ConfigError):
            from_entries((0, 1), [(0, 2)])

    def test_banded_entries_match_the_all_pairs_definition(self):
        for n, w in [(1, 0), (7, 1), (12, 2), (9, 4), (5, 6)]:
            syms = range(1, n + 1)
            pairs = {(i, j) for i in syms for j in syms if abs(i - j) <= w}
            assert banded_structure(n, w).entries == pairs

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ConfigError):
            full_shift((0, 0))


def _family_pairs(family: str, n: int, width: int = 0) -> set:
    """The pairs of a family constructor by the set definitions they compile."""
    syms = range(1, n + 1)
    if family == "full":
        return {(i, j) for i in syms for j in syms}
    if family == "renewal":
        return {(i, 1) for i in syms} | {(i, i + 1) for i in syms if i + 1 <= n}
    return {(i, j) for i in syms for j in range(max(1, i - width), min(n, i + width) + 1)}


FAMILY_CASES = {
    "full_shift3": (lambda: full_shift((0, 1, 2)), (0, 1, 2), {(i, j) for i in range(3) for j in range(3)}),
    "full_shift_strings": (lambda: full_shift(("b", "a")), ("b", "a"),
                           {(i, j) for i in "ab" for j in "ab"}),
    "full_shift_empty": (lambda: full_shift(()), (), set()),
    "full_truncated1": (lambda: full_truncated(1), (1,), _family_pairs("full", 1)),
    "full_truncated6": (lambda: full_truncated(6), tuple(range(1, 7)), _family_pairs("full", 6)),
    "renewal2": (lambda: renewal_structure(2), (1, 2), _family_pairs("renewal", 2)),
    "renewal3": (lambda: renewal_structure(3), (1, 2, 3), _family_pairs("renewal", 3)),
    "renewal40": (lambda: renewal_structure(40), tuple(range(1, 41)), _family_pairs("renewal", 40)),
    "banded1_0": (lambda: banded_structure(1, 0), (1,), _family_pairs("banded", 1, 0)),
    "banded9_0": (lambda: banded_structure(9, 0), tuple(range(1, 10)), _family_pairs("banded", 9, 0)),
    "banded50_2": (lambda: banded_structure(50, 2), tuple(range(1, 51)),
                   _family_pairs("banded", 50, 2)),
    "banded6_5": (lambda: banded_structure(6, 5), tuple(range(1, 7)), _family_pairs("banded", 6, 5)),
    "banded5_9": (lambda: banded_structure(5, 9), tuple(range(1, 6)), _family_pairs("banded", 5, 9)),
}


class TestFamilyConstructors:
    """The numpy-compiled family structures against the set path."""

    @pytest.mark.parametrize("case", sorted(FAMILY_CASES))
    def test_matches_the_set_path(self, case):
        make, symbols, pairs = FAMILY_CASES[case]
        ts = make()
        ref = from_entries(symbols, pairs)
        assert ts.alphabet.symbols == ref.alphabet.symbols
        assert ts.pair_codes.dtype == np.int64
        assert np.array_equal(ts.pair_codes, ref.pair_codes)
        assert ts.entries == ref.entries == frozenset(pairs)
        assert ts.successors == ref.successors
        assert ts.predecessors == ref.predecessors
        assert ts.quotient == ref.quotient
        assert np.array_equal(ts.quotient.labels, ref.quotient.labels)
        assert np.array_equal(ts.quotient.distances, ref.quotient.distances)
        assert np.array_equal(ts.viable_ranks, ref.viable_ranks)
        assert ts.viable_symbols == ref.viable_symbols
        for n in (1, 2, 3):
            assert admissible_words(ts, n) == admissible_words(ref, n)
        # The set path over the same alphabet and name is the same structure.
        twin = type(ts)(ts.alphabet, frozenset(pairs), name=ts.name)
        assert ts == twin and twin == ts and hash(ts) == hash(twin)
        assert classify(ts) == classify(twin)
        assert ts != type(ts)(ts.alphabet, frozenset(pairs), name=ts.name + "'")
        if pairs:
            fewer = ts.restrict([min(pairs, key=str)])
            assert fewer != ts and fewer.parent == twin
            assert fewer.entries == frozenset(pairs) - {min(pairs, key=str)}

    def test_entries_are_built_on_first_use(self):
        ts = banded_structure(30, 2)
        assert "entries" not in ts.__dict__
        ts.quotient, ts.successor_ranks, ts.viable_ranks
        assert "entries" not in ts.__dict__
        assert ts.allows(3, 5) and not ts.allows(3, 6)
        assert "entries" in ts.__dict__

    def test_equality_ignores_how_the_codes_were_built(self):
        assert full_shift((0, 1)) == from_entries((0, 1), [(0, 0), (0, 1), (1, 0), (1, 1)], name="full")
        assert full_shift((0, 1)) != full_shift((1, 0))
        assert banded_structure(4, 1) != renewal_structure(4)
        assert len({full_truncated(3), full_truncated(3), full_truncated(4)}) == 2
        assert full_shift((0, 1)) != "full"
