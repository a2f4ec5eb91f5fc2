import math

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
    nonempty_cylinder_words,
    period_classes,
    renewal_structure,
    scc_quotient,
)

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
        i0 = dag.component_of(0)
        i1 = dag.component_of(1)
        assert dag.precedes(i0, i1) and not dag.precedes(i1, i0)

    def test_full_shift_period_one(self):
        dag = scc_quotient(f1())
        assert len(dag.components) == 1
        assert dag.components[0].period == 1  # cycles of lengths 1 and 2 coexist

    def test_isolated_symbols_excluded(self):
        ts = from_entries((0, 1, 2), [(0, 1), (1, 0)])
        dag = scc_quotient(ts)
        assert dag.isolated == (2,)
        assert dag.component_of(2) is None

    @settings(max_examples=60, deadline=None)
    @given(ts=small_structures())
    def test_components_match_mutual_reachability(self, ts):
        dag = scc_quotient(ts)
        reach = reachability_oracle(ts)
        for a in ts.alphabet.symbols:
            for b in ts.alphabet.symbols:
                if a == b:
                    continue
                ca, cb = dag.component_of(a), dag.component_of(b)
                together = ca is not None and ca == cb
                mutual = (a, b) in reach and (b, a) in reach
                assert together == mutual

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
