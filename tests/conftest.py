"""Shared fixtures and independent oracles.

The fixture systems are small enough that every expected value here is
recomputable by brute force or in closed form; the oracles below never call
the code paths they check.
"""

import itertools
import math

import numpy as np
import pytest

from ruelle import (
    GifsEdge,
    GifsSpec,
    HoleSpec,
    RenewalSpec,
    TailModel,
    admissible_words,
    banded_structure,
    from_entries,
    full_shift,
    potential_from_weights,
    renewal_structure,
)

SQRT5 = math.sqrt(5.0)
PHI = (1.0 + SQRT5) / 2.0  # golden ratio, the radius of the golden-mean shift


# -- fixture systems -------------------------------------------------------------


def f1():
    """Full shift on two symbols."""
    return full_shift((0, 1))


def f2():
    """Golden-mean shift: the full shift with the (0,0) transition removed."""
    return f1().restrict([(0, 0)], name="golden")


def f3():
    """Two-cycle permutation shift, period 2."""
    return from_entries((0, 1), [(0, 1), (1, 0)])


def f3p():
    """Three-cycle permutation shift, period 3."""
    return from_entries((0, 1, 2), [(0, 1), (1, 2), (2, 0)])


def f4(truncation=20):
    return renewal_structure(truncation)


def f4_spec(truncation=20):
    return RenewalSpec(
        a=lambda n: 4.0**-n,
        b=lambda n: 4.0**-n,
        truncation=truncation,
        tail=TailModel.geometric(1.0, 0.25),
    )


def f5():
    """Two affine contractions of ratio 1/3 on one vertex."""
    third = 1.0 / 3.0
    return GifsSpec(
        vertices=("v",),
        edges=(GifsEdge("L", "v", "v", third), GifsEdge("R", "v", "v", third)),
        s_range=(0.0, 4.0),
    )


def golden_hole():
    return HoleSpec.from_hole(f1(), [(0, 0)])


def period2_rich():
    """Irreducible period-2 structure on four states with a nonzero remainder."""
    ts = from_entries((0, 1, 2, 3), [(0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (3, 0)])
    phi = potential_from_weights(
        {(0,): 0.1, (1,): -0.2, (2,): 0.3, (3,): -0.05}
    )
    return ts, phi


def random5_primitive():
    """Fixed five-state primitive structure with a seeded depth-2 potential."""
    entries = [
        (0, 0), (0, 1), (1, 2), (1, 3), (2, 0), (2, 3), (3, 4), (4, 0), (4, 2),
    ]
    ts = from_entries(tuple(range(5)), entries)
    rng = np.random.default_rng(987654321)
    weights = {}
    for (i, j) in sorted(entries):
        weights[(i, j)] = float(rng.uniform(-1.0, 1.0))
    return ts, potential_from_weights(weights)


def two_component_dag(forward=True):
    """Full 2-shift component joined to a weighted self-loop state.

    ``forward`` places the connecting edge from the dominant component into
    the singleton; otherwise the singleton feeds the dominant component.
    """
    entries = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)]
    entries.append((1, 2) if forward else (2, 0))
    ts = from_entries((0, 1, 2), entries)
    phi = potential_from_weights({(0,): 0.0, (1,): 0.0, (2,): math.log(1.5)})
    return ts, phi


# -- oracles ----------------------------------------------------------------------


def brute_words(ts, n):
    """All length-n words by filtering the full product, lexicographically."""
    out = []
    for w in itertools.product(ts.alphabet.symbols, repeat=n):
        if all(ts.allows(a, b) for a, b in zip(w, w[1:])):
            out.append(w)
    return out


def reachability_oracle(ts):
    """Transitive closure pairs (a, b) with a path of length >= 1."""
    syms = ts.alphabet.symbols
    reach = {s: set(ts.successors[s]) for s in syms}
    changed = True
    while changed:
        changed = False
        for s in syms:
            new = set()
            for t in reach[s]:
                new |= reach[t]
            if not new <= reach[s]:
                reach[s] |= new
                changed = True
    return {(a, b) for a in syms for b in reach[a]}


def direct_operator_apply(ts, phi, f_by_word, word):
    """Evaluate the operator sum at a cylinder word straight from its formula."""
    total = 0.0
    depth = len(next(iter(f_by_word)))
    for a in ts.alphabet.symbols:
        if not ts.allows(a, word[0]):
            continue
        ext = (a,) + tuple(word)
        key = ext[:depth]
        if key in f_by_word:
            total += math.exp(phi.value(ext[: phi.depth])) * f_by_word[key]
    return total


def hole_cases():
    """Open systems whose perturbation and sampler outputs are pinned to the
    word-by-word definitions: the golden hole, renewal(8) with the hole
    (2, 3) (reducible open part, source and target first symbols differ), a
    full 10-shift with a depth-3 potential (rows of ten terms fix the
    summation order), and a banded system with three holes."""
    from ruelle.applications import renewal_potential

    def seeded(ts, depth, seed):
        words = admissible_words(ts, depth)
        vals = np.random.default_rng(seed).uniform(-1.0, 1.0, len(words))
        return potential_from_weights(dict(zip(words, vals.tolist())))

    full10 = full_shift(tuple(range(10)))
    renewal = renewal_structure(8)
    banded = banded_structure(40, 2)
    return [
        ("golden", golden_hole(), seeded(f1(), 2, 21)),
        ("renewal8", HoleSpec.from_hole(renewal, [(2, 3)]), renewal_potential(f4_spec(8), renewal)),
        ("full10-d3", HoleSpec.from_hole(full10, [(0, 0), (1, 2), (3, 1)]), seeded(full10, 3, 22)),
        ("banded40", HoleSpec.from_hole(banded, [(5, 6), (20, 21), (30, 29)]), seeded(banded, 2, 23)),
    ]


def fib(n):
    """F(1) = F(2) = 1."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def golden_nu(symbol):
    """Conformal cylinder masses of the golden-mean shift, closed form."""
    return (3.0 - SQRT5) / 2.0 if symbol == 0 else (SQRT5 - 1.0) / 2.0


def golden_h(symbol):
    """Invariant density values per 1-cylinder, closed form (nu(h) = 1)."""
    g = (1.0 / PHI, 1.0)[symbol]
    nu_g = golden_nu(0) / PHI + golden_nu(1)
    return g / nu_g


def golden_mu(word):
    """Invariant golden-shift mass of a cylinder, exact."""
    if any(a == 0 and b == 0 for a, b in zip(word, word[1:])):
        return 0.0
    return golden_h(word[0]) * PHI ** (1 - len(word)) * golden_nu(word[-1])


@pytest.fixture
def rng():
    return np.random.default_rng(13572468)
