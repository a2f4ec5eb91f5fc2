"""The pressure routes, the sup route and the survivor masses read one
normalized orbit (``transfer._orbit``).  Each is pinned bit for bit against
its own loop, written out below as the reference.

Above the potential's least exact depth b the pressure runs its orbits on
the depth-b reduction and reads the depth-m sequences off them.  There its
reference is the lifted definition, written out below, and the depth-m loop
that the pressure ran before stays the definition the lift must match to
rounding, on structures that are full, banded, aperiodic, reducible or
transient and on a weight whose exponential underflows."""

import math

import numpy as np
import pytest

from ruelle import (
    HoleSpec,
    admissible_words,
    banded_structure,
    build_transfer_matrix,
    from_entries,
    full_shift,
    log_survivor_masses,
    potential_from_weights,
    rpf_triplet,
    spectral_radius_sup_route,
    topological_pressure,
    zero_potential,
)
from ruelle.opensystem import open_operator
from ruelle.transfer import _continuation_bounds, _logsumexp


def _seeded_weights(ts, depth, seed):
    rng = np.random.default_rng(seed)
    words = admissible_words(ts, depth)
    return potential_from_weights(dict(zip(words, rng.uniform(-2.0, 1.0, len(words)).tolist())))


def reference_pressure_routes(ts, phi, n_max, depth):
    """(ns, upper, lower, inf_route): the upper route renormalizes by the
    sum from ones, the lower one by the sum from each pinned cycle word."""
    tm = build_transfer_matrix(ts, phi, depth=depth)
    m = tm.depth
    rsup, rinf = _continuation_bounds(tm)
    uppers, infs = {}, {}
    u = np.ones(tm.dim)
    log_scale = 0.0
    for n in range(m, n_max + 1):
        if n > m:
            u = tm.apply(u)
            s = float(u.sum())
            if s <= 0.0:
                break
            log_scale += math.log(s)
            u = u / s
        with np.errstate(divide="ignore"):
            logs_sup = np.log(u, out=np.full_like(u, -np.inf), where=u > 0) + rsup
            logs_inf = np.log(u, out=np.full_like(u, -np.inf), where=u > 0) + rinf
        uppers[n] = (log_scale + _logsumexp(logs_sup)) / n
        infs[n] = (log_scale + _logsumexp(logs_inf)) / n
    lowers = {n: -math.inf for n in uppers}
    rank = tm.index_structure.alphabet.rank
    pins = []
    for comp in tm.governing.quotient.components:
        if comp.has_periodic_point:
            inside = np.zeros(len(rank), dtype=bool)
            inside[[rank[s] for s in comp.symbols]] = True
            pins.extend(np.flatnonzero(inside[tm.ranks].all(axis=1))[:1].tolist())
    for pin in pins:
        u = np.zeros(tm.dim)
        u[pin] = 1.0
        log_scale = 0.0
        for n in range(1, n_max + 1):
            u = tm.apply(u)
            s = float(u.sum())
            if s <= 0.0:
                break
            log_scale += math.log(s)
            u = u / s
            if n in lowers and u[pin] > 0.0:
                z = log_scale + math.log(float(u[pin]))
                lowers[n] = max(lowers[n], z / n)
    ns = tuple(sorted(uppers))
    return (ns, tuple(uppers[n] for n in ns), tuple(lowers[n] for n in ns),
            tuple(infs[n] for n in ns))


def reference_lifted_pressure_routes(ts, phi, n_max, depth):
    """(ns, upper, lower, inf_route) of the depth-m reduction read off the
    depth-b one.  A depth-m word w with w[:b] = q carries e^{rsup(w)}, with
    rsup(w) = sum_{j<m-b} phi(w[j : j+d]) + rsup_b(w[m-b:]), so each prefix
    sum R(q) takes m - b log-space steps from the depth-b bounds; L_m^k 1 is
    L_b^k 1 at the prefix.  The return sum at the pinned word v (the first
    depth-m word inside its cyclic component) is W_v times the entry at
    v[:b] of the depth-b orbit from v[m-b:]."""
    tm = build_transfer_matrix(ts, phi, depth=max(phi.depth - 1, 1))
    b, m = tm.depth, depth
    words, index = tm.words, tm.word_index
    lt = tm.matrix.T.tocsr()  # [source q, target q']
    rsup, rinf = _continuation_bounds(tm)
    for _ in range(m - b):
        carried = []
        for r in (rsup, rinf):
            tops, sums = np.empty(tm.dim), np.empty(tm.dim)
            for q in range(tm.dim):
                succ = lt.indices[lt.indptr[q] : lt.indptr[q + 1]]
                t = np.array([phi.value(words[q] + words[j][-1:]) + r[j] for j in succ])
                tops[q] = t.max()
                sums[q] = 0.0
                for term in np.exp(t - tops[q]):
                    sums[q] += term
            carried.append(tops + np.log(sums))
        rsup, rinf = carried
    uppers, infs = {}, {}
    u = np.ones(tm.dim)
    log_scale = 0.0
    for n in range(m, n_max + 1):
        if n > m:
            u = tm.apply(u)
            s = float(u.sum())
            if s <= 0.0:
                break
            log_scale += math.log(s)
            u = u / s
        with np.errstate(divide="ignore"):
            logs_sup = np.log(u, out=np.full_like(u, -np.inf), where=u > 0) + rsup
            logs_inf = np.log(u, out=np.full_like(u, -np.inf), where=u > 0) + rinf
        uppers[n] = (log_scale + _logsumexp(logs_sup)) / n
        infs[n] = (log_scale + _logsumexp(logs_inf)) / n
    lowers = {n: -math.inf for n in uppers}
    deep = admissible_words(ts, m)
    for comp in ts.quotient.components:
        if not comp.has_periodic_point:
            continue
        v = next(w for w in deep if set(w) <= set(comp.symbols))
        steps = [tm.matrix[index[v[j + 1 : j + 1 + b]], index[v[j : j + b]]] for j in range(m - b)]
        with np.errstate(divide="ignore"):
            log_w = float(np.log(steps).sum())
        head, tail = index[v[:b]], index[v[m - b :]]
        u = np.zeros(tm.dim)
        u[tail] = 1.0
        log_scale = 0.0
        for n in range(m + 1 - b, n_max + 1):
            u = tm.apply(u)
            s = float(u.sum())
            if s <= 0.0:
                break
            log_scale += math.log(s)
            u = u / s
            if n in lowers and u[head] > 0.0:
                z = log_scale + math.log(float(u[head])) + log_w
                lowers[n] = max(lowers[n], z / n)
    ns = tuple(sorted(uppers))
    return (ns, tuple(uppers[n] for n in ns), tuple(lowers[n] for n in ns),
            tuple(infs[n] for n in ns))


def reference_sup_route(ts, phi, n_max, depth, index_structure=None):
    tm = build_transfer_matrix(ts, phi, depth=depth, index_structure=index_structure)
    if tm.dim == 0:
        return [0.0] * n_max
    u = np.ones(tm.dim)
    log_scale = 0.0
    out = []
    for n in range(1, n_max + 1):
        u = tm.apply(u)
        m = float(u.max())
        if m <= 0.0:
            out.append(0.0)
            u = np.zeros_like(u)
            continue
        log_scale += math.log(m)
        u = u / m
        out.append(math.exp((log_scale + math.log(float(u.max()))) / n))
    return out


def reference_log_masses(hole, phi, trip, n_max):
    tm_open = open_operator(hole, phi, trip.tm.depth)
    v = trip.h.copy()
    log_scale = 0.0
    out = []
    for n in range(1, n_max + 1):
        v = tm_open.apply(v)
        top = float(v.max(initial=0.0))
        if top <= 0.0:
            out.extend([-math.inf] * (n_max - n + 1))
            break
        log_scale += math.log(top)
        v = v / top
        out.append(log_scale + math.log(float(trip.nu @ v)) - n * math.log(trip.lam))
    return out


def _cases():
    full4 = full_shift((0, 1, 2, 3))
    yield "full4-m4", full4, _seeded_weights(full4, 3, 1301), 4, [(1, 1), (2, 3)], 30
    banded = banded_structure(200, 2)
    yield "banded200", banded, _seeded_weights(banded, 2, 1302), None, [(1, 1), (5, 7)], 40
    # The open system keeps only 0 -> 1: its orbits die after one step, so
    # the sup route pads with 0.0 and the survivor masses with -inf.
    full2 = full_shift((0, 1))
    yield "dying", full2, zero_potential(full2), 1, [(0, 0), (1, 0), (1, 1)], 6


@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: c[0])
def test_orbit_consumers_equal_their_own_loops(case):
    _, ts, phi, depth, hole_pairs, n_max = case
    rep = topological_pressure(ts, phi, n_max=n_max, depth=depth)
    lifted = depth is not None and depth > max(phi.depth - 1, 1)
    reference = reference_lifted_pressure_routes if lifted else reference_pressure_routes
    ns, upper, lower, inf_route = reference(ts, phi, n_max, depth)
    assert rep.ns == ns
    assert rep.upper == upper
    assert rep.lower == lower
    assert rep.inf_route == inf_route

    assert spectral_radius_sup_route(ts, phi, n_max, depth=depth) == reference_sup_route(
        ts, phi, n_max, depth
    )

    hole = HoleSpec.from_hole(ts, hole_pairs)
    assert spectral_radius_sup_route(
        hole.open_, phi, n_max, depth=depth, index_structure=ts
    ) == reference_sup_route(hole.open_, phi, n_max, depth, index_structure=ts)

    trip = rpf_triplet(build_transfer_matrix(ts, phi, depth=depth))
    got = log_survivor_masses(hole, phi, trip, n_max)
    assert got == reference_log_masses(hole, phi, trip, n_max)
    assert len(got) == n_max



def _lift_cases():
    """(id, structure, potential, depth, n_max): depths from b upward."""
    full4 = full_shift((0, 1, 2, 3))
    phi = _seeded_weights(full4, 3, 1301)
    for m in range(2, 8):
        yield f"full4-m{m}", full4, phi, m, 30
    banded = banded_structure(200, 2)
    phi = _seeded_weights(banded, 3, 1302)
    for m in range(2, 5):
        yield f"banded200-m{m}", banded, phi, m, 24
    golden = from_entries((0, 1), [(0, 0), (0, 1), (1, 0)])
    for m in (1, 2, 3):
        yield f"golden-d1-m{m}", golden, _seeded_weights(golden, 1, 1303), m, 20
        yield f"golden-d2-m{m}", golden, _seeded_weights(golden, 2, 1304), m, 20
    aperiodic = from_entries((0, 1, 2), [(0, 1), (1, 2), (2, 0), (1, 0), (2, 2)])
    for m in (2, 4):
        yield f"aperiodic3-m{m}", aperiodic, _seeded_weights(aperiodic, 3, 1305), m, 25
    # Two cyclic components, {0, 1} and {2, 3}, and a transient 4 -> 0.
    reducible = from_entries(
        (0, 1, 2, 3, 4), [(0, 1), (1, 0), (1, 1), (1, 2), (2, 3), (3, 2), (3, 3), (4, 0)]
    )
    for m in (2, 3, 5):
        yield f"reducible-m{m}", reducible, _seeded_weights(reducible, 3, 1306), m, 25
    # exp(-800) underflows: the pin 0 ... 0 has W_v = 0 and no lower bound,
    # while the upper route keeps the -800 through its log-space steps.
    full2 = full_shift((0, 1))
    weights = dict(_seeded_weights(full2, 3, 1307).weights)
    weights[(0, 0, 0)] = -800.0
    for m in (2, 3, 5):
        yield f"underflow-m{m}", full2, potential_from_weights(weights), m, 20
    # 3 -> 0 -> 1 is transient, 4 is isolated, {1, 2} is the one cycle.
    transient = from_entries((0, 1, 2, 3, 4), [(0, 1), (1, 2), (2, 1), (2, 2), (3, 0)])
    for m in (2, 4):
        yield f"transient-m{m}", transient, _seeded_weights(transient, 3, 1308), m, 20


@pytest.mark.parametrize("case", list(_lift_cases()), ids=lambda c: c[0])
def test_lifted_pressure_routes_match_the_deep_loop(case):
    _, ts, phi, depth, n_max = case
    rep = topological_pressure(ts, phi, n_max=n_max, depth=depth)
    assert (rep.ns, rep.upper, rep.lower, rep.inf_route) == reference_lifted_pressure_routes(
        ts, phi, n_max, depth
    )
    ns, *routes = reference_pressure_routes(ts, phi, n_max, depth)
    assert rep.ns == ns
    for got, want in zip((rep.upper, rep.lower, rep.inf_route), routes):
        got, want = np.array(got), np.array(want)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        assert np.array_equal(got[np.isinf(got)], want[np.isinf(want)])
        finite = np.isfinite(want)
        assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= 2e-15
    deep = build_transfer_matrix(ts, phi, depth=depth)
    assert rep.spectral == math.log(rpf_triplet(deep).lam)
