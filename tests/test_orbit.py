"""The pressure routes, the sup route and the survivor masses read one
normalized orbit (``transfer._orbit``).  Each is pinned bit for bit against
its own loop, written out below as the reference."""

import math

import numpy as np
import pytest

from ruelle import (
    HoleSpec,
    admissible_words,
    banded_structure,
    build_transfer_matrix,
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
    ns, upper, lower, inf_route = reference_pressure_routes(ts, phi, n_max, depth)
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

