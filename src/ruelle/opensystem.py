"""Holes, survivor masses and escape rates.

The closed system carries an invariant measure mu = h nu from its positive
eigendata.  Restricting the prepended transition to the subsystem while
keeping the ambient word index realizes the open-system operator, and the
exact identity

    mu(survivors after n steps) = lam^{-n} nu(open_operator^n h)

turns survivor masses into one sparse iteration per step.  The decay rate of
these masses is the pressure difference between the closed and open systems;
both routes are computed and compared.  A seeded Markov sampler of mu gives
an independent statistical cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PreconditionError
from .potentials import Potential
from .shifts import TransitionStructure
from .transfer import (
    RpfTriplet,
    TransferMatrix,
    build_transfer_matrix,
    rpf_triplet,
)


@dataclass(frozen=True)
class HoleSpec:
    """Closed structure, its subsystem, and the 2-cylinder hole between them."""

    closed: TransitionStructure
    open_: TransitionStructure

    def __post_init__(self):
        if not self.open_.entries <= self.closed.entries:
            raise PreconditionError("open system transitions must refine the closed ones")

    @property
    def sigma_pairs(self) -> frozenset:
        return self.open_.entries

    @property
    def hole_pairs(self) -> frozenset:
        return self.closed.entries - self.open_.entries

    @staticmethod
    def from_hole(closed: TransitionStructure, hole_pairs) -> "HoleSpec":
        return HoleSpec(closed=closed, open_=closed.restrict(hole_pairs))


@dataclass(frozen=True)
class EscapeReport:
    ns: tuple
    log_masses: tuple
    fitted_rate: float
    spectral_prediction: float
    discrepancy: float
    lam_closed: float
    lam_open: float
    period: int
    triplet_closed: RpfTriplet

    @property
    def masses(self) -> tuple:
        return tuple(math.exp(v) for v in self.log_masses)


def open_operator(hole: HoleSpec, phi: Potential, depth: Optional[int] = None) -> TransferMatrix:
    """The subsystem-restricted operator on the closed system's words."""
    return build_transfer_matrix(
        hole.open_, phi, depth=depth, index_structure=hole.closed
    )


def log_survivor_masses(
    hole: HoleSpec,
    phi: Potential,
    triplet_closed: RpfTriplet,
    n_max: int,
) -> list:
    """log mu(n-step survivor set) for n = 1 .. n_max, exactly.

    Masses decay exponentially, so everything is carried in log space with a
    per-step renormalization.
    """
    if n_max < 1:
        raise PreconditionError("need at least one step")
    tm_open = build_transfer_matrix(
        hole.open_,
        phi,
        depth=triplet_closed.tm.depth,
        index_structure=triplet_closed.tm.index_structure,
    )
    lam = triplet_closed.lam
    nu = triplet_closed.nu
    v = triplet_closed.h.copy()
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
        inner = float(nu @ v)
        out.append(log_scale + math.log(inner) - n * math.log(lam))
    return out


def survivor_mass(
    hole: HoleSpec, phi: Potential, triplet_closed: RpfTriplet, n: int
) -> float:
    """Exact closed-system mass of the n-step survivor set."""
    return math.exp(log_survivor_masses(hole, phi, triplet_closed, n)[-1])


def escape_rate(
    hole: HoleSpec,
    phi: Potential,
    n_max: int = 40,
    depth: Optional[int] = None,
    tol: float = 1e-12,
) -> EscapeReport:
    """Fitted versus predicted escape rate of the open system.

    The fit averages successive log-mass differences over one period of the
    subsystem (periodic subsystems make the differences oscillate); the
    prediction is the difference of the two spectral pressures, computed
    independently from the closed and open reductions.
    """
    tm_closed = build_transfer_matrix(hole.closed, phi, depth=depth)
    trip_closed = rpf_triplet(tm_closed, tol=tol)
    logs = log_survivor_masses(hole, phi, trip_closed, n_max)

    tm_open_pure = build_transfer_matrix(hole.open_, phi, depth=depth)
    p = tm_open_pure.cesaro_period
    trip_open = rpf_triplet(tm_open_pure, tol=tol)
    lam_open = trip_open.lam
    prediction = math.log(trip_closed.lam) - math.log(lam_open)

    if n_max < p + 1:
        raise PreconditionError(f"need n_max > period {p} for a slope fit")
    diffs = [logs[i + 1] - logs[i] for i in range(len(logs) - 1) if math.isfinite(logs[i + 1])]
    window = diffs[-p:] if len(diffs) >= p else diffs
    fitted = -sum(window) / len(window)
    return EscapeReport(
        ns=tuple(range(1, len(logs) + 1)),
        log_masses=tuple(logs),
        fitted_rate=fitted,
        spectral_prediction=prediction,
        discrepancy=abs(fitted - prediction),
        lam_closed=trip_closed.lam,
        lam_open=lam_open,
        period=p,
        triplet_closed=trip_closed,
    )


# -- Monte Carlo cross-check -------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloEstimate:
    estimate: float
    stderr: float
    samples: int
    seed: int


def monte_carlo_survival(
    hole: HoleSpec,
    phi: Potential,
    triplet_closed: RpfTriplet,
    n: int,
    sample_count: int,
    seed: int,
    chunk_size: int = 50_000,
) -> MonteCarloEstimate:
    """Empirical survivor fraction from the invariant-measure path sampler.

    Paths of n+1 symbols are drawn from the exact word-level Markov kernel of
    the closed system's invariant measure (initial block from the invariant
    block masses, steps from the conformal-mass transition rule); a path
    survives when none of its n transitions falls in the hole.  Chunks use
    seeds derived from the master seed, so the estimate is reproducible and
    independent of the chunking.
    """
    if sample_count < 100:
        raise PreconditionError("sample_count below 100 is statistically meaningless")
    tm = triplet_closed.tm
    m = tm.depth
    lam = triplet_closed.lam
    words = tm.words
    nwords = len(words)

    # Initial distribution over depth-m blocks: invariant masses h * nu.
    init = np.maximum(triplet_closed.h * triplet_closed.nu, 0.0)
    init = init / init.sum()

    # Step rule u -> u' = u[1:] + (c,):  weight(u,c) * nu(u') / (lam nu(u)).
    succ_idx = []
    succ_cum = []
    step_ok = []
    word_index = tm.word_index
    nu = triplet_closed.nu
    open_allows = hole.open_.allows
    for j, w in enumerate(words):
        tos, probs, oks = [], [], []
        for c in tm.index_structure.successors[w[-1]]:
            v = w[1:] + (c,)
            i = word_index.get(v)
            if i is None:
                continue
            weight = math.exp(phi.value(w + (c,)))
            pr = weight * nu[i] / (lam * nu[j]) if nu[j] > 0 else 0.0
            tos.append(i)
            probs.append(pr)
            oks.append(open_allows(w[-1], c))
        probs = np.array(probs, dtype=float)
        total = probs.sum()
        if total > 0:
            probs = probs / total
        succ_idx.append(np.array(tos, dtype=np.int64))
        succ_cum.append(np.cumsum(probs))
        step_ok.append(np.array(oks, dtype=bool))

    # A depth-m block already contains m-1 transitions; only the first n count.
    t0 = min(m - 1, n)
    block_ok = np.array(
        [all(open_allows(a, b) for a, b in zip(w[:t0], w[1 : t0 + 1])) for w in words],
        dtype=bool,
    )
    steps = max(0, (n + 1) - m)

    seeds = np.random.SeedSequence(seed).spawn(max(1, math.ceil(sample_count / chunk_size)))
    survived = 0
    drawn = 0
    for chunk_seed in seeds:
        size = min(chunk_size, sample_count - drawn)
        if size <= 0:
            break
        rng = np.random.default_rng(chunk_seed)
        state = rng.choice(nwords, size=size, p=init)
        alive = block_ok[state].copy()
        for _ in range(steps):
            u = rng.random(size)
            new_state = state.copy()
            for j in np.unique(state):
                sel = state == j
                if not np.any(sel):
                    continue
                slot = np.searchsorted(succ_cum[j], u[sel], side="right")
                slot = np.minimum(slot, len(succ_cum[j]) - 1)
                new_state[sel] = succ_idx[j][slot]
                alive[sel] &= step_ok[j][slot]
            state = new_state
        survived += int(alive.sum())
        drawn += size
    p_hat = survived / drawn
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / drawn)
    return MonteCarloEstimate(estimate=p_hat, stderr=stderr, samples=drawn, seed=seed)
