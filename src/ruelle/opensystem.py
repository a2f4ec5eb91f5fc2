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
    _allows,
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
    tm_open = open_operator(hole, phi, triplet_closed.tm.depth)
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


def _step_table(hole: HoleSpec, triplet_closed: RpfTriplet) -> tuple:
    """The sampler's word-level kernel, read off the closed operator.

    The step w -> v has probability L[v, w] nu(v) / (lam nu(w)), so row w of
    the transpose lists the targets v = w[1:] + (c,) in successor order.
    Returns its (indptr, targets), each row's cumulative probabilities, and
    whether the step's transition is allowed by the subsystem.
    """
    tm, nu = triplet_closed.tm, triplet_closed.nu
    steps_of = tm.matrix.T.tocsr()
    degree = np.diff(steps_of.indptr)
    src = np.repeat(np.arange(tm.dim), degree)
    den = triplet_closed.lam * nu[src]
    prob = np.divide(steps_of.data * nu[steps_of.indices], den, out=np.zeros_like(den), where=den > 0)
    # Rows of equal degree are normalized and accumulated as one 2-D block,
    # which sums each row exactly as a per-row array would.
    cum = np.empty_like(prob)
    for d in np.unique(degree[degree > 0]):
        at = steps_of.indptr[:-1][degree == d][:, None] + np.arange(d)
        block = prob[at]
        total = block.sum(axis=1, keepdims=True)
        cum[at] = np.cumsum(np.divide(block, total, out=block, where=total > 0), axis=1)
    last = tm.ranks[:, -1]
    step_ok = _allows(hole.open_, tm.index_structure, last[src], last[steps_of.indices])
    return steps_of.indptr, steps_of.indices, cum, step_ok


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
    survives when none of its n transitions falls in the hole.  The kernel
    is read from the operator of ``triplet_closed``, whose potential is
    ``phi``.  Chunks use seeds derived from the master seed, so the estimate
    is reproducible and independent of the chunking.
    """
    if sample_count < 100:
        raise PreconditionError("sample_count below 100 is statistically meaningless")
    tm = triplet_closed.tm
    m = tm.depth
    ranks = tm.ranks

    # Initial distribution over depth-m blocks: invariant masses h * nu.
    init = np.maximum(triplet_closed.h * triplet_closed.nu, 0.0)
    init = init / init.sum()

    indptr, targets, cum, step_ok = _step_table(hole, triplet_closed)
    start, stop = indptr[:-1], indptr[1:]

    # A depth-m block already contains m-1 transitions; only the first n count.
    block_ok = np.ones(tm.dim, dtype=bool)
    for t in range(min(m - 1, n)):
        block_ok &= _allows(hole.open_, tm.index_structure, ranks[:, t], ranks[:, t + 1])
    steps = max(0, (n + 1) - m)
    halvings = int((stop - start).max(initial=0)).bit_length()

    seeds = np.random.SeedSequence(seed).spawn(max(1, math.ceil(sample_count / chunk_size)))
    survived = 0
    drawn = 0
    for chunk_seed in seeds:
        size = min(chunk_size, sample_count - drawn)
        if size <= 0:
            break
        rng = np.random.default_rng(chunk_seed)
        state = rng.choice(tm.dim, size=size, p=init)
        alive = block_ok[state]
        for _ in range(steps):
            u = rng.random(size)
            # Bisect each path's row of the flat cumulative table for the
            # first entry above u (searchsorted side="right").
            lo, hi = start[state], stop[state]
            for _ in range(halvings):
                mid = (lo + hi) >> 1
                below = cum[np.minimum(mid, len(cum) - 1)] <= u
                lo = np.where((lo < hi) & below, mid + 1, lo)
                hi = np.where(below, hi, mid)
            slot = np.minimum(lo, stop[state] - 1)
            state = targets[slot]
            alive &= step_ok[slot]
        survived += int(alive.sum())
        drawn += size
    p_hat = survived / drawn
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / drawn)
    return MonteCarloEstimate(estimate=p_hat, stderr=stderr, samples=drawn, seed=seed)
