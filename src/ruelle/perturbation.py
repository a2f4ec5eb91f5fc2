"""The perturbation program: uniform conditions, operator convergence,
pressure and invariant-measure limits, and the exact eigenvector identity.

The family of potentials steered by 1/epsilon pushes weight off the hole
while clamping large dips, so the perturbed closed operators converge to the
open one in the sup norm.  Along a decreasing epsilon schedule the perturbed
radii decrease to the open radius and the perturbed invariant cylinder
masses converge on every finite cylinder algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .opensystem import HoleSpec, open_operator
from .potentials import (
    Potential,
    cylinder_sup,
    perturbed_potential,
    seminorm_bracket,
    summability_certificate,
)
from .shifts import scc_quotient
from .spectral import component_decomposition
from .transfer import TransferMatrix, _cylinder_masses, build_transfer_matrix, rpf_triplet


@dataclass(frozen=True)
class PerturbationConditionsReport:
    epsilons: tuple
    seminorm_by_eps: tuple  # [phi_eps]_{k+1}, exact
    seminorm_uniform: float
    seminorm_reference: float  # [phi]_{k+1}
    uniform_sum: float
    summability_total: float
    distance_tables: dict  # symbol -> tuple of sup |e^{phi_eps} - psi| per epsilon
    distance_bound: dict  # symbol -> tuple of 2 e^{sup phi} e^{-1/eps}
    failures: tuple


def _sup_distance(tm_eps: TransferMatrix, tm_open: TransferMatrix) -> float:
    """Largest row sum of |L_eps - L_open|, both on the closed system's words.

    Row v sums the weight gaps on the words a v over the prepended symbols
    a, left to right as the sparse product adds them.
    """
    gap = abs(tm_eps.matrix - tm_open.matrix)
    return float((gap @ np.ones(tm_eps.dim)).max(initial=0.0))


def verify_perturbation_conditions(
    phi: Potential,
    hole: HoleSpec,
    epsilons: Sequence[float],
    k: int = 1,
    theta: float = 0.5,
) -> PerturbationConditionsReport:
    """Check the uniform conditions the perturbation family must satisfy.

    (1) the seminorm at index k+1 is bounded uniformly in epsilon, (2) the
    symbol sums of the uniform cylinder sups stay below the summability
    total, (3) the per-symbol sup distance to the hole-killed weight function
    vanishes as epsilon does.  Violations come back as named failures.
    """
    A = hole.closed
    eps = tuple(sorted(epsilons, reverse=True))
    symbols = [s for s in A.alphabet.symbols if A.has_nonempty_cylinder((s,))]
    failures = []

    semis = []
    sup_by_symbol = {}
    worst_by_rank = []  # per epsilon: largest gap entry per source first symbol
    tm_open = None
    for e in eps:
        pe = perturbed_potential(phi, A, hole.open_, e)
        semis.append(seminorm_bracket(pe, A, k + 1, max(pe.depth, k + 1), theta=theta).upper)
        for s in symbols:
            sup_by_symbol[s] = max(sup_by_symbol.get(s, -math.inf), cylinder_sup(pe, A, (s,)))
        tm = build_transfer_matrix(A, pe)
        if tm_open is None:
            tm_open = open_operator(hole, phi, tm.depth)
        # Entry (v, w) is the gap on the word w[0] v: key it by the source.
        gap = abs(tm.matrix - tm_open.matrix)
        worst = np.zeros(len(A.alphabet.symbols))
        np.maximum.at(worst, tm.ranks[gap.indices, 0], gap.data)
        worst_by_rank.append(worst)
    uniform_semi = max(semis)
    ref = seminorm_bracket(phi, A, k + 1, max(phi.depth, k + 1), theta=theta).upper
    if not math.isfinite(uniform_semi):
        failures.append("seminorm: unbounded over the epsilon schedule")

    uniform_sum = sum(math.exp(v) for v in sup_by_symbol.values())
    cert = summability_certificate(phi, A)
    if uniform_sum > cert.total_upper + 1e-9 * max(1.0, cert.total_upper):
        failures.append("summability: uniform symbol sum exceeds the certificate")

    tables = {}
    bounds = {}
    rank = A.alphabet.rank
    for s in symbols:
        sup_s = cylinder_sup(phi, A, (s,))
        per_eps = [float(worst[rank[s]]) for worst in worst_by_rank]
        per_bound = [2.0 * math.exp(sup_s) * math.exp(-1.0 / e) for e in eps]
        tables[s] = tuple(per_eps)
        bounds[s] = tuple(per_bound)
        for a, b in zip(per_eps, per_bound):
            if a > b + 1e-12:
                failures.append(f"weight distance: above the exponential bound at symbol {s!r}")
                break
        if any(x > y + 1e-12 for x, y in zip(per_eps[1:], per_eps[:-1])):
            failures.append(f"weight distance: not decreasing along the schedule at symbol {s!r}")

    return PerturbationConditionsReport(
        epsilons=eps,
        seminorm_by_eps=tuple(semis),
        seminorm_uniform=uniform_semi,
        seminorm_reference=ref,
        uniform_sum=uniform_sum,
        summability_total=cert.total_upper,
        distance_tables=tables,
        distance_bound=bounds,
        failures=tuple(failures),
    )


def operator_distance(phi: Potential, hole: HoleSpec, epsilon: float) -> float:
    """Sup-norm distance between the perturbed closed and open operators.

    Exact for locally constant potentials: the largest row sum of
    |L_eps - L_open|, that is the sup over cylinder contexts of the summed
    absolute weight differences across prepended symbols.
    """
    pe = perturbed_potential(phi, hole.closed, hole.open_, epsilon)
    tm = build_transfer_matrix(hole.closed, pe)
    return _sup_distance(tm, open_operator(hole, phi, tm.depth))


@dataclass(frozen=True)
class PerturbationTrace:
    epsilons: tuple
    lams: tuple
    operator_distances: tuple
    lam_limit: float
    lam_bracket: tuple
    monotone: bool
    mass_distances: Optional[tuple] = None
    test_cylinders: Optional[tuple] = None
    limit_masses: Optional[dict] = None


def _schedule_trace(
    phi: Potential,
    hole: HoleSpec,
    epsilons: Sequence[float],
    depth: Optional[int],
    tol: float,
    cylinders=(),
) -> tuple:
    """The perturbed radii and sup distances along a decreasing schedule.

    Each L_eps is assembled once: its triplet gives the radius and the
    masses of ``cylinders``, its gap to the hole-killed operator the
    distance.  Returns the trace and the per-epsilon masses.
    """
    A = hole.closed
    eps = tuple(sorted(epsilons, reverse=True))
    lams, dists, masses = [], [], []
    tm_open = None
    for e in eps:
        pe = perturbed_potential(phi, A, hole.open_, e)
        tm = build_transfer_matrix(A, pe, depth=depth)
        trip = rpf_triplet(tm, tol=tol)
        if tm_open is None:
            tm_open = open_operator(hole, phi, tm.depth)
        lams.append(trip.lam)
        dists.append(_sup_distance(tm, tm_open))
        ms = _cylinder_masses(tm, trip.h, trip.nu, trip.lam, cylinders)
        masses.append(dict(zip(cylinders, ms.tolist())))
    lam_open = rpf_triplet(build_transfer_matrix(hole.open_, phi, depth=depth), tol=tol).lam
    monotone = all(b <= a + 1e-10 * max(1.0, a) for a, b in zip(lams, lams[1:]))
    pad = 100.0 * tol * max(1.0, lam_open)
    trace = PerturbationTrace(
        epsilons=eps,
        lams=tuple(lams),
        operator_distances=tuple(dists),
        lam_limit=lam_open,
        lam_bracket=(lam_open - pad, lams[-1] + pad),
        monotone=monotone,
    )
    return trace, masses


def pressure_convergence_trace(
    phi: Potential,
    hole: HoleSpec,
    epsilons: Sequence[float],
    depth: Optional[int] = None,
    tol: float = 1e-12,
) -> PerturbationTrace:
    """Perturbed radii along a decreasing schedule, with the open-system limit.

    The radii are nonincreasing and bounded below by the open radius, so the
    final bracket [open radius, last radius] always contains the limit.
    """
    return _schedule_trace(phi, hole, epsilons, depth, tol)[0]


def limit_invariant_masses(
    phi: Potential,
    hole: HoleSpec,
    cylinders,
    depth: Optional[int] = None,
    tol: float = 1e-12,
) -> dict:
    """Cylinder masses of the open system's invariant measure h nu.

    For an irreducible subsystem this is the plain eigendata measure; a
    reducible subsystem routes through the component decomposition, which
    requires a unique dominant component.
    """
    sub = hole.open_
    dag = scc_quotient(sub)
    live = [c for c in dag.components if c.has_periodic_point]
    if len(dag.components) == 1 and live:
        trip = rpf_triplet(build_transfer_matrix(sub, phi, depth=depth), tol=tol)
        tm, h, nu, lam = trip.tm, trip.h, trip.nu, trip.lam
    else:
        dec = component_decomposition(sub, phi, depth=depth, tol=tol)
        tm, lam = dec.tm, dec.lam
        h, nu = dec.peripherals[0].h.real, dec.peripherals[0].nu.real
    cylinders = [tuple(w) for w in cylinders]
    return dict(zip(cylinders, _cylinder_masses(tm, h, nu, lam, cylinders).tolist()))


def gibbs_convergence_trace(
    phi: Potential,
    hole: HoleSpec,
    epsilons: Sequence[float],
    test_cylinders,
    depth: Optional[int] = None,
    tol: float = 1e-12,
) -> PerturbationTrace:
    """Perturbed invariant cylinder masses against the open-system limit."""
    cylinders = tuple(tuple(w) for w in test_cylinders)
    limit = limit_invariant_masses(phi, hole, cylinders, depth=depth, tol=tol)
    trace, masses = _schedule_trace(phi, hole, epsilons, depth, tol, cylinders)
    return replace(
        trace,
        mass_distances=tuple(max(abs(ms[w] - limit[w]) for w in cylinders) for ms in masses),
        test_cylinders=cylinders,
        limit_masses=limit,
    )


# -- eigenvector identity -----------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheckRow:
    vector: int
    lhs: complex
    rhs: complex
    residual: float


def eigenvector_identity_check(
    base_matrix: np.ndarray,
    perturbed_matrix: np.ndarray,
    triplet,
    perturbed_left: np.ndarray,
    test_vectors: Sequence[np.ndarray],
) -> tuple:
    """Exact resolvent identity for the normalized perturbed eigenvector.

    With kappa(f) = nu_eps(f) / nu_eps(h), E = L - lam h (x) nu and
    Ltilde = L_eps - L, the identity

        kappa(f) = nu(f) + kappa(Ltilde (h kappa(.) - I) (E - lam I)^{-1} f)

    must hold for every vector f.  Requires (E - lam I) invertible, which is
    the simplicity of the leading eigenvalue on the reduction; a singular
    solve reports the failing gap.
    """
    L = np.asarray(base_matrix, dtype=float)
    Le = np.asarray(perturbed_matrix, dtype=float)
    h = triplet.h
    nu = triplet.nu
    lam = triplet.lam
    n = L.shape[0]
    E = L - lam * np.outer(h, nu)
    A = E - lam * np.eye(n)
    eigs = np.linalg.eigvals(L)
    gap = min(
        (abs(e - lam) for e in eigs if abs(e - lam) > 1e-8 * max(lam, 1.0)),
        default=0.0,
    )
    cond_probe = np.abs(np.linalg.eigvals(A)).min(initial=np.inf)
    if cond_probe < 1e-12 * max(lam, 1.0):
        raise PreconditionError(
            f"(E - lam I) is singular: leading eigenvalue not simple (gap {gap:.3e})"
        )
    nue = np.asarray(perturbed_left, dtype=float)
    nue_h = float(nue @ h)
    if abs(nue_h) < 1e-300:
        raise PreconditionError("perturbed left vector annihilates the eigenfunction")

    def kappa(f):
        return (nue @ f) / nue_h

    Lt = Le - L
    rows = []
    for i, f in enumerate(test_vectors):
        f = np.asarray(f, dtype=float)
        y = np.linalg.solve(A, f)
        inner = h * kappa(y) - y
        rhs = float(nu @ f) + kappa(Lt @ inner)
        lhs = kappa(f)
        rows.append(
            IdentityCheckRow(vector=i, lhs=lhs, rhs=rhs, residual=abs(lhs - rhs))
        )
    return tuple(rows)
