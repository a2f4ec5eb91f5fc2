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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import PreconditionError
from .potentials import (
    DEFAULT_K,
    DEFAULT_THETA,
    Potential,
    cylinder_sup,
    perturbed_potential,
    seminorm_bracket,
    summability_certificate,
)
from .shifts import HoleSpec
from .transfer import (
    DEFAULT_MAX_ITER, DEFAULT_TOL, _cylinder_masses, build_transfer_matrix, rpf_triplet
)


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


def _weight_gaps(pe: Potential, phi: Potential, hole: HoleSpec):
    """Yield (w, |e^{phi_eps(w)} - psi(w)|) over the weight table of phi_eps.

    The table runs lexicographically over the closed system's nonempty
    depth-d words; psi is e^{phi} off the hole and 0 on it.  The gaps are
    the entries of |L_eps - L_open|, with the weights exponentiated as
    assembly does.
    """
    holes = hole.hole_pairs
    for w, v in pe.weights.items():
        psi = 0.0 if (w[0], w[1]) in holes else math.exp(phi.value(w))
        yield w, abs(math.exp(v) - psi)


def _sup_distance(gaps) -> float:
    """Largest row sum of |L_eps - L_open| from the weight gaps.

    A row with context c = w[1:] sums the gaps of the words a c over the
    prepended symbols a in lexicographic order from 0.0, as the sparse
    product adds a row, at every matrix depth.
    """
    sums = {}
    for w, g in gaps:
        sums[w[1:]] = sums.get(w[1:], 0.0) + g
    return max(sums.values(), default=0.0)


def verify_perturbation_conditions(
    phi: Potential,
    hole: HoleSpec,
    epsilons: Sequence[float],
    k: int = DEFAULT_K,
    theta: float = DEFAULT_THETA,
) -> PerturbationConditionsReport:
    """Check the uniform conditions the perturbation family must satisfy.

    (1) the seminorm at index k+1 is bounded uniformly in epsilon, (2) the
    symbol sums of the uniform cylinder sups stay below the summability
    total, (3) the per-symbol sup distance to the hole-killed weight function
    vanishes as epsilon does.  Violations come back as named failures.
    """
    A = hole.closed
    eps = tuple(sorted(epsilons, reverse=True))
    if not eps:
        raise PreconditionError("the conditions need at least one epsilon")
    symbols = [s for s in A.alphabet.symbols if A.has_nonempty_cylinder((s,))]
    failures = []

    semis = []
    sup_by_symbol = dict.fromkeys(symbols, -math.inf)
    worst_by_eps = []  # per epsilon: largest weight gap per first symbol
    for e in eps:
        pe = perturbed_potential(phi, A, hole.open_, e)
        semis.append(seminorm_bracket(pe, A, k + 1, theta=theta).upper)
        for w, v in pe.weights.items():
            sup_by_symbol[w[0]] = max(sup_by_symbol[w[0]], v)
        worst = dict.fromkeys(symbols, 0.0)
        for w, g in _weight_gaps(pe, phi, hole):
            worst[w[0]] = max(worst[w[0]], g)
        worst_by_eps.append(worst)
    uniform_semi = max(semis)
    ref = seminorm_bracket(phi, A, k + 1, theta=theta).upper
    if not math.isfinite(uniform_semi):
        failures.append("seminorm: unbounded over the epsilon schedule")

    uniform_sum = sum(math.exp(v) for v in sup_by_symbol.values())
    cert = summability_certificate(phi, A)
    if uniform_sum > cert.total_upper + 1e-9 * max(1.0, cert.total_upper):
        failures.append("summability: uniform symbol sum exceeds the certificate")

    tables = {}
    bounds = {}
    for s in symbols:
        sup_s = cylinder_sup(phi, A, (s,))
        per_eps = [worst[s] for worst in worst_by_eps]
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


@dataclass(frozen=True)
class PerturbationTrace:
    epsilons: tuple
    lams: tuple
    operator_distances: tuple
    lam_limit: float
    lam_bracket: tuple
    monotone: bool
    mass_distances: tuple
    test_cylinders: tuple
    limit_masses: dict


def _masses(trip, cylinders) -> dict:
    """Cylinder masses of the triplet's invariant measure h nu, by cylinder."""
    return dict(zip(cylinders, _cylinder_masses(trip.tm, trip.h, trip.nu, trip.lam, cylinders).tolist()))


def gibbs_convergence_trace(
    phi: Potential,
    hole: HoleSpec,
    epsilons: Sequence[float],
    test_cylinders,
    depth: Optional[int] = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PerturbationTrace:
    """The perturbed radii, sup distances and invariant cylinder masses along
    a decreasing schedule, against the open-system limit.

    One ``rpf_triplet`` of the subsystem's operator gives the limit radius
    and masses; a reducible subsystem takes its block route, which requires
    a unique dominant block.  Each L_eps is assembled once: its triplet gives
    the radius and the masses of ``test_cylinders``, and its sup distance to
    the hole-killed operator is read off the weights.  The radii are
    nonincreasing and bounded below by the open radius, so the final bracket
    [open radius, last radius] always contains the limit.
    """
    A = hole.closed
    eps = tuple(sorted(epsilons, reverse=True))
    cylinders = tuple(tuple(w) for w in test_cylinders)
    if not eps or not cylinders:
        raise PreconditionError("the trace needs at least one epsilon and one test cylinder")
    for w in cylinders:
        if any(s not in A.alphabet for s in w):
            raise PreconditionError(f"test cylinder {w!r} has a symbol outside the alphabet")
    limit_trip = rpf_triplet(build_transfer_matrix(hole.open_, phi, depth=depth), tol=tol,
                             max_iter=max_iter)
    limit = _masses(limit_trip, cylinders)
    lams, dists, mass_dists = [], [], []
    for e in eps:
        pe = perturbed_potential(phi, A, hole.open_, e)
        trip = rpf_triplet(build_transfer_matrix(A, pe, depth=depth), tol=tol, max_iter=max_iter)
        lams.append(trip.lam)
        dists.append(_sup_distance(_weight_gaps(pe, phi, hole)))
        ms = _masses(trip, cylinders)
        mass_dists.append(max(abs(ms[w] - limit[w]) for w in cylinders))
    monotone = all(b <= a + 1e-10 * max(1.0, a) for a, b in zip(lams, lams[1:]))
    pad = 100.0 * tol * max(1.0, limit_trip.lam)
    return PerturbationTrace(
        epsilons=eps,
        lams=tuple(lams),
        operator_distances=tuple(dists),
        lam_limit=limit_trip.lam,
        lam_bracket=(limit_trip.lam - pad, lams[-1] + pad),
        monotone=monotone,
        mass_distances=tuple(mass_dists),
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
