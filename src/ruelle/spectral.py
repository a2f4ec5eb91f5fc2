"""Peripheral spectral decompositions and the checks built on them.

An irreducible structure of period p has exactly p simple eigenvalues on the
peripheral circle, the radius times the p-th roots of unity.  Each peripheral
projection is a rank-one tensor of a twisted eigenfunction and a twisted
eigenvector, both assembled from the positive pair (h, nu) and the cyclic
class indicators.  Reducible structures with a unique maximal-pressure
component extend the same decomposition by resolvent formulas across the
component blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, NonUniqueDominantError, PreconditionError
from .potentials import DEFAULT_K, DEFAULT_THETA, Potential, _lex_min_extension
from .shifts import TransitionStructure, admissible_words, nonempty_cylinder_words, period_classes
from .transfer import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    RpfTriplet,
    TransferMatrix,
    _cylinder_masses,
    _dominant,
    _extend,
    _minimal,
    build_transfer_matrix,
    rpf_triplet,
)


# Above this dim the remainder radius comes from ARPACK instead of dense
# eigvals, at their measured crossover (2-core Xeon; banded remainders,
# dense against ARPACK): 0.97 / 1.46 ms at n = 64, 1.84 / 1.57 ms at n = 80,
# 3.26 / 0.92 ms at n = 100; period-3 cyclic ones cross at n = 80 too.
DENSE_RADIUS_LIMIT = 80
# Eigenvalues ARPACK resolves; more than one, so that a conjugate pair or a
# tie in modulus at the top of the remainder's spectrum is resolved too.
ARPACK_K = 4
# Rows per block of the reconstruction check, which so holds 32 n entries at
# a time instead of the n x n of a whole remainder.  The check takes 6.5 /
# 8.3 / 5.4 ms at 32 / 16 / 64 rows for n = 800 and 149 / 140 / 239 ms for
# n = 4000 (banded, 2-core Xeon).
_BLOCK_ROWS = 32
# A Lasota-Yorke seminorm below this share of its sample's sup norm is
# rounding, counted as zero.
_NOISE_FLOOR = 1e-12
# The series eigenfunction's truncated tail stays below this.
_SERIES_TOL = 1e-12


@dataclass(frozen=True)
class Peripheral:
    eigenvalue: complex
    h: np.ndarray  # right vector, complex
    nu: np.ndarray  # left vector, complex; projection is outer(h, nu)


@dataclass(frozen=True)
class SpectralDecomposition:
    lam: float
    p: int
    kappa: complex
    tm: TransferMatrix
    peripherals: tuple  # of Peripheral
    remainder_radius: float
    remainder_method: str
    checks: dict
    component_pressures: Optional[tuple] = None
    dominant_component: Optional[int] = None
    support_patterns: Optional[dict] = None

    @property
    def words(self) -> tuple:
        return self.tm.words

    @cached_property
    def remainder(self) -> np.ndarray:
        """The dense n x n remainder L - sum_i lam_i P_i, formed on first use."""
        return _dense_remainder(self.tm, self.peripherals, self.lam)

    def projection(self, i: int) -> np.ndarray:
        per = self.peripherals[i]
        return np.outer(per.h, per.nu)

    def reconstruction(self) -> np.ndarray:
        total = self.remainder.astype(complex).copy()
        for i, per in enumerate(self.peripherals):
            total += per.eigenvalue * self.projection(i)
        return total


def spectral_decomposition(
    tm: TransferMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralDecomposition:
    """Peripheral decomposition of an irreducible reduction.

    The twisted vectors are h_i = sum_j kappa^{-ji} h 1_{class j} and
    nu_i = sum_j kappa^{ji} nu 1_{class j}; the remainder is what is left
    after removing the p rank-one peripheral terms.  The positive pair is
    solved by ``rpf_triplet`` to ``tol`` within ``max_iter`` matvecs per loop.
    """
    if not tm.governing.irreducible:
        raise PreconditionError(
            "spectral decomposition needs an irreducible structure; "
            "route reducible input through component_decomposition"
        )
    triplet = rpf_triplet(tm, tol=tol, max_iter=max_iter)
    every = np.ones(tm.dim, dtype=bool)
    return _decompose(tm, every, period_classes(tm.governing), triplet.lam, triplet.h, triplet.nu)


def _decompose(tm, dom_rows, classes, lam, h, nu, **extra) -> SpectralDecomposition:
    """Peripheral decomposition from the positive pair (h, nu) of ``tm``.

    ``dom_rows`` marks the words of the dominant component, and (h, nu),
    nu . h = 1, is the positive pair on every row, so it is the first
    peripheral pair as it stands.  Each other one twists the pair on the
    dominant rows by the cyclic classes and extends it across the other
    rows by ``transfer._extend`` at its eigenvalue lam_i (B22 is nilpotent
    when the dominant component is the only cyclic one), then
    nu_i . h_i = 1.
    Everything here reads the sparse L and the p pairs; no n x n array is
    formed above ``DENSE_RADIUS_LIMIT``.  The remainder's radius is the
    largest modulus among its eigenvalues: up to the limit dense LAPACK on
    the remainder as ``SpectralDecomposition.remainder`` forms it, above it
    ARPACK on the matrix-free remainder.  ``extra`` fills the reducible-only
    fields.
    """
    p = classes.p
    kappa = cmath.exp(2j * math.pi / p)
    rank = tm.index_structure.alphabet.rank
    class_of = np.full(len(rank), -1)
    for j, cls in enumerate(classes.classes):
        class_of[[rank[s] for s in cls]] = j
    word_class = class_of[tm.ranks[dom_rows, 0]]
    masks = [(word_class == j).astype(float) for j in range(p)]
    nilpotent = sum(c.has_periodic_point for c in tm.governing.quotient.components) == 1
    h1, nu1 = h[dom_rows], nu[dom_rows]
    peripherals = [Peripheral(eigenvalue=complex(lam), h=h.astype(complex), nu=nu.astype(complex))]
    for i in range(1, p):
        lam_i = lam * kappa**i
        hi1 = np.zeros(len(word_class), dtype=complex)
        nui1 = np.zeros(len(word_class), dtype=complex)
        for j in range(p):
            hi1 += kappa ** (-j * i) * (h1 * masks[j])
            nui1 += kappa ** (j * i) * (nu1 * masks[j])
        hi, nui = _extend(tm.matrix, dom_rows, lam_i, hi1, nui1, nilpotent)
        if not dom_rows.all():
            nui = nui / (nui @ hi)
        peripherals.append(Peripheral(eigenvalue=lam_i, h=hi, nu=nui))

    checks = _projection_checks(tm.matrix, peripherals, None, lam)
    real = _imag_is_rounding(checks.pop("remainder_imag"), lam)
    if tm.dim <= DENSE_RADIUS_LIMIT:
        remainder = _dense_remainder(tm, peripherals, lam)
        radius = float(np.abs(np.linalg.eigvals(remainder)).max(initial=0.0))
        method = "dense_eigvals"
    else:
        radius, method = _arpack_radius(tm.matrix, peripherals, real), "arpack"
    return SpectralDecomposition(
        lam=lam,
        p=p,
        kappa=kappa,
        tm=tm,
        peripherals=tuple(peripherals),
        remainder_radius=radius,
        remainder_method=method,
        checks=checks,
        **extra,
    )


def _real_data(peripherals) -> bool:
    return not any(
        per.eigenvalue.imag or per.h.imag.any() or per.nu.imag.any() for per in peripherals
    )


def _imag_is_rounding(imag: float, lam: float) -> bool:
    """Whether a remainder whose largest |imaginary part| is ``imag`` is held real."""
    return imag < 1e-9 * max(lam, 1.0)


def _remainder_rows(dense_rows, peripherals, rows, real: bool):
    """Rows ``rows`` of L - sum_i lam_i h_i (x) nu_i from the same rows of L.

    With ``real`` peripheral data (p = 1) they are built in float64, otherwise
    in complex.  Each entry is computed on its own, so a block of rows holds
    the same values as those rows of the whole remainder.
    """
    if real:
        out = dense_rows.copy()
        for per in peripherals:
            out -= per.eigenvalue.real * np.outer(per.h.real[rows], per.nu.real)
    else:
        out = dense_rows.astype(complex)
        for per in peripherals:
            out -= per.eigenvalue * np.outer(per.h[rows], per.nu)
    return out


def _dense_remainder(tm, peripherals, lam) -> np.ndarray:
    """The n x n remainder, kept as its real part when the imaginary one is
    rounding; either way the real values are the same."""
    remainder = _remainder_rows(tm.dense(), peripherals, slice(None), _real_data(peripherals))
    if np.iscomplexobj(remainder) and _imag_is_rounding(
        float(np.abs(remainder.imag).max(initial=0.0)), lam
    ):
        remainder = remainder.real.copy()
    return remainder


def _apply_remainder(matrix, peripherals, x):
    """x -> L x - sum_i lam_i h_i (nu_i . x) with L = ``matrix``.

    With L^T and each pair's h and nu swapped this is x -> x R.
    """
    y = matrix @ x
    for per in peripherals:
        y = y - per.eigenvalue * (per.nu @ x) * per.h
    return y


def _arpack_radius(matrix, peripherals, real: bool) -> float:
    """Largest |eigenvalue| of x -> L x - sum_i lam_i h_i (nu_i . x).

    Implicitly restarted Arnoldi (ARPACK) for the ``ARPACK_K`` eigenvalues
    of largest modulus, from a fixed seeded start so that repeated calls
    agree bitwise.  The start is not the ones vector: for a normalized
    potential that is h itself, which the remainder maps to zero.
    """
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs

    n = matrix.shape[0]

    def matvec(x):
        y = _apply_remainder(matrix, peripherals, x)
        return y.real if real else y

    op = LinearOperator((n, n), matvec=matvec, dtype=float if real else complex)
    start = np.random.default_rng(0).standard_normal(n)
    try:
        vals = eigs(op, k=ARPACK_K, which="LM", v0=start, return_eigenvectors=False)
    except (ArpackNoConvergence, ArpackError) as exc:
        raise ConvergenceError(
            f"remainder radius: ARPACK failed on the dim-{n} remainder: {exc}"
        ) from exc
    return float(np.abs(vals).max())


def _projection_checks(matrix, peripherals, remainder, lam) -> dict:
    """Projection identities of P_i = h_i (x) nu_i in rank-one form.

    ``matrix`` is L, sparse or dense.  ``remainder`` is a dense R, or None
    for the remainder L - sum_i lam_i P_i, which is then never formed whole.
    P_i P_j = (nu_i . h_j) h_i (x) nu_j, P_i R = h_i (x) (nu_i R) and
    R P_i = (R h_i) (x) nu_i, and the largest entry of a (x) b is
    |a|_inf |b|_inf, so no projection is formed.  Without a dense R,
    nu_i R and R h_i come from ``_apply_remainder`` in O(nnz + p^2 n).  The
    reconstruction error R + sum lam_i P_i - L is taken entrywise over
    blocks of ``_BLOCK_ROWS`` rows (O(n) memory per row, O(n^2) time); the
    same pass returns the largest |imaginary part| of R as
    ``remainder_imag``, for the caller to pop.  The eigen-residuals
    |L h_i - lam_i h_i|_inf / (lam |h_i|_inf) and the same for L^T nu_i are
    taken on ``matrix``.
    """
    scale = max(lam, 1.0)
    hs = [per.h for per in peripherals]
    nus = [per.nu for per in peripherals]
    h_sup = [float(np.abs(h).max()) for h in hs]
    nu_sup = [float(np.abs(nu).max()) for nu in nus]
    if remainder is None:
        swapped = [Peripheral(per.eigenvalue, per.nu, per.h) for per in peripherals]
        r_h = [_apply_remainder(matrix, peripherals, h) for h in hs]
        nu_r = [_apply_remainder(matrix.T, swapped, nu) for nu in nus]
    else:
        r_h = [remainder @ h for h in hs]
        nu_r = [nu @ remainder for nu in nus]
    worst_idem = worst_orth = worst_commute = 0.0
    for i in range(len(peripherals)):
        worst_idem = max(worst_idem, abs(nus[i] @ hs[i] - 1.0) * h_sup[i] * nu_sup[i])
        worst_commute = max(
            worst_commute,
            h_sup[i] * float(np.abs(nu_r[i]).max()),
            float(np.abs(r_h[i]).max()) * nu_sup[i],
        )
        for j in range(i + 1, len(peripherals)):
            worst_orth = max(worst_orth, abs(nus[i] @ hs[j]) * h_sup[i] * nu_sup[j])

    eigs = np.array([per.eigenvalue for per in peripherals])
    left, right = np.stack(hs, axis=1) * eigs, np.stack(nus)
    real = _real_data(peripherals)
    real_r = real if remainder is None else np.isrealobj(remainder)
    if real_r and not (left.imag.any() or right.imag.any()):
        # Real data: the complex product's real parts, in float64 blocks.
        left, right = left.real, right.real
    recon_err = imag = 0.0
    n = matrix.shape[0]
    if sp.issparse(matrix):
        # Blocks are scattered from the CSR arrays into zeros; with no
        # duplicate entries each value lands as stored.
        csr = matrix.tocsr()
        row_of = np.repeat(np.arange(n), np.diff(csr.indptr))
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        rows = slice(start, stop)
        if sp.issparse(matrix):
            lo, hi = csr.indptr[start], csr.indptr[stop]
            l_rows = np.zeros((stop - start, n), dtype=csr.dtype)
            l_rows[row_of[lo:hi] - start, csr.indices[lo:hi]] = csr.data[lo:hi]
        else:
            l_rows = matrix[rows]
        if remainder is None:
            r_rows = _remainder_rows(l_rows, peripherals, rows, real)
        else:
            r_rows = remainder[rows]
        if np.iscomplexobj(r_rows):
            imag = max(imag, float(np.abs(r_rows.imag).max(initial=0.0)))
        recon = left[rows] @ right
        recon += r_rows
        recon -= l_rows
        recon_err = max(recon_err, float(np.abs(recon).max(initial=0.0)))
    res_h = max(
        float(np.abs(matrix @ h - per.eigenvalue * h).max()) / (lam * sup)
        for per, h, sup in zip(peripherals, hs, h_sup)
    )
    res_nu = max(
        float(np.abs(matrix.T @ nu - per.eigenvalue * nu).max()) / (lam * sup)
        for per, nu, sup in zip(peripherals, nus, nu_sup)
    )
    return {
        "reconstruction_error": recon_err / scale,
        "projection_orthogonality": worst_orth / scale,
        "projection_idempotence": worst_idem,
        "remainder_commutation": worst_commute / scale,
        "eigen_residual_h": res_h,
        "eigen_residual_nu": res_nu,
        "remainder_imag": imag,
    }


# -- reducible structures --------------------------------------------------------


def _pressures(small: TransferMatrix, blocks) -> tuple:
    """Each transitive component's pressure: the log of the largest radius
    among its ``blocks`` (rows of ``small``, from ``rpf_triplet``'s block
    route), -inf for a component without one."""
    labels = small.governing.quotient.labels
    out = [-math.inf] * len(small.governing.quotient.components)
    for rows, lam in blocks:
        c = int(labels[small.ranks[rows[0], 0]])
        out[c] = max(out[c], math.log(lam))
    return tuple(out)


def component_decomposition(
    ts: TransitionStructure,
    phi: Potential,
    depth: Optional[int] = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralDecomposition:
    """Decomposition for a reducible structure with one dominant component.

    The pair is ``rpf_triplet``'s at ``depth``: its block route solves each
    cyclic block of the reduction at the potential's least exact depth (the
    one its potential holds, ``transfer._reduction``), extends the dominant
    block's pair and lifts it to ``depth``.  A component's pressure is the
    log of its largest block radius.  The pair on the dominant component's
    words extends across the remaining blocks by resolvent solves; the
    eigenfunction spreads to components reachable from the dominant one, the
    eigenvector to components that reach it.  A pressure tie within
    ``TIE_RTOL`` is an error carrying the tied components.
    """
    dag = ts.quotient
    if not any(comp.has_periodic_point for comp in dag.components):
        raise PreconditionError("no component carries a cycle; spectral radius is zero")
    small = _minimal(ts, phi, depth)
    tm = small if depth in (None, small.depth) else build_transfer_matrix(ts, phi, depth=depth)
    try:
        trip = rpf_triplet(tm, tol=tol, max_iter=max_iter)
    except NonUniqueDominantError as exc:
        # The tie names blocks; name the tied components instead.
        _dominant(_pressures(small, exc.blocks), "component")
        raise
    pressures = _pressures(small, trip.blocks)
    dom = pressures.index(max(pressures))
    classes = period_classes(ts, component=dag.components[dom].symbols)
    rows = (dag.labels[tm.ranks] == dom).all(axis=1)
    dec = _decompose(
        tm, rows, classes, trip.lam, trip.h, trip.nu,
        component_pressures=pressures, dominant_component=dom,
    )
    return replace(dec, support_patterns=_support_patterns(tm, dag, dom, dec.peripherals))


def _support_patterns(tm, dag, dom, peripherals) -> dict:
    """Zero/nonzero pattern of h_i and nu_i per transitive component.

    The eigenfunction lives on components reachable from the dominant one and
    the eigenvector on components that reach it (meeting the subshift).
    """
    n_comp = len(dag.components)
    comp_of_word = dag.labels[tm.ranks[:, 0]]
    h0 = peripherals[0].h
    nu0 = peripherals[0].nu
    h_nonzero = []
    nu_nonzero = []
    for c in range(n_comp):
        sel = comp_of_word == c
        h_nonzero.append(bool(h0[sel].any()))
        nu_nonzero.append(bool(nu0[sel].any()))
    return {
        "h_nonzero_by_component": tuple(h_nonzero),
        "nu_nonzero_by_component": tuple(nu_nonzero),
        "expected_h": tuple(dag.precedes(dom, c) for c in range(n_comp)),
        "expected_nu": tuple(dag.precedes(c, dom) for c in range(n_comp)),
    }


# -- Gibbs property ------------------------------------------------------------------


@dataclass(frozen=True)
class GibbsReport:
    depths: tuple
    c_min_by_depth: tuple
    c_max_by_depth: tuple
    c_min: float
    c_max: float
    excluded_words: tuple
    stable: bool


def gibbs_check(
    triplet: RpfTriplet,
    phi: Potential,
    pressure: float,
    depths: Sequence,
) -> GibbsReport:
    """Ratios of invariant cylinder masses to the Gibbs comparison weights.

    Each admissible word w of length n contributes mu([w]) divided by
    exp(-n P + S_n phi at the word's canonical representative); the spread of
    these ratios per depth is the Gibbs constant bracket.  Zero-mass words
    are excluded and reported.
    """
    depths = tuple(depths)
    if not depths:
        raise PreconditionError("the Gibbs check needs at least one word length")
    ts = triplet.tm.index_structure
    cmins, cmaxs = [], []
    excluded = []
    overall_min, overall_max = math.inf, 0.0
    for n in depths:
        lo, hi = math.inf, 0.0
        words = nonempty_cylinder_words(ts, n)
        masses = _cylinder_masses(triplet.tm, triplet.h, triplet.nu, triplet.lam, words)
        for w, mass in zip(words, masses.tolist()):
            if mass <= 0.0:
                excluded.append(w)
                continue
            rep = _lex_min_extension(ts, w, n + phi.depth - 1)
            weight = math.exp(-n * pressure + phi.birkhoff(rep, n))
            ratio = mass / weight
            lo = min(lo, ratio)
            hi = max(hi, ratio)
        cmins.append(lo)
        cmaxs.append(hi)
        overall_min = min(overall_min, lo)
        overall_max = max(overall_max, hi)
    spread_first = cmaxs[0] / cmins[0]
    spread_last = cmaxs[-1] / cmins[-1]
    stable = spread_last <= spread_first * 1.05
    return GibbsReport(
        depths=depths,
        c_min_by_depth=tuple(cmins),
        c_max_by_depth=tuple(cmaxs),
        c_min=overall_min,
        c_max=overall_max,
        excluded_words=tuple(excluded),
        stable=stable,
    )


# -- Lasota-Yorke inequality -----------------------------------------------------------


@dataclass(frozen=True)
class LasotaYorkeRow:
    sample: int
    m: int
    norm_k: float
    seminorm: float
    l1_term: float
    bound: float
    holds: bool


@dataclass(frozen=True)
class LasotaYorkeReport:
    rows: tuple
    c_l1: float
    c_sem: float
    seminorm_slopes: tuple  # per sample; -inf when the seminorm collapses to zero
    slope_bound: float
    all_hold: bool
    collapsed: int


def _word_seminorm(f: np.ndarray, ranks: np.ndarray, k: int, theta: float) -> float:
    """[f]_k of a depth-m word vector: variations over the n-prefix runs of
    the lexicographic rank rows, n = k..m-1."""
    m = ranks.shape[1] if len(ranks) else 0
    best = 0.0
    for n in range(k, m):
        pre = ranks[:, :n]
        starts = np.flatnonzero(np.r_[True, (pre[1:] != pre[:-1]).any(axis=1)])
        v = np.maximum.reduceat(f, starts) - np.minimum.reduceat(f, starts)
        best = max(best, float(v.max()) / theta**n)
    return best


def lasota_yorke_check(
    tm_open: TransferMatrix,
    phi: Potential,
    phi_dominating: Potential,
    triplet_dominating: RpfTriplet,
    samples: Sequence[np.ndarray],
    m_values: Sequence[int],
    k: int = DEFAULT_K,
    theta: float = DEFAULT_THETA,
) -> LasotaYorkeReport:
    """Two-term contraction inequality for the normalized open operator.

    Verifies the domination of the potential, then tabulates the norm of the
    m-th normalized iterate against fitted constants times the L1 norm plus a
    theta^m seminorm term.  The seminorm decay slope is fit per sample; for
    locally constant data the seminorm collapses to exactly zero once m
    reaches the representation depth, reported as a -inf slope.  A heuristic:
    the constants are fitted to these samples, so ``all_hold`` holds by
    construction, and the slopes are the evidence.
    """
    m_values = sorted(m_values)
    if not m_values or m_values[0] < 1:
        raise PreconditionError("the Lasota-Yorke check needs at least one positive iterate m")
    if len(samples) == 0:
        raise PreconditionError("the Lasota-Yorke check needs at least one sample")
    ts = tm_open.index_structure
    sub = tm_open.governing
    d = max(phi.depth, phi_dominating.depth, 2)
    for w in nonempty_cylinder_words(ts, d):
        if sub.allows(w[0], w[1]) and phi.value(w) > phi_dominating.value(w) + 1e-12:
            raise PreconditionError(
                f"domination violated at {w!r}: potential exceeds the dominating one"
            )

    lam0 = triplet_dominating.lam
    mu0 = triplet_dominating.h * triplet_dominating.nu
    rows = []
    per_sample_semis = []
    for si, f0 in enumerate(samples):
        f0 = np.asarray(f0, dtype=float)
        scale = max(float(np.abs(f0).max()), 1e-300)
        l1 = float(mu0 @ np.abs(f0))
        norm_f = float(np.abs(f0).max()) + _word_seminorm(f0, tm_open.ranks, k, theta)
        semis = {}
        f = f0.copy()
        for m in range(1, max(m_values) + 1):
            f = tm_open.apply(f) / lam0
            if m in m_values:
                sem = _word_seminorm(f, tm_open.ranks, k, theta)
                if sem < _NOISE_FLOOR * scale:
                    sem = 0.0
                semis[m] = (float(np.abs(f).max()), sem)
        per_sample_semis.append((l1, norm_f, semis))

    # Fit c_sem on the transient (small m, nonzero seminorms), then c_l1.
    c_sem = 0.0
    for l1, norm_f, semis in per_sample_semis:
        for m, (_, sem) in semis.items():
            if sem > 0.0 and norm_f > 0.0:
                c_sem = max(c_sem, sem / (theta**m * norm_f))
    c_sem = max(c_sem, 1.0)
    c_l1 = 0.0
    for l1, norm_f, semis in per_sample_semis:
        for m, (sup, sem) in semis.items():
            nk = sup + sem
            if l1 > 0.0:
                c_l1 = max(c_l1, max(0.0, nk - c_sem * theta**m * norm_f) / l1)
    c_l1 = max(c_l1, 1.0)

    slopes = []
    all_hold = True
    collapsed = 0
    for si, (l1, norm_f, semis) in enumerate(per_sample_semis):
        pts = [(m, sem) for m, (_, sem) in semis.items() if sem > 0.0]
        if len(pts) >= 2:
            xs = np.array([m for m, _ in pts], dtype=float)
            ys = np.array([math.log(s) for _, s in pts])
            slope = float(np.polyfit(xs, ys, 1)[0])
        else:
            slope = -math.inf
            collapsed += 1
        slopes.append(slope)
        for m, (sup, sem) in semis.items():
            nk = sup + sem
            bound = c_l1 * l1 + c_sem * theta**m * norm_f
            holds = nk <= bound * (1.0 + 1e-9)
            all_hold = all_hold and holds
            rows.append(
                LasotaYorkeRow(
                    sample=si, m=m, norm_k=nk, seminorm=sem, l1_term=l1, bound=bound, holds=holds
                )
            )
    return LasotaYorkeReport(
        rows=tuple(rows),
        c_l1=c_l1,
        c_sem=c_sem,
        seminorm_slopes=tuple(slopes),
        slope_bound=math.log(theta),
        all_hold=all_hold,
        collapsed=collapsed,
    )


# -- eigenfunctions inside the small disc ------------------------------------------------


@dataclass(frozen=True)
class EventuallyPeriodicPoint:
    """Point encoded as a finite preperiod followed by a repeating cycle."""

    preperiod: tuple
    cycle: tuple

    def symbol(self, i: int) -> object:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.cycle[(i - len(self.preperiod)) % len(self.cycle)]

    def prefix(self, n: int) -> tuple:
        return tuple(self.symbol(i) for i in range(n))

    def shift(self, n: int = 1) -> "EventuallyPeriodicPoint":
        if n <= len(self.preperiod):
            return EventuallyPeriodicPoint(self.preperiod[n:], self.cycle)
        r = (n - len(self.preperiod)) % len(self.cycle)
        return EventuallyPeriodicPoint((), self.cycle[r:] + self.cycle[:r])

    def prepend(self, s) -> "EventuallyPeriodicPoint":
        return EventuallyPeriodicPoint((s,) + self.preperiod, self.cycle)


@dataclass(frozen=True)
class SmallEigReport:
    p: complex
    m: int
    case: str
    cycle: tuple
    witness: tuple
    series_terms: int
    tail_bound: float
    residuals: tuple
    max_residual: float


def _shortest_cycle(ts: TransitionStructure) -> tuple:
    """Lexicographically smallest simple cycle word of minimal length."""
    best = None
    key = ts.alphabet.sort_key
    for s in ts.alphabet.symbols:
        if ts.allows(s, s):
            cand = (s,)
            if best is None or (len(cand), key(cand)) < (len(best), key(best)):
                best = cand
    if best is not None:
        return best
    # BFS shortest return path per start symbol.
    for s in ts.alphabet.symbols:
        paths = {t: (t,) for t in ts.successors[s] if t != s}
        frontier = list(paths)
        while frontier:
            nxt = []
            for u in frontier:
                for v in ts.successors[u]:
                    if v == s:
                        cand = (s,) + paths[u]
                        if best is None or (len(cand), key(cand)) < (len(best), key(best)):
                            best = cand
                    elif v not in paths:
                        paths[v] = paths[u] + (v,)
                        nxt.append(v)
            frontier = nxt
    if best is None:
        raise PreconditionError("no periodic point: structure has no cycle")
    return best


def small_eigenfunction(
    tm: TransferMatrix,
    triplet: RpfTriplet,
    p_value: complex,
    m: int,
    theta: float = DEFAULT_THETA,
    ambient: Optional[TransitionStructure] = None,
    n_points: int = 50,
) -> SmallEigReport:
    """Explicit eigenfunction for an eigenvalue inside the small disc.

    Builds the geometric series f = g sum (p/lam)^n (f_m / g) o shift^n from
    a kernel element f_m pinned to a periodic orbit and a sibling entrance
    (or, for a single-orbit subsystem, an ambient detour word), truncates at
    a geometric tail below ``_SERIES_TOL``, and evaluates the eigen-residual
    pointwise on ``n_points`` eventually periodic sample points.
    """
    ts = tm.governing
    phi = tm.potential
    lam = triplet.lam
    if not 0 < abs(p_value) < theta * lam:
        raise PreconditionError(
            f"p with |p| = {abs(p_value):.6g} outside the open disc of radius "
            f"theta*lam = {theta * lam:.6g}"
        )
    cycle = _shortest_cycle(ts)
    ell = len(cycle)
    u1 = cycle[1 % ell]
    sibling = next(
        (j for j in ts.alphabet.symbols if j != cycle[0] and ts.allows(j, u1)), None
    )

    if sibling is not None:
        case = "sibling"
        witness = (sibling,)

        def f_m(pt: EventuallyPeriodicPoint):
            # Nonzero when coordinates 1 .. m*ell-1 follow the orbit and the
            # head is the orbit head (+) or the sibling (-).
            for i in range(1, m * ell):
                if pt.symbol(i) != cycle[i % ell]:
                    return 0.0
            head = pt.symbol(0)
            if head == cycle[0]:
                sign = 1.0
            elif head == sibling:
                sign = -1.0
            else:
                return 0.0
            w = pt.prefix(phi.depth)
            return sign * math.exp(-phi.value(w))

    else:
        if ambient is None:
            raise PreconditionError(
                "no sibling symbol available; single-orbit case needs the ambient structure"
            )
        case = "ambient_detour"
        detour = _find_detour(ts, ambient, cycle)
        s_off, w_word = detour
        witness = w_word
        head = (cycle[s_off],) + w_word + tuple(cycle[i % ell] for i in range(m * ell))

        def f_m(pt: EventuallyPeriodicPoint):
            for i, sym in enumerate(head):
                if pt.symbol(i) != sym:
                    return 0.0
            return 1.0

    g_floor = min(float(v) for v in triplet.g if v > 0.0)
    ratio = abs(p_value) / lam
    sup_fm = math.exp(-min(phi.weights.values())) if case == "sibling" else 1.0
    bound = sup_fm / g_floor
    n_terms = max(8, int(math.ceil(math.log(_SERIES_TOL * (1 - ratio) / max(bound, 1e-300)) / math.log(ratio))))
    tail = bound * ratio ** (n_terms + 1) / (1.0 - ratio)

    def g_at(pt: EventuallyPeriodicPoint) -> float:
        v = triplet.g_value(pt.prefix(tm.depth))
        return v if v > 0.0 else 1.0

    def f_pm(pt: EventuallyPeriodicPoint) -> complex:
        total = 0.0 + 0.0j
        cur = pt
        coeff = 1.0 + 0.0j
        for _ in range(n_terms + 1):
            val = f_m(cur)
            if val != 0.0:
                if case == "sibling":
                    total += coeff * (val / g_at(cur))
                else:
                    total += coeff * val
            cur = cur.shift(1)
            coeff *= p_value / lam
        return triplet.g_value(pt.prefix(tm.depth)) * total

    residuals = []
    for pt in _default_sample_points(ts, cycle, n_points):
        lhs = 0.0 + 0.0j
        for a in ts.alphabet.symbols:
            if not ts.allows(a, pt.symbol(0)):
                continue
            ext = pt.prepend(a)
            lhs += math.exp(phi.value(ext.prefix(phi.depth))) * f_pm(ext)
        residuals.append(abs(lhs - p_value * f_pm(pt)))
    return SmallEigReport(
        p=p_value,
        m=m,
        case=case,
        cycle=cycle,
        witness=witness,
        series_terms=n_terms,
        tail_bound=tail,
        residuals=tuple(residuals),
        max_residual=max(residuals) if residuals else 0.0,
    )


def _find_detour(ts: TransitionStructure, ambient: TransitionStructure, cycle):
    """Ambient word leaving and re-entering the single orbit through holes."""
    ell = len(cycle)
    for s in range(ell):
        for w1 in ambient.alphabet.symbols:
            if not ambient.allows(cycle[s], w1):
                continue
            if ts.allows(cycle[s], w1):
                continue
            for t in range(ell):
                if ambient.allows(w1, cycle[t]):
                    return s, (w1,)
    raise PreconditionError("no ambient detour word found for the single-orbit case")


def _default_sample_points(ts: TransitionStructure, cycle, n_points: int):
    """Deterministic eventually periodic points feeding the residual check."""
    pts = [EventuallyPeriodicPoint((), cycle)]
    for length in range(1, 8):
        for w in admissible_words(ts, length):
            if not ts.is_admissible(w + (cycle[0],)):
                continue
            pts.append(EventuallyPeriodicPoint(w, cycle))
            if len(pts) >= n_points:
                return pts[:n_points]
    return pts[:n_points]
