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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConvergenceError, NonUniqueDominantError, PreconditionError
from .potentials import Potential, lex_min_point
from .shifts import PeriodClasses, TransitionStructure, period_classes, scc_quotient
from .transfer import RpfTriplet, TransferMatrix, _perron_vector, build_transfer_matrix, rpf_triplet

DENSE_ORACLE_LIMIT = 200


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
    words: tuple
    peripherals: tuple  # of Peripheral
    remainder: np.ndarray
    remainder_radius: float
    remainder_method: str
    checks: dict
    component_pressures: Optional[tuple] = None
    dominant_component: Optional[int] = None
    support_patterns: Optional[dict] = None

    def projection(self, i: int) -> np.ndarray:
        per = self.peripherals[i]
        return np.outer(per.h, per.nu)

    def reconstruction(self) -> np.ndarray:
        total = self.remainder.astype(complex).copy()
        for i, per in enumerate(self.peripherals):
            total += per.eigenvalue * self.projection(i)
        return total


def _radius_power_estimate(mat: np.ndarray, iters: int = 400, seed: int = 7) -> float:
    """Spectral radius by power iteration with geometric averaging.

    Deflation is assumed done by the caller (the peripheral part already
    subtracted), so plain iteration with a trailing-window growth average is
    stable against rotating phases.  It runs on a copy with the entries
    below the smallest normal float set to zero: subnormal arithmetic is
    many times slower, and entries that small do not reach the estimate.
    """
    n = mat.shape[0]
    if n == 0:
        return 0.0
    mat = np.where(np.abs(mat) < np.finfo(float).tiny, 0.0, mat)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(3):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        logs = []
        for _ in range(iters):
            w = mat @ v
            nw = float(np.linalg.norm(w))
            if nw == 0.0:
                logs = None
                break
            logs.append(math.log(nw))
            v = w / nw
        if logs is None:
            continue
        tail = logs[len(logs) // 2 :]
        best = max(best, math.exp(sum(tail) / len(tail)))
    return best


def spectral_decomposition(
    tm: TransferMatrix,
    classes: Optional[PeriodClasses] = None,
    triplet: Optional[RpfTriplet] = None,
    tol: float = 1e-10,
) -> SpectralDecomposition:
    """Peripheral decomposition of an irreducible reduction.

    The twisted vectors are h_i = sum_j kappa^{-ji} h 1_{class j} and
    nu_i = sum_j kappa^{ji} nu 1_{class j}; the remainder is what is left
    after removing the p rank-one peripheral terms.
    """
    dag = scc_quotient(tm.governing)
    live = [c for c in dag.components if c.has_periodic_point]
    if len(dag.components) != 1 or not live:
        raise PreconditionError(
            "spectral decomposition needs an irreducible structure; "
            "route reducible input through component_decomposition"
        )
    if classes is None:
        classes = period_classes(tm.governing)
    if triplet is None:
        triplet = rpf_triplet(tm)
    lam = triplet.lam
    p = classes.p
    kappa = cmath.exp(2j * math.pi / p)

    class_of = {}
    for j, cls in enumerate(classes.classes):
        for s in cls:
            class_of[s] = j
    word_class = np.array([class_of[w[0]] for w in tm.words])
    masks = [(word_class == j).astype(float) for j in range(p)]

    h = triplet.h
    nu = triplet.nu
    peripherals = []
    for i in range(p):
        hi = np.zeros(tm.dim, dtype=complex)
        nui = np.zeros(tm.dim, dtype=complex)
        for j in range(p):
            hi += kappa ** (-j * i) * (h * masks[j])
            nui += kappa ** (j * i) * (nu * masks[j])
        peripherals.append(Peripheral(eigenvalue=lam * kappa**i, h=hi, nu=nui))

    dense = tm.dense().astype(complex)
    remainder = dense.copy()
    for i, per in enumerate(peripherals):
        remainder -= per.eigenvalue * np.outer(per.h, per.nu)
    if float(np.abs(remainder.imag).max(initial=0.0)) < 1e-9 * max(lam, 1.0):
        remainder = remainder.real.astype(complex)

    checks = _projection_checks(dense, peripherals, remainder, lam)
    radius = _radius_power_estimate(remainder)
    method = "power_deflated"
    if tm.dim <= DENSE_ORACLE_LIMIT:
        radius = max(radius, float(np.abs(np.linalg.eigvals(remainder)).max(initial=0.0)))
        method = "power_deflated+dense"
    return SpectralDecomposition(
        lam=lam,
        p=p,
        kappa=kappa,
        words=tm.words,
        peripherals=tuple(peripherals),
        remainder=remainder,
        remainder_radius=radius,
        remainder_method=method,
        checks=checks,
    )


def _projection_checks(dense, peripherals, remainder, lam) -> dict:
    scale = max(lam, 1.0)
    recon = remainder.astype(complex).copy()
    worst_orth = 0.0
    worst_idem = 0.0
    worst_commute = 0.0
    projs = [np.outer(per.h, per.nu) for per in peripherals]
    for i, per in enumerate(peripherals):
        recon += per.eigenvalue * projs[i]
        worst_idem = max(worst_idem, float(np.abs(projs[i] @ projs[i] - projs[i]).max()))
        worst_commute = max(
            worst_commute,
            float(np.abs(projs[i] @ remainder).max()),
            float(np.abs(remainder @ projs[i]).max()),
        )
        for jj in range(i + 1, len(peripherals)):
            worst_orth = max(worst_orth, float(np.abs(projs[i] @ projs[jj]).max()))
    recon_err = float(np.abs(recon - dense).max())
    return {
        "reconstruction_error": recon_err / scale,
        "projection_orthogonality": worst_orth / scale,
        "projection_idempotence": worst_idem,
        "remainder_commutation": worst_commute / scale,
    }


# -- reducible structures --------------------------------------------------------


def component_pressures(
    ts: TransitionStructure, phi: Potential, depth: Optional[int] = None, tol: float = 1e-12
) -> tuple:
    """Log spectral radius of the restriction to each transitive component."""
    dag = scc_quotient(ts)
    out = []
    for comp in dag.components:
        if not comp.has_periodic_point:
            out.append(-math.inf)
            continue
        sub = ts.induced(comp.symbols)
        sub_weights = {
            w: v for w, v in phi.weights.items() if all(s in comp.symbols for s in w)
        }
        sub_phi = Potential(depth=phi.depth, weights=sub_weights)
        sub_tm = build_transfer_matrix(sub, sub_phi, depth=depth)
        out.append(math.log(rpf_triplet(sub_tm, tol=tol).lam))
    return tuple(out)


def component_decomposition(
    ts: TransitionStructure,
    phi: Potential,
    depth: Optional[int] = None,
    tol: float = 1e-12,
    tie_rtol: float = 1e-9,
) -> SpectralDecomposition:
    """Decomposition for a reducible structure with one dominant component.

    The dominant block's peripheral pair extends across the remaining blocks
    by resolvent solves; the eigenfunction spreads to components reachable
    from the dominant one, the eigenvector to components that reach it.  A
    pressure tie within ``tie_rtol`` is an error carrying the tied set.
    """
    dag = scc_quotient(ts)
    pressures = component_pressures(ts, phi, depth=depth, tol=tol)
    if len(dag.components) == 1 and not dag.isolated:
        tm = build_transfer_matrix(ts, phi, depth=depth)
        dec = spectral_decomposition(tm, tol=max(tol, 1e-10))
        return SpectralDecomposition(
            **{**dec.__dict__, "component_pressures": pressures, "dominant_component": 0}
        )
    best = max(pressures)
    if not math.isfinite(best):
        raise PreconditionError("no component carries a cycle; spectral radius is zero")
    tied = [i for i, q in enumerate(pressures) if best - q <= tie_rtol * max(1.0, abs(best))]
    if len(tied) != 1:
        raise NonUniqueDominantError(
            f"non-unique dominant component: pressures tie within {tie_rtol} on {tied}",
            tied=tied,
        )
    dom = tied[0]
    dom_symbols = set(dag.components[dom].symbols)

    tm = build_transfer_matrix(ts, phi, depth=depth)
    lam = math.exp(best)
    idx1 = [i for i, w in enumerate(tm.words) if w[0] in dom_symbols]
    idx2 = [i for i, w in enumerate(tm.words) if w[0] not in dom_symbols]
    dense = tm.dense()
    B11 = dense[np.ix_(idx1, idx1)]
    B12 = dense[np.ix_(idx1, idx2)]
    B21 = dense[np.ix_(idx2, idx1)]
    B22 = dense[np.ix_(idx2, idx2)]

    classes = period_classes(ts, component=dag.components[dom].symbols)
    p = classes.p
    kappa = cmath.exp(2j * math.pi / p)
    _, g1, _, ok_r = _perron_vector(B11, p, tol)
    _, nu1, _, ok_l = _perron_vector(B11.T, p, tol)
    if not (ok_r and ok_l):
        raise ConvergenceError(f"dominant block eigenvectors did not reach tol={tol}")
    nu1 = nu1 / nu1.sum()
    h1 = g1 / (nu1 @ g1)
    class_of = {}
    for j, cls in enumerate(classes.classes):
        for s in cls:
            class_of[s] = j
    word_class = np.array(
        [class_of.get(tm.words[i][0], -1) for i in idx1]
    )
    masks = [(word_class == j).astype(float) for j in range(p)]

    peripherals = []
    n = tm.dim
    for i in range(p):
        lam_i = lam * kappa**i
        hi1 = np.zeros(len(idx1), dtype=complex)
        nui1 = np.zeros(len(idx1), dtype=complex)
        for j in range(p):
            hi1 += kappa ** (-j * i) * (h1 * masks[j])
            nui1 += kappa ** (j * i) * (nu1 * masks[j])
        A22 = lam_i * np.eye(len(idx2), dtype=complex) - B22
        hi2 = np.linalg.solve(A22, B21.astype(complex) @ hi1) if idx2 else np.zeros(0, complex)
        nui2 = (
            np.linalg.solve(A22.T, (B12.astype(complex)).T @ nui1) if idx2 else np.zeros(0, complex)
        )
        hi = np.zeros(n, dtype=complex)
        nui = np.zeros(n, dtype=complex)
        hi[idx1] = hi1
        hi[idx2] = hi2
        nui[idx1] = nui1
        nui[idx2] = nui2
        norm = nui @ hi
        nui = nui / norm
        peripherals.append(Peripheral(eigenvalue=lam_i, h=hi, nu=nui))

    remainder = dense.astype(complex).copy()
    for per in peripherals:
        remainder -= per.eigenvalue * np.outer(per.h, per.nu)
    checks = _projection_checks(dense.astype(complex), peripherals, remainder, lam)
    radius = _radius_power_estimate(remainder)
    method = "power_deflated"
    if tm.dim <= DENSE_ORACLE_LIMIT:
        radius = max(radius, float(np.abs(np.linalg.eigvals(remainder)).max(initial=0.0)))
        method = "power_deflated+dense"

    support = _support_patterns(tm, dag, dom, peripherals)
    return SpectralDecomposition(
        lam=lam,
        p=p,
        kappa=kappa,
        words=tm.words,
        peripherals=tuple(peripherals),
        remainder=remainder,
        remainder_radius=radius,
        remainder_method=method,
        checks=checks,
        component_pressures=pressures,
        dominant_component=dom,
        support_patterns=support,
    )


def _support_patterns(tm, dag, dom, peripherals) -> dict:
    """Zero/nonzero pattern of h_i and nu_i per transitive component.

    The eigenfunction lives on components reachable from the dominant one and
    the eigenvector on components that reach it (meeting the subshift).
    """
    n_comp = len(dag.components)
    comp_of_word = []
    for w in tm.words:
        comp_of_word.append(dag.component_of(w[0]))
    comp_of_word = np.array([c if c is not None else -1 for c in comp_of_word])
    h0 = peripherals[0].h
    nu0 = peripherals[0].nu
    scale_h = float(np.abs(h0).max(initial=0.0)) or 1.0
    scale_nu = float(np.abs(nu0).max(initial=0.0)) or 1.0
    h_nonzero = []
    nu_nonzero = []
    for c in range(n_comp):
        sel = comp_of_word == c
        h_nonzero.append(bool(np.abs(h0[sel]).max(initial=0.0) > 1e-9 * scale_h))
        nu_nonzero.append(bool(np.abs(nu0[sel]).max(initial=0.0) > 1e-9 * scale_nu))
    return {
        "h_nonzero_by_component": tuple(h_nonzero),
        "nu_nonzero_by_component": tuple(nu_nonzero),
        "expected_h": tuple(dag.precedes(dom, c) for c in range(n_comp)),
        "expected_nu": tuple(dag.precedes(c, dom) for c in range(n_comp)),
    }


# -- cone membership ---------------------------------------------------------------


@dataclass(frozen=True)
class ConeReport:
    member: bool
    c: float
    k: int
    worst_pair: Optional[tuple]  # (word_hi, word_lo, margin)
    worst_margin: float


def cone_membership(
    f: np.ndarray,
    words: Sequence,
    c: float,
    k: int,
    theta: float = 0.5,
) -> ConeReport:
    """Check log-ratio cone membership over word pairs sharing k symbols.

    Nonnegativity plus f(x) <= exp(c d_theta(x, y)) f(y) for all pairs in a
    common k-cylinder; the returned worst pair realizes the largest violation
    (or the tightest satisfied margin).
    """
    f = np.asarray(f, dtype=float)
    if float(f.min(initial=0.0)) < 0.0:
        i = int(np.argmin(f))
        return ConeReport(False, c, k, (words[i], words[i], float(f[i])), math.inf)
    worst = -math.inf
    worst_pair = None
    n = len(words)
    m = len(words[0]) if n else 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            wi, wj = words[i], words[j]
            if wi[:k] != wj[:k]:
                continue
            t = next((a for a in range(k, m) if wi[a] != wj[a]), None)
            dist = theta**t if t is not None else 0.0
            hi, lo = float(f[i]), float(f[j])
            if hi == 0.0:
                continue
            if lo == 0.0:
                return ConeReport(False, c, k, (wi, wj, math.inf), math.inf)
            margin = math.log(hi) - math.log(lo) - c * dist
            if margin > worst:
                worst = margin
                worst_pair = (wi, wj, margin)
    ok = worst <= 1e-12
    return ConeReport(ok, c, k, worst_pair, worst)


def cone_contraction_constant(phi_seminorm_upper: float, theta: float) -> float:
    """Smallest cone constant stable under the operator: [phi]_{k+1} theta/(1-theta)."""
    return phi_seminorm_upper * theta / (1.0 - theta)


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
    ts = triplet.tm.index_structure
    from .shifts import admissible_words

    cmins, cmaxs = [], []
    excluded = []
    overall_min, overall_max = math.inf, 0.0
    for n in depths:
        lo, hi = math.inf, 0.0
        for w in admissible_words(ts, n):
            if not ts.has_nonempty_cylinder(w):
                continue
            mass = triplet.mu_mass(w)
            if mass <= 0.0:
                excluded.append(w)
                continue
            rep = lex_min_point(ts, w, n + phi.depth - 1)
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
    stable = spread_last <= spread_first * (1.0 + 1e-6) or spread_last <= spread_first * 1.05
    return GibbsReport(
        depths=tuple(depths),
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


def _word_seminorm(f: np.ndarray, words, k: int, theta: float) -> float:
    """[f]_k of a depth-m word vector: variations at depths k..m-1."""
    m = len(words[0]) if len(words) else 0
    best = 0.0
    for n in range(k, m):
        groups = {}
        for i, w in enumerate(words):
            groups.setdefault(w[:n], []).append(float(f[i]))
        v = 0.0
        for vals in groups.values():
            if len(vals) > 1:
                v = max(v, max(vals) - min(vals))
        best = max(best, v / theta**n)
    return best


def lasota_yorke_check(
    tm_open: TransferMatrix,
    phi: Potential,
    phi_dominating: Potential,
    triplet_dominating: RpfTriplet,
    samples: Sequence[np.ndarray],
    m_values: Sequence[int],
    k: int = 1,
    theta: float = 0.5,
    noise_floor: float = 1e-12,
) -> LasotaYorkeReport:
    """Two-term contraction inequality for the normalized open operator.

    Verifies the domination of the potential, then tabulates the norm of the
    m-th normalized iterate against fitted constants times the L1 norm plus a
    theta^m seminorm term.  The seminorm decay slope is fit per sample; for
    locally constant data the seminorm collapses to exactly zero once m
    reaches the representation depth, reported as a -inf slope.
    """
    ts = tm_open.index_structure
    sub = tm_open.governing
    d = max(phi.depth, phi_dominating.depth, 2)
    from .shifts import admissible_words

    for w in admissible_words(ts, d):
        if not ts.has_nonempty_cylinder(w):
            continue
        if sub.allows(w[0], w[1]) and phi.value(w) > phi_dominating.value(w) + 1e-12:
            raise PreconditionError(
                f"domination violated at {w!r}: potential exceeds the dominating one"
            )

    lam0 = triplet_dominating.lam
    words = tm_open.words
    mu0 = triplet_dominating.h * triplet_dominating.nu
    m_values = sorted(m_values)
    rows = []
    per_sample_semis = []
    for si, f0 in enumerate(samples):
        f0 = np.asarray(f0, dtype=float)
        scale = max(float(np.abs(f0).max()), 1e-300)
        l1 = float(mu0 @ np.abs(f0))
        norm_f = float(np.abs(f0).max()) + _word_seminorm(f0, words, k, theta)
        semis = {}
        f = f0.copy()
        for m in range(1, max(m_values) + 1):
            f = tm_open.apply(f) / lam0
            if m in m_values:
                sem = _word_seminorm(f, words, k, theta)
                if sem < noise_floor * scale:
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
    theta: float = 0.5,
    ambient: Optional[TransitionStructure] = None,
    sample_points: Optional[Sequence[EventuallyPeriodicPoint]] = None,
    n_points: int = 50,
    series_tol: float = 1e-12,
) -> SmallEigReport:
    """Explicit eigenfunction for an eigenvalue inside the small disc.

    Builds the geometric series f = g sum (p/lam)^n (f_m / g) o shift^n from
    a kernel element f_m pinned to a periodic orbit and a sibling entrance
    (or, for a single-orbit subsystem, an ambient detour word), truncates at
    a geometric tail below ``series_tol``, and evaluates the eigen-residual
    pointwise on eventually periodic sample points.
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
    n_terms = max(8, int(math.ceil(math.log(series_tol * (1 - ratio) / max(bound, 1e-300)) / math.log(ratio))))
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

    if sample_points is None:
        sample_points = _default_sample_points(ts, cycle, n_points)
    residuals = []
    for pt in sample_points:
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
    from .shifts import admissible_words

    pts = [EventuallyPeriodicPoint((), cycle)]
    for length in range(1, 8):
        for w in admissible_words(ts, length):
            if not ts.is_admissible(w + (cycle[0],)):
                continue
            pts.append(EventuallyPeriodicPoint(w, cycle))
            if len(pts) >= n_points:
                return pts[:n_points]
    return pts[:n_points]
