"""Worked systems: the renewal chain, graph-directed function systems with
the dimension formula, and uniformly locally constant potentials.

The renewal chain couples every state back to 1 and forward by one; its
radius solves a scalar series equation, cross-checked against the matrix
route, and its invariant measure is Markov for an explicit kernel that is
column-stochastic (it is the time reversal of the forward
chain, so its row sums exceed one; both sums are reported).

For a strongly connected system of contractions coded by edges, the
dimension of the limit set is the zero of the pressure of s times the
log-contraction potential; affine maps make that potential exactly locally
constant of depth one, so each pressure evaluation is one spectral radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, PreconditionError
from .potentials import DEFAULT_THETA, Potential, TailModel
from .shifts import TransitionStructure, from_entries, renewal_structure
from .transfer import (
    DEFAULT_MAX_ITER, DEFAULT_TOL, _perron_pair, build_transfer_matrix, rpf_triplet,
)

DEFAULT_S_RANGE = (0.0, 8.0)


# -- renewal chain ---------------------------------------------------------------


@dataclass(frozen=True)
class RenewalSpec:
    """Sequences a_n, b_n > 0 with summable maxima, plus a truncation size."""

    a: Callable[[int], float]
    b: Callable[[int], float]
    truncation: int
    tail: Optional[TailModel] = None

    def __post_init__(self):
        if self.truncation < 3:
            raise PreconditionError("renewal truncation must be at least 3")
        for i in (1, 2, self.truncation):
            if self.a(i) <= 0 or self.b(i) <= 0:
                raise ConfigError("renewal sequences must be positive")


def renewal_potential(spec: RenewalSpec, ts: TransitionStructure) -> Potential:
    """Depth-2 weights: log a at the reset step, log b along the ramp."""
    weights = {}
    for (i, j) in ts.entries:
        if j == 1:
            weights[(i, j)] = math.log(spec.a(i))
        else:
            weights[(i, j)] = math.log(spec.b(i))
    return Potential(depth=2, weights=weights, tail=spec.tail, label="renewal")


@dataclass(frozen=True)
class RenewalReport:
    truncation: int
    lam_matrix: float
    lam_scalar: float
    scalar_residual: float
    truncation_tail_bound: float
    kernel: dict  # (i, j) -> reversal-kernel value
    row_sums: dict
    column_sums: dict
    forward_row_sums: dict  # row sums of the forward kernel of the invariant chain
    cohomology_residual: float
    notes: tuple


def _renewal_series(spec: RenewalSpec) -> tuple:
    """The coefficients (prod_{j<i} b_j) a_i of the renewal series for
    i = 1 .. N, each product taken left to right, and prod_{j<=N} b_j."""
    coeffs, prod_b = [], 1.0
    for i in range(1, spec.truncation + 1):
        coeffs.append(prod_b * spec.a(i))
        prod_b *= spec.b(i)
    return coeffs, prod_b


def _renewal_equation(coeffs: list, lam: float) -> float:
    """sum over i of coeffs[i - 1] lam^{-i} (``_renewal_series``), added in order."""
    total = 0.0
    for i, c in enumerate(coeffs, 1):
        total += c / lam**i
    return total


def _bisect(f, lo: float, hi: float, tol: float, max_iter: int = 64) -> tuple:
    """Bracket of the root of a decreasing f with f(lo) >= 0 >= f(hi), halved
    until its width is at most ``tol`` or ``max_iter`` halvings are done."""
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return lo, hi


def renewal_analysis(spec: RenewalSpec, tol: float = DEFAULT_TOL) -> RenewalReport:
    """Radius, kernel and cohomology residual of the truncated renewal chain.

    The scalar route solves the renewal series equation for the value one;
    the matrix route is the positive eigendata of the depth-1 reduction.
    The reversal kernel sends i to 1 with the cumulated ramp weight over the
    radius power and to i+1 with weight one; the log kernel differs from the
    potential by the pressure and a coboundary of the log eigenfunction, and
    the largest violation of that identity over the admissible pairs is the
    cohomology residual.
    """
    ts = renewal_structure(spec.truncation)
    phi = renewal_potential(spec, ts)
    cert_total = sum(
        max(spec.a(i), spec.b(i)) for i in range(1, spec.truncation + 1)
    )
    if spec.tail is not None and not math.isfinite(spec.tail.sum_beyond(spec.truncation)):
        raise PreconditionError("renewal spec is not summable")
    tm = build_transfer_matrix(ts, phi, depth=1)
    trip = rpf_triplet(tm, tol=tol)
    lam_m = trip.lam

    # The series is strictly decreasing in lam: bracket the root from the
    # matrix radius, bisect to relative width 1e-15 and keep the end with the
    # smaller residual (an exact zero at lam_m is a bracket of width 0).
    coeffs, prod_b = _renewal_series(spec)

    def excess(x):
        return _renewal_equation(coeffs, x) - 1.0

    lo, hi = lam_m, lam_m
    while excess(lo) < 0.0:
        lo *= 0.5
    while excess(hi) > 0.0:
        hi *= 2.0
    lam_s = min(_bisect(excess, lo, hi, 1e-15 * lam_m), key=lambda x: abs(excess(x)))

    # Two-sided truncation control: the series tail at the computed radius.
    if spec.tail is not None:
        tail_terms = spec.tail.sum_beyond(spec.truncation)
    else:
        tail_terms = prod_b * spec.a(spec.truncation) / lam_s ** (spec.truncation + 1)
    tail_bound = max(tail_terms, 1e-16)

    h = trip.h
    idx = tm.word_index
    kernel = {}
    for i, c in enumerate(coeffs, 1):
        kernel[(i, 1)] = c / lam_m**i
        if i + 1 <= spec.truncation:
            kernel[(i, i + 1)] = 1.0
    row_sums = _pair_sums(kernel, 0, spec.truncation)
    col_sums = _pair_sums(kernel, 1, spec.truncation)

    # Forward kernel of the invariant chain (row-stochastic by construction).
    nu = trip.nu
    fwd = {}
    for (i, j) in ts.entries:
        wi, wj = idx[(i,)], idx[(j,)]
        if nu[wi] > 0:
            fwd[(i, j)] = math.exp(phi.value((i, j))) * nu[wj] / (lam_m * nu[wi])
    fwd_rows = _pair_sums(fwd, 0, spec.truncation)

    # Deep in the chain the kernel and h underflow; pairs with a value below
    # the smallest normal float have no usable logarithm and are left out.
    resid, tiny = 0.0, np.finfo(float).tiny
    left_out = 0
    for (i, j), pij in kernel.items():
        hi_, hj_ = h[idx[(i,)]], h[idx[(j,)]]
        if min(pij, hi_, hj_) < tiny:
            left_out += 1
            continue
        rhs = phi.value((i, j)) - math.log(lam_m) + math.log(hi_) - math.log(hj_)
        resid = max(resid, abs(math.log(pij) - rhs))

    notes = (
        "reversal kernel is column-stochastic: it is the time reversal of the "
        "forward chain, so row sums equal 1 + kernel(i, 1) rather than 1",
        "the invariant measure is Markov for the forward kernel with the "
        "conformal-mass normalization",
        f"summable maxima partial sum {cert_total:.6g}",
    )
    if left_out:
        notes += (f"cohomology residual over {len(kernel) - left_out} of {len(kernel)} pairs: "
                  f"{left_out} with a value below the smallest normal float left out",)
    return RenewalReport(
        truncation=spec.truncation,
        lam_matrix=lam_m,
        lam_scalar=lam_s,
        scalar_residual=abs(_renewal_equation(coeffs, lam_s) - 1.0),
        truncation_tail_bound=tail_bound,
        kernel=kernel,
        row_sums=row_sums,
        column_sums=col_sums,
        forward_row_sums=fwd_rows,
        cohomology_residual=resid,
        notes=notes,
    )


def _pair_sums(table: dict, axis: int, n: int) -> dict:
    """Sum of ``table``'s values per coordinate ``axis`` of their pair keys,
    for the symbols 1 .. n: one pass in insertion order, from the int 0."""
    out = dict.fromkeys(range(1, n + 1), 0)
    for key, v in table.items():
        out[key[axis]] += v
    return out


# -- graph-directed function systems ------------------------------------------------


@dataclass(frozen=True)
class GifsEdge:
    label: object
    source: object
    target: object
    ratio: float  # contraction ratio of the affine map on the edge

    def __post_init__(self):
        if not 0.0 < self.ratio:
            raise ConfigError(f"edge {self.label!r} has nonpositive ratio")


@dataclass(frozen=True)
class GifsSpec:
    """Strongly connected multigraph of contractions with affine ratios."""

    vertices: tuple
    edges: tuple  # of GifsEdge
    s_range: tuple = DEFAULT_S_RANGE

    @property
    def ratio_bound(self) -> float:
        return max(e.ratio for e in self.edges)


@dataclass(frozen=True)
class GifsSystem:
    spec: GifsSpec
    structure: TransitionStructure
    log_ratios: dict  # edge label -> log ratio

    def potential(self, s: float) -> Potential:
        return Potential(
            depth=1,
            weights={(lab,): s * lr for lab, lr in self.log_ratios.items()},
            label=f"s={s}",
        )


def gifs_build(spec: GifsSpec) -> GifsSystem:
    """Edge-shift structure and the exact depth-1 potential of an affine system.

    Checks strong connectivity of the vertex graph and the uniform
    contraction bound; edge e may follow edge e' when e' ends where e starts.
    """
    if spec.ratio_bound >= 1.0:
        raise PreconditionError(
            f"contraction bound violated: max ratio {spec.ratio_bound} is not below one"
        )
    vset = set(spec.vertices)
    for e in spec.edges:
        if e.source not in vset or e.target not in vset:
            raise ConfigError(f"edge {e.label!r} touches undeclared vertices")
    # Strong connectivity of the vertex graph.
    vstruct = from_entries(spec.vertices, ((e.source, e.target) for e in spec.edges))
    if not vstruct.irreducible:
        raise PreconditionError("graph is not strongly connected")
    labels = tuple(e.label for e in spec.edges)
    by_label = {e.label: e for e in spec.edges}
    entries = ((e.label, f.label) for e in spec.edges for f in spec.edges if e.target == f.source)
    structure = from_entries(labels, entries, name="edge-shift")
    return GifsSystem(
        spec=spec,
        structure=structure,
        log_ratios={lab: math.log(by_label[lab].ratio) for lab in labels},
    )


@dataclass(frozen=True)
class DimensionReport:
    bracket: tuple  # (s_lo, s_hi) with pressure positive at s_lo, negative at s_hi
    root: float
    root_pressure: float
    pressure_samples: tuple  # (s, pressure) pairs, strictly decreasing in s
    boundary: bool = False


def _gifs_pressure(system: GifsSystem, s: float, tol: float = 1e-13) -> float:
    tm = build_transfer_matrix(system.structure, system.potential(s), depth=1)
    return math.log(rpf_triplet(tm, tol=tol).lam)


def bowen_dimension(spec: GifsSpec, tol: float = 1e-8, max_iter: int = 64) -> DimensionReport:
    """Dimension of the limit set as the root of the pressure in s.

    The pressure is strictly decreasing (the log ratios are negative), so
    bisection on a sign-certified bracket suffices; every evaluation is one
    spectral radius of the weighted edge matrix.
    """
    system = gifs_build(spec)
    s_lo, s_hi = spec.s_range
    p_lo = _gifs_pressure(system, s_lo)
    if p_lo <= 0.0:
        if abs(p_lo) <= 1e-12:
            samples = tuple((s, _gifs_pressure(system, s)) for s in (s_lo, s_lo + 0.5, s_lo + 1.0))
            return DimensionReport(
                bracket=(s_lo, s_lo),
                root=s_lo,
                root_pressure=p_lo,
                pressure_samples=samples,
                boundary=True,
            )
        raise PreconditionError(
            f"no sign change: pressure at the lower end {s_lo} is already negative"
        )
    p_hi = _gifs_pressure(system, s_hi)
    grow = 0
    while p_hi > 0.0 and grow < 60:
        s_hi *= 2.0
        p_hi = _gifs_pressure(system, s_hi)
        grow += 1
    if p_hi > 0.0:
        raise PreconditionError("no sign change found in the dimension search range")
    lo, hi = _bisect(lambda s: _gifs_pressure(system, s), s_lo, s_hi, tol / 4, max_iter)
    root = 0.5 * (lo + hi)
    samples = []
    for s in np.linspace(s_lo, s_hi, 7):
        samples.append((float(s), _gifs_pressure(system, float(s))))
    return DimensionReport(
        bracket=(lo, hi),
        root=root,
        root_pressure=_gifs_pressure(system, root),
        pressure_samples=tuple(samples),
    )


# -- locally constant potentials ------------------------------------------------------


@dataclass(frozen=True)
class LocallyConstantReport:
    g_depth: int
    refinement_deviation: float
    g_locally_constant: bool
    essential_radii: dict  # theta -> theta * exp(pressure), quoted not computed
    lam: float


def locally_constant_analysis(
    ts: TransitionStructure,
    phi: Potential,
    thetas: Sequence[float] = (DEFAULT_THETA,),
    k: Optional[int] = None,
    tol: float = DEFAULT_TOL,
) -> LocallyConstantReport:
    """Eigenfunction depth certification for a locally constant potential.

    The eigenfunction of a depth-(k+1) potential is exactly depth-k locally
    constant: computing it at one extra refinement level and lifting must
    reproduce it to float exactness.  The essential radius values reported
    per theta are the quoted theta times the radius, outside what finite
    reductions can certify.
    """
    if not phi.locally_constant:
        raise PreconditionError("analysis needs a locally constant potential")
    k_eff = k if k is not None else max(phi.depth - 1, 1)
    if phi.depth > k_eff + 1:
        raise PreconditionError(
            f"potential depth {phi.depth} exceeds the claimed local constancy k+1 = {k_eff + 1}"
        )
    tm_k = build_transfer_matrix(ts, phi, depth=k_eff)
    trip_k = rpf_triplet(tm_k, tol=tol)
    tm_fine = build_transfer_matrix(ts, phi, depth=k_eff + 1)
    # The fine pair's own loops: rpf_triplet would lift the coarse pair,
    # whose deviation from it is 0 by construction.
    trip_fine = _perron_pair(tm_fine.matrix, tm_fine.cesaro_period, tol, DEFAULT_MAX_ITER,
                             tm_fine.irreducible, tm_fine)
    dev = 0.0
    for w, i in tm_fine.word_index.items():
        coarse = trip_k.g[tm_k.word_index[w[:k_eff]]]
        dev = max(dev, abs(float(trip_fine.g[i]) - float(coarse)))
    lam = trip_k.lam
    return LocallyConstantReport(
        g_depth=k_eff,
        refinement_deviation=dev,
        g_locally_constant=dev <= 1e-9,
        essential_radii={th: th * lam for th in thetas},
        lam=lam,
    )
