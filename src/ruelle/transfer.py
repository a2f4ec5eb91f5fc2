"""The weighted transfer operator, its exact finite reduction, pressures, and
the positive eigendata (radius, eigenfunction, conformal measure).

For a depth-d locally constant potential the operator maps depth-m locally
constant functions to depth-m locally constant functions whenever
m >= d - 1, so its action is an exact sparse matrix on the admissible
depth-m words.  Matrix entry (target v, source w) is nonzero when w drops to
v by one shift (w = a v_0 ... v_{m-2}) and the new transition a -> v_0 is
allowed by the governing table; the entry value is exp of the potential on
the source cylinder.

Two word indices arise: the subsystem's own words, and the ambient system's
words with only the prepended transition restricted to the subsystem.  The
latter realizes the open-system operator acting on functions of the closed
system, which the escape-rate identity needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .errors import ConvergenceError, PreconditionError
from .potentials import Potential, summability_certificate
from .shifts import TransitionStructure, _extend_ranks, _ranges, _word_ranks, scc_quotient

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000


@dataclass(frozen=True)
class TransferMatrix:
    """Exact reduction of the transfer operator on depth-m words.

    ``ranks`` holds the index words as alphabet ranks of the index
    structure, one int32 row per word in lexicographic order; ``words`` is
    their tuple view, built on first use.
    """

    depth: int
    ranks: np.ndarray
    matrix: sp.csr_matrix  # [target, source]
    governing: TransitionStructure
    index_structure: TransitionStructure
    potential: Potential

    @cached_property
    def words(self) -> tuple:
        return tuple(self.index_structure.alphabet.words_of(self.ranks))

    @cached_property
    def word_index(self) -> dict:
        return {w: i for i, w in enumerate(self.words)}

    @property
    def dim(self) -> int:
        return len(self.ranks)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def apply(self, f: np.ndarray) -> np.ndarray:
        return self.matrix @ f

    def apply_left(self, nu: np.ndarray) -> np.ndarray:
        return self.matrix.T @ nu

    @cached_property
    def irreducible(self) -> bool:
        """Whether the matrix is irreducible: a closed operator on an
        irreducible structure, whose depth-m word graph is then the
        higher-block presentation of an irreducible shift (every word is
        viable), with no weight that underflowed to an explicit 0."""
        closed = self.governing is self.index_structure and self.governing.irreducible
        return closed and bool(self.matrix.data.all())

    @cached_property
    def periods(self) -> tuple:
        """Periods of the governing structure's cyclic components."""
        ps = tuple(c.period for c in self.governing.quotient.components if c.has_periodic_point)
        return ps if ps else (1,)

    @property
    def cesaro_period(self) -> int:
        p = 1
        for q in self.periods:
            p = math.lcm(p, q)
        return p


def build_transfer_matrix(
    ts: TransitionStructure,
    phi: Potential,
    depth: Optional[int] = None,
    index_structure: Optional[TransitionStructure] = None,
) -> TransferMatrix:
    """Assemble the depth-m reduction.

    ``ts`` governs the prepended transition; ``index_structure`` (default
    ``ts``) supplies the word index.  Requires m >= depth(potential) - 1 so
    that source-cylinder values are exact.
    """
    if not phi.locally_constant:
        raise PreconditionError("matrix reduction needs a locally constant potential")
    ind = index_structure if index_structure is not None else ts
    m = depth if depth is not None else max(phi.depth - 1, 1)
    if m < max(phi.depth - 1, 1):
        raise PreconditionError(
            f"matrix depth {m} too small for potential depth {phi.depth}"
        )
    ranks = _word_ranks(ind, m)
    ranks = ranks[ind.viable_ranks[ranks[:, -1]]]
    n = len(ranks)
    # Source w and successor c give the entry (w[1:] + (c,), w) when the
    # target's cylinder is nonempty and the governing table allows w[0] -> w[1].
    ext, src = _extend_ranks(ind, ranks, 1)
    keep = ind.viable_ranks[ext[:, -1]] & _allows(ts, ind, ext[:, 0], ext[:, 1])
    ext, src = ext[keep], src[keep]
    tgt = np.searchsorted(_lex_keys(ranks), _lex_keys(ext[:, 1:]))
    # Rows of ext are in lexicographic order, so equal d-prefixes are adjacent.
    pre = ext[:, : phi.depth]
    fresh = np.ones(len(pre), dtype=bool)
    fresh[1:] = (pre[1:] != pre[:-1]).any(axis=1)
    table = [math.exp(phi.value(w)) for w in ind.alphabet.words_of(pre[fresh])]
    vals = np.array(table, dtype=float)[np.cumsum(fresh) - 1]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    mat = sp.csc_matrix((vals, tgt, indptr), shape=(n, n)).tocsr()
    return TransferMatrix(
        depth=m,
        ranks=ranks,
        matrix=mat,
        governing=ts,
        index_structure=ind,
        potential=phi,
    )


def _lex_keys(rows: np.ndarray) -> np.ndarray:
    """Rank rows as big-endian byte strings, ordered like the rows themselves."""
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return rows.view(np.dtype((np.void, 4 * rows.shape[1]))).ravel()


def _key_rows(keys: np.ndarray, width: int) -> np.ndarray:
    """Inverse of ``_lex_keys``: the rank rows of the keys."""
    return keys.view(">i4").reshape(len(keys), width).astype(np.int32)


def _allows(ts: TransitionStructure, ind: TransitionStructure, a: np.ndarray, b: np.ndarray):
    """Whether ``ts`` allows each pair of ``ind``-ranks (a, b)."""
    rank = ind.alphabet.rank
    k = len(rank)
    if ts.alphabet == ind.alphabet:
        codes = ts.pair_codes
    else:
        codes = np.sort(np.array(
            [rank[i] * k + rank[j] for (i, j) in ts.entries if i in rank and j in rank],
            dtype=np.int64,
        ))
    # The sentinel k * k exceeds every pair code, so each query lands on an entry.
    table = np.append(codes, k * k)
    query = a.astype(np.int64) * k + b
    return table[np.searchsorted(table, query)] == query


def apply_operator(tm: TransferMatrix, f: np.ndarray, n: int = 1) -> np.ndarray:
    """n-fold application of the reduction to a word vector."""
    f = np.asarray(f, dtype=float)
    if f.shape != (tm.dim,):
        raise PreconditionError(f"vector of shape {f.shape} does not match index {tm.dim}")
    for _ in range(n):
        f = tm.apply(f)
    return f


# -- spectral radius and the RPF triplet ---------------------------------------


@dataclass(frozen=True)
class RpfTriplet:
    """Radius, eigenfunction and conformal cylinder masses of the reduction.

    ``g`` is sup-normalized; ``nu`` sums to one over the index words.
    ``h = g / nu(g)`` gives the invariant density so that mu = h nu has total
    mass one.  ``tm`` is None for the pair of a component's diagonal block
    (``spectral._component_pairs``), which has no word index of its own.
    """

    tm: Optional[TransferMatrix]
    lam: float
    g: np.ndarray
    nu: np.ndarray
    residual_g: float
    residual_nu: float
    iterations: int
    converged: bool
    period_used: int

    @cached_property
    def nu_g(self) -> float:
        return float(self.nu @ self.g)

    @cached_property
    def h(self) -> np.ndarray:
        return self.g / self.nu_g

    def g_value(self, word) -> float:
        """Eigenfunction value on the cylinder of ``word`` (depth-m constant)."""
        key = tuple(word[: self.tm.depth])
        return float(self.g[self.tm.word_index[key]])

    def nu_mass(self, word) -> float:
        """Conformal measure of the cylinder of ``word`` at any depth."""
        return float(_cylinder_masses(self.tm, np.ones(self.tm.dim), self.nu, self.lam, [word])[0])

    def mu_mass(self, word) -> float:
        """Invariant measure h nu of the cylinder of ``word``."""
        return float(_cylinder_masses(self.tm, self.h, self.nu, self.lam, [word])[0])


def _cylinder_masses(tm: TransferMatrix, h, nu, lam: float, cylinders) -> np.ndarray:
    """Masses of the cylinders under the measure h nu on the index words.

    Up to length m a cylinder sums h nu over the rows it prefixes, one run
    of the lexicographic rows, and one bincount adds each run left to right.
    A deeper cylinder is h at its first m symbols times nu at its last m,
    extended by phi - log lam in log space.  The empty cylinder has mass 1,
    one that meets no index word mass 0."""
    rank, m, phi = tm.index_structure.alphabet.rank, tm.depth, tm.potential

    def rows_of(rows, words):
        """Position of each word among the distinct sorted ``rows``, or -1."""
        keys = _lex_keys(rows)
        query = _lex_keys(np.array([[rank.get(s, -1) for s in w] for w in words], dtype=np.int32))
        pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return np.where(keys[pos] == query, pos, -1)

    cylinders = [tuple(w) for w in cylinders]
    out = np.array([0.0 if w else 1.0 for w in cylinders])
    for k in {len(w) for w in cylinders} - {0}:
        cs = [c for c, w in enumerate(cylinders) if len(w) == k]
        words = [cylinders[c] for c in cs]
        if k <= m:
            pre = tm.ranks[:, :k]
            fresh = np.r_[True, (pre[1:] != pre[:-1]).any(axis=1)]
            sums = np.bincount(np.cumsum(fresh) - 1, weights=h * nu)
            row = rows_of(pre[fresh], words)
            out[cs] = np.where(row >= 0, sums[row], 0.0)
        else:
            heads = rows_of(tm.ranks, [w[:m] for w in words])
            tails = rows_of(tm.ranks, [w[-m:] for w in words])
            for c, w, i, j in zip(cs, words, heads, tails):
                if tm.index_structure.has_nonempty_cylinder(w) and nu[j] > 0.0:
                    steps = (phi.value(w[s : s + phi.depth]) - math.log(lam) for s in range(k - m))
                    out[c] = h[i] * math.exp(sum(steps) + math.log(nu[j]))
    return out


def _perron_vector(
    mat, p: int, tol: float, max_iter: int = DEFAULT_MAX_ITER, irreducible: bool = False
):
    """Positive eigenvector of a nonnegative matrix of period p.

    Each step replaces u by the sup-normalized Cesaro average
    sum_{i=1..p} (mat/lam)^i u, lam = (|mat^p u|_1 / |u|_1)^(1/p), which
    cancels the peripheral rotation.  The loop stops once the componentwise
    relative change on the entries above the smallest normal float bounds
    the remaining error by ``tol`` (``_settled``), so a vector spanning
    hundreds of decades converges entry by entry.  Entries off the support
    of a reducible matrix's eigenvector decay to zero, not always
    monotonically; once below ``tol`` in this step and the one before (so
    the other entries' change already reflects their smallness) and below
    their value two steps back, they are left out of that test if they can
    be that zero set.  With
    ``irreducible`` (the caller knows the matrix is irreducible: its nonzero
    entries form an irreducible graph, so the eigenvector is positive and has
    no such set) that test is skipped.
    Each matvec calls scipy's ``csr_matvec`` (the kernel of ``mat @ x``, so
    the same sums) into a zeroed buffer; a step allocates no new vector.
    Returns (lam, vector, matvecs, converged); ``max_iter`` caps the matvecs.
    """
    # The kernel writes into ``out`` only when every array has its dtype.
    mat = mat.tocsr().astype(np.float64, copy=False)
    n = mat.shape[0]
    csr = (n, n, mat.indptr, mat.indices, mat.data)
    tiny = np.finfo(float).tiny
    # u, older and new rotate through three buffers; so do rel and rel_prev.
    u, older, new = np.ones(n), np.ones(n), np.empty(n)
    rel, rel_prev = np.empty(n), np.full(n, np.inf)
    big, diff, live = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    block = [u] + [np.empty(n) for _ in range(p)]
    change_prev = math.inf
    lam = 0.0
    it = 0
    while it < max_iter:
        block[0] = u
        for i in range(p):
            block[i + 1].fill(0.0)
            _csr_matvec(*csr, block[i], block[i + 1])
        it += p
        norm_p = float(block[-1].sum())
        if norm_p == 0.0:
            return 0.0, np.zeros(n), it, True
        lam = (norm_p / float(u.sum())) ** (1.0 / p)
        np.divide(block[1], lam, out=new)
        for i in range(2, p + 1):
            new += np.divide(block[i], lam**i, out=big)
        new /= float(new.max())
        np.maximum(new, u, out=big)
        np.abs(np.subtract(new, u, out=diff), out=diff)
        rel.fill(0.0)
        np.divide(diff, big, out=rel, where=np.greater_equal(big, tiny, out=live))
        change = float(rel.max(initial=0.0))
        if _settled(change, change_prev, tol):
            return lam, new, it, True
        if not irreducible:
            fading = (new < older) & (big <= tol)
            kept = ~fading
            if (
                fading.any()
                and _settled(
                    float(rel[kept].max(initial=0.0)), float(rel_prev[kept].max(initial=0.0)), tol
                )
                and _off_support(mat, fading, new >= tiny)
            ):
                return lam, new, it, True
        u, older, new = new, u, older
        rel, rel_prev, change_prev = rel_prev, rel, change
    return lam, u, it, False


def _settled(change: float, prev: float, tol: float) -> bool:
    """Whether two steps' largest componentwise changes bound the error by ``tol``.

    The error is change * rho / (1 - rho), rho the ratio of the successive
    largest changes; a change <= tol that no longer shrinks is at rounding.
    """
    rho = change / prev if change < prev else 1.0
    return change <= tol and (rho >= 1.0 or change * rho <= tol * (1.0 - rho))


def _off_support(mat, fading: np.ndarray, live: np.ndarray) -> bool:
    """Whether ``fading`` can be the zero set of a positive eigenvector.

    No fading entry may have a successor among the other live entries, and
    each of those needs one among them (a support carries a cycle).
    """
    keep = live & ~fading
    reach = mat @ keep
    return not reach[fading].any() and bool(reach[keep].all())


def _perron_pair(mat, p: int, tol: float, max_iter: int, irreducible: bool, tm=None,
                 what: str = "") -> RpfTriplet:
    """Right and left Perron vectors of the nonnegative sparse ``mat`` of period p.

    One ``_perron_vector`` loop on ``mat`` and one on its transpose; nu is
    normalized to sum one and the radius is the Rayleigh quotient
    nu(mat g) / nu(g).  The pair converged when both loops stopped and both
    relative residuals are at most ten times ``tol``; otherwise
    ConvergenceError, its message led by ``what``, carries the partial
    triplet.  A zero radius (no periodic point) is a precondition error.
    """
    if max_iter < 1:
        raise PreconditionError(f"max_iter = {max_iter} allows no matvec; it must be positive")
    lam_r, g, it_g, ok_g = _perron_vector(mat, p, tol, max_iter, irreducible)
    if lam_r <= 0.0:
        raise PreconditionError(
            "zero spectral radius: the governing structure has no periodic point"
        )
    _, nu, it_nu, ok_l = _perron_vector(mat.T, p, tol, max_iter, irreducible)
    nu = nu / float(nu.sum())
    lg = mat @ g
    lam = float(nu @ lg) / float(nu @ g)
    res_g = float(np.abs(lg - lam * g).max()) / lam
    res_nu = float(np.abs(mat.T @ nu - lam * nu).sum()) / lam
    converged = ok_g and ok_l and res_g <= 10 * tol and res_nu <= 10 * tol
    trip = RpfTriplet(
        tm=tm,
        lam=lam,
        g=g,
        nu=nu,
        residual_g=res_g,
        residual_nu=res_nu,
        iterations=it_g + it_nu,
        converged=converged,
        period_used=p,
    )
    if not converged:
        loops = (("eigenfunction", ok_g), ("eigenvector", ok_l))
        capped = " and ".join(f"the {name} loop" for name, ok in loops if not ok)
        stop = f"both loops stopped but a residual exceeds 10*tol = {10 * tol:.1e}"
        if capped:
            stop = f"{capped} hit the cap of {max_iter} matvecs"
        raise ConvergenceError(
            f"{what}power iteration did not reach tol={tol}: {stop} "
            f"(residuals {res_g:.3e}, {res_nu:.3e}); partial triplet attached",
            partial=trip,
        )
    return trip


def rpf_triplet(
    tm: TransferMatrix,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> RpfTriplet:
    """Positive radius with right eigenfunction and left cylinder masses.

    Both vectors come from the period-averaged power iteration of
    ``_perron_vector`` (the peripheral rotation of a period-p structure
    defeats plain iteration), run by ``_perron_pair``; the radius is the
    Rayleigh quotient of the pair.  A zero radius (no periodic point in the
    governing table) is a precondition error; a run that misses ``tol``
    raises ConvergenceError carrying the partial triplet.
    """
    if tm.dim == 0:
        raise PreconditionError(
            "zero spectral radius: the index carries no nonempty cylinders"
        )
    return _perron_pair(tm.matrix, tm.cesaro_period, tol, max_iter, tm.irreducible, tm)


def spectral_radius_sup_route(
    ts: TransitionStructure,
    phi: Potential,
    n_max: int,
    depth: Optional[int] = None,
    index_structure: Optional[TransitionStructure] = None,
) -> list:
    """The sequence of n-th roots of the sup of the iterated operator at one.

    Its limit is the spectral radius; computed in log space with running
    normalization.  ``index_structure`` lets a subsystem operator act on the
    ambient system's functions (the sequence then dies out when the subsystem
    has no periodic point).
    """
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
        sup_log = log_scale + math.log(float(u.max()))
        out.append(math.exp(sup_log / n))
    return out


# -- topological pressure -------------------------------------------------------


@dataclass(frozen=True)
class PressureReport:
    """Cylinder-sum pressure bounds next to the spectral value.

    ``upper[n]`` is the n-th normalized log sup-sum, a rigorous upper bound
    for every n by subadditivity.  ``lower[n]`` comes from return-word sums
    pinned at a fixed word, rigorous lower bounds by supermultiplicativity.
    The bracket is their best pair; the spectral route is the log of the
    matrix radius, with any truncation tail folded into its upper end.
    """

    ns: tuple
    upper: tuple
    lower: tuple
    sup_route: tuple
    inf_route: tuple
    bracket: tuple  # (lo, hi) in log space
    spectral: Optional[float]
    spectral_bracket: Optional[tuple]
    theta_note: str = ""

    @property
    def value(self) -> float:
        if self.spectral is not None:
            return self.spectral
        return 0.5 * (self.bracket[0] + self.bracket[1])


def _continuation_bounds(tm: TransferMatrix) -> tuple:
    """(log-sup, log-inf) of the remaining m Birkhoff terms past a word.

    For index word v these bound the sum of the potential over windows whose
    start lies in v but whose support runs d-1 symbols beyond; the extremes
    are over extendable continuations.  Each sum adds the window values left
    to right from 0.0, as the tuple definition does.
    """
    ts = tm.index_structure
    phi = tm.potential
    m, d = tm.depth, phi.depth
    # Continuations past v depend only on its last d - 1 symbols (at least
    # one): extend each distinct suffix once and keep the viable ends.
    width = max(d - 1, 1)
    keys, of_word = np.unique(_lex_keys(tm.ranks[:, m - width :]), return_inverse=True)
    ctx, of_ctx = _extend_ranks(ts, _key_rows(keys, width), d - 1)
    live = ts.viable_ranks[ctx[:, -1]]
    ctx, count = ctx[live], np.bincount(of_ctx[live], minlength=len(keys))
    first = np.cumsum(count) - count
    parent, row = _ranges(first[of_word], count[of_word])
    # Windows j <= m - d lie inside v; the d - 1 later ones run into ctx.
    wins = [tm.ranks[:, j : j + d] for j in range(m - d + 1)]
    wins += [ctx[:, j : j + d] for j in range(d - 1)]
    uniq, inv = np.unique(_lex_keys(np.concatenate(wins)), return_inverse=True)
    table = [phi.value(w) for w in ts.alphabet.words_of(_key_rows(uniq, d))]
    vals = np.split(np.array(table, dtype=float)[inv], np.cumsum([len(w) for w in wins]))
    inner = np.zeros(tm.dim)
    for j in range(m - d + 1):
        inner += vals[j]
    total = inner[parent]
    for j in range(m - d + 1, m):
        total += vals[j][row]
    sup = np.full(tm.dim, -np.inf)
    inf = np.full(tm.dim, np.inf)
    np.maximum.at(sup, parent, total)
    np.minimum.at(inf, parent, total)
    return sup, inf


def topological_pressure(
    ts: TransitionStructure,
    phi: Potential,
    n_max: int = 40,
    depth: Optional[int] = None,
    tol: float = DEFAULT_TOL,
) -> PressureReport:
    """Pressure of the potential on the shift with two-sided certification.

    Requires a summability certificate (finite alphabets always pass; a
    divergent tail model refuses).  The locally constant case also reports
    the spectral value from the matrix reduction, which the bracket always
    contains.
    """
    cert = summability_certificate(phi, ts)
    if not cert.summable:
        raise PreconditionError("potential is not summable; pressure undefined")
    tm = build_transfer_matrix(ts, phi, depth=depth)
    if tm.dim == 0:
        raise PreconditionError("pressure undefined: the index carries no nonempty cylinders")
    m = tm.depth
    if n_max < m:
        raise PreconditionError(f"n_max = {n_max} is below the matrix depth {m}")
    rsup, rinf = _continuation_bounds(tm)

    # Upper route: normalized log sums of per-word sups; subadditive in n.
    uppers = {}
    infs = {}
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
        a_n = log_scale + _logsumexp(logs_sup)
        b_n = log_scale + _logsumexp(logs_inf)
        uppers[n] = a_n / n
        infs[n] = b_n / n

    # Lower route: return sums pinned at one cycle word per cyclic component.
    lowers = {n: -math.inf for n in uppers}
    dag = scc_quotient(tm.governing)
    rank = tm.index_structure.alphabet.rank
    pins = []
    for comp in dag.components:
        if not comp.has_periodic_point:
            continue
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
    upper_seq = tuple(uppers[n] for n in ns)
    lower_seq = tuple(lowers[n] for n in ns)
    hi = min(upper_seq)
    lo = max(lower_seq) if lower_seq else -math.inf

    spectral = None
    spectral_bracket = None
    try:
        trip = rpf_triplet(tm, tol=tol)
        spectral = math.log(trip.lam)
        if ts.alphabet.truncation is not None and phi.tail is not None:
            tail = phi.tail.sum_beyond(ts.alphabet.truncation)
            spectral_bracket = (spectral, math.log(trip.lam + tail))
        else:
            spectral_bracket = (spectral, spectral)
    except PreconditionError:
        pass

    return PressureReport(
        ns=ns,
        upper=upper_seq,
        lower=lower_seq,
        sup_route=upper_seq,
        inf_route=tuple(infs[n] for n in ns),
        bracket=(lo, hi),
        spectral=spectral,
        spectral_bracket=spectral_bracket,
        theta_note=(
            "depth-m reduction is exact for locally constant data; general "
            "functions carry an extra error of order [f]_k theta^m"
        ),
    )


def _logsumexp(v: np.ndarray) -> float:
    m = float(np.max(v))
    if not math.isfinite(m):
        return -math.inf
    return m + math.log(float(np.exp(v - m).sum()))
