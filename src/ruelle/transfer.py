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
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec

from .errors import ConvergenceError, NonUniqueDominantError, PreconditionError
from .potentials import (
    DEFAULT_MAX_ITER, DEFAULT_N_MAX, DEFAULT_TOL, Potential, summability_certificate,
)
from .shifts import (
    TransitionStructure, _periods, _ranges, _tarjan_sccs, _walk, _word_trie,
)

# Component pressures within this relative distance of the largest tie it.
TIE_RTOL = 1e-9
# The Perron loop folds its iterate's binary exponents into the matrix once
# an entry falls below this, 62 binades above the least normal float.
FOLD_BELOW = 2.0**-960


@dataclass(frozen=True)
class TransferMatrix:
    """Exact reduction of the transfer operator on depth-m words.

    ``ranks`` holds the index words as alphabet ranks of the index
    structure, one int32 row per word in lexicographic order; ``words`` is
    their tuple view, built on first use.  The index words are the W_m
    words (admissible, length m) whose cylinder is nonempty.  ``starts``
    and ``suf`` are the links of their enumeration, per level
    (``shifts._word_trie``): ``shifts._walk`` descends ``starts`` to find
    any admissible word, and ``_lift`` climbs both from depth b to m.
    ``positions`` holds each index word's position in W_m.
    """

    depth: int
    ranks: np.ndarray
    matrix: sp.csr_matrix  # [target, source]
    governing: TransitionStructure
    index_structure: TransitionStructure
    potential: Potential
    starts: tuple = field(compare=False, repr=False)
    suf: tuple = field(compare=False, repr=False)
    positions: np.ndarray = field(compare=False, repr=False)

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

    @cached_property
    def _edges(self) -> tuple:
        """(first, src, tgt, values): the entries as edges from source q to
        target q', in runs by source row starting at ``first``, valued
        phi(q q'[-1]) off the potential (``_step``).  Ungoverned, every row
        has one: every index word ends in a viable symbol."""
        lt = self.matrix.T.tocsr()
        first, tgt = lt.indptr[:-1], lt.indices
        src = np.repeat(np.arange(self.dim), np.diff(lt.indptr))
        wins = np.column_stack((self.ranks[src], self.ranks[tgt, -1]))[:, : self.potential.depth]
        return first, src, tgt, self.potential.gather(self.index_structure.alphabet, wins)

    def apply(self, f: np.ndarray) -> np.ndarray:
        if len(f) != self.dim:
            raise PreconditionError(
                f"a vector of length {len(f)} does not match the {self.dim} index words"
            )
        return self.matrix @ f

    @cached_property
    def irreducible(self) -> bool:
        """Whether the matrix is irreducible: a closed operator on an
        irreducible structure (its word graph is then irreducible) with no
        weight that underflowed to an explicit 0."""
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
    ``ts``) supplies the word index over the same alphabet.  Requires
    m >= depth(potential) - 1 so that source-cylinder values are exact.
    """
    ind = index_structure if index_structure is not None else ts
    if ind.alphabet != ts.alphabet:
        raise PreconditionError("the governing and index structures must share one alphabet")
    m = depth if depth is not None else max(phi.depth - 1, 1)
    if m < max(phi.depth - 1, 1):
        raise PreconditionError(
            f"matrix depth {m} too small for potential depth {phi.depth}"
        )
    rows, starts, suf = _word_trie(ind, m)
    viable = ind.viable_ranks[rows[:, -1]]
    positions = np.flatnonzero(viable)
    ranks = rows.take(positions, axis=0)
    n = len(ranks)
    # Row v holds the sources a v[:-1] whose new transition a -> v[0] the
    # governing table allows, in row order: a stable sort groups the sources
    # by key, and v reads the group of its own key.  At m = 1 the sources
    # are v[0]'s predecessors, keyed by the successor symbol; above, they
    # are the index words keyed by their suffix link, and v reads the group
    # of its parent in W_{m-1}.
    if m == 1:
        pred, c = np.divmod(ind.pair_codes, len(ind.alphabet))
        ok = _governed(ts, ind, pred, c) & ind.viable_ranks[c]
        src, key, own = (np.cumsum(viable) - 1)[pred[ok]], c[ok], ranks[:, 0]
        size = len(ind.alphabet)
    else:
        ok = _governed(ts, ind, ranks[:, 0], ranks[:, 1])
        src, key = np.flatnonzero(ok), suf[m - 1][positions[ok]]
        size = len(starts[m - 2]) - 1
        own = np.repeat(np.arange(size), np.diff(starts[m - 2]))[positions]
    count = np.bincount(key, minlength=size)
    row, at = _ranges((np.cumsum(count) - count)[own], count[own])
    src = src[np.argsort(key, kind="stable")]
    # The source cylinder is that of the source's d-prefix, valued once per
    # grouped source, or at d = m + 1 that of the whole extended word.
    d = phi.depth
    if d <= m:
        vals, src = phi.gather(ind.alphabet, ranks[:, :d], src, exp=True)[at], src[at]
    else:
        src = src[at]
        vals = phi.gather(ind.alphabet, np.column_stack((ranks[src], ranks[row, -1])), exp=True)
    indptr = np.concatenate(([0], np.cumsum(count[own])))
    mat = sp.csr_matrix((vals, src, indptr), shape=(n, n))
    return TransferMatrix(
        depth=m,
        ranks=ranks,
        matrix=mat,
        governing=ts,
        index_structure=ind,
        potential=phi,
        starts=starts,
        suf=suf,
        positions=positions,
    )


def _allows(ts: TransitionStructure, a: np.ndarray, b: np.ndarray):
    """Whether ``ts`` allows each pair of alphabet ranks (a, b)."""
    k = len(ts.alphabet.rank)
    table = ts.code_table
    query = a.astype(np.int64) * k + b
    return table[np.searchsorted(table, query)] == query


def _governed(ts: TransitionStructure, ind: TransitionStructure, a: np.ndarray, b: np.ndarray):
    """Whether the governing ``ts`` allows each pair (a, b) of the index
    ``ind``: every one when the index is the governing table itself."""
    return np.ones(len(a), dtype=bool) if ts is ind else _allows(ts, a, b)


def _sup(u: np.ndarray) -> float:
    """Sup norm of a nonnegative vector, 0.0 for an empty one."""
    return u.max(initial=0.0)


def _orbit(tm: TransferMatrix, u: np.ndarray, steps: int, norm):
    """The normalized orbit of ``u`` under the operator, lazily.

    Yields (n, log_scale, u_n) for n = 1 .. steps, where u_n is L^n u divided
    by the running scale exp(log_scale): each step applies L, divides by
    ``norm`` of the result and adds its log to the scale.  The orbit ends at
    the first step whose norm is <= 0 (the vector died out).  The pressure
    routes and the survivor masses read it.  Each step calls scipy's
    ``csr_matvec``, the kernel of ``tm.apply``, into a fresh zeroed vector:
    the same sums without the sparse-matrix dispatch.
    """
    n_dim = tm.dim
    csr = (n_dim, n_dim, tm.matrix.indptr, tm.matrix.indices, tm.matrix.data)
    log_scale = 0.0
    for n in range(1, steps + 1):
        lu = np.zeros(n_dim)
        _csr_matvec(*csr, u, lu)
        s = float(norm(lu))
        if s <= 0.0:
            return
        log_scale += math.log(s)
        u = lu / s
        yield n, log_scale, u


# -- spectral radius and the RPF triplet ---------------------------------------


@dataclass(frozen=True)
class RpfTriplet:
    """Radius, eigenfunction and conformal cylinder masses of the reduction.

    ``g`` is sup-normalized; ``nu`` sums to one over the index words.
    ``h = g / nu(g)`` gives the invariant density so that mu = h nu has total
    mass one.  ``blocks`` holds the (rows, radius) of each cyclic block of
    the depth-b reduction the pair was solved on (``_block_pair``), one
    block of every row on the irreducible route.
    """

    tm: TransferMatrix
    lam: float
    g: np.ndarray
    nu: np.ndarray
    residual_g: float
    residual_nu: float
    iterations: int
    converged: bool
    period_used: int
    blocks: tuple

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
    alpha, m, phi = tm.index_structure.alphabet, tm.depth, tm.potential

    def walk(rows):
        return _walk(tm.index_structure, tm.starts, rows)

    def rows_of(at, words):
        """Row of each word among the sorted W_k positions ``at`` (k the
        words' length), or -1."""
        query = walk(np.array([[alpha.rank.get(s, -1) for s in w] for w in words], dtype=np.int32))
        pos = np.minimum(np.searchsorted(at, query), len(at) - 1)
        return np.where((query >= 0) & (at[pos] == query), pos, -1)

    cylinders = [tuple(w) for w in cylinders]
    out = np.array([0.0 if w else 1.0 for w in cylinders])
    for k in {len(w) for w in cylinders} - {0}:
        cs = [c for c, w in enumerate(cylinders) if len(w) == k]
        words = [cylinders[c] for c in cs]
        if k <= m:
            pre = walk(tm.ranks[:, :k])
            fresh = np.diff(pre, prepend=-1) != 0
            sums = np.bincount(np.cumsum(fresh) - 1, weights=h * nu)
            row = rows_of(pre[fresh], words)
            out[cs] = np.where(row >= 0, sums[row], 0.0)
        else:
            heads = rows_of(tm.positions, [w[:m] for w in words])
            tails = rows_of(tm.positions, [w[-m:] for w in words])
            live = [x for x, (w, j) in enumerate(zip(words, tails))
                    if tm.index_structure.has_nonempty_cylinder(w) and nu[j] > 0.0]
            if not live:
                continue
            rows = np.array([[alpha.rank[s] for s in words[x]] for x in live], dtype=np.int32)
            steps = 0.0  # the steps added left to right from 0.0
            for s in range(k - m):
                steps = steps + (phi.gather(alpha, rows[:, s : s + phi.depth]) - math.log(lam))
            for x, step in zip(live, steps.tolist()):
                out[cs[x]] = h[heads[x]] * math.exp(step + math.log(nu[tails[x]]))
    return out


def _perron_vector(mat, p: int, tol: float, max_iter: int = DEFAULT_MAX_ITER):
    """Positive eigenvector of an irreducible nonnegative matrix of period p.

    Each step replaces u by the sup-normalized Cesaro average
    sum_{i=1..p} (mat/lam)^i u, lam = (|mat^p u|_1 / |u|_1)^(1/p), which
    cancels the peripheral rotation.  The loop stops once the componentwise
    relative change on the entries above the smallest normal float bounds
    the remaining error by ``tol`` (``_settled``), so a vector spanning
    hundreds of decades converges entry by entry.  ``_perron_pair`` sends
    only irreducible matrices here, whose eigenvectors are positive.
    The loop runs on the entries scaled by the power of two that puts the
    largest in [1, 2), divided out of the returned radius, so no constant
    shift of the potential underflows or overflows the iterates.  The
    scale stays exact: it scales down only as far as the least entry stays
    normal, and its exponent is clamped at 1023, where a subnormal largest
    entry would overflow it.  Once the least positive iterate entry falls
    below ``FOLD_BELOW``, the loop moves each entry's binary exponent
    (``np.frexp``) into exps and iterates the similarity D^-1 mat D,
    D = diag(2^exps): entries stay normal, the sums giving lam are weighted
    by 2^exps, each step divides by the largest true entry, and an entry
    still counts in the change only when its true value is normal.  Powers
    of two are exact, so the loop iterates the same vector and stops where
    the unfolded loop stops; ``_unfold`` rounds it into the float range once.
    Only a change <= tol can stop the loop, and one counted entry whose
    change exceeds tol forces the largest change above tol.  So each step
    first reads one probe entry, where the last full change peaked, with
    the IEEE operations of the full change; when it counts and exceeds tol,
    the step's full change stays untaken.  ``_change`` takes it only when
    the next step's probe fails and that step's own change is <= tol, the
    one case in which ``_settled`` reads it.  Its arrays are held, and a
    fold binds the iterate and the floor to new arrays instead of writing
    them, so the change taken late is the one the step would have taken:
    every stop, radius and vector is the full loop's bit for bit.
    Each matvec calls scipy's ``csr_matvec`` (the kernel of ``mat @ x``, so
    the same sums) into a zeroed buffer; a step that takes no full change
    allocates no new vector.
    Returns (lam, vector, matvecs, converged); ``max_iter`` caps the matvecs.
    """
    # The kernel writes into ``out`` only when every array has its dtype.
    mat = mat.tocsr().astype(np.float64, copy=False)
    n = mat.shape[0]
    shift = min(1 - math.frexp(_sup(mat.data))[1], 1023)
    if shift < 0:
        least = float(mat.data.min(where=mat.data > 0.0, initial=math.inf))
        shift = min(0, max(shift, -1021 - math.frexp(least)[1]))
    data = np.ldexp(mat.data, shift) if shift else mat.data
    csr = [n, n, mat.indptr, mat.indices, data]
    tiny = float(np.finfo(float).tiny)
    exps, weight, floor = np.zeros(n, dtype=np.int32), None, tiny
    u, new, spare, big = np.ones(n), np.empty(n), np.empty(n), np.empty(n)
    block = [u] + [np.empty(n) for _ in range(p)]
    # change_prev is None while the last step's change is untaken; untaken
    # then holds its arguments, which no later step or fold overwrites.
    change_prev, probe, untaken = math.inf, 0, None
    lam = 0.0
    it = 0
    while it < max_iter:
        block[0] = u
        for i in range(p):
            block[i + 1].fill(0.0)
            _csr_matvec(*csr, block[i], block[i + 1])
        it += p
        if weight is None:
            norm_p, norm_u = float(block[-1].sum()), float(u.sum())
        else:
            norm_p, norm_u = float(block[-1] @ weight), float(u @ weight)
        if norm_p == 0.0:
            return 0.0, np.zeros(n), it, True
        lam = (norm_p / norm_u) ** (1.0 / p)
        np.divide(block[1], lam, out=new)
        for i in range(2, p + 1):
            new += np.divide(block[i], lam**i, out=big)
        if weight is None:
            new /= float(new.max())
        else:
            new /= float(np.multiply(new, weight, out=big).max())
        # A counted probe entry whose change exceeds tol proves the largest
        # change does, so the step cannot stop: its change stays untaken.
        a, b = new.item(probe), u.item(probe)
        top = a if a > b else b
        least = floor if weight is None else floor.item(probe)
        if top >= least > 0.0 and abs(a - b) / top > tol:  # least > 0: no 0 / 0
            change, untaken = None, (new, u, floor)
        else:
            change, probe = _change(new, u, floor)
            if change <= tol:  # _settled reads change_prev only then
                if change_prev is None:
                    change_prev = _change(*untaken)[0]
                if _settled(change, change_prev, tol):
                    return math.ldexp(lam, -shift), _unfold(new, exps), it, True
        # The least positive entry decides: a zero has no exponent to fold.
        if new.min() < FOLD_BELOW and new.min(where=new > 0.0, initial=1.0) < FOLD_BELOW:
            new, e = np.frexp(new)
            exps += e
            rows = np.repeat(np.arange(n), np.diff(mat.indptr))
            scaled = np.ldexp(data, exps[mat.indices] - exps[rows])
            scaled[scaled < tiny] = 0.0
            csr[4] = scaled
            weight, floor = np.ldexp(1.0, exps), np.ldexp(tiny, np.minimum(-exps, 2045))
        spare, u, new = u, new, spare
        change_prev = change
    return math.ldexp(lam, -shift), _unfold(u, exps), it, False


def _change(new: np.ndarray, u: np.ndarray, floor) -> tuple:
    """The largest componentwise relative change |new - u| / max(new, u) over
    the entries with max(new, u) >= floor (0.0 when none), and an entry
    attaining it."""
    big = np.maximum(new, u)
    rel = np.zeros(len(big))
    np.divide(np.abs(new - u), big, out=rel, where=big >= floor)
    i = int(rel.argmax())
    return float(rel[i]), i


def _unfold(u: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """The sup-normalized ldexp(u, exps), each entry rounded into the
    subnormal or zero range at most once; u itself when exps is 0."""
    k = int(np.argmax(np.ldexp(u, exps)))
    return np.ldexp(u / u[k], exps - exps[k])


def _settled(change: float, prev: float, tol: float) -> bool:
    """Whether two steps' largest componentwise changes bound the error by ``tol``.

    The error is change * rho / (1 - rho), rho the ratio of the successive
    largest changes; a change <= tol that no longer shrinks is at rounding.
    """
    rho = change / prev if change < prev else 1.0
    return change <= tol and (rho >= 1.0 or change * rho <= tol * (1.0 - rho))


def _dominant(logs, what: str, blocks=()) -> int:
    """Index of the largest of the log radii ``logs``; another within
    ``TIE_RTOL`` of it raises NonUniqueDominantError with the common radius
    and ``blocks``."""
    best = max(logs)
    tied = [i for i, q in enumerate(logs) if best - q <= TIE_RTOL * max(1.0, abs(best))]
    if len(tied) > 1:
        raise NonUniqueDominantError(
            f"non-unique dominant {what}: radii tie within {TIE_RTOL} on {tied}",
            tied=tied, lam=math.exp(best), blocks=blocks,
        )
    return tied[0]


def _block_pair(mat, tol: float, max_iter: int):
    """(g, nu, matvecs, (right ok, left ok), period, blocks) of a matrix not
    known irreducible, through its Frobenius normal form: ``_tarjan_sccs``
    splits the nonzero pattern (an underflowed explicit 0 is no entry) into
    strongly connected components, numbered by first row.  Each cyclic one
    gets both loops on its diagonal block with its own period (``_periods``
    on the run's DFS depths) and its radius, taken as ``_perron_pair``
    takes it, so it is bitwise the radius of the block as an operator of
    its own; ``blocks`` holds each one's (rows, radius).  ``_extend``
    carries the ``_dominant`` one's pair, whose period is returned."""
    live = sp.csr_matrix(mat, dtype=np.float64, copy=True)
    live.eliminate_zeros()
    n = live.shape[0]
    loops = live.diagonal() != 0.0
    sccs, depth = _tarjan_sccs(range(n), live.indptr.tolist(), live.indices.tolist())
    comps = sorted(sorted(c) for c in sccs)
    blocks = [c for c in comps if len(c) > 1 or loops[c[0]]]
    if not blocks:
        raise PreconditionError(
            "zero spectral radius: the governing structure has no periodic point"
        )
    labels = np.empty(n, dtype=np.int64)
    for c, rows in enumerate(comps):
        labels[rows] = c
    heads = np.repeat(np.arange(n), np.diff(live.indptr))
    period = _periods(heads, live.indices, labels, np.array(depth))
    pairs, its, ok_g, ok_l = [], 0, True, True
    for rows in blocks:
        sub = live[rows][:, rows]
        p = period[int(labels[rows[0]])]
        _, g, it_g, og = _perron_vector(sub, p, tol, max_iter)
        _, nu, it_l, ol = _perron_vector(sub.T, p, tol, max_iter)
        nu = nu / float(nu.sum())
        pairs.append((float(nu @ (sub @ g)) / float(nu @ g), g, nu, p))
        its, ok_g, ok_l = its + it_g + it_l, ok_g and og, ok_l and ol
    found = tuple((np.array(rows), pair[0]) for rows, pair in zip(blocks, pairs))
    dom = _dominant([math.log(lam) for _, lam in found], "block", found)
    rows = np.zeros(n, dtype=bool)
    rows[blocks[dom]] = True
    lam, g, nu, p = pairs[dom]
    g, nu = _extend(live, rows, lam, g, nu, nilpotent=len(blocks) == 1)
    return g / float(g.max()), nu, its, (ok_g, ok_l), p, found


def _extend(mat, rows, lam, h1, nu1, nilpotent: bool) -> tuple:
    """Eigenvectors of the CSR ``mat`` for ``lam`` from the pair (h1, nu1) of
    its block B11 on ``rows``: h2 = (lam - B22)^{-1} B21 h1 and
    nu2 = (lam - B22)^{-T} B12^T nu1 on the other rows, exact when no other
    row both reaches and is reached from ``rows``.  A ``nilpotent`` B22 (no
    cycle outside ``rows``, read off the caller's components) takes the
    sweeps x <- (b + B22 x) / lam, which reach their fixed point within
    dim(B22) steps; any other B22 one sparse LU."""
    idx1, idx2 = np.flatnonzero(rows), np.flatnonzero(~rows)
    h = np.zeros(len(rows), dtype=np.result_type(lam, h1, nu1))
    nu = h.copy()
    h[idx1], nu[idx1] = h1, nu1
    if not len(idx2):
        return h, nu
    b_h, b_nu = mat[idx2][:, idx1] @ h1, mat[idx1][:, idx2].T @ nu1
    B22 = mat[idx2][:, idx2]
    if nilpotent:
        for out, b, op in ((h, b_h, B22), (nu, b_nu, B22.T.tocsr())):
            x = b / lam
            for _ in range(len(idx2)):
                x, last = (b + op @ x) / lam, x
                if np.array_equal(x, last):
                    break
            out[idx2] = x
    else:
        from scipy.sparse.linalg import splu

        lu = splu((lam * sp.identity(len(idx2), dtype=h.dtype, format="csc") - B22).tocsc())
        h[idx2], nu[idx2] = lu.solve(b_h), lu.solve(b_nu, trans="T")
    return h, nu


def _perron_pair(mat, p: int, tol: float, max_iter: int, irreducible: bool,
                 tm: TransferMatrix) -> RpfTriplet:
    """Right and left Perron vectors of the nonnegative sparse ``mat``.

    With ``irreducible`` (the caller knows the nonzero entries form an
    irreducible graph of period p) one ``_perron_vector`` loop on ``mat``
    and one on its transpose, otherwise the block route of ``_block_pair``,
    whose blocks take their own periods; ``period_used`` is the period of
    the loops that gave the pair.  nu is
    normalized to sum one and the radius is the Rayleigh quotient
    nu(mat g) / nu(g).  The pair converged when every loop stopped and both
    relative residuals are at most ten times ``tol``; otherwise
    ConvergenceError carries the partial triplet.  A zero radius (no
    periodic point) is a precondition error, and so is a radius the
    Rayleigh quotient cannot hold as a positive float (it underflowed).
    """
    if max_iter < 1:
        raise PreconditionError(f"max_iter = {max_iter} allows no matvec; it must be positive")
    if irreducible:
        _, g, it_g, ok_g = _perron_vector(mat, p, tol, max_iter)
        _, nu, it_nu, ok_l = _perron_vector(mat.T, p, tol, max_iter)
        its, blocks = it_g + it_nu, None
    else:
        g, nu, its, (ok_g, ok_l), p, blocks = _block_pair(mat, tol, max_iter)
    nu = nu / float(nu.sum())
    lg = mat @ g
    nu_g = float(nu @ g)
    lam = float(nu @ lg) / nu_g if nu_g > 0.0 else 0.0
    if not lam > 0.0:
        raise PreconditionError("the spectral radius underflows the float range")
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
        iterations=its,
        converged=converged,
        period_used=p,
        blocks=blocks or ((np.arange(len(g)), lam),),
    )
    if not converged:
        loops = (("eigenfunction", ok_g), ("eigenvector", ok_l))
        capped = " and ".join(f"the {name} loop" for name, ok in loops if not ok)
        stop = f"both loops stopped but a residual exceeds 10*tol = {10 * tol:.1e}"
        if capped:
            stop = f"{capped} hit the cap of {max_iter} matvecs"
        raise ConvergenceError(
            f"power iteration did not reach tol={tol}: {stop} "
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
    Rayleigh quotient of the pair; an operator not ``tm.irreducible`` takes
    its block route.  Above the potential's least exact depth b the pair is
    solved on the depth-b reduction its potential holds (``_reduction``)
    and lifted exactly (``_lifted``), so the radius, ``iterations`` and
    ``period_used`` are those of depth b and the residuals are taken at
    ``tm``'s depth; at depth b the held pair is returned when the potential
    holds ``tm``'s system.  A zero radius (no periodic point in the
    governing table) and a tie for the largest radius
    (NonUniqueDominantError) are precondition errors; a run that misses
    ``tol`` raises ConvergenceError carrying the partial triplet.
    """
    if tm.dim == 0:
        raise PreconditionError(
            "zero spectral radius: the index carries no nonempty cylinders"
        )
    least = tm.depth == max(tm.potential.depth - 1, 1)
    held = _reduction(tm.governing, tm.potential, tm.index_structure, build=not least)
    if held is None:
        return _perron_pair(tm.matrix, tm.cesaro_period, tol, max_iter, tm.irreducible, tm)
    small, pairs = held
    b = small.depth
    try:
        pair = _solved(small, pairs, tol, max_iter)
    except ConvergenceError as exc:
        if tm.depth == b:
            raise ConvergenceError(str(exc), partial=replace(exc.partial, tm=tm)) from exc
        raise ConvergenceError(
            f"depth-{b} reduction: {exc}", partial=_lifted(tm, small, exc.partial, tol)
        ) from exc
    if tm.depth == b:
        return replace(pair, tm=tm)
    trip = _lifted(tm, small, pair, tol)
    if not trip.converged:
        raise ConvergenceError(
            f"the depth-{b} pair converged but a residual of its lift to depth {tm.depth} "
            f"exceeds 10*tol = {10 * tol:.1e} (residuals {trip.residual_g:.3e}, "
            f"{trip.residual_nu:.3e}); partial triplet attached",
            partial=trip,
        )
    return trip


def _reduction(ts: TransitionStructure, phi: Potential, ind: TransitionStructure,
               build: bool = True) -> Optional[tuple]:
    """(L_b, pairs): the reduction of ``phi`` at its least exact depth
    b = max(d - 1, 1) with governing table ``ts`` and index ``ind``, and its
    converged Perron pairs by (tol, max_iter).

    The potential holds the last one built here, matched by the identity of
    ``ts`` and ``ind``, so every depth and route of one system builds and
    solves it once; another system replaces it.  Without ``build``, None
    when the potential holds another system.
    """
    held = phi._reduction
    if held is None or held[0].governing is not ts or held[0].index_structure is not ind:
        if not build:
            return None
        held = (build_transfer_matrix(ts, phi, max(phi.depth - 1, 1), ind), {})
        object.__setattr__(phi, "_reduction", held)
    return held


def _solved(small: TransferMatrix, pairs: dict, tol: float, max_iter: int) -> RpfTriplet:
    """The Perron pair of the held reduction ``small`` for (tol, max_iter),
    solved on first use and kept in ``pairs`` with read-only vectors; a
    solve that raises keeps nothing."""
    key = (tol, max_iter)
    if key not in pairs:
        pair = _perron_pair(small.matrix, small.cesaro_period, tol, max_iter, small.irreducible,
                            small)
        pair.g.flags.writeable = pair.nu.flags.writeable = False
        pairs[key] = pair
    return pairs[key]


def _minimal(ts: TransitionStructure, phi: Potential, depth: Optional[int] = None) -> TransferMatrix:
    """The held least-depth reduction (``_reduction``) for a route asked for
    ``depth`` (default b), whose exact depth-m quantities are functions of
    it; a depth below b is refused by ``build_transfer_matrix``."""
    if depth is not None and depth < max(phi.depth - 1, 1):
        return build_transfer_matrix(ts, phi, depth)
    return _reduction(ts, phi, ts)[0]


def _lift(tm: TransferMatrix, small: TransferMatrix, g, nu, lam: float) -> tuple:
    """The pair (g, nu) of ``small``, the depth-b reduction of ``tm``, for
    the radius lam, carried to ``tm``'s depth m.

    Both reductions share one governing table, so L_m P = P L_b for the
    prefix gather (P f)(w) = f(w[:b]), and g lifts to g[w[:b]].  The left
    vector's marginal on (m-1)-words is the depth-(m-1) one, so
    nu(w) = lam^-(m-b) prod_{j<m-b} L_b[w[j+1 : j+1+b], w[j : j+b]] nu(w[m-b:]),
    normalized to sum one.  Both are read off the enumeration's links, on
    all of W_l (words off the index carry 0 and feed only words off the
    index): g at a word is g at its b-prefix, and level by level
    nu_{l+1} = nu_l[suf_{l+1}] * step / lam, step = L_b[w[1 : b+1], w[:b]],
    which is exp phi(w[:d]) where the governing table allows w[0] -> w[1]
    and 0 elsewhere.  It depends on w's (b+1)-prefix alone and is read from
    a table over W_{b+1}, so the lift multiplies the window product's
    values in its order and is bitwise equal to it.
    """
    b, m, starts = small.depth, tm.depth, tm.starts
    # The W_{b+1} position of each W_l word's (b+1)-prefix, l = b+1 .. m.
    pre = [np.arange(starts[b - 1][-1])]
    for l in range(b + 1, m):
        pre.append(np.repeat(pre[-1], np.diff(starts[l - 1])))
    # The index words sort by their (b+1)-prefixes: one row per distinct one.
    at = pre[-1][tm.positions]
    fresh = np.flatnonzero(np.diff(at, prepend=-1))
    heads = tm.ranks[fresh, : b + 1]
    ok = _governed(tm.governing, tm.index_structure, heads[:, 0], heads[:, 1])
    step = np.zeros(len(pre[0]))
    step[at[fresh[ok]]] = tm.potential.gather(
        tm.index_structure.alphabet, heads[ok, : tm.potential.depth], exp=True
    )
    g_b, nu_l = np.zeros(len(starts[b - 1]) - 1), np.zeros(len(starts[b - 1]) - 1)
    g_b[small.positions], nu_l[small.positions] = g, nu
    for suf, p in zip(tm.suf[b:m], pre):
        nu_l = nu_l[suf] * step[p] / lam
    out = nu_l[tm.positions]
    return np.repeat(g_b, np.diff(starts[b - 1]))[at], out / float(out.sum())


def _lifted(tm: TransferMatrix, small: TransferMatrix, pair: RpfTriplet, tol: float) -> RpfTriplet:
    """``pair``, solved on ``small``, lifted to ``tm`` (``_lift``) with its
    radius, matvecs and period; the residuals are taken on ``tm``'s matrix,
    and it converged when ``pair`` did and both are at most ten times ``tol``."""
    lam = pair.lam
    g, nu = _lift(tm, small, pair.g, pair.nu, lam)
    res_g = float(np.abs(tm.matrix @ g - lam * g).max()) / lam
    res_nu = float(np.abs(tm.matrix.T @ nu - lam * nu).sum()) / lam
    converged = pair.converged and res_g <= 10 * tol and res_nu <= 10 * tol
    return replace(pair, tm=tm, g=g, nu=nu, residual_g=res_g, residual_nu=res_nu,
                   converged=converged)


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


def _step(edges: tuple, r: np.ndarray, reduce) -> np.ndarray:
    """One semiring step R(q) <- reduce_{q -> q'} (value(q, q') + r(q')).

    ``edges`` = (first, src, tgt, values) lists the terms grouped in runs by
    source row, ``first`` the start of each run; every row has a term.
    ``reduce`` is np.maximum, np.minimum or np.logaddexp; the last is taken
    as top + log sum e^(t - top), whose sum bincount adds left to right
    from 0.0.
    """
    first, src, tgt, values = edges
    t = values + r[tgt]
    if reduce is not np.logaddexp:
        return reduce.reduceat(t, first)
    top = np.maximum.reduceat(t, first)
    return top + np.log(np.bincount(src, weights=np.exp(t - top[src]), minlength=len(first)))


def _continuation_bounds(tm: TransferMatrix) -> tuple:
    """(log-sup, log-inf) over viable continuations of the m window sums.

    For index word v the windows j <= m - d lie inside v, and ``inner`` adds
    them left to right from 0.0.  The d - 1 later ones run into a
    continuation whose last symbol is viable: they are the edge values
    e_1 .. e_{d-1} of a path from v's last b = d - 1 symbols in the
    ungoverned depth-b reduction (the index structure's own transitions,
    never a governed matrix).  The sum is (inner + e_1) + R with
    R = e_2 + (e_3 + ... + (e_{d-1} + 0)), extremized by d - 2 max (min)
    steps from R = 0 (``_step``) and one final step per word over the edges
    of its row.  Rounding is monotone, max_c fl(a + x_c) = fl(a + max_c x_c),
    so for d <= 3 every sum is bitwise the left-to-right one.
    """
    ind, phi = tm.index_structure, tm.potential
    m, d = tm.depth, phi.depth
    inner = np.zeros(tm.dim)
    for j in range(m - d + 1):
        inner += phi.gather(ind.alphabet, tm.ranks[:, j : j + d])
    if d == 1:
        return inner, inner.copy()
    small = _reduction(ind, phi, ind)[0]
    first, _, tgt, values = small._edges
    count = np.diff(first, append=len(tgt))
    # The row of each word's last b symbols, down the suffix links.
    pos = tm.positions
    for suf in reversed(tm.suf[small.depth : m]):
        pos = suf[pos]
    row = np.searchsorted(small.positions, pos)
    word, at = _ranges(first[row], count[row])
    last = (np.cumsum(count[row]) - count[row], word, tgt[at], inner[word] + values[at])
    bounds = []
    for reduce in (np.maximum, np.minimum):
        r = np.zeros(small.dim)
        for _ in range(d - 2):
            r = _step(small._edges, r, reduce)
        bounds.append(_step(last, r, reduce))
    return tuple(bounds)


def _prefix_log_sums(tm: TransferMatrix, m: int, logs: tuple) -> tuple:
    """Each vector R of ``logs`` on ``tm``'s depth-b words carried to depth m.

    The carried R(q) is log sum_w e^{R_m(w)} over the depth-m index words w
    with w[:b] = q, where R_m(w) = sum_{j<m-b} phi(w[j : j+d]) + R(w[m-b:]):
    m - b logsumexp steps (``_step``) over the edges q -> q' of the
    matrix, whose values phi(q q'[-1]) are read off the potential, not as
    the log of a weight that may have underflowed, so no term drops.
    """
    for _ in range(m - tm.depth):
        logs = tuple(_step(tm._edges, r, np.logaddexp) for r in logs)
    return logs


def topological_pressure(
    ts: TransitionStructure,
    phi: Potential,
    n_max: int = DEFAULT_N_MAX,
    depth: Optional[int] = None,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> PressureReport:
    """Pressure of the potential on the shift with two-sided certification.

    Requires a summability certificate (finite alphabets always pass; a
    divergent tail model refuses).  The locally constant case also reports
    the spectral value from the matrix reduction, which the bracket always
    contains, also when blocks tie for the largest radius.  The sequences
    are those of the depth-m reduction, but every orbit and the spectral
    solve run on the reduction at the potential's least exact depth b, of
    which the depth-m ones are exact functions (README, "Numerical
    conventions").
    """
    cert = summability_certificate(phi, ts)
    if not cert.summable:
        raise PreconditionError("potential is not summable; pressure undefined")
    tm = _minimal(ts, phi, depth)
    if tm.dim == 0:
        raise PreconditionError("pressure undefined: the index carries no nonempty cylinders")
    b = tm.depth
    m = b if depth is None else depth
    if n_max < m:
        raise PreconditionError(f"n_max = {n_max} is below the matrix depth {m}")
    rsup, rinf = _prefix_log_sums(tm, m, _continuation_bounds(tm))

    # Upper route: normalized log sums of per-word sups; subadditive in n.
    # L_m^k 1 is the prefix gather of L_b^k 1, so the depth-m sum over the
    # words with prefix q is L_b^k 1 at q times e^{rsup(q)}, rsup carried.
    uppers = {}
    infs = {}
    # n = m reads the ones vector itself, n = m + k its k-th orbit step.
    ones = np.ones(tm.dim)
    for k, log_scale, u in chain([(0, 0.0, ones)], _orbit(tm, ones, n_max - m, np.ndarray.sum)):
        n = m + k
        logs = np.log(u, out=np.full_like(u, -np.inf), where=u > 0)
        uppers[n] = (log_scale + _logsumexp(logs + rsup)) / n
        infs[n] = (log_scale + _logsumexp(logs + rinf)) / n

    # Lower route: return sums pinned at one depth-m cycle word v per cyclic
    # component, its least word: the least symbol, then each time the least
    # successor inside (a cyclic component has no dead end).  For n >= m,
    # (L_m^n)[v, v] = W_v (L_b^(n-m+b))[v[:b], v[m-b:]] with
    # W_v = prod_{j<m-b} L_b[v[j+1 : j+1+b], v[j : j+b]].
    lowers = {n: -math.inf for n in uppers}
    ind = tm.index_structure
    rank = ind.alphabet.rank
    indptr, succ = ind.successor_ranks
    for comp in tm.governing.quotient.components:
        if not comp.has_periodic_point:
            continue
        inside = np.zeros(len(rank), dtype=bool)
        inside[[rank[s] for s in comp.symbols]] = True
        v = [int(np.flatnonzero(inside)[0])]
        while len(v) < m:
            nxt = succ[indptr[v[-1]] : indptr[v[-1] + 1]]
            v.append(int(nxt[inside[nxt]][0]))
        wins = np.array([v[j : j + b] for j in range(m - b + 1)], dtype=np.int32)
        at = np.searchsorted(tm.positions, _walk(ind, tm.starts, wins))
        with np.errstate(divide="ignore"):
            log_w = float(np.log([tm.matrix[at[j + 1], at[j]] for j in range(m - b)]).sum())
        start = np.zeros(tm.dim)
        start[at[-1]] = 1.0
        for s, log_scale, u in _orbit(tm, start, n_max - m + b, np.ndarray.sum):
            n = s + m - b
            if n in lowers and u[at[0]] > 0.0:
                z = log_scale + math.log(float(u[at[0]])) + log_w
                lowers[n] = max(lowers[n], z / n)

    ns = tuple(sorted(uppers))
    upper_seq = tuple(uppers[n] for n in ns)
    lower_seq = tuple(lowers[n] for n in ns)
    hi = min(upper_seq)
    lo = max(lower_seq) if lower_seq else -math.inf

    # The radius is that of every exact depth: solve at depth b.
    spectral = spectral_bracket = None
    try:
        lam = rpf_triplet(tm, tol=tol, max_iter=max_iter).lam
    except NonUniqueDominantError as exc:
        lam = exc.lam  # a tie leaves the radius well defined
    except PreconditionError:
        lam = None
    if lam is not None:
        spectral, tail = math.log(lam), 0.0
        if ts.alphabet.truncation is not None and phi.tail is not None:
            tail = phi.tail.sum_beyond(ts.alphabet.truncation)
        spectral_bracket = (spectral, math.log(lam + tail))

    return PressureReport(
        ns=ns,
        upper=upper_seq,
        lower=lower_seq,
        inf_route=tuple(infs[n] for n in ns),
        bracket=(lo, hi),
        spectral=spectral,
        spectral_bracket=spectral_bracket,
        theta_note="the depth-m reduction is exact for the potential's depth-d weight table",
    )


def _logsumexp(v: np.ndarray) -> float:
    m = float(np.max(v))
    if not math.isfinite(m):
        return -math.inf
    return m + math.log(float(np.exp(v - m).sum()))
