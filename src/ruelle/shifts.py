"""Alphabets, transition structures and their combinatorics.

A topological Markov shift is described here by a finite (or truncated
countable) alphabet together with a sparse 0/1 transition table.  This module
provides word enumeration, the transitive-component quotient with its
reachability semi-order, period computation and the classification flags
(irreducible, primitive and their finitary variants) that the spectral
machinery relies on.

Symbols are opaque hashable identifiers; their total order is the enumeration
order of the alphabet, and all word orderings are lexicographic with respect
to it.  Every value in this module is immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigError, EnumerationCapExceeded, PreconditionError

DEFAULT_WORD_CAP = 20_000_000

FINITE = "finite"
KNOWN_FAMILIES = (FINITE, "full", "renewal", "banded")


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol set, either finite or a truncation of a countable one.

    ``family`` names the structural family for truncated-countable alphabets
    ("full", "renewal", "banded"); plain finite alphabets use
    "finite".  For truncated families the enumeration is monotone, so the
    truncation of size N is an initial segment of the truncation of size N+1.
    """

    symbols: tuple
    family: str = FINITE
    truncation: Optional[int] = None

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ConfigError("alphabet symbols must be distinct")
        if self.family not in KNOWN_FAMILIES:
            raise ConfigError(f"unknown alphabet family {self.family!r}")
        if self.family != FINITE and self.truncation is None:
            raise ConfigError("truncated-countable alphabet requires a truncation size")

    @cached_property
    def rank(self) -> dict:
        return {s: i for i, s in enumerate(self.symbols)}

    def __len__(self):
        return len(self.symbols)

    def __contains__(self, s):
        return s in self.rank

    def sort_key(self, word):
        return tuple(self.rank[s] for s in word)

    def words_of(self, ranks) -> list:
        """The symbol tuples of an integer array of rank rows."""
        return [tuple(self.symbols[r] for r in row) for row in ranks.tolist()]


@dataclass(frozen=True, eq=False, init=False)
class TransitionStructure:
    """Sparse 0/1 transition table over an alphabet.

    ``entries`` holds the ordered pairs (i, j) with value 1 and
    ``pair_codes`` the same pairs as sorted int64 codes rank(i) * k + rank(j),
    k = |alphabet|, from which every other piece of the structure's
    combinatorics is read.  The constructor checks a pair set; the family
    constructors compile their codes in numpy (``_compiled``), and their
    ``entries`` are built on first use.  When ``parent`` is set, this
    structure is a subsystem of the parent (entries contained in the
    parent's entries).
    """

    alphabet: Alphabet
    pair_codes: np.ndarray = field(repr=False)
    parent: Optional["TransitionStructure"] = None
    name: str = ""

    def __init__(self, alphabet: Alphabet, entries: frozenset, parent=None, name: str = ""):
        rank, k = alphabet.rank, len(alphabet)
        for (i, j) in entries:
            if i not in rank or j not in rank:
                raise ConfigError(f"transition ({i!r}, {j!r}) uses undeclared symbols")
        if parent is not None and not entries <= parent.entries:
            extra = sorted(entries - parent.entries)
            raise ConfigError(f"subsystem entries not contained in parent: {extra}")
        codes = np.sort(np.array([rank[i] * k + rank[j] for (i, j) in entries], dtype=np.int64))
        self.__dict__.update(alphabet=alphabet, pair_codes=codes, parent=parent, name=name,
                             entries=entries)

    @classmethod
    def _compiled(cls, alphabet: Alphabet, codes: np.ndarray, name: str) -> "TransitionStructure":
        """The structure of the sorted pair codes ``codes``, unchecked."""
        ts = cls.__new__(cls)
        ts.__dict__.update(alphabet=alphabet, pair_codes=codes, parent=None, name=name)
        return ts

    def __eq__(self, other):
        if not isinstance(other, TransitionStructure):
            return NotImplemented
        same = (self.alphabet, self.parent, self.name) == (other.alphabet, other.parent, other.name)
        return same and np.array_equal(self.pair_codes, other.pair_codes)

    def __hash__(self):
        return hash((self.alphabet, self.pair_codes.tobytes(), self.parent, self.name))

    # -- basic accessors ---------------------------------------------------

    def allows(self, i, j) -> bool:
        return (i, j) in self.entries

    @cached_property
    def entries(self) -> frozenset:
        syms, k = self.alphabet.symbols, len(self.alphabet)
        heads, tails = (self.pair_codes // k).tolist(), (self.pair_codes % k).tolist()
        return frozenset(zip(map(syms.__getitem__, heads), map(syms.__getitem__, tails)))

    @cached_property
    def code_table(self) -> np.ndarray:
        """``pair_codes`` followed by the sentinel k * k, which exceeds every
        pair code, so each ``searchsorted`` query lands on an entry."""
        return np.append(self.pair_codes, len(self.alphabet) ** 2)

    @cached_property
    def successor_ranks(self) -> tuple:
        """The successor table over alphabet ranks as CSR: (indptr, ranks)."""
        k = len(self.alphabet)
        codes = self.pair_codes
        indptr = np.concatenate(([0], np.cumsum(np.bincount(codes // k, minlength=k))))
        return indptr, (codes % k).astype(np.int32)

    @cached_property
    def successors(self) -> dict:
        return _neighbours(self.alphabet.symbols, self.pair_codes)

    @cached_property
    def predecessors(self) -> dict:
        k = len(self.alphabet)
        codes = self.pair_codes
        return _neighbours(self.alphabet.symbols, np.sort(codes % k * k + codes // k))

    @cached_property
    def quotient(self) -> "QuotientDag":
        """The transitive-component quotient (see ``scc_quotient``)."""
        return _quotient(self)

    @cached_property
    def irreducible(self) -> bool:
        """One transitive component covers every symbol and carries a cycle."""
        dag = self.quotient
        return (
            len(dag.components) == 1 and not dag.isolated and dag.components[0].has_periodic_point
        )

    @cached_property
    def viable_ranks(self) -> np.ndarray:
        """Boolean mask over alphabet ranks of the symbols that reach a cycle.

        Those are the symbols of the components whose reach mask meets a
        cyclic component."""
        dag = self.quotient
        cyclic = sum(1 << c for c, info in enumerate(dag.components) if info.has_periodic_point)
        # The trailing False serves the isolated symbols' label -1.
        live = np.array([bool(mask & cyclic) for mask in dag.reach] + [False])
        return live[dag.labels]

    @cached_property
    def viable_symbols(self) -> frozenset:
        """Symbols admitting an infinite forward path (they reach a cycle).

        A word's cylinder in the shift space is nonempty exactly when the word
        is admissible and ends in a viable symbol.
        """
        return frozenset(s for s, v in zip(self.alphabet.symbols, self.viable_ranks.tolist()) if v)

    def is_admissible(self, word) -> bool:
        return all(self.allows(a, b) for a, b in zip(word, word[1:])) and all(
            s in self.alphabet for s in word
        )

    def has_nonempty_cylinder(self, word) -> bool:
        return bool(word) and self.is_admissible(word) and word[-1] in self.viable_symbols

    def restrict(self, hole_pairs: Iterable, name: str = "") -> "TransitionStructure":
        """Subsystem obtained by deleting the given entries (this as parent)."""
        holes = frozenset(tuple(p) for p in hole_pairs)
        missing = holes - self.entries
        if missing:
            raise ConfigError(f"hole pairs not present in the structure: {sorted(missing)}")
        return TransitionStructure(self.alphabet, self.entries - holes, parent=self, name=name)


def _neighbours(symbols, codes: np.ndarray) -> dict:
    """Symbol -> tuple of neighbour symbols from sorted pair codes a * k + b."""
    k = len(symbols)
    heads, tails = (codes // k).tolist(), (codes % k).tolist()
    out = {s: [] for s in symbols}
    for a, b in zip(heads, tails):
        out[symbols[a]].append(symbols[b])
    return {s: tuple(v) for s, v in out.items()}


@dataclass(frozen=True)
class HoleSpec:
    """Closed structure, its subsystem, and the 2-cylinder hole between them."""

    closed: TransitionStructure
    open_: TransitionStructure

    def __post_init__(self):
        if not self.open_.entries <= self.closed.entries:
            raise PreconditionError("open system transitions must refine the closed ones")
        if self.open_.alphabet != self.closed.alphabet:
            raise PreconditionError("the open and closed systems must share one alphabet")

    @property
    def hole_pairs(self) -> frozenset:
        return self.closed.entries - self.open_.entries

    @staticmethod
    def from_hole(closed: TransitionStructure, hole_pairs) -> "HoleSpec":
        return HoleSpec(closed=closed, open_=closed.restrict(hole_pairs))


# -- constructors -----------------------------------------------------------


def full_shift(symbols) -> TransitionStructure:
    syms = tuple(symbols)
    codes = np.arange(len(syms) ** 2, dtype=np.int64)
    return TransitionStructure._compiled(Alphabet(syms), codes, "full")


def from_entries(symbols, pairs, name="") -> TransitionStructure:
    entries = frozenset(tuple(p) for p in pairs)
    return TransitionStructure(Alphabet(tuple(symbols)), entries, name=name)


def renewal_structure(truncation: int) -> TransitionStructure:
    """Truncation of the renewal shift: i -> 1 always, i -> i+1 when present."""
    if truncation < 2:
        raise ConfigError("renewal truncation must be at least 2")
    syms = tuple(range(1, truncation + 1))
    # Symbol i has rank i - 1: the reset is code (i - 1) * N, the ramp that plus i.
    heads = np.arange(truncation, dtype=np.int64) * truncation
    codes = np.sort(np.concatenate((heads, heads[:-1] + np.arange(1, truncation))))
    return TransitionStructure._compiled(
        Alphabet(syms, family="renewal", truncation=truncation), codes, "renewal"
    )


def banded_structure(truncation: int, width: int) -> TransitionStructure:
    syms = tuple(range(1, truncation + 1))
    r = np.arange(truncation)
    first = np.maximum(r - width, 0)
    heads, tails = _ranges(first, np.maximum(np.minimum(r + width, truncation - 1) - first + 1, 0))
    return TransitionStructure._compiled(
        Alphabet(syms, family="banded", truncation=truncation), heads * truncation + tails, "banded"
    )


def full_truncated(truncation: int) -> TransitionStructure:
    syms = tuple(range(1, truncation + 1))
    codes = np.arange(truncation**2, dtype=np.int64)
    return TransitionStructure._compiled(
        Alphabet(syms, family="full", truncation=truncation), codes, "full"
    )


# -- word enumeration --------------------------------------------------------


def count_admissible_words(ts: TransitionStructure, n: int) -> int:
    """Size of W_n without enumerating it.

    The count of words per end symbol is carried n - 1 steps along the
    successor table, in int64 while the total times the largest out-degree
    stays below 2**63 (no partial sum can overflow) and in Python ints past
    that, so the count is exact at any size.
    """
    if n < 1:
        raise PreconditionError("word length must be positive")
    indptr, succ = ts.successor_ranks
    degree = np.diff(indptr)
    heads = np.repeat(np.arange(len(degree)), degree)
    counts = np.ones(len(degree), dtype=np.int64)
    total, fan = len(degree), int(degree.max(initial=0))
    for _ in range(n - 1):
        if total * fan >= 2**63:
            counts = counts.astype(object)
        nxt = np.zeros(len(degree), dtype=counts.dtype)
        np.add.at(nxt, succ, counts[heads])
        counts = nxt
        total = int(counts.sum())
    return total


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple:
    """The runs first[i], ..., first[i] + count[i] - 1 concatenated, with their i."""
    src = np.repeat(np.arange(len(count)), count)
    return src, np.arange(len(src)) + np.repeat(first - (np.cumsum(count) - count), count)


def _word_trie(ts: TransitionStructure, n: int, cap: int = DEFAULT_WORD_CAP) -> tuple:
    """W_n, the admissible words of length ``n``, with the links of their enumeration.

    Returns (rows, starts, suf).  ``rows`` holds W_n as int32 alphabet ranks,
    one row per word in lexicographic order.  ``starts[j - 1]`` (j <= n) is
    the CSR pointer from W_j into W_{j+1}: the extensions of the q-th word of
    W_j are the words starts[j - 1][q] .. starts[j - 1][q + 1] - 1 of W_{j+1},
    so ``_walk`` finds words up to length n + 1.  ``suf[j - 1]`` (j <= n) is
    the suffix link of level j: the position of w[1:] in W_{j-1} for each
    W_j word w (0, the empty word, at j = 1).
    Refuses with :class:`EnumerationCapExceeded` before allocating when
    ``|W_n| > cap``.
    """
    if n < 1:
        raise PreconditionError("word length must be positive")
    total = count_admissible_words(ts, n)
    if total > cap:
        raise EnumerationCapExceeded(
            f"enumeration too large: |W_{n}| = {total} exceeds cap {cap}"
        )
    indptr, succ = ts.successor_ranks
    degree = np.diff(indptr)
    # Level by level, each word's last symbol and the position of its parent.
    last, parent = [np.arange(len(ts.alphabet), dtype=np.int32)], []
    starts, suf = [], [np.zeros(len(last[0]), dtype=np.int64)]
    for _ in range(n - 1):
        first, count = indptr[last[-1]], degree[last[-1]]
        src, pos = _ranges(first, count)
        # The suffix of p.c is the suffix of p extended by c, which sits at
        # c's offset among the successors of p's last symbol; that of a.c is c.
        suf.append(starts[-1][suf[-1][src]] + (pos - first[src]) if starts
                   else succ[pos].astype(np.int64))
        starts.append(np.concatenate(([0], np.cumsum(count))))
        parent.append(src)
        last.append(succ[pos])
    starts.append(np.concatenate(([0], np.cumsum(degree[last[-1]]))))
    # Column j of a word is the last symbol of its (j + 1)-prefix.
    rows = np.empty((len(last[-1]), n), dtype=np.int32)
    at = np.arange(len(last[-1]))
    for j in range(n - 1, -1, -1):
        rows[:, j] = last[j][at]
        if j:
            at = parent[j - 1][at]
    return rows, tuple(starts), tuple(suf)


def _walk(ts: TransitionStructure, starts, rows: np.ndarray) -> np.ndarray:
    """Position of each rank row among the admissible words of its length.

    Descends the successor CSR one symbol at a time along the enumeration's
    ``starts`` (see ``_word_trie``): the extension of the word at ``idx`` by
    c is starts[idx] plus c's offset among the successors of the last symbol.
    A row with an unknown symbol (rank -1) or a disallowed pair gets -1.
    """
    k = len(ts.alphabet)
    indptr, _ = ts.successor_ranks
    codes = ts.code_table
    idx = rows[:, 0].astype(np.int64)
    ok = idx >= 0
    for j in range(1, rows.shape[1]):
        a, c = rows[:, j - 1], rows[:, j]
        code = a.astype(np.int64) * k + c
        at = np.searchsorted(codes, code)
        ok &= (c >= 0) & (codes[at] == code)
        idx = starts[j - 1][np.where(ok, idx, 0)] + at - indptr[a]
    return np.where(ok, idx, -1)


def admissible_words(ts: TransitionStructure, n: int, cap: int = DEFAULT_WORD_CAP) -> list:
    """All admissible words of length ``n`` in lexicographic order.

    Length-1 words are the alphabet itself (a single symbol is vacuously
    admissible).  Refuses with :class:`EnumerationCapExceeded` when the result
    would exceed ``cap`` entries.
    """
    return ts.alphabet.words_of(_word_trie(ts, n, cap)[0])


def nonempty_cylinder_words(ts: TransitionStructure, n: int) -> list:
    """Admissible words of length ``n`` whose cylinder meets the shift space."""
    viable = ts.viable_symbols
    return [w for w in admissible_words(ts, n) if w[-1] in viable]


# -- transitive components ---------------------------------------------------


@dataclass(frozen=True)
class ComponentInfo:
    symbols: tuple
    irreducible: bool
    has_periodic_point: bool
    period: Optional[int]


@dataclass(frozen=True)
class QuotientDag:
    """Transitive components with the reachability semi-order.

    ``reach[a]`` is an int bitmask of the components that component a
    reaches: bit b is set when a reaches b (reflexive and transitive).
    Symbols with no entries at all are excluded from every component and
    listed in ``isolated``.  Over the alphabet ranks, ``labels`` holds each
    symbol's component (-1 when isolated) and ``distances`` its cyclic class
    offset 0..p-1 inside a cyclic component of period p (-1 off them), the
    class of the component's first symbol being 0.  Both routes of
    ``_quotient`` (the chain certificate and the DFS) give equal fields.
    """

    components: tuple  # of ComponentInfo
    reach: tuple  # of int bitmasks, one per component
    isolated: tuple = ()
    labels: np.ndarray = field(default=None, compare=False, repr=False)
    distances: np.ndarray = field(default=None, compare=False, repr=False)

    def precedes(self, a: int, b: int) -> bool:
        return bool(self.reach[a] >> b & 1)

    def upset(self, i: int) -> tuple:
        """Indices of components reached from component ``i``."""
        mask = self.reach[i]
        return tuple(b for b in range(len(self.components)) if mask >> b & 1)


def _tarjan_sccs(roots, indptr, succ) -> tuple:
    """Strongly connected components of a rank graph given as CSR lists,
    with each vertex's depth in the DFS forest.

    Iterative Tarjan from each root in turn; a component is emitted after
    every component it reaches.  A vertex whose component is emitted gets
    index n, above every live one, so it never lowers a low-link and no
    on-stack flag is needed.  Returns (sccs, depth)."""
    n = len(indptr) - 1
    index = [-1] * n
    low = [0] * n
    cursor = indptr[:-1]
    place = [0] * n  # position on the stack
    depth = [0] * n  # depth in the DFS forest
    stack = []
    sccs = []
    counter = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        place[root] = len(stack)
        stack.append(root)
        work = [root]
        while work:
            v = work[-1]
            lv = low[v]
            for pos in range(cursor[v], indptr[v + 1]):
                w = succ[pos]
                iw = index[w]
                if iw < 0:
                    cursor[v] = pos + 1
                    low[v] = lv
                    index[w] = low[w] = counter
                    counter += 1
                    place[w] = len(stack)
                    depth[w] = len(work)
                    stack.append(w)
                    work.append(w)
                    break
                if iw < lv:
                    lv = iw
            else:
                low[v] = lv
                work.pop()
                if work and lv < low[work[-1]]:
                    low[work[-1]] = lv
                if lv == index[v]:
                    comp = stack[place[v] :]
                    del stack[place[v] :]
                    for w in comp:
                        index[w] = n
                    sccs.append(comp)
    return sccs, depth


def scc_quotient(ts: TransitionStructure) -> QuotientDag:
    """Quotient by mutual reachability, with reachability order and flags.

    Built once per structure and cached on it as ``ts.quotient``.
    """
    return ts.quotient


def _quotient(ts: TransitionStructure) -> QuotientDag:
    """Components, reach masks, periods and class offsets from the pair
    codes: by ``_chain_quotient`` when it certifies the structure, else by
    ``_dfs_quotient``."""
    k = len(ts.alphabet)
    heads, tails = ts.pair_codes // k, ts.pair_codes % k
    dag = _chain_quotient(ts, heads, tails)
    return _dfs_quotient(ts, heads, tails) if dag is None else dag


def _chain_quotient(ts: TransitionStructure, heads: np.ndarray, tails: np.ndarray):
    """The quotient of a structure whose ranks form a chain, or None.

    The certificate takes O(nnz): (i) every rank r < k - 1 has the entry
    r -> r + 1 and rank k - 1 has a successor; (ii) the walk along each
    rank's least successor, absorbed at rank 0, reaches rank 0 from every
    rank (``k.bit_length()`` doublings cover k steps).  Then rank 0 reaches
    every rank along the chain and every rank reaches rank 0, so the
    structure is one transitive component with no isolated symbol.  The
    chain is a spanning tree with depth(r) = r, so the period is the gcd of
    |a + 1 - b| over all entries (a, b), as in ``_periods``, and rank r's
    class offset is r mod p.  None when either condition fails.
    """
    k = len(ts.alphabet)
    indptr, succ = ts.successor_ranks
    # Pair codes are distinct, so each head has at most one entry a -> a + 1.
    if np.count_nonzero(tails == heads + 1) != k - 1 or indptr[k - 1] == indptr[k]:
        return None
    walk = succ[indptr[:-1]].astype(np.intp)  # intp indices gather fastest
    walk[0] = 0
    for _ in range(k.bit_length()):
        walk = walk[walk]
    if walk.any():
        return None
    p = int(np.gcd.reduce(np.abs(heads + 1 - tails)))
    info = ComponentInfo(symbols=ts.alphabet.symbols, irreducible=True, has_periodic_point=True,
                         period=p)
    return QuotientDag(components=(info,), reach=(1,), isolated=(),
                       labels=np.zeros(k, dtype=int), distances=np.arange(k) % p)


def _dfs_quotient(ts: TransitionStructure, heads: np.ndarray, tails: np.ndarray) -> QuotientDag:
    """The quotient by ``_tarjan_sccs``: periods by ``_periods`` from its DFS
    depths, and each cyclic component's class offsets as those depths less
    its first symbol's, modulo its period."""
    k = len(ts.alphabet)
    indptr, succ = ts.successor_ranks
    active = np.zeros(k, dtype=bool)
    active[heads] = active[tails] = True
    sccs, depth = _tarjan_sccs(np.flatnonzero(active).tolist(), indptr.tolist(), succ.tolist())
    comps = sorted((sorted(c) for c in sccs), key=lambda c: c[0])
    labels = np.full(k, -1)
    for c, comp in enumerate(comps):
        labels[comp] = c
    loops = np.zeros(k, dtype=bool)
    loops[heads[heads == tails]] = True
    cyclic = [len(comp) > 1 or bool(loops[comp[0]]) for comp in comps]

    depth = np.array(depth)
    period = _periods(heads, tails, labels, depth)
    dist = np.full(k, -1)
    for c, (comp, cyc) in enumerate(zip(comps, cyclic)):
        if cyc:
            dist[comp] = (depth[comp] - depth[comp[0]]) % period[c]

    syms = ts.alphabet.symbols
    infos = tuple(
        ComponentInfo(
            symbols=tuple(syms[r] for r in comp),
            irreducible=cyc,
            has_periodic_point=cyc,
            period=period[c] if cyc else None,
        )
        for c, (comp, cyc) in enumerate(zip(comps, cyclic))
    )

    # One-step edges between components, then reflexive-transitive closure:
    # Tarjan emits each component after every component it reaches, so one
    # pass in emission order closes the relation.
    m = len(comps)
    steps = [[] for _ in comps]
    cross = labels[heads] != labels[tails]
    cross = np.unique(labels[heads[cross]] * m + labels[tails[cross]]).tolist()
    for c, d in (divmod(code, m) for code in cross):
        steps[c].append(d)
    reach = [0] * m
    for scc in sccs:
        c = int(labels[scc[0]])
        mask = 1 << c
        for d in steps[c]:
            mask |= reach[d]
        reach[c] = mask
    return QuotientDag(
        components=infos,
        reach=tuple(reach),
        isolated=tuple(syms[r] for r in np.flatnonzero(~active).tolist()),
        labels=labels,
        distances=dist,
    )


# -- periods ------------------------------------------------------------------


def _periods(heads: np.ndarray, tails: np.ndarray, labels: np.ndarray, depth: np.ndarray) -> dict:
    """Periods of the cyclic components of a graph, {label: period}.

    The edges (heads[i], tails[i]) are sorted by head; ``labels`` gives each
    vertex's component and ``depth`` its depth in the DFS forest of
    ``_tarjan_sccs``.  Edges inside a component are exactly those of the
    cyclic ones.  The tree paths from a component's first visited vertex
    stay inside it, so depth rises by one along a spanning tree of inner
    edges, and the period is the gcd of depth(a) + 1 - depth(b) over the
    inner edges (a, b).
    """
    inner = labels[heads] == labels[tails]
    a, b = heads[inner], tails[inner]
    # The inner entries grouped by component, one gcd per group.
    order = np.argsort(labels[a], kind="stable")
    owners, starts = np.unique(labels[a][order], return_index=True)
    if not len(order):
        return {}
    gcds = np.abs(np.gcd.reduceat((depth[a] + 1 - depth[b])[order], starts))
    return dict(zip(owners.tolist(), gcds.tolist()))


@dataclass(frozen=True)
class PeriodClasses:
    """Cyclic class decomposition of an irreducible component.

    Every allowed transition moves from class i to class i+1 mod p, and p is
    maximal with this property.
    """

    p: int
    classes: tuple  # tuple of symbol tuples, class 0 contains the base symbol
    base: object = None

    def class_of(self, symbol) -> int:
        for i, cls in enumerate(self.classes):
            if symbol in cls:
                return i
        raise KeyError(symbol)


def period_classes(ts: TransitionStructure, component=None) -> PeriodClasses:
    """Period and cyclic classes of an irreducible component.

    ``component`` is the symbol set of one of ``ts``'s transitive
    components, in any order; by default ``ts`` must be a single transitive
    component.  Any other symbol set is a precondition error, and so is a
    component without a cycle, whose period is undefined ("no periodic
    point").  The classes are the class offsets that the quotient kept.
    """
    dag = ts.quotient
    c = 0 if len(dag.components) == 1 else -1
    if component is not None:
        wanted = set(component)
        r = ts.alphabet.rank.get(next(iter(wanted), None), -1)
        c = int(dag.labels[r]) if r >= 0 else -1
        if c < 0 or set(dag.components[c].symbols) != wanted:
            raise PreconditionError(f"{tuple(component)!r} is not one transitive component")
    if c < 0 or not dag.components[c].has_periodic_point:
        raise PreconditionError("no periodic point: component is not irreducible with a cycle")
    comp = dag.components[c]
    p, dist, members = comp.period, dag.distances, dag.labels == c
    k = len(ts.alphabet)
    a, b = ts.pair_codes // k, ts.pair_codes % k
    inner = members[a] & members[b]
    if ((dist[a[inner]] + 1 - dist[b[inner]]) % p).any():
        raise RuntimeError("period class property violated; period computation is wrong")
    syms = ts.alphabet.symbols
    classes = tuple(
        tuple(syms[r] for r in np.flatnonzero(members & (dist == j)).tolist())
        for j in range(p)
    )
    return PeriodClasses(p=p, classes=classes, base=comp.symbols[0])


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    """Exact flags for finite alphabets; family-derived answers otherwise.

    ``None`` encodes "unknown" for truncated-countable structures whose family
    does not determine the flag.  ``witness`` is a finite word set F such that
    a w b is admissible for every symbol pair (a, b) and some w in F, when one
    is known.
    """

    irreducible: object
    finitely_irreducible: object
    weakly_primitive: object
    primitive: object
    finitely_primitive: object
    has_periodic_point: bool
    witness: Optional[tuple] = None
    notes: tuple = ()


def _verify_witness(ts: TransitionStructure, witness) -> bool:
    """Whether a w b is admissible for every symbol pair (a, b) and some w.

    For a word w admissible inside, a w b is admissible exactly when
    a -> w_0 and w_last -> b, so with E marking each word's (w_0, w_last) the
    pairs served are the support of adj @ E @ adj, in O(k^2) memory whatever
    the number of words.  The empty word serves the allowed pairs themselves.
    """
    rank, n = ts.alphabet.rank, len(ts.alphabet)
    indptr, succ = ts.successor_ranks
    adj = np.zeros((n, n))
    adj[np.repeat(np.arange(n), np.diff(indptr)), succ] = 1.0
    inside = [tuple(w) for w in witness if ts.is_admissible(tuple(w))]
    ends = np.zeros((n, n))
    ends[[rank[w[0]] for w in inside if w], [rank[w[-1]] for w in inside if w]] = 1.0
    served = adj @ ends @ adj + (adj if () in inside else 0.0)
    return bool((served > 0.0).all())


def _irreducibility_witness(ts: TransitionStructure) -> Optional[tuple]:
    """Connecting word set for a finite irreducible structure, by BFS paths."""
    syms = ts.alphabet.symbols
    key = ts.alphabet.sort_key
    words = set()
    for a in syms:
        # First-arrival nonempty path from a to every node (may revisit a).
        paths = {}
        queue = [(t, (t,)) for t in ts.successors[a]]
        for t, pth in queue:
            paths.setdefault(t, pth)
        i = 0
        while i < len(queue):
            u, pth = queue[i]
            i += 1
            if paths[u] != pth:
                continue
            for v in ts.successors[u]:
                if v not in paths:
                    paths[v] = pth + (v,)
                    queue.append((v, pth + (v,)))
        for b in syms:
            cands = [paths[p] for p in ts.predecessors[b] if p in paths]
            if cands:
                words.add(min(cands, key=lambda w: (len(w), key(w))))
    witness = tuple(sorted(words, key=lambda w: (len(w), key(w))))
    return witness if witness and _verify_witness(ts, witness) else None


def classify(ts: TransitionStructure) -> Classification:
    """Irreducibility and primitivity flags.

    On finite alphabets the answers are exact and finite irreducibility
    coincides with irreducibility (likewise for primitivity).  On a truncated
    countable alphabet the flags describe the truncation exactly, while
    ``notes`` records what the declared family implies for the full system.
    """
    dag = scc_quotient(ts)
    has_pp = any(c.has_periodic_point for c in dag.components)
    irreducible = ts.irreducible
    if irreducible:
        aperiodic = dag.components[0].period == 1
    else:
        aperiodic = False
    primitive = irreducible and aperiodic

    witness = None
    notes = []
    if irreducible:
        witness = _irreducibility_witness(ts)
        if witness is None:
            notes.append("no connecting witness found; irreducibility verified by reachability")

    family = ts.alphabet.family
    if family == "renewal":
        notes.append(
            "renewal family: the untruncated matrix is irreducible but not finitely "
            "irreducible (connecting words must climb 1,2,...,b-1, so no finite set works)"
        )
    elif family == "full":
        notes.append("full family: the untruncated matrix is finitely primitive")
    elif family == "banded":
        notes.append("banded family: the untruncated matrix is irreducible with period 1")

    return Classification(
        irreducible=irreducible,
        finitely_irreducible=irreducible,
        weakly_primitive=primitive,
        primitive=primitive,
        finitely_primitive=primitive,
        has_periodic_point=has_pp,
        witness=witness,
        notes=tuple(notes),
    )
