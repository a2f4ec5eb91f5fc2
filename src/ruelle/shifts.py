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


@dataclass(frozen=True)
class TransitionStructure:
    """Sparse 0/1 transition table over an alphabet.

    ``entries`` holds the ordered pairs (i, j) with value 1.  When ``parent``
    is set, this structure is a subsystem of the parent (entries contained in
    the parent's entries); pairs involving symbols outside the alphabet are
    treated as zero.
    """

    alphabet: Alphabet
    entries: frozenset
    parent: Optional["TransitionStructure"] = None
    name: str = ""

    def __post_init__(self):
        for (i, j) in self.entries:
            if i not in self.alphabet or j not in self.alphabet:
                raise ConfigError(f"transition ({i!r}, {j!r}) uses undeclared symbols")
        if self.parent is not None and not self.entries <= self.parent.entries:
            extra = sorted(self.entries - self.parent.entries)
            raise ConfigError(f"subsystem entries not contained in parent: {extra}")

    # -- basic accessors ---------------------------------------------------

    def allows(self, i, j) -> bool:
        return (i, j) in self.entries

    @cached_property
    def pair_codes(self) -> np.ndarray:
        """The entries as sorted int64 codes rank(i) * k + rank(j), k = |alphabet|.

        Every other piece of the structure's combinatorics is read from this
        one table."""
        rank, k = self.alphabet.rank, len(self.alphabet)
        return np.sort(np.array([rank[i] * k + rank[j] for (i, j) in self.entries], dtype=np.int64))

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


# -- constructors -----------------------------------------------------------


def full_shift(symbols) -> TransitionStructure:
    syms = tuple(symbols)
    ent = frozenset((i, j) for i in syms for j in syms)
    return TransitionStructure(Alphabet(syms), ent, name="full")


def from_entries(symbols, pairs, parent=None, name="") -> TransitionStructure:
    return TransitionStructure(
        Alphabet(tuple(symbols)), frozenset(tuple(p) for p in pairs), parent=parent, name=name
    )


def renewal_structure(truncation: int) -> TransitionStructure:
    """Truncation of the renewal shift: i -> 1 always, i -> i+1 when present."""
    if truncation < 2:
        raise ConfigError("renewal truncation must be at least 2")
    syms = tuple(range(1, truncation + 1))
    ent = {(i, 1) for i in syms} | {(i, i + 1) for i in syms if i + 1 <= truncation}
    return TransitionStructure(
        Alphabet(syms, family="renewal", truncation=truncation), frozenset(ent), name="renewal"
    )


def banded_structure(truncation: int, width: int) -> TransitionStructure:
    syms = tuple(range(1, truncation + 1))
    ent = {
        (i, j)
        for i in syms
        for j in range(max(1, i - width), min(truncation, i + width) + 1)
    }
    return TransitionStructure(
        Alphabet(syms, family="banded", truncation=truncation), frozenset(ent), name="banded"
    )


def full_truncated(truncation: int) -> TransitionStructure:
    syms = tuple(range(1, truncation + 1))
    ent = frozenset((i, j) for i in syms for j in syms)
    return TransitionStructure(
        Alphabet(syms, family="full", truncation=truncation), frozenset(ent), name="full"
    )


# -- word enumeration --------------------------------------------------------


def count_admissible_words(ts: TransitionStructure, n: int) -> int:
    """Size of W_n without enumerating it (vector of counts per end symbol)."""
    if n < 1:
        raise PreconditionError("word length must be positive")
    counts = {s: 1 for s in ts.alphabet.symbols}
    for _ in range(n - 1):
        nxt = {s: 0 for s in ts.alphabet.symbols}
        for s, c in counts.items():
            for t in ts.successors[s]:
                nxt[t] += c
        counts = nxt
    return sum(counts.values())


def _extend_ranks(ts: TransitionStructure, rows: np.ndarray, steps: int) -> tuple:
    """Extend rank rows by ``steps`` admissible symbols, in lexicographic order.

    Returns the extended rows and, for each, the index of the row it extends.
    """
    indptr, succ = ts.successor_ranks
    parent = np.arange(len(rows))
    for _ in range(steps):
        first = indptr[rows[:, -1]]
        src, pos = _ranges(first, indptr[rows[:, -1] + 1] - first)
        rows = np.column_stack((rows[src], succ[pos]))
        parent = parent[src]
    return rows, parent


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple:
    """The runs first[i], ..., first[i] + count[i] - 1 concatenated, with their i."""
    src = np.repeat(np.arange(len(count)), count)
    return src, np.arange(len(src)) + np.repeat(first - (np.cumsum(count) - count), count)


def _word_ranks(ts: TransitionStructure, n: int, cap: int = DEFAULT_WORD_CAP) -> np.ndarray:
    """Admissible words of length ``n`` as int32 alphabet ranks, ``(|W_n|, n)``.

    Rows are in lexicographic order.  Refuses with
    :class:`EnumerationCapExceeded` before allocating when ``|W_n| > cap``.
    """
    if n < 1:
        raise PreconditionError("word length must be positive")
    total = count_admissible_words(ts, n)
    if total > cap:
        raise EnumerationCapExceeded(
            f"enumeration too large: |W_{n}| = {total} exceeds cap {cap}"
        )
    first = np.arange(len(ts.alphabet), dtype=np.int32)[:, None]
    return _extend_ranks(ts, first, n - 1)[0]


def admissible_words(ts: TransitionStructure, n: int, cap: int = DEFAULT_WORD_CAP) -> list:
    """All admissible words of length ``n`` in lexicographic order.

    Length-1 words are the alphabet itself (a single symbol is vacuously
    admissible).  Refuses with :class:`EnumerationCapExceeded` when the result
    would exceed ``cap`` entries.
    """
    return ts.alphabet.words_of(_word_ranks(ts, n, cap))


def nonempty_cylinder_words(ts: TransitionStructure, n: int, cap: int = DEFAULT_WORD_CAP) -> list:
    """Admissible words of length ``n`` whose cylinder meets the shift space."""
    viable = ts.viable_symbols
    return [w for w in admissible_words(ts, n, cap=cap) if w[-1] in viable]


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
    symbol's component (-1 when isolated) and ``distances`` its BFS distance
    from its component's first symbol inside a cyclic component (-1 off
    them).
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


def _tarjan_sccs(roots, indptr, succ) -> list:
    """Strongly connected components of a rank graph given as CSR lists.

    Iterative Tarjan from each root in turn; a component is emitted after
    every component it reaches.  A vertex whose component is emitted gets
    index n, above every live one, so it never lowers a low-link and no
    on-stack flag is needed."""
    n = len(indptr) - 1
    index = [-1] * n
    low = [0] * n
    cursor = indptr[:-1]
    depth = [0] * n  # position on the stack
    stack = []
    sccs = []
    counter = 0
    for root in roots:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        depth[root] = len(stack)
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
                    depth[w] = len(stack)
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
                    comp = stack[depth[v] :]
                    del stack[depth[v] :]
                    for w in comp:
                        index[w] = n
                    sccs.append(comp)
    return sccs


def scc_quotient(ts: TransitionStructure) -> QuotientDag:
    """Quotient by mutual reachability, with reachability order and flags.

    Built once per structure and cached on it as ``ts.quotient``.
    """
    return ts.quotient


def _quotient(ts: TransitionStructure) -> QuotientDag:
    """Components, reach masks, periods and BFS distances from the pair codes.

    A component's period is the gcd of dist(a) + 1 - dist(b) over its
    entries (a, b), dist the BFS distance from its first symbol inside it."""
    k = len(ts.alphabet)
    codes = ts.pair_codes
    heads, tails = codes // k, codes % k
    indptr, succ = ts.successor_ranks
    active = np.zeros(k, dtype=bool)
    active[heads] = active[tails] = True
    sccs = _tarjan_sccs(np.flatnonzero(active).tolist(), indptr.tolist(), succ.tolist())
    comps = sorted((sorted(c) for c in sccs), key=lambda c: c[0])
    labels = np.full(k, -1)
    for c, comp in enumerate(comps):
        labels[comp] = c
    loops = np.zeros(k, dtype=bool)
    loops[heads[heads == tails]] = True
    cyclic = [len(comp) > 1 or bool(loops[comp[0]]) for comp in comps]

    # Entries inside a component are exactly those of the cyclic ones; one
    # BFS from every cyclic component's first symbol at once stays inside
    # each component along them.
    inner = labels[heads] == labels[tails]
    a, b = heads[inner], tails[inner]
    inner_ptr = np.concatenate(([0], np.cumsum(np.bincount(a, minlength=k)))).tolist()
    inner_succ = b.tolist()
    dist = [-1] * k
    frontier = [comp[0] for comp, cyc in zip(comps, cyclic) if cyc]
    for s in frontier:
        dist[s] = 0
    while frontier:
        nxt = []
        for u in frontier:
            du = dist[u] + 1
            for w in inner_succ[inner_ptr[u] : inner_ptr[u + 1]]:
                if dist[w] < 0:
                    dist[w] = du
                    nxt.append(w)
        frontier = nxt
    dist = np.array(dist)
    # The inner entries grouped by component, one gcd per group.
    order = np.argsort(labels[a], kind="stable")
    owners, starts = np.unique(labels[a][order], return_index=True)
    period = {}
    if len(order):
        gcds = np.abs(np.gcd.reduceat((dist[a] + 1 - dist[b])[order], starts))
        period = dict(zip(owners.tolist(), gcds.tolist()))

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
    cross = np.unique(labels[heads[~inner]] * m + labels[tails[~inner]]).tolist()
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
    point").  The classes are the BFS distances that the quotient kept,
    modulo the period.
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
        tuple(syms[r] for r in np.flatnonzero(members & (dist % p == j)).tolist())
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
