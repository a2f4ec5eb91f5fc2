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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

import numpy as np

from .errors import ConfigError, EnumerationCapExceeded, PreconditionError

DEFAULT_WORD_CAP = 20_000_000

FINITE = "finite"
KNOWN_FAMILIES = (FINITE, "full", "renewal", "banded", "custom")


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol set, either finite or a truncation of a countable one.

    ``family`` names the structural family for truncated-countable alphabets
    ("full", "renewal", "banded", "custom"); plain finite alphabets use
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
    def successors(self) -> dict:
        out = {s: [] for s in self.alphabet.symbols}
        for (i, j) in self.entries:
            out[i].append(j)
        rank = self.alphabet.rank
        return {s: tuple(sorted(v, key=rank.__getitem__)) for s, v in out.items()}

    @cached_property
    def predecessors(self) -> dict:
        inc = {s: [] for s in self.alphabet.symbols}
        for (i, j) in self.entries:
            inc[j].append(i)
        rank = self.alphabet.rank
        return {s: tuple(sorted(v, key=rank.__getitem__)) for s, v in inc.items()}

    @cached_property
    def viable_symbols(self) -> frozenset:
        """Symbols admitting an infinite forward path (they reach a cycle).

        A word's cylinder in the shift space is nonempty exactly when the word
        is admissible and ends in a viable symbol.
        """
        on_cycle = {s for c in self.quotient.components if c.has_periodic_point for s in c.symbols}
        # Backward closure: anything reaching a cycle is viable.
        viable = set(on_cycle)
        stack = list(on_cycle)
        while stack:
            s = stack.pop()
            for p in self.predecessors[s]:
                if p not in viable:
                    viable.add(p)
                    stack.append(p)
        return frozenset(viable)

    @cached_property
    def quotient(self) -> "QuotientDag":
        """The transitive-component quotient (see ``scc_quotient``)."""
        return _quotient(self)

    @cached_property
    def successor_ranks(self) -> tuple:
        """The successor table over alphabet ranks as CSR: (indptr, ranks)."""
        rank = self.alphabet.rank
        succ = [[rank[t] for t in self.successors[s]] for s in self.alphabet.symbols]
        deg = np.array([len(v) for v in succ], dtype=np.int64)
        indptr = np.concatenate(([0], np.cumsum(deg)))
        return indptr, np.array([r for v in succ for r in v], dtype=np.int32)

    @cached_property
    def viable_ranks(self) -> np.ndarray:
        """Boolean mask over alphabet ranks of the viable symbols."""
        viable = self.viable_symbols
        return np.array([s in viable for s in self.alphabet.symbols], dtype=bool)

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

    def induced(self, symbols: Iterable) -> "TransitionStructure":
        """Structure induced on a symbol subset (used for components)."""
        keep = set(symbols)
        sub_alpha = Alphabet(
            tuple(s for s in self.alphabet.symbols if s in keep),
            family=FINITE,
        )
        sub_entries = frozenset((i, j) for (i, j) in self.entries if i in keep and j in keep)
        return TransitionStructure(sub_alpha, sub_entries)


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

    ``order`` contains the pairs (a, b) of component indices with component a
    reaching component b (reflexive and transitive).  Symbols with no entries
    at all are excluded from every component and listed in ``isolated``.
    """

    components: tuple  # of ComponentInfo
    order: frozenset  # pairs of component indices, a precedes b
    isolated: tuple = ()

    def component_of(self, symbol) -> Optional[int]:
        for i, comp in enumerate(self.components):
            if symbol in comp.symbols:
                return i
        return None

    def precedes(self, a: int, b: int) -> bool:
        return (a, b) in self.order

    def downset(self, i: int) -> tuple:
        """Indices of components that reach component ``i``."""
        return tuple(a for a in range(len(self.components)) if (a, i) in self.order)

    def upset(self, i: int) -> tuple:
        """Indices of components reached from component ``i``."""
        return tuple(b for b in range(len(self.components)) if (i, b) in self.order)


def _tarjan_sccs(symbols, successors) -> list:
    """Strongly connected components, iterative Tarjan, deterministic order."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in symbols:
        if root in index:
            continue
        work = [(root, iter(successors[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(successors[w])))
                    advanced = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
    return sccs


def scc_quotient(ts: TransitionStructure) -> QuotientDag:
    """Quotient by mutual reachability, with reachability order and flags.

    Built once per structure and cached on it as ``ts.quotient``.
    """
    return ts.quotient


def _quotient(ts: TransitionStructure) -> QuotientDag:
    rank = ts.alphabet.rank
    active = [s for s in ts.alphabet.symbols if ts.successors[s] or ts.predecessors[s]]
    live = set(active)
    isolated = tuple(s for s in ts.alphabet.symbols if s not in live)
    sccs = _tarjan_sccs(active, {s: [t for t in ts.successors[s] if t in live] for s in active})
    raw = sorted((sorted(c, key=rank.__getitem__) for c in sccs), key=lambda c: rank[c[0]])

    infos = []
    for comp in raw:
        has_cycle = len(comp) > 1 or ts.allows(comp[0], comp[0])
        period = _component_period(ts, comp)[0] if has_cycle else None
        infos.append(
            ComponentInfo(
                symbols=tuple(comp),
                irreducible=has_cycle,
                has_periodic_point=has_cycle,
                period=period,
            )
        )

    comp_idx = {}
    for i, info in enumerate(infos):
        for s in info.symbols:
            comp_idx[s] = i

    # One-step edges between components, then reflexive-transitive closure:
    # Tarjan emits each component after every component it reaches, so one
    # pass in emission order closes the relation.
    n = len(infos)
    steps = [set() for _ in range(n)]
    for (i, j) in ts.entries:
        steps[comp_idx[i]].add(comp_idx[j])
    reach = [set() for _ in range(n)]
    for scc in sccs:
        a = comp_idx[scc[0]]
        reach[a] = {a}.union(*(reach[b] for b in steps[a]))
    order = frozenset((a, b) for a in range(n) for b in reach[a])
    return QuotientDag(components=tuple(infos), order=order, isolated=isolated)


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


def _component_period(ts: TransitionStructure, comp_symbols) -> tuple:
    """Period of a component and the BFS distances from its first symbol."""
    comp = set(comp_symbols)
    base = comp_symbols[0]
    dist = {base: 0}
    frontier = [base]
    g = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in ts.successors[u]:
                if v not in comp:
                    continue
                if v in dist:
                    g = math.gcd(g, dist[u] + 1 - dist[v])
                else:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    # Remaining non-tree edges inside the component.
    for u in comp_symbols:
        for v in ts.successors[u]:
            if v in comp:
                g = math.gcd(g, dist[u] + 1 - dist[v])
    return (abs(g) if g else 0), dist


def period_classes(ts: TransitionStructure, component=None) -> PeriodClasses:
    """Period and cyclic classes of an irreducible component.

    ``component`` defaults to the full alphabet; the restriction must be a
    single transitive component containing a cycle, otherwise the period is
    undefined ("no periodic point").
    """
    sub = ts if component is None else ts.induced(component)
    dag = scc_quotient(sub)
    if len(dag.components) != 1 or not dag.components[0].has_periodic_point:
        raise PreconditionError("no periodic point: component is not irreducible with a cycle")
    comp = dag.components[0].symbols
    p, dist = _component_period(sub, comp)
    rank = ts.alphabet.rank
    classes = tuple(
        tuple(sorted((s for s in comp if dist[s] % p == r), key=rank.__getitem__))
        for r in range(p)
    )
    for (i, j) in sub.entries:
        ci = dist[i] % p
        cj = dist[j] % p
        if cj != (ci + 1) % p:
            raise RuntimeError("period class property violated; period computation is wrong")
    return PeriodClasses(p=p, classes=classes, base=comp[0])


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
    a -> w_0 and w_last -> b, so the pairs it serves are the outer product
    adj[:, w_0] (x) adj[w_last, :]; their OR over w is one matrix product.
    The empty word serves the allowed pairs themselves.
    """
    rank, n = ts.alphabet.rank, len(ts.alphabet)
    indptr, succ = ts.successor_ranks
    adj = np.zeros((n, n))
    adj[np.repeat(np.arange(n), np.diff(indptr)), succ] = 1.0
    inside = [tuple(w) for w in witness if ts.is_admissible(tuple(w))]
    heads = [rank[w[0]] for w in inside if w]
    tails = [rank[w[-1]] for w in inside if w]
    served = adj[:, heads] @ adj[tails, :] + (adj if () in inside else 0.0)
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
    syms = ts.alphabet.symbols
    has_pp = any(c.has_periodic_point for c in dag.components)
    one_comp = (
        len(dag.components) == 1
        and not dag.isolated
        and set(dag.components[0].symbols) == set(syms)
    )
    irreducible = one_comp and dag.components[0].has_periodic_point
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
