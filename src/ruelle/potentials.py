"""Potentials on shift spaces: seminorms, summability, extensions.

A potential is a uniformly locally constant weight table of depth d: its
value at a point depends only on the first d symbols, so every quantity below
is computed exactly by finite enumeration.

Seminorms follow the variation convention var_n f = sup |f(x) - f(y)| over
points agreeing on their first n symbols, and [f]_k = sup_{n >= k} var_n /
theta^n.  A depth-d potential has var_n = 0 for n >= d, so [f]_k is the
maximum over n = k .. d-1 and is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Mapping, Optional

import numpy as np

from .errors import ConfigError, PreconditionError
from .shifts import Alphabet, TransitionStructure, nonempty_cylinder_words

DEFAULT_THETA = 0.5
DEFAULT_K = 1
DEFAULT_TAIL_COEFF = 1.0
# The operator layers' run defaults, declared here with the three above so
# that the config schema reads them all without importing those layers.
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
DEFAULT_N_MAX = 40
DEFAULT_S_RANGE = (0.0, 8.0)
# Above every code of a compiled weight table (``_compile``).
_NO_CODE = 2**63 - 1
# The largest weight whose exp is a float (about 709.78).
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@dataclass(frozen=True)
class TailModel:
    """Bound t(s) >= exp(sup over the cylinder of s) past a truncation.

    ``term`` maps the enumeration index of a symbol beyond the truncation to
    the bound value; ``sum_beyond`` gives the closed-form sum of all terms
    past index N (``math.inf`` when it diverges).
    """

    term: Callable[[int], float]
    sum_beyond: Callable[[int], float]

    @staticmethod
    def geometric(coeff: float, ratio: float) -> "TailModel":
        if not 0.0 < ratio < 1.0:
            raise ConfigError("geometric tail needs ratio in (0, 1)")
        return TailModel(
            term=lambda s: coeff * ratio**s,
            sum_beyond=lambda n: coeff * ratio ** (n + 1) / (1.0 - ratio),
        )

    @staticmethod
    def harmonic(coeff: float = DEFAULT_TAIL_COEFF) -> "TailModel":
        return TailModel(term=lambda s: coeff / max(s, 1), sum_beyond=lambda n: math.inf)

    @staticmethod
    def zero() -> "TailModel":
        return TailModel(term=lambda s: 0.0, sum_beyond=lambda n: 0.0)


@dataclass(frozen=True)
class Potential:
    """Depth-d cylinder weight table.

    ``weights`` maps every depth-d admissible word to its value, and the
    potential is exactly constant on depth-d cylinders; ``tail`` bounds it
    past a truncation.
    """

    depth: int
    weights: Mapping
    tail: Optional[TailModel] = None
    # The last least-depth transfer reduction built through this potential,
    # with its converged Perron pairs (``transfer._reduction``).
    _reduction: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    # The compiled weight tables by alphabet (``gather``).
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError("potential depth must be at least 1")
        for w, v in self.weights.items():
            if len(w) != self.depth:
                raise ConfigError(f"weight key {w!r} does not have depth {self.depth}")
            if not math.isfinite(v):
                raise ConfigError(f"weight for {w!r} is not finite")
            if v > _LOG_FLOAT_MAX:
                raise PreconditionError(
                    f"weight {v} for {w!r} exceeds {_LOG_FLOAT_MAX}, "
                    "the log of the largest float, so its exp overflows"
                )

    def value(self, word) -> float:
        """Value on the cylinder of ``word``."""
        if len(word) < self.depth:
            raise PreconditionError(
                f"word of length {len(word)} is shorter than potential depth {self.depth}"
            )
        key = tuple(word[: self.depth])
        try:
            return self.weights[key]
        except KeyError:
            raise PreconditionError(f"word {key!r} is not admissible for this potential")

    def gather(self, alphabet: Alphabet, rows: np.ndarray, at=None, exp: bool = False) -> np.ndarray:
        """The values on the rank rows ``rows`` over ``alphabet``, or on the
        rows ``rows[at]`` (each row keyed once); with ``exp`` their
        ``math.exp``, taken once per weight.  The weights are compiled once
        per alphabet (``_compile``); a word without a weight raises the
        PreconditionError of ``value``."""
        if alphabet not in self._tables:
            self._tables[alphabet] = _compile(self, alphabet)
        levels, values, exps = self._tables[alphabet]
        key, ok = np.zeros(len(rows), dtype=np.int64), np.ones(len(rows), dtype=bool)
        for start, stop, level in levels:
            for j in range(start, stop):
                key = key * len(alphabet) + rows[:, j]
            pos = np.searchsorted(level, key)  # lands on an entry: no code reaches _NO_CODE
            ok &= level[pos] == key
            key = pos
        if at is not None:
            key, ok = key[at], ok[at]
        if not ok.all():
            first = np.flatnonzero(~ok)[0]
            word = alphabet.words_of(rows[[first if at is None else at[first]]])[0]
            raise PreconditionError(f"word {word!r} is not admissible for this potential")
        return (exps if exp else values)[key]

    def birkhoff(self, word, n: int) -> float:
        """n-step Birkhoff sum along ``word`` (needs length >= n + depth - 1)."""
        if n < 0:
            raise PreconditionError("Birkhoff length must be nonnegative")
        if n == 0:
            return 0.0
        if len(word) < n + self.depth - 1:
            raise PreconditionError(
                f"word too short for {n}-step Birkhoff sum at depth {self.depth}"
            )
        return sum(self.value(word[i : i + self.depth]) for i in range(n))


def _compile(phi: Potential, alphabet: Alphabet) -> tuple:
    """(levels, values, exps): the weights of the words over ``alphabet`` in
    lexicographic order, and their ``math.exp``.  A word is keyed exactly:
    its ranks are folded, key * k + rank, in groups whose codes stay below
    ``_NO_CODE``, and after each group the key becomes the code's position
    among the sorted distinct codes of its level.  While k**d < 2**63 the
    one group's code is the rank code; past that the positions keep every
    code small, so no key overflows at any alphabet size."""
    k, d, n = len(alphabet), phi.depth, len(phi.weights)
    symbols = chain.from_iterable(phi.weights)
    rows = np.fromiter(map(alphabet.rank.get, symbols, repeat(-1)), np.int64, n * d).reshape(n, d)
    known = (rows >= 0).all(axis=1)  # a word off the alphabet is never asked for
    key, bound, start, levels = np.zeros(int(known.sum()), dtype=np.int64), 1, 0, []
    for stop in range(1, d + 1):
        if stop == d or bound * k ** (stop + 1 - start) >= _NO_CODE:
            for j in range(start, stop):
                key = key * k + rows[known, j]
            level, key = np.unique(key, return_inverse=True)
            levels.append((start, stop, np.append(level, _NO_CODE)))
            bound, start = len(level) + 1, stop
    values, exps = np.empty(len(key)), np.empty(len(key))
    values[key] = np.fromiter(phi.weights.values(), float, n)[known]
    exps[key] = np.fromiter(map(math.exp, phi.weights.values()), float, n)[known]
    return tuple(levels), values, exps


def constant_potential(ts: TransitionStructure, c: float = 0.0) -> Potential:
    return Potential(depth=1, weights={(s,): c for s in ts.alphabet.symbols})


def zero_potential(ts: TransitionStructure) -> Potential:
    return constant_potential(ts, 0.0)


def potential_from_weights(weights: Mapping, tail: Optional[TailModel] = None) -> Potential:
    depths = {len(w) for w in weights}
    if len(depths) != 1:
        raise ConfigError("all weight keys must share one depth")
    return Potential(depth=depths.pop(), weights=dict(weights), tail=tail)


# -- cylinder sups ------------------------------------------------------------


def _depth_words_from(ts: TransitionStructure, prefix, depth: int) -> list:
    """Extendable admissible depth-``depth`` words beginning with ``prefix``."""
    words = [tuple(prefix)]
    while words and len(words[0]) < depth:
        words = [w + (t,) for w in words for t in ts.successors[w[-1]]]
    return [w for w in words if ts.has_nonempty_cylinder(w)]


def cylinder_sup(phi: Potential, ts: TransitionStructure, prefix) -> float:
    """sup of the potential over the cylinder of ``prefix`` (within the shift), exact."""
    prefix = tuple(prefix)
    if not ts.has_nonempty_cylinder(prefix):
        raise PreconditionError(f"cylinder of {prefix!r} is empty")
    # A nonempty cylinder has an admissible extension to every depth.
    return max(phi.value(w) for w in _depth_words_from(ts, prefix, max(phi.depth, len(prefix))))


def _lex_min_extension(ts: TransitionStructure, prefix, length: int) -> tuple:
    """Lexicographically smallest extendable completion of ``prefix``."""
    word = tuple(prefix)
    viable = ts.viable_symbols
    while len(word) < length:
        nxt = [t for t in ts.successors[word[-1]] if t in viable]
        if not nxt:
            raise PreconditionError(f"prefix {prefix!r} admits no infinite continuation")
        word = word + (nxt[0],)
    return word


# -- seminorms ----------------------------------------------------------------


@dataclass(frozen=True)
class SeminormBracket:
    """[f]_k as a bracket with lower == upper, and the theta it was computed against."""

    k: int
    theta: float
    lower: float
    upper: float
    attained_at: Optional[int] = None  # variation depth n realizing [f]_k


def variation(phi: Potential, ts: TransitionStructure, n: int) -> float:
    """var_n over the shift space, exact."""
    if n < 1:
        raise PreconditionError("variation depth must be positive")
    if n >= phi.depth:
        return 0.0
    groups = {}
    for w in nonempty_cylinder_words(ts, phi.depth):
        groups.setdefault(w[:n], []).append(phi.value(w))
    best = 0.0
    for vals in groups.values():
        if len(vals) > 1:
            best = max(best, max(vals) - min(vals))
    return best


def seminorm_bracket(
    phi: Potential,
    ts: TransitionStructure,
    k: int,
    theta: float = DEFAULT_THETA,
) -> SeminormBracket:
    """[f]_k = max of var_n / theta^n over n = k .. d-1, exact (lower == upper):
    a depth-d potential has var_n = 0 for n >= d."""
    if k < 1:
        raise PreconditionError("need k >= 1")
    value, attained = 0.0, None
    for n in range(k, phi.depth):
        v = variation(phi, ts, n) / theta**n
        if v > value:
            value, attained = v, n
    return SeminormBracket(k=k, theta=theta, lower=value, upper=value, attained_at=attained)


# -- summability ----------------------------------------------------------------


@dataclass(frozen=True)
class SummabilityCertificate:
    partial_sum: float
    tail_bound: float
    total_upper: float
    truncation: Optional[int] = None

    @property
    def summable(self) -> bool:
        return math.isfinite(self.total_upper)


def summability_certificate(phi: Potential, ts: TransitionStructure) -> SummabilityCertificate:
    """Certificate for the symbol sum of exp(sup over 1-cylinders).

    The partial sum runs over the (truncated) alphabet; the tail bound comes
    from the potential's tail model (zero for plain finite alphabets).
    """
    partial = 0.0
    for s in ts.alphabet.symbols:
        if not ts.has_nonempty_cylinder((s,)):
            continue
        partial += math.exp(cylinder_sup(phi, ts, (s,)))
    n_trunc = ts.alphabet.truncation
    if phi.tail is None:
        tail = 0.0
    else:
        tail = phi.tail.sum_beyond(n_trunc if n_trunc is not None else len(ts.alphabet))
    total = partial + tail
    return SummabilityCertificate(
        partial_sum=partial, tail_bound=tail, total_upper=total, truncation=n_trunc
    )


# -- extension (subshift potential to the ambient shift) -----------------------


def extend_potential(
    phi: Potential,
    sub: TransitionStructure,
    ambient: TransitionStructure,
) -> Potential:
    """Extend a potential on the subshift to the ambient shift.

    A point outside the subshift takes the value of the potential at the
    lexicographically least completion of its longest prefix whose cylinder
    still meets the subshift; points of the subshift keep their values.  The
    result is again locally constant of the same depth, agrees with the
    input on the subshift, has the same sup norm and the same variations at
    every depth.

    Requires every ambient 1-cylinder to meet the subshift.
    """
    for s in ambient.alphabet.symbols:
        if not sub.has_nonempty_cylinder((s,)):
            raise PreconditionError(
                f"cylinder of symbol {s!r} misses the subshift; extension undefined"
            )
    d = phi.depth
    new_weights = {}
    for w in nonempty_cylinder_words(ambient, d):
        if sub.has_nonempty_cylinder(w):
            # Whole prefix meets the subshift: value equals the original's on
            # [w], whether or not a given point of [w] lies inside.
            rep = _lex_min_extension(sub, w, d)
            new_weights[w] = phi.value(rep)
        else:
            m = max(i for i in range(1, d) if sub.has_nonempty_cylinder(w[:i]))
            rep = _lex_min_extension(sub, w[:m], d)
            new_weights[w] = phi.value(rep)
    return Potential(depth=d, weights=new_weights, tail=phi.tail)


# -- perturbation family --------------------------------------------------------


def hole_cylinders(ambient: TransitionStructure, sub: TransitionStructure) -> frozenset:
    """2-cylinders allowed by the ambient structure but not the subsystem."""
    return frozenset(ambient.entries - sub.entries)


def perturbed_potential(
    phi: Potential,
    ambient: TransitionStructure,
    sub: TransitionStructure,
    epsilon: float,
) -> Potential:
    """One member of the perturbation family steered by 1/epsilon.

    On the hole (ambient-allowed, subsystem-forbidden 2-cylinders) the value
    drops by 1/epsilon; everywhere the value is clamped from below at the
    1-cylinder sup minus 1/epsilon.  The result has depth max(depth, 2), its
    variations at depths >= 2 never exceed the input's, and on
    subsystem-allowed points it dominates the input.
    """
    if epsilon <= 0:
        raise PreconditionError("epsilon must be positive")
    holes = hole_cylinders(ambient, sub)
    d = max(phi.depth, 2)
    inv = 1.0 / epsilon
    sups = {
        s: cylinder_sup(phi, ambient, (s,))
        for s in ambient.alphabet.symbols
        if ambient.has_nonempty_cylinder((s,))
    }
    new_weights = {}
    for w in nonempty_cylinder_words(ambient, d):
        base = phi.value(w)
        chi = 1.0 if (w[0], w[1]) in holes else 0.0
        clamp = sups[w[0]] - inv
        if base >= clamp:
            val = base - inv * chi
        else:
            val = clamp - inv * chi
        new_weights[w] = val
    return Potential(depth=d, weights=new_weights, tail=phi.tail)
