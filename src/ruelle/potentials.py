"""Potentials on shift spaces: metric, seminorms, summability, extensions.

The workhorse is the uniformly locally constant potential of depth d: its
value at a point depends only on the first d symbols, so every quantity below
is computed exactly by finite enumeration.  Rule-based potentials (value
callable plus declared variation bounds) are supported with interval
semantics where they are cheap; anything requiring an undeclared bound
returns an "unbounded" sentinel rather than guessing.

Seminorms follow the variation convention var_n f = sup |f(x) - f(y)| over
points agreeing on their first n symbols, and [f]_k = sup_{n >= k} var_n /
theta^n.  A depth-d potential therefore has var_n = 0 for n >= d.
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
# Above every code of a compiled weight table (``_compile``).
_NO_CODE = 2**63 - 1


@dataclass(frozen=True)
class Metric:
    """The metric d_theta: distance theta^n for first disagreement at n."""

    theta: float = DEFAULT_THETA

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ConfigError("theta must lie strictly between 0 and 1")

    def distance(self, agreement: Optional[int]) -> float:
        """Distance of two points agreeing on exactly ``agreement`` symbols.

        ``None`` means the points are equal.
        """
        if agreement is None:
            return 0.0
        if agreement < 0:
            raise PreconditionError("agreement length must be nonnegative")
        return self.theta**agreement


def d_theta(theta: float, agreement: Optional[int]) -> float:
    return Metric(theta).distance(agreement)


@dataclass(frozen=True)
class TailModel:
    """Bound t(s) >= exp(sup over the cylinder of s) past a truncation.

    ``term`` maps the enumeration index of a symbol beyond the truncation to
    the bound value; ``sum_beyond`` gives the closed-form sum of all terms
    past index N (``math.inf`` when it diverges).
    """

    term: Callable[[int], float]
    sum_beyond: Callable[[int], float]
    description: str = ""

    @staticmethod
    def geometric(coeff: float, ratio: float, description: str = "") -> "TailModel":
        if not 0.0 < ratio < 1.0:
            raise ConfigError("geometric tail needs ratio in (0, 1)")
        return TailModel(
            term=lambda s: coeff * ratio**s,
            sum_beyond=lambda n: coeff * ratio ** (n + 1) / (1.0 - ratio),
            description=description or f"geometric coeff={coeff} ratio={ratio}",
        )

    @staticmethod
    def harmonic(coeff: float = DEFAULT_TAIL_COEFF) -> "TailModel":
        return TailModel(
            term=lambda s: coeff / max(s, 1),
            sum_beyond=lambda n: math.inf,
            description=f"harmonic coeff={coeff} (divergent)",
        )

    @staticmethod
    def zero() -> "TailModel":
        return TailModel(term=lambda s: 0.0, sum_beyond=lambda n: 0.0, description="zero tail")


@dataclass(frozen=True)
class Potential:
    """Depth-d cylinder weight table, or a rule with declared bounds.

    Locally constant case: ``weights`` maps every depth-d admissible word to
    its value and the potential is exactly constant on depth-d cylinders.
    Rule-based case: ``rule`` evaluates on a word treated as a cylinder
    representative, ``var_bounds(n)`` must dominate var_n, and
    ``symbol_sup(s)`` must dominate the sup over the 1-cylinder of s.
    """

    depth: int
    weights: Optional[Mapping] = None
    rule: Optional[Callable] = None
    var_bounds: Optional[Callable[[int], float]] = None
    symbol_sup: Optional[Mapping] = None
    tail: Optional[TailModel] = None
    label: str = ""
    # The last least-depth transfer reduction built through this potential,
    # with its converged Perron pairs (``transfer._reduction``).
    _reduction: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    # The compiled weight tables by alphabet (``gather``).
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError("potential depth must be at least 1")
        if (self.weights is None) == (self.rule is None):
            raise ConfigError("exactly one of weights or rule must be given")
        if self.weights is not None:
            for w, v in self.weights.items():
                if len(w) != self.depth:
                    raise ConfigError(f"weight key {w!r} does not have depth {self.depth}")
                if not math.isfinite(v):
                    raise ConfigError(f"weight for {w!r} is not finite")

    @property
    def locally_constant(self) -> bool:
        return self.weights is not None

    def value(self, word) -> float:
        """Value on the cylinder of ``word`` (exact when locally constant)."""
        if len(word) < self.depth:
            raise PreconditionError(
                f"word of length {len(word)} is shorter than potential depth {self.depth}"
            )
        key = tuple(word[: self.depth])
        if self.weights is not None:
            try:
                return self.weights[key]
            except KeyError:
                raise PreconditionError(f"word {key!r} is not admissible for this potential")
        return self.rule(key)

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
    return Potential(depth=1, weights={(s,): c for s in ts.alphabet.symbols}, label=f"const {c}")


def zero_potential(ts: TransitionStructure) -> Potential:
    return constant_potential(ts, 0.0)


def potential_from_weights(weights: Mapping, tail: Optional[TailModel] = None,
                           label: str = "") -> Potential:
    depths = {len(w) for w in weights}
    if len(depths) != 1:
        raise ConfigError("all weight keys must share one depth")
    return Potential(depth=depths.pop(), weights=dict(weights), tail=tail, label=label)


# -- cylinder sups ------------------------------------------------------------


def _depth_words_from(ts: TransitionStructure, prefix, depth: int) -> list:
    """Extendable admissible depth-``depth`` words beginning with ``prefix``."""
    words = [tuple(prefix)]
    while words and len(words[0]) < depth:
        words = [w + (t,) for w in words for t in ts.successors[w[-1]]]
    return [w for w in words if ts.has_nonempty_cylinder(w)]


def cylinder_sup(phi: Potential, ts: TransitionStructure, prefix) -> float:
    """sup of the potential over the cylinder of ``prefix`` (within the shift).

    Exact for locally constant potentials.  Rule-based potentials must declare
    per-symbol sups; deeper prefixes use the representative value plus the
    declared variation bound.
    """
    prefix = tuple(prefix)
    if not ts.has_nonempty_cylinder(prefix):
        raise PreconditionError(f"cylinder of {prefix!r} is empty")
    if phi.locally_constant:
        words = _depth_words_from(ts, prefix, max(phi.depth, len(prefix)))
        if not words:
            raise PreconditionError(f"cylinder of {prefix!r} is empty")
        return max(phi.value(w) for w in words)
    if len(prefix) == 1:
        if phi.symbol_sup is None:
            raise ConfigError("rule-based potential needs a declared symbol_sup table")
        return phi.symbol_sup[prefix[0]]
    if phi.var_bounds is None:
        return math.inf
    rep = _lex_min_extension(ts, prefix, max(phi.depth, len(prefix)))
    return phi.rule(rep[: phi.depth]) + phi.var_bounds(len(prefix))


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


def lex_min_point(ts: TransitionStructure, prefix, length: int) -> tuple:
    """Canonical cylinder representative used throughout reports and tests."""
    return _lex_min_extension(ts, tuple(prefix), length)


# -- seminorms ----------------------------------------------------------------


@dataclass(frozen=True)
class SeminormBracket:
    """Two-sided bracket for [f]_k, with the theta it was computed against."""

    k: int
    theta: float
    lower: float
    upper: float
    attained_at: Optional[int] = None  # variation depth n realizing the lower bound


def variation(phi: Potential, ts: TransitionStructure, n: int) -> float:
    """var_n over the shift space, exact for locally constant potentials."""
    if n < 1:
        raise PreconditionError("variation depth must be positive")
    if not phi.locally_constant:
        raise PreconditionError("exact variation needs a locally constant potential")
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
    enumeration_depth: int,
    theta: float = DEFAULT_THETA,
) -> SeminormBracket:
    """Bracket [f]_k from variations up to ``enumeration_depth``.

    Exact (lower == upper) for locally constant potentials once the
    enumeration depth reaches the potential depth.  Rule-based potentials add
    the declared variation tail to the upper end; a missing declaration gives
    an unbounded upper end.
    """
    if k < 1 or enumeration_depth < k:
        raise PreconditionError("need k >= 1 and enumeration depth >= k")
    lower = 0.0
    attained = None
    if phi.locally_constant:
        for n in range(k, enumeration_depth + 1):
            v = variation(phi, ts, n) / theta**n
            if v > lower:
                lower, attained = v, n
        upper = lower
    else:
        words = nonempty_cylinder_words(ts, enumeration_depth + 1)
        for n in range(k, enumeration_depth + 1):
            groups = {}
            for w in words:
                rep = _lex_min_extension(ts, w, max(phi.depth, len(w)))
                groups.setdefault(w[:n], []).append(phi.rule(rep[: phi.depth]))
            v = 0.0
            for vals in groups.values():
                if len(vals) > 1:
                    v = max(v, max(vals) - min(vals))
            v /= theta**n
            if v > lower:
                lower, attained = v, n
        if phi.var_bounds is None:
            upper = math.inf
        else:
            tail = max(
                (phi.var_bounds(n) / theta**n for n in range(enumeration_depth + 1, enumeration_depth + 64)),
                default=0.0,
            )
            upper = max(lower, tail)
    return SeminormBracket(k=k, theta=theta, lower=lower, upper=upper, attained_at=attained)


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


def summability_certificate(
    phi: Potential, ts: TransitionStructure, truncation: Optional[int] = None
) -> SummabilityCertificate:
    """Certificate for the symbol sum of exp(sup over 1-cylinders).

    The partial sum runs over the (truncated) alphabet; the tail bound comes
    from the potential's tail model (zero for plain finite alphabets).
    """
    partial = 0.0
    for s in ts.alphabet.symbols:
        if not ts.has_nonempty_cylinder((s,)):
            continue
        partial += math.exp(cylinder_sup(phi, ts, (s,)))
    n_trunc = truncation if truncation is not None else ts.alphabet.truncation
    if phi.tail is None:
        tail = 0.0
    else:
        tail = phi.tail.sum_beyond(n_trunc if n_trunc is not None else len(ts.alphabet))
    total = partial + tail
    return SummabilityCertificate(
        partial_sum=partial, tail_bound=tail, total_upper=total, truncation=n_trunc
    )


def birkhoff_sum(phi: Potential, word, n: int) -> float:
    return phi.birkhoff(tuple(word), n)


# -- extension (subshift potential to the ambient shift) -----------------------


def extend_potential(
    phi: Potential,
    sub: TransitionStructure,
    ambient: TransitionStructure,
    policy: str = "lex_min",
) -> Potential:
    """Extend a potential on the subshift to the ambient shift.

    A point outside the subshift takes the value of the potential at a fixed
    representative of its longest prefix whose cylinder still meets the
    subshift; points of the subshift keep their values.  The result is again
    locally constant of the same depth, agrees with the input on the
    subshift, has the same sup norm and the same variations at every depth.

    Requires every ambient 1-cylinder to meet the subshift.
    """
    if not phi.locally_constant:
        raise PreconditionError("extension is implemented for locally constant potentials")
    if policy != "lex_min":
        raise ConfigError(f"unknown representative policy {policy!r}")
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
    return Potential(
        depth=d,
        weights=new_weights,
        tail=phi.tail,
        label=(phi.label + " extended").strip(),
    )


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
    if not phi.locally_constant:
        raise PreconditionError("perturbation is implemented for locally constant potentials")
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
    return Potential(
        depth=d,
        weights=new_weights,
        tail=phi.tail,
        label=(phi.label + f" eps={epsilon}").strip(),
    )
