"""Brute-force shadowing experiments on finite systems of words.

A finite system is a finite set of points, each a distinct word, under
the cylinder metric (two words at common prefix length k are 2**-k
apart), with a successor relation.  A delta-pseudo-orbit is a sequence
where each step lands within delta of a true successor; it is
epsilon-shadowed when some true orbit stays within epsilon of it
coordinatewise.  The exhaustive checker walks pseudo-orbits breadth first
while tracking, for each one, the set of shadowing-orbit states that are
still alive, so the work is bounded by the number of distinct (point,
survivor set) pairs instead of the raw tree of pseudo-orbits.  A head's
children depend only on its step mask and the image of its survivor set,
so each such pair is expanded once per depth: a later head with the same
pair adds only the dead children recorded by the first, since all of its
live children are already seen.  While no survivor set is empty, each
depth's set of (point, survivor set) pairs depends only on the one before
it, so the search stops at the first set met before: no pseudo-orbit of
any length fails, and the count of states the full horizon would explore
follows from one period of the repeat.  Each depth keeps only its heads
and their parents' indices, and the one counterexample is read back
through them.

Every check reads one step table, ``_step_masks`` (the legal delta-steps
from each point as a bitmask), and, outside the search, one survivor walk,
``_lost_at`` (``alive = image(alive) & ball`` along a pseudo-orbit's tube).
Each distinct step mask's bits are listed once, by ``_bit_lists``, for the
search, the sampler and the fiber chain-transitivity check.  The mask
primitives ``_bits`` and ``_image_map`` live in ``shift_core``.

Distances are ``Fraction`` values at the API, but a system stores only its
words sorted (``_order``) and the common prefix lengths of adjacent sorted
words (``_lcp``).  The cylinder metric is an ultrametric and sorted words
sharing a prefix are contiguous, so each epsilon-ball is the run of sorted
words joined by adjacent prefix lengths of at least k, the least k with
2**-k <= epsilon: one bitmask (bit i is ``labels[i]``) per run, found in
one pass per threshold per call.  Successor and survivor sets are bitmasks
too, so the checks stay exact without any ``Fraction`` arithmetic in their
loops.  ``dist`` is a read-only view that works each distance out from the
two words when it is read.

Shift truncations are their admissible words, and the limit system is the
words 0^(T+1) and 0^m 1 0^(T-m).  Both refuse more than
``MAX_TRUNCATION_POINTS`` points, a truncation also refuses more than
``MAX_TRUNCATION_SYMBOLS`` symbols (points times depth), a sampled
check refuses more than ``MAX_SAMPLED_STEPS`` steps (samples times
horizon), and an exhaustive check refuses to build more than its
``state_cap`` states, the only bound on a search its repeat has not yet
decided.  A system is immutable and equal only to one with the same
labels, words and successors, so each truncation and limit system is
built once per argument value and the caps as they stand at the call
(``_truncation``, ``_limit_gap``), and every check at every scale, and
the layered example's fibers, share it.
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_
from types import MappingProxyType
from typing import Callable, Optional, Sequence

from .decomposition import _sccs
from .errors import (
    InternalInvariantViolation,
    InvalidScales,
    PreconditionError,
    TooLarge,
)
from .shift_core import (
    MEMO_SIZE,
    SftGraph,
    Word,
    common_prefix,
    from_forbidden_words,
    _bits,
    _image_map,
    _undotted,
    _words,
)

# Most points a truncation or limit system may have: the full 2-shift at
# depth 12 still builds.  Balls and survivor sets are n-bit masks, one per
# point or search state, so their memory grows as n**2.
MAX_TRUNCATION_POINTS = 4096

# Most symbols, points times depth, a truncation may list: few long words
# pass the point cap, but each symbol costs time and memory to list.
MAX_TRUNCATION_SYMBOLS = 1 << 19

# Most steps, samples times horizon, a sampled check may draw: each step
# costs a random draw and a survivor-walk step.
MAX_SAMPLED_STEPS = 1 << 20


@dataclass(frozen=True)
class FiniteSystem:
    """Finite set of distinct words, keyed by label, under the cylinder
    metric, with a successor relation: each point has a nonempty set of
    successors.  A truncated shift keeps every admissible extension as a
    successor; a genuine self-map has singleton successor sets.
    Successors are stored as a read-only copy and as ``_succ``, one
    bitmask per index; ``_by_label`` lists the indices in label order,
    ``_order`` in word order, and ``_lcp`` holds the common prefix lengths
    of the adjacent words in that order.  Two systems are equal, and hash
    alike, when their labels, words and successor masks are."""

    labels: tuple[str, ...]
    words: tuple[Sequence[str], ...]
    successors: Mapping[str, tuple[str, ...]] = field(compare=False)
    _pos: Mapping[str, int] = field(init=False, repr=False, compare=False)
    _by_label: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _order: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _lcp: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _succ: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        pos = {p: i for i, p in enumerate(self.labels)}
        if len(pos) != len(self.labels):
            raise PreconditionError("duplicate point labels")
        words = tuple(self.words)
        if len(words) != len(self.labels):
            raise PreconditionError("need one word per point label")
        if len(set(words)) != len(words):
            raise PreconditionError("two points share a word, so their distance is 0")
        for p in self.labels:
            succ = self.successors.get(p)
            if not succ or any(q not in pos for q in succ):
                raise PreconditionError("successors not defined into the space at %r" % p)
        successors = {p: tuple(self.successors[p]) for p in self.labels}
        order = sorted(range(len(words)), key=words.__getitem__)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "successors", MappingProxyType(successors))
        object.__setattr__(self, "_pos", MappingProxyType(pos))
        object.__setattr__(self, "_by_label", tuple(
            sorted(range(len(self.labels)), key=self.labels.__getitem__)))
        object.__setattr__(self, "_order", tuple(order))
        object.__setattr__(self, "_lcp", tuple(
            common_prefix(words[i], words[j]) for i, j in zip(order, order[1:])))
        object.__setattr__(self, "_succ", tuple(
            reduce(or_, (1 << pos[q] for q in successors[p])) for p in self.labels))

    @property
    def dist(self) -> Mapping[tuple[str, str], Fraction]:
        return _Distances(self)

    def d(self, p: str, q: str) -> Fraction:
        i, j = self._pos[p], self._pos[q]
        if i == j:
            return Fraction(0)
        return Fraction(1, 1 << common_prefix(self.words[i], self.words[j]))


class _Distances(Mapping):
    """Read-only distances of a system keyed by label pairs, in row-major
    label order, each worked out from the two words when it is read."""

    def __init__(self, sys: FiniteSystem):
        self._sys = sys

    def __getitem__(self, key) -> Fraction:
        try:
            p, q = key
            return self._sys.d(p, q)
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None

    def __iter__(self):
        labels = self._sys.labels
        return ((p, q) for p in labels for q in labels)

    def __len__(self) -> int:
        return len(self._sys.labels) ** 2


# ---------------------------------------------------------------------------
# Balls and step masks


def _balls(sys: FiniteSystem, radius: Fraction) -> list[int]:
    """Bitmask of the closed radius-ball around each point: the run of
    sorted words around it joined by adjacent prefix lengths of at least
    k, the least k >= 0 with 2**-k <= radius.  A radius of 0 keeps each
    point alone, and a negative one keeps nothing."""
    r = Fraction(radius)
    n = len(sys.labels)
    if r <= 0:
        return [1 << i if r == 0 else 0 for i in range(n)]
    # 2**-k <= a/b exactly when b <= a * 2**k, which holds first at the
    # difference of the bit lengths or one past it.
    a, b = r.numerator, r.denominator
    k = max(0, b.bit_length() - a.bit_length())
    if a << k < b:
        k += 1
    balls = [0] * n
    run: list[int] = []
    for j, i in enumerate(sys._order):
        run.append(i)
        if j == n - 1 or sys._lcp[j] < k:
            mask = reduce(or_, (1 << x for x in run))
            for x in run:
                balls[x] = mask
            run = []
    return balls


def _bit_lists(masks: Sequence[int]) -> dict[int, list[int]]:
    """Set-bit indices of each distinct mask, ascending, listed once."""
    return {m: list(_bits(m)) for m in set(masks)}


def _step_masks(sys: FiniteSystem, delta: Fraction) -> list[int]:
    """Mask of the legal delta-pseudo-orbit steps from each point: q
    follows p when q lands within delta of some successor of p, so the
    mask is the image of p's successor mask under the delta-balls."""
    return list(map(_image_map(_balls(sys, delta)), sys._succ))


# ---------------------------------------------------------------------------
# Shadowing checks


@dataclass(frozen=True)
class ShadowingReport:
    shadowed: bool
    epsilon: Fraction
    delta: Fraction
    horizon: int
    mode: str
    counterexample: Optional[tuple[str, ...]] = None
    failure_trace: Optional[tuple[tuple[str, int], ...]] = None
    states_explored: int = 0
    orbits_checked: int = 0


def brute_shadowing_check(sys: FiniteSystem, epsilon: Fraction, delta: Fraction,
                          horizon: int, mode: str = "exhaustive",
                          samples: int = 200, seed: int = 0,
                          state_cap: int = 10 ** 7) -> ShadowingReport:
    """Does every delta-pseudo-orbit of length <= horizon admit a true
    orbit staying within epsilon of it?

    Exhaustive mode explores pseudo-orbits in lexicographic breadth-first
    order, carrying the survivor set of candidate orbit states, and reports
    the lexicographically least unshadowable pseudo-orbit if one exists,
    rebuilt from each depth's parent indices.  Once a depth's set of
    (head, survivor set) pairs, none of them dead, repeats an earlier
    depth's, every horizon is shadowed: the search stops there and counts
    the states of the depths left from the period.  It raises TooLarge
    only once it has built more than ``state_cap`` states.  Sampled mode
    draws seeded random pseudo-orbits instead.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if epsilon <= 0 or delta <= 0:
        raise InvalidScales("epsilon and delta must be positive")
    if horizon < 1:
        raise InvalidScales("horizon must be at least 1")
    if mode == "sampled" and samples < 1:
        raise InvalidScales("sampled mode needs at least one sample")
    if mode not in ("exhaustive", "sampled"):
        raise PreconditionError("mode must be 'exhaustive' or 'sampled'")
    if mode == "sampled" and samples * horizon > MAX_SAMPLED_STEPS:
        raise TooLarge("sampled check exceeds %d steps" % MAX_SAMPLED_STEPS)
    near = _balls(sys, epsilon)
    image = _image_map(sys._succ)
    steps = _step_masks(sys, delta)
    if mode == "sampled":
        return _sampled_check(sys, near, image, steps, epsilon, delta,
                              horizon, samples, seed)
    labels = sys.labels
    ordered = {m: sorted(bits, key=labels.__getitem__)
               for m, bits in _bit_lists(steps).items()}
    # BFS over (pseudo-orbit head, survivor mask); paths expand in sorted
    # label order so the first failure found at the shortest depth is the
    # lexicographically least counterexample.  Each depth keeps only its
    # heads and their parents' indices; frontier holds this depth's masks.
    heads = [array("q", sys._by_label)]
    parents: list[array] = []
    frontier = [near[p] for p in sys._by_label]
    # A frontier with no dead entry fixes every later one by its set of
    # (head, survivor mask) keys alone.  met maps each such set to the
    # depth it was first met at; built counts the entries of each depth.
    met = {frozenset(zip(heads[0], frontier)): 1}
    built: list[int] = []
    explored = 0
    for depth in range(1, horizon + 1):
        next_heads, next_parents, next_frontier = array("q"), array("q"), []
        seen: set[tuple[int, int]] = set()
        # A head's children depend only on its step mask and the image of
        # its survivors.  Once one head with that pair is expanded, every
        # live child is in seen, so a later head adds only the dead ones.
        expanded: dict[tuple[int, int], list[int]] = {}
        for i, (p, alive) in enumerate(zip(heads[-1], frontier)):
            if not alive:
                path = _rebuild_path(labels, heads, parents, i)
                return ShadowingReport(
                    False, epsilon, delta, horizon, "exhaustive",
                    counterexample=path,
                    failure_trace=_failure_trace(sys, near, image, path),
                    states_explored=explored)
            if depth == horizon:
                continue
            img = image(alive)
            pair = (steps[p], img)
            dead = expanded.get(pair)
            first = dead is None
            if first:
                dead = expanded[pair] = []
            for q in ordered[steps[p]] if first else dead:
                nxt_alive = img & near[q]
                if nxt_alive:
                    key = (q, nxt_alive)
                    if key in seen:
                        continue
                    seen.add(key)
                elif first:
                    dead.append(q)
                explored += 1
                if explored > state_cap:
                    raise TooLarge("exhaustive search exceeded %d states" % state_cap)
                next_heads.append(q)
                next_parents.append(i)
                next_frontier.append(nxt_alive)
        if depth == horizon:
            break
        heads.append(next_heads)
        parents.append(next_parents)
        frontier = next_frontier
        built.append(len(frontier))
        if len(frontier) == len(seen):
            # No dead entry.  A key set met before repeats, with the sets
            # after it, for ever: nothing dies, and each later depth
            # builds as many entries as its place in that period did.
            start = met.setdefault(frozenset(seen), depth + 1)
            if start <= depth:
                period = built[start - 1:]
                rest = horizon - 1 - depth
                explored += (rest // len(period) * sum(period)
                             + sum(period[:rest % len(period)]))
                break
    return ShadowingReport(True, epsilon, delta, horizon, "exhaustive",
                           states_explored=explored)


def _rebuild_path(labels: tuple[str, ...], heads: list[array],
                  parents: list[array], i: int) -> tuple[str, ...]:
    """Labels of the pseudo-orbit that ends at entry i of the last depth,
    read back through each depth's parent indices."""
    path = [heads[-1][i]]
    for hd, up in zip(reversed(heads[:-1]), reversed(parents)):
        i = up[i]
        path.append(hd[i])
    return tuple(labels[p] for p in reversed(path))


def _lost_at(image: Callable[[int], int], tube: Sequence[int], alive: int) -> int:
    """First index t at which no orbit started in the mask alive is still
    inside the balls tube[0..t], or -1 if one always is."""
    for t, ball in enumerate(tube):
        alive = (image(alive) if t else alive) & ball
        if not alive:
            return t
    return -1


def _failure_trace(sys: FiniteSystem, near: list[int],
                   image: Callable[[int], int],
                   path: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
    """For each starting point, in label order, the first index where
    every true orbit from it has left the epsilon-tube (balls near) around
    the pseudo-orbit."""
    pos = sys._pos
    tube = [near[pos[p]] for p in path]
    return tuple((sys.labels[s], _lost_at(image, tube, 1 << s)) for s in sys._by_label)


def _sampled_check(sys: FiniteSystem, near: list[int],
                   image: Callable[[int], int], steps: list[int],
                   epsilon: Fraction, delta: Fraction, horizon: int,
                   samples: int, seed: int) -> ShadowingReport:
    """Seeded random pseudo-orbits: a uniform start, then uniform steps
    among each point's step mask read in index order."""
    rng = random.Random(seed)
    lists = _bit_lists(steps)
    choices = [lists[m] for m in steps]
    points = range(len(sys.labels))
    for checked in range(1, samples + 1):
        path = [rng.choice(points)]
        for _ in range(horizon - 1):
            path.append(rng.choice(choices[path[-1]]))
        tube = [near[p] for p in path]
        if _lost_at(image, tube, tube[0]) >= 0:
            counterexample = tuple(sys.labels[p] for p in path)
            return ShadowingReport(False, epsilon, delta, horizon, "sampled",
                                   counterexample=counterexample,
                                   failure_trace=_failure_trace(sys, near, image,
                                                                counterexample),
                                   orbits_checked=checked)
    return ShadowingReport(True, epsilon, delta, horizon, "sampled",
                           orbits_checked=samples)


def is_pseudo_orbit(sys: FiniteSystem, delta: Fraction,
                    path: Sequence[str]) -> bool:
    pos = sys._pos
    steps = _step_masks(sys, delta)
    return all(steps[pos[p]] >> pos[q] & 1 for p, q in zip(path, path[1:]))


def is_shadowed(sys: FiniteSystem, epsilon: Fraction,
                path: Sequence[str]) -> bool:
    near = _balls(sys, epsilon)
    tube = [near[sys._pos[p]] for p in path]
    return not tube or _lost_at(_image_map(sys._succ), tube, tube[0]) < 0


# ---------------------------------------------------------------------------
# Truncated shifts as finite systems


def _check_size(points: int, max_points: int) -> None:
    if points > max_points:
        raise TooLarge("truncation exceeds %d points" % max_points)


def truncate_shift(g: SftGraph, depth: int) -> FiniteSystem:
    """Admissible depth-words with the cylinder word metric.  Successors of
    a word drop its first symbol and append every admissible continuation,
    so orbits of the truncation are exactly the shift orbits as far as the
    truncation can see.  Raises TooLarge above MAX_TRUNCATION_POINTS words
    or MAX_TRUNCATION_SYMBOLS symbols: the listing stops at the first word
    past either cap.  Built once per graph value, depth and the two caps
    as they stand at the call; the system is immutable, so callers share
    it."""
    return _truncation(g, depth, MAX_TRUNCATION_POINTS, MAX_TRUNCATION_SYMBOLS)


@lru_cache(maxsize=MEMO_SIZE)
def _truncation(g: SftGraph, depth: int, max_points: int,
                max_symbols: int) -> FiniteSystem:
    if depth < 1:
        raise PreconditionError("truncation depth must be at least 1")
    sep = "." if any(len(a) > 1 for a in g.alphabet) else ""
    if sep:
        _undotted(g.alphabet, "truncation symbol")
    # Even one word past the symbol cap is too many.
    if depth > max_symbols:
        raise TooLarge("truncation exceeds %d symbols" % max_symbols)
    cap = min(max_points, max_symbols // depth)
    words = list(itertools.islice(_words(g, depth), cap + 1))
    _check_size(len(words), max_points)
    if len(words) * depth > max_symbols:
        raise TooLarge("truncation exceeds %d symbols" % max_symbols)
    if not words:
        raise PreconditionError("no admissible words at this depth")
    labels = tuple(sep.join(w) for w in words)
    at = {w: i for i, w in enumerate(words)}
    succ = {}
    for lab, w in zip(labels, words):
        tail = w[1:]
        nxt = sorted(labels[at[tail + (sym,)]] for sym in g.alphabet
                     if tail + (sym,) in at)
        if not nxt:
            raise InternalInvariantViolation("truncated word has no successor")
        succ[lab] = nxt
    return FiniteSystem(labels, words, succ)


# ---------------------------------------------------------------------------
# The gap family


def gap_shift_graph(k: int) -> SftGraph:
    """Binary shift where any two 1 symbols are separated by at least k
    zeros (free when k = 0)."""
    if k < 0:
        raise PreconditionError("gap parameter must be nonnegative")
    forbidden = [("1",) + ("0",) * j + ("1",) for j in range(k)]
    return from_forbidden_words(["0", "1"], forbidden)


def limit_gap_system(max_tail: int = 8) -> FiniteSystem:
    """Finite stand-in for the k -> infinity member of the gap family: a
    single fixed point z_inf and points z_m (a lone 1 preceded by m zeros)
    that march into it, with d(z_m, z_m') = 2**-min(m, m') and the map
    z_m -> z_(m-1), z_0 -> z_inf.  Built once per tail and point cap as it
    stands at the call; the system is immutable, so callers share it."""
    return _limit_gap(max_tail, MAX_TRUNCATION_POINTS)


@lru_cache(maxsize=MEMO_SIZE)
def _limit_gap(max_tail: int, max_points: int) -> FiniteSystem:
    if max_tail < 0:
        raise PreconditionError("limit tail length must be nonnegative")
    _check_size(max_tail + 2, max_points)
    labels = ("zinf",) + tuple("z%d" % m for m in range(max_tail + 1))
    # z_m is the word 0^m 1 0^(T-m) and z_inf the all-zero word 0^(T+1),
    # so two points share the prefix of the shallower one, with z_inf
    # deepest of all.
    words = ("0" * (max_tail + 1),) + tuple(
        "0" * m + "1" + "0" * (max_tail - m) for m in range(max_tail + 1))
    succ = {lab: (labels[i - 1] if i > 1 else "zinf",) for i, lab in enumerate(labels)}
    return FiniteSystem(labels, words, succ)


def limit_gap_pseudo_orbit(horizon: int) -> tuple[str, ...]:
    """Cyclic pseudo-orbit that repeatedly walks z4 down to z0 and jumps
    back up instead of falling into the fixed point."""
    top = 4
    cycle = ["z%d" % m for m in range(top, -1, -1)]
    out = []
    while len(out) < horizon:
        out.extend(cycle)
    return tuple(out[:horizon])


# ---------------------------------------------------------------------------
# The layered interval example


@dataclass(frozen=True)
class LayeredStratum:
    """Base words that share one fiber system, built once."""

    index: int                 # gap parameter for endpoint strata, 0 for interior
    kind: str                  # "endpoint" | "interior"
    base_points: tuple[str, ...]
    fiber: FiniteSystem


@dataclass(frozen=True)
class LayeredExample:
    """The example kept as its strata: a stratum's points are its base
    words times its fiber's points, and the map is the fiber map on each
    copy, so the product is never listed.  The metric is kept only within
    each fiber, by its own system."""

    base_value: dict[str, Fraction]
    strata: tuple[LayeredStratum, ...]
    scales: tuple[tuple[Fraction, Fraction], ...]   # (epsilon_k, delta_k)


def switch_level(word: Word) -> int:
    """Last position where the symbol changes, and 1 when it never does."""
    j = 1
    for t in range(1, len(word)):
        if word[t] != word[t - 1]:
            j = t
    return j


def build_layered_example(base_depth: int = 4,
                          fiber_depth: int = 12) -> LayeredExample:
    """Product of a Cantor-style embedded base with per-point fibers.

    The base is the set of binary words of a fixed depth, embedded in the
    unit interval so that successive refinements shrink geometrically.
    Words whose last symbol switch happens at position k <= 3 carry a
    truncated gap-k fiber and scales (2**-k, 2**-k / 4); all other words
    carry the finite limit system with tail 8.  The map is the identity on
    the base and the fiber map on each fiber, so chain components are
    exactly the fibers.  Each stratum's fiber is built once, in stratum
    order, so the gap-1 fiber, the largest, meets a truncation cap first.
    Raises TooLarge above MAX_TRUNCATION_POINTS base words, from the base
    depth alone, before listing them.
    """
    if base_depth < 0:
        raise PreconditionError("base depth must be nonnegative")
    endpoint_max, limit_tail = 3, 8
    # The base is the depth-base_depth truncation of the full 2-shift, so
    # it is capped like one: its 2**d words pass the cap exactly when d
    # reaches the cap's bit length.
    _check_size(2 ** min(base_depth, MAX_TRUNCATION_POINTS.bit_length()),
                MAX_TRUNCATION_POINTS)
    words = list(itertools.product("01", repeat=base_depth))
    # Interval embedding: each refinement level splits with a geometric
    # contraction tied to the finest scale used so far.
    eps = [Fraction(1, 2 ** k) for k in range(1, endpoint_max + 1)]
    deltas = [e / 4 for e in eps]
    contraction = [Fraction(1, 4)]
    for k in range(1, base_depth):
        prev = contraction[-1]
        finest = min([prev / 4] + [d / 4 for d in deltas])
        contraction.append(finest)
    base_value = {}
    for w in words:
        v = Fraction(0)
        for t, sym in enumerate(w):
            if sym == "1":
                v += contraction[t]
        base_value["".join(w)] = v
    if len(set(base_value.values())) != len(words):
        raise InternalInvariantViolation("base embedding is not injective")

    strata_points: dict[tuple[str, int], list[str]] = {}
    for w in words:
        j = switch_level(w)
        key = ("endpoint", j) if j <= endpoint_max else ("interior", 0)
        strata_points.setdefault(key, []).append("".join(w))
    strata = tuple(
        LayeredStratum(idx, kind, tuple(base),
                       truncate_shift(gap_shift_graph(idx), fiber_depth)
                       if kind == "endpoint" else limit_gap_system(limit_tail))
        for (kind, idx), base in sorted(strata_points.items()))
    scales = tuple((eps[k - 1], deltas[k - 1]) for k in range(1, endpoint_max + 1))
    return LayeredExample(base_value, strata, scales)


@dataclass(frozen=True)
class LayeredCensus:
    stratum_sizes: dict[int, int]
    interior_count: int
    component_count: int
    fibers_invariant: bool
    fibers_transitive: bool
    base_values_distinct: bool


def layered_census(ex: LayeredExample) -> LayeredCensus:
    """Structural component census: every fiber is invariant under the map,
    internally chain transitive at its own resolution, and sits over its
    own base value, so the chain components are exactly the fibers.  Each
    check runs once per stratum, on the fiber that all its copies share."""
    sizes = {s.index: len(s.base_points) for s in ex.strata if s.kind == "endpoint"}
    interior = sum(len(s.base_points) for s in ex.strata if s.kind == "interior")
    invariant = all(q in s.fiber._pos for s in ex.strata
                    for succ in s.fiber.successors.values() for q in succ)
    transitive = all(_fiber_chain_transitive(s.fiber) for s in ex.strata)
    distinct = len(set(ex.base_value.values())) == len(ex.base_value)
    return LayeredCensus(sizes, interior, len(ex.base_value),
                         invariant, transitive, distinct)


def _fiber_chain_transitive(f: FiniteSystem) -> bool:
    """Chain transitive at the fiber's own finest positive distance."""
    delta = Fraction(1, 1 << max(f._lcp, default=0))
    masks = _step_masks(f, delta)
    lists = _bit_lists(masks)
    steps = {i: lists[m] for i, m in enumerate(masks)}
    # One strongly connected component chains every point to every point:
    # through another point, or, in a one-point space, by the map itself.
    return len(_sccs(range(len(f.labels)), steps)) <= 1


def layered_fiber_shadowing(ex: LayeredExample,
                            horizon: int = 8) -> dict[str, ShadowingReport]:
    """Per-fiber shadowing at that stratum's scales.  Interior fibers reuse
    the coarsest endpoint scales."""
    out = {}
    for s in ex.strata:
        if s.kind == "endpoint":
            eps, delta = ex.scales[s.index - 1]
        else:
            eps, delta = ex.scales[-1]
        # One check of the stratum's fiber covers all of its copies.
        rep = brute_shadowing_check(s.fiber, eps, delta, horizon)
        for w in s.base_points:
            key = ("A%d" % s.index if s.kind == "endpoint" else "interior") + ":" + w
            out[key] = rep
    return out
