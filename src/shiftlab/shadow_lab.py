"""Brute-force shadowing experiments on finite metric systems.

A finite system is a finite set of points with an exact rational metric and
a self-map.  A delta-pseudo-orbit is a sequence where each step lands
within delta of the true image; it is epsilon-shadowed when some true orbit
stays within epsilon of it coordinatewise.  The exhaustive checker walks
pseudo-orbits breadth first while tracking, for each one, the set of
shadowing-orbit states that are still alive, so the work is bounded by
the number of distinct (point, survivor set) pairs instead of the raw tree
of pseudo-orbits.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .decomposition import _tarjan_sccs
from .errors import (
    InternalInvariantViolation,
    InvalidScales,
    PreconditionError,
    TooLarge,
)
from .shift_core import (
    SftGraph,
    Word,
    from_forbidden_words,
    word_distance,
    words_of_length,
)


@dataclass(frozen=True)
class FiniteSystem:
    """Finite metric space with a successor relation.  Points are labels,
    the metric is a symmetric rational matrix keyed by label pairs, and
    each point has a nonempty set of successors.  A truncated shift keeps
    every admissible extension as a successor; a genuine self-map has
    singleton successor sets."""

    labels: tuple[str, ...]
    dist: dict[tuple[str, str], Fraction] = field(compare=False)
    successors: dict[str, tuple[str, ...]] = field(compare=False)

    def __post_init__(self):
        seen = set(self.labels)
        if len(seen) != len(self.labels):
            raise PreconditionError("duplicate point labels")
        for p in self.labels:
            succ = self.successors.get(p)
            if not succ or any(q not in seen for q in succ):
                raise PreconditionError("successors not defined into the space at %r" % p)
        for p in self.labels:
            for q in self.labels:
                d = self.dist.get((p, q))
                if d is None or d < 0:
                    raise PreconditionError("metric missing or negative at (%r, %r)" % (p, q))
                if (d == 0) != (p == q):
                    raise PreconditionError("metric must vanish exactly on the diagonal")
                if d != self.dist.get((q, p)):
                    raise PreconditionError("metric not symmetric at (%r, %r)" % (p, q))
        # The cubic triangle check is opt-in via check_triangle; it runs
        # automatically only on small spaces.
        if len(self.labels) <= 40:
            check_triangle(self)

    def d(self, p: str, q: str) -> Fraction:
        return self.dist[(p, q)]


def check_triangle(sys: "FiniteSystem") -> None:
    for p in sys.labels:
        for q in sys.labels:
            for r in sys.labels:
                if sys.dist[(p, r)] > sys.dist[(p, q)] + sys.dist[(q, r)]:
                    raise PreconditionError(
                        "triangle inequality fails through %r" % q)


def system_from_function(labels: Sequence[str],
                         metric: Callable[[str, str], Fraction],
                         mapping: Callable[[str], object]) -> FiniteSystem:
    """mapping may return a single label or a sequence of labels."""
    labels = tuple(labels)
    dist = {(p, q): Fraction(metric(p, q)) for p in labels for q in labels}
    succ = {}
    for p in labels:
        img = mapping(p)
        succ[p] = (img,) if isinstance(img, str) else tuple(sorted(img))
    return FiniteSystem(labels, dist, succ)


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


def _successor_table(sys: FiniteSystem, delta: Fraction) -> dict[str, list[str]]:
    """Legal delta-pseudo-orbit steps: q follows p when q lands within
    delta of some successor of p."""
    return {p: [q for q in sys.labels
                if any(sys.d(y, q) <= delta for y in sys.successors[p])]
            for p in sys.labels}


def brute_shadowing_check(sys: FiniteSystem, epsilon: Fraction, delta: Fraction,
                          horizon: int, mode: str = "exhaustive",
                          samples: int = 200, seed: int = 0,
                          state_cap: int = 10 ** 7) -> ShadowingReport:
    """Does every delta-pseudo-orbit of length <= horizon admit a true
    orbit staying within epsilon of it?

    Exhaustive mode explores pseudo-orbits in lexicographic breadth-first
    order, carrying the survivor set of candidate orbit states, and reports
    the lexicographically least unshadowable pseudo-orbit if one exists.
    Sampled mode draws seeded random pseudo-orbits instead.
    """
    epsilon = Fraction(epsilon)
    delta = Fraction(delta)
    if epsilon <= 0 or delta <= 0:
        raise InvalidScales("epsilon and delta must be positive")
    if horizon < 1:
        raise InvalidScales("horizon must be at least 1")
    succ = _successor_table(sys, delta)
    if mode == "sampled":
        return _sampled_check(sys, succ, epsilon, delta, horizon, samples, seed)
    if mode != "exhaustive":
        raise PreconditionError("mode must be 'exhaustive' or 'sampled'")
    near = {p: frozenset(q for q in sys.labels if sys.d(p, q) <= epsilon)
            for p in sys.labels}
    # BFS over (pseudo-orbit head, survivor set); paths expand in sorted
    # label order so the first failure found at the shortest depth is the
    # lexicographically least counterexample.
    frontier: list[tuple[str, frozenset, tuple[str, ...]]] = []
    for p in sorted(sys.labels):
        frontier.append((p, near[p], (p,)))
    explored = 0
    seen_at_depth: set[tuple[str, frozenset]] = set()
    for depth in range(1, horizon + 1):
        next_frontier = []
        seen: set[tuple[str, frozenset]] = set()
        for (p, alive, path) in frontier:
            if not alive:
                return ShadowingReport(
                    False, epsilon, delta, horizon, "exhaustive",
                    counterexample=path,
                    failure_trace=_failure_trace(sys, epsilon, path),
                    states_explored=explored)
            if depth == horizon:
                continue
            for q in sorted(succ[p]):
                nxt_alive = frozenset(y for a in alive
                                      for y in sys.successors[a]
                                      if y in near[q])
                key = (q, nxt_alive)
                if nxt_alive and key in seen:
                    continue
                seen.add(key)
                explored += 1
                if explored > state_cap:
                    raise TooLarge("exhaustive search exceeded %d states" % state_cap)
                next_frontier.append((q, nxt_alive, path + (q,)))
        frontier = next_frontier
    return ShadowingReport(True, epsilon, delta, horizon, "exhaustive",
                           states_explored=explored)


def _failure_trace(sys: FiniteSystem, epsilon: Fraction,
                   path: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
    """For each starting point, the first index where every true orbit
    from it has left the epsilon-tube around the pseudo-orbit."""
    out = []
    for start in sorted(sys.labels):
        alive = {start} if sys.d(start, path[0]) <= epsilon else set()
        fail = 0 if not alive else -1
        for t, p in enumerate(path[1:], start=1):
            if not alive:
                break
            alive = {y for a in alive for y in sys.successors[a]
                     if sys.d(y, p) <= epsilon}
            if not alive:
                fail = t
        out.append((start, fail))
    return tuple(out)


def _sampled_check(sys: FiniteSystem, succ: dict, epsilon: Fraction,
                   delta: Fraction, horizon: int, samples: int,
                   seed: int) -> ShadowingReport:
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        path = [rng.choice(sys.labels)]
        for _ in range(horizon - 1):
            nxt = succ[path[-1]]
            if not nxt:
                break
            path.append(rng.choice(nxt))
        checked += 1
        if not is_shadowed(sys, epsilon, tuple(path)):
            return ShadowingReport(False, epsilon, delta, horizon, "sampled",
                                   counterexample=tuple(path),
                                   failure_trace=_failure_trace(sys, epsilon, tuple(path)),
                                   orbits_checked=checked)
    return ShadowingReport(True, epsilon, delta, horizon, "sampled",
                           orbits_checked=checked)


def is_pseudo_orbit(sys: FiniteSystem, delta: Fraction,
                    path: Sequence[str]) -> bool:
    return all(any(sys.d(y, path[t + 1]) <= delta
                   for y in sys.successors[path[t]])
               for t in range(len(path) - 1))


def is_shadowed(sys: FiniteSystem, epsilon: Fraction,
                path: Sequence[str]) -> bool:
    alive = {x for x in sys.labels if sys.d(x, path[0]) <= epsilon}
    for p in path[1:]:
        alive = {y for x in alive for y in sys.successors[x]
                 if sys.d(y, p) <= epsilon}
        if not alive:
            return False
    return bool(alive)


# ---------------------------------------------------------------------------
# Truncated shifts as finite systems


def truncate_shift(g: SftGraph, depth: int) -> FiniteSystem:
    """Admissible depth-words with the cylinder word metric.  Successors of
    a word drop its first symbol and append every admissible continuation,
    so orbits of the truncation are exactly the shift orbits as far as the
    truncation can see."""
    if depth < 1:
        raise PreconditionError("truncation depth must be at least 1")
    words = words_of_length(g, depth)
    if not words:
        raise PreconditionError("no admissible words at this depth")
    wordset = {w for w in words}
    sep = "." if any(len(a) > 1 for a in g.alphabet) else ""
    labels = []
    lookup = {}
    for w in sorted(words):
        lab = sep.join(w)
        labels.append(lab)
        lookup[lab] = w
    rev = {w: lab for lab, w in lookup.items()}
    succ = {}
    for lab, w in lookup.items():
        tail = w[1:]
        nxt = [rev[tail + (sym,)] for sym in sorted(g.alphabet)
               if tail + (sym,) in wordset]
        if not nxt:
            raise InternalInvariantViolation("truncated word has no successor")
        succ[lab] = nxt
    return system_from_function(
        labels,
        lambda p, q: word_distance(lookup[p], lookup[q]),
        lambda p: succ[p])


# ---------------------------------------------------------------------------
# The gap family


def gap_shift_graph(k: int) -> SftGraph:
    """Binary shift where any two 1 symbols are separated by at least k
    zeros (free when k = 0)."""
    forbidden = [("1",) + ("0",) * j + ("1",) for j in range(k)]
    return from_forbidden_words(["0", "1"], forbidden)


def gap_entropy_oracle(k: int) -> float:
    """log of the largest root of x**(k+1) = x**k + 1, by bisection."""
    import math

    def f(x: float) -> float:
        return x ** (k + 1) - x ** k - 1

    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return math.log((lo + hi) / 2)


def limit_gap_system(max_tail: int = 8) -> FiniteSystem:
    """Finite stand-in for the k -> infinity member of the gap family: a
    single fixed point z_inf and points z_m (a lone 1 preceded by m zeros)
    that march into it, with d(z_m, z_m') = 2**-min(m, m') and the map
    z_m -> z_(m-1), z_0 -> z_inf."""
    labels = ["zinf"] + ["z%d" % m for m in range(max_tail + 1)]

    def depth(lab: str) -> Optional[int]:
        return None if lab == "zinf" else int(lab[1:])

    def metric(p: str, q: str) -> Fraction:
        if p == q:
            return Fraction(0)
        dp, dq = depth(p), depth(q)
        vals = [v for v in (dp, dq) if v is not None]
        return Fraction(1, 2 ** min(vals))

    def mapping(p: str) -> str:
        dp = depth(p)
        if dp is None or dp == 0:
            return "zinf"
        return "z%d" % (dp - 1)

    return system_from_function(labels, metric, mapping)


def limit_gap_pseudo_orbit(horizon: int, top: int = 4) -> tuple[str, ...]:
    """Cyclic pseudo-orbit that repeatedly walks z_top down to z_0 and
    jumps back up instead of falling into the fixed point."""
    cycle = ["z%d" % m for m in range(top, -1, -1)]
    out = []
    while len(out) < horizon:
        out.extend(cycle)
    return tuple(out[:horizon])


# ---------------------------------------------------------------------------
# The layered interval example


@dataclass(frozen=True)
class LayeredStratum:
    index: int                 # gap parameter for endpoint strata, 0 for interior
    kind: str                  # "endpoint" | "interior"
    base_points: tuple[str, ...]


@dataclass(frozen=True)
class LayeredExample:
    """The assembled space is large, so the global metric and map are kept
    as functions over labels rather than a dense matrix."""

    labels: tuple[str, ...]
    base_value: dict[str, Fraction]
    fiber_of: dict[str, str]            # point label -> base word
    strata: tuple[LayeredStratum, ...]
    scales: tuple[tuple[Fraction, Fraction], ...]   # (epsilon_k, delta_k)
    fiber_systems: dict[str, FiniteSystem]
    successors: dict[str, tuple[str, ...]]

    def d(self, p: str, q: str) -> Fraction:
        bp, lp = p.split("|", 1)
        bq, lq = q.split("|", 1)
        if bp == bq:
            return self.fiber_systems[bp].d(lp, lq)
        return max(abs(self.base_value[bp] - self.base_value[bq]), Fraction(1))


def switch_level(word: Word) -> int:
    """Last position where the symbol changes, and 1 when it never does."""
    j = 1
    for t in range(1, len(word)):
        if word[t] != word[t - 1]:
            j = t
    return j


def build_layered_example(base_depth: int = 4, endpoint_max: int = 3,
                          fiber_depth: int = 12,
                          limit_tail: int = 8) -> LayeredExample:
    """Product of a Cantor-style embedded base with per-point fibers.

    The base is the set of binary words of a fixed depth, embedded in the
    unit interval so that successive refinements shrink geometrically.
    Words whose last symbol switch happens at position k <= endpoint_max
    carry a truncated gap-k fiber and scales (2**-k, 2**-k / 4); all other
    words carry the finite limit system.  The map is the identity on the
    base and the fiber map on each fiber, so chain components are exactly
    the fibers.
    """
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

    fiber_systems: dict[str, FiniteSystem] = {}
    strata_points: dict[tuple[str, int], list[str]] = {}
    all_labels = []
    dist_pairs = {}
    image = {}
    fiber_of = {}
    fiber_cache: dict[int, FiniteSystem] = {}
    for w in words:
        wkey = "".join(w)
        j = switch_level(w)
        if j <= endpoint_max:
            if j not in fiber_cache:
                fiber_cache[j] = truncate_shift(gap_shift_graph(j), fiber_depth)
            fiber = fiber_cache[j]
            kind, idx = "endpoint", j
        else:
            if -1 not in fiber_cache:
                fiber_cache[-1] = limit_gap_system(limit_tail)
            fiber = fiber_cache[-1]
            kind, idx = "interior", 0
        fiber_systems[wkey] = fiber
        strata_points.setdefault((kind, idx), []).append(wkey)
        for lab in fiber.labels:
            full = wkey + "|" + lab
            all_labels.append(full)
            fiber_of[full] = wkey
            image[full] = tuple(wkey + "|" + q for q in fiber.successors[lab])

    strata = []
    for (kind, idx) in sorted(strata_points):
        strata.append(LayeredStratum(idx, kind,
                                     tuple(sorted(strata_points[(kind, idx)]))))
    scales = tuple((eps[k - 1], deltas[k - 1]) for k in range(1, endpoint_max + 1))
    return LayeredExample(tuple(all_labels), base_value, fiber_of, tuple(strata),
                          scales, fiber_systems, image)


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
    own base value, so the chain components are exactly the fibers."""
    sizes = {}
    interior = 0
    for s in ex.strata:
        if s.kind == "endpoint":
            sizes[s.index] = len(s.base_points)
        else:
            interior = len(s.base_points)
    invariant = all(ex.fiber_of[q] == ex.fiber_of[p]
                    for p in ex.labels for q in ex.successors[p])
    # Fibers of one stratum share one system object; check each once.
    fibers = {id(f): f for f in ex.fiber_systems.values()}
    transitive = all(_fiber_chain_transitive(f) for f in fibers.values())
    distinct = len(set(ex.base_value.values())) == len(ex.base_value)
    return LayeredCensus(sizes, interior, len(ex.fiber_systems),
                         invariant, transitive, distinct)


def _fiber_chain_transitive(f: FiniteSystem) -> bool:
    """Chain transitive at the fiber's own finest positive distance."""
    positive = [f.d(p, q) for p in f.labels for q in f.labels if p != q]
    delta = min(positive) if positive else Fraction(1)
    # One strongly connected component chains every point to every point:
    # through another point, or, in a one-point space, by the map itself.
    return len(_tarjan_sccs(f.labels, _successor_table(f, delta))) <= 1


def layered_fiber_shadowing(ex: LayeredExample, horizon: int = 8,
                            mode: str = "exhaustive") -> dict[str, ShadowingReport]:
    """Per-fiber shadowing at that stratum's scales.  Interior fibers reuse
    the coarsest endpoint scales."""
    out = {}
    for s in ex.strata:
        if s.kind == "endpoint":
            eps, delta = ex.scales[s.index - 1]
        else:
            eps, delta = ex.scales[-1]
        # Fibers within a stratum are identical systems, so one check
        # covers them all.
        rep = brute_shadowing_check(ex.fiber_systems[s.base_points[0]],
                                    eps, delta, horizon, mode=mode)
        for w in s.base_points:
            key = ("A%d" % s.index if s.kind == "endpoint" else "interior") + ":" + w
            out[key] = rep
    return out
