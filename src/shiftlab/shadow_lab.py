"""Brute-force shadowing experiments on finite metric systems.

A finite system is a finite set of points with an exact rational metric and
a self-map.  A delta-pseudo-orbit is a sequence where each step lands
within delta of the true image; it is epsilon-shadowed when some true orbit
stays within epsilon of it coordinatewise.  The exhaustive checker walks
pseudo-orbits breadth first while tracking, for each one, the set of
shadowing-orbit states that are still alive, so the work is bounded by
the number of distinct (point, survivor set) pairs instead of the raw tree
of pseudo-orbits.

Distances are ``Fraction`` values at the API, but every system carries an
integer index built once at construction: the metric times the least
common multiple of its denominators, and each successor set as an ``int``
bitmask (bit i is ``labels[i]``).  The metric checks run on that matrix,
each epsilon- or delta-ball is one bitmask computed once per threshold per
call, and survivor sets are bitmasks too, so the checks stay exact without
any ``Fraction`` arithmetic in their loops.  Every system's ``dist`` is a
lazy read-only view of that matrix as exact ``Fraction``s; a metric given
as a mapping is read into such a view once.

Shift truncations and the limit system are prefix metrics: two points at
common prefix length k are 2**-k apart.  They build the integer matrix
straight from the prefix lengths, with no per-pair Python step.  Both
refuse more than ``MAX_TRUNCATION_POINTS`` points.
"""

from __future__ import annotations

import itertools
import math
import random
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from operator import or_
from types import MappingProxyType
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

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
    follower,
    from_forbidden_words,
    full_shift,
    words_of_length,
)

# Elements of the largest temporary the triangle check builds: it works on
# blocks of rows, so it stays quadratic in memory.
_TRIANGLE_BLOCK = 1 << 20

# Most points a truncation or limit system may have: the full 2-shift at
# depth 12 still builds, and every point costs a row of the n x n metric.
MAX_TRUNCATION_POINTS = 4096


class _Index(NamedTuple):
    """Integer form of a finite system, derived once from its labels,
    metric and successors."""

    pos: Mapping[str, int]          # label -> index
    by_label: tuple[int, ...]       # indices in sorted-label order
    scale: int                      # least common multiple of the denominators
    dm: np.ndarray                  # distances times scale, read-only
    succ: tuple[int, ...]           # successor bitmask of each index


@dataclass(frozen=True)
class FiniteSystem:
    """Finite metric space with a successor relation.  Points are labels,
    the metric is a symmetric rational matrix keyed by label pairs, and
    each point has a nonempty set of successors.  A truncated shift keeps
    every admissible extension as a successor; a genuine self-map has
    singleton successor sets.  ``dist`` is always a ``_MetricView``: a view
    over the same labels is kept as it is, and any other mapping is read
    once into a new view, so later changes to the caller's mapping change
    nothing.  The view's integer matrix becomes the index, checked the same
    way on either path.  Successors are stored as a read-only copy."""

    labels: tuple[str, ...]
    dist: Mapping[tuple[str, str], Fraction] = field(compare=False)
    successors: Mapping[str, tuple[str, ...]] = field(compare=False)
    _index: _Index = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set(self.labels)
        if len(seen) != len(self.labels):
            raise PreconditionError("duplicate point labels")
        for p in self.labels:
            succ = self.successors.get(p)
            if not succ or any(q not in seen for q in succ):
                raise PreconditionError("successors not defined into the space at %r" % p)
        view = self.dist
        if not (isinstance(view, _MetricView) and view.labels == self.labels):
            view = _MetricView.of(self.labels, view)
        _check_metric(self.labels, view.dm)
        object.__setattr__(self, "dist", view)
        pos = view.pos
        successors = {p: tuple(self.successors[p]) for p in self.labels}
        object.__setattr__(self, "successors", MappingProxyType(successors))
        object.__setattr__(self, "_index", _Index(
            pos,
            tuple(sorted(range(len(self.labels)), key=self.labels.__getitem__)),
            view.scale, view.dm,
            tuple(reduce(or_, (1 << pos[q] for q in successors[p])) for p in self.labels)))
        # The cubic triangle check is opt-in via check_triangle; it runs
        # automatically only on small spaces.
        if len(self.labels) <= 40:
            check_triangle(self)

    def d(self, p: str, q: str) -> Fraction:
        return self.dist[(p, q)]


def _dtype(largest: int) -> type:
    """int64 when twice the largest scaled distance fits, exact Python
    ints otherwise."""
    return object if 2 * largest > np.iinfo(np.int64).max else np.int64


def _check_metric(labels: Sequence[str], dm: np.ndarray) -> None:
    """Raise on the first bad entry of an integer metric in row-major
    order: negative (a missing entry reads as -1), nonzero on the diagonal
    or zero off it, or unequal to its transpose."""
    n = len(labels)
    missing = dm < 0
    diagonal = (dm == 0) != np.eye(n, dtype=bool)
    bad = np.flatnonzero(missing | diagonal | (dm != dm.T))
    if bad.size:
        i, j = divmod(int(bad[0]), n)
        if missing[i, j]:
            raise PreconditionError("metric missing or negative at (%r, %r)"
                                    % (labels[i], labels[j]))
        if diagonal[i, j]:
            raise PreconditionError("metric must vanish exactly on the diagonal")
        raise PreconditionError("metric not symmetric at (%r, %r)"
                                % (labels[i], labels[j]))


class _MetricView(Mapping):
    """Read-only view of an integer metric matrix, the distances times
    scale, as exact distances keyed by label pairs, in row-major label
    order.  frac maps each scaled value to the one distance object handed
    out for it."""

    def __init__(self, labels: tuple[str, ...], dm: np.ndarray, scale: int,
                 frac: dict[int, Fraction]):
        self.labels, self.dm, self.scale, self._frac = labels, dm, scale, frac
        self.pos = MappingProxyType({p: i for i, p in enumerate(labels)})

    @classmethod
    def of(cls, labels: tuple[str, ...],
           dist: Mapping[tuple[str, str], Fraction]) -> "_MetricView":
        """A mapping's metric over labels, scaled by the least common
        multiple of its denominators, handing out the mapping's own value
        objects.  A missing entry becomes -1."""
        vals = [dist.get((p, q)) for p in labels for q in labels]
        scale = math.lcm(*{d.denominator for d in vals if d is not None})
        ints = [-1 if d is None else d.numerator * (scale // d.denominator) for d in vals]
        dm = np.array(ints, dtype=_dtype(max(map(abs, ints), default=0)))
        dm = dm.reshape(len(labels), len(labels))
        dm.flags.writeable = False
        return cls(labels, dm, scale, dict(zip(ints, vals)))

    def __getitem__(self, key) -> Fraction:
        try:
            p, q = key
            i, j = self.pos[p], self.pos[q]
        except (KeyError, TypeError, ValueError):
            raise KeyError(key) from None
        return self._frac[int(self.dm[i, j])]

    def __iter__(self):
        return ((p, q) for p in self.labels for q in self.labels)

    def __len__(self) -> int:
        return len(self.labels) ** 2

    def items(self):
        return _ListedItems(self)


class _ListedItems(ItemsView):
    """Items of a _MetricView, read off one ``tolist`` of its matrix."""

    def __iter__(self):
        view = self._mapping
        for p, row in zip(view.labels, view.dm.tolist()):
            for q, k in zip(view.labels, row):
                yield (p, q), view._frac[k]


def _prefix_metric(labels: tuple[str, ...], top: int, lcp: np.ndarray) -> _MetricView:
    """The metric 2**-k between distinct words with common prefix length
    k, scaled by 2**top.  lcp holds the prefix lengths, at most top off the
    diagonal and at most top + 1 on it.  Two of the words, if there are
    two, differ in their first symbol, so the largest entry is 2**top, and
    scale and dtype are what _MetricView.of gives for the same distances."""
    # powers[k] is the scaled distance at prefix length k, and the mark
    # top + 1 maps to 0, the distance of a point to itself.
    powers = [1 << (top - k) for k in range(top + 1)] + [0]
    dm = np.array(powers, dtype=_dtype(1 << top))[lcp]
    np.fill_diagonal(dm, 0)
    dm.flags.writeable = False
    return _MetricView(labels, dm, 1 << top, {k: Fraction(k, 1 << top) for k in powers})


def check_triangle(sys: "FiniteSystem") -> None:
    """Raise through the middle point q of the first (p, q, r), in
    lexicographic index order, with d(p, r) > d(p, q) + d(q, r)."""
    dm = sys._index.dm
    n = len(dm)
    block = max(1, _TRIANGLE_BLOCK // max(1, n * n))
    for lo in range(0, n, block):
        rows = dm[lo:lo + block]
        fails = rows[:, None, :] > rows[:, :, None] + dm[None, :, :]
        hit = np.flatnonzero(fails.any(axis=2))
        if hit.size:
            raise PreconditionError(
                "triangle inequality fails through %r" % sys.labels[hit[0] % n])


def system_from_function(labels: Sequence[str],
                         metric: Callable[[str, str], Fraction],
                         mapping: Callable[[str], object]) -> FiniteSystem:
    """mapping may return a single label or a sequence of labels; metric
    values that already are Fractions are kept as they are."""
    labels = tuple(labels)
    dist = {}
    for p in labels:
        for q in labels:
            d = metric(p, q)
            dist[(p, q)] = d if isinstance(d, Fraction) else Fraction(d)
    succ = {}
    for p in labels:
        img = mapping(p)
        succ[p] = (img,) if isinstance(img, str) else tuple(sorted(img))
    return FiniteSystem(labels, dist, succ)


# ---------------------------------------------------------------------------
# Bitmask primitives


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _balls(sys: FiniteSystem, radius: Fraction) -> list[int]:
    """Bitmask of the closed radius-ball around each point.  A scaled
    distance k is at most radius * scale exactly when it is at most the
    floor of that product."""
    ix = sys._index
    r = Fraction(radius)
    within = ix.dm <= r.numerator * ix.scale // r.denominator
    return [int.from_bytes(row.tobytes(), "little")
            for row in np.packbits(within, axis=1, bitorder="little")]


def _image_map(sys: FiniteSystem) -> Callable[[int], int]:
    """Image of a point mask under the successor relation, memoised for
    the lifetime of the returned function (one call of a checker)."""
    succ = sys._index.succ
    memo: dict[int, int] = {}

    def image(mask: int) -> int:
        img = memo.get(mask)
        if img is None:
            img = memo[mask] = reduce(or_, (succ[i] for i in _bits(mask)), 0)
        return img

    return image


def _step_masks(sys: FiniteSystem, delta: Fraction) -> list[int]:
    """Mask of the legal delta-pseudo-orbit steps from each point: q
    follows p when q lands within delta of some successor of p."""
    ball = _balls(sys, delta)
    return [reduce(or_, (ball[y] for y in _bits(s)), 0) for s in sys._index.succ]


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
    """The steps of _step_masks as lists of labels, in label order."""
    labels = sys.labels
    return {labels[i]: [labels[j] for j in _bits(m)]
            for i, m in enumerate(_step_masks(sys, delta))}


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
    if mode == "sampled":
        if samples < 1:
            raise InvalidScales("sampled mode needs at least one sample")
        return _sampled_check(sys, _successor_table(sys, delta), epsilon, delta,
                              horizon, samples, seed)
    if mode != "exhaustive":
        raise PreconditionError("mode must be 'exhaustive' or 'sampled'")
    labels = sys.labels
    near = _balls(sys, epsilon)
    image = _image_map(sys)
    steps = [sorted(_bits(m), key=labels.__getitem__)
             for m in _step_masks(sys, delta)]
    # BFS over (pseudo-orbit head, survivor mask); paths expand in sorted
    # label order so the first failure found at the shortest depth is the
    # lexicographically least counterexample.
    frontier = [(p, near[p], (labels[p],)) for p in sys._index.by_label]
    explored = 0
    for depth in range(1, horizon + 1):
        next_frontier = []
        seen: set[tuple[int, int]] = set()
        for (p, alive, path) in frontier:
            if not alive:
                return ShadowingReport(
                    False, epsilon, delta, horizon, "exhaustive",
                    counterexample=path,
                    failure_trace=_failure_trace(sys, near, image, path),
                    states_explored=explored)
            if depth == horizon:
                continue
            img = image(alive)
            for q in steps[p]:
                nxt_alive = img & near[q]
                key = (q, nxt_alive)
                if nxt_alive and key in seen:
                    continue
                seen.add(key)
                explored += 1
                if explored > state_cap:
                    raise TooLarge("exhaustive search exceeded %d states" % state_cap)
                next_frontier.append((q, nxt_alive, path + (labels[q],)))
        frontier = next_frontier
    return ShadowingReport(True, epsilon, delta, horizon, "exhaustive",
                           states_explored=explored)


def _failure_trace(sys: FiniteSystem, near: list[int],
                   image: Callable[[int], int],
                   path: tuple[str, ...]) -> tuple[tuple[str, int], ...]:
    """For each starting point, the first index where every true orbit
    from it has left the epsilon-tube (balls near) around the
    pseudo-orbit."""
    ix = sys._index
    tube = [near[ix.pos[p]] for p in path]
    out = []
    for start in ix.by_label:
        alive = (1 << start) & tube[0]
        fail = 0 if not alive else -1
        for t in range(1, len(path)):
            if not alive:
                break
            alive = image(alive) & tube[t]
            if not alive:
                fail = t
        out.append((sys.labels[start], fail))
    return tuple(out)


def _sampled_check(sys: FiniteSystem, succ: dict, epsilon: Fraction,
                   delta: Fraction, horizon: int, samples: int,
                   seed: int) -> ShadowingReport:
    rng = random.Random(seed)
    near = _balls(sys, epsilon)
    image = _image_map(sys)
    checked = 0
    for _ in range(samples):
        path = [rng.choice(sys.labels)]
        for _ in range(horizon - 1):
            nxt = succ[path[-1]]
            if not nxt:
                break
            path.append(rng.choice(nxt))
        checked += 1
        if not _shadowed(sys, near, image, path):
            return ShadowingReport(False, epsilon, delta, horizon, "sampled",
                                   counterexample=tuple(path),
                                   failure_trace=_failure_trace(sys, near, image,
                                                                tuple(path)),
                                   orbits_checked=checked)
    return ShadowingReport(True, epsilon, delta, horizon, "sampled",
                           orbits_checked=checked)


def is_pseudo_orbit(sys: FiniteSystem, delta: Fraction,
                    path: Sequence[str]) -> bool:
    ix = sys._index
    ball = _balls(sys, delta)
    return all(ix.succ[ix.pos[path[t]]] & ball[ix.pos[path[t + 1]]]
               for t in range(len(path) - 1))


def is_shadowed(sys: FiniteSystem, epsilon: Fraction,
                path: Sequence[str]) -> bool:
    return _shadowed(sys, _balls(sys, epsilon), _image_map(sys), path)


def _shadowed(sys: FiniteSystem, near: list[int], image: Callable[[int], int],
              path: Sequence[str]) -> bool:
    pos = sys._index.pos
    alive = near[pos[path[0]]]
    for p in path[1:]:
        alive = image(alive) & near[pos[p]]
        if not alive:
            return False
    return bool(alive)


# ---------------------------------------------------------------------------
# Truncated shifts as finite systems


def _check_size(points: int) -> None:
    if points > MAX_TRUNCATION_POINTS:
        raise TooLarge("truncation exceeds %d points" % MAX_TRUNCATION_POINTS)


def _count_words(g: SftGraph, length: int) -> int:
    """Admissible words of the given length, counted as paths from the
    start of the follower automaton, or the first count of a shorter
    length past MAX_TRUNCATION_POINTS.  Every state has a successor, so
    the counts never fall as the length grows."""
    f = follower(g)
    counts = [1] + [0] * (len(f.states) - 1)
    for _ in range(length):
        if sum(counts) > MAX_TRUNCATION_POINTS:
            break
        nxt = [0] * len(counts)
        for (i, _a), j in f.trans.items():
            nxt[j] += counts[i]
        counts = nxt
    return sum(counts)


def _common_prefix(u: Word, v: Word) -> int:
    return next((j for j, (a, b) in enumerate(zip(u, v)) if a != b), len(u))


def truncate_shift(g: SftGraph, depth: int) -> FiniteSystem:
    """Admissible depth-words with the cylinder word metric.  Successors of
    a word drop its first symbol and append every admissible continuation,
    so orbits of the truncation are exactly the shift orbits as far as the
    truncation can see.  Raises TooLarge above MAX_TRUNCATION_POINTS words,
    before listing them."""
    if depth < 1:
        raise PreconditionError("truncation depth must be at least 1")
    _check_size(_count_words(g, depth))
    words = words_of_length(g, depth)
    if not words:
        raise PreconditionError("no admissible words at this depth")
    sep = "." if any(len(a) > 1 for a in g.alphabet) else ""
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
    # Sorted words: the common prefix of words i < j is the least common
    # prefix of the adjacent pairs between them, a running minimum of h.
    h = np.array([_common_prefix(u, v) for u, v in zip(words, words[1:])],
                 dtype=np.min_scalar_type(depth + 1))
    top = int(h.max(initial=0))
    lcp = np.full((len(words), len(words)), top + 1, dtype=h.dtype)
    for i in range(len(h)):
        lcp[i, i + 1:] = np.minimum.accumulate(h[i:])
    dist = _prefix_metric(labels, top, np.minimum(lcp, lcp.T))
    return FiniteSystem(labels, dist, succ)


# ---------------------------------------------------------------------------
# The gap family


def gap_shift_graph(k: int) -> SftGraph:
    """Binary shift where any two 1 symbols are separated by at least k
    zeros (free when k = 0)."""
    if k < 0:
        raise PreconditionError("gap parameter must be nonnegative")
    forbidden = [("1",) + ("0",) * j + ("1",) for j in range(k)]
    return from_forbidden_words(["0", "1"], forbidden)


def gap_entropy_oracle(k: int) -> float:
    """log of the largest root of x**(k+1) = x**k + 1, by bisection."""

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
    if max_tail < 0:
        raise PreconditionError("limit tail length must be nonnegative")
    _check_size(max_tail + 2)
    labels = ("zinf",) + tuple("z%d" % m for m in range(max_tail + 1))
    # z_m is the word 0^m 1 and z_inf the all-zero word, so two points
    # share the prefix of the shallower one, with z_inf deepest of all.
    depth = np.array([max_tail + 1] + list(range(max_tail + 1)))
    succ = {lab: (labels[i - 1] if i > 1 else "zinf",) for i, lab in enumerate(labels)}
    dist = _prefix_metric(labels, max_tail, np.minimum.outer(depth, depth))
    return FiniteSystem(labels, dist, succ)


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
    the fibers.  Raises TooLarge above MAX_TRUNCATION_POINTS base words,
    before listing them.
    """
    if base_depth < 0:
        raise PreconditionError("base depth must be nonnegative")
    # The base is the depth-base_depth truncation of the full 2-shift, so
    # it is capped like one, before any word is listed.
    _check_size(_count_words(full_shift(["0", "1"]), base_depth))
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
    ix = f._index
    positive = ix.dm[~np.eye(len(f.labels), dtype=bool)]
    delta = Fraction(int(positive.min()), ix.scale) if positive.size else Fraction(1)
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
