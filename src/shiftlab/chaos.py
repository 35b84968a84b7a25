"""Constructive scrambling machinery.

Everything here is exact: periodic points are enumerated, separation radii
are dyadic rationals, and the scrambled streams are admissible sequences
with block bookkeeping.  A tuple is r-distal (along orbits) when every pair
stays at distance at least r at every common shift.  Streams alternate long
blocks of exact agreement on a reference orbit with long blocks tracking the
separated periodic orbits, with block lengths growing fast enough that each
block dominates the whole prefix before it.  A stream is stored as its
segments (main blocks read off periodic points, short connector words), and
its end states, admissibility and densities are computed per segment, so
their cost does not grow with the stream length.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence, Union

from .decomposition import cyclic_structure, is_irreducible, mixing_constant, sync_length, class_of_word
from .errors import (
    InternalInvariantViolation,
    InvalidSchedule,
    InvalidThresholds,
    NoDistalTuple,
    NotChainProximal,
    NotInLanguage,
    NotIrreducible,
    NotMixing,
    SchemaError,
    TooLarge,
)
from .shift_core import (
    SftGraph,
    SymbolicPoint,
    Word,
    canonical_presentation,
    distance,
    essential,
    follower,
    periodic_points,
    point_in_shift,
)


# Most n-subsets of one cyclic class that the distal search compares at
# one period: the full 2-shift has C(16, 10) = 8,008 ten-subsets at period
# 4, and C(32, 17), about 5.7e8, seventeen-subsets at period 5.
MAX_DISTAL_CANDIDATES = 10 ** 5


@dataclass(frozen=True)
class DistalTuple:
    points: tuple[SymbolicPoint, ...]
    radius: Fraction
    common_period: int
    cyclic_class: int


def orbit_separation(points: Sequence[SymbolicPoint], period: int) -> Fraction:
    """min over shifts k < period and pairs of d(shifted, shifted)."""
    best: Optional[Fraction] = None
    for k in range(period):
        for a, b in itertools.combinations(points, 2):
            d = distance(a.shift(k), b.shift(k))
            if best is None or d < best:
                best = d
    return best if best is not None else Fraction(0)


def find_r_distal_tuple(g: SftGraph, n: int, max_period: int = 8) -> DistalTuple:
    """n distinct periodic points of a common period in a common cyclic
    class, chosen at the smallest feasible period and, there, with the
    largest orbit separation.  Ties go to the lexicographically first
    point tuple.  Raises TooLarge, before comparing any, when one class at
    one period has more than MAX_DISTAL_CANDIDATES n-subsets."""
    if n < 2:
        raise NoDistalTuple("need n >= 2")
    ge = essential(g)
    if not is_irreducible(ge):
        raise NotIrreducible("distal search needs an irreducible graph")
    cs = cyclic_structure(ge)
    k_sync = sync_length(ge)
    if k_sync is None:
        raise NotIrreducible("presentation does not resolve cyclic classes")
    for period in range(1, max_period + 1):
        if cs.period > 1 and period % cs.period != 0:
            continue
        pts = periodic_points(ge, period)
        by_class: dict[int, list[SymbolicPoint]] = {}
        for p in pts:
            cls = class_of_word(ge, cs, p.expand(max(k_sync, 1))) if cs.period > 1 else 0
            by_class.setdefault(cls, []).append(p)
        best: Optional[tuple[Fraction, tuple[SymbolicPoint, ...], int]] = None
        for cls in sorted(by_class):
            group = sorted(by_class[cls], key=str)
            if len(group) < n:
                continue
            if math.comb(len(group), n) > MAX_DISTAL_CANDIDATES:
                raise TooLarge("distal search exceeds %d candidate tuples"
                               % MAX_DISTAL_CANDIDATES)
            # A tuple's separation is the least over its pairs, so each
            # pair's is computed once per period.
            sep = {(i, j): orbit_separation((group[i], group[j]), period)
                   for i, j in itertools.combinations(range(len(group)), 2)}
            for combo in itertools.combinations(range(len(group)), n):
                r = min(sep[pair] for pair in itertools.combinations(combo, 2))
                if best is None or r > best[0]:
                    best = (r, tuple(group[i] for i in combo), cls)
        if best is not None and best[0] > 0:
            return DistalTuple(best[1], best[0], period, best[2])
    raise NoDistalTuple("no %d-tuple up to period %d" % (n, max_period))


# ---------------------------------------------------------------------------
# Chain proximal joins


@dataclass(frozen=True)
class JoinCertificate:
    point: SymbolicPoint
    agree_length: int          # coordinates copied from the target
    connector: Word
    tail_shift: int            # from this index on the point equals the orbit mate


def _reading_states(g: SftGraph, point: SymbolicPoint) -> dict[int, set[str]]:
    """For each position j < preperiod + period, the set of vertices from
    which the shifted point is readable forever (a greatest fixed point)."""
    pre, per = len(point.preperiod), len(point.period)
    total = pre + per
    out = follower(g).out
    alive = {j: set(out) for j in range(total)}
    changed = True
    while changed:
        changed = False
        for j in range(total):
            nxt = j + 1 if j + 1 < total else pre
            sym = point.symbol_at(j)
            keep = {v for v in alive[j]
                    if out[v].get(sym, set()) & alive[nxt]}
            if keep != alive[j]:
                alive[j] = keep
                changed = True
    return alive


def chain_proximal_join(g: SftGraph, y: SymbolicPoint, z: SymbolicPoint,
                        epsilon_exp: int) -> JoinCertificate:
    """A point that copies z on coordinates 0..K-1 (K = epsilon_exp, so it
    starts 2**-K-close to z) and, after a connector whose length is a
    multiple of the cyclic period, coincides with the shifted y exactly.
    Its forward orbit is therefore eventually glued to y's orbit: the limit
    inferior (indeed the tail) of the orbit distance is zero."""
    ge = essential(g)
    if epsilon_exp < 1:
        raise NotChainProximal("epsilon exponent must be positive")
    if not point_in_shift(ge, y) or not point_in_shift(ge, z):
        raise NotInLanguage("both points must lie in the shift")
    if not is_irreducible(ge):
        raise NotIrreducible("join needs an irreducible graph")
    cs = cyclic_structure(ge)
    m = cs.period
    if m > 1:
        k_sync = sync_length(ge)
        if k_sync is None:
            raise NotIrreducible("presentation does not resolve cyclic classes")
        probe = max(k_sync, 1)
        if (class_of_word(ge, cs, y.expand(probe))
                != class_of_word(ge, cs, z.expand(probe))):
            raise NotChainProximal("points lie in different cyclic classes")
    K = epsilon_exp
    f = follower(ge)
    out = f.out
    # States after reading the K-prefix of z from anywhere.
    end = f.walk(z.expand(K))
    if end is None:
        raise NotInLanguage("prefix of z not admissible")
    front = set(f.states[end])
    readers = _reading_states(ge, y)
    pre, per = len(y.preperiod), len(y.period)

    def reader_set(pos: int) -> set[str]:
        if pos < pre:
            return readers[pos]
        return readers[pre + (pos - pre) % per]

    cap = m * (len(ge.vertices) ** 2 + pre + per + 4)
    layer = front
    for ell in range(0, cap + 1):
        if ell % m == 0 and layer & reader_set(K + ell):
            connector = _first_word(out, front, reader_set(K + ell), ell)
            if connector is None:
                raise InternalInvariantViolation("path recovery failed")
            tail = y.shift(K + ell)
            w = SymbolicPoint(z.expand(K) + connector + tail.preperiod, tail.period)
            if not point_in_shift(ge, w):
                raise InternalInvariantViolation("constructed join left the shift")
            if w.shift(K + ell) != y.shift(K + ell):
                raise InternalInvariantViolation("join tail does not glue to y")
            return JoinCertificate(w, K, connector, K + ell)
        layer = {t for v in layer for targets in out[v].values() for t in targets}
    raise NotChainProximal("no connector up to length %d" % cap)


def _first_word(out: Mapping[str, Mapping[str, frozenset[str]]],
                sources: Iterable[str], goal: Iterable[str],
                length: int) -> Optional[Word]:
    """Label word of a path of exactly ``length`` edges from a source
    vertex to a goal vertex, or None if there is none.  The path starts at
    the least source that can still reach the goal in time, and each step
    takes the least symbol, then the least target vertex, from which the
    goal stays reachable in the steps left."""
    # live[t]: vertices from which the goal is reachable in exactly
    # length - t steps.
    live = [set(goal)]
    for _ in range(length):
        ahead = live[-1]
        live.append({v for v, moves in out.items()
                     if any(targets & ahead for targets in moves.values())})
    live.reverse()
    starts = live[0].intersection(sources)
    if not starts:
        return None
    v = min(starts)
    word = []
    for t in range(1, length + 1):
        sym = min(a for a, targets in out[v].items() if targets & live[t])
        word.append(sym)
        v = min(out[v][sym] & live[t])
    return tuple(word)


# ---------------------------------------------------------------------------
# Scrambled streams


@dataclass(frozen=True)
class Block:
    kind: str      # "together" | "apart" | "connector"
    start: int
    length: int

    @property
    def end(self) -> int:
        return self.start + self.length


@dataclass(frozen=True)
class Schedule:
    """Block lengths with the domination rule: each new main block is at
    least k times the total length of everything before it."""

    base_length: int = 16
    slack: int = 8

    def __post_init__(self) -> None:
        if self.base_length < 1:
            raise InvalidSchedule("base_length must be at least 1")

    def lengths(self, num_blocks: int, connector_len: int) -> list[int]:
        out = [self.base_length]
        total = self.base_length
        for k in range(1, num_blocks):
            nxt = k * (total + connector_len) + self.slack * (k + 1)
            out.append(nxt)
            total += connector_len + nxt
        return out


@dataclass(frozen=True)
class Segment:
    """``length`` symbols of a stream: a point read from index 0, or a
    literal word of exactly that length."""

    source: Union[SymbolicPoint, Word]
    length: int

    def __post_init__(self) -> None:
        if self.length < 0 or (not isinstance(self.source, SymbolicPoint)
                               and self.length != len(self.source)):
            raise SchemaError("segment length must be non-negative and, for "
                              "a literal word, its length")

    @staticmethod
    def literal(word: Iterable[str]) -> "Segment":
        word = tuple(word)
        return Segment(word, len(word))

    def read(self, a: int, b: int) -> Word:
        """Symbols a..b-1 of the segment."""
        src = self.source
        if isinstance(src, SymbolicPoint):
            return tuple(map(src.symbol_at, range(a, b)))
        return src[a:b]


@dataclass(frozen=True)
class Stream(Sequence[str]):
    """Read-only view of a stream stored as segments.  ``len`` is O(1), an
    index bisects the segment starts and a slice returns a tuple; nothing is
    materialised.  Two views are equal when their segments are.  A stream
    longer than ``sys.maxsize`` (about 20 blocks) has no ``len()``; its
    length is ``starts[-1]``."""

    segments: tuple[Segment, ...]
    starts: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # starts[k] is where segment k begins; starts[-1] is the length.
        object.__setattr__(self, "starts", tuple(itertools.accumulate(
            (s.length for s in self.segments), initial=0)))

    def __len__(self) -> int:
        return self.starts[-1]

    def __iter__(self) -> Iterator[str]:
        for seg in self.segments:
            yield from seg.read(0, seg.length)

    def __getitem__(self, key: Union[int, slice]) -> Union[str, Word]:
        n = self.starts[-1]
        if isinstance(key, slice):
            a, b, step = key.indices(n)
            if step != 1:
                return tuple(self[i] for i in range(a, b, step))
            return self._read(a, b)
        i = operator.index(key)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("stream index out of range")
        return self._read(i, i + 1)[0]

    def _read(self, a: int, b: int) -> Word:
        starts, out = self.starts, []
        k = bisect.bisect_right(starts, a) - 1
        while a < b:
            end = min(b, starts[k + 1])
            out.extend(self.segments[k].read(a - starts[k], end - starts[k]))
            a, k = end, k + 1
        return tuple(out)


@dataclass(frozen=True)
class ScrambledTuple:
    streams: tuple[Stream, ...]
    blocks: tuple[Block, ...]          # main blocks only, in order
    connector_length: int
    delta: Fraction
    radius: Fraction
    schedule_lengths: tuple[int, ...]


Step = Callable[[Hashable, str], Optional[Hashable]]


def _run(step: Step, state: Hashable, seg: Segment) -> Optional[Hashable]:
    """State after reading the segment from ``state`` with a deterministic
    step function, or None once a step returns None.  In a point, whole
    periods are jumped once the state at a period boundary repeats."""
    src = seg.source
    if not isinstance(src, SymbolicPoint):
        return _steps(step, state, src)
    pre = src.preperiod[:seg.length]
    state = _steps(step, state, pre)
    whole, rest = divmod(seg.length - len(pre), len(src.period))
    trail = [state]            # trail[k]: state after k whole periods
    first = {state: 0}
    for k in range(1, whole + 1):
        state = _steps(step, state, src.period)
        if state is None:
            return None
        if state in first:
            j = first[state]
            state = trail[j + (whole - j) % (k - j)]
            break
        first[state] = k
        trail.append(state)
    return _steps(step, state, src.period[:rest])


def _steps(step: Step, state: Optional[Hashable], word: Word) -> Optional[Hashable]:
    for sym in word:
        if state is None:
            break
        state = step(state, sym)
    return state


def build_scrambled_tuple(g: SftGraph, distal: DistalTuple,
                          num_blocks: int = 8,
                          schedule: Optional[Schedule] = None) -> ScrambledTuple:
    """Admissible streams, one per distal point, that agree exactly with a
    reference orbit on odd blocks and track their own separated orbits on
    even blocks, with uniform-length mixing connectors in between so all
    streams stay aligned."""
    if num_blocks < 1:
        raise SchemaError("need at least one block")
    gc = canonical_presentation(g)
    if not is_irreducible(gc) or cyclic_structure(gc).period != 1:
        raise NotMixing("scrambled streams need a mixing graph")
    sched = schedule or Schedule()
    conn = mixing_constant(gc)
    lengths = sched.lengths(num_blocks, conn)
    running = 0
    for k in range(1, num_blocks):
        running += lengths[k - 1]
        if lengths[k] < k * running:
            raise InvalidSchedule("block %d violates the domination rule" % (k + 1))
    out = follower(gc).out

    def step(v: str, sym: str) -> Optional[str]:
        nxt = out[v].get(sym)
        return min(nxt) if nxt else None

    n = len(distal.points)
    starts = []
    for p in distal.points:
        r0 = _reading_states(gc, p)[0]
        if not r0:
            raise NotInLanguage("distal point not readable")
        starts.append(min(r0))
    segments: list[list[Segment]] = [[] for _ in range(n)]
    states: list[Optional[str]] = [None] * n
    blocks: list[Block] = []
    pos = 0
    for k in range(1, num_blocks + 1):
        kind = "together" if k % 2 == 1 else "apart"
        length = lengths[k - 1]
        for i in range(n):
            target = 0 if kind == "together" else i
            if states[i] is not None:
                word = _first_word(out, (states[i],), (starts[target],), conn)
                if word is None:
                    raise NotMixing("no path of length %d from %s to %s"
                                    % (conn, states[i], starts[target]))
                segments[i].append(Segment.literal(word))
            content = Segment(distal.points[target], length)
            segments[i].append(content)
            states[i] = _run(step, starts[target], content)
            if states[i] is None:
                raise InternalInvariantViolation("stream content not admissible")
        start = pos if k == 1 else pos + conn
        blocks.append(Block(kind, start, length))
        pos = start + length
    tup = ScrambledTuple(tuple(Stream(tuple(s)) for s in segments), tuple(blocks),
                         conn, distal.radius / 2, distal.radius, tuple(lengths))
    _verify_streams(gc, tup)
    return tup


def _verify_streams(g: SftGraph, tup: ScrambledTuple) -> None:
    """Follower-automaton walk over every stream, segment by segment."""
    trans = follower(g).trans

    def step(state: int, sym: str) -> Optional[int]:
        return trans.get((state, sym))

    for s in tup.streams:
        state: Optional[int] = 0
        for seg in s.segments:
            state = _run(step, state, seg)
            if state is None:
                raise InternalInvariantViolation("scrambled stream not admissible")


# ---------------------------------------------------------------------------
# Density reports


@dataclass(frozen=True)
class DensityRow:
    horizon: int
    close_count: int
    far_count: int

    def fractions(self) -> tuple[Fraction, Fraction]:
        return (Fraction(self.close_count, self.horizon),
                Fraction(self.far_count, self.horizon))


def density_report(streams: Sequence[Sequence[str]], epsilon_exp: int,
                   delta: Fraction, horizons: Sequence[int]) -> list[DensityRow]:
    """Exact counts of indices where all pairs are 2**-epsilon_exp-close,
    and where all pairs are farther than delta.  Distances at an index are
    read from the first future disagreement of the index pair; indices at
    or past the shortest stream's end count as agreement.  A plain symbol
    sequence is read as a stream of one literal segment."""
    if epsilon_exp < 1 or delta <= 0 or delta >= 1:
        raise InvalidThresholds("need epsilon_exp >= 1 and 0 < delta < 1")
    if len(streams) < 2:
        raise InvalidThresholds("need at least two streams")
    if any(h < 1 for h in horizons):
        raise InvalidThresholds("horizons must be positive")
    # delta = 2**-t for dyadic t; far means first mismatch before t.
    dexp = 0
    d = delta
    while d < 1:
        d *= 2
        dexp += 1
    if d != 1:
        raise InvalidThresholds("delta must be a power of two")
    if not horizons:
        return []
    views = [s if isinstance(s, Stream) else Stream((Segment.literal(s),))
             for s in streams]
    length = min(v.starts[-1] for v in views)
    maxh = max(horizons)
    if maxh > length:
        raise InvalidThresholds("horizon beyond stream length")
    # Whether t is close or far depends only on the window [t, t + w].
    w = max(epsilon_exp, dexp - 1)
    marks = sorted(set(horizons))
    mi = 0
    close = far = 0
    out: dict[int, tuple[int, int]] = {}
    for start, end, period in _spans(views, length, w, maxh):
        # Flags repeat with period m over the span: count m of them, then
        # whole periods and the remainder.
        m = min(period, end - start)
        close_pre, far_pre = _prefix_counts(views, start, start + m, length,
                                            epsilon_exp, dexp, w)

        def upto(k: int) -> tuple[int, int]:
            q, r = divmod(k, m)
            return close + q * close_pre[m] + close_pre[r], far + q * far_pre[m] + far_pre[r]

        while mi < len(marks) and marks[mi] <= end:
            out[marks[mi]] = upto(marks[mi] - start)
            mi += 1
        close, far = upto(end - start)
    return [DensityRow(h, out[h][0], out[h][1]) for h in horizons]


def _spans(views: Sequence[Stream], length: int, w: int,
           maxh: int) -> Iterator[tuple[int, int, int]]:
    """Split [0, maxh) into spans (start, end, period) over whose indices
    the close/far flags repeat with the period; a span with no known period
    gets its own length.

    The segment boundaries of all streams cut [0, length) into pieces.  In a
    piece where every stream reads a point, the symbols repeat with the lcm
    of the periods once every preperiod is over, and so do the flags of
    indices whose window stays inside the piece: all but the last w."""
    cuts = sorted({c for v in views for c in v.starts if c < length} | {length})
    seg_at = [0] * len(views)
    for a, b in zip(cuts, cuts[1:]):
        if a >= maxh:
            return
        reading = []
        for i, v in enumerate(views):
            while v.starts[seg_at[i] + 1] <= a:
                seg_at[i] += 1
            reading.append((v.segments[seg_at[i]].source, v.starts[seg_at[i]]))
        if not all(isinstance(src, SymbolicPoint) for src, _off in reading):
            yield a, min(b, maxh), b - a
            continue
        periodic_from = max([a] + [off + len(src.preperiod) for src, off in reading])
        period = math.lcm(*(len(src.period) for src, _off in reading))
        inner = max(a, b - w)
        lo = min(periodic_from, inner)
        for span in ((a, lo, lo - a), (lo, inner, period), (inner, b, b - inner)):
            end = min(span[1], maxh)
            if span[0] < end:
                yield span[0], end, span[2]


def _prefix_counts(views: Sequence[Stream], x: int, y: int, length: int,
                   epsilon_exp: int, dexp: int, w: int) -> tuple[list[int], list[int]]:
    """Numbers of close and of far indices in [x, x + k) for k = 0..y-x,
    read off the symbols of [x, y + w) and the next-disagreement index of
    every pair."""
    e = min(y + w, length)
    cols = [v[x:e] for v in views]
    never = e - x + epsilon_exp + dexp + 2     # no disagreement in the window
    close = [True] * (y - x)
    far = [True] * (y - x)
    for a, b in itertools.combinations(cols, 2):
        nd = never
        for t in range(e - x - 1, -1, -1):
            if a[t] != b[t]:
                nd = t
            if t < y - x:
                close[t] = close[t] and nd - t > epsilon_exp
                far[t] = far[t] and nd - t < dexp
    return (list(itertools.accumulate(close, initial=0)),
            list(itertools.accumulate(far, initial=0)))
