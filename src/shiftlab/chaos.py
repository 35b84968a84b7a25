"""Constructive scrambling machinery.

Everything here is exact: periodic points are enumerated, separation radii
are dyadic rationals, and the scrambled streams are explicit admissible
sequences with block bookkeeping.  A tuple is r-distal (along orbits) when
every pair stays at distance at least r at every common shift.  Streams
alternate long blocks of exact agreement on a reference orbit with long
blocks tracking the separated periodic orbits, with block lengths growing
fast enough that each block dominates the whole prefix before it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

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
    word_in_language,
)


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
    point tuple."""
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
            for combo in itertools.combinations(group, n):
                r = orbit_separation(combo, period)
                if best is None or r > best[0]:
                    best = (r, combo, cls)
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
    layers = [set(front)]
    for ell in range(0, cap + 1):
        if ell % m == 0 and layers[ell] & reader_set(K + ell):
            connector = _recover_path(ge, out, front, ell,
                                      layers, reader_set(K + ell))
            tail = y.shift(K + ell)
            w = SymbolicPoint(z.expand(K) + connector + tail.preperiod, tail.period)
            if not point_in_shift(ge, w):
                raise InternalInvariantViolation("constructed join left the shift")
            if w.shift(K + ell) != y.shift(K + ell):
                raise InternalInvariantViolation("join tail does not glue to y")
            return JoinCertificate(w, K, connector, K + ell)
        nxt = set()
        for v in layers[ell]:
            for targets in out[v].values():
                nxt |= targets
        layers.append(nxt)
    raise NotChainProximal("no connector up to length %d" % cap)


def _recover_path(g: SftGraph, out: Mapping, front: set[str], ell: int,
                  layers: list[set[str]], goal: set[str]) -> Word:
    """Lexicographically first label word of length ell from the front set
    to the goal set, walking the stored reachability layers backwards."""
    # can_reach[t] = states in layers[t] from which goal is reachable in
    # exactly ell - t more steps.
    can = [set() for _ in range(ell + 1)]
    can[ell] = layers[ell] & goal
    for t in range(ell - 1, -1, -1):
        for v in layers[t]:
            for targets in out[v].values():
                if targets & can[t + 1]:
                    can[t].add(v)
                    break
    if not can[0]:
        raise InternalInvariantViolation("path recovery failed")
    word = []
    current = can[0]
    for t in range(ell):
        choice = None
        for v in sorted(current):
            for sym in sorted(out[v]):
                if out[v][sym] & can[t + 1]:
                    choice = (v, sym)
                    break
            if choice:
                break
        v, sym = choice
        word.append(sym)
        current = out[v][sym] & can[t + 1]
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

    def lengths(self, num_blocks: int, connector_len: int) -> list[int]:
        out = [self.base_length]
        total = self.base_length
        for k in range(1, num_blocks):
            nxt = k * (total + connector_len) + self.slack * (k + 1)
            out.append(nxt)
            total += connector_len + nxt
        return out


@dataclass(frozen=True)
class ScrambledTuple:
    streams: tuple[tuple[str, ...], ...]
    blocks: tuple[Block, ...]          # main blocks only, in order
    connector_length: int
    delta: Fraction
    radius: Fraction
    schedule_lengths: tuple[int, ...]


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
    n = len(distal.points)
    readers = [_reading_states(gc, p) for p in distal.points]
    starts = []
    for i in range(n):
        r0 = readers[i][0] if 0 in readers[i] else readers[i][len(distal.points[i].preperiod)]
        if not r0:
            raise NotInLanguage("distal point not readable")
        starts.append(min(r0))
    ref = distal.points[0]
    ref_start = starts[0]
    streams: list[list[str]] = [[] for _ in range(n)]
    states = [None] * n
    blocks: list[Block] = []
    pos = 0
    for k in range(1, num_blocks + 1):
        kind = "together" if k % 2 == 1 else "apart"
        length = lengths[k - 1]
        for i in range(n):
            target_pt = ref if kind == "together" else distal.points[i]
            target_state = ref_start if kind == "together" else starts[i]
            if states[i] is not None:
                word = _exact_length_path(gc, out, states[i], target_state, conn)
                streams[i].extend(word)
            content = target_pt.expand(length)
            streams[i].extend(content)
            states[i] = _walk(out, target_state, content)
        start = pos if k == 1 else pos + conn
        blocks.append(Block(kind, start, length))
        pos = start + length
    tup = ScrambledTuple(tuple(tuple(s) for s in streams), tuple(blocks),
                         conn, distal.radius / 2, distal.radius, tuple(lengths))
    _verify_streams(gc, tup)
    return tup


def _walk(out: Mapping, state: str, word: Sequence[str]) -> str:
    for sym in word:
        nxt = out[state].get(sym)
        if not nxt:
            raise InternalInvariantViolation("stream content not admissible")
        state = min(nxt)
    return state


def _exact_length_path(g: SftGraph, out: Mapping, src: str, dst: str,
                       length: int) -> Word:
    """Lexicographically first label word of an exact-length path."""
    can = [set() for _ in range(length + 1)]
    can[length] = {dst}
    for t in range(length - 1, -1, -1):
        for v in g.vertices:
            for targets in out[v].values():
                if targets & can[t + 1]:
                    can[t].add(v)
                    break
    if src not in can[0]:
        raise NotMixing("no path of length %d from %s to %s" % (length, src, dst))
    word = []
    v = src
    for t in range(length):
        for sym in sorted(out[v]):
            hit = out[v][sym] & can[t + 1]
            if hit:
                word.append(sym)
                v = min(hit)
                break
    return tuple(word)


def _verify_streams(g: SftGraph, tup: ScrambledTuple) -> None:
    for s in tup.streams:
        if not word_in_language(g, s):
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
    read from the first future disagreement of the index pair."""
    if epsilon_exp < 1 or delta <= 0 or delta >= 1:
        raise InvalidThresholds("need epsilon_exp >= 1 and 0 < delta < 1")
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
    length = min(len(s) for s in streams)
    pairs = list(itertools.combinations(range(len(streams)), 2))
    INF = length + epsilon_exp + dexp + 2
    nd_arrays = []
    for (i, j) in pairs:
        a, b = streams[i], streams[j]
        nd = [0] * (length + 1)
        nd[length] = INF
        for t in range(length - 1, -1, -1):
            nd[t] = t if a[t] != b[t] else nd[t + 1]
        nd_arrays.append(nd)
    maxh = max(horizons)
    if maxh > length:
        raise InvalidThresholds("horizon beyond stream length")
    close_prefix = 0
    far_prefix = 0
    marks = sorted(set(horizons))
    mi = 0
    out: dict[int, tuple[int, int]] = {}
    for t in range(maxh):
        close = all(nd[t] - t > epsilon_exp for nd in nd_arrays)
        far = all(nd[t] - t < dexp for nd in nd_arrays)
        close_prefix += close
        far_prefix += far
        while mi < len(marks) and t + 1 == marks[mi]:
            out[marks[mi]] = (close_prefix, far_prefix)
            mi += 1
    return [DensityRow(h, out[h][0], out[h][1]) for h in horizons]

