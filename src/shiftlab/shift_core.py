"""Core objects: labeled graphs presenting shift spaces, symbolic points,
and the exact dyadic cylinder metric.

Conventions, fixed once here and relied on everywhere else:

* Shifts are one-sided, indexed from 0.
* d(x, y) = 2**(-j) where j is the least index at which x and y differ,
  and d(x, x) = 0.  Distances are exact ``fractions.Fraction`` values.
* A presentation is a finite directed multigraph with edge labels.  Its
  language is the set of label words of all finite paths.  The shift space
  it presents is the set of label sequences of infinite paths.
* A presentation is essential when every vertex has at least one incoming
  and one outgoing edge.  ``SftGraph`` and ``make_graph`` store a graph as
  given; ``full_shift``, ``from_forbidden_words``, ``determinize`` and
  ``canonical_presentation`` return essential graphs, and every language
  question is answered on the essential part (see :func:`essential`).
* Graphs are stored once per value: building a graph equal to a live one
  returns that one (see :class:`SftGraph`), so the value memos below hit
  by identity.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import weakref
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import (
    EmptyShift,
    InvalidAlphabet,
    NotInLanguage,
    SchemaError,
    TooLarge,
)

Word = tuple[str, ...]


def word_str(word: Sequence[str]) -> str:
    if any(len(s) != 1 for s in word):
        return ".".join(word)
    return "".join(word)


def parse_word(text: str) -> Word:
    if text == "":
        return ()
    if "." in text:
        return tuple(text.split("."))
    return tuple(text)


def common_prefix(u: Sequence[str], v: Sequence[str]) -> int:
    """Length of the longest common prefix of two words."""
    for j, (a, b) in enumerate(zip(u, v)):
        if a != b:
            return j
    return min(len(u), len(v))


# ---------------------------------------------------------------------------
# Graph presentations


class _GraphKey(tuple):
    """(hash, vertices, edges, alphabet): equal when the fields are.  The
    hash of the field triple is taken once, before the lookup, and every
    later use reads it back."""

    __slots__ = ()

    def __hash__(self) -> int:
        return self[0]


# Every live graph by value, so that an equal graph built anywhere is the
# same object.  The values are weak: an entry leaves with its graph.
_GRAPHS: weakref.WeakValueDictionary[_GraphKey, SftGraph] = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False, init=False)
class SftGraph:
    """Labeled directed multigraph presenting a shift space.

    ``edges`` is a tuple of (source, target, label), vertex names and
    labeled edges distinct.  The graph is stored as given; use
    :func:`essential` to prune stranded vertices and
    :func:`canonical_presentation` for the minimal deterministic form.

    Graphs are interned by value: building a graph equal to a live one
    returns that one without validating or hashing it again, so a value
    is validated and hashed once while a graph of it lives, and the value
    memos hit by identity.  A value that fails validation is never filed.
    Copies and pickles are rebuilt through the constructor, so they return
    the interned graph.  Equality checks identity first, then the stored
    hashes, and only then the fields, so it still holds between equal
    graphs built apart from the table.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    alphabet: tuple[str, ...]
    _hash: int = field(init=False, repr=False)

    def __new__(cls, vertices: tuple[str, ...], edges: tuple[tuple[str, str, str], ...],
                alphabet: tuple[str, ...]) -> SftGraph:
        try:
            h = hash((vertices, edges, alphabet))
        except TypeError:
            _check_graph(vertices, edges, alphabet)  # a validation error comes first
            raise
        key = _GraphKey((h, vertices, edges, alphabet))
        g = _GRAPHS.get(key)
        if g is None:
            _check_graph(vertices, edges, alphabet)
            g = object.__new__(cls)
            object.__setattr__(g, "vertices", vertices)
            object.__setattr__(g, "edges", edges)
            object.__setattr__(g, "alphabet", alphabet)
            object.__setattr__(g, "_hash", h)
            _GRAPHS[key] = g
        return g

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._hash == other._hash and self.vertices == other.vertices
                and self.edges == other.edges and self.alphabet == other.alphabet)

    def __reduce__(self):
        # String hashes differ between processes: rebuild, never copy _hash.
        return SftGraph, (self.vertices, self.edges, self.alphabet)


def _check_graph(vertices: tuple[str, ...], edges: tuple[tuple[str, str, str], ...],
                 alphabet: tuple[str, ...]) -> None:
    vs = set(vertices)
    if len(vs) != len(vertices):
        dup = next(v for v, k in Counter(vertices).items() if k > 1)
        raise SchemaError("duplicate vertex %r" % dup)
    ab = set(alphabet)
    if len(alphabet) != len(ab):
        raise InvalidAlphabet("duplicate symbols in alphabet")
    if len(set(edges)) != len(edges):
        raise SchemaError("duplicate labeled edge")
    for (u, v, a) in edges:
        if u not in vs or v not in vs:
            raise SchemaError("edge endpoint not among vertices: %r" % ((u, v, a),))
        if a not in ab:
            raise InvalidAlphabet("edge label %r not in alphabet" % a)


def make_graph(vertices: Iterable[str], edges: Iterable[tuple[str, str, str]],
               alphabet: Optional[Iterable[str]] = None) -> SftGraph:
    vs = tuple(dict.fromkeys(vertices))
    es = tuple(edges)
    if alphabet is None:
        ab = tuple(sorted({a for (_u, _v, a) in es}))
    else:
        ab = tuple(alphabet)
    return SftGraph(vs, es, ab)


def essential(g: SftGraph) -> SftGraph:
    """Remove, one at a time, the vertices left without an incoming or an
    outgoing edge, updating the degrees of their neighbours as they go.
    Returns ``g`` itself when every vertex already has both."""
    # Endpoints are vertices and vertex names are distinct, so the graph is
    # essential when its edges have as many sources and targets as vertices.
    n = len(g.vertices)
    if len({e[0] for e in g.edges}) == n and len({e[1] for e in g.edges}) == n:
        return g
    preds: dict[str, list[str]] = {v: [] for v in g.vertices}
    succs: dict[str, list[str]] = {v: [] for v in g.vertices}
    for (u, v, _a) in g.edges:
        succs[u].append(v)
        preds[v].append(u)
    ins = {v: len(p) for v, p in preds.items()}
    outs = {v: len(s) for v, s in succs.items()}
    dead: set[str] = set()
    todo = [v for v in g.vertices if not ins[v] or not outs[v]]
    while todo:
        v = todo.pop()
        if v in dead:
            continue
        dead.add(v)
        for w in succs[v]:
            ins[w] -= 1
            if not ins[w]:
                todo.append(w)
        for u in preds[v]:
            outs[u] -= 1
            if not outs[u]:
                todo.append(u)
    return SftGraph(
        tuple(v for v in g.vertices if v not in dead),
        tuple(e for e in g.edges if e[0] not in dead and e[1] not in dead),
        g.alphabet,
    )


def full_shift(alphabet: Iterable[str]) -> SftGraph:
    ab = tuple(alphabet)
    if not ab:
        raise InvalidAlphabet("empty alphabet")
    return SftGraph(("*",), tuple(("*", "*", a) for a in ab), ab)


def from_forbidden_words(alphabet: Iterable[str], forbidden: Iterable[Sequence[str]]) -> SftGraph:
    """Higher-block presentation of the shift avoiding every word in
    ``forbidden``.  Vertices are the admissible words of length N where
    N + 1 is the longest forbidden length; the result is essential and
    deterministic, and may be empty."""
    ab = tuple(alphabet)
    if not ab:
        raise InvalidAlphabet("empty alphabet")
    bad = {tuple(w) for w in forbidden}
    for w in bad:
        for s in w:
            if s not in ab:
                raise InvalidAlphabet("forbidden word uses unknown symbol %r" % s)
        if len(w) == 0:
            return SftGraph((), (), ab)
    keep = tuple(s for s in ab if (s,) not in bad)
    long_bad = {w for w in bad if len(w) >= 2}
    n = max((len(w) for w in long_bad), default=1) - 1

    def ok(word: Word) -> bool:
        for i in range(len(word)):
            for j in range(i + 1, len(word) + 1):
                if word[i:j] in long_bad:
                    return False
        return True

    if n == 0:
        if not keep:
            return SftGraph((), (), ab)
        return SftGraph(("*",), tuple(("*", "*", a) for a in keep), ab)

    states = [w for w in itertools.product(keep, repeat=n) if ok(w)]
    names = {w: word_str(w) for w in states}
    edges = []
    stateset = set(states)
    for w in states:
        for a in keep:
            ext = w + (a,)
            if ok(ext) and ext[1:] in stateset:
                edges.append((names[w], names[ext[1:]], a))
    return essential(SftGraph(tuple(names[w] for w in states), tuple(edges), ab))


# ---------------------------------------------------------------------------
# Deterministic presentations and language comparison


@dataclass(frozen=True, eq=False)
class Follower:
    """Follower-set automaton of the essential part of a graph.

    ``states`` are vertex sets in breadth-first discovery order, each an
    ``int`` mask whose bit k stands for ``names[k]``, the essential
    vertices in ``essential(g).vertices`` order; :meth:`vertices` decodes
    one.  State 0 is the full vertex set.  ``trans`` maps (state, symbol)
    to a state; every state is accepting and a missing transition means the
    word leaves the language.  ``out`` is the labeled out-map, vertex ->
    symbol -> targets.  An empty shift has the single state ``0`` and no
    transitions.  Both maps are read-only: :func:`follower` shares one
    instance among all callers asking about the same graph value.
    """

    states: tuple[int, ...]
    trans: Mapping[tuple[int, str], int]
    out: Mapping[str, Mapping[str, frozenset[str]]]
    names: tuple[str, ...]

    def vertices(self, i: int) -> frozenset[str]:
        """The vertex set of state ``i``."""
        return frozenset(itertools.compress(self.names, map(int, bin(self.states[i])[:1:-1])))

    def walk(self, word: Iterable[str], state: int = 0) -> Optional[int]:
        """State after reading ``word``, or None if it leaves the language."""
        trans = self.trans
        for a in word:
            state = trans.get((state, a))
            if state is None:
                return None
        return state


# The one bound of the value memos (``follower``, ``canonical_presentation``,
# ``_first_difference``, ``decomposition.chain_components``,
# ``decomposition.cyclic_structure``, ``decomposition.entropy``,
# ``codes.identity_code`` and ``codes.code_image``): 1024 entries hold a
# whole benchmark pass of distinct values without growing forever.  A
# seed-3 pass of the inverse-sequence jobs asks 5,393 language questions,
# 768 of them distinct, and searches each once (86% memo hits; a 256-entry
# bound evicts answers it asks again and searches 1,430 times); its largest
# other memos hold 597 code images and 548 follower automata.
MEMO_SIZE = 1024

# A follower automaton can have 2**n states on n vertices; discovery stops
# with TooLarge past this many.  The marked 4000-cycle has about 8,000.
MAX_FOLLOWER_STATES = 1 << 16


@functools.lru_cache(maxsize=MEMO_SIZE)
def follower(g: SftGraph) -> Follower:
    """Subset construction over the essential part of ``g``, built once per
    graph value.  A state's image under a symbol is the OR, over the
    nonzero bytes of its mask, of a table entry per (byte position, byte
    value) holding the successors of those up-to-8 vertices; entries are
    filled on first use.  Raises TooLarge past ``MAX_FOLLOWER_STATES``."""
    ge = essential(g)
    names = ge.vertices
    bit = {v: k for k, v in enumerate(names)}
    out: dict[str, dict[str, set[str]]] = {v: {} for v in names}
    succ = {a: [0] * len(names) for a in ge.alphabet}
    for (u, v, a) in ge.edges:
        out[u].setdefault(a, set()).add(v)
        succ[a][bit[u]] |= 1 << bit[v]
    frozen = {v: MappingProxyType({a: frozenset(t) for a, t in m.items()})
              for v, m in out.items()}
    # Per symbol a: succ[a] and a table from p << 8 | b to the successors
    # under a of the vertices 8p + j for the bits j set in b.
    tables = [(a, succ[a], {}) for a in ge.alphabet]
    nbytes = (len(names) + 7) >> 3
    start = (1 << len(names)) - 1
    states = [start]
    index = {start: 0}
    trans: dict[tuple[int, str], int] = {}
    for i, s in enumerate(states):
        keys = [p << 8 | b for p, b in enumerate(s.to_bytes(nbytes, "little")) if b]
        for a, row, table in tables:
            nxt = 0
            for key in keys:
                m = table.get(key)
                if m is None:
                    m, b, k = 0, key & 255, (key >> 8) << 3
                    while b:
                        if b & 1:
                            m |= row[k]
                        b >>= 1
                        k += 1
                    table[key] = m
                nxt |= m
            if not nxt:
                continue
            j = index.get(nxt)
            if j is None:
                if len(states) >= MAX_FOLLOWER_STATES:
                    raise TooLarge("follower automaton exceeds %d states"
                                   % MAX_FOLLOWER_STATES)
                j = index[nxt] = len(states)
                states.append(nxt)
            trans[(i, a)] = j
    return Follower(tuple(states), MappingProxyType(trans), MappingProxyType(frozen), names)


def determinize(g: SftGraph) -> SftGraph:
    """Deterministic presentation of the same language (subset construction,
    restricted to the essential part)."""
    f = follower(g)
    names = ["q%d" % i for i in range(len(f.states))]
    edges = tuple((names[i], names[j], a) for (i, a), j in sorted(f.trans.items()))
    return essential(SftGraph(tuple(names), edges, g.alphabet))


def _minimize(num_states: int, trans: Mapping[tuple[int, str], int],
              alphabet: Sequence[str]) -> tuple[list[int], int]:
    """Hopcroft partition refinement of a partial DFA in which every state
    is accepting, in O(|alphabet| n log n) time.  The automaton is
    completed by one rejecting sink, so the initial partition is {states,
    sink}.  A worklist holds (block, symbol) splitters: a block split while
    in it is queued as both halves, otherwise only its smaller half is.
    Returns (block id per state, block count), blocks numbered by first
    appearance in state order."""
    if num_states <= 1:
        return [0] * num_states, num_states
    sink = num_states
    # pre[k][t]: the states whose transition on alphabet[k] leads to t
    # (t = sink when it is missing); the sink's own loops never split a
    # block, so they are left out.
    pre = [[[] for _ in range(num_states + 1)] for _ in alphabet]
    for s in range(num_states):
        for k, a in enumerate(alphabet):
            pre[k][trans.get((s, a), sink)].append(s)
    blocks = [set(range(num_states)), {sink}]
    block_of = [0] * num_states + [1]
    symbols = range(len(alphabet))
    work = {(1, k) for k in symbols}
    while work:
        b, k = work.pop()
        into = pre[k]
        hit: dict[int, list[int]] = {}
        for t in blocks[b]:
            for s in into[t]:
                hit.setdefault(block_of[s], []).append(s)
        for y, moved in hit.items():
            rest = blocks[y]
            if len(moved) == len(rest):
                continue
            rest.difference_update(moved)
            z = len(blocks)
            blocks.append(set(moved))
            for s in moved:
                block_of[s] = z
            small = y if len(rest) <= len(moved) else z
            for c in symbols:
                work.add((z, c) if (y, c) in work else (small, c))
    ids: dict[int, int] = {}
    return [ids.setdefault(block_of[s], len(ids)) for s in range(num_states)], len(ids)


# The canonical presentations built so far, compared by value.  A graph
# equal to one of them is its own canonical presentation, so a memo miss
# on it returns it without building its follower automaton again.
_CANONICAL: weakref.WeakSet[SftGraph] = weakref.WeakSet()


@functools.lru_cache(maxsize=MEMO_SIZE)
def canonical_presentation(g: SftGraph) -> SftGraph:
    """Minimal deterministic essential presentation, with vertices renamed
    canonically by breadth-first discovery from the full-follower state.
    Two graphs present the same language iff their canonical presentations
    are identical, so the map is idempotent.  Built once per graph value."""
    if g in _CANONICAL:
        return g
    f = follower(g)
    # Follower states are numbered breadth-first from the full state and
    # _minimize numbers blocks by first appearance in state order, so the
    # block ids already are the breadth-first ranks of the blocks.
    block, nblocks = _minimize(len(f.states), f.trans, g.alphabet)
    names = tuple("c%d" % b for b in range(nblocks))
    edges = tuple(sorted({(names[block[s]], names[block[t]], a)
                          for (s, a), t in f.trans.items()}))
    c = essential(SftGraph(names, edges, g.alphabet))
    _CANONICAL.add(c)
    return c


def canonical_signature(g: SftGraph) -> str:
    c = canonical_presentation(g)
    return json.dumps({"v": list(c.vertices), "e": [list(e) for e in c.edges],
                       "a": list(c.alphabet)}, separators=(",", ":"))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _first_difference(a: SftGraph, b: SftGraph,
                      both_ways: bool) -> tuple[bool, Optional[Word]]:
    """Breadth-first search over pairs of follower states for a shortest
    word of ``a`` missing from ``b`` (and, when ``both_ways``, of ``b``
    missing from ``a``).  Answered once per (a, b, both_ways) value; the
    witness is a tuple, so callers share it safely."""
    ab = sorted(set(a.alphabet) | set(b.alphabet))
    ta, tb = follower(a).trans, follower(b).trans
    start = (0, 0)
    queue = deque([(start, ())])
    seen = {start}
    while queue:
        (i, j), w = queue.popleft()
        for s in ab:
            ni = ta.get((i, s))
            nj = tb.get((j, s))
            if ni is None and (nj is None or not both_ways):
                continue
            if ni is None or nj is None:
                return False, w + (s,)
            key = (ni, nj)
            if key not in seen:
                seen.add(key)
                queue.append((key, w + (s,)))
    return True, None


def language_subset(a: SftGraph, b: SftGraph) -> tuple[bool, Optional[Word]]:
    """Is every word of ``a`` a word of ``b``?  On failure returns a
    shortest witness word (in ``a`` but not ``b``)."""
    return _first_difference(a, b, both_ways=False)


def language_equal(a: SftGraph, b: SftGraph) -> tuple[bool, Optional[Word]]:
    """Language equality with a shortest counterexample word on failure."""
    return _first_difference(a, b, both_ways=True)


def word_in_language(g: SftGraph, word: Sequence[str]) -> bool:
    return follower(g).walk(word) is not None


def words_of_length(g: SftGraph, length: int) -> list[Word]:
    """All admissible words of exactly the given length, sorted.  A
    depth-first walk of the follower automaton takes symbols in sorted
    order, so the words come out sorted and each costs its own length."""
    if length <= 0:
        return [()]
    f = follower(g)
    moves = [[(a, f.trans[(i, a)]) for a in sorted(g.alphabet) if (i, a) in f.trans]
             for i in range(len(f.states))]
    words: list[Word] = []
    path: list[str] = []
    stack = [iter(moves[0])]
    while stack:
        for a, j in stack[-1]:
            path.append(a)
            if len(path) < length:
                stack.append(iter(moves[j]))
                break
            words.append(tuple(path))
            path.pop()
        else:
            stack.pop()
            del path[-1:]
    return words


# ---------------------------------------------------------------------------
# Symbolic points


@dataclass(frozen=True)
class SymbolicPoint:
    """Eventually periodic one-sided sequence, stored as a preperiod word
    plus a primitive period word and normalized so that equal expansions
    compare equal structurally."""

    preperiod: Word
    period: Word

    def __post_init__(self) -> None:
        if not self.period:
            raise NotInLanguage("period word must be nonempty")
        per = self.period
        for d in range(1, len(per) + 1):
            if len(per) % d == 0 and per == per[:d] * (len(per) // d):
                per = per[:d]
                break
        pre = self.preperiod
        while pre and pre[-1] == per[-1]:
            per = (per[-1],) + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "preperiod", tuple(pre))
        object.__setattr__(self, "period", tuple(per))

    @staticmethod
    def periodic(period: Sequence[str]) -> "SymbolicPoint":
        return SymbolicPoint((), tuple(period))

    def symbol_at(self, i: int) -> str:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def expand(self, n: int) -> Word:
        return tuple(self.symbol_at(i) for i in range(n))

    def shift(self, k: int = 1) -> "SymbolicPoint":
        if k == 0:
            return self
        pre = self.preperiod
        per = self.period
        if k < len(pre):
            return SymbolicPoint(pre[k:], per)
        k -= len(pre)
        k %= len(per)
        return SymbolicPoint((), per[k:] + per[:k])

    def __str__(self) -> str:
        return "%s(%s)*" % (word_str(self.preperiod), word_str(self.period))


def distance(x: SymbolicPoint, y: SymbolicPoint) -> Fraction:
    """Exact cylinder distance 2**(-j), j the least differing index."""
    if x == y:
        return Fraction(0)
    bound = (len(x.preperiod) + len(y.preperiod)
             + math.lcm(len(x.period), len(y.period)))
    for j in range(bound + 1):
        if x.symbol_at(j) != y.symbol_at(j):
            return Fraction(1, 2 ** j)
    return Fraction(0)


def point_in_shift(g: SftGraph, x: SymbolicPoint) -> bool:
    """Does the presented shift space contain the point?  Decided by a
    follower-automaton walk that reads whole periods until the state at a
    period boundary repeats."""
    f = follower(g)
    state = f.walk(x.preperiod)
    seen = set()
    while state is not None and state not in seen:
        seen.add(state)
        state = f.walk(x.period, state)
    return state is not None


def periodic_points(g: SftGraph, period: int) -> list[SymbolicPoint]:
    """All points of (not necessarily primitive) period ``period``, i.e.
    fixed points of the ``period``-fold shift, sorted by string form."""
    if period <= 0:
        raise EmptyShift("period must be positive")
    found = set()
    for w in words_of_length(g, period):
        p = SymbolicPoint.periodic(w)
        if point_in_shift(g, p):
            found.add(p)
    return sorted(found, key=str)


# ---------------------------------------------------------------------------
# JSON interface


def graph_to_json(g: SftGraph) -> dict:
    return {
        "alphabet": list(g.alphabet),
        "vertices": list(g.vertices),
        "edges": [[u, v, a] for (u, v, a) in g.edges],
    }


def graph_from_json(data: dict) -> SftGraph:
    if not isinstance(data, dict):
        raise SchemaError("graph object expected")
    if "forbidden" in data:
        if "alphabet" not in data:
            raise SchemaError("forbidden-word form needs an alphabet")
        return from_forbidden_words(
            [str(s) for s in data["alphabet"]],
            [parse_word(str(w)) for w in data["forbidden"]])
    try:
        ab = tuple(str(s) for s in data["alphabet"])
        vs = tuple(str(v) for v in data["vertices"])
        es = tuple((str(u), str(v), str(a)) for (u, v, a) in data["edges"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("malformed graph: %s" % exc) from exc
    return SftGraph(vs, es, ab)
