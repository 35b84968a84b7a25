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
  returns that one (see :class:`SftGraph`), so two graphs are equal
  exactly when they are the same object, and the value memos below hit
  by identity.
"""

from __future__ import annotations

import functools
import math
import weakref
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from operator import or_
from types import MappingProxyType
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Optional, Sequence

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
    if "." in text:
        return tuple(text.split("."))
    return tuple(text)


def _undotted(symbols: Iterable[str], what: str) -> None:
    """A written word puts dots between its symbols, so no symbol of a
    dotted word may contain a dot: it would be read back as several."""
    for s in symbols:
        if "." in s:
            raise SchemaError("%s %r contains a dot" % (what, s))


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
    returns that one without validating it again, so a value is validated
    once while a graph of it lives.  A value that fails validation is never
    filed.  Copies and pickles are rebuilt through the constructor, so they
    return the interned graph.  Equality and hashing are ``object``'s: the
    table is the one place where graph values are compared, and equal
    graphs are the same object.
    """

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]
    alphabet: tuple[str, ...]

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
            _GRAPHS[key] = g
        return g

    def __reduce__(self):
        # Rebuild through the constructor so the copy is the interned object.
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
    vs = tuple(vertices)
    es = tuple(edges)
    if alphabet is None:
        ab = tuple(sorted({a for (_u, _v, a) in es}))
    else:
        ab = tuple(alphabet)
    return SftGraph(vs, es, ab)


def _peel(n: int, arcs: Iterable[tuple]) -> list[bool]:
    """Which of the vertices 0..n-1 keep an incoming and an outgoing arc
    among those kept; an arc is read by its first two entries, (source,
    target, ...).  The vertices left without one are removed one at a time,
    updating the degrees of their neighbours as they go."""
    preds: list[list[int]] = [[] for _ in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    for arc in arcs:
        succs[arc[0]].append(arc[1])
        preds[arc[1]].append(arc[0])
    ins = [len(p) for p in preds]
    outs = [len(s) for s in succs]
    keep = [True] * n
    todo = [v for v in range(n) if not ins[v] or not outs[v]]
    while todo:
        v = todo.pop()
        if not keep[v]:
            continue
        keep[v] = False
        for w in succs[v]:
            ins[w] -= 1
            if not ins[w]:
                todo.append(w)
        for u in preds[v]:
            outs[u] -= 1
            if not outs[u]:
                todo.append(u)
    return keep


def essential(g: SftGraph) -> SftGraph:
    """Remove the vertices left without an incoming or an outgoing edge
    (see :func:`_peel`), keeping the order of the rest and of their edges.
    Returns ``g`` itself when every vertex already has both."""
    # Endpoints are vertices and vertex names are distinct, so the graph is
    # essential when its edges have as many sources and targets as vertices.
    n = len(g.vertices)
    if len({e[0] for e in g.edges}) == n and len({e[1] for e in g.edges}) == n:
        return g
    index = {v: k for k, v in enumerate(g.vertices)}
    ends = [(index[u], index[v]) for (u, v, _a) in g.edges]
    keep = _peel(n, ends)
    return SftGraph(
        tuple(v for v, k in zip(g.vertices, keep) if k),
        tuple(e for e, (u, v) in zip(g.edges, ends) if keep[u] and keep[v]),
        g.alphabet,
    )


def full_shift(alphabet: Iterable[str]) -> SftGraph:
    ab = tuple(alphabet)
    if not ab:
        raise InvalidAlphabet("empty alphabet")
    return SftGraph(("*",), tuple(("*", "*", a) for a in ab), ab)


def from_forbidden_words(alphabet: Iterable[str], forbidden: Iterable[Sequence[str]]) -> SftGraph:
    """Forbidden-word automaton (Crochemore, Mignosi & Restivo 1998) of the
    shift avoiding ``forbidden``, trimmed to its essential part.  Vertices,
    at most 1 + sum(len(w)), are the prefixes of forbidden words containing
    none, ``q0, q1, ...`` breadth-first with symbols in alphabet order; q -a->
    goes to the longest suffix of qa that is a vertex, if qa has no forbidden suffix."""
    ab = tuple(alphabet)
    if not ab:
        raise InvalidAlphabet("empty alphabet")
    # The trie of the forbidden words: node 0 is the empty word, (q, a) -> qa.
    trie: dict[tuple[int, str], int] = {}
    ends = set()  # the nodes that are forbidden words
    for w in forbidden:
        q = 0
        for s in w:
            if s not in ab:
                raise InvalidAlphabet("forbidden word uses unknown symbol %r" % s)
            q = trie.setdefault((q, s), len(trie) + 1)
        ends.add(q)
    # Breadth-first over the vertices, the Aho-Corasick way: ``order`` grows
    # as it is read, each vertex q with its longest proper suffix that is a
    # vertex, and ``go[q][a]`` is the target of q -a->, or None.  A repeated
    # symbol is read once, not once per copy, and SftGraph refuses it.
    order = [] if 0 in ends else [(0, 0)]
    go: dict[int, dict[str, Optional[int]]] = {}
    for q, fail in order:
        go[q] = {}
        for a in dict.fromkeys(ab):
            f = go[fail][a] if q else 0
            r = trie.get((q, a))
            if r is None or f is None or r in ends:
                go[q][a] = f if r is None else None
            else:
                go[q][a] = r
                order.append((r, f))
    name = {q: "q%d" % i for i, (q, _) in enumerate(order)}
    edges = tuple((name[q], name[t], a) for q in go for a, t in go[q].items() if t is not None)
    return essential(SftGraph(tuple(name.values()), edges, ab))


# ---------------------------------------------------------------------------
# Deterministic presentations and language comparison


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _image_map(rows: Sequence[int]) -> Callable[[int], int]:
    """Image of a mask under the relation whose row i is the mask of the
    successors of i: the OR of the rows of its set bits, memoised for the
    lifetime of the returned function."""
    memo: dict[int, int] = {}

    def image(mask: int) -> int:
        img = memo.get(mask)
        if img is None:
            img = memo[mask] = functools.reduce(or_, (rows[i] for i in _bits(mask)), 0)
        return img

    return image


@dataclass(frozen=True, eq=False)
class Follower:
    """Follower-set automaton of the essential part of a graph.

    ``states`` are vertex sets in breadth-first discovery order, each an
    ``int`` mask whose bit k stands for ``names[k]``, the essential
    vertices in ``essential(g).vertices`` order; :meth:`vertices` decodes
    one.  State 0 is the full vertex set.  ``trans`` maps (state, symbol)
    to a state; every state is accepting and a missing transition means the
    word leaves the language.  An empty shift has the single state ``0``
    and no transitions.  ``trans`` is read-only: :func:`follower` shares
    one instance among all callers asking about the same graph value.
    The automaton is all it holds; searches over vertices read the edges
    of the essential graph.
    """

    states: tuple[int, ...]
    trans: Mapping[tuple[int, str], int]
    names: tuple[str, ...]

    def vertices(self, i: int) -> frozenset[str]:
        """The vertex set of state ``i``."""
        return frozenset(self.names[k] for k in _bits(self.states[i]))

    def walk(self, word: Iterable[str], state: int = 0) -> Optional[int]:
        """State after reading ``word``, or None if it leaves the language."""
        return _steps(self.trans, state, word)


# The one bound of the value memos (``follower``, ``canonical_presentation``,
# ``_first_difference``, ``decomposition._decompose``,
# ``decomposition.is_irreducible``, ``decomposition.cyclic_structure``,
# ``decomposition._entropy``, ``codes.identity_code``,
# ``codes.code_image``, ``chaos._distal_search``,
# ``chaos.build_scrambled_tuple``, ``shadow_lab._truncation``,
# ``shadow_lab._limit_gap``, ``shadow_lab.gap_shift_graph`` and
# ``inverse_systems._limit_truncation``):
# 1024 entries hold a whole benchmark pass of distinct values without
# growing forever.  A
# seed-3 pass of the inverse-sequence jobs asks 4,205 language questions,
# 713 of them distinct, and searches each once (83% memo hits; a 256-entry
# bound evicts answers it asks again and searches 1,169 times); its largest
# other memos hold 597 code images and 548 follower automata.  A seed-
# 20271017 pass of the shadowing jobs builds 19 distinct truncations for
# 69 calls, 16 limit systems for 34 and 3 gap shifts for 62.  Finite
# systems are the largest entries (tracemalloc, Python 3.11): the full
# 2-shift at depth 12, the largest truncation the point cap admits, holds
# 2.9 MB; the 724 words of 723 symbols of the marked 1000-cycle, near the
# symbol cap, 5.4 MB; the largest limit system the symbol cap admits, 724
# words of 723 symbols, 0.8 MB; and a truncated limit about 340 bytes a point,
# 170 MB at 524,288 points, so some 325 MB at its 10**6-point cap.
MEMO_SIZE = 1024

# A follower automaton can have 2**n states on n vertices; discovery stops
# with TooLarge past this many.  The marked 4000-cycle has about 8,000.
MAX_FOLLOWER_STATES = 1 << 16


@functools.lru_cache(maxsize=MEMO_SIZE)
def follower(g: SftGraph) -> Follower:
    """Subset construction over the essential part of ``g``, built once per
    graph value.  A state's image under a symbol is the OR of the successor
    rows of its vertices when it has at most 8; a larger state ORs, over
    the nonzero bytes of its mask, a table entry per (byte position, byte
    value) holding the successors of those up-to-8 vertices, filled on
    first use.  Raises TooLarge past ``MAX_FOLLOWER_STATES``."""
    ge = essential(g)
    names = ge.vertices
    bit = {v: k for k, v in enumerate(names)}
    succ = {a: [0] * len(names) for a in ge.alphabet}
    for (u, v, a) in ge.edges:
        succ[a][bit[u]] |= 1 << bit[v]
    # Per symbol a: succ[a] and a table from p << 8 | b to the successors
    # under a of the vertices 8p + j for the bits j set in b.
    tables = [(a, succ[a], {}) for a in ge.alphabet]
    nbytes = (len(names) + 7) >> 3
    start = (1 << len(names)) - 1
    states = [start]
    index = {start: 0}
    trans: dict[tuple[int, str], int] = {}
    for i, s in enumerate(states):
        small = s.bit_count() <= 8
        keys = (list(_bits(s)) if small else
                [p << 8 | b for p, b in enumerate(s.to_bytes(nbytes, "little")) if b])
        for a, row, table in tables:
            nxt = 0
            if small:
                for k in keys:
                    nxt |= row[k]
            else:
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
    return Follower(tuple(states), MappingProxyType(trans), names)


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


# Graphs whose canonical presentation is known without a build, each with a
# weak reference to it: every canonical presentation built, which is its own
# (graphs are interned), and the components that
# ``decomposition.chain_components`` proves to present the whole language.
# Keys are weak too, so the table keeps no graph alive.
_KNOWN_CANONICAL: weakref.WeakKeyDictionary[SftGraph, weakref.ref[SftGraph]] = \
    weakref.WeakKeyDictionary()


def _know_canonical(g: SftGraph, c: SftGraph) -> None:
    """File ``c``, proved by the caller, as the canonical presentation of ``g``."""
    _KNOWN_CANONICAL[g] = weakref.ref(c)


@functools.lru_cache(maxsize=MEMO_SIZE)
def canonical_presentation(g: SftGraph) -> SftGraph:
    """Minimal deterministic essential presentation, with vertices renamed
    canonically by breadth-first discovery from the full-follower state,
    symbols taken in alphabet-tuple order: ``c<k>`` for the k-th block of
    the minimal automaton.  Its quotient graph is trimmed to its essential
    part on block ids before any block is named, so one graph is built and
    the ranks of the stranded blocks are left out.  It depends only on the
    language and the alphabet tuple: two graphs with one alphabet tuple
    present the same language iff their canonical presentations are the
    same object (graphs are interned), so the map is idempotent.  Graphs
    whose alphabet tuples differ, even only in order, have distinct
    canonical presentations.  Built once per graph value; a canonical
    presentation, and a chain component shown to present its whole
    language, are answered from ``_KNOWN_CANONICAL`` with no build."""
    known = _KNOWN_CANONICAL.get(g)
    c = known and known()
    if c is not None:
        return c
    f = follower(g)
    # Follower states are numbered breadth-first from the full state and
    # _minimize numbers blocks by first appearance in state order, so the
    # block ids already are the breadth-first ranks of the blocks.  The
    # quotient is trimmed on block ids, and only the blocks kept are named.
    block, nblocks = _minimize(len(f.states), f.trans, g.alphabet)
    arcs = {(block[s], block[t], a) for (s, a), t in f.trans.items()}
    keep = _peel(nblocks, arcs)
    names = {b: "c%d" % b for b in range(nblocks) if keep[b]}
    edges = tuple(sorted((names[u], names[v], a) for u, v, a in arcs
                         if u in names and v in names))
    c = SftGraph(tuple(names.values()), edges, g.alphabet)
    _know_canonical(c, c)
    return c


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


def _words(g: SftGraph, length: int, start: Word = ()) -> Iterator[Word]:
    """The admissible words of exactly the given length that begin with
    ``start``, in sorted order, one at a time.  A depth-first walk of the
    follower automaton from the state after ``start`` takes symbols in
    sorted order, and every state but an empty start has a successor, so
    the k-th word costs at most k times the length.  No word has a
    negative length."""
    if len(start) > length:
        return
    if not length:
        yield ()
        return
    f = follower(g)
    state = f.walk(start)
    if state is None:
        return
    if len(start) == length:
        yield tuple(start)
        return
    # A state's moves are listed when the walk first reaches it, so a walk
    # pays only for the states it reaches.
    alphabet = sorted(g.alphabet)
    moves: list[Optional[list[tuple[str, int]]]] = [None] * len(f.states)

    def listed(i: int) -> list[tuple[str, int]]:
        m = moves[i] = [(a, f.trans[(i, a)]) for a in alphabet if (i, a) in f.trans]
        return m

    path = list(start)
    stack = [iter(listed(state))]
    while stack:
        for a, j in stack[-1]:
            path.append(a)
            if len(path) < length:
                stack.append(iter(moves[j] or listed(j)))
                break
            yield tuple(path)
            path.pop()
        else:
            stack.pop()
            del path[-1:]


def words_of_length(g: SftGraph, length: int) -> list[Word]:
    """All admissible words of exactly the given length, sorted."""
    return list(_words(g, length))


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

    def read(self, a: int, b: int) -> Word:
        """Symbols a..b-1 for 0 <= a, none when b <= a: a slice of the
        preperiod, then one slice of as many repeated periods as the rest
        spans, so the cost follows b - a and not the offset a."""
        pre, per = self.preperiod, self.period
        head = pre[a:max(a, b)]
        a = max(a, len(pre))
        if a >= b:
            return head
        k = (a - len(pre)) % len(per)
        return head + (per * -(-(k + b - a) // len(per)))[k:k + b - a]

    def expand(self, n: int) -> Word:
        return self.read(0, n)

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


def _steps(trans: Mapping[tuple[Hashable, str], Hashable], state: Optional[Hashable],
           word: Iterable[str]) -> Optional[Hashable]:
    """State after reading ``word`` from ``state`` through the deterministic
    transition map (state, symbol) -> state, or None once a transition is
    missing."""
    for sym in word:
        if state is None:
            break
        state = trans.get((state, sym))
    return state


def _walk_point(trans: Mapping[tuple[Hashable, str], Hashable], state: Hashable,
               x: SymbolicPoint, length: Optional[int] = None) -> Optional[Hashable]:
    """State after reading the first ``length`` symbols of ``x`` from
    ``state`` through the deterministic transition map, or None once a
    transition is missing.  Whole periods are read until the state at a
    period boundary repeats; the boundary states then cycle, so the rest
    of the periods are jumped.  With no ``length`` the whole point is read:
    the result is None exactly when some prefix leaves the map, and
    otherwise the first repeated boundary state."""
    pre = x.preperiod if length is None else x.preperiod[:length]
    state = _steps(trans, state, pre)
    whole, rest = (None, 0) if length is None else divmod(length - len(pre), len(x.period))
    trail = [state]            # trail[k]: state after k whole periods
    first = {state: 0}
    k = 0
    while k != whole:
        k += 1
        state = _steps(trans, state, x.period)
        if state is None:
            return None
        if state in first:
            if whole is None:
                return state
            j = first[state]
            state = trail[j + (whole - j) % (k - j)]
            break
        first[state] = k
        trail.append(state)
    return _steps(trans, state, x.period[:rest])


def point_in_shift(g: SftGraph, x: SymbolicPoint) -> bool:
    """Does the presented shift space contain the point?  Decided by a
    follower-automaton walk of the whole point."""
    return _walk_point(follower(g).trans, 0, x) is not None


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


def _json_list(value, what: str):
    """``value``, unless it is a JSON string or object: those are iterable
    too, but reading one a character or a key at a time would be wrong."""
    if isinstance(value, (str, dict)):
        raise TypeError("%s must be a list, not %s" % (what, type(value).__name__))
    return value


def graph_from_json(data: dict) -> SftGraph:
    if not isinstance(data, dict):
        raise SchemaError("graph object expected")
    if "forbidden" in data:
        if "alphabet" not in data:
            raise SchemaError("forbidden-word form needs an alphabet")
        try:
            ab = [str(s) for s in _json_list(data["alphabet"], "alphabet")]
            bad = [str(w) for w in _json_list(data["forbidden"], "forbidden")]
        except TypeError as exc:
            raise SchemaError("malformed graph: %s" % exc) from exc
        # An undotted word is its characters, so one that is also a symbol
        # would be read as other symbols.
        _undotted(ab, "forbidden-form symbol")
        for w in bad:
            if len(w) > 1 and w in ab:
                raise SchemaError("forbidden word %r is ambiguous: it is also a symbol" % w)
        return from_forbidden_words(ab, [parse_word(w) for w in bad])
    try:
        ab = tuple(str(s) for s in _json_list(data["alphabet"], "alphabet"))
        vs = tuple(str(v) for v in _json_list(data["vertices"], "vertices"))
        es = tuple((str(u), str(v), str(a)) for (u, v, a) in
                   (_json_list(e, "edge") for e in _json_list(data["edges"], "edges")))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("malformed graph: %s" % exc) from exc
    return SftGraph(vs, es, ab)
