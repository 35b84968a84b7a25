"""Chain-recurrence structure of a presented shift space.

Chain components are computed as the strongly connected subgraphs that
contain at least one cycle, taken on the canonical deterministic
presentation so that duplicated follower sets cannot split a component.
They and the entropy depend only on the language, so both are memoised
per canonical presentation; a closed component of an irreducible graph's
presentation shares the graph's (see :func:`chain_components`).
The cyclic structure of an irreducible graph is its partition into
classes advanced cyclically by the shift; the class count is the gcd of
all cycle lengths.  The class of a cylinder is read off the follower
state its word reaches.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Hashable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    EmptyShift,
    NotInLanguage,
    NotIrreducible,
    NotMixing,
)
from .shift_core import (
    MEMO_SIZE,
    SftGraph,
    canonical_presentation,
    essential,
    follower,
    _image_map,
    _know_canonical,
)


@dataclass(frozen=True)
class ChainComponent:
    """One chain component, presented by a strongly connected subgraph."""

    component_id: str
    graph: SftGraph

    def __repr__(self) -> str:
        return "ChainComponent(%s, %d vertices)" % (self.component_id, len(self.graph.vertices))


@dataclass(frozen=True)
class Decomposition:
    components: tuple[ChainComponent, ...]
    transient_vertices: tuple[str, ...]

    def by_id(self, component_id: str) -> ChainComponent:
        for c in self.components:
            if c.component_id == component_id:
                return c
        raise KeyError(component_id)


def _arcs(g: SftGraph) -> dict[str, list[str]]:
    """Successor lists of the vertices of g, one entry per edge."""
    arcs: dict[str, list[str]] = {v: [] for v in g.vertices}
    for (u, v, _a) in g.edges:
        arcs[u].append(v)
    return arcs


def _sccs(vertices: Sequence[Hashable],
          arcs: Mapping[Hashable, Sequence[Hashable]]) -> list[list]:
    """Strongly connected components by Kosaraju's two searches, over any
    hashable, sortable vertices: a depth-first search lists the vertices
    as it finishes them, then each unclaimed vertex, latest finished
    first, claims every unclaimed vertex that reaches it backwards.  Each
    component is sorted; the list is in no fixed order, since every
    caller sorts or counts it.  Both searches keep their own stacks, so a
    long path cannot overflow the interpreter's."""
    finished: list = []
    seen: set = set()
    for root in vertices:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(arcs.get(root, ())))]
        while work:
            for w in work[-1][1]:
                if w not in seen:
                    seen.add(w)
                    work.append((w, iter(arcs.get(w, ()))))
                    break
            else:
                finished.append(work.pop()[0])
    back: dict = {v: [] for v in vertices}
    for v in vertices:
        for w in arcs.get(v, ()):
            back[w].append(v)
    sccs: list[list] = []
    claimed: set = set()
    for root in reversed(finished):
        if root in claimed:
            continue
        claimed.add(root)
        comp = [root]
        for v in comp:  # comp grows as it is read
            for u in back[v]:
                if u not in claimed:
                    claimed.add(u)
                    comp.append(u)
        sccs.append(sorted(comp))
    return sccs


def chain_components(g: SftGraph) -> Decomposition:
    """Chain components of the presented shift, one per strongly connected
    subgraph with a cycle of the canonical presentation.  Built once per
    canonical presentation, so graphs of one language share them.

    When g is irreducible, a component that no edge leaves presents the
    whole language: a word u leads the follower automaton into it, and for
    every word w some z puts uzw in the language, so zw is read inside it.
    Its canonical presentation is then known without a build."""
    c = canonical_presentation(g)
    dec, closed = _decompose(c)
    if closed and is_irreducible(g):
        for k in closed:
            _know_canonical(k, c)
    return dec


@functools.lru_cache(maxsize=MEMO_SIZE)
def _decompose(c: SftGraph) -> tuple[Decomposition, tuple[SftGraph, ...]]:
    """The chain components of a canonical presentation c, with those that
    no edge leaves, other than c itself."""
    arcs = _arcs(c)
    comps = []
    closed = []
    transient = []
    for verts in _sccs(c.vertices, arcs):
        vs = set(verts)
        if len(verts) == 1 and verts[0] not in arcs[verts[0]]:
            transient.extend(verts)
            continue
        sub = SftGraph(
            tuple(v for v in c.vertices if v in vs),
            tuple(e for e in c.edges if e[0] in vs and e[1] in vs),
            c.alphabet)
        comps.append(sub)
        if sub is not c and all(w in vs for v in verts for w in arcs[v]):
            closed.append(sub)
    comps.sort(key=lambda s: s.vertices[0])
    named = tuple(ChainComponent("K%d" % i, s) for i, s in enumerate(comps))
    return Decomposition(named, tuple(sorted(transient))), tuple(closed)


def restrict_graph_to_cr(g: SftGraph) -> SftGraph:
    """Union of all chain components: the chain recurrent part."""
    dec = chain_components(g)
    verts: list[str] = []
    edges: list[tuple[str, str, str]] = []
    for c in dec.components:
        verts.extend(c.graph.vertices)
        edges.extend(c.graph.edges)
    return SftGraph(tuple(verts), tuple(edges), g.alphabet)


@functools.lru_cache(maxsize=MEMO_SIZE)
def is_irreducible(g: SftGraph) -> bool:
    ge = essential(g)
    return len(_sccs(ge.vertices, _arcs(ge))) == 1


@dataclass(frozen=True)
class CyclicStructure:
    """Period m and ordered vertex classes of an irreducible graph; every
    edge runs from class i to class i+1 mod m.  Class 0 is the class
    holding the smallest vertex name.  ``vertex_class`` is the read-only
    vertex -> class map, built once from ``classes``."""

    period: int
    classes: tuple[tuple[str, ...], ...]
    vertex_class: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = {v: i for i, cls in enumerate(self.classes) for v in cls}
        object.__setattr__(self, "vertex_class", MappingProxyType(index))


@functools.lru_cache(maxsize=MEMO_SIZE)
def cyclic_structure(g: SftGraph) -> CyclicStructure:
    ge = essential(g)
    if not ge.vertices:
        raise EmptyShift("cyclic structure of an empty graph")
    if not is_irreducible(ge):
        raise NotIrreducible("cyclic structure needs an irreducible graph")
    root = ge.vertices[0]
    dist = {root: 0}
    queue = deque([root])
    arcs = _arcs(ge)
    while queue:
        u = queue.popleft()
        for v in arcs[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    m = 0
    for (u, v, _a) in ge.edges:
        m = math.gcd(m, dist[u] + 1 - dist[v])
    raw: list[list[str]] = [[] for _ in range(m)]
    for v in ge.vertices:
        raw[dist[v] % m].append(v)
    # Rotate so the class containing the least vertex name comes first.
    k = dist[min(ge.vertices)] % m
    classes = tuple(tuple(sorted(raw[(k + i) % m])) for i in range(m))
    return CyclicStructure(m, classes)


def is_mixing(g: SftGraph) -> bool:
    return is_irreducible(g) and cyclic_structure(g).period == 1


def mixing_constant(g: SftGraph) -> int:
    """Least L with a path of length exactly L between every ordered
    vertex pair (equivalently the adjacency matrix power is positive).
    Raises NotMixing if no such L up to the cap 4n**2 + 4 exists.  Rows
    of the adjacency powers are vertex bitmasks: a row of the next power
    is the image of the row before under the adjacency rows, by a fresh
    ``_image_map`` per power, so its memo holds at most n rows."""
    ge = essential(g)
    n = len(ge.vertices)
    if n == 0:
        raise EmptyShift("mixing constant of an empty graph")
    cap = 4 * n * n + 4
    idx = {v: i for i, v in enumerate(ge.vertices)}
    adj = [0] * n
    for (u, v, _s) in ge.edges:
        adj[idx[u]] |= 1 << idx[v]
    full = (1 << n) - 1
    power = [1 << i for i in range(n)]
    for ell in range(1, cap + 1):
        power = list(map(_image_map(adj), power))
        if all(row == full for row in power):
            return ell
    raise NotMixing("no positive adjacency power up to %d" % cap)


# ---------------------------------------------------------------------------
# Entropy


def has_positive_entropy(g: SftGraph) -> bool:
    """Structural test: some chain component carries two distinct cycles
    through a common vertex, i.e. is not a lone cycle."""
    dec = chain_components(g)
    for c in dec.components:
        if len(c.graph.edges) > len(c.graph.vertices):
            return True
    return False


def entropy(g: SftGraph) -> float:
    """Topological entropy: natural log of the spectral radius of the
    adjacency matrix of the canonical deterministic presentation, the
    largest over its chain components.  A component with as many edges as
    vertices is a lone cycle, of spectral radius exactly 1, so it is never
    passed to ``eigvals``; with no other component the entropy is exactly
    0.0.  Computed once per canonical presentation.

    A non-empty essential part with as many edges as vertices gives every
    vertex one edge in and one out: it is a union of cycles, so the shift
    is finite.  An irreducible right-resolving graph with more edges than
    vertices has spectral radius above 1 (Lind & Marcus, 1995, 4.3-4.4),
    so every component of its canonical presentation is a lone cycle, and
    0.0 is returned with no build."""
    ge = essential(g)
    if ge.vertices and len(ge.edges) == len(ge.vertices):
        return 0.0
    return _entropy(canonical_presentation(g))


@functools.lru_cache(maxsize=MEMO_SIZE)
def _entropy(c: SftGraph) -> float:
    """The entropy of the shift whose canonical presentation is c."""
    dec = _decompose(c)[0]
    if not dec.components:
        raise EmptyShift("entropy of an empty shift")
    best = 1.0
    for comp in dec.components:
        ge = comp.graph
        n = len(ge.vertices)
        if len(ge.edges) == n:
            continue
        idx = {v: i for i, v in enumerate(ge.vertices)}
        a = np.zeros((n, n))
        for (u, v, _s) in ge.edges:
            a[idx[u], idx[v]] += 1.0
        radius = float(np.max(np.abs(np.linalg.eigvals(a))))
        best = max(best, radius)
    return math.log(best)


# ---------------------------------------------------------------------------
# Cyclic classes of cylinders


def sync_length(g: SftGraph) -> Optional[int]:
    """Smallest K such that, for every admissible K-word, all vertices that
    can read it lie in a single cyclic class.  None if no K up to 2n + 2
    works, n the essential vertices of g (then per-point classes are not
    resolved by this presentation).
    Decided on the follower states reachable by exactly K symbols, as in
    :func:`class_of_word`."""
    cs = cyclic_structure(g)
    f = follower(g)
    succ: list[list[int]] = [[] for _ in f.states]
    for (i, _a), j in f.trans.items():
        succ[i].append(j)
    # others[k]: the mask of every vertex outside the class of vertex k.
    cls = [cs.vertex_class[v] for v in f.names]
    within = [0] * cs.period
    for k, c in enumerate(cls):
        within[c] |= 1 << k
    others = [within[c] ^ f.states[0] for c in cls]
    states = f.states
    # Every successor of a state within one class lies within the next
    # class, so only the states of a layer spanning two classes are kept.
    layer = {0}
    for k in range(2 * len(f.names) + 3):
        layer = {i for i in layer
                 if states[i] & others[(states[i] & -states[i]).bit_length() - 1]}
        if not layer:
            return k
        layer = {j for i in layer for j in succ[i]}
    return None


def class_of_word(g: SftGraph, word: Sequence[str]) -> int:
    """Cyclic class, in ``cyclic_structure(g)``, of the cylinder determined
    by the word, when every vertex reading the word agrees on it.  The
    follower state after the word holds the ends of the paths it labels;
    they all have length |word|, so the ends share a class exactly when
    the starts do, and the start class is the end class minus |word| mod
    the period."""
    cs = cyclic_structure(g)
    w = tuple(word)
    f = follower(g)
    end = f.walk(w)
    if end is None:
        raise NotInLanguage("word not admissible: %r" % (w,))
    cls = {cs.vertex_class[v] for v in f.vertices(end)}
    if len(cls) != 1:
        raise NotIrreducible("presentation does not resolve the class of %r" % (w,))
    return (cls.pop() - len(w)) % cs.period
