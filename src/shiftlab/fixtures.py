"""Bundled example systems used by the test suite, the CLI selftests, and
the acceptance battery."""

from __future__ import annotations

import itertools
import random

from .codes import SlidingBlockCode, symbol_code, identity_code
from .inverse_systems import InverseSequenceSpec
from .shadow_lab import gap_shift_graph, switch_level
from .shift_core import (
    SftGraph,
    canonical_presentation,
    essential,
    from_forbidden_words,
    full_shift,
    make_graph,
)


def golden_mean_graph() -> SftGraph:
    """No two consecutive 1s."""
    return from_forbidden_words("01", [("1", "1")])


def two_cycle_graph() -> SftGraph:
    """Two points swapped by the shift; period-2 cyclic structure."""
    return from_forbidden_words("ab", [("a", "a"), ("b", "b")])


def three_cycle_graph() -> SftGraph:
    return make_graph(["a", "b", "c"],
                      [("a", "b", "y"), ("b", "c", "z"), ("c", "a", "x")])


def disjoint_union(a: SftGraph, b: SftGraph, left: str = "L.", right: str = "R.") -> SftGraph:
    """Both graphs side by side, each vertex name of ``a`` prefixed by
    ``left`` and of ``b`` by ``right``; the alphabet is the sorted union."""
    verts, edges = [], []
    for g, pre in ((a, left), (b, right)):
        verts.extend(pre + v for v in g.vertices)
        edges.extend((pre + u, pre + v, s) for (u, v, s) in g.edges)
    alphabet = tuple(sorted(set(a.alphabet) | set(b.alphabet)))
    return SftGraph(tuple(verts), tuple(edges), alphabet)


# ---------------------------------------------------------------------------
# Inverse sequence fixtures


def constant_sequence(g: SftGraph, length: int = 3) -> InverseSequenceSpec:
    """The same level with identity codes; trivially one-step stable."""
    levels = tuple(g for _ in range(length))
    codes = tuple(identity_code(g) for _ in range(length - 1))
    return InverseSequenceSpec(levels, codes, "identity")


def abc_sequence() -> InverseSequenceSpec:
    """Three fixed points a, b, c with a -> b -> c -> c at every level;
    one-step images keep shrinking for exactly one extra step, so the
    image chain needs two steps to settle."""
    g = make_graph(["a", "b", "c"],
                   [("a", "a", "a"), ("b", "b", "b"), ("c", "c", "c")])
    code = symbol_code(g, g, {"a": "b", "b": "c", "c": "c"})
    return InverseSequenceSpec((g,), (code,), "periodic", 1)


def merging_sequence() -> InverseSequenceSpec:
    """Two fixed points upstairs both mapping into one full shift
    downstairs: two component towers at depth 2."""
    lower = full_shift("01")
    upper = make_graph(["z", "o"], [("z", "z", "0"), ("o", "o", "1")])
    code = symbol_code(upper, lower, {"0": "0", "1": "1"})
    return InverseSequenceSpec((lower, upper, upper),
                               (code, identity_code(upper)), "identity")


def branching_sequence() -> InverseSequenceSpec:
    """Adversarial fixture for the greedy selection: at level 2 a small
    component (one fixed point, fed by nothing deeper) competes with a
    full-shift component; only the maximal-image choice extends to a
    stable tower."""
    l1 = full_shift("01")
    l2 = make_graph(["e", "f"],
                    [("e", "e", "2"), ("f", "f", "0"), ("f", "f", "1")],
                    alphabet=("0", "1", "2"))
    l3 = full_shift("01")
    c1 = symbol_code(l2, l1, {"0": "0", "1": "1", "2": "0"})
    c2 = symbol_code(l3, l2, {"0": "0", "1": "1"})
    return InverseSequenceSpec((l1, l2, l3), (c1, c2), "identity")


def mixed_sequence(length: int = 4) -> InverseSequenceSpec:
    """Every level is a zero-entropy 3-cycle next to a golden mean copy."""
    g = disjoint_union(three_cycle_graph(), golden_mean_graph())
    return constant_sequence(g, length)


def cycles_only_sequence(length: int = 3) -> InverseSequenceSpec:
    return constant_sequence(three_cycle_graph(), length)


def two_cycle_sequence(length: int = 3) -> InverseSequenceSpec:
    return constant_sequence(two_cycle_graph(), length)


# ---------------------------------------------------------------------------
# Cantor-base product fixture


def _tagged_fiber(tag: str, fiber: SftGraph) -> SftGraph:
    verts = tuple("%s|%s" % (tag, v) for v in fiber.vertices)
    edges = tuple(("%s|%s" % (tag, u), "%s|%s" % (tag, v), "%s:%s" % (tag, a))
                  for (u, v, a) in fiber.edges)
    alphabet = tuple(sorted({e[2] for e in edges}))
    return SftGraph(verts, edges, alphabet)


def cantor_product_sequence(depth: int = 4) -> InverseSequenceSpec:
    """Levels indexed by base resolution: level n is a disjoint union,
    over binary base words u of length n, of a gap shift whose gap equals
    the switch level of u, tagged by u.  The code drops the last base
    symbol and keeps the fiber symbol.  Every level component sits over a
    base cylinder; refining the cylinder by repeating its last symbol
    keeps the fiber, so one-step images are stable."""
    levels = []
    for n in range(1, depth + 1):
        parts = None
        for u in itertools.product("01", repeat=n):
            tag = "".join(u)
            fiber = gap_shift_graph(switch_level(u))
            tagged = _tagged_fiber(tag, fiber)
            parts = tagged if parts is None else disjoint_union(parts, tagged, "", "")
        levels.append(parts)
    codes = []
    for n in range(1, depth):
        upper = levels[n]
        lower = levels[n - 1]
        mapping = {}
        for sym in upper.alphabet:
            tag, fib = sym.split(":")
            mapping[sym] = "%s:%s" % (tag[:-1], fib)
        codes.append(symbol_code(upper, lower, mapping))
    return InverseSequenceSpec(tuple(levels), tuple(codes), "identity")


# ---------------------------------------------------------------------------
# Seeded random sequences


def random_graph(rng: random.Random, symbols: str = "012",
                 max_vertices: int = 3, prefix: str = "v") -> SftGraph:
    while True:
        nv = rng.randint(1, max_vertices)
        verts = tuple("%s%d" % (prefix, i) for i in range(nv))
        ab = tuple(sorted(rng.sample(symbols, rng.randint(1, 2))))
        edges = []
        for u in verts:
            for v in verts:
                for a in ab:
                    if rng.random() < 0.35:
                        edges.append((u, v, a))
        g = essential(SftGraph(verts, tuple(edges), ab))
        if g.vertices:
            return SftGraph(g.vertices, g.edges, ab)


def random_sequence(seed: int) -> InverseSequenceSpec:
    """Seeded sequence built top down: each lower level is the image of
    the one above (so every code is valid by construction), optionally
    together with an extra stray component that deeper levels miss."""
    rng = random.Random(seed)
    depth = rng.randint(3, 5)
    upper = random_graph(rng, prefix="t")
    levels = [upper]
    codes: list[SlidingBlockCode] = []
    for n in range(depth - 1, 0, -1):
        phi = {a: rng.choice("012") for a in upper.alphabet}
        relabeled = SftGraph(
            upper.vertices,
            tuple(dict.fromkeys((u, v, phi[a]) for (u, v, a) in upper.edges)),
            tuple(sorted(set(phi.values()))))
        lower = canonical_presentation(relabeled)
        if rng.random() < 0.5:
            extra = random_graph(rng, prefix="x%d" % n)
            lower = disjoint_union(lower, extra, "", "u.")
        code = symbol_code(upper, lower, phi)
        levels.insert(0, lower)
        codes.insert(0, code)
        upper = lower
    return InverseSequenceSpec(tuple(levels), tuple(codes), "identity")
