"""Chain components, cyclic structure, entropy, cyclic classes of words."""

import dataclasses
import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from memos import clear_value_memos
from oracles import entropy_oracle, twin_graph
from shiftlab.decomposition import (
    CyclicStructure,
    chain_components,
    class_of_word,
    cyclic_structure,
    entropy,
    has_positive_entropy,
    is_irreducible,
    is_mixing,
    mixing_constant,
    restrict_graph_to_cr,
    sync_length,
)
from shiftlab.errors import EmptyShift, NotInLanguage, NotIrreducible, NotMixing
from shiftlab.fixtures import (
    disjoint_union,
    golden_mean_graph,
    random_graph,
    three_cycle_graph,
    two_cycle_graph,
)
from shiftlab.shift_core import (
    SftGraph,
    essential,
    from_forbidden_words,
    full_shift,
    graph_from_json,
    graph_to_json,
    language_equal,
    make_graph,
    parse_word,
    word_in_language,
    words_of_length,
)

BIN = ["0", "1"]
PHI = (1 + math.sqrt(5)) / 2


class TestChainComponents:
    def test_irreducible_graph_is_one_component(self):
        dec = chain_components(golden_mean_graph())
        assert len(dec.components) == 1
        assert not dec.transient_vertices

    def test_disjoint_union_splits(self):
        g = disjoint_union(golden_mean_graph(), three_cycle_graph())
        dec = chain_components(g)
        assert len(dec.components) == 2

    def test_contained_loop_is_not_a_component(self):
        # A lone 0-loop beside a full-shift vertex presents a point set
        # contained in the full shift, so there is only one component.
        g = make_graph(["a", "b"],
                       [("a", "a", "0"),
                        ("b", "b", "0"), ("b", "b", "1")],
                       alphabet=BIN)
        dec = chain_components(g)
        assert len(dec.components) == 1
        assert language_equal(dec.components[0].graph, full_shift(BIN))[0]

    def test_transient_vertices_reported(self):
        g = make_graph(["a", "b"],
                       [("a", "a", "0"), ("a", "b", "1"), ("b", "b", "0")],
                       alphabet=BIN)
        dec = chain_components(g)
        # canonical presentation: two loops joined by a one-way edge
        assert len(dec.components) == 2

    def test_shared_by_graph_value(self):
        g = disjoint_union(golden_mean_graph(), three_cycle_graph())
        assert graph_from_json(graph_to_json(g)) is g
        twin = twin_graph(g)
        assert twin is not g
        assert chain_components(g) is chain_components(twin)

    def test_restrict_to_cr(self):
        g = make_graph(["a", "b"],
                       [("a", "a", "0"), ("a", "b", "1"), ("b", "b", "2")],
                       alphabet=["0", "1", "2"])
        cr = restrict_graph_to_cr(g)
        assert not is_irreducible(g)
        from shiftlab.shift_core import word_in_language
        assert not word_in_language(cr, parse_word("0.1.2"))
        assert word_in_language(cr, parse_word("0.0"))
        assert word_in_language(cr, parse_word("2.2"))


class TestCyclicStructure:
    def test_mixing_graph_has_period_one(self):
        cs = cyclic_structure(golden_mean_graph())
        assert cs.period == 1

    def test_two_cycle(self):
        cs = cyclic_structure(two_cycle_graph())
        assert cs.period == 2
        assert len(cs.classes) == 2

    def test_three_cycle(self):
        assert cyclic_structure(three_cycle_graph()).period == 3

    def test_even_odd_block_graph(self):
        # two states, edges both ways with distinct labels: period 2
        g = two_cycle_graph()
        cs = cyclic_structure(g)
        k = sync_length(g)
        assert k is not None
        assert class_of_word(g, cs, parse_word("a"[:0] + "ab"[0])) in (0, 1)
        c1 = class_of_word(g, cs, ("a",))
        c2 = class_of_word(g, cs, ("b",))
        assert {c1, c2} == {0, 1}

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    def test_matches_scan_oracle(self, seed, classes):
        g = _cyclic_graph(random.Random(seed), classes, "01")
        cs = cyclic_structure(g)
        assert cs == _cyclic_structure_oracle(g)
        for v in g.vertices:
            assert cs.vertex_class[v] == _class_of_vertex_oracle(cs, v)
        with pytest.raises(KeyError) as got:
            cs.vertex_class["missing"]
        with pytest.raises(KeyError) as want:
            _class_of_vertex_oracle(cs, "missing")
        assert got.value.args == want.value.args

    def test_vertex_map_is_read_only_and_not_compared(self):
        cs = cyclic_structure(two_cycle_graph())
        again = CyclicStructure(cs.period, cs.classes)
        assert cs == again and hash(cs) == hash(again)
        assert cs.vertex_class == again.vertex_class
        assert [f.name for f in dataclasses.fields(cs) if f.compare] == ["period", "classes"]
        assert repr(cs) == "CyclicStructure(period=2, classes=%r)" % (cs.classes,)
        with pytest.raises(TypeError):
            cs.vertex_class["a"] = 0

    def test_long_cycle_is_fast(self):
        # One class per vertex: a scan per class or per lookup is quadratic.
        n = 6000
        g = SftGraph(tuple("v%d" % i for i in range(n)),
                     tuple(("v%d" % i, "v%d" % ((i + 1) % n), "0") for i in range(n)),
                     ("0",))
        t0 = time.perf_counter()
        cs = cyclic_structure(g)
        assert [cs.vertex_class[v] for v in g.vertices] == list(range(n))
        assert time.perf_counter() - t0 < 1.0

    def test_mixing_predicates(self):
        assert is_mixing(golden_mean_graph())
        assert not is_mixing(two_cycle_graph())
        with pytest.raises(NotMixing):
            mixing_constant(two_cycle_graph())

    def test_mixing_constant_golden_mean(self):
        m = mixing_constant(golden_mean_graph())
        assert m == 2


def _marked_cycle_ladder(n, chords):
    """The benchmark's cycle of n vertices with one edge labeled 1, plus
    up to ``chords`` edges labeled 1 that make it branch."""
    verts = ["v%d" % i for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n], "1" if i == n - 1 else "0") for i in range(n)]
    edges += [(verts[i], verts[(3 * i) % n], "1") for i in range(min(chords, n - 1))]
    return make_graph(verts, edges, alphabet=BIN)


def _chords_of(g, k):
    """g with up to k extra edges between its vertices on a fresh label."""
    vs = g.vertices
    if not vs:
        return g
    extra = [(vs[i % len(vs)], vs[(2 * i + 1) % len(vs)], "x") for i in range(k)]
    return SftGraph(vs, g.edges + tuple(dict.fromkeys(extra)), g.alphabet + ("x",))


class TestEntropy:
    def test_full_shift(self):
        assert entropy(full_shift(BIN)) == pytest.approx(math.log(2), abs=1e-12)

    def test_golden_mean(self):
        assert entropy(golden_mean_graph()) == pytest.approx(math.log(PHI), abs=1e-9)

    def test_cycles_have_zero_entropy(self):
        assert entropy(three_cycle_graph()) == 0.0
        assert not has_positive_entropy(three_cycle_graph())

    def test_union_takes_max(self):
        g = disjoint_union(golden_mean_graph(), three_cycle_graph())
        assert entropy(g) == pytest.approx(math.log(PHI), abs=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(BIN), min_size=2, max_size=3).map(tuple),
                    max_size=2))
    def test_entropy_below_full_shift(self, forbidden):
        g = from_forbidden_words(BIN, forbidden)
        if not essential(g).vertices:
            return
        assert entropy(g) <= math.log(2) + 1e-12

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.builds(lambda seed, nv: random_graph(random.Random(seed), max_vertices=nv),
                  st.integers(0, 10 ** 6), st.integers(1, 7)),
        st.builds(lambda seed, nv, k: _chords_of(random_graph(random.Random(seed),
                                                              max_vertices=nv), k),
                  st.integers(0, 10 ** 6), st.integers(1, 7), st.integers(0, 3)),
        st.builds(_marked_cycle_ladder, st.integers(1, 200), st.integers(0, 2))))
    def test_skipping_lone_cycles_matches_oracle(self, g):
        # Bit for bit, on a graph and on each of its chain components.
        graphs = [g]
        if essential(g).vertices:
            graphs += [c.graph for c in chain_components(g).components]
        for h in graphs:
            try:
                want = entropy_oracle(h)
            except EmptyShift:
                with pytest.raises(EmptyShift):
                    entropy(h)
                continue
            assert entropy(h) == want
            assert entropy.__wrapped__(h) == want

    def test_lone_cycles_are_not_passed_to_eigvals(self, monkeypatch):
        calls = []
        eigvals = np.linalg.eigvals

        def counting(a):
            calls.append(a.shape[0])
            return eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", counting)
        clear_value_memos()
        assert entropy(_marked_cycle_ladder(200, 0)) == 0.0
        assert entropy(disjoint_union(three_cycle_graph(), two_cycle_graph())) == 0.0
        assert calls == []
        g = disjoint_union(golden_mean_graph(), _marked_cycle_ladder(50, 0))
        h = entropy(g)
        assert calls == [2]
        assert h == entropy_oracle(g) == pytest.approx(math.log(PHI), abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_memoised_by_value(self, rng):
        # An equal graph built anywhere is the same graph; one built apart
        # from the intern table hits the memo by value, and the memoised
        # values are the ones a cold computation gives, bit for bit.
        g = random_graph(rng, max_vertices=5)
        assert SftGraph(tuple(g.vertices), tuple(g.edges), tuple(g.alphabet)) is g
        twin = twin_graph(g)
        assert twin is not g
        if essential(g).vertices:
            h = entropy(g)
            assert entropy(twin) is h
            assert h.hex() == entropy.__wrapped__(twin).hex()
        if is_irreducible(g):
            cs = cyclic_structure(g)
            assert cyclic_structure(twin) is cs
            assert cs == cyclic_structure.__wrapped__(twin)


def _class_of_vertex_oracle(cs, v):
    """The class of vertex v, by scanning the classes in order."""
    for i, cls in enumerate(cs.classes):
        if v in cls:
            return i
    raise KeyError(v)


def _cyclic_structure_oracle(g):
    """cyclic_structure with one scan of all vertices per class."""
    ge = essential(g)
    root = ge.vertices[0]
    dist = {root: 0}
    queue = [root]
    for u in queue:
        for (x, v, _a) in ge.edges:
            if x == u and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    m = 0
    for (u, v, _a) in ge.edges:
        m = math.gcd(m, dist[u] + 1 - dist[v])
    m = m or 1
    raw = [tuple(sorted(v for v in ge.vertices if dist[v] % m == i)) for i in range(m)]
    least = min(ge.vertices)
    k = next(i for i, cls in enumerate(raw) if least in cls)
    return CyclicStructure(m, tuple(raw[(k + i) % m] for i in range(m)))


def _reading_vertices_oracle(g, word):
    """Vertices from which the word labels some outgoing path, found by
    scanning every edge backwards once per symbol."""
    ge = essential(g)
    alive = set(ge.vertices)
    w = tuple(word)
    for j in range(len(w) - 1, -1, -1):
        alive = {u for (u, v, a) in ge.edges if a == w[j] and v in alive}
    return tuple(sorted(alive))


def _sync_length_oracle(g, cap=None):
    """sync_length by reading every admissible word of each length."""
    cs = cyclic_structure(g)
    if cs.period == 1:
        return 0
    ge = essential(g)
    if cap is None:
        cap = 2 * len(ge.vertices) + 2
    for k in range(cap + 1):
        good = True
        for w in words_of_length(ge, k):
            cls = {_class_of_vertex_oracle(cs, v) for v in _reading_vertices_oracle(ge, w)}
            if len(cls) > 1:
                good = False
                break
        if good:
            return k
    return None


def _class_of_word_oracle(g, cs, word):
    """class_of_word from the vertices that can read the word."""
    vs = _reading_vertices_oracle(g, word)
    if not vs:
        raise NotInLanguage("word not admissible: %r" % (tuple(word),))
    cls = {_class_of_vertex_oracle(cs, v) for v in vs}
    if len(cls) != 1:
        raise NotIrreducible("presentation does not resolve the class of %r" % (tuple(word),))
    return cls.pop()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _cyclic_graph(rng, classes, symbols):
    """Random irreducible graph with the given number of cyclic classes:
    a spine cycle through the first vertex of each class, every vertex
    joined to the spine both ways, and random edges from each class to
    the next.  The edges leaving a class carry labels from a random subset
    of the symbols, so some presentations resolve their classes and some
    do not."""
    sizes = [rng.randint(1, 2) for _ in range(classes)]
    layers = [["c%dv%d" % (i, j) for j in range(n)] for i, n in enumerate(sizes)]
    labels = [rng.sample(symbols, rng.randint(1, len(symbols))) for _ in layers]
    edges = set()
    for i, layer in enumerate(layers):
        nxt = layers[(i + 1) % classes]
        for v in layer:
            edges.add((layers[i - 1][0], v, rng.choice(labels[i - 1])))
            edges.add((v, nxt[0], rng.choice(labels[i])))
            for u in nxt:
                for a in labels[i]:
                    if rng.random() < 0.3:
                        edges.add((v, u, a))
    verts = [v for layer in layers for v in layer]
    return SftGraph(tuple(verts), tuple(sorted(edges)), tuple(symbols))


def _bipartite_full_shift(n):
    """The full 2-shift on a complete bipartite graph with n vertices a
    side: period 2, and every word is read from every vertex, so no word
    length resolves the classes."""
    left = ["a%d" % i for i in range(n)]
    right = ["b%d" % i for i in range(n)]
    edges = tuple((u, v, s) for x, y in ((left, right), (right, left))
                  for u in x for v in y for s in BIN)
    return SftGraph(tuple(left + right), edges, tuple(BIN))


def _mixing_constant_oracle(g):
    """mixing_constant by boolean numpy matrix powers."""
    ge = essential(g)
    n = len(ge.vertices)
    if n == 0:
        raise EmptyShift("mixing constant of an empty graph")
    cap = 4 * n * n + 4
    idx = {v: i for i, v in enumerate(ge.vertices)}
    a = np.zeros((n, n), dtype=bool)
    for (u, v, _s) in ge.edges:
        a[idx[u], idx[v]] = True
    power = np.eye(n, dtype=bool)
    for ell in range(1, cap + 1):
        power = power @ a
        if power.all():
            return ell
    raise NotMixing("no positive adjacency power up to %d" % cap)


def _mixing_case(rng):
    """A random graph (mixing or not, reducible or not), a graph with 1
    to 4 cyclic classes, or a long cycle with one chord, whose mixing
    constant is large."""
    kind = rng.randrange(3)
    if kind == 0:
        return random_graph(rng, max_vertices=rng.randint(1, 8))
    if kind == 1:
        return _cyclic_graph(rng, rng.randint(1, 4), "01")
    n = rng.randint(2, 12)
    verts = ["v%d" % i for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n], "0") for i in range(n)]
    edges.append((verts[rng.randrange(n)], verts[rng.randrange(n)], "1"))
    return make_graph(verts, edges, alphabet=BIN)


class TestMixingConstantOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_matrix_powers(self, rng):
        g = _mixing_case(rng)
        assert _outcome(mixing_constant, g) == _outcome(_mixing_constant_oracle, g)

    def test_both_outcomes_occur(self):
        rng = random.Random(0)
        outcomes = set()
        for _ in range(200):
            g = _mixing_case(rng)
            out = _outcome(mixing_constant, g)
            assert out == _outcome(_mixing_constant_oracle, g)
            outcomes.add(out[0] if isinstance(out, tuple) else "mixing")
        assert outcomes == {"mixing", NotMixing}


class TestClassesFromFollower:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4), st.sampled_from(["01", "012", "0123"]))
    def test_matches_reading_oracle(self, seed, classes, symbols):
        g = _cyclic_graph(random.Random(seed), classes, symbols)
        cs = cyclic_structure(g)
        assert cs.period == classes
        # The oracle lists every admissible word of each length up to its
        # cap; a cap of 6 keeps that to a few thousand words per length.
        # With two or more classes there are at least two vertices, so
        # sync_length's own cap, 2n + 2, is at least 6.
        k = _sync_length_oracle(g, 6)
        if k is not None:
            assert sync_length(g) == k
        else:
            found = sync_length(g)
            assert found is None or found > 6
        for n in range(6):
            for w in itertools.product(symbols, repeat=n):
                assert (_outcome(class_of_word, g, cs, w)
                        == _outcome(_class_of_word_oracle, g, cs, w))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12), st.sets(st.integers(0, 11)))
    def test_marked_cycles_match_reading_oracle(self, n, marked):
        # An n-cycle has period n; with no marked edge, or every edge
        # marked, no word length resolves its classes.
        verts = ["v%d" % i for i in range(n)]
        g = make_graph(verts, [(verts[i], verts[(i + 1) % n], "1" if i in marked else "0")
                               for i in range(n)], alphabet=BIN)
        cs = cyclic_structure(g)
        assert cs.period == n
        assert sync_length(g) == _sync_length_oracle(g)
        for k in range(7):
            for w in itertools.product(BIN, repeat=k):
                assert (_outcome(class_of_word, g, cs, w)
                        == _outcome(_class_of_word_oracle, g, cs, w))

    def test_fixtures_match_reading_oracle(self):
        for g in (golden_mean_graph(), two_cycle_graph(), three_cycle_graph()):
            cs = cyclic_structure(g)
            assert sync_length(g) == _sync_length_oracle(g)
            for n in range(5):
                for w in itertools.product(g.alphabet, repeat=n):
                    assert (_outcome(class_of_word, g, cs, w)
                            == _outcome(_class_of_word_oracle, g, cs, w))

    def test_unresolved_bipartite_presentation_is_fast(self):
        for n in (3, 5):
            g = _bipartite_full_shift(n)
            assert cyclic_structure(g).period == 2
            t0 = time.perf_counter()
            assert sync_length(g) is None
            assert time.perf_counter() - t0 < 2.0
        assert _sync_length_oracle(_bipartite_full_shift(3)) is None
