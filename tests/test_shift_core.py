"""Core shift-space machinery: graphs, languages, points, the metric."""

import random
import time
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.errors import NotInLanguage, PreconditionError
from shiftlab.fixtures import golden_mean_graph, random_graph, two_cycle_graph
from shiftlab.shift_core import (
    SftGraph,
    SymbolicPoint,
    _minimize,
    canonical_presentation,
    canonical_signature,
    distance,
    essential,
    follower,
    from_forbidden_words,
    full_shift,
    graph_from_json,
    graph_to_json,
    language_equal,
    language_subset,
    make_graph,
    parse_word,
    periodic_points,
    point_in_shift,
    word_distance,
    word_in_language,
    word_str,
    words_of_length,
)

BIN = ["0", "1"]


def binary_points():
    pres = st.lists(st.sampled_from(BIN), max_size=4).map(tuple)
    pers = st.lists(st.sampled_from(BIN), min_size=1, max_size=4).map(tuple)
    return st.builds(SymbolicPoint, pres, pers)


class TestGraphs:
    def test_full_shift_counts(self):
        g = full_shift(BIN)
        assert [len(words_of_length(g, n)) for n in range(1, 6)] == [2, 4, 8, 16, 32]

    def test_golden_mean_counts_are_fibonacci(self):
        g = golden_mean_graph()
        counts = [len(words_of_length(g, n)) for n in range(1, 10)]
        assert counts == [2, 3, 5, 8, 13, 21, 34, 55, 89]

    def test_forbidden_word_removed(self):
        g = from_forbidden_words(BIN, [("1", "1")])
        assert not word_in_language(g, parse_word("11"))
        assert word_in_language(g, parse_word("101"))
        assert language_equal(g, golden_mean_graph())[0]

    def test_forbidden_words_of_mixed_length(self):
        g = from_forbidden_words(BIN, [("1", "1"), ("1", "0", "1")])
        assert not word_in_language(g, parse_word("101"))
        assert not word_in_language(g, parse_word("11"))
        assert word_in_language(g, parse_word("1001"))

    def test_forbidden_everything_gives_empty(self):
        g = from_forbidden_words(BIN, [("0",), ("1",)])
        assert not g.vertices

    def test_essential_prunes_dead_ends(self):
        g = make_graph(["a", "b", "c"], [("a", "a", "0"), ("a", "b", "1")],
                       alphabet=BIN)
        ge = essential(g)
        assert set(ge.vertices) == {"a"}

    def test_essential_prunes_long_tail_quickly(self):
        # A 4,000-vertex path into a loop: the round-by-round pruning needed
        # one full recount per tail vertex.
        n = 4000
        verts = ["t%d" % i for i in range(n)] + ["loop"]
        edges = [("t%d" % i, "t%d" % (i + 1), "0") for i in range(n - 1)]
        edges += [("t%d" % (n - 1), "loop", "0"), ("loop", "loop", "1")]
        g = make_graph(verts, edges, alphabet=BIN)
        t0 = time.perf_counter()
        ge = essential(g)
        assert time.perf_counter() - t0 < 1.0
        assert ge == SftGraph(("loop",), (("loop", "loop", "1"),), tuple(BIN))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(PreconditionError):
            make_graph(["a"], [("a", "a", "0"), ("a", "a", "0")], alphabet=BIN)


def _essential_oracle(g):
    """Pruning in full rounds: recount every degree, drop every vertex
    without an incoming or outgoing edge, repeat until nothing changes."""
    alive = set(g.vertices)
    changed = True
    while changed:
        changed = False
        outs = {v: 0 for v in alive}
        ins = {v: 0 for v in alive}
        for (u, v, a) in g.edges:
            if u in alive and v in alive:
                outs[u] += 1
                ins[v] += 1
        for v in list(alive):
            if outs[v] == 0 or ins[v] == 0:
                alive.discard(v)
                changed = True
    return SftGraph(
        tuple(v for v in g.vertices if v in alive),
        tuple(e for e in g.edges if e[0] in alive and e[1] in alive),
        g.alphabet,
    )


def _loose_graph(rng, nv):
    """Random graph stored as drawn, dead ends and sources included."""
    verts = tuple("v%d" % i for i in range(nv))
    edges = tuple((u, v, a) for u in verts for v in verts for a in BIN
                  if rng.random() < 0.15)
    return SftGraph(verts, edges, tuple(BIN))


class TestEssential:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 8))
    def test_matches_round_oracle(self, seed, nv):
        g = _loose_graph(random.Random(seed), nv)
        assert essential(g) == _essential_oracle(g)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5))
    def test_matches_round_oracle_on_random_graph(self, seed, nv):
        g = random_graph(random.Random(seed), max_vertices=nv)
        assert essential(g) == _essential_oracle(g) == g


def _moore_oracle(num_states, trans, alphabet):
    """Moore refinement, which _minimize ran before Hopcroft's: split every
    block by the blocks its states move to, until no block splits."""
    block = [0] * num_states
    nblocks = 1
    while True:
        sig = {}
        newblock = [0] * num_states
        for s in range(num_states):
            key = (block[s], tuple(
                block[trans[(s, a)]] if (s, a) in trans else -1 for a in alphabet))
            if key not in sig:
                sig[key] = len(sig)
            newblock[s] = sig[key]
        if len(sig) == nblocks:
            return newblock, nblocks
        block, nblocks = newblock, len(sig)


def _canonical_oracle(g):
    """The breadth-first renaming pass over Moore-minimized blocks that
    canonical_presentation ran before it named blocks by their ids."""
    f = follower(g)
    block, _ = _moore_oracle(len(f.states), f.trans, g.alphabet)
    btrans = {(block[s], a): block[t] for (s, a), t in f.trans.items()}
    order, seen = [block[0]], {block[0]}
    i = 0
    while i < len(order):
        b = order[i]
        i += 1
        for a in g.alphabet:
            t = btrans.get((b, a))
            if t is not None and t not in seen:
                seen.add(t)
                order.append(t)
    names = {b: "c%d" % k for k, b in enumerate(order)}
    edges = tuple(sorted((names[b], names[t], a) for (b, a), t in btrans.items()
                         if b in names and t in names))
    return essential(SftGraph(tuple(names[b] for b in order), edges, g.alphabet))


def _labelled_cycle(labels):
    n = len(labels)
    return make_graph(["v%d" % i for i in range(n)],
                      [("v%d" % i, "v%d" % ((i + 1) % n), a) for i, a in enumerate(labels)],
                      alphabet=BIN)


def _marked_cycle(n, marked):
    """An n-cycle labelled 0 except on the edges whose index is marked."""
    return _labelled_cycle(["1" if i in marked else "0" for i in range(n)])


def _random_dfa(rng, num_states, alphabet):
    """Partial DFA with random transitions, reachable or not."""
    trans = {(s, a): rng.randrange(num_states) for s in range(num_states)
             for a in alphabet if rng.random() < 0.7}
    return num_states, trans, alphabet


class TestMinimize:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from(["01", "012", "0123"]),
           st.integers(1, 8))
    def test_matches_moore_on_random_graphs(self, seed, symbols, nv):
        g = random_graph(random.Random(seed), symbols=symbols, max_vertices=nv)
        f = follower(g)
        args = (len(f.states), f.trans, g.alphabet)
        assert _minimize(*args) == _moore_oracle(*args)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 300), st.sets(st.integers(0, 299), max_size=4))
    def test_matches_moore_on_marked_cycles(self, n, marked):
        g = _marked_cycle(n, {i % n for i in marked})
        f = follower(g)
        args = (len(f.states), f.trans, g.alphabet)
        assert _minimize(*args) == _moore_oracle(*args)
        assert canonical_presentation(g) == _canonical_oracle(g)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 8), st.sampled_from(["0", "01", "012"]))
    def test_matches_moore_on_partial_dfas(self, seed, num_states, symbols):
        args = _random_dfa(random.Random(seed), num_states, tuple(symbols))
        assert _minimize(*args) == _moore_oracle(*args)

    def test_long_cycle_is_fast(self):
        # Moore refinement needs one round per vertex on a marked cycle.
        f = follower(_marked_cycle(1000, {0}))
        t0 = time.perf_counter()
        block, nblocks = _minimize(len(f.states), f.trans, ("0", "1"))
        assert time.perf_counter() - t0 < 1.0
        assert nblocks == len(f.states) == len(set(block))


class TestCanonicalPresentation:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.builds(lambda seed, nv: random_graph(random.Random(seed), symbols="0123",
                                                max_vertices=nv),
                  st.integers(0, 10 ** 6), st.integers(1, 7)),
        st.lists(st.sampled_from(BIN), min_size=1, max_size=59).map(_labelled_cycle)))
    def test_matches_bfs_renaming_oracle(self, g):
        assert canonical_presentation(g) == _canonical_oracle(g)

    def test_long_cycle_and_empty_shift_match_oracle(self):
        for g in (_labelled_cycle("0" * 58 + "1"), EMPTY):
            assert canonical_presentation(g) == _canonical_oracle(g)

    def test_canonical_is_deterministic(self):
        g = make_graph(["a", "b"],
                       [("a", "a", "0"), ("a", "b", "0"), ("b", "a", "1")],
                       alphabet=BIN)
        gc = canonical_presentation(g)
        assert gc.is_deterministic()
        assert language_equal(g, gc)[0]

    def test_signature_invariant_under_renaming(self):
        g1 = golden_mean_graph()
        g2 = make_graph(["x", "y"],
                        [("x", "x", "0"), ("x", "y", "1"), ("y", "x", "0")],
                        alphabet=BIN)
        assert canonical_signature(g1) == canonical_signature(g2)

    def test_signature_separates_languages(self):
        assert canonical_signature(golden_mean_graph()) != canonical_signature(full_shift(BIN))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(BIN), min_size=1, max_size=3).map(tuple),
                    max_size=3))
    def test_canonicalization_preserves_language(self, forbidden):
        g = from_forbidden_words(BIN, forbidden)
        if not g.vertices:
            return
        gc = canonical_presentation(g)
        ok, witness = language_equal(g, gc)
        assert ok, witness


class TestLanguageComparison:
    def test_subset_with_witness(self):
        ok, witness = language_subset(full_shift(BIN), golden_mean_graph())
        assert not ok
        assert witness == parse_word("11")

    def test_subset_holds(self):
        ok, witness = language_subset(golden_mean_graph(), full_shift(BIN))
        assert ok and witness is None

    def test_disjoint_alphabets_compare_as_word_sets(self):
        ok, witness = language_subset(full_shift(BIN), full_shift(["a", "b"]))
        assert not ok and witness is not None

    def test_empty_shift_witness_is_a_word_of_the_other_side(self):
        empty = SftGraph(("a",), (), ("0",))
        full = full_shift(["0"])
        assert language_subset(full, empty) == (False, ("0",))
        assert language_equal(full, empty) == (False, ("0",))
        assert language_equal(empty, full) == (False, ("0",))
        assert language_subset(empty, full) == (True, None)
        assert language_equal(empty, empty) == (True, None)


class TestWords:
    def test_word_round_trip(self):
        w = parse_word("0110")
        assert word_str(w) == "0110"
        assert parse_word(word_str(w)) == w

    def test_multichar_symbols_use_dots(self):
        w = ("aa", "b")
        assert word_str(w) == "aa.b"
        assert parse_word("aa.b") == w

    def test_word_distance(self):
        assert word_distance(parse_word("0101"), parse_word("0101")) == 0
        assert word_distance(parse_word("0101"), parse_word("0111")) == Fraction(1, 4)
        assert word_distance(parse_word("10"), parse_word("00")) == 1


class TestSymbolicPoints:
    def test_normalization_primitive_period(self):
        p = SymbolicPoint((), ("0", "1", "0", "1"))
        assert p.period == ("0", "1")

    def test_normalization_rolls_preperiod(self):
        p = SymbolicPoint(("1", "0"), ("0",))
        q = SymbolicPoint(("1",), ("0",))
        assert p == q

    def test_str(self):
        assert str(SymbolicPoint(("1",), ("0",))) == "1(0)*"
        assert str(SymbolicPoint((), ("0", "1"))) == "(01)*"

    @settings(max_examples=80, deadline=None)
    @given(binary_points(), binary_points())
    def test_distance_is_a_metric(self, x, y):
        d = distance(x, y)
        assert d >= 0
        assert (d == 0) == (x == y)
        assert d == distance(y, x)

    @settings(max_examples=80, deadline=None)
    @given(binary_points(), binary_points(), binary_points())
    def test_distance_ultrametric(self, x, y, z):
        assert distance(x, z) <= max(distance(x, y), distance(y, z))

    @settings(max_examples=60, deadline=None)
    @given(binary_points(), binary_points())
    def test_distance_matches_expansion(self, x, y):
        d = distance(x, y)
        horizon = 40
        ex, ey = x.expand(horizon), y.expand(horizon)
        if ex == ey:
            assert x == y and d == 0
        else:
            j = next(i for i in range(horizon) if ex[i] != ey[i])
            assert d == Fraction(1, 2 ** j)

    @settings(max_examples=60, deadline=None)
    @given(binary_points())
    def test_shift_drops_first_symbol(self, x):
        assert x.shift(1).expand(20) == x.expand(21)[1:]

    def test_point_in_shift(self):
        g = golden_mean_graph()
        assert point_in_shift(g, SymbolicPoint((), ("0", "1")))
        assert not point_in_shift(g, SymbolicPoint((), ("1",)))
        assert point_in_shift(g, SymbolicPoint(("1",), ("0",)))

    def test_periodic_points_counts(self):
        g = golden_mean_graph()
        assert len(periodic_points(g, 1)) == 1
        assert len(periodic_points(g, 2)) == 3
        # trace of A^3 = 4 fixed points of the cube
        assert len(periodic_points(g, 3)) == 4

    def test_periodic_points_two_cycle(self):
        assert not periodic_points(two_cycle_graph(), 1)


class TestJson:
    def test_round_trip(self):
        g = golden_mean_graph()
        g2 = graph_from_json(graph_to_json(g))
        assert language_equal(g, g2)[0]

    def test_forbidden_form(self):
        g = graph_from_json({"alphabet": ["0", "1"], "forbidden": ["11"]})
        assert language_equal(g, golden_mean_graph())[0]

    def test_schema_error(self):
        from shiftlab.errors import SchemaError
        with pytest.raises(SchemaError):
            graph_from_json({"nonsense": 1})


# ---------------------------------------------------------------------------
# The shared follower automaton against the hand-built walks it replaced


def _subset_automaton_oracle(g):
    """Subset construction over the essential part, rebuilt on every call."""
    ge = essential(g)
    out = {v: {} for v in ge.vertices}
    for (u, v, a) in ge.edges:
        out[u].setdefault(a, set()).add(v)
    start = frozenset(ge.vertices)
    states = [start]
    index = {start: 0}
    trans = {}
    queue = [start]
    while queue:
        s = queue.pop(0)
        i = index[s]
        for a in ge.alphabet:
            nxt = frozenset().union(*(out[v].get(a, set()) for v in s)) if s else frozenset()
            if not nxt:
                continue
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
                queue.append(nxt)
            trans[(i, a)] = index[nxt]
    return states, trans


def _point_in_shift_oracle(g, x):
    """Vertex-set walk with cycle detection over (period phase, set)."""
    ge = essential(g)
    if not ge.vertices:
        return False
    out = {v: {} for v in ge.vertices}
    for (u, v, a) in ge.edges:
        out[u].setdefault(a, set()).add(v)
    s = frozenset(ge.vertices)
    seen = set()
    i = 0
    while True:
        if i >= len(x.preperiod):
            key = ((i - len(x.preperiod)) % len(x.period), s)
            if key in seen:
                return True
            seen.add(key)
        a = x.symbol_at(i)
        s = frozenset().union(*(out[v].get(a, set()) for v in s)) if s else frozenset()
        if not s:
            return False
        i += 1


def seeded_graphs():
    return st.builds(lambda seed, nv: random_graph(random.Random(seed), max_vertices=nv),
                     st.integers(0, 10 ** 6), st.integers(1, 5))


def points_over(symbols):
    word = st.lists(st.sampled_from(symbols), max_size=5).map(tuple)
    period = st.lists(st.sampled_from(symbols), min_size=1, max_size=5).map(tuple)
    return st.builds(SymbolicPoint, word, period)


EMPTY = SftGraph(("a",), (), ("0",))


class TestFollower:
    @settings(max_examples=150, deadline=None)
    @given(seeded_graphs())
    def test_matches_oracle_exactly(self, g):
        states, trans = _subset_automaton_oracle(g)
        f = follower(g)
        assert f.states == tuple(states)
        assert dict(f.trans) == trans

    def test_empty_shift_matches_oracle(self):
        states, trans = _subset_automaton_oracle(EMPTY)
        f = follower(EMPTY)
        assert f.states == tuple(states) == (frozenset(),)
        assert dict(f.trans) == trans == {}
        assert f.is_empty

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_point_in_shift_matches_oracle(self, data):
        g = data.draw(seeded_graphs())
        x = data.draw(points_over(list(g.alphabet) + ["9"]))
        assert point_in_shift(g, x) == _point_in_shift_oracle(g, x)

    def test_empty_shift_has_no_points(self):
        x = SymbolicPoint((), ("0",))
        assert not point_in_shift(EMPTY, x) and not _point_in_shift_oracle(EMPTY, x)

    def test_shared_by_graph_value(self):
        g = golden_mean_graph()
        copy = graph_from_json(graph_to_json(g))
        assert copy is not g
        assert follower(g) is follower(copy)
        assert canonical_presentation(g) is canonical_presentation(copy)

    def test_memos_share_one_bound(self):
        from shiftlab.codes import code_image, identity_code
        from shiftlab.decomposition import chain_components
        from shiftlab.shift_core import MEMO_SIZE
        memos = [follower, canonical_presentation, chain_components,
                 identity_code, code_image]
        assert {f.cache_info().maxsize for f in memos} == {MEMO_SIZE}

    def test_read_only(self):
        f = follower(golden_mean_graph())
        v = next(iter(f.out))
        with pytest.raises(TypeError):
            f.trans[(0, "0")] = 0
        with pytest.raises(TypeError):
            f.out[v] = {}
        with pytest.raises(TypeError):
            f.out[v]["0"] = frozenset()

    def test_long_words_do_not_recurse(self):
        g = full_shift(["0"])
        assert words_of_length(g, 1500) == [("0",) * 1500]


# The layer-by-layer listing that the depth-first walk replaced, kept as an
# oracle: every layer extends each word by tuple concatenation.
def _words_of_length_oracle(g, length):
    trans = follower(g).trans
    layer = [(0, ())]
    for _ in range(length):
        layer = [(trans[(i, a)], w + (a,))
                 for i, w in layer for a in g.alphabet if (i, a) in trans]
    return sorted(w for _i, w in layer)


class TestWordsOfLength:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 8), st.booleans())
    def test_matches_layer_oracle(self, rng, length, flip):
        g = random_graph(rng, max_vertices=4)
        if flip:
            g = SftGraph(g.vertices, g.edges, g.alphabet[::-1])
        assert words_of_length(g, length) == _words_of_length_oracle(g, length)

    @pytest.mark.parametrize("g", [EMPTY, full_shift(["1", "1-", "10", "2"]),
                                   full_shift(["2", "10", "1-", "1"])],
                             ids=["empty", "dotted", "dotted-reversed"])
    def test_edge_shifts_match_layer_oracle(self, g):
        for length in range(9):
            assert words_of_length(g, length) == _words_of_length_oracle(g, length)


# ---------------------------------------------------------------------------
# The shared product search against the two searches it replaced


def _language_subset_oracle(a, b):
    ab = tuple(sorted(set(a.alphabet) | set(b.alphabet)))
    ta, tb = follower(a).trans, follower(b).trans
    queue = deque([((0, 0), ())])
    seen = {(0, 0)}
    while queue:
        (i, j), w = queue.popleft()
        for s in ab:
            ni = ta.get((i, s))
            if ni is None:
                continue
            nj = tb.get((j, s))
            if nj is None:
                return False, w + (s,)
            if (ni, nj) not in seen:
                seen.add((ni, nj))
                queue.append(((ni, nj), w + (s,)))
    return True, None


def _language_equal_oracle(a, b):
    ab = tuple(sorted(set(a.alphabet) | set(b.alphabet)))
    ta, tb = follower(a).trans, follower(b).trans
    queue = deque([((0, 0), ())])
    seen = {(0, 0)}
    while queue:
        (i, j), w = queue.popleft()
        for s in ab:
            ni = ta.get((i, s))
            nj = tb.get((j, s))
            if ni is None and nj is None:
                continue
            if ni is None or nj is None:
                return False, w + (s,)
            if (ni, nj) not in seen:
                seen.add((ni, nj))
                queue.append(((ni, nj), w + (s,)))
    return True, None


def graph_pairs():
    def build(seed_a, seed_b, nv, same):
        a = random_graph(random.Random(seed_a), symbols="01", max_vertices=nv)
        if same:
            return a, canonical_presentation(a)
        return a, random_graph(random.Random(seed_b), symbols="01", max_vertices=nv)
    return st.builds(build, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                     st.integers(1, 4), st.booleans())


class TestProductSearch:
    @settings(max_examples=200, deadline=None)
    @given(graph_pairs())
    def test_matches_both_oracles(self, pair):
        a, b = pair
        for x, y in ((a, b), (b, a), (a, EMPTY), (EMPTY, a)):
            assert language_subset(x, y) == _language_subset_oracle(x, y)
            assert language_equal(x, y) == _language_equal_oracle(x, y)

    def test_pairs_cover_every_outcome(self):
        outcomes = set()
        for seed in range(40):
            a = random_graph(random.Random(seed), symbols="01", max_vertices=3)
            b = random_graph(random.Random(seed + 1000), symbols="01", max_vertices=3)
            outcomes.add((language_subset(a, b)[0], language_equal(a, b)[0]))
            outcomes.add((language_subset(a, a)[0], language_equal(a, a)[0]))
        assert outcomes == {(True, True), (True, False), (False, False)}
