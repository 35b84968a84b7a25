"""Core shift-space machinery: graphs, languages, points, the metric."""

import copy
import dataclasses
import functools
import gc
import importlib
import itertools
import json
import os
import pickle
import pkgutil
import random
import subprocess
import sys
import time
import weakref
from collections import deque
from fractions import Fraction
from operator import or_

import pytest
from hypothesis import given, settings, strategies as st

from memos import VALUE_MEMOS, clear_value_memos
from oracles import (
    follower_vertices_oracle,
    forbidden_words_oracle,
    graph_oracle,
    point_walk_oracle,
    segment_walk_oracle,
    word_distance,
)
from shiftlab import shift_core
from shiftlab.errors import PreconditionError, SchemaError, TooLarge
from shiftlab.fixtures import (
    cantor_product_sequence,
    golden_mean_graph,
    random_graph,
    random_sequence,
    two_cycle_graph,
)
from shiftlab.inverse_systems import composed_image
from shiftlab.shift_core import (
    SftGraph,
    SymbolicPoint,
    _bits,
    _first_difference,
    _image_map,
    _minimize,
    _walk_point,
    canonical_presentation,
    common_prefix,
    determinize,
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
    word_in_language,
    word_str,
    words_of_length,
)
from shiftlab.towers import enumerate_towers, find_entropic_component

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

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_forbidden_words_match_candidate_listing_oracle(self, data):
        # Canonical presentations by identity, errors by type and message:
        # now and then the unknown symbol 3, an empty alphabet or word, or a
        # repeated symbol.  The oracle names a vertex by its word, so two
        # words of dotted symbols could share one name: it runs on
        # one-character stand-ins, and its labels are mapped back.
        alphabet = data.draw(st.one_of(
            st.lists(st.sampled_from(["0", "1", "2"]), min_size=1, max_size=3, unique=True),
            st.lists(st.sampled_from(["0", "1", "0.1", "1.0"]), max_size=3)))
        symbols = st.sampled_from(alphabet * 8 + ["3"])
        forbidden = data.draw(st.lists(st.lists(symbols, min_size=1, max_size=5).map(tuple),
                                       max_size=4))
        if data.draw(st.integers(0, 9)) == 0:
            forbidden.append(())
        stand_in = {"0": "a", "1": "b", "2": "c", "0.1": "d", "1.0": "e"}
        back = {c: s for s, c in stand_in.items()}

        def outcome(build, ab, words):
            try:
                g = build(ab, words)
            except PreconditionError as exc:
                return type(exc), str(exc)
            edges = tuple((u, v, back.get(a, a)) for (u, v, a) in g.edges)
            return canonical_presentation(SftGraph(g.vertices, edges, tuple(alphabet)))

        ours = outcome(from_forbidden_words, alphabet, forbidden)
        theirs = outcome(forbidden_words_oracle, [stand_in[s] for s in alphabet],
                         [tuple(stand_in.get(s, s) for s in w) for w in forbidden])
        if isinstance(ours, SftGraph):
            assert ours is theirs
        else:
            assert ours == theirs

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_forbidden_word_automaton_bounds(self, data):
        # At most one vertex per nonempty prefix of a forbidden word, and
        # one more for the empty word; deterministic and essential.
        alphabet = data.draw(st.sampled_from([BIN, ["0", "1", "2"], ["ab", "c.d", "e"]]))
        forbidden = data.draw(st.lists(st.lists(st.sampled_from(alphabet), max_size=8)
                                       .map(tuple), max_size=6))
        g = from_forbidden_words(alphabet, forbidden)
        assert len(g.vertices) <= 1 + sum(len(w) for w in forbidden)
        assert len({(u, a) for (u, _v, a) in g.edges}) == len(g.edges)
        assert essential(g) is g

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

    def test_duplicate_vertex_rejected(self):
        with pytest.raises(SchemaError, match="^duplicate vertex 'b'$"):
            SftGraph(("a", "b", "c", "b"), (("a", "a", "0"),), ("0",))
        with pytest.raises(SchemaError, match="^duplicate vertex 'a'$"):
            graph_from_json({"alphabet": ["0"], "vertices": ["a", "a"],
                             "edges": [["a", "a", "0"]]})
        # A forbidden-form symbol with a dot: the word a.b.c would read as
        # (a, b.c), (a.b, c) or (a, b, c).
        with pytest.raises(SchemaError, match="^forbidden-form symbol 'a.b' contains a dot$"):
            graph_from_json({"alphabet": ["a", "a.b", "b.c", "c"], "forbidden": ["c.c.c"]})
        with pytest.raises(SchemaError, match="^duplicate vertex 'a'$"):
            make_graph(["a", "b", "a"], [("a", "b", "0"), ("b", "a", "0")])


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


def _graph_triples():
    """(vertices, edges, alphabet) triples of small graphs that are often
    equal, or equal but for their alphabets: few vertices and symbols, and
    edges kept in the drawn order."""
    def build(seed, nv, alphabet):
        g = _loose_graph(random.Random(seed), nv)
        return g.vertices, g.edges, alphabet
    return st.builds(build, st.integers(0, 30), st.integers(0, 2),
                     st.sampled_from([("0", "1"), ("1", "0"), ("0", "1", "2")]))


class TestGraphEquality:
    @settings(max_examples=300, deadline=None)
    @given(_graph_triples(), _graph_triples(), st.sampled_from(["apart", "shared", "same"]))
    def test_matches_comparing_field_tuples(self, x, y, how):
        a = SftGraph(*x)
        if how == "same":
            y, b = x, a
        elif how == "shared":
            # The fields are the very tuples of the first graph.
            y, b = x, SftGraph(a.vertices, a.edges, a.alphabet)
        else:
            b = SftGraph(*y)
        # Equal graphs are one object, so identity is the only comparison.
        assert (a is b) == (a == b) == (x == y) == (b == a)
        assert (a != b) == (x != y) == (b != a)
        assert len({a, b}) == (1 if x == y else 2)
        # Not a graph: never equal, as with the generated comparison.
        assert a != x and not a == x

    def test_copies_and_pickles_rehash(self):
        # String hashes are salted per process, so a pickled graph must not
        # carry the hash of the process that wrote it.
        g = golden_mean_graph()
        for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert twin is g and hash(twin) == hash(g)
        script = ("import pickle, sys\n"
                  "from shiftlab.fixtures import golden_mean_graph\n"
                  "sys.stdout.buffer.write(pickle.dumps(golden_mean_graph()))\n")
        env = dict(os.environ, PYTHONHASHSEED="12345",
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        data = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True).stdout
        other = pickle.loads(data)
        assert other is g and hash(other) == hash(g)
        assert canonical_presentation(other) is canonical_presentation(g)


# Faults that make a valid field triple invalid, in the ways validation
# names: the lists leave the fields unhashable.
_FAULTS = {
    "duplicate vertex": lambda v, e, a: (v + v[:1], e, a),
    "duplicate symbol": lambda v, e, a: (v, e, a + a[:1]),
    "duplicate edge": lambda v, e, a: (v, e + e[:1], a),
    "bad endpoint": lambda v, e, a: (v, (("x", "x", "0"),) + tuple(e), a),
    "unknown label": lambda v, e, a: (v, tuple(e) + tuple((u, u, "9") for u in v[:1]), a),
    "lists": lambda v, e, a: (list(v), [list(t) for t in e], list(a)),
}


def _outcome(build, fields):
    """The fields of the built graph, or the error raised."""
    try:
        g = build(*fields)
    except (PreconditionError, TypeError) as exc:
        return type(exc), str(exc)
    return g.vertices, g.edges, g.alphabet


class TestInterning:
    @settings(max_examples=300, deadline=None)
    @given(_graph_triples(), st.lists(st.sampled_from(sorted(_FAULTS)), max_size=2),
           st.booleans())
    def test_construction_matches_oracle(self, x, faults, equal_first):
        for fault in faults:
            x = _FAULTS[fault](*x)
        held = []
        if equal_first and not isinstance(x[0], list):
            # An equal graph, from other tuples of the same value, built first.
            fresh = (tuple(list(x[0])), tuple(tuple(list(e)) for e in x[1]), tuple(list(x[2])))
            try:
                held.append(SftGraph(*fresh))
            except PreconditionError:
                pass
        assert _outcome(SftGraph, x) == _outcome(graph_oracle, x)
        if held:
            assert SftGraph(*x) is held[0]

    def test_equal_graphs_are_one_object_validated_once(self, monkeypatch):
        checked = []
        check = shift_core._check_graph
        monkeypatch.setattr(shift_core, "_check_graph",
                            lambda *fields: checked.append(fields) or check(*fields))
        g = SftGraph(("once",), (("once", "once", "0"),), ("0",))
        assert make_graph(["once"], [("once", "once", "0")], ["0"]) is g
        assert graph_from_json(graph_to_json(g)) is g
        assert dataclasses.replace(g) is g
        assert len(checked) == 1

    def test_dropped_graphs_leave_the_table(self):
        fields = (("dropped",), (("dropped", "dropped", "0"),), ("0",))
        g = SftGraph(*fields)
        ref = weakref.ref(g)
        assert _filed(fields)
        del g
        gc.collect()
        assert ref() is None
        assert not _filed(fields)

    def test_invalid_graphs_are_never_filed(self):
        fields = (("a", "a"), (), ("0",))
        raised = []
        for _ in range(2):
            with pytest.raises(SchemaError, match="^duplicate vertex 'a'$") as info:
                SftGraph(*fields)
            # Each traceback, and every object its frames hold, stays alive.
            raised.append(info)
        assert not _filed(fields)


def _filed(fields):
    return any(key[1:] == fields for key in list(shift_core._GRAPHS.keys()))


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

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(0, 5), st.booleans())
    def test_returns_an_essential_graph_itself(self, seed, nv, pruned):
        # random_graph draws essential graphs; _loose_graph mostly prunes,
        # and with no vertices it is the empty graph.
        rng = random.Random(seed)
        g = _loose_graph(rng, nv) if pruned else random_graph(rng, max_vertices=nv + 1)
        want = _essential_oracle(g)
        assert essential(g) == want
        assert (essential(g) is g) == (want == g)

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


def canonical_inputs():
    return st.one_of(
        st.builds(lambda seed, nv: random_graph(random.Random(seed), symbols="0123",
                                                max_vertices=nv),
                  st.integers(0, 10 ** 6), st.integers(1, 7)),
        st.lists(st.sampled_from(BIN), min_size=1, max_size=59).map(_labelled_cycle))


def same_alphabet_pairs():
    """Two graphs over one alphabet tuple, 01 or 10: two random graphs, or
    a random graph and a presentation of its shift built apart, with its
    vertices renamed and reordered, a stranded vertex added, a disjoint
    copy joined to it, or determinized."""
    def over(g, alphabet):
        return SftGraph(g.vertices, g.edges, alphabet)

    def build(seed_a, seed_b, nv, alphabet, how):
        a = over(random_graph(random.Random(seed_a), symbols="01", max_vertices=nv), alphabet)
        if how == "random":
            b = random_graph(random.Random(seed_b), symbols="01", max_vertices=nv)
        elif how == "renamed":
            b = make_graph(["w" + v for v in reversed(a.vertices)],
                           [("w" + u, "w" + v, s) for (u, v, s) in a.edges], alphabet)
        elif how == "stranded":
            b = make_graph(a.vertices + ("x",), a.edges + ((a.vertices[0], "x", "1"),),
                           alphabet)
        elif how == "doubled":
            b = make_graph(a.vertices + tuple("w" + v for v in a.vertices),
                           a.edges + tuple(("w" + u, "w" + v, s) for (u, v, s) in a.edges),
                           alphabet)
        else:
            b = determinize(a)
        return a, over(b, alphabet)

    return st.builds(build, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                     st.integers(1, 3), st.sampled_from([("0", "1"), ("1", "0")]),
                     st.sampled_from(["random", "random", "renamed", "stranded", "doubled",
                                      "determinized"]))


class TestCanonicalPresentation:
    @settings(max_examples=200, deadline=None)
    @given(canonical_inputs())
    def test_matches_bfs_renaming_oracle(self, g):
        assert canonical_presentation(g) == _canonical_oracle(g)

    @settings(max_examples=150, deadline=None)
    @given(canonical_inputs())
    def test_idempotent_without_a_second_follower(self, g):
        clear_value_memos()
        c = canonical_presentation(g)
        assert follower.cache_info().misses == 1
        # An equal graph built apart misses the memo and is recognised by
        # value as a canonical presentation.
        twin = SftGraph(tuple(c.vertices), tuple(c.edges), tuple(c.alphabet))
        assert canonical_presentation(twin) == c
        assert canonical_presentation(c) == c
        assert follower.cache_info().misses == 1
        # The unmemoised construction agrees: the map is idempotent.
        assert _canonical_oracle(twin) == c

    def test_long_cycle_and_empty_shift_match_oracle(self):
        for g in (_labelled_cycle("0" * 58 + "1"), EMPTY):
            assert canonical_presentation(g) == _canonical_oracle(g)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        st.just(make_graph(["a", "b"],
                           [("a", "a", "0"), ("a", "b", "0"), ("b", "a", "1")],
                           alphabet=BIN)),
        st.builds(lambda seed, nv: random_graph(random.Random(seed), symbols="0123",
                                                max_vertices=nv),
                  st.integers(0, 10 ** 6), st.integers(1, 7)),
        st.builds(lambda n, marked: _marked_cycle(n, {i % n for i in marked}),
                  st.integers(1, 300), st.sets(st.integers(0, 299), max_size=4)),
        st.just(SftGraph(("a",), (), ("0",)))))
    def test_canonical_is_deterministic(self, g):
        # At most one edge per (vertex, symbol): the scrambled-stream walk
        # reads a canonical presentation as a transition map.
        gc = canonical_presentation(g)
        starts = [(u, a) for (u, _v, a) in gc.edges]
        assert len(set(starts)) == len(starts)
        assert language_equal(g, gc)[0]

    @settings(max_examples=300, deadline=None)
    @given(same_alphabet_pairs())
    def test_identical_exactly_when_languages_are_equal(self, pair):
        a, b = pair
        assert ((canonical_presentation(a) is canonical_presentation(b))
                == language_equal(a, b)[0])

    def test_alphabet_order_separates_equal_languages(self):
        a, b = full_shift(BIN), full_shift(["1", "0"])
        assert language_equal(a, b)[0]
        assert canonical_presentation(a) is not canonical_presentation(b)

    def test_signature_invariant_under_renaming(self):
        g1 = golden_mean_graph()
        g2 = make_graph(["x", "y"],
                        [("x", "x", "0"), ("x", "y", "1"), ("y", "x", "0")],
                        alphabet=BIN)
        assert canonical_presentation(g1) is canonical_presentation(g2)

    def test_signature_separates_languages(self):
        assert canonical_presentation(golden_mean_graph()) is not canonical_presentation(full_shift(BIN))

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

    def test_empty_text_is_the_empty_word(self):
        assert parse_word("") == ()

    def test_multichar_symbols_use_dots(self):
        w = ("aa", "b")
        assert word_str(w) == "aa.b"
        assert parse_word("aa.b") == w

    def test_word_distance(self):
        assert word_distance(parse_word("0101"), parse_word("0101")) == 0
        assert word_distance(parse_word("0101"), parse_word("0111")) == Fraction(1, 4)
        assert word_distance(parse_word("10"), parse_word("00")) == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from(BIN), max_size=5), st.lists(st.sampled_from(BIN), max_size=5))
    def test_word_distance_matches_symbol_loop(self, u, v):
        # The symbol loop that word_distance ran before common_prefix.
        expected = Fraction(0) if u == v else Fraction(1, 2 ** min(len(u), len(v)))
        for j, (a, b) in enumerate(zip(u, v)):
            if a != b:
                expected = Fraction(1, 2 ** j)
                break
        assert word_distance(u, v) == expected
        k = common_prefix(u, v)
        assert u[:k] == v[:k] and (k == min(len(u), len(v)) or u[k] != v[k])


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

    @settings(max_examples=200, deadline=None)
    @given(binary_points(), st.integers(0, 12), st.integers(-3, 20))
    def test_read_matches_symbol_at(self, x, a, width):
        # Ranges start inside or past the preperiod, straddle its end, and
        # are empty when width <= 0.
        b = a + width
        assert x.read(a, b) == tuple(map(x.symbol_at, range(a, b)))

    @settings(max_examples=100, deadline=None)
    @given(binary_points(), st.integers(-5, 5), st.integers(0, 30))
    def test_read_far_out_slices_only_the_range(self, x, i, width):
        # A prefix of 2**70 symbols could never be built.
        a = 2 ** 70 + i
        assert x.read(a, a + width) == tuple(map(x.symbol_at, range(a, a + width)))

    def test_read_straddles_the_preperiod(self):
        x = SymbolicPoint(("1", "1", "0"), ("0", "1"))
        assert x.read(1, 9) == tuple("10010101")
        assert x.read(3, 3) == x.read(5, 2) == x.read(0, -1) == ()
        assert x.expand(0) == ()

    @settings(max_examples=60, deadline=None)
    @given(binary_points(), st.integers(0, 30))
    def test_expand_reads_from_zero(self, x, n):
        assert x.expand(n) == x.read(0, n) == tuple(x.symbol_at(i) for i in range(n))

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


def _assert_matches_oracle(g):
    states, trans = _subset_automaton_oracle(g)
    f = follower(g)
    assert tuple(f.vertices(i) for i in range(len(f.states))) == tuple(states)
    assert dict(f.trans) == trans


def _read_back(k):
    """Vertices q0..qk: q0 loops on both symbols, q0 -1-> q1, and every
    other qi steps on both symbols to q(i+1), with qk stepping back to q0.
    A state records which of the last k symbols were 1, so the follower
    automaton has exactly 2**k states."""
    q = ["q%d" % i for i in range(k + 1)]
    edges = [("q0", "q0", "0"), ("q0", "q0", "1"), ("q0", "q1", "1")]
    edges += [(q[i], q[(i + 1) % (k + 1)], a) for i in range(1, k + 1) for a in BIN]
    return make_graph(q, edges, alphabet=BIN)


def transition_tables():
    """Random partial transition tables: boundary states of a period often
    enter their cycle late, and some walks die."""
    return st.dictionaries(st.tuples(st.integers(0, 4), st.sampled_from(BIN)),
                           st.integers(0, 4), min_size=6)


class TestPeriodJumpWalk:
    @settings(max_examples=300, deadline=None)
    @given(transition_tables(), st.integers(0, 4), binary_points(),
           st.one_of(st.integers(0, 40), st.integers(2 ** 70, 2 ** 70 + 8)))
    def test_finite_segments_match_the_old_walk(self, table, state, x, length):
        got = _walk_point(table, state, x, length)
        assert got == segment_walk_oracle(table, state, x, length)
        if length <= 40:
            walked = state
            for sym in x.expand(length):
                walked = table.get((walked, sym)) if walked is not None else None
            assert got == walked

    @settings(max_examples=300, deadline=None)
    @given(transition_tables(), st.integers(0, 4), binary_points())
    def test_whole_points_match_the_old_walk(self, table, state, x):
        assert _walk_point(table, state, x) == point_walk_oracle(table, state, x)

    @settings(max_examples=100, deadline=None)
    @given(seeded_graphs(), binary_points())
    def test_point_in_shift_is_the_whole_walk(self, g, x):
        trans = follower(g).trans
        assert point_in_shift(g, x) == (point_walk_oracle(trans, 0, x) is not None)


class TestFollower:
    @settings(max_examples=150, deadline=None)
    @given(seeded_graphs())
    def test_matches_oracle_exactly(self, g):
        _assert_matches_oracle(g)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60), st.sets(st.integers(0, 59), min_size=1))
    def test_marked_cycles_match_oracle(self, n, marked):
        _assert_matches_oracle(_marked_cycle(n, {i % n for i in marked}))

    def test_empty_shift_matches_oracle(self):
        states, trans = _subset_automaton_oracle(EMPTY)
        f = follower(EMPTY)
        assert f.states == (0,)
        assert f.vertices(0) == states[0] == frozenset()
        assert dict(f.trans) == trans == {}

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
        f, c = follower(g), canonical_presentation(g)
        for again in (graph_from_json(json.loads(json.dumps(graph_to_json(g)))),
                      copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert again is g
            assert follower(again) is f
            assert canonical_presentation(again) is c

    def test_memos_share_one_bound(self):
        assert {f.cache_info().maxsize for f in VALUE_MEMOS} == {shift_core.MEMO_SIZE}

    def test_every_memo_of_the_package_is_listed(self):
        # A memo left out of VALUE_MEMOS would survive the clearing fixtures.
        import shiftlab
        from shiftlab import cli
        found = {}
        for info in pkgutil.iter_modules(shiftlab.__path__, "shiftlab."):
            module = importlib.import_module(info.name)
            for name, obj in vars(module).items():
                if hasattr(obj, "cache_info") and obj is not cli._build_parser:
                    found[id(obj)] = (info.name, name, obj)
        assert {id(m) for m in VALUE_MEMOS} == set(found), sorted(
            (mod, name) for mod, name, _obj in found.values())
        for _mod, _name, obj in found.values():
            assert obj.cache_info().maxsize == shift_core.MEMO_SIZE

    def test_read_only(self):
        f = follower(golden_mean_graph())
        with pytest.raises(TypeError):
            f.trans[(0, "0")] = 0

    def test_long_words_do_not_recurse(self):
        g = full_shift(["0"])
        assert words_of_length(g, 1500) == [("0",) * 1500]


class TestMaskPrimitives:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 1 << 70))
    def test_bits_lists_the_set_bits_ascending(self, mask):
        assert list(_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_image_map_ors_the_rows_of_the_set_bits(self, data):
        n = data.draw(st.integers(0, 40))
        rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=20))
        image = _image_map(rows)
        for mask in masks + masks:  # the second pass reads the memo
            want = functools.reduce(or_, (rows[i] for i in range(n) if mask >> i & 1), 0)
            assert image(mask) == want

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(seeded_graphs(),
                     st.builds(lambda n, marked: _marked_cycle(n, {i % n for i in marked}),
                               st.integers(1, 80), st.sets(st.integers(0, 79), min_size=1))))
    def test_follower_vertices_match_bin_decode(self, g):
        f = follower(g)
        for i in range(len(f.states)):
            assert f.vertices(i) == follower_vertices_oracle(f, i)


class TestFollowerCap:
    def test_cap_raises_as_soon_as_discovery_passes_it(self, monkeypatch):
        monkeypatch.setattr(shift_core, "MAX_FOLLOWER_STATES", 64)
        follower.cache_clear()
        assert len(follower(_read_back(6)).states) == 64
        # 2 * 33 - 1 = 65 states, then 2**7 and 2**24.
        for g in (_marked_cycle(33, {0}), _read_back(7), _read_back(24)):
            t0 = time.perf_counter()
            with pytest.raises(TooLarge, match="^follower automaton exceeds 64 states$"):
                follower(g)
            # Building the 2**24 states first would take minutes.
            assert time.perf_counter() - t0 < 0.5

    def test_default_cap_admits_the_marked_4000_cycle(self):
        f = follower(_marked_cycle(4000, {0}))
        assert len(f.states) == 7999 < shift_core.MAX_FOLLOWER_STATES
        assert f.vertices(0) == frozenset("v%d" % i for i in range(4000))
        assert f.vertices(f.trans[(0, "1")]) == {"v1"}


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

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 8), st.integers(0, 40))
    def test_walk_prefix_matches_layer_oracle(self, rng, length, k):
        g = random_graph(rng, max_vertices=4)
        assert list(itertools.islice(shift_core._words(g, length), k)) == \
            _words_of_length_oracle(g, length)[:k]

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 7), st.integers(0, 8),
           st.integers(0, 2 ** 16))
    def test_walk_from_a_start_matches_layer_oracle(self, rng, length, k, pick):
        # The start is a prefix of an admissible word, or of any word on the
        # alphabet, and may be longer than the words asked for.
        g = random_graph(rng, max_vertices=4)
        pool = _words_of_length_oracle(g, k) if pick % 2 else \
            list(itertools.product(sorted(g.alphabet), repeat=k))
        start = pool[pick % len(pool)] if pool else ()
        assert list(shift_core._words(g, length, start)) == \
            [w for w in _words_of_length_oracle(g, length) if w[:len(start)] == start]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 200), st.sets(st.integers(0, 199), max_size=4),
           st.integers(0, 12), st.integers(0, 6), st.booleans())
    def test_walk_on_many_states_matches_layer_oracle(self, n, marked, length, k, zeros):
        # A marked cycle's follower automaton has up to n states, of which
        # one walk reaches only a few.  The start is all zeros, which most
        # marked cycles admit, or ends in a 1.
        g = _marked_cycle(n, {i % n for i in marked})
        start = ("0",) * k if zeros else ("0",) * k + ("1",)
        assert list(shift_core._words(g, length, start)) == \
            [w for w in _words_of_length_oracle(g, length) if w[:len(start)] == start]

    def test_no_word_has_a_negative_length(self):
        g = full_shift(BIN)
        assert words_of_length(g, -1) == []
        assert list(shift_core._words(g, -3, ("0",))) == []
        # Length 0 keeps its one empty word, on an empty shift too.
        assert words_of_length(g, 0) == [()]
        assert words_of_length(make_graph(["a"], [], alphabet=BIN), 0) == [()]

    def test_walk_is_lazy(self):
        # The full 2-shift has 2**60 words of length 60.
        g = full_shift(BIN)
        follower(g)
        t0 = time.perf_counter()
        first = list(itertools.islice(shift_core._words(g, 60), 10))
        assert time.perf_counter() - t0 < 0.1
        assert first == [("0",) * 56 + tuple("{:04b}".format(i)) for i in range(10)]

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

    @settings(max_examples=150, deadline=None)
    @given(st.lists(graph_pairs(), min_size=1, max_size=3), st.randoms(use_true_random=False))
    def test_memo_matches_unmemoised_search(self, pairs, rng):
        search = _first_difference.__wrapped__
        empty = SftGraph((), (), ("0", "1"))
        asks = []
        for a, b in pairs:
            twin = SftGraph(tuple(a.vertices), tuple(a.edges), tuple(a.alphabet))
            asks += [(a, b), (b, a), (twin, b), (b, twin), (a, twin), (a, a),
                     (a, EMPTY), (EMPTY, a), (empty, b), (EMPTY, empty)]
        asks *= 2
        rng.shuffle(asks)
        clear_value_memos()
        for x, y in asks:
            assert language_subset(x, y) == search(x, y, False)
            assert language_equal(x, y) == search(x, y, True)
        # Every question is asked at least twice, so at least half hit.
        assert _first_difference.cache_info().hits >= len(asks)

    def test_cold_workload_batch_searches_each_key_once(self, monkeypatch):
        # The questions of the benchmark's sequence jobs: one-step
        # stabilization, towers and entropic components on random sequences
        # and on the Cantor-product sequence, the whole batch asked twice.
        keys = []

        def spy(a, b, both_ways):
            keys.append((a, b, both_ways))
            return _first_difference(a, b, both_ways)

        def batch():
            for s in range(20, 36):
                seq = random_sequence(s)
                for n in range(1, len(seq.levels) + 1):
                    one = composed_image(seq, n + 1, n)
                    for m in range(n + 2, n + 10):
                        language_equal(one, composed_image(seq, m, n))
            cp3 = cantor_product_sequence(3)
            enumerate_towers(cp3, 4)
            find_entropic_component(cp3, depth=3)
            for s in range(20):
                enumerate_towers(random_sequence(s), 2 + s % 2)

        clear_value_memos()
        monkeypatch.setattr(shift_core, "_first_difference", spy)
        batch()
        batch()
        distinct = len(set(keys))
        # More distinct questions than a 256-entry memo holds.
        assert 256 < distinct <= shift_core.MEMO_SIZE
        assert _first_difference.cache_info().misses == distinct

    def test_pairs_cover_every_outcome(self):
        outcomes = set()
        for seed in range(40):
            a = random_graph(random.Random(seed), symbols="01", max_vertices=3)
            b = random_graph(random.Random(seed + 1000), symbols="01", max_vertices=3)
            outcomes.add((language_subset(a, b)[0], language_equal(a, b)[0]))
            outcomes.add((language_subset(a, a)[0], language_equal(a, a)[0]))
        assert outcomes == {(True, True), (True, False), (False, False)}
