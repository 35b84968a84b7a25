"""Sliding block codes: application, composition, images."""

import copy
import dataclasses
import gc
import json
import pickle
import random
import time
import weakref
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from memos import clear_value_memos
from oracles import code_oracle
from shiftlab.codes import (
    SlidingBlockCode,
    apply_code,
    code_from_json,
    code_image,
    code_to_json,
    compose,
    identity_code,
    restrict,
    symbol_code,
)
from shiftlab import codes
from shiftlab.errors import (
    CompositionMismatch,
    NotInLanguage,
    PreconditionError,
    SchemaError,
    TooLarge,
)
from shiftlab.fixtures import golden_mean_graph, random_graph
from shiftlab.inverse_systems import InverseSequenceSpec
from shiftlab.shadow_lab import gap_shift_graph
from shiftlab.shift_core import (
    SftGraph,
    SymbolicPoint,
    canonical_presentation,
    essential,
    follower,
    full_shift,
    graph_from_json,
    graph_to_json,
    language_equal,
    language_subset,
    point_in_shift,
    words_of_length,
)

BIN = ["0", "1"]


def xor_code():
    dom = full_shift(BIN)
    return SlidingBlockCode(dom, dom, 2, {
        ("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"})


def binary_points():
    pres = st.lists(st.sampled_from(BIN), max_size=3).map(tuple)
    pers = st.lists(st.sampled_from(BIN), min_size=1, max_size=3).map(tuple)
    return st.builds(SymbolicPoint, pres, pers)


class TestApplication:
    def test_identity(self):
        g = golden_mean_graph()
        c = identity_code(g)
        x = SymbolicPoint((), ("0", "1"))
        assert apply_code(c, x) == x

    def test_xor_of_period_two(self):
        x = SymbolicPoint((), ("0", "1"))
        assert apply_code(xor_code(), x) == SymbolicPoint((), ("1",))

    def test_point_outside_domain_rejected(self):
        c = identity_code(golden_mean_graph())
        with pytest.raises(NotInLanguage):
            apply_code(c, SymbolicPoint((), ("1",)))

    @settings(max_examples=60, deadline=None)
    @given(binary_points())
    def test_equivariance(self, x):
        c = xor_code()
        assert apply_code(c, x.shift(1)) == apply_code(c, x).shift(1)

    @settings(max_examples=60, deadline=None)
    @given(binary_points())
    def test_image_point_lies_in_image_shift(self, x):
        c = xor_code()
        img = code_image(c)
        assert point_in_shift(img, apply_code(c, x))


class TestComposition:
    def test_window_addition(self):
        c = xor_code()
        cc = compose(c, c)
        assert cc.window == 3

    def test_composition_agrees_pointwise(self):
        c = xor_code()
        cc = compose(c, c)
        for per in [("0", "1"), ("1", "1", "0"), ("1",)]:
            x = SymbolicPoint((), per)
            assert apply_code(cc, x) == apply_code(c, apply_code(c, x))

    def test_mismatch_detected(self):
        gm = golden_mean_graph()
        onto_one = SlidingBlockCode(full_shift(BIN), full_shift(BIN), 1,
                                    {("0",): "1", ("1",): "1"})
        with pytest.raises(CompositionMismatch):
            compose(identity_code(gm), onto_one)


class TestImages:
    def test_xor_image_is_full(self):
        img = code_image(xor_code())
        assert language_equal(img, full_shift(BIN))[0]

    def test_golden_mean_collapse(self):
        # send both symbols to one: image is a single fixed point
        g = golden_mean_graph()
        c = SlidingBlockCode(g, full_shift(["a"]), 1,
                             {("0",): "a", ("1",): "a"})
        img = code_image(c)
        assert len(img.vertices) == 1
        assert len(img.edges) == 1

    def test_image_of_restriction_is_contained(self):
        c = xor_code()
        sub = golden_mean_graph()
        r = restrict(c, sub)
        ok, _ = language_subset(code_image(r), code_image(c))
        assert ok

    def test_restriction_onto_a_non_subsystem_is_refused(self):
        # The golden mean code's domain forbids 11, which the full shift reads.
        c = identity_code(golden_mean_graph())
        with pytest.raises(CompositionMismatch,
                           match="^restriction target is not a subsystem; witness 11$"):
            restrict(c, full_shift(BIN))

    def test_higher_block_window(self):
        g = golden_mean_graph()
        c = SlidingBlockCode(g, full_shift(BIN), 2, {
            ("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "0"})
        img = code_image(c)
        # 11 never occurs in the image: a 1 is always followed by 0
        from shiftlab.shift_core import parse_word, word_in_language
        assert not word_in_language(img, parse_word("11"))


class TestJson:
    def test_round_trip(self):
        c = xor_code()
        c2 = code_from_json(code_to_json(c))
        x = SymbolicPoint((), ("0", "1", "1"))
        assert apply_code(c, x) == apply_code(c2, x)

    def test_round_trip_multichar_symbols(self):
        dom = full_shift(["aa", "b"])
        cod = full_shift(["x:0", "y"])
        rule = {(u, v): ("x:0" if u == v else "y") for u in dom.alphabet for v in dom.alphabet}
        c = SlidingBlockCode(dom, cod, 2, rule)
        assert code_from_json(code_to_json(c)) == c

    def test_round_trip_multichar_window_one(self):
        g = full_shift(["00:0", "00:1"])
        c = identity_code(g)
        assert code_from_json(code_to_json(c)) == c

    def test_dotted_domain_symbol_is_refused(self):
        # A rule key puts dots between its symbols, so the key a.a.b of this
        # window-2 code would be read back as (a, a, b).
        x = full_shift(["a", "a.b", "b"])
        c = SlidingBlockCode(x, x, 2, {w: w[0] for w in words_of_length(x, 2)})
        with pytest.raises(SchemaError, match="^code domain symbol 'a.b' contains a dot$"):
            code_from_json(code_to_json(c))
        # A window-1 key is one symbol, dots and all.
        assert code_from_json(code_to_json(identity_code(x))) == identity_code(x)


class TestReadOnlyRule:
    def test_equal_specs_hash_equal(self):
        from shiftlab.fixtures import cantor_product_sequence
        a, b = cantor_product_sequence(3), cantor_product_sequence(3)
        assert a == b and hash(a) == hash(b)
        assert hash(xor_code()) == hash(xor_code())

    def test_rule_is_a_read_only_copy(self):
        rule = {(a,): a for a in BIN}
        c = SlidingBlockCode(full_shift(BIN), full_shift(BIN), 1, rule)
        rule[("0",)] = "1"
        assert c.rule[("0",)] == "0"
        with pytest.raises(TypeError):
            c.rule[("0",)] = "1"

    def test_rule_takes_part_in_equality(self):
        g = full_shift(BIN)
        flip = symbol_code(g, g, {"0": "1", "1": "0"})
        assert flip != identity_code(g)
        assert flip == symbol_code(g, g, {"1": "0", "0": "1"})


class TestSharedByValue:
    def test_identity_code(self):
        g = golden_mean_graph()
        c = identity_code(g)
        for again in (graph_from_json(json.loads(json.dumps(graph_to_json(g)))),
                      copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
            assert again is g
            assert identity_code(again) is c

    def test_code_image(self):
        c = xor_code()
        sub = golden_mean_graph()
        image, sub_image = code_image(c), code_image(c, sub)
        for again, sub_again in (
                (code_from_json(json.loads(json.dumps(code_to_json(c)))),
                 graph_from_json(json.loads(json.dumps(graph_to_json(sub))))),
                (copy.deepcopy(c), copy.deepcopy(sub)),
                (pickle.loads(pickle.dumps(c)), pickle.loads(pickle.dumps(sub)))):
            assert again is c and sub_again is sub
            assert code_image(again) is image
            assert code_image(again, sub_again) is sub_image


# The window-2 identity of the golden mean shift.
_GOLDEN_IDENTITY = {("0", "0"): "0", ("0", "1"): "0", ("1", "0"): "1"}

# (window, rule) onto the golden mean shift, each bad in one way.
_BAD_CODES = {
    "window": (0, {}),
    "key length": (2, {("0",): "0"} | _GOLDEN_IDENTITY),
    "output": (2, _GOLDEN_IDENTITY | {("0", "0"): "2"}),
    "unhashable output": (2, _GOLDEN_IDENTITY | {("0", "0"): ["0"]}),
    "missing block": (2, {("0", "0"): "0", ("0", "1"): "0"}),
    "leaves codomain": (2, dict.fromkeys(_GOLDEN_IDENTITY, "1")),
}


class TestInterning:
    def test_rebuilt_codes_are_the_code(self):
        c = xor_code()
        assert xor_code() is c
        assert code_from_json(code_to_json(c)) is c
        assert SlidingBlockCode(c.domain, c.codomain, 2, dict(reversed(c.rule.items()))) is c
        assert dataclasses.replace(c) is c
        for twin in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
            assert twin is c

    def test_validated_once(self, monkeypatch):
        checked = []
        check = codes._check_well_defined
        monkeypatch.setattr(codes, "_check_well_defined",
                            lambda code: checked.append(code) or check(code))
        g = SftGraph(("once",), (("once", "once", "0"),), ("0",))
        c = symbol_code(g, g, {"0": "0"})
        assert identity_code(g) is c
        assert compose(c, c) is SlidingBlockCode(g, g, 1, {("0",): "0"}) is c
        assert checked == [c]

    @pytest.mark.parametrize("case", sorted(_BAD_CODES))
    def test_bad_codes_raise_as_the_oracle_every_time(self, case):
        g = golden_mean_graph()
        window, rule = _BAD_CODES[case]
        with pytest.raises(PreconditionError) as want:
            code_oracle(g, g, window, rule)
        raised = []
        for _ in range(3):
            with pytest.raises(type(want.value)) as got:
                SlidingBlockCode(g, g, window, rule)
            assert str(got.value) == str(want.value)
            # Each traceback, and every object its frames hold, stays alive.
            raised.append(got)

    def test_valid_code_matches_the_oracle(self):
        g = golden_mean_graph()
        want = code_oracle(g, g, 2, _GOLDEN_IDENTITY)
        got = SlidingBlockCode(g, g, 2, _GOLDEN_IDENTITY)
        assert got is not want
        assert ((got.domain, got.codomain, got.window, dict(got.rule))
                == (want.domain, want.codomain, want.window, dict(want.rule)))
        assert SlidingBlockCode(g, g, 2, dict(_GOLDEN_IDENTITY)) is got

    def test_dropped_codes_leave_the_table(self):
        g = SftGraph(("dropped",), (("dropped", "dropped", "0"),), ("0",))
        c = symbol_code(g, g, {"0": "0"})
        ref = weakref.ref(c)
        assert any(v is c for v in codes._CODES.values())
        # The code_image memo holds the codes it was asked about.
        del c
        clear_value_memos()
        gc.collect()
        assert ref() is None
        assert not any(key[0] is g for key in list(codes._CODES.keys()))


def _check_well_defined_oracle(domain, codomain, window, rule):
    """Product walk of the domain follower automaton, the last window-1
    input symbols and the codomain follower automaton: raises
    NotInLanguage when an admissible window has no rule entry or an
    admissible input word maps outside the codomain language."""
    dom = essential(domain)
    w = window
    for block in words_of_length(dom, w):
        if block not in rule:
            raise NotInLanguage("rule missing admissible block %r" % (block,))
    cod = follower(codomain)
    if not cod.states[0]:
        if not dom.vertices:
            return
        raise NotInLanguage("codomain is empty but domain is not")
    fdom = follower(dom)
    if not fdom.states[0]:
        return
    dtrans, ctrans = fdom.trans, cod.trans
    start_pairs = [(fdom.walk(hist), hist, 0) for hist in words_of_length(dom, w - 1)]
    seen = set(start_pairs)
    queue = deque(start_pairs)
    while queue:
        di, hist, ci = queue.popleft()
        for a in dom.alphabet:
            if (di, a) not in dtrans:
                continue
            block = hist + (a,)
            out = rule.get(block)
            if out is None:
                raise NotInLanguage("rule missing admissible block %r" % (block,))
            if (ci, out) not in ctrans:
                raise NotInLanguage(
                    "image leaves the codomain language at block %r" % (block,))
            node = (dtrans[(di, a)], block[1:], ctrans[(ci, out)])
            if node not in seen:
                seen.add(node)
                queue.append(node)


def _domains():
    """Random presentations, many non-deterministic, and gap shifts, whose
    memory k is longer than most windows."""
    return st.one_of(
        st.builds(lambda seed, nv: random_graph(random.Random(seed), max_vertices=nv),
                  st.integers(0, 10 ** 6), st.integers(1, 4)),
        st.integers(0, 4).map(gap_shift_graph))


def _random_rule(rng, domain, window, outputs):
    return {b: rng.choice(outputs) for b in words_of_length(domain, window)}


class TestExactImage:
    def test_gap_shift_window_two_identity(self):
        # ab -> a is the identity on the gap-3 shift; a graph on 1-words
        # would present the golden mean shift and admit 101.
        g = gap_shift_graph(3)
        c = SlidingBlockCode(g, g, 2, {b: b[0] for b in words_of_length(g, 2)})
        assert language_equal(code_image(c), g) == (True, None)
        seq = InverseSequenceSpec((g, g), (c,))
        assert seq.code(1) is c
        assert compose(c, c).window == 3
        assert compose(identity_code(g), c).window == 2

    @settings(max_examples=150, deadline=None)
    @given(_domains(), st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_image_words_are_images_of_domain_words(self, dom, w, seed):
        rng = random.Random(seed)
        cod = full_shift(["a", "b"])
        c = SlidingBlockCode(dom, cod, w, _random_rule(rng, dom, w, cod.alphabet))
        img = code_image(c)
        for n in range(1, 6):
            expected = {c.word_map(x) for x in words_of_length(dom, n + w - 1)}
            assert set(words_of_length(img, n)) == expected

    @settings(max_examples=200, deadline=None)
    @given(_domains(), st.integers(1, 3), st.integers(0, 10 ** 6))
    def test_construction_raises_iff_oracle_raises(self, dom, w, seed):
        rng = random.Random(seed)
        cod = random_graph(rng, symbols="ab", max_vertices=2)
        rule = _random_rule(rng, dom, w, cod.alphabet)
        for block in list(rule):
            if rng.random() < 0.05:
                del rule[block]
        try:
            _check_well_defined_oracle(dom, cod, w, rule)
            expected = None
        except NotInLanguage:
            expected = NotInLanguage
        try:
            SlidingBlockCode(dom, cod, w, rule)
            got = None
        except NotInLanguage:
            got = NotInLanguage
        assert got is expected

    @settings(max_examples=100, deadline=None)
    @given(_domains(), st.integers(0, 10 ** 6))
    def test_window_one_graph_is_the_relabelled_domain(self, dom, seed):
        # Same labelled graph value as before paths were introduced, so
        # window-1 images share canonical_presentation memo entries.
        rng = random.Random(seed)
        cod = full_shift(["a", "b"])
        c = SlidingBlockCode(dom, cod, 1, _random_rule(rng, dom, 1, cod.alphabet))
        seen = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("shiftlab.codes.canonical_presentation",
                       lambda g: seen.append(g) or g)
            code_image.__wrapped__(c)
        ess = essential(dom)
        old = SftGraph(ess.vertices, tuple(dict.fromkeys(
            (u, v, c.rule[(a,)]) for (u, v, a) in ess.edges)), cod.alphabet)
        assert seen == [old]


def _doubled_zero_code(window):
    """A valid code from a 2-vertex graph whose four edges all read 0 onto
    the 1-vertex 0-loop: one word of each length, but 2**(k+1) paths of k
    edges."""
    dom = SftGraph(("x", "y"), (("x", "x", "0"), ("x", "y", "0"),
                                ("y", "x", "0"), ("y", "y", "0")), ("0",))
    return SlidingBlockCode(dom, full_shift(["0"]), window, {("0",) * window: "0"})


class TestCodeImagePathCap:
    def test_cap_raises_while_the_paths_are_listed(self, monkeypatch):
        monkeypatch.setattr(codes, "MAX_CODE_IMAGE_PATHS", 64)
        # 64 paths of 5 edges are admitted, 128 of 6 are not.
        assert code_image(_doubled_zero_code(6)) == canonical_presentation(full_shift(["0"]))
        for window in (7, 40):
            t0 = time.perf_counter()
            with pytest.raises(TooLarge, match="^code image exceeds 64 domain paths$"):
                _doubled_zero_code(window)
            # Listing all 2**40 paths first would never end.
            assert time.perf_counter() - t0 < 0.5

    def test_default_cap(self):
        assert codes.MAX_CODE_IMAGE_PATHS == 1 << 16
        with pytest.raises(TooLarge, match="^code image exceeds 65536 domain paths$"):
            _doubled_zero_code(17)


class TestCodeImageSymbolCap:
    def test_cap_counts_the_edges_of_every_path_built(self, monkeypatch):
        monkeypatch.setattr(codes, "MAX_CODE_IMAGE_SYMBOLS", 45)
        loop = full_shift(["0"])
        # One path of each length: 1 + ... + 9 = 45 edges are admitted,
        # 1 + ... + 10 = 55 are not.
        c = SlidingBlockCode(loop, loop, 10, {("0",) * 10: "0"})
        assert code_image(c) is canonical_presentation(loop)
        with pytest.raises(TooLarge, match="^code image exceeds 45 domain path symbols$"):
            SlidingBlockCode(loop, loop, 11, {("0",) * 11: "0"})

    def test_default_cap_stops_a_wide_window_quickly(self):
        assert codes.MAX_CODE_IMAGE_SYMBOLS == 1 << 26
        loop = full_shift(["0"])
        t0 = time.perf_counter()
        # Listing a path of every length up to 10**6 would take an hour.
        with pytest.raises(TooLarge, match="^code image exceeds 67108864 domain path symbols$"):
            SlidingBlockCode(loop, loop, 10 ** 6, {})
        assert time.perf_counter() - t0 < 5.0
