"""Sliding block codes: application, composition, images."""

import pytest
from hypothesis import given, settings, strategies as st

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
from shiftlab.errors import CompositionMismatch, NotInLanguage
from shiftlab.fixtures import golden_mean_graph
from shiftlab.shift_core import (
    SymbolicPoint,
    full_shift,
    graph_from_json,
    graph_to_json,
    language_equal,
    language_subset,
    point_in_shift,
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
        copy = graph_from_json(graph_to_json(g))
        assert copy is not g
        assert identity_code(g) is identity_code(copy)

    def test_code_image(self):
        c = xor_code()
        copy = code_from_json(code_to_json(c))
        assert copy is not c
        assert code_image(c) is code_image(copy)
        sub = golden_mean_graph()
        assert code_image(c, sub) is code_image(copy, graph_from_json(graph_to_json(sub)))
