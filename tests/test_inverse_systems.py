"""Inverse sequences: image chains, stabilization, extraction, truncations."""

import dataclasses
import functools
import json
import os
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from memos import clear_value_memos
from oracles import (
    check_mlc_oracle,
    image_chain_oracle,
    restrict_to_cr_oracle,
    sequence_code_oracle,
    sequence_level_oracle,
    tarjan_sccs_oracle,
    truncated_limit_oracle,
    word_distance,
)
from shiftlab import inverse_systems
from shiftlab.errors import Mlc1Required, SchemaError, ShiftLabError, TooLarge
from shiftlab.fixtures import (
    abc_sequence,
    branching_sequence,
    cantor_product_sequence,
    constant_sequence,
    golden_mean_graph,
    merging_sequence,
    mixed_sequence,
    random_sequence,
)
from shiftlab.codes import SlidingBlockCode, code_image, identity_code, symbol_code
from shiftlab.decomposition import chain_components
from shiftlab.inverse_systems import (
    InverseSequenceSpec,
    TruncatedSystem,
    _limit_truncation,
    check_mlc,
    composed_code,
    composed_image,
    extract_mlc1_subsequence,
    hat_space,
    image_chain,
    restrict_to_cr,
    sequence_from_json,
    sequence_to_json,
    truncated_limit,
)
from shiftlab.shift_core import (
    canonical_presentation,
    full_shift,
    language_equal,
    language_subset,
    make_graph,
    words_of_length,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def _composed_image_oracle(seq, m, n, start=None):
    """The from-scratch fold, read past the memos."""
    g = start if start is not None else seq.level(m)
    if m == n:
        return canonical_presentation.__wrapped__(g)
    for k in range(m - 1, n - 1, -1):
        g = code_image.__wrapped__(seq.code(k), domain=g)
    return g


def _check_memo_against_oracle(seq, orders, depth=7):
    """Every composed_image(seq, m, n, start) for 1 <= n <= m <= depth, with
    start None or a component graph of level m, asked in each given order
    on emptied memos, equals the oracle."""
    starts = {m: [None] + [c.graph for c in chain_components(seq.level(m)).components]
              for m in range(1, depth + 1)}
    queries = [(m, n, i) for m in range(1, depth + 1) for n in range(1, m + 1)
               for i in range(len(starts[m]))]
    expected = {(m, n, i): _composed_image_oracle(seq, m, n, starts[m][i])
                for (m, n, i) in queries}
    for order in orders:
        clear_value_memos()
        for q in order(queries):
            m, n, i = q
            assert composed_image(seq, m, n, starts[m][i]) == expected[q], q


class TestImageChains:
    def test_constant_sequence_stabilizes_immediately(self):
        seq = constant_sequence(golden_mean_graph())
        chain = image_chain(seq, 1)
        assert chain.stabilized_at == 2
        assert language_equal(chain.stable_image, golden_mean_graph())[0]

    def test_abc_chain_descends(self):
        seq = abc_sequence()
        chain = image_chain(seq, 1)
        # images shrink strictly once, then stay put
        ok, _ = language_subset(chain.images[1], chain.images[0])
        assert ok
        ok, _ = language_subset(chain.images[0], chain.images[1])
        assert not ok
        assert chain.stabilized_at == 3

    def test_images_monotone_on_random_sequences(self):
        for seed in range(12):
            seq = random_sequence(seed)
            chain = image_chain(seq, 1, depth_cap=8)
            for earlier, later in zip(chain.images, chain.images[1:]):
                ok, witness = language_subset(later, earlier)
                assert ok, (seed, witness)

    def test_unstabilized_chain_has_no_stable_image(self):
        chain = image_chain(abc_sequence(), 1, depth_cap=1)
        assert chain.stabilized_at is None
        with pytest.raises(Mlc1Required, match="did not stabilize within the cap"):
            chain.stable_image

    def test_composition_refuses_to_go_up(self):
        seq = abc_sequence()
        with pytest.raises(SchemaError, match="^need m >= n$"):
            composed_image(seq, 1, 2)
        for m in (1, 2):
            with pytest.raises(SchemaError, match="^need m > n$"):
                composed_code(seq, m, 2)

    def test_chain_depth_cap(self, monkeypatch):
        monkeypatch.setattr(inverse_systems, "MAX_CHAIN_DEPTH", 5)
        with open(os.path.join(DATA, "unstable_chain.json"), encoding="utf-8") as f:
            seq = sequence_from_json(json.load(f))
        chain = image_chain(seq, 1, depth_cap=4)
        assert chain.stabilized_at is None and len(chain.images) == 5
        for cap in (5, 10 ** 5):
            with pytest.raises(TooLarge, match="^image chain at level 1 exceeds depth 5 "):
                image_chain(seq, 1, depth_cap=cap)


def _shuffled(rng):
    return lambda qs: rng.sample(qs, len(qs))


class TestImageMemo:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10 ** 6), st.randoms(use_true_random=False))
    def test_random_sequences_match_oracle(self, seed, rng):
        _check_memo_against_oracle(random_sequence(seed), [_shuffled(rng)])

    @pytest.mark.parametrize("make", [lambda: cantor_product_sequence(3), abc_sequence],
                             ids=["cantor_product_3", "abc_periodic"])
    def test_fixed_sequences_match_oracle(self, make):
        rng = random.Random(0)
        # Ascending order asks (m, n) before (m, m); descending the reverse.
        orders = [sorted, lambda qs: sorted(qs, reverse=True),
                  _shuffled(rng), _shuffled(rng)]
        _check_memo_against_oracle(make(), orders)

    def test_identity_tail_code_is_built_once(self):
        seq = cantor_product_sequence(3)
        L = seq.prefix_length
        assert seq.code(L) is seq.code(L + 5)

    def test_memo_does_not_affect_equality(self):
        a, b = cantor_product_sequence(3), cantor_product_sequence(3)
        check_mlc(a, depth_cap=4)
        chain_components(a.level(2))
        assert a == b and repr(a) == repr(b)


def _periodic_binary(tail_block):
    """Three full 2-shift levels joined by three distinct codes, with a
    periodic tail of the given block length."""
    g = full_shift(["0", "1"])
    codes = (identity_code(g), symbol_code(g, g, {"0": "1", "1": "0"}),
             symbol_code(g, g, {"0": "0", "1": "0"}))
    return InverseSequenceSpec((g, g, g), codes, "periodic", tail_block)


def _code_oracle(seq, n):
    """The recursive definition of a periodic tail: code(n) = code(n - p)."""
    if n <= len(seq.codes):
        return seq.codes[n - 1]
    return _code_oracle(seq, n - seq.tail_block)


class TestPeriodicTail:
    @pytest.mark.parametrize("make", [abc_sequence] + [
        functools.partial(_periodic_binary, p) for p in (1, 2, 3)],
        ids=["abc", "binary_p1", "binary_p2", "binary_p3"])
    def test_code_matches_recursive_definition(self, make):
        seq = make()
        for n in range(1, 61):
            assert seq.code(n) is _code_oracle(seq, n)
        # Deep tails must not recurse once per tail block.
        for n in (5000, 10 ** 6, 10 ** 6 + 1):
            assert seq.code(n) is seq.code(n - seq.tail_block)


def _distinct_levels_sequence(rng, length, tail, block):
    """Full 2-shifts on distinct alphabets joined by random symbol codes, so
    that no two levels or codes coincide by accident; a periodic tail adds
    the wrap code from level length - block + 1 onto the last level.  An
    identity tail keeps the block it is given, which it must ignore."""
    levels = tuple(full_shift("abcdefgh"[2 * i: 2 * i + 2]) for i in range(length))

    def code(dom, cod):
        return symbol_code(dom, cod, {a: rng.choice(cod.alphabet) for a in dom.alphabet})

    codes = [code(levels[i + 1], levels[i]) for i in range(length - 1)]
    if tail == "periodic":
        codes.append(code(levels[length - block], levels[-1]))
    return InverseSequenceSpec(levels, tuple(codes), tail, block)


def _transient_periodic(block):
    """Two levels, each two fixed points joined through a transient vertex,
    with a periodic tail: block 2 wraps level 1 onto level 2, block 1 wraps
    level 2 onto itself."""
    lower = make_graph(["x", "t", "y"], [("x", "x", "a"), ("x", "t", "c"),
                                         ("t", "y", "c"), ("y", "y", "b")])
    upper = make_graph(["x", "t", "y"], [("x", "x", "d"), ("x", "t", "f"),
                                         ("t", "y", "f"), ("y", "y", "e")])
    down = symbol_code(upper, lower, {"d": "a", "e": "b", "f": "c"})
    if block == 2:
        wrap = symbol_code(lower, upper, {"a": "d", "b": "e", "c": "f"})
    else:
        wrap = symbol_code(upper, upper, {"d": "e", "e": "e", "f": "e"})
    return InverseSequenceSpec((lower, upper), (down, wrap), "periodic", block)


class TestTailRule:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 4),
           st.sampled_from(["identity", "periodic"]), st.data())
    def test_levels_and_codes_match_per_mode_oracle(self, rng, length, tail, data):
        block = data.draw(st.integers(1, length))
        seq = _distinct_levels_sequence(rng, length, tail, block)
        for n in range(1, 3 * length + 3):
            assert seq.level(n) is sequence_level_oracle(seq, n)
            assert seq.code(n) is sequence_code_oracle(seq, n)

    def test_zero_is_refused(self):
        seq = constant_sequence(full_shift("01"), 2)
        with pytest.raises(SchemaError, match="^levels are 1-indexed$"):
            seq.level(0)
        with pytest.raises(SchemaError, match="^levels are 1-indexed$"):
            seq.code(0)

    @pytest.mark.parametrize("make", [abc_sequence] + [
        functools.partial(_transient_periodic, p) for p in (1, 2)],
        ids=["abc", "transient_p1", "transient_p2"])
    def test_restriction_of_periodic_tails_matches_oracle(self, make):
        seq = make()
        out, want = restrict_to_cr(seq), restrict_to_cr_oracle(seq)
        assert all(a is b for a, b in zip(out.levels, want.levels, strict=True))
        assert all(a is b for a, b in zip(out.codes, want.codes, strict=True))
        assert (out.tail, out.tail_block) == (want.tail, want.tail_block)
        if make is not abc_sequence:
            assert all("t" not in g.vertices for g in out.levels)
            assert out.code(2).domain is out.level(3)


class TestMlc:
    def test_abc_fails_mlc1_with_witness(self):
        rep = check_mlc(abc_sequence(), depth_cap=16)
        assert not rep.all_mlc1
        for lv in rep.levels:
            assert not lv.mlc1
            assert lv.witness == lv.level + 2

    def test_constant_sequence_is_mlc1(self):
        rep = check_mlc(constant_sequence(golden_mean_graph()), depth_cap=8)
        assert rep.all_mlc1

    def test_branching_sequence_is_mlc1(self):
        assert check_mlc(branching_sequence(), depth_cap=8).all_mlc1

    def test_merging_sequence_is_mlc1_with_proper_image(self):
        seq = merging_sequence()
        rep = check_mlc(seq, depth_cap=16)
        assert rep.all_mlc1
        # the stable image at the bottom is strictly smaller than the level
        chain = image_chain(seq, 1)
        ok, _ = language_subset(seq.level(1), chain.stable_image)
        assert not ok


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ShiftLabError as exc:  # compared by type and message
        return type(exc), str(exc)


# The fixed sequences and random_sequence seeds 0-39 whose image chains
# the identity comparisons are checked on.
IDENTITY_SEQUENCES = ([abc_sequence, branching_sequence, merging_sequence, mixed_sequence,
                       functools.partial(cantor_product_sequence, 3)]
                      + [functools.partial(random_sequence, seed) for seed in range(40)])


class TestIdentityMatchesEqualityOracle:
    def test_image_chains_and_mlc_reports_match(self):
        # Reports are compared field by field; their images are graphs, so
        # the equality-searching oracle must find the very same objects.
        seen = set()
        for make in IDENTITY_SEQUENCES:
            seq = make()
            for cap in range(9):
                got = _outcome(check_mlc, seq, cap)
                assert got == _outcome(check_mlc_oracle, seq, cap), (make, cap)
                for n in range(1, seq.prefix_length + 2):
                    assert (_outcome(image_chain, seq, n, cap)
                            == _outcome(image_chain_oracle, seq, n, cap)), (make, cap, n)
                seen.update((lv.mlc1, lv.witness is None) for lv in got.levels)
        assert seen == {(True, True), (True, False), (False, True), (False, False)}


class TestHatSpace:
    def test_hat_equals_stable_image(self):
        seq = abc_sequence()
        rep = hat_space(seq, 1)
        assert rep.status == "stabilized"
        chain = image_chain(seq, 1)
        assert language_equal(rep.graph, chain.stable_image)[0]

    def test_shallow_cap_is_undetermined(self):
        rep = hat_space(abc_sequence(), 1, depth_cap=1)
        assert rep.status == "undetermined"
        assert rep.depth is None and rep.graph is None

    def test_hat_of_mlc1_sequence_is_one_step_image(self):
        seq = constant_sequence(golden_mean_graph())
        rep = hat_space(seq, 1)
        assert language_equal(rep.graph, composed_image(seq, 2, 1))[0]


class TestRestrictToCr:
    def test_preserves_mlc1(self):
        for seed in range(8):
            seq = random_sequence(seed)
            cr = restrict_to_cr(seq)
            rep = check_mlc(cr, depth_cap=8)
            # restriction must never break one-step stability where the
            # whole sequence already had it
            full = check_mlc(seq, depth_cap=8)
            if full.all_mlc1:
                assert rep.all_mlc1, seed


class TestExtraction:
    def test_abc_extraction(self):
        res = extract_mlc1_subsequence(abc_sequence())
        assert res.index_map == (3,)
        rep = check_mlc(res.sequence, depth_cap=16)
        assert rep.all_mlc1

    def test_merging_extraction(self):
        res = extract_mlc1_subsequence(merging_sequence())
        assert check_mlc(res.sequence, depth_cap=16).all_mlc1

    def test_extraction_on_all_witnessed_random_sequences(self):
        for seed in range(12):
            seq = random_sequence(seed)
            rep = check_mlc(seq, depth_cap=10)
            if not rep.all_witnessed:
                continue
            res = extract_mlc1_subsequence(seq)
            assert check_mlc(res.sequence, depth_cap=10).all_mlc1, seed

    def test_identity_tail_is_cut_at_the_prefix_length(self):
        # Level 1 stabilizes at 2, and every later level one deeper; the
        # first retained level at or past the prefix length, 5, ends it.
        res = extract_mlc1_subsequence(constant_sequence(golden_mean_graph(), 5))
        assert res.index_map == (2, 3, 4, 5)
        assert (res.sequence.tail, len(res.sequence.codes)) == ("identity", 3)

    def test_index_map_is_increasing(self):
        res = extract_mlc1_subsequence(abc_sequence())
        assert all(a < b for a, b in zip(res.index_map, res.index_map[1:]))


def _truncated_limit_oracle(seq, depth, word_length, max_points=10 ** 6):
    """The join that scanned every level word for every partial tuple."""
    T = word_length
    level_words = {n: words_of_length(seq.level(n), T) for n in range(1, depth + 1)}
    partial = [(w,) for w in level_words[depth]]
    for n in range(depth - 1, 0, -1):
        code = seq.code(n)
        nxt = []
        for tup in partial:
            det = code.word_map(tup[0])
            for w in level_words[n]:
                if w[: len(det)] == det[: len(w)]:
                    nxt.append((w,) + tup)
                    if len(nxt) > max_points:
                        raise TooLarge("truncated limit exceeds %d points" % max_points)
        partial = nxt
    points = tuple(sorted(partial))
    succ = tuple(tuple(j for j, q in enumerate(points)
                       if all(qn[: T - 1] == pn[1:] for pn, qn in zip(p, q)))
                 for p in points)
    return TruncatedSystem(depth, T, points, succ)


def _limit_under_cap(seq, depth, length, cap):
    """truncated_limit with MAX_LIMIT_POINTS patched to cap."""
    with mock.patch.object(inverse_systems, "MAX_LIMIT_POINTS", cap):
        return truncated_limit(seq, depth, length)


def _least_admitted(build):
    """The least point cap for which build(cap) does not raise TooLarge."""
    lo, hi = 0, 10 ** 6
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            build(mid)
        except TooLarge:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _assert_join_matches_oracle(seq, depth, length):
    """Equal systems, and TooLarge below the same point cap."""
    sysm = truncated_limit(seq, depth, length)
    assert sysm == _truncated_limit_oracle(seq, depth, length)
    least = _least_admitted(functools.partial(_limit_under_cap, seq, depth, length))
    assert least == _least_admitted(
        functools.partial(_truncated_limit_oracle, seq, depth, length))
    assert least >= len(sysm.points)


# (sequence, depth, word length); at length 1 the level words are joined
# on the empty prefix.
TRUNCATION_CASES = [
    (lambda: cantor_product_sequence(3), 3, 4),
    (lambda: cantor_product_sequence(4), 4, 5),
    (lambda: cantor_product_sequence(4), 2, 1),
    (abc_sequence, 3, 4),
    (branching_sequence, 3, 4),
] + [(functools.partial(random_sequence, seed), 3, 6) for seed in range(10)]
TRUNCATION_IDS = ["cantor_product_3", "cantor_product_4", "cantor_product_4_length_1",
                  "abc", "branching"] + ["random_%d" % seed for seed in range(10)]


BIN = ["0", "1"]


def _window_two_sequence():
    """Full 2-shift -> full 2-shift by the sum mod 2 of two symbols ->
    golden mean shift by marking each 10 block, so each upper level's
    words are listed under images one symbol shorter than themselves."""
    full = full_shift(BIN)
    blocks = [(a, b) for a in BIN for b in BIN]
    xor = SlidingBlockCode(full, full, 2, {w: str(int(w[0] != w[1])) for w in blocks})
    drop = SlidingBlockCode(full, golden_mean_graph(), 2,
                            {w: "1" if w == ("1", "0") else "0" for w in blocks})
    return InverseSequenceSpec((golden_mean_graph(), full, full), (drop, xor), "identity")


def _point_over_full_shift(window):
    """The fixed point 0^inf mapped into the full 2-shift by a window-w
    code, so the image of a length-T word fixes only the first T - w + 1
    symbols of the level-1 words that it admits."""
    loop = full_shift(["0"])
    code = SlidingBlockCode(loop, full_shift(BIN), window, {("0",) * window: "0"})
    return InverseSequenceSpec((full_shift(BIN), loop), (code,), "identity")


WINDOW_CASES = [(_window_two_sequence, 3, 5), (_window_two_sequence, 3, 1),
                (_window_two_sequence, 2, 7), (_window_two_sequence, 2, 0),
                (_window_two_sequence, 3, 4), (_window_two_sequence, 4, 2),
                (functools.partial(_point_over_full_shift, 3), 2, 6),
                (functools.partial(_point_over_full_shift, 3), 3, 2)]
PREFIX_CASES = TRUNCATION_CASES + WINDOW_CASES
PREFIX_IDS = TRUNCATION_IDS + [
    "window_two_3_5", "window_two_3_1", "window_two_2_7", "window_two_2_0",
    "window_two_3_4", "window_two_4_2", "point_over_full_2_6", "point_over_full_3_2"]


class TestTruncatedLimit:
    def test_negative_word_length_is_refused(self):
        with pytest.raises(SchemaError, match="^word length must be nonnegative$"):
            truncated_limit(cantor_product_sequence(3), 1, -1)
        # Length 0 keeps its one point of empty words.
        assert truncated_limit(cantor_product_sequence(3), 1, 0).points == (((),),)

    def test_built_once_per_value_and_cap(self, monkeypatch):
        clear_value_memos()
        sysm = truncated_limit(abc_sequence(), 3, 4)
        assert truncated_limit(abc_sequence(), 3, 4) is sysm
        assert _limit_truncation.cache_info().misses == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            sysm.points = ()
        # The cap is read at each call and is part of the key.
        monkeypatch.setattr(inverse_systems, "MAX_LIMIT_POINTS", 2)
        with pytest.raises(TooLarge, match="^truncated limit exceeds 2 points$"):
            truncated_limit(abc_sequence(), 3, 4)
        monkeypatch.undo()
        assert truncated_limit(abc_sequence(), 3, 4) is sysm

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 19), st.sampled_from([(1, 5), (2, 4), (3, 6), (4, 3)]))
    def test_memoised_join_matches_its_body(self, seed, shape):
        seq = random_sequence(seed)
        new = truncated_limit(seq, *shape)
        assert truncated_limit(random_sequence(seed), *shape) is new
        old = _limit_truncation.__wrapped__(seq, *shape, inverse_systems.MAX_LIMIT_POINTS)
        assert new == old

    def test_abc_limit_is_three_fixed_points(self):
        sysm = truncated_limit(abc_sequence(), 3, 4)
        assert len(sysm.points) == 3
        for i in range(3):
            assert sysm.successors[i] == (i,)

    def test_metric_separates_points(self):
        sysm = truncated_limit(abc_sequence(), 3, 4)
        for i in range(len(sysm.points)):
            for j in range(len(sysm.points)):
                assert (sysm.metric(i, j) == 0) == (i == j)

    @pytest.mark.parametrize("seq", [abc_sequence(), branching_sequence(),
                                     cantor_product_sequence(3)],
                             ids=["abc", "branching", "cantor-product-3"])
    def test_metric_matches_level_product_oracle(self, seq):
        # The per-level Fraction product that the closed form replaced.
        sysm = truncated_limit(seq, 3, 4)
        for i, a in enumerate(sysm.points):
            for j, b in enumerate(sysm.points):
                expected = max(Fraction(1, 2 ** n) * word_distance(a[n], b[n])
                               for n in range(sysm.depth))
                assert sysm.metric(i, j) == expected

    def test_compatibility_of_coordinates(self):
        seq = branching_sequence()
        sysm = truncated_limit(seq, 3, 4)
        for pt in sysm.points:
            for n in range(2):
                code = seq.code(n + 1)
                mapped = code.word_map(pt[n + 1])
                assert pt[n][:len(mapped)] == mapped

    def test_successor_drops_first_symbols(self):
        seq = branching_sequence()
        sysm = truncated_limit(seq, 3, 4)
        for i, pt in enumerate(sysm.points):
            for j in sysm.successors[i]:
                q = sysm.points[j]
                for n in range(sysm.depth):
                    assert q[n][:sysm.word_length - 1] == pt[n][1:]

    def test_component_ids_match_string_vertex_oracle(self):
        """The old method ran Tarjan on str(i) vertices and converted back."""
        sizes = []
        for seq, depth, length in [(abc_sequence(), 3, 3),
                                   (branching_sequence(), 3, 4),
                                   (cantor_product_sequence(3), 3, 4)]:
            sysm = truncated_limit(seq, depth, length)
            n = len(sysm.points)
            arcs = {str(i): [str(j) for j in sysm.successors[i]] for i in range(n)}
            keyed = sorted(sorted(int(v) for v in verts)
                           for verts in tarjan_sccs_oracle([str(i) for i in range(n)], arcs)
                           if len(verts) > 1 or int(verts[0]) in sysm.successors[int(verts[0])])
            expected = [-1] * n
            for cid, ids in enumerate(keyed):
                for i in ids:
                    expected[i] = cid
            assert sysm.chain_component_ids() == expected
            sizes.append(n)
        assert max(sizes) > 10  # string and int vertex orders differ

    def test_guard_against_explosion(self):
        with pytest.raises(TooLarge):
            _limit_under_cap(cantor_product_sequence(4), 4, 10, 100)

    @pytest.mark.parametrize("make, depth, length", TRUNCATION_CASES,
                             ids=TRUNCATION_IDS)
    def test_successors_match_all_pairs_oracle(self, make, depth, length):
        """The successor rows the all-pairs scan built: q follows p when
        every coordinate of q extends p's coordinate minus its first symbol."""
        sysm = truncated_limit(make(), depth, length)
        T = sysm.word_length
        expected = tuple(
            tuple(j for j, q in enumerate(sysm.points)
                  if all(qn[: T - 1] == pn[1:] for pn, qn in zip(p, q)))
            for p in sysm.points)
        assert sysm.successors == expected

    @pytest.mark.parametrize("make, depth, length", TRUNCATION_CASES,
                             ids=TRUNCATION_IDS)
    def test_prefix_join_matches_all_words_oracle(self, make, depth, length):
        _assert_join_matches_oracle(make(), depth, length)

    @pytest.mark.parametrize("make, depth, length", PREFIX_CASES, ids=PREFIX_IDS)
    def test_prefix_listing_matches_listing_oracle(self, make, depth, length):
        """Equal to the join that listed every word of every level first,
        and refused below the same point cap."""
        seq = make()
        sysm = truncated_limit(seq, depth, length)
        assert sysm == truncated_limit_oracle(seq, depth, length)
        least = _least_admitted(functools.partial(_limit_under_cap, seq, depth, length))
        assert least == _least_admitted(
            lambda cap: truncated_limit_oracle(seq, depth, length, cap))

    def test_depth_one_is_capped(self):
        # Depth 1 joins nothing, so the listing oracle never capped it.
        seq = constant_sequence(full_shift(BIN), 3)
        assert len(truncated_limit_oracle(seq, 1, 7, 100).points) == 128
        assert len(_limit_under_cap(seq, 1, 7, 128).points) == 128
        with pytest.raises(TooLarge, match="exceeds 127 points"):
            _limit_under_cap(seq, 1, 7, 127)

    @pytest.mark.parametrize("make, depth, length",
                             [(lambda: constant_sequence(full_shift(BIN), 3), 1, 21),
                              (lambda: constant_sequence(full_shift(BIN), 3), 3, 21),
                              (lambda: cantor_product_sequence(3), 3, 30),
                              (_window_two_sequence, 3, 30),
                              (lambda: _point_over_full_shift(20), 2, 20)],
                             ids=["full_depth_1", "full_depth_3", "cantor_product_3",
                                  "window_two", "point_over_full"])
    def test_listing_stops_at_the_cap(self, make, depth, length, monkeypatch):
        # No level draws more than one word past the cap from the walk; at
        # the point over the full shift one image admits 2**19 words.
        seq = make()
        drawn = []
        real = inverse_systems._words

        def counting(*args):
            for w in real(*args):
                drawn.append(w)
                yield w

        monkeypatch.setattr(inverse_systems, "_words", counting)
        with pytest.raises(TooLarge):
            _limit_under_cap(seq, depth, length, 1000)
        assert 0 < len(drawn) <= depth * 1001

    def test_default_cap_refuses_quickly(self):
        # Each listed every word of every level before: the full 2-shift
        # at depth 1 returned 2**21 points, and the other two ran for
        # seconds to minutes before they refused.
        for seq, depth, length in [(constant_sequence(full_shift(BIN), 3), 1, 21),
                                   (constant_sequence(full_shift(BIN), 3), 3, 21),
                                   (cantor_product_sequence(3), 3, 30)]:
            t0 = time.perf_counter()
            with pytest.raises(TooLarge, match="exceeds 1000000 points"):
                truncated_limit(seq, depth, length)
            assert time.perf_counter() - t0 < 5

    @pytest.mark.parametrize("seed", range(20))
    def test_random_sequences_match_all_words_oracle(self, seed):
        seq = random_sequence(seed)
        for depth, length in ((2, 4), (3, 6), (4, 3)):
            _assert_join_matches_oracle(seq, depth, length)


class TestJson:
    def test_round_trip(self):
        seq = abc_sequence()
        seq2 = sequence_from_json(sequence_to_json(seq))
        assert seq2.tail == seq.tail and seq2.tail_block == seq.tail_block
        rep = check_mlc(seq2, depth_cap=16)
        assert not rep.all_mlc1

    def test_round_trip_multichar_symbols(self):
        seq = cantor_product_sequence(3)
        assert sequence_from_json(sequence_to_json(seq)) == seq

    def test_non_object_tail_is_a_schema_error(self):
        data = sequence_to_json(abc_sequence())
        data["tail"] = "identity"
        with pytest.raises(SchemaError):
            sequence_from_json(data)

    def test_missing_tail_block_defaults_to_1(self):
        data = sequence_to_json(abc_sequence())
        del data["tail"]["block"]
        assert sequence_from_json(data).tail_block == 1
