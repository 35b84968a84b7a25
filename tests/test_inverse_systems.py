"""Inverse sequences: image chains, stabilization, extraction, truncations."""

import pytest

from shiftlab.errors import CannotExtract, Mlc1Required, TooLarge
from shiftlab.fixtures import (
    abc_sequence,
    branching_sequence,
    cantor_product_sequence,
    constant_sequence,
    cycles_only_sequence,
    golden_mean_graph,
    merging_sequence,
    mixed_sequence,
    random_sequence,
)
from shiftlab.inverse_systems import (
    check_mlc,
    composed_image,
    extract_mlc1_subsequence,
    hat_space,
    image_chain,
    restrict_to_cr,
    sequence_from_json,
    sequence_to_json,
    truncated_limit,
)
from shiftlab.shift_core import language_equal, language_subset


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


class TestHatSpace:
    def test_hat_equals_stable_image(self):
        seq = abc_sequence()
        rep = hat_space(seq, 1)
        assert rep.status == "stabilized"
        chain = image_chain(seq, 1)
        assert language_equal(rep.graph, chain.stable_image)[0]

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

    def test_index_map_is_increasing(self):
        res = extract_mlc1_subsequence(abc_sequence())
        assert all(a < b for a, b in zip(res.index_map, res.index_map[1:]))


class TestTruncatedLimit:
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

    def test_compatibility_of_coordinates(self):
        from shiftlab.inverse_systems import composed_code
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

    def test_guard_against_explosion(self):
        with pytest.raises(TooLarge):
            truncated_limit(cantor_product_sequence(4), 4, 10, max_points=100)


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
