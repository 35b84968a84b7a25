"""Tower enumeration, greedy upgrades, entropic search, fibers."""

import math

import pytest

from shiftlab.errors import (
    InternalInvariantViolation,
    NoEntropicComponent,
)
from shiftlab.fixtures import (
    abc_sequence,
    branching_sequence,
    cantor_product_sequence,
    constant_sequence,
    cycles_only_sequence,
    golden_mean_graph,
    mixed_sequence,
    two_cycle_sequence,
)
from shiftlab.towers import (
    Tower,
    approximate_by_shadowing_tower,
    enumerate_towers,
    fiber_hausdorff_gap,
    find_entropic_component,
    select_max_tower,
    truncated_fiber,
    verify_selection,
)
from shiftlab.inverse_systems import truncated_limit

PHI = (1 + math.sqrt(5)) / 2


class TestEnumeration:
    def test_constant_sequence_single_tower(self):
        seq = constant_sequence(golden_mean_graph())
        found = enumerate_towers(seq, 3)
        assert len(found) == 1
        assert found[0].entries == ("K0", "K0", "K0")

    def test_branching_depth_two(self):
        found = enumerate_towers(branching_sequence(), 2)
        assert sorted(t.entries for t in found) == [("K0", "K0"), ("K0", "K1")]

    def test_branching_depth_three_drops_dead_branch(self):
        found = enumerate_towers(branching_sequence(), 3)
        assert [t.entries for t in found] == [("K0", "K0", "K0")]

    def test_cyclic_towers_of_two_cycle(self):
        found = enumerate_towers(two_cycle_sequence(), 3, kind="cyclic")
        assert len(found) == 2
        for t in found:
            assert t.kind == "cyclic"

    def test_tower_entries_are_nested(self):
        from shiftlab.inverse_systems import composed_image
        from shiftlab.shift_core import language_subset
        seq = cantor_product_sequence(3)
        for t in enumerate_towers(seq, 3):
            for n in range(1, 3):
                upper = seq.decomposition(n + 1).by_id(t.entries[n]).graph
                upper_img = composed_image(seq, n + 1, n, start=upper)
                lower = seq.decomposition(n).by_id(t.entries[n - 1]).graph
                ok, _ = language_subset(upper_img, lower)
                assert ok


class TestSelection:
    def test_branching_upgrade(self):
        seq = branching_sequence()
        rep = select_max_tower(seq, Tower("component", ("K0", "K1")), 1, 4)
        assert rep.tower.entries[0] == "K0"
        assert all(rep.properties.values())

    def test_non_maximal_choice_fails_stability(self):
        seq = branching_sequence()
        good = select_max_tower(seq, Tower("component", ("K0", "K1")), 1, 4)
        bad = Tower("component", ("K0", "K1", "K0", "K0"))
        props = verify_selection(seq, Tower("component", ("K0", "K1")), bad, 1)
        assert not all(props.values())
        assert all(good.properties.values())

    def test_greedy_matches_exhaustive_at_depth_five(self):
        seq = branching_sequence()
        rep = select_max_tower(seq, Tower("component", ("K0", "K1")), 1, 5)
        candidates = enumerate_towers(seq, 5)
        satisfying = []
        for t in candidates:
            try:
                props = verify_selection(seq, Tower("component", ("K0", "K1")), t, 1)
            except Exception:
                continue
            if all(props.values()):
                satisfying.append(t.entries)
        assert rep.tower.entries in satisfying

    def test_selection_keeps_start_entry(self):
        seq = cantor_product_sequence(3)
        for t in enumerate_towers(seq, 2):
            rep = select_max_tower(seq, t, 1, 3)
            assert rep.tower.entries[0] == t.entries[0]


class TestEntropicSearch:
    def test_mixed_sequence_bound(self):
        res = find_entropic_component(mixed_sequence(), depth=4)
        assert res.entropy_bound == pytest.approx(math.log(PHI), abs=1e-9)

    def test_cycles_only_has_none(self):
        with pytest.raises(NoEntropicComponent):
            find_entropic_component(cycles_only_sequence(), depth=4)


class TestFibers:
    def test_fibers_partition_the_truncation(self):
        seq = cantor_product_sequence(3)
        sysm = truncated_limit(seq, 3, 4)
        found = enumerate_towers(seq, 3)
        seen = set()
        for t in found:
            fiber = truncated_fiber(seq, t, sysm)
            assert fiber, t.entries
            assert not (set(fiber) & seen)
            seen |= set(fiber)
        assert seen == set(range(len(sysm.points)))

    def test_fibers_match_brute_components(self):
        for seq, depth in [(abc_sequence(), 3),
                           (branching_sequence(), 3),
                           (two_cycle_sequence(), 3),
                           (cantor_product_sequence(3), 3)]:
            sysm = truncated_limit(seq, depth, 4)
            comp_ids = sysm.chain_component_ids()
            for t in enumerate_towers(seq, depth):
                fiber = truncated_fiber(seq, t, sysm)
                got = {comp_ids[i] for i in fiber}
                assert len(got) == 1, (t.entries, got)

    def test_hausdorff_gap_zero_for_identical_fibers(self):
        seq = cantor_product_sequence(3)
        sysm = truncated_limit(seq, 3, 4)
        t = enumerate_towers(seq, 3)[0]
        fiber = truncated_fiber(seq, t, sysm)
        assert fiber_hausdorff_gap(sysm, fiber, fiber) == 0


class TestApproximation:
    def test_agreement_to_level(self):
        seq = cantor_product_sequence(3)
        for t in enumerate_towers(seq, 2):
            rep = approximate_by_shadowing_tower(seq, t, 1, 3)
            assert rep.tower.entries[:1] == t.entries[:1]
