"""Tower enumeration, greedy upgrades, entropic search, fibers."""

import dataclasses
import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    fiber_hausdorff_gap_oracle,
    maximal_choices_oracle,
    one_step_stability_oracle,
    truncated_fiber_oracle,
)
from shiftlab import towers
from shiftlab.codes import symbol_code
from shiftlab.errors import NoEntropicComponent, PreconditionError, SchemaError
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
    two_cycle_graph,
    two_cycle_sequence,
)
from shiftlab.shift_core import language_subset
from shiftlab.towers import (
    SelectionReport,
    Tower,
    approximate_by_shadowing_tower,
    enumerate_towers,
    fiber_hausdorff_gap,
    find_entropic_component,
    select_max_tower,
    truncated_fiber,
    verify_selection,
)
from shiftlab.inverse_systems import InverseSequenceSpec, restrict_to_cr, truncated_limit

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
        from shiftlab.decomposition import chain_components
        from shiftlab.inverse_systems import composed_image
        from shiftlab.shift_core import language_subset
        seq = cantor_product_sequence(3)
        for t in enumerate_towers(seq, 3):
            for n in range(1, 3):
                upper = chain_components(seq.level(n + 1)).by_id(t.entries[n]).graph
                upper_img = composed_image(seq, n + 1, n, start=upper)
                lower = chain_components(seq.level(n)).by_id(t.entries[n - 1]).graph
                ok, _ = language_subset(upper_img, lower)
                assert ok


class TestSelection:
    def test_branching_upgrade(self):
        seq = branching_sequence()
        rep = select_max_tower(seq, Tower("component", ("K0", "K1")), 1, 4)
        assert rep.tower.entries[0] == "K0"
        assert all(rep.properties.values())

    @pytest.mark.parametrize("tower, n, depth, reason", [
        (Tower("cyclic", ("D0", "D0")), 1, 4, "selection operates on component towers"),
        (Tower("component", ("K0",)), 1, 4, "tower must reach level 2"),
        (Tower("component", ("K0", "K1")), 1, 1, "requested depth must exceed the start level"),
    ], ids=["cyclic-tower", "shallow-tower", "shallow-depth"])
    def test_argument_checks(self, tower, n, depth, reason):
        with pytest.raises(SchemaError, match="^%s$" % reason):
            select_max_tower(branching_sequence(), tower, n, depth)

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

    def test_stability_matches_equality_oracle(self):
        # Every tower to depth 4 as the upgrade of every other, from every
        # start level: the one-step stability property both ways.
        seen = set()
        seqs = [abc_sequence(), branching_sequence(), merging_sequence(), mixed_sequence(),
                cantor_product_sequence(3)]
        seqs += [restrict_to_cr(random_sequence(seed)) for seed in range(40)]
        for seq in seqs:
            found = enumerate_towers(seq, 4)
            for before, after in itertools.product(found, repeat=2):
                for n in range(1, 4):
                    got = verify_selection(seq, before, after, n)["one_step_image_stability"]
                    assert got == one_step_stability_oracle(seq, after, n)
                    seen.add(got)
        assert seen == {True, False}


def _maximal_choices_oracle(seq, m, n, cands):
    """Collect every candidate whose image no other candidate's image
    strictly contains, then take the least id."""
    maximal = []
    for cid in cands:
        img = towers._component_image(seq, m, n, cid)
        dominated = False
        for other in cands:
            if other == cid:
                continue
            oimg = towers._component_image(seq, m, n, other)
            le, _ = language_subset(img, oimg)
            ge, _ = language_subset(oimg, img)
            if le and not ge:
                dominated = True
                break
        if not dominated:
            maximal.append(cid)
    return sorted(maximal)[0]


def _candidate_lists_met(runs):
    """Every (sequence, m, n, candidates) that select_max_tower hands to
    _maximal_choices over the given (sequence, depth) runs, starting from
    each tower and each start level that meets the preconditions."""
    met = []
    real = towers._maximal_choices

    def spy(seq, m, n, cands):
        met.append((seq, m, n, list(cands)))
        return real(seq, m, n, cands)

    with mock.patch.object(towers, "_maximal_choices", spy):
        for seq, depth in runs:
            for t in enumerate_towers(seq, depth):
                for n in range(1, depth):
                    try:
                        select_max_tower(seq, t, n, depth)
                    except PreconditionError:
                        pass
    return met


class TestMaximalChoice:
    def test_matches_collect_and_sort_oracle(self):
        # Also against the two-subset test that the identity test replaced.
        runs = [(cantor_product_sequence(3), 3), (branching_sequence(), 4)]
        runs += [(make(), 3) for make in (abc_sequence, merging_sequence, mixed_sequence)]
        runs += [(restrict_to_cr(random_sequence(seed)), 3) for seed in range(40)]
        met = _candidate_lists_met(runs)
        assert sum(len(cands) > 1 for _s, _m, _n, cands in met) >= 10
        for seq, m, n, cands in met:
            for sub in itertools.chain.from_iterable(
                    itertools.permutations(cands, k) for k in range(1, len(cands) + 1)):
                sub = list(sub)
                got = towers._maximal_choices(seq, m, n, sub)
                assert got == _maximal_choices_oracle(seq, m, n, sub), (m, n, sub)
                assert got == maximal_choices_oracle(seq, m, n, sub), (m, n, sub)

    def test_report_holds_only_the_tower_and_its_contract(self):
        assert [f.name for f in dataclasses.fields(SelectionReport)] == ["tower", "properties"]


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

    def test_tower_shallower_than_the_system_is_refused(self):
        seq = cantor_product_sequence(3)
        sysm = truncated_limit(seq, 3, 4)
        tower = Tower("component", enumerate_towers(seq, 3)[0].entries[:2])
        with pytest.raises(SchemaError, match="^tower is shallower than the truncated system$"):
            truncated_fiber(seq, tower, sysm)

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

    def test_picks_match_per_kind_loop_oracle(self):
        # Swapping the two symbols of the 2-cycle swaps its cyclic classes,
        # so its cyclic towers alternate between them.
        g = two_cycle_graph()
        swap = symbol_code(g, g, {"a": "b", "b": "a"})
        swapping = InverseSequenceSpec((g, g, g), (swap, swap), "identity")
        cases = [(seq, "component") for seq in (abc_sequence(), branching_sequence(),
                                                 cantor_product_sequence(3))]
        cases += [(two_cycle_sequence(), "cyclic"), (swapping, "cyclic")]
        for seq, kind in cases:
            sysm = truncated_limit(seq, 3, 4)
            for t in enumerate_towers(seq, 3, kind=kind):
                assert truncated_fiber(seq, t, sysm) == truncated_fiber_oracle(seq, t, sysm)
        assert {t.entries for t in enumerate_towers(swapping, 3, kind="cyclic")} == \
            {("D0", "D1", "D0"), ("D1", "D0", "D1")}

    def test_hausdorff_gap_zero_for_identical_fibers(self):
        seq = cantor_product_sequence(3)
        sysm = truncated_limit(seq, 3, 4)
        t = enumerate_towers(seq, 3)[0]
        fiber = truncated_fiber(seq, t, sysm)
        assert fiber_hausdorff_gap(sysm, fiber, fiber) == 0

    def test_hausdorff_gap_matches_nearest_point_loop(self):
        # The nearest-point loop that the one max-min replaced.
        def oracle(sysm, inner, outer):
            worst = Fraction(0)
            for i in inner:
                best = None
                for j in outer:
                    d = sysm.metric(i, j)
                    if best is None or d < best:
                        best = d
                if best is None:
                    raise SchemaError("empty target fiber")
                worst = max(worst, best)
            return worst

        seq = cantor_product_sequence(3)
        sysm = truncated_limit(seq, 3, 4)
        fibers = [truncated_fiber(seq, t, sysm) for t in enumerate_towers(seq, 3)]
        for inner in fibers + [[]]:
            for outer in fibers:
                assert fiber_hausdorff_gap(sysm, inner, outer) == oracle(sysm, inner, outer)
        assert fiber_hausdorff_gap(sysm, [], []) == 0
        with pytest.raises(SchemaError, match="empty target fiber"):
            fiber_hausdorff_gap(sysm, fibers[0], [])

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([abc_sequence, branching_sequence, mixed_sequence,
                            lambda: cantor_product_sequence(3)]
                           + [lambda s=s: random_sequence(s) for s in range(10)]),
           st.randoms(use_true_random=False))
    def test_hausdorff_gap_matches_max_min_oracle(self, make, rng):
        # Exponents in place of one Fraction per pair, on any point sets.
        sysm = truncated_limit(make(), 3, 4)
        n = len(sysm.points)
        inner = sorted(rng.sample(range(n), rng.randint(0, n)))
        outer = sorted(rng.sample(range(n), rng.randint(min(1, n), n)))
        assert fiber_hausdorff_gap(sysm, inner, outer) == \
            fiber_hausdorff_gap_oracle(sysm, inner, outer)


class TestApproximation:
    def test_agreement_to_level(self):
        seq = cantor_product_sequence(3)
        for t in enumerate_towers(seq, 2):
            rep = approximate_by_shadowing_tower(seq, t, 1, 3)
            assert rep.tower.entries[:1] == t.entries[:1]
