"""Finite systems, brute-force shadowing, the gap family, layered example."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import shadow_lab
from shiftlab.errors import PreconditionError, TooLarge
from shiftlab.fixtures import golden_mean_graph
from shiftlab.shadow_lab import (
    FiniteSystem,
    _fiber_chain_transitive,
    _successor_table,
    brute_shadowing_check,
    build_layered_example,
    check_triangle,
    gap_entropy_oracle,
    gap_shift_graph,
    is_pseudo_orbit,
    is_shadowed,
    layered_census,
    layered_fiber_shadowing,
    limit_gap_pseudo_orbit,
    limit_gap_system,
    system_from_function,
    truncate_shift,
)
from shiftlab.decomposition import entropy
from shiftlab.shift_core import (
    from_forbidden_words,
    full_shift,
    language_equal,
    word_distance,
)

BIN = ["0", "1"]
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class TestFiniteSystem:
    def test_metric_validation(self):
        with pytest.raises(PreconditionError):
            system_from_function(["a", "b"],
                                 lambda p, q: Fraction(0),
                                 lambda p: "a")

    def test_asymmetric_metric_rejected(self):
        dist = {("a", "a"): Fraction(0), ("b", "b"): Fraction(0),
                ("a", "b"): Fraction(1), ("b", "a"): Fraction(2)}
        with pytest.raises(PreconditionError):
            FiniteSystem(("a", "b"), dist, {"a": ("a",), "b": ("b",)})

    def test_successor_outside_space_rejected(self):
        dist = {("a", "a"): Fraction(0)}
        with pytest.raises(PreconditionError):
            FiniteSystem(("a",), dist, {"a": ("zz",)})

    def test_triangle_check(self):
        dist = {("a", "a"): Fraction(0), ("b", "b"): Fraction(0),
                ("c", "c"): Fraction(0)}
        for (p, q, d) in [("a", "b", Fraction(1)), ("b", "c", Fraction(1)),
                          ("a", "c", Fraction(3))]:
            dist[(p, q)] = d
            dist[(q, p)] = d
        with pytest.raises(PreconditionError):
            FiniteSystem(("a", "b", "c"), dist,
                         {v: (v,) for v in "abc"})


class TestTruncation:
    def test_point_counts(self):
        assert len(truncate_shift(full_shift(BIN), 6).labels) == 64
        assert len(truncate_shift(golden_mean_graph(), 5).labels) == 13

    def test_successors_are_shift_overlaps(self):
        sysm = truncate_shift(golden_mean_graph(), 4)
        for p in sysm.labels:
            for q in sysm.successors[p]:
                assert q[:3] == p[1:]

    def test_depth_below_one_is_a_precondition(self):
        for depth in (0, -1):
            with pytest.raises(PreconditionError):
                truncate_shift(full_shift(BIN), depth)

    def test_metric_is_word_metric(self):
        sysm = truncate_shift(full_shift(BIN), 3)
        assert sysm.d("000", "001") == QUARTER
        assert sysm.d("000", "100") == 1
        check_triangle(sysm)


class TestShadowing:
    def test_full_truncation_shadows(self):
        sysm = truncate_shift(full_shift(BIN), 6)
        rep = brute_shadowing_check(sysm, HALF, QUARTER, 8)
        assert rep.shadowed
        assert rep.counterexample is None

    def test_golden_mean_truncation_shadows(self):
        sysm = truncate_shift(golden_mean_graph(), 6)
        rep = brute_shadowing_check(sysm, HALF, QUARTER, 8)
        assert rep.shadowed

    def test_limit_system_counterexample(self):
        lim = limit_gap_system(8)
        rep = brute_shadowing_check(lim, QUARTER, Fraction(1, 16), 16)
        assert not rep.shadowed
        assert is_pseudo_orbit(lim, Fraction(1, 16), rep.counterexample)
        assert not is_shadowed(lim, QUARTER, rep.counterexample)

    def test_documented_cyclic_pseudo_orbit(self):
        lim = limit_gap_system(8)
        po = limit_gap_pseudo_orbit(16)
        assert is_pseudo_orbit(lim, Fraction(1, 16), po)
        assert not is_shadowed(lim, QUARTER, po)

    def test_counterexample_is_lexicographically_least(self):
        lim = limit_gap_system(8)
        rep = brute_shadowing_check(lim, QUARTER, Fraction(1, 16), 16)
        # nothing shorter fails, and nothing smaller of the same length
        cex = rep.counterexample
        import itertools
        n = len(cex)
        better = []
        for cand in itertools.product(sorted(lim.labels), repeat=n):
            if cand >= cex:
                break
            if is_pseudo_orbit(lim, Fraction(1, 16), cand) and \
                    not is_shadowed(lim, QUARTER, cand):
                better.append(cand)
        assert not better

    def test_monotone_in_epsilon(self):
        lim = limit_gap_system(6)
        small = brute_shadowing_check(lim, Fraction(1, 8), Fraction(1, 32), 12)
        large = brute_shadowing_check(lim, Fraction(2), Fraction(1, 32), 12)
        assert large.shadowed
        if small.shadowed:
            assert large.shadowed

    def test_monotone_in_delta(self):
        sysm = truncate_shift(full_shift(BIN), 4)
        loose = brute_shadowing_check(sysm, HALF, QUARTER, 6)
        tight = brute_shadowing_check(sysm, HALF, Fraction(1, 8), 6)
        if loose.shadowed:
            assert tight.shadowed

    def test_sampled_mode_agrees_on_failure(self):
        lim = limit_gap_system(8)
        rep = brute_shadowing_check(lim, QUARTER, Fraction(1, 16), 16,
                                    mode="sampled", samples=500, seed=1)
        assert not rep.shadowed
        assert is_pseudo_orbit(lim, Fraction(1, 16), rep.counterexample)

    def test_state_cap(self):
        sysm = truncate_shift(full_shift(BIN), 6)
        with pytest.raises(TooLarge):
            brute_shadowing_check(sysm, HALF, QUARTER, 8, state_cap=10)


class TestGapFamily:
    def test_entropies_match_oracle(self):
        for k in range(1, 6):
            assert entropy(gap_shift_graph(k)) == pytest.approx(
                gap_entropy_oracle(k), abs=1e-9)

    def test_gap_zero_is_full(self):
        assert language_equal(gap_shift_graph(0), full_shift(BIN))[0]

    def test_graph_is_the_forbidden_gap_word_presentation(self):
        for k in range(6):
            forbidden = [("1",) + ("0",) * j + ("1",) for j in range(k)]
            assert gap_shift_graph(k) == from_forbidden_words("01", forbidden)

    def test_gap_one_is_golden_mean(self):
        assert language_equal(gap_shift_graph(1), golden_mean_graph())[0]

    def test_limit_system_size(self):
        assert len(limit_gap_system(8).labels) == 10


@pytest.fixture(scope="module")
def example():
    return build_layered_example()


class TestLayeredExample:
    def test_census(self, example):
        c = layered_census(example)
        assert c.stratum_sizes == {1: 4, 2: 4, 3: 8}
        assert c.interior_count == 0
        assert c.component_count == 16
        assert c.fibers_invariant and c.fibers_transitive and c.base_values_distinct

    def test_scales_are_nested(self, example):
        for (eps, delta) in example.scales:
            assert delta == eps / 4

    def test_cross_fiber_distance_dominates_scales(self, example):
        finest = min(d for (_e, d) in example.scales)
        a = example.labels[0]
        b = next(p for p in example.labels
                 if example.fiber_of[p] != example.fiber_of[a])
        assert example.d(a, b) > finest

    def test_fiber_shadowing_all_pass(self, example):
        reps = layered_fiber_shadowing(example)
        assert reps
        assert all(r.shadowed for r in reps.values())

    def test_census_checks_each_fiber_object_once(self, monkeypatch):
        ex = build_layered_example(base_depth=4, fiber_depth=6)
        checked = []

        def counting(f):
            checked.append(f)
            return _fiber_chain_transitive(f)

        monkeypatch.setattr(shadow_lab, "_fiber_chain_transitive", counting)
        assert layered_census(ex).fibers_transitive
        distinct = {id(f) for f in ex.fiber_systems.values()}
        assert len(checked) == len(distinct) < len(ex.fiber_systems)

    def test_smaller_example_census(self):
        ex = build_layered_example(base_depth=3, fiber_depth=8)
        c = layered_census(ex)
        assert c.component_count == 8
        assert c.stratum_sizes == {1: 4, 2: 4}


# ---------------------------------------------------------------------------
# The transitive-closure check that _fiber_chain_transitive replaced, kept
# as an oracle.


def closure_chain_transitive(f):
    positive = [f.d(p, q) for p in f.labels for q in f.labels if p != q]
    delta = min(positive) if positive else Fraction(1)
    succ = _successor_table(f, delta)
    reach = {p: set(succ[p]) for p in f.labels}
    changed = True
    while changed:
        changed = False
        for p in f.labels:
            add = set()
            for q in reach[p]:
                add |= reach[q]
            if not add <= reach[p]:
                reach[p] |= add
                changed = True
    return all(q in reach[p] for p in f.labels for q in f.labels)


def random_system(rng):
    """A small finite system under a word ultrametric or a line metric,
    with random nonempty successor sets."""
    n = rng.randint(1, 6)
    if rng.random() < 0.5:
        words = rng.sample(["".join(w) for w in itertools.product("01", repeat=3)], n)
        metric = word_distance
    else:
        words = ["p%d" % i for i in range(n)]
        metric = lambda p, q: Fraction(abs(int(p[1:]) - int(q[1:])))
    return system_from_function(
        words, metric,
        lambda p: rng.sample(words, rng.randint(1, min(2, n))))


class TestChainTransitiveOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_closure_loop(self, rng):
        f = random_system(rng)
        assert _fiber_chain_transitive(f) == closure_chain_transitive(f)

    def test_both_verdicts_occur(self):
        rng = random.Random(0)
        verdicts = set()
        for _ in range(200):
            f = random_system(rng)
            verdict = closure_chain_transitive(f)
            assert _fiber_chain_transitive(f) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}
