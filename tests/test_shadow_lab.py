"""Finite systems, brute-force shadowing, the gap family, layered example."""

import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from memos import clear_value_memos
from oracles import (
    gap_entropy_oracle,
    layered_census_oracle,
    layered_example_oracle,
    layered_fiber_shadowing_oracle,
    system_from_function,
    word_distance,
)
from shiftlab import shadow_lab
from shiftlab.errors import InvalidScales, PreconditionError, SchemaError, TooLarge
from shiftlab.fixtures import golden_mean_graph, random_graph
from shiftlab.shadow_lab import (
    FiniteSystem,
    _balls,
    _fiber_chain_transitive,
    _limit_gap,
    _truncation,
    brute_shadowing_check,
    build_layered_example,
    gap_shift_graph,
    is_pseudo_orbit,
    is_shadowed,
    layered_census,
    layered_fiber_shadowing,
    limit_gap_pseudo_orbit,
    limit_gap_system,
    truncate_shift,
)
from shiftlab.decomposition import entropy
from shiftlab.shift_core import (
    from_forbidden_words,
    full_shift,
    language_equal,
    make_graph,
    words_of_length,
)

BIN = ["0", "1"]
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class TestFiniteSystem:
    def test_metric_validation(self):
        # Two points with one word would be at distance 0.
        with pytest.raises(PreconditionError, match="share a word"):
            system_from_function(["a", "b"], lambda p: "0", lambda p: "a")

    def test_one_word_per_label(self):
        with pytest.raises(PreconditionError, match="one word per point"):
            FiniteSystem(("a", "b"), ["0"], {"a": ("a",), "b": ("b",)})
        with pytest.raises(PreconditionError, match="duplicate point labels"):
            FiniteSystem(("a", "a"), ["0", "1"], {"a": ("a",)})

    def test_successor_outside_space_rejected(self):
        with pytest.raises(PreconditionError):
            FiniteSystem(("a",), ["0"], {"a": ("zz",)})

    def test_equal_only_with_equal_words_and_successors(self):
        # One label tuple over other words with the map swapped: the
        # 1/2-balls differ, so no memo may take one system for the other.
        a = FiniteSystem(("p", "q"), ("00", "01"), {"p": ("p",), "q": ("q",)})
        b = FiniteSystem(("p", "q"), ("00", "11"), {"p": ("q",), "q": ("p",)})
        assert (_balls(a, HALF), _balls(b, HALF)) == ([3, 3], [1, 2])
        assert a != b and len({a, b}) == 2
        # Words alone, and successors alone, tell two systems apart.
        assert a != FiniteSystem(("p", "q"), ("00", "11"), {"p": ("p",), "q": ("q",)})
        assert a != FiniteSystem(("p", "q"), ("00", "01"), {"p": ("q",), "q": ("p",)})
        same = FiniteSystem(("p", "q"), ["00", "01"], {"p": ["p"], "q": ["q"]})
        assert a == same and hash(a) == hash(same)

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_triangle_check(self, rng):
        # The cylinder metric is an ultrametric, so no system needs a
        # triangle check of its own.
        sysm = random_word_system(rng, rng.randint(1, 10), 1)
        d, labels = sysm.d, sysm.labels
        assert all(d(p, r) <= max(d(p, q), d(q, r))
                   for p in labels for q in labels for r in labels)


class TestTruncation:
    def test_point_counts(self):
        assert len(truncate_shift(full_shift(BIN), 6).labels) == 64
        assert len(truncate_shift(golden_mean_graph(), 5).labels) == 13

    def test_dotted_symbol_is_refused(self):
        # With the symbols a and a.a, the labels of (a, a.a) and (a.a, a)
        # would both be a.a.a.
        g = make_graph(["v"], [("v", "v", "a"), ("v", "v", "a.a")])
        with pytest.raises(SchemaError, match="^truncation symbol 'a.a' contains a dot$"):
            truncate_shift(g, 2)
        # Labels of one-character symbols have no dots, so a dot is a symbol.
        g = make_graph(["v"], [("v", "v", "."), ("v", "v", "a")])
        assert truncate_shift(g, 2).labels == ("..", ".a", "a.", "aa")

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

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 7))
    def test_metric_matches_word_distance_oracle(self, seed, depth):
        """The old construction wrapped each word_distance in a new Fraction."""
        g = random_graph(random.Random(seed), max_vertices=3)
        sysm = truncate_shift(g, depth)
        words = {"".join(w): w for w in words_of_length(g, depth)}
        oracle = {(p, q): Fraction(word_distance(words[p], words[q]))
                  for p in sysm.labels for q in sysm.labels}
        assert list(sysm.dist.items()) == list(oracle.items())
        assert all(type(d) is Fraction for d in sysm.dist.values())

    @pytest.mark.parametrize("tail", [0, 1, 8, 34, 70])
    def test_limit_system_matches_label_parsing_oracle(self, tail):
        """The old construction parsed both labels' depths for every pair
        and made a new Fraction each time."""
        def depth(lab):
            return None if lab == "zinf" else int(lab[1:])

        def metric(p, q):
            if p == q:
                return Fraction(0)
            return Fraction(1, 2 ** min(v for v in (depth(p), depth(q)) if v is not None))

        def mapping(p):
            return "zinf" if depth(p) in (None, 0) else "z%d" % (depth(p) - 1)

        lim = limit_gap_system(tail)
        assert lim.labels == ("zinf",) + tuple("z%d" % m for m in range(tail + 1))
        assert list(lim.dist.items()) == [((p, q), metric(p, q))
                                          for p in lim.labels for q in lim.labels]
        assert dict(lim.successors) == {p: (mapping(p),) for p in lim.labels}


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

    def test_scale_and_mode_checks(self):
        sysm = truncate_shift(full_shift(BIN), 2)
        for eps, delta in ((0, QUARTER), (HALF, 0)):
            with pytest.raises(InvalidScales, match="^epsilon and delta must be positive$"):
                brute_shadowing_check(sysm, eps, delta, 4)
        with pytest.raises(PreconditionError,
                           match="^mode must be 'exhaustive' or 'sampled'$"):
            brute_shadowing_check(sysm, HALF, QUARTER, 4, mode="greedy")

    def test_state_cap(self):
        sysm = truncate_shift(full_shift(BIN), 6)
        with pytest.raises(TooLarge):
            brute_shadowing_check(sysm, HALF, QUARTER, 8, state_cap=10)

    def test_sampled_step_cap(self, monkeypatch):
        monkeypatch.setattr(shadow_lab, "MAX_SAMPLED_STEPS", 100)
        sysm = truncate_shift(full_shift(BIN), 4)
        rep = brute_shadowing_check(sysm, HALF, QUARTER, 10, mode="sampled", samples=10)
        assert rep.shadowed and rep.orbits_checked == 10
        for samples, horizon in ((11, 10), (10, 11), (10 ** 9, 10 ** 9)):
            t0 = time.perf_counter()
            with pytest.raises(TooLarge, match="sampled check exceeds 100 steps"):
                brute_shadowing_check(sysm, HALF, QUARTER, horizon, mode="sampled",
                                      samples=samples)
            assert time.perf_counter() - t0 < 0.5
        # The exhaustive search draws nothing, so samples do not count.
        assert brute_shadowing_check(sysm, HALF, QUARTER, 11, samples=10 ** 9).shadowed

    def test_empty_path_is_a_shadowed_pseudo_orbit(self):
        sysm = truncate_shift(full_shift(BIN), 2)
        assert is_pseudo_orbit(sysm, QUARTER, [])
        assert is_shadowed(sysm, HALF, [])

    def test_decided_search_ignores_the_horizon(self):
        # Each of the four points keeps one (head, survivor set) pair per
        # depth, so every horizon h explores 4 (h - 1) states.
        sysm = truncate_shift(full_shift(BIN), 2)
        for h in range(1, 13):
            assert oracle_per_head_search(sysm, HALF, QUARTER, h).states_explored == \
                4 * (h - 1)
        t0 = time.perf_counter()
        rep = brute_shadowing_check(sysm, HALF, QUARTER, 10 ** 12)
        assert time.perf_counter() - t0 < 0.5
        assert rep.shadowed and rep.states_explored == 4 * (10 ** 12 - 1)


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

    def test_gap_300_builds_quickly(self):
        # 300 forbidden words of up to 301 symbols: the automaton's vertices
        # are the empty word and the words 1 0^j for j < 300.
        t0 = time.perf_counter()
        g = gap_shift_graph(300)
        assert time.perf_counter() - t0 < 1.0
        assert len(g.vertices) == 301

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

    def test_fiber_shadowing_all_pass(self, example):
        reps = layered_fiber_shadowing(example)
        assert reps
        assert all(r.shadowed for r in reps.values())

    def test_census_checks_each_fiber_object_once(self, monkeypatch):
        # One transitivity check per stratum, on that stratum's one fiber,
        # though the strata hold 16 base words.
        ex = build_layered_example(base_depth=4, fiber_depth=6)
        checked = []

        def counting(f):
            checked.append(f)
            return _fiber_chain_transitive(f)

        monkeypatch.setattr(shadow_lab, "_fiber_chain_transitive", counting)
        assert layered_census(ex).fibers_transitive
        assert [id(f) for f in checked] == [id(s.fiber) for s in ex.strata]
        assert len(checked) == 3 < len(ex.base_value) == 16

    def test_strata_are_built_by_stratum(self, monkeypatch):
        # One fiber per stratum, the gap-1 fiber first, and no product
        # point is listed.
        built = []
        real = shadow_lab.truncate_shift
        monkeypatch.setattr(shadow_lab, "truncate_shift",
                            lambda g, depth: built.append(g) or real(g, depth))
        ex = build_layered_example(base_depth=6, fiber_depth=6)
        assert built == [gap_shift_graph(k) for k in (1, 2, 3)]
        assert [(s.kind, s.index) for s in ex.strata] == [
            ("endpoint", 1), ("endpoint", 2), ("endpoint", 3), ("interior", 0)]
        assert sorted(vars(ex)) == ["base_value", "scales", "strata"]

    @pytest.mark.parametrize("base_depth", range(7))
    def test_matches_assembled_oracle(self, base_depth):
        """Census, per-base-word shadowing and point count equal those of
        the example assembled point by point over its product space."""
        for fiber_depth in range(1, 11):
            ex = build_layered_example(base_depth, fiber_depth)
            ox = layered_example_oracle(base_depth, fiber_depth)
            assert layered_census(ex) == layered_census_oracle(ox)
            assert ex.base_value == ox.base_value and ex.scales == ox.scales
            assert [(s.index, s.kind, s.base_points) for s in ex.strata] == \
                [(s.index, s.kind, s.base_points) for s in ox.strata]
            assert sum(len(s.base_points) * len(s.fiber.labels)
                       for s in ex.strata) == len(ox.labels)
            for horizon in range(1, 7):
                assert layered_fiber_shadowing(ex, horizon) == \
                    layered_fiber_shadowing_oracle(ox, horizon)

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
    succ = oracle_successor_table(f, delta)
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
    """A small random word system with one or two successors a point."""
    return random_word_system(rng, rng.randint(1, 6), 2)


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


# ---------------------------------------------------------------------------
# The Fraction/frozenset implementations that the bitmask checker
# replaced, kept as oracles.


def oracle_successor_table(sys, delta):
    return {p: [q for q in sys.labels
                if any(sys.d(y, q) <= delta for y in sys.successors[p])]
            for p in sys.labels}


def oracle_failure_trace(sys, epsilon, path):
    out = []
    for start in sorted(sys.labels):
        alive = {start} if sys.d(start, path[0]) <= epsilon else set()
        fail = 0 if not alive else -1
        for t, p in enumerate(path[1:], start=1):
            if not alive:
                break
            alive = {y for a in alive for y in sys.successors[a]
                     if sys.d(y, p) <= epsilon}
            if not alive:
                fail = t
        out.append((start, fail))
    return tuple(out)


def oracle_is_pseudo_orbit(sys, delta, path):
    return all(any(sys.d(y, path[t + 1]) <= delta
                   for y in sys.successors[path[t]])
               for t in range(len(path) - 1))


def oracle_is_shadowed(sys, epsilon, path):
    alive = {x for x in sys.labels if sys.d(x, path[0]) <= epsilon}
    for p in path[1:]:
        alive = {y for x in alive for y in sys.successors[x]
                 if sys.d(y, p) <= epsilon}
        if not alive:
            return False
    return bool(alive)


def oracle_brute_shadowing_check(sys, epsilon, delta, horizon, mode="exhaustive",
                                 samples=200, seed=0, state_cap=10 ** 7):
    Report = shadow_lab.ShadowingReport
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    succ = oracle_successor_table(sys, delta)
    if mode == "sampled":
        rng = random.Random(seed)
        checked = 0
        for _ in range(samples):
            path = [rng.choice(sys.labels)]
            for _ in range(horizon - 1):
                nxt = succ[path[-1]]
                if not nxt:
                    break
                path.append(rng.choice(nxt))
            checked += 1
            if not oracle_is_shadowed(sys, epsilon, tuple(path)):
                return Report(False, epsilon, delta, horizon, "sampled",
                              counterexample=tuple(path),
                              failure_trace=oracle_failure_trace(sys, epsilon, tuple(path)),
                              orbits_checked=checked)
        return Report(True, epsilon, delta, horizon, "sampled", orbits_checked=checked)
    near = {p: frozenset(q for q in sys.labels if sys.d(p, q) <= epsilon)
            for p in sys.labels}
    frontier = [(p, near[p], (p,)) for p in sorted(sys.labels)]
    explored = 0
    for depth in range(1, horizon + 1):
        next_frontier = []
        seen = set()
        for (p, alive, path) in frontier:
            if not alive:
                return Report(False, epsilon, delta, horizon, "exhaustive",
                              counterexample=path,
                              failure_trace=oracle_failure_trace(sys, epsilon, path),
                              states_explored=explored)
            if depth == horizon:
                continue
            for q in sorted(succ[p]):
                nxt_alive = frozenset(y for a in alive
                                      for y in sys.successors[a]
                                      if y in near[q])
                key = (q, nxt_alive)
                if nxt_alive and key in seen:
                    continue
                seen.add(key)
                explored += 1
                if explored > state_cap:
                    raise TooLarge("exhaustive search exceeded %d states" % state_cap)
                next_frontier.append((q, nxt_alive, path + (q,)))
        frontier = next_frontier
    return Report(True, epsilon, delta, horizon, "exhaustive",
                  states_explored=explored)


def oracle_per_head_search(sys, epsilon, delta, horizon, state_cap=10 ** 7):
    """The exhaustive search as it was before heads were grouped by (step
    mask, survivor image): every head walks its whole step list, sorted by
    label point by point, and every depth up to the horizon is walked,
    each entry carrying its whole path."""
    epsilon, delta = Fraction(epsilon), Fraction(delta)
    near = shadow_lab._balls(sys, epsilon)
    image = shadow_lab._image_map(sys._succ)
    labels = sys.labels
    steps = [sorted(shadow_lab._bits(m), key=labels.__getitem__)
             for m in shadow_lab._step_masks(sys, delta)]
    frontier = [(p, near[p], (labels[p],)) for p in sys._by_label]
    explored = 0
    for depth in range(1, horizon + 1):
        next_frontier = []
        seen = set()
        for (p, alive, path) in frontier:
            if not alive:
                return shadow_lab.ShadowingReport(
                    False, epsilon, delta, horizon, "exhaustive",
                    counterexample=path,
                    failure_trace=shadow_lab._failure_trace(sys, near, image, path),
                    states_explored=explored)
            if depth == horizon:
                continue
            img = image(alive)
            for q in steps[p]:
                nxt_alive = img & near[q]
                key = (q, nxt_alive)
                if nxt_alive and key in seen:
                    continue
                seen.add(key)
                explored += 1
                if explored > state_cap:
                    raise TooLarge("exhaustive search exceeded %d states" % state_cap)
                next_frontier.append((q, nxt_alive, path + (labels[q],)))
        frontier = next_frontier
    return shadow_lab.ShadowingReport(True, epsilon, delta, horizon, "exhaustive",
                                      states_explored=explored)


def search_outcome(search, *args, **kw):
    """A search's report, or the text of the TooLarge it raised."""
    try:
        return search(*args, **kw)
    except TooLarge as e:
        return "TooLarge: %s" % e


def random_word_system(rng, n, most_successors):
    """n points with labels in shuffled order ("p10" sorts before "p2", so
    index order is not label order), distinct words over 2 or 3 symbols of
    lengths 0 to 4 in random order (so one word may be a prefix of
    another, and word order is neither), and random nonempty successor
    sets of at most most_successors points."""
    labels = ["p%d" % i for i in rng.sample(range(12), n)]
    symbols = rng.choice(["01", "012"])
    words = []
    while len(words) < n:
        w = "".join(rng.choice(symbols) for _ in range(rng.randint(0, 4)))
        if w not in words:
            words.append(w)
    succ = {p: tuple(rng.sample(labels, rng.randint(1, min(most_successors, n))))
            for p in labels}
    return FiniteSystem(tuple(labels), words, succ)


def oracle_check_words(labels, words):
    """FiniteSystem's checks of its labels and words, with a zero
    distance off the diagonal found pair by pair."""
    if len(set(labels)) != len(labels):
        raise PreconditionError("duplicate point labels")
    if len(words) != len(labels):
        raise PreconditionError("need one word per point label")
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            if i != j and word_distance(u, v) == 0:
                raise PreconditionError("two points share a word, so their distance is 0")


def error_text(fn):
    try:
        fn()
    except PreconditionError as e:
        return str(e)
    return None


def random_shadow_case(rng):
    sysm = random_word_system(rng, rng.randint(1, 7), 3)
    scales = [Fraction(1, 2 ** k) for k in range(5)] + [Fraction(1, 3), Fraction(5, 4)]
    return sysm, rng.choice(scales), rng.choice(scales), rng.randint(1, 6)


class TestIntegerIndexOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_reports_match_oracle(self, rng):
        sysm, eps, delta, horizon = random_shadow_case(rng)
        for mode in ("exhaustive", "sampled"):
            kw = dict(mode=mode, samples=rng.randint(1, 20), seed=rng.randrange(100))
            assert brute_shadowing_check(sysm, eps, delta, horizon, **kw) == \
                oracle_brute_shadowing_check(sysm, eps, delta, horizon, **kw)
        assert {sysm.labels[i]: [sysm.labels[j] for j in shadow_lab._bits(m)]
                for i, m in enumerate(shadow_lab._step_masks(sysm, delta))} == \
            oracle_successor_table(sysm, delta)
        path = tuple(rng.choice(sysm.labels) for _ in range(horizon))
        assert is_shadowed(sysm, eps, path) == oracle_is_shadowed(sysm, eps, path)
        assert is_pseudo_orbit(sysm, delta, path) == oracle_is_pseudo_orbit(sysm, delta, path)
        assert shadow_lab._failure_trace(sysm, shadow_lab._balls(sysm, eps),
                                         shadow_lab._image_map(sysm._succ), path) == \
            oracle_failure_trace(sysm, eps, path)

    def test_both_verdicts_occur_in_both_modes(self):
        rng = random.Random(0)
        verdicts = set()
        for _ in range(300):
            sysm, eps, delta, horizon = random_shadow_case(rng)
            for mode in ("exhaustive", "sampled"):
                rep = brute_shadowing_check(sysm, eps, delta, horizon, mode=mode)
                assert rep == oracle_brute_shadowing_check(sysm, eps, delta, horizon,
                                                           mode=mode)
                verdicts.add((mode, rep.shadowed))
        assert verdicts == {(m, v) for m in ("exhaustive", "sampled")
                            for v in (True, False)}

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_metric_errors_match_oracle(self, rng):
        sysm = random_word_system(rng, rng.randint(1, 6), 1)
        labels, words = list(sysm.labels), list(sysm.words)
        for _ in range(rng.randint(0, 2)):
            op = rng.randrange(3)
            if op == 0 and words:
                words[rng.randrange(len(words))] = rng.choice(words)
            elif op == 1 and words:
                words.pop()
            elif op == 2:
                labels[rng.randrange(len(labels))] = rng.choice(labels)
        succ = {p: (p,) for p in labels}
        assert error_text(lambda: FiniteSystem(tuple(labels), words, succ)) == \
            error_text(lambda: oracle_check_words(labels, words))

    def test_metric_wider_than_int64_uses_python_ints(self):
        # Words 0^k 1 for the first 17 primes k: the finest distance,
        # 2**-53 between the two deepest, and the radii below it need
        # more than 64 bits in any fixed-point form.
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        labels = ["q%d" % p for p in primes]
        words = ["0" * p + "1" for p in primes]
        nxt = {a: (labels[(i + 1) % len(labels)],) for i, a in enumerate(labels)}
        sysm = FiniteSystem(tuple(labels), words, nxt)
        assert sysm.d("q53", "q59") == Fraction(1, 2 ** 53)
        for eps, delta, horizon in [(Fraction(1, 40), Fraction(1, 400), 6),
                                    (Fraction(1, 5), Fraction(1, 9), 8),
                                    (Fraction(1, 3 * 2 ** 60), Fraction(1, 2 ** 70), 5)]:
            for mode in ("exhaustive", "sampled"):
                assert brute_shadowing_check(sysm, eps, delta, horizon, mode=mode) == \
                    oracle_brute_shadowing_check(sysm, eps, delta, horizon, mode=mode)
        assert _fiber_chain_transitive(sysm) == closure_chain_transitive(sysm)


class TestReadOnlySystem:
    def test_metric_and_successors_reject_mutation(self):
        sysm = limit_gap_system(3)
        with pytest.raises(TypeError):
            sysm.dist[("zinf", "z0")] = Fraction(1)
        with pytest.raises(TypeError):
            del sysm.dist[("zinf", "z0")]
        with pytest.raises(TypeError):
            sysm.successors["zinf"] = ("z0",)

    def test_caller_dicts_are_copied(self):
        words = ["00", "1"]
        succ = {"a": ["b"], "b": ["a"]}
        sysm = FiniteSystem(("a", "b"), words, succ)
        words[1] = "01"
        succ["a"].append("a")
        assert sysm.words == ("00", "1")
        assert sysm.d("a", "b") == 1
        assert sysm.successors["a"] == ("b",)
        assert is_pseudo_orbit(sysm, Fraction(1, 2), ("a", "b", "a"))


# ---------------------------------------------------------------------------
# The label-by-label constructions that the builders from sorted words
# replaced, kept as oracles: one word per label through system_from_function.


def oracle_truncate_shift(g, depth):
    if depth < 1:
        raise PreconditionError("truncation depth must be at least 1")
    words = words_of_length(g, depth)
    if not words:
        raise PreconditionError("no admissible words at this depth")
    wordset = set(words)
    sep = "." if any(len(a) > 1 for a in g.alphabet) else ""
    labels = [sep.join(w) for w in sorted(words)]
    lookup = dict(zip(labels, sorted(words)))
    rev = {w: lab for lab, w in lookup.items()}
    succ = {lab: [rev[w[1:] + (sym,)] for sym in sorted(g.alphabet)
                  if w[1:] + (sym,) in wordset]
            for lab, w in lookup.items()}
    return system_from_function(labels, lookup.__getitem__, lambda p: succ[p])


def oracle_limit_gap_system(max_tail):
    """Words as tuples of bits: z_m has its one 1 at index m, and z_inf
    has none."""
    labels = ["zinf"] + ["z%d" % m for m in range(max_tail + 1)]
    depth = {lab: i - 1 for i, lab in enumerate(labels)}
    depth["zinf"] = max_tail + 1

    def word(p):
        return tuple(int(t == depth[p]) for t in range(max_tail + 1))

    def mapping(p):
        dp = depth[p]
        return "zinf" if dp == 0 or dp > max_tail else labels[dp]

    return system_from_function(labels, word, mapping)


def word_distances(sys):
    """Every distance of the system, in row-major label order, from
    word_distance on its words."""
    words = dict(zip(sys.labels, sys.words))
    return [((p, q), word_distance(words[p], words[q]))
            for p in sys.labels for q in sys.labels]


def assert_same_system(new, old):
    assert new.labels == old.labels
    assert list(new.successors.items()) == list(old.successors.items())
    assert list(new.dist.items()) == list(old.dist.items()) == word_distances(new)
    assert new._by_label == old._by_label
    assert new._order == old._order
    assert new._lcp == old._lcp
    assert new._succ == old._succ


def assert_same_reports(new, old, rng):
    """The new system's reports equal the Fraction/frozenset oracle's on
    the old one."""
    eps = Fraction(1, 2 ** rng.randint(0, 4))
    delta = Fraction(1, 2 ** rng.randint(0, 5))
    horizon = rng.randint(1, 6)
    for mode in ("exhaustive", "sampled"):
        kw = dict(mode=mode, samples=rng.randint(1, 30), seed=rng.randrange(100))
        assert brute_shadowing_check(new, eps, delta, horizon, **kw) == \
            oracle_brute_shadowing_check(old, eps, delta, horizon, **kw)


# "At most one 1": a loop of 0s, one 1 across, and a loop of 0s after it.
AT_MOST_ONE_1 = make_graph(["a", "b"], [("a", "a", "0"), ("a", "b", "1"), ("b", "b", "0")])


class TestPrefixMetricOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 7))
    def test_truncation_matches_closure_oracle(self, rng, depth):
        g = random_graph(rng, max_vertices=4)
        new = truncate_shift(g, depth)
        old = oracle_truncate_shift(g, depth)
        assert_same_system(new, old)
        assert_same_reports(new, old, rng)

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 40))
    def test_limit_system_matches_closure_oracle(self, rng, tail):
        new = limit_gap_system(tail)
        old = oracle_limit_gap_system(tail)
        assert_same_system(new, old)
        assert_same_reports(new, old, rng)

    def test_dotted_labels_keep_word_order(self):
        # "1-" sorts after "1" as a symbol, but "1-.x" sorts before "1.x" as
        # a label, so label order is not index order here.
        g = full_shift(["1", "1-", "10", "2"])
        for depth in (2, 3):
            new = truncate_shift(g, depth)
            assert_same_system(new, oracle_truncate_shift(g, depth))
            assert new._by_label != tuple(range(len(new.labels)))
            assert [new.labels[i] for i in new._by_label] == sorted(new.labels)
        sysm = truncate_shift(g, 2)
        old = oracle_truncate_shift(g, 2)
        assert_same_reports(sysm, old, random.Random(3))

    def test_depth_seventy_metric_is_wider_than_int64(self):
        new = truncate_shift(AT_MOST_ONE_1, 70)
        assert len(new.labels) == 71
        assert max(new._lcp) == 69
        assert new.d("0" * 69 + "1", "0" * 70) == Fraction(1, 2 ** 69)
        assert_same_system(new, oracle_truncate_shift(AT_MOST_ONE_1, 70))

    def test_single_point_truncation(self):
        g = make_graph(["a"], [("a", "a", "0")])
        new = truncate_shift(g, 3)
        assert_same_system(new, oracle_truncate_shift(g, 3))
        assert new._lcp == () and list(new.dist.values()) == [0]

    def test_one_loop_depth_200000_within_budget(self):
        # One word of 200,000 symbols, which a listing that copies each
        # prefix would build in time quadratic in the depth.
        g = make_graph(["a"], [("a", "a", "0")])
        t0 = time.perf_counter()
        sysm = truncate_shift(g, 200000)
        assert time.perf_counter() - t0 < 2.0
        assert sysm.labels == ("0" * 200000,)

    def test_full_depth_ten_within_budget(self):
        g = full_shift(BIN)
        words_of_length(g, 1)           # the follower automaton is memoised
        t0 = time.perf_counter()
        sysm = truncate_shift(g, 10)
        assert time.perf_counter() - t0 < 1.0
        assert len(sysm.labels) == 1024


def grouped_search_case(rng, kind):
    """A system of the given kind with scales, a horizon and a state cap,
    some of them small enough to stop the search."""
    if kind == "random":
        sysm, eps, delta, horizon = random_shadow_case(rng)
    else:
        if kind == "truncation":
            sysm = truncate_shift(random_graph(rng, max_vertices=4), rng.randint(1, 7))
        elif kind == "limit":
            sysm = limit_gap_system(rng.randint(0, 20))
        else:
            sysm = truncate_shift(gap_shift_graph(rng.randint(0, 4)), rng.randint(1, 8))
        eps = Fraction(1, 2 ** rng.randint(0, 5))
        delta = Fraction(1, 2 ** rng.randint(0, 6))
        horizon = rng.randint(1, 8)
    cap = rng.choice([1, 2, 3, 5, 8, 20, 60, 200, 10 ** 7])
    return sysm, eps, delta, horizon, cap


def oracle_repeat_depth(sys, epsilon, delta):
    """First depth whose set of (head, survivor set) pairs was already met
    at a shallower depth, every pair at each depth so far alive; None
    once some pair has an empty survivor set.  Each depth's set is worked
    out from the last one as a whole, with no frontier order."""
    near = shadow_lab._balls(sys, Fraction(epsilon))
    image = shadow_lab._image_map(sys._succ)
    steps = shadow_lab._step_masks(sys, Fraction(delta))
    keys = frozenset((p, near[p]) for p in range(len(sys.labels)))
    met = set()
    depth = 1
    while keys not in met:
        met.add(keys)
        keys = frozenset((q, image(alive) & near[q])
                         for p, alive in keys for q in shadow_lab._bits(steps[p]))
        if not all(alive for _, alive in keys):
            return None
        depth += 1
    return depth


def oracle_states_built(sys, epsilon, delta, horizon):
    """States a search that stops at the first repeated set of pairs
    builds: the per-head search's count up to that depth."""
    repeat = oracle_repeat_depth(sys, epsilon, delta)
    if repeat is not None:
        horizon = min(horizon, repeat)
    return oracle_per_head_search(sys, epsilon, delta, horizon).states_explored


def capped_search_outcome(sysm, eps, delta, horizon, cap):
    """The search's outcome at a state cap, checked against the per-head
    search: it refuses exactly when the states it builds pass the cap,
    and otherwise reports what the per-head search reports at cap 10**7.
    Returns the report or the text of the refusal."""
    out = search_outcome(brute_shadowing_check, sysm, eps, delta, horizon, state_cap=cap)
    refused = oracle_states_built(sysm, eps, delta, horizon) > cap
    assert isinstance(out, str) == refused
    if refused:
        assert out == "TooLarge: exhaustive search exceeded %d states" % cap
    else:
        assert out == oracle_per_head_search(sysm, eps, delta, horizon)
    return out


class TestGroupedSearchOracle:
    @pytest.mark.parametrize("kind", ["random", "truncation", "limit", "gap"])
    @settings(max_examples=150, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_matches_per_head_search(self, kind, rng):
        capped_search_outcome(*grouped_search_case(rng, kind))

    @pytest.mark.parametrize("kind", ["random", "truncation", "limit", "gap"])
    @settings(max_examples=100, deadline=None)
    @given(rng=st.randoms(use_true_random=False), horizon=st.integers(1, 60))
    def test_long_horizons_match_per_head_search(self, kind, rng, horizon):
        # Horizons past the first repeat run through several periods, so
        # the states counted from the period must match the walk's.
        sysm, eps, delta, _, _ = grouped_search_case(rng, kind)
        assert brute_shadowing_check(sysm, eps, delta, horizon) == \
            oracle_per_head_search(sysm, eps, delta, horizon)

    def test_repeat_with_period_two(self):
        # The set of pairs at depth 4 is that of depth 2, not of depth 3,
        # so the states of the depths left follow a period of two counts.
        sysm = FiniteSystem(("a", "b", "c"), ("101", "0", "1111"),
                            {"a": ("c",), "b": ("a",), "c": ("a",)})
        assert oracle_repeat_depth(sysm, HALF, QUARTER) == 4
        for h in range(1, 13):
            assert brute_shadowing_check(sysm, HALF, QUARTER, h) == \
                oracle_per_head_search(sysm, HALF, QUARTER, h)

    def test_every_outcome_occurs(self):
        rng = random.Random(1)
        outcomes = set()
        for i in range(400):
            case = grouped_search_case(rng, ("random", "truncation", "limit", "gap")[i % 4])
            out = capped_search_outcome(*case)
            if isinstance(out, str):
                outcomes.add("refused")
            else:
                # An answer past the cap: the per-head search refuses it.
                past_cap = isinstance(search_outcome(oracle_per_head_search, *case[:4],
                                                     state_cap=case[4]), str)
                outcomes.add((out.shadowed, past_cap))
        assert {"refused", (True, False), (False, False), (True, True)} <= outcomes

    def test_grouped_heads_on_a_full_truncation(self):
        # Full depth 8: most heads share a (step mask, survivor image) pair
        # with an earlier head, and every report field still matches.
        sysm = truncate_shift(full_shift(BIN), 8)
        for eps, delta in ((HALF, QUARTER), (QUARTER, Fraction(1, 16)), (HALF, HALF)):
            for cap in (10, 700, 10 ** 7):
                capped_search_outcome(sysm, eps, delta, 8, cap)

    def test_full_depth_eleven_within_budget(self):
        sysm = truncate_shift(full_shift(BIN), 11)
        t0 = time.perf_counter()
        rep = brute_shadowing_check(sysm, HALF, QUARTER, 8)
        assert time.perf_counter() - t0 < 1.0
        assert rep.shadowed and rep.states_explored == 14336


KINDS = ("random", "truncation", "limit", "gap")


def sampled_case(rng, kind):
    """A system of the given kind with scales, a horizon, and samples and
    a seed in place of a state cap: horizons up to 40, so that the draws
    left after the first often outweigh the search and sometimes not."""
    sysm, eps, delta, horizon, _ = grouped_search_case(rng, kind)
    horizon = rng.choice([horizon, rng.randint(1, 40)])
    kw = dict(mode="sampled", samples=rng.choice([1, 2, 3, 5, 20, 100]),
              seed=rng.randrange(1000))
    return sysm, eps, delta, horizon, kw


def sampled_path(sysm, eps, delta, horizon, samples, seed, **_):
    """How the sampled check answers, from the oracles: "first" when its
    first draw fails, "one sample" when no draw is left after it, "over
    budget" when the search would build more states than the draws left
    take steps, and otherwise "decided" or "failure" as the search finds
    every pseudo-orbit shadowed or not."""
    first = oracle_brute_shadowing_check(sysm, eps, delta, horizon, mode="sampled",
                                         samples=1, seed=seed)
    if not first.shadowed:
        return "first"
    if samples == 1:
        return "one sample"
    if oracle_states_built(sysm, eps, delta, horizon) > (samples - 1) * horizon:
        return "over budget"
    return "decided" if oracle_per_head_search(sysm, eps, delta, horizon).shadowed \
        else "failure"


def counted_check(monkeypatch, *args, **kw):
    """The report of a check and the number of random choices it drew."""
    drawn = [0]

    class Counting(random.Random):
        def choice(self, seq):
            drawn[0] += 1
            return super().choice(seq)

    with monkeypatch.context() as m:
        m.setattr(shadow_lab.random, "Random", Counting)
        rep = brute_shadowing_check(*args, **kw)
    return rep, drawn[0]


class TestSampledDecision:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=150, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_reports_match_sampling_oracle(self, kind, rng):
        sysm, eps, delta, horizon, kw = sampled_case(rng, kind)
        assert brute_shadowing_check(sysm, eps, delta, horizon, **kw) == \
            oracle_brute_shadowing_check(sysm, eps, delta, horizon, **kw)

    def test_every_path_occurs(self):
        rng = random.Random(2)
        paths = set()
        for i in range(400):
            sysm, eps, delta, horizon, kw = sampled_case(rng, KINDS[i % 4])
            rep = brute_shadowing_check(sysm, eps, delta, horizon, **kw)
            assert rep == oracle_brute_shadowing_check(sysm, eps, delta, horizon, **kw)
            paths.add((sampled_path(sysm, eps, delta, horizon, **kw), rep.shadowed))
        # Decided shadowed; failing at the first draw; failing at a later
        # draw after the search found a failure or ran out of budget; and
        # every draw shadowed after it ran out.
        assert {("decided", True), ("first", False), ("failure", False),
                ("over budget", False), ("over budget", True)} <= paths
        assert ("decided", False) not in paths

    def test_decided_check_draws_one_orbit(self, monkeypatch):
        # The full 2-shift at depth 3 builds 8 states, then meets its first
        # set of pairs again, at every horizon from 2 on: a budget of 8
        # states decides, one of 7 or 6 does not.
        sysm = truncate_shift(full_shift(BIN), 3)
        assert {oracle_states_built(sysm, HALF, QUARTER, h) for h in (2, 4, 7, 8)} == {8}
        for horizon, samples, orbits in ((8, 2, 1), (4, 3, 1), (2, 5, 1), (8, 1, 1),
                                         (7, 2, 2), (2, 4, 4), (3, 3, 3)):
            kw = dict(mode="sampled", samples=samples, seed=horizon)
            rep, drawn = counted_check(monkeypatch, sysm, HALF, QUARTER, horizon, **kw)
            assert rep == oracle_brute_shadowing_check(sysm, HALF, QUARTER, horizon, **kw)
            assert rep.shadowed and rep.orbits_checked == samples
            assert drawn == orbits * horizon

    def test_failure_found_by_the_search_keeps_drawing(self, monkeypatch):
        # The limit system with tail 3 is not shadowed at these scales, and
        # its search fails within 23 states, so every draw is made until
        # one fails, from the generator's state after the first.
        lim = limit_gap_system(3)
        assert oracle_states_built(lim, HALF, QUARTER, 10) == 23
        later = 0
        for seed in range(30):
            kw = dict(mode="sampled", samples=50, seed=seed)
            rep, drawn = counted_check(monkeypatch, lim, HALF, QUARTER, 10, **kw)
            assert rep == oracle_brute_shadowing_check(lim, HALF, QUARTER, 10, **kw)
            assert not rep.shadowed and drawn == rep.orbits_checked * 10
            later += rep.orbits_checked > 1
        assert later

    def test_large_decided_check_within_budget(self, monkeypatch):
        # 5,000 samples of 200 steps on 4,096 points: the search decides
        # within its budget, so only the first orbit is drawn.
        sysm = truncate_shift(full_shift(BIN), 12)
        rep, drawn = counted_check(monkeypatch, sysm, HALF, QUARTER, 200,
                                   mode="sampled", samples=5000)
        assert drawn == 200
        assert rep == shadow_lab.ShadowingReport(True, HALF, QUARTER, 200, "sampled",
                                                 orbits_checked=5000)


class TestMetricView:
    def test_view_reads_like_the_dict(self):
        new = truncate_shift(golden_mean_graph(), 4)
        old = dict(word_distances(new))
        assert len(new.dist) == len(old) == len(new.labels) ** 2
        assert list(new.dist) == list(old)
        assert list(new.dist.keys()) == list(old.keys())
        assert list(new.dist.values()) == list(old.values())
        assert new.dist == old and dict(new.dist) == old
        assert ("0000", "0101") in new.dist and ("0000", "1111") not in new.dist
        assert (("0000", "0101"), Fraction(1, 2)) in new.dist.items()
        for bad in (("0000", "zz"), ("0000",), "0000", None, (["0000"], "0000")):
            assert bad not in new.dist
            assert new.dist.get(bad) is None
            with pytest.raises(KeyError):
                new.dist[bad]


class TestWordMetric:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_every_distance_matches_word_distance(self, rng):
        sysm = random_word_system(rng, rng.randint(1, 12), 3)
        assert list(sysm.dist.items()) == word_distances(sysm)
        assert all(type(d) is Fraction for d in sysm.dist.values())

    @pytest.mark.parametrize("kind", ["random", "truncation", "limit"])
    @settings(max_examples=150, deadline=None)
    @given(rng=st.randoms(use_true_random=False))
    def test_balls_match_distances(self, kind, rng):
        if kind == "random":
            sysm = random_word_system(rng, rng.randint(1, 12), 3)
        elif kind == "truncation":
            sysm = truncate_shift(random_graph(rng, max_vertices=4), rng.randint(1, 7))
        else:
            sysm = limit_gap_system(rng.randint(0, 20))
        finest = Fraction(1, 2 ** max(sysm._lcp, default=0))
        # Radii that are not dyadic, radii of 1 and more, the finest
        # distance itself, radii below it, 0 and a negative radius.
        radii = [Fraction(rng.randint(1, 50), rng.randint(1, 50)) for _ in range(6)]
        radii += [Fraction(1), Fraction(3, 2), Fraction(2), finest,
                  finest * Fraction(5, 6), finest / 2, finest / 3, Fraction(0),
                  Fraction(-1, 2)]
        labels = sysm.labels
        for r in radii:
            balls = shadow_lab._balls(sysm, r)
            assert [{labels[j] for j in shadow_lab._bits(b)} for b in balls] == \
                [{q for q in labels if sysm.d(p, q) <= r} for p in labels]


class TestTruncationCap:
    def test_listing_stops_at_the_cap(self, monkeypatch):
        monkeypatch.setattr(shadow_lab, "MAX_TRUNCATION_POINTS", 64)
        walk = shadow_lab._words
        drawn = []

        def counted(g, n):
            for w in walk(g, n):
                drawn.append(w)
                yield w

        monkeypatch.setattr(shadow_lab, "_words", counted)
        assert len(truncate_shift(full_shift(BIN), 6).labels) == 64
        for depth in (7, 40):
            drawn.clear()
            with pytest.raises(TooLarge, match="exceeds 64 points"):
                truncate_shift(full_shift(BIN), depth)
            assert len(drawn) <= 65
        drawn.clear()
        with pytest.raises(TooLarge, match="exceeds 524288 symbols"):
            truncate_shift(full_shift(BIN), 10 ** 6)
        assert drawn == []

    def test_limit_system_cap(self, monkeypatch):
        # T + 2 words of T + 1 symbols: tail 722 holds 523,452 symbols and
        # tail 723 524,900, past the symbol cap of 524,288.
        assert len(limit_gap_system(722).labels) == 724
        for tail in (723, 4094):
            with pytest.raises(TooLarge, match="^truncation exceeds 524288 symbols$"):
                limit_gap_system(tail)
        # The point cap is checked first.
        with pytest.raises(TooLarge, match="^truncation exceeds 4096 points$"):
            limit_gap_system(4095)
        monkeypatch.setattr(shadow_lab, "MAX_TRUNCATION_POINTS", 64)
        assert len(limit_gap_system(62).labels) == 64
        with pytest.raises(TooLarge, match="exceeds 64 points"):
            limit_gap_system(63)
        monkeypatch.setattr(shadow_lab, "MAX_TRUNCATION_SYMBOLS", 64 * 63 - 1)
        assert len(limit_gap_system(61).labels) == 63
        with pytest.raises(TooLarge, match="^truncation exceeds 4031 symbols$"):
            limit_gap_system(62)
        with pytest.raises(TooLarge, match="^truncation exceeds 64 points$"):
            limit_gap_system(63)

    def test_layered_base_cap_is_exact(self, monkeypatch):
        for cap, depth in ((64, 6), (127, 6), (128, 7)):
            monkeypatch.setattr(shadow_lab, "MAX_TRUNCATION_POINTS", cap)
            assert len(build_layered_example(depth, 3).base_value) == 2 ** depth
            with pytest.raises(TooLarge, match="^truncation exceeds %d points$" % cap):
                build_layered_example(depth + 1, 3)

    def test_default_cap_admits_full_depth_twelve(self):
        assert shadow_lab.MAX_TRUNCATION_POINTS >= 4096
        assert len(truncate_shift(full_shift(BIN), 12).labels) == 4096
        with pytest.raises(TooLarge):
            truncate_shift(full_shift(BIN), 13)
        with pytest.raises(TooLarge):
            limit_gap_system(10 ** 10)

    def test_exact_sizes_and_cap_past_the_depth(self):
        assert len(truncate_shift(golden_mean_graph(), 10).labels) == 144
        assert len(truncate_shift(AT_MOST_ONE_1, 500).labels) == 501
        # 1001 words of 1000 symbols, and words longer than the symbol cap.
        for g, depth in ((AT_MOST_ONE_1, 1000), (full_shift(BIN), 10 ** 9)):
            t0 = time.perf_counter()
            with pytest.raises(TooLarge, match="^truncation exceeds 524288 symbols$"):
                truncate_shift(g, depth)
            assert time.perf_counter() - t0 < 1.0

    def test_marked_cycle_and_one_loop_caps(self):
        # A 1000-cycle labelled 0 but for one edge labelled 1: n + 1 words
        # of each length n < 1000, so at length 999 they hold 999,000
        # symbols.
        n = 1000
        verts = ["v%d" % i for i in range(n)]
        g = make_graph(verts, [(verts[i], verts[(i + 1) % n], "1" if i == 0 else "0")
                               for i in range(n)])
        for depth in (1, 10):
            assert len(truncate_shift(g, depth).labels) == depth + 1
        loop = make_graph(["a"], [("a", "a", "0")])
        for g, depth in ((g, 999), (g, 10 ** 9), (loop, 10 ** 18)):
            t0 = time.perf_counter()
            with pytest.raises(TooLarge, match="^truncation exceeds 524288 symbols$"):
                truncate_shift(g, depth)
            assert time.perf_counter() - t0 < 1.0


class TestSystemMemos:
    def test_equal_arguments_share_one_system(self):
        clear_value_memos()
        t = truncate_shift(golden_mean_graph(), 5)
        assert truncate_shift(golden_mean_graph(), 5) is t
        assert limit_gap_system(6) is limit_gap_system(6)
        assert limit_gap_system() is limit_gap_system(8)
        assert gap_shift_graph(3) is gap_shift_graph(3)
        assert _truncation.cache_info().misses == 1
        assert _limit_gap.cache_info().misses == 2
        assert gap_shift_graph.cache_info().misses == 1

    def test_lowered_cap_still_refuses_a_cached_system(self, monkeypatch):
        # The caps are read at each call and are part of the key.
        full, lim = truncate_shift(full_shift(BIN), 6), limit_gap_system(62)
        monkeypatch.setattr(shadow_lab, "MAX_TRUNCATION_POINTS", 63)
        with pytest.raises(TooLarge, match="^truncation exceeds 63 points$"):
            truncate_shift(full_shift(BIN), 6)
        with pytest.raises(TooLarge, match="^truncation exceeds 63 points$"):
            limit_gap_system(62)
        monkeypatch.undo()
        monkeypatch.setattr(shadow_lab, "MAX_TRUNCATION_SYMBOLS", 64 * 6 - 1)
        with pytest.raises(TooLarge, match="^truncation exceeds 383 symbols$"):
            truncate_shift(full_shift(BIN), 6)
        # 64 words of 63 symbols.
        monkeypatch.setattr(shadow_lab, "MAX_TRUNCATION_SYMBOLS", 64 * 63 - 1)
        with pytest.raises(TooLarge, match="^truncation exceeds 4031 symbols$"):
            limit_gap_system(62)
        monkeypatch.undo()
        assert truncate_shift(full_shift(BIN), 6) is full
        assert limit_gap_system(62) is lim

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 7), st.integers(0, 20))
    def test_memos_match_their_bodies(self, rng, depth, tail):
        g = random_graph(rng, max_vertices=4)
        caps = (shadow_lab.MAX_TRUNCATION_POINTS, shadow_lab.MAX_TRUNCATION_SYMBOLS)
        err = error_text(lambda: truncate_shift(g, depth))
        assert err == error_text(lambda: _truncation.__wrapped__(g, depth, *caps))
        if err is None:
            new = truncate_shift(g, depth)
            assert truncate_shift(g, depth) is new
            old = _truncation.__wrapped__(g, depth, *caps)
            assert new == old
            assert_same_system(new, old)
        new = limit_gap_system(tail)
        old = _limit_gap.__wrapped__(tail, *caps)
        assert new == old
        assert_same_system(new, old)

    def test_layered_fibers_are_the_memoised_systems(self):
        ex = build_layered_example(base_depth=5, fiber_depth=6)
        for s in ex.strata:
            assert s.fiber is (truncate_shift(gap_shift_graph(s.index), 6)
                               if s.kind == "endpoint" else limit_gap_system(8))
