"""Finite systems, brute-force shadowing, the gap family, layered example."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftlab import shadow_lab
from shiftlab.errors import PreconditionError, TooLarge
from shiftlab.fixtures import golden_mean_graph, random_graph
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
    make_graph,
    word_distance,
    words_of_length,
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

    @pytest.mark.parametrize("tail", [0, 1, 8, 34])
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

    def test_one_fraction_per_prefix_length(self):
        sysm = truncate_shift(full_shift(BIN), 4)
        assert sysm.d("0000", "0001") is sysm.d("1110", "1111")
        assert sysm.d("0000", "0000") is sysm.d("1111", "1111")
        lim = limit_gap_system(8)
        assert lim.d("z3", "z5") is lim.d("zinf", "z3")
        # A walk over every item hands out the same objects.
        values = [d for _k, d in truncate_shift(full_shift(BIN), 5).dist.items()]
        assert len({id(d) for d in values}) == len(set(values)) == 6

    def test_fraction_metric_values_are_kept(self):
        half = Fraction(1, 2)
        sysm = system_from_function(["a", "b"],
                                    lambda p, q: half if p != q else 0,
                                    lambda p: p)
        assert sysm.d("a", "b") is half
        assert type(sysm.d("a", "a")) is Fraction


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


# ---------------------------------------------------------------------------
# The Fraction/frozenset implementations that the integer index and the
# bitmask checker replaced, kept as oracles.


def oracle_check_triangle(labels, dist):
    for p in labels:
        for q in labels:
            for r in labels:
                if dist[(p, r)] > dist[(p, q)] + dist[(q, r)]:
                    raise PreconditionError(
                        "triangle inequality fails through %r" % q)


def oracle_check_metric(labels, dist):
    for p in labels:
        for q in labels:
            d = dist.get((p, q))
            if d is None or d < 0:
                raise PreconditionError("metric missing or negative at (%r, %r)" % (p, q))
            if (d == 0) != (p == q):
                raise PreconditionError("metric must vanish exactly on the diagonal")
            if d != dist.get((q, p)):
                raise PreconditionError("metric not symmetric at (%r, %r)" % (p, q))
    if len(labels) <= 40:
        oracle_check_triangle(labels, dist)


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


def random_metric(rng, n):
    """n labels in shuffled order ("p10" sorts before "p2", so index order
    is not label order) and a metric on them: a word ultrametric, a line
    metric with rational coordinates, or the maximum of the two."""
    labels = ["p%d" % i for i in rng.sample(range(12), n)]
    words = dict(zip(labels, rng.sample(list(itertools.product("01", repeat=4)), n)))
    coords = sorted({Fraction(a, b) for a in range(9) for b in (1, 3, 4)})
    xs = dict(zip(labels, rng.sample(coords, n)))
    kind = rng.randrange(3)

    def metric(p, q):
        word = word_distance(words[p], words[q])
        line = abs(xs[p] - xs[q])
        return (word, line, max(word, line))[kind]

    return labels, {(p, q): Fraction(metric(p, q)) for p in labels for q in labels}


def random_shadow_case(rng):
    n = rng.randint(1, 7)
    labels, dist = random_metric(rng, n)
    succ = {p: tuple(rng.sample(labels, rng.randint(1, min(3, n)))) for p in labels}
    scales = [Fraction(1, 2 ** k) for k in range(5)] + [Fraction(1, 3), Fraction(5, 4)]
    return (FiniteSystem(tuple(labels), dist, succ), rng.choice(scales),
            rng.choice(scales), rng.randint(1, 6))


def error_text(fn):
    try:
        fn()
    except PreconditionError as e:
        return str(e)
    return None


class TestIntegerIndexOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_reports_match_oracle(self, rng):
        sysm, eps, delta, horizon = random_shadow_case(rng)
        for mode in ("exhaustive", "sampled"):
            kw = dict(mode=mode, samples=rng.randint(1, 20), seed=rng.randrange(100))
            assert brute_shadowing_check(sysm, eps, delta, horizon, **kw) == \
                oracle_brute_shadowing_check(sysm, eps, delta, horizon, **kw)
        assert _successor_table(sysm, delta) == oracle_successor_table(sysm, delta)
        path = tuple(rng.choice(sysm.labels) for _ in range(horizon))
        assert is_shadowed(sysm, eps, path) == oracle_is_shadowed(sysm, eps, path)
        assert is_pseudo_orbit(sysm, delta, path) == oracle_is_pseudo_orbit(sysm, delta, path)
        assert shadow_lab._failure_trace(sysm, shadow_lab._balls(sysm, eps),
                                         shadow_lab._image_map(sysm), path) == \
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
        labels, dist = random_metric(rng, rng.randint(1, 6))
        for _ in range(rng.randint(0, 3)):
            p, q = rng.choice(labels), rng.choice(labels)
            op = rng.randrange(6)
            if op == 0:
                dist.pop((p, q), None)
            elif op == 1:
                dist[(p, q)] = Fraction(-1, 3)
            elif op == 2:
                dist[(p, q)] = Fraction(0)
            elif op == 3:
                dist[(p, q)] = Fraction(1, 7) + dist.get((p, q), 0)
            else:
                # Stretch or shrink a symmetric pair: may break the triangle.
                d = dist.get((p, q), Fraction(1)) * (Fraction(7, 2) if op == 4 else Fraction(1, 5))
                dist[(p, q)] = dist[(q, p)] = d
        succ = {p: (p,) for p in labels}
        assert error_text(lambda: FiniteSystem(tuple(labels), dist, succ)) == \
            error_text(lambda: oracle_check_metric(labels, dist))

    def test_explicit_triangle_check_on_a_large_space(self):
        # 110 points on a line with one stretched pair late in index order,
        # so the failure lies past the first block of rows.
        n = 110
        labels = tuple("x%03d" % i for i in range(n))
        dist = {(p, q): abs(i - j) for i, p in enumerate(labels)
                for j, q in enumerate(labels)}
        dist[(labels[100], labels[104])] = dist[(labels[104], labels[100])] = 9
        sysm = FiniteSystem(labels, dist, {p: (p,) for p in labels})
        assert shadow_lab._TRIANGLE_BLOCK // (n * n) < 100
        assert error_text(lambda: check_triangle(sysm)) == \
            error_text(lambda: oracle_check_triangle(labels, dist)) == \
            "triangle inequality fails through 'x098'"

    def test_metric_wider_than_int64_uses_python_ints(self):
        # Points 1/p on a line for the first 17 primes: the common
        # denominator is their product, about 1.9e21.
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
        labels = ["q%d" % p for p in primes]
        x = {"q%d" % p: Fraction(1, p) for p in primes}
        dist = {(a, b): abs(x[a] - x[b]) for a in labels for b in labels}
        nxt = {a: (labels[(i + 1) % len(labels)],) for i, a in enumerate(labels)}
        sysm = FiniteSystem(tuple(labels), dist, nxt)
        assert sysm._index.dm.dtype == object
        assert sysm._index.scale > 2 ** 63
        check_triangle(sysm)
        for eps, delta, horizon in [(Fraction(1, 40), Fraction(1, 400), 6),
                                    (Fraction(1, 5), Fraction(1, 9), 8)]:
            for mode in ("exhaustive", "sampled"):
                assert brute_shadowing_check(sysm, eps, delta, horizon, mode=mode) == \
                    oracle_brute_shadowing_check(sysm, eps, delta, horizon, mode=mode)
        assert _fiber_chain_transitive(sysm) == closure_chain_transitive(sysm)
        dist[("q2", "q59")] = dist[("q59", "q2")] = Fraction(1)
        assert error_text(lambda: FiniteSystem(tuple(labels), dist, nxt)) == \
            error_text(lambda: oracle_check_metric(labels, dist)) is not None


class TestReadOnlySystem:
    def test_metric_and_successors_reject_mutation(self):
        sysm = limit_gap_system(3)
        with pytest.raises(TypeError):
            sysm.dist[("zinf", "z0")] = Fraction(1)
        with pytest.raises(TypeError):
            del sysm.dist[("zinf", "z0")]
        with pytest.raises(ValueError):
            sysm._index.dm[0, 1] = 7
        with pytest.raises(TypeError):
            sysm.successors["zinf"] = ("z0",)

    def test_caller_dicts_are_copied(self):
        dist = {("a", "a"): Fraction(0), ("b", "b"): Fraction(0),
                ("a", "b"): Fraction(1), ("b", "a"): Fraction(1)}
        succ = {"a": ["b"], "b": ["a"]}
        sysm = FiniteSystem(("a", "b"), dist, succ)
        dist[("a", "b")] = Fraction(5)
        succ["a"].append("a")
        assert sysm.d("a", "b") == 1
        assert sysm.successors["a"] == ("b",)
        assert is_pseudo_orbit(sysm, Fraction(1, 2), ("a", "b", "a"))


# ---------------------------------------------------------------------------
# The closure-metric constructions that the prefix-length builders replaced,
# kept as oracles: one Fraction per pair through system_from_function.


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
    scale = [Fraction(1, 2 ** j) for j in range(depth)] + [Fraction(0)]

    def metric(p, q):
        u, v = lookup[p], lookup[q]
        j = 0
        while j < depth and u[j] == v[j]:
            j += 1
        return scale[j]

    return system_from_function(labels, metric, lambda p: succ[p])


def oracle_limit_gap_system(max_tail):
    labels = ["zinf"] + ["z%d" % m for m in range(max_tail + 1)]
    depth = {lab: i - 1 for i, lab in enumerate(labels)}
    depth["zinf"] = max_tail + 1
    scale = [Fraction(1, 2 ** m) for m in range(max_tail + 1)]
    zero = Fraction(0)

    def metric(p, q):
        return zero if p == q else scale[min(depth[p], depth[q])]

    def mapping(p):
        dp = depth[p]
        return "zinf" if dp == 0 or dp > max_tail else labels[dp]

    return system_from_function(labels, metric, mapping)


def assert_same_system(new, old):
    assert new.labels == old.labels
    assert list(new.successors.items()) == list(old.successors.items())
    assert list(new.dist.items()) == list(old.dist.items())
    assert new._index.by_label == old._index.by_label
    assert new._index.pos == old._index.pos
    assert new._index.succ == old._index.succ
    assert new._index.scale == old._index.scale
    assert new._index.dm.dtype == old._index.dm.dtype
    assert (new._index.dm == old._index.dm).all()
    assert not new._index.dm.flags.writeable


def assert_same_reports(new, old, rng):
    eps = Fraction(1, 2 ** rng.randint(0, 4))
    delta = Fraction(1, 2 ** rng.randint(0, 5))
    horizon = rng.randint(1, 6)
    for mode in ("exhaustive", "sampled"):
        kw = dict(mode=mode, samples=rng.randint(1, 30), seed=rng.randrange(100))
        assert brute_shadowing_check(new, eps, delta, horizon, **kw) == \
            brute_shadowing_check(old, eps, delta, horizon, **kw)


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
        assert shadow_lab._count_words(g, depth) == len(new.labels)

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
            assert new._index.by_label != tuple(range(len(new.labels)))
            assert [new.labels[i] for i in new._index.by_label] == sorted(new.labels)
        sysm = truncate_shift(g, 2)
        old = oracle_truncate_shift(g, 2)
        assert_same_reports(sysm, old, random.Random(3))

    def test_depth_seventy_metric_is_wider_than_int64(self):
        new = truncate_shift(AT_MOST_ONE_1, 70)
        assert len(new.labels) == 71
        assert new._index.dm.dtype == object
        assert new._index.scale == 2 ** 69
        assert new.d("0" * 69 + "1", "0" * 70) == Fraction(1, 2 ** 69)
        assert_same_system(new, oracle_truncate_shift(AT_MOST_ONE_1, 70))

    def test_int64_up_to_the_widest_fit(self):
        # 2**61 is the largest entry with twice it still an int64.
        for depth, dtype in ((62, np.int64), (63, object)):
            new = truncate_shift(AT_MOST_ONE_1, depth)
            assert new._index.dm.dtype == dtype
            assert_same_system(new, oracle_truncate_shift(AT_MOST_ONE_1, depth))
        assert limit_gap_system(61)._index.dm.dtype == np.int64
        assert limit_gap_system(62)._index.dm.dtype == object
        assert_same_system(limit_gap_system(62), oracle_limit_gap_system(62))

    def test_single_point_truncation(self):
        g = make_graph(["a"], [("a", "a", "0")])
        new = truncate_shift(g, 3)
        assert_same_system(new, oracle_truncate_shift(g, 3))
        assert new._index.scale == 1

    def test_row_blocks_cover_a_large_truncation(self, monkeypatch):
        # Blocks of a few rows, so the block edges fall inside the matrix.
        monkeypatch.setattr(shadow_lab, "_TRIANGLE_BLOCK", 5 * 64 + 3)
        g = from_forbidden_words("012", [("1", "1"), ("2", "0", "2")])
        for depth in (4, 5):
            assert_same_system(truncate_shift(g, depth), oracle_truncate_shift(g, depth))
        assert_same_system(limit_gap_system(30), oracle_limit_gap_system(30))

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


class TestMetricView:
    def test_view_reads_like_the_dict(self):
        new = truncate_shift(golden_mean_graph(), 4)
        old = oracle_truncate_shift(golden_mean_graph(), 4)
        assert len(new.dist) == len(old.dist) == len(new.labels) ** 2
        assert list(new.dist) == list(old.dist)
        assert list(new.dist.keys()) == list(old.dist.keys())
        assert list(new.dist.values()) == list(old.dist.values())
        assert new.dist == old.dist and dict(new.dist) == dict(old.dist)
        assert ("0000", "0101") in new.dist and ("0000", "1111") not in new.dist
        assert (("0000", "0101"), Fraction(1, 2)) in new.dist.items()
        for bad in (("0000", "zz"), ("0000",), "0000", None, (["0000"], "0000")):
            assert bad not in new.dist
            assert new.dist.get(bad) is None
            with pytest.raises(KeyError):
                new.dist[bad]

    def test_items_do_not_read_entries_one_by_one(self, monkeypatch):
        sysm = limit_gap_system(5)
        oracle = list(oracle_limit_gap_system(5).dist.items())

        def no_reads(self, key):
            raise AssertionError("per-entry read")

        monkeypatch.setattr(shadow_lab._MetricView, "__getitem__", no_reads)
        assert list(sysm.dist.items()) == oracle

    def test_rebuilding_from_a_view(self):
        sysm = truncate_shift(golden_mean_graph(), 3)
        again = FiniteSystem(sysm.labels, sysm.dist, sysm.successors)
        assert again.dist is sysm.dist
        assert_same_system(again, sysm)
        # Other labels, or another order, are read into a new view.
        order = tuple(reversed(sysm.labels))
        flipped = FiniteSystem(order, sysm.dist, sysm.successors)
        assert isinstance(flipped.dist, shadow_lab._MetricView)
        assert flipped.dist is not sysm.dist
        assert all(flipped.d(p, q) == sysm.d(p, q) for p in order for q in order)
        other = sysm.labels[:-1] + ("zz",)
        with pytest.raises(PreconditionError, match="metric missing"):
            FiniteSystem(other, sysm.dist, {p: (p,) for p in other})


    def test_a_dict_metric_becomes_a_view(self):
        labels, dist = random_metric(random.Random(5), 6)
        sysm = FiniteSystem(tuple(labels), dist, {p: (p,) for p in labels})
        assert isinstance(sysm.dist, shadow_lab._MetricView)
        pairs = [((p, q), dist[(p, q)]) for p in labels for q in labels]
        assert list(sysm.dist.items()) == pairs
        for key in list(dist):
            dist[key] = Fraction(99)
        dist.clear()
        assert list(sysm.dist.items()) == pairs
        assert all(sysm.d(p, q) == d for (p, q), d in pairs)


class TestTruncationCap:
    def test_cap_counts_before_listing(self, monkeypatch):
        monkeypatch.setattr(shadow_lab, "MAX_TRUNCATION_POINTS", 64)

        def no_listing(g, n):
            raise AssertionError("listed the words")

        assert len(truncate_shift(full_shift(BIN), 6).labels) == 64
        monkeypatch.setattr(shadow_lab, "words_of_length", no_listing)
        for depth in (7, 40, 10 ** 6):
            with pytest.raises(TooLarge, match="exceeds 64 points"):
                truncate_shift(full_shift(BIN), depth)

    def test_limit_system_cap(self, monkeypatch):
        monkeypatch.setattr(shadow_lab, "MAX_TRUNCATION_POINTS", 64)
        assert len(limit_gap_system(62).labels) == 64
        with pytest.raises(TooLarge, match="exceeds 64 points"):
            limit_gap_system(63)

    def test_default_cap_admits_full_depth_twelve(self):
        assert shadow_lab.MAX_TRUNCATION_POINTS >= 4096
        assert shadow_lab._count_words(full_shift(BIN), 12) == 4096
        with pytest.raises(TooLarge):
            truncate_shift(full_shift(BIN), 13)
        with pytest.raises(TooLarge):
            limit_gap_system(10 ** 10)

    def test_count_is_exact_and_stops_early(self):
        assert shadow_lab._count_words(golden_mean_graph(), 10) == 144
        assert shadow_lab._count_words(AT_MOST_ONE_1, 1000) == 1001
        # Past the cap the count stops at the first length that exceeds it.
        assert shadow_lab._count_words(full_shift(BIN), 10 ** 9) == 8192
