"""Distal tuples, chain proximal joins, scrambled streams, densities."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shiftlab.chaos import (
    Schedule,
    _first_word,
    build_scrambled_tuple,
    chain_proximal_join,
    density_report,
    find_r_distal_tuple,
    orbit_separation,
)
from shiftlab.errors import (
    InternalInvariantViolation,
    InvalidThresholds,
    NoDistalTuple,
    NotChainProximal,
    NotMixing,
)
from shiftlab.fixtures import golden_mean_graph, random_graph, two_cycle_graph
from shiftlab.shift_core import (
    SymbolicPoint,
    distance,
    follower,
    full_shift,
    point_in_shift,
)

BIN = ["0", "1"]


def gm_points():
    """Random eventually periodic points of the golden mean shift."""
    def build(pre_bits, per_bits):
        import itertools
        sym = lambda bits: tuple("01"[b] for b in bits)
        return SymbolicPoint(sym(pre_bits), sym(per_bits))
    raw = st.builds(build,
                    st.lists(st.integers(0, 1), max_size=3),
                    st.lists(st.integers(0, 1), min_size=1, max_size=3))
    return raw.filter(lambda p: point_in_shift(golden_mean_graph(), p))


class TestDistal:
    def test_golden_mean_pair(self):
        d = find_r_distal_tuple(golden_mean_graph(), 2)
        assert d.radius == 1
        assert d.common_period == 2
        assert {str(p) for p in d.points} == {"(01)*", "(10)*"}

    def test_golden_mean_triple(self):
        d = find_r_distal_tuple(golden_mean_graph(), 3)
        assert d.radius == Fraction(1, 2)
        assert len(set(d.points)) == 3

    def test_full_shift_triple(self):
        d = find_r_distal_tuple(full_shift(BIN), 3)
        assert d.radius == Fraction(1, 2)

    def test_separation_is_what_it_claims(self):
        d = find_r_distal_tuple(golden_mean_graph(), 3)
        assert orbit_separation(d.points, d.common_period) == d.radius

    def test_too_many_points_rejected(self):
        with pytest.raises(NoDistalTuple):
            find_r_distal_tuple(golden_mean_graph(), 40, max_period=3)


class TestJoin:
    def test_documented_example(self):
        g = golden_mean_graph()
        y = SymbolicPoint((), ("0",))
        z = SymbolicPoint((), ("1", "0"))
        cert = chain_proximal_join(g, y, z, 2)
        assert distance(cert.point, z) <= Fraction(1, 4)
        k = cert.tail_shift
        assert cert.point.shift(k) == y.shift(k)

    def test_certificate_point_is_admissible(self):
        g = golden_mean_graph()
        y = SymbolicPoint((), ("0", "1"))
        z = SymbolicPoint(("1",), ("0",))
        cert = chain_proximal_join(g, y, z, 4)
        assert point_in_shift(g, cert.point)

    @settings(max_examples=40, deadline=None)
    @given(gm_points(), gm_points(), st.integers(1, 6))
    def test_join_contract_on_random_points(self, y, z, k):
        g = golden_mean_graph()
        cert = chain_proximal_join(g, y, z, k)
        assert distance(cert.point, z) <= Fraction(1, 2 ** k)
        s = cert.tail_shift
        assert cert.point.shift(s) == y.shift(s)
        assert point_in_shift(g, cert.point)

    def test_cross_class_rejected(self):
        g = two_cycle_graph()
        y = SymbolicPoint((), ("a", "b"))
        z = SymbolicPoint((), ("b", "a"))
        with pytest.raises(NotChainProximal):
            chain_proximal_join(g, y, z, 2)

    def test_same_class_two_cycle_joins(self):
        g = two_cycle_graph()
        y = SymbolicPoint((), ("a", "b"))
        cert = chain_proximal_join(g, y, y, 3)
        assert cert.point.shift(cert.tail_shift) == y.shift(cert.tail_shift)


class TestScrambled:
    def test_schedule_dominates(self):
        lens = Schedule().lengths(8, 2)
        total = 0
        for k in range(1, 8):
            total += lens[k - 1]
            assert lens[k] >= k * total

    def test_streams_admissible_and_aligned(self):
        g = golden_mean_graph()
        d = find_r_distal_tuple(g, 2)
        tup = build_scrambled_tuple(g, d, num_blocks=4)
        assert len({len(s) for s in tup.streams}) == 1
        first = tup.blocks[0]
        assert tup.streams[0][first.start:first.end] == \
            tup.streams[1][first.start:first.end]

    def test_apart_blocks_track_distal_orbits(self):
        g = golden_mean_graph()
        d = find_r_distal_tuple(g, 2)
        tup = build_scrambled_tuple(g, d, num_blocks=4)
        b = tup.blocks[1]
        assert b.kind == "apart"
        for i, p in enumerate(d.points):
            assert tuple(tup.streams[i][b.start:b.end]) == p.expand(b.length)

    def test_non_mixing_rejected(self):
        from shiftlab.chaos import DistalTuple
        fake = DistalTuple((SymbolicPoint((), ("a", "b")),
                            SymbolicPoint((), ("b", "a"))),
                           Fraction(1), 2, 0)
        with pytest.raises(NotMixing):
            build_scrambled_tuple(two_cycle_graph(), fake, num_blocks=2)

    def test_single_orbit_has_no_distal_pair(self):
        with pytest.raises(NoDistalTuple):
            find_r_distal_tuple(two_cycle_graph(), 2)


class TestDensity:
    def test_counts_are_exact(self):
        streams = [list("0000110000"), list("0000000000")]
        rows = density_report(streams, 1, Fraction(1, 2), [10])
        row = rows[0]
        # close at j needs agreement at j and j+1; far needs mismatch at j
        close = [j for j in range(9) if streams[0][j] == streams[1][j]
                 and streams[0][j + 1] == streams[1][j + 1]]
        assert row.close_count == len(close) + (1 if streams[0][9] == streams[1][9] else 0)
        assert row.far_count == 2

    def test_bad_thresholds(self):
        with pytest.raises(InvalidThresholds):
            density_report([list("01"), list("00")], 1, Fraction(1, 3), [2])
        with pytest.raises(InvalidThresholds):
            density_report([list("01"), list("00")], 1, Fraction(1, 2), [5])

    def test_fractions_sum_within_bounds(self):
        g = golden_mean_graph()
        d = find_r_distal_tuple(g, 2)
        tup = build_scrambled_tuple(g, d, num_blocks=4)
        rows = density_report(tup.streams, 5, tup.delta,
                              [b.end for b in tup.blocks])
        for r in rows:
            fc, ff = r.fractions()
            assert 0 <= fc <= 1 and 0 <= ff <= 1


# ---------------------------------------------------------------------------
# The two path searches that _first_word replaced, kept as oracles.


def _recover_path(g, out, front, ell, layers, goal):
    """Lexicographically first label word of length ell from the front set
    to the goal set, walking the stored reachability layers backwards."""
    can = [set() for _ in range(ell + 1)]
    can[ell] = layers[ell] & goal
    for t in range(ell - 1, -1, -1):
        for v in layers[t]:
            for targets in out[v].values():
                if targets & can[t + 1]:
                    can[t].add(v)
                    break
    if not can[0]:
        raise InternalInvariantViolation("path recovery failed")
    word = []
    current = can[0]
    for t in range(ell):
        choice = None
        for v in sorted(current):
            for sym in sorted(out[v]):
                if out[v][sym] & can[t + 1]:
                    choice = (v, sym)
                    break
            if choice:
                break
        v, sym = choice
        word.append(sym)
        current = out[v][sym] & can[t + 1]
    return tuple(word)


def _exact_length_path(g, out, src, dst, length):
    """Lexicographically first label word of an exact-length path."""
    can = [set() for _ in range(length + 1)]
    can[length] = {dst}
    for t in range(length - 1, -1, -1):
        for v in g.vertices:
            for targets in out[v].values():
                if targets & can[t + 1]:
                    can[t].add(v)
                    break
    if src not in can[0]:
        raise NotMixing("no path of length %d from %s to %s" % (length, src, dst))
    word = []
    v = src
    for t in range(length):
        for sym in sorted(out[v]):
            hit = out[v][sym] & can[t + 1]
            if hit:
                word.append(sym)
                v = min(hit)
                break
    return tuple(word)


def recover_oracle(g, out, front, goal, ell):
    layers = [set(front)]
    for _ in range(ell):
        layers.append({t for v in layers[-1] for ts in out[v].values() for t in ts})
    try:
        return _recover_path(g, out, set(front), ell, layers, set(goal))
    except InternalInvariantViolation:
        return None


def exact_oracle(g, out, src, dst, length):
    try:
        return _exact_length_path(g, out, src, dst, length)
    except NotMixing:
        return None


class TestFirstWordOracles:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(0, 8),
           st.randoms(use_true_random=False))
    def test_matches_recover_path(self, seed, nv, ell, rng):
        g = random_graph(random.Random(seed), max_vertices=nv)
        out = follower(g).out
        front = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
        goal = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
        assert _first_word(out, front, goal, ell) == \
            recover_oracle(g, out, front, goal, ell)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(0, 8),
           st.randoms(use_true_random=False))
    def test_matches_exact_length_path(self, seed, nv, length, rng):
        g = random_graph(random.Random(seed), max_vertices=nv)
        out = follower(g).out
        src, dst = rng.choice(g.vertices), rng.choice(g.vertices)
        assert _first_word(out, (src,), (dst,), length) == \
            exact_oracle(g, out, src, dst, length)

    def test_both_oracles_have_none_cases(self):
        rng = random.Random(0)
        found = {"recover": set(), "exact": set()}
        for seed in range(200):
            g = random_graph(random.Random(seed), max_vertices=4)
            out = follower(g).out
            v, w = rng.choice(g.vertices), rng.choice(g.vertices)
            ell = rng.randint(0, 5)
            found["recover"].add(recover_oracle(g, out, [v], [w], ell) is None)
            found["exact"].add(exact_oracle(g, out, v, w, ell) is None)
            assert _first_word(out, [v], [w], ell) == exact_oracle(g, out, v, w, ell)
        assert found == {"recover": {True, False}, "exact": {True, False}}
