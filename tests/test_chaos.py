"""Distal tuples, chain proximal joins, scrambled streams, densities."""

import itertools
import random
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from memos import clear_value_memos
from oracles import out_map, reading_states_oracle
from shiftlab import chaos
from shiftlab.chaos import (
    Block,
    DensityRow,
    DistalTuple,
    Schedule,
    ScrambledTuple,
    Segment,
    Stream,
    _distal_search,
    _first_word,
    _reading_states,
    _run,
    build_scrambled_tuple,
    chain_proximal_join,
    density_report,
    find_r_distal_tuple,
    orbit_separation,
)
from shiftlab.decomposition import (
    class_of_word,
    cyclic_structure,
    is_irreducible,
    mixing_constant,
    sync_length,
)
from shiftlab.errors import (
    InternalInvariantViolation,
    InvalidSchedule,
    InvalidThresholds,
    NoDistalTuple,
    NotChainProximal,
    NotInLanguage,
    NotIrreducible,
    NotMixing,
    PreconditionError,
    SchemaError,
    TooLarge,
)
from shiftlab.fixtures import golden_mean_graph, random_graph, two_cycle_graph
from shiftlab.shift_core import (
    SymbolicPoint,
    canonical_presentation,
    distance,
    essential,
    full_shift,
    make_graph,
    periodic_points,
    point_in_shift,
    word_in_language,
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

    def test_one_point_is_not_a_tuple(self):
        with pytest.raises(NoDistalTuple, match="^need n >= 2$"):
            find_r_distal_tuple(golden_mean_graph(), 1)

    def test_too_many_points_rejected(self):
        with mock.patch.object(chaos, "MAX_DISTAL_PERIOD", 3), \
                pytest.raises(NoDistalTuple):
            find_r_distal_tuple(golden_mean_graph(), 40)

    def test_searched_once_per_graph_n_and_caps(self, monkeypatch):
        clear_value_memos()
        g = full_shift(BIN)
        d = find_r_distal_tuple(g, 3)
        assert find_r_distal_tuple(g, 3) is d
        assert d == _distal_search.__wrapped__(g, 3, chaos.MAX_DISTAL_PERIOD,
                                               chaos.MAX_DISTAL_CANDIDATES)
        assert _distal_search.cache_info().misses == 1
        # The caps are read at each call and are part of the key.
        monkeypatch.setattr(chaos, "MAX_DISTAL_PERIOD", 1)
        with pytest.raises(NoDistalTuple, match="up to period 1$"):
            find_r_distal_tuple(g, 3)
        monkeypatch.undo()
        assert find_r_distal_tuple(g, 3) is d
        assert _distal_search.cache_info().misses == 2


# The search that the per-pair separation table replaced, kept as an
# oracle: orbit_separation over every n-subset of each class.
def distal_oracle(g, n, max_period=8):
    if n < 2:
        raise NoDistalTuple("need n >= 2")
    ge = essential(g)
    if not is_irreducible(ge):
        raise NotIrreducible("distal search needs an irreducible graph")
    cs = cyclic_structure(ge)
    k_sync = sync_length(ge)
    if k_sync is None:
        raise NotIrreducible("presentation does not resolve cyclic classes")
    for period in range(1, max_period + 1):
        if cs.period > 1 and period % cs.period != 0:
            continue
        by_class = {}
        for p in periodic_points(ge, period):
            cls = class_of_word(ge, p.expand(max(k_sync, 1))) if cs.period > 1 else 0
            by_class.setdefault(cls, []).append(p)
        best = None
        for cls in sorted(by_class):
            group = sorted(by_class[cls], key=str)
            if len(group) < n:
                continue
            for combo in itertools.combinations(group, n):
                r = orbit_separation(combo, period)
                if best is None or r > best[0]:
                    best = (r, combo)
        if best is not None and best[0] > 0:
            return DistalTuple(best[1], best[0], period)
    raise NoDistalTuple("no %d-tuple up to period %d" % (n, max_period))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PreconditionError as e:
        return type(e), str(e)


class TestDistalPairTable:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(2, 4), st.integers(1, 4))
    def test_matches_subset_oracle(self, rng, n, max_period):
        g = random_graph(rng, max_vertices=3)
        with mock.patch.object(chaos, "MAX_DISTAL_PERIOD", max_period):
            got = _outcome(find_r_distal_tuple, g, n)
        assert got == _outcome(distal_oracle, g, n, max_period)

    def test_mixing_cases_match_subset_oracle(self):
        for seed in range(20):
            for n in (2, 3, 4):
                g, found = mixing_case(seed, n)
                assert found == distal_oracle(g, n, 4)

    def test_cap_counts_subsets_before_comparing(self, monkeypatch):
        # Period 3 is the first with five points of the full 2-shift, and
        # it has C(8, 5) = 56 five-subsets.
        monkeypatch.setattr(chaos, "MAX_DISTAL_CANDIDATES", 56)
        assert find_r_distal_tuple(full_shift(BIN), 5).common_period == 3

        def no_comparing(points, period):
            raise AssertionError("compared a subset")

        monkeypatch.setattr(chaos, "MAX_DISTAL_CANDIDATES", 55)
        monkeypatch.setattr(chaos, "orbit_separation", no_comparing)
        with pytest.raises(TooLarge, match="exceeds 55 candidate tuples"):
            find_r_distal_tuple(full_shift(BIN), 5)


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


    def test_refusals(self):
        g = golden_mean_graph()
        y = SymbolicPoint((), ("0",))
        with pytest.raises(NotChainProximal, match="^epsilon exponent must be positive$"):
            chain_proximal_join(g, y, y, 0)
        with pytest.raises(NotInLanguage, match="^both points must lie in the shift$"):
            chain_proximal_join(g, y, SymbolicPoint((), ("1",)), 2)
        # Two loops with no path between them.
        loops = make_graph(["a", "b"], [("a", "a", "0"), ("b", "b", "1")], alphabet=BIN)
        with pytest.raises(NotIrreducible, match="^join needs an irreducible graph$"):
            chain_proximal_join(loops, y, SymbolicPoint((), ("1",)), 2)


class TestScrambled:
    def test_schedule_needs_positive_base_length(self):
        for base in (0, -4):
            with pytest.raises(InvalidSchedule):
                Schedule(base_length=base)
        assert Schedule(base_length=1).lengths(2, 1)[0] == 1

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

    def test_built_once_per_argument_value(self):
        g = golden_mean_graph()
        d = find_r_distal_tuple(g, 2)
        tup = build_scrambled_tuple(g, d, num_blocks=4)
        again = DistalTuple(tuple(d.points), d.radius, d.common_period)
        assert build_scrambled_tuple(g, again, num_blocks=4) is tup
        assert build_scrambled_tuple.__wrapped__(g, d, num_blocks=4) == tup

    def test_non_mixing_rejected(self):
        fake = DistalTuple((SymbolicPoint((), ("a", "b")),
                            SymbolicPoint((), ("b", "a"))),
                           Fraction(1), 2)
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

    def test_needs_two_streams(self):
        for streams in ([], [list("0101")]):
            with pytest.raises(InvalidThresholds):
                density_report(streams, 1, Fraction(1, 2), [2])

    def test_needs_positive_horizons(self):
        for bad in ([0], [-3], [2, 0]):
            with pytest.raises(InvalidThresholds):
                density_report([list("01"), list("00")], 1, Fraction(1, 2), bad)

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
# The materialising construction and density count that the segment-level
# ones replaced, kept as oracles.


def _walk(out, state, word):
    for sym in word:
        nxt = out[state].get(sym)
        if not nxt:
            raise InternalInvariantViolation("stream content not admissible")
        state = min(nxt)
    return state


def build_oracle(g, distal, num_blocks=8, schedule=None):
    """Every stream spelled out symbol by symbol."""
    if num_blocks < 1:
        raise SchemaError("need at least one block")
    gc = canonical_presentation(g)
    if not is_irreducible(gc) or cyclic_structure(gc).period != 1:
        raise NotMixing("scrambled streams need a mixing graph")
    sched = schedule or Schedule()
    conn = mixing_constant(gc)
    lengths = sched.lengths(num_blocks, conn)
    running = 0
    for k in range(1, num_blocks):
        running += lengths[k - 1]
        if lengths[k] < k * running:
            raise InvalidSchedule("block %d violates the domination rule" % (k + 1))
    out = out_map(gc)
    n = len(distal.points)
    starts = [min(_reading_states(gc, p)[0]) for p in distal.points]
    ref = distal.points[0]
    ref_start = starts[0]
    streams = [[] for _ in range(n)]
    states = [None] * n
    blocks = []
    pos = 0
    for k in range(1, num_blocks + 1):
        kind = "together" if k % 2 == 1 else "apart"
        length = lengths[k - 1]
        for i in range(n):
            target_pt = ref if kind == "together" else distal.points[i]
            target_state = ref_start if kind == "together" else starts[i]
            if states[i] is not None:
                word = _first_word(gc.edges, (states[i],), (target_state,), conn)
                if word is None:
                    raise NotMixing("no path of length %d from %s to %s"
                                    % (conn, states[i], target_state))
                streams[i].extend(word)
            content = target_pt.expand(length)
            streams[i].extend(content)
            states[i] = _walk(out, target_state, content)
        start = pos if k == 1 else pos + conn
        blocks.append(Block(kind, start, length))
        pos = start + length
    for s in streams:
        if not word_in_language(gc, s):
            raise InternalInvariantViolation("scrambled stream not admissible")
    return ScrambledTuple(tuple(tuple(s) for s in streams), tuple(blocks),
                          conn, distal.radius / 2, distal.radius, tuple(lengths))


def density_oracle(streams, epsilon_exp, delta, horizons):
    """Next-disagreement arrays over every index, then one pass."""
    if epsilon_exp < 1 or delta <= 0 or delta >= 1:
        raise InvalidThresholds("need epsilon_exp >= 1 and 0 < delta < 1")
    dexp = 0
    d = delta
    while d < 1:
        d *= 2
        dexp += 1
    if d != 1:
        raise InvalidThresholds("delta must be a power of two")
    if not horizons:
        return []
    length = min(len(s) for s in streams)
    pairs = list(itertools.combinations(range(len(streams)), 2))
    INF = length + epsilon_exp + dexp + 2
    nd_arrays = []
    for (i, j) in pairs:
        a, b = streams[i], streams[j]
        nd = [0] * (length + 1)
        nd[length] = INF
        for t in range(length - 1, -1, -1):
            nd[t] = t if a[t] != b[t] else nd[t + 1]
        nd_arrays.append(nd)
    maxh = max(horizons)
    if maxh > length:
        raise InvalidThresholds("horizon beyond stream length")
    close_prefix = 0
    far_prefix = 0
    marks = sorted(set(horizons))
    mi = 0
    out = {}
    for t in range(maxh):
        close = all(nd[t] - t > epsilon_exp for nd in nd_arrays)
        far = all(nd[t] - t < dexp for nd in nd_arrays)
        close_prefix += close
        far_prefix += far
        while mi < len(marks) and t + 1 == marks[mi]:
            out[marks[mi]] = (close_prefix, far_prefix)
            mi += 1
    return [DensityRow(h, out[h][0], out[h][1]) for h in horizons]


def mixing_case(seed, n):
    """The first random graph from the seed whose canonical presentation is
    mixing and which has a distal n-tuple, with that tuple."""
    rng = random.Random(seed)
    while True:
        g = random_graph(rng, max_vertices=3)
        gc = canonical_presentation(g)
        if not is_irreducible(gc) or cyclic_structure(gc).period != 1:
            continue
        try:
            with mock.patch.object(chaos, "MAX_DISTAL_PERIOD", 4):
                return g, find_r_distal_tuple(g, n)
        except PreconditionError:
            continue


def probe_horizons(tup, draw_index):
    """Every block end, the middle of every block and of every connector,
    the index just past each block start, and a few drawn indices."""
    length = len(tup.streams[0])
    picks = set()
    for k, b in enumerate(tup.blocks):
        picks |= {b.end, b.start + 1, b.start + b.length // 2}
        if k:
            picks.add(b.start - tup.connector_length // 2)
    picks |= {draw_index(length) for _ in range(4)}
    return sorted(h for h in picks if 1 <= h <= length)


def points(alphabet="01"):
    sym = st.sampled_from(alphabet)
    return st.builds(SymbolicPoint,
                     st.lists(sym, max_size=3).map(tuple),
                     st.lists(sym, min_size=1, max_size=4).map(tuple))


def segments():
    word = st.lists(st.sampled_from("01"), max_size=6)
    return st.one_of(st.builds(Segment, points(), st.integers(0, 40)),
                     word.map(Segment.literal))


class TestSegmentedDifferential:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10 ** 6), st.sampled_from([2, 3]),
           st.integers(1, 5), st.integers(1, 12), st.integers(0, 10),
           st.integers(1, 6), st.integers(1, 4), st.data())
    def test_scramble_matches_oracle(self, seed, n, num_blocks, base, slack,
                                     eps, dexp, data):
        g, distal = mixing_case(seed, n)
        sched = Schedule(base_length=base, slack=slack)
        tup = build_scrambled_tuple(g, distal, num_blocks, sched)
        ref = build_oracle(g, distal, num_blocks, sched)
        assert [tuple(v) for v in tup.streams] == list(ref.streams)
        assert [len(v) for v in tup.streams] == [len(s) for s in ref.streams]
        assert (tup.blocks, tup.connector_length, tup.delta, tup.radius,
                tup.schedule_lengths) == (ref.blocks, ref.connector_length,
                                          ref.delta, ref.radius, ref.schedule_lengths)
        horizons = probe_horizons(
            tup, lambda length: data.draw(st.integers(1, length)))
        delta = Fraction(1, 2 ** dexp)
        assert density_report(tup.streams, eps, delta, horizons) == \
            density_oracle(ref.streams, eps, delta, horizons)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(segments(), max_size=5), min_size=2, max_size=3),
           st.integers(1, 5), st.integers(1, 4), st.data())
    def test_density_of_any_segments_matches_oracle(self, segs, eps, dexp, data):
        views = [Stream(tuple(s)) for s in segs]
        plain = [tuple(v) for v in views]
        assert [len(v) for v in views] == [len(s) for s in plain]
        length = min(len(s) for s in plain)
        assume(length >= 1)
        horizons = data.draw(st.lists(st.integers(1, length), min_size=1, max_size=6))
        delta = Fraction(1, 2 ** dexp)
        want = density_oracle(plain, eps, delta, horizons)
        assert density_report(views, eps, delta, horizons) == want
        assert density_report([list(s) for s in plain], eps, delta, horizons) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(segments(), max_size=6), st.data())
    def test_view_indexing_and_slicing(self, segs, data):
        view = Stream(tuple(segs))
        plain = tuple(itertools.chain.from_iterable(
            s.read(0, s.length) for s in segs))
        assert len(view) == len(plain) and tuple(view) == plain
        for _ in range(5):
            i = data.draw(st.integers(-len(plain) - 2, len(plain) + 2))
            a = data.draw(st.integers(-len(plain) - 2, len(plain) + 2))
            step = data.draw(st.sampled_from([None, 1, 2, -1]))
            assert view[a:i:step] == plain[a:i:step]
            if -len(plain) <= i < len(plain):
                assert view[i] == plain[i]
            else:
                with pytest.raises(IndexError):
                    view[i]

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(0, 4), st.sampled_from("01")),
                           st.integers(0, 4), min_size=6),
           st.integers(0, 4), segments())
    def test_period_jump_matches_symbol_walk(self, table, state, seg):
        # A random partial transition table: boundary states of a period
        # often enter their cycle late, and some walks die.
        want = state
        for sym in seg.read(0, seg.length):
            want = table.get((want, sym)) if want is not None else None
        assert _run(table, state, seg) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from("01"), max_size=8).map(tuple),
           st.integers(0, 10), st.integers(0, 10))
    def test_literal_segments_read_as_slices(self, word, a, b):
        assert Segment.literal(word).read(a, b) == word[a:b]

    @settings(max_examples=100, deadline=None)
    @given(points(), st.integers(-4, 4), st.integers(0, 12))
    def test_point_segments_read_far_out(self, p, i, width):
        # Reading near 2**70 slices only the range asked for.
        a = 2 ** 70 + i
        seg = Segment(p, 2 ** 71)
        assert seg.read(a, a + width) == tuple(map(p.symbol_at, range(a, a + width)))
        assert Stream((seg,))[a:a + width] == seg.read(a, a + width)

    def test_segment_length_checked(self):
        p = SymbolicPoint((), ("0",))
        for bad in (lambda: Segment(p, -1), lambda: Segment(("0", "1"), 3)):
            with pytest.raises(SchemaError):
                bad()

    def test_view_is_a_value(self):
        p = SymbolicPoint((), ("0", "1"))
        a = Stream((Segment(p, 5), Segment.literal("10")))
        b = Stream((Segment(p, 5), Segment.literal(["1", "0"])))
        assert a == b and hash(a) == hash(b)
        assert a != Stream((Segment(p, 6), Segment.literal("0")))


class TestScale:
    def test_ten_blocks_cost_per_block(self):
        # About 1.2e8 symbols per stream: the segment-level construction
        # and counts must not touch them one by one.
        g = golden_mean_graph()
        t0 = time.monotonic()
        distal = find_r_distal_tuple(g, 3)
        tup = build_scrambled_tuple(g, distal, num_blocks=10)
        rows = density_report(tup.streams, 5, tup.delta,
                              [b.end for b in tup.blocks])
        elapsed = time.monotonic() - t0
        assert len(tup.streams[0]) > 10 ** 8
        assert elapsed < 10.0
        short = build_scrambled_tuple(g, distal, num_blocks=7)
        short_rows = density_report(short.streams, 5, short.delta,
                                    [b.end for b in short.blocks])
        # Block 7 ends its stream in the short tuple, where indices past
        # the end count as agreement, so only blocks 1-6 must match.
        assert rows[:6] == short_rows[:6]

    def test_streams_longer_than_maxsize(self):
        # Thirty blocks hold about 9e33 symbols per stream: len() cannot
        # report that, but indexing and the counts still work.
        g = golden_mean_graph()
        distal = find_r_distal_tuple(g, 2)
        tup = build_scrambled_tuple(g, distal, num_blocks=30)
        last = tup.blocks[-1]
        assert last.kind == "apart"
        assert tup.streams[0].starts[-1] == last.end > sys.maxsize
        for i, p in enumerate(distal.points):
            assert tup.streams[i][last.end - 3:] == tuple(
                p.symbol_at(last.length - j) for j in (3, 2, 1))
        rows = density_report(tup.streams, 5, tup.delta,
                              [b.end for b in tup.blocks])
        for k in range(3, 31):
            fc, ff = rows[k - 1].fractions()
            got = fc if tup.blocks[k - 1].kind == "together" else ff
            assert got >= 1 - Fraction(1, k)


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
        out = out_map(g)
        front = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
        goal = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
        assert _first_word(g.edges, front, goal, ell) == \
            recover_oracle(g, out, front, goal, ell)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(0, 8),
           st.randoms(use_true_random=False))
    def test_matches_exact_length_path(self, seed, nv, length, rng):
        g = random_graph(random.Random(seed), max_vertices=nv)
        out = out_map(g)
        src, dst = rng.choice(g.vertices), rng.choice(g.vertices)
        assert _first_word(g.edges, (src,), (dst,), length) == \
            exact_oracle(g, out, src, dst, length)

    def test_both_oracles_have_none_cases(self):
        rng = random.Random(0)
        found = {"recover": set(), "exact": set()}
        for seed in range(200):
            g = random_graph(random.Random(seed), max_vertices=4)
            out = out_map(g)
            v, w = rng.choice(g.vertices), rng.choice(g.vertices)
            ell = rng.randint(0, 5)
            found["recover"].add(recover_oracle(g, out, [v], [w], ell) is None)
            found["exact"].add(exact_oracle(g, out, v, w, ell) is None)
            assert _first_word(g.edges, [v], [w], ell) == exact_oracle(g, out, v, w, ell)
        assert found == {"recover": {True, False}, "exact": {True, False}}


class TestReadingStatesOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 5), st.integers(1, 4), st.data())
    def test_matches_out_map_oracle(self, seed, nv, period, data):
        g = random_graph(random.Random(seed), max_vertices=nv)
        symbols = st.sampled_from(g.alphabet)
        arbitrary = st.builds(SymbolicPoint,
                              st.lists(symbols, max_size=4).map(tuple),
                              st.lists(symbols, min_size=1, max_size=4).map(tuple))
        pts = periodic_points(g, period)
        point = data.draw(st.one_of(arbitrary, st.sampled_from(pts)) if pts else arbitrary)
        assert _reading_states(g, point) == reading_states_oracle(g, point)
