"""Acceptance battery.

Each test exercises one acceptance criterion end to end, prints a single
PASS/FAIL line (run pytest with -s to see them), and enforces the stated
tolerance and runtime budget.
"""

import time
from fractions import Fraction

from oracles import gap_entropy_oracle
from shiftlab import chaos, decomposition, inverse_systems, shadow_lab, towers
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
    two_cycle_sequence,
)
from shiftlab.shift_core import (
    SymbolicPoint,
    full_shift,
    distance,
    language_equal,
    point_in_shift,
)

BIN = ["0", "1"]


def report(num: int, ok: bool, detail: str) -> None:
    print("[criterion %2d] %s  %s" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


# ---------------------------------------------------------------------------


def test_criterion_01_entropy_oracle():
    t0 = time.monotonic()
    worst = 0.0
    for k in range(1, 6):
        e = decomposition.entropy(shadow_lab.gap_shift_graph(k))
        o = gap_entropy_oracle(k)
        worst = max(worst, abs(e - o))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    report(1, ok, "gap entropies k=1..5, worst |diff|=%.2e, %.2fs" % (worst, elapsed))


def _three_conditions(seq, cap=10):
    """Three independent code paths for one-step stabilization."""
    rep = inverse_systems.check_mlc(seq, depth_cap=cap)
    c1 = rep.all_mlc1
    c2 = True
    for n in range(1, len(seq.levels) + 1):
        one = inverse_systems.composed_image(seq, n + 1, n)
        for m in range(n + 2, n + cap):
            deeper = inverse_systems.composed_image(seq, m, n)
            eq, _ = language_equal(one, deeper)
            if not eq:
                c2 = False
                break
        if not c2:
            break
    c3 = True
    for n in range(1, len(seq.levels) + 1):
        hat = inverse_systems.hat_space(seq, n, depth_cap=cap)
        if hat.status != "stabilized":
            continue
        one = inverse_systems.composed_image(seq, n + 1, n)
        eq, _ = language_equal(hat.graph, one)
        if not eq:
            c3 = False
            break
    return c1, c2, c3


def test_criterion_02_stabilization_equivalence():
    t0 = time.monotonic()
    discrepancies = 0
    checked = 0
    cases = [abc_sequence()] + [random_sequence(seed) for seed in range(50)]
    for seq in cases:
        c1, c2, c3 = _three_conditions(seq)
        checked += 1
        if not (c1 == c2 == c3):
            discrepancies += 1
    elapsed = time.monotonic() - t0
    ok = discrepancies == 0 and checked >= 51 and elapsed < 30.0
    report(2, ok, "%d sequences, %d discrepancies, %.1fs"
           % (checked, discrepancies, elapsed))


def _conjugacy_check(seq, res, depth=3, word_length=4):
    """Original truncation at the selected depths against the extracted
    truncation: a coordinate-selection bijection, equivariant for the
    successor relations, with two-sided Lipschitz bounds read off the
    level reindexing."""
    index_map = list(res.index_map)
    current = index_map[-1]
    while len(index_map) < depth:
        chain = inverse_systems.image_chain(seq, current, 12)
        nxt = chain.stabilized_at
        if nxt is None or nxt <= current:
            nxt = current + 1
        index_map.append(nxt)
        current = nxt
    big = inverse_systems.truncated_limit(seq, index_map[depth - 1],
                                          word_length)
    ext = inverse_systems.truncated_limit(res.sequence, depth, word_length)

    def phi(pt):
        return tuple(pt[n - 1] for n in index_map[:depth])

    images = [phi(p) for p in big.points]
    ext_index = {p: i for i, p in enumerate(ext.points)}
    if any(im not in ext_index for im in images):
        return False, "image left the extracted truncation"
    if len(set(images)) != len(ext.points) or len(images) != len(set(images)):
        return False, "not a bijection (%d -> %d/%d)" % (
            len(images), len(set(images)), len(ext.points))
    to_ext = [ext_index[im] for im in images]
    for i in range(len(big.points)):
        got = {to_ext[j] for j in big.successors[i]}
        want = set(ext.successors[to_ext[i]])
        if got != want:
            return False, "successor relations do not correspond"
    gap = max(n - (j + 1) for j, n in enumerate(index_map[:depth]))
    for i in range(len(big.points)):
        for j in range(i + 1, len(big.points)):
            d_org = big.metric(i, j)
            d_ext = ext.metric(to_ext[i], to_ext[j])
            if not (d_ext <= 2 ** gap * d_org and d_org <= 2 ** gap * d_ext):
                return False, "bi-Lipschitz bound 2^%d violated" % gap
    return True, "bijective, equivariant, bi-Lipschitz 2^%d" % gap


def test_criterion_03_extraction():
    fixtures = [abc_sequence(), merging_sequence(),
                constant_sequence(golden_mean_graph())]
    fixtures += [random_sequence(seed) for seed in range(20)]
    failures = []
    checked = 0
    for idx, seq in enumerate(fixtures):
        rep = inverse_systems.check_mlc(seq, depth_cap=12)
        if not rep.all_witnessed:
            continue
        res = inverse_systems.extract_mlc1_subsequence(seq)
        checked += 1
        rep2 = inverse_systems.check_mlc(res.sequence, depth_cap=12)
        if not rep2.all_mlc1:
            failures.append("fixture %d not one-step stable" % idx)
            continue
        try:
            ok, why = _conjugacy_check(seq, res)
        except Exception as e:
            ok, why = False, repr(e)
        if not ok:
            failures.append("fixture %d: %s" % (idx, why))
    ok = not failures and checked >= 3
    report(3, ok, "%d witnessed fixtures; %s"
           % (checked, failures[:3] if failures else "all conjugate"))


def test_criterion_04_fibers_match_brute_components():
    t0 = time.monotonic()
    fixture_list = [abc_sequence(), merging_sequence(), branching_sequence(),
                    constant_sequence(golden_mean_graph(), 4),
                    mixed_sequence(), cycles_only_sequence(),
                    two_cycle_sequence(), cantor_product_sequence(3)]
    discrepancies = 0
    checked = 0
    for seq in fixture_list:
        depth = min(3, len(seq.levels))
        for T in (4, 5):
            sysm = inverse_systems.truncated_limit(seq, depth, T)
            comp_ids = sysm.chain_component_ids()
            covered = set()
            for t in towers.enumerate_towers(seq, depth):
                fiber = towers.truncated_fiber(seq, t, sysm)
                checked += 1
                ids = {comp_ids[i] for i in fiber}
                if len(ids) != 1 or (ids & covered):
                    discrepancies += 1
                covered |= ids
            live = {c for c in comp_ids if c >= 0}
            if covered != live:
                discrepancies += 1
        if inverse_systems.check_mlc(seq, depth_cap=8).all_mlc1:
            try:
                cyc = towers.enumerate_towers(seq, 2, kind="cyclic")
            except Exception:
                cyc = None
            if cyc is not None:
                sys2 = inverse_systems.truncated_limit(seq, 2, 5)
                seen = set()
                for t in cyc:
                    fiber = towers.truncated_fiber(seq, t, sys2)
                    checked += 1
                    if set(fiber) & seen:
                        discrepancies += 1
                    seen |= set(fiber)
    elapsed = time.monotonic() - t0
    ok = discrepancies == 0 and elapsed < 60.0
    report(4, ok, "%d fibers checked, %d discrepancies, %.1fs"
           % (checked, discrepancies, elapsed))


def test_criterion_05_selection_contract():
    seq = branching_sequence()
    start = towers.Tower("component", ("K0", "K1"))
    rep = towers.select_max_tower(seq, start, 1, 5)
    good = all(rep.properties.values())
    bad = towers.Tower("component", ("K0", "K1", "K0", "K0", "K0"))
    bad_props = towers.verify_selection(seq, start, bad, 1)
    adversarial = not bad_props["one_step_image_stability"]
    satisfying = []
    for t in towers.enumerate_towers(seq, 5):
        props = towers.verify_selection(seq, start, t, 1)
        if all(props.values()):
            satisfying.append(t.entries)
    exhaustive = rep.tower.entries in satisfying
    others = []
    for fixture in [abc_sequence(), mixed_sequence(),
                    cantor_product_sequence(3)]:
        if not inverse_systems.check_mlc(fixture, depth_cap=8).all_mlc1:
            continue
        for t in towers.enumerate_towers(fixture, 2):
            r = towers.select_max_tower(fixture, t, 1, 3)
            others.append(all(r.properties.values()))
    ok = good and adversarial and exhaustive and all(others)
    report(5, ok, "greedy verified, adversarial choice breaks stability, "
                  "exhaustive depth-5 cross-check agrees (%d extra fixtures)"
           % len(others))


def test_criterion_06_cr_restriction_preserves_stability():
    violations = 0
    checked = 0
    cases = [merging_sequence(), branching_sequence(),
             constant_sequence(golden_mean_graph()), mixed_sequence(),
             cycles_only_sequence(), two_cycle_sequence(),
             cantor_product_sequence(3)]
    cases += [random_sequence(seed) for seed in range(15)]
    for seq in cases:
        if not inverse_systems.check_mlc(seq, depth_cap=8).all_mlc1:
            continue
        checked += 1
        cr = inverse_systems.restrict_to_cr(seq)
        if not inverse_systems.check_mlc(cr, depth_cap=8).all_mlc1:
            violations += 1
    ok = violations == 0 and checked >= 5
    report(6, ok, "%d one-step-stable fixtures, %d violations"
           % (checked, violations))


def test_criterion_07_scrambled_densities():
    t0 = time.monotonic()
    g = golden_mean_graph()
    sched = chaos.Schedule(base_length=4)
    failures = []
    for n in (2, 3):
        distal = chaos.find_r_distal_tuple(g, n)
        tup = chaos.build_scrambled_tuple(g, distal, num_blocks=8,
                                          schedule=sched)
        ends = [b.end for b in tup.blocks]
        assert ends[-1] <= 10 ** 6
        rows = chaos.density_report(tup.streams, 5, tup.delta, ends)
        for k in range(3, 9):
            row = rows[k - 1]
            fc, ff = row.fractions()
            need = 1 - Fraction(1, k)
            kind = tup.blocks[k - 1].kind
            got = fc if kind == "together" else ff
            if got < need:
                failures.append((n, k, kind, float(got)))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 10.0
    report(7, ok, "n=2,3 densities at block ends k=3..8, %.1fs%s"
           % (elapsed, "" if ok else "; failures %s" % failures))


def _random_point(rng, g):
    while True:
        pre = tuple(rng.choice("01") for _ in range(rng.randint(0, 3)))
        per = tuple(rng.choice("01") for _ in range(rng.randint(1, 4)))
        try:
            p = SymbolicPoint(pre, per)
        except Exception:
            continue
        if point_in_shift(g, p):
            return p


def test_criterion_08_join_certificates():
    import random as _random
    rng = _random.Random(20260826)
    graphs = [golden_mean_graph(), full_shift(BIN)]
    bad = 0
    for trial in range(100):
        g = graphs[trial % 2]
        y = _random_point(rng, g)
        z = _random_point(rng, g)
        k = rng.randint(1, 6)
        cert = chaos.chain_proximal_join(g, y, z, k)
        w = cert.point
        close = distance(w, z) <= Fraction(1, 2 ** k)
        tail = w.shift(cert.tail_shift) == y.shift(cert.tail_shift)
        inside = point_in_shift(g, w)
        if not (close and tail and inside):
            bad += 1
    report(8, bad == 0, "100 random join certificates, %d invalid" % bad)


def test_criterion_09_shadowing_lab():
    t0 = time.monotonic()
    full6 = shadow_lab.truncate_shift(full_shift(BIN), 6)
    pass_full = shadow_lab.brute_shadowing_check(
        full6, Fraction(1, 2), Fraction(1, 4), 8).shadowed
    lim = shadow_lab.limit_gap_system(8)
    rep = shadow_lab.brute_shadowing_check(
        lim, Fraction(1, 4), Fraction(1, 16), 16)
    documented = shadow_lab.limit_gap_pseudo_orbit(16)
    cex_ok = (not rep.shadowed
              and shadow_lab.is_pseudo_orbit(lim, Fraction(1, 16), documented)
              and not shadow_lab.is_shadowed(lim, Fraction(1, 4), documented))
    ex = shadow_lab.build_layered_example(base_depth=4)
    census = shadow_lab.layered_census(ex)
    census_ok = (census.stratum_sizes == {1: 4, 2: 4, 3: 8}
                 and census.component_count == 16
                 and census.fibers_invariant and census.fibers_transitive
                 and census.base_values_distinct)
    fibers = shadow_lab.layered_fiber_shadowing(ex, horizon=8)
    fibers_ok = bool(fibers) and all(r.shadowed for r in fibers.values())
    elapsed = time.monotonic() - t0
    ok = pass_full and cex_ok and census_ok and fibers_ok and elapsed < 30.0
    report(9, ok, "full-2 pass=%s, limit counterexample=%s, census=%s, "
                  "fibers=%s, %.1fs"
           % (pass_full, cex_ok, census_ok, fibers_ok, elapsed))


def test_criterion_10_tower_approximation():
    t0 = time.monotonic()
    seq = cantor_product_sequence(4)
    assert inverse_systems.check_mlc(seq, depth_cap=8).all_mlc1
    sysm = inverse_systems.truncated_limit(seq, 4, 5)
    deep = towers.enumerate_towers(seq, 5)
    prefixes = {t.entries[:4] for t in deep}
    shallow = {t.entries for t in towers.enumerate_towers(seq, 4)}
    assert prefixes == shallow
    failures = []
    checked = 0
    for t5 in deep:
        t4 = towers.Tower("component", t5.entries[:4])
        target = towers.truncated_fiber(seq, t4, sysm)
        for N in range(1, 5):
            rep = towers.approximate_by_shadowing_tower(seq, t5, N, 5)
            approx = towers.Tower("component", rep.tower.entries[:4])
            checked += 1
            if approx.entries[:N] != t4.entries[:N]:
                failures.append((t4.entries, N, "agreement"))
                continue
            fiber = towers.truncated_fiber(seq, approx, sysm)
            gap = towers.fiber_hausdorff_gap(sysm, target, fiber)
            if gap > Fraction(1, 2 ** (N - 1)):
                failures.append((t4.entries, N, float(gap)))
    elapsed = time.monotonic() - t0
    ok = not failures and checked > 0 and elapsed < 60.0
    report(10, ok, "%d tower/level pairs, fiber gap <= 2^-(N-1), %.1fs%s"
           % (checked, elapsed, "" if ok else "; failures %s" % failures[:4]))
