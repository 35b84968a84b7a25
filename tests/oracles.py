"""Reference constructions that only the tests call: graphs and codes
validated on every call and never interned, the cylinder distance of two
words, a finite system built point by point from Python functions, the
gap-shift entropy by bisection, entropy with an eigenvalue computation
for every chain component, the reading states of a point found on a
labeled out-map, the two period-jump walks that one helper replaced (a
segment's and a whole point's), the forbidden-word graph built from
every candidate word, a follower state's vertices decoded through ``bin``, strongly
connected components by Tarjan's lowlink search, an inverse sequence's
levels, codes and chain recurrent restriction read by one rule per tail
mode, image chains, MLC checks,
selection stability and maximal choices that compare canonical images
by a language-equality search, the truncated limit joined from every
word of every level, truncated fibers picked by one loop per tower
kind, the fiber gap as a max-min of one Fraction per pair of points,
and the layered example assembled point by point over its
product space."""

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from shiftlab import towers
from shiftlab.codes import SlidingBlockCode, code_image, identity_code, restrict
from shiftlab.decomposition import (
    chain_components,
    class_of_word,
    has_positive_entropy,
    restrict_graph_to_cr,
)
from shiftlab.errors import (
    AlphabetMismatch,
    EmptyShift,
    InternalInvariantViolation,
    InvalidAlphabet,
    NotInLanguage,
    PreconditionError,
    SchemaError,
    TooLarge,
)
from shiftlab.inverse_systems import (
    DEFAULT_DEPTH_CAP,
    MAX_LIMIT_POINTS,
    ImageChainReport,
    InverseSequenceSpec,
    MlcLevelReport,
    MlcReport,
    TruncatedSystem,
    composed_image,
)
from shiftlab.shadow_lab import (
    MAX_TRUNCATION_POINTS,
    FiniteSystem,
    LayeredCensus,
    _check_size,
    _fiber_chain_transitive,
    brute_shadowing_check,
    gap_shift_graph,
    limit_gap_system,
    switch_level,
    truncate_shift,
)
from shiftlab.shift_core import (
    SftGraph,
    common_prefix,
    essential,
    language_equal,
    language_subset,
    word_in_language,
    word_str,
    words_of_length,
)


def graph_oracle(vertices, edges, alphabet):
    """An SftGraph built as before graphs were interned: the fields are
    validated on every call, then hashed, and the graph is not filed, so
    it is a separate object from any equal graph.  Compare it by its
    fields."""
    vs = set(vertices)
    if len(vs) != len(vertices):
        dup = next(v for v, k in Counter(vertices).items() if k > 1)
        raise SchemaError("duplicate vertex %r" % dup)
    ab = set(alphabet)
    if len(alphabet) != len(ab):
        raise InvalidAlphabet("duplicate symbols in alphabet")
    if len(set(edges)) != len(edges):
        raise SchemaError("duplicate labeled edge")
    for (u, v, a) in edges:
        if u not in vs or v not in vs:
            raise SchemaError("edge endpoint not among vertices: %r" % ((u, v, a),))
        if a not in ab:
            raise InvalidAlphabet("edge label %r not in alphabet" % a)
    hash((vertices, edges, alphabet))  # unhashable fields raise TypeError
    g = object.__new__(SftGraph)
    for name, value in (("vertices", vertices), ("edges", edges), ("alphabet", alphabet)):
        object.__setattr__(g, name, value)
    return g


def code_oracle(domain, codomain, window, rule):
    """A SlidingBlockCode built as before codes were interned: validated on
    every call and not filed.  Compare it by its fields."""
    code = object.__new__(SlidingBlockCode)
    for name, value in (("domain", domain), ("codomain", codomain), ("window", window),
                        ("rule", MappingProxyType(dict(rule)))):
        object.__setattr__(code, name, value)
    if window < 1:
        raise SchemaError("window must be >= 1")
    for w, s in code.rule.items():
        if len(w) != window:
            raise SchemaError("rule key %r has wrong length" % (w,))
        if s not in codomain.alphabet:
            raise AlphabetMismatch("rule output %r not in codomain alphabet" % s)
    ok, witness = language_subset(code_image(code), codomain)
    if not ok:
        raise NotInLanguage("image leaves the codomain language at word %s"
                            % word_str(witness or ()))
    return code


def word_distance(u, v):
    """Cylinder distance between two finite words, read as truncated
    points: 2**-k at common prefix length k.  Identical words give 0."""
    k = common_prefix(u, v)
    return Fraction(0) if k == len(u) == len(v) else Fraction(1, 2 ** k)


def system_from_function(labels, word, mapping):
    """word(p) is the word of point p; mapping may return a single label
    or a sequence of labels."""
    labels = tuple(labels)
    succ = {}
    for p in labels:
        img = mapping(p)
        succ[p] = (img,) if isinstance(img, str) else tuple(sorted(img))
    return FiniteSystem(labels, [word(p) for p in labels], succ)


def gap_entropy_oracle(k):
    """log of the largest root of x**(k+1) = x**k + 1, by bisection."""

    def f(x):
        return x ** (k + 1) - x ** k - 1

    lo, hi = 1.0, 2.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return math.log((lo + hi) / 2)


def entropy_oracle(g):
    """Entropy as decomposition.entropy worked it out before lone cycles
    were skipped: 0.0 unless some component branches, and otherwise the
    log of the largest spectral radius over every chain component."""
    dec = chain_components(g)
    if not dec.components:
        raise EmptyShift("entropy of an empty shift")
    if not has_positive_entropy(g):
        return 0.0
    best = 1.0
    for comp in dec.components:
        ge = comp.graph
        n = len(ge.vertices)
        idx = {v: i for i, v in enumerate(ge.vertices)}
        a = np.zeros((n, n))
        for (u, v, _s) in ge.edges:
            a[idx[u], idx[v]] += 1.0
        radius = float(np.max(np.abs(np.linalg.eigvals(a))))
        best = max(best, radius)
    return math.log(best)


def out_map(g):
    """The labeled out-map of ``g``: vertex -> symbol -> set of targets."""
    out = {v: {} for v in g.vertices}
    for (u, v, a) in g.edges:
        out[u].setdefault(a, set()).add(v)
    return out


def reading_states_oracle(g, point):
    """``chaos._reading_states`` as it was worked out on the out-map of the
    essential part of ``g``, which the follower automaton then carried."""
    pre, per = len(point.preperiod), len(point.period)
    total = pre + per
    out = out_map(essential(g))
    alive = {j: set(out) for j in range(total)}
    changed = True
    while changed:
        changed = False
        for j in range(total):
            nxt = j + 1 if j + 1 < total else pre
            sym = point.symbol_at(j)
            keep = {v for v in alive[j]
                    if out[v].get(sym, set()) & alive[nxt]}
            if keep != alive[j]:
                alive[j] = keep
                changed = True
    return alive


def _steps_oracle(trans, state, word):
    for sym in word:
        if state is None:
            break
        state = trans.get((state, sym))
    return state


def segment_walk_oracle(trans, state, point, length):
    """``chaos._run`` on a point segment as it was: the state after the
    first ``length`` symbols of ``point``, whole periods jumped once the
    state at a period boundary repeats."""
    pre = point.preperiod[:length]
    state = _steps_oracle(trans, state, pre)
    whole, rest = divmod(length - len(pre), len(point.period))
    trail = [state]
    first = {state: 0}
    for k in range(1, whole + 1):
        state = _steps_oracle(trans, state, point.period)
        if state is None:
            return None
        if state in first:
            j = first[state]
            state = trail[j + (whole - j) % (k - j)]
            break
        first[state] = k
        trail.append(state)
    return _steps_oracle(trans, state, point.period[:rest])


def point_walk_oracle(trans, state, point):
    """``shift_core.point_in_shift``'s walk as it was: whole periods read
    until the state at a period boundary repeats; None if the point leaves
    the map, otherwise the repeated state."""
    state = _steps_oracle(trans, state, point.preperiod)
    seen = set()
    while state is not None and state not in seen:
        seen.add(state)
        state = _steps_oracle(trans, state, point.period)
    return state


def forbidden_words_oracle(alphabet, forbidden):
    """``shift_core.from_forbidden_words`` as it listed every one of the
    |alphabet|**N candidate N-words and scanned every substring of each
    word and of each one-symbol extension."""
    ab = tuple(alphabet)
    if not ab:
        raise InvalidAlphabet("empty alphabet")
    bad = {tuple(w) for w in forbidden}
    # Every word is checked before the empty word returns: checking them
    # in set order made the outcome depend on the string-hash seed.  A
    # repeated symbol is named as such, not as the repeated candidate
    # words it would make.
    for w in bad:
        for s in w:
            if s not in ab:
                raise InvalidAlphabet("forbidden word uses unknown symbol %r" % s)
    if len(set(ab)) != len(ab):
        raise InvalidAlphabet("duplicate symbols in alphabet")
    if () in bad:
        return SftGraph((), (), ab)
    keep = tuple(s for s in ab if (s,) not in bad)
    long_bad = {w for w in bad if len(w) >= 2}
    n = max((len(w) for w in long_bad), default=1) - 1

    def ok(word):
        for i in range(len(word)):
            for j in range(i + 1, len(word) + 1):
                if word[i:j] in long_bad:
                    return False
        return True

    if n == 0:
        if not keep:
            return SftGraph((), (), ab)
        return SftGraph(("*",), tuple(("*", "*", a) for a in keep), ab)

    states = [w for w in itertools.product(keep, repeat=n) if ok(w)]
    names = {w: word_str(w) for w in states}
    edges = []
    stateset = set(states)
    for w in states:
        for a in keep:
            ext = w + (a,)
            if ok(ext) and ext[1:] in stateset:
                edges.append((names[w], names[ext[1:]], a))
    return essential(SftGraph(tuple(names[w] for w in states), tuple(edges), ab))


def follower_vertices_oracle(f, i):
    """``Follower.vertices`` as it decoded a state mask through ``bin``."""
    return frozenset(itertools.compress(f.names, map(int, bin(f.states[i])[:1:-1])))


def tarjan_sccs_oracle(vertices, arcs):
    """Strongly connected components by iterative Tarjan, as
    ``decomposition`` found them before Kosaraju's two searches: each
    component sorted, the list in Tarjan's completion order."""
    index = {}
    low = {}
    onstack = set()
    stack = []
    sccs = []
    counter = [0]

    for root in vertices:
        if root in index:
            continue
        work = [(root, iter(arcs.get(root, ())))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(arcs.get(w, ()))))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(sorted(comp))
    return sccs


def sequence_level_oracle(seq, n):
    """``InverseSequenceSpec.level`` as it branched on the tail mode."""
    L = len(seq.levels)
    if n < 1:
        raise SchemaError("levels are 1-indexed")
    if n <= L:
        return seq.levels[n - 1]
    if seq.tail == "identity":
        return seq.levels[L - 1]
    p = seq.tail_block
    return seq.levels[L - p + ((n - L - 1) % p)]


def sequence_code_oracle(seq, n):
    """``InverseSequenceSpec.code`` as it branched on the tail mode."""
    L = len(seq.levels)
    if n < 1:
        raise SchemaError("codes are 1-indexed")
    if seq.tail == "identity":
        if n <= L - 1:
            return seq.codes[n - 1]
        return identity_code(seq.levels[L - 1])
    if n <= L:
        return seq.codes[n - 1]
    p = seq.tail_block
    return seq.codes[L - p + ((n - L - 1) % p)]


def restrict_to_cr_oracle(seq):
    """``inverse_systems.restrict_to_cr`` as it took a periodic tail's wrap
    code domain from the restricted levels, p levels from the end, without
    its one-step stability check."""
    levels = tuple(restrict_graph_to_cr(g) for g in seq.levels)
    codes = []
    for i, c in enumerate(seq.codes):
        dom = levels[i + 1] if i + 1 < len(levels) else levels[len(levels) - seq.tail_block]
        sub = restrict(c, dom)
        codes.append(SlidingBlockCode(sub.domain, levels[i], sub.window, sub.rule))
    return InverseSequenceSpec(levels, tuple(codes), seq.tail, seq.tail_block)


def image_chain_oracle(seq, n, depth_cap=DEFAULT_DEPTH_CAP):
    """``inverse_systems.image_chain`` as it decided stabilization by a
    language-equality search between consecutive images."""
    if depth_cap < 0:
        raise SchemaError("image chain depth cap must be nonnegative")
    images = []
    stabilized = None
    prev = None
    for m in range(n + 1, n + depth_cap + 2):
        img = composed_image(seq, m, n)
        if prev is not None:
            ok, _ = language_subset(img, prev)
            if not ok:
                raise InternalInvariantViolation(
                    "image chain not descending at level %d depth %d" % (n, m))
            eq, _ = language_equal(img, prev)
            if eq:
                stabilized = m - 1
                images.append(img)
                break
        images.append(img)
        prev = img
    return ImageChainReport(n, tuple(images), stabilized)


def check_mlc_oracle(seq, depth_cap=DEFAULT_DEPTH_CAP, levels=None):
    """``inverse_systems.check_mlc`` as it decided one-step stability by a
    language-equality search, with its check that a one-step stable level
    has the one-step image as its stable image."""
    idxs = list(levels) if levels is not None else list(range(1, seq.prefix_length + 1))
    out = []
    for n in idxs:
        chain = image_chain_oracle(seq, n, depth_cap)
        one = composed_image(seq, n + 1, n)
        two = composed_image(seq, n + 2, n)
        mlc1, _ = language_equal(one, two)
        witness = chain.stabilized_at
        status = "holds" if witness is not None else "undetermined"
        if mlc1 and witness is not None and witness > n + 1:
            eq, _ = language_equal(one, chain.stable_image)
            if not eq:
                raise InternalInvariantViolation(
                    "one-step image differs from the stable image at level %d" % n)
        out.append(MlcLevelReport(n, mlc1, status, witness, chain))
    return MlcReport(tuple(out))


def one_step_stability_oracle(seq, after, n):
    """The ``one_step_image_stability`` property of
    ``towers.verify_selection``, each pair of images compared by a
    language-equality search."""
    stable = True
    for m in range(n, after.depth - 1):
        one = towers._component_image(seq, m + 1, m, after.entries[m])
        two = towers._component_image(seq, m + 2, m, after.entries[m + 1])
        eq, _ = language_equal(one, two)
        stable = stable and eq
    return stable


def maximal_choices_oracle(seq, m, n, cands):
    """``towers._maximal_choices`` as it tested strict containment by two
    subset searches, one each way."""
    imgs = {cid: towers._component_image(seq, m, n, cid) for cid in cands}

    def dominated(cid):
        return any(language_subset(imgs[cid], imgs[o])[0]
                   and not language_subset(imgs[o], imgs[cid])[0]
                   for o in cands if o != cid)

    return min(cid for cid in cands if not dominated(cid))


def truncated_limit_oracle(seq, depth, word_length, max_points=MAX_LIMIT_POINTS):
    """``inverse_systems.truncated_limit`` as it listed every word of every
    level first, grouped each upper level's words by prefix, and never
    capped the deepest level."""
    T = word_length
    level_words = {n: words_of_length(seq.level(n), T) for n in range(1, depth + 1)}
    partial = [(w,) for w in level_words[depth]]
    for n in range(depth - 1, 0, -1):
        code = seq.code(n)
        k = max(T - code.window + 1, 0)
        by_prefix = {}
        for w in level_words[n]:
            by_prefix.setdefault(w[:k], []).append(w)
        nxt = []
        for tup in partial:
            nxt.extend((w,) + tup for w in by_prefix.get(code.word_map(tup[0]), ()))
            if len(nxt) > max_points:
                raise TooLarge("truncated limit exceeds %d points" % max_points)
        partial = nxt
    points = tuple(sorted(partial))
    by_head = {}
    for i, q in enumerate(points):
        by_head.setdefault(tuple(qn[: T - 1] for qn in q), []).append(i)
    succ = tuple(tuple(by_head.get(tuple(pn[1:] for pn in p), ())) for p in points)
    return TruncatedSystem(depth, T, points, succ)


def fiber_hausdorff_gap_oracle(system, inner, outer):
    """``towers.fiber_hausdorff_gap`` as it built a Fraction distance for
    every pair of an inner and an outer point, and took the max over inner
    points of the min over outer points."""
    if inner and not outer:
        raise SchemaError("empty target fiber")
    return max((min(system.metric(i, j) for j in outer) for i in inner),
               default=Fraction(0))


def truncated_fiber_oracle(seq, tower, system):
    """``towers.truncated_fiber`` as it ran one membership loop for
    component towers and another for cyclic-class towers."""
    if system.depth > tower.depth:
        raise SchemaError("tower is shallower than the truncated system")
    picks = []
    if tower.kind == "component":
        graphs = [chain_components(seq.level(n)).by_id(tower.entries[n - 1]).graph
                  for n in range(1, system.depth + 1)]
        for i, p in enumerate(system.points):
            if all(word_in_language(g, w) for g, w in zip(graphs, p)):
                picks.append(i)
        return picks
    for i, p in enumerate(system.points):
        ok = True
        for n, w in enumerate(p):
            cls = "D%d" % class_of_word(seq.level(n + 1), w)
            if cls != tower.entries[n]:
                ok = False
                break
        if ok:
            picks.append(i)
    return picks


@dataclass(frozen=True)
class AssembledStratum:
    index: int
    kind: str
    base_points: tuple


@dataclass(frozen=True)
class AssembledLayeredExample:
    """The layered example with its product space listed: a label, a base
    word and a successor tuple for every point over every base word."""

    labels: tuple
    base_value: dict
    fiber_of: dict
    strata: tuple
    scales: tuple
    fiber_systems: dict
    successors: dict


def layered_example_oracle(base_depth=4, fiber_depth=12):
    """``shadow_lab.build_layered_example`` as it assembled the product of
    base words and fiber points, one label and one successor tuple each."""
    if base_depth < 0:
        raise PreconditionError("base depth must be nonnegative")
    endpoint_max, limit_tail = 3, 8
    _check_size(2 ** min(base_depth, MAX_TRUNCATION_POINTS.bit_length()),
                MAX_TRUNCATION_POINTS)
    words = list(itertools.product("01", repeat=base_depth))
    eps = [Fraction(1, 2 ** k) for k in range(1, endpoint_max + 1)]
    deltas = [e / 4 for e in eps]
    contraction = [Fraction(1, 4)]
    for k in range(1, base_depth):
        contraction.append(min([contraction[-1] / 4] + [d / 4 for d in deltas]))
    base_value = {"".join(w): sum((contraction[t] for t, sym in enumerate(w) if sym == "1"),
                                  Fraction(0))
                  for w in words}
    if len(set(base_value.values())) != len(words):
        raise InternalInvariantViolation("base embedding is not injective")
    fiber_systems, strata_points, all_labels, image, fiber_of = {}, {}, [], {}, {}
    fiber_cache = {}
    for w in words:
        wkey = "".join(w)
        j = switch_level(w)
        if j <= endpoint_max:
            if j not in fiber_cache:
                fiber_cache[j] = truncate_shift(gap_shift_graph(j), fiber_depth)
            fiber, kind, idx = fiber_cache[j], "endpoint", j
        else:
            if -1 not in fiber_cache:
                fiber_cache[-1] = limit_gap_system(limit_tail)
            fiber, kind, idx = fiber_cache[-1], "interior", 0
        fiber_systems[wkey] = fiber
        strata_points.setdefault((kind, idx), []).append(wkey)
        for lab in fiber.labels:
            full = wkey + "|" + lab
            all_labels.append(full)
            fiber_of[full] = wkey
            image[full] = tuple(wkey + "|" + q for q in fiber.successors[lab])
    strata = tuple(AssembledStratum(idx, kind, tuple(sorted(strata_points[(kind, idx)])))
                   for (kind, idx) in sorted(strata_points))
    scales = tuple((eps[k - 1], deltas[k - 1]) for k in range(1, endpoint_max + 1))
    return AssembledLayeredExample(tuple(all_labels), base_value, fiber_of, strata,
                                   scales, fiber_systems, image)


def layered_census_oracle(ex):
    """``shadow_lab.layered_census`` on the assembled space: invariance
    checked point by point, transitivity once per distinct fiber object."""
    sizes = {s.index: len(s.base_points) for s in ex.strata if s.kind == "endpoint"}
    interior = sum(len(s.base_points) for s in ex.strata if s.kind == "interior")
    invariant = all(ex.fiber_of[q] == ex.fiber_of[p]
                    for p in ex.labels for q in ex.successors[p])
    fibers = {id(f): f for f in ex.fiber_systems.values()}
    transitive = all(_fiber_chain_transitive(f) for f in fibers.values())
    distinct = len(set(ex.base_value.values())) == len(ex.base_value)
    return LayeredCensus(sizes, interior, len(ex.fiber_systems),
                         invariant, transitive, distinct)


def layered_fiber_shadowing_oracle(ex, horizon=8):
    """``shadow_lab.layered_fiber_shadowing`` reading each stratum's fiber
    from the per-base-word table."""
    out = {}
    for s in ex.strata:
        eps, delta = ex.scales[s.index - 1] if s.kind == "endpoint" else ex.scales[-1]
        rep = brute_shadowing_check(ex.fiber_systems[s.base_points[0]], eps, delta, horizon)
        for w in s.base_points:
            key = ("A%d" % s.index if s.kind == "endpoint" else "interior") + ":" + w
            out[key] = rep
    return out
