"""Towers of chain components (and cyclic classes) over an inverse
sequence.

A component tower assigns to each level a chain component such that the
image of each chosen component is contained in the one below.  A cyclic
tower refines this to the cyclic classes of irreducible levels.  The
selection routine upgrades a given tower, from a start level on, to one
whose one-step images stabilize: at each level it picks a deeper
component with inclusion-maximal image among those whose two-step image
still covers the current anchor image.  All four contract properties of
the upgraded tower are re-verified exactly; a failure raises
InternalInvariantViolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .decomposition import (
    class_of_word,
    cyclic_structure,
    entropy,
    has_positive_entropy,
    sync_length,
)
from .errors import (
    EmptyImageChain,
    InternalInvariantViolation,
    Mlc1Required,
    NotIrreducible,
    SchemaError,
)
from .inverse_systems import (
    InverseSequenceSpec,
    TruncatedSystem,
    check_mlc,
    composed_image,
    restrict_to_cr,
    truncated_limit,
)
from .shift_core import (
    SftGraph,
    Word,
    canonical_signature,
    language_equal,
    language_subset,
    word_in_language,
    words_of_length,
)


@dataclass(frozen=True)
class Tower:
    """Entries are component ids (or cyclic class ids) for levels 1..d."""

    kind: str  # "component" | "cyclic"
    entries: tuple[str, ...]

    @property
    def depth(self) -> int:
        return len(self.entries)


def _component_image(seq: InverseSequenceSpec, m: int, n: int,
                     cid: str) -> SftGraph:
    """Canonical image at level n of component cid of level m."""
    return composed_image(seq, m, n, start=seq.decomposition(m).by_id(cid).graph)


def _component_ids(seq: InverseSequenceSpec, n: int) -> list[str]:
    return [c.component_id for c in seq.decomposition(n).components]


def containing_component(seq: InverseSequenceSpec, n: int,
                         sub: SftGraph) -> Optional[str]:
    """The first component of level n whose language contains sub's."""
    for c in seq.decomposition(n).components:
        ok, _ = language_subset(sub, c.graph)
        if ok:
            return c.component_id
    return None


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_towers(seq: InverseSequenceSpec, depth: int,
                     kind: str = "component") -> list[Tower]:
    """All towers to the given depth, in lexicographic entry order."""
    if kind == "component":
        partial: list[tuple[str, ...]] = [(cid,) for cid in _component_ids(seq, 1)]
        for n in range(2, depth + 1):
            nxt = []
            for tup in partial:
                below = seq.decomposition(n - 1).by_id(tup[-1]).graph
                for cid in _component_ids(seq, n):
                    ok, _ = language_subset(_component_image(seq, n, n - 1, cid), below)
                    if ok:
                        nxt.append(tup + (cid,))
            partial = nxt
        return [Tower("component", t) for t in sorted(partial)]
    if kind == "cyclic":
        maps = [cyclic_class_map(seq, n) for n in range(1, depth)]
        m1 = len(cyclic_structure(seq.level(1)).classes)
        partial = [("D%d" % i,) for i in range(m1)]
        for n in range(2, depth + 1):
            cmap = maps[n - 2]
            nxt = []
            for tup in partial:
                for src, dst in cmap.items():
                    if dst == tup[-1]:
                        nxt.append(tup + (src,))
            partial = nxt
        return [Tower("cyclic", t) for t in sorted(partial)]
    raise SchemaError("unknown tower kind %r" % kind)


def cyclic_class_map(seq: InverseSequenceSpec, n: int) -> dict[str, str]:
    """Which cyclic class of level n receives each class of level n+1.
    Decided exactly on words long enough to pin down classes on both
    sides; a class whose image straddles two classes is a precondition
    failure."""
    upper = seq.level(n + 1)
    lower = seq.level(n)
    code = seq.code(n)
    cs_u = cyclic_structure(upper)
    cs_l = cyclic_structure(lower)
    ku = sync_length(upper)
    kl = sync_length(lower)
    if ku is None or kl is None:
        raise NotIrreducible("presentation does not resolve cyclic classes")
    length = max(ku, kl + code.window - 1, 1)
    out: dict[str, str] = {}
    for w in words_of_length(upper, length):
        src = "D%d" % class_of_word(upper, cs_u, w)
        img = code.word_map(w)
        dst = "D%d" % class_of_word(lower, cs_l, img)
        if out.setdefault(src, dst) != dst:
            raise NotIrreducible(
                "class %s of level %d maps into two classes" % (src, n + 1))
    return out


# ---------------------------------------------------------------------------
# Greedy maximal-image selection


@dataclass(frozen=True)
class SelectionReport:
    tower: Tower
    start_level: int
    picked: tuple[str, ...]        # the auxiliary deeper components, one per step
    anchors: tuple[str, ...]       # canonical signatures of anchor images
    properties: dict[str, bool]
    tail_period: Optional[int]     # detected repetition length of the greedy state


def _maximal_choices(seq: InverseSequenceSpec, m: int, n: int,
                     cands: list[str]) -> str:
    """Inclusion-maximal image at level n among the candidate components
    of level m; ties resolved by smallest component id."""
    maximal = []
    for cid in cands:
        img = _component_image(seq, m, n, cid)
        dominated = False
        for other in cands:
            if other == cid:
                continue
            oimg = _component_image(seq, m, n, other)
            le, _ = language_subset(img, oimg)
            ge, _ = language_subset(oimg, img)
            if le and not ge:
                dominated = True
                break
        if not dominated:
            maximal.append(cid)
    return sorted(maximal)[0]


def select_max_tower(seq: InverseSequenceSpec, tower: Tower, n: int,
                     depth: int) -> SelectionReport:
    """Upgrade the tower from level n on so that one-step images
    stabilize, keeping levels below n and the level-n entry.

    Requires one-step image stability of the sequence (checked) and a
    tower known to depth at least n+1.
    """
    if tower.kind != "component":
        raise SchemaError("selection operates on component towers")
    if tower.depth < n + 1:
        raise SchemaError("tower must reach level %d" % (n + 1))
    if depth < n + 1:
        raise SchemaError("requested depth must exceed the start level")
    rep = check_mlc(seq, levels=range(n, depth + 1))
    if not rep.all_mlc1:
        raise Mlc1Required("one-step image stability fails in the selection range")
    c_n = tower.entries[n - 1]
    c_n1 = tower.entries[n]
    # Step at level n: deeper component with maximal image under the
    # level-n entry, covering the image of the incumbent level-n+1 entry.
    base = seq.decomposition(n).by_id(c_n).graph
    incumbent = _component_image(seq, n + 1, n, c_n1)
    cands = []
    for cid in _component_ids(seq, n + 1):
        img = _component_image(seq, n + 1, n, cid)
        lo, _ = language_subset(incumbent, img)
        hi, _ = language_subset(img, base)
        if lo and hi:
            cands.append(cid)
    if not cands:
        raise EmptyImageChain("no candidate over the level-%d entry" % n)
    d_cur = _maximal_choices(seq, n + 1, n, cands)
    anchor = _component_image(seq, n + 1, n, d_cur)
    selected: dict[int, str] = {n: c_n}
    picked = [d_cur]
    anchor_sigs = [canonical_signature(anchor)]
    states: dict[tuple, int] = {}
    tail_period: Optional[int] = None
    for m in range(n + 1, depth + 1):
        # Candidates at level m+1 whose two-step image still covers the
        # anchor at level m-1.
        cands = []
        for cid in _component_ids(seq, m + 1):
            two = _component_image(seq, m + 1, m - 1, cid)
            ok, _ = language_subset(anchor, two)
            if ok:
                cands.append(cid)
        if not cands:
            raise EmptyImageChain("anchor image loses its cover at level %d" % (m + 1))
        groups: dict[str, list[str]] = {}
        for cid in cands:
            comp = containing_component(seq, m, _component_image(seq, m + 1, m, cid))
            if comp is None:
                raise InternalInvariantViolation(
                    "component image not inside any component at level %d" % m)
            groups.setdefault(comp, []).append(cid)
        gid = sorted(groups)[0]
        d_cur = _maximal_choices(seq, m + 1, m, groups[gid])
        selected[m] = gid
        anchor = _component_image(seq, m + 1, m, d_cur)
        picked.append(d_cur)
        anchor_sigs.append(canonical_signature(anchor))
        key = (_tail_phase(seq, m + 1), gid, d_cur, anchor_sigs[-1])
        if tail_period is None:
            if key in states:
                tail_period = m - states[key]
            else:
                states[key] = m
    entries = tuple(tower.entries[: n - 1]) + tuple(
        selected[m] for m in range(n, depth + 1))
    out = Tower("component", entries)
    props = verify_selection(seq, tower, out, n)
    if not all(props.values()):
        raise InternalInvariantViolation(
            "selection contract failed: %s" % props)
    return SelectionReport(out, n, tuple(picked), tuple(anchor_sigs),
                           props, tail_period)


def _tail_phase(seq: InverseSequenceSpec, m: int) -> int:
    L = seq.prefix_length
    if m <= L:
        return -m
    if seq.tail == "identity":
        return 0
    return (m - L - 1) % seq.tail_block


def verify_selection(seq: InverseSequenceSpec, before: Tower, after: Tower,
                     n: int) -> dict[str, bool]:
    """The four contract properties of the upgraded tower."""
    d = after.depth
    props = {}
    props["keeps_start_entry"] = (after.entries[: n] == before.entries[: n])
    lo, _ = language_subset(
        _component_image(seq, n + 1, n, before.entries[n]),
        _component_image(seq, n + 1, n, after.entries[n]))
    props["covers_incumbent_image"] = lo
    ok = True
    for m in range(1, d):
        img = _component_image(seq, m + 1, m, after.entries[m])
        inside, _ = language_subset(
            img, seq.decomposition(m).by_id(after.entries[m - 1]).graph)
        ok = ok and inside
    props["levelwise_containment"] = ok
    stable = True
    for m in range(n, d - 1):
        one = _component_image(seq, m + 1, m, after.entries[m])
        two = _component_image(seq, m + 2, m, after.entries[m + 1])
        eq, _ = language_equal(one, two)
        stable = stable and eq
    props["one_step_image_stability"] = stable
    return props


# ---------------------------------------------------------------------------
# Entropic component search


@dataclass(frozen=True)
class EntropicReport:
    tower: Tower
    level: int
    entropy_bound: float
    selection: SelectionReport


def find_entropic_component(seq: InverseSequenceSpec, depth: int) -> EntropicReport:
    """Restrict to the chain recurrent parts, then look for a tower and a
    level where the image of the chosen component has positive entropy;
    upgrade that tower from there and report the stabilized image entropy
    as the bound."""
    from .errors import NoEntropicComponent
    cr = restrict_to_cr(seq)
    rep = check_mlc(cr)
    if not rep.all_mlc1:
        raise Mlc1Required("one-step image stability required after restriction")
    for tower in enumerate_towers(cr, depth):
        for n in range(1, depth):
            img = _component_image(cr, n + 1, n, tower.entries[n])
            if has_positive_entropy(img):
                sel = select_max_tower(cr, tower, n, depth)
                bound = entropy(_component_image(cr, n + 1, n, sel.tower.entries[n]))
                return EntropicReport(sel.tower, n, bound, sel)
    raise NoEntropicComponent("no positive-entropy image at any level")


def approximate_by_shadowing_tower(seq: InverseSequenceSpec, tower: Tower,
                                   agreement_level: int, depth: int) -> SelectionReport:
    """Tower that copies the target through the agreement level and
    continues with stabilized one-step images."""
    return select_max_tower(seq, tower, agreement_level, depth)


# ---------------------------------------------------------------------------
# Truncated fibers


def truncated_fiber(seq: InverseSequenceSpec, tower: Tower,
                    system: TruncatedSystem) -> list[int]:
    """Indices of truncated-limit points whose every coordinate lies in
    the chosen component (or cyclic class) of its level."""
    if system.depth > tower.depth:
        raise SchemaError("tower is shallower than the truncated system")
    picks = []
    if tower.kind == "component":
        graphs = [seq.decomposition(n).by_id(tower.entries[n - 1]).graph
                  for n in range(1, system.depth + 1)]
        for i, p in enumerate(system.points):
            if all(word_in_language(g, w) for g, w in zip(graphs, p)):
                picks.append(i)
        return picks
    structures = [cyclic_structure(seq.level(n)) for n in range(1, system.depth + 1)]
    for i, p in enumerate(system.points):
        ok = True
        for n, w in enumerate(p):
            cls = "D%d" % class_of_word(seq.level(n + 1), structures[n], w)
            if cls != tower.entries[n]:
                ok = False
                break
        if ok:
            picks.append(i)
    return picks


def fiber_hausdorff_gap(system: TruncatedSystem, inner: list[int],
                        outer: list[int]) -> Fraction:
    """sup over inner points of the distance to the nearest outer point."""
    worst = Fraction(0)
    for i in inner:
        best = None
        for j in outer:
            d = system.metric(i, j)
            if best is None or d < best:
                best = d
        if best is None:
            raise SchemaError("empty target fiber")
        worst = max(worst, best)
    return worst
