"""Towers of chain components (and cyclic classes) over an inverse
sequence.

A component tower assigns to each level a chain component such that the
image of each chosen component is contained in the one below.  A cyclic
tower refines this to the cyclic classes of irreducible levels.  The
selection routine upgrades a given tower, from a start level on, to one
whose one-step images stabilize: at each level it picks a deeper
component with inclusion-maximal image among those whose two-step image
still covers the current anchor image.  All four contract properties of
the upgraded tower are re-verified exactly and returned with it; a
failure raises InternalInvariantViolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .decomposition import (
    chain_components,
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
    NoEntropicComponent,
    NotIrreducible,
    SchemaError,
)
from .inverse_systems import (
    InverseSequenceSpec,
    TruncatedSystem,
    check_mlc,
    composed_image,
    restrict_to_cr,
)
from .shift_core import (
    SftGraph,
    Word,
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
    start = chain_components(seq.level(m)).by_id(cid).graph
    return composed_image(seq, m, n, start=start)


def _component_ids(seq: InverseSequenceSpec, n: int) -> list[str]:
    return [c.component_id for c in chain_components(seq.level(n)).components]


def containing_component(seq: InverseSequenceSpec, n: int,
                         sub: SftGraph) -> Optional[str]:
    """The first component of level n whose language contains sub's."""
    for c in chain_components(seq.level(n)).components:
        ok, _ = language_subset(sub, c.graph)
        if ok:
            return c.component_id
    return None


# ---------------------------------------------------------------------------
# Enumeration


def enumerate_towers(seq: InverseSequenceSpec, depth: int,
                     kind: str = "component") -> list[Tower]:
    """All towers to the given depth, in lexicographic entry order."""
    if depth < 1:
        raise SchemaError("tower depth must be at least 1")
    if kind == "component":
        partial: list[tuple[str, ...]] = [(cid,) for cid in _component_ids(seq, 1)]
        for n in range(2, depth + 1):
            nxt = []
            for tup in partial:
                below = chain_components(seq.level(n - 1)).by_id(tup[-1]).graph
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
    ku = sync_length(upper)
    kl = sync_length(lower)
    if ku is None or kl is None:
        raise NotIrreducible("presentation does not resolve cyclic classes")
    length = max(ku, kl + code.window - 1, 1)
    out: dict[str, str] = {}
    for w in words_of_length(upper, length):
        src = "D%d" % class_of_word(upper, w)
        img = code.word_map(w)
        dst = "D%d" % class_of_word(lower, img)
        if out.setdefault(src, dst) != dst:
            raise NotIrreducible(
                "class %s of level %d maps into two classes" % (src, n + 1))
    return out


# ---------------------------------------------------------------------------
# Greedy maximal-image selection


@dataclass(frozen=True)
class SelectionReport:
    """The upgraded tower and its verified contract properties."""

    tower: Tower
    properties: dict[str, bool]


def _maximal_choices(seq: InverseSequenceSpec, m: int, n: int,
                     cands: list[str]) -> str:
    """The least candidate component of level m whose image at level n
    no other candidate's image strictly contains."""
    imgs = {cid: _component_image(seq, m, n, cid) for cid in cands}

    def dominated(cid: str) -> bool:
        return any(imgs[o] is not imgs[cid] and language_subset(imgs[cid], imgs[o])[0]
                   for o in cands if o != cid)

    return min(cid for cid in cands if not dominated(cid))


def select_max_tower(seq: InverseSequenceSpec, tower: Tower, n: int,
                     depth: int) -> SelectionReport:
    """Upgrade the tower from level n on so that one-step images
    stabilize, keeping levels below n and the level-n entry.  Returns the
    tower to the given depth with its four contract properties, all true.

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
    base = chain_components(seq.level(n)).by_id(c_n).graph
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
    entries = list(tower.entries[:n])
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
        gid = min(groups)
        d_cur = _maximal_choices(seq, m + 1, m, groups[gid])
        entries.append(gid)
        anchor = _component_image(seq, m + 1, m, d_cur)
    out = Tower("component", tuple(entries))
    props = verify_selection(seq, tower, out, n)
    if not all(props.values()):
        raise InternalInvariantViolation(
            "selection contract failed: %s" % props)
    return SelectionReport(out, props)


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
            img, chain_components(seq.level(m)).by_id(after.entries[m - 1]).graph)
        ok = ok and inside
    props["levelwise_containment"] = ok
    stable = True
    for m in range(n, d - 1):
        one = _component_image(seq, m + 1, m, after.entries[m])
        two = _component_image(seq, m + 2, m, after.entries[m + 1])
        stable = stable and one is two
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
    if tower.kind == "component":
        graphs = [chain_components(seq.level(n)).by_id(tower.entries[n - 1]).graph
                  for n in range(1, system.depth + 1)]

        def inside(n: int, w: Word) -> bool:
            return word_in_language(graphs[n], w)
    else:
        def inside(n: int, w: Word) -> bool:
            return "D%d" % class_of_word(seq.level(n + 1), w) == tower.entries[n]
    return [i for i, p in enumerate(system.points)
            if all(inside(n, w) for n, w in enumerate(p))]


def fiber_hausdorff_gap(system: TruncatedSystem, inner: list[int],
                        outer: list[int]) -> Fraction:
    """sup over inner points of the distance to the nearest outer point.
    Distances are 2**-k, so this is 2**-k for the least, over inner
    points, of the largest exponent k towards an outer point, and 0 when
    that is infinite: one Fraction, however many points."""
    if inner and not outer:
        raise SchemaError("empty target fiber")
    k = min((max(system.exponent(i, j) for j in outer) for i in inner),
            default=math.inf)
    return Fraction(0) if k == math.inf else Fraction(1, 2 ** k)
