"""Inverse sequences of presented shifts connected by sliding block codes.

A sequence is finitely presented: an explicit prefix of levels and codes
plus a tail rule, either ``identity`` (the last level repeats with
identity codes) or ``periodic`` (the last p levels and codes repeat; the
final code in the list wraps level L+1, which equals level L-p+1, onto
level L).

Levels are 1-indexed.  ``code(n)`` maps level n+1 onto level n.  The
central computation is the image chain at a level n: the canonical
presentations of the images of deeper and deeper levels, a descending
chain of subsystems whose stabilization is the finite symptom of the
Mittag-Leffler condition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .codes import (
    SlidingBlockCode,
    code_from_json,
    code_image,
    code_to_json,
    compose,
    identity_code,
    restrict,
)
from .decomposition import Decomposition, chain_components, restrict_graph_to_cr
from .errors import (
    CannotExtract,
    InternalInvariantViolation,
    Mlc1Required,
    SchemaError,
    TooLarge,
)
from .shift_core import (
    SftGraph,
    Word,
    canonical_presentation,
    canonical_signature,
    essential,
    graph_from_json,
    graph_to_json,
    language_equal,
    language_subset,
    word_distance,
    words_of_length,
)

DEFAULT_DEPTH_CAP = 32


@dataclass(frozen=True)
class InverseSequenceSpec:
    """Finitely presented inverse sequence.  ``_memo`` holds its composed
    images, decompositions and identity tail code for its lifetime."""

    levels: tuple[SftGraph, ...]
    codes: tuple[SlidingBlockCode, ...]
    tail: str = "identity"
    tail_block: int = 1
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def __post_init__(self) -> None:
        L = len(self.levels)
        if L == 0:
            raise SchemaError("at least one level required")
        if self.tail not in ("identity", "periodic"):
            raise SchemaError("tail must be 'identity' or 'periodic'")
        if self.tail == "identity":
            if len(self.codes) != L - 1:
                raise SchemaError("identity tail needs exactly L-1 codes")
        else:
            if not (1 <= self.tail_block <= L):
                raise SchemaError("periodic tail block out of range")
            if len(self.codes) != L:
                raise SchemaError("periodic tail needs L codes (last one wraps)")
        for n in range(1, len(self.codes) + 1):
            c = self.codes[n - 1]
            ok_dom, _ = language_equal(c.domain, self.level(n + 1))
            ok_cod, _ = language_subset(code_image(c), self.level(n))
            if not ok_dom:
                raise SchemaError("code %d domain mismatch" % n)
            if not ok_cod:
                raise SchemaError("code %d image leaves level %d" % (n, n))

    @property
    def prefix_length(self) -> int:
        return len(self.levels)

    def level(self, n: int) -> SftGraph:
        L = len(self.levels)
        if n < 1:
            raise SchemaError("levels are 1-indexed")
        if n <= L:
            return self.levels[n - 1]
        if self.tail == "identity":
            return self.levels[L - 1]
        p = self.tail_block
        return self.levels[L - p + ((n - L - 1) % p)]

    def code(self, n: int) -> SlidingBlockCode:
        L = len(self.levels)
        if n < 1:
            raise SchemaError("codes are 1-indexed")
        if self.tail == "identity":
            if n <= L - 1:
                return self.codes[n - 1]
            if "identity_code" not in self._memo:
                self._memo["identity_code"] = identity_code(self.levels[L - 1])
            return self._memo["identity_code"]
        if n <= L:
            return self.codes[n - 1]
        p = self.tail_block
        return self.code(n - p)

    def decomposition(self, n: int) -> Decomposition:
        """Chain components of level n."""
        key = ("decomposition", n)
        if key not in self._memo:
            self._memo[key] = chain_components(self.level(n))
        return self._memo[key]


def composed_image(seq: InverseSequenceSpec, m: int, n: int,
                   start: Optional[SftGraph] = None) -> SftGraph:
    """Canonical presentation of the image at level n of (a subsystem of)
    level m, folded one code at a time so windows never grow.  Each step
    is memoised and a query resumes from the deepest cached step; the
    fold starts from a canonical presentation, which is safe because
    ``code_image`` depends only on the language of its domain."""
    if m < n:
        raise SchemaError("need m >= n")
    memo = seq._memo
    k = n
    while k <= m and (m, k, start) not in memo:
        k += 1
    if k > m:
        k = m
        memo[(m, m, start)] = canonical_presentation(
            start if start is not None else seq.level(m))
    g = memo[(m, k, start)]
    for j in range(k - 1, n - 1, -1):
        g = code_image(seq.code(j), domain=g)
        memo[(m, j, start)] = g
    return g


def composed_code(seq: InverseSequenceSpec, m: int, n: int) -> SlidingBlockCode:
    """The code from level m down to level n (m > n), composed explicitly."""
    if m <= n:
        raise SchemaError("need m > n")
    c = seq.code(n)
    for k in range(n + 1, m):
        c = compose(c, seq.code(k))
    return c


# ---------------------------------------------------------------------------
# Image chains and Mittag-Leffler analysis


@dataclass(frozen=True)
class ImageChainReport:
    level: int
    images: tuple[SftGraph, ...]  # images of levels n+1, n+2, ... at level n
    stabilized_at: Optional[int]  # least depth m with image(m) == image(m+1)

    @property
    def stable_image(self) -> SftGraph:
        if self.stabilized_at is None:
            raise Mlc1Required("image chain did not stabilize within the cap")
        return self.images[self.stabilized_at - self.level - 1]


def image_chain(seq: InverseSequenceSpec, n: int,
                depth_cap: int = DEFAULT_DEPTH_CAP) -> ImageChainReport:
    """Descending chain of images at level n.  Monotonicity is re-verified
    and a violation is an internal error.  The chain is cut at the first
    repetition (declared stabilization) or at the cap."""
    images: list[SftGraph] = []
    stabilized = None
    prev: Optional[SftGraph] = None
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


@dataclass(frozen=True)
class MlcLevelReport:
    level: int
    mlc1: bool
    mlc_status: str           # "holds" | "undetermined"
    witness: Optional[int]    # least m with image(m) = image(m') for m' > m
    chain: ImageChainReport


@dataclass(frozen=True)
class MlcReport:
    levels: tuple[MlcLevelReport, ...]
    depth_cap: int

    @property
    def all_mlc1(self) -> bool:
        return all(r.mlc1 for r in self.levels)

    @property
    def all_witnessed(self) -> bool:
        return all(r.mlc_status == "holds" for r in self.levels)


def check_mlc(seq: InverseSequenceSpec, depth_cap: int = DEFAULT_DEPTH_CAP,
              levels: Optional[Sequence[int]] = None) -> MlcReport:
    """Per-level image-chain analysis over the explicit prefix (or the
    given levels)."""
    idxs = list(levels) if levels is not None else list(range(1, seq.prefix_length + 1))
    out = []
    for n in idxs:
        chain = image_chain(seq, n, depth_cap)
        one = composed_image(seq, n + 1, n)
        two = composed_image(seq, n + 2, n)
        mlc1, _ = language_equal(one, two)
        witness = chain.stabilized_at
        status = "holds" if witness is not None else "undetermined"
        if mlc1 and witness is not None and witness > n + 1:
            # One-step stability must mean the whole chain is already
            # stable; anything else is a bug in the image computation.
            eq, _ = language_equal(one, chain.stable_image)
            if not eq:
                raise InternalInvariantViolation(
                    "one-step image differs from the stable image at level %d" % n)
        out.append(MlcLevelReport(n, mlc1, status, witness, chain))
    return MlcReport(tuple(out), depth_cap)


@dataclass(frozen=True)
class HatReport:
    level: int
    status: str               # "stabilized" | "undetermined"
    depth: Optional[int]
    graph: Optional[SftGraph]


def hat_space(seq: InverseSequenceSpec, n: int,
              depth_cap: int = DEFAULT_DEPTH_CAP) -> HatReport:
    """The eventual image at level n: the stable value of the image chain,
    when it stabilizes within the cap."""
    chain = image_chain(seq, n, depth_cap)
    if chain.stabilized_at is None:
        return HatReport(n, "undetermined", None, None)
    return HatReport(n, "stabilized", chain.stabilized_at, chain.stable_image)


# ---------------------------------------------------------------------------
# Restriction to the chain recurrent part


def restrict_to_cr(seq: InverseSequenceSpec) -> InverseSequenceSpec:
    """Replace every level by its chain recurrent part and restrict the
    codes.  One-step image stability at each prefix level is preserved;
    this is re-verified and a failure is an internal error."""
    levels = tuple(restrict_graph_to_cr(g) for g in seq.levels)
    codes = []
    for i, c in enumerate(seq.codes):
        dom = levels[i + 1] if i + 1 < len(levels) else None
        if dom is None:
            # wrap code of a periodic tail: domain is the wrapped level
            p = seq.tail_block
            dom = levels[len(levels) - p]
        sub = restrict(c, dom)
        codes.append(SlidingBlockCode(sub.domain, levels[i], sub.window, sub.rule))
    out = InverseSequenceSpec(levels, tuple(codes), seq.tail, seq.tail_block)
    before = check_mlc(seq)
    after = check_mlc(out)
    for rb, ra in zip(before.levels, after.levels):
        if rb.mlc1 and not ra.mlc1:
            raise InternalInvariantViolation(
                "one-step stability lost at level %d after restriction" % rb.level)
    return out


# ---------------------------------------------------------------------------
# Subsequence extraction


@dataclass(frozen=True)
class ExtractResult:
    sequence: InverseSequenceSpec
    index_map: tuple[int, ...]


def extract_mlc1_subsequence(seq: InverseSequenceSpec,
                             depth_cap: int = DEFAULT_DEPTH_CAP,
                             max_terms: int = 8) -> ExtractResult:
    """Chase stabilization witnesses: starting from level 1, repeatedly
    jump to the depth at which the image chain of the current level
    stabilizes.  The retained levels, connected by the composed codes,
    form a sequence that is one-step stable everywhere.

    Raises CannotExtract if some chain fails to stabilize within the cap
    or no finite tail presentation is detected.
    """
    kept: list[int] = []
    current = 1
    for _ in range(max_terms + 2):
        chain = image_chain(seq, current, depth_cap)
        if chain.stabilized_at is None:
            raise CannotExtract(
                "image chain at level %d has no witness within cap" % current)
        nxt = chain.stabilized_at
        if nxt <= current:
            nxt = current + 1
        kept.append(nxt)
        current = nxt
        if len(kept) >= max_terms:
            break
    # Tail detection over the retained indices.
    L = seq.prefix_length
    incs = [b - a for a, b in zip(kept, kept[1:])]
    levels = [seq.level(i) for i in kept]
    codes = [composed_code(seq, b, a) for a, b in zip(kept, kept[1:])]
    if seq.tail == "identity":
        # Inside the identity region increments collapse to 1.
        cut = None
        for j in range(len(kept)):
            if kept[j] >= L and all(s == 1 for s in incs[j:]):
                cut = j
                break
        if cut is None:
            raise CannotExtract("no identity tail pattern among retained levels")
        new_levels = tuple(levels[: cut + 1])
        new_codes = tuple(codes[:cut])
        out = InverseSequenceSpec(new_levels, new_codes, "identity")
        return ExtractResult(out, tuple(kept[: cut + 1]))
    p = seq.tail_block
    for j1 in range(len(kept)):
        if kept[j1] <= L:
            continue
        for j2 in range(j1 + 1, len(kept) - 1):
            if (kept[j2] - kept[j1]) % p == 0:
                block = j2 - j1
                new_levels = tuple(levels[:j2])
                new_codes = tuple(codes[:j2])  # last one wraps
                out = InverseSequenceSpec(new_levels, new_codes, "periodic", block)
                return ExtractResult(out, tuple(kept[:j2]))
    raise CannotExtract("no periodic tail pattern among retained levels")


# ---------------------------------------------------------------------------
# Truncated limits


@dataclass
class TruncatedSystem:
    """Finite stand-in for the limit: tuples of admissible words, one per
    level up to the depth, compatible under the word maps (the image of a
    deeper word is a prefix of the word below it).  The shift acts by
    dropping the first symbol of every coordinate; successors of a point
    are the points extending that overlap."""

    depth: int
    word_length: int
    points: tuple[tuple[Word, ...], ...]
    successors: tuple[tuple[int, ...], ...]

    @property
    def index(self) -> dict[tuple[Word, ...], int]:
        return {p: i for i, p in enumerate(self.points)}

    def metric(self, i: int, j: int) -> Fraction:
        a, b = self.points[i], self.points[j]
        best = Fraction(0)
        for n in range(self.depth):
            d = Fraction(1, 2 ** n) * word_distance(a[n], b[n])
            if d > best:
                best = d
        return best

    def chain_component_ids(self) -> list[int]:
        """Component index per point under the successor relation
        (-1 for points in no cyclic strongly connected part)."""
        n = len(self.points)
        from .decomposition import _tarjan_sccs
        arcs = {str(i): [str(j) for j in self.successors[i]] for i in range(n)}
        sccs = _tarjan_sccs([str(i) for i in range(n)], arcs)
        comp = [-1] * n
        cid = 0
        keyed = []
        for verts in sccs:
            ids = [int(v) for v in verts]
            cyclic = len(ids) > 1 or ids[0] in self.successors[ids[0]]
            if cyclic:
                keyed.append(sorted(ids))
        keyed.sort()
        for ids in keyed:
            for i in ids:
                comp[i] = cid
            cid += 1
        return comp


def truncated_limit(seq: InverseSequenceSpec, depth: int, word_length: int,
                    max_points: int = 10 ** 6) -> TruncatedSystem:
    """Exhaustive enumeration of compatible word tuples."""
    T = word_length
    level_words = {n: words_of_length(seq.level(n), T) for n in range(1, depth + 1)}
    partial: list[tuple[Word, ...]] = [(w,) for w in level_words[depth]]
    for n in range(depth - 1, 0, -1):
        code = seq.code(n)
        nxt: list[tuple[Word, ...]] = []
        for tup in partial:
            upper = tup[0]
            det = code.word_map(upper)
            for w in level_words[n]:
                if w[: len(det)] == det[: len(w)]:
                    nxt.append((w,) + tup)
                    if len(nxt) > max_points:
                        raise TooLarge("truncated limit exceeds %d points" % max_points)
        partial = nxt
    points = tuple(sorted(partial))
    succ: list[tuple[int, ...]] = []
    index = {p: i for i, p in enumerate(points)}
    for p in points:
        row = []
        for q in points:
            if all(qn[: T - 1] == pn[1:] for pn, qn in zip(p, q)):
                row.append(index[q])
        succ.append(tuple(row))
    return TruncatedSystem(depth, T, points, tuple(succ))


# ---------------------------------------------------------------------------
# JSON interface


def sequence_to_json(seq: InverseSequenceSpec) -> dict:
    return {
        "levels": [graph_to_json(g) for g in seq.levels],
        "codes": [code_to_json(c) for c in seq.codes],
        "tail": {"mode": seq.tail, "block": seq.tail_block},
    }


def sequence_from_json(data: dict) -> InverseSequenceSpec:
    try:
        levels = tuple(graph_from_json(g) for g in data["levels"])
        codes = tuple(code_from_json(c) for c in data["codes"])
        tail = data.get("tail", {"mode": "identity", "block": 1})
        mode = str(tail.get("mode", "identity"))
        block = int(tail.get("block", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("malformed sequence: %s" % exc) from exc
    return InverseSequenceSpec(levels, codes, mode, block)
