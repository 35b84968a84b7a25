"""Inverse sequences of presented shifts connected by sliding block codes.

A sequence is finitely presented: an explicit prefix of levels and codes
plus a tail rule, either ``periodic`` (the last p levels and codes repeat;
the final code in the list wraps level L+1, which equals level L-p+1, onto
level L) or ``identity``, the one-level periodic tail whose code is the
identity and is not stored.

Levels are 1-indexed.  ``code(n)`` maps level n+1 onto level n.  The
central computation is the image chain at a level n: the canonical
presentations of the images of deeper and deeper levels, a descending
chain of subsystems whose stabilization is the finite symptom of the
Mittag-Leffler condition.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .codes import (
    SlidingBlockCode,
    code_from_json,
    code_image,
    code_to_json,
    compose,
    identity_code,
    restrict,
)
from .decomposition import _sccs, restrict_graph_to_cr
from .errors import (
    CannotExtract,
    InternalInvariantViolation,
    Mlc1Required,
    SchemaError,
    TooLarge,
)
from .shift_core import (
    MEMO_SIZE,
    SftGraph,
    Word,
    canonical_presentation,
    common_prefix,
    graph_from_json,
    graph_to_json,
    language_equal,
    language_subset,
    _words,
)

DEFAULT_DEPTH_CAP = 32

# Most tuples one level of a truncated limit may hold.
MAX_LIMIT_POINTS = 10 ** 6

# Deepest image an image chain may fold before it has stabilized: the
# images of a chain that never repeats can grow by a vertex per depth, so
# building them costs the square of the depth.
MAX_CHAIN_DEPTH = 256


@dataclass(frozen=True)
class InverseSequenceSpec:
    """Finitely presented inverse sequence: a plain value with no memo;
    what is derived from it is memoised by value where it is derived."""

    levels: tuple[SftGraph, ...]
    codes: tuple[SlidingBlockCode, ...]
    tail: str = "identity"
    tail_block: int = 1

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

    def _slot(self, n: int) -> int:
        """Index of level n in ``levels`` and of code n in ``codes``."""
        if n < 1:
            raise SchemaError("levels are 1-indexed")
        L = len(self.levels)
        if n <= L:
            return n - 1
        p = self.tail_block if self.tail == "periodic" else 1
        return L - p + (n - L - 1) % p

    def level(self, n: int) -> SftGraph:
        """Level n; past the prefix, the last p levels repeat."""
        return self.levels[self._slot(n)]

    def code(self, n: int) -> SlidingBlockCode:
        """Code n, onto level n; the identity where an identity tail has none."""
        i = self._slot(n)
        return self.codes[i] if i < len(self.codes) else identity_code(self.levels[-1])


def composed_image(seq: InverseSequenceSpec, m: int, n: int,
                   start: Optional[SftGraph] = None) -> SftGraph:
    """Canonical presentation of the image at level n of (a subsystem of)
    level m, folded one code at a time so windows never grow.  The fold
    starts from a canonical presentation, which is safe because
    ``code_image`` depends only on the language of its domain; every step
    is a ``code_image`` memo lookup, so folds from one start share their
    common steps.  For m > n the last step is ``code_image(code(n), .)``,
    so every image at level n has ``code(n)``'s codomain alphabet, and
    two of them present the same language iff they are the same object."""
    if m < n:
        raise SchemaError("need m >= n")
    g = canonical_presentation(start if start is not None else seq.level(m))
    for j in range(m - 1, n - 1, -1):
        g = code_image(seq.code(j), g)
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
    repetition (declared stabilization) or at the cap.  Raises TooLarge
    before folding an image more than ``MAX_CHAIN_DEPTH`` levels below n
    without having stabilized, whatever the cap."""
    if depth_cap < 0:
        raise SchemaError("image chain depth cap must be nonnegative")
    images: list[SftGraph] = []
    stabilized = None
    prev: Optional[SftGraph] = None
    for m in range(n + 1, n + depth_cap + 2):
        if m - n > MAX_CHAIN_DEPTH:
            raise TooLarge("image chain at level %d exceeds depth %d without stabilizing"
                           % (n, MAX_CHAIN_DEPTH))
        img = composed_image(seq, m, n)
        if prev is not None:
            ok, _ = language_subset(img, prev)
            if not ok:
                raise InternalInvariantViolation(
                    "image chain not descending at level %d depth %d" % (n, m))
            if img is prev:
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
        mlc1 = one is two
        witness = chain.stabilized_at
        status = "holds" if witness is not None else "undetermined"
        out.append(MlcLevelReport(n, mlc1, status, witness, chain))
    return MlcReport(tuple(out))


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
        # Code i maps level i + 2, wrapped for a wrap code, onto level i + 1.
        sub = restrict(c, levels[seq._slot(i + 2)])
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
                             depth_cap: int = DEFAULT_DEPTH_CAP) -> ExtractResult:
    """Chase stabilization witnesses: starting from level 1, repeatedly
    jump to the depth at which the image chain of the current level
    stabilizes.  The retained levels, connected by the composed codes,
    form a sequence that is one-step stable everywhere.

    Raises CannotExtract if some chain fails to stabilize within the cap
    or no finite tail presentation is detected.
    """
    max_terms = 8
    kept: list[int] = []
    current = 1
    while len(kept) < max_terms:
        chain = image_chain(seq, current, depth_cap)
        if chain.stabilized_at is None:
            raise CannotExtract(
                "image chain at level %d has no witness within cap" % current)
        nxt = chain.stabilized_at
        kept.append(nxt)
        current = nxt
    # Tail detection over the retained indices.
    L = seq.prefix_length
    levels = [seq.level(i) for i in kept]
    codes = [composed_code(seq, b, a) for a, b in zip(kept, kept[1:])]
    if seq.tail == "identity":
        # Every code from level L on is the identity, so each chain there
        # stabilizes one level down: the first retained level at or past L
        # starts the identity tail.
        cut = next((j for j, k in enumerate(kept) if k >= L), None)
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


@dataclass(frozen=True)
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

    def exponent(self, i: int, j: int) -> float:
        """The k of the distance 2**-k between points i and j: the least
        n + common prefix over the levels n where they differ, and
        ``math.inf`` when they differ nowhere."""
        return min((n + common_prefix(u, v)
                    for n, (u, v) in enumerate(zip(self.points[i], self.points[j]))
                    if u != v), default=math.inf)

    def metric(self, i: int, j: int) -> Fraction:
        """The largest level distance 2**-n * d(level-n words): 2**-k for
        k = ``exponent(i, j)``, and 0 when the points differ nowhere."""
        k = self.exponent(i, j)
        return Fraction(0) if k == math.inf else Fraction(1, 2 ** k)

    def chain_component_ids(self) -> list[int]:
        """Component index per point under the successor relation
        (-1 for points in no cyclic strongly connected part)."""
        n = len(self.points)
        sccs = _sccs(range(n), dict(enumerate(self.successors)))
        comp = [-1] * n
        cid = 0
        keyed = [ids for ids in sccs
                 if len(ids) > 1 or ids[0] in self.successors[ids[0]]]
        keyed.sort()
        for ids in keyed:
            for i in ids:
                comp[i] = cid
            cid += 1
        return comp


def truncated_limit(seq: InverseSequenceSpec, depth: int, word_length: int) -> TruncatedSystem:
    """Exhaustive enumeration of compatible word tuples, joined level by
    level from the deepest one up.  The image of a length-T word under
    ``code(n)`` has length k = max(T - window + 1, 0), and the level-n
    words it admits are those with that image as their length-k prefix; so
    each partial tuple extends by the level-n words under its image, listed
    once per image by a walk from the follower state after it, in sorted
    word order.  Every image lies in the level below, so a tuple extends at
    least once going up; a level is refused, deepest one included, at the
    first word that would take it past MAX_LIMIT_POINTS tuples, and no
    listing runs further.  Raises TooLarge there, and SchemaError for a
    negative word length.  Built once per sequence value, depth, word
    length and cap as it stands at the call; the system is immutable, so
    callers share it."""
    return _limit_truncation(seq, depth, word_length, MAX_LIMIT_POINTS)


@functools.lru_cache(maxsize=MEMO_SIZE)
def _limit_truncation(seq: InverseSequenceSpec, depth: int, word_length: int,
                      max_points: int) -> TruncatedSystem:
    if word_length < 0:
        raise SchemaError("word length must be nonnegative")
    T = word_length
    partial = [(w,) for w in itertools.islice(_words(seq.level(depth), T),
                                              max_points + 1)]
    if len(partial) > max_points:
        raise TooLarge("truncated limit exceeds %d points" % max_points)
    for n in range(depth - 1, 0, -1):
        level, code = seq.level(n), seq.code(n)
        # A listing cut at the room left takes the level past the cap at
        # once, so every listing kept for a later tuple is whole.
        under: dict[Word, list[Word]] = {}
        nxt: list[tuple[Word, ...]] = []
        for tup in partial:
            image = code.word_map(tup[0])
            if image not in under:
                under[image] = list(itertools.islice(
                    _words(level, T, image), max_points + 1 - len(nxt)))
            nxt.extend((w,) + tup for w in under[image])
            if len(nxt) > max_points:
                raise TooLarge("truncated limit exceeds %d points" % max_points)
        partial = nxt
    points = tuple(sorted(partial))
    # The successors of p are the points whose heads are p's tails; indices
    # are filed in point order, so every row is ascending.
    by_head: dict[tuple[Word, ...], list[int]] = {}
    for i, q in enumerate(points):
        by_head.setdefault(tuple(qn[: T - 1] for qn in q), []).append(i)
    succ = tuple(tuple(by_head.get(tuple(pn[1:] for pn in p), ())) for p in points)
    return TruncatedSystem(depth, T, points, succ)


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
        if not isinstance(tail, dict):
            raise SchemaError("sequence tail must be an object")
        mode = str(tail.get("mode", "identity"))
        block = tail.get("block", 1)
        if type(block) is not int:
            raise SchemaError("malformed sequence: tail block must be an integer, not %s"
                              % type(block).__name__)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("malformed sequence: %s" % exc) from exc
    return InverseSequenceSpec(levels, codes, mode, block)
