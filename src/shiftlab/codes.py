"""Sliding block codes between presented shift spaces.

A code has a window width w >= 1 and looks only forward: output symbol i
is a function of input symbols i..i+w-1.  Codes carry their domain and
codomain presentations.  The image of a code is read off one exact graph,
the higher block presentation of the domain (vertices are its paths of
w-1 edges, edges its paths of w edges) relabelled through the rule.  A
code is valid when the rule covers every admissible window and its image
language lies in the codomain language; both are checked at construction.
A domain with more than ``MAX_CODE_IMAGE_PATHS`` paths of w-1 edges raises
TooLarge.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .errors import (
    AlphabetMismatch,
    CompositionMismatch,
    NotInLanguage,
    SchemaError,
    TooLarge,
)
from .shift_core import (
    MEMO_SIZE,
    SftGraph,
    SymbolicPoint,
    Word,
    canonical_presentation,
    essential,
    graph_from_json,
    graph_to_json,
    language_subset,
    parse_word,
    point_in_shift,
    word_str,
    words_of_length,
)


# Every live code by value, weakly, as shift_core holds graphs.
_CODES: weakref.WeakValueDictionary[tuple, SlidingBlockCode] = weakref.WeakValueDictionary()


@dataclass(frozen=True, init=False)
class SlidingBlockCode:
    """``rule`` is stored as a read-only copy, so a validated code cannot
    change; it takes part in equality but not in the hash.

    Codes are interned by value, keyed by (domain, codomain, window, rule
    items), as graphs are: building a code equal to a live one returns
    that one, so a value is validated once while a code of it lives.
    ``__new__`` looks the value up; ``__init__`` validates a new code, so
    a span around ``__init__`` still times validation, and files it only
    if it is valid.  Copies and pickles are rebuilt through the
    constructor, so they return the interned code.
    """

    domain: SftGraph
    codomain: SftGraph
    window: int
    rule: Mapping[Word, str] = field(hash=False)
    # Set only on a code fresh from __new__, until __init__ files it.
    _key = None

    def __new__(cls, domain: SftGraph, codomain: SftGraph, window: int,
                rule: Mapping[Word, str]) -> SlidingBlockCode:
        rule = dict(rule)
        try:
            key = (domain, codomain, window, frozenset(rule.items()))
        except TypeError:
            _check_rule(codomain, window, rule)  # an unhashable output is no symbol: it raises
            raise
        code = _CODES.get(key)
        if code is None:
            code = object.__new__(cls)
            object.__setattr__(code, "domain", domain)
            object.__setattr__(code, "codomain", codomain)
            object.__setattr__(code, "window", window)
            object.__setattr__(code, "rule", MappingProxyType(rule))
            object.__setattr__(code, "_key", key)
        return code

    def __init__(self, domain: SftGraph, codomain: SftGraph, window: int,
                 rule: Mapping[Word, str]) -> None:
        key = self._key
        if key is not None:
            object.__delattr__(self, "_key")
            _check_rule(self.codomain, self.window, self.rule)
            _check_well_defined(self)
            _CODES[key] = self

    def __reduce__(self):
        return SlidingBlockCode, (self.domain, self.codomain, self.window, dict(self.rule))

    def word_map(self, word: Sequence[str]) -> Word:
        """Image of a finite word; shortens by window-1."""
        w = tuple(word)
        out = []
        for i in range(len(w) - self.window + 1):
            key = w[i:i + self.window]
            if key not in self.rule:
                raise NotInLanguage("no rule for block %r" % (key,))
            out.append(self.rule[key])
        return tuple(out)

    def __repr__(self) -> str:
        return "SlidingBlockCode(window=%d, rule=%d blocks)" % (self.window, len(self.rule))


def _check_rule(codomain: SftGraph, window: int, rule: Mapping[Word, str]) -> None:
    if window < 1:
        raise SchemaError("window must be >= 1")
    for w, s in rule.items():
        if len(w) != window:
            raise SchemaError("rule key %r has wrong length" % (w,))
        if s not in codomain.alphabet:
            raise AlphabetMismatch("rule output %r not in codomain alphabet" % s)


def _check_well_defined(code: SlidingBlockCode) -> None:
    """The image must lie in the codomain; ``code_image`` itself raises
    when the rule misses an admissible window."""
    ok, witness = language_subset(code_image(code), code.codomain)
    if not ok:
        raise NotInLanguage("image leaves the codomain language at word %s"
                            % word_str(witness or ()))


@functools.lru_cache(maxsize=MEMO_SIZE)
def identity_code(g: SftGraph) -> SlidingBlockCode:
    return SlidingBlockCode(g, g, 1, {(a,): a for a in g.alphabet})


def symbol_code(domain: SftGraph, codomain: SftGraph, mapping: dict[str, str]) -> SlidingBlockCode:
    return SlidingBlockCode(domain, codomain, 1,
                            {(a,): b for a, b in mapping.items()})


def apply_code(code: SlidingBlockCode, x: SymbolicPoint) -> SymbolicPoint:
    """Image of an eventually periodic point: preperiod and period lengths
    are preserved (the window slides into the periodic tail)."""
    if not point_in_shift(code.domain, x):
        raise NotInLanguage("point %s is not in the domain" % x)
    pre = len(x.preperiod)
    per = len(x.period)
    need = pre + per + code.window - 1
    word = x.expand(need)
    img = code.word_map(word)
    return SymbolicPoint(img[:pre], img[pre:pre + per])


def compose(outer: SlidingBlockCode, inner: SlidingBlockCode) -> SlidingBlockCode:
    """outer after inner, window w1 + w2 - 1.  Requires the image of the
    inner code to land inside the outer domain."""
    ok, witness = language_subset(code_image(inner), outer.domain)
    if not ok:
        raise CompositionMismatch(
            "inner image is not contained in outer domain; witness %s"
            % word_str(witness or ()))
    w = inner.window + outer.window - 1
    rule = {}
    for block in words_of_length(essential(inner.domain), w):
        rule[block] = outer.rule[inner.word_map(block)]
    return SlidingBlockCode(inner.domain, outer.codomain, w, rule)


# code_image lists every path of window - 1 edges of the domain, and a
# non-deterministic domain has far more paths than words; listing stops with
# TooLarge past this many.
MAX_CODE_IMAGE_PATHS = 1 << 16


@functools.lru_cache(maxsize=MEMO_SIZE)
def code_image(code: SlidingBlockCode, domain: Optional[SftGraph] = None) -> SftGraph:
    """Canonical presentation of the image of the (restricted) domain:
    relabel the higher block presentation of its essential part through
    the rule, then determinize and minimize.  A path of k >= 1 edges is
    named by its edge indices and the 0-edge path at a vertex by the
    vertex, so a window-1 image relabels the domain graph itself.  Built
    once per (code, domain) value.  Raises TooLarge as soon as more than
    ``MAX_CODE_IMAGE_PATHS`` paths of one length are listed."""
    dom = essential(domain if domain is not None else code.domain)
    # Paths of w-1 edges by last vertex, each as (edge indices, label word).
    ending = {v: [((), ())] for v in dom.vertices}
    for _ in range(code.window - 1):
        grown: dict[str, list] = {v: [] for v in dom.vertices}
        listed = 0
        for i, (u, v, a) in enumerate(dom.edges):
            grown[v].extend((p + (i,), word + (a,)) for p, word in ending[u])
            listed += len(ending[u])
            if listed > MAX_CODE_IMAGE_PATHS:
                raise TooLarge("code image exceeds %d domain paths"
                               % MAX_CODE_IMAGE_PATHS)
        ending = grown

    def name(path: tuple[int, ...], vertex: str) -> str:
        return ".".join(map(str, path)) if path else vertex

    edges = []
    for i, (u, v, a) in enumerate(dom.edges):
        for p, word in ending[u]:
            block = word + (a,)
            if block not in code.rule:
                raise NotInLanguage("rule missing admissible block %r" % (block,))
            edges.append((name(p, u), name((p + (i,))[1:], v), code.rule[block]))
    vertices = tuple(name(p, v) for v, paths in ending.items() for p, _w in paths)
    labeled = SftGraph(vertices, tuple(dict.fromkeys(edges)), code.codomain.alphabet)
    return canonical_presentation(labeled)


def restrict(code: SlidingBlockCode, subdomain: SftGraph) -> SlidingBlockCode:
    """Same rule on a smaller domain; the subdomain language must be
    contained in the original domain language."""
    ok, witness = language_subset(subdomain, code.domain)
    if not ok:
        raise CompositionMismatch(
            "restriction target is not a subsystem; witness %s"
            % word_str(witness or ()))
    sub = essential(subdomain)
    rule = {b: code.rule[b] for b in words_of_length(sub, code.window)}
    return SlidingBlockCode(sub, code.codomain, code.window, rule)


# ---------------------------------------------------------------------------
# JSON interface


def code_to_json(code: SlidingBlockCode) -> dict:
    return {
        "window": code.window,
        "rule": {word_str(w): s for w, s in sorted(code.rule.items())},
        "domain": graph_to_json(code.domain),
        "codomain": graph_to_json(code.codomain),
    }


def code_from_json(data: dict) -> SlidingBlockCode:
    try:
        window = int(data["window"])
        if not isinstance(data["rule"], dict):
            raise SchemaError("malformed code: rule must be an object")
        # A window-1 key is one symbol, even when that symbol has several
        # characters: parse_word would split it.
        rule = {(str(k),) if window == 1 else parse_word(str(k)): str(v)
                for k, v in data["rule"].items()}
        domain = graph_from_json(data["domain"])
        codomain = graph_from_json(data["codomain"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("malformed code: %s" % exc) from exc
    return SlidingBlockCode(domain, codomain, window, rule)
