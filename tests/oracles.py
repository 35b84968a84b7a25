"""Reference constructions that only the tests call: graphs and codes
validated on every call and never interned, the cylinder distance of two
words, a finite system built point by point from Python functions, the
gap-shift entropy by bisection, and entropy with an eigenvalue computation
for every chain component."""

import json
import math
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from shiftlab.codes import SlidingBlockCode, code_image
from shiftlab.decomposition import chain_components, has_positive_entropy
from shiftlab.errors import (
    AlphabetMismatch,
    EmptyShift,
    InvalidAlphabet,
    NotInLanguage,
    SchemaError,
)
from shiftlab.shadow_lab import FiniteSystem
from shiftlab.shift_core import SftGraph, common_prefix, language_subset, word_str


def graph_oracle(vertices, edges, alphabet):
    """An SftGraph built as before graphs were interned: the fields are
    validated on every call, then hashed, and the graph is not filed, so
    it is a separate object from any equal graph."""
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
    g = object.__new__(SftGraph)
    for name, value in (("vertices", vertices), ("edges", edges), ("alphabet", alphabet),
                        ("_hash", hash((vertices, edges, alphabet)))):
        object.__setattr__(g, name, value)
    return g


def code_oracle(domain, codomain, window, rule):
    """A SlidingBlockCode built as before codes were interned: validated on
    every call and not filed."""
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


def twin_graph(g):
    """A graph equal to ``g`` but not ``g``: fresh copies of its fields,
    built by :func:`graph_oracle`, so memo hits on it compare by value."""
    v, e, a = json.loads(json.dumps([g.vertices, g.edges, g.alphabet]))
    return graph_oracle(tuple(v), tuple(map(tuple, e)), tuple(a))


def twin_code(c):
    """A code equal to ``c`` but not ``c``, over twins of its graphs."""
    return code_oracle(twin_graph(c.domain), twin_graph(c.codomain), c.window, dict(c.rule))


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
