"""Reference constructions that only the tests call: the cylinder distance
of two words, a finite system built point by point from Python functions,
the gap-shift entropy by bisection, and entropy with an eigenvalue
computation for every chain component."""

import math
from fractions import Fraction

import numpy as np

from shiftlab.decomposition import chain_components, has_positive_entropy
from shiftlab.errors import EmptyShift
from shiftlab.shadow_lab import FiniteSystem
from shiftlab.shift_core import common_prefix


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
