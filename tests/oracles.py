"""Reference constructions that only the tests call: the cylinder distance
of two words, a finite system built point by point from Python functions,
and the gap-shift entropy by bisection."""

import math
from fractions import Fraction

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
