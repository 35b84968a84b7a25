"""Fixture builders: the one prefixed union reproduces the three unions it
replaced, value for value."""

import random

from hypothesis import given, settings, strategies as st

from shiftlab.fixtures import disjoint_union, random_graph
from shiftlab.shift_core import SftGraph


def _lr_union_oracle(a, b):
    av = tuple("L." + v for v in a.vertices)
    bv = tuple("R." + v for v in b.vertices)
    ae = tuple(("L." + u, "L." + v, s) for (u, v, s) in a.edges)
    be = tuple(("R." + u, "R." + v, s) for (u, v, s) in b.edges)
    alphabet = tuple(sorted(set(a.alphabet) | set(b.alphabet)))
    return SftGraph(av + bv, ae + be, alphabet)


def _plain_union_oracle(a, b):
    alphabet = tuple(sorted(set(a.alphabet) | set(b.alphabet)))
    return SftGraph(a.vertices + b.vertices, a.edges + b.edges, alphabet)


def _rename_union_oracle(a, b):
    bv = tuple("u." + v for v in b.vertices)
    be = tuple(("u." + u, "u." + v, s) for (u, v, s) in b.edges)
    alphabet = tuple(sorted(set(a.alphabet) | set(b.alphabet)))
    return SftGraph(a.vertices + bv, a.edges + be, alphabet)


class TestDisjointUnion:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10 ** 6), st.integers(1, 4))
    def test_matches_old_unions(self, seed, nv):
        rng = random.Random(seed)
        a = random_graph(rng, max_vertices=nv, prefix="t")
        b = random_graph(rng, symbols="0123", max_vertices=nv, prefix="x")
        assert disjoint_union(a, b) == _lr_union_oracle(a, b)
        assert disjoint_union(a, b, "", "") == _plain_union_oracle(a, b)
        assert disjoint_union(a, b, "", "u.") == _rename_union_oracle(a, b)
