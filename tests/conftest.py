"""Shared graph builders and adjacency probes for the test suite."""

from __future__ import annotations

import itertools

import numpy as np

from majdyn import apply_swing, from_edges, sample_morning


def path_graph(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return from_edges(n, itertools.combinations(range(n), 2))


def star_graph(leaves):
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def empty_graph(n):
    return from_edges(n, [])


def swung_start(n, c, seed):
    """A balanced start with a round(c*sqrt(n)) swing: the morning state
    draws from the first child of ``SeedSequence(seed)``, the swing from
    the second."""
    morning_seed, swing_seed = np.random.SeedSequence(seed).spawn(2)
    return apply_swing(sample_morning(n, morning_seed), c, swing_seed)[0]


class CountingAdjacency:
    """Stands in for a graph's cached adjacency: forwards everything to the
    CSR matrix, and counts its full products ``a @ x`` and, per call, the
    rows that ``a[rows]`` gathers.  Install it with
    ``g.__dict__["_adjacency"] = CountingAdjacency(g._adjacency)``."""

    def __init__(self, a):
        self.a = a
        self.products = 0
        self.gathers: list[int] = []

    def __matmul__(self, x):
        self.products += 1
        return self.a @ x

    def __getitem__(self, rows):
        self.gathers.append(int(np.size(rows)))
        return self.a[rows]

    def __getattr__(self, name):
        return getattr(self.a, name)
