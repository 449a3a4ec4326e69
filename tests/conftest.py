"""Shared graph builders for the test suite."""

from __future__ import annotations

import itertools

from majdyn import from_edges


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
