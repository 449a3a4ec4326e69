"""Shared graph builders, adjacency probes and the oracles the fast paths
are checked against."""

from __future__ import annotations

import itertools

import numpy as np

from majdyn import OpinionVector, apply_swing, from_edges, sample_morning


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


def neighbors_of(g, v):
    """The neighbour list of vertex ``v``, a slice of ``g.neighbors``."""
    return g.neighbors[g.offsets[v]:g.offsets[v + 1]]


def mass_at(pmf, k):
    """P[X = k] under the integer law ``pmf``, 0 off its support."""
    i = k - pmf.support_offset
    return float(pmf.masses[i]) if 0 <= i < pmf.masses.size else 0.0


def degree_stats(g):
    """(min degree, max degree, mean degree), read off ``g.degrees``."""
    d = g.degrees
    return int(d.min()), int(d.max()), float(d.mean())


def edges_between(g, u_set, v_set):
    """Ordered-pair edge count e(U, V) = #{(u, v): u in U, v in V, uv an
    edge} over the sets' distinct ids, by a walk of U's neighbour lists;
    an edge inside the overlap of U and V counts once per orientation."""
    v_ids = {int(v) for v in v_set}
    return sum(int(w) in v_ids for u in {int(u) for u in u_set} for w in neighbors_of(g, u))


def neighbor_sum(g, s, v):
    """Exact signed sum of opinions over the neighbours of ``v`` (0 when
    isolated)."""
    return int(s.signs()[neighbors_of(g, v)].sum(dtype=np.int64))


def neighbor_sums(g, s):
    """Every vertex's neighbour sum in int64, from the CSR arrays alone:
    differences of one running sum over the neighbour list, cut at the
    offsets, with no scipy adjacency involved."""
    running = np.concatenate(([0], np.cumsum(s.signs()[g.neighbors], dtype=np.int64)))
    return running[g.offsets[1:]] - running[g.offsets[:-1]]


def majority_step_reference(g, s):
    """The paper's update rule applied one vertex at a time: the sign of the
    neighbour sum, the old opinion on a tie."""
    signs = s.signs()
    out = signs.copy()
    for v in range(g.n):
        t = neighbor_sum(g, s, v)
        if t != 0:
            out[v] = 1 if t > 0 else -1
    return OpinionVector(out)


def positives(s):
    """The number of +1 opinions in ``s``."""
    return int(np.count_nonzero(s.signs() > 0))


def bias(s):
    """The sum of all opinions in ``s``, 2 * positives - n."""
    return 2 * positives(s) - s.n


def hamming(a, b):
    """Vertices on which two opinion vectors of one size differ."""
    assert a.n == b.n
    return int(np.count_nonzero(a.signs() != b.signs()))


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
