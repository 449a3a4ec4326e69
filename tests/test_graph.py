"""Graph construction, sampling, discrepancy, and serialization tests.

Expected values for the sampler come from closed-form binomial moments of
the edge count; everything structural is checked against the invariants
directly.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import re
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph, degree_stats, edges_between, empty_graph, neighbors_of, path_graph, star_graph,
)
from majdyn import graph as graph_module
from majdyn import (
    Graph,
    OpinionVector,
    estimate_jumbledness,
    from_edges,
    load_graph,
    majority_step,
    sample_gnp,
    save_graph,
)


# magic, u32 version, u64 n, u64 edge count
_HEADER_BYTES = 28


def csr_digest(g):
    # offsets at the dump's width, so the digest pins the graph, not the
    # in-memory index dtype
    return hashlib.sha256(g.offsets.astype(np.int64).tobytes() + g.neighbors.tobytes()).hexdigest()


class TestSampleGnp:
    def test_p_zero_is_empty(self):
        g = sample_gnp(5, 0.0, 0)
        assert g.edge_count == 0
        assert g.n == 5

    def test_p_one_is_complete(self):
        g = sample_gnp(5, 1.0, 0)
        assert g.edge_count == 10
        assert degree_stats(g) == (4, 4, 4.0)

    def test_single_vertex(self):
        g = sample_gnp(1, 0.5, 3)
        assert g.edge_count == 0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sample_gnp(0, 0.5, 0)
        with pytest.raises(ValueError):
            sample_gnp(10, -0.1, 0)
        with pytest.raises(ValueError):
            sample_gnp(10, 1.5, 0)

    def test_n_is_held_to_int32_vertex_ids(self):
        # each call fails on n alone, before any array is allocated
        assert graph_module.MAX_VERTICES == 2**31 == np.iinfo(np.int32).max + 1
        for make in (lambda n: sample_gnp(n, 0.1, 0), lambda n: Graph(n, [], [])):
            with pytest.raises(ValueError, match=r"^n must lie in 1\.\.2147483648, got 2147483649$"):
                make(2**31 + 1)

    @pytest.mark.parametrize("n", [5.5, 100.0, True, np.True_, "7"],
                             ids=["fraction", "whole-float", "bool", "numpy-bool", "string"])
    def test_n_must_be_an_integer(self, monkeypatch, n):
        # a cast would build a graph on int(n) vertices; each call fails on n
        # alone, before a generator or the row builder is reached
        def unreached(*args):
            raise AssertionError("an allocation was reached")

        monkeypatch.setattr(np.random, "default_rng", unreached)
        monkeypatch.setattr(graph_module, "_upper_rows", unreached)
        for make in (lambda: sample_gnp(n, 0.1, 0), lambda: Graph(n, [], []),
                     lambda: from_edges(n, [])):
            with pytest.raises(ValueError, match="^n must be an integer, got "):
                make()

    def test_n_may_be_a_numpy_integer(self):
        for g in (Graph(np.int64(3), [0, 1, 3, 4], [1, 0, 2, 1]),
                  from_edges(np.uint32(3), [(0, 1), (1, 2)])):
            assert (g.n, g.neighbors.tolist()) == (3, [1, 0, 2, 1])
        assert sample_gnp(np.int32(3), 1.0, 0).edge_count == 3
        # n * (n - 1) and n * n would wrap in int32 from n = 46341 on
        assert csr_digest(sample_gnp(np.int32(50_000), 1e-5, 4)) == csr_digest(sample_gnp(50_000, 1e-5, 4))
        assert csr_digest(from_edges(np.int32(50_000), [(0, 49_999)])) == csr_digest(
            from_edges(50_000, [(0, 49_999)]))

    def test_deterministic_per_seed(self):
        a = sample_gnp(500, 0.02, 99)
        b = sample_gnp(500, 0.02, 99)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.neighbors, b.neighbors)
        c = sample_gnp(500, 0.02, 100)
        assert not (
            np.array_equal(a.offsets, c.offsets) and np.array_equal(a.neighbors, c.neighbors)
        )

    def test_edge_count_in_binomial_window(self):
        # the edge count is Binomial(n(n-1)/2, p); stay within 5 sigma
        n, p = 10**4, 0.01
        total = n * (n - 1) // 2
        mean = total * p
        sigma = math.sqrt(total * p * (1.0 - p))
        m = sample_gnp(n, p, 7).edge_count
        assert abs(m - mean) <= 5.0 * sigma

    def test_edge_count_mean_over_seeds(self):
        n, p, reps = 2000, 0.01, 100
        total = n * (n - 1) // 2
        mean = total * p
        sigma = math.sqrt(total * p * (1.0 - p))
        avg = np.mean([sample_gnp(n, p, s).edge_count for s in range(reps)])
        assert abs(avg - mean) <= 4.0 * sigma / math.sqrt(reps)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=40),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_structural_invariants(self, n, p, seed):
        g = sample_gnp(n, p, seed)
        g.validate()
        degs = g.degrees
        assert int(degs.sum()) == 2 * g.edge_count
        # symmetry spot check through the public API
        for v in range(g.n):
            for u in neighbors_of(g, v):
                assert v in neighbors_of(g, int(u))


class TestSamplerDigests:
    """The exact bytes of sampled graphs, pinned so any change to the
    sampler's draws or its CSR assembly shows up."""

    @pytest.mark.parametrize(
        "n, p, seed, digest",
        [
            (2, 1.0, 0, "359ad77c04cfcb7e9de6cca919c4924ff161d0dbdedbc0e20211649dc3b9ad99"),
            (300, 1.0, 1, "5f230967beec171b52440ffbd3d9e41c5df7c0ac83674736b8f3b7d52e3a4c90"),
            (1000, 1e-9, 2, "6ef7cad281b0f497955a2b3ee60c8285fcc186eec9b6aae6d0af7bbb115366de"),
            (5000, 0.01, 3, "3f9a49e68bf99094d734cd5689a304ff397a4b81fbac580a0f09b6e701d28469"),
            (20000, 1e-3, 4, "5b52dbf5d789682bd04d5f6daa50554decc8dbad40237f6e1d2c16c388d9d06b"),
        ],
    )
    def test_sample_gnp_bytes(self, n, p, seed, digest):
        assert csr_digest(sample_gnp(n, p, seed)) == digest

    def test_from_edges_shuffled_bytes(self):
        g = sample_gnp(400, 0.05, 5)
        rows = np.repeat(np.arange(g.n), g.degrees)
        pairs = np.stack([rows, g.neighbors], axis=1)
        pairs = pairs[pairs[:, 0] < pairs[:, 1]]
        rng = np.random.default_rng(11)
        pairs = pairs[rng.permutation(len(pairs))]
        flip = rng.random(len(pairs)) < 0.5
        pairs[flip] = pairs[flip][:, ::-1]
        h = from_edges(g.n, pairs.tolist())
        assert csr_digest(h) == "1301225bbc025016376686b74139300000b4e922550bf59aa571dca0d26c09f4"


def _zero_stream():
    """An MT19937 generator whose state is all zeros: every draw is 0, so
    every skip gap is 1 and the first block never reaches the last pair."""
    rng = np.random.Generator(np.random.MT19937())
    rng.bit_generator.state = {"bit_generator": "MT19937",
                               "state": {"key": np.zeros(624, dtype=np.uint32), "pos": 624}}
    return rng


def _count_draws(monkeypatch) -> list:
    """The size of each block of gaps the sampler draws from now on."""
    sizes, source = [], graph_module._gap_source

    def counting(*args):
        draw = source(*args)

        def counted(k):
            sizes.append(k)
            return draw(k)

        return counted

    monkeypatch.setattr(graph_module, "_gap_source", counting)
    return sizes


class TestBlockedSampler:
    """The blocked pass draws one ``rng.geometric`` stream, builds the graph
    of that stream whatever its block sizes, and leaves a passed-in
    Generator after the block that crosses the last pair."""

    @pytest.mark.parametrize("p", [
        5e-324, 1e-300, 1e-12, 2e-5, 0.1, float(np.nextafter(1 / 3, 0)), 1 / 3, 0.5, 1 - 1e-16, 1.0,
    ])
    def test_gap_draws_equal_clipped_geometric(self, p):
        total = 10**12
        size = 2 * graph_module._GAP_BLOCK + 7
        step = graph_module._GAP_BLOCK
        draw = graph_module._gap_source(np.random.default_rng(8), p, total, step)
        # each draw reuses one buffer, so it is copied out before the next
        got = np.concatenate([draw(min(step, size - at)).astype(np.int64) for at in range(0, size, step)])
        want = np.clip(np.random.default_rng(8).geometric(p, size=size), 1, total + 1)
        assert np.array_equal(got, want)

    # (n, p, seed, edges, CSR digest, the Generator's next random()) after
    # the block that crosses the last pair
    PINNED = [
        (2000, 0.01, 21, 19788, "1cd87e42b332e095ee90b077627c8ebd7d8cd739b208b34fdff4aa17b848f6c7",
         0.3411160616252513),
        (3000, 0.2, 22, 900610, "92892d52ef7230e1ac6d488f191f1b214cbc2a17b745a885e93ed2dd51b1b0cb",
         0.7205499562497995),  # four gap blocks
        (3000, 1e-8, 23, 0, "5b8ddb0d04d810ce46365f950e5e2fa4965527856af8873a492ac48e8df9654b",
         0.8283282979898389),
        (500, 0.5, 24, 62382, "f2cb71e42444090adce614d51bb69221478146461c9735aaba7c19cc335fe1c2",
         0.6602819891887399),
        (400, 1 / 3, 25, 26670, "92b6ae997c786f530ca3db0d6cc355b5fe50dae1474ef59de79923c502bbfc93",
         0.8970237257467281),
        (300, 1.0, 26, 44850, "5f230967beec171b52440ffbd3d9e41c5df7c0ac83674736b8f3b7d52e3a4c90",
         0.828234638938163),  # total + 1 gaps
    ]

    @pytest.mark.parametrize("n, p, seed, edges, digest, after", PINNED)
    def test_graph_and_generator_state_pinned(self, n, p, seed, edges, digest, after):
        rng = np.random.default_rng(seed)
        g = sample_gnp(n, p, rng)
        assert g.edge_count == edges
        assert csr_digest(g) == digest
        assert rng.random() == after

    @pytest.mark.parametrize("n, p, pos", [(100, 1e-6, 156), (100, 0.5, 278), (400, 1e-300, 156),
                                           (1000, 1e-8, 284)])
    def test_many_chunks(self, monkeypatch, n, p, pos):
        # every gap is 1, so the pairs take a small first block and then
        # blocks twice the last until the last pair; ``pos`` is where those
        # blocks left MT19937, and doubling keeps them few
        sizes = _count_draws(monkeypatch)
        rng = _zero_stream()
        g = sample_gnp(n, p, rng)
        assert g.edge_count == n * (n - 1) // 2
        assert csr_digest(g) == csr_digest(complete_graph(n))
        assert rng.bit_generator.state["state"]["pos"] == pos
        assert len(sizes) <= 20

    @pytest.mark.parametrize("block", [4, 1000, None], ids=["4", "1000", "default"])
    @pytest.mark.parametrize("n, p", [(200, 0.03), (90, 0.3), (90, 0.6), (40, 1.0)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gap_block_never_changes_the_graph(self, monkeypatch, block, n, p, seed):
        # the graph of one clipped rng.geometric stream: total + 1 gaps always
        # pass the last pair, and the pairs come in triu_indices order
        total = n * (n - 1) // 2
        gaps = np.clip(np.random.default_rng(seed).geometric(p, size=total + 1), 1, total + 1)
        lin = np.cumsum(gaps) - 1
        lin = lin[lin < total]
        rows, cols = np.triu_indices(n, 1)
        want = from_edges(n, zip(rows[lin], cols[lin]))
        if block is not None:
            monkeypatch.setattr(graph_module, "_GAP_BLOCK", block)
        assert csr_digest(sample_gnp(n, p, seed)) == csr_digest(want)

    def test_peak_memory_within_three_outputs(self):
        sample_gnp(200, 0.05, 0)
        tracemalloc.start()
        try:
            g = sample_gnp(10_000, 0.05, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * (g.offsets.nbytes + g.neighbors.nbytes)

    def test_tiny_p_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = sample_gnp(1000, 1e-300, 0)
        assert g.edge_count == 0

    @pytest.mark.parametrize("p", [5e-324, 1e-300, 1e-18, 5e-18, 1e-16])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pair_indices_exact_near_int64(self, monkeypatch, p, seed):
        # n = 2e9: a block of gaps capped at total + 1 sums past int64, so
        # the wrapped cumsum must not reach the indices; no n-sized array is
        # built, only the pair indices, against Python integers
        n = 2 * 10**9
        total = n * (n - 1) // 2
        expect = total * p
        first = int(expect + 10.0 * math.sqrt(expect + 1.0)) + 16  # as sample_gnp sizes it
        sizes = _count_draws(monkeypatch)
        rng = np.random.default_rng(seed)
        got = [int(v) for block in graph_module._pair_blocks(rng, p, total, first) for v in block]
        # the same stream one gap at a time, up to the gap that passes the last pair
        ref = np.random.default_rng(seed)
        want, pos, used = [], 0, 0
        while pos <= total:
            pos += int(np.clip(ref.geometric(p), 1, total + 1))
            used += 1
            if pos <= total:
                want.append(pos - 1)
        assert got == want
        assert all(0 <= v < total for v in got)
        # the last block drawn holds that gap, and the generator stops after it
        assert sum(sizes[:-1]) < used <= sum(sizes)
        ref.geometric(p, size=sum(sizes) - used)
        assert rng.random() == ref.random()

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=60),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        order=st.randoms(use_true_random=False),
    )
    def test_from_edges_rebuilds_the_sample(self, n, p, seed, order):
        g = sample_gnp(n, p, seed)
        edges = [(u, int(v)) if order.random() < 0.5 else (int(v), u)
                 for u in range(n) for v in neighbors_of(g, u) if u < v]
        order.shuffle(edges)
        h = from_edges(n, edges)
        assert np.array_equal(h.offsets, g.offsets)
        assert np.array_equal(h.neighbors, g.neighbors)


class TestSamplerLaw:
    """Each pair of G(n, p) is present with probability p, over many fixed
    seeds: the law itself, wherever the crossing of the last pair falls and
    whichever gap source draws the skips, not only the pinned bytes."""

    N = 9  # 36 pairs, the last of each row at linear index ROW_ENDS[u]
    ROW_ENDS = np.cumsum(np.arange(N - 1, 0, -1)) - 1
    SEEDS = 2000

    @classmethod
    def _presence(cls, mode: str, p: float, seed: int) -> np.ndarray:
        """Indicator of each pair, in lexicographic order, for one seed."""
        total = cls.N * (cls.N - 1) // 2
        if mode == "pairs":
            # the raw indices, from a first block sized as sample_gnp sizes
            # it; each block is a view of one reused buffer, so it is copied out
            first = int(total * p + 10.0 * math.sqrt(total * p + 1.0)) + 16
            blocks = graph_module._pair_blocks(np.random.default_rng(seed), p, total, first)
            lin = np.concatenate([block.copy() for block in blocks])
            hit = np.zeros(total, dtype=bool)
            hit[lin] = True
            return hit
        g = sample_gnp(cls.N, p, seed)
        dense = np.zeros((cls.N, cls.N), dtype=bool)
        dense[np.repeat(np.arange(cls.N), g.degrees), g.neighbors] = True
        return dense[np.triu_indices(cls.N, 1)]

    # below p = 1/3 the gaps come from inverted exponentials, from 1/3 up
    # from rng.geometric
    @pytest.mark.parametrize("p", [0.15, 0.6])
    # one block, or 4-gap blocks: the crossing falls in a later one and
    # nothing after it is drawn, in the graph and in the raw indices
    @pytest.mark.parametrize("mode, block", [("graph", None), ("graph", 4), ("pairs", 4)])
    def test_each_pair_present_with_probability_p(self, monkeypatch, mode, block, p):
        if block is not None:
            monkeypatch.setattr(graph_module, "_GAP_BLOCK", block)
        hits = np.array([self._presence(mode, p, seed) for seed in range(self.SEEDS)])
        assert self.ROW_ENDS[-1] == hits.shape[1] - 1  # the last pair ends the last row
        # every pair, the row ends and the last pair among them
        freq = hits.mean(axis=0)
        assert np.all(np.abs(freq - p) <= 5.0 * math.sqrt(p * (1.0 - p) / self.SEEDS)), freq
        # the pair that opens the next row is independent of the row's end
        both = (hits[:, self.ROW_ENDS[:-1]] & hits[:, self.ROW_ENDS[:-1] + 1]).mean(axis=0)
        assert np.all(np.abs(both - p * p) <= 5.0 * math.sqrt(p * p * (1.0 - p * p) / self.SEEDS))


def _two_threads(monkeypatch, cpus=(0, 1)):
    """Every graph from now on is sampled and assembled as one of at least
    ``_THREAD_ENTRIES`` entries, with ``cpus`` the CPUs this process may use."""
    monkeypatch.setattr(graph_module, "_THREAD_ENTRIES", 0)
    monkeypatch.setattr(graph_module.os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


class TestTwoThreads:
    """The second thread changes no byte: the gaps drawn a block ahead and the
    two row bands built at once give the inline graph and leave a passed-in
    Generator where the inline pass does."""

    def test_a_thread_only_for_big_graphs_and_two_cpus(self, monkeypatch):
        with graph_module._second_thread(graph_module._THREAD_ENTRIES - 1) as pool:
            assert pool is None
        # the process's own affinity mask, one CPU under ``taskset -c 0``
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        with graph_module._second_thread(graph_module._THREAD_ENTRIES) as pool:
            assert (pool is not None) == (cpus >= 2)
        _two_threads(monkeypatch, cpus=(0,))
        with graph_module._second_thread(10**9) as pool:
            assert pool is None
        _two_threads(monkeypatch)
        with graph_module._second_thread(0) as pool:
            assert pool is not None
            assert pool.submit(threading.get_ident).result(timeout=60) != threading.get_ident()

    @pytest.mark.parametrize("n, p, seed, edges, digest, after", TestBlockedSampler.PINNED)
    def test_pinned_graphs_and_generator_states(self, monkeypatch, n, p, seed, edges, digest, after):
        _two_threads(monkeypatch)
        rng = np.random.default_rng(seed)
        g = sample_gnp(n, p, rng)
        assert (g.edge_count, csr_digest(g), rng.random()) == (edges, digest, after)

    @pytest.mark.parametrize("block", [1024, None], ids=["1024", "default"])
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 2000])
    @pytest.mark.parametrize("p", [0.0, 0.15, 0.6, 1.0])
    def test_same_graph_and_generator_state_as_inline(self, monkeypatch, block, n, p):
        if block is not None:
            monkeypatch.setattr(graph_module, "_GAP_BLOCK", block)
        want_rng = np.random.default_rng(31)
        want = sample_gnp(n, p, want_rng)
        _two_threads(monkeypatch)
        rng = np.random.default_rng(31)
        g = sample_gnp(n, p, rng)
        assert csr_digest(g) == csr_digest(want)
        assert rng.random() == want_rng.random()

    def test_many_handoffs_under_a_short_switch_interval(self, monkeypatch):
        # about 300 blocks handed between the threads, with the interpreter
        # switching between them as often as it can
        monkeypatch.setattr(graph_module, "_GAP_BLOCK", 16)
        want = [csr_digest(sample_gnp(300, 0.1, seed)) for seed in range(3)]
        _two_threads(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [csr_digest(sample_gnp(300, 0.1, seed)) for seed in range(3)]
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_from_edges(self, monkeypatch):
        _two_threads(monkeypatch)
        TestSamplerDigests().test_from_edges_shuffled_bytes()
        for n in (1, 2, 3):
            g = from_edges(n, [])
            assert (g.offsets.tolist(), g.neighbors.size) == ([0] * (n + 1), 0)

    def test_a_failed_draw_propagates_and_no_thread_is_left(self, monkeypatch):
        # the first block is drawn on this thread, every later one on the pool's
        monkeypatch.setattr(graph_module, "_GAP_BLOCK", 16)
        source, drawn_on = graph_module._gap_source, []

        def failing(*args):
            draw = source(*args)

            def second_fails(k):
                drawn_on.append(threading.get_ident())
                if len(drawn_on) == 2:
                    raise RuntimeError("draw failed")
                return draw(k)

            return second_fails

        monkeypatch.setattr(graph_module, "_gap_source", failing)
        _two_threads(monkeypatch)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^draw failed$"):
            sample_gnp(200, 0.1, 0)
        assert threading.active_count() == before
        assert drawn_on[0] == threading.get_ident() != drawn_on[1]

    @pytest.mark.parametrize("threads", [False, True], ids=["inline", "two-threads"])
    def test_int64_index_arrays_give_the_same_bytes(self, monkeypatch, threads):
        # int64 is the index dtype from 2**31 entries on, too many to build here
        monkeypatch.setattr(graph_module, "_index_dtype", lambda size: np.int64)
        if threads:
            _two_threads(monkeypatch)
        n, p, seed, edges, digest, after = TestBlockedSampler.PINNED[0]
        rng = np.random.default_rng(seed)
        g = sample_gnp(n, p, rng)
        assert g.offsets.dtype == np.int64
        assert (g.edge_count, csr_digest(g), rng.random()) == (edges, digest, after)
        h = from_edges(4, [(2, 1), (0, 3), (0, 1)])
        assert (h.offsets.tolist(), h.neighbors.tolist()) == ([0, 2, 4, 5, 6], [1, 3, 0, 2, 1, 0])


class TestFromEdges:
    def test_builds_sorted_adjacency(self):
        g = from_edges(4, [(2, 1), (0, 3), (0, 1)])
        g.validate()
        assert list(neighbors_of(g, 0)) == [1, 3]
        assert list(neighbors_of(g, 1)) == [0, 2]
        assert g.edge_count == 3

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            from_edges(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            from_edges(3, [(0, 3)])

    @pytest.mark.parametrize("edges", [
        [(0, 1, 2), (3, 4, 5)],  # a blind reshape would re-pair them as 0-1, 2-3, 4-5
        [0, 1, 2, 3],  # and read a flat list as two edges
        np.arange(8).reshape(2, 2, 2),
    ], ids=["triples", "flat", "array-3d"])
    def test_rejects_edges_that_are_not_pairs(self, edges):
        with pytest.raises(ValueError, match=r"edges must be \(u, v\) pairs"):
            from_edges(6, edges)

    @pytest.mark.parametrize("edges", [
        [(0.5, 1.7)],  # a cast would truncate to the edge 0-1
        [(True, 2)],  # numpy reads the bool as 1
        [(np.True_, 2)],
        [(True, False)],
        [("0", "2")],
        [(0, 2**70)],  # past int64
        np.array([[0.0, 1.0]]),
    ], ids=["floats", "bool", "numpy-bool", "bools", "strings", "big-int", "float-array"])
    def test_rejects_endpoints_that_are_not_integers(self, edges):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            from_edges(3, edges)

    @pytest.mark.parametrize("edges", [[(0, True)], [(0, 1), (np.True_, 2)]],
                             ids=["bool-beside-int", "numpy-bool-in-a-later-row"])
    def test_names_a_bool_beside_an_int(self, edges):
        # numpy reads such a list as int64, so the message names the bool
        with pytest.raises(ValueError, match="^edge endpoints must be integers, got a bool$"):
            from_edges(3, edges)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (2, 1)],
        np.array([[0, 1], [2, 1]], dtype=np.uint32),
        np.array([[0, 1], [2, 1]], dtype=np.int64),
        iter([(np.int16(0), np.int16(1)), (2, 1)]),
    ], ids=["list", "uint32-array", "int64-array", "iterator"])
    def test_accepts_integer_pairs_of_any_integer_type(self, edges):
        g = from_edges(3, edges)
        assert (g.offsets.tolist(), g.neighbors.tolist()) == ([0, 1, 3, 4], [1, 0, 2, 1])

    def test_bounds_n_before_it_allocates(self, monkeypatch):
        # the row builder allocates n + 1 row starts, so it must not be
        # reached with an n past 2**31
        def unreached(*args):
            raise AssertionError("_upper_rows reached")

        monkeypatch.setattr(graph_module, "_upper_rows", unreached)
        with pytest.raises(ValueError, match="n must lie in"):
            from_edges(graph_module.MAX_VERTICES + 1, [])


class TestValidate:
    """Each structural check of ``Graph.validate`` on a CSR built to break
    that check alone; the message pins which check fired."""

    @pytest.mark.parametrize("n, offsets, neighbors, message", [
        (2, [0, 1, 2], [0, 1], "self-loop"),
        (3, [0, 2, 3, 4], [2, 1, 0, 0], "strictly increasing"),
        (2, [0, 2, 4], [1, 1, 0, 0], "strictly increasing"),
        (2, [0, 1, 1], [1], "must be even"),
    ], ids=["self-loop", "unsorted", "duplicate", "odd-length"])
    def test_rejects(self, n, offsets, neighbors, message):
        g = Graph(n, offsets, neighbors)
        with pytest.raises(ValueError, match=message):
            g.validate()

    def test_accepts_a_valid_csr(self):
        Graph(3, [0, 2, 3, 4], [1, 2, 0, 0]).validate()


class TestGraphInit:
    """Offsets are checked monotone and neighbour ids in range when a Graph
    is built, so the step never reads outside its arrays."""

    @pytest.mark.parametrize("n, offsets, neighbors", [
        (3, [0, 2, 1, 2], [1, 2]),
        # degrees would read 3, -2, 1, 2
        (4, [0, 3, 1, 2, 4], [1, 2, 3, 0]),
    ], ids=["decreasing-offsets", "negative-degree"])
    def test_rejects_decreasing_offsets(self, n, offsets, neighbors):
        with pytest.raises(ValueError, match="^offsets must be non-decreasing$"):
            Graph(n, offsets, neighbors)

    def test_unpickling_checks_offsets_too(self):
        state = path_graph(3).__getstate__()
        state["offsets"] = np.array([0, 3, 1, 4], dtype=np.int64)
        with pytest.raises(ValueError, match="offsets must be non-decreasing"):
            Graph.__new__(Graph).__setstate__(state)

    @pytest.mark.parametrize("offsets, message", [
        ([2**32, 1, 2], "must start at 0"),
        ([0, 2**32, 2], "must be non-decreasing"),
        ([0, 1, 2**32 + 2], "must start at 0"),
    ], ids=["first", "middle", "last"])
    def test_rejects_offsets_that_wrap_in_32_bits(self, offsets, message):
        # checked before the int32 cast, which would read [0, 1, 2] or [0, 0, 2]
        with pytest.raises(ValueError, match=f"^offsets {message}"):
            Graph(2, np.array(offsets, dtype=np.int64), [1, 0])

    def test_unpickling_checks_offsets_before_the_cast(self):
        state = path_graph(2).__getstate__()
        state["offsets"] = np.array([0, 2**32, 2], dtype=np.int64)
        with pytest.raises(ValueError, match="^offsets must be non-decreasing$"):
            Graph.__new__(Graph).__setstate__(state)

    @pytest.mark.parametrize("n, offsets, neighbors", [
        (2, [0, 1, 2], [-1, 0]),
        (2, [0, 1, 2], [1, 2]),
        (4, [0, 1, 2, 3, 4], [-1, 0, 5, 2]),
        (2, [0, 1, 2], [1, -2**31]),
        # checked before the int32 cast, which would read 1
        (2, [0, 1, 2], np.array([2**32 + 1, 0], dtype=np.int64)),
        (2, [0, 1, 2], [2**32 + 1, 0]),
    ], ids=["negative-id", "id-at-n", "both-ends", "int32-min", "wraps-int64", "wraps-list"])
    def test_rejects_out_of_range_id(self, n, offsets, neighbors):
        with pytest.raises(ValueError, match="neighbor id out of range"):
            Graph(n, offsets, neighbors)

    @pytest.mark.parametrize("offsets, neighbors, what", [
        ([0, 1, 2], np.array([1.7, 0.2]), "neighbor ids"),
        (np.array([0.0, 1.0, 2.0]), [1, 0], "offsets"),
    ], ids=["float-ids", "float-offsets"])
    def test_rejects_non_integer_arrays(self, offsets, neighbors, what):
        # a cast would truncate them: the float ids would read [1, 0]
        with pytest.raises(ValueError, match=f"^{what} must be integers, got dtype float64$"):
            Graph(2, offsets, neighbors)

    @pytest.mark.parametrize("offsets, neighbors, what", [
        # the size matches the offsets, so only the shape is wrong
        ([0, 1, 2], np.array([[1], [0]]), "neighbor ids"),
        (np.array([[0, 1, 2]]), [1, 0], "offsets"),
    ], ids=["2d-ids", "2d-offsets"])
    def test_rejects_arrays_that_are_not_1d(self, offsets, neighbors, what):
        with pytest.raises(ValueError, match=f"^{what} must be 1-D, got shape "):
            Graph(2, offsets, neighbors)

    @pytest.mark.parametrize("n, offsets", [(3, [0, 1, 2]), (1, [0, 1, 2])],
                             ids=["one-short", "one-long"])
    def test_rejects_offsets_of_another_length(self, n, offsets):
        with pytest.raises(ValueError, match=re.escape("offsets must have length n + 1")):
            Graph(n, offsets, [0, 0] if n == 1 else [1, 0])

    def test_unpickling_checks_the_shape_too(self):
        state = path_graph(3).__getstate__()
        state["neighbors"] = state["neighbors"].reshape(2, 2)
        with pytest.raises(ValueError, match="^neighbor ids must be 1-D, got shape"):
            Graph.__new__(Graph).__setstate__(state)

    def test_accepts_empty_neighbors_of_any_dtype(self):
        for neighbors in ([], np.empty(0), np.empty(0, dtype=np.uint64)):
            assert Graph(3, [0, 0, 0, 0], neighbors).edge_count == 0

    def test_unpickling_checks_ids_too(self):
        state = path_graph(3).__getstate__()
        state["neighbors"] = np.array([1, 0, 3, 1], dtype=np.int32)
        with pytest.raises(ValueError, match="neighbor id out of range"):
            Graph.__new__(Graph).__setstate__(state)


class TestDegreeStats:
    def test_empty(self):
        assert degree_stats(empty_graph(5)) == (0, 0, 0.0)

    def test_complete(self):
        assert degree_stats(complete_graph(5)) == (4, 4, 4.0)

    def test_path(self):
        assert degree_stats(path_graph(3)) == (1, 2, pytest.approx(4.0 / 3.0))

    def test_star(self):
        assert degree_stats(star_graph(4)) == (1, 4, pytest.approx(8.0 / 5.0))


def edge_count(g, u, v):
    """e(U, V) from the witness's block product, over the sets' distinct ids."""
    u, v = np.unique(np.asarray(u, dtype=np.int64)), np.unique(np.asarray(v, dtype=np.int64))
    return next(graph_module._edge_counts(g, [(u, v)]))[2]


class TestEdgeCounts:
    def test_path_disjoint(self):
        g = path_graph(3)
        assert edge_count(g, [0, 2], [1]) == 2
        assert edge_count(g, [1], [0, 2]) == 2

    def test_overlap_counts_both_orientations(self):
        g = path_graph(3)
        # the edge 0-1 lies inside the overlap, so both orientations count
        assert edge_count(g, [0, 1], [0, 1]) == 2

    def test_complete_disjoint(self):
        g = complete_graph(6)
        assert edge_count(g, [0, 1, 2], [3, 4, 5]) == 9

    def test_empty_sets(self):
        g = path_graph(3)
        assert edge_count(g, [], [1]) == edge_count(g, [1], []) == 0

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    def test_matches_brute_force(self, n, p, seed, data):
        # U and V may overlap, repeat ids or be empty
        g = sample_gnp(n, p, seed)
        ids = st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n)
        u, v = data.draw(ids), data.draw(ids)
        assert edge_count(g, u, v) == edges_between(g, u, v)

    def test_pairs_consumed_one_block_at_a_time(self, monkeypatch):
        g = path_graph(10)
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", 3 * g.n * g._adjacency.dtype.itemsize)
        pulled = []

        def pairs():
            for i in range(10):
                pulled.append(i)
                yield np.array([i]), np.array([(i + 1) % 10])

        counts = graph_module._edge_counts(g, pairs())
        next(counts)
        assert len(pulled) == 3
        assert [e for _, _, e in counts] == [1] * 8 + [0]


class TestEstimateJumbledness:
    def test_empty_graph_zero(self):
        assert estimate_jumbledness(empty_graph(40), 0.0, pairs=50, seed=1) == 0.0

    def test_complete_graph_zero_on_disjoint_pairs(self):
        # disjoint U, V in a complete graph: e(U, V) = |U||V| exactly
        beta_hat = estimate_jumbledness(complete_graph(20), 1.0, pairs=100, seed=5)
        assert beta_hat == 0.0

    def test_gnp_witness_scale(self):
        # pilot-pinned: the witness stays far below 10 sqrt(np)
        n, p = 2000, 0.05
        g = sample_gnp(n, p, 3)
        beta_hat = estimate_jumbledness(g, p, pairs=500, seed=3)
        assert 0.0 < beta_hat <= 10.0 * math.sqrt(n * p)

    # beta_hat as the per-pair neighbour gather computed it; the block
    # product must give the same floats, bit for bit
    PINNED = [
        ((200, 0.1, 1), 0.1, 30, 5, 0.6831300510639725),
        ((300, 0.2, 3), 0.2, 25, 11, 0.9585185256296073),
        ((600, 0.5, 4), 0.5, 20, 13, 0.8110792214313831),  # int16 adjacency
        ((5000, 0.3, 1004), 0.3, 50, 2000, 0.9620585264423941),  # c09's first graph
    ]

    @pytest.mark.parametrize("sample, p, pairs, seed, beta", PINNED)
    def test_beta_hat_pinned(self, sample, p, pairs, seed, beta):
        g = sample_gnp(*sample)
        beta_hat = estimate_jumbledness(g, p, pairs=pairs, seed=seed)
        assert type(beta_hat) is float and beta_hat == beta

    @pytest.mark.parametrize("width", [1, 7, 24])
    def test_beta_hat_pinned_across_column_blocks(self, monkeypatch, width):
        # 25 pairs on n=300 in blocks of 1, 7 (four blocks, the last short)
        # and 24 columns (a one-column tail)
        sample, p, pairs, seed, beta = self.PINNED[1]
        g = sample_gnp(*sample)
        monkeypatch.setattr(graph_module, "_BLOCK_BYTES", width * g.n * g._adjacency.dtype.itemsize)
        assert estimate_jumbledness(g, p, pairs=pairs, seed=seed) == beta

    def test_beta_hat_pinned_on_empty_and_complete_graphs(self):
        assert estimate_jumbledness(empty_graph(40), 0.3, pairs=20, seed=1) == 2.6999999999999997
        assert estimate_jumbledness(complete_graph(40), 0.5, pairs=20, seed=2) == 5.0
        assert estimate_jumbledness(complete_graph(40), 1.0, pairs=20, seed=2) == 0.0

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match="^pairs must be at least 1, got 0$"):
            estimate_jumbledness(empty_graph(10), 0.5, pairs=0)
        # one vertex leaves no room for two disjoint subsets of size 1
        with pytest.raises(ValueError, match=re.escape("(2*max <= n)")):
            estimate_jumbledness(empty_graph(1), 0.5)

    @pytest.mark.parametrize("p, message", [
        (-0.1, "p must lie in [0, 1], got -0.1"),
        (1.5, "p must lie in [0, 1], got 1.5"),
        (math.nan, "p must be finite, got nan"),
    ], ids=["-0.1", "1.5", "nan"])
    def test_rejects_a_density_outside_the_unit_interval(self, p, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_jumbledness(empty_graph(10), p)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        g = sample_gnp(300, 0.05, 11)
        path = tmp_path / "g.bin"
        save_graph(g, path)
        h = load_graph(path)
        assert h.n == g.n
        assert h.edge_count == g.edge_count
        assert np.array_equal(h.offsets, g.offsets)
        assert np.array_equal(h.neighbors, g.neighbors)
        h.validate()

    def test_dump_bytes(self, tmp_path):
        # pinned so that how the arrays reach the file cannot change its bytes
        path = tmp_path / "g.bin"
        save_graph(sample_gnp(2000, 0.01, 5), path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == "ec9eeda2db494275e59741d24bc1b15c7770c1135363b976a01372e1bee6cca5"

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTAGRPH" + b"\x00" * 40)
        with pytest.raises(ValueError, match="magic"):
            load_graph(path)

    def test_rejects_truncation(self, tmp_path):
        g = sample_gnp(50, 0.1, 0)
        path = tmp_path / "g.bin"
        save_graph(g, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(ValueError, match="length"):
            load_graph(path)

    @staticmethod
    def _path_dump(tmp_path):
        path = tmp_path / "path.bin"
        save_graph(path_graph(4), path)
        return path, bytearray(path.read_bytes())

    @pytest.mark.parametrize("bad_id", [4, 2**32 - 1])
    def test_rejects_neighbor_id_out_of_range(self, tmp_path, bad_id):
        # the last neighbour id, 2 for vertex 3, edited to n or to an id
        # that an unchecked int32 cast would wrap to -1
        path, raw = self._path_dump(tmp_path)
        raw[-4:] = bad_id.to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="neighbor id out of range"):
            load_graph(path)

    def test_rejects_decreasing_offsets(self, tmp_path):
        # offsets 0, 1, 3, 5, 6 become 0, 4, 3, 5, 6
        path, raw = self._path_dump(tmp_path)
        off1 = 28 + 8
        raw[off1:off1 + 8] = (4).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        message = f"^{re.escape(str(path))}: offsets must be non-decreasing$"
        with pytest.raises(ValueError, match=message):
            load_graph(path)

    def test_rejects_offsets_that_wrap_in_32_bits(self, tmp_path):
        # offsets 0, 1, 3, 5, 6 become 0, 2**32 + 1, 3, 5, 6: an int32 cast
        # would read the path's own offsets back
        path, raw = self._path_dump(tmp_path)
        off1 = _HEADER_BYTES + 8
        raw[off1:off1 + 8] = (2**32 + 1).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        message = f"^{re.escape(str(path))}: offsets must be non-decreasing$"
        with pytest.raises(ValueError, match=message):
            load_graph(path)

    def test_asymmetric_dump_is_left_to_validate(self, tmp_path):
        # vertex 3's neighbour 2 edited to 0: in range, but 0 does not list 3
        path, raw = self._path_dump(tmp_path)
        raw[-4:] = (0).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        g = load_graph(path)
        with pytest.raises(ValueError, match="not symmetric"):
            g.validate()

    @staticmethod
    def _load_bytes(raw):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.bin"
            path.write_bytes(bytes(raw))
            return load_graph(path)

    @staticmethod
    def _dump(g):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.bin"
            save_graph(g, path)
            return path.read_bytes()

    graphs = st.tuples(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**32 - 1),
    )

    @settings(max_examples=100, deadline=None)
    @given(graph=graphs, data=st.data())
    def test_every_truncation_rejected(self, graph, data):
        raw = self._dump(sample_gnp(*graph))
        cut = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        with pytest.raises(ValueError):
            self._load_bytes(raw[:cut])

    @settings(max_examples=300, deadline=None)
    @given(graph=graphs, data=st.data())
    def test_bit_flip_rejected_or_loads_in_range(self, graph, data):
        raw = bytearray(self._dump(sample_gnp(*graph)))
        bit = data.draw(st.integers(min_value=0, max_value=8 * len(raw) - 1))
        raw[bit // 8] ^= 1 << (bit % 8)
        try:
            g = self._load_bytes(raw)
        except ValueError:
            return
        assert g.offsets[0] == 0 and np.all(np.diff(g.offsets) >= 0)
        assert g.offsets[-1] == g.neighbors.size
        if g.neighbors.size:
            assert 0 <= g.neighbors.min() and g.neighbors.max() < g.n

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=2, max_value=12), data=st.data())
    def test_wrapped_or_negative_id_never_loads(self, n, data):
        raw = bytearray(self._dump(complete_graph(n)))
        slot = data.draw(st.integers(min_value=0, max_value=n * (n - 1) - 1))
        # ids >= 2**31 turn negative in a bare int32 cast
        bad = data.draw(st.integers(min_value=n, max_value=2**32 - 1))
        at = _HEADER_BYTES + 8 * (n + 1) + 4 * slot
        raw[at:at + 4] = bad.to_bytes(4, "little")
        with pytest.raises(ValueError, match="neighbor id out of range"):
            self._load_bytes(raw)

    def test_missing_file_has_path_context(self, tmp_path):
        with pytest.raises(OSError, match="nope.bin"):
            load_graph(tmp_path / "nope.bin")


class TestIndexDtype:
    """Offsets are held once, in scipy's index dtype, and the adjacency
    uses them as its row pointers without a copy."""

    @pytest.mark.parametrize("build", [
        lambda: sample_gnp(2000, 0.01, 5),
        lambda: sample_gnp(5, 0.0, 0),
        lambda: from_edges(4, [(2, 1), (0, 3), (0, 1)]),
        lambda: TestSerialization._load_bytes(TestSerialization._dump(sample_gnp(300, 0.05, 11))),
        lambda: pickle.loads(pickle.dumps(sample_gnp(300, 0.05, 11))),
    ], ids=["sampled", "sampled-empty", "from-edges", "loaded", "unpickled"])
    def test_offsets_are_int32_and_shared_with_the_adjacency(self, build):
        g = build()
        assert g.offsets.dtype == np.int32 and g.degrees.dtype == np.int32
        assert np.shares_memory(g.offsets, g._adjacency.indptr)

    def test_int64_only_from_2_to_the_31_entries(self):
        assert graph_module._index_dtype(2**31 - 1) is np.int32
        assert graph_module._index_dtype(2**31) is np.int64


class TestPickling:
    def test_cached_views_stay_out_of_the_pickle(self):
        g = sample_gnp(2000, 0.01, 3)
        before = len(pickle.dumps(g))
        s = OpinionVector(np.where(np.arange(g.n) % 3 == 0, 1, -1).astype(np.int8))
        step = majority_step(g, s)
        assert g.degrees.size == g.n
        blob = pickle.dumps(g)
        assert len(blob) == before
        h = pickle.loads(blob)
        assert csr_digest(h) == csr_digest(g)
        assert not h.offsets.flags.writeable and not h.neighbors.flags.writeable
        assert majority_step(h, s) == step
