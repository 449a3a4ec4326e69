"""Majority step and trajectory tests.

Step expectations are worked out by hand on small named graphs; the
vectorized step is additionally cross-checked against the per-vertex
reference implementation on random instances.
"""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    CountingAdjacency,
    bias,
    complete_graph,
    cycle_graph,
    empty_graph,
    hamming,
    majority_step_reference,
    neighbor_sum,
    neighbor_sums,
    path_graph,
    positives,
    star_graph,
    swung_start,
)
from majdyn import (
    OpinionVector,
    from_edges,
    majority_step,
    run,
    sample_fixed_discrepancy,
    sample_gnp,
    sample_uniform,
)
from majdyn import dynamics
from majdyn.dynamics import _DELTA_SHARE, _neighbor_sums, _rows_per_gather


def vec(*signs):
    return OpinionVector(np.array(signs, dtype=np.int8))


def negated(s):
    return OpinionVector(-s.signs())


class TestOpinionVector:
    def test_round_trip(self):
        s = vec(1, -1, 1, 1, -1, -1, -1, 1, 1)
        assert list(s.signs()) == [1, -1, 1, 1, -1, -1, -1, 1, 1]
        assert s.n == 9

    @pytest.mark.parametrize("signs", [
        np.array([[1, -1], [-1, 1]], dtype=np.int8),
        np.array([], dtype=np.int8),
        np.int8(1),
    ], ids=["2d", "empty", "scalar"])
    def test_rejects_a_shape_other_than_non_empty_1d(self, signs):
        with pytest.raises(ValueError, match="non-empty 1-d"):
            OpinionVector(signs)

    @pytest.mark.parametrize("bad", [0, 3, 1.5, 0.5, -1.2, np.nan])
    def test_rejects_values_other_than_plus_or_minus_one(self, bad):
        # a cast to int8 would read 1.5 as 1; nothing is truncated
        with pytest.raises(ValueError, match="must be \\+1 or -1"):
            OpinionVector(np.array([bad, -1.0, 1.0]))

    @pytest.mark.parametrize("signs", [
        np.array([True, True, True]), [True, False, True],
        np.array([1j, -1, 1]), np.array([1, -1], dtype=object),
    ], ids=["bool", "bool-list", "complex", "object"])
    def test_rejects_a_dtype_other_than_integer_or_float(self, signs):
        # numpy reads True as 1, and 1j has modulus 1: both are refused by dtype
        with pytest.raises(ValueError, match="must be \\+1 or -1, got dtype"):
            OpinionVector(signs)

    def test_the_all_zero_state_is_rejected_when_built(self):
        # it once ran as unanimous -1 with day-0 bias -6, though it sums to 0
        with pytest.raises(ValueError):
            OpinionVector(np.zeros(6, dtype=np.int8))

    def test_accepts_exact_signs_of_any_dtype(self):
        for signs in ([1, -1, 1], np.array([1.0, -1.0, 1.0]), np.array([1, -1, 1], dtype=np.int64)):
            s = OpinionVector(signs)
            assert s.signs().dtype == np.int8
            assert s == vec(1, -1, 1)

    def test_bias_and_positives_examples(self):
        assert bias(vec(*[1] * 7)) == 7
        assert bias(vec(*([1] * 4 + [-1] * 4))) == 0
        assert bias(vec(*([1] * 6 + [-1] * 4))) == 2
        assert bias(vec(-1)) == -1
        assert positives(vec(*([1] * 13 + [-1] * 4))) == 13

    def test_repr_shows_the_size_and_the_sum(self):
        assert repr(vec(1, 1, -1, 1)) == "OpinionVector(n=4, bias=2)"

    def test_equality(self):
        a = vec(1, -1, 1, -1, 1)
        b = vec(1, 1, 1, -1, -1)
        assert a == vec(1, -1, 1, -1, 1)
        assert a != b
        assert a != vec(1, -1, 1, -1)

    def test_copies_its_input(self):
        given_signs = np.array([1, -1, 1], dtype=np.int8)
        s = OpinionVector(given_signs)
        given_signs[0] = -1
        assert list(s.signs()) == [1, -1, 1]
        assert given_signs.flags.writeable  # the caller's array is left as it was

    def test_signs_are_read_only(self):
        s = vec(1, -1, 1)
        g = path_graph(3)
        for v in (s, negated(s), majority_step(g, s), sample_uniform(5, 0)):
            with pytest.raises(ValueError):
                v.signs()[0] = 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200))
    def test_signs_round_trip(self, signs):
        s = OpinionVector(np.array(signs, dtype=np.int8))
        assert list(s.signs()) == signs
        assert bias(s) == sum(signs)
        assert positives(s) == signs.count(1)


class TestNeighborSums:
    def test_isolated_vertices(self):
        assert list(_neighbor_sums(empty_graph(3), vec(1, -1, 1).signs())) == [0, 0, 0]

    def test_path(self):
        assert list(_neighbor_sums(path_graph(3), vec(1, -1, 1).signs())) == [-1, 2, -1]

    def test_matches_the_per_vertex_and_csr_oracles(self):
        g = sample_gnp(60, 0.2, 4)
        s = sample_uniform(60, 9)
        sums = _neighbor_sums(g, s.signs())
        assert np.array_equal(sums, neighbor_sums(g, s))
        for v in range(g.n):
            assert neighbor_sum(g, s, v) == sums[v]


class TestDegreeSizedSums:
    """Stars whose centre degree sits on either side of the int8/int16 and
    int16/int32 edges of the adjacency's degree-sized dtype."""

    @pytest.mark.parametrize(
        "leaves, dtype",
        [(127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32)],
    )
    @pytest.mark.parametrize("leaf_sign", [1, -1])
    def test_centre_sum_is_exactly_the_degree(self, leaves, dtype, leaf_sign):
        g = star_graph(leaves)
        signs = np.full(leaves + 1, leaf_sign, dtype=np.int8)
        signs[0] = -leaf_sign
        s = OpinionVector(signs)
        sums = _neighbor_sums(g, s.signs())
        assert g._adjacency.dtype == sums.dtype == dtype
        assert np.array_equal(sums, neighbor_sums(g, s))
        assert sums[0] == leaf_sign * leaves
        assert np.all(sums[1:] == -leaf_sign)
        out = majority_step(g, s)
        assert out == majority_step_reference(g, s)
        assert out.signs()[0] == leaf_sign

    @pytest.mark.parametrize("base_dtype", [None, np.int8, np.int32, np.int64])
    @pytest.mark.parametrize("majority", [1, -1])
    def test_a_doubled_delta_past_the_dtype_still_gives_exact_sums(self, base_dtype, majority, monkeypatch):
        # a 100-leaf star and 500 isolated vertices: 70 leaves differ from the
        # unanimous state, within the delta share, so the centre's delta of
        # 2*70 wraps int8 and only the sum with its base, 100 - 140, fits;
        # gathers of 16 entries' worth of rows split the 70 rows in two
        monkeypatch.setattr(dynamics, "_GATHER_ENTRIES", 16)
        g = from_edges(601, [(0, i) for i in range(1, 101)])
        signs = np.full(601, majority, dtype=np.int8)
        signs[1:71] = -majority
        unanimous = np.full(601, majority, dtype=np.int8)
        known = [] if base_dtype is None else [(unanimous, (majority * g.degrees).astype(base_dtype))]
        got, gathers, products = counted_sums(g, signs, known=known)
        assert g._adjacency.dtype == np.int8 and products == 0
        assert gathers == row_blocks(70, _rows_per_gather(g)) and len(gathers) >= 2
        assert np.array_equal(got, g._adjacency.astype(np.int64) @ signs.astype(np.int64))
        assert got[0] == -40 * majority


class TestMajorityStep:
    def test_path_alternation(self):
        g = path_graph(3)
        out = majority_step(g, vec(1, -1, 1))
        assert list(out.signs()) == [-1, 1, -1]

    def test_star_flip(self):
        g = star_graph(4)
        out = majority_step(g, vec(-1, 1, 1, 1, 1))
        # center adopts the leaves' majority, leaves adopt the center
        assert list(out.signs()) == [1, -1, -1, -1, -1]

    def test_triangle_fixed(self):
        g = complete_graph(3)
        s = vec(1, 1, 1)
        assert majority_step(g, s) == s

    def test_tie_keeps_opinion(self):
        # center of a 2-star with opposite leaves is tied
        g = from_edges(3, [(0, 1), (0, 2)])
        out = majority_step(g, vec(-1, 1, -1))
        assert out.signs()[0] == -1
        out = majority_step(g, vec(1, 1, -1))
        assert out.signs()[0] == 1

    def test_isolated_vertices_keep_opinion(self):
        g = empty_graph(4)
        s = vec(1, -1, 1, -1)
        assert majority_step(g, s) == s

    def test_input_unmodified(self):
        g = path_graph(3)
        s = vec(1, -1, 1)
        majority_step(g, s)
        assert s == vec(1, -1, 1)

    def test_rejects_an_opinion_vector_of_another_size(self):
        with pytest.raises(ValueError, match="opinion vector does not match graph size"):
            majority_step(path_graph(4), vec(1, -1, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=50),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_sign_symmetry(self, n, p, seed):
        g = sample_gnp(n, p, seed)
        s = sample_uniform(n, seed + 1)
        assert majority_step(g, negated(s)) == negated(majority_step(g, s))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=50),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_monotone_in_initial_state(self, n, p, seed):
        g = sample_gnp(n, p, seed)
        rng = np.random.default_rng(seed + 7)
        lo = sample_uniform(n, seed + 1).signs()
        hi = lo.copy()
        neg = np.flatnonzero(hi < 0)
        if neg.size:
            ups = rng.choice(neg, size=rng.integers(1, neg.size + 1), replace=False)
            hi[ups] = 1
        out_lo = majority_step(g, OpinionVector(lo)).signs()
        out_hi = majority_step(g, OpinionVector(hi)).signs()
        assert np.all(out_lo <= out_hi)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=50),
        p=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_ties_preserved_exactly(self, n, p, seed):
        g = sample_gnp(n, p, seed)
        s = sample_uniform(n, seed + 1)
        sums = neighbor_sums(g, s)
        out = majority_step(g, s)
        tied = sums == 0
        assert np.array_equal(out.signs()[tied], s.signs()[tied])

    def test_matches_reference_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            g = sample_gnp(n, float(rng.uniform(0, 1)), int(rng.integers(2**31)))
            s = sample_uniform(n, int(rng.integers(2**31)))
            assert majority_step(g, s) == majority_step_reference(g, s)


class TestRun:
    def test_unanimous_start_reports_day_zero(self):
        traj = run(complete_graph(3), vec(1, 1, 1), day_cap=10)
        assert traj.outcome.kind == "unanimous"
        assert traj.outcome.sign == 1
        assert traj.outcome.day == 0
        assert len(traj.days) == 2  # confirmation step is recorded

    def test_path_two_cycle(self):
        traj = run(path_graph(3), vec(1, -1, 1), day_cap=10)
        assert traj.outcome.kind == "period_two"
        assert traj.outcome.period == 2
        assert traj.outcome.day == 2

    def test_cycle_alternation(self):
        traj = run(cycle_graph(4), vec(1, -1, 1, -1), day_cap=10)
        assert traj.outcome.kind == "period_two"
        assert traj.outcome.period == 2

    def test_non_unanimous_fixed_point_flagged_period_one(self):
        # two opposite triangles: every vertex agrees with its neighbors
        g = from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        traj = run(g, vec(1, 1, 1, -1, -1, -1), day_cap=10)
        assert traj.outcome.kind == "period_two"
        assert traj.outcome.period == 1

    def test_day_cap_reached(self):
        traj = run(path_graph(3), vec(1, -1, 1), day_cap=1)
        assert traj.outcome.kind == "day_cap"
        assert traj.outcome.day == 1

    def test_majority_takeover_day_one(self):
        traj = run(star_graph(4), vec(1, 1, 1, 1, -1), day_cap=10)
        assert traj.outcome.kind == "unanimous"
        assert traj.outcome.sign == 1
        assert traj.outcome.day == 1

    def test_day_records_consistent(self):
        g = sample_gnp(80, 0.08, 5)
        s = sample_uniform(80, 6)
        traj = run(g, s, day_cap=30)
        assert traj.days[0].flips == 0
        cur = s
        for d, rec in enumerate(traj.days):
            assert rec.bias == 2 * rec.positives - g.n
            if d > 0:
                nxt = majority_step(g, cur)
                assert rec.flips == hamming(nxt, cur)
                assert rec.positives == positives(nxt)
                cur = nxt

    def test_unanimity_is_absorbing_in_records(self):
        rng = np.random.default_rng(77)
        seen = 0
        while seen < 5:
            n = int(rng.integers(10, 60))
            g = sample_gnp(n, 0.3, int(rng.integers(2**31)))
            traj = run(g, sample_uniform(n, int(rng.integers(2**31))), day_cap=40)
            if traj.outcome.kind != "unanimous":
                continue
            seen += 1
            day = traj.outcome.day
            for rec in traj.days[day:]:
                assert rec.positives in (0, n)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run(path_graph(3), vec(1, -1), day_cap=5)
        with pytest.raises(ValueError):
            run(path_graph(3), vec(1, -1, 1), day_cap=0)


def with_minority(n, k, majority, seed):
    """A state with exactly ``k`` vertices of sign -majority at random."""
    signs = np.full(n, majority, dtype=np.int8)
    signs[np.random.default_rng(seed).choice(n, size=k, replace=False)] = -majority
    return OpinionVector(signs)


def counted_sums(g, signs, positives=None, known=()):
    """``_neighbor_sums``'s result, with the rows it gathered per gather and
    the full products it took, read off a ``CountingAdjacency``."""
    counter = CountingAdjacency(g._adjacency)
    g.__dict__["_adjacency"] = counter
    try:
        sums = _neighbor_sums(g, signs, positives, known)
    finally:
        g.__dict__["_adjacency"] = counter.a
    return sums, counter.gathers, counter.products


def row_blocks(k, step):
    """The gathers of a product over ``k`` rows, ``step`` at a time."""
    return [min(step, k - i) for i in range(0, k, step)]


def hub_graph(n, seed):
    """A G(n, 12/n) draw with vertex 0 joined to vertices 1..128 as well, so
    its degree of 128 or more makes the adjacency int16."""
    upper = np.triu(np.random.default_rng(seed).random((n, n)) < 12.0 / n, 1)
    upper[0, 1:129] = True
    g = from_edges(n, np.argwhere(upper))
    assert g._adjacency.dtype == np.int16
    return g


# sizes of the gathers drawn by the property tests: the library's, and a few
# entries, so that small graphs' deltas span several gathers too
gather_entries = st.sampled_from([dynamics._GATHER_ENTRIES, 8, 64])


def uses_minority_side(g, s):
    # the minority's rows gathered and no full product
    _, gathers, products = counted_sums(g, s.signs())
    return gathers == row_blocks(min(positives(s), s.n - positives(s)), _rows_per_gather(g)) and products == 0


class TestMinoritySideStep:
    """The step sums from the minority's side once _DELTA_SHARE * minority
    <= n, and from the whole adjacency otherwise; both must equal the
    reference."""

    @pytest.mark.parametrize("n", [160, 1000, 1007])
    @pytest.mark.parametrize("majority", [1, -1])
    @pytest.mark.parametrize("hub", [False, True])
    def test_both_sides_of_the_crossover(self, n, majority, hub):
        g = hub_graph(n, n) if hub else sample_gnp(n, 12.0 / n, n)
        for k, minority_side in ((n // _DELTA_SHARE, True), (n // _DELTA_SHARE + 1, False)):
            s = with_minority(n, k, majority, k)
            assert uses_minority_side(g, s) == minority_side
            out = majority_step(g, s)
            assert out == majority_step_reference(g, s)
            assert np.array_equal(_neighbor_sums(g, s.signs()), neighbor_sums(g, s))

    @pytest.mark.parametrize("leaves", [16, 40, 200])
    def test_star(self, leaves):
        g = star_graph(leaves)
        n = leaves + 1
        # the centre alone in the minority: it turns, every leaf follows it
        signs = np.ones(n, dtype=np.int8)
        signs[0] = -1
        s = OpinionVector(signs)
        assert uses_minority_side(g, s)
        assert majority_step(g, s) == majority_step_reference(g, s)
        assert list(majority_step(g, s).signs()) == [1] + [-1] * leaves
        # one leaf in the minority: only that leaf turns
        signs = np.ones(n, dtype=np.int8)
        signs[leaves] = -1
        s = OpinionVector(signs)
        assert majority_step(g, s) == majority_step_reference(g, s)
        assert majority_step(g, s) == OpinionVector(np.ones(n, dtype=np.int8))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_single_vertex(self, sign):
        g = empty_graph(1)
        s = vec(sign)
        assert uses_minority_side(g, s)
        assert majority_step(g, s) == s
        traj = run(g, s, day_cap=5)
        assert (traj.outcome.kind, traj.outcome.day, traj.outcome.sign) == ("unanimous", 0, sign)
        assert [d.flips for d in traj.days] == [0, 0]

    def test_empty_graph_keeps_a_small_minority(self):
        g = empty_graph(40)
        s = with_minority(40, 2, 1, 0)
        assert uses_minority_side(g, s)
        assert majority_step(g, s) == s
        traj = run(g, s, day_cap=5)
        assert (traj.outcome.kind, traj.outcome.period, traj.outcome.day) == ("period_two", 1, 1)

    def test_isolated_minority_vertices_keep_their_sign(self):
        # a 30-cycle plus vertices 30 and 31 with no edges, both -1
        g = from_edges(32, [(i, (i + 1) % 30) for i in range(30)])
        signs = np.ones(32, dtype=np.int8)
        signs[[30, 31]] = -1
        s = OpinionVector(signs)
        assert uses_minority_side(g, s)
        assert majority_step(g, s) == s == majority_step_reference(g, s)
        # isolated majority vertices keep their sign too
        signs[[30, 31]] = [1, -1]
        signs[5] = -1
        s = OpinionVector(signs)
        assert majority_step(g, s) == majority_step_reference(g, s)

    def test_minority_clique_is_a_fixed_point(self):
        # a -1 clique on 0..3 joined by the single edge 3-4 to a +1 cycle on
        # 4..63: vertex 3 sees -3 + 1, vertex 4 sees +2 - 1, so nothing moves
        edges = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        edges += [(4 + i, 4 + (i + 1) % 60) for i in range(60)] + [(3, 4)]
        g = from_edges(64, edges)
        signs = np.ones(64, dtype=np.int8)
        signs[:4] = -1
        s = OpinionVector(signs)
        assert uses_minority_side(g, s)
        assert majority_step(g, s) == s == majority_step_reference(g, s)
        traj = run(g, s, day_cap=10)
        assert (traj.outcome.kind, traj.outcome.period, traj.outcome.day) == ("period_two", 1, 1)
        assert [(d.bias, d.flips) for d in traj.days] == [(56, 0), (56, 0)]

    def test_unanimous_state_is_fixed(self):
        g = sample_gnp(300, 0.05, 8)
        for sign in (1, -1):
            s = OpinionVector(np.full(300, sign, dtype=np.int8))
            assert majority_step(g, s) == s == majority_step_reference(g, s)
            traj = run(g, s, day_cap=3)
            assert traj.days[1] == traj.days[0]
            assert (traj.outcome.kind, traj.outcome.day, traj.outcome.sign) == ("unanimous", 0, sign)


def reference_run(g, s0, day_cap, step=majority_step_reference):
    """``run``'s contract replayed with ``step``, by default the per-vertex
    reference step: the list of (bias, flips, positives) per day, the
    outcome fields, and the states stepped through."""
    states = [s0]
    first_unanimous = 0 if positives(s0) in (0, g.n) else None
    for d in range(1, day_cap + 1):
        nxt = step(g, states[-1])
        states.append(nxt)
        if first_unanimous is None and positives(nxt) in (0, g.n):
            first_unanimous = d
        if nxt == states[-2]:
            if first_unanimous is not None:
                outcome = ("unanimous", first_unanimous, 1 if positives(nxt) else -1, 0)
            else:
                outcome = ("period_two", d, 0, 1)
            break
        if d >= 2 and nxt == states[-3]:
            outcome = ("period_two", d, 0, 2)
            break
    else:
        outcome = ("day_cap", day_cap, 0, 0)
    days = [(bias(states[0]), 0, positives(states[0]))]
    days += [(bias(b), hamming(b, a), positives(b)) for a, b in zip(states, states[1:])]
    return days, outcome, states


class TestRunMatchesReference:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=120),
        p=st.floats(min_value=0.0, max_value=0.5),
        minority_share=st.floats(min_value=0.0, max_value=0.5),
        majority=st.sampled_from([1, -1]),
        day_cap=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_biased_starts(self, n, p, minority_share, majority, day_cap, seed):
        g = sample_gnp(n, p, seed)
        s0 = with_minority(n, int(minority_share * n), majority, seed + 1)
        traj = run(g, s0, day_cap)
        o = traj.outcome
        days = [(d.bias, d.flips, d.positives) for d in traj.days]
        assert (days, (o.kind, o.day, o.sign, o.period)) == reference_run(g, s0, day_cap)[:2]


def flipped(s, k, seed):
    """``s`` with ``k`` vertices, chosen at random, turned over."""
    signs = s.signs().copy()
    signs[np.random.default_rng(seed).choice(s.n, size=k, replace=False)] *= -1
    return OpinionVector(signs)


def distances(n):
    """Distances from a state to its known reference: none, a few
    vertices, and past the delta share's crossover."""
    return st.one_of(
        st.just(0),
        st.integers(min_value=1, max_value=min(3, n)),
        st.integers(min_value=min(n // _DELTA_SHARE + 1, n), max_value=n),
    )


class TestKnownSums:
    """Sums taken from a known state plus the vertices that differ from it
    must equal the sums of a whole product, on every side of n/_DELTA_SHARE."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=300),
        p=st.floats(min_value=0.0, max_value=0.4),
        day_cap=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
        data=st.data(),
    )
    def test_run_and_step_equal_their_unreferenced_forms(self, n, p, day_cap, seed, data):
        g = sample_gnp(n, p, seed)
        s0 = s = sample_uniform(n, seed + 1)
        expected = run(g, s0, day_cap)
        reference = []
        for day in range(data.draw(st.integers(min_value=0, max_value=3))):
            k = data.draw(distances(n))
            known = flipped(s, k, seed + 2 + day)
            sums = neighbor_sums(g, known)
            reference.append((known.signs(), sums))
            got = _neighbor_sums(g, s.signs(), known=[(known.signs(), sums)])
            assert np.array_equal(got, neighbor_sums(g, s))
            assert majority_step(g, s, sums=neighbor_sums(g, s)) == majority_step(g, s)
            s = majority_step(g, s)
        assert run(g, s0, day_cap, reference=reference) == expected

    @pytest.mark.parametrize("n", [160, 1007])
    @pytest.mark.parametrize("hub", [False, True])
    def test_both_sides_of_the_crossover(self, n, hub):
        g = hub_graph(n, n) if hub else sample_gnp(n, 12.0 / n, n)
        s = swung_start(n, 0.0, 1)
        for k, from_known in ((0, True), (n // _DELTA_SHARE, True), (n // _DELTA_SHARE + 1, False)):
            known = flipped(s, k, k)
            sums = neighbor_sums(g, known)
            got, gathers, products = counted_sums(
                g, s.signs(), positives(s), [(known.signs(), sums)]
            )
            # a balanced state has no small minority, so rows gathered, or
            # the known sums handed back, came from the known state
            assert (got is sums if k == 0 else gathers == row_blocks(k, _rows_per_gather(g))) == from_known
            assert products == (0 if from_known else 1)
            assert np.array_equal(got, neighbor_sums(g, s))

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(min_value=16, max_value=400),
        p=st.floats(min_value=0.0, max_value=0.3),
        majority=st.sampled_from([1, -1]),
        seed=st.integers(min_value=0, max_value=2**31),
        entries=gather_entries,
        data=st.data(),
    )
    def test_the_nearer_state_within_the_delta_share_gives_the_sums(
        self, n, p, majority, seed, entries, data
    ):
        # distances to the nearer unanimous state and to the known state:
        # none, either side of n/_DELTA_SHARE, within it, and any, so either
        # state is sometimes the nearer one with both inside the share
        edge = st.sampled_from([n // _DELTA_SHARE, n // _DELTA_SHARE + 1])
        small = st.integers(min_value=0, max_value=n // _DELTA_SHARE)
        minority = data.draw(st.one_of(edge, small, st.integers(min_value=0, max_value=n // 2)))
        k = data.draw(st.one_of(st.just(0), edge, small, st.integers(min_value=0, max_value=n)))
        g = sample_gnp(n, p, seed)
        s = with_minority(n, minority, majority, seed + 1)
        known = flipped(s, k, seed + 2)
        expected = g._adjacency @ s.signs().astype(np.int64)
        known_sums = g._adjacency @ known.signs().astype(np.int64)
        counter = CountingAdjacency(g._adjacency)
        g.__dict__["_adjacency"] = counter
        with mock.patch.object(dynamics, "_GATHER_ENTRIES", entries):
            got = _neighbor_sums(g, s.signs(), positives(s), [(known.signs(), known_sums)])
            step = _rows_per_gather(g)
        assert np.array_equal(got, expected)
        # the rows gathered are the chosen state's distance; at distance 0
        # the known state hands back its own sums
        nearest = min(k, minority)
        if k == 0:
            assert got is known_sums and counter.gathers == []
        elif _DELTA_SHARE * nearest <= n:
            assert counter.gathers == row_blocks(nearest, step) and counter.products == 0
        else:
            assert counter.gathers == [] and counter.products == 1
        assert all(rows <= step for rows in counter.gathers)

    def test_known_state_of_the_wrong_size_is_rejected(self):
        g = path_graph(3)
        s = vec(1, -1, 1)
        with pytest.raises(ValueError):
            run(g, s, 5, reference=[(s.signs(), np.zeros(4, dtype=np.int32))])
        with pytest.raises(ValueError):
            majority_step(g, s, sums=np.zeros(2, dtype=np.int32))

    @pytest.mark.parametrize("sums", [
        np.array([0.5, 2.0, -0.5]), [0.4, -0.2, 0.0], [-1, 2, -1],
        np.array([1, 2, 1], dtype=np.uint8), np.array([True, True, True]),
    ], ids=["float", "float-list", "int-list", "uint8", "bool"])
    def test_sums_that_are_not_a_signed_integer_array_are_rejected(self, sums):
        # the float pair once made this path's two-cycle report unanimous +1
        g, s = path_graph(3), vec(1, -1, 1)
        with pytest.raises(ValueError, match="signed-integer array"):
            run(g, s, 5, reference=[(s.signs(), sums)])
        with pytest.raises(ValueError, match="signed-integer array"):
            majority_step(g, s, sums=sums)

    @pytest.mark.parametrize("state", [
        np.array([1, 0, 1]), np.array([3, -1, 1]), np.array([1.5, -1.0, 1.0]),
        np.array([True, True, True]),
    ], ids=["zero", "three", "fraction", "bool"])
    def test_reference_states_that_are_not_signs_are_rejected(self, state):
        g, s = path_graph(3), vec(1, -1, 1)
        with pytest.raises(ValueError, match="must be \\+1 or -1"):
            run(g, s, 5, reference=[(state, np.array([-1, 2, -1]))])


def matvec_step(g, s):
    """One day from a plain int64 product of the whole adjacency."""
    sums = g._adjacency.astype(np.int64) @ s.signs().astype(np.int64)
    return OpinionVector(np.where(sums == 0, s.signs(), np.sign(sums)).astype(np.int8))


def sum_paths(states, reference):
    """The (path, distance) ``run`` should take on each day it steps from
    ``states``: the nearest of the state two days back, the reference pair
    and the nearer unanimous state, in that order on a tie, or "matvec"
    when even the nearest differs on more than n/_DELTA_SHARE vertices."""
    n = states[0].n
    paths = []
    for d in range(1, len(states)):
        cur = states[d - 1]
        pos = positives(cur)
        if pos in (0, n):  # unanimity is confirmed without a step
            break
        near = [("two_back", hamming(cur, states[d - 3]))] if d >= 3 else []
        if d <= len(reference):
            near.append(("reference", int(np.count_nonzero(cur.signs() != reference[d - 1][0]))))
        near.append(("unanimous", min(pos, n - pos)))
        name, k = min(near, key=lambda c: c[1])
        paths.append((name if _DELTA_SHARE * k <= n else "matvec", k))
    return paths


@st.composite
def graphs_and_starts(draw):
    """A graph, a start, and whether the start hovers next to a two-cycle.

    Random graphs take a uniform or a biased start.  The hovering start is
    an alternating even cycle, a two-cycle, with a few vertices turned:
    each turned vertex freezes a domain that grows by a vertex a side a
    day, so days two apart differ on a few vertices while half the cycle
    flips.  With a hub, a vertex joined to 128 or more others, the
    adjacency is int16."""
    kind = draw(st.sampled_from(["uniform", "biased", "hovering"]))
    hub = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    if kind == "hovering":
        m = 2 * draw(st.integers(min_value=8, max_value=150))
        edges = [(i, (i + 1) % m) for i in range(m)]
        signs = np.where(np.arange(m) % 2 == 0, 1, -1).astype(np.int8)
        turned = rng.choice(m, size=draw(st.integers(min_value=1, max_value=m // 16)), replace=False)
        signs[turned] *= -1
        if hub:  # a separate star, itself a two-cycle: centre +1, leaves -1
            leaves = draw(st.integers(min_value=128, max_value=200))
            edges += [(m, m + 1 + i) for i in range(leaves)]
            signs = np.concatenate([signs, [1], np.full(leaves, -1, dtype=np.int8)])
        return from_edges(signs.size, edges), OpinionVector(signs), True
    n = draw(st.integers(min_value=130 if hub else 1, max_value=300))
    upper = np.triu(rng.random((n, n)) < draw(st.floats(min_value=0.0, max_value=0.3)), 1)
    if hub:
        upper[0, 1:] = True
    g = from_edges(n, np.argwhere(upper))
    if kind == "uniform":
        return g, sample_uniform(n, rng), False
    share = draw(st.floats(min_value=0.0, max_value=0.5))
    return g, with_minority(n, int(share * n), draw(st.sampled_from([1, -1])), rng), False


class TestSumPaths:
    """``run`` takes each day's sums by one of four paths: a matvec, or a
    product over the rows that differ from the nearer unanimous state, a
    reference pair, or the state two days back.  Whichever it takes, the
    trajectory must equal a plain int64 matvec replay, and the rows it
    gathers, ``_rows_per_gather`` at a time, must add up to the nearest
    state's distance."""

    @settings(max_examples=300, deadline=None)
    @given(case=graphs_and_starts(), day_cap=st.integers(min_value=1, max_value=12),
           entries=gather_entries, data=st.data())
    def test_run_equals_a_matvec_replay(self, case, day_cap, entries, data):
        g, s0, hovering = case
        days, outcome, states = reference_run(g, s0, day_cap, matvec_step)
        # reference pairs near the replayed days, as a census hands them over
        reference = []
        for d in range(data.draw(st.integers(min_value=0, max_value=min(3, len(states))))):
            known = flipped(states[d], data.draw(distances(g.n)), d)
            reference.append((known.signs(), g._adjacency.astype(np.int64) @ known.signs()))
        counter = CountingAdjacency(g._adjacency)
        g.__dict__["_adjacency"] = counter
        with mock.patch.object(dynamics, "_GATHER_ENTRIES", entries):
            traj = run(g, s0, day_cap, reference=reference)
            step = _rows_per_gather(g)
        o = traj.outcome
        assert [(d.bias, d.flips, d.positives) for d in traj.days] == days
        assert (o.kind, o.day, o.sign, o.period) == outcome
        paths = sum_paths(states, reference)
        event(f"adjacency {counter.a.dtype}")
        for name in sorted({name for name, _ in paths}):
            event(f"path {name}")
        delta = [k for name, k in paths if name != "matvec"]
        assert counter.gathers == [rows for k in delta for rows in row_blocks(k, step)]
        assert counter.products == sum(name == "matvec" for name, _ in paths)
        # from day 4 on no reference pair is left, and the domains frozen
        # around the turned vertices keep days two apart close
        if hovering and day_cap >= 4:
            assert any(name == "two_back" for name, _ in paths[3:])


def trajectory_rows(traj):
    o = traj.outcome
    return [[[d.bias, d.flips, d.positives] for d in traj.days],
            [o.kind, o.day, o.sign, o.period], traj.day_cap]


def test_run_digest_at_1e5():
    # pinned so a change to the step or the run loop that moves any day of
    # any trajectory shows up: a uniform start, starts with 3000 and with
    # exactly n/16 minority vertices, and a swung balanced start
    n = 10**5
    g = sample_gnp(n, 2e-4, 2024)
    starts = [
        sample_uniform(n, 1),
        sample_fixed_discrepancy(n, n - 2 * 3000, 2),
        sample_fixed_discrepancy(n, -(n - 2 * (n // 16)), 3),
        swung_start(n, 1.0, 4),
    ]
    rows = [trajectory_rows(run(g, s, 64)) for s in starts]
    assert [r[0][-1][2] for r in rows] == [0, n, 0, n]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "2a602f64723a8ad2f28ee6c91cf313140b9cb2616367dbf6f105544073c03103"
