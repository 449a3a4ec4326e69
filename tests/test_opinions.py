"""Initial opinion models, swing perturbation, and census tests.

The path census expectations are worked out by hand: with r0 = (+,-,+) the
day-one state is (-,+,-), the end vertices see +1 and the center sees -2,
and the gamma=1, p=0.5 threshold is -3/(2*sqrt(2)) ~ -1.06.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bias, complete_graph, empty_graph, neighbor_sums, neighbors_of, path_graph, positives, star_graph,
    swung_start,
)
from majdyn import (
    OpinionModel,
    OpinionVector,
    apply_swing,
    census,
    majority_step,
    psi,
    run,
    sample_fixed_discrepancy,
    sample_gnp,
    sample_morning,
    sample_uniform,
    swing_count,
)


class TestSampleUniform:
    def test_single_vertex(self):
        assert bias(sample_uniform(1, 0)) in (-1, 1)

    def test_deterministic(self):
        assert sample_uniform(50, 3) == sample_uniform(50, 3)

    def test_deviation_probability_matches_normal_tail(self):
        # P[|bias| >= sqrt(n)] tends to 2*psi(1) for iid signs
        n, reps = 10**4, 200
        hits = sum(1 for s in range(reps) if abs(bias(sample_uniform(n, s))) >= math.sqrt(n))
        assert abs(hits / reps - 2.0 * psi(1.0)) <= 0.1

    def test_mean_bias_near_zero(self):
        n, reps = 10**4, 200
        mean = np.mean([bias(sample_uniform(n, s)) for s in range(reps)])
        assert abs(mean) <= 4.0 * math.sqrt(n / reps)


class TestSampleMorning:
    def test_exact_positive_count(self):
        for n in (1, 2, 5, 100, 101):
            s = sample_morning(n, 9)
            assert positives(s) == (n + 1) // 2

    def test_bias_parity(self):
        assert bias(sample_morning(4, 0)) == 0
        assert bias(sample_morning(5, 0)) == 1

    def test_positions_vary_with_seed(self):
        assert sample_morning(100, 1) != sample_morning(100, 2)


class TestFixedDiscrepancy:
    def test_exact_bias(self):
        for d in (-4, 0, 2, 100):
            assert bias(sample_fixed_discrepancy(100, d, 5)) == d

    def test_rejects_parity_mismatch(self):
        with pytest.raises(ValueError):
            sample_fixed_discrepancy(100, 3, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sample_fixed_discrepancy(10, 12, 0)


class TestApplySwing:
    def test_swing_count_rounding(self):
        assert swing_count(100, 1.0) == 10
        assert swing_count(10**4, 0.5) == 50
        assert swing_count(2, 1.0) == 1  # sqrt(2) ~ 1.41 rounds to 1

    def test_c_zero_is_identity(self):
        r0 = sample_morning(64, 3)
        swung, swing = apply_swing(r0, 0.0, 4)
        assert swung == r0
        assert swing.size == 0

    def test_flips_exactly_the_swing_set(self):
        r0 = sample_morning(100, 3)
        swung, swing = apply_swing(r0, 1.0, 4)
        assert swing.size == 10
        assert bias(swung) == bias(r0) + 20
        base, new = r0.signs(), swung.signs()
        assert np.all(base[swing] == -1)
        assert np.all(new[swing] == 1)
        untouched = np.setdiff1d(np.arange(100), swing)
        assert np.array_equal(base[untouched], new[untouched])

    def test_leaves_r0_unchanged(self):
        r0 = sample_morning(100, 3)
        before = r0.signs().copy()
        swung, _ = apply_swing(r0, 1.0, 4)
        assert swung != r0
        assert np.array_equal(r0.signs(), before)
        assert apply_swing(r0, 0.0, 4)[0] is r0  # vectors are immutable

    def test_rejects_when_not_enough_negatives(self):
        all_plus = OpinionVector(np.ones(100, dtype=np.int8))
        with pytest.raises(ValueError):
            apply_swing(all_plus, 1.0, 0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31))
    def test_swing_never_decreases_later_bias(self, seed):
        # coordinatewise monotone dynamics: the swung run dominates daywise
        n = 60
        g = sample_gnp(n, 0.15, seed)
        r0 = sample_morning(n, seed + 1)
        swung, _ = apply_swing(r0, 1.0, seed + 2)
        plain, pert = r0, swung
        for _ in range(5):
            assert bias(pert) >= bias(plain)
            plain = majority_step(g, plain)
            pert = majority_step(g, pert)


class TestSampleInitial:
    """Each model's draw through the primitives the harness's trial calls."""

    def test_uniform_kind(self):
        s = sample_uniform(50, 1)
        assert s.n == 50 and set(s.signs()) <= {-1, 1}

    def test_fixed_kind(self):
        assert bias(sample_fixed_discrepancy(50, 4, 1)) == 4

    def test_morning_kind(self):
        s, swing = apply_swing(sample_morning(100, 1), 1.0, 2)
        assert swing.size == 10
        assert bias(s) == 20  # ceil(n/2) positives plus 10 flips

    @pytest.mark.parametrize("sample", [
        lambda n: sample_uniform(n, 0),
        lambda n: sample_morning(n, 0),
        lambda n: sample_fixed_discrepancy(n, 1, 0),
    ], ids=["uniform", "morning", "fixed"])
    @pytest.mark.parametrize("n", [0, 2**31 + 1])
    def test_bounds_n_before_it_draws(self, monkeypatch, sample, n):
        # past 2**31 a draw would allocate gigabytes, so no generator may be
        # built before n is checked
        def unreached(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(np.random, "default_rng", unreached)
        with pytest.raises(ValueError, match="n must lie in 1..2"):
            sample(n)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown opinion model kind 'coin'"):
            OpinionModel("coin").validate(10)

    @pytest.mark.parametrize("model, applies_to", [
        (OpinionModel("uniform", c=1.0), "morning_evening"),
        (OpinionModel("fixed_discrepancy", d=2, c=0.5), "morning_evening"),
        (OpinionModel("uniform", d=2), "fixed_discrepancy"),
        (OpinionModel("morning_evening", d=2, c=1.0), "fixed_discrepancy"),
    ])
    def test_rejects_parameters_the_kind_ignores(self, model, applies_to):
        with pytest.raises(ValueError, match=f"only to the {applies_to} model"):
            model.validate(100)

    @pytest.mark.parametrize("kind", ["uniform", "morning_evening"])
    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_swing_coefficient(self, kind, c):
        with pytest.raises(ValueError, match="swing coefficient c must be finite"):
            OpinionModel(kind, c=c).validate(100)
        with pytest.raises(ValueError, match="swing coefficient c must be finite"):
            apply_swing(sample_morning(100, 0), c, 1)

    @pytest.mark.parametrize("kind", ["uniform", "morning_evening"])
    def test_rejects_negative_swing_coefficient(self, kind):
        with pytest.raises(ValueError, match=r"^swing coefficient c must lie in \[0, inf\), got -0\.5$"):
            OpinionModel(kind, c=-0.5).validate(100)

    def test_rejects_a_swing_larger_than_the_minus_ones(self):
        # n=4 starts with two -1 vertices: c=1 swings both, c=2 would swing 4
        OpinionModel("morning_evening", c=1.0).validate(4)
        with pytest.raises(ValueError, match="swing larger than the available -1 vertices"):
            OpinionModel("morning_evening", c=2.0).validate(4)


class TestCensus:
    def test_path_hand_computed(self):
        g = path_graph(3)
        r0 = OpinionVector(np.array([1, -1, 1]))
        rep = census(g, r0, np.array([], dtype=np.int64), gamma=1.0, p=0.5)
        assert rep.almost_positive == 2  # day-one sums (+1, -2, +1) vs -1.06
        assert rep.unstable == 0
        assert rep.unstable_with_swing == 0
        assert rep.excess == 0

    def test_empty_graph_counts(self):
        n = 101
        g = empty_graph(n)
        r0 = sample_morning(n, 0)
        swung, swing = apply_swing(r0, 1.0, 1)
        rep = census(g, r0, swing, gamma=0.5, p=0.3)
        assert rep.almost_positive == n  # all sums are 0 > negative threshold
        assert rep.unstable == n
        assert rep.unstable_with_swing == 0  # nobody has neighbors
        assert rep.excess == n - (n + 1) // 2

    def test_unstable_with_swing_requires_adjacency(self):
        # 0-1-2 path with r0 = (+,+,-): day-zero sums are (1, 0, 1), so
        # vertex 1 is the only unstable vertex and its neighbors are 0 and 2
        g = path_graph(3)
        r0 = OpinionVector(np.array([1, 1, -1]))
        rep = census(g, r0, np.array([0]), gamma=0.1, p=0.5)
        assert rep.unstable == 1
        assert rep.unstable_with_swing == 1  # vertex 1 is adjacent to swing vertex 0
        rep = census(g, r0, np.array([2]), gamma=0.1, p=0.5)
        assert rep.unstable_with_swing == 1
        rep = census(g, r0, np.array([], dtype=np.int64), gamma=0.1, p=0.5)
        assert rep.unstable_with_swing == 0

    def test_star_centre_sum_past_int8(self):
        # 128 leaves: the centre's day-one sum of +-128 does not fit in int8
        g = star_graph(128)
        none = np.array([], dtype=np.int64)
        plus = OpinionVector(np.ones(129, dtype=np.int8))
        rep = census(g, plus, none, gamma=0.0, p=0.5)
        assert (rep.almost_positive, rep.unstable, rep.excess) == (129, 0, 64)
        rep = census(g, OpinionVector(-plus.signs()), none, gamma=0.0, p=0.5)
        assert (rep.almost_positive, rep.unstable, rep.excess) == (0, 0, -65)
        # centre +1 between 64 + and 64 - leaves: tied, so unstable, and it
        # keeps +1, turning every leaf + on day one
        signs = np.ones(129, dtype=np.int8)
        signs[65:] = -1
        rep = census(g, OpinionVector(signs), np.array([5]), gamma=0.0, p=0.5)
        assert (rep.almost_positive, rep.unstable, rep.unstable_with_swing) == (129, 1, 1)

    def test_gamma_zero_uses_strict_positive(self):
        # all day-one sums are 0 on the empty graph: strictly > 0 fails
        g = empty_graph(4)
        r0 = OpinionVector(np.array([1, 1, -1, -1]))
        rep = census(g, r0, np.array([], dtype=np.int64), gamma=0.0, p=0.5)
        assert rep.almost_positive == 0

    def test_threshold_monotone_in_gamma(self):
        g = sample_gnp(300, 0.05, 21)
        r0 = sample_morning(300, 22)
        low = census(g, r0, np.array([], dtype=np.int64), gamma=0.1, p=0.05)
        high = census(g, r0, np.array([], dtype=np.int64), gamma=0.5, p=0.05)
        assert high.almost_positive >= low.almost_positive

    def test_day_one_state_matches_majority_step(self):
        g = sample_gnp(150, 0.08, 31)
        r0 = sample_morning(150, 32)
        r1 = majority_step(g, r0)
        signs1 = r1.signs()
        gamma, p = 0.2, 0.08
        threshold = -gamma * p**1.5 * g.n
        expected = sum(
            1 for v in range(g.n) if signs1[neighbors_of(g, v)].sum() > threshold
        )
        rep = census(g, r0, np.array([], dtype=np.int64), gamma=gamma, p=p)
        assert rep.almost_positive == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_swing_neighbourhood_matches_int32_indicator(self, seed):
        # an independent formula for the swing's neighbourhood: an int32
        # matvec of the swing indicator over the whole adjacency
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 400))
        p = float(rng.uniform(0.005, 0.2))
        g = sample_gnp(n, p, seed)
        r0 = sample_morning(n, seed + 1)
        _, swing = apply_swing(r0, float(rng.uniform(0, 2)), seed + 2)
        indicator = np.zeros(n, dtype=np.int32)
        indicator[swing] = 1
        touches = (g._adjacency.astype(np.int32) @ indicator) > 0
        unstable = neighbor_sums(g, r0) == 0
        rep = census(g, r0, swing, gamma=0.1, p=p)
        assert rep.unstable == np.count_nonzero(unstable)
        assert rep.unstable_with_swing == np.count_nonzero(unstable & touches)

    @pytest.mark.parametrize("seed", range(4))
    def test_reference_carries_days_zero_and_one(self, seed):
        n = 300 + 37 * seed
        g = sample_gnp(n, 0.04, seed)
        r0 = sample_morning(n, seed + 1)
        s0, swing = apply_swing(r0, 1.0, seed + 2)
        rep = census(g, r0, swing, gamma=0.1, p=0.04)
        (signs0, sums0), (signs1, sums1) = rep.reference
        assert np.array_equal(signs0, r0.signs())
        assert np.array_equal(signs1, majority_step(g, r0).signs())
        assert np.array_equal(sums0, neighbor_sums(g, r0))
        assert np.array_equal(sums1, neighbor_sums(g, OpinionVector(signs1)))
        assert not any(a.flags.writeable for pair in rep.reference for a in pair)
        # the arrays stay out of equality and the repr
        assert rep == dataclasses.replace(rep, reference=())
        assert "reference" not in repr(rep)
        assert run(g, s0, 64, reference=rep.reference) == run(g, s0, 64)

    def test_rejects_bad_arguments(self):
        g = path_graph(3)
        r0 = OpinionVector(np.array([1, -1, 1]))
        with pytest.raises(ValueError):
            census(g, r0, [], gamma=-1.0, p=0.5)
        with pytest.raises(ValueError):
            census(g, r0, [], gamma=0.5, p=0.0)
        with pytest.raises(ValueError):
            census(g, r0, [5], gamma=0.5, p=0.5)

    @pytest.mark.parametrize("swing", [[1.9], [0.5], [True], ["3"], [1, True], np.array([1.0])],
                             ids=["float", "fraction", "bool", "string", "bool-beside-int",
                                  "float-array"])
    def test_rejects_swing_ids_that_are_not_integers(self, swing):
        # a cast would count vertex 1, 0, 1, 3, 1 and 1
        g = path_graph(4)
        r0 = OpinionVector(np.array([1, 1, -1, -1]))
        with pytest.raises(ValueError, match="^swing vertex ids must be integers"):
            census(g, r0, swing, gamma=0.1, p=0.5)

    @pytest.mark.parametrize("swing", [[3], (3,), np.array([3], dtype=np.uint32)],
                             ids=["list", "tuple", "uint32-array"])
    def test_accepts_swing_ids_of_any_integer_type(self, swing):
        g = path_graph(4)
        r0 = OpinionVector(np.array([1, 1, -1, -1]))
        rep = census(g, r0, swing, gamma=0.1, p=0.5)
        assert rep == census(g, r0, np.array([3]), gamma=0.1, p=0.5)
        assert (rep.unstable, rep.unstable_with_swing) == (2, 1)  # vertices 1, 2; 2 touches 3

    @pytest.mark.parametrize("swing", [[1, True], (np.True_, 2)], ids=["list", "tuple"])
    def test_names_a_bool_beside_an_int(self, swing):
        # numpy reads such a list as int64, so the message names the bool
        g = path_graph(4)
        r0 = OpinionVector(np.array([1, 1, -1, -1]))
        with pytest.raises(ValueError, match="^swing vertex ids must be integers, got a bool$"):
            census(g, r0, swing, gamma=0.1, p=0.5)

    @pytest.mark.parametrize("swing", [[[1, 2]], np.array([[1], [2]]), [[]]],
                             ids=["nested-list", "column", "empty-row"])
    def test_rejects_swing_ids_that_are_not_1d(self, swing):
        g = path_graph(4)
        r0 = OpinionVector(np.array([1, 1, -1, -1]))
        with pytest.raises(ValueError, match="^swing vertex ids must be 1-D, got shape "):
            census(g, r0, swing, gamma=0.1, p=0.5)

    @pytest.mark.parametrize("swing", [3, np.int32(3)], ids=["int", "numpy-int"])
    def test_a_bare_id_is_one_id(self, swing):
        g = path_graph(4)
        r0 = OpinionVector(np.array([1, 1, -1, -1]))
        assert census(g, r0, swing, gamma=0.1, p=0.5) == census(g, r0, [3], gamma=0.1, p=0.5)

    def test_rejects_an_opinion_vector_of_another_size(self):
        with pytest.raises(ValueError, match="opinion vector does not match graph size"):
            census(path_graph(4), OpinionVector(np.array([1, -1, 1])), [], gamma=0.1, p=0.5)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        g = path_graph(3)
        r0 = OpinionVector(np.array([1, -1, 1]))
        with pytest.raises(ValueError, match="gamma must be finite"):
            census(g, r0, [], gamma=gamma, p=0.5)


def day2_bias(g, c, seed):
    """The opinion sum two majority days after a swung balanced start."""
    return bias(majority_step(g, majority_step(g, swung_start(g.n, c, seed))))


class TestDay2Bias:
    def test_complete_graph_goes_unanimous(self):
        # bias 20 at day 0 makes every neighbor sum positive: all +1 by day 1
        assert day2_bias(complete_graph(100), 1.0, 7) == 100

    def test_empty_graph_keeps_swing_bias(self):
        assert day2_bias(empty_graph(100), 1.0, 7) == 20

    def test_gnp_amplification_pilot(self):
        # pilot-pinned: two days from a swung balanced start at n=1e4,
        # p=0.02 lands far beyond the swing alone
        n, p, c = 10**4, 0.02, 1.0
        floor = 0.1 * p * n**1.5
        biases = [day2_bias(sample_gnp(n, p, 1000 + t), c, 2000 + t) for t in range(50)]
        positive = sum(1 for b in biases if b > 0)
        assert positive >= 45
        assert float(np.median(biases)) >= floor
