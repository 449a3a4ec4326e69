"""Exact probability toolkit tests.

Small cases are cross-checked against independent oracles computed here:
rational binomial enumeration with Fraction arithmetic, brute-force
four-variable enumeration for the coupling sandwich, and numerical
quadrature of the normal density for the CDF helpers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import mass_at
from majdyn import (
    BinomSpec,
    berry_esseen_gap,
    binom_diff_pmf,
    check_binom_shift,
    check_coupling,
    check_equality_prob,
    check_four_rv,
    chernoff_lower,
    chernoff_upper,
    phi,
    probkit,
    psi,
    psi_pair_bound_constant,
    run_lemma_sweeps,
)


def exact_binom_masses(n: int, p: Fraction) -> list[Fraction]:
    """Rational binomial law, the independent oracle for the float path."""
    return [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]


def exact_diff_masses(n: int, m: int, p: Fraction) -> dict[int, Fraction]:
    xs, ys = exact_binom_masses(n, p), exact_binom_masses(m, p)
    out: dict[int, Fraction] = {}
    for i, px in enumerate(xs):
        for j, py in enumerate(ys):
            out[i - j] = out.get(i - j, Fraction(0)) + px * py
    return out


class TestChernoff:
    def test_formula_values(self):
        assert chernoff_upper(100.0, 0.0) == 1.0
        assert chernoff_upper(100.0, 30.0) == pytest.approx(math.exp(-900.0 / 220.0), rel=1e-15)
        assert chernoff_lower(50.0, 20.0) == pytest.approx(math.exp(-4.0), rel=1e-15)
        assert chernoff_lower(0.0, 5.0) == 0.0
        assert chernoff_lower(0.0, 0.0) == 1.0

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            chernoff_upper(-1.0, 0.0)
        with pytest.raises(ValueError):
            chernoff_lower(1.0, -2.0)

    def test_bounds_dominate_exact_tails(self):
        # exact tails by direct pmf summation on a small grid
        from majdyn.probkit import _binom_masses

        for n, p in ((100, 0.1), (1000, 0.1), (500, 0.5), (2000, 0.01)):
            masses = _binom_masses(BinomSpec(n, p))
            mu = n * p
            for t in np.linspace(0.0, mu + 3.0, 10):
                upper_exact = masses[math.ceil(mu + t):].sum()
                lower_exact = masses[: math.floor(mu - t) + 1].sum() if mu - t >= 0 else 0.0
                assert upper_exact <= chernoff_upper(mu, float(t)) + 1e-12
                assert lower_exact <= chernoff_lower(mu, float(t)) + 1e-12


class TestNormalCdf:
    def test_psi_zero(self):
        assert psi(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_psi_one_against_quadrature(self):
        # psi(1) = 1/2 minus the density mass on [0, 1]; the finite interval
        # keeps the quadrature error estimate far below the tolerance
        density = lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi)
        inner, err = quad(density, 0.0, 1.0)
        assert err < 1e-13
        assert abs(psi(1.0) - (0.5 - inner)) <= 1e-12

    def test_phi_plus_psi_is_one(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert phi(float(x)) + psi(float(x)) == pytest.approx(1.0, abs=1e-12)

    def test_far_tail_accuracy(self):
        density = lambda u: math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi)
        for x in (2.0, 4.0, 6.0):
            expected, _ = quad(density, x, np.inf)
            assert psi(x) == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=-10, max_value=10),
        y=st.floats(min_value=-10, max_value=10),
    )
    def test_psi_contraction(self, x, y):
        assert abs(psi(x) - psi(y)) <= abs(x - y) + 1e-12

    def test_pair_lower_bound_constant(self):
        assert psi_pair_bound_constant(1.0) == pytest.approx(
            math.exp(-0.5) / math.sqrt(2.0 * math.pi), rel=1e-15
        )
        with pytest.raises(ValueError):
            psi_pair_bound_constant(0.0)

    def test_pair_lower_bound_on_grid(self):
        for c in (1.0, 2.0, 3.0):
            const = psi_pair_bound_constant(c)
            grid = np.linspace(-c, c, 41)
            for x in grid:
                for y in grid:
                    if x + y < 0 and abs(x) + abs(y) <= c:
                        assert psi(float(x)) + psi(float(y)) >= 1.0 - const * (x + y) - 1e-9


class TestBinomDiffPmf:
    @pytest.mark.parametrize("trials, prob, message", [
        (-1, 0.5, "trials must be non-negative"),
        (3, 1.5, re.escape("prob must lie in [0, 1]")),
        (3, -0.1, re.escape("prob must lie in [0, 1]")),
        (3, math.nan, re.escape("prob must lie in [0, 1]")),
    ], ids=["negative-trials", "prob-above-1", "prob-below-0", "prob-nan"])
    def test_spec_rejects_bad_parameters(self, trials, prob, message):
        with pytest.raises(ValueError, match=message):
            BinomSpec(trials, prob)

    def test_zero_trials_point_mass(self):
        pmf = binom_diff_pmf(BinomSpec(0, 0.5), BinomSpec(0, 0.5))
        assert pmf.support_offset == 0
        assert pmf.masses.tolist() == [1.0]

    def test_exact_against_fraction_oracle(self):
        for n, m, p in ((4, 4, Fraction(1, 2)), (5, 3, Fraction(1, 4)), (6, 0, Fraction(2, 3))):
            pmf = binom_diff_pmf(BinomSpec(n, float(p)), BinomSpec(m, float(p)))
            oracle = exact_diff_masses(n, m, p)
            for k in range(-m, n + 1):
                assert mass_at(pmf, k) == pytest.approx(float(oracle[k]), abs=1e-15)

    def test_known_symmetric_value(self):
        pmf = binom_diff_pmf(BinomSpec(4, 0.5), BinomSpec(4, 0.5))
        assert mass_at(pmf, 0) == pytest.approx(70.0 / 256.0, abs=1e-15)

    def test_normalization_within_tolerance(self):
        for n, m, p in ((10, 8, 0.3), (200, 150, 0.07), (2000, 1000, 0.5)):
            pmf = binom_diff_pmf(BinomSpec(n, p), BinomSpec(m, p))
            assert abs(float(pmf.masses.sum()) - 1.0) <= 1e-12

    def test_guard_rejects_large_convolutions(self):
        with pytest.raises(ValueError):
            binom_diff_pmf(BinomSpec(15000, 0.5), BinomSpec(6000, 0.5))

    def test_out_of_support_probabilities(self):
        pmf = binom_diff_pmf(BinomSpec(2, 0.5), BinomSpec(2, 0.5))
        assert mass_at(pmf, 5) == 0.0
        assert pmf.p_ge(-3) == pytest.approx(1.0, abs=1e-15)
        assert pmf.p_ge(3) == 0.0


class TestBinomShift:
    def test_bound_formula_on_named_pair(self):
        max_diff, bound = check_binom_shift(BinomSpec(50, 0.5), BinomSpec(50, 0.5))
        assert bound == pytest.approx(1.0 / (100.0 * 0.25), rel=1e-15)
        assert max_diff <= bound

    def test_max_diff_against_fraction_oracle(self):
        n, m, p = 6, 4, Fraction(1, 3)
        oracle = exact_diff_masses(n, m, p)
        vals = [oracle.get(k, Fraction(0)) for k in range(-m - 1, n + 2)]
        expected = max(abs(b - a) for a, b in zip(vals, vals[1:]))
        max_diff, _ = check_binom_shift(BinomSpec(n, float(p)), BinomSpec(m, float(p)))
        assert max_diff == pytest.approx(float(expected), abs=1e-15)

    def test_rejects_mismatched_or_degenerate_p(self):
        with pytest.raises(ValueError):
            check_binom_shift(BinomSpec(5, 0.4), BinomSpec(5, 0.5))
        with pytest.raises(ValueError):
            check_binom_shift(BinomSpec(5, 1.0), BinomSpec(5, 1.0))

    def test_rejects_two_empty_variables(self):
        with pytest.raises(ValueError, match="need at least one trial in total"):
            check_binom_shift(BinomSpec(0, 0.5), BinomSpec(0, 0.5))

    def test_normalized_ratio_bounded_across_sizes(self):
        # pilot-pinned: max diff times (m+n)p(1-p) stays below 1
        for n in (50, 100, 200, 500):
            max_diff, _ = check_binom_shift(BinomSpec(n, 0.1), BinomSpec(n, 0.1))
            assert max_diff * (2 * n) * 0.1 * 0.9 <= 1.0


class TestEqualityProb:
    def test_symmetric_example_exact(self):
        p_eq, p_ge, ratio = check_equality_prob(BinomSpec(4, 0.5), BinomSpec(4, 0.5))
        assert p_eq == pytest.approx(70.0 / 256.0, abs=1e-15)
        assert p_ge == pytest.approx(163.0 / 256.0, abs=1e-15)
        assert ratio == pytest.approx((70.0 / 256.0) * math.sqrt(2.0), abs=1e-14)

    def test_identical_variables_majorize_half(self):
        for n, p in ((10, 0.2), (55, 0.5), (300, 0.04)):
            _, p_ge, _ = check_equality_prob(BinomSpec(n, p), BinomSpec(n, p))
            assert p_ge >= 0.5

    def test_rejects_mismatched_p(self):
        with pytest.raises(ValueError, match="must share the success probability"):
            check_equality_prob(BinomSpec(5, 0.4), BinomSpec(5, 0.5))

    def test_ratio_band_small_density(self):
        # pilot-pinned band for the sqrt(np)-normalized equality probability
        for n in (100, 300, 600, 1000, 2000):
            _, _, ratio = check_equality_prob(BinomSpec(n, 0.05), BinomSpec(n, 0.05))
            assert 0.2 <= ratio <= 0.8

    @pytest.mark.parametrize("n, m, p", [
        (7, 3, 1 / 3), (3, 7, 1 / 3), (12, 1, 0.7), (0, 5, 0.5), (5, 0, 0.5), (0, 0, 0.3),
        (9, 6, 1e-9), (6, 9, 1e-9), (9, 6, 1 - 1e-9), (6, 9, 1 - 1e-9),
        (4, 2, 0.0), (2, 4, 0.0), (4, 2, 1.0), (2, 4, 1.0), (4, 4, 1.0),
    ])
    def test_against_fraction_oracle(self, n, m, p):
        # the float p taken exactly; scipy's masses carry a few ulps each
        oracle = exact_diff_masses(n, m, Fraction(p))
        p_eq, p_ge, _ = check_equality_prob(BinomSpec(n, p), BinomSpec(m, p))
        assert p_eq == pytest.approx(float(oracle.get(0, 0)), abs=1e-14)
        assert p_ge == pytest.approx(float(sum(v for k, v in oracle.items() if k >= 0)), abs=1e-14)

    def test_needs_no_convolution(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the difference law was built")

        monkeypatch.setattr(np, "convolve", refuse)
        monkeypatch.setattr(probkit, "_diff_pmf", refuse)
        for n, m in ((2000, 2000), (2000, 1500), (1500, 2000), (0, 30)):
            p_eq, p_ge, _ = check_equality_prob(BinomSpec(n, 0.05), BinomSpec(m, 0.05))
            assert 0.0 < p_eq <= p_ge <= 1.0

    def test_matches_the_difference_law(self):
        # P[X = Y] is the law's lag-0 mass to the bit, on either side of
        # n = m and for kernels short enough for numpy's small-correlate loop
        rng = np.random.default_rng(29)
        for i in range(300):
            n = int(rng.integers(0, 12 if i % 3 == 0 else 600))
            m = n if i % 4 == 0 else int(rng.integers(0, 12 if i % 5 == 0 else 600))
            p = float(rng.uniform())
            a, b = BinomSpec(n, p), BinomSpec(m, p)
            law = binom_diff_pmf(a, b)
            p_eq, p_ge, _ = check_equality_prob(a, b)
            assert p_eq == mass_at(law, 0)
            assert p_ge == pytest.approx(law.p_ge(0), abs=5e-15)

    def test_guard_still_applies(self):
        with pytest.raises(ValueError, match="20000 total trials"):
            check_equality_prob(BinomSpec(15000, 0.5), BinomSpec(6000, 0.5))


def brute_force_tail(z1, z2, w1, w2, ell):
    """Quadruple loop over all four supports; independent of the convolution
    path."""
    total = 0.0
    mz1 = exact_binom_masses(z1.trials, Fraction(z1.prob).limit_denominator(1000))
    mz2 = exact_binom_masses(z2.trials, Fraction(z2.prob).limit_denominator(1000))
    mw1 = exact_binom_masses(w1.trials, Fraction(w1.prob).limit_denominator(1000))
    mw2 = exact_binom_masses(w2.trials, Fraction(w2.prob).limit_denominator(1000))
    for a, pa in enumerate(mz1):
        for b, pb in enumerate(mz2):
            for c, pc in enumerate(mw1):
                for d, pd in enumerate(mw2):
                    if a + b - c - d >= ell:
                        total += float(pa * pb * pc * pd)
    return total


class TestCoupling:
    def test_sandwich_on_named_example(self):
        specs = (BinomSpec(10, 0.3), BinomSpec(3, 0.3), BinomSpec(10, 0.3), BinomSpec(3, 0.3))
        lhs, middle, rhs = check_coupling(*specs, 0)
        assert lhs <= middle <= rhs

    def test_middle_against_brute_force(self):
        specs = (BinomSpec(4, 0.25), BinomSpec(2, 0.5), BinomSpec(3, 0.75), BinomSpec(2, 0.25))
        lhs, middle, rhs = check_coupling(*specs, 1)
        full = brute_force_tail(*specs, 1)
        base = brute_force_tail(specs[0], BinomSpec(0, 0.5), specs[2], BinomSpec(0, 0.5), 1)
        assert middle == pytest.approx(full - base, abs=1e-12)
        assert lhs <= middle <= rhs

    def test_empty_second_parts_collapse(self):
        lhs, middle, rhs = check_coupling(
            BinomSpec(12, 0.4), BinomSpec(0, 0.4), BinomSpec(9, 0.4), BinomSpec(0, 0.4), 2
        )
        assert lhs == 0.0
        assert middle == pytest.approx(0.0, abs=1e-15)
        assert rhs == 0.0

    def test_randomized_sandwich(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            specs = [
                BinomSpec(int(rng.integers(0, 40)), float(rng.uniform(0.05, 0.95)))
                for _ in range(4)
            ]
            ell = int(rng.integers(-15, 16))
            lhs, middle, rhs = check_coupling(*specs, ell)
            assert lhs - 1e-12 <= middle <= rhs + 1e-12


class TestFourRv:
    def test_identical_pairs_no_gap(self):
        # both laws are built from the same inputs, so they agree exactly
        diff, scale = check_four_rv(100, 80, 100, 80, 0.1, 3)
        assert diff == 0.0
        assert scale == 0.0

    def test_shifted_pair_within_pinned_constant(self):
        diff, scale = check_four_rv(110, 100, 100, 100, 0.1, 0)
        assert scale > 0
        assert diff <= 3.0 * scale

    def test_scale_formula(self):
        _, scale = check_four_rv(60, 50, 52, 58, 0.2, 1)
        assert scale == pytest.approx(0.2 * 8 / math.sqrt(0.2 * 50), rel=1e-15)

    def test_randomized_ratio_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            ns = [int(rng.integers(50, 300)) for _ in range(4)]
            p = float(rng.uniform(0.05, 0.5))
            ell = int(round((ns[0] - ns[1]) * p))
            diff, scale = check_four_rv(*ns, p, ell)
            if scale > 0:
                assert diff <= 3.0 * scale

    @pytest.mark.parametrize("ns, p, message", [
        ((0, 80, 100, 80), 0.1, "all four trial counts must be positive"),
        ((100, 80, 100, -1), 0.1, "all four trial counts must be positive"),
        ((100, 80, 100, 80), 0.0, re.escape("p must lie strictly inside (0, 1)")),
        ((100, 80, 100, 80), 1.0, re.escape("p must lie strictly inside (0, 1)")),
    ], ids=["n1-zero", "n4-negative", "p-zero", "p-one"])
    def test_rejects_bad_parameters(self, ns, p, message):
        with pytest.raises(ValueError, match=message):
            check_four_rv(*ns, p, 0)


class TestBerryEsseen:
    def test_single_trial_exact_gap(self):
        # X ~ Bin(1, 1/2): cut k=0 gives |1/2 - Phi(-1)|, the larger gap
        expected = 0.5 - phi(-1.0)
        assert berry_esseen_gap(1, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_gap_shrinks_with_n(self):
        for p in (0.1, 0.5):
            gaps = [berry_esseen_gap(n, p) for n in (16, 64, 256, 1024)]
            assert all(g4 <= 0.7 * g for g, g4 in zip(gaps, gaps[1:]))

    def test_sigma_envelope(self):
        for n in (16, 256, 4096):
            for p in (0.1, 0.3, 0.5):
                gap = berry_esseen_gap(n, p)
                assert gap * math.sqrt(n * p * (1.0 - p)) <= 1.0

    def test_guard_and_validation(self):
        with pytest.raises(ValueError):
            berry_esseen_gap(10**6 + 1, 0.5)
        with pytest.raises(ValueError):
            berry_esseen_gap(100, 0.0)


class TestLemmaSweeps:
    def test_all_checks_pass(self):
        results = run_lemma_sweeps(max_cases=60, seed=1)
        assert [r.name for r in results] == [
            "chernoff-tails",
            "psi-contraction",
            "psi-pair-lower-bound",
            "binom-shift",
            "equality-prob",
            "coupling-sandwich",
            "four-rv",
            "berry-esseen",
        ]
        for r in results:
            assert r.passed, f"{r.name} failed with worst={r.worst}"

    def test_case_counts_respected(self):
        results = {r.name: r for r in run_lemma_sweeps(max_cases=25, seed=2)}
        assert results["binom-shift"].cases == 25
        assert results["coupling-sandwich"].cases == 25
        assert results["four-rv"].cases == 25

    def test_rejects_no_cases(self):
        with pytest.raises(ValueError, match="max_cases must be at least 1"):
            run_lemma_sweeps(max_cases=0)


class TestBinomMasses:
    """``_binom_masses`` calls scipy's private binomial ufunc directly; it
    must give the bytes of the public ``stats.binom.pmf`` wrapper."""

    @staticmethod
    def _wrapper(n, p):
        from scipy import stats

        return stats.binom.pmf(np.arange(n + 1), n, p)

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    @pytest.mark.parametrize("p", [0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16])
    def test_edge_cases_bitwise(self, n, p):
        got = probkit._binom_masses(BinomSpec(n, p))
        assert got.dtype == np.float64
        assert got.tobytes() == self._wrapper(n, p).tobytes()

    def test_random_cases_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(400):
            n = int(rng.integers(0, 5001))
            p = float(rng.uniform())
            assert probkit._binom_masses(BinomSpec(n, p)).tobytes() == self._wrapper(n, p).tobytes()

    def test_fallback_without_the_ufunc(self, monkeypatch):
        spec = BinomSpec(40, 0.3)
        direct = probkit._binom_masses(spec)
        monkeypatch.setattr(probkit, "_binom_pmf", lambda: None)
        assert probkit._binom_masses(spec).tobytes() == direct.tobytes()

    def test_each_law_built_once_per_check(self, monkeypatch):
        built = []
        real = probkit._binom_masses

        def counting(spec):
            built.append(spec)
            return real(spec)

        monkeypatch.setattr(probkit, "_binom_masses", counting)
        specs = [BinomSpec(5, 0.2), BinomSpec(3, 0.4), BinomSpec(6, 0.2), BinomSpec(2, 0.7)]
        check_coupling(*specs, 1)
        assert built == specs
        built.clear()
        check_equality_prob(BinomSpec(30, 0.1), BinomSpec(30, 0.1))
        assert built == [BinomSpec(30, 0.1)]
        built.clear()
        check_equality_prob(BinomSpec(30, 0.1), BinomSpec(20, 0.1))
        assert built == [BinomSpec(30, 0.1), BinomSpec(20, 0.1)]
