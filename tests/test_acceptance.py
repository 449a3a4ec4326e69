"""Acceptance gate: the eleven headline checks, one test per criterion.

Each test prints a single ``criterion NN PASS/FAIL`` line with the measured
quantities (visible under ``pytest -s``, or in the captured-output section on
failure) and then asserts.  Monte Carlo criteria run at frozen seeds, and
their lines also carry the spread behind each margin (unanimity days, alpha
quantiles, skipped trials), so a drift shows before a threshold is crossed;
timing criteria take the best of a few repeats to damp scheduler noise.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time

import numpy as np
from scipy import stats

from conftest import majority_step_reference
from majdyn import (
    ExperimentConfig,
    OpinionModel,
    OpinionVector,
    chernoff_lower,
    chernoff_upper,
    estimate_jumbledness,
    from_edges,
    majority_step,
    run,
    run_experiment,
    run_lemma_sweeps,
    sample_gnp,
    write_report,
)


def _verdict(num, label, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"criterion {num:02d} {label}: {detail}"


def test_c01_every_small_system_settles():
    """Exhaustive n <= 5: every start reaches a fixed point or a 2-cycle."""
    t0 = time.perf_counter()
    total = 0
    cap_hits = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = from_edges(n, edges)
            for bits in range(1 << n):
                signs = np.array(
                    [1 if bits >> v & 1 else -1 for v in range(n)], dtype=np.int8
                )
                traj = run(g, OpinionVector(signs), day_cap=50)
                total += 1
                if traj.outcome.kind == "day_cap":
                    cap_hits += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1, "exhaustive settling on <=5 vertices",
        cap_hits == 0 and elapsed < 30.0,
        f"{total} runs, {cap_hits} cap hits, {elapsed:.1f}s",
    )


def test_c02_optimized_step_matches_reference():
    rng = np.random.default_rng(77)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(1, 201))
        g = sample_gnp(n, float(rng.uniform(0.0, 0.35)), seed=int(rng.integers(2**31)))
        s = OpinionVector(rng.choice(np.array([-1, 1], dtype=np.int8), size=n))
        if majority_step(g, s) != majority_step_reference(g, s):
            mismatches += 1
    _verdict(
        2, "optimized step equals naive reference",
        mismatches == 0, f"500 instances, {mismatches} mismatches",
    )


def test_c03_distribution_check_suite():
    t0 = time.perf_counter()
    results = {r.name: r for r in run_lemma_sweeps(max_cases=200, seed=0)}
    elapsed = time.perf_counter() - t0
    wanted = ("binom-shift", "equality-prob", "coupling-sandwich", "four-rv")
    ok = all(results[name].passed and results[name].cases >= 200 for name in wanted)
    detail = ", ".join(f"{name} {results[name].cases} cases" for name in wanted)
    _verdict(
        3, "exact distribution checks",
        ok and elapsed < 60.0, f"{detail}, {elapsed:.1f}s",
    )


def test_c04_concentration_bounds_dominate_exact_tails():
    worst = -math.inf
    cases = 0
    for n in (10, 100, 1000, 5000):
        for p in (0.01, 0.1, 0.5):
            mean = n * p
            for t in np.linspace(0.5, mean + 5 * math.sqrt(mean) + 1, 20):
                # sf/cdf avoid the cancellation a summed-pmf tail would have
                upper_exact = float(stats.binom.sf(math.ceil(mean + t) - 1, n, p))
                lower_exact = float(stats.binom.cdf(math.floor(mean - t), n, p))
                worst = max(
                    worst,
                    upper_exact - chernoff_upper(mean, float(t)),
                    lower_exact - chernoff_lower(mean, float(t)),
                )
                cases += 1
    _verdict(
        4, "tail bounds dominate exact tails",
        worst <= 0.0, f"{cases} grid points, worst excess {worst:.2e}",
    )


def test_c05_gaussian_tail_facts():
    results = {r.name: r for r in run_lemma_sweeps(max_cases=200, seed=0)}
    contraction = results["psi-contraction"]
    pair = results["psi-pair-lower-bound"]
    ok = (
        contraction.passed and contraction.cases >= 10**4
        and pair.passed and pair.worst >= -1e-9
    )
    _verdict(
        5, "gaussian tail contraction and pair bound",
        ok,
        f"contraction {contraction.cases} pairs, pair-bound worst {pair.worst:.2e}",
    )


def test_c06_fast_unanimity_at_desk_scale():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(n=10**4, p=0.03, trials=100, master_seed=1001)
    report = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    unanimous = [t for t in report.trials if t.outcome == "unanimous"]
    frac = len(unanimous) / 100
    early = sum(1 for t in unanimous if t.unanimity_day <= 8) / max(len(unanimous), 1)
    signed = [t for t in report.trials if t.s0_bias != 0]
    matched = sum(
        1 for t in signed
        if t.outcome == "unanimous" and t.sign == (1 if t.s0_bias > 0 else -1)
    )
    sign_frac = matched / len(signed)
    days = sorted(t.unanimity_day for t in unanimous) or [None]
    ok = frac >= 0.9 and early >= 0.9 and sign_frac >= 0.95 and elapsed < 120.0
    _verdict(
        6, "fast unanimity at n=1e4 p=0.03",
        ok,
        f"unanimity {frac:.2f}, day<=8 {early:.2f}, sign match {sign_frac:.2f}, "
        f"unanimity days {days[0]}..{days[-1]} median {days[len(days) // 2]}, "
        f"{elapsed:.0f}s",
    )


def test_c07_almost_positive_excess():
    cfg = ExperimentConfig(
        n=5000, p=0.02, trials=50, master_seed=1002,
        model=OpinionModel("morning_evening", c=1.0), gamma=0.1,
    )
    report = run_experiment(cfg)
    agg = report.aggregates
    positive = agg["positive_excess_fraction"]
    median_alpha = agg["alpha_hat_q50"]
    _verdict(
        7, "positive census excess under a swung start",
        positive >= 0.8 and median_alpha > 0,
        f"excess>0 in {positive:.2f} of trials, median alpha {median_alpha:.4f}, "
        f"alpha q10..q90 {agg['alpha_hat_q10']:.4f}..{agg['alpha_hat_q90']:.4f}",
    )


def test_c08_one_day_amplification_scale():
    # only days 0 and 1 are read, so each trial runs one day
    cfg = ExperimentConfig(n=2 * 10**4, p=0.02, trials=100, master_seed=1003, day_cap=1)
    report = run_experiment(cfg)
    ratios = [
        abs(t.bias_by_day[1]) / abs(t.bias_by_day[0])
        for t in report.trials
        if len(t.bias_by_day) > 1 and t.bias_by_day[0] != 0
    ]
    med = statistics.median(ratios)
    root = math.sqrt(2 * 10**4 * 0.02)
    ok = 0.3 * root <= med <= 3.0 * root
    _verdict(
        8, "first-day bias amplification near sqrt(n p)",
        ok,
        f"median ratio {med:.2f} vs sqrt(np) {root:.1f}, {len(ratios)} trials used, "
        f"{len(report.trials) - len(ratios)} skipped",
    )


def test_c09_degree_floor_and_discrepancy():
    n, p = 5000, 0.3
    assert p >= math.log(n) ** 2 / n
    floor = 0.9 * n * p
    beta_bound = 10.0 * math.sqrt(n * p)
    deg_ok = 0
    beta_worst = 0.0
    for i in range(100):
        g = sample_gnp(n, p, seed=1004 + i)
        if g.degrees.min() >= floor:
            deg_ok += 1
        beta_worst = max(beta_worst, estimate_jumbledness(g, p, pairs=50, seed=2000 + i))
    ok = deg_ok >= 95 and beta_worst <= beta_bound
    _verdict(
        9, "degree floor and low discrepancy at n=5000 p=0.3",
        ok,
        f"min-degree ok {deg_ok}/100, worst beta_hat {beta_worst:.2f} "
        f"(bound {beta_bound:.0f})",
    )


def test_c10_performance_budgets():
    n = 10**6
    p = 20.0 / n
    sample_best = math.inf
    for i in range(2):
        t0 = time.perf_counter()
        g = sample_gnp(n, p, seed=100 + i)
        sample_best = min(sample_best, time.perf_counter() - t0)
    rng = np.random.default_rng(5)
    s = OpinionVector(rng.choice(np.array([-1, 1], dtype=np.int8), size=n))
    majority_step(g, s)  # warm the adjacency cache
    step_best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        s = majority_step(g, s)
        step_best = min(step_best, time.perf_counter() - t0)
    ok = step_best <= 0.100 and sample_best <= 2.0
    _verdict(
        10, "step and sampling budgets at n=1e6",
        ok, f"step {step_best * 1e3:.0f}ms (cap 100ms), sample {sample_best:.2f}s (cap 2s)",
    )


def test_c11_byte_identical_reports(tmp_path):
    cfg = dict(n=100, p=0.1, trials=3, master_seed=42)
    blobs = []
    for run_idx in range(3):
        report = run_experiment(ExperimentConfig(**cfg))
        jp = tmp_path / f"r{run_idx}.json"
        cp = tmp_path / f"r{run_idx}.csv"
        write_report(report, jp, "json")
        files = write_report(report, cp, "csv")
        blobs.append(jp.read_bytes() + cp.read_bytes() + files[1].read_bytes())
    par = run_experiment(ExperimentConfig(**cfg, workers=3))
    pp = tmp_path / "par.json"
    write_report(par, pp, "json")
    serial_trials = blobs[0]
    ok = (
        blobs[0] == blobs[1] == blobs[2]
        and pp.read_bytes() == (tmp_path / "r0.json").read_bytes()
    )
    _verdict(
        11, "byte-identical reports across runs and worker counts",
        ok, f"3 serial runs x (json+csv), workers=1 vs 3, {len(serial_trials)} bytes each",
    )
