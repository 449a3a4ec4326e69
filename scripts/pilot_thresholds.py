"""Margin pilots for the headline experiment suite.

Runs each headline configuration at its frozen seed and prints the measured
statistic next to the threshold the test suite asserts, so a drift in any of
them is visible at a glance.  Slow (a few minutes); not part of pytest.

Usage: python3 scripts/pilot_thresholds.py [--quick]
"""

from __future__ import annotations

import argparse
import math
import statistics
import time

from scipy.stats import binom

from majdyn import (
    ExperimentConfig,
    OpinionModel,
    estimate_jumbledness,
    run_experiment,
    sample_gnp,
)


def timed(label, fn):
    t0 = time.perf_counter()
    out = fn()
    print(f"  [{time.perf_counter() - t0:6.1f}s] {label}")
    return out


def pilot_unanimity(trials):
    cfg = ExperimentConfig(n=10**4, p=0.03, trials=trials, master_seed=1001)
    report = timed("unanimity runs", lambda: run_experiment(cfg))
    agg = report.aggregates
    unanimous = [t for t in report.trials if t.outcome == "unanimous"]
    by_day8 = sum(1 for t in unanimous if t.unanimity_day <= 8)
    print(f"  unanimity fraction   {agg['unanimity_fraction']:.3f}  (need >= 0.9)")
    print(f"  day<=8 share         {by_day8 / max(len(unanimous), 1):.3f}  (need >= 0.9)")
    print(f"  sign match fraction  {agg['sign_match_fraction']:.3f}  (need >= 0.95)")
    days = sorted(t.unanimity_day for t in unanimous)
    print(f"  unanimity day range  {days[0]}..{days[-1]}  median {days[len(days)//2]}")


def pilot_census(trials):
    cfg = ExperimentConfig(
        n=5000, p=0.02, trials=trials, master_seed=1002,
        model=OpinionModel("morning_evening", c=1.0), gamma=0.1,
    )
    report = timed("census runs", lambda: run_experiment(cfg))
    agg = report.aggregates
    print(f"  positive excess frac {agg['positive_excess_fraction']:.3f}  (need >= 0.8)")
    print(f"  alpha_hat median     {agg['alpha_hat_q50']:.4f}  (need > 0)")
    print(f"  alpha_hat q10..q90   {agg['alpha_hat_q10']:.4f} .. {agg['alpha_hat_q90']:.4f}")


def pilot_growth(trials):
    cfg = ExperimentConfig(n=2 * 10**4, p=0.02, trials=trials, master_seed=1003)
    report = timed("growth runs", lambda: run_experiment(cfg))
    ratios = [
        abs(t.bias_by_day[1]) / abs(t.bias_by_day[0])
        for t in report.trials
        if t.bias_by_day[0] != 0 and len(t.bias_by_day) > 1
    ]
    med = statistics.median(ratios)
    root = math.sqrt(2 * 10**4 * 0.02)
    print(f"  median |S1|/|S0|     {med:.2f}  (need in [{0.3 * root:.0f}, {3 * root:.0f}])")
    print(f"  used/skipped         {len(ratios)}/{trials - len(ratios)}")


def pilot_degree_regularity(graphs):
    n = 5000
    for p in (0.2, 0.3):
        per_vertex = binom.cdf(math.ceil(0.9 * n * p) - 1, n - 1, p)
        print(f"  p={p}: per-graph min-degree failure <= {n * per_vertex:.2e} (union bound)")
    p = 0.3
    floor = 0.9 * n * p
    bound = 10 * math.sqrt(n * p)
    t0 = time.perf_counter()
    ok_deg, beta_max = 0, 0.0
    for i in range(graphs):
        g = sample_gnp(n, p, seed=1004 + i)
        if g.degrees.min() >= floor:
            ok_deg += 1
        est = estimate_jumbledness(g, p, pairs=50, seed=2000 + i)
        beta_max = max(beta_max, est.beta_hat)
    dt = time.perf_counter() - t0
    print(f"  [{dt:6.1f}s] {graphs} graphs at p=0.3")
    print(f"  min-degree ok        {ok_deg}/{graphs}  (need >= 95% of 100)")
    print(f"  max beta_hat         {beta_max:.3f}  (need <= {bound:.1f})")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--quick", action="store_true", help="smaller trial counts")
    args = ap.parse_args()
    q = args.quick

    print("== fast unanimity (n=1e4, p=0.03) ==")
    pilot_unanimity(20 if q else 100)
    print("== almost-positive census (n=5000, p=0.02, gamma=0.1, c=1) ==")
    pilot_census(10 if q else 50)
    print("== one-day amplification (n=2e4, p=0.02) ==")
    pilot_growth(20 if q else 100)
    print("== degree regularity and jumbledness (n=5000) ==")
    pilot_degree_regularity(10 if q else 100)


if __name__ == "__main__":
    main()
