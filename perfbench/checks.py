"""Independent output checks.  Each returns a list of problems; an empty
list means the output is right.

Nothing here calls majdyn's step, census, aggregates or report code: the
neighbour sums come from ``np.bincount`` over the CSR arrays, the swing size
from an exact integer square root, the aggregates from the CSV rows, and the
binomial laws from ``fractions`` and ``math.comb``.  No check compares with a
stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import math
import statistics
from fractions import Fraction

import numpy as np

ROW_BLOCK = 1 << 18  # vertices per bincount block, keeps the checks' memory small


# -- graphs and the majority step -------------------------------------------

def edge_count_problems(n: int, p: float, m: int) -> list[str]:
    pairs = n * (n - 1) // 2
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1.0 - p))
    if abs(m - mean) > 6.0 * sigma:
        return [f"edge count {m} is more than 6 sigma from {mean:.1f} (sigma {sigma:.1f})"]
    return []


def same_graph_problems(a, b) -> list[str]:
    if a.n != b.n:
        return [f"vertex count {b.n} != {a.n}"]
    out = []
    if not np.array_equal(a.offsets, b.offsets):
        out.append("offsets differ")
    if not np.array_equal(a.neighbors, b.neighbors):
        out.append("neighbor arrays differ")
    return out


def validate_problems(g) -> list[str]:
    try:
        g.validate()
    except ValueError as exc:
        return [f"validate: {exc}"]
    return []


def neighbor_sums(offsets: np.ndarray, neighbors: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Signed neighbour sum of every vertex, by blocks of rows."""
    n = offsets.size - 1
    out = np.empty(n, dtype=np.int64)
    for lo in range(0, n, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, n)
        a, b = int(offsets[lo]), int(offsets[hi])
        rows = np.repeat(np.arange(hi - lo), np.diff(offsets[lo:hi + 1]))
        sums = np.bincount(rows, weights=signs[neighbors[a:b]], minlength=hi - lo)
        out[lo:hi] = sums.astype(np.int64)
    return out


def step(offsets, neighbors, signs: np.ndarray) -> np.ndarray:
    """One synchronous majority day; a tie keeps the old opinion."""
    sums = neighbor_sums(offsets, neighbors, signs)
    out = signs.copy()
    out[sums > 0] = 1
    out[sums < 0] = -1
    return out


def trajectory_problems(offsets, neighbors, s0: np.ndarray, traj) -> list[str]:
    """Replay the whole trajectory with :func:`step`; compare every day's
    bias, flips and positives, and the day and reason it stopped."""
    n = s0.size
    states = [s0.astype(np.int8)]
    want_days, stop = [], None
    for d in range(traj.day_cap + 1):
        if d > 0:
            states.append(step(offsets, neighbors, states[-1]))
        cur = states[-1]
        pos = int(np.count_nonzero(cur > 0))
        flips = int(np.count_nonzero(cur != states[-2])) if d > 0 else 0
        want_days.append((2 * pos - n, flips, pos))
        if d > 0 and flips == 0:
            stop = ("fixed", d)
        elif d > 1 and np.array_equal(cur, states[-3]):
            stop = ("two_cycle", d)
        if stop:
            break
        del states[:-2]
    got_days = [(r.bias, r.flips, r.positives) for r in traj.days]
    if got_days != want_days:
        first = next((d for d, (g, w) in enumerate(zip(got_days, want_days)) if g != w),
                     min(len(got_days), len(want_days)))
        return [f"day {first}: (bias, flips, positives) differ; {len(got_days)} days reported, "
                f"{len(want_days)} replayed"]
    last = len(want_days) - 1
    unanimous = [d for d, (b, _, _) in enumerate(want_days) if abs(b) == n]
    if stop is None:
        want = ("day_cap", traj.day_cap, 0, 0)
    elif stop[0] == "fixed" and unanimous:
        want = ("unanimous", unanimous[0], 1 if want_days[last][0] > 0 else -1, 0)
    elif stop[0] == "fixed":
        want = ("period_two", last, 0, 1)
    else:
        want = ("period_two", last, 0, 2)
    o = traj.outcome
    if (o.kind, o.day, o.sign, o.period) != want:
        return [f"outcome {o} != {want}"]
    return []


# -- the swing census report ------------------------------------------------

def swing_size(n: int, c: Fraction) -> int:
    """floor(c*sqrt(n) + 1/2) in exact integers, for c = a/b."""
    a, b = c.numerator, c.denominator
    return (math.isqrt(4 * a * a * n) + b) // (2 * b)


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_aggregates(path) -> dict[str, str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["key", "value"]:
        raise ValueError("aggregates file lacks its key,value header")
    return {k: v for k, v in rows[1:]}


def _quantile(values: list[float], q: float) -> float:
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    return values[lo] + (values[min(lo + 1, len(values) - 1)] - values[lo]) * (pos - lo)


def aggregates_from_rows(rows: list[dict]) -> dict[str, float | int | None]:
    """The summary a swing-census report should carry, from its rows."""
    ok = [r for r in rows if r["outcome"] != "error"]
    unanimous = [r for r in ok if r["outcome"] == "unanimous"]
    agg: dict[str, float | int | None] = {
        "trials": len(rows),
        "errors": len(rows) - len(ok),
        "unanimous": len(unanimous),
        "unanimity_fraction": len(unanimous) / len(rows),
    }
    days = [int(r["unanimity_day"]) for r in unanimous]
    agg["median_unanimity_day"] = float(statistics.median(days)) if days else None
    signed = [r for r in unanimous if int(r["s0_bias"]) != 0]
    agg["sign_match_fraction"] = (
        sum(int(r["sign"]) * int(r["s0_bias"]) > 0 for r in signed) / len(signed) if signed else None
    )
    for day in (0, 1, 2):
        ratios, skipped = [], 0
        for r in ok:
            b = [int(x) for x in r["bias_by_day"].split()]
            if len(b) <= day + 1:
                continue
            if b[day] == 0:
                skipped += 1
            else:
                ratios.append(abs(b[day + 1]) / abs(b[day]))
        agg[f"growth_ratio_day{day}_median"] = float(statistics.median(ratios)) if ratios else None
        agg[f"growth_ratio_day{day}_used"] = len(ratios)
        agg[f"growth_ratio_day{day}_skipped_zero_bias"] = skipped
    alphas = sorted(float(r["alpha_hat"]) for r in ok if r["alpha_hat"])
    if alphas:
        for q in (10, 25, 50, 75, 90):
            agg[f"alpha_hat_q{q:02d}"] = _quantile(alphas, q / 100)
        agg["positive_excess_fraction"] = sum(a > 0 for a in alphas) / len(alphas)
    return agg


def _same_value(want, got: str) -> bool:
    if want is None:
        return got == ""
    if isinstance(want, int):
        return got == str(want)
    return math.isclose(float(got), want, rel_tol=1e-12, abs_tol=1e-15)


def swing_report_problems(rows: list[dict], aggregates: dict[str, str], *, n: int, p: float,
                          c: Fraction, trials: int) -> list[str]:
    out = []
    if len(rows) != trials:
        return [f"{len(rows)} rows for {trials} trials"]
    half = (n + 1) // 2
    k = swing_size(n, c)
    if len({r["edge_count"] for r in rows}) != 1:
        out.append("trials of a quenched run report different edge counts")
    out += edge_count_problems(n, p, int(rows[0]["edge_count"]))
    for r in rows:
        i = r["index"]
        if r["error"] or r["outcome"] == "error":
            out.append(f"trial {i}: error row {r['error']!r}")
            continue
        b = [int(x) for x in r["bias_by_day"].split()]
        ap, unst, unsw = int(r["almost_positive"]), int(r["unstable"]), int(r["unstable_with_swing"])
        if int(r["swing_count"]) != k:
            out.append(f"trial {i}: swing_count {r['swing_count']} != {k}")
        if int(r["s0_bias"]) != 2 * (half + k) - n or b[0] != int(r["s0_bias"]):
            out.append(f"trial {i}: s0_bias {r['s0_bias']} != {2 * (half + k) - n}")
        if int(r["final_bias"]) != b[-1] or int(r["days_simulated"]) != len(b) - 1:
            out.append(f"trial {i}: final_bias or days_simulated disagree with bias_by_day")
        if r["outcome"] == "unanimous" and b[-1] != int(r["sign"]) * n:
            out.append(f"trial {i}: unanimous with final bias {b[-1]}")
        if int(r["excess"]) != ap - half:
            out.append(f"trial {i}: excess {r['excess']} != {ap - half}")
        if not 0 <= unsw <= unst <= n:
            out.append(f"trial {i}: unstable counts {unsw} <= {unst} <= {n} fails")
        if not math.isclose(float(r["alpha_hat"]), (ap - half) / (p * n ** 1.5), rel_tol=1e-12):
            out.append(f"trial {i}: alpha_hat {r['alpha_hat']} does not match its excess")
    want = aggregates_from_rows(rows)
    if set(want) != set(aggregates):
        out.append(f"aggregate keys differ: {sorted(set(want) ^ set(aggregates))}")
    for key in sorted(set(want) & set(aggregates)):
        if not _same_value(want[key], aggregates[key]):
            out.append(f"aggregate {key}: {aggregates[key]} != {want[key]}")
    frac = want.get("positive_excess_fraction")
    if frac is None or frac < 0.8:
        out.append(f"positive-excess fraction {frac} below the day-one tilt 0.8")
    return out


def census_problems(offsets, neighbors, r0: np.ndarray, swing: np.ndarray, gamma: float,
                    p: float, reported: dict) -> list[str]:
    """Recompute one trial's census counts from its inputs."""
    n = r0.size
    sums0 = neighbor_sums(offsets, neighbors, r0)
    sums1 = neighbor_sums(offsets, neighbors, step(offsets, neighbors, r0))
    indicator = np.zeros(n, dtype=np.int8)
    indicator[swing] = 1
    touches = neighbor_sums(offsets, neighbors, indicator) > 0
    almost = int(np.count_nonzero(sums1 > -gamma * p ** 1.5 * n))
    want = {
        "almost_positive": almost,
        "unstable": int(np.count_nonzero(sums0 == 0)),
        "unstable_with_swing": int(np.count_nonzero((sums0 == 0) & touches)),
        "excess": almost - (n + 1) // 2,
    }
    return [f"census {k}: {reported[k]} != {v}" for k, v in want.items() if int(reported[k]) != v]


# -- the lemma sweep table and exact binomial laws --------------------------

RANDOMIZED_CHECKS = ("binom-shift", "equality-prob", "coupling-sandwich", "four-rv")
ALL_CHECKS = ("chernoff-tails", "psi-contraction", "psi-pair-lower-bound") + RANDOMIZED_CHECKS + (
    "berry-esseen",)


def lemma_table_problems(rc: int, rows: list[dict], max_trials: int) -> list[str]:
    out = [] if rc == 0 else [f"exit code {rc}"]
    if tuple(r["check"] for r in rows) != ALL_CHECKS:
        out.append(f"checks {[r['check'] for r in rows]} != {list(ALL_CHECKS)}")
    for r in rows:
        if r["result"] != "PASS":
            out.append(f"{r['check']}: {r['result']}")
        if r["check"] in RANDOMIZED_CHECKS and int(r["cases"]) != max_trials:
            out.append(f"{r['check']}: {r['cases']} cases != {max_trials}")
    return out


def exact_binom(trials: int, prob: float) -> list[Fraction]:
    q = Fraction(prob)
    return [math.comb(trials, i) * q ** i * (1 - q) ** (trials - i) for i in range(trials + 1)]


def exact_diff_law(a: list[Fraction], b: list[Fraction]) -> dict[int, Fraction]:
    """Law of X - Y for independent X ~ a and Y ~ b."""
    law: dict[int, Fraction] = {}
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            law[i - j] = law.get(i - j, 0) + pa * pb
    return law


def exact_pmf_problems(pmf, law: dict[int, Fraction], tol: float = 1e-12) -> list[str]:
    got = {pmf.support_offset + i: float(m) for i, m in enumerate(pmf.masses)}
    out = []
    for k in sorted(set(got) | set(law)):
        want = float(law.get(k, 0))
        if abs(got.get(k, 0.0) - want) > tol:
            out.append(f"P[X-Y={k}] = {got.get(k, 0.0)!r}, exact {want!r}")
    return out


def exact_equality_problems(result, law: dict[int, Fraction], tol: float = 1e-12) -> list[str]:
    p_eq, p_ge, _ = result
    want_eq = float(law.get(0, 0))
    want_ge = float(sum(v for k, v in law.items() if k >= 0))
    out = []
    if abs(p_eq - want_eq) > tol:
        out.append(f"P[X=Y] = {p_eq!r}, exact {want_eq!r}")
    if abs(p_ge - want_ge) > tol:
        out.append(f"P[X>=Y] = {p_ge!r}, exact {want_ge!r}")
    return out
