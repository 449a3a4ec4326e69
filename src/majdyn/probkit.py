"""Exact finite-n probability checks behind the simulation heuristics.

Everything here is deterministic numerics, no Monte Carlo: binomial
difference laws are computed by exact convolution where a check reads the
whole law, and as linear sums over the two mass vectors where it reads only
P[X = Y] and P[X >= Y] (:func:`check_equality_prob`); tail bounds are
compared against tails obtained by direct summation, and the normal CDF
comes from the Cephes erfc-style rational approximation (absolute error far
below 1e-12).

The ``check_*`` functions each return the exact quantity next to the bound
it is supposed to respect, so callers (tests, the verify-lemmas command)
decide pass/fail with explicit tolerances.

Binomial masses come straight from ``scipy.special._ufuncs._binom_pmf``,
the ufunc that ``scipy.stats.binom.pmf`` itself evaluates.  The name is
private scipy API: calling it skips the rv_discrete wrapper, which costs
about twice the ufunc per call, and the import of ``scipy.stats``, which
takes most of a second.  The masses are clipped to [0, 1] as the wrapper
clips them, so they are bitwise the wrapper's.  Should a scipy release drop
the name, :func:`_binom_masses` falls back to ``scipy.stats.binom.pmf``.
Each check builds the masses of every law it needs once.

``scipy.special`` is imported inside the functions that use it, not with
this module; after the first call Python's import cache makes the import a
lookup.
:func:`_binom_pmf` returns the ufunc, or None where scipy lacks the name;
replacing it with a function that returns None forces the ``scipy.stats``
fallback.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .graph import check_integer, check_real

_CONV_TRIALS_GUARD = 20000
_BERRY_ESSEEN_GUARD = 10**6


@functools.cache
def _binom_pmf():
    """``scipy.special._ufuncs._binom_pmf``, or None where scipy lacks it."""
    try:
        from scipy.special._ufuncs import _binom_pmf as pmf
    except ImportError:  # private scipy API; see the module docstring
        return None
    return pmf


@dataclass(frozen=True)
class BinomSpec:
    """Parameters of one binomial random variable."""

    trials: int
    prob: float

    def __post_init__(self):
        check_integer("trials", self.trials, 0)
        check_real("prob", self.prob, 0, 1)

    @property
    def mean(self) -> float:
        return self.trials * self.prob


@dataclass(frozen=True)
class PMF:
    """Finite integer law: ``masses[i]`` is the probability of
    ``support_offset + i``."""

    support_offset: int
    masses: np.ndarray

    def p_ge(self, k: int) -> float:
        return float(self.masses[max(k - self.support_offset, 0):].sum())

    def max_mass(self) -> float:
        return float(self.masses.max())


def _binom_masses(spec: BinomSpec) -> np.ndarray:
    """P[X = k] for k = 0..trials, bitwise equal to ``stats.binom.pmf``.

    Calls the private ufunc that :func:`_binom_pmf` returns and clips to
    [0, 1] as the rv_discrete wrapper does; where it returns None this falls
    back to the wrapper, importing ``scipy.stats`` on first use.
    """
    k = np.arange(spec.trials + 1)
    pmf = _binom_pmf()
    if pmf is None:
        from scipy import stats

        return stats.binom.pmf(k, spec.trials, spec.prob)
    return np.clip(pmf(k, spec.trials, spec.prob), 0.0, 1.0)


def _guard_trials(*specs: BinomSpec) -> None:
    total = sum(s.trials for s in specs)
    if total > _CONV_TRIALS_GUARD:
        raise ValueError(f"exact convolution limited to {_CONV_TRIALS_GUARD} total trials, got {total}")


def _diff_pmf(mx: np.ndarray, my: np.ndarray) -> PMF:
    """Law of X - Y for independent X and Y with masses ``mx`` and ``my``
    on 0..len-1."""
    return PMF(support_offset=1 - my.size, masses=np.convolve(mx, my[::-1]))


def binom_diff_pmf(a: BinomSpec, b: BinomSpec) -> PMF:
    """Exact law of X - Y for independent X ~ a and Y ~ b."""
    _guard_trials(a, b)
    return _diff_pmf(_binom_masses(a), _binom_masses(b))


def chernoff_upper(mu: float, t: float) -> float:
    """Upper-tail bound exp(-t^2 / (2*mu + 2*t/3)) for P[X >= mu + t]."""
    check_real("mu", mu, 0)
    check_real("t", t, 0)
    if t == 0:
        return 1.0
    return math.exp(-t * t / (2.0 * mu + 2.0 * t / 3.0))


def chernoff_lower(mu: float, t: float) -> float:
    """Lower-tail bound exp(-t^2 / (2*mu)) for P[X <= mu - t]."""
    check_real("mu", mu, 0)
    check_real("t", t, 0)
    if t == 0:
        return 1.0
    if mu == 0:
        return 0.0
    return math.exp(-t * t / (2.0 * mu))


def phi(x):
    """Standard normal CDF (Cephes ndtr, erfc-based rational approximation;
    absolute error below 1e-15).  Accepts scalars or arrays."""
    from scipy.special import ndtr

    out = ndtr(x)
    return float(out) if np.isscalar(x) else out


def psi(x):
    """Standard normal upper tail 1 - phi(x), computed as phi(-x) for
    accuracy in the far tail."""
    from scipy.special import ndtr

    out = ndtr(np.negative(x))
    return float(out) if np.isscalar(x) else out


def psi_pair_bound_constant(c: float) -> float:
    """The constant exp(-c^2/2)/sqrt(2*pi) in the lower bound
    psi(x) + psi(y) >= 1 - C*(x+y) for x+y < 0, |x|+|y| <= c."""
    check_real("c", c, 0, lo_open=True)
    return math.exp(-c * c / 2.0) / math.sqrt(2.0 * math.pi)


def check_binom_shift(a: BinomSpec, b: BinomSpec) -> tuple[float, float]:
    """Largest |P[X-Y = t+1] - P[X-Y = t]| over all integers t, next to the
    bound 1 / ((m+n) p (1-p)).  Requires a common p strictly inside (0, 1)."""
    if a.prob != b.prob:
        raise ValueError("both variables must share the success probability")
    p = a.prob
    check_real("prob", p, 0, 1, lo_open=True, hi_open=True)
    if a.trials + b.trials < 1:
        raise ValueError("need at least one trial in total")
    masses = binom_diff_pmf(a, b).masses
    padded = np.concatenate([[0.0], masses, [0.0]])
    max_diff = float(np.abs(np.diff(padded)).max())
    bound = 1.0 / ((a.trials + b.trials) * p * (1.0 - p))
    return max_diff, bound


def check_equality_prob(a: BinomSpec, b: BinomSpec) -> tuple[float, float, float]:
    """(P[X = Y], P[X >= Y], P[X = Y] * sqrt(n*p)) computed exactly.

    Only two numbers of the law of X - Y are needed, so neither goes through
    the O(n*m) convolution: with k = 1 + min(n, m) shared support points,
    P[X = Y] = sum_j P[X=j] P[Y=j] and P[X >= Y] = sum_j P[Y=j] P[X >= j],
    two length-k sums.  P[X = Y] is numpy's correlate over the operands and
    order that ``np.convolve`` uses for the law's lag 0 (both reversed when
    Y has the longer support), so its bits are those of the law's lag-0
    mass, ``binom_diff_pmf(a, b).masses[b.trials]``; P[X >= Y] agrees with
    the law's ``p_ge(0)`` to rounding.
    """
    if a.prob != b.prob:
        raise ValueError("both variables must share the success probability")
    _guard_trials(a, b)
    mx = _binom_masses(a)
    my = mx if b == a else _binom_masses(b)
    k = min(mx.size, my.size)
    if my.size <= mx.size:
        p_eq = float(np.correlate(mx[:k], my, "valid")[0])
    else:
        p_eq = float(np.correlate(my[k - 1::-1], mx[::-1], "valid")[0])
    x_tail = np.cumsum(mx[::-1])[::-1]  # P[X >= j]
    p_ge = float(np.dot(my[:k], x_tail[:k]))
    return p_eq, p_ge, p_eq * math.sqrt(a.trials * a.prob)


def check_coupling(
    z1: BinomSpec, z2: BinomSpec, w1: BinomSpec, w2: BinomSpec, ell: int
) -> tuple[float, float, float]:
    """Exact two-sided sandwich for dropping the second summands.

    With Z = Z1 + Z2 and W = W1 + W2 all independent, returns
    (-E[W2] * max_k P[Z1-W1 = k],
      P[Z-W >= ell] - P[Z1-W1 >= ell],
      E[Z2] * max_k P[Z1-W = k]); the middle term always lies between the
    outer two.
    """
    check_integer("ell", ell)
    _guard_trials(z1, z2, w1, w2)
    mz1, mz2, mw1, mw2 = (_binom_masses(s) for s in (z1, z2, w1, w2))
    mw = np.convolve(mw1, mw2)
    full = _diff_pmf(np.convolve(mz1, mz2), mw)
    base = _diff_pmf(mz1, mw1)
    z1_minus_w = _diff_pmf(mz1, mw)
    lhs = -w2.mean * base.max_mass()
    middle = full.p_ge(ell) - base.p_ge(ell)
    rhs = z2.mean * z1_minus_w.max_mass()
    return lhs, middle, rhs


def check_four_rv(
    n1: int, n2: int, n3: int, n4: int, p: float, ell: int
) -> tuple[float, float]:
    """Exact |P[X'-Y' >= ell] - P[X-Y >= ell]| for X' ~ Bin(n1, p),
    Y' ~ Bin(n2, p), X ~ Bin(n3, p), Y ~ Bin(n4, p), next to the scale
    p * Delta / sqrt(p * n0) with n0 = min(n_i) and
    Delta = max(|n1-n3|, |n2-n4|)."""
    for name, ni in zip(("n1", "n2", "n3", "n4"), (n1, n2, n3, n4)):
        check_integer(name, ni, 1)
    check_real("p", p, 0, 1, lo_open=True, hi_open=True)
    check_integer("ell", ell)
    d_primed = binom_diff_pmf(BinomSpec(n1, p), BinomSpec(n2, p))
    d_plain = binom_diff_pmf(BinomSpec(n3, p), BinomSpec(n4, p))
    diff = abs(d_primed.p_ge(ell) - d_plain.p_ge(ell))
    n0 = min(n1, n2, n3, n4)
    delta = max(abs(n1 - n3), abs(n2 - n4))
    scale = p * delta / math.sqrt(p * n0)
    return diff, scale


def berry_esseen_gap(n: int, p: float) -> float:
    """Max over integer cut points k of |P[X <= k] - Phi((k - np)/sigma)|
    for X ~ Bin(n, p); the binomial CDF is a direct pairwise summation."""
    check_integer("n", n, 1, _BERRY_ESSEEN_GUARD)
    check_real("p", p, 0, 1, lo_open=True, hi_open=True)
    masses = _binom_masses(BinomSpec(n, p))
    cdf = np.cumsum(masses)
    sigma = math.sqrt(n * p * (1.0 - p))
    x = (np.arange(n + 1) - n * p) / sigma
    return float(np.abs(cdf - phi(x)).max())


@dataclass(frozen=True)
class SweepResult:
    """One row of the verify-lemmas table."""

    name: str
    cases: int
    worst: float
    bound: float
    passed: bool


def _sweep_chernoff() -> SweepResult:
    worst = -math.inf
    cases = 0
    for n in (10, 100, 1000, 5000):
        for p in (0.01, 0.1, 0.5):
            masses = _binom_masses(BinomSpec(n, p))
            mu = n * p
            sigma = math.sqrt(n * p * (1.0 - p))
            for t in np.linspace(0.0, 6.0 * sigma + 5.0, 20):
                upper_exact = float(masses[math.ceil(mu + t):].sum()) if mu + t <= n else 0.0
                lower_exact = float(masses[: math.floor(mu - t) + 1].sum()) if mu - t >= 0 else 0.0
                worst = max(
                    worst,
                    upper_exact - chernoff_upper(mu, float(t)),
                    lower_exact - chernoff_lower(mu, float(t)),
                )
                cases += 1
    return SweepResult("chernoff-tails", cases, worst, 0.0, worst <= 1e-12)


def _sweep_psi_contraction() -> SweepResult:
    grid = np.linspace(-6.0, 6.0, 100)
    x, y = np.meshgrid(grid, grid)
    excess = np.abs(psi(x) - psi(y)) - np.abs(x - y)
    worst = float(excess.max())
    return SweepResult("psi-contraction", x.size, worst, 0.0, worst <= 1e-12)


def _sweep_psi_pair_bound() -> SweepResult:
    worst = math.inf
    cases = 0
    for c in (1.0, 2.0, 3.0):
        const = psi_pair_bound_constant(c)
        grid = np.linspace(-c, c, 81)
        x, y = np.meshgrid(grid, grid)
        mask = (x + y < 0) & (np.abs(x) + np.abs(y) <= c)
        margin = psi(x) + psi(y) - (1.0 - const * (x + y))
        worst = min(worst, float(margin[mask].min()))
        cases += int(mask.sum())
    return SweepResult("psi-pair-lower-bound", cases, worst, -1e-9, worst >= -1e-9)


def _sweep_binom_shift(rng, cases: int) -> SweepResult:
    worst = 0.0
    for _ in range(cases):
        n = int(rng.integers(1, 400))
        m = int(rng.integers(0, 400))
        p = float(rng.uniform(0.05, 0.95))
        max_diff, _ = check_binom_shift(BinomSpec(n, p), BinomSpec(m, p))
        worst = max(worst, max_diff * (n + m) * p * (1.0 - p))
    return SweepResult("binom-shift", cases, worst, SHIFT_RATIO_BOUND, worst <= SHIFT_RATIO_BOUND)


def _sweep_equality_prob(rng, cases: int) -> SweepResult:
    lo, hi = EQUALITY_RATIO_BAND
    ok = True
    worst = 0.0  # largest excursion of the ratio outside the band
    for _ in range(cases):
        n = int(rng.integers(100, 2001))
        p = float(rng.uniform(0.02, 0.1))
        p_eq, p_ge, ratio = check_equality_prob(BinomSpec(n, p), BinomSpec(n, p))
        ok &= p_ge >= 0.5 - 1e-12
        ok &= lo <= ratio <= hi
        worst = max(worst, lo - ratio, ratio - hi)
    return SweepResult("equality-prob", cases, worst, 0.0, ok)


def _sweep_coupling(rng, cases: int) -> SweepResult:
    worst = -math.inf
    ok = True
    for _ in range(cases):
        specs = [BinomSpec(int(rng.integers(0, 60)), float(rng.uniform(0.05, 0.95))) for _ in range(4)]
        ell = int(rng.integers(-20, 21))
        lhs, middle, rhs = check_coupling(*specs, ell)
        violation = max(lhs - middle, middle - rhs)
        worst = max(worst, violation)
        ok &= violation <= 1e-12
    return SweepResult("coupling-sandwich", cases, worst, 1e-12, ok)


def _sweep_four_rv(rng, cases: int) -> SweepResult:
    worst = 0.0
    done = 0
    while done < cases:
        ns = [int(rng.integers(50, 401)) for _ in range(4)]
        p = float(rng.uniform(0.05, 0.5))
        ell = int(round((ns[0] - ns[1]) * p))
        diff, scale = check_four_rv(*ns, p, ell)
        if scale == 0.0:  # n1 == n3 and n2 == n4: one law twice, so diff is 0
            continue
        worst = max(worst, diff / scale)
        done += 1
    return SweepResult("four-rv", cases, worst, FOUR_RV_RATIO_BOUND, worst <= FOUR_RV_RATIO_BOUND)


def _sweep_berry_esseen() -> SweepResult:
    chain = (16, 64, 256, 1024, 4096)
    worst = 0.0
    ok = True
    cases = 0
    for p in (0.1, 0.3, 0.5):
        gaps = [berry_esseen_gap(n, p) for n in chain]
        for n, gap in zip(chain, gaps):
            worst = max(worst, gap * math.sqrt(n * p * (1.0 - p)))
            cases += 1
        ok &= all(g4 <= 0.7 * g for g, g4 in zip(gaps, gaps[1:]))
    ok &= worst <= 1.0
    return SweepResult("berry-esseen", cases, worst, 1.0, ok)


# Ratio bounds of the randomized sweeps, fixed constants rather than knobs;
# `majdyn verify-lemmas` and acceptance criterion c03 check against them.
SHIFT_RATIO_BOUND = 1.0
EQUALITY_RATIO_BAND = (0.2, 0.8)
FOUR_RV_RATIO_BOUND = 3.0


def run_lemma_sweeps(max_cases: int = 200, seed: int = 0) -> list[SweepResult]:
    """Run every deterministic and randomized toolkit check.

    ``max_cases`` is the number of randomized configurations per randomized
    check; the deterministic grids are fixed.  Results come back in a stable
    order for table printing.
    """
    check_integer("max_cases", max_cases, 1)
    rng = np.random.default_rng(seed)
    return [
        _sweep_chernoff(),
        _sweep_psi_contraction(),
        _sweep_psi_pair_bound(),
        _sweep_binom_shift(rng, max_cases),
        _sweep_equality_prob(rng, max_cases),
        _sweep_coupling(rng, max_cases),
        _sweep_four_rv(rng, max_cases),
        _sweep_berry_esseen(),
    ]
