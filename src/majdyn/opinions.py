"""Initial opinion assignments and the day-one neighborhood census.

Three initial models are supported: iid uniform signs, a fixed opinion sum
(exactly (n+d)/2 positives at random positions), and a balanced start with a
small "swing" perturbation: exactly ceil(n/2) positives, then round(c*sqrt(n))
uniformly chosen -1 vertices flipped to +1.

The census classifies vertices after one un-swung day: vertex v counts as
almost-positive when the signed sum of its neighbors' day-one opinions
exceeds -gamma * p^{3/2} * n (strict, nominal sampling density p), and as
unstable when its day-zero neighbor sum is exactly zero.  It computes the
day-zero and day-one sums once each and hands both days, with their sums,
to the swung run, whose first two days differ from them on few vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import OpinionVector, _neighbor_sums, majority_step
from .graph import Graph, _integers, check_vertex_count

MODEL_KINDS = ("uniform", "fixed_discrepancy", "morning_evening")


@dataclass(frozen=True)
class OpinionModel:
    """Which initial assignment to draw.

    d is the opinion sum for "fixed_discrepancy" (parity must match n);
    c scales the swing size for "morning_evening"; each must stay zero for
    the other kinds.  A model carries no seed: the harness derives one per
    trial.
    """

    kind: str = "uniform"
    # reports echo d and c only on their own kind
    d: int = field(default=0, metadata={"echo": lambda m: m.kind == "fixed_discrepancy"})
    c: float = field(default=0.0, metadata={"echo": lambda m: m.kind == "morning_evening"})

    def validate(self, n: int) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown opinion model kind {self.kind!r}")
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"swing coefficient c must be finite and non-negative, got {self.c}")
        if self.c and self.kind != "morning_evening":
            raise ValueError("swing coefficient c applies only to the morning_evening model")
        if self.d and self.kind != "fixed_discrepancy":
            raise ValueError("opinion sum d applies only to the fixed_discrepancy model")
        if self.kind == "fixed_discrepancy":
            if abs(self.d) > n:
                raise ValueError(f"opinion sum d={self.d} exceeds n={n} in magnitude")
            if (n + self.d) % 2 != 0:
                raise ValueError(f"opinion sum d={self.d} has the wrong parity for n={n}")
        if self.kind == "morning_evening":
            if swing_count(n, self.c) > n - (n + 1) // 2:
                raise ValueError("swing larger than the available -1 vertices")


def sample_uniform(n: int, seed) -> OpinionVector:
    """iid uniform +-1 opinions."""
    check_vertex_count(n)
    rng = np.random.default_rng(seed)
    return OpinionVector((2 * rng.integers(0, 2, size=n) - 1).astype(np.int8))


def sample_morning(n: int, seed) -> OpinionVector:
    """Balanced start: exactly ceil(n/2) positives at uniform positions,
    the fixed-sum start with d = n mod 2."""
    return sample_fixed_discrepancy(n, n % 2, seed)


def sample_fixed_discrepancy(n: int, d: int, seed) -> OpinionVector:
    """Exactly (n+d)/2 positives at uniform positions; d must have the
    parity of n."""
    check_vertex_count(n)
    OpinionModel("fixed_discrepancy", d=d).validate(n)
    signs = np.full(n, -1, dtype=np.int8)
    if n + d:
        signs[np.random.default_rng(seed).choice(n, size=(n + d) // 2, replace=False)] = 1
    return OpinionVector(signs)


def swing_count(n: int, c: float) -> int:
    """round(c*sqrt(n)) with half-up rounding."""
    return int(math.floor(c * math.sqrt(n) + 0.5))


def apply_swing(r0: OpinionVector, c: float, seed) -> tuple[OpinionVector, np.ndarray]:
    """Flip round(c*sqrt(n)) uniformly chosen -1 vertices of ``r0`` to +1.

    Returns the perturbed vector and the sorted flipped vertex ids; ``r0``
    is left unchanged (and returned itself when the swing is empty).
    Raises when fewer -1 vertices are available than the swing size.
    """
    if not 0.0 <= c < math.inf:
        raise ValueError(f"swing coefficient c must be finite and non-negative, got {c}")
    k = swing_count(r0.n, c)
    negatives = np.flatnonzero(r0.signs() < 0)
    if k > negatives.size:
        raise ValueError(f"swing of {k} exceeds the {negatives.size} available -1 vertices")
    if k == 0:
        return r0, np.empty(0, dtype=np.int64)
    swing = np.sort(np.random.default_rng(seed).choice(negatives, size=k, replace=False))
    signs = r0.signs().copy()
    signs[swing] = 1
    return OpinionVector(signs), swing


@dataclass(frozen=True)
class CensusReport:
    """Day-one census counts; excess = almost_positive - ceil(n/2).

    ``reference`` holds the un-swung days 0 and 1 as (signs, sums) pairs of
    read-only arrays, for ``run(..., reference=...)``; it takes no part in
    equality or the repr.
    """

    almost_positive: int
    unstable: int
    unstable_with_swing: int
    excess: int
    reference: tuple = field(default=(), compare=False, repr=False)


def census(g: Graph, r0: OpinionVector, swing_set, gamma: float, p: float) -> CensusReport:
    """Classify vertices after one day of the un-swung dynamics.

    The day-one state is one majority step from ``r0`` (the swing set plays
    no role in it), stepped from the day-zero sums; almost-positive uses the
    strict threshold -gamma * p^{3/2} * n with the nominal density ``p``.
    Unstable vertices have day-zero neighbor sum exactly 0;
    ``unstable_with_swing`` counts the unstable vertices adjacent to at
    least one swing vertex, whose ids must be integers in ``0..n-1``, given
    as a 1-d sequence or a single id.  The report's ``reference`` carries
    days 0 and 1 with their sums.
    """
    if r0.n != g.n:
        raise ValueError("opinion vector does not match graph size")
    if not 0.0 <= gamma < math.inf:
        raise ValueError(f"gamma must be finite and non-negative, got {gamma}")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    swing = np.atleast_1d(_integers("swing vertex ids", swing_set)).astype(np.int64, copy=False)
    if swing.ndim != 1:
        raise ValueError(f"swing vertex ids must be 1-D, got shape {swing.shape}")
    if swing.size and (swing.min() < 0 or swing.max() >= g.n):
        raise ValueError("swing vertex id out of range")
    sums0 = _neighbor_sums(g, r0.signs())
    r1 = majority_step(g, r0, sums=sums0)
    sums1 = _neighbor_sums(g, r1.signs())
    sums0.flags.writeable = sums1.flags.writeable = False
    threshold = -gamma * p ** 1.5 * g.n
    almost_positive = int(np.count_nonzero(sums1 > threshold))
    unstable_mask = sums0 == 0
    touches_swing = np.zeros(g.n, dtype=bool)
    touches_swing[g._adjacency[swing].indices] = True
    return CensusReport(
        almost_positive=almost_positive,
        unstable=int(np.count_nonzero(unstable_mask)),
        unstable_with_swing=int(np.count_nonzero(unstable_mask & touches_swing)),
        excess=almost_positive - (g.n + 1) // 2,
        reference=((r0.signs(), sums0), (r1.signs(), sums1)),
    )

