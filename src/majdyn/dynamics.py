"""Synchronous majority dynamics on a fixed graph.

Every vertex holds an opinion in {-1, +1}.  One day of the dynamics updates
all vertices at once: a vertex adopts the sign of the sum of its neighbors'
opinions from the previous day and keeps its previous opinion when that sum
is zero (ties, including isolated vertices).  The update is double-buffered:
a step never reads opinions it has already written.

Every trajectory eventually becomes periodic with period one or two, so
:func:`run` only ever reports unanimity, a (possibly period-one) two-cycle,
or hitting the day cap.

The step is one sparse matvec of the signs in the adjacency's dtype, the
narrowest signed integer holding -deg..deg for the graph's maximum degree
(int8 at the paper's sparse densities), so the sums are exact and the
matvec moves as few bytes as the graph allows.  :func:`neighbor_sums`
returns them as int32 whatever that dtype is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


class OpinionVector:
    """One opinion per vertex, packed eight to a byte (bit 1 means +1).

    Padding bits past ``n`` are always zero, so popcounts over the raw bytes
    give the number of +1 vertices directly.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: np.ndarray):
        self.n = n
        self.bits = bits

    @classmethod
    def from_signs(cls, signs) -> "OpinionVector":
        signs = np.asarray(signs)
        if signs.ndim != 1 or signs.size == 0:
            raise ValueError("need a non-empty 1-d sign array")
        if not np.all(np.abs(signs.astype(np.int64)) == 1):
            raise ValueError("opinions must be +1 or -1")
        return cls(int(signs.size), np.packbits(signs > 0))

    def signs(self) -> np.ndarray:
        """Unpacked int8 array of +1/-1 values."""
        b = np.unpackbits(self.bits, count=self.n)
        return ((b.astype(np.int8) << 1) - 1)

    def positives(self) -> int:
        return int(_POPCOUNT[self.bits].sum())

    def bias(self) -> int:
        """Sum of all opinions, 2*positives - n."""
        return 2 * self.positives() - self.n

    def hamming(self, other: "OpinionVector") -> int:
        if other.n != self.n:
            raise ValueError("size mismatch")
        return int(_POPCOUNT[self.bits ^ other.bits].sum())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OpinionVector)
            and other.n == self.n
            and np.array_equal(other.bits, self.bits)
        )

    def __hash__(self):
        return hash((self.n, self.bits.tobytes()))

    def __neg__(self) -> "OpinionVector":
        return _pack(-self.signs())

    def __repr__(self) -> str:
        return f"OpinionVector(n={self.n}, bias={self.bias()})"


def _pack(signs: np.ndarray) -> OpinionVector:
    """Packing constructor for sign arrays already known to be +-1."""
    return OpinionVector(signs.size, np.packbits(signs > 0))


def bias(s: OpinionVector) -> int:
    return s.bias()


def _neighbor_sums(g: Graph, signs: np.ndarray) -> np.ndarray:
    """Per-vertex sum of neighbor opinions, exact in the adjacency's
    degree-sized dtype (int8 at mean degree 20)."""
    a = g._adjacency
    return a @ signs.astype(a.dtype, copy=False)


def neighbor_sums(g: Graph, s: OpinionVector) -> np.ndarray:
    """Vector of signed neighbor sums for every vertex, as int32."""
    if s.n != g.n:
        raise ValueError("opinion vector does not match graph size")
    return _neighbor_sums(g, s.signs()).astype(np.int32)


def neighbor_sum(g: Graph, s: OpinionVector, v: int) -> int:
    """Exact signed sum of opinions over the neighbors of ``v`` (0 when
    isolated)."""
    if s.n != g.n:
        raise ValueError("opinion vector does not match graph size")
    return int(s.signs()[g.neighbors_of(v)].sum(dtype=np.int64))


def _step_signs(g: Graph, signs: np.ndarray) -> np.ndarray:
    out = np.sign(_neighbor_sums(g, signs)).astype(np.int8, copy=False)
    np.copyto(out, signs, where=out == 0)  # a tie keeps the old opinion
    return out


def majority_step(g: Graph, s: OpinionVector) -> OpinionVector:
    """One synchronous day of the dynamics; the input is not modified."""
    if s.n != g.n:
        raise ValueError("opinion vector does not match graph size")
    return _pack(_step_signs(g, s.signs()))


def majority_step_reference(g: Graph, s: OpinionVector) -> OpinionVector:
    """Slow per-vertex reference used to cross-check the vectorized step."""
    signs = s.signs()
    out = signs.copy()
    for v in range(g.n):
        t = 0
        for u in g.neighbors_of(v):
            t += int(signs[u])
        if t > 0:
            out[v] = 1
        elif t < 0:
            out[v] = -1
    return OpinionVector.from_signs(out)


@dataclass(frozen=True)
class DayRecord:
    """Per-day summary: opinion sum, vertices flipped since the previous
    day (0 on day 0), and the +1 count."""

    bias: int
    flips: int
    positives: int


@dataclass(frozen=True)
class Outcome:
    """Terminal classification of a trajectory.

    kind is "unanimous" (sign, day = first all-equal day), "period_two"
    (day = detection day; period 1 flags a non-unanimous fixed point), or
    "day_cap" when the cap was hit without detection.
    """

    kind: str
    day: int
    sign: int = 0
    period: int = 0


@dataclass(frozen=True)
class Trajectory:
    days: tuple[DayRecord, ...]
    outcome: Outcome
    day_cap: int


def run(g: Graph, s0: OpinionVector, day_cap: int = 64) -> Trajectory:
    """Iterate the dynamics from ``s0`` until the trajectory settles.

    Stops at the first day d with s_d == s_{d-1} (unanimous fixed point or
    period-one non-unanimous fixed point), s_d == s_{d-2} (two-cycle), or
    at ``day_cap``.  Day 0 is the initial state; an initially unanimous
    state reports day 0 even though its fixedness is confirmed on day 1.
    """
    if s0.n != g.n:
        raise ValueError("opinion vector does not match graph size")
    if day_cap < 1:
        raise ValueError("day_cap must be at least 1")
    n = g.n
    cur = s0.signs()
    prev2: np.ndarray | None = None
    pos = int(np.count_nonzero(cur > 0))
    days = [DayRecord(bias=2 * pos - n, flips=0, positives=pos)]
    first_unanimous = 0 if pos in (0, n) else -1
    for d in range(1, day_cap + 1):
        nxt = _step_signs(g, cur)
        flips = int(np.count_nonzero(nxt != cur))
        pos = int(np.count_nonzero(nxt > 0))
        days.append(DayRecord(bias=2 * pos - n, flips=flips, positives=pos))
        if first_unanimous < 0 and pos in (0, n):
            first_unanimous = d
        if flips == 0:
            if pos in (0, n):
                outcome = Outcome("unanimous", day=first_unanimous, sign=1 if pos == n else -1)
            else:
                outcome = Outcome("period_two", day=d, period=1)
            return Trajectory(tuple(days), outcome, day_cap)
        if prev2 is not None and np.array_equal(nxt, prev2):
            return Trajectory(tuple(days), Outcome("period_two", day=d, period=2), day_cap)
        prev2 = cur
        cur = nxt
    return Trajectory(tuple(days), Outcome("day_cap", day=day_cap), day_cap)
