"""Synchronous majority dynamics on a fixed graph.

Every vertex holds an opinion in {-1, +1}.  One day of the dynamics updates
all vertices at once: a vertex adopts the sign of the sum of its neighbors'
opinions from the previous day and keeps its previous opinion when that sum
is zero (ties, including isolated vertices).  The update is double-buffered:
a step never reads opinions it has already written.

Every trajectory eventually becomes periodic with period one or two, so
:func:`run` only ever reports unanimity, a (possibly period-one) two-cycle,
or hitting the day cap.

The step takes its neighbour sums from the nearest state whose sums are
known when it differs from the signs on at most n/4 vertices, and from one
sparse matvec otherwise.  Known are the caller's states (a census hands
:func:`run` its un-swung days 0 and 1), in :func:`run` the state two days
back (next to a two-cycle, days two apart differ on few vertices though
many flip each day), and the nearer unanimous state M, with sums M*deg.  A
vertex u in the differing set D holds -known[u], so the sums are known +
2 * (A[D].T @ signs[D]), a product over the rows of D.  Both products are
taken in the adjacency's dtype, the narrowest signed integer holding
-deg..deg for the graph's maximum degree (int8 at the paper's densities);
every sum lies in that range, so sums taken modulo the dtype's width are
exact.  Best of 15 on a 2-core Xeon, gathering about 2^20 entries at a
time, the delta way took 0.35-0.44, 0.57-0.68 and 0.69-0.75 of a matvec at
|D| = n/8, n/5 and n/4, and 0.88-0.97 at n/3, at mean degree 20 (n=10^5
and 10^6, int8; a 2.0 and a 25.5 ms matvec), 400 (n=2*10^4) and 1500
(n=5000, both int16); it breaks even near 0.4n.

A unanimous state is fixed (every vertex sees M*deg, and an isolated one
keeps M), so :func:`run` records its confirmation day without a step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph


def _check_signs(signs: np.ndarray) -> None:
    """ValueError unless every value of ``signs`` is exactly +1 or -1 in an
    integer or float dtype.  numpy reads True as 1, and a complex value can
    have modulus 1 off the real line, so those dtypes are refused as such."""
    if signs.dtype.kind not in "iuf":
        raise ValueError(f"opinions must be +1 or -1, got dtype {signs.dtype}")
    if not np.all(np.abs(signs) == 1):
        raise ValueError("opinions must be +1 or -1")


def _check_sums(sums, n: int) -> None:
    """ValueError unless ``sums`` is a signed-integer array of ``n`` values:
    a float or an unsigned sum would take the wrong sign, or none."""
    if not isinstance(sums, np.ndarray) or sums.dtype.kind != "i":
        raise ValueError("neighbour sums must be a signed-integer array, got "
                         f"{getattr(sums, 'dtype', type(sums).__name__)}")
    if sums.shape != (n,):
        raise ValueError("neighbour sums do not match graph size")


class OpinionVector:
    """One opinion per vertex: a read-only int8 array of +1/-1.

    The constructor takes a non-empty 1-d integer or float array whose
    values each equal +1 or -1 exactly (so 1.5, NaN and bools are rejected,
    never truncated or read as 1) and keeps a read-only int8 copy, which
    later changes to the input do not reach.  :meth:`signs` hands out that
    copy; a caller that wants to change signs copies it first.
    """

    __slots__ = ("n", "_signs")

    def __init__(self, signs):
        signs = np.asarray(signs)
        if signs.ndim != 1 or signs.size == 0:
            raise ValueError("need a non-empty 1-d sign array")
        _check_signs(signs)
        self._signs = signs.astype(np.int8)
        self._signs.flags.writeable = False
        self.n = signs.size

    def signs(self) -> np.ndarray:
        """The read-only int8 array of +1/-1 values."""
        return self._signs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OpinionVector)
            and other.n == self.n
            and np.array_equal(other._signs, self._signs)
        )

    def __repr__(self) -> str:
        return f"OpinionVector(n={self.n}, bias={int(self._signs.sum(dtype=np.int64))})"


# sums are taken from a known state while 4 * (vertices that differ) <= n:
# there the delta way costs at most about 0.75 of a matvec, at n/3 nearly a
# whole one, which leaves no margin
_DELTA_SHARE = 4
# entries of the adjacency gathered at a time, about 5 MB of int8 values
# and int32 ids: malloc's mmap threshold rises to the largest block freed
_GATHER_ENTRIES = 2**20


def _rows_per_gather(g: Graph) -> int:
    """Rows of the delta's product gathered at a time: ``_GATHER_ENTRIES``
    entries at the graph's mean row length, and at least one row."""
    return _GATHER_ENTRIES * g.n // (g.neighbors.size + 1) + 1


def _neighbor_sums(g: Graph, signs: np.ndarray, positives: int | None = None, known=()) -> np.ndarray:
    """Per-vertex sum of neighbor opinions in the adjacency's dtype, or a
    known pair's own sums when its state equals ``signs``.

    ``positives`` is the +1 count of ``signs`` when the caller has it, and
    ``known`` a sequence of (signs, sums) pairs, states with exact sums.
    The sums come from the nearest of those and the nearer unanimous state
    (the pairs win a tie) within n/4 vertices, else from the adjacency.
    """
    n, a = g.n, g._adjacency
    if positives is None:
        positives = int(np.count_nonzero(signs > 0))
    # the nearer unanimous state M has sums M*deg and differs on the minority
    majority = 1 if 2 * positives > n else -1
    k, differ, base, sign = min(positives, n - positives), None, g.degrees, majority
    for known_signs, known_sums in known:
        known_differ = signs != known_signs
        known_k = int(np.count_nonzero(known_differ))
        if known_k == 0:
            return known_sums
        if known_k <= k:
            k, differ, base, sign = known_k, known_differ, known_sums, 1
    if _DELTA_SHARE * k > n:
        return a @ signs.astype(a.dtype, copy=False)
    # sign*base + 2*(A[D].T @ signs[D]), exact modulo the dtype's width
    changed = np.flatnonzero(signs != majority if differ is None else differ)
    sums = np.zeros(n, dtype=a.dtype)
    step = _rows_per_gather(g)
    for i in range(0, changed.size, step):
        rows = changed[i:i + step]
        sums += a[rows].T @ signs[rows].astype(a.dtype)
    sums *= 2
    return (np.add if sign > 0 else np.subtract)(sums, base, out=sums)


def _next_signs(sums: np.ndarray, signs: np.ndarray) -> np.ndarray:
    # signs fit int8 whatever the sums' dtype, so no wide temporary is made
    out = np.sign(sums, out=np.empty(sums.size, dtype=np.int8), casting="unsafe")
    out += signs * (out == 0)  # a tie, and only a tie, keeps the old opinion
    return out


def majority_step(g: Graph, s: OpinionVector, *, sums: np.ndarray | None = None) -> OpinionVector:
    """One synchronous day of the dynamics; the input is not modified.

    ``sums``, when given, must be ``s``'s own neighbour sums, an array of
    any signed integer dtype (as a census hands them over); the step reads
    them instead of computing them.
    """
    if s.n != g.n:
        raise ValueError("opinion vector does not match graph size")
    if sums is None:
        sums = _neighbor_sums(g, s.signs())
    else:
        _check_sums(sums, g.n)
    return OpinionVector(_next_signs(sums, s.signs()))


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


def run(g: Graph, s0: OpinionVector, day_cap: int = 64, reference=None) -> Trajectory:
    """Iterate the dynamics from ``s0`` until the trajectory settles.

    Stops at the first day d with s_d == s_{d-1} (unanimous fixed point or
    period-one non-unanimous fixed point), s_d == s_{d-2} (two-cycle), or
    at ``day_cap``.  Day 0 is the initial state; an initially unanimous
    state reports day 0 even though its fixedness is confirmed on day 1.

    ``reference``, when given, is a sequence of (signs, sums) pairs, each a
    state of exact +1/-1 values and its exact neighbour sums, a signed
    integer array, such as a census's un-swung days 0 and 1; both are
    checked here, once.  The step from day d - 1 also sums from pair d - 1
    and from day d - 3, with the sums the run took for it, while few
    vertices differ from them; the trajectory is the same with or without
    ``reference``.
    """
    if s0.n != g.n:
        raise ValueError("opinion vector does not match graph size")
    if day_cap < 1:
        raise ValueError("day_cap must be at least 1")
    reference = () if reference is None else tuple(reference)
    for known_signs, known_sums in reference:
        if np.shape(known_signs) != (g.n,):
            raise ValueError("reference state does not match graph size")
        _check_signs(np.asarray(known_signs))
        _check_sums(known_sums, g.n)
    n = g.n
    cur = s0.signs()
    back: list[tuple[np.ndarray, np.ndarray]] = []  # days d - 3 and d - 2 with their sums
    pos = int(np.count_nonzero(cur > 0))
    days = [DayRecord(bias=2 * pos - n, flips=0, positives=pos)]
    for d in range(1, day_cap + 1):
        if pos in (0, n):
            # unanimity is absorbing, so the confirmation day needs no step;
            # day d - 1 is the first unanimous one, or the run had ended
            days.append(DayRecord(bias=2 * pos - n, flips=0, positives=pos))
            outcome = Outcome("unanimous", day=d - 1, sign=1 if pos == n else -1)
            return Trajectory(tuple(days), outcome, day_cap)
        sums = _neighbor_sums(g, cur, pos, [*reference[d - 1:d], *back[:-1]])
        nxt = _next_signs(sums, cur)
        flips = int(np.count_nonzero(nxt != cur))
        pos = int(np.count_nonzero(nxt > 0))
        days.append(DayRecord(bias=2 * pos - n, flips=flips, positives=pos))
        if flips == 0:  # a fixed point that is not unanimous
            return Trajectory(tuple(days), Outcome("period_two", day=d, period=1), day_cap)
        # equal states have equal +1 counts, so most days skip the compare
        if back and pos == days[-3].positives and np.array_equal(nxt, back[-1][0]):
            return Trajectory(tuple(days), Outcome("period_two", day=d, period=2), day_cap)
        back = [*back[-1:], (cur, sums)]
        cur = nxt
    return Trajectory(tuple(days), Outcome("day_cap", day=day_cap), day_cap)
