"""Erdos-Renyi sampling and a compact immutable adjacency structure.

Graphs are stored in compressed sparse row form: ``offsets[v]:offsets[v+1]``
slices ``neighbors`` to give the strictly increasing neighbor list of vertex
``v``.  Both directions of every edge are stored, so ``len(neighbors)`` is
twice the edge count.  Instances are immutable after construction and safe to
share across threads.

``offsets`` is held once, in scipy's CSR index dtype: int32 while
``len(neighbors) < 2**31``, else int64.  The sampler's upper-triangle rows
and scipy's merge hand it over in that dtype, and the scipy adjacency uses
it as its ``indptr`` without a copy, so no graph keeps a second,
differently typed copy of its row pointers.  Dumps store offsets as u64
whatever their width in memory.

All randomness flows through numpy's PCG64 generator: every ``seed`` goes
to ``np.random.default_rng``, which takes an int or a SeedSequence and
hands a Generator back unchanged.
Sampling is deterministic per seed: identical ``(n, p, seed)`` give an
identical graph, bit for bit.

Both :func:`sample_gnp` and :func:`from_edges` reduce their edges to sorted
linear pair indices and share one assembly path: exact integer row starts
split the indices into the upper triangle U's rows, whose int32 columns go
straight into one array, and the symmetric CSR is ``U + Uᵀ`` (scipy's
counting transpose and sorted merge).  No float root and no sort or COO
conversion is involved.  The sampler runs this as one blocked pass over one
stream of skip gaps, draw for draw ``rng.geometric(p)``'s (below p = 1/3
from standard exponentials, as numpy's geometric inversion draws them), in
blocks doubling up to ``_GAP_BLOCK``, so no index array of the whole graph
is built.  The graph is that of the stream, whatever the block sizes; a
passed-in Generator is left after the block that crosses the last pair.

The scipy adjacency used by the dynamics stores its ones in the narrowest
signed dtype that holds every neighbour sum (int8 up to maximum degree
127), sized from the graph itself.

``scipy.sparse`` is imported inside the functions that build a CSR (the
adjacency and :func:`_symmetric`), not with this module, so ``import
majdyn`` loads numpy only and a command that never builds a graph
(``verify-lemmas``) never loads the sparse stack; after the first build
Python's import cache makes the import a lookup.

The jumbledness witness takes its edge counts e(U, V) between vertex sets
from one sparse × dense product: the indicator vectors of the V sets are
stacked as the columns of an n × k block in the adjacency's dtype, ``A @
block`` counts every vertex's neighbours in each V, and column j summed in
int64 over the rows in U_j is e(U_j, V_j).  Columns go through in blocks
of at most ``_BLOCK_BYTES``, and the witness draws its pairs one block
ahead (the same rng calls in the same order as drawing them one by one), so
many pairs on a large graph never need one huge dense block or every pair's
ids at once.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

_MAGIC = b"MDGRAPH1"
_VERSION = 1
_HEADER = struct.Struct("<8sIQQ")
# bytes of one dense block of V indicators in the edge-count product
_BLOCK_BYTES = 1 << 23
# skip gaps drawn, summed and cut into rows at a time by the sampler
_GAP_BLOCK = 1 << 18
# vertex ids are int32, so a graph has at most 2**31 vertices
MAX_VERTICES = 2**31


def check_integer(name: str, value, lo: int | None = None, hi: int | None = None) -> None:
    """One rule for integer arguments, as :func:`check_real` is for reals: ValueError
    naming ``name`` for a bool, a non-integer (``np.float64(3.0)`` too) or a value
    outside ``lo..hi`` (``None``: no bound).  A numpy integer passes; nothing is allocated."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if (lo is not None and value < lo) or (hi is not None and value > hi):
        bounds = f"be at least {lo}" if hi is None else f"lie in {lo}..{hi}"
        raise ValueError(f"{name} must {bounds}, got {value}")


def check_real(name: str, value, lo: float, hi: float = math.inf, *,
               lo_open: bool = False, hi_open: bool = False) -> None:
    """One rule for real arguments, as :func:`check_integer` is for integers: ValueError naming
    ``name`` for a bool (numpy's too), NaN, ±inf, anything but a Python or numpy int or float,
    or a value outside ``lo``..``hi`` (closed unless open).  No numpy call on a Python float."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value}")
    if (value <= lo if lo_open else value < lo) or (value >= hi if hi_open else value > hi):
        ends = ("(" if lo_open else "[", ")" if hi_open or hi == math.inf else "]")
        raise ValueError(f"{name} must lie in {ends[0]}{lo}, {hi}{ends[1]}, got {value}")


class Graph:
    """Immutable undirected graph on vertices ``0..n-1`` in CSR form.

    Construction, unpickling included, checks that both arrays are 1-D,
    the offsets start at 0, never decrease and end at ``len(neighbors)``,
    and every id lies in ``0..n-1`` with n <= 2**31, all on the values as given, before
    the offsets are cast to the index dtype (int32 below 2**31 neighbours)
    and the ids to int32, so no value wraps and the step never reads
    outside its arrays; :meth:`validate` checks the rest.
    """

    def __init__(self, n: int, offsets, neighbors):
        check_integer("n", n, 1, MAX_VERTICES)
        self.n = int(n)
        offsets, ids = _integers("offsets", offsets), _integers("neighbor ids", neighbors)
        for what, a in (("offsets", offsets), ("neighbor ids", ids)):
            if a.ndim != 1:
                raise ValueError(f"{what} must be 1-D, got shape {a.shape}")
        # one pass for both ends, on the ids as given: a negative id reads as
        # 2**bits - |id|, and n <= 2**31 keeps every id within int32
        if ids.size and ids.view(ids.dtype.str.replace("i", "u")).max() >= self.n:
            raise ValueError(f"neighbor id out of range for n={self.n}")
        # offsets too are checked as given, so every one lies in 0..len(ids)
        # before the cast to the index dtype, and none wraps in 32 bits
        if offsets.shape != (self.n + 1,):
            raise ValueError("offsets must have length n + 1")
        if offsets[0] != 0 or offsets[-1] != ids.size:
            raise ValueError("offsets must start at 0 and end at len(neighbors)")
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets must be non-decreasing")
        self.offsets = np.ascontiguousarray(offsets, dtype=_index_dtype(ids.size))
        self.neighbors = np.ascontiguousarray(ids, dtype=np.int32)
        self.offsets.setflags(write=False)
        self.neighbors.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return self.neighbors.size // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return np.diff(self.offsets)

    @cached_property
    def _adjacency(self) -> sp.csr_matrix:
        """scipy CSR view of the adjacency matrix, used for the hot loops.

        Its ``data`` has the narrowest signed dtype holding every neighbour
        sum, -deg..deg, so a matvec of signs cast to that dtype is exact:
        int8 up to degree 127, int16 up to 32767, else int32 or wider.
        """
        import scipy.sparse as sp

        dtype = np.min_scalar_type(-(int(self.degrees.max()) + 1))
        data = np.ones(self.neighbors.size, dtype=dtype)
        return sp.csr_matrix((data, self.neighbors, self.offsets), shape=(self.n, self.n))

    def __getstate__(self) -> dict:
        # the constructor's arguments only: the cached views are rebuilt on demand
        return {"n": self.n, "offsets": self.offsets, "neighbors": self.neighbors}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def validate(self) -> None:
        """Check every structural invariant the constructor leaves open;
        raises ValueError on the first violation.  O(n + m), meant for tests
        and untrusted input.  Offsets and ids are checked on construction."""
        nbrs, n = self.neighbors, self.n
        if nbrs.size % 2 != 0:
            raise ValueError("adjacency length must be even (both edge directions stored)")
        if nbrs.size:
            rows = np.repeat(np.arange(n, dtype=np.int32), self.degrees)
            if np.any(nbrs == rows):
                raise ValueError("self-loop found")
            same_row = rows[1:] == rows[:-1]
            if np.any(same_row & (np.diff(nbrs) <= 0)):
                raise ValueError("neighbor lists must be strictly increasing")
            a = self._adjacency
            if (a != a.T).nnz != 0:
                raise ValueError("adjacency is not symmetric")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"


def _index_dtype(size: int) -> type:
    """scipy's CSR index dtype for ``size`` stored entries: int32 below
    2**31, else int64."""
    return np.int32 if size < 2**31 else np.int64


def _integers(what: str, values) -> np.ndarray:
    """``values`` as an array, uncast and uncopied; ValueError unless it is
    empty or of an integer dtype, so no float is truncated and no id wraps
    unseen.  numpy reads a bool beside an int as 0 or 1, so a list's or
    tuple's bools, in it or in its rows, are found by type."""
    a = np.asarray(values)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got dtype {a.dtype}")
    if a.size and isinstance(values, (list, tuple)) and any(
            isinstance(x, (bool, np.bool_))
            for x in (values if a.ndim == 1 else (x for row in values for x in row))):
        raise ValueError(f"{what} must be integers, got a bool")
    return a


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an iterable of (u, v) pairs; it records no density.

    Rejects an n outside ``1..MAX_VERTICES`` before anything is allocated,
    input that is neither empty nor of shape (m, 2), endpoints that are not
    integers (floats, strings, bools, ints past int64), self-loops and
    duplicate edges; order and orientation of the input pairs is
    irrelevant.
    """
    check_integer("n", n, 1, MAX_VERTICES)
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = _integers("edge endpoints", edges)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    pairs = pairs.astype(np.int64).reshape(-1, 2)
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        raise ValueError("edge endpoint out of range")
    if np.any(pairs[:, 0] == pairs[:, 1]):
        raise ValueError("self-loops are not allowed")
    u = np.minimum(pairs[:, 0], pairs[:, 1])
    v = np.maximum(pairs[:, 0], pairs[:, 1])
    lin = np.sort(_row_start(n, u) + v - u - 1)
    if np.any(lin[1:] == lin[:-1]):
        raise ValueError("duplicate edges are not allowed")
    return _symmetric(n, *_upper_rows(n, [lin], lin.size))


def _row_start(n: int, u: np.ndarray) -> np.ndarray:
    """Linear index of the pair (u, u+1): the pairs of rows 0..u-1 come first."""
    return u * (n - 1) - u * (u - 1) // 2


def _upper_rows(n: int, blocks, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Upper-triangle CSR (row pointers in scipy's index dtype, int32
    columns) from blocks of sorted, unique linear pair indices, each block
    above the one before.

    Pair (u, v), u < v, has index R(u) + v - u - 1 in the lexicographic
    enumeration.  Row starts R(w) are exact integers, so a binary search of
    the starts a block spans cuts it into rows, and each column is written
    straight into one int32 array of ``size`` slots (grown if a block runs
    past them): the difference fits in 32 bits, so the int64 indices never
    need to outlive their block.  The row pointers are built in int64 and
    narrowed on return, so the wide copy is gone before ``U + Uᵀ``.
    """
    starts = _row_start(n, np.arange(n + 1, dtype=np.int64))
    upptr = np.zeros(n + 1, dtype=np.int64)
    cols = np.empty(size, dtype=np.int32)
    done, w = 0, 1  # columns written; row pointers 0..w-1 set
    for lin in blocks:
        if lin.size == 0:
            continue
        if done + lin.size > cols.size:
            cols = np.concatenate((cols[:done], np.empty(max(lin.size, cols.size), dtype=np.int32)))
        end = int(np.searchsorted(starts, lin[-1], side="right"))  # last row + 1
        cuts = np.searchsorted(lin, starts[w:end])
        upptr[w:end] = cuts + done
        rows = np.arange(w - 1, end)
        base = np.repeat(starts[w - 1:end] - rows - 1, np.diff(cuts, prepend=0, append=lin.size))
        np.subtract(lin, base, out=cols[done:done + lin.size], casting="unsafe")
        done += lin.size
        w = end
    upptr[w:] = done
    return upptr.astype(_index_dtype(done)), cols[:done]


def _symmetric(n: int, upptr: np.ndarray, cols: np.ndarray) -> Graph:
    """Symmetric CSR from the upper triangle U as ``U + Uᵀ``.

    scipy's counting transpose of U's bool CSR is the CSR of Uᵀ with sorted
    rows, and its sorted merge of the two (disjoint) patterns gives every
    row sorted: the lower neighbours (< w) of row w all precede the upper.
    The merge's own ``indptr``, in scipy's index dtype for 2m entries,
    becomes the graph's offsets as it is.
    """
    import scipy.sparse as sp

    upper = sp.csr_matrix((np.ones(cols.size, dtype=bool), cols, upptr), shape=(n, n))
    both = upper + upper.T.tocsr()
    return Graph(n, both.indptr, both.indices)


def _gap_source(rng: np.random.Generator, p: float, total: int, size: int):
    """``draw(k)``, k <= ``size``: the next k skip gaps, equal draw for draw
    to ``np.clip(rng.geometric(p, size=k), 1, total + 1)``.

    Below p = 1/3 numpy draws a geometric by inversion, ceil(E / -log1p(-p))
    from one standard exponential E, so the exponentials are drawn straight
    into a float buffer and inverted there: the same draws and the same
    gaps, as integer-valued floats.  From 1/3 up its search method is called
    as is.
    """
    if p >= 1.0 / 3.0:
        return lambda k: np.clip(rng.geometric(p, size=k), 1, total + 1)
    buf = np.empty(size)
    scale = -math.log1p(-p)
    # tiny p saturates the inversion; any gap past total + 1 overshoots the
    # pair range anyway, so it is capped there
    cap = np.nextafter(float(total + 1), np.inf)

    def draw(k: int) -> np.ndarray:
        gaps = rng.standard_exponential(out=buf[:k])
        with np.errstate(over="ignore"):
            np.divide(gaps, scale, out=gaps)
        np.ceil(gaps, out=gaps)
        return np.clip(gaps, 1.0, cap, out=gaps)

    return draw


def _pair_blocks(rng: np.random.Generator, p: float, total: int, first: int):
    """Yield the sorted linear indices of G(n, p)'s pairs, one block of
    gaps at a time, until the block that crosses ``total``.

    The first block is ``first`` gaps, each later one twice the last, all
    capped at ``_GAP_BLOCK`` and at total + 1 (gaps are at least 1, so that
    many always cross).  Nothing is drawn after the crossing block.

    Every sum up to the crossing is below 2 * total + 2, but the capped
    gaps after it can carry a block's cumsum past int64 once
    block * total nears 2**63 (n above about 6e6 at full blocks), so the
    crossing is the first index >= total, which precedes any wrapped sum.
    """
    cap = min(_GAP_BLOCK, total + 1)
    draw = _gap_source(rng, p, total, cap)
    buf = np.empty(cap, dtype=np.int64)
    k, pos = min(first, cap), 0
    while pos <= total:
        lin = buf[:k]
        np.cumsum(draw(k), dtype=np.int64, out=lin)
        lin += pos - 1
        end = int(np.argmax(lin >= total))
        end = end if lin[end] >= total else k
        pos = int(lin[-1]) + 1 if end == k else total + 1
        yield lin[:end]
        k = min(2 * k, cap)


def sample_gnp(n: int, p: float, seed) -> Graph:
    """Sample G(n, p) in expected O(n + m) time via geometric skips.

    The n(n-1)/2 vertex pairs are enumerated in lexicographic order and the
    gap to the next present edge is drawn geometrically, so the dense
    Bernoulli sweep is never materialized (Batagelj and Brandes 2005).  One
    blocked pass draws the gaps, cumsums them into linear pair indices and
    cuts them into upper-triangle rows; the symmetric CSR is ``U + Uᵀ``.
    The graph is that of one ``rng.geometric(p)`` stream; a passed-in
    Generator is left after the block of gaps that crosses the last pair.
    """
    check_integer("n", n, 1, MAX_VERTICES)
    check_real("p", p, 0, 1)
    total = n * (n - 1) // 2
    if p == 0.0 or total == 0:
        return Graph(n, np.zeros(n + 1, dtype=np.int32), np.empty(0, dtype=np.int32))
    # 10 sigma above the expected edge count: the column array is nearly
    # always sized once, and it is the first block of gaps
    expect = total * p
    size = int(expect + 10.0 * math.sqrt(expect + 1.0)) + 16
    blocks = _pair_blocks(np.random.default_rng(seed), p, total, size)
    return _symmetric(n, *_upper_rows(n, blocks, min(size, total)))


def _edge_counts(g: Graph, pairs):
    """Yield (U, V, e(U, V)) for each (U, V) in ``pairs``, one sparse × dense
    product per block of at most ``_BLOCK_BYTES`` of V indicators.

    ``pairs`` is consumed one block at a time, so a lazy source never holds
    more vertex ids than one block needs.  Each product entry counts a
    vertex's neighbours in one V, at most its degree, so the adjacency's own
    dtype holds it exactly; the sum over U is taken in int64.
    """
    a = g._adjacency
    width = max(1, _BLOCK_BYTES // (g.n * a.dtype.itemsize))
    pairs = iter(pairs)
    while chunk := list(itertools.islice(pairs, width)):
        block = np.zeros((g.n, len(chunk)), dtype=a.dtype)
        for col, (_, v) in enumerate(chunk):
            block[v, col] = 1
        hits = a @ block
        for col, (u, v) in enumerate(chunk):
            yield u, v, int(hits[u, col].sum(dtype=np.int64))


def estimate_jumbledness(g: Graph, p: float, pairs: int = 200, seed=0) -> float:
    """Thomason's discrepancy coefficient beta, estimated from below by
    sampling disjoint subset pairs.

    Each round draws disjoint U, V of sizes uniform in n/8..n/4 (at least 1)
    and the witness ``beta_hat`` is the largest |e(U,V) - p|U||V|| /
    sqrt(|U||V|) seen; the true coefficient is at least this large.  Pairs
    are drawn disjoint so a complete graph has zero discrepancy (the
    diagonal never contributes).
    """
    check_real("p", p, 0, 1)
    check_integer("pairs", pairs, 1)
    hi = max(g.n // 4, 1)
    lo = max(hi // 2, 1)
    if 2 * hi > g.n:
        raise ValueError("subset sizes must allow disjoint pairs (2*max <= n)")
    rng = np.random.default_rng(seed)

    def draws():
        for _ in range(pairs):
            su = int(rng.integers(lo, hi + 1))
            sv = int(rng.integers(lo, hi + 1))
            both = rng.choice(g.n, size=su + sv, replace=False)
            yield both[:su], both[su:]

    worst = 0.0
    for u, v, e in _edge_counts(g, draws()):
        disc = abs(e - p * u.size * v.size) / math.sqrt(u.size * v.size)
        if disc > worst:
            worst = disc
    return worst


def save_graph(g: Graph, path) -> None:
    """Write the little-endian binary dump: header (magic, version, n,
    edge_count), then offsets as u64 and neighbors as u32.  Offsets held
    as int32 are widened to u64 on write, so the format does not depend
    on the in-memory index dtype."""
    try:
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, g.n, g.edge_count))
            # every value is non-negative, so the signed arrays have the
            # u64/u32 bytes: int32 offsets are widened in one n-sized copy,
            # the neighbours are written without one
            fh.write(g.offsets.astype("<i8", copy=False))
            fh.write(g.neighbors.astype("<i4", copy=False))
    except OSError as exc:
        raise OSError(f"cannot write graph to {path}: {exc}") from exc


def load_graph(path) -> Graph:
    """Read a graph written by :func:`save_graph`.

    Each section is read with ``readinto`` straight into its final array,
    after the file's length has been checked against the header, so the
    load holds no copy of the file; only the offsets are narrowed, in one
    n-sized copy.  Rejects bad magic, unknown versions,
    truncated files and, through :class:`Graph` with the path prefixed,
    offsets that do not run from 0 up to the neighbour count and ids
    outside ``0..n-1``, so no offset or id wraps as int32.
    Symmetry, sortedness and self-loops are left to :meth:`Graph.validate`:
    about 0.45 s at n=10^6, p=2e-5 on a 2-core Xeon, adjacency build
    included, against about 0.04 s for the load itself.
    """
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise ValueError(f"{path}: truncated header")
            magic, version, n, edge_count = _HEADER.unpack(head)
            if magic != _MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r}")
            if version != _VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            if size != _HEADER.size + 8 * (n + 1) + 4 * 2 * edge_count:
                raise ValueError(f"{path}: length {size} does not match header")
            offsets = np.empty(n + 1, dtype="<u8")
            neighbors = np.empty(2 * edge_count, dtype="<u4")
            for section in (offsets, neighbors):
                if fh.readinto(section) != section.nbytes:
                    raise ValueError(f"{path}: file shrank while being read")
    except OSError as exc:
        raise OSError(f"cannot read graph from {path}: {exc}") from exc
    try:
        return Graph(n, offsets.view("<i8"), neighbors.view("<i4"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
