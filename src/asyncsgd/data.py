"""Data-set ingestion, node partitioning, and the round assignment table.

The assignment table realizes the setup phase: entry a(i, t) = c means the
t-th sample slot of round i belongs to compute node c (nodes are numbered
1..n).  Per-node round sizes s_{i,c} are the occurrence counts in row i.
Everything here is regenerable bit-identically from (seed, config) via the
named Philox streams in :mod:`asyncsgd.rng`.
"""
from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import rng
from .schedules import SampleSchedule

UNBIASED = "unbiased"
BIASED_BY_LABEL = "biased_by_label"
# Slots per block of the table's blocked passes; their temporaries stay at
# 64 KiB, so no large buffer is allocated and freed on the way.
_BLOCK = 8192


class DataFormatError(ValueError):
    """Raised for malformed input data files."""


@dataclass
class DataSet:
    """Dense feature matrix plus {0,1} labels."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.X.ndim != 2 or 0 in self.X.shape:
            raise DataFormatError("data set must be a 2-d matrix with at "
                                  "least one row and one feature column")
        if len(self.X) != len(self.y):
            raise DataFormatError("feature/label length mismatch")
        if not np.all(np.isfinite(self.X)):
            raise DataFormatError("non-finite feature values")

    def __len__(self) -> int:
        return len(self.X)

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def sample(self, idx: int):
        return self.X[idx], float(self.y[idx])


def parse_libsvm(source) -> DataSet:
    """Parse LIBSVM text ("<label> <idx>:<val> ...", 1-based ascending).

    Labels in {-1,+1} or {0,1} are normalized to {0,1}.  Vectors are padded
    with zeros to the maximum feature index seen anywhere in the file.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = [ln.decode() if isinstance(ln, bytes) else ln for ln in source]
    rows: List[dict] = []
    labels: List[int] = []
    max_idx = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            raw = float(parts[0])
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad label {parts[0]!r}")
        if raw in (1.0, +1.0):
            label = 1
        elif raw in (-1.0, 0.0):
            label = 0
        else:
            raise DataFormatError(f"line {lineno}: label {raw} not binary")
        feats = {}
        prev = 0
        for tok in parts[1:]:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx, val = int(idx_s), float(val_s)
            except ValueError:
                raise DataFormatError(f"line {lineno}: bad feature {tok!r}")
            if idx <= prev:
                raise DataFormatError(
                    f"line {lineno}: non-ascending index {idx}")
            prev = idx
            feats[idx] = val
        max_idx = max(max_idx, prev)
        rows.append(feats)
        labels.append(label)
    if not rows:
        raise DataFormatError("empty input")
    if len(rows) * max_idx > 2 ** 28:  # 2 GiB of float64
        raise DataFormatError(f"feature index {max_idx} makes a {len(rows)}"
                              f" x {max_idx} matrix, over 2**28 entries")
    X = np.zeros((len(rows), max_idx))
    for r, feats in enumerate(rows):
        for idx, val in feats.items():
            X[r, idx - 1] = val
    return DataSet(X=X, y=np.asarray(labels, dtype=np.int8))


def load_libsvm(path: str) -> DataSet:
    with open(path) as fh:
        return parse_libsvm(fh)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------

@dataclass
class Partition:
    """Disjoint index sets into the parent data set, one per node."""

    parent: DataSet
    indices: List[np.ndarray]
    p: np.ndarray

    @property
    def n(self) -> int:
        return len(self.indices)

    def local(self, c: int) -> DataSet:
        """A copy of the local data of node c (1-based, matching the
        algorithms)."""
        idx = self.indices[c - 1]
        return DataSet(self.parent.X[idx], self.parent.y[idx])


def _proportional_sizes(M: int, p: np.ndarray) -> List[int]:
    """Largest-remainder apportionment of M items with weights p."""
    raw = p * M
    sizes = np.floor(raw).astype(int)
    rem = raw - sizes
    for idx in np.argsort(-rem)[: M - int(sizes.sum())]:
        sizes[idx] += 1
    return sizes.tolist()


def partition(ds: DataSet, n: int, mode: str = UNBIASED,
              p: Optional[Sequence[float]] = None, seed: int = 0) -> Partition:
    """Split a data set into n disjoint, non-empty index sets.

    Unbiased: seeded shuffle then contiguous blocks of sizes proportional
    to p.  BiasedByLabel: sort by label and hand label groups to nodes (for
    n larger than the number of labels, each label group is further split
    by a seeded shuffle).
    """
    if n < 1:
        raise ValueError("need at least one node")
    if n > len(ds):  # checked before any length-n array is allocated
        raise ValueError(f"n={n} nodes for {len(ds)} samples leaves a node "
                         f"with none")
    if p is None:
        pv = np.full(n, 1.0 / n)
    else:
        flat = all(isinstance(v, numbers.Real) and not isinstance(v, bool)
                   for v in p)
        pv = np.asarray(p if flat else [], dtype=float)
        if len(pv) != n or not np.all(pv > 0) or abs(pv.sum() - 1.0) > 1e-9:
            raise ValueError("p must be a length-n probability vector > 0")
    gen = rng.stream(seed, rng.PARTITION)
    if mode == UNBIASED:
        perm = gen.permutation(len(ds))
        ends = np.cumsum(_proportional_sizes(len(ds), pv))
        groups = np.split(perm, ends[:-1])
    elif mode == BIASED_BY_LABEL:
        label_groups = [np.flatnonzero(ds.y == lbl) for lbl in (0, 1)]
        label_groups = [g for g in label_groups if len(g)]
        if n <= len(label_groups):
            # one label (or label group) per node, round-robin leftovers
            buckets: List[list] = [[] for _ in range(n)]
            for gi, grp in enumerate(label_groups):
                buckets[gi % n].extend(grp.tolist())
            groups = [np.asarray(b, dtype=np.int64) for b in buckets]
        else:
            # labels are insufficient: split each label group by a seeded
            # shuffle, spreading the n nodes across groups
            groups = []
            per_group = _proportional_sizes(n, np.array(
                [len(g) / len(ds) for g in label_groups]))
            for grp, cnt in zip(label_groups, per_group):
                if cnt == 0:
                    raise ValueError("n exceeds distinct usable label groups")
                shuffled = grp[gen.permutation(len(grp))]
                groups.extend(np.array_split(shuffled, cnt))
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    if any(len(g) == 0 for g in groups):
        raise ValueError(f"{mode} partitioning of {len(ds)} samples leaves a "
                         f"node with none")
    return Partition(parent=ds, indices=groups, p=pv)


# ---------------------------------------------------------------------------
# Assignment table
# ---------------------------------------------------------------------------

@dataclass
class AssignmentTable:
    """The node ids a(i, t) in {1..n}, rows end to end: global slot t is in
    row i iff start[i] <= t < start[i + 1], so row i has s_i entries and
    start[i] = sum_{j<i} s_j.

    The table holds no slot: slots(lo, hi) returns the node ids of global
    slots lo..hi - 1, drawn anew at each call (build_assignment's source
    redraws any range bit for bit).  counts() draws them a block at a
    time; node and index() draw every slot on their first use, by traces,
    audits and rho, and keep it.  Untraced runs never read those two."""

    start: np.ndarray
    n: int
    slots: Callable[[int, int], np.ndarray] = field(repr=False)
    _index: Optional[tuple] = field(default=None, repr=False, compare=False)

    @property
    def rounds(self) -> int:
        return len(self.start) - 1

    @functools.cached_property
    def node(self) -> np.ndarray:
        """node[t], the node of global slot t, for every slot."""
        return self.slots(0, int(self.start[-1]))

    def counts(self) -> np.ndarray:
        """counts[i, c] = s_{i,c} (column 0 is zero): rnd * (n + 1) + node
        counted by one bincount per block of slots, as they are drawn."""
        n1, start, end = self.n + 1, self.start, int(self.start[-1])
        counts = np.zeros(self.rounds * n1, dtype=np.int64)
        for lo in range(0, end, _BLOCK):
            hi = min(lo + _BLOCK, end)
            # rows r0..r1 - 1 overlap the block; rnd counts from r0
            r0 = int(start.searchsorted(lo, side="right")) - 1
            r1 = int(start.searchsorted(hi))
            rnd = np.repeat(np.arange(r1 - r0) * n1,
                            np.diff(start[r0:r1 + 1].clip(lo, hi)))
            part = np.bincount(rnd + self.slots(lo, hi))
            counts[r0 * n1:r0 * n1 + len(part)] += part
        return counts.reshape(self.rounds, n1)

    def index(self):
        """Flat arrays (node, rnd, occ, first, order), built on first call:
        global slot t is in row rnd[t], of node node[t], that node's occ[t]-th
        slot in the row.  The slots of key i * n + c - 1, ascending, are
        order[first[key]:first[key + 1]]."""
        if self._index is None:
            node = self.node
            rnd = np.repeat(np.arange(self.rounds, dtype=np.int64),
                            np.diff(self.start))
            key = rnd * self.n + node - 1
            order = np.argsort(key, kind="stable")
            first = np.searchsorted(key[order],
                                    np.arange(self.rounds * self.n + 1))
            occ = np.empty_like(node)
            occ[order] = np.arange(len(node)) - first[key[order]]
            self._index = node, rnd, occ, first, order
        return self._index


def _draw(key: int, cdf: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Node ids of global slots lo..hi - 1: slot t is cdf.searchsorted(u_t,
    side="right") + 1, u_t the random() value of the stream's word t."""
    gen = rng.stream_at(key, lo)
    node = np.empty(hi - lo, dtype=np.int64)
    for a in range(0, len(node), _BLOCK):
        u = gen.random(min(_BLOCK, len(node) - a))
        node[a:a + len(u)] = cdf.searchsorted(u, side="right") + 1
    return node


def build_assignment(sched: SampleSchedule, p: Sequence[float], n: int,
                     rounds: int, seed: int) -> AssignmentTable:
    """The a(i, t) table: s_i categorical draws over p per round, drawn
    where they are read.

    Generator.choice(nodes, size=s_i, p=p) is cdf.searchsorted(random(s_i),
    side="right") with cdf = cumsum(p) scaled to end at 1, and each
    random() value takes one 64-bit word, so the slots of all rows drawn
    end to end from the ASSIGNMENT stream are the rows that one choice per
    row gives; and slot t is drawn from word t on.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    pv = np.asarray(p, dtype=float)
    if len(pv) != n or np.any(pv < 0) or abs(pv.sum() - 1.0) > 1e-9:
        raise ValueError("p must be a length-n probability vector")
    bounds = np.asarray(sched.prefix_sums(rounds), dtype=np.int64)
    cdf = pv.cumsum()
    cdf /= cdf[-1]
    return AssignmentTable(bounds, n, functools.partial(
        _draw, rng.stream_key(seed, rng.ASSIGNMENT), cdf))


# ---------------------------------------------------------------------------
# Synthetic data sets (used by tests and the experiment suites)
# ---------------------------------------------------------------------------

def synthetic_quadratic(M: int = 1000, dim: int = 10, seed: int = 0,
                        scale: float = 1.0) -> DataSet:
    """Gaussian feature cloud for the quadratic-mean problem."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    gen = rng.stream(seed, "synthetic-quadratic")
    X = gen.normal(0.0, scale, size=(M, dim))
    y = (X[:, 0] > 0).astype(np.int8)  # labels unused by the problem
    return DataSet(X=X, y=y)


def synthetic_logistic(M: int = 1000, dim: int = 10, seed: int = 0,
                       separation: float = 2.0, noise: float = 1.5,
                       center_seed: Optional[int] = None) -> DataSet:
    """Two overlapping Gaussian clusters with balanced binary labels.

    center_seed pins the cluster geometry independently of the sampling
    seed, so train and held-out sets can share one distribution.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    gen = rng.stream(seed, "synthetic-logistic")
    center_gen = gen if center_seed is None \
        else rng.stream(center_seed, "synthetic-logistic-center")
    half = M // 2
    center = center_gen.normal(0.0, 1.0, size=dim)
    center *= separation / np.linalg.norm(center)
    X0 = gen.normal(0.0, noise, size=(half, dim)) - center
    X1 = gen.normal(0.0, noise, size=(M - half, dim)) + center
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(half, dtype=np.int8),
                        np.ones(M - half, dtype=np.int8)])
    perm = gen.permutation(M)
    return DataSet(X=X[perm], y=y[perm])
