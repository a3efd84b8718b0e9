"""q-digest — the canonical FULLY-mergeable quantile sketch over a bounded
integer universe (Shrivastava et al., SenSys'04; treated as the flagship
"mergeable summary" in Agarwal et al., ACM TODS 2013).

Role in this library: the reference's quantile sketches (MergingDigest,
KLL, Req — /root/reference/core/src/main/java/com/tdunning/math/stats/)
are all *randomized or order-sensitive* to some degree; q-digest is the
one classic quantile summary whose merge is EXACTLY deterministic and
order-independent (counts add, then a deterministic bottom-up compress),
which makes it the only member of the family whose merged estimates are
bit-reproducible under any Ray fold order — no gate cushion needed for
nondeterminism, only for the published rank bound itself.

Model: values are integers in ``[0, 2**L)`` (inputs are clipped; exact
min/max are tracked separately, mirroring TDigest.java:46-47). The sketch
is a sparse map ``node_id -> count`` over the implicit complete binary
tree with heap numbering (root=1, leaf for value v = ``2**L + v``). The
q-digest invariant with compression factor k: every stored non-leaf node
has ``count <= floor(n/k)``, and a child is only kept separate from its
parent while ``child + sibling + parent > floor(n/k)``.

Guarantees (Shrivastava et al. Thm 1-2; Agarwal et al. §2):

* size  O(k * L) nodes after compress;
* rank error of any quantile <= ``L * n / k`` (each of the <= L ancestors
  of a leaf holds < n/k mass that MAY belong left of it);
* merge = pointwise count addition + recompress — associative and
  commutative EXACTLY (not just within a bound).

Everything is vectorized numpy over sparse (ids, counts) arrays — no
per-value Python. Implements the library ``Sketch`` protocol
(state/protocol.py) so stages/aggregate.py wires it through the standard
partial -> canonical merge topology unchanged.
"""

from __future__ import annotations

import struct

import numpy as np

_MAGIC = b"QDG1"


class QDigest:
    """Sparse q-digest over ``[0, 2**log_universe)`` with factor ``k``."""

    def __init__(self, k: int = 256, log_universe: int = 24):
        if not 1 <= log_universe <= 62:
            raise ValueError("log_universe out of range")
        self.k = int(k)
        self.L = int(log_universe)
        self.ids = np.empty(0, dtype=np.int64)     # heap node ids, sorted
        self.counts = np.empty(0, dtype=np.int64)  # parallel counts
        self.n = 0
        self.min = np.inf
        self.max = -np.inf

    # -- updates ---------------------------------------------------------

    def update_batch(self, values, weights=None) -> None:
        v = np.asarray(values, dtype=np.float64)
        v = v[~np.isnan(v)]
        if len(v) == 0:
            return
        self.min = min(self.min, float(v.min()))
        self.max = max(self.max, float(v.max()))
        leaf = np.clip(v, 0, (1 << self.L) - 1).astype(np.int64)
        leaf += np.int64(1) << np.int64(self.L)
        if weights is None:
            ids, counts = np.unique(leaf, return_counts=True)
            counts = counts.astype(np.int64)
        else:
            w = np.asarray(weights, dtype=np.int64)
            order = np.argsort(leaf, kind="stable")
            ids, starts = np.unique(leaf[order], return_index=True)
            counts = np.add.reduceat(w[order], starts).astype(np.int64)
        self.n += int(counts.sum())
        self._absorb(ids, counts)
        self._compress()

    def _absorb(self, ids: np.ndarray, counts: np.ndarray) -> None:
        """Pointwise-add a sorted sparse (ids, counts) run into self."""
        if len(self.ids) == 0:
            self.ids, self.counts = ids, counts
            return
        allids = np.concatenate([self.ids, ids])
        allcnt = np.concatenate([self.counts, counts])
        order = np.argsort(allids, kind="stable")
        sids = allids[order]
        uniq, starts = np.unique(sids, return_index=True)
        self.ids = uniq
        self.counts = np.add.reduceat(allcnt[order], starts)

    # -- compress ---------------------------------------------------------

    def _compress(self) -> None:
        """Deterministic bottom-up compress restoring the q-digest
        invariant: for each level from the leaves up, a sibling group whose
        (children + parent) total is <= floor(n/k) collapses into the
        parent. Pure numpy per level (L iterations, each over the sparse
        node set only)."""
        thresh = self.n // self.k
        if thresh <= 0 or len(self.ids) == 0:
            return
        ids, counts = self.ids, self.counts
        for level in range(self.L, 0, -1):
            lo = np.int64(1) << np.int64(level)
            hi = lo << np.int64(1)
            child_m = (ids >= lo) & (ids < hi)
            if not child_m.any():
                continue
            parents = ids[child_m] >> 1
            up, inv = np.unique(parents, return_inverse=True)
            child_sum = np.bincount(inv, weights=counts[child_m]
                                    ).astype(np.int64)
            # existing parent entries (level-1 nodes are a sorted subset)
            pos = np.searchsorted(ids, up)
            safe = np.minimum(pos, len(ids) - 1)
            have = ids[safe] == up
            pcnt = np.where(have, counts[safe], 0)
            collapse = (child_sum + pcnt) <= thresh
            if not collapse.any():
                continue
            remove = np.zeros(len(ids), dtype=bool)
            remove[np.flatnonzero(child_m)[collapse[inv]]] = True
            remove[safe[collapse & have]] = True
            new_ids = np.concatenate([ids[~remove], up[collapse]])
            new_cnt = np.concatenate([
                counts[~remove], (child_sum + pcnt)[collapse]])
            order = np.argsort(new_ids, kind="stable")
            ids, counts = new_ids[order], new_cnt[order]
        nz = counts > 0
        self.ids, self.counts = ids[nz], counts[nz]

    # -- merge -------------------------------------------------------------

    def merge(self, *others: "QDigest") -> "QDigest":
        for o in others:
            if o.L != self.L or o.k != self.k:
                raise ValueError("q-digest parameter mismatch")
            if o.n == 0:
                continue
            self._absorb(o.ids, o.counts)
            self.n += o.n
            self.min = min(self.min, o.min)
            self.max = max(self.max, o.max)
        self._compress()
        return self

    # -- queries -----------------------------------------------------------

    @property
    def eps(self) -> float:
        """Published rank-error bound as a fraction: L / k."""
        return self.L / self.k

    def _ordered(self):
        """Nodes in q-digest query order: increasing range upper bound,
        ties broken smaller-range-first (leaf before ancestor)."""
        levels = (np.frexp(self.ids.astype(np.float64))[1] - 1
                  ).astype(np.int64)
        width = np.int64(self.L) - levels
        lower = (self.ids - (np.int64(1) << levels)) << width
        upper = lower + (np.int64(1) << width) - np.int64(1)
        order = np.lexsort((-lower, upper))
        return lower[order], upper[order], self.counts[order]

    def quantile(self, q: float) -> float:
        if self.n == 0:
            return float("nan")
        q = min(max(q, 0.0), 1.0)
        _, upper, counts = self._ordered()
        target = max(int(np.ceil(q * self.n)), 1)
        cum = np.cumsum(counts)
        i = int(np.searchsorted(cum, target))
        i = min(i, len(upper) - 1)
        v = float(upper[i])
        return min(max(v, self.min), self.max)

    def rank(self, x: float) -> float:
        """Estimated #values <= x (midpoint convention on the covering
        node, matching the sketch's +-eps*n guarantee)."""
        if self.n == 0:
            return 0.0
        _, upper, counts = self._ordered()
        below = counts[upper <= x].sum()
        return float(below)

    def cdf(self, x: float) -> float:
        return self.rank(x) / self.n if self.n else float("nan")

    # -- serde --------------------------------------------------------------

    def to_bytes(self) -> bytes:
        head = struct.pack("<4sqqqdd", _MAGIC, self.k, self.L, self.n,
                           self.min, self.max)
        return (head + struct.pack("<q", len(self.ids))
                + self.ids.tobytes() + self.counts.tobytes())

    @classmethod
    def from_bytes(cls, buf: bytes) -> "QDigest":
        magic, k, L, n, mn, mx = struct.unpack_from("<4sqqqdd", buf, 0)
        if magic != _MAGIC:
            raise ValueError("bad q-digest encoding")
        off = struct.calcsize("<4sqqqdd")
        (m,) = struct.unpack_from("<q", buf, off)
        off += 8
        sk = cls(k=k, log_universe=L)
        sk.n = n
        sk.min, sk.max = mn, mx
        sk.ids = np.frombuffer(buf, dtype=np.int64, count=m,
                               offset=off).copy()
        sk.counts = np.frombuffer(buf, dtype=np.int64, count=m,
                                  offset=off + 8 * m).copy()
        return sk
