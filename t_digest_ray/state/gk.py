"""Greenwald–Khanna epsilon-approximate quantile summary (SIGMOD'01),
with the merge rule from Greenwald & Khanna's follow-up work as analyzed
in Agarwal et al., "Mergeable Summaries" (ACM TODS 2013, §3).

Role in this library: the deterministic COMPARISON-BASED quantile summary
— complements the reference's MergingDigest (approximation by centroid
interpolation), KLL (randomized), Req (randomized, relative-error) and
this repo's q-digest (bounded integer universe). GK works on arbitrary
ordered doubles, keeps hard rank brackets per stored value, and needs no
randomness; its answers are actual observed values, never interpolants.

State: tuples ``(v, g, delta)`` sorted by v, where
``rmin_i = sum_{j<=i} g_j`` and ``rmax_i = rmin_i + delta_i`` bracket the
true rank of v_i. Invariant maintained by ``_compress``:
``g_i + delta_i <= 2 * eps * n``, which bounds the quantile rank error by
``eps * n`` (Greenwald-Khanna Thm 1).

Distribution mapping (the part that matters at 10^12 rows):

* ``update_batch`` builds the batch's summary DIRECTLY from the sorted
  value array by stride sampling (stride ``s = max(1, floor(eps * m))``
  gives ``g + delta = s <= eps * m`` — tighter than the invariant needs),
  so construction is pure numpy: sort + slice. No per-value insert loop
  (the textbook O(1)-per-item insert path is a row loop — wrong shape for
  map_batches).
* ``merge`` is the rank-bracket-preserving combine: tuples interleave by
  value and each inherits extra delta equal to the gap between its
  neighbors' brackets in the OTHER summary. This step adds NO rank error
  (the brackets stay valid); only construction stride and compress do.
  Vectorized via searchsorted.
* ``_compress`` greedily fuses adjacent tuples while the fused
  ``g + delta`` stays under ``2 * eps * n``. It loops in Python — but
  only over the summary's own tuples (O(1/eps * log(eps * n)) of them,
  hundreds), never over data.

Shuffle cost: a summary is ~24 bytes/tuple, KBs per (task, key) row —
same envelope as the other sketches in stages/aggregate.py.
"""

from __future__ import annotations

import struct

import numpy as np

_MAGIC = b"GKS1"


class GKSummary:
    def __init__(self, eps: float = 0.01):
        if not 0 < eps < 0.5:
            raise ValueError("eps out of range")
        self.eps = float(eps)
        self.v = np.empty(0, dtype=np.float64)
        self.g = np.empty(0, dtype=np.int64)
        self.delta = np.empty(0, dtype=np.int64)
        self.n = 0

    # -- construction ------------------------------------------------------

    def update_batch(self, values, weights=None) -> None:
        """Absorb a batch: build its stride-sampled summary, then merge.

        Weights must be positive ints (weight w = w repeated samples);
        weighted batches skip the stride (every distinct value kept, g =
        its total weight) — exact, summary-sized input assumed.
        """
        x = np.asarray(values, dtype=np.float64)
        x = x[~np.isnan(x)]
        if len(x) == 0:
            return
        other = GKSummary(self.eps)
        if weights is not None:
            w = np.asarray(weights, dtype=np.int64)
            order = np.argsort(x, kind="stable")
            xv, starts = np.unique(x[order], return_index=True)
            gv = np.add.reduceat(w[order], starts).astype(np.int64)
            other.v, other.g = xv, gv
            other.delta = np.zeros(len(xv), dtype=np.int64)
            other.n = int(gv.sum())
        else:
            xs = np.sort(x)
            m = len(xs)
            s = max(1, int(self.eps * m))
            idx = np.arange(s - 1, m, s)
            if len(idx) == 0 or idx[-1] != m - 1:
                idx = np.append(idx, m - 1)
            if idx[0] != 0:
                idx = np.insert(idx, 0, 0)  # keep the exact minimum
            other.v = xs[idx]
            other.g = np.diff(np.append(np.int64(-1), idx)).astype(np.int64)
            other.delta = np.zeros(len(idx), dtype=np.int64)
            other.n = m
        if self.n == 0:
            self.v, self.g, self.delta, self.n = (
                other.v, other.g, other.delta, other.n)
        else:
            self._merge_one(other)
        self._compress()

    # -- merge --------------------------------------------------------------

    def _merge_one(self, o: "GKSummary") -> None:
        """Rank-bracket-preserving pairwise combine (no added error)."""
        # For each tuple, the delta inherited from the OTHER summary is
        # (g + delta) of the other's next-strictly-greater tuple, minus 1;
        # tuples with no greater neighbor inherit nothing (they bracket
        # against the other's exact tail).
        def inherited(mine_v, theirs: "GKSummary") -> np.ndarray:
            nxt = np.searchsorted(theirs.v, mine_v, side="right")
            extra = np.zeros(len(mine_v), dtype=np.int64)
            has = nxt < len(theirs.v)
            gi = theirs.g[nxt[has]] + theirs.delta[nxt[has]] - 1
            extra[has] = np.maximum(gi, 0)
            return extra

        d_self = self.delta + inherited(self.v, o)
        d_other = o.delta + inherited(o.v, self)
        v = np.concatenate([self.v, o.v])
        g = np.concatenate([self.g, o.g])
        d = np.concatenate([d_self, d_other])
        order = np.argsort(v, kind="stable")
        self.v, self.g, self.delta = v[order], g[order], d[order]
        self.n += o.n

    def merge(self, *others: "GKSummary") -> "GKSummary":
        for o in others:
            if o.n == 0:
                continue
            if abs(o.eps - self.eps) > 1e-12:
                raise ValueError("eps mismatch")
            if self.n == 0:
                self.v, self.g, self.delta, self.n = (
                    o.v.copy(), o.g.copy(), o.delta.copy(), o.n)
                continue
            self._merge_one(o)
            self._compress()
        return self

    # -- compress -------------------------------------------------------------

    def _compress(self) -> None:
        cap = int(2 * self.eps * self.n)
        m = len(self.v)
        if cap <= 1 or m <= 2:
            return
        # greedy right-to-left fuse: tuple i folds into i+1 while the
        # fused g + delta stays under cap. Loop is over summary tuples
        # only (bounded, small), never over raw data.
        v, g, d = self.v, self.g, self.delta
        keep = np.ones(m, dtype=bool)
        fused_g = g.copy()
        j = m - 1  # index of the current right survivor
        for i in range(m - 2, 0, -1):
            if g[i] + fused_g[j] + d[j] <= cap:
                fused_g[j] += g[i]
                keep[i] = False
            else:
                j = i
        self.v, self.g, self.delta = v[keep], fused_g[keep], d[keep]

    # -- queries ----------------------------------------------------------------

    def _brackets(self):
        rmin = np.cumsum(self.g)
        return rmin, rmin + self.delta

    def quantile(self, q: float) -> float:
        if self.n == 0:
            return float("nan")
        q = min(max(q, 0.0), 1.0)
        r = max(1, int(np.ceil(q * self.n)))
        rmin, rmax = self._brackets()
        # the stored value whose bracket is centered closest to r
        score = np.maximum(r - rmin, rmax - r)
        return float(self.v[int(np.argmin(score))])

    def rank(self, x: float) -> float:
        """Midpoint rank estimate of #values <= x."""
        if self.n == 0:
            return 0.0
        rmin, rmax = self._brackets()
        i = np.searchsorted(self.v, x, side="right") - 1
        if i < 0:
            return 0.0
        if x >= self.v[-1]:
            return float(self.n)
        return float((rmin[i] + rmax[i]) / 2.0)

    def cdf(self, x: float) -> float:
        return self.rank(x) / self.n if self.n else float("nan")

    @property
    def size(self) -> int:
        return len(self.v)

    # -- serde --------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        head = struct.pack("<4sdqq", _MAGIC, self.eps, self.n, len(self.v))
        return (head + self.v.tobytes() + self.g.tobytes()
                + self.delta.tobytes())

    @classmethod
    def from_bytes(cls, buf: bytes) -> "GKSummary":
        magic, eps, n, m = struct.unpack_from("<4sdqq", buf, 0)
        if magic != _MAGIC:
            raise ValueError("bad GK encoding")
        off = struct.calcsize("<4sdqq")
        sk = cls(eps=eps)
        sk.n = n
        sk.v = np.frombuffer(buf, np.float64, m, off).copy()
        sk.g = np.frombuffer(buf, np.int64, m, off + 8 * m).copy()
        sk.delta = np.frombuffer(buf, np.int64, m, off + 16 * m).copy()
        return sk
