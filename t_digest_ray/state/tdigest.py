"""MergingDigest-style t-digest, re-expressed as vectorized numpy kernels.

Semantics follow the reference implementation
``/root/reference/core/src/main/java/com/tdunning/math/stats/MergingDigest.java``
(the buffered merging digest of Dunning & Ertl, arXiv:1902.04023):

* incoming points accumulate in a temp buffer; when it fills, the buffer is
  concatenated with the live centroids, stably sorted by mean, and greedily
  re-clustered under the scale-function k-limit (MergingDigest.java:381-503).
* two-level compression: the working compression is ``sqrt(buffer_scale) *
  public_compression``; ``compress()`` re-merges once at the public
  compression for presentation (MergingDigest.java:200-216, 556-559).
* alternating merge direction on odd merges to cancel left-to-right bias
  (MergingDigest.java:100, 369-371).
* the first and last sorted points are forced to stay singletons
  (MergingDigest.java:437-440), enabling the tail interpolation rules.
* ``cdf`` / ``quantile`` reproduce the singleton-aware interpolation of
  MergingDigest.java:567-790.
* ``to_bytes``/``from_bytes`` reproduce the big-endian VERBOSE encoding
  (MergingDigest.java:876-887: int32 code=1, f64 min, f64 max,
  f64 compression, int32 n, then n * (f64 weight, f64 mean)).

Differences by design (this is a Ray-Data-native rebuild, not a port):

* the merge kernel is vectorized: one stable argsort + cumulative sums, with
  a Python loop only over *emitted centroids* (O(compression) iterations, not
  O(buffer)); cluster boundaries are found with ``np.searchsorted`` on the
  cumulative weight using the k-limit rule ``w_limit = n * q(k(q0) + 1)``
  (the reference's ``useWeightLimit=False`` branch, MergingDigest.java:427-441,
  which is the semantically primary rule — the weight-limit branch is a speed
  approximation of it).
* unit-weight input skips the walk: n sorted points of weight 1 have the
  cumulative weights ``1..n`` exactly, so their cluster boundaries depend
  only on ``(scale, compression, n)``, in either merge direction.
  ``_unit_starts`` caches that boundary table, computed once by the scalar
  walk itself (so exact on any CPU) for n up to a temp buffer (1,005 points
  at compression 100). ``_unit_clusters`` applies it to many segments at
  once, each with its own running sums. ``_cluster`` uses it as the
  one-segment case, and ``TDigest.to_bytes_many`` encodes every fresh
  per-key digest of a batch in one pass (one sort on (digest, value)) with
  the bytes ``to_bytes`` gives. Weighted merges keep the scalar walk.
* weights are float64 (integral weights stay exact below 2**53), avoiding the
  reference's int-overflow hazard (BigCount.java:28-54).
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from .scale_functions import K_2, ScaleFunction, get_scale

VERBOSE_ENCODING = 1
SMALL_ENCODING = 2
RECORDING_ENCODING = 3  # RecordingDigest: recorded multiset + verbose digest


@functools.lru_cache(maxsize=64)
def _sizes(compression: float, buffer_factor: int) -> tuple[float, int, int]:
    """Replicate the two-level sizing math of MergingDigest.java:142-234.

    Returns (internal_compression, centroid_capacity, buffer_capacity).
    """
    compression = max(float(compression), 10.0)
    size = int(max(2 * compression, 0)) + 1
    buffer_size = max(buffer_factor * size, 2 * size)
    scale = max(1.0, buffer_size / size - 1.0)
    internal = np.sqrt(scale) * compression
    if size < internal:
        size = int(np.ceil(internal))
    size += 20
    if buffer_size <= 2 * size:
        buffer_size = 2 * size
    return float(internal), size, buffer_size


class TDigest:
    """A mergeable t-digest over float64 samples with float64 weights."""

    __slots__ = (
        "public_compression", "compression", "scale", "_mean", "_weight",
        "_n", "_temp_mean", "_temp_weight", "_temp_used", "_total",
        "_unmerged", "min", "max", "_merge_count", "use_alternating",
    )

    def __init__(self, compression: float = 100.0,
                 scale: ScaleFunction | str = K_2,
                 buffer_factor: int = 5,
                 use_alternating: bool = True):
        self.public_compression = max(float(compression), 10.0)
        self.scale = get_scale(scale)
        internal, size, buf = _sizes(self.public_compression, buffer_factor)
        self.compression = internal
        self._mean = np.empty(size, dtype=np.float64)
        self._weight = np.empty(size, dtype=np.float64)
        self._n = 0
        self._temp_mean = np.empty(buf, dtype=np.float64)
        self._temp_weight = np.empty(buf, dtype=np.float64)
        self._temp_used = 0
        self._total = 0.0          # merged weight
        self._unmerged = 0.0       # pending buffered weight
        self.min = np.inf
        self.max = -np.inf
        self._merge_count = 0
        self.use_alternating = use_alternating

    # ------------------------------------------------------------------ update

    def update(self, x: float, w: float = 1.0) -> None:
        """Add one weighted sample (TDigest.java:92 ``add(double, int)``)."""
        self.update_batch(np.asarray([x], dtype=np.float64),
                          np.asarray([w], dtype=np.float64))

    def update_batch(self, x, w=None, presorted: bool = False) -> None:
        """Vectorized add of a batch of samples; NaN rejected (TDigest.java:94-98).

        Batches larger than the temp buffer take a bulk path: sort the batch
        once, then a single clustering pass over (live centroids + batch) —
        the stable argsort inside the kernel degenerates to an O(n) run-merge
        on the two sorted runs (numpy timsort). Pass ``presorted=True`` when
        the caller already sorted ``x`` ascending (and permuted ``w`` to
        match) to skip the sort entirely.
        """
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.size == 0:
            return
        lo, hi = float(x.min()), float(x.max())
        if lo != lo:  # min propagates NaN
            raise ValueError("Cannot add NaN to t-digest")
        if w is not None:
            w = np.ascontiguousarray(w, dtype=np.float64)
            if w.shape != x.shape:
                raise ValueError("weights shape mismatch")
            if (w <= 0).any():
                raise ValueError("weights must be positive")
        self.min = min(self.min, lo)
        self.max = max(self.max, hi)
        cap = self._temp_mean.size
        if x.size >= cap:
            # bulk path: clustering passes over cache-sized chunks — each
            # chunk is sorted once (quicksort; stability is irrelevant for
            # raw samples) and merged with the live centroids in a single
            # kernel call whose stable argsort degenerates to an O(n)
            # run-merge on the two sorted runs (numpy timsort). Chunks stay
            # small enough to live in cache: large flat arrays are memory-
            # bandwidth-bound and measurably slower per element.
            self._merge_pending(self.compression)  # flush any buffered points
            step = max(cap, 65536)
            for pos in range(0, x.size, step):
                xc = x[pos:pos + step]
                wc = None if w is None else w[pos:pos + step]
                if not presorted:
                    if wc is None:
                        xc = np.sort(xc)
                    else:
                        order = np.argsort(xc)
                        xc = xc[order]
                        wc = wc[order]
                if wc is None:
                    wc = np.ones_like(xc)
                m = np.concatenate([self._mean[:self._n], xc])
                ww = np.concatenate([self._weight[:self._n], wc])
                self._apply_cluster(m, ww, self.compression)
            return
        pos = 0
        while pos < x.size:
            room = cap - self._temp_used
            if room == 0:
                self._merge_pending(self.compression)
                room = cap
            take = min(room, x.size - pos)
            sl = slice(self._temp_used, self._temp_used + take)
            self._temp_mean[sl] = x[pos:pos + take]
            if w is None:
                self._temp_weight[sl] = 1.0
                self._unmerged += take
            else:
                self._temp_weight[sl] = w[pos:pos + take]
                self._unmerged += float(w[pos:pos + take].sum())
            self._temp_used += take
            pos += take

    # ------------------------------------------------------------------- merge

    def _merge_pending(self, compression: float, force: bool = False) -> None:
        """Merge the temp buffer into the centroid set (MergingDigest.java:359-379)."""
        if self._unmerged == 0.0 and not force:
            return
        if self._n == 0 and self._temp_used == 0:
            return
        t = self._temp_used
        order = np.argsort(self._temp_mean[:t])  # quicksort the raw points
        m = np.concatenate([self._mean[:self._n], self._temp_mean[:t][order]])
        w = np.concatenate([self._weight[:self._n], self._temp_weight[:t][order]])
        self._temp_used = 0
        self._unmerged = 0.0
        # m is now two sorted runs -> the kernel's stable argsort is O(n)
        self._apply_cluster(m, w, compression)

    def _apply_cluster(self, m: np.ndarray, w: np.ndarray,
                       compression: float) -> None:
        backwards = self.use_alternating and (self._merge_count % 2 == 1)
        self._merge_count += 1
        means, weights = _cluster(m, w, self.scale, compression, backwards)
        n = means.size
        if n > self._mean.size:
            self._mean = np.empty(n + 16, dtype=np.float64)
            self._weight = np.empty(n + 16, dtype=np.float64)
        self._mean[:n] = means
        self._weight[:n] = weights
        self._n = n
        self._total = float(weights.sum())
        if n and self._total > 0:
            self.min = min(self.min, float(means[0]))
            self.max = max(self.max, float(means[-1]))

    def compress(self) -> None:
        """Force-merge down to the public compression (MergingDigest.java:556-559)."""
        self._merge_pending(self.public_compression, force=True)

    # ------------------------------------------------------ merge with others

    def merge(self, *others: "TDigest") -> "TDigest":
        """Merge other digests into this one (digest-of-digests).

        Canonical one-shot semantics of ``MergingDigest.add(List<TDigest>)``
        (MergingDigest.java:314-357): concatenate every centroid array, one
        stable sort, one merge pass — hence independent of argument order.
        """
        ms = [self._mean[:self._n], self._temp_mean[:self._temp_used]]
        ws = [self._weight[:self._n], self._temp_weight[:self._temp_used]]
        for o in others:
            o._merge_pending(o.compression)
            ms.append(o._mean[:o._n])
            ws.append(o._weight[:o._n])
            self.min = min(self.min, o.min)
            self.max = max(self.max, o.max)
        m = np.concatenate(ms)
        w = np.concatenate(ws)
        self._temp_used = 0
        self._unmerged = 0.0
        if m.size:
            # canonicalize ties: sort by (mean, weight) so runs of EQUAL
            # means cluster identically regardless of argument order (a
            # stable mean-only sort would preserve input order within ties
            # and break merge-order independence — found by hypothesis)
            order = np.lexsort((w, m))
            self._apply_cluster(m[order], w[order], self.compression)
        return self

    @classmethod
    def merge_all(cls, digests, compression: float | None = None,
                  scale: ScaleFunction | str | None = None) -> "TDigest":
        """Canonical merge of many digests into a fresh one."""
        digests = list(digests)
        if not digests:
            return cls()
        first = digests[0]
        out = cls(compression or first.public_compression,
                  scale or first.scale,
                  use_alternating=first.use_alternating)
        return out.merge(*digests)

    # ----------------------------------------------------------------- queries

    @property
    def size(self) -> float:
        """Total weight including unmerged points (MergingDigest.java:560-563)."""
        return self._total + self._unmerged

    @property
    def centroid_count(self) -> int:
        self._merge_pending(self.compression)
        return self._n

    def centroids(self) -> tuple[np.ndarray, np.ndarray]:
        """(means, weights) after compressing to public compression."""
        self.compress()
        return self._mean[:self._n].copy(), self._weight[:self._n].copy()

    def quantile(self, q: float) -> float:
        """Inverse-cdf with singleton/tail interpolation (MergingDigest.java:705-790)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q should be in [0,1], got {q}")
        self._merge_pending(self.compression)
        n = self._n
        if n == 0:
            return float("nan")
        if n == 1:
            return float(self._mean[0])
        mean, weight, total = self._mean, self._weight, self._total
        index = q * total
        if index < 1:
            return self.min
        if weight[0] > 1 and index < weight[0] / 2:
            # one sample sits exactly at min; interpolate over the rest
            return self.min + (index - 1) / (weight[0] / 2 - 1) * (mean[0] - self.min)
        if index > total - 1:
            return self.max
        if weight[n - 1] > 1 and total - index <= weight[n - 1] / 2:
            return self.max - (total - index - 1) / (weight[n - 1] / 2 - 1) * (self.max - mean[n - 1])

        w_so_far = weight[0] / 2
        for i in range(n - 1):
            dw = (weight[i] + weight[i + 1]) / 2
            if w_so_far + dw > index:
                left_unit = 0.0
                if weight[i] == 1:
                    if index - w_so_far < 0.5:
                        return float(mean[i])
                    left_unit = 0.5
                right_unit = 0.0
                if weight[i + 1] == 1:
                    if w_so_far + dw - index <= 0.5:
                        return float(mean[i + 1])
                    right_unit = 0.5
                z1 = index - w_so_far - left_unit
                z2 = w_so_far + dw - index - right_unit
                return _weighted_average(mean[i], z2, mean[i + 1], z1)
            w_so_far += dw
        z1 = index - total - weight[n - 1] / 2.0
        z2 = weight[n - 1] / 2 - z1
        return _weighted_average(mean[n - 1], z1, self.max, z2)

    def quantile_batch(self, qs) -> np.ndarray:
        return np.asarray([self.quantile(float(q)) for q in np.atleast_1d(qs)],
                          dtype=np.float64)

    def cdf(self, x: float) -> float:
        """Rank estimate at x with singleton protection (MergingDigest.java:567-702)."""
        if np.isnan(x) or np.isinf(x):
            raise ValueError(f"Invalid value: {x}")
        self._merge_pending(self.compression)
        n = self._n
        if n == 0:
            return float("nan")
        mean, weight, total = self._mean, self._weight, self._total
        if n == 1:
            width = self.max - self.min
            if x < self.min:
                return 0.0
            if x > self.max:
                return 1.0
            if x - self.min <= width:
                return 0.5
            return (x - self.min) / width
        if x < self.min:
            return 0.0
        if x > self.max:
            return 1.0
        # left tail (a sample sits exactly at min)
        if x < mean[0]:
            if mean[0] - self.min > 0:
                if x == self.min:
                    return 0.5 / total
                return (1 + (x - self.min) / (mean[0] - self.min) * (weight[0] / 2 - 1)) / total
            return 0.0
        # right tail
        if x > mean[n - 1]:
            if self.max - mean[n - 1] > 0:
                if x == self.max:
                    return 1 - 0.5 / total
                dq = (1 + (self.max - x) / (self.max - mean[n - 1]) * (weight[n - 1] / 2 - 1)) / total
                return 1 - dq
            return 1.0
        w_so_far = 0.0
        it = 0
        while it < n - 1:
            if mean[it] == x:
                # one or more centroids exactly at x count half
                dw = 0.0
                while it < n and mean[it] == x:
                    dw += weight[it]
                    it += 1
                return (w_so_far + dw / 2) / total
            if mean[it] <= x < mean[it + 1]:
                if mean[it + 1] - mean[it] > 0:
                    left_excl = right_excl = 0.0
                    if weight[it] == 1:
                        if weight[it + 1] == 1:
                            return (w_so_far + 1) / total
                        left_excl = 0.5
                    elif weight[it + 1] == 1:
                        right_excl = 0.5
                    dw = (weight[it] + weight[it + 1]) / 2
                    dw_no_single = dw - left_excl - right_excl
                    base = w_so_far + weight[it] / 2 + left_excl
                    return (base + dw_no_single * (x - mean[it]) / (mean[it + 1] - mean[it])) / total
                dw = (weight[it] + weight[it + 1]) / 2
                return (w_so_far + dw) / total
            w_so_far += weight[it]
            it += 1
        # x == mean[n-1]
        return 1 - 0.5 / total

    def cdf_batch(self, xs) -> np.ndarray:
        return np.asarray([self.cdf(float(x)) for x in np.atleast_1d(xs)],
                          dtype=np.float64)

    def trimmed_mean(self, lo: float = 0.0, hi: float = 1.0) -> float:
        """Mean of the samples between quantiles lo and hi (approximate).

        Integrates centroid mass clipped to the [lo*n, hi*n] rank window —
        the rank-window analogue of the reference's centroid iteration use
        cases (TDigest.java:143 ``centroids()``).
        """
        self._merge_pending(self.compression)
        if self._n == 0:
            return float("nan")
        w = self._weight[:self._n]
        m = self._mean[:self._n]
        cum = np.cumsum(w)
        left = np.concatenate([[0.0], cum[:-1]])
        a, b = lo * self._total, hi * self._total
        take = np.minimum(cum, b) - np.maximum(left, a)
        take = np.clip(take, 0.0, None)
        tw = take.sum()
        if tw <= 0:
            return float("nan")
        return float((m * take).sum() / tw)

    def check_weights(self) -> int:
        """Count centroids whose k-span exceeds 1 (MergingDigest.java:508-548).

        Returns the number of soft violations (dk > 1, weight != 1); raises on
        an egregious violation (dk > 4).
        """
        self._merge_pending(self.compression)
        norm = self.scale.normalizer(self.public_compression, self._total)
        bad = 0
        q = 0.0
        k1 = self.scale.k(0.0, norm)
        for i in range(self._n):
            dq = self._weight[i] / self._total
            k2 = self.scale.k(q + dq, norm)
            if k2 - k1 > 1 and self._weight[i] != 1:
                bad += 1
            if k2 - k1 > 4 and self._weight[i] != 1:
                raise AssertionError(
                    f"Egregiously oversized centroid at {i}: dk={k2 - k1:.2f}")
            q += dq
            k1 = k2
        return bad

    # ------------------------------------------------------------------- serde

    def to_bytes(self) -> bytes:
        """VERBOSE encoding, byte-compatible with MergingDigest.java:876-887."""
        self.compress()
        n = self._n
        head = struct.pack(">idddi", VERBOSE_ENCODING,
                           self.min if n else np.inf,
                           self.max if n else -np.inf,
                           self.public_compression, n)
        body = np.empty(2 * n, dtype=">f8")
        body[0::2] = self._weight[:n]
        body[1::2] = self._mean[:n]
        return head + body.tobytes()

    @classmethod
    def to_bytes_many(cls, digests) -> list[bytes]:
        """``[d.to_bytes() for d in digests]``, with every fresh unit-weight
        digest encoded in one vectorized pass.

        A digest takes the pass when it is a plain ``TDigest`` holding only
        buffered weight-1 points (no centroids, an even merge count), none
        of them -0.0 (a sort may put it on either side of 0.0), at the first
        plain digest's scale and compression. Those points sort once on
        (digest, value) and ``_unit_clusters`` emits every digest's
        centroids at once. Any other digest calls ``to_bytes()``. Unlike
        ``to_bytes``, the pass leaves its digests' buffers as they are.
        """
        digests = list(digests)
        out = [None] * len(digests)
        first = next((d for d in digests if type(d) is TDigest), None)
        if first is not None:
            scale, comp = first.scale, first.public_compression
            cap = _buffer_cap(comp)
            idx = [i for i, d in enumerate(digests)
                   if type(d) is TDigest and not d._n
                   and not d._merge_count & 1 and d.scale == scale
                   and d.public_compression == comp and d._temp_used <= cap]
            for i, b in zip(idx, _unit_bytes([digests[i] for i in idx],
                                             scale, comp)):
                out[i] = b
        return [d.to_bytes() if b is None else b for d, b in zip(digests, out)]

    def to_small_bytes(self) -> bytes:
        """SMALL encoding: float32 centroids, byte-compatible with
        ``asSmallBytes`` (MergingDigest.java:889-903): code(4) min(8) max(8)
        compression(f4) capacity(2) buffer(2) n(2) + 8 bytes/centroid."""
        self.compress()
        n = self._n
        head = struct.pack(">iddfhhh", SMALL_ENCODING,
                           self.min if n else np.inf,
                           self.max if n else -np.inf,
                           float(self.public_compression),
                           min(self._mean.size, 0x7FFF),
                           min(self._temp_mean.size, 0x7FFF), n)
        body = np.empty(2 * n, dtype=">f4")
        body[0::2] = self._weight[:n]
        body[1::2] = self._mean[:n]
        return head + body.tobytes()

    @classmethod
    def from_bytes(cls, buf: bytes,
                   scale: ScaleFunction | str = K_2) -> "TDigest":
        """Reconstruct from either encoding (dispatch on the format code,
        MergingDigest.java:906-943)."""
        (code,) = struct.unpack_from(">i", buf, 0)
        if code == VERBOSE_ENCODING:
            _, mn, mx, compression, n = struct.unpack_from(">idddi", buf, 0)
            d = cls(compression, scale)
            body = np.frombuffer(buf, dtype=">f8", count=2 * n, offset=32)
        elif code == SMALL_ENCODING:
            _, mn, mx, compression, _cap, _buf, n = \
                struct.unpack_from(">iddfhhh", buf, 0)
            d = cls(compression, scale)
            body = np.frombuffer(buf, dtype=">f4", count=2 * n, offset=30) \
                .astype(np.float64)
        else:
            raise ValueError(f"Invalid digest encoding {code}")
        if n > d._mean.size:
            # NO_NORM scales grow centroid count ~ log(n) beyond the static
            # allocation sized for normalized scales — grow to fit
            d._mean = np.empty(2 * n, dtype=np.float64)
            d._weight = np.empty(2 * n, dtype=np.float64)
        d._weight[:n] = body[0::2]
        d._mean[:n] = body[1::2]
        d._n = n
        d._total = float(d._weight[:n].sum())
        d.min = mn
        d.max = mx
        return d

    def __repr__(self):  # pragma: no cover
        return (f"TDigest(compression={self.public_compression}, "
                f"scale={self.scale.name}, n={self.size}, "
                f"centroids={self._n})")


class RecordingDigest(TDigest):
    """Record-all-data mode (reference TDigest.java:206 /
    Centroid.java:121-151, SURVEY.md §2.1 #17): retains every raw sample
    beside the digest so tests can verify lossless data provenance through
    partition/merge topologies (AccuracyTest.java:80-120). Test support
    only — never the distributed hot path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._recorded: list[np.ndarray] = []

    def update_batch(self, x, w=None, presorted: bool = False) -> None:
        super().update_batch(x, w, presorted)  # NaN check happens here
        self._recorded.append(np.asarray(x, dtype=np.float64).copy())

    def merge(self, *others):
        for o in others:
            if isinstance(o, RecordingDigest):
                self._recorded.extend(o._recorded)
        return super().merge(*others)

    def recorded(self) -> np.ndarray:
        """All raw samples seen, sorted (the provenance multiset)."""
        if not self._recorded:
            return np.empty(0, dtype=np.float64)
        return np.sort(np.concatenate(self._recorded))

    # Recording-aware serialization: the reference keeps the per-centroid
    # ``data`` lists only in memory; to let record-all-data mode cross a
    # Ray shuffle (so the provenance check runs on the REAL distributed
    # topology, not a single process) the recorded multiset rides behind
    # the verbose digest encoding under its own format code.
    def to_bytes(self) -> bytes:
        base = super().to_bytes()
        rec = self.recorded()
        return (struct.pack(">iq", RECORDING_ENCODING, rec.size)
                + rec.astype(">f8").tobytes() + base)

    @classmethod
    def from_bytes(cls, buf: bytes,
                   scale: ScaleFunction | str = K_2) -> "RecordingDigest":
        code, n_rec = struct.unpack_from(">iq", buf, 0)
        if code != RECORDING_ENCODING:
            raise ValueError(f"Invalid recording encoding {code}")
        off = 12 + 8 * n_rec
        rec = np.frombuffer(buf, dtype=">f8", count=n_rec, offset=12) \
            .astype(np.float64)
        base = TDigest.from_bytes(buf[off:], scale)
        d = cls(base.public_compression, scale)
        d._mean, d._weight = base._mean, base._weight
        d._n, d._total = base._n, base._total
        d.min, d.max = base.min, base.max
        if n_rec:
            d._recorded.append(rec)
        return d


def _cluster(means: np.ndarray, weights: np.ndarray, scale: ScaleFunction,
             compression: float, backwards: bool) -> tuple[np.ndarray, np.ndarray]:
    """Greedy re-clustering of (means, weights) under the scale-function k-limit.

    Vectorized form of the merge loop in MergingDigest.java:381-503: one stable
    argsort; cluster boundaries located by searchsorted on cumulative weight
    against ``w_limit = total * q(k(w_so_far/total) + 1)`` (the k-limit rule of
    MergingDigest.java:427-441); first and last points forced singletons
    (:437-440); every other pass runs in reverse to cancel directional bias
    (:369-371). Unit-weight input of at most a temp buffer's points takes
    its boundaries from the cached ``_unit_starts`` table, as the
    one-segment case of ``_unit_clusters``.
    """
    order = np.argsort(means, kind="stable")
    m = means[order]
    w = weights[order]
    n = m.size
    if n == 0:
        return m, w
    if backwards:
        m = m[::-1]
        w = w[::-1]
    if n <= _buffer_cap(compression) and (w == 1.0).all():
        out_m, out_w, _ = _unit_clusters(m, [0, n], scale, compression)
    elif n <= 2:
        out_m, out_w = m.copy(), w.copy()
    else:
        cumw = np.cumsum(w)
        cumwx = np.cumsum(w * m)
        starts = np.asarray(_walk(cumw, scale, compression), dtype=np.int64)
        ends = np.append(starts[1:] - 1, n - 1)
        left_cumw = np.where(starts > 0, cumw[starts - 1], 0.0)
        left_cumwx = np.where(starts > 0, cumwx[starts - 1], 0.0)
        out_w = cumw[ends] - left_cumw
        sums = cumwx[ends] - left_cumwx
        single = ends == starts
        out_m = np.where(single, m[starts],
                         sums / np.where(out_w == 0, 1, out_w))
        # clamp each cluster mean into its span (floating-point guard, the
        # analogue of AbstractTDigest.weightedAverageSorted's clamp); note m
        # is descending in backwards mode so order the bounds explicitly
        lo = np.minimum(m[starts], m[ends])
        hi = np.maximum(m[starts], m[ends])
        out_m = np.clip(out_m, lo, hi)
    if backwards:
        out_m = out_m[::-1].copy()
        out_w = out_w[::-1].copy()
    return out_m, out_w


def _walk(cumw: np.ndarray, scale: ScaleFunction,
          compression: float) -> list[int]:
    """Cluster starts of the greedy k-limit walk over the cumulative
    weights ``cumw`` of more than two sorted points.

    A Python loop over *emitted centroids* only — O(compression)
    iterations, each a scalar k/q evaluation plus one searchsorted on the
    cumulative weight (the k-limit rule of MergingDigest.java:427-441).
    The reference runs the identical math on the reversed order in
    backwards mode (MergingDigest.java:408-410): the reversed cumulative
    fraction plays the role of q directly.
    """
    total = float(cumw[-1])
    norm = scale.normalizer(compression, total)
    k_fn = scale.k_scalar
    q_fn = scale.q_scalar
    search = cumw.searchsorted
    starts = [0, 1]  # first sorted point is always a singleton
    s = 1
    last = cumw.size - 1
    w_so_far = float(cumw[0])
    while True:
        k1 = k_fn(w_so_far / total, norm)
        w_limit = total * q_fn(k1 + 1.0, norm)
        e = int(search(w_limit, side="right")) - 1
        if e < s:
            e = s
        if e >= last - 1:
            starts.append(last)
            return starts
        w_so_far = float(cumw[e])
        s = e + 1
        starts.append(s)


def _buffer_cap(compression: float) -> int:
    """Temp-buffer points of a digest at ``compression`` with the default
    buffer factor: the largest unit-weight run ``_unit_starts`` tables."""
    return _sizes(compression, 5)[2]


@functools.lru_cache(maxsize=8192)
def _unit_starts(n: int, scale: ScaleFunction,
                 compression: float) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of the clusters of ``n`` sorted unit-weight points.

    Their cumulative weights are exactly ``1..n``, so the boundaries depend
    only on ``(scale, compression, n)`` and the same table serves either
    merge direction. The table comes from the scalar ``_walk`` itself (no
    vectorized log/exp), so it is exact by construction on any CPU; callers
    keep ``n`` within a temp buffer (``_buffer_cap``), which bounds the
    cache.
    """
    if n <= 2:
        starts = np.arange(n, dtype=np.int64)
    else:
        starts = np.asarray(_walk(np.arange(1.0, n + 1.0), scale,
                                  compression), dtype=np.int64)
    ends = np.append(starts[1:] - 1, n - 1) if n else starts
    starts.flags.writeable = ends.flags.writeable = False
    return starts, ends


def _unit_bytes(digests: list, scale: ScaleFunction,
                compression: float) -> list:
    """``to_bytes`` of fresh digests whose buffered points all have weight
    1, or None for a digest holding another weight or a -0.0."""
    if not digests:
        return []
    lens = [d._temp_used for d in digests]
    vals = np.concatenate([d._temp_mean[:n] for d, n in zip(digests, lens)])
    wts = np.concatenate([d._temp_weight[:n] for d, n in zip(digests, lens)])
    seg = np.repeat(np.arange(len(digests)), lens)
    ok = np.ones(len(digests), dtype=bool)
    ok[seg[(wts != 1.0) | ((vals == 0.0) & np.signbit(vals))]] = False
    if not ok.all():  # their segments go on empty; to_bytes() encodes them
        keep = ok[seg]
        vals, seg = vals[keep], seg[keep]
    # sort on (digest, value): a quicksort of the values, then a stable
    # (radix, for 16-bit ids) sort of their digest ids
    order = np.argsort(vals)
    ids = seg.astype(np.uint16 if len(digests) <= 1 << 16 else np.int64)
    vals = vals[order][np.argsort(ids[order], kind="stable")]
    bounds = [0, *np.cumsum(np.bincount(seg, minlength=len(digests)))
              .tolist()]
    means, weights, cb = _unit_clusters(vals, bounds, scale, compression)
    body = np.empty(2 * means.size, dtype=">f8")
    body[0::2] = weights
    body[1::2] = means
    body = body.tobytes()
    head = struct.Struct(">idddi").pack
    cb = (16 * cb).tolist()
    return [head(VERBOSE_ENCODING, d.min if b > a else np.inf,
                 d.max if b > a else -np.inf, compression,
                 (b - a) // 16) + body[a:b] if good else None
            for d, good, a, b in zip(digests, ok.tolist(), cb, cb[1:])]


def _unit_clusters(vals: np.ndarray, bounds: list[int],
                   scale: ScaleFunction, compression: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster many unit-weight segments in one vectorized pass.

    ``vals[bounds[s]:bounds[s + 1]]`` is segment s in clustering order
    (ascending, or descending for a backwards pass) with at most a temp
    buffer of points. Returns the concatenated centroid (means, weights) and
    each segment's centroid offsets; every segment's centroids are exactly
    what the scalar walk of ``_cluster`` gives that segment alone.
    """
    if len(bounds) == 2:  # one segment: its table indexes vals directly
        gs, ge = _unit_starts(bounds[1], scale, compression)
        base, cb = 0, np.array([0, gs.size])
        cum = np.cumsum(vals)
    else:
        lens = np.diff(bounds)
        uniq, inv = np.unique(lens, return_inverse=True)
        tables = [_unit_starts(n, scale, compression) for n in uniq.tolist()]
        sizes = np.array([t[0].size for t in tables], dtype=np.int64)
        ncl = sizes[inv]
        cb = np.zeros(lens.size + 1, dtype=np.int64)
        np.cumsum(ncl, out=cb[1:])
        # row j of segment s is row j of its length's table
        pick = (np.repeat(np.cumsum(sizes)[inv] - ncl - cb[:-1], ncl)
                + np.arange(cb[-1]))
        base = np.repeat(bounds[:-1], ncl)
        gs = base + np.concatenate([t[0] for t in tables])[pick]
        ge = base + np.concatenate([t[1] for t in tables])[pick]
        # each segment keeps its own running sum: one running sum across
        # segments changes the last bits of the cluster means
        cum = np.concatenate([vals[a:b].cumsum()
                              for a, b in zip(bounds[:-1], bounds[1:])])
    # the scalar path's tail with unit weights: cumulative weights are the
    # indices, so a cluster's weight is its point count
    first, last = vals[gs], vals[ge]
    w = (ge - gs + 1).astype(np.float64)
    left = np.where(gs > base, cum[gs - 1], 0.0)
    m = np.where(ge == gs, first, (cum[ge] - left) / w)
    m = np.clip(m, np.minimum(first, last), np.maximum(first, last))
    return m, w, cb


def _weighted_average(x1: float, w1: float, x2: float, w2: float) -> float:
    """Clamped weighted average (AbstractTDigest.java:32-52)."""
    if x1 <= x2:
        x = (x1 * w1 + x2 * w2) / (w1 + w2)
        return float(min(max(x, x1), x2))
    x = (x2 * w2 + x1 * w1) / (w1 + w2)
    return float(min(max(x, x2), x1))
