"""Companion sketches: update/merge/serde/error-bound tests (SURVEY.md §5
layer 2/4: each sketch's observed error must sit inside its published bound).
"""

import numpy as np
import pyarrow as pa
import pytest

from t_digest_ray.state.bloom import BloomFilter
from t_digest_ray.state.countmin import CountMin
from t_digest_ray.state.histogram import (FloatHistogram, LogHistogram,
                                          approx_log2, pow2_approx)
from t_digest_ray.state.hll import HyperLogLog
from t_digest_ray.state.kll import KllSketch

# ---------------------------------------------------------------------- KLL


class TestKll:
    def test_rank_error_within_bound(self, rng):
        """Observed rank error <= published 2.296/k^0.9723 with 2x slack
        (KllDoublesSketch.java:534-538; the constant is a 99th-pctile fit)."""
        x = rng.uniform(0, 1, 200_000)
        sk = KllSketch(200)
        sk.update_batch(x)
        xs = np.sort(x)
        bound = KllSketch.normalized_rank_error(200)
        errs = [abs(sk.rank(xs[int(q * len(xs))]) - q)
                for q in np.linspace(0.01, 0.99, 25)]
        assert max(errs) <= 2 * bound

    def test_merge_error_within_bound(self, rng):
        x = rng.normal(0, 1, 120_000)
        parts = np.array_split(x, 12)
        subs = []
        for i, p in enumerate(parts):
            s = KllSketch(200, seed=i)
            s.update_batch(p)
            subs.append(s)
        merged = KllSketch(200).merge(*subs)
        assert merged.n == len(x)
        xs = np.sort(x)
        bound = KllSketch.normalized_rank_error(200)
        errs = [abs(merged.rank(xs[int(q * len(xs))]) - q)
                for q in (0.01, 0.25, 0.5, 0.75, 0.99)]
        assert max(errs) <= 3 * bound

    def test_exact_when_small(self, rng):
        vals = rng.uniform(0, 1, 50)
        sk = KllSketch(200)
        sk.update_batch(vals)
        s = np.sort(vals)
        # below capacity nothing is compacted: quantiles are exact elements
        assert sk.quantile(0.0) == s[0]
        assert sk.quantile(1.0) == s[-1]
        assert sk.quantile(0.5) in s

    def test_min_max_and_n(self, rng):
        x = rng.normal(5, 2, 30_000)
        sk = KllSketch(100)
        sk.update_batch(x)
        assert sk.min == x.min() and sk.max == x.max() and sk.n == 30_000

    def test_serde_roundtrip_exact(self, rng):
        sk = KllSketch(150)
        sk.update_batch(rng.gamma(2, 2, 50_000))
        b = sk.to_bytes()
        sk2 = KllSketch.from_bytes(b)
        assert sk2.n == sk.n and sk2.min == sk.min and sk2.max == sk.max
        assert all(np.array_equal(a, c)
                   for a, c in zip(sk.levels, sk2.levels))
        assert sk2.to_bytes() == b

    def test_deterministic_given_seed(self, rng):
        x = rng.uniform(0, 1, 30_000)
        a, b = KllSketch(200, seed=7), KllSketch(200, seed=7)
        a.update_batch(x)
        b.update_batch(x)
        assert a.to_bytes() == b.to_bytes()

    def test_pmf_cdf_within_published_bound(self, rng):
        """getPMF semantics (KllDoublesSketch.java:941-984): bucket j =
        mass of sp[j-1] <= v < sp[j]; each bucket within the published
        double-sided 2.446/k^0.9433 (2x slack, 99th-pctile fit); CDF is
        its cumulative with final entry exactly 1."""
        x = rng.exponential(10.0, 150_000)
        sk = KllSketch(200)
        sk.update_batch(x)
        sp = np.array([1.0, 5.0, 10.0, 20.0, 50.0])
        est = sk.pmf(sp)
        assert est.shape == (6,)
        assert abs(est.sum() - 1.0) < 1e-12
        j = np.searchsorted(sp, x, side="right")
        exact = np.bincount(j, minlength=6) / len(x)
        bound = KllSketch.normalized_rank_error(200, pmf=True)
        assert np.abs(est - exact).max() <= 2 * bound
        cdf = sk.cdf_points(sp)
        assert np.all(np.diff(cdf) >= 0)
        assert abs(cdf[-1] - 1.0) < 1e-12
        # cdf[j] estimates P(v < sp[j])
        exact_cdf = np.cumsum(exact)
        assert np.abs(cdf - exact_cdf).max() <= 2 * bound

    def test_pmf_small_exact_and_validation(self, rng):
        sk = KllSketch(200)
        sk.update_batch(np.array([1.0, 2.0, 2.0, 3.0]))
        # below capacity: exact masses; split point hits ties (<: 2.0
        # goes to the upper bucket per the < convention)
        assert np.allclose(sk.pmf([2.0]), [0.25, 0.75])
        assert np.allclose(sk.pmf([2.5]), [0.75, 0.25])
        import pytest
        with pytest.raises(ValueError):
            sk.pmf([])
        with pytest.raises(ValueError):
            sk.pmf([3.0, 1.0])

    def test_quantile_confidence_bounds(self, rng):
        """LB/UB follow the reference definition
        (quantile(q -/+ eps_single), KllDoublesSketch.java:626-639);
        LB <= estimate <= UB always, and the TRUE quantile sits inside
        the 2x-widened interval (the contract is a 99% probabilistic
        one — the 2x slack is the same convention the rank-error tests
        above use for the 99th-pctile-fit constants)."""
        x = rng.normal(0, 1, 100_000)
        sk = KllSketch(200)
        sk.update_batch(x)
        xs = np.sort(x)
        eps = KllSketch.normalized_rank_error(200)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9):
            lb = sk.quantile_lower_bound(q)
            ub = sk.quantile_upper_bound(q)
            assert lb == sk.quantile(max(0.0, q - eps))
            assert ub == sk.quantile(min(1.0, q + eps))
            assert lb <= sk.quantile(q) <= ub
            true_q = xs[int(q * len(xs))]
            lb2 = sk.quantile(max(0.0, q - 2 * eps))
            ub2 = sk.quantile(min(1.0, q + 2 * eps))
            assert lb2 <= true_q <= ub2

    def test_k_from_epsilon_roundtrip(self):
        """getKFromEpsilon inverts getNormalizedRankError
        (KllDoublesSketch.java:444-454) for both variants."""
        for pmf in (False, True):
            for k in (8, 100, 200, 1000, 65535):
                eps = KllSketch.normalized_rank_error(k, pmf=pmf)
                assert KllSketch.k_from_epsilon(eps, pmf=pmf) == k
        assert KllSketch.k_from_epsilon(1e-9) == 65535
        assert KllSketch.k_from_epsilon(0.9) == 8

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            KllSketch().update_batch(np.array([1.0, np.nan]))

    def test_empty(self):
        sk = KllSketch()
        assert np.isnan(sk.quantile(0.5))
        assert np.isnan(sk.rank(0.0))


# ---------------------------------------------------------------------- HLL


class TestHll:
    @pytest.mark.parametrize("n", [100, 10_000, 300_000])
    def test_estimate_within_bound(self, n):
        h = HyperLogLog(14)
        vals = np.array([f"url-{i}" for i in range(n)], dtype=object)
        h.update_batch(vals)
        rel = abs(h.estimate() - n) / n
        assert rel <= 4 * HyperLogLog.relative_error(14)

    def test_duplicates_dont_count(self):
        h = HyperLogLog(14)
        vals = np.array([f"u{i % 500}" for i in range(50_000)], dtype=object)
        h.update_batch(vals)
        assert abs(h.estimate() - 500) / 500 < 0.05

    def test_merge_equals_union(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        va = np.array([f"a{i}" for i in range(20_000)], dtype=object)
        vb = np.array([f"a{i}" for i in range(10_000, 30_000)], dtype=object)
        a.update_batch(va)
        b.update_batch(vb)
        u = HyperLogLog(12)
        u.update_batch(np.concatenate([va, vb]))
        m = HyperLogLog(12).merge(a, b)
        # merge of register maxes is EXACTLY the union sketch
        assert np.array_equal(m.registers, u.registers)

    def test_merge_commutative_idempotent(self):
        a, b = HyperLogLog(12), HyperLogLog(12)
        a.update_batch(np.array(["x", "y"], dtype=object))
        b.update_batch(np.array(["z"], dtype=object))
        ab = HyperLogLog(12).merge(a, b)
        ba = HyperLogLog(12).merge(b, a)
        assert np.array_equal(ab.registers, ba.registers)
        again = HyperLogLog(12).merge(ab, ab)
        assert np.array_equal(again.registers, ab.registers)

    def test_int_values(self):
        h = HyperLogLog(12)
        h.update_batch(np.arange(10_000, dtype=np.int64))
        assert abs(h.estimate() - 10_000) / 10_000 < 0.1

    def test_serde(self):
        h = HyperLogLog(10)
        h.update_batch(np.array([f"v{i}" for i in range(5_000)], dtype=object))
        h2 = HyperLogLog.from_bytes(h.to_bytes())
        assert np.array_equal(h.registers, h2.registers)
        assert h2.estimate() == h.estimate()


# ---------------------------------------------------------------------- CMS


class TestCountMin:
    def test_never_underestimates(self, rng):
        keys = np.array([f"k{i}" for i in rng.integers(0, 1000, 50_000)],
                        dtype=object)
        c = CountMin(2048, 5)
        c.update_batch(keys)
        uniq, counts = np.unique(keys, return_counts=True)
        est = c.estimate(uniq)
        assert (est >= counts).all()
        # additive error bound eps*N holds for the vast majority
        eps_n = c.epsilon * c.n
        assert ((est - counts) <= eps_n).mean() > 0.99

    def test_weighted(self):
        c = CountMin(1024, 5)
        c.update_batch(np.array(["a", "b"], dtype=object),
                       weights=np.array([10, 3]))
        assert c.estimate(np.array(["a"], dtype=object))[0] >= 10
        assert c.n == 13

    def test_merge_is_add(self, rng):
        keys = np.array([f"k{i}" for i in rng.integers(0, 100, 10_000)],
                        dtype=object)
        a, b = CountMin(1024, 4), CountMin(1024, 4)
        a.update_batch(keys[:5000])
        b.update_batch(keys[5000:])
        whole = CountMin(1024, 4)
        whole.update_batch(keys)
        m = CountMin(1024, 4).merge(a, b)
        assert np.array_equal(m.table, whole.table)
        assert m.n == whole.n

    def test_from_error(self):
        c = CountMin.from_error(0.001, 0.01)
        assert c.epsilon <= 0.001
        assert c.depth >= 5

    def test_serde(self, rng):
        c = CountMin(512, 3)
        c.update_batch(np.array([f"x{i}" for i in range(1000)], dtype=object))
        c2 = CountMin.from_bytes(c.to_bytes())
        assert np.array_equal(c.table, c2.table) and c2.n == c.n

    def test_inner_product_bound(self, rng):
        """est >= true inner product and within eps * na * nb."""
        a, b = CountMin(2048, 8), CountMin(2048, 8)
        keys = np.arange(200)
        ca = rng.integers(1, 50, size=200)
        cb = rng.integers(1, 50, size=200)
        a.update_batch(keys, weights=ca)
        b.update_batch(keys[:100], weights=cb[:100])
        true = int((ca[:100] * cb[:100]).sum())
        est = a.inner_product(b)
        assert est >= true
        assert est <= true + a.epsilon * a.n * b.n

    def test_inner_product_shape_mismatch(self):
        with pytest.raises(ValueError):
            CountMin(1024, 4).inner_product(CountMin(2048, 4))


# -------------------------------------------------------------------- Bloom


class TestBloom:
    def test_no_false_negatives(self, rng):
        b = BloomFilter.from_capacity(20_000, 0.01)
        items = np.array([f"doc{i}" for i in range(20_000)], dtype=object)
        b.update_batch(items)
        assert b.contains(items).all()

    def test_false_positive_rate(self):
        b = BloomFilter.from_capacity(10_000, 0.01)
        b.update_batch(np.array([f"in{i}" for i in range(10_000)], dtype=object))
        probe = np.array([f"out{i}" for i in range(20_000)], dtype=object)
        assert b.contains(probe).mean() < 0.03

    def test_merge_is_union(self):
        a = BloomFilter(1 << 16, 5)
        b = BloomFilter(1 << 16, 5)
        ia = np.array([f"a{i}" for i in range(1000)], dtype=object)
        ib = np.array([f"b{i}" for i in range(1000)], dtype=object)
        a.update_batch(ia)
        b.update_batch(ib)
        m = BloomFilter(1 << 16, 5).merge(a, b)
        assert m.contains(ia).all() and m.contains(ib).all()
        whole = BloomFilter(1 << 16, 5)
        whole.update_batch(np.concatenate([ia, ib]))
        assert np.array_equal(m.words, whole.words)

    def test_serde(self):
        b = BloomFilter(1 << 12, 4)
        b.update_batch(np.array(["p", "q", "r"], dtype=object))
        b2 = BloomFilter.from_bytes(b.to_bytes())
        assert np.array_equal(b.words, b2.words)
        assert b2.contains(np.array(["p"], dtype=object))[0]


# --------------------------------------------------------------- histograms


class TestHistograms:
    def test_float_histogram_buckets(self):
        h = FloatHistogram(1, 1e6, 50)
        # below min -> bin 0; above max -> last bin (Histogram.java:70-79)
        h.update_batch(np.array([0.5, 1e7]))
        assert h.counts[0] == 1 and h.counts[-1] == 1

    def test_bounds_monotone(self):
        for h in (FloatHistogram(1, 1e5, 50), LogHistogram(1, 1e5, 0.1)):
            b = h.bounds()
            assert np.all(np.diff(b) > 0)
            assert b[0] == pytest.approx(1.0, rel=0.02)

    def test_quantile_approximation(self, rng):
        data = rng.lognormal(5, 2, 200_000)
        h = FloatHistogram(1e-2, 1e8, 100)
        h.update_batch(data)
        true = np.median(data)
        assert h.quantile(0.5) == pytest.approx(true, rel=0.05)

    def test_merge_identical_bins_only(self):
        a = FloatHistogram(1, 1e4, 50)
        b = FloatHistogram(1, 1e5, 50)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_is_vector_add(self, rng):
        data = rng.uniform(1, 1e4, 10_000)
        a = FloatHistogram(1, 1e5, 50)
        b = FloatHistogram(1, 1e5, 50)
        a.update_batch(data[:5000])
        b.update_batch(data[5000:])
        whole = FloatHistogram(1, 1e5, 50)
        whole.update_batch(data)
        m = FloatHistogram(1, 1e5, 50).merge(a, b)
        assert np.array_equal(m.counts, whole.counts)

    def test_approx_log2_properties(self):
        """Error < ±0.01, exact at powers of two, pow2 is exact inverse
        (LogHistogram.java:60-92)."""
        xs = np.logspace(-3, 6, 5000)
        err = np.abs(approx_log2(xs) - np.log2(xs))
        assert err.max() < 0.01
        powers = 2.0 ** np.arange(-10, 30)
        assert np.allclose(approx_log2(powers), np.arange(-10, 30), atol=1e-12)
        ys = approx_log2(xs)
        assert np.allclose(pow2_approx(ys), xs, rtol=1e-9)

    def test_log_histogram_serde(self, rng):
        h = LogHistogram(1, 1e5, 0.1)
        h.update_batch(rng.uniform(1, 1e5, 5000))
        h2 = LogHistogram.from_bytes(h.to_bytes())
        assert np.array_equal(h.counts, h2.counts)


def test_histogram_bitpacked_serde_roundtrip_and_size():
    """Bit-packed counts encoding (Simple64-style, VERDICT r01 item 8):
    exact round-trip, big counts, and a real size win on sparse counts."""
    import struct

    from t_digest_ray.state.histogram import (FloatHistogram, LogHistogram,
                                              _ENC_RAW, _HEADER_FMT,
                                              _HEADER_SIZE)

    rng = np.random.default_rng(7)
    h = FloatHistogram(1e-3, 1e3, 50)
    h.update_batch(rng.lognormal(0, 1, 20000))
    h.counts[3] = 2**40 + 17  # wide-width block exercised
    b = h.to_bytes()
    h2 = FloatHistogram.from_bytes(b)
    assert np.array_equal(h.counts, h2.counts)
    assert (h2.min, h2.max, h2.param) == (h.min, h.max, h.param)
    raw_size = _HEADER_SIZE + 8 * len(h.counts)
    assert len(b) < raw_size / 2, (len(b), raw_size)

    lh = LogHistogram(0.1, 1000, 0.1)
    lh.update_batch(rng.uniform(0.2, 900, 5000))
    lb = lh.to_bytes()
    assert np.array_equal(LogHistogram.from_bytes(lb).counts, lh.counts)

    # legacy raw encoding still decodes
    legacy = struct.pack(_HEADER_FMT, FloatHistogram.magic, h.min, h.max,
                         h.param, _ENC_RAW) + h.counts.astype("<i8").tobytes()
    assert np.array_equal(FloatHistogram.from_bytes(legacy).counts, h.counts)

    # empty histogram round-trips
    e = FloatHistogram(1e-3, 1e3, 50)
    assert np.array_equal(FloatHistogram.from_bytes(e.to_bytes()).counts,
                          e.counts)


def test_histogram_v1_blobs_decode_on_legacy_magic():
    """Pre-enc-byte (v1 magic) blobs — header <4sddd + raw int64 counts —
    decode on the dedicated legacy branch (ADVICE r02); an unknown magic
    raises a clear error instead of an offset-shifted frombuffer failure."""
    import struct

    import pytest as _pytest

    from t_digest_ray.state.histogram import (FloatHistogram, LogHistogram,
                                              _LEGACY_HEADER_FMT)

    rng = np.random.default_rng(3)
    h = FloatHistogram(1e-3, 1e3, 50)
    h.update_batch(rng.lognormal(0, 1, 5000))
    v1 = struct.pack(_LEGACY_HEADER_FMT, FloatHistogram.legacy_magic,
                     h.min, h.max, h.param) + h.counts.astype("<i8").tobytes()
    assert np.array_equal(FloatHistogram.from_bytes(v1).counts, h.counts)

    lh = LogHistogram(0.1, 1000, 0.1)
    lh.update_batch(rng.uniform(0.2, 900, 2000))
    v1l = struct.pack(_LEGACY_HEADER_FMT, LogHistogram.legacy_magic,
                      lh.min, lh.max, lh.param) \
        + lh.counts.astype("<i8").tobytes()
    assert np.array_equal(LogHistogram.from_bytes(v1l).counts, lh.counts)

    with _pytest.raises(ValueError, match="magic"):
        FloatHistogram.from_bytes(b"XXX9" + v1[4:])
    # cross-type decode is refused, not misparsed
    with _pytest.raises(ValueError, match="magic"):
        LogHistogram.from_bytes(h.to_bytes())


def test_kll_datasketches_layout_roundtrip():
    """DataSketches KllDoublesSketch byte layout (preamble fields verified
    by hand-unpacking; KllDoublesSketch.java:183-219, 796-830): empty,
    single-item, and multi-level sketches round-trip with identical
    weighted content."""
    import struct

    from t_digest_ray.state.kll import (KllSketch, kll_from_java_bytes,
                                        kll_to_java_bytes)

    # empty: 8-byte preamble, flags bit 0
    e = KllSketch(200)
    be = kll_to_java_bytes(e)
    assert len(be) == 8
    pre, ver, fam, flags, k, m, _ = struct.unpack_from("<BBBBHBB", be, 0)
    assert (pre, ver, fam, flags, k, m) == (2, 1, 15, 1, 200, 8)
    assert kll_from_java_bytes(be).n == 0

    # single item: serial version 2, item at offset 8
    s = KllSketch(200)
    s.update_batch([42.5])
    bs = kll_to_java_bytes(s)
    assert len(bs) == 16
    assert struct.unpack_from("<d", bs, 8)[0] == 42.5
    s2 = kll_from_java_bytes(bs)
    assert s2.n == 1 and s2.min == s2.max == 42.5

    # multi-level: full preamble; weighted content identical after decode
    rng = np.random.default_rng(9)
    sk = KllSketch(128)
    sk.update_batch(rng.uniform(0, 1000, 50000))
    b = kll_to_java_bytes(sk)
    pre, ver, fam, flags, k, m, _ = struct.unpack_from("<BBBBHBB", b, 0)
    assert (pre, ver, fam, k) == (5, 1, 15, 128)
    n, min_k, L, _ = struct.unpack_from("<qHBB", b, 8)
    assert n == sk.n and L == len(sk.levels)
    sk2 = kll_from_java_bytes(b)
    assert sk2.n == sk.n and sk2.min == sk.min and sk2.max == sk.max
    it1, w1 = sk._weighted_sorted()
    it2, w2 = sk2._weighted_sorted()
    assert np.array_equal(it1, it2) and np.array_equal(w1, w2)


class TestMisraGries:
    """Misra-Gries / SpaceSaving heavy-hitter summary (state/mg.py)."""

    def test_exact_when_under_capacity(self):
        from t_digest_ray.state.mg import MisraGries
        sk = MisraGries(64)
        sk.update_batch(np.array(["a"] * 50 + ["b"] * 30 + ["c"] * 5,
                                 dtype=object))
        assert sk.max_undercount == 0
        assert sk.topk(2) == [("a", 50), ("b", 30)]
        assert list(sk.estimate(["a", "b", "c", "zz"])) == [50, 30, 5, 0]

    def test_deterministic_bound_under_shrink(self):
        from t_digest_ray.state.mg import MisraGries
        rng = np.random.default_rng(7)
        # zipf-ish stream with far more distinct keys than capacity
        vals = rng.zipf(1.3, 200_000).astype(np.int64)
        vals = vals[vals < 50_000]
        sk = MisraGries(32)
        for chunk in np.array_split(vals, 37):
            sk.update_batch(chunk)
        assert sk.n == len(vals)
        assert 0 < sk.max_undercount <= sk.n // (32 + 1)
        uniq, cnt = np.unique(vals, return_counts=True)
        true = dict(zip(uniq, cnt))
        est = sk.estimate(np.array(list(sk.counts)))
        for k, e in zip(sk.counts, est):
            t = true[k]
            assert e <= t, (k, e, t)  # never overestimates
            assert t - e <= sk.max_undercount
        # every key above the guarantee threshold is tracked
        thresh = sk.n / (32 + 1)
        tracked = set(sk.counts)
        for k, t in true.items():
            if t > thresh:
                assert int(k) in tracked

    def test_merge_matches_single_stream_bound_and_is_order_free(self):
        from t_digest_ray.state.mg import MisraGries
        rng = np.random.default_rng(11)
        parts = [rng.zipf(1.5, 20_000).astype(np.int64) for _ in range(6)]
        sks = []
        for p in parts:
            s = MisraGries(48)
            s.update_batch(p)
            sks.append(s)
        m1 = MisraGries(48).merge(*sks)
        # opposite merge order, pairwise tree
        sks2 = [MisraGries.from_bytes(s.to_bytes()) for s in sks][::-1]
        left = MisraGries(48).merge(sks2[0], sks2[1], sks2[2])
        right = MisraGries(48).merge(sks2[3], sks2[4], sks2[5])
        m2 = MisraGries(48).merge(left, right)
        allv = np.concatenate(parts)
        uniq, cnt = np.unique(allv, return_counts=True)
        true = dict(zip(uniq, cnt))
        for m in (m1, m2):
            assert m.n == len(allv)
            assert m.max_undercount <= m.n // (48 + 1)
            for k, e in m.counts.items():
                assert e <= true[k]
                assert true[k] - e <= m.max_undercount

    def test_weighted_updates_and_serde_roundtrip(self):
        from t_digest_ray.state.mg import MisraGries
        sk = MisraGries(8)
        sk.update_batch(np.array(["x", "y", "x"], dtype=object),
                        weights=np.array([5, 2, 1]))
        assert sk.estimate(["x"])[0] == 6 and sk.n == 8
        b = sk.to_bytes()
        rt = MisraGries.from_bytes(b)
        assert rt.counts == sk.counts and rt.n == sk.n
        assert rt.offset == sk.offset and rt.capacity == sk.capacity
        assert rt.to_bytes() == b
        # int keys round-trip through the int layout
        ik = MisraGries(8)
        ik.update_batch(np.array([3, 3, 9], dtype=np.int64))
        rt2 = MisraGries.from_bytes(ik.to_bytes())
        assert rt2.counts == {3: 2, 9: 1}

    def test_distributed_topology(self, ray_session):
        import ray.data as rd
        from t_digest_ray.pipelines.heavy import heavy_hitters_mg
        rng = np.random.default_rng(3)
        keys = np.array(["k%02d" % i for i in rng.zipf(1.4, 30_000) % 40])
        ds = rd.from_arrow(pa.table({"k": pa.array(keys)})).repartition(16)
        out = heavy_hitters_mg(ds, "k", k=5, capacity=64).to_pandas()
        uniq, cnt = np.unique(keys, return_counts=True)
        order = np.lexsort((uniq, -cnt))
        assert list(out["k"]) == list(uniq[order[:5]])
        assert list(out["est_count"]) == [int(cnt[i]) for i in order[:5]]
        assert (out["max_undercount"] == 0).all()  # 40 keys < capacity


class TestHistogramPipeline:
    def test_histogram_bins_by_key_matches_local(self, ray_session, rng):
        """Distributed partial->merge->explode equals one local
        histogram per key, for both Float and Log binning."""
        import pandas as pd
        import ray

        from t_digest_ray.pipelines.quantiles import histogram_bins_by_key
        from t_digest_ray.state.histogram import (FloatHistogram,
                                                  LogHistogram)
        from t_digest_ray.state.protocol import SketchSpec

        n = 4000
        df = pd.DataFrame({
            "k": rng.choice(["a", "b", "c"], n),
            "v": np.exp(rng.normal(2.0, 1.5, n)),
        })
        d = ray.data.from_pandas(df).repartition(6)
        for cls, param in ((FloatHistogram, 50.0), (LogHistogram, 0.1)):
            spec = SketchSpec(name="h",
                              factory=lambda: cls(0.001, 1000.0, param),
                              from_bytes=cls.from_bytes)
            out = (histogram_bins_by_key(d, spec, "v", "k")
                   .to_pandas().sort_values(["k", "bin"])
                   .reset_index(drop=True))
            for k, g in df.groupby("k"):
                h = cls(0.001, 1000.0, param)
                h.update_batch(g["v"].to_numpy())
                nz = np.nonzero(h.counts)[0]
                sub = out[out["k"] == k]
                assert list(sub["bin"]) == list(nz)
                assert list(sub["cnt"]) == list(h.counts[nz])
                assert np.array_equal(sub["bin_lb"].to_numpy(),
                                      h._lower_bound(nz))
            assert int(out["cnt"].sum()) == n
