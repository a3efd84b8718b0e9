"""CountSketch / DDSketch / FrequentDirections — the round-4 additions to
the sketch family (none in the reference repo; built from the published
algorithms cited in each module header)."""

from __future__ import annotations

import numpy as np
import pytest

from t_digest_ray.state.countsketch import CountSketch
from t_digest_ray.state.ddsketch import DDSketch
from t_digest_ray.state.freqdir import FreqDir

# --------------------------------------------------------------- CountSketch


def test_countsketch_heavy_keys_within_l2_bound(rng):
    keys = rng.zipf(1.3, 200_000) % 1000
    cs = CountSketch(width=4096, depth=5)
    cs.update_batch(keys)
    true = np.bincount(keys, minlength=1000)
    est = cs.estimate(np.arange(1000))
    f2 = float((true.astype(np.float64) ** 2).sum())
    heavy = true > 1000
    bound = 3.0 * np.sqrt((f2 - true[heavy] ** 2) / cs.width)
    assert (np.abs(est[heavy] - true[heavy]) <= bound + 1e-9).all()


def test_countsketch_merge_equals_whole_and_roundtrips(rng):
    keys = rng.integers(0, 5000, 50_000)
    whole = CountSketch(2048, 5)
    whole.update_batch(keys)
    parts = [CountSketch(2048, 5) for _ in range(4)]
    for i, p in enumerate(parts):
        p.update_batch(keys[i::4])
    merged = parts[0].merge(*parts[1:])
    assert (merged.table == whole.table).all()
    assert merged.n == whole.n == len(keys)
    rt = CountSketch.from_bytes(whole.to_bytes())
    assert (rt.table == whole.table).all() and rt.n == whole.n


def test_countsketch_weighted_and_string_keys():
    cs = CountSketch(1024, 5)
    cs.update_batch(np.array(["a", "b", "a"], dtype=object),
                    weights=np.array([10, 3, 5]))
    est = cs.estimate(np.array(["a", "b"], dtype=object))
    # tiny domain in a wide table: no collisions, estimates exact
    assert est.tolist() == [15, 3]
    assert cs.n == 18


def test_countsketch_inner_product_unbiased_on_disjoint():
    a, b = CountSketch(4096, 5), CountSketch(4096, 5)
    a.update_batch(np.arange(100))          # each key once
    b.update_batch(np.arange(50, 150))      # overlap = 50 keys
    est = a.inner_product(b)
    assert abs(est - 50) <= 3 * np.sqrt(100 * 100 / 4096) + 1


def test_countsketch_shape_validation():
    with pytest.raises(ValueError):
        CountSketch(4, 5)
    with pytest.raises(ValueError):
        CountSketch(1024, 5).merge(CountSketch(2048, 5))


# ----------------------------------------------------------------- DDSketch


def test_ddsketch_relative_error_guarantee(rng):
    vals = rng.lognormal(0.0, 2.0, 100_000)
    dd = DDSketch(alpha=0.01)
    dd.update_batch(vals)
    v = np.sort(vals)
    for q in (0.01, 0.25, 0.5, 0.9, 0.99):
        exact = v[max(int(np.ceil(q * len(v))) - 1, 0)]
        assert abs(dd.quantile(q) - exact) <= 0.01 * exact + 1e-12


def test_ddsketch_merge_identical_to_whole(rng):
    vals = rng.exponential(5.0, 40_000)
    whole = DDSketch(0.02)
    whole.update_batch(vals)
    parts = [DDSketch(0.02) for _ in range(3)]
    for i, p in enumerate(parts):
        p.update_batch(vals[i::3])
    merged = parts[0].merge(*parts[1:])
    # fully mergeable: bucket-wise addition is exact (paper §2.4)
    assert merged.pos == whole.pos
    assert merged.n == whole.n


def test_ddsketch_negative_zero_and_roundtrip(rng):
    vals = np.concatenate([rng.normal(-100, 10, 5000),
                           np.zeros(100),
                           rng.normal(100, 10, 5000)])
    dd = DDSketch(alpha=0.01)
    dd.update_batch(vals)
    v = np.sort(vals)
    for q in (0.1, 0.5, 0.9):
        exact = v[max(int(np.ceil(q * len(v))) - 1, 0)]
        est = dd.quantile(q)
        assert abs(est - exact) <= 0.01 * abs(exact) + 1e-9
    rt = DDSketch.from_bytes(dd.to_bytes())
    assert rt.pos == dd.pos and rt.neg == dd.neg
    assert rt.zero_count == dd.zero_count
    assert rt.quantile(0.5) == dd.quantile(0.5)


def test_ddsketch_collapse_keeps_upper_quantiles(rng):
    vals = rng.lognormal(0.0, 2.0, 50_000)
    dd = DDSketch(alpha=0.01, max_bins=512)  # forces collapse (~4% folds)
    dd.update_batch(vals)
    assert len(dd.pos) <= 512
    v = np.sort(vals)
    # collapse folds LOW buckets only — quantiles above the fold
    # boundary keep the alpha guarantee (paper Thm 3)
    for q in (0.5, 0.9, 0.99):
        exact = v[max(int(np.ceil(q * len(v))) - 1, 0)]
        assert abs(dd.quantile(q) - exact) <= 0.01 * exact


def test_ddsketch_weighted_updates():
    dd = DDSketch(alpha=0.01)
    dd.update_batch(np.array([10.0, 20.0]), weights=np.array([9.0, 1.0]))
    assert abs(dd.n - 10.0) < 1e-9
    assert abs(dd.quantile(0.5) - 10.0) <= 0.1 + 1e-9


# ------------------------------------------------------ FrequentDirections


def _spectral_err(A: np.ndarray, fd: FreqDir) -> float:
    return float(np.linalg.norm(A.T @ A - fd.cov_estimate(), 2))


def test_freqdir_deterministic_bound(rng):
    A = rng.normal(0, 1, (4000, 32)) @ np.diag(np.linspace(5, 0.1, 32))
    fd = FreqDir(l=16)
    for i in range(0, len(A), 333):
        fd.update_batch(A[i:i + 333])
    assert fd.n_rows == len(A)
    assert abs(fd.energy - float((A * A).sum())) < 1e-6 * fd.energy
    assert _spectral_err(A, fd) <= fd.error_bound() + 1e-6
    # PSD: B^T B never overestimates (Liberty 2013 Thm 1.1 lower side)
    eig = np.linalg.eigvalsh(A.T @ A - fd.cov_estimate())
    assert eig[0] >= -1e-6 * fd.energy


def test_freqdir_merge_keeps_bound(rng):
    A = rng.normal(0, 1, (3000, 24))
    parts = [FreqDir(l=12) for _ in range(3)]
    for i, p in enumerate(parts):
        p.update_batch(A[i::3])
    merged = parts[0].merge(*parts[1:])
    assert merged.n_rows == len(A)
    assert _spectral_err(A, merged) <= merged.error_bound() + 1e-6


def test_freqdir_roundtrip_and_object_rows(rng):
    A = rng.normal(0, 1, (500, 16)).astype(np.float32)
    fd = FreqDir(l=8)
    # Arrow list<float> columns arrive as object ndarrays of arrays
    obj = np.empty(len(A), dtype=object)
    for i in range(len(A)):
        obj[i] = A[i]
    fd.update_batch(obj)
    assert fd.d == 16 and fd.n_rows == 500
    rt = FreqDir.from_bytes(fd.to_bytes())
    assert rt.n_rows == fd.n_rows and rt.energy == fd.energy
    assert np.allclose(rt.cov_estimate(), fd.cov_estimate())


def test_freqdir_dim_mismatch_raises(rng):
    fd = FreqDir(l=8)
    fd.update_batch(rng.normal(0, 1, (10, 4)))
    with pytest.raises(ValueError):
        fd.update_batch(rng.normal(0, 1, (10, 5)))
    with pytest.raises(ValueError):
        fd.merge(FreqDir(l=16))


# ------------------------------------------------- distributed gate queries


def test_gate_queries_flip_on_corruption(ray_session, sf_smoke,
                                         monkeypatch):
    """The three new VALUE-CHECKED gates are live: they pass on healthy
    sketches and flip within_bound when the sketch is poisoned."""
    import ray.data as rd

    from t_digest_ray.pipelines.clustering import gram_sketch_check
    from t_digest_ray.pipelines.heavy import heavy_hitters_unbiased
    from t_digest_ray.pipelines.validation import \
        relative_quantile_bound_check

    docs = rd.read_parquet(f"{sf_smoke}/documents.parquet",
                           columns=["lang", "n_chars"])
    out = relative_quantile_bound_check(docs, "n_chars", "lang",
                                        alpha=0.01).to_pandas()
    assert len(out) and out["within_bound"].all()

    ev = rd.read_parquet(f"{sf_smoke}/events.parquet",
                         columns=["event_type"])
    hh = heavy_hitters_unbiased(ev, "event_type", k=3).to_pandas()
    assert len(hh) == 3 and hh["within_bound"].all()
    assert hh["exact_count"].is_monotonic_decreasing

    emb = rd.read_parquet(f"{sf_smoke}/embeddings.parquet",
                          columns=["embedding"])
    g = gram_sketch_check(emb, "embedding", l=16).to_pandas()
    assert len(g) == 1 and bool(g["within_bound"].iloc[0])
    assert int(g["n_rows"].iloc[0]) == emb.count()

    # poison: swap every merged sketch for one full of absurd values
    # (same weight, so only the relative-error clause can catch it)
    import t_digest_ray.pipelines.validation as V
    real = V.sketch_by_key

    def poisoned(*a, **kw):
        rows = real(*a, **kw).to_pandas()

        def lie(n):
            bad_sk = DDSketch(0.01)
            bad_sk.update_batch(np.full(int(n), 1e12))
            return bad_sk.to_bytes()

        rows["sketch"] = rows["n"].map(lie)
        return rd.from_pandas(rows)

    monkeypatch.setattr(V, "sketch_by_key", poisoned)
    bad = relative_quantile_bound_check(docs, "n_chars", "lang",
                                        alpha=0.01).to_pandas()
    assert not bad["within_bound"].any()


def test_config_routes_new_sketches(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    dd = run_job(JobConfig(pipeline="ddsketch",
                           input="/root/testdata/sf0.001/documents.parquet",
                           columns=["lang", "n_chars"],
                           key="lang", value_col="n_chars",
                           params={"alpha": 0.02})) \
        .to_pandas()
    assert len(dd) and {"q25", "q50", "q75"} <= set(dd.columns)
    assert (dd["q25"] <= dd["q50"]).all() and (dd["q50"] <= dd["q75"]).all()

    cs = run_job(JobConfig(pipeline="countsketch_topk",
                           input="/root/testdata/sf0.001/events.parquet",
                           columns=["event_type"], key="event_type",
                           params={"k": 3})).to_pandas()
    assert len(cs) == 3 and cs["within_bound"].all()

    fd = run_job(JobConfig(pipeline="freqdir_gram",
                           input="/root/testdata/sf0.001/embeddings.parquet",
                           columns=["embedding"], value_col="embedding",
                           params={"l": 8})).to_pandas()
    assert bool(fd["within_bound"].iloc[0])


def test_join_size_unbiased(ray_session, rng):
    import pandas as pd
    import ray.data as rd

    from t_digest_ray.pipelines.heavy import join_size_unbiased

    a = pd.DataFrame({"v": rng.integers(0, 300, 5000)})
    b = pd.DataFrame({"v": rng.integers(0, 300, 4000)})
    ca = a["v"].value_counts()
    cb = b["v"].value_counts()
    exact = int(sum(int(ca.get(k, 0)) * int(cb.get(k, 0))
                    for k in set(ca.index) | set(cb.index)))
    out = join_size_unbiased(rd.from_pandas(a).repartition(3),
                             rd.from_pandas(b).repartition(2), "v") \
        .to_pandas()
    assert int(out["exact_pairs"].iloc[0]) == exact
    assert bool(out["within_bound"].iloc[0])


# -------------------------------------------------------- PrioritySample


def test_priority_sample_merge_equals_whole_on_disjoint(rng):
    from t_digest_ray.state.priority import PrioritySample

    n = 20_000
    keys = np.arange(n)
    w = rng.pareto(1.5, n) + 0.1
    whole = PrioritySample(k=512)
    whole.update_batch(keys, w)
    parts = [PrioritySample(k=512) for _ in range(4)]
    for i, p in enumerate(parts):
        p.update_batch(keys[i::4], w[i::4])
    merged = parts[0].merge(*parts[1:])
    ka, aa = whole.sample()
    kb, ab = merged.sample()
    # disjoint key sets + hash-derived priorities ⇒ merge IS the
    # single-machine sample, item for item
    assert sorted(ka.tolist()) == sorted(kb.tolist())
    assert np.allclose(sorted(aa), sorted(ab))


def test_priority_sample_subset_estimates_and_serde(rng):
    from t_digest_ray.state.priority import PrioritySample

    n = 20_000
    keys = np.arange(n)
    w = rng.pareto(1.5, n) + 0.1
    ps = PrioritySample(k=512)
    ps.update_batch(keys, w)
    total = float(w.sum())
    assert abs(ps.total_estimate() - total) <= 5 * total / np.sqrt(511)
    sub_exact = float(w[keys % 3 == 0].sum())
    est = ps.subset_sum(lambda ks: np.array([int(x) % 3 == 0
                                             for x in ks]))
    assert abs(est - sub_exact) <= 5 * total / np.sqrt(511)
    rt = PrioritySample.from_bytes(ps.to_bytes())
    ka, aa = ps.sample()
    kb, ab = rt.sample()
    assert (ka == kb).all() and np.allclose(aa, ab)


def test_priority_sample_duplicates_and_validation():
    from t_digest_ray.state.priority import PrioritySample

    p = PrioritySample(k=8)
    p.update_batch(np.array(["a", "a", "b"], dtype=object),
                   np.array([1.0, 2.0, 5.0]))
    d = dict(zip(*map(np.ndarray.tolist, p.sample())))
    assert d == {"a": 3.0, "b": 5.0}
    with pytest.raises(ValueError):
        PrioritySample(1)
    with pytest.raises(ValueError):
        PrioritySample(8).merge(PrioritySample(16))


def test_priority_sample_pipeline_gate(ray_session, sf_smoke,
                                       monkeypatch):
    import ray.data as rd

    from t_digest_ray.pipelines.curation import \
        priority_sample_subset_check
    from t_digest_ray.state.priority import PrioritySample

    ev = rd.read_parquet(f"{sf_smoke}/events.parquet",
                         columns=["user_id"])
    out = priority_sample_subset_check(ev, "user_id", k=128).to_pandas()
    assert bool(out["within_bound"].iloc[0])
    assert int(out["total_exact"].iloc[0]) == ev.count()

    # poison driver-side estimator: the gate must flip
    monkeypatch.setattr(PrioritySample, "total_estimate",
                        lambda self: 1e18, raising=True)
    bad = priority_sample_subset_check(ev, "user_id", k=128).to_pandas()
    assert not bool(bad["within_bound"].iloc[0])


def test_config_route_priority_sample(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    out = run_job(JobConfig(pipeline="priority_sample",
                            input="/root/testdata/sf0.001/events.parquet",
                            columns=["user_id"], key="user_id",
                            params={"k": 64})).to_pandas()
    assert bool(out["within_bound"].iloc[0])


def test_countsketch_self_moment(rng):
    keys = rng.zipf(1.5, 100_000) % 2000
    cs = CountSketch(width=8192, depth=5)
    cs.update_batch(keys)
    true = np.bincount(keys, minlength=2000).astype(object)
    f2 = int((true ** 2).sum())
    est = cs.self_moment()
    assert abs(est - f2) <= 3.0 * f2 * np.sqrt(2.0 / 8192) + 1e-9
    # merge preserves the estimator (elementwise table add)
    a, b = CountSketch(8192, 5), CountSketch(8192, 5)
    a.update_batch(keys[:50_000]); b.update_batch(keys[50_000:])
    assert a.merge(b).self_moment() == est


def test_second_moment_pipeline(ray_session, sf_smoke):
    import duckdb
    import ray.data as rd

    from t_digest_ray.pipelines.heavy import second_moment_check

    ev = rd.read_parquet(f"{sf_smoke}/events.parquet",
                         columns=["user_id"])
    out = second_moment_check(ev, "user_id", width=4096).to_pandas()
    exact = duckdb.sql(
        f"""SELECT CAST(SUM(c*c) AS BIGINT) FROM (
            SELECT COUNT(*) AS c
            FROM '{sf_smoke}/events.parquet' GROUP BY user_id)"""
    ).fetchone()[0]
    assert int(out["f2_exact"].iloc[0]) == int(exact)
    assert bool(out["within_bound"].iloc[0])


class TestCuckooFilter:
    def test_membership_and_fp_bound(self):
        from t_digest_ray.state.cuckoo import CuckooFilter

        rng = np.random.default_rng(11)
        keys = rng.choice(1 << 40, 8000, replace=False)
        ck = CuckooFilter.from_capacity(8000)
        ck.update_batch(keys)
        assert not ck.overflowed
        assert ck.contains(keys).all()
        novel = np.setdiff1d(rng.choice(1 << 40, 50000, replace=False),
                             keys)
        fp = int(ck.contains(novel).sum())
        # 10x the published 2*SLOTS/2^16 bound, plus an absolute floor
        assert fp <= max(5, 10 * len(novel) * ck.fp_rate_bound())

    def test_delete_then_idempotent_reinsert(self):
        from t_digest_ray.state.cuckoo import CuckooFilter

        keys = np.arange(1000, dtype=np.int64) * 7919
        ck = CuckooFilter.from_capacity(2000)
        ck.update_batch(keys)
        ck.update_batch(keys)                 # idempotent re-add
        n0 = ck.n_items
        assert n0 == len(keys)
        removed = ck.delete_batch(keys[:500])
        assert removed == 500
        assert ck.contains(keys[500:]).all()
        assert int(ck.contains(keys[:500]).sum()) <= 2  # residual fp only

    def test_order_and_merge_invariance(self):
        from t_digest_ray.state.cuckoo import CuckooFilter

        rng = np.random.default_rng(5)
        keys = rng.choice(1 << 40, 4000, replace=False)
        probe = rng.choice(1 << 40, 10000)

        one = CuckooFilter.from_capacity(4000)
        one.update_batch(keys)

        a = CuckooFilter.from_capacity(4000)
        b = CuckooFilter.from_capacity(4000)
        a.update_batch(keys[2000:])           # reversed halves
        b.update_batch(keys[:2000])
        a.merge(b)

        assert not one.overflowed and not a.overflowed
        np.testing.assert_array_equal(one.contains(probe),
                                      a.contains(probe))

    def test_serde_roundtrip(self):
        from t_digest_ray.state.cuckoo import CuckooFilter

        keys = np.arange(300, dtype=np.int64) * 31
        ck = CuckooFilter.from_capacity(600)
        ck.update_batch(keys)
        ck2 = CuckooFilter.from_bytes(ck.to_bytes())
        assert ck2.m == ck.m and ck2.n_items == ck.n_items
        np.testing.assert_array_equal(ck2.table, ck.table)

    def test_high_load_sets_overflow_not_wrong_answers(self):
        from t_digest_ray.state.cuckoo import CuckooFilter

        # force well past the 0.84 four-slot threshold
        ck = CuckooFilter(64)  # 64 buckets x 4 = 256 slots
        keys = np.arange(400, dtype=np.int64) * 104729
        ck.update_batch(keys)
        present = keys[ck.contains(keys)]
        # everything that reports present really was inserted
        assert len(present) >= ck.n_items


class TestSparseHLL:
    def test_bit_equal_to_dense_and_promotion(self):
        from t_digest_ray.state.hll import HyperLogLog, SparseHyperLogLog

        rng = np.random.default_rng(23)
        vals = rng.choice(1 << 50, 6000, replace=False)
        dense = HyperLogLog(12)
        dense.update_batch(vals)
        s = SparseHyperLogLog(12)
        s = s.update_batch(vals)              # promotes past m/5 touched
        assert isinstance(s, HyperLogLog)
        assert s.estimate() == dense.estimate()

    def test_sparse_merge_paths(self):
        from t_digest_ray.state.hll import HyperLogLog, SparseHyperLogLog

        rng = np.random.default_rng(29)
        a_vals = rng.choice(1 << 50, 300, replace=False)
        b_vals = rng.choice(1 << 50, 300, replace=False)
        dense = HyperLogLog(14)
        dense.update_batch(np.concatenate([a_vals, b_vals]))

        # sparse + sparse stays sparse and matches
        a = SparseHyperLogLog(14).update_batch(a_vals)
        b = SparseHyperLogLog(14).update_batch(b_vals)
        m = a.merge(b)
        assert isinstance(m, SparseHyperLogLog)
        assert m.estimate() == dense.estimate()

        # sparse + dense promotes and matches
        d2 = HyperLogLog(14)
        d2.update_batch(b_vals)
        a2 = SparseHyperLogLog(14).update_batch(a_vals)
        m2 = a2.merge(d2)
        assert isinstance(m2, HyperLogLog)
        assert m2.estimate() == dense.estimate()

    def test_serde_dispatch_both_magics(self):
        from t_digest_ray.state.hll import HyperLogLog, SparseHyperLogLog

        s = SparseHyperLogLog(14).update_batch(np.arange(50))
        rb = SparseHyperLogLog.from_bytes(s.to_bytes())
        assert isinstance(rb, SparseHyperLogLog)
        assert rb.estimate() == s.estimate()
        assert len(s.to_bytes()) < 300        # vs 16 KiB dense

        d = HyperLogLog(14)
        d.update_batch(np.arange(50))
        rb2 = SparseHyperLogLog.from_bytes(d.to_bytes())
        assert isinstance(rb2, HyperLogLog)
        assert rb2.estimate() == d.estimate()


def test_heavy_hitters_score_integer_keys(ray_session):
    """The scoring pass hashes integer keys as the sketch pass did, so
    int64 keys get their counts (not the empty cells of object-hashed
    positions) and pass the Count-Sketch bound."""
    import pandas as pd
    import ray.data as rd

    from t_digest_ray.pipelines.heavy import (heavy_hitters,
                                              heavy_hitters_unbiased)

    keys = np.repeat(np.arange(20), np.arange(20, 0, -1)).astype(np.int64)
    ds = rd.from_pandas(pd.DataFrame(
        {"k": np.random.default_rng(3).permutation(keys)}))
    cm = heavy_hitters(ds, "k", k=3).to_pandas()
    assert cm.values.tolist() == [[0, 20], [1, 19], [2, 18]]
    cs = heavy_hitters_unbiased(ds, "k", k=3).to_pandas()
    assert cs["exact_count"].tolist() == [20, 19, 18]
    assert cs["within_bound"].all()
