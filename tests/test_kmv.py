"""KMV/Theta bottom-k distinct sketch (state/kmv.py) and its gates."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from t_digest_ray.state.kmv import KmvSketch


def test_kmv_estimate_within_bound():
    rng = np.random.default_rng(4)
    vals = rng.integers(0, 200_000, 400_000)
    true = len(np.unique(vals))
    sk = KmvSketch(1024)
    for chunk in np.array_split(vals, 16):
        sk.update_batch(chunk)
    assert abs(sk.distinct_estimate() - true) / true <= 3 * sk.rse()


def test_kmv_exact_below_k():
    sk = KmvSketch(1024)
    sk.update_batch(np.arange(257))
    assert sk.is_exact and sk.distinct_estimate() == 257.0


def test_kmv_merge_equals_whole_and_roundtrips():
    rng = np.random.default_rng(9)
    vals = rng.integers(0, 50_000, 120_000)
    whole = KmvSketch(512)
    whole.update_batch(vals)
    parts = []
    for c in np.array_split(vals, 7):
        s = KmvSketch(512)
        s.update_batch(c)
        parts.append(s)
    merged = KmvSketch(512).merge(*parts)
    # bottom-k of a union is order-independent and equals the whole pass
    assert np.array_equal(merged.mins, whole.mins)
    rt = KmvSketch.from_bytes(merged.to_bytes())
    assert np.array_equal(rt.mins, merged.mins)
    assert rt.k == merged.k


def test_kmv_jaccard_and_intersection():
    A = KmvSketch(2048)
    A.update_batch(np.arange(0, 60_000))
    B = KmvSketch(2048)
    B.update_batch(np.arange(30_000, 90_000))
    assert abs(A.jaccard(B) - 1 / 3) < 0.05
    assert abs(A.intersection_estimate(B) - 30_000) / 30_000 < 0.1


def test_kmv_distinct_gate_flips_on_corrupt_sketch(ray_session,
                                                   monkeypatch):
    import t_digest_ray.pipelines.validation as V

    rng = np.random.default_rng(2)
    df = pd.DataFrame({
        "k": ["a"] * 8000,
        "v": rng.integers(0, 5000, 8000)})
    import ray.data as rd
    ds = rd.from_pandas(df).repartition(4)

    good = V.kmv_distinct_bound_check(ds, "v", "k", k=512)
    assert good["within_bound"].all()

    real = V.sketch_by_key

    def poisoned(*a, **kw):
        rows = real(*a, **kw).to_pandas()
        bad = KmvSketch(512)
        bad.update_batch(np.arange(37))  # claims 37 distinct, exact mode
        rows["sketch"] = bad.to_bytes()
        import ray.data as rd2
        return rd2.from_pandas(rows)

    monkeypatch.setattr(V, "sketch_by_key", poisoned)
    bad = V.kmv_distinct_bound_check(ds, "v", "k", k=512)
    assert not bad["within_bound"].any()


def test_config_route_kmv_distinct(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    out = run_job(JobConfig(pipeline="kmv_distinct",
                            input="/root/testdata/sf0.001/events.parquet",
                            columns=["event_type", "user_id"],
                            key="event_type", value_col="user_id",
                            params={"k": 1024})) \
        .to_pandas()
    assert len(out) == 5
    # 200 users at sf0.001: below k, the sketch is exact
    assert out["is_exact"].all()
    assert (out["distinct_estimate"] <= 200).all()


def test_difference_estimate_exact_below_saturation():
    from t_digest_ray.state.kmv import KmvSketch
    a = KmvSketch(k=1024)
    b = KmvSketch(k=1024)
    a.update_batch(np.arange(0, 500))
    b.update_batch(np.arange(300, 700))
    # both unsaturated -> theta A-not-B is exact
    assert a.difference_estimate(b) == 300.0
    assert b.difference_estimate(a) == 200.0


def test_difference_estimate_within_rse_saturated():
    from t_digest_ray.state.kmv import KmvSketch
    k = 2048
    a = KmvSketch(k=k)
    b = KmvSketch(k=k)
    a.update_batch(np.arange(0, 60_000))
    b.update_batch(np.arange(40_000, 100_000))
    true_d = 40_000
    n_u = 100_000
    est = a.difference_estimate(b)
    bound = 5 * np.sqrt(true_d * n_u / (k - 1))
    assert abs(est - true_d) <= bound
    # the three theta cells sum to the union estimate
    i_est = a.intersection_estimate(b)
    d_ab = a.difference_estimate(b)
    d_ba = b.difference_estimate(a)
    u = KmvSketch(k=k)
    u.update_batch(np.arange(0, 100_000))
    # cells computed off the shared union threshold are mutually consistent
    assert abs((d_ab + d_ba + i_est) - (a.merge(b).distinct_estimate())) \
        <= 0.05 * n_u
