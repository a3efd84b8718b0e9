"""Validation gates (pipelines/validation.py): the within_bound flag must
be True for healthy sketches and must FLIP on a planted regression — that
flip is what turns the driver's hash check into a real gate."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from t_digest_ray.pipelines.quantiles import tdigest_spec
from t_digest_ray.pipelines.validation import (distinct_bound_check,
                                               drift_no_change_check,
                                               quantile_bound_check)
from t_digest_ray.stages.aggregate import sketch_by_key


@pytest.fixture(scope="module")
def keyed_values(ray_session):
    import ray

    rng = np.random.default_rng(21)
    df = pd.DataFrame({
        "k": np.repeat(["a", "b"], 5000),
        "x": np.concatenate([rng.uniform(0, 100, 5000),
                             rng.normal(500, 50, 5000)]),
    })
    return ray.data.from_pandas(df).repartition(4), df


def test_quantile_bound_check_passes_healthy(keyed_values):
    ds, df = keyed_values
    spec = tdigest_spec(100)
    out = quantile_bound_check(ds, "x", "k", spec,
                               qs=(0.25, 0.5, 0.75)).to_pandas()
    assert out["within_bound"].all()
    # exact columns really are the disc quantiles
    for _, r in out.iterrows():
        v = np.sort(df[df.k == r["k"]]["x"].to_numpy())
        assert r["p50"] == v[max(int(np.ceil(0.5 * len(v))) - 1, 0)]


def test_quantile_bound_check_disc_rank_matches_duckdb(ray_session):
    """At q=0.55, n=100 the float rank ceil(q*n) is 56; DuckDB's
    quantile_disc picks the 55th value."""
    import duckdb
    import ray

    rng = np.random.default_rng(5)
    df = pd.DataFrame({"k": ["a"] * 100,
                       "x": rng.permutation(np.arange(1.0, 101.0))})
    out = quantile_bound_check(ray.data.from_pandas(df), "x", "k",
                               tdigest_spec(100), qs=(0.55,)).to_pandas()
    con = duckdb.connect()
    con.register("t", df)
    want = con.execute("SELECT quantile_disc(x, 0.55) FROM t").fetchone()[0]
    assert want == 55.0
    assert out["p55"].iloc[0] == want


def test_quantile_bound_check_flags_regression(keyed_values):
    ds, _ = keyed_values
    spec = tdigest_spec(100)
    merged = sketch_by_key(ds, spec, "x", "k").to_pandas()
    # planted regression: shift one group's sketch values by corrupting
    # its bytes with a digest built from wrong data
    bad = spec.factory()
    bad.update_batch(np.full(5000, 1e9))
    merged.loc[merged["key"] == "a", "sketch"] = bad.to_bytes()
    out = quantile_bound_check(ds, "x", "k", spec,
                               merged_rows=merged).to_pandas()
    assert not out[out.k == "a"]["within_bound"].iloc[0]
    assert out[out.k == "b"]["within_bound"].iloc[0]


def test_quantile_bound_check_flags_count_mismatch(keyed_values):
    ds, _ = keyed_values
    spec = tdigest_spec(100)
    merged = sketch_by_key(ds, spec, "x", "k").to_pandas()
    merged.loc[merged["key"] == "b", "n"] = 123.0  # lost rows
    out = quantile_bound_check(ds, "x", "k", spec,
                               merged_rows=merged).to_pandas()
    assert not out[out.k == "b"]["within_bound"].iloc[0]


@pytest.fixture(scope="module")
def keyed_int_values(ray_session):
    import ray

    rng = np.random.default_rng(33)
    df = pd.DataFrame({
        "k": np.repeat(["a", "b"], 4000),
        "x": np.concatenate([
            rng.integers(0, 1000, 4000),
            rng.integers(400, 2000, 4000)]).astype(np.int64),
    })
    return ray.data.from_pandas(df).repartition(4), df


def test_trimmed_mean_bound_check_passes_healthy(keyed_int_values):
    from t_digest_ray.pipelines.validation import trimmed_mean_bound_check

    ds, df = keyed_int_values
    out = trimmed_mean_bound_check(ds, "x", "k", tdigest_spec(100),
                                   trim=0.1).to_pandas()
    assert out["within_bound"].all()
    for _, r in out.iterrows():
        v = np.sort(df[df.k == r["k"]]["x"].to_numpy())
        n = len(v)
        w = v[int(n * 0.1):n - int(n * 0.1)]
        assert r["trim_count"] == len(w)
        assert r["trim_sum"] == int(w.sum())
        assert r["trimmed_mean"] == float(
            np.float64(int(w.sum())) / np.float64(len(w)))


def test_trimmed_mean_bound_check_flags_regression(keyed_int_values):
    from t_digest_ray.pipelines.validation import trimmed_mean_bound_check

    ds, _ = keyed_int_values
    spec = tdigest_spec(100)
    merged = sketch_by_key(ds, spec, "x", "k").to_pandas()
    bad = spec.factory()
    bad.update_batch(np.full(4000, 1e9))
    merged.loc[merged["key"] == "a", "sketch"] = bad.to_bytes()
    out = trimmed_mean_bound_check(ds, "x", "k", spec,
                                   merged_rows=merged).to_pandas()
    assert not out[out.k == "a"]["within_bound"].iloc[0]
    assert out[out.k == "b"]["within_bound"].iloc[0]


def test_distinct_bound_check(keyed_values, ray_session):
    import ray

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "g": np.repeat(["p", "q"], 20000),
        "u": np.concatenate([rng.integers(0, 5000, 20000),
                             rng.integers(0, 500, 20000)]),
    })
    ds = ray.data.from_pandas(df).repartition(4)
    out = distinct_bound_check(ds, "u", "g", p=14, count_name="n_u")
    assert out["within_bound"].all()
    want = df.groupby("g")["u"].nunique()
    got = dict(zip(out["g"], out["n_u"]))
    assert got == want.to_dict()


def test_drift_check_passes_same_distribution(ray_session):
    import ray

    rng = np.random.default_rng(6)
    df = pd.DataFrame({"k": np.repeat(["t"], 20000),
                       "v": rng.normal(10, 2, 20000)})
    a = ray.data.from_pandas(df.iloc[::2].reset_index(drop=True))
    b = ray.data.from_pandas(df.iloc[1::2].reset_index(drop=True))
    out = drift_no_change_check(a, b, "v", "k", key_name="k")
    assert out["no_drift"].all()


def test_drift_check_flags_real_drift(ray_session):
    import ray

    rng = np.random.default_rng(7)
    a = ray.data.from_pandas(pd.DataFrame(
        {"k": ["t"] * 20000, "v": rng.normal(10, 2, 20000)}))
    b = ray.data.from_pandas(pd.DataFrame(
        {"k": ["t"] * 20000, "v": rng.normal(30, 2, 20000)}))
    out = drift_no_change_check(a, b, "v", "k", key_name="k")
    assert not out["no_drift"].any()


def test_cdf_bound_check_passes_healthy(keyed_values):
    from t_digest_ray.pipelines.validation import cdf_bound_check

    ds, df = keyed_values
    out = cdf_bound_check(ds, "x", "k", tdigest_spec(100),
                          thresholds=(50.0, 100.0, 500.0))
    assert out["within_bound"].all()
    # exact columns really are the <= counts, incl. a threshold (100)
    # that is an entire group's max-side boundary
    for _, r in out.iterrows():
        v = df[df.k == r["k"]]["x"].to_numpy()
        assert r["le_0"] == int((v <= 50.0).sum())
        assert r["le_1"] == int((v <= 100.0).sum())
        assert r["le_2"] == int((v <= 500.0).sum())
        assert r["n"] == len(v)


def test_cdf_bound_check_flags_regression(keyed_values, monkeypatch):
    from t_digest_ray.pipelines import validation as V

    ds, _ = keyed_values
    spec = tdigest_spec(100)
    bad = spec.factory()
    bad.update_batch(np.full(10_000, 1e9))
    blob = bad.to_bytes()

    real = V.sketch_by_key

    def poisoned(*a, **kw):
        rows = real(*a, **kw).to_pandas()
        rows.loc[rows["key"] == "a", "sketch"] = blob
        rows.loc[rows["key"] == "a", "n"] = 10_000.0
        import ray.data as rd
        return rd.from_pandas(rows)

    monkeypatch.setattr(V, "sketch_by_key", poisoned)
    out = V.cdf_bound_check(ds, "x", "k", spec,
                            thresholds=(50.0, 100.0, 500.0))
    assert not out[out.k == "a"]["within_bound"].iloc[0]
    assert out[out.k == "b"]["within_bound"].iloc[0]


@pytest.fixture(scope="module")
def weighted_values(ray_session):
    import ray

    rng = np.random.default_rng(33)
    df = pd.DataFrame({
        "k": np.repeat(["a", "b"], 4000),
        "x": np.concatenate([rng.uniform(0, 100, 4000),
                             rng.normal(500, 50, 4000)]),
        "w": rng.integers(1, 50, 8000).astype(np.float64),
    })
    return ray.data.from_pandas(df).repartition(4), df


def test_weighted_quantile_bound_check_healthy(weighted_values):
    from t_digest_ray.pipelines.validation import (
        weighted_quantile_bound_check)

    ds, df = weighted_values
    out = weighted_quantile_bound_check(
        ds, "x", "w", "k", tdigest_spec(100),
        qs=(0.25, 0.5, 0.75)).to_pandas()
    assert out["within_bound"].all()
    # exact columns really are the weighted disc quantiles
    for _, r in out.iterrows():
        g = df[df.k == r["k"]].sort_values("x", kind="stable")
        cw = g["w"].cumsum().to_numpy()
        v = g["x"].to_numpy()
        idx = int(np.searchsorted(cw, 0.5 * cw[-1], side="left"))
        assert r["wp50"] == v[idx]


def test_weighted_quantile_gate_trips_on_unweighted_sketch(
        weighted_values, monkeypatch):
    """A sketch built WITHOUT the weights (the regression this gate
    exists for) must flip within_bound: its total weight is the row
    count, not Σw."""
    import t_digest_ray.pipelines.validation as V

    ds, _ = weighted_values

    real = V.sketch_by_key

    def unweighted(ds_, spec, value_col, key, weight_col=None, **kw):
        return real(ds_, spec, value_col, key, weight_col=None, **kw)

    monkeypatch.setattr(V, "sketch_by_key", unweighted)
    out = V.weighted_quantile_bound_check(
        ds, "x", "w", "k", tdigest_spec(100)).to_pandas()
    assert not out["within_bound"].any()


def test_scale_function_gate_all_eleven(keyed_values):
    from t_digest_ray.pipelines.validation import scale_function_gate
    from t_digest_ray.state.scale_functions import SCALE_FUNCTIONS

    ds, df = keyed_values
    out = scale_function_gate(ds, "x", rank_bound=0.02,
                              compression=200.0).to_pandas()
    assert sorted(out["scale_fn"]) == sorted(SCALE_FUNCTIONS)
    assert out["within_bound"].all()
    assert (out["n"] == len(df)).all()
    v = np.sort(df["x"].to_numpy())
    exact_p50 = v[max(int(np.ceil(0.5 * len(v))) - 1, 0)]
    assert (out["p50"] == exact_p50).all()


def test_recording_provenance_distributed_roundtrip(keyed_values):
    from t_digest_ray.pipelines.validation import recording_provenance_check

    ds, df = keyed_values
    out = recording_provenance_check(ds, "x", "k").to_pandas()
    assert len(out) == 2
    assert out["provenance_intact"].all()
    for _, r in out.iterrows():
        v = np.sort(df[df.k == r["k"]]["x"].to_numpy())
        assert r["n"] == len(v)
        assert r["p25"] == v[max(int(np.ceil(0.25 * len(v))) - 1, 0)]


def test_recording_digest_serde_preserves_multiset():
    from t_digest_ray.state.tdigest import RecordingDigest

    rng = np.random.default_rng(5)
    xa, xb = rng.normal(size=4000), rng.exponential(size=2500)
    a, b = RecordingDigest(100.0), RecordingDigest(100.0)
    a.update_batch(xa)
    b.update_batch(xb)
    # serde round-trip then merge (the distributed topology's byte path)
    m = RecordingDigest(100.0)
    m.merge(RecordingDigest.from_bytes(a.to_bytes()),
            RecordingDigest.from_bytes(b.to_bytes()))
    again = RecordingDigest.from_bytes(m.to_bytes())
    exact = np.sort(np.concatenate([xa, xb]))
    assert np.array_equal(again.recorded(), exact)
    assert float(again.size) == float(exact.size)
    # a dropped sample is detected: multisets no longer match
    lossy = RecordingDigest(100.0)
    lossy.update_batch(xa[:-1])
    assert not np.array_equal(lossy.recorded(), np.sort(xa))


def test_recording_from_bytes_rejects_plain_digest():
    from t_digest_ray.state.tdigest import RecordingDigest, TDigest

    d = TDigest(100.0)
    d.update_batch(np.arange(100.0))
    with pytest.raises(ValueError):
        RecordingDigest.from_bytes(d.to_bytes())


def test_table_fingerprint_order_invariant(ray_session):
    """Fingerprints are layout/order-invariant, and detect a single
    changed cell."""
    import ray.data as rd

    from t_digest_ray.pipelines.validation import table_fingerprint

    rng = np.random.default_rng(41)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], 3000),
        "u": rng.integers(0, 1 << 40, 3000).astype(np.int64),
        "c": rng.integers(0, 10**6, 3000).astype(np.int64)})

    outs = []
    for parts, frame in ((2, df), (7, df.iloc[::-1])):
        got = (table_fingerprint(
            rd.from_pandas(frame.reset_index(drop=True))
            .repartition(parts), "k", ["u", "c"])
            .to_pandas().sort_values("k").reset_index(drop=True))
        outs.append(got)
    pd.testing.assert_frame_equal(outs[0], outs[1])

    tweaked = df.copy()
    tweaked.loc[5, "c"] += 1
    other = (table_fingerprint(rd.from_pandas(tweaked), "k", ["u", "c"])
             .to_pandas().sort_values("k").reset_index(drop=True))
    same = (other[["cs_hi", "cs_lo"]].values
            == outs[0][["cs_hi", "cs_lo"]].values).all(axis=1)
    assert same.sum() == 2     # exactly the touched key differs


def test_quantile_family_report_gates(ray_session):
    """All five quantile sketches pass their own bounds on a seeded
    distribution at two layouts, and a poisoned bound fails."""
    import ray.data as rd

    from t_digest_ray.pipelines.validation import quantile_family_report

    rng = np.random.default_rng(47)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], 4000),
        "v": rng.integers(0, 1 << 16, 4000).astype(np.int64)})
    for parts in (1, 6):
        out = quantile_family_report(
            rd.from_pandas(df).repartition(parts), "v", "k")
        assert set(out["sketch"]) == {"tdigest", "kll", "req", "gk",
                                      "qdigest"}
        assert len(out) == 10
        assert out["within_bound"].all()
