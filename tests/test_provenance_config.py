"""Record-all-data provenance mode, config-driven jobs, adversarial-order
safe cases."""

from __future__ import annotations

import json

import numpy as np
import pytest

from t_digest_ray.config import JobConfig, run_job
from t_digest_ray.state.tdigest import RecordingDigest, TDigest


def test_recording_digest_lossless_through_merge(rng):
    """Split -> partial -> merge keeps the exact sample multiset
    (AccuracyTest.java:80-120 recordAllData provenance check)."""
    data = rng.uniform(0, 1, 10_000)
    parts = np.array_split(data, 7)
    subs = []
    for p in parts:
        d = RecordingDigest(100)
        d.update_batch(p)
        subs.append(d)
    merged = RecordingDigest(100)
    merged.merge(*subs)
    assert np.array_equal(merged.recorded(), np.sort(data))
    # and the digest itself still answers like a plain one
    plain = TDigest(100)
    plain.update_batch(data)
    assert abs(merged.quantile(0.5) - plain.quantile(0.5)) < 0.02


def test_recording_digest_rejects_nan_like_base():
    """NaN raises (TDigest.java:94-98) and nothing is recorded."""
    d = RecordingDigest(100)
    with pytest.raises(ValueError):
        d.update_batch([1.0, np.nan, 2.0])
    assert d.recorded().size == 0


def test_benign_orderings_stay_accurate():
    """Shuffled / sorted / interleaved-run input all stay well within the
    streaming bound (the adversarial driver's documented safe cases)."""
    import importlib.util
    import os

    spec = importlib.util.spec_from_file_location(
        "adversarial_attack",
        os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "scripts", "adversarial_attack.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    data = mod.orderings(1 << 15, 3)
    for name in ("shuffled", "sorted", "sawtooth"):
        err = mod.max_cdf_error(data[name], "K_2", 100.0, 512)
        assert err <= 0.01, f"{name}: {err}"


def test_job_config_quantiles(ray_session, tmp_path):
    cfg_file = tmp_path / "job.json"
    cfg_file.write_text(json.dumps({
        "pipeline": "quantiles",
        "input": "/root/testdata/sf0.001/documents.parquet",
        "columns": ["lang", "n_chars"],
        "value_col": "n_chars",
        "key": "lang",
        "params": {"compression": 100},
        "output": str(tmp_path / "out"),
    }))
    cfg = JobConfig.from_file(str(cfg_file))
    out = run_job(cfg).to_pandas()
    assert len(out) >= 1 and "q50" in out.columns
    import pyarrow.parquet as pq
    written = pq.read_table(str(tmp_path / "out"))
    assert written.num_rows == len(out)


def test_job_config_synthetic_distinct(ray_session):
    cfg = JobConfig(pipeline="distinct", input="synthetic:2000",
                    value_col="host", key="lang",
                    params={"p": 12})
    out = run_job(cfg).to_pandas()
    assert len(out) == 20 and (out["distinct_estimate"] > 0).all()


def test_job_config_validation(tmp_path):
    with pytest.raises(ValueError, match="unknown pipeline"):
        JobConfig(pipeline="nope", input="x")
    with pytest.raises(ValueError, match="checkpoint_dir"):
        JobConfig(pipeline="checkpointed", input="x")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"pipeline": "quantiles", "input": "x",
                               "bogus_key": 1}))
    with pytest.raises(ValueError, match="unknown config keys"):
        JobConfig.from_file(str(bad))


def test_config_round2_pipelines(ray_session, tmp_path):
    """The config runner covers the round-2 operators end-to-end."""
    sf = "/root/testdata/sf0.001"

    out = run_job(JobConfig(pipeline="sessionize",
                            input=f"{sf}/events.parquet",
                            columns=["user_id", "ts"],
                            value_col="ts", key="user_id",
                            params={"gap_s": 1800})).to_pandas()
    assert len(out) > 0 and (out["n_sessions"] >= 1).all()

    out = run_job(JobConfig(pipeline="watermark",
                            input=f"{sf}/events.parquet",
                            columns=["event_id", "ts"],
                            value_col="ts", key="event_id",
                            params={"lateness_s": 600})).to_pandas()
    assert set(out.columns) >= {"event_id", "on_time"}
    assert out["on_time"].all()  # events arrive in event_id order

    out = run_job(JobConfig(pipeline="dedup_keep",
                            input=f"{sf}/documents.parquet",
                            columns=["doc_id", "text"],
                            value_col="text", key="doc_id")).to_pandas()
    assert 0 < len(out) <= 500

    out = run_job(JobConfig(pipeline="drift_check",
                            input=f"{sf}/events.parquet",
                            columns=["event_type", "value"],
                            value_col="value", key="event_type",
                            params={"input_b": f"{sf}/events.parquet"})
                  ).to_pandas()
    assert out["no_drift"].all()  # identical datasets never drift

    idx = str(tmp_path / "cfg_ivf")
    out = run_job(JobConfig(pipeline="ivf_build",
                            input=f"{sf}/embeddings.parquet",
                            columns=["vec_id", "embedding"],
                            value_col="embedding", key="vec_id",
                            params={"index_dir": idx, "n_lists": 4,
                                    "sample_size": 64})).to_pandas()
    import glob
    assert glob.glob(f"{idx}/list=*/")


def test_config_source_prefixes(ray_session, tmp_path):
    """warc:/jsonl:/csv: config inputs run pipelines end-to-end and agree
    with the parquet-sourced run of the same job."""
    from t_digest_ray.sources.warc import write_warcish

    sf = "/root/testdata/sf0.001"

    def norm(df):
        return df.sort_values(df.columns.tolist()).reset_index(drop=True)

    base = norm(run_job(JobConfig(
        pipeline="distinct", input=f"{sf}/documents.parquet",
        columns=["lang", "n_chars"], value_col="n_chars", key="lang",
    )).to_pandas())

    # WARC: documents re-framed as header+payload records
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf}/documents.parquet",
                      columns=["doc_id", "lang", "n_chars", "text"])
    rows = t.to_pylist()
    write_warcish(str(tmp_path / "docs.warc"),
                  [r["text"].encode() for r in rows],
                  [{"X-doc_id": r["doc_id"], "X-lang": r["lang"],
                    "X-n_chars": r["n_chars"]} for r in rows])
    got = norm(run_job(JobConfig(
        pipeline="distinct", input=f"warc:{tmp_path}/docs.warc",
        value_col="n_chars", key="lang",
        params={"meta_fields": [["lang", "string"],
                                ["n_chars", "int64"]],
                "payload_column": None},
    )).to_pandas())
    assert got.equals(base)

    # JSONL with an extra field the schema projection must ignore
    import json as _json
    with open(tmp_path / "docs.jsonl", "w") as f:
        for r in rows:
            f.write(_json.dumps({"lang": r["lang"],
                                 "n_chars": r["n_chars"],
                                 "junk": "x"}) + "\n")
    got = norm(run_job(JobConfig(
        pipeline="distinct", input=f"jsonl:{tmp_path}/docs.jsonl",
        value_col="n_chars", key="lang",
        params={"schema": [["lang", "string"], ["n_chars", "int64"]]},
    )).to_pandas())
    assert got.equals(base)

    # CSV projected to the config's columns
    t.select(["lang", "n_chars"]).to_pandas().to_csv(
        tmp_path / "docs.csv", index=False)
    got = norm(run_job(JobConfig(
        pipeline="distinct", input=f"csv:{tmp_path}/docs.csv",
        columns=["lang", "n_chars"], value_col="n_chars", key="lang",
    )).to_pandas())
    assert got.equals(base)


def test_config_round3_pipelines(ray_session):
    """cdf and watermarked_window run from a JobConfig end-to-end."""
    sf = "/root/testdata/sf0.001"

    out = run_job(JobConfig(
        pipeline="cdf", input=f"{sf}/documents.parquet",
        columns=["lang", "n_chars"], value_col="n_chars", key="lang",
        params={"thresholds": [150.0, 300.0]},
    )).to_pandas()
    assert set(out.columns) == {"lang", "n", "cdf_le_0", "cdf_le_1"}
    assert ((out["cdf_le_0"] <= out["cdf_le_1"]) | out["cdf_le_1"].isna()).all()
    assert out["cdf_le_1"].between(0.0, 1.0).all()

    out = run_job(JobConfig(
        pipeline="watermarked_window", input=f"{sf}/events.parquet",
        columns=["event_id", "ts", "value"], value_col="value",
        key="event_id",
        params={"ts_col": "ts", "window_s": 21600, "lateness_s": 300},
    )).to_pandas()
    assert set(out.columns) == {"wkey", "value", "acc_i", "drop_i"}
    assert len(out) == 1000
    assert ((out["acc_i"] + out["drop_i"]) == 1).all()


def test_job_config_curation_ops(ray_session):
    docs = "/root/testdata/sf0.001/documents.parquet"
    out = run_job(JobConfig(
        pipeline="pack", input=docs, columns=["doc_id", "n_chars"],
        key="doc_id", value_col="n_chars",
        params={"budget": 50000})).to_pandas()
    assert {"doc_id", "offset", "shard_id"} <= set(out.columns)
    assert out["shard_id"].min() == 0

    out = run_job(JobConfig(
        pipeline="sample_stratified", input=docs,
        columns=["doc_id", "lang"], key="lang", value_col="doc_id",
        params={"k": 3})).to_pandas()
    assert out.groupby("lang").size().max() <= 3

    out = run_job(JobConfig(
        pipeline="sample_bernoulli", input=docs,
        columns=["doc_id", "lang"], value_col="doc_id",
        params={"rate": 0.5})).to_pandas()
    assert 0 < len(out) < 500

    out = run_job(JobConfig(
        pipeline="normalized_distinct", input=docs,
        columns=["lang", "text"], key="lang",
        value_col="text")).to_pandas()
    assert (out["n_distinct"] >= 1).all()


def test_job_config_join_topk_mixture(ray_session):
    docs = "/root/testdata/sf0.001/documents.parquet"
    out = run_job(JobConfig(
        pipeline="anti_join", input=docs, columns=["doc_id", "lang"],
        key="doc_id",
        params={"input_b": docs, "carry_cols": ["lang"]})).to_pandas()
    assert len(out) == 0  # every doc_id joins itself away

    out = run_job(JobConfig(
        pipeline="semi_join", input=docs, columns=["doc_id", "lang"],
        key="doc_id",
        params={"input_b": docs, "carry_cols": ["lang"]})).to_pandas()
    assert len(out) == 500

    out = run_job(JobConfig(
        pipeline="topk", input=docs, columns=["doc_id", "lang", "n_chars"],
        key="lang", value_col="n_chars",
        params={"id_col": "doc_id", "k": 2})).to_pandas()
    assert out.groupby("lang").size().max() <= 2

    out = run_job(JobConfig(
        pipeline="mixture", input=docs, columns=["doc_id", "lang"],
        key="lang", value_col="doc_id",
        params={"rates": {"en": 1.0}, "default_rate": 0.0})).to_pandas()
    assert set(out["lang"]) == {"en"}


def test_job_config_pack_nostraddle(ray_session):
    out = run_job(JobConfig(
        pipeline="pack_nostraddle",
        input="/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "n_chars"], key="doc_id", value_col="n_chars",
        params={"budget": 1500})).to_pandas()
    assert len(out) == 500
    load = out.groupby("shard_id")["n_chars"].sum()
    assert (load <= 1500).all()  # no doc straddles, none oversize here


def test_job_config_pack_by_key(ray_session):
    out = run_job(JobConfig(
        pipeline="pack_by_key",
        input="/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "lang", "n_chars"], key="lang",
        value_col="n_chars",
        params={"order_col": "doc_id", "budget": 1500})).to_pandas()
    assert len(out) == 500
    load = out.groupby(["lang", "shard_id"])["n_chars"].sum()
    assert (load <= 1500).all()


def test_job_config_sample_weighted(ray_session):
    out = run_job(JobConfig(
        pipeline="sample_weighted",
        input="/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "n_chars"], key="doc_id", value_col="n_chars",
        params={"num": 3, "log2_den": 12})).to_pandas()
    assert 0 < len(out) < 500


def test_job_config_sink_pipelines(ray_session, tmp_path):
    docs = "/root/testdata/sf0.001/documents.parquet"
    acks = run_job(JobConfig(
        pipeline="pack_write", input=docs,
        columns=["doc_id", "n_chars"], key="doc_id", value_col="n_chars",
        params={"budget": 1500, "out_dir": str(tmp_path / "p"),
                "shards_per_partition": 32})).to_pandas()
    assert acks["n_rows"].sum() == 500

    acks = run_job(JobConfig(
        pipeline="sort_write", input=docs,
        columns=["doc_id", "n_chars"], value_col="n_chars",
        params={"out_dir": str(tmp_path / "s"), "n_partitions": 4,
                "carry_cols": ("doc_id",)})).to_pandas()
    assert acks["n_rows"].sum() == 500


def test_job_config_r4_ops(ray_session):
    emb = "/root/testdata/sf0.001/embeddings.parquet"
    ev = "/root/testdata/sf0.001/events.parquet"

    out = run_job(JobConfig(
        pipeline="kmeans", input=emb, columns=["vec_id", "embedding"],
        key="vec_id", value_col="embedding",
        params={"k": 4, "dim": 64, "iters": 2})).to_pandas()
    assert out["n_vecs"].sum() == 500 and len(out) <= 4

    out = run_job(JobConfig(
        pipeline="kmeans_prototypes", input=emb,
        columns=["vec_id", "embedding"], key="vec_id",
        value_col="embedding",
        params={"k": 4, "dim": 64, "iters": 2, "m": 3})).to_pandas()
    assert out.groupby("cluster_id").size().max() <= 3

    out = run_job(JobConfig(
        pipeline="range_join", input=ev, columns=["value"],
        value_col="value",
        params={"input_b": ev, "delta_units": 1000})).to_pandas()
    assert (out["n_pairs"] > 0).all()  # every value matches itself

    out = run_job(JobConfig(
        pipeline="join_size", input=ev, columns=["user_id"],
        value_col="user_id", params={"input_b": ev})).to_pandas()
    assert out["exact_pairs"].iloc[0] > 0
    assert bool(out["within_bound"].iloc[0])


def test_config_analytics_routes(ray_session):
    """The config runner covers the exact-analytics wave end-to-end."""
    sf = "/root/testdata/sf0.001"
    ev = f"{sf}/events.parquet"
    docs = f"{sf}/documents.parquet"

    out = run_job(JobConfig(pipeline="percent_rank", input=ev,
                            columns=["event_type", "value"],
                            value_col="value",
                            key="event_type")).to_pandas()
    assert {"cnt", "pct_rank"} <= set(out.columns) and len(out) > 0

    out = run_job(JobConfig(pipeline="gini", input=ev,
                            columns=["event_type", "value"],
                            value_col="value",
                            key="event_type")).to_pandas()
    assert (out["gini"] > 0).all() and (out["gini"] < 1).all()

    out = run_job(JobConfig(pipeline="pareto", input=ev,
                            columns=["event_type", "event_id",
                                     "user_id", "value"],
                            key="event_type",
                            params={"x_col": "value", "y_col": "user_id",
                                    "id_col": "event_id"})).to_pandas()
    assert len(out) > 0

    out = run_job(JobConfig(pipeline="mode", input=ev,
                            columns=["event_type", "value"],
                            value_col="value",
                            key="event_type")).to_pandas()
    assert (out["mode_count"] >= 1).all()

    out = run_job(JobConfig(pipeline="benford", input=ev,
                            columns=["event_type", "value"],
                            value_col="value",
                            key="event_type")).to_pandas()
    assert set(out["digit"]) <= set(range(1, 10))

    out = run_job(JobConfig(pipeline="winsorized", input=ev,
                            columns=["event_type", "value"],
                            value_col="value",
                            key="event_type")).to_pandas()
    assert (out["n_clamped"] >= 0).all()

    out = run_job(JobConfig(pipeline="cusum", input=ev,
                            columns=["event_type", "ts", "event_id",
                                     "value"],
                            value_col="value", key="event_type",
                            params={"ts_col": "ts",
                                    "tie_col": "event_id",
                                    "drift_cents": 5000,
                                    "h_cents": 20000})).to_pandas()
    assert (out["max_cusum"] >= 0).all()

    out = run_job(JobConfig(pipeline="rfm", input=ev,
                            columns=["user_id", "ts", "value"],
                            value_col="value", key="user_id",
                            params={"ts_col": "ts"})).to_pandas()
    assert out["n_users"].sum() > 0

    out = run_job(JobConfig(pipeline="welch", input=ev,
                            columns=["event_type", "value"],
                            value_col="value", key="event_type",
                            params={"group_a": "click",
                                    "group_b": "view"})).to_pandas()
    assert len(out) == 1

    out = run_job(JobConfig(pipeline="bm25", input=docs,
                            columns=["doc_id", "text"],
                            value_col="text",
                            params={"id_col": "doc_id",
                                    "terms": ["value", "table"],
                                    "topk": 5})).to_pandas()
    assert len(out) == 5

    out = run_job(JobConfig(pipeline="jaccard_matrix", input=ev,
                            columns=["event_type", "user_id"],
                            value_col="user_id",
                            key="event_type")).to_pandas()
    assert (out["jaccard"] > 0).all()

    out = run_job(JobConfig(pipeline="quality_funnel", input=docs,
                            columns=["lang", "text"],
                            value_col="text", key="lang")).to_pandas()
    assert (out["n_docs"] > 0).all()

    out = run_job(JobConfig(pipeline="json_field", input=ev,
                            columns=["event_type", "props"],
                            value_col="props", key="event_type",
                            params={"field": "k"})).to_pandas()
    assert (out["n_with_field"] > 0).all()

    out = run_job(JobConfig(pipeline="token_cosine", input=docs,
                            columns=["lang", "text"],
                            value_col="text", key="lang",
                            params={"k": 10})).to_pandas()
    assert (out["cosine"] > 0).all()

    out = run_job(JobConfig(pipeline="fuzzy_clusters", input=docs,
                            columns=["lang", "text"],
                            value_col="lang")).to_pandas()
    # "en"/"es" (and kin) are one substitution apart -> >=1 cluster
    assert len(out) >= 1 and (out["n_heads"] >= 2).all()


def test_config_analytics_routes_wave2(ray_session):
    """Config coverage for the late-round analytics operators."""
    sf = "/root/testdata/sf0.001"
    ev = f"{sf}/events.parquet"
    docs = f"{sf}/documents.parquet"
    emb = f"{sf}/embeddings.parquet"

    out = run_job(JobConfig(pipeline="psi", input=ev,
                            columns=["event_type", "value"],
                            value_col="value", key="event_type",
                            params={"ref_group": "click",
                                    "cmp_group": "view"})).to_pandas()
    assert len(out) == 10

    out = run_job(JobConfig(pipeline="chi2_cells", input=docs,
                            columns=["lang", "source"],
                            value_col="source", key="lang")).to_pandas()
    assert (out["observed"] > 0).all()

    out = run_job(JobConfig(pipeline="hash_split", input=docs,
                            columns=["doc_id", "lang", "n_chars"],
                            key="lang",
                            params={"id_col": "doc_id",
                                    "stat_col": "n_chars"})).to_pandas()
    assert set(out["split"]) <= {"train", "test"}

    out = run_job(JobConfig(pipeline="top_ties", input=docs,
                            columns=["lang", "doc_id", "n_chars"],
                            value_col="n_chars", key="lang",
                            params={"id_col": "doc_id",
                                    "k": 2})).to_pandas()
    assert len(out) > 0

    out = run_job(JobConfig(pipeline="neyman", input=ev,
                            columns=["event_type", "value"],
                            value_col="value", key="event_type",
                            params={"total_n": 100})).to_pandas()
    assert out["alloc"].sum() == 100

    out = run_job(JobConfig(pipeline="moving_sum", input=ev,
                            columns=["event_type", "ts", "event_id",
                                     "value"],
                            value_col="value", key="event_type",
                            params={"ts_col": "ts",
                                    "tie_col": "event_id",
                                    "frame": 3})).to_pandas()
    assert (out["frame_sum_cents"] >= 0).all()

    out = run_job(JobConfig(pipeline="period_growth", input=ev,
                            columns=["ts", "value"],
                            value_col="value", key="ts",
                            params={"fmt": "%Y-%m-%d"})).to_pandas()
    assert (out["growth"] > 0).all()

    out = run_job(JobConfig(pipeline="entry_exit", input=ev,
                            columns=["user_id", "ts", "event_id",
                                     "event_type"],
                            value_col="event_type", key="user_id",
                            params={"ts_col": "ts",
                                    "tie_col": "event_id"})).to_pandas()
    assert out["n_users"].sum() > 0

    out = run_job(JobConfig(pipeline="breadth_hist", input=ev,
                            columns=["user_id", "event_type"],
                            value_col="event_type",
                            key="user_id")).to_pandas()
    assert out["n_members"].sum() > 0

    out = run_job(JobConfig(pipeline="topk_other", input=docs,
                            columns=["lang", "source"],
                            value_col="source", key="lang",
                            params={"k": 1})).to_pandas()
    assert (out["rank"] <= 1).all()

    out = run_job(JobConfig(pipeline="mannwhitney", input=ev,
                            columns=["event_type", "value"],
                            value_col="value", key="event_type",
                            params={"group_a": "click",
                                    "group_b": "view"})).to_pandas()
    assert len(out) == 1

    out = run_job(JobConfig(pipeline="kendall", input=ev,
                            columns=["event_id", "user_id"],
                            params={"x_col": "event_id",
                                    "y_col": "user_id"})).to_pandas()
    assert -1.0 <= out["tau_b"].iloc[0] <= 1.0

    out = run_job(JobConfig(pipeline="embedding_norms", input=emb,
                            columns=["vec_id", "embedding"],
                            value_col="embedding")).to_pandas()
    assert out["n"].iloc[0] > 0


def test_config_analytics_routes_wave3(ray_session):
    sf = "/root/testdata/sf0.001"
    ev = f"{sf}/events.parquet"
    docs = f"{sf}/documents.parquet"

    out = run_job(JobConfig(pipeline="vocab_richness", input=docs,
                            columns=["lang", "text"],
                            value_col="text", key="lang")).to_pandas()
    assert (out["n_vocab"] > 0).all() and (out["yule_k"] > 0).all()

    out = run_job(JobConfig(pipeline="fano", input=ev,
                            columns=["event_type", "ts"],
                            value_col="ts", key="event_type")).to_pandas()
    assert (out["n_windows"] > 1).all()

    out = run_job(JobConfig(pipeline="heatmap", input=ev,
                            columns=["event_type", "ts"],
                            value_col="ts", key="event_type")).to_pandas()
    assert out["n_events"].sum() > 0
    assert out["weekday"].between(0, 6).all()
    assert out["hour"].between(0, 23).all()

    out = run_job(JobConfig(pipeline="streaks", input=ev,
                            columns=["user_id", "ts", "event_id",
                                     "event_type"],
                            value_col="event_type", key="user_id",
                            params={"ts_col": "ts",
                                    "tie_col": "event_id"})).to_pandas()
    assert (out["n_runs"] >= 1).all() and (out["max_run"] >= 1).all()


def test_config_analytics_routes_wave4(ray_session):
    sf = "/root/testdata/sf0.001"
    ev = f"{sf}/events.parquet"
    docs = f"{sf}/documents.parquet"

    out = run_job(JobConfig(pipeline="session_durations", input=ev,
                            columns=["user_id", "ts", "event_id"],
                            key="user_id",
                            params={"ts_col": "ts",
                                    "tie_col": "event_id"})).to_pandas()
    assert out["n_sessions"].iloc[0] > 0

    out = run_job(JobConfig(pipeline="session_paths", input=ev,
                            columns=["user_id", "ts", "event_id",
                                     "event_type"],
                            value_col="event_type", key="user_id",
                            params={"ts_col": "ts",
                                    "tie_col": "event_id",
                                    "k": 5})).to_pandas()
    assert len(out) == 5 and (out["n_sessions"] >= 1).all()

    out = run_job(JobConfig(pipeline="k_anonymity", input=docs,
                            columns=["lang", "source"],
                            params={"qi_cols": ["lang", "source"],
                                    "k": 3})).to_pandas()
    assert out["n_rows"].iloc[0] > 0

    out = run_job(JobConfig(pipeline="autocorr", input=ev,
                            columns=["event_type", "ts"],
                            value_col="ts", key="event_type")).to_pandas()
    assert (out["n_pairs"] > 0).all()

    out = run_job(JobConfig(pipeline="change_detect", input=ev,
                            columns=["user_id", "event_type"],
                            value_col="event_type", key="user_id",
                            params={"half_a": "click",
                                    "half_b": "view",
                                    "k": 5})).to_pandas()
    assert len(out) == 5 and out["within_bound"].all()


def test_config_analytics_routes_wave5(ray_session):
    sf = "/root/testdata/sf0.001"
    ev = f"{sf}/events.parquet"

    out = run_job(JobConfig(pipeline="kll_pmf", input=ev,
                            columns=["event_type", "value"],
                            value_col="value", key="event_type",
                            params={"split_points": [10.0, 50.0],
                                    "k": 200})).to_pandas()
    assert out["within_bound"].all()
    assert set(out["bucket"]) <= {0, 1, 2}

    out = run_job(JobConfig(pipeline="float_histogram", input=ev,
                            columns=["event_type", "value"],
                            value_col="value", key="event_type",
                            params={"min_value": 0.001,
                                    "max_value": 1000.0,
                                    "param": 50.0})).to_pandas()
    assert out["cnt"].sum() > 0 and (out["bin"] >= 0).all()
    assert (out["bin_lb"] > 0).all()

    out = run_job(JobConfig(pipeline="log_histogram", input=ev,
                            columns=["event_type", "value"],
                            value_col="value", key="event_type",
                            params={"min_value": 0.001,
                                    "max_value": 1000.0,
                                    "param": 0.1})).to_pandas()
    assert out["cnt"].sum() > 0 and (out["bin"] <= 144).all()


def test_config_gk_and_qdigest_routes(ray_session):
    """Round-5 routes: the GK summary and q-digest sketches run through
    the generic sketch_by_key topology via config."""
    for pipeline, extra in (("gk", {"eps": 0.02}),
                            ("qdigest", {"k": 1024, "log_universe": 16})):
        cfg = JobConfig(pipeline=pipeline, input="synthetic:3000",
                        value_col="text_length", key="lang",
                        params=extra)
        out = run_job(cfg).to_pandas()
        assert len(out) >= 1 and "q50" in out.columns
        assert (out["q50"] > 0).all()


def test_config_shape_and_diversity_routes(ray_session, tmp_path):
    """Round-5 routes: shape_moments over the synthetic generator and
    embedding_diversity over a tiny parquet of labeled embeddings."""
    cfg = JobConfig(pipeline="shape_moments", input="synthetic:2000",
                    value_col="text_length", key="lang")
    out = run_job(cfg)
    out = out if hasattr(out, "columns") else out.to_pandas()
    assert {"skewness", "excess_kurtosis", "n_rows"} <= set(out.columns)
    assert len(out) >= 1

    import pandas as pd
    import numpy as np
    emb = pd.DataFrame({
        "label": [0, 0, 1],
        "embedding": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
    })
    p = tmp_path / "emb.parquet"
    emb.to_parquet(p)
    cfg = JobConfig(pipeline="embedding_diversity", input=str(p),
                    value_col="embedding", key="label",
                    params={"dim": 2})
    out = run_job(cfg)
    out = out if hasattr(out, "columns") else out.to_pandas()
    out = out.set_index("label")
    assert out.loc[0, "avg_pairwise_cos"] == 1.0
    assert out.loc[1, "avg_pairwise_cos"] == 0.0


def test_config_dgim_route(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    df = pd.DataFrame({
        "k": ["a"] * 200,
        "ts": pd.to_datetime(
            np.sort(np.random.default_rng(7).integers(
                0, 30 * 86_400_000_000, 200)), unit="us"),
    })
    p = tmp_path / "ev.parquet"
    df.to_parquet(p)
    cfg = JobConfig(pipeline="dgim", input=str(p), key="k",
                    params={"ts_col": "ts", "window_s": 7 * 86400})
    out = run_job(cfg).to_pandas()
    assert out.iloc[0]["within_bound"]


def test_config_latest_snapshot_route(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    base = pd.Timestamp("2025-01-01")
    df = pd.DataFrame({
        "user_id": [1, 1, 2],
        "ts": [base, base + pd.Timedelta("1h"), base],
        "event_id": [1, 2, 3],
        "op": ["U", "D", "U"],
        "event_type": ["a", "a", "b"],
        "cents": np.array([5, 0, 9], dtype=np.int64),
    })
    p = tmp_path / "log.parquet"
    df.to_parquet(p)
    cfg = JobConfig(pipeline="latest_snapshot", input=str(p),
                    key="user_id", value_col="cents")
    out = run_job(cfg).to_pandas()
    assert out["event_type"].tolist() == ["b"]
    assert out["sum_cents"].tolist() == [9]


def test_config_int8_quant_route(ray_session, tmp_path):
    import numpy as np
    import pandas as pd
    x = np.array([[0.0, 1.0], [1.0, 1.0]], dtype=np.float32)
    df = pd.DataFrame({"embedding": list(x),
                       "label": np.array([0, 1], dtype=np.int32)})
    p = tmp_path / "emb.parquet"
    df.to_parquet(p)
    cfg = JobConfig(pipeline="int8_quant", input=str(p),
                    value_col="embedding", key="label")
    out = run_job(cfg).to_pandas().set_index("label")
    # dim0 spans [0,1]: codes 0 and 255; dim1 constant: code 0
    assert out.loc[0, "sum_codes"] == 0
    assert out.loc[1, "sum_codes"] == 255


def test_config_new_route_smoke(ray_session, tmp_path):
    """ordered_collect / zorder_audit / fingerprint / jl_projection
    routes dispatch and produce sane shapes."""
    import numpy as np
    import pandas as pd
    df = pd.DataFrame({
        "k": np.array([1, 1, 2], dtype=np.int64),
        "ts": np.array([3, 1, 2], dtype=np.int64),
        "event_id": np.array([1, 2, 3], dtype=np.int64),
        "p": ["a", "b", "c"],
        "a": np.array([1, 5, 9], dtype=np.int64),
        "b": np.array([2, 6, 10], dtype=np.int64)})
    pq_path = tmp_path / "t.parquet"
    df.to_parquet(pq_path)

    out = run_job(JobConfig(pipeline="ordered_collect",
                            input=str(pq_path), key="k",
                            value_col="p", params={"k": 2}))
    got = out.to_pandas().set_index("k")
    assert got.loc[1, "collected"] == "b,a"

    out = run_job(JobConfig(pipeline="zorder_audit", input=str(pq_path),
                            params={"a_col": "a", "b_col": "b",
                                    "bits": 4, "n_partitions": 2}))
    assert out.to_pandas()["n_rows"].sum() == 3

    out = run_job(JobConfig(pipeline="fingerprint", input=str(pq_path),
                            key="k", params={"mix_cols": ["a", "b"]}))
    assert len(out.to_pandas()) == 2
