"""Exact-moment statistics (pipelines/stats.py) and the n-gram
decontamination / cluster-histogram ops vs in-process references."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

DOCS = "/root/testdata/sf0.001/documents.parquet"
EVENTS = "/root/testdata/sf0.001/events.parquet"


@pytest.fixture(scope="module")
def events_df():
    return pq.read_table(EVENTS).to_pandas()


def test_grouped_linear_fit_matches_numpy(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import grouped_linear_fit

    rng = np.random.default_rng(7)
    n = 5000
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], size=n),
        "x": rng.integers(1, 1000, size=n).astype(np.int64),
    })
    df["y"] = (df["x"] * 3 + rng.integers(0, 50, size=n)).astype(np.int64)

    got = grouped_linear_fit(rd.from_pandas(df).repartition(8),
                             "k", "x", "y").set_index("k")
    for k, g in df.groupby("k"):
        slope, intercept = np.polyfit(g["x"], g["y"], 1)
        assert got.loc[k, "n_rows"] == len(g)
        assert abs(got.loc[k, "slope"] - slope) < 1e-9
        assert abs(got.loc[k, "intercept"] - intercept) < 1e-6


def test_grouped_linear_fit_partition_invariant(ray_session):
    """Exact integer moments: bit-identical result at any partitioning."""
    import ray.data as rd

    from t_digest_ray.pipelines.stats import grouped_linear_fit

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "k": rng.choice(["p", "q"], size=800),
        "x": rng.integers(1, 10_000, size=800).astype(np.int64),
        "y": rng.integers(1, 10_000, size=800).astype(np.int64),
    })
    a = grouped_linear_fit(rd.from_pandas(df).repartition(1),
                           "k", "x", "y")
    b = grouped_linear_fit(rd.from_pandas(df).repartition(13),
                           "k", "x", "y")
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))


def _layout_ops():
    """Operator -> call over (events, documents) Datasets, for every
    operator on the keyed exchange."""
    from t_digest_ray.pipelines import stats as st
    from t_digest_ray.pipelines.relational import exact_quantiles_by_key

    e, d = "event_type", "lang"
    return {
        "threshold_exceed_counts": lambda ev, dc:
            st.threshold_exceed_counts(ev, e, "value", q=0.9),
        "interarrival_gaps": lambda ev, dc: st.interarrival_gaps(
            ev, "user_id", "ts", "event_id", e),
        "quantile_bucket_counts": lambda ev, dc:
            st.quantile_bucket_counts(ev, e, "value"),
        "grouped_pareto_frontier": lambda ev, dc:
            st.grouped_pareto_frontier(ev, e, "value", "user_id",
                                       "event_id"),
        "grouped_percent_rank": lambda ev, dc: st.grouped_percent_rank(
            ev, e, "value"),
        "grouped_gini": lambda ev, dc: st.grouped_gini(ev, e, "value"),
        "grouped_quantile_cont": lambda ev, dc: st.grouped_quantile_cont(
            ev, e, "value"),
        "grouped_mode": lambda ev, dc: st.grouped_mode(ev, e, "value"),
        "winsorized_mean_stats": lambda ev, dc: st.winsorized_mean_stats(
            ev, e, "value"),
        "rfm_segment_counts": lambda ev, dc: st.rfm_segment_counts(
            ev, "user_id", "ts", "value"),
        "grouped_spearman": lambda ev, dc: st.grouped_spearman(
            dc, d, "n_chars", "n_words"),
        "cusum_alarm_counts": lambda ev, dc: st.cusum_alarm_counts(
            ev, e, "ts", "event_id", "value", 5000, 20000),
        "top_distinct_value_rows": lambda ev, dc:
            st.top_distinct_value_rows(dc, d, "n_chars", "doc_id"),
        "psi_bin_report": lambda ev, dc: st.psi_bin_report(
            ev, e, "value", "click", "view"),
        "hill_tail_index": lambda ev, dc: st.hill_tail_index(
            ev, e, "value", k=20),
        "theil_sen_by_key": lambda ev, dc: st.theil_sen_by_key(
            dc, d, "n_chars", "n_words", "doc_id"),
        "global_desc_rank": lambda ev, dc: st.global_desc_rank(
            dc, "n_words", "doc_id"),
        "rrf_fused_topk": lambda ev, dc: st.rrf_fused_topk(
            dc, "doc_id", "n_chars", "n_words"),
        "hour_anova": lambda ev, dc: st.hour_anova(ev, e, "ts", "value"),
        "bootstrap_mean_ci": lambda ev, dc: st.bootstrap_mean_ci(
            ev, e, "event_id", "value", n_reps=20),
        "chao1_richness": lambda ev, dc: st.chao1_richness(
            ev, e, "user_id"),
        "simpson_diversity": lambda ev, dc: st.simpson_diversity(
            ev, e, "user_id"),
        "exact_quantiles_by_key": lambda ev, dc: exact_quantiles_by_key(
            ev, e, "value"),
    }


@pytest.mark.parametrize("op", list(_layout_ops()))
def test_keyed_ops_partition_invariant(ray_session, events_df, op):
    """The same rows split into 1 and 7 blocks give identical canonical
    frames (exact integer / fixed-order float folds everywhere)."""
    import ray.data as rd

    docs = pq.read_table(DOCS, columns=["doc_id", "lang", "n_chars",
                                        "text"]).to_pandas()
    docs["n_words"] = docs["text"].str.split().str.len().astype(np.int64)
    docs = docs.drop(columns="text")
    run = _layout_ops()[op]

    def frame(n_blocks: int) -> pd.DataFrame:
        out = run(rd.from_pandas(events_df).repartition(n_blocks),
                  rd.from_pandas(docs).repartition(n_blocks))
        out = out if isinstance(out, pd.DataFrame) else out.to_pandas()
        assert len(out)
        out = out[sorted(out.columns)]
        return out.sort_values(list(out.columns)).reset_index(drop=True)

    pd.testing.assert_frame_equal(frame(1), frame(7))


def test_threshold_exceed_counts_matches_pandas(ray_session, events_df):
    import math

    import ray.data as rd

    from t_digest_ray.pipelines.stats import threshold_exceed_counts

    got = (threshold_exceed_counts(
        rd.read_parquet(EVENTS, columns=["event_type", "value"])
        .repartition(6), "event_type", "value", q=0.99)
        .to_pandas().set_index("event_type").sort_index())

    for k, g in events_df.groupby("event_type"):
        v = np.sort(g["value"].to_numpy())
        p99 = float(v[max(int(math.ceil(0.99 * len(v))) - 1, 0)])
        assert got.loc[k, "p99"] == p99
        assert got.loc[k, "n_above"] == int((g["value"] > p99).sum())


def test_interarrival_gaps_match_pandas_lag(ray_session, events_df):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import interarrival_gaps

    ev = rd.read_parquet(
        EVENTS, columns=["user_id", "ts", "event_id", "event_type"]) \
        .repartition(6)
    got = interarrival_gaps(ev, "user_id", "ts", "event_id",
                            "event_type").to_pandas()

    df = events_df.sort_values(["user_id", "ts", "event_id"])
    us = df["ts"].astype("datetime64[us]").astype(np.int64)
    gap = us.groupby(df["user_id"]).diff()
    want = pd.DataFrame({"event_type": df["event_type"][gap.notna()],
                         "gap_us": gap[gap.notna()].astype(np.int64)})
    key = ["event_type", "gap_us"]
    pd.testing.assert_frame_equal(
        got.sort_values(key).reset_index(drop=True)[key],
        want.sort_values(key).reset_index(drop=True)[key])


def test_cluster_size_histogram(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.relational import cluster_size_histogram

    df = pd.DataFrame({"c": ["x"] * 5 + ["y"] * 5 + ["z"] * 2
                       + list("abcd")})
    got = (cluster_size_histogram(rd.from_pandas(df).repartition(4), "c")
           .to_pandas().sort_values("cluster_size")
           .reset_index(drop=True))
    want = pd.DataFrame({"cluster_size": np.int64([1, 2, 5]),
                         "n_clusters": np.int64([4, 1, 2])})
    pd.testing.assert_frame_equal(got, want)


def test_word_gram_hashes_boundaries():
    from t_digest_ray.functions.hashing import hash64
    from t_digest_ray.pipelines.textstats import _word_gram_hashes

    texts = pa.array(["a b c d", "x  y", "q", ""])
    h, doc_of = _word_gram_hashes(texts, 2)
    # doc0: "a b","b c","c d"; doc1 (empty token dropped): "x y";
    # doc2/doc3: too short
    want = hash64(np.array(["a b", "b c", "c d", "x y"], dtype=object))
    assert list(doc_of) == [0, 0, 0, 1]
    assert np.array_equal(np.sort(h), np.sort(want))


def test_ngram_contamination_counts(ray_session):
    import ray
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import (benchmark_gram_set,
                                                  ngram_contamination_counts)

    bench = ["the quick brown fox jumps", "hello world again and again"]
    docs = pd.DataFrame({
        "lang": ["en", "en", "de", "de"],
        "text": ["we saw the quick brown fox jumps high",  # contaminated
                 "completely clean text with no overlap at all",
                 "hello world again and again said twice",  # contaminated
                 "noch ein sauberes dokument ohne treffer"]})
    ref = ray.put(benchmark_gram_set(bench, 5))
    got = (ngram_contamination_counts(
        rd.from_pandas(docs).repartition(2), ref, 5, "lang")
        .to_pandas().sort_values("lang").reset_index(drop=True))
    want = pd.DataFrame({"lang": ["de", "en"],
                         "n_docs": np.int64([2, 2]),
                         "n_contaminated": np.int64([1, 1])})
    pd.testing.assert_frame_equal(got, want)


def test_config_routes_stats_ops(ray_session, tmp_path):
    """The config runner covers the stats/decontamination operators."""
    from t_digest_ray.config import JobConfig, run_job

    sf = "/root/testdata/sf0.001"

    out = run_job(JobConfig(pipeline="linear_fit",
                            input=f"{sf}/documents.parquet",
                            columns=["lang", "n_chars", "doc_id"],
                            key="lang", value_col="n_chars",
                            params={"y_col": "doc_id"})).to_pandas()
    assert len(out) == 5 and set(out.columns) == {
        "lang", "n_rows", "slope", "intercept"}

    out = run_job(JobConfig(pipeline="cluster_hist",
                            input=f"{sf}/documents.parquet",
                            columns=["text"],
                            value_col="text")).to_pandas()
    assert (out["cluster_size"] >= 1).all()

    out = run_job(JobConfig(pipeline="decontaminate",
                            input=f"{sf}/documents.parquet",
                            columns=["lang", "text"],
                            key="lang", value_col="text",
                            params={"bench_input":
                                    f"{sf}/documents.parquet",
                                    "n": 5})).to_pandas()
    # benchmark == corpus: every doc with >=5 tokens is contaminated
    assert (out["n_contaminated"] > 0).all()

    out = run_job(JobConfig(pipeline="interarrival",
                            input=f"{sf}/events.parquet",
                            columns=["user_id", "ts", "event_id",
                                     "event_type"],
                            key="user_id", value_col="ts",
                            params={"tie_col": "event_id",
                                    "carry_col": "event_type"})) \
        .to_pandas()
    assert (out["gap_us"] >= 0).all() and len(out) > 0

    out = run_job(JobConfig(pipeline="threshold_exceed",
                            input=f"{sf}/events.parquet",
                            columns=["event_type", "value"],
                            key="event_type", value_col="value",
                            params={"q": 0.9})).to_pandas()
    assert len(out) == 5 and (out["n_above"] > 0).all()


def test_grouped_zscore_outliers_matches_pandas(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import grouped_zscore_outliers

    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], size=4000),
        "x": rng.integers(0, 1000, size=4000).astype(np.int64)})
    got = grouped_zscore_outliers(rd.from_pandas(df).repartition(7),
                                  "k", "x", z=1.5).set_index("k")
    for k, g in df.groupby("k"):
        x = g["x"].to_numpy(dtype=np.float64)
        mean, std = x.mean(), x.std(ddof=1)
        assert got.loc[k, "n_rows"] == len(g)
        assert abs(got.loc[k, "mean"] - mean) < 1e-9
        assert abs(got.loc[k, "std"] - std) < 1e-9
        assert got.loc[k, "n_outliers"] == int(
            (np.abs(x - got.loc[k, "mean"])
             > 1.5 * got.loc[k, "std"]).sum())


def test_quantile_bucket_counts_balanced(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import quantile_bucket_counts

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"k": ["a"] * 1000,
                       "x": rng.permutation(1000).astype(np.int64)})
    got = (quantile_bucket_counts(rd.from_pandas(df).repartition(5),
                                  "k", "x")
           .to_pandas().sort_values("bucket").reset_index(drop=True))
    # distinct uniform values: exactly 100 rows per decile bucket
    assert got["bucket"].tolist() == list(range(10))
    assert (got["n_rows"] == 100).all()
    assert int(got["n_rows"].sum()) == 1000


def test_config_routes_zscore_buckets(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    sf = "/root/testdata/sf0.001"
    out = run_job(JobConfig(pipeline="zscore_outliers",
                            input=f"{sf}/documents.parquet",
                            columns=["lang", "n_chars"],
                            key="lang", value_col="n_chars",
                            params={"z": 2.0})).to_pandas()
    assert len(out) == 5 and "n_outliers" in out.columns

    out = run_job(JobConfig(pipeline="quantile_buckets",
                            input=f"{sf}/documents.parquet",
                            columns=["lang", "n_chars"],
                            key="lang", value_col="n_chars")).to_pandas()
    assert int(out["n_rows"].sum()) == 500


def test_key_skew_report(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.relational import key_skew_report

    df = pd.DataFrame({"k": ["hot"] * 90 + list("abcdefghij")})
    out = (key_skew_report(rd.from_pandas(df).repartition(4), "k")
           .to_pandas())
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n_rows"] == 100 and r["n_keys"] == 11
    assert r["max_count"] == 90 and r["p50_count"] == 1
    assert r["top_share_ppm"] == 900_000


def test_config_route_key_skew(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    out = run_job(JobConfig(pipeline="key_skew",
                            input="/root/testdata/sf0.001/events.parquet",
                            columns=["user_id"],
                            key="user_id")).to_pandas()
    assert len(out) == 1 and out.iloc[0]["n_rows"] == 1000


def test_ngram_decontaminate_filter_drops_rows(ray_session):
    import ray
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import (
        benchmark_gram_set, ngram_decontaminate_filter)

    bench = ["one two three four five"]
    docs = pd.DataFrame({
        "doc_id": np.int64([1, 2]),
        "text": ["zero one two three four five six",   # contaminated
                 "totally different words in this document"]})
    ref = ray.put(benchmark_gram_set(bench, 5))
    out = ngram_decontaminate_filter(
        rd.from_pandas(docs).repartition(2), ref, 5).to_pandas()
    assert out["doc_id"].tolist() == [2]
    assert set(out.columns) == {"doc_id", "text"}


def test_mutual_information_independent_and_dependent(ray_session):
    import math

    import ray.data as rd

    from t_digest_ray.pipelines.stats import mutual_information_report

    # Perfectly independent 2x2 (all cells 25): MI = 0.
    df = pd.DataFrame({"a": ["x"] * 50 + ["y"] * 50,
                       "b": (["p"] * 25 + ["q"] * 25) * 2})
    out = mutual_information_report(rd.from_pandas(df), "a", "b")
    assert int(out["n_rows"][0]) == 100
    assert int(out["n_cells"][0]) == 4
    assert abs(float(out["mutual_info"][0])) < 1e-12
    assert abs(float(out["h_a"][0]) - math.log(2.0)) < 1e-12

    # Perfect dependence (b == a): MI = H(a) = H(b) = H(joint).
    df2 = pd.DataFrame({"a": ["x"] * 30 + ["y"] * 70,
                        "b": ["x"] * 30 + ["y"] * 70})
    out2 = mutual_information_report(rd.from_pandas(df2), "a", "b")
    assert abs(float(out2["mutual_info"][0])
               - float(out2["h_a"][0])) < 1e-12
    assert abs(float(out2["h_joint"][0]) - float(out2["h_a"][0])) < 1e-12


def test_hill_tail_index_hand_computed(ray_session):
    import math

    import ray.data as rd

    from t_digest_ray.pipelines.stats import hill_tail_index

    # cents 1600, 800, 400, 200, 100 with k=3:
    # inv = (ln1600 + ln800 + ln400)/3 - ln200 = ln 2 exactly
    # (geometric mean of top-3 is 800 = 4x the boundary... compute it).
    df = pd.DataFrame({"k": ["t"] * 5,
                       "value": [16.0, 8.0, 4.0, 2.0, 1.0]})
    out = hill_tail_index(rd.from_pandas(df), "k", "value", k=3) \
        .to_pandas()
    assert int(out["n_pos"][0]) == 5
    assert int(out["k_eff"][0]) == 3
    assert int(out["x_boundary_cents"][0]) == 200
    s = math.log(1600.0) + math.log(800.0) + math.log(400.0)
    assert float(out["hill_inv_alpha"][0]) == s / 3.0 - math.log(200.0)


def test_hill_tail_index_small_group_guard(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import hill_tail_index

    # A single positive value: k_eff = 0, estimator defined as 0.
    df = pd.DataFrame({"k": ["t", "t"], "value": [5.0, -1.0]})
    out = hill_tail_index(rd.from_pandas(df), "k", "value", k=3) \
        .to_pandas()
    assert int(out["n_pos"][0]) == 1
    assert int(out["k_eff"][0]) == 0
    assert float(out["hill_inv_alpha"][0]) == 0.0


def test_theil_sen_recovers_line_with_outlier(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import theil_sen_by_key

    # y = 2x + 1 except one wild outlier; OLS would tilt, Theil-Sen not.
    x = np.arange(1, 12, dtype=np.int64)
    y = 2 * x + 1
    y[-1] = 1000
    df = pd.DataFrame({"k": ["a"] * 11, "id": np.arange(11),
                       "x": x, "y": y})
    out = theil_sen_by_key(rd.from_pandas(df), "k", "x", "y", "id", m=40)
    assert float(out["ts_slope"].iloc[0]) == 2.0
    assert float(out["ts_intercept"].iloc[0]) == 1.0


def test_theil_sen_cap_is_smallest_ids(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import theil_sen_by_key

    # ids 0..4 follow y=3x; ids 5..9 follow y=-7x. cap m=5 must see
    # ONLY the smallest five ids regardless of row order.
    df = pd.DataFrame({"k": ["a"] * 10,
                       "id": [9, 3, 7, 1, 5, 0, 8, 2, 6, 4],
                       "x": [9, 3, 7, 1, 5, 0, 8, 2, 6, 4]})
    df["y"] = np.where(df["id"] <= 4, 3 * df["x"], -7 * df["x"])
    out = theil_sen_by_key(rd.from_pandas(df), "k", "x", "y", "id", m=5)
    assert int(out["n_used"].iloc[0]) == 5
    assert float(out["ts_slope"].iloc[0]) == 3.0


def test_theil_sen_all_vertical_pairs(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import theil_sen_by_key

    df = pd.DataFrame({"k": ["a"] * 4, "id": range(4),
                       "x": [5, 5, 5, 5], "y": [1, 2, 3, 4]})
    out = theil_sen_by_key(rd.from_pandas(df), "k", "x", "y", "id")
    assert int(out["n_pairs"].iloc[0]) == 0
    assert float(out["ts_slope"].iloc[0]) == 0.0


def test_global_desc_rank_matches_window(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import global_desc_rank

    n = 500
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "v": rng.integers(0, 50, n).astype(np.int64)})
    out = (global_desc_rank(rd.from_pandas(df), "v", "id")
           .to_pandas().sort_values("id").reset_index(drop=True))
    exp = df.sort_values(["v", "id"], ascending=[False, True])
    exp["r"] = np.arange(1, n + 1)
    exp = exp.sort_values("id").reset_index(drop=True)
    assert out["r"].tolist() == exp["r"].tolist()


def test_rrf_prefers_consistently_high(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import rrf_fused_topk

    # doc 0 is rank 1 on both lists; doc 1 and 2 split the top spots.
    df = pd.DataFrame({"id": np.array([0, 1, 2, 3], dtype=np.int64),
                       "a": np.array([100, 90, 10, 5], dtype=np.int64),
                       "b": np.array([100, 10, 90, 5], dtype=np.int64)})
    out = rrf_fused_topk(rd.from_pandas(df), "id", "a", "b", k=4)
    assert int(out["id"].iloc[0]) == 0
    assert set(out["id"].iloc[1:3]) == {1, 2}
    assert int(out["id"].iloc[3]) == 3
    # tie between 1 and 2 broken by id asc
    assert int(out["id"].iloc[1]) == 1


def test_hour_anova_pure_hour_signal(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import hour_anova

    # value depends ONLY on the hour -> within-variance 0, R2 ~ 1e6.
    n = 480
    hours = np.arange(n) % 24
    df = pd.DataFrame({
        "k": ["a"] * n,
        "ts": pd.to_datetime(hours * 3600 + (np.arange(n) // 24) * 86400,
                             unit="s"),
        "value": (hours * 10 + 5) / 100.0})
    out = hour_anova(rd.from_pandas(df), "k", "ts", "value")
    assert int(out["var_within_ppm6"].iloc[0]) == 0
    assert int(out["r2_ppm"].iloc[0]) == 10**6
    assert int(out["n_hours"].iloc[0]) == 24


def test_hour_anova_no_hour_signal(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import hour_anova

    # hour-independent values: R2 should be tiny.
    n = 4800
    df = pd.DataFrame({
        "k": ["a"] * n,
        "ts": pd.to_datetime(rng.integers(0, 30 * 86400, n), unit="s"),
        "value": rng.integers(0, 10000, n) / 100.0})
    out = hour_anova(rd.from_pandas(df), "k", "ts", "value")
    assert int(out["r2_ppm"].iloc[0]) < 50_000  # < 5% explained


def test_bootstrap_ci_brackets_mean_and_is_layout_invariant(
        ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import bootstrap_mean_ci

    n = 3000
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": ["a"] * n,
        "value": rng.normal(50.0, 5.0, n).clip(1, 100)})
    a = bootstrap_mean_ci(rd.from_pandas(df), "k", "id", "value",
                          n_reps=60)
    mu = float(a["mean_cents"].iloc[0])
    assert float(a["ci_lo"].iloc[0]) < mu < float(a["ci_hi"].iloc[0])
    # CI width of a tight distribution stays near the mean
    assert float(a["ci_hi"].iloc[0]) - float(a["ci_lo"].iloc[0]) \
        < 0.2 * mu
    b = bootstrap_mean_ci(rd.from_pandas(df).repartition(17),
                          "k", "id", "value", n_reps=60)
    pd.testing.assert_frame_equal(a, b)


def test_permutation_test_detects_real_shift(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import permutation_test_means

    n = 1000
    df = pd.DataFrame({
        "id": np.arange(2 * n, dtype=np.int64),
        "k": ["A"] * n + ["B"] * n,
        "value": np.concatenate([rng.normal(80, 5, n),
                                 rng.normal(50, 5, n)]).clip(1, 200)})
    out = permutation_test_means(rd.from_pandas(df), "k", "id",
                                 "value", "A", "B", n_reps=100)
    assert int(out["n_extreme"].iloc[0]) == 0    # massive true shift
    assert float(out["obs_diff"].iloc[0]) > 2000  # cents


def test_permutation_test_null_is_uniformish(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import permutation_test_means

    n = 1000
    df = pd.DataFrame({
        "id": np.arange(2 * n, dtype=np.int64),
        "k": ["A"] * n + ["B"] * n,
        "value": rng.normal(50, 5, 2 * n).clip(1, 200)})
    out = permutation_test_means(rd.from_pandas(df), "k", "id",
                                 "value", "A", "B", n_reps=100)
    # same distribution: p should not be tiny
    assert int(out["p_ppm"].iloc[0]) > 50_000


def test_chao1_hand_counts(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import chao1_richness

    # abundances: x:1, y:1, z:2, w:3 -> D=4, f1=2, f2=1
    df = pd.DataFrame({"k": ["a"] * 7,
                       "item": ["x", "y", "z", "z", "w", "w", "w"]})
    out = chao1_richness(rd.from_pandas(df), "k", "item").to_pandas()
    assert out[["n_obs", "f1", "f2"]].values.tolist() == [[4, 2, 1]]
    assert int(out["chao1_milli"].iloc[0]) == 4000 + 2 * 1 * 1000 // 4


def test_simpson_diversity_hand(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import simpson_diversity

    # all same item: lambda = 1; all distinct: lambda = 0
    df = pd.DataFrame({"k": ["a"] * 4 + ["b"] * 4,
                       "item": ["x"] * 4 + ["p", "q", "r", "s"]})
    out = simpson_diversity(rd.from_pandas(df), "k", "item") \
        .to_pandas().set_index("k")
    assert int(out.loc["a", "simpson_ppm"]) == 10**6
    assert int(out.loc["b", "simpson_ppm"]) == 0
    assert int(out.loc["b", "gini_simpson_ppm"]) == 10**6


# ------------------------------------------------------------------
# DuckDB-checked exact ranks, typed composite keys and layout
# invariance of the keyed-exchange operators.

def _duck(sql: str, **tables) -> pd.DataFrame:
    import duckdb

    con = duckdb.connect()
    for name, df in tables.items():
        con.register(name, df)
    return con.execute(sql).fetchdf()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_psi_bin_report_cutpoints_match_duckdb_quantile_disc(ray_session):
    """n_bins=20 over reference values 1..100: the q=0.55 cutpoint is 55
    (a float rank ceil(0.55*100) would pick 56), so bin 10 holds
    exactly the five reference values 51..55."""
    import ray.data as rd

    from t_digest_ray.pipelines.stats import psi_bin_report

    df = pd.DataFrame({"k": ["ref"] * 100 + ["cmp"] * 60,
                       "value": np.r_[np.arange(1, 101),
                                      np.arange(1, 121, 2)]
                       .astype(np.float64)})
    got = psi_bin_report(rd.from_pandas(df).repartition(3), "k", "value",
                         "ref", "cmp", n_bins=20)
    qs = ", ".join(f"{(i + 1) / 20:g}" for i in range(19))
    want = _duck(f"""
        WITH cuts AS (SELECT unnest(quantile_disc(value, [{qs}])) AS c
                      FROM t WHERE k = 'ref'),
             b AS (SELECT k, (SELECT count(*) FROM cuts
                              WHERE cuts.c < t.value) AS bin FROM t)
        SELECT CAST(bin AS BIGINT) AS bin,
               count(*) FILTER (WHERE k = 'ref') AS ref_cnt,
               count(*) FILTER (WHERE k = 'cmp') AS cmp_cnt
        FROM b GROUP BY bin""", t=df)
    want = (pd.DataFrame({"bin": np.arange(20, dtype=np.int64)})
            .merge(want, on="bin", how="left").fillna(0)
            .astype(np.int64))
    pd.testing.assert_frame_equal(
        got[["bin", "ref_cnt", "cmp_cnt"]].reset_index(drop=True), want)
    assert int(got.loc[got["bin"] == 10, "ref_cnt"].iloc[0]) == 5


def test_quantile_bucket_counts_keeps_cuts_with_one_p_name(ray_session):
    """q=0.28 and q=0.29 both print as p28; each keeps its own cut, so
    bucket 1 holds exactly the value 29."""
    import ray.data as rd

    from t_digest_ray.pipelines.stats import quantile_bucket_counts

    df = pd.DataFrame({"k": ["a"] * 100,
                       "x": np.arange(1, 101, dtype=np.int64)})
    got = quantile_bucket_counts(rd.from_pandas(df).repartition(3), "k",
                                 "x", qs=(0.28, 0.29)).to_pandas()
    want = _duck("""
        WITH c AS (SELECT k, quantile_disc(x, [0.28, 0.29]) AS q
                   FROM t GROUP BY k)
        SELECT t.k,
               CAST((q[1] < x)::INT + (q[2] < x)::INT AS BIGINT)
                   AS bucket,
               count(*) AS n_rows
        FROM t JOIN c ON t.k = c.k GROUP BY 1, 2""", t=df)
    pd.testing.assert_frame_equal(_canon(got), _canon(want))
    assert got.loc[got["bucket"] == 1, "n_rows"].tolist() == [1]


def test_hour_anova_int64_key_matches_duckdb(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import hour_anova

    n = 600
    df = pd.DataFrame({
        "k": rng.integers(1, 3, n).astype(np.int64),
        "ts": pd.to_datetime(rng.integers(0, 10 * 86400, n), unit="s"),
        "value": rng.integers(0, 50_000, n) / 100.0})
    got = hour_anova(rd.from_pandas(df).repartition(5), "k", "ts",
                     "value")
    want = _duck("""
        WITH c AS (SELECT k, CAST(hour(ts) AS BIGINT) AS h,
                          CAST(FLOOR(value * 100 + 0.5) AS HUGEINT) AS v
                   FROM t),
             ph AS (SELECT k, h, CAST(COUNT(*) AS HUGEINT) AS n,
                           SUM(v) AS s1, SUM(v * v) AS s2
                    FROM c GROUP BY 1, 2),
             pt AS (SELECT k, SUM(n) AS nn, SUM(s1) AS t1, SUM(s2) AS t2,
                           COUNT(*) AS nh,
                           SUM((n * s2 - s1 * s1) * 1000000 // n) AS ssw
                    FROM ph GROUP BY 1)
        SELECT k, CAST(nn AS BIGINT) AS n_rows, CAST(nh AS BIGINT) AS n_hours,
               CAST((nn * t2 - t1 * t1) * 1000000 // (nn * nn) AS BIGINT)
                   AS var_total_ppm6,
               CAST(ssw // nn AS BIGINT) AS var_within_ppm6,
               CAST(CASE WHEN (nn * t2 - t1 * t1) > 0
                    THEN ((nn * t2 - t1 * t1) * 1000000 // nn - ssw)
                         * 1000000 // ((nn * t2 - t1 * t1) * 1000000 // nn)
                    ELSE 0 END AS BIGINT) AS r2_ppm
        FROM pt""", t=df)
    assert got["k"].dtype == np.int64
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


def test_bootstrap_mean_ci_int64_key_matches_duckdb(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import bootstrap_mean_ci

    n, reps = 400, 20
    df = pd.DataFrame({"id": np.arange(n, dtype=np.int64),
                       "k": rng.integers(1, 4, n).astype(np.int64),
                       "value": rng.integers(100, 90_000, n) / 100.0})
    got = bootstrap_mean_ci(rd.from_pandas(df).repartition(5), "k", "id",
                            "value", n_reps=reps)
    m64 = "CAST(18446744073709551616 AS UHUGEINT)"
    want = _duck(f"""
        WITH reps AS (SELECT UNNEST(generate_series(0, {reps - 1})) AS rep),
             c AS (SELECT k, id, CAST(FLOOR(value * 100 + 0.5) AS BIGINT)
                              AS v FROM t),
             x0 AS (SELECT c.*, reps.rep,
                           (CAST(id + rep * 1000003 AS UHUGEINT)
                            + CAST(11400714819323198485 AS UHUGEINT))
                           % {m64} AS z
                    FROM c CROSS JOIN reps),
             x1 AS (SELECT *, (xor(z, z >> 30)
                               * CAST(13787848793156543929 AS UHUGEINT))
                              % {m64} AS z1 FROM x0),
             x2 AS (SELECT *, (xor(z1, z1 >> 27)
                               * CAST(10723151780598845931 AS UHUGEINT))
                              % {m64} AS z2 FROM x1),
             xh AS (SELECT k, rep, v, xor(z2, z2 >> 31) AS h FROM x2),
             w AS (SELECT k, rep, v,
                          CAST(h % 2 + (h // 2) % 2 AS BIGINT) AS wt
                   FROM xh),
             m AS (SELECT k, rep, SUM(wt) AS nw, SUM(wt * v) AS sw
                   FROM w GROUP BY 1, 2),
             means AS (SELECT k, CAST(sw AS DOUBLE) / CAST(nw AS DOUBLE)
                                     AS mu
                       FROM m WHERE nw > 0),
             pt AS (SELECT k, CAST(COUNT(*) AS BIGINT) AS n_rows,
                           CAST(SUM(v) AS DOUBLE) / COUNT(*) AS mean_cents
                    FROM c GROUP BY 1)
        SELECT pt.k, pt.n_rows, pt.mean_cents,
               (SELECT quantile_disc(mu, 0.025) FROM means
                WHERE means.k = pt.k) AS ci_lo,
               (SELECT quantile_disc(mu, 0.975) FROM means
                WHERE means.k = pt.k) AS ci_hi
        FROM pt""", t=df)
    assert got["k"].dtype == np.int64
    pd.testing.assert_frame_equal(_canon(got), _canon(want))


def test_rrf_fused_topk_string_ids_match_duckdb(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.stats import rrf_fused_topk

    n = 200
    df = pd.DataFrame({"id": [f"doc-{i:04d}" for i in range(n)],
                       "a": rng.integers(0, 30, n).astype(np.int64),
                       "b": rng.integers(0, 30, n).astype(np.int64)})
    got = rrf_fused_topk(rd.from_pandas(df).repartition(4), "id", "a", "b",
                         k=10)
    want = _duck("""
        WITH r AS (SELECT id,
                          ROW_NUMBER() OVER (ORDER BY a DESC, id ASC) AS ra,
                          ROW_NUMBER() OVER (ORDER BY b DESC, id ASC) AS rb
                   FROM t)
        SELECT id, CAST(ra AS BIGINT) AS ra, CAST(rb AS BIGINT) AS rb,
               1.0 / (60 + ra) + 1.0 / (60 + rb) AS rrf
        FROM r ORDER BY rrf DESC, id ASC LIMIT 10""", t=df)
    pd.testing.assert_frame_equal(
        got[["id", "ra", "rb", "rrf"]].reset_index(drop=True), want)
