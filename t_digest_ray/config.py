"""Job configuration (SURVEY.md §2.3 #29 — the reference drives experiments
from ``.properties``/``.conf`` files, IIDgenerator.java:92-127; our analogue
is a JSON job spec consumed by ``scripts/run_job.py`` / ``ray job submit``).

Example::

    {
      "pipeline": "quantiles",            // quantiles|kll|req|distinct|
                                          // heavy|dedup|checkpointed
      "input": "/data/pages",             // parquet file/dir, "synthetic:N",
                                          // or "warc:/dir" "jsonl:/dir"
                                          // "csv:/dir" (see source params)
      "columns": ["lang", "text_length"], // read-pruned columns
      "value_col": "text_length",
      "key": "lang",
      "params": {"compression": 200},
      "output": "/out/quantiles",         // parquet dir (omit -> stdout)
      "checkpoint_dir": "/ckpt/job1"      // checkpointed pipeline only
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

PIPELINES = ("quantiles", "kll", "req", "distinct", "heavy", "heavy_mg",
             "dedup",
             "dedup_keep", "simhash", "checkpointed", "sessionize",
             "watermark", "watermarked_window", "cdf", "ivf_build",
             "drift_check", "pack", "sample_stratified",
             "sample_bernoulli", "normalized_distinct", "semi_join",
             "anti_join", "topk", "mixture", "pack_nostraddle",
             "pack_by_key", "sample_weighted", "pack_write", "sort_write",
             "kmeans", "kmeans_prototypes", "range_join", "join_size",
             "token_topk", "token_df", "dominant_term", "scrub_stats",
             "scrub", "trimmed_mean", "bigram_topk", "rollup",
             "repetition", "iqr_outliers", "export_text", "linear_fit",
             "cluster_hist", "decontaminate", "interarrival",
             "threshold_exceed", "zscore_outliers", "quantile_buckets",
             "key_skew", "turnstile", "line_dedup_stats", "line_dedup",
             "kmv_distinct", "ddsketch", "countsketch_topk",
             "freqdir_gram", "priority_sample", "pareto", "percent_rank",
             "gini", "quantile_cont", "mode", "benford", "winsorized",
             "cusum", "rfm", "bm25", "jaccard_matrix", "locf", "welch",
             "pearson", "spearman", "quality_funnel", "json_field",
             "cooccurrence", "token_cosine", "fuzzy_pairs",
             "fuzzy_clusters", "psi", "chi2_cells", "hash_split",
             "top_ties", "neyman", "moving_sum", "period_growth",
             "entry_exit", "breadth_hist", "topk_other",
             "mannwhitney", "kendall", "embedding_norms",
             "vocab_richness", "fano", "heatmap", "streaks",
             "session_durations", "session_paths", "k_anonymity",
             "autocorr", "change_detect", "kll_pmf", "float_histogram",
             "log_histogram", "dup_spans", "dup_span_drop",
             "dup_span_rewrite", "dsir", "nb_confusion", "pagerank",
             "hits", "markov_accuracy", "token_entropy", "zipf_slope",
             "heaps_law", "markov_entropy", "mutual_info", "hill_tail",
            "gk", "qdigest", "shape_moments", "embedding_diversity",
            "median_of_means", "dgim", "latest_snapshot", "int8_quant",
            "ordered_collect", "sequence_patterns", "zorder_audit",
            "fingerprint", "jl_projection", "pq_codebook",
            "triangle_count", "selection_quantiles", "theil_sen",
            "snm_pairs")


@dataclass
class JobConfig:
    pipeline: str
    input: str
    value_col: str | None = None
    key: str | None = None
    columns: list[str] | None = None
    params: dict[str, Any] = field(default_factory=dict)
    output: str | None = None
    checkpoint_dir: str | None = None

    def __post_init__(self) -> None:
        if self.pipeline not in PIPELINES:
            raise ValueError(
                f"unknown pipeline {self.pipeline!r}; one of {PIPELINES}")
        if self.pipeline == "checkpointed" and not self.checkpoint_dir:
            raise ValueError("checkpointed pipeline needs checkpoint_dir")

    @classmethod
    def from_file(cls, path: str) -> "JobConfig":
        with open(path) as f:
            raw = json.load(f)
        known = {k: raw.pop(k) for k in list(raw)
                 if k in cls.__dataclass_fields__}
        if raw:
            raise ValueError(f"unknown config keys: {sorted(raw)}")
        return cls(**known)


def _source_paths(path: str, ext: str) -> list[str]:
    import glob
    import os

    if os.path.isdir(path):
        return sorted(glob.glob(os.path.join(path, f"*.{ext}")))
    return [path]


def build_dataset(cfg: JobConfig, params: dict | None = None):
    """Input dataset from the config: parquet path, synthetic pages, or a
    ``warc:``/``jsonl:``/``csv:`` prefixed file/dir.

    Source-only options live in ``params`` and are popped here so they
    never leak into pipeline kwargs: ``warc:`` needs ``meta_fields``
    (``[[name, arrow-type-alias], ...]``, e.g. ``[["doc_id", "int64"]]``)
    and optionally ``payload_column``; ``jsonl:`` needs ``schema`` in the
    same ``[[name, type], ...]`` shape; ``csv:`` uses ``columns``. A
    parquet input reads one block per file, up to a mean of 65,536 rows
    (``partitioning.read_parquet_per_file``)."""
    from .stages.partitioning import read_parquet_per_file

    p = params if params is not None else dict(cfg.params)
    if cfg.input.startswith("synthetic:"):
        from .sources.pages import synthetic_pages
        from .stages.extract import derive_metrics

        n = int(cfg.input.split(":", 1)[1])
        pages = synthetic_pages(n, parallelism=max(n // 16_384, 1))
        return pages.map_batches(derive_metrics, batch_format="pyarrow")
    if cfg.input.startswith(("warc:", "jsonl:", "csv:")):
        import pyarrow as pa

        fmt, path = cfg.input.split(":", 1)
        if fmt == "warc":
            from .sources.warc import read_warcish

            meta = [(n, pa.type_for_alias(t))
                    for n, t in p.pop("meta_fields")]
            return read_warcish(_source_paths(path, "warc"), meta,
                                payload_column=p.pop("payload_column",
                                                     "text"))
        if fmt == "jsonl":
            from .sources.text_files import read_jsonl

            schema = pa.schema([(n, pa.type_for_alias(t))
                                for n, t in p.pop("schema")])
            return read_jsonl(_source_paths(path, "jsonl"), schema)
        from .sources.text_files import read_csv

        return read_csv(_source_paths(path, "csv"), cfg.columns)
    return read_parquet_per_file(cfg.input, cfg.columns)


def run_job(cfg: JobConfig):
    """Execute the configured pipeline; returns the result Dataset (already
    written to cfg.output if set)."""
    p = dict(cfg.params)
    ds = build_dataset(cfg, p)

    if cfg.pipeline == "quantiles":
        from .pipelines.quantiles import quantiles_by_key
        out = quantiles_by_key(ds, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline == "kll":
        from .pipelines.quantiles import kll_quantiles_by_key
        out = kll_quantiles_by_key(ds, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline == "req":
        from .pipelines.quantiles import req_quantiles_by_key
        out = req_quantiles_by_key(ds, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline == "gk":
        from .pipelines.quantiles import gk_spec
        from .stages.aggregate import sketch_by_key, summarize
        spec = gk_spec(eps=p.pop("eps", 0.01))
        out = summarize(sketch_by_key(ds, spec, cfg.value_col, cfg.key, **p),
                        spec, key_name=cfg.key or "key")
    elif cfg.pipeline == "qdigest":
        from .pipelines.quantiles import qdigest_spec
        from .stages.aggregate import sketch_by_key, summarize
        spec = qdigest_spec(k=p.pop("k", 2048),
                            log_universe=p.pop("log_universe", 16))
        out = summarize(sketch_by_key(ds, spec, cfg.value_col, cfg.key, **p),
                        spec, key_name=cfg.key or "key")
    elif cfg.pipeline == "dgim":
        from .pipelines.windows import dgim_window_report
        out = dgim_window_report(ds, cfg.key, p.pop("ts_col", "ts"), **p)
    elif cfg.pipeline == "median_of_means":
        from .pipelines.stats import median_of_means
        out = median_of_means(ds, p.pop("id_col", "doc_id"), cfg.key,
                              cfg.value_col, **p)
    elif cfg.pipeline == "latest_snapshot":
        from .pipelines.relational import latest_snapshot_stats
        out = latest_snapshot_stats(
            ds, cfg.key, p.pop("ts_col", "ts"),
            p.pop("seq_col", "event_id"), p.pop("op_col", "op"),
            p.pop("attr_col", "event_type"), cfg.value_col, **p)
    elif cfg.pipeline == "int8_quant":
        from .pipelines.clustering import scalar_quantization_stats
        out = scalar_quantization_stats(ds, cfg.value_col, cfg.key)
    elif cfg.pipeline == "ordered_collect":
        from .pipelines.relational import ordered_collect
        out = ordered_collect(ds, cfg.key, p.pop("order_col", "ts"),
                              p.pop("tie_col", "event_id"),
                              cfg.value_col, **p)
    elif cfg.pipeline == "sequence_patterns":
        from .pipelines.windows import sequence_pattern_counts
        out = sequence_pattern_counts(
            ds, cfg.key, p.pop("order_col", "ts"),
            p.pop("tie_col", "event_id"), cfg.value_col,
            p.pop("code_map"), p.pop("patterns"), **p)
    elif cfg.pipeline == "zorder_audit":
        from .stages.partitioning import zorder_partition_report
        out = zorder_partition_report(ds, p.pop("a_col", "a"),
                                      p.pop("b_col", "b"), **p)
    elif cfg.pipeline == "fingerprint":
        from .pipelines.validation import table_fingerprint
        out = table_fingerprint(ds, cfg.key, p.pop("mix_cols"), **p)
    elif cfg.pipeline == "jl_projection":
        from .pipelines.clustering import jl_projection_stats
        out = jl_projection_stats(ds, cfg.value_col, cfg.key,
                                  dim=p.pop("dim", 64), **p)
    elif cfg.pipeline == "pq_codebook":
        from .pipelines.clustering import pq_codebook_stats
        out = pq_codebook_stats(ds, cfg.value_col,
                                p.pop("id_col", "vec_id"),
                                dim=p.pop("dim", 64), **p)
    elif cfg.pipeline == "shape_moments":
        from .pipelines.stats import grouped_shape_moments
        out = grouped_shape_moments(ds, cfg.key, cfg.value_col)
    elif cfg.pipeline == "embedding_diversity":
        from .pipelines.clustering import embedding_diversity
        out = embedding_diversity(ds, cfg.value_col, cfg.key,
                                  dim=p.pop("dim", 64), **p)
    elif cfg.pipeline == "distinct":
        from .pipelines.distinct import distinct_by_key
        out = distinct_by_key(ds, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline == "heavy":
        from .pipelines.heavy import heavy_hitters
        out = heavy_hitters(ds, cfg.value_col, **p)
    elif cfg.pipeline == "heavy_mg":
        from .pipelines.heavy import heavy_hitters_mg
        out = heavy_hitters_mg(ds, cfg.value_col, **p)
    elif cfg.pipeline == "dedup":
        from .stages.dedup import minhash_lsh_pairs
        out = minhash_lsh_pairs(ds, cfg.value_col, cfg.key or "doc_id", **p)
    elif cfg.pipeline == "dedup_keep":
        from .stages.dedup import minhash_dedup_keep
        out = minhash_dedup_keep(ds, cfg.value_col, cfg.key or "doc_id", **p)
    elif cfg.pipeline == "simhash":
        from .stages.dedup import simhash_pairs
        out = simhash_pairs(ds, cfg.value_col, cfg.key or "doc_id", **p)
    elif cfg.pipeline == "sessionize":
        from .pipelines.windows import sessionize
        out = sessionize(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "watermark":
        from .pipelines.windows import watermark_flags
        # value_col = event-time column; key = arrival-order column
        out = watermark_flags(ds, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline == "watermarked_window":
        from .pipelines.windows import watermarked_window_split
        # params: ts_col, window_s, lateness_s (+ optional key_col ...);
        # value_col = metric column; key = arrival-order column
        out = watermarked_window_split(ds, p.pop("ts_col"), cfg.key,
                                       cfg.value_col, **p)
    elif cfg.pipeline == "cdf":
        from .pipelines.quantiles import cdf_by_key
        out = cdf_by_key(ds, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline == "ivf_build":
        from .stages.ann_index import build_ivf_index
        index_dir = p.pop("index_dir")
        build_ivf_index(ds, index_dir,
                        vec_col=cfg.value_col or "embedding",
                        id_col=cfg.key or "vec_id", **p)
        import glob

        import ray.data as rd
        parts = sorted(glob.glob(f"{index_dir}/list=*/*.parquet"))
        out = rd.read_parquet(parts, columns=[cfg.key or "vec_id"])
    elif cfg.pipeline == "pack":
        from .pipelines.curation import prefix_sum_shards
        # key = order column; value_col = weight column (token count)
        out = prefix_sum_shards(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "pack_nostraddle":
        from .pipelines.curation import greedy_pack_shards
        # key = order column; value_col = weight column (token count)
        out = greedy_pack_shards(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "pack_by_key":
        from .pipelines.curation import greedy_pack_by_key
        # key = stratum; value_col = weight; params: order_col, budget
        out = greedy_pack_by_key(ds, cfg.key, p.pop("order_col"),
                                 cfg.value_col, **p)
    elif cfg.pipeline == "pack_write":
        from .pipelines.checkpoint import write_packed_shards
        # key = order column; value_col = weight; params: budget, out_dir
        out = write_packed_shards(ds, cfg.key, cfg.value_col,
                                  p.pop("budget"), p.pop("out_dir"), **p)
    elif cfg.pipeline == "sort_write":
        from .pipelines.checkpoint import sorted_range_write
        # value_col = sort column; params: out_dir, n_partitions
        out = sorted_range_write(ds, cfg.value_col, p.pop("out_dir"),
                                 p.pop("n_partitions"), **p)
    elif cfg.pipeline == "sample_stratified":
        from .pipelines.curation import stratified_sample
        # key = stratum column; value_col = row-id column
        out = stratified_sample(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "sample_bernoulli":
        from .pipelines.curation import bernoulli_sample
        out = bernoulli_sample(ds, cfg.value_col, **p)
    elif cfg.pipeline == "sample_weighted":
        from .pipelines.curation import weighted_bernoulli_sample
        # key = id column; value_col = weight; params: num, log2_den
        out = weighted_bernoulli_sample(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "normalized_distinct":
        from .pipelines.curation import normalized_distinct_by_key
        out = normalized_distinct_by_key(ds, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline in ("semi_join", "anti_join"):
        import ray.data as rd

        from .pipelines.relational import hash_semi_anti_join
        # key = join key; params: input_b (right side, key column only),
        # carry_cols (left columns to keep)
        ds_b = rd.read_parquet(p.pop("input_b"), columns=[cfg.key])
        out = hash_semi_anti_join(ds, ds_b, cfg.key,
                                  p.pop("carry_cols", []),
                                  anti=cfg.pipeline == "anti_join", **p)
    elif cfg.pipeline == "topk":
        from .pipelines.curation import topk_per_key
        # key = stratum; value_col = ranking value; params: id_col, k
        out = topk_per_key(ds, cfg.key, cfg.value_col, p.pop("id_col"),
                           **p)
    elif cfg.pipeline == "mixture":
        from .pipelines.curation import weighted_mixture
        # key = stratum; value_col = row id; params: rates {key: rate}
        out = weighted_mixture(ds, cfg.key, cfg.value_col,
                               p.pop("rates"), **p)
    elif cfg.pipeline == "kmeans":
        from .pipelines.clustering import kmeans_cluster_stats
        # key = id column; value_col = embedding column; params: k, dim,
        # iters
        out = kmeans_cluster_stats(ds, cfg.value_col or "embedding",
                                   cfg.key or "vec_id", **p)
    elif cfg.pipeline == "kmeans_prototypes":
        from .pipelines.clustering import kmeans_prototypes
        out = kmeans_prototypes(ds, cfg.value_col or "embedding",
                                cfg.key or "vec_id", **p)
    elif cfg.pipeline == "range_join":
        import ray.data as rd

        from .pipelines.relational import range_join_count
        # value_col = left value column; params: input_b, right_val,
        # delta_units (+ grid, out_div)
        right_val = p.pop("right_val", cfg.value_col)
        ds_b = rd.read_parquet(p.pop("input_b"), columns=[right_val])
        out = range_join_count(ds, ds_b, cfg.value_col, right_val, **p)
    elif cfg.pipeline == "join_size":
        import ray.data as rd

        from .pipelines.heavy import join_size_estimate
        ds_b = rd.read_parquet(p.pop("input_b"), columns=[cfg.value_col])
        out = rd.from_arrow(join_size_estimate(ds, ds_b, cfg.value_col,
                                               **p))
    elif cfg.pipeline == "token_topk":
        from .pipelines.textstats import token_topk
        # value_col = text column; params: k
        out = token_topk(ds, cfg.value_col or "text", p.pop("k", 20), **p)
    elif cfg.pipeline == "bigram_topk":
        from .pipelines.textstats import bigram_topk
        out = bigram_topk(ds, cfg.value_col or "text", p.pop("k", 20),
                          **p)
    elif cfg.pipeline == "rollup":
        import ray.data as rd

        from .pipelines.relational import rollup_stats
        # key = comma-joined key hierarchy; value_col = metric
        out = rd.from_pandas(rollup_stats(ds, cfg.key.split(","),
                                          cfg.value_col, **p))
    elif cfg.pipeline == "repetition":
        from .pipelines.textstats import repetition_stats
        out = repetition_stats(ds, cfg.value_col or "text",
                               cfg.key or "doc_id", **p)
    elif cfg.pipeline == "iqr_outliers":
        from .pipelines.relational import iqr_outlier_stats
        out = iqr_outlier_stats(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "token_df":
        from .pipelines.textstats import token_df_stats
        # value_col = text column; key = id column
        out = token_df_stats(ds, cfg.value_col or "text",
                             cfg.key or "doc_id")
    elif cfg.pipeline == "dominant_term":
        from .pipelines.textstats import dominant_term
        out = dominant_term(ds, cfg.value_col or "text",
                            cfg.key or "doc_id", **p)
    elif cfg.pipeline == "scrub_stats":
        from .pipelines.textstats import regex_scrub_stats
        # value_col = text column; key = group column; params: pattern
        # (+ replacement)
        out = regex_scrub_stats(ds, cfg.value_col or "text", cfg.key,
                                p.pop("pattern"), **p)
    elif cfg.pipeline == "scrub":
        from .pipelines.textstats import scrub_text
        out = scrub_text(ds, cfg.value_col or "text",
                         cfg.key or "doc_id", p.pop("pattern"), **p)
    elif cfg.pipeline == "trimmed_mean":
        from .pipelines.quantiles import tdigest_spec
        from .pipelines.validation import trimmed_mean_bound_check
        out = trimmed_mean_bound_check(
            ds, cfg.value_col, cfg.key,
            tdigest_spec(p.pop("compression", 100.0)), **p)
    elif cfg.pipeline == "drift_check":
        import ray.data as rd

        from .pipelines.validation import drift_no_change_check
        ds_b = rd.read_parquet(p.pop("input_b"), columns=cfg.columns)
        out = rd.from_pandas(drift_no_change_check(
            ds, ds_b, cfg.value_col, cfg.key,
            key_name=cfg.key or "key", **p))
    elif cfg.pipeline == "linear_fit":
        import ray.data as rd

        from .pipelines.stats import grouped_linear_fit
        # value_col = x column; params: y_col
        out = rd.from_pandas(grouped_linear_fit(
            ds, cfg.key, cfg.value_col, p.pop("y_col")))
    elif cfg.pipeline == "cluster_hist":
        from .pipelines.relational import cluster_size_histogram
        out = cluster_size_histogram(ds, cfg.value_col or "text", **p)
    elif cfg.pipeline == "decontaminate":
        import ray

        import pyarrow.parquet as pq

        from .pipelines.textstats import (benchmark_gram_set,
                                          ngram_contamination_counts)
        # params: bench_input (parquet of the SMALL benchmark side),
        # n (gram width); value_col = text column; key = group column
        text_col = cfg.value_col or "text"
        bench = pq.read_table(p.pop("bench_input"),
                              columns=[text_col])[text_col]
        n = int(p.pop("n", 13))
        ref = ray.put(benchmark_gram_set(bench.to_pylist(), n))
        out = ngram_contamination_counts(ds, ref, n, cfg.key,
                                         text_col=text_col, **p)
    elif cfg.pipeline == "interarrival":
        from .pipelines.stats import interarrival_gaps
        # key = user column; value_col = ts column; params: tie_col,
        # carry_col
        out = interarrival_gaps(ds, cfg.key, cfg.value_col,
                                p.pop("tie_col"), p.pop("carry_col"))
    elif cfg.pipeline == "threshold_exceed":
        from .pipelines.stats import threshold_exceed_counts
        out = threshold_exceed_counts(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "zscore_outliers":
        import ray.data as rd

        from .pipelines.stats import grouped_zscore_outliers
        out = rd.from_pandas(grouped_zscore_outliers(
            ds, cfg.key, cfg.value_col, **p))
    elif cfg.pipeline == "quantile_buckets":
        from .pipelines.stats import quantile_bucket_counts
        out = quantile_bucket_counts(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "key_skew":
        from .pipelines.relational import key_skew_report
        out = key_skew_report(ds, cfg.key, **p)
    elif cfg.pipeline == "kmv_distinct":
        from .stages.aggregate import sketch_by_key, summarize
        from .state.kmv import KmvSketch
        from .state.protocol import SketchSpec
        k = int(p.pop("k", 1024))
        spec = SketchSpec(
            name="kmv", factory=lambda: KmvSketch(k),
            from_bytes=KmvSketch.from_bytes,
            summarize=lambda sk: {
                "distinct_estimate": sk.distinct_estimate(),
                "is_exact": bool(sk.is_exact)})
        merged = sketch_by_key(ds, spec, cfg.value_col, cfg.key, **p)
        out = summarize(merged, spec, key_name=cfg.key or "key")
    elif cfg.pipeline == "line_dedup_stats":
        from .pipelines.curation import line_dedup_stats
        out = line_dedup_stats(ds, cfg.value_col or "text", cfg.key, **p)
    elif cfg.pipeline == "line_dedup":
        from .pipelines.curation import drop_duplicate_lines
        out = drop_duplicate_lines(ds, cfg.value_col or "text",
                                   cfg.key or "doc_id", **p)
    elif cfg.pipeline == "turnstile":
        from .pipelines.quantiles import q_col
        from .stages.aggregate import sketch_by_key, summarize
        from .state.kllpm import KllPM
        from .state.protocol import SketchSpec
        # params: k, qs, op_col (the ±1 insert/delete sign column)
        k = int(p.pop("k", 200))
        qs = tuple(p.pop("qs", (0.25, 0.5, 0.75)))
        spec = SketchSpec(
            name="kllpm", factory=lambda: KllPM(k),
            from_bytes=lambda b: KllPM.from_bytes(b),
            summarize=lambda sk: {
                "n_net": sk.size,
                **{q_col(q): sk.quantile(q) for q in qs}})
        merged = sketch_by_key(ds, spec, cfg.value_col, cfg.key,
                               weight_col=p.pop("op_col", "op"), **p)
        out = summarize(merged, spec, key_name=cfg.key or "key")
    elif cfg.pipeline == "ddsketch":
        from .pipelines.quantiles import q_col
        from .stages.aggregate import sketch_by_key, summarize
        from .state.ddsketch import DDSketch
        from .state.protocol import SketchSpec
        alpha = float(p.pop("alpha", 0.01))
        max_bins = int(p.pop("max_bins", 2048))
        qs = tuple(p.pop("qs", (0.25, 0.5, 0.75)))
        spec = SketchSpec(
            name="ddsketch",
            factory=lambda: DDSketch(alpha, max_bins),
            from_bytes=DDSketch.from_bytes,
            summarize=lambda sk: {q_col(q): sk.quantile(q) for q in qs})
        merged = sketch_by_key(ds, spec, cfg.value_col, cfg.key, **p)
        out = summarize(merged, spec, key_name=cfg.key or "key")
    elif cfg.pipeline == "countsketch_topk":
        from .pipelines.heavy import heavy_hitters_unbiased
        out = heavy_hitters_unbiased(ds, cfg.key or cfg.value_col, **p)
    elif cfg.pipeline == "freqdir_gram":
        import ray.data as rd

        from .pipelines.clustering import gram_sketch_check
        out = rd.from_arrow(gram_sketch_check(
            ds, cfg.value_col or "embedding", **p))
    elif cfg.pipeline == "priority_sample":
        import ray.data as rd

        from .pipelines.curation import priority_sample_subset_check
        out = rd.from_arrow(priority_sample_subset_check(
            ds, cfg.key or cfg.value_col, **p))
    elif cfg.pipeline == "pareto":
        from .pipelines.stats import grouped_pareto_frontier
        out = grouped_pareto_frontier(ds, cfg.key, **p)
    elif cfg.pipeline == "percent_rank":
        from .pipelines.stats import grouped_percent_rank
        out = grouped_percent_rank(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "gini":
        from .pipelines.stats import grouped_gini
        out = grouped_gini(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "quantile_cont":
        from .pipelines.stats import grouped_quantile_cont
        out = grouped_quantile_cont(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "mode":
        from .pipelines.stats import grouped_mode
        out = grouped_mode(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "benford":
        from .pipelines.stats import benford_first_digit_counts
        out = benford_first_digit_counts(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "winsorized":
        from .pipelines.stats import winsorized_mean_stats
        out = winsorized_mean_stats(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "cusum":
        from .pipelines.stats import cusum_alarm_counts
        out = cusum_alarm_counts(ds, cfg.key, value=cfg.value_col, **p)
    elif cfg.pipeline == "rfm":
        from .pipelines.stats import rfm_segment_counts
        out = rfm_segment_counts(ds, cfg.key, value=cfg.value_col, **p)
    elif cfg.pipeline == "bm25":
        from .pipelines.textstats import bm25_topk
        out = bm25_topk(ds, cfg.value_col, **p)
    elif cfg.pipeline == "dup_spans":
        from .pipelines.textstats import duplicate_span_report
        out = duplicate_span_report(ds, cfg.value_col or "text",
                                    key=cfg.key or "lang", **p)
    elif cfg.pipeline == "dup_span_drop":
        from .pipelines.textstats import drop_duplicate_span_stats
        out = drop_duplicate_span_stats(ds, cfg.value_col or "text",
                                        key=cfg.key or "lang", **p)
    elif cfg.pipeline == "dup_span_rewrite":
        from .pipelines.textstats import drop_duplicate_spans_text
        out = drop_duplicate_spans_text(ds, cfg.value_col or "text", **p)
    elif cfg.pipeline == "nb_confusion":
        from .pipelines.textstats import nb_classifier_confusion
        out = nb_classifier_confusion(ds, cfg.value_col or "text",
                                      key=cfg.key or "lang", **p)
    elif cfg.pipeline == "pagerank":
        import ray.data as rd

        from .pipelines.graph import pagerank_from_events
        out = rd.from_pandas(pagerank_from_events(
            ds, cfg.key or "user_id", p.pop("ts_col", "ts"),
            p.pop("tie_col", "event_id"),
            cfg.value_col or "event_type", **p))
    elif cfg.pipeline == "snm_pairs":
        from .stages.linkage import sorted_neighborhood_pairs
        out = sorted_neighborhood_pairs(
            ds, cfg.key or "name", p.pop("id_col", "rid"),
            p.pop("payload_cols", []), **p)
    elif cfg.pipeline == "theil_sen":
        import ray.data as rd

        from .pipelines.stats import theil_sen_by_key
        out = rd.from_pandas(theil_sen_by_key(
            ds, cfg.key or "lang", p.pop("x_col", "n_chars"),
            p.pop("y_col", "n_tokens"),
            p.pop("id_col", "doc_id"), **p))
    elif cfg.pipeline == "selection_quantiles":
        import ray.data as rd

        from .pipelines.selection import selection_quantiles_by_key
        out = rd.from_pandas(selection_quantiles_by_key(
            ds, cfg.key or "event_type", cfg.value_col or "value", **p))
    elif cfg.pipeline == "triangle_count":
        import ray.data as rd

        from .pipelines.graph import triangle_count_from_events
        out = rd.from_pandas(triangle_count_from_events(
            ds, cfg.key or "event_type", p.pop("ts_col", "ts"),
            cfg.value_col or "user_id", **p))
    elif cfg.pipeline == "hits":
        import ray.data as rd

        from .pipelines.graph import hits_from_events
        out = rd.from_pandas(hits_from_events(
            ds, cfg.key or "user_id", p.pop("ts_col", "ts"),
            p.pop("tie_col", "event_id"),
            cfg.value_col or "event_type", **p))
    elif cfg.pipeline == "markov_accuracy":
        import ray.data as rd

        from .pipelines.graph import markov_accuracy_from_events
        out = rd.from_pandas(markov_accuracy_from_events(
            ds, cfg.key or "user_id", p.pop("ts_col", "ts"),
            p.pop("tie_col", "event_id"),
            cfg.value_col or "event_type", **p))
    elif cfg.pipeline == "token_entropy":
        from .pipelines.textstats import token_entropy_stats
        out = token_entropy_stats(ds, cfg.value_col or "text",
                                  cfg.key or "lang", **p)
    elif cfg.pipeline == "zipf_slope":
        from .pipelines.textstats import zipf_slope_stats
        out = zipf_slope_stats(ds, cfg.value_col or "text",
                               cfg.key or "lang", **p)
    elif cfg.pipeline == "markov_entropy":
        import ray.data as rd

        from .pipelines.graph import markov_entropy_from_events
        out = rd.from_pandas(markov_entropy_from_events(
            ds, cfg.key or "user_id", p.pop("ts_col", "ts"),
            p.pop("tie_col", "event_id"),
            cfg.value_col or "event_type", **p))
    elif cfg.pipeline == "mutual_info":
        import ray.data as rd

        from .pipelines.stats import mutual_information_report
        out = rd.from_pandas(mutual_information_report(
            ds, cfg.key, cfg.value_col, **p))
    elif cfg.pipeline == "hill_tail":
        from .pipelines.stats import hill_tail_index
        out = hill_tail_index(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "heaps_law":
        from .pipelines.textstats import heaps_law_stats
        out = heaps_law_stats(ds, cfg.value_col or "text",
                              p.pop("id_col", "doc_id"),
                              cfg.key or "lang", **p)
    elif cfg.pipeline == "dsir":
        import ray.data as rd

        from .pipelines.curation import dsir_importance_stats
        out = rd.from_pandas(dsir_importance_stats(
            ds, cfg.value_col or "text", key=cfg.key or "lang", **p))
    elif cfg.pipeline == "jaccard_matrix":
        import ray.data as rd

        from .pipelines.distinct import exact_jaccard_matrix
        out = rd.from_pandas(exact_jaccard_matrix(
            ds, cfg.key, cfg.value_col, **p))
    elif cfg.pipeline == "locf":
        from .pipelines.windows import locf_fill_stats
        out = locf_fill_stats(ds, value_col=cfg.value_col,
                              key_col=cfg.key, **p)
    elif cfg.pipeline == "welch":
        import ray.data as rd

        from .pipelines.stats import welch_t_report
        out = rd.from_pandas(welch_t_report(
            ds, cfg.key, cfg.value_col, **p))
    elif cfg.pipeline == "pearson":
        import ray.data as rd

        from .pipelines.stats import grouped_pearson
        out = rd.from_pandas(grouped_pearson(ds, cfg.key, **p))
    elif cfg.pipeline == "spearman":
        import ray.data as rd

        from .pipelines.stats import grouped_spearman
        out = rd.from_pandas(grouped_spearman(ds, cfg.key, **p))
    elif cfg.pipeline == "quality_funnel":
        from .pipelines.textstats import quality_rule_funnel
        out = quality_rule_funnel(ds, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline == "json_field":
        from .pipelines.textstats import json_int_field_stats
        out = json_int_field_stats(ds, cfg.value_col, p.pop("field"),
                                   cfg.key, **p)
    elif cfg.pipeline == "cooccurrence":
        from .pipelines.textstats import token_cooccurrence
        out = token_cooccurrence(ds, cfg.value_col, **p)
    elif cfg.pipeline == "token_cosine":
        import ray.data as rd

        from .pipelines.textstats import lang_token_cosine
        out = rd.from_pandas(lang_token_cosine(
            ds, cfg.value_col, cfg.key, **p))
    elif cfg.pipeline == "fuzzy_pairs":
        from ray.data.aggregate import Sum

        from .stages.fuzzy import fuzzy_vocab_pairs

        def _one(b):
            import pyarrow as _pa
            return b.append_column("one", _pa.array([1] * len(b),
                                                    type=_pa.int64()))
        vocab = (ds.map_batches(_one, batch_format="pyarrow")
                 .groupby(cfg.value_col)
                 .aggregate(Sum("one", alias_name="cnt")))
        out = fuzzy_vocab_pairs(vocab, cfg.value_col, "cnt", **p)
    elif cfg.pipeline == "fuzzy_clusters":
        import ray.data as rd
        from ray.data.aggregate import Sum

        from .stages.fuzzy import fuzzy_cluster_stats

        def _one2(b):
            import pyarrow as _pa
            return b.append_column("one", _pa.array([1] * len(b),
                                                    type=_pa.int64()))
        vocab = (ds.map_batches(_one2, batch_format="pyarrow")
                 .groupby(cfg.value_col)
                 .aggregate(Sum("one", alias_name="cnt")))
        out = rd.from_pandas(fuzzy_cluster_stats(
            vocab, cfg.value_col, "cnt", **p))
    elif cfg.pipeline == "psi":
        import ray.data as rd

        from .pipelines.stats import psi_bin_report
        out = rd.from_pandas(psi_bin_report(
            ds, cfg.key, cfg.value_col, **p))
    elif cfg.pipeline == "chi2_cells":
        import ray.data as rd

        from .pipelines.stats import chi2_independence_cells
        out = rd.from_pandas(chi2_independence_cells(
            ds, cfg.key, cfg.value_col, **p))
    elif cfg.pipeline == "hash_split":
        from .pipelines.curation import hash_split_counts
        out = hash_split_counts(ds, key=cfg.key, **p)
    elif cfg.pipeline == "top_ties":
        from .pipelines.stats import top_distinct_value_rows
        out = top_distinct_value_rows(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "neyman":
        import ray.data as rd

        from .pipelines.stats import neyman_allocation
        out = rd.from_pandas(neyman_allocation(
            ds, cfg.key, cfg.value_col, **p))
    elif cfg.pipeline == "moving_sum":
        from .pipelines.windows import moving_frame_sums
        out = moving_frame_sums(ds, cfg.key, value=cfg.value_col, **p)
    elif cfg.pipeline == "period_growth":
        import ray.data as rd

        from .pipelines.windows import period_growth
        out = rd.from_pandas(period_growth(ds, cfg.key,
                                           cfg.value_col, **p))
    elif cfg.pipeline == "entry_exit":
        from .pipelines.windows import entry_exit_type_counts
        out = entry_exit_type_counts(ds, cfg.key,
                                     type_col=cfg.value_col, **p)
    elif cfg.pipeline == "breadth_hist":
        from .pipelines.distinct import distinct_breadth_histogram
        out = distinct_breadth_histogram(ds, cfg.key, cfg.value_col,
                                         **p)
    elif cfg.pipeline == "topk_other":
        from .pipelines.relational import topk_other_rollup
        out = topk_other_rollup(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "mannwhitney":
        import ray.data as rd

        from .pipelines.stats import mann_whitney_u
        out = rd.from_pandas(mann_whitney_u(
            ds, cfg.key, cfg.value_col, **p))
    elif cfg.pipeline == "kendall":
        import ray.data as rd

        from .pipelines.stats import kendall_tau_b
        out = rd.from_pandas(kendall_tau_b(ds, **p))
    elif cfg.pipeline == "embedding_norms":
        from .pipelines.clustering import embedding_norm_stats
        out = embedding_norm_stats(ds, cfg.value_col, **p)
    elif cfg.pipeline == "vocab_richness":
        from .pipelines.textstats import vocab_richness
        out = vocab_richness(ds, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline == "fano":
        from .pipelines.windows import fano_burstiness
        out = fano_burstiness(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "heatmap":
        from .pipelines.windows import weekday_hour_heatmap
        out = weekday_hour_heatmap(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "streaks":
        from .pipelines.windows import event_streaks
        out = event_streaks(ds, cfg.key, type_col=cfg.value_col, **p)
    elif cfg.pipeline == "session_durations":
        from .pipelines.windows import session_duration_quantiles
        out = session_duration_quantiles(ds, cfg.key, **p)
    elif cfg.pipeline == "session_paths":
        from .pipelines.windows import top_session_paths
        out = top_session_paths(ds, cfg.key, type_col=cfg.value_col, **p)
    elif cfg.pipeline == "k_anonymity":
        import ray.data as rd

        from .pipelines.curation import k_anonymity_audit
        out = rd.from_pandas(k_anonymity_audit(ds, **p))
    elif cfg.pipeline == "autocorr":
        from .pipelines.windows import hourly_autocorrelation
        out = hourly_autocorrelation(ds, cfg.key, cfg.value_col, **p)
    elif cfg.pipeline == "change_detect":
        import ray.data as rd

        from .pipelines.heavy import change_detection
        out = rd.from_pandas(change_detection(
            ds, cfg.key, cfg.value_col, **p))
    elif cfg.pipeline == "kll_pmf":
        import ray.data as rd

        from .pipelines.validation import pmf_bound_check
        out = rd.from_pandas(pmf_bound_check(
            ds, cfg.value_col, cfg.key, **p))
    elif cfg.pipeline in ("float_histogram", "log_histogram"):
        from .pipelines.quantiles import histogram_bins_by_key
        from .state.histogram import FloatHistogram, LogHistogram
        from .state.protocol import SketchSpec
        cls = (FloatHistogram if cfg.pipeline == "float_histogram"
               else LogHistogram)
        mn = float(p.pop("min_value"))
        mx = float(p.pop("max_value"))
        param = float(p.pop("param"))
        spec = SketchSpec(name=cfg.pipeline,
                          factory=lambda: cls(mn, mx, param),
                          from_bytes=cls.from_bytes)
        out = histogram_bins_by_key(ds, spec, cfg.value_col, cfg.key, **p)
    elif cfg.pipeline == "export_text":
        import glob
        import os

        from .pipelines.checkpoint import resumable_text_write
        files = sorted(glob.glob(os.path.join(cfg.input, "*.parquet"))) \
            if os.path.isdir(cfg.input) else [cfg.input]
        # params: out_dir, fmt (jsonl|csv)
        out = resumable_text_write(files, p.pop("out_dir"),
                                   fmt=p.pop("fmt", "jsonl"),
                                   columns=cfg.columns, **p)
    elif cfg.pipeline == "checkpointed":
        from .pipelines.checkpoint import (finalize_checkpointed,
                                           run_checkpointed)
        from .pipelines.quantiles import tdigest_spec

        import glob
        import os
        files = sorted(glob.glob(os.path.join(cfg.input, "*.parquet"))) \
            if os.path.isdir(cfg.input) else [cfg.input]
        spec = tdigest_spec(p.pop("compression", 100.0))
        run_checkpointed(files, spec, cfg.value_col, cfg.key,
                         cfg.checkpoint_dir, **p)
        out = finalize_checkpointed(cfg.checkpoint_dir, spec,
                                    key_name=cfg.key or "key")
    else:  # pragma: no cover - guarded in __post_init__
        raise AssertionError(cfg.pipeline)

    if cfg.output:
        out.write_parquet(cfg.output)
    return out
