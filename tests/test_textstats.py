"""Corpus token statistics (pipelines/textstats.py) vs in-process pandas
references, plus their JobConfig routes."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from t_digest_ray.config import JobConfig, run_job

DOCS = "/root/testdata/sf0.001/documents.parquet"


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd
    return rd.read_parquet(DOCS, columns=["doc_id", "text"]).repartition(4)


@pytest.fixture(scope="module")
def docs_df():
    return pq.read_table(DOCS, columns=["doc_id", "text"]).to_pandas()


def _pairs(df: pd.DataFrame) -> pd.DataFrame:
    rows = []
    for _, r in df.iterrows():
        for tok in r["text"].split(" "):
            if tok:
                rows.append((r["doc_id"], tok))
    return pd.DataFrame(rows, columns=["doc_id", "token"])


def test_token_topk_matches_reference(docs_ds, docs_df):
    from t_digest_ray.pipelines.textstats import token_topk

    out = token_topk(docs_ds, "text", k=10).to_pandas()
    ref = (_pairs(docs_df).groupby("token").size()
           .reset_index(name="cnt")
           .sort_values(["cnt", "token"], ascending=[False, True])
           .head(10).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True)[["token", "cnt"]], ref)


def test_token_df_stats_matches_reference(docs_ds, docs_df):
    from t_digest_ray.pipelines.textstats import token_df_stats

    out = (token_df_stats(docs_ds, "text", "doc_id").to_pandas()
           .sort_values("token").reset_index(drop=True))
    p = _pairs(docs_df)
    ref = (p.groupby("token")
           .agg(df=("doc_id", "nunique"), cf=("doc_id", "size"),
                min_doc=("doc_id", "min")).reset_index()
           .sort_values("token").reset_index(drop=True))
    ref[["df", "cf", "min_doc"]] = ref[["df", "cf", "min_doc"]] \
        .astype(np.int64)
    pd.testing.assert_frame_equal(out, ref)


def test_dominant_term_matches_reference(docs_ds, docs_df):
    from t_digest_ray.pipelines.textstats import dominant_term

    out = (dominant_term(docs_ds, "text", "doc_id").to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    p = _pairs(docs_df)
    tf = p.groupby(["doc_id", "token"]).size().reset_index(name="tf")
    top = (tf.sort_values(["doc_id", "tf", "token"],
                          ascending=[True, False, True], kind="mergesort")
           .drop_duplicates("doc_id"))
    dfreq = p.groupby("token")["doc_id"].nunique().rename("df")
    ref = (top.merge(dfreq, left_on="token", right_index=True)
           .rename(columns={"token": "term"})
           .sort_values("doc_id").reset_index(drop=True))
    ref[["doc_id", "tf", "df"]] = ref[["doc_id", "tf", "df"]] \
        .astype(np.int64)
    pd.testing.assert_frame_equal(out, ref[["doc_id", "term", "tf", "df"]])


def test_scrub_text_matches_re(docs_ds, docs_df):
    from t_digest_ray.pipelines.textstats import scrub_text

    pat = r"\b(customer|row)\b"
    out = (scrub_text(docs_ds, "text", "doc_id", pat, "<X>").to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    ref = docs_df.sort_values("doc_id").reset_index(drop=True)
    creg = re.compile(pat)
    exp = ref["text"].map(lambda t: creg.sub("<X>", t))
    assert (out["text"] == exp).all()
    exp_n = ref["text"].map(lambda t: len(creg.findall(t)))
    assert (out["n_redactions"].to_numpy() == exp_n.to_numpy()).all()


def test_bigram_topk_matches_reference(docs_ds, docs_df):
    from t_digest_ray.pipelines.textstats import bigram_topk

    out = bigram_topk(docs_ds, "text", k=12).to_pandas()
    rows = []
    for _, r in docs_df.iterrows():
        toks = r["text"].split(" ")
        rows.extend(f"{a} {b}" for a, b in zip(toks, toks[1:])
                    if a and b)
    ref = (pd.Series(rows).value_counts().rename_axis("bigram")
           .reset_index(name="cnt"))
    ref = (ref.sort_values(["cnt", "bigram"], ascending=[False, True])
           .head(12).reset_index(drop=True))
    ref["cnt"] = ref["cnt"].astype(np.int64)
    pd.testing.assert_frame_equal(
        out.reset_index(drop=True)[["bigram", "cnt"]], ref)


def test_rollup_stats_matches_reference(docs_ds, ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.relational import rollup_stats

    ds = rd.read_parquet(DOCS, columns=["lang", "source", "n_chars"]) \
        .repartition(4)
    out = rollup_stats(ds, ["lang", "source"], "n_chars")
    base = pq.read_table(
        DOCS, columns=["lang", "source", "n_chars"]).to_pandas()
    # total level
    tot = out[(out.lang == "ALL") & (out.source == "ALL")]
    assert len(tot) == 1
    assert tot["n_rows"].iloc[0] == len(base)
    assert tot["sum_v"].iloc[0] == base["n_chars"].sum()
    assert tot["min_v"].iloc[0] == base["n_chars"].min()
    # lang level equals direct groupby
    lang_lvl = out[(out.lang != "ALL") & (out.source == "ALL")] \
        .set_index("lang").sort_index()
    direct = base.groupby("lang")["n_chars"] \
        .agg(["size", "sum", "min", "max"]).sort_index()
    assert (lang_lvl["n_rows"].to_numpy()
            == direct["size"].to_numpy()).all()
    assert (lang_lvl["max_v"].to_numpy()
            == direct["max"].to_numpy()).all()
    # finest level row count = distinct (lang, source) pairs
    finest = out[(out.lang != "ALL") & (out.source != "ALL")]
    assert len(finest) == len(base[["lang", "source"]].drop_duplicates())


def test_repetition_stats_matches_reference(docs_ds, docs_df):
    from collections import Counter

    from t_digest_ray.pipelines.textstats import repetition_stats

    out = (repetition_stats(docs_ds, "text", "doc_id").to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    ref = docs_df.sort_values("doc_id").reset_index(drop=True)
    for i in range(0, len(ref), 37):  # spot-check a deterministic slice
        toks = [t for t in ref["text"].iloc[i].split(" ") if t]
        bigs = [f"{a} {b}"
                for a, b in zip(toks, toks[1:])]
        r = out.iloc[i]
        assert r["n_tokens"] == len(toks)
        assert r["max_tf"] == (max(Counter(toks).values())
                               if toks else 0)
        assert r["max_bigram_tf"] == (max(Counter(bigs).values())
                                      if bigs else 0)
        assert r["repetitive"] == int(r["max_tf"] * 100
                                      > r["n_tokens"] * 20)


def test_iqr_outlier_stats_matches_reference(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.relational import iqr_outlier_stats

    ds = rd.read_parquet(DOCS, columns=["lang", "n_chars"]).repartition(4)
    out = iqr_outlier_stats(ds, "lang", "n_chars").to_pandas() \
        .set_index("lang").sort_index()
    base = pq.read_table(DOCS, columns=["lang", "n_chars"]).to_pandas()
    for lang, g in base.groupby("lang"):
        v = np.sort(g["n_chars"].to_numpy())
        n = len(v)
        q1 = float(v[max(int(np.ceil(0.25 * n)) - 1, 0)])
        q3 = float(v[max(int(np.ceil(0.75 * n)) - 1, 0)])
        lo, hi = q1 - 1.5 * (q3 - q1), q3 + 1.5 * (q3 - q1)
        r = out.loc[lang]
        assert r["q1"] == q1 and r["q3"] == q3
        assert r["n_total"] == n
        assert r["n_outliers"] == int(((v < lo) | (v > hi)).sum())


def test_config_textstats_routes(ray_session):
    out = run_job(JobConfig(
        pipeline="token_topk", input=DOCS, columns=["text"],
        value_col="text", params={"k": 5})).to_pandas()
    assert len(out) == 5 and {"token", "cnt"} <= set(out.columns)

    out = run_job(JobConfig(
        pipeline="token_df", input=DOCS, columns=["doc_id", "text"],
        value_col="text", key="doc_id")).to_pandas()
    assert {"token", "df", "cf", "min_doc"} <= set(out.columns)
    assert (out["cf"] >= out["df"]).all()

    out = run_job(JobConfig(
        pipeline="dominant_term", input=DOCS,
        columns=["doc_id", "text"], value_col="text",
        key="doc_id")).to_pandas()
    assert (out["tf"] >= 1).all()

    out = run_job(JobConfig(
        pipeline="scrub_stats", input=DOCS, columns=["lang", "text"],
        value_col="text", key="lang",
        params={"pattern": r"\brow\b"})).to_pandas()
    assert (out["n_redactions"] >= out["docs_touched"]).all()

    out = run_job(JobConfig(
        pipeline="scrub", input=DOCS, columns=["doc_id", "text"],
        value_col="text", key="doc_id",
        params={"pattern": r"\brow\b",
                "replacement": "<R>"})).to_pandas()
    assert len(out) == 500

    out = run_job(JobConfig(
        pipeline="trimmed_mean", input=DOCS,
        columns=["lang", "n_chars"], value_col="n_chars", key="lang",
        params={"trim": 0.1})).to_pandas()
    assert out["within_bound"].all()

    out = run_job(JobConfig(
        pipeline="bigram_topk", input=DOCS, columns=["text"],
        value_col="text", params={"k": 7})).to_pandas()
    assert len(out) == 7 and (out["cnt"] >= 1).all()

    out = run_job(JobConfig(
        pipeline="rollup", input=DOCS,
        columns=["lang", "source", "n_chars"], value_col="n_chars",
        key="lang,source")).to_pandas()
    assert ((out.lang == "ALL") & (out.source == "ALL")).sum() == 1

    out = run_job(JobConfig(
        pipeline="repetition", input=DOCS, columns=["doc_id", "text"],
        value_col="text", key="doc_id")).to_pandas()
    assert len(out) == 500 and (out["max_tf"] <= out["n_tokens"]).all()

    out = run_job(JobConfig(
        pipeline="iqr_outliers", input=DOCS,
        columns=["lang", "n_chars"], value_col="n_chars",
        key="lang")).to_pandas()
    assert (out["n_outliers"] <= out["n_total"]).all()


def test_duplicate_span_report_matches_bruteforce(ray_session):
    from collections import defaultdict

    import ray.data as rd

    from t_digest_ray.pipelines.textstats import duplicate_span_report

    n = 5
    df = pq.read_table(DOCS, columns=["doc_id", "text", "lang"]).to_pandas()
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "lang"]) \
        .repartition(4)
    out = duplicate_span_report(ds, n=n).to_pandas() \
        .sort_values("lang").reset_index(drop=True)

    gram_docs: dict = defaultdict(lambda: defaultdict(int))
    for _, r in df.iterrows():
        toks = [t for t in r["text"].split(" ") if t]
        for i in range(len(toks) - n + 1):
            gram_docs[" ".join(toks[i:i + n])][r["doc_id"]] += 1
    per_doc: dict = defaultdict(lambda: [0, 0])
    for docs in gram_docs.values():
        dup = len(docs) >= 2
        for d, c in docs.items():
            per_doc[d][0] += c
            if dup:
                per_doc[d][1] += c
    lang_of = dict(zip(df.doc_id, df.lang))
    agg: dict = defaultdict(lambda: [0, 0, 0, 0])
    for d, (tot, dup) in per_doc.items():
        a = agg[lang_of[d]]
        a[0] += 1
        a[1] += tot
        a[2] += dup
        a[3] += 1 if dup > 0 else 0
    ref = pd.DataFrame(
        [(k, *v) for k, v in sorted(agg.items())],
        columns=["lang", "n_docs", "total_windows", "dup_windows",
                 "docs_with_dup"])
    assert ref["dup_windows"].sum() > 0  # the fixture really has dups
    pd.testing.assert_frame_equal(
        out[ref.columns].astype({c: np.int64 for c in ref.columns[1:]}),
        ref.astype({c: np.int64 for c in ref.columns[1:]}))


def test_duplicate_span_report_planted_span(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import duplicate_span_report

    span = "alpha beta gamma delta epsilon zeta"
    df = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "lang": ["en"] * 3 + ["de"] * 3,
        "text": [f"one two {span} three four",      # planted
                 f"five six seven {span} eight",    # planted
                 "nine ten eleven twelve thirteen fourteen fifteen",
                 f"sechzehn {span} siebzehn achtzehn",  # planted, de
                 "neunzehn zwanzig einundzwanzig zweiundzwanzig "
                 "dreiundzwanzig vierundzwanzig",
                 "a b c d e f g h"]})
    ds = rd.from_pandas(df).repartition(3)
    out = duplicate_span_report(ds, n=6).to_pandas() \
        .set_index("lang").sort_index()
    # the 6-token planted span is duplicated across 3 docs (2 en, 1 de)
    assert out.loc["en", "docs_with_dup"] == 2
    assert out.loc["de", "docs_with_dup"] == 1
    assert out.loc["en", "dup_windows"] == 2
    assert out.loc["de", "dup_windows"] == 1


def test_dup_spans_config_route(ray_session):
    out = run_job(JobConfig(
        pipeline="dup_spans", input=DOCS, key="lang", value_col="text",
        columns=["doc_id", "text", "lang"],
        params={"n": 5})).to_pandas()
    assert len(out) > 0
    assert set(out.columns) == {"lang", "n_docs", "total_windows",
                                "dup_windows", "docs_with_dup"}


def test_drop_duplicate_span_stats_matches_bruteforce(ray_session):
    from collections import defaultdict

    import ray.data as rd

    from t_digest_ray.pipelines.textstats import drop_duplicate_span_stats

    n = 5
    df = pq.read_table(DOCS, columns=["doc_id", "text", "lang"]).to_pandas()
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "lang"]) \
        .repartition(4)
    out = drop_duplicate_span_stats(ds, n=n).to_pandas() \
        .sort_values("lang").reset_index(drop=True)

    gram_docs: dict = defaultdict(set)
    toks_of: dict = {}
    for _, r in df.iterrows():
        toks = [t for t in r["text"].split(" ") if t]
        toks_of[r["doc_id"]] = toks
        for i in range(len(toks) - n + 1):
            gram_docs[" ".join(toks[i:i + n])].add(r["doc_id"])
    dup_grams = {g for g, docs in gram_docs.items() if len(docs) >= 2}
    lang_of = dict(zip(df.doc_id, df.lang))
    agg: dict = defaultdict(lambda: [0, 0, 0, 0])
    for d, toks in toks_of.items():
        covered = set()
        for i in range(len(toks) - n + 1):
            if " ".join(toks[i:i + n]) in dup_grams:
                covered.update(range(i, i + n))
        a = agg[lang_of[d]]
        a[0] += 1
        a[1] += len(toks)
        a[2] += len(covered)
        a[3] += 1 if covered else 0
    ref = pd.DataFrame(
        [(k, *v) for k, v in sorted(agg.items())],
        columns=["lang", "n_docs", "tokens_total", "tokens_dropped",
                 "docs_touched"])
    assert ref["tokens_dropped"].sum() > 0
    pd.testing.assert_frame_equal(
        out[ref.columns].astype({c: np.int64 for c in ref.columns[1:]}),
        ref.astype({c: np.int64 for c in ref.columns[1:]}))


def test_drop_duplicate_span_overlap_counted_once(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import drop_duplicate_span_stats

    # two docs share an 8-token run: with n=6 each doc has three
    # overlapping dup windows (positions 0,1,2 of the run) whose union
    # covers exactly the 8 shared tokens, not 18
    run = "a b c d e f g h"
    df = pd.DataFrame({
        "doc_id": np.array([1, 2], dtype=np.int64),
        "lang": ["en", "en"],
        "text": [f"{run} tail1 tail2", f"pre1 {run} tail3"]})
    out = drop_duplicate_span_stats(
        rd.from_pandas(df).repartition(2), n=6).to_pandas()
    assert int(out["tokens_dropped"].iloc[0]) == 16  # 8 per doc
    assert int(out["docs_touched"].iloc[0]) == 2


def test_drop_duplicate_spans_text_matches_stats_twin(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import (
        drop_duplicate_span_stats, drop_duplicate_spans_text)

    n = 5
    ds = rd.read_parquet(DOCS, columns=["doc_id", "text", "lang"]) \
        .repartition(4)
    rewritten = drop_duplicate_spans_text(
        ds.select_columns(["doc_id", "text"]), n=n).to_pandas()
    stats = drop_duplicate_span_stats(ds, n=n).to_pandas()
    # token-conservation: dropped-token totals agree between the twins
    assert rewritten["n_dropped"].sum() == stats["tokens_dropped"].sum()
    assert (rewritten["n_dropped"] > 0).sum() == stats["docs_touched"].sum()
    # a rewritten doc has exactly n_tokens - n_dropped surviving tokens
    base = pq.read_table(DOCS, columns=["doc_id", "text"]).to_pandas() \
        .set_index("doc_id")
    merged = rewritten.set_index("doc_id")
    for d in merged.index[:50]:
        before = len([t for t in base.loc[d, "text"].split(" ") if t])
        after = len([t for t in merged.loc[d, "text"].split(" ") if t])
        assert after == before - int(merged.loc[d, "n_dropped"])


def test_drop_duplicate_spans_text_removes_planted(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import drop_duplicate_spans_text

    span = "alpha beta gamma delta epsilon zeta"
    df = pd.DataFrame({
        "doc_id": np.array([1, 2], dtype=np.int64),
        "text": [f"one two {span} three", f"four {span} five six"]})
    out = drop_duplicate_spans_text(
        rd.from_pandas(df).repartition(2), n=6).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[1, "text"] == "one two three"
    assert out.loc[2, "text"] == "four five six"
    assert (out["n_dropped"] == 6).all()


def _nb_fixture(n_docs: int = 200, toks_per_doc: int = 30):
    """Deterministic two-class corpus: distinct vocabularies + shared
    noise, token choice via splitmix64 of a counter (no RNG state)."""
    from t_digest_ray.functions.hashing import splitmix64

    rows = []
    for i in range(n_docs):
        cls = "alpha" if i % 2 == 0 else "beta"
        base = cls
        idx = splitmix64(np.arange(i * 1000, i * 1000 + toks_per_doc,
                                   dtype=np.uint64))
        toks = [f"{base}{int(v) % 40}" for v in idx[:toks_per_doc - 5]]
        toks += [f"noise{int(v) % 10}" for v in idx[toks_per_doc - 5:]]
        rows.append((np.int64(i), cls, " ".join(toks)))
    return pd.DataFrame(rows, columns=["doc_id", "cls", "text"])


def test_nb_classifier_separates_planted_classes(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import nb_classifier_confusion

    df = _nb_fixture()
    out = nb_classifier_confusion(
        rd.from_pandas(df).repartition(4), "text", "cls") \
        .to_pandas().sort_values(["true_cls", "pred_cls"]) \
        .reset_index(drop=True)
    # distinct vocabularies -> perfect diagonal confusion
    assert len(out) == 2
    assert (out["true_cls"] == out["pred_cls"]).all()
    assert out["n_docs"].sum() == len(df)


def test_nb_classifier_matches_pure_python(ray_session):
    import ray.data as rd

    from t_digest_ray.functions.hashing import hash64
    from t_digest_ray.pipelines.textstats import nb_classifier_confusion

    df = _nb_fixture(n_docs=120)
    B, alpha = 512, 1.0
    out = nb_classifier_confusion(
        rd.from_pandas(df).repartition(3), "text", "cls",
        n_buckets=B, alpha=alpha).to_pandas() \
        .sort_values(["true_cls", "pred_cls"]).reset_index(drop=True)

    classes = sorted(df["cls"].unique())
    cnt = np.zeros((B, len(classes)), dtype=np.int64)
    docs_per = np.zeros(len(classes), dtype=np.int64)
    bk_of = []
    for _, r in df.iterrows():
        toks = [x for x in r["text"].split(" ") if x]
        b = (hash64(np.array(toks, dtype=object))
             % np.uint64(B)).astype(np.int64)
        bk_of.append(b)
        ci = classes.index(r["cls"])
        np.add.at(cnt[:, ci], b, 1)
        docs_per[ci] += 1
    logp = np.log((cnt + alpha) / (cnt.sum(0) + alpha * B))
    logprior = np.log(docs_per / docs_per.sum())
    pairs = []
    for i, (_, r) in enumerate(df.iterrows()):
        # same fold order: bincount of this doc's tokens per class
        s = logprior + np.array(
            [float(np.bincount(np.zeros(len(bk_of[i]), dtype=np.int64),
                               weights=logp[bk_of[i], c],
                               minlength=1)[0]) for c in
             range(len(classes))])
        pairs.append((r["cls"], classes[int(np.argmax(s))]))
    ref = (pd.DataFrame(pairs, columns=["true_cls", "pred_cls"])
           .groupby(["true_cls", "pred_cls"]).size()
           .reset_index(name="n_docs")
           .sort_values(["true_cls", "pred_cls"]).reset_index(drop=True))
    ref["n_docs"] = ref["n_docs"].astype(np.int64)
    pd.testing.assert_frame_equal(out, ref)


def test_dup_span_rewrite_and_nb_confusion_config_routes(ray_session):
    out = run_job(JobConfig(
        pipeline="dup_span_rewrite", input=DOCS, value_col="text",
        columns=["doc_id", "text"], params={"n": 5})).to_pandas()
    assert set(out.columns) == {"doc_id", "text", "n_dropped"}
    assert out["n_dropped"].sum() > 0

    out = run_job(JobConfig(
        pipeline="nb_confusion", input=DOCS, key="lang",
        value_col="text", columns=["text", "lang"],
        params={"n_buckets": 512})).to_pandas()
    assert set(out.columns) == {"true_cls", "pred_cls", "n_docs"}
    assert out["n_docs"].sum() == 500


def test_duplicate_span_ops_on_dup_free_corpus(ray_session):
    """A clean (already-deduped) corpus is a normal input: every span op
    must return zeros / pass-through, not crash on the empty dup set."""
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import (
        drop_duplicate_span_stats, drop_duplicate_spans_text,
        duplicate_span_report)

    df = pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64),
        "lang": ["en", "en", "de", "de"],
        "text": ["a b c d e f", "g h i j k l",
                 "m n o p q r", "s t u v w x"]})
    ds = rd.from_pandas(df).repartition(2)
    rep = duplicate_span_report(ds, n=5).to_pandas()
    assert rep["dup_windows"].sum() == 0
    assert rep["n_docs"].sum() == 4
    stats = drop_duplicate_span_stats(ds, n=5).to_pandas()
    assert stats["tokens_dropped"].sum() == 0
    assert stats["docs_touched"].sum() == 0
    text = drop_duplicate_spans_text(
        ds.select_columns(["doc_id", "text"]), n=5).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert (text["n_dropped"] == 0).all()
    assert list(text["text"]) == list(df["text"])


def test_token_entropy_stats_hand_computed(ray_session):
    import math

    import ray.data as rd

    from t_digest_ray.pipelines.textstats import token_entropy_stats

    df = pd.DataFrame({"lang": ["en", "en", "fr"],
                       "text": ["a a b", "b c", "x x x x"]})
    out = token_entropy_stats(rd.from_pandas(df), "text", "lang") \
        .to_pandas().set_index("lang")
    # en: counts a=2, b=2, c=1; N=5.
    s = 2 * math.log(2.0) + 2 * math.log(2.0) + 1 * math.log(1.0)
    assert int(out.loc["en", "n_tokens"]) == 5
    assert int(out.loc["en", "n_vocab"]) == 3
    assert out.loc["en", "entropy"] == math.log(5.0) - s / 5.0
    # fr: a single token -> zero entropy exactly.
    assert out.loc["fr", "entropy"] == math.log(4.0) - math.log(4.0)


def test_zipf_slope_stats_hand_computed(ray_session):
    import math

    import ray.data as rd

    from t_digest_ray.pipelines.textstats import zipf_slope_stats

    # Exact power law cnt = 8 / rank over ranks 1, 2, 4 won't be exact;
    # use two ranks so the OLS line passes through both points:
    # counts a=4 (rank 1), b=2 (rank 2) -> slope = ln(2/4)/ln(2) = -1.
    df = pd.DataFrame({"lang": ["en"],
                       "text": ["a a a a b b"]})
    out = zipf_slope_stats(rd.from_pandas(df), "text", "lang", k=50) \
        .to_pandas()
    assert int(out["n_top"][0]) == 2
    slope = float(out["zipf_slope"][0])
    assert abs(slope - (math.log(2.0) - math.log(4.0))
               / math.log(2.0)) < 1e-12
    # Intercept: line hits y=ln(4) at x=ln(1)=0.
    assert abs(float(out["zipf_intercept"][0]) - math.log(4.0)) < 1e-12


def test_zipf_slope_single_token_guard(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import zipf_slope_stats

    out = zipf_slope_stats(
        rd.from_pandas(pd.DataFrame({"lang": ["en"], "text": ["only"]})),
        "text", "lang").to_pandas()
    assert float(out["zipf_slope"][0]) == 0.0


def test_heaps_law_stats_hand_computed(ray_session):
    import math

    import ray.data as rd

    from t_digest_ray.pipelines.textstats import heaps_law_stats

    # Doc order by doc_id: d1 "a b", d2 "a c", d3 "a b c d".
    # cum_n = [2, 4, 8]; new tokens per doc = [2, 1, 1] -> cum_v = [2, 3, 4].
    df = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "lang": ["en", "en", "en"],
        "text": ["a b", "a c", "a b c d"]})
    out = heaps_law_stats(rd.from_pandas(df), "text", "doc_id", "lang",
                          checkpoints=3).to_pandas()
    assert int(out["n_docs"][0]) == 3
    assert int(out["n_tokens"][0]) == 8
    assert int(out["n_vocab"][0]) == 4
    assert int(out["n_points"][0]) == 3
    # Independent OLS replay over the three checkpoint points.
    pts = [(math.log(2.0), math.log(2.0)),
           (math.log(4.0), math.log(3.0)),
           (math.log(8.0), math.log(4.0))]
    sx = sy = sxy = sxx = 0.0
    for x, y in pts:
        sx += x; sy += y; sxy += x * y; sxx += x * x
    beta = (3.0 * sxy - sx * sy) / (3.0 * sxx - sx * sx)
    assert float(out["heaps_beta"][0]) == beta
    # 2/4/8 tokens with 2/3/4 vocab is exactly beta = 0.5.
    assert abs(beta - 0.5) < 1e-12


def test_heaps_law_layout_invariance(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import heaps_law_stats

    rng = np.random.default_rng(7)
    words = [f"w{i}" for i in range(40)]
    df = pd.DataFrame({
        "doc_id": np.arange(60),
        "lang": ["en" if i % 2 else "fr" for i in range(60)],
        "text": [" ".join(rng.choice(words, size=12)) for _ in range(60)]})
    a = heaps_law_stats(rd.from_pandas(df).repartition(1),
                        "text", "doc_id", "lang").to_pandas() \
        .sort_values("lang").reset_index(drop=True)
    b = heaps_law_stats(rd.from_pandas(df).repartition(13),
                        "text", "doc_id", "lang").to_pandas() \
        .sort_values("lang").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_heaps_law_config_route(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    out = run_job(JobConfig(
        pipeline="heaps_law",
        input="/root/testdata/sf0.001/documents.parquet", key="lang",
        value_col="text", columns=["doc_id", "lang", "text"],
        params={"checkpoints": 4})).to_pandas()
    assert set(out.columns) == {"lang", "n_docs", "n_tokens", "n_vocab",
                                "n_points", "heaps_beta", "heaps_log_k"}
    assert (out["n_points"] == 4).all()
    # The synthetic corpus has a ~31-token vocabulary that saturates at
    # the first checkpoint, so the growth exponent is (numerically) 0.
    assert (out["heaps_beta"].abs() < 1e-9).all()
    assert (out["n_vocab"] <= 31).all()


def test_lm_surprise_stats_local_replay(ray_session):
    """Bigram-LM surprise sums match a pure-Python replay, including
    doc-boundary masking, empty-token drops and add-one smoothing."""
    import ray.data as rd

    from t_digest_ray.pipelines.textstats import lm_surprise_stats

    docs = pd.DataFrame({
        "text": ["a b b a", "b a  a", "c c c b", "a c"],
        "lang": ["en", "en", "de", "de"]})

    from collections import Counter
    c1, c12, per_lang = Counter(), Counter(), {}
    rows = []
    for t, lg in zip(docs["text"], docs["lang"]):
        toks = t.split(" ")
        c1.update(w for w in toks if w)
        for i in range(len(toks) - 1):
            if toks[i] and toks[i + 1]:
                c12[(toks[i], toks[i + 1])] += 1
                rows.append((lg, toks[i], toks[i + 1]))
    V = len(c1)
    for lg, w1, w2 in rows:
        s = ((c1[w1] + V).bit_length()
             - (c12[(w1, w2)] + 1).bit_length())
        agg = per_lang.setdefault(lg, [0, 0])
        agg[0] += 1
        agg[1] += s

    got = (lm_surprise_stats(rd.from_pandas(docs).repartition(3),
                             "text", "lang")
           .to_pandas().sort_values("lang").reset_index(drop=True))
    for _, r in got.iterrows():
        assert per_lang[r["lang"]] == [r["n_bigrams"],
                                       r["surprise_sum"]]


# ---------------------------------------------------------------------------
# keyed-exchange layout: every operator on the keyed exchange gives the same
# frame at 1 and 7 input blocks, with a few keys and a small vocabulary, and
# with hundreds of keys and 2,000+ distinct tokens so that every exchange
# bucket folds many keys
# ---------------------------------------------------------------------------

def _layout_corpus(n_docs: int, n_keys: int, n_vocab: int, seed: int = 11):
    import pyarrow as pa

    rng = np.random.default_rng(seed)
    vocab = np.array([f"w{i}" for i in range(n_vocab)])
    spans = [" ".join(rng.choice(vocab, size=6)) for _ in range(20)]
    texts = []
    for i in range(n_docs):
        toks = " ".join(rng.choice(vocab, size=rng.integers(3, 16)))
        if i % 3 == 0:  # a span shared with other documents
            toks += " " + spans[rng.integers(0, len(spans))]
        texts.append(toks + ("  value row" if i % 5 == 0 else ""))
    return pa.table({
        "doc_id": rng.permutation(n_docs).astype(np.int64),
        "lang": [f"k{k:03d}" for k in rng.integers(0, n_keys, n_docs)],
        "text": texts,
        "props": [f'{{"k": {int(v)}, "x": 1}}' if v % 4 else '{"x": 1}'
                  for v in rng.integers(-5, 40, n_docs)],
    })


def _blocks(table, blocks: int):
    import ray

    step = -(-table.num_rows // blocks)
    return ray.data.from_arrow(
        [table.slice(i, step) for i in range(0, table.num_rows, step)])


def _textstats_layout_ops():
    import ray

    from t_digest_ray.pipelines import textstats as ts

    def contamination(ds):
        bench = ray.put(ts.benchmark_gram_set(
            [r["text"] for r in ds.take(20)], 4))
        return ts.ngram_contamination_counts(ds, bench, 4, "lang")

    return {
        "token_topk": lambda ds: ts.token_topk(ds, "text", 25),
        "bigram_topk": lambda ds: ts.bigram_topk(ds, "text", 25),
        "token_df_stats": lambda ds: ts.token_df_stats(ds, "text",
                                                       "doc_id"),
        "dominant_term": lambda ds: ts.dominant_term(ds, "text", "doc_id"),
        "regex_scrub_stats": lambda ds: ts.regex_scrub_stats(
            ds, "text", "lang", r"\b(value|w1\d)\b"),
        "ngram_contamination_counts": contamination,
        "json_int_field_stats": lambda ds: ts.json_int_field_stats(
            ds, "props", "k", "lang"),
        "quality_rule_funnel": lambda ds: ts.quality_rule_funnel(
            ds, "text", "lang"),
        "token_cooccurrence": lambda ds: ts.token_cooccurrence(
            ds, "text", "doc_id", k=12),
        "bm25_topk": lambda ds: ts.bm25_topk(
            ds, "text", "doc_id", ["w1", "w2", "value"], topk=15),
        "lang_token_cosine": lambda ds: ts.lang_token_cosine(
            ds, "text", "lang", k=15),
        "vocab_richness": lambda ds: ts.vocab_richness(ds, "text", "lang"),
        "token_entropy_stats": lambda ds: ts.token_entropy_stats(
            ds, "text", "lang"),
        "zipf_slope_stats": lambda ds: ts.zipf_slope_stats(
            ds, "text", "lang", k=20),
        "heaps_law_stats": lambda ds: ts.heaps_law_stats(
            ds, "text", "doc_id", "lang", checkpoints=5),
        "duplicate_span_report": lambda ds: ts.duplicate_span_report(
            ds, n=4),
        "drop_duplicate_span_stats": lambda ds: ts.drop_duplicate_span_stats(
            ds, n=4),
        "drop_duplicate_spans_text": lambda ds: ts.drop_duplicate_spans_text(
            ds.select_columns(["doc_id", "text"]), n=4),
        "nb_classifier_confusion": lambda ds: ts.nb_classifier_confusion(
            ds, n_buckets=256),
        "lm_surprise_stats": lambda ds: ts.lm_surprise_stats(
            ds, "text", "lang"),
    }


def _frame(out) -> pd.DataFrame:
    df = out if isinstance(out, pd.DataFrame) else out.to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("n_docs,n_keys,n_vocab",
                         [(300, 5, 60), (2000, 300, 2500)])
@pytest.mark.parametrize("op", sorted(_textstats_layout_ops()))
def test_textstats_same_frame_at_1_and_7_blocks(ray_session, op, n_docs,
                                                n_keys, n_vocab):
    t = _layout_corpus(n_docs, n_keys, n_vocab)
    if n_vocab > 1000:  # every exchange bucket folds many tokens
        assert len({w for s in t["text"].to_pylist()
                    for w in s.split(" ") if w}) >= 2000
    fn = _textstats_layout_ops()[op]
    one, seven = (_frame(fn(_blocks(t, b))) for b in (1, 7))
    assert len(one) > 0
    pd.testing.assert_frame_equal(one, seven, check_exact=True)


def test_per_key_folds_match_per_key_loops(ray_session):
    """The vocabulary folds take hundreds of keys per call (segmented
    sums over one ``_key_runs`` sort); every key's row equals the per-key
    loop: Σ c·ln c in token order, the Zipf and Heaps moment sums in rank
    and checkpoint order, Yule's K from Python integers."""
    import math
    from collections import Counter, defaultdict

    from t_digest_ray.pipelines.textstats import (heaps_law_stats,
                                                  token_entropy_stats,
                                                  vocab_richness,
                                                  zipf_slope_stats)

    t = _layout_corpus(2000, 300, 2500)
    df = t.to_pandas()
    counts = defaultdict(Counter)
    for lang, text in zip(df["lang"], df["text"]):
        counts[lang].update(w for w in text.split(" ") if w)

    def ols(pts):
        sx = sy = sxy = sxx = 0.0
        for x, y in pts:
            sx += x
            sy += y
            sxy += x * y
            sxx += x * x
        m = float(len(pts))
        den = m * sxx - sx * sx
        if len(pts) >= 2 and den != 0.0:
            slope = (m * sxy - sx * sy) / den
            return slope, (sy - slope * sx) / m
        return 0.0, 0.0

    ent, zipf, yule, heaps = {}, {}, {}, {}
    for lang, c in counts.items():
        n = sum(c.values())
        s = 0.0
        for tok in sorted(c):
            s += float(c[tok]) * math.log(float(c[tok]))
        ent[lang] = (n, len(c), s, math.log(float(n)) - s / float(n))
        top = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:20]
        zipf[lang] = (len(top), *ols([(math.log(float(i + 1)),
                                       math.log(float(v)))
                                      for i, (_, v) in enumerate(top)]))
        m2 = sum(v * v for v in c.values())
        yule[lang] = (n, len(c), sum(v == 1 for v in c.values()),
                      10000.0 * float(m2 - n) / (float(n) * float(n)))
    for lang, g in df.sort_values("doc_id").groupby("lang"):
        seen, cum_n, cum_v = set(), [0], []
        for text in g["text"]:
            toks = [w for w in text.split(" ") if w]
            seen.update(toks)
            cum_n.append(cum_n[-1] + len(toks))
            cum_v.append(len(seen))
        cum_n, nd = cum_n[1:], len(cum_v)
        pos = sorted({max(1, (i * nd) // 5) for i in range(1, 6)})
        heaps[lang] = (nd, cum_n[-1], cum_v[-1], len(pos),
                       *ols([(math.log(float(cum_n[p - 1])),
                              math.log(float(cum_v[p - 1]))) for p in pos]))

    ds = _blocks(t, 3)
    rows = {
        "entropy": (token_entropy_stats(ds, "text", "lang"),
                    ["n_tokens", "n_vocab", "sum_clnc", "entropy"], ent),
        "zipf": (zipf_slope_stats(ds, "text", "lang", k=20),
                 ["n_top", "zipf_slope", "zipf_intercept"], zipf),
        "yule": (vocab_richness(ds, "text", "lang"),
                 ["n_tokens", "n_vocab", "n_hapax", "yule_k"], yule),
        "heaps": (heaps_law_stats(ds, "text", "doc_id", "lang",
                                  checkpoints=5),
                  ["n_docs", "n_tokens", "n_vocab", "n_points",
                   "heaps_beta", "heaps_log_k"], heaps)}
    for name, (out, cols, ref) in rows.items():
        got = out.to_pandas()
        assert len(got) == len(ref) == 300, name
        assert {r[0]: tuple(r[1:]) for r in
                got[["lang", *cols]].itertuples(index=False)} == ref, name


_NULL_KEYED = ["regex_scrub_stats", "ngram_contamination_counts",
               "json_int_field_stats", "quality_rule_funnel",
               "vocab_richness", "token_entropy_stats", "zipf_slope_stats",
               "heaps_law_stats", "duplicate_span_report",
               "drop_duplicate_span_stats", "lm_surprise_stats"]


def test_null_key_is_one_more_key(ray_session):
    """A null ``lang`` is one group, as in SQL's GROUP BY: every per-key
    operator gives the frame it gives with the nulls spelled as one more
    key, the doc counts match DuckDB's GROUP BY, cosine pairs skip the
    null key (``a.key < b.key`` is NULL in SQL) and Naive Bayes leaves
    unlabelled documents out."""
    import duckdb
    import pyarrow as pa

    t = _layout_corpus(300, 5, 60)
    lang = [None if i % 7 == 0 else v
            for i, v in enumerate(t["lang"].to_pylist())]
    at = t.schema.get_field_index("lang")
    nulls = t.set_column(at, "lang", pa.array(lang, pa.string()))
    spelled = t.set_column(at, "lang", pa.array(
        [v if v is not None else "~null" for v in lang], pa.string()))
    ops = _textstats_layout_ops()

    def unspell(df):
        return df.replace({"~null": None})

    groups = duckdb.sql("SELECT lang, COUNT(*) AS n FROM nulls "
                        "GROUP BY lang").df()
    want = dict(zip(groups["lang"].where(groups["lang"].notna(), None),
                    groups["n"]))
    for op in _NULL_KEYED:
        got = _frame(ops[op](_blocks(nulls, 3)))
        assert got["lang"].isna().sum() == 1, op
        ref = _frame(unspell(_frame(ops[op](_blocks(spelled, 3)))))
        pd.testing.assert_frame_equal(got, ref, check_exact=True, obj=op)
        if op in ("regex_scrub_stats", "ngram_contamination_counts",
                  "quality_rule_funnel", "drop_duplicate_span_stats"):
            assert {(None if pd.isna(k) else k): n for k, n in
                    zip(got["lang"], got["n_docs"])} == want, op

    cos = _frame(ops["lang_token_cosine"](_blocks(nulls, 3)))
    ref = _frame(ops["lang_token_cosine"](_blocks(spelled, 3)))
    ref = ref[(ref["key_a"] != "~null") & (ref["key_b"] != "~null")]
    pd.testing.assert_frame_equal(cos, ref.reset_index(drop=True),
                                  check_exact=True)

    labelled = nulls.filter(pa.compute.is_valid(nulls["lang"]))
    pd.testing.assert_frame_equal(
        _frame(ops["nb_classifier_confusion"](_blocks(nulls, 3))),
        _frame(ops["nb_classifier_confusion"](_blocks(labelled, 3))),
        check_exact=True)
