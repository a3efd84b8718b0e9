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
