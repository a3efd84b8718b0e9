"""Curation operators: exact prefix-sum shard packing, deterministic
samplers, normalization dedup — each checked against a single-process
reference AND for layout/parallelism invariance (the SURVEY §4 per-row
invariant: same answer at any bucket count / block layout)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from t_digest_ray.functions.hashing import splitmix64
from t_digest_ray.pipelines.curation import (add_normalized_hash,
                                             bernoulli_sample,
                                             normalize_expr,
                                             normalized_distinct_by_key,
                                             prefix_sum_shards,
                                             stratified_sample)


def _ds(table: pa.Table, blocks: int = 1):
    import ray
    if blocks <= 1:
        return ray.data.from_arrow(table)
    n = table.num_rows
    step = -(-n // blocks)
    return ray.data.from_arrow(
        [table.slice(i, step) for i in range(0, n, step)])


# ---------------------------------------------------------------------------
# prefix_sum_shards
# ---------------------------------------------------------------------------

def _pack_ref(order, weight, budget):
    df = pd.DataFrame({"o": order, "w": weight}).sort_values("o")
    excl = np.cumsum(np.r_[np.int64(0),
                           df["w"].to_numpy(np.int64)[:-1]])
    return dict(zip(df["o"], excl // budget)), dict(zip(df["o"], excl))


@pytest.mark.parametrize("n_buckets,blocks", [(1, 1), (4, 3), (16, 5)])
def test_prefix_sum_shards_matches_reference(ray_session, n_buckets, blocks):
    rng = np.random.default_rng(7)
    order = rng.permutation(200).astype(np.int64)  # shuffled arrival
    weight = rng.integers(0, 50, size=200).astype(np.int64)
    t = pa.table({"doc_id": order, "w": weight})
    out = prefix_sum_shards(_ds(t, blocks), "doc_id", "w", budget=100,
                            n_buckets=n_buckets).to_pandas()
    want_shard, want_off = _pack_ref(order, weight, 100)
    assert len(out) == 200
    got_shard = dict(zip(out["doc_id"], out["shard_id"]))
    got_off = dict(zip(out["doc_id"], out["offset"]))
    assert got_shard == want_shard
    assert got_off == want_off


def test_prefix_sum_shards_carry_and_zero_weight(ray_session):
    t = pa.table({"doc_id": pa.array([3, 1, 2], type=pa.int64()),
                  "w": pa.array([0, 5, 0], type=pa.int64()),
                  "lang": ["a", "b", "c"]})
    out = prefix_sum_shards(_ds(t), "doc_id", "w", budget=10,
                            carry_cols=("lang",),
                            n_buckets=2).to_pandas().sort_values("doc_id")
    # order 1(w5) -> 2(w0) -> 3(w0): offsets 0, 5, 5
    assert out["offset"].tolist() == [0, 5, 5]
    assert out["lang"].tolist() == ["b", "c", "a"]
    assert (out["shard_id"] == 0).all()


def test_prefix_sum_shards_rejects_negative(ray_session):
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "w": pa.array([-3], type=pa.int64())})
    with pytest.raises(Exception):
        prefix_sum_shards(_ds(t), "doc_id", "w", budget=10,
                          n_buckets=1).to_pandas()


# ---------------------------------------------------------------------------
# stratified_sample
# ---------------------------------------------------------------------------

def _strat_ref(keys, ids, k, seed=0):
    h = splitmix64(np.asarray(ids, dtype=np.uint64)
                   ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)) \
        if seed else splitmix64(np.asarray(ids, dtype=np.uint64))
    df = pd.DataFrame({"k": keys, "i": ids, "h": h})
    return set(map(tuple,
                   df.sort_values(["k", "h"]).groupby("k").head(k)
                   [["k", "i"]].itertuples(index=False)))


@pytest.mark.parametrize("blocks", [1, 4])
def test_stratified_sample_matches_reference(ray_session, blocks):
    rng = np.random.default_rng(11)
    keys = rng.choice(["en", "de", "fr"], size=300)
    ids = rng.permutation(300).astype(np.int64)
    t = pa.table({"lang": keys, "doc_id": ids})
    out = stratified_sample(_ds(t, blocks), "lang", "doc_id",
                            k=7).to_pandas()
    got = set(map(tuple, out[["lang", "doc_id"]].itertuples(index=False)))
    assert got == _strat_ref(keys, ids, 7)
    assert out.groupby("lang").size().max() == 7


def test_stratified_sample_small_groups_and_seed(ray_session):
    # k larger than a stratum: the whole stratum survives
    t = pa.table({"lang": ["en", "en", "de"],
                  "doc_id": pa.array([1, 2, 3], type=pa.int64())})
    out = stratified_sample(_ds(t), "lang", "doc_id", k=10).to_pandas()
    assert len(out) == 3
    # a different seed picks a different subset (on a bigger stratum)
    ids = np.arange(100, dtype=np.int64)
    t2 = pa.table({"lang": ["en"] * 100, "doc_id": ids})
    a = set(stratified_sample(_ds(t2), "lang", "doc_id",
                              k=5).to_pandas()["doc_id"])
    b = set(stratified_sample(_ds(t2), "lang", "doc_id", k=5,
                              seed=99).to_pandas()["doc_id"])
    assert a == {x[1] for x in _strat_ref(["en"] * 100, ids, 5)}
    assert b == {x[1] for x in _strat_ref(["en"] * 100, ids, 5, seed=99)}
    assert a != b


# ---------------------------------------------------------------------------
# bernoulli_sample
# ---------------------------------------------------------------------------

def test_bernoulli_sample_deterministic_and_correct(ray_session):
    ids = np.arange(2000, dtype=np.int64)
    t = pa.table({"doc_id": ids, "v": ids * 2})
    rate = 0.25
    out = bernoulli_sample(_ds(t, 3), "doc_id", rate).to_pandas()
    thr = np.uint64(int(rate * 2.0 ** 64))
    want = ids[splitmix64(ids.astype(np.uint64)) < thr]
    assert set(out["doc_id"]) == set(want)
    # carried column intact, rate roughly honored
    assert (out["v"].to_numpy() == out["doc_id"].to_numpy() * 2).all()
    assert 0.2 < len(out) / 2000 < 0.3
    # disjointness of seeded split halves is NOT expected; same-seed rerun is
    again = bernoulli_sample(_ds(t, 1), "doc_id", rate).to_pandas()
    assert set(again["doc_id"]) == set(out["doc_id"])


# ---------------------------------------------------------------------------
# normalization dedup
# ---------------------------------------------------------------------------

def test_normalize_expr_rules():
    arr = pa.array(["  Hello\t\tWorld \n", "hello world", "HELLO  WORLD",
                    "distinct text"])
    got = normalize_expr(arr).to_pylist()
    assert got == ["hello world", "hello world", "hello world",
                   "distinct text"]


def test_normalized_distinct_by_key(ray_session):
    t = pa.table({
        "lang": ["en", "en", "en", "de", "de"],
        "text": ["A  b", "a B", "c", "x", " X "],
    })
    out = normalized_distinct_by_key(_ds(t, 2), "text", "lang") \
        .to_pandas().set_index("lang")["n_distinct"].to_dict()
    assert out == {"en": 2, "de": 1}


def test_add_normalized_hash_stable_across_layout(ray_session):
    t = pa.table({"text": ["A  b", "a B", "zzz"],
                  "doc_id": pa.array([1, 2, 3], type=pa.int64())})
    one = add_normalized_hash(_ds(t, 1), "text").to_pandas()
    two = add_normalized_hash(_ds(t, 3), "text").to_pandas()
    m1 = dict(zip(one["doc_id"], one["norm_h"]))
    m2 = dict(zip(two["doc_id"], two["norm_h"]))
    assert m1 == m2 and m1[1] == m1[2] != m1[3]


# ---------------------------------------------------------------------------
# topk_per_key / weighted_mixture / quantile_range_partition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("blocks", [1, 4])
def test_topk_per_key_matches_reference(ray_session, blocks):
    rng = np.random.default_rng(3)
    keys = rng.choice(["a", "b", "c"], size=200)
    vals = rng.integers(0, 50, size=200).astype(np.int64)  # many ties
    ids = np.arange(200, dtype=np.int64)
    t = pa.table({"k": keys, "v": vals, "i": ids})
    from t_digest_ray.pipelines.curation import topk_per_key
    out = topk_per_key(_ds(t, blocks), "k", "v", "i", k=4).to_pandas()
    ref = (pd.DataFrame({"k": keys, "v": vals, "i": ids})
           .sort_values(["k", "v", "i"], ascending=[True, False, True])
           .groupby("k").head(4))
    got = set(map(tuple, out[["k", "i"]].itertuples(index=False)))
    want = set(map(tuple, ref[["k", "i"]].itertuples(index=False)))
    assert got == want
    # smallest=False direction
    out2 = topk_per_key(_ds(t, blocks), "k", "v", "i", k=4,
                        largest=False).to_pandas()
    ref2 = (pd.DataFrame({"k": keys, "v": vals, "i": ids})
            .sort_values(["k", "v", "i"]).groupby("k").head(4))
    assert set(map(tuple, out2[["k", "i"]].itertuples(index=False))) == \
        set(map(tuple, ref2[["k", "i"]].itertuples(index=False)))


def test_weighted_mixture_nesting_and_reference(ray_session):
    ids = np.arange(3000, dtype=np.int64)
    langs = np.array(["en", "de", "fr"])[ids % 3]
    t = pa.table({"doc_id": ids, "lang": langs})
    from t_digest_ray.pipelines.curation import weighted_mixture
    lo = weighted_mixture(_ds(t, 2), "lang", "doc_id",
                          {"en": 0.2, "de": 0.5}, 0.1).to_pandas()
    hi = weighted_mixture(_ds(t, 2), "lang", "doc_id",
                          {"en": 0.6, "de": 0.5}, 0.1).to_pandas()
    h = splitmix64(ids.astype(np.uint64))
    for df, en_rate in ((lo, 0.2), (hi, 0.6)):
        thr = {"en": en_rate, "de": 0.5, "fr": 0.1}
        want = {int(i) for i, l_ in zip(ids, langs)
                if h[i] < np.uint64(int(thr[l_] * 2.0 ** 64))}
        assert set(df["doc_id"]) == want
    # raising en's rate strictly grows en's keep-set (nesting)
    assert set(lo[lo.lang == "en"]["doc_id"]) < \
        set(hi[hi.lang == "en"]["doc_id"])


def test_quantile_range_partition_balance_and_total(ray_session):
    rng = np.random.default_rng(5)
    vals = rng.lognormal(0.0, 2.0, size=20000)  # heavy skew
    t = pa.table({"value": vals})
    from t_digest_ray.pipelines.curation import quantile_range_partition
    out = quantile_range_partition(_ds(t, 4), "value", 8).to_pandas()
    assert len(out) == 20000
    counts = out["partition_id"].value_counts()
    assert set(counts.index) == set(range(8))
    frac = counts.to_numpy() / 20000
    assert np.abs(frac - 1 / 8).max() <= 0.02
    # monotone: partition id non-decreasing in value
    s = out.sort_values("value")
    assert (np.diff(s["partition_id"].to_numpy()) >= 0).all()


def test_pages_host_quota_matches_duckdb(ray_session):
    """Per-host quota composition: extractor -> quality -> topk_per_key
    reproduces the SQL window (ROW_NUMBER <= 3) answer exactly."""
    import duckdb
    import pandas as pd

    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    got = e.queries()["pages_host_quota"](sf).to_pandas() \
        .sort_values(["host", "url"]).reset_index(drop=True)
    con = duckdb.connect()
    con.execute("CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf}/documents.parquet')")
    want = con.execute(e.oracle_sql()["pages_host_quota"]).df() \
        .sort_values(["host", "url"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert got.groupby("host").size().max() <= 3


def _seq_pack(weights, budget):
    s, f, out = 0, 0, []
    for w in weights:
        if f + w > budget:
            s += 1
            f = w
        else:
            f += w
        out.append(s)
    return np.asarray(out, dtype=np.int64)


@pytest.mark.parametrize("n_buckets,parts", [(1, 2), (7, 4), (32, 8)])
def test_greedy_pack_matches_sequential(ray_session, n_buckets, parts):
    """No-straddle packing == the sequential scan at ANY bucket count /
    parallelism, including zero-weight and oversize rows."""
    import ray

    from t_digest_ray.pipelines.curation import greedy_pack_shards

    rng = np.random.default_rng(11)
    n = 3000
    w = rng.integers(0, 400, size=n).astype(np.int64)
    w[rng.integers(0, n, 5)] = 0          # zero-weight rows
    w[rng.integers(0, n, 3)] = 5000       # oversize (> budget) rows
    order = rng.permutation(n).astype(np.int64)  # ids arrive shuffled
    t = pa.table({"oid": order, "w": w[order]})
    got = greedy_pack_shards(_ds(t, parts), "oid", "w", budget=1024,
                             n_buckets=n_buckets).to_pandas() \
        .sort_values("oid").reset_index(drop=True)
    # sequential reference over rows in oid order
    w_in_order = t.to_pandas().sort_values("oid")["w"].to_numpy()
    want = _seq_pack(w_in_order, 1024)
    assert (got["oid"].to_numpy() == np.arange(n)).all()
    np.testing.assert_array_equal(got["shard_id"].to_numpy(), want)
    # no-straddle invariant: every non-oversize shard's load <= budget
    load = got.groupby("shard_id")["w"].sum()
    n_rows = got.groupby("shard_id").size()
    assert ((load <= 1024) | (n_rows == 1)).all()


def test_greedy_pack_by_key_fresh_per_key(ray_session):
    """Each key packs fresh (local ids from 0); result equals the per-key
    sequential scan and is invariant to input layout."""
    from t_digest_ray.pipelines.curation import greedy_pack_by_key

    rng = np.random.default_rng(23)
    n = 2000
    t = pa.table({
        "k": pa.array(rng.integers(0, 7, n).astype(np.int64)),
        "oid": pa.array(np.arange(n, dtype=np.int64)),
        "w": pa.array(rng.integers(1, 300, n).astype(np.int64)),
    })
    outs = []
    for parts in (2, 8):
        outs.append(greedy_pack_by_key(_ds(t, parts), "k", "oid", "w",
                                       budget=700).to_pandas()
                    .sort_values(["k", "oid"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    df = t.to_pandas()
    for k, g in df.groupby("k"):
        want = _seq_pack_fresh(g.sort_values("oid")["w"].to_numpy(), 700)
        got = outs[0][outs[0]["k"] == k]["shard_id"].to_numpy()
        np.testing.assert_array_equal(got, want)


def _seq_pack_fresh(weights, budget):
    s, f, out = 0, None, []
    for w in weights:
        if f is None:
            f = w
        elif f + w > budget:
            s += 1
            f = w
        else:
            f += w
        out.append(s)
    return np.asarray(out, dtype=np.int64)


def test_weighted_bernoulli_sample(ray_session):
    """Keep-set equals the exact big-int reference (p = min(1, w*num/2^12)),
    is layout-invariant, and clamps to always-keep for heavy rows."""
    from t_digest_ray.pipelines.curation import weighted_bernoulli_sample

    rng = np.random.default_rng(31)
    ids = np.arange(4000, dtype=np.int64)
    w = rng.integers(0, 600, 4000).astype(np.int64)
    w[:10] = 2000  # w*3 >= 2^12 -> probability clamps at 1
    t = pa.table({"doc_id": ids, "w": w})
    h = splitmix64(ids.astype(np.uint64))
    want = {int(i) for i, hi, wi in zip(ids, h, w)
            if wi * 3 >= 4096 or int(hi) < (wi * 3) << 52}
    for parts in (1, 5):
        out = weighted_bernoulli_sample(_ds(t, parts), "doc_id", "w",
                                        num=3, log2_den=12).to_pandas()
        assert set(out["doc_id"]) == want
    assert set(ids[:10]) <= want  # clamp rows always kept
    # rough proportionality: keep rate ~ E[min(1, 3w/4096)]
    p = np.minimum(1.0, 3.0 * w / 4096)
    assert abs(len(want) / 4000 - p.mean()) < 0.03


def test_line_dedup_stats_and_rewrite(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.curation import (drop_duplicate_lines,
                                                 line_dedup_stats)

    boiler = "subscribe to our newsletter"
    docs = pd.DataFrame({
        "doc_id": np.int64([1, 2, 3]),
        "lang": ["en", "en", "de"],
        "text": [f"alpha one. {boiler}. beta two",
                 f"{boiler}. gamma three",
                 "delta four. epsilon five"]})
    ds = rd.from_pandas(docs).repartition(3)

    stats = (line_dedup_stats(ds, "text", "lang", sep=". ")
             .to_pandas().set_index("lang").sort_index())
    assert stats.loc["en", "n_lines"] == 5
    assert stats.loc["en", "n_dup_lines"] == 2      # boiler twice
    assert stats.loc["de", "n_dup_lines"] == 0
    assert stats.loc["en", "chars_kept"] == sum(
        len(s) for s in ["alpha one", "beta two", "gamma three"])

    out = (drop_duplicate_lines(ds, "text", "doc_id", sep=". ")
           .to_pandas().set_index("doc_id").sort_index())
    assert out.loc[1, "text"] == "alpha one. beta two"
    assert out.loc[2, "text"] == "gamma three"
    assert out.loc[3, "text"] == "delta four. epsilon five"
    assert out["n_dropped"].tolist() == [1, 1, 0]


def test_config_routes_line_dedup(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    sf = "/root/testdata/sf0.001"
    out = run_job(JobConfig(pipeline="line_dedup_stats",
                            input=f"{sf}/documents.parquet",
                            columns=["lang", "text"],
                            key="lang", value_col="text")).to_pandas()
    assert len(out) == 5 and (out["n_lines"] > 0).all()

    out = run_job(JobConfig(pipeline="line_dedup",
                            input=f"{sf}/documents.parquet",
                            columns=["doc_id", "text"],
                            key="doc_id", value_col="text")).to_pandas()
    assert len(out) == 500 and "n_dropped" in out.columns


def test_dsir_importance_stats_matches_pure_python(ray_session):
    import pyarrow.parquet as pq
    import ray.data as rd

    from t_digest_ray.functions.hashing import hash64, splitmix64
    from t_digest_ray.pipelines.curation import dsir_importance_stats

    path = "/root/testdata/sf0.001/documents.parquet"
    B, alpha, seed, k = 4096, 1.0, 7, 30
    ds = rd.read_parquet(path, columns=["doc_id", "text", "lang"]) \
        .repartition(4)
    out = dsir_importance_stats(ds, target_group="en", k=k,
                                n_buckets=B, alpha=alpha, seed=seed)

    df = pq.read_table(path, columns=["doc_id", "text", "lang"]) \
        .to_pandas()
    t = np.zeros(B, np.int64)
    r = np.zeros(B, np.int64)
    buckets_of = {}
    for _, row in df.iterrows():
        toks = [x for x in row["text"].split(" ") if x]
        b = (hash64(np.array(toks, dtype=object))
             % np.uint64(B)).astype(np.int64)
        buckets_of[row["doc_id"]] = b
        np.add.at(r, b, 1)
        if row["lang"] == "en":
            np.add.at(t, b, 1)
    lam = (np.log((t + alpha) / (t.sum() + alpha * B))
           - np.log((r + alpha) / (r.sum() + alpha * B)))
    rows = []
    for _, row in df.iterrows():
        b = buckets_of[row["doc_id"]]
        # same fold order as the engine: per-doc bincount in token order
        logw = float(np.bincount(np.zeros(len(b), dtype=np.int64),
                                 weights=lam[b], minlength=1)[0]) \
            if len(b) else 0.0
        u = (float(splitmix64(np.array([row["doc_id"]], dtype=np.uint64)
                              ^ np.uint64(seed))[0]) + 1.0) \
            / 18446744073709551618.0
        rows.append((row["doc_id"], logw - np.log(-np.log(u)),
                     row["lang"]))
    bf = pd.DataFrame(rows, columns=["doc", "skey", "lang"])
    order = np.lexsort((bf["doc"].to_numpy(), -bf["skey"].to_numpy()))[:k]
    sel = bf.iloc[order]
    ref = df.groupby("lang").size().rename("n_docs").reset_index()
    ref = ref.merge(sel.groupby("lang").size().rename("n_selected")
                    .reset_index(), on="lang", how="left")
    ref["n_selected"] = ref["n_selected"].fillna(0).astype(np.int64)
    ref["n_docs"] = ref["n_docs"].astype(np.int64)
    pd.testing.assert_frame_equal(out, ref)
    # the target slice is boosted above its corpus share
    en_share = ref.set_index("lang")["n_docs"]["en"] / ref["n_docs"].sum()
    en_sel = ref.set_index("lang")["n_selected"]["en"] / k
    assert en_sel > en_share


def test_dsir_config_route(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    out = run_job(JobConfig(
        pipeline="dsir", input="/root/testdata/sf0.001/documents.parquet",
        key="lang", value_col="text",
        columns=["doc_id", "text", "lang"],
        params={"target_group": "en", "k": 20})).to_pandas()
    assert set(out.columns) == {"lang", "n_docs", "n_selected"}
    assert out["n_selected"].sum() == 20


def test_canonicalize_urls_rules():
    from t_digest_ray.functions.url import canonicalize_urls, url_host

    raw = pa.array([
        "HTTPS://WWW.Example.COM:80/a/1/",          # case+www+port+slash
        "https://example.com/a/1",                   # already canonical
        "http://site.org/p/?utm_source=x&id=3",      # leading tracker
        "http://site.org/p?id=3&utm_campaign=y#top",  # trailing + frag
        "http://site.org/p?id=3",                     # canonical twin
        "not a url #frag",                            # no scheme://host
    ])
    got = canonicalize_urls(raw).to_pylist()
    assert got[0] == "https://example.com/a/1"
    assert got[0] == got[1]
    assert got[2] == "http://site.org/p?id=3"
    assert got[2] == got[3] == got[4]
    assert got[5] == "not a url "  # fragment stripped, otherwise total
    hosts = url_host(pa.array(got[:5])).to_pylist()
    assert hosts == ["example.com", "example.com",
                     "site.org", "site.org", "site.org"]


def test_canonical_url_report_matches_pandas(ray_session):
    from t_digest_ray.functions.url import (canonicalize_urls,
                                            messy_urls_from_ids,
                                            url_host)
    from t_digest_ray.pipelines.curation import canonical_url_report

    ids = pa.array(np.arange(300, dtype=np.int64))
    urls = messy_urls_from_ids(ids)
    tbl = pa.table({"url": urls})
    for blocks in (1, 7):
        out = canonical_url_report(_ds(tbl, blocks), "url")
        canon = canonicalize_urls(urls)
        ref = pd.DataFrame({
            "host": url_host(canon).to_pylist(),
            "canon": canon.to_pylist()})
        exp = (ref.groupby("host")
               .agg(n_pages=("canon", "size"),
                    n_canonical=("canon", "nunique"))
               .reset_index())
        exp["n_dup"] = exp["n_pages"] - exp["n_canonical"]
        for c in ("n_pages", "n_canonical", "n_dup"):
            exp[c] = exp[c].astype(np.int64)
        pd.testing.assert_frame_equal(
            out.reset_index(drop=True), exp)
        # the fixture actually plants collisions
        assert (exp["n_dup"] > 0).any()


# ---------------------------------------------------------------------------
# keyed-exchange layout: the same frame at 1 and 7 input blocks, with a few
# keys and with enough keys that every exchange bucket folds several
# ---------------------------------------------------------------------------

def _corpus(n_docs: int, n_keys: int, seed: int = 5) -> pa.Table:
    rng = np.random.default_rng(seed)
    vocab = np.array([f"line {i}" for i in range(max(n_docs // 3, 4))])
    ids = rng.permutation(n_docs).astype(np.int64)
    keys = rng.integers(0, n_keys, n_docs).astype(np.int64)
    return pa.table({
        "doc_id": ids,
        "key": keys,
        "source": rng.choice(["web", "wiki", "code"], n_docs),
        "n_chars": rng.integers(1, 400, n_docs).astype(np.int64),
        "text": [". ".join(rng.choice(vocab, size=rng.integers(1, 6)))
                 for _ in range(n_docs)],
        # two spellings per (host, path) that collide once canonical
        "url": [f"HTTPS://WWW.Host{k}.COM:80/p/{i % 3}/" if i % 2 else
                f"https://host{k}.com/p/{i % 3}?utm_source=x"
                for k, i in zip(keys, ids)],
    })


def _layout_ops():
    from t_digest_ray.pipelines.curation import (canonical_url_report,
                                                 drop_duplicate_lines,
                                                 greedy_pack_by_key,
                                                 hash_split_counts,
                                                 k_anonymity_audit,
                                                 line_dedup_stats)
    return {
        "greedy_pack_by_key": lambda ds: greedy_pack_by_key(
            ds, "key", "doc_id", "n_chars", budget=700).to_pandas(),
        "line_dedup_stats": lambda ds: line_dedup_stats(
            ds, "text", "key").to_pandas(),
        "drop_duplicate_lines": lambda ds: drop_duplicate_lines(
            ds, "text", "doc_id").to_pandas(),
        "hash_split_counts": lambda ds: hash_split_counts(
            ds, "doc_id", "key", "n_chars").to_pandas(),
        "k_anonymity_audit": lambda ds: k_anonymity_audit(
            ds, ["key", "source"]),
        "canonical_url_report": lambda ds: canonical_url_report(ds, "url"),
    }


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("n_docs,n_keys", [(600, 7), (6000, 2500)])
@pytest.mark.parametrize("op", sorted(_layout_ops()))
def test_keyed_ops_same_frame_at_1_and_7_blocks(ray_session, op, n_docs,
                                                n_keys):
    t = _corpus(n_docs, n_keys)
    fn = _layout_ops()[op]
    one, seven = (_canon(fn(_ds(t, blocks))) for blocks in (1, 7))
    assert len(one) > 0
    pd.testing.assert_frame_equal(one, seven)


def test_multi_key_folds_match_reference(ray_session):
    """2,000+ keys over a few exchange buckets: every call folds many
    keys (documents, strata, line hashes, hosts), and each key's answer
    equals a per-key reference."""
    from t_digest_ray.functions.url import canonicalize_urls, url_host
    from t_digest_ray.pipelines.curation import (canonical_url_report,
                                                 drop_duplicate_lines,
                                                 greedy_pack_by_key,
                                                 line_dedup_stats)

    t = _corpus(6000, 2500)
    df = t.to_pandas()
    ds = _ds(t, 7)
    assert df["key"].nunique() >= 2000

    got = greedy_pack_by_key(ds, "key", "doc_id", "n_chars",
                             budget=700).to_pandas() \
        .sort_values(["key", "doc_id"])
    want = np.concatenate([
        _seq_pack_fresh(g.sort_values("doc_id")["n_chars"].to_numpy(), 700)
        for _, g in df.groupby("key", sort=True)])
    np.testing.assert_array_equal(got["shard_id"].to_numpy(), want)

    lines = df.assign(line=df["text"].str.split(". ", regex=False)) \
        .explode("line")
    lines["dup"] = lines.groupby("line")["line"].transform("size") >= 2
    rebuilt = _canon(drop_duplicate_lines(ds, "text", "doc_id").to_pandas())
    ref = lines.groupby("doc_id", sort=True)[["line", "dup"]].apply(
        lambda g: pd.Series({"text": ". ".join(g["line"][~g["dup"]]),
                             "n_dropped": int(g["dup"].sum())}))
    assert rebuilt["doc_id"].tolist() == ref.index.tolist()
    assert rebuilt["text"].tolist() == ref["text"].tolist()
    assert rebuilt["n_dropped"].tolist() == ref["n_dropped"].tolist()

    stats = _canon(line_dedup_stats(ds, "text", "key").to_pandas())
    lines["kept"] = np.where(lines["dup"], 0, lines["line"].str.len())
    ref = lines.groupby("key", sort=True).agg(
        n_lines=("line", "size"), n_dup_lines=("dup", "sum"),
        chars_kept=("kept", "sum"))
    assert stats["key"].tolist() == ref.index.tolist()
    for c in ("n_lines", "n_dup_lines", "chars_kept"):
        assert stats[c].tolist() == ref[c].tolist(), c

    urls = pa.array(df["url"])
    canon = canonicalize_urls(urls)
    ref = (pd.DataFrame({"host": url_host(canon).to_pylist(),
                         "canon": canon.to_pylist()})
           .groupby("host").agg(n_pages=("canon", "size"),
                                n_canonical=("canon", "nunique")))
    report = canonical_url_report(ds, "url")
    assert report["host"].tolist() == ref.index.tolist()
    assert report["n_pages"].tolist() == ref["n_pages"].tolist()
    assert report["n_canonical"].tolist() == ref["n_canonical"].tolist()
    assert (report["n_dup"] > 0).any()
