"""Pareto frontier, percent_rank, and fuzzy vocabulary-pair operators,
each checked against a brute-force reference on randomized inputs."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from t_digest_ray.pipelines.stats import (_frontier_mask,
                                          grouped_pareto_frontier,
                                          grouped_percent_rank)
from t_digest_ray.stages.fuzzy import (_deletion_variants, fuzzy_vocab_pairs,
                                       within_one_edit)


def brute_frontier(x, y):
    n = len(x)
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if (x[j] >= x[i] and y[j] >= y[i]
                    and (x[j] > x[i] or y[j] > y[i])):
                keep[i] = False
                break
    return keep


def brute_levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def test_frontier_mask_matches_bruteforce(rng):
    for trial in range(30):
        n = int(rng.integers(1, 60))
        # small int domain => plenty of duplicate coordinates and ties
        x = rng.integers(0, 8, n).astype(np.float64)
        y = rng.integers(0, 8, n).astype(np.float64)
        got = _frontier_mask(x, y)
        want = brute_frontier(x, y)
        assert np.array_equal(got, want), (trial, x, y)


def test_frontier_mask_duplicates_survive_together():
    x = np.array([5.0, 5.0, 1.0])
    y = np.array([3.0, 3.0, 9.0])
    m = _frontier_mask(x, y)
    assert m.tolist() == [True, True, True]


def test_frontier_mergeable(rng):
    x = rng.integers(0, 20, 200).astype(np.float64)
    y = rng.integers(0, 20, 200).astype(np.float64)
    whole = set(zip(x[_frontier_mask(x, y)], y[_frontier_mask(x, y)]))
    ka, kb = _frontier_mask(x[:90], y[:90]), _frontier_mask(x[90:], y[90:])
    ux = np.concatenate([x[:90][ka], x[90:][kb]])
    uy = np.concatenate([y[:90][ka], y[90:][kb]])
    merged = set(zip(ux[_frontier_mask(ux, uy)], uy[_frontier_mask(ux, uy)]))
    assert whole == merged


def test_grouped_pareto_frontier_dataset(ray_session, rng):
    import ray

    n = 500
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], n),
        "x": rng.integers(0, 30, n).astype(np.float64),
        "y": rng.integers(0, 30, n).astype(np.float64),
        "rid": np.arange(n, dtype=np.int64),
    })
    out = (grouped_pareto_frontier(
        ray.data.from_pandas(df).repartition(7), "k", "x", "y", "rid")
        .to_pandas().sort_values("rid").reset_index(drop=True))
    want_ids = []
    for k, g in df.groupby("k"):
        m = brute_frontier(g["x"].to_numpy(), g["y"].to_numpy())
        want_ids.extend(g["rid"].to_numpy()[m].tolist())
    assert sorted(out["rid"].tolist()) == sorted(want_ids)


def test_grouped_percent_rank_matches_pandas(ray_session, rng):
    import ray

    n = 400
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], n),
        "v": (rng.integers(0, 50, n) / 4.0),
    })
    out = (grouped_percent_rank(
        ray.data.from_pandas(df).repartition(5), "k", "v")
        .to_pandas().sort_values(["k", "v"]).reset_index(drop=True))
    # pandas reference: percent_rank of each row, min per distinct value
    ref_rows = []
    for k, g in df.groupby("k"):
        pr = g["v"].rank(method="min").sub(1).div(len(g) - 1)
        r = pd.DataFrame({"v": g["v"], "pr": pr}).groupby("v", as_index=False)
        ref_rows.append(r.agg(cnt=("pr", "size"), pct_rank=("pr", "min"))
                        .assign(k=k))
    ref = (pd.concat(ref_rows).sort_values(["k", "v"])
           .reset_index(drop=True))
    assert len(out) == len(ref)
    assert np.array_equal(out["cnt"].to_numpy(),
                          ref["cnt"].to_numpy(dtype=np.int64))
    assert np.array_equal(out["pct_rank"].to_numpy(),
                          ref["pct_rank"].to_numpy())  # bit-exact


def test_percent_rank_single_row_key(ray_session):
    import ray

    df = pd.DataFrame({"k": ["solo"], "v": [3.5]})
    out = grouped_percent_rank(ray.data.from_pandas(df), "k", "v").to_pandas()
    assert out["pct_rank"].tolist() == [0.0]
    assert out["cnt"].tolist() == [1]


def test_within_one_edit_matches_dp(rng):
    alpha = list("abc")
    words = ["".join(rng.choice(alpha, int(rng.integers(1, 6))))
             for _ in range(80)]
    for a in words[:40]:
        for b in words[40:]:
            assert within_one_edit(a, b) == (brute_levenshtein(a, b) == 1), \
                (a, b)


def test_deletion_variant_blocking_complete(rng):
    # distance-1 pairs ALWAYS share a deletion variant (SymSpell property)
    alpha = list("ab")
    words = {"".join(rng.choice(alpha, int(rng.integers(1, 7))))
             for _ in range(120)}
    words = sorted(words)
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            if brute_levenshtein(a, b) == 1:
                assert set(_deletion_variants(a)) & set(_deletion_variants(b))


def test_fuzzy_vocab_pairs_dataset(ray_session, rng):
    import ray

    alpha = list("abcd")
    vocab = sorted({"".join(rng.choice(alpha, int(rng.integers(2, 6))))
                    for _ in range(150)})
    cnt = rng.integers(1, 100, len(vocab)).astype(np.int64)
    df = pd.DataFrame({"head": vocab, "cnt": cnt})
    out = (fuzzy_vocab_pairs(
        ray.data.from_pandas(df).repartition(4), "head", "cnt")
        .to_pandas().sort_values(["head_a", "head_b"])
        .reset_index(drop=True))
    want = []
    cmap = dict(zip(vocab, cnt))
    for i, a in enumerate(vocab):
        for b in vocab[i + 1:]:
            if brute_levenshtein(a, b) == 1:
                want.append((a, b, cmap[a], cmap[b]))
    want_df = (pd.DataFrame(want,
                            columns=["head_a", "head_b", "cnt_a", "cnt_b"])
               .sort_values(["head_a", "head_b"]).reset_index(drop=True))
    assert len(out) == len(want_df) and len(want_df) > 0
    pd.testing.assert_frame_equal(
        out[["head_a", "head_b", "cnt_a", "cnt_b"]].astype(
            {"cnt_a": np.int64, "cnt_b": np.int64}),
        want_df)


def brute_gini(vals):
    x = np.sort(np.asarray(vals, dtype=np.float64))
    n = len(x)
    s = x.sum()
    if n == 0 or s == 0:
        return 0.0
    i = np.arange(1, n + 1)
    return float(2.0 * (i * x).sum() / (n * s) - (n + 1) / n)


def test_grouped_gini_matches_bruteforce(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import grouped_gini

    n = 600
    df = pd.DataFrame({
        "k": rng.choice(["a", "b", "c"], n),
        "v": (rng.integers(0, 5000, n) / 100.0),
    })
    out = (grouped_gini(ray.data.from_pandas(df).repartition(6), "k", "v")
           .to_pandas().sort_values("k").reset_index(drop=True))
    for _, row in out.iterrows():
        vals = df.loc[df["k"] == row["k"], "v"].to_numpy()
        cents = np.floor(vals * 100.0 + 0.5)
        assert row["n"] == len(vals)
        assert row["sum_cents"] == int(cents.sum())
        assert abs(row["gini"] - brute_gini(cents)) < 1e-12
        assert 0.0 <= row["gini"] < 1.0


def test_gini_extremes(ray_session):
    import ray
    from t_digest_ray.pipelines.stats import grouped_gini

    # perfectly equal values => gini 0; one holder of all mass => ~1-1/n
    df = pd.DataFrame({"k": ["eq"] * 50 + ["uneq"] * 50,
                       "v": [2.0] * 50 + [0.0] * 49 + [100.0]})
    out = grouped_gini(ray.data.from_pandas(df), "k", "v").to_pandas()
    out = out.set_index("k")
    assert out.loc["eq", "gini"] == 0.0
    assert abs(out.loc["uneq", "gini"] - (1.0 - 1.0 / 50)) < 1e-12


def test_grouped_quantile_cont_bit_matches_numpy(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import grouped_quantile_cont

    n = 700
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], n),
        "v": (rng.integers(0, 800, n) / 4.0),
    })
    qs = (0.01, 0.25, 0.5, 0.75, 0.9, 0.99)
    out = (grouped_quantile_cont(
        ray.data.from_pandas(df).repartition(5), "k", "v", qs)
        .to_pandas().set_index("k"))
    for k, g in df.groupby("k"):
        x = np.sort(g["v"].to_numpy())
        m = len(x)
        for q in qs:
            h = (m - 1) * q
            lo = int(np.floor(h))
            frac = h - lo
            want = x[lo] * (1.0 - frac) + x[min(lo + 1, m - 1)] * frac
            got = out.loc[k, f"cq{int(round(q * 100)):02d}"]
            assert got == want  # bit-exact


def test_json_int_field_stats(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.textstats import json_int_field_stats

    n = 300
    ks = rng.integers(0, 40, n)
    types = rng.choice(["x", "y"], n)
    # every third row lacks the field
    props = [('{"k": %d}' % k) if i % 3 else '{"other": 1}'
             for i, k in enumerate(ks)]
    df = pd.DataFrame({"t": types, "props": props})
    out = (json_int_field_stats(
        ray.data.from_pandas(df).repartition(4), "props", "k", "t")
        .to_pandas().set_index("t"))
    for t, g in df.groupby("t"):
        sub_ks = [int(p.split(": ")[1][:-1]) for p in g["props"]
                  if '"k"' in p]
        assert out.loc[t, "n_rows"] == len(g)
        assert out.loc[t, "n_with_field"] == len(sub_ks)
        assert out.loc[t, "n_distinct"] == len(set(sub_ks))
        assert out.loc[t, "sum_v"] == sum(sub_ks)
        assert out.loc[t, "min_v"] == min(sub_ks)
        assert out.loc[t, "max_v"] == max(sub_ks)


def test_quality_rule_funnel(ray_session):
    import ray
    from t_digest_ray.pipelines.textstats import quality_rule_funnel

    docs = pd.DataFrame({
        "lang": ["en"] * 4,
        "text": [
            "good solid words here ok fine yes",   # passes all
            "a b",                                  # fails len (2 toks)
            "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa x y z q",  # fails mwl band? (long word)
            "1234 5678 9012 3456 7890 1111 2222",   # fails alpha+digit
        ],
    })
    out = (quality_rule_funnel(ray.data.from_pandas(docs), "text", "lang",
                               min_tok=3, max_tok=100)
           .to_pandas().iloc[0])
    # brute check
    import re
    fails = {"len": 0, "mwl": 0, "alpha": 0, "digit": 0}
    npass = 0
    for t in docs["text"]:
        nc = len(t)
        nt = len(re.findall(r"\S+", t))
        na = len(re.findall(r"[A-Za-z]", t))
        nd = len(re.findall(r"[0-9]", t))
        ok = {"len": 3 <= nt <= 100,
              "mwl": 3 * nt <= nc <= 10 * nt,
              "alpha": 5 * na >= 3 * nc,
              "digit": 5 * nd <= nc}
        for r, v in ok.items():
            fails[r] += (not v)
        npass += all(ok.values())
    assert out["n_docs"] == 4
    for r in fails:
        assert out[f"fail_{r}"] == fails[r], r
    assert out["pass_all"] == npass
    assert npass >= 1 and fails["len"] >= 1


def test_token_cooccurrence(ray_session):
    import ray
    from t_digest_ray.pipelines.textstats import token_cooccurrence

    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": ["a b c", "a b", "a c", "b c d", "a a b", "d e"],
    })
    out = (token_cooccurrence(
        ray.data.from_pandas(docs).repartition(3), "text", "doc_id", k=4)
        .to_pandas().sort_values(["token_a", "token_b"])
        .reset_index(drop=True))
    # top-4 tokens by (count desc, token asc): a(5),b(4),c(3),d(2) -> a,b,c,d
    want = {("a", "b"): 3, ("a", "c"): 2, ("b", "c"): 2,
            ("b", "d"): 1, ("c", "d"): 1}
    got = {(r.token_a, r.token_b): r.n_docs_both
           for r in out.itertuples()}
    assert got == want


def test_benford_first_digit_counts(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import benford_first_digit_counts

    n = 500
    df = pd.DataFrame({"k": rng.choice(["p", "q"], n),
                       "v": rng.integers(0, 90000, n) / 100.0})
    out = (benford_first_digit_counts(
        ray.data.from_pandas(df).repartition(4), "k", "v")
        .to_pandas())
    got = {(r.k, r.digit): r.n_rows for r in out.itertuples()}
    cents = np.floor(df["v"].to_numpy() * 100 + 0.5).astype(np.int64)
    want = {}
    for k, c in zip(df["k"], cents):
        if c > 0:
            d = int(str(c)[0])
            want[(k, d)] = want.get((k, d), 0) + 1
    assert got == want
    assert all(1 <= d <= 9 for (_, d) in got)


def test_grouped_mode(ray_session):
    import ray
    from t_digest_ray.pipelines.stats import grouped_mode

    df = pd.DataFrame({
        "k": ["a"] * 7 + ["b"] * 4,
        "v": [3.0, 3.0, 1.0, 1.0, 2.0, 5.0, 9.0,   # tie 3 vs 1 -> pick 1.0
              7.0, 7.0, 7.0, 2.0],
    })
    out = (grouped_mode(ray.data.from_pandas(df).repartition(3), "k", "v")
           .to_pandas().set_index("k"))
    assert out.loc["a", "mode_value"] == 1.0 and out.loc["a", "mode_count"] == 2
    assert out.loc["a", "n_distinct"] == 5
    assert out.loc["b", "mode_value"] == 7.0 and out.loc["b", "mode_count"] == 3


def test_grouped_pearson_matches_numpy(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import grouped_pearson

    n = 400
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], n),
        "x": rng.integers(0, 100, n),
        "y": rng.integers(0, 100, n),
    })
    df["y"] = df["y"] + 2 * df["x"]  # induce correlation
    out = (grouped_pearson(ray.data.from_pandas(df).repartition(5),
                           "k", "x", "y").set_index("k"))
    for k, g in df.groupby("k"):
        want = np.corrcoef(g["x"], g["y"])[0, 1]
        assert abs(out.loc[k, "pearson_r"] - want) < 1e-12


def test_winsorized_mean_stats(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import winsorized_mean_stats

    n = 500
    df = pd.DataFrame({"k": rng.choice(["a", "b"], n),
                       "v": rng.integers(0, 10000, n) / 100.0})
    out = (winsorized_mean_stats(
        ray.data.from_pandas(df).repartition(4), "k", "v")
        .to_pandas().set_index("k"))
    for k, g in df.groupby("k"):
        v = np.sort(g["v"].to_numpy())
        m = len(v)
        # disc quantile convention: element at ceil(q*n)-1 (validated by
        # the repo's exact_quantiles_by_key against DuckDB quantile_disc)
        lo = v[max(int(np.ceil(0.05 * m)) - 1, 0)]
        hi = v[max(int(np.ceil(0.95 * m)) - 1, 0)]
        cents = np.floor(g["v"].to_numpy() * 100 + 0.5).astype(np.int64)
        loc = int(np.floor(lo * 100 + 0.5))
        hic = int(np.floor(hi * 100 + 0.5))
        clamped = np.minimum(np.maximum(cents, loc), hic)
        assert out.loc[k, "n"] == m
        assert out.loc[k, "winsorized_sum_cents"] == clamped.sum()
        want_clamped = int(((g["v"] < lo) | (g["v"] > hi)).sum())
        assert out.loc[k, "n_clamped"] == want_clamped


def test_locf_fill_stats(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.windows import locf_fill_stats

    n = 400
    ts = pd.to_datetime(
        np.sort(rng.integers(0, 10**9, n)), unit="s")
    df = pd.DataFrame({
        "user": rng.integers(0, 25, n),
        "ts": ts,
        "eid": np.arange(n, dtype=np.int64),
        "k": rng.choice(["x", "y"], n),
        "v": rng.integers(0, 1000, n) / 100.0,
    })
    df.loc[df["eid"] % 3 == 1, "v"] = np.nan
    out = (locf_fill_stats(
        ray.data.from_pandas(df).repartition(5),
        "user", "ts", "eid", "v", "k")
        .to_pandas().set_index("k"))
    # brute force
    want = {k: dict(n_rows=0, n_missing=0, n_filled=0, n_unfilled=0,
                    s=0) for k in ["x", "y"]}
    for _, g in df.sort_values(["user", "ts", "eid"]).groupby("user"):
        lastv = None
        for _, r in g.iterrows():
            w = want[r["k"]]
            w["n_rows"] += 1
            if np.isnan(r["v"]):
                w["n_missing"] += 1
                if lastv is None:
                    w["n_unfilled"] += 1
                else:
                    w["n_filled"] += 1
                    w["s"] += int(np.floor(lastv * 100 + 0.5))
            else:
                lastv = r["v"]
    for k, w in want.items():
        assert out.loc[k, "n_rows"] == w["n_rows"]
        assert out.loc[k, "n_missing"] == w["n_missing"]
        assert out.loc[k, "n_filled"] == w["n_filled"]
        assert out.loc[k, "n_unfilled"] == w["n_unfilled"]
        assert out.loc[k, "sum_filled_cents"] == w["s"]
    assert (out["n_missing"] > 0).all() and (out["n_filled"] > 0).all()


def test_bm25_topk_matches_bruteforce(ray_session):
    import math

    import ray
    from t_digest_ray.pipelines.textstats import bm25_topk

    docs = pd.DataFrame({
        "doc_id": np.arange(8, dtype=np.int64),
        "text": ["cat dog cat", "dog dog dog bird", "cat", "bird bird",
                 "cat dog bird fish", "fish fish", "dog cat", "x y z"],
    })
    terms = ["cat", "dog"]
    out = (bm25_topk(ray.data.from_pandas(docs).repartition(3),
                     "text", "doc_id", terms, topk=5)
           .to_pandas().reset_index(drop=True))
    # brute force
    toks = [t.split(" ") for t in docs["text"]]
    n = len(toks)
    dls = [len([w for w in ts if w]) for ts in toks]
    avgdl = float(sum(dls)) / float(n)
    k1, b = 1.2, 0.75
    rows = []
    for did, ts, dl in zip(docs["doc_id"], toks, dls):
        sc = 0.0
        for t in terms:
            df_t = sum(1 for u in toks if t in u)
            idf = math.log((float(n) - float(df_t) + 0.5)
                           / (float(df_t) + 0.5) + 1.0)
            tf = float(ts.count(t))
            sc = sc + idf * ((tf * (k1 + 1.0))
                             / (tf + k1 * ((1.0 - b)
                                           + b * (float(dl) / avgdl))))
        rows.append((did, dl, sc))
    want = sorted(rows, key=lambda r: (-r[2], r[0]))[:5]
    assert out["doc_id"].tolist() == [r[0] for r in want]
    assert out["bm25"].tolist() == [r[2] for r in want]  # bit-exact
    assert out["dl"].tolist() == [r[1] for r in want]


def test_welch_t_report(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import welch_t_report

    n = 600
    df = pd.DataFrame({
        "k": rng.choice(["x", "y", "z"], n),
        "v": rng.integers(0, 2000, n) / 100.0,
    })
    df.loc[df["k"] == "y", "v"] += 3.0  # shift group b
    out = welch_t_report(ray.data.from_pandas(df).repartition(4),
                         "k", "v", "x", "y").iloc[0]
    a = np.floor(df.loc[df["k"] == "x", "v"].to_numpy() * 100 + 0.5)
    b = np.floor(df.loc[df["k"] == "y", "v"].to_numpy() * 100 + 0.5)
    ma, mb = a.mean(), b.mean()
    va, vb = a.var(ddof=1), b.var(ddof=1)
    want_t = (ma - mb) / np.sqrt(va / len(a) + vb / len(b))
    assert out["n_a"] == len(a) and out["n_b"] == len(b)
    assert abs(out["mean_a_cents"] - ma) < 1e-9
    assert abs(out["t_stat"] - want_t) < 1e-9
    assert out["t_stat"] < -5  # planted shift is detected


def test_lang_token_cosine(ray_session):
    import math

    import ray
    from t_digest_ray.pipelines.textstats import lang_token_cosine

    docs = pd.DataFrame({
        "lang": ["en", "en", "fr", "fr", "de"],
        "text": ["a b c a", "a b", "a c c", "c c b", "b b b"],
    })
    out = (lang_token_cosine(ray.data.from_pandas(docs).repartition(2),
                             "text", "lang", k=3)
           .sort_values(["key_a", "key_b"]).reset_index(drop=True))
    # vocab = a(4), b(5)... counts: a:4? a appears 4x(en)+1(fr)=5, b: 2+1+3=6, c: 1+4... c=5
    # top-3 by (cnt desc, tok asc): b(6), a(5), c(5)
    vec = {}
    for lang, g in docs.groupby("lang"):
        toks = " ".join(g["text"]).split(" ")
        vec[lang] = np.array([toks.count(t) for t in ["a", "b", "c"]],
                             dtype=float)
    for r in out.itertuples():
        va, vb = vec[r.key_a], vec[r.key_b]
        want = float(va @ vb) / (math.sqrt(float(va @ va))
                                 * math.sqrt(float(vb @ vb)))
        assert abs(r.cosine - want) < 1e-12, (r.key_a, r.key_b)
    assert len(out) == 3


def test_rfm_segment_counts(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import rfm_segment_counts

    n = 500
    df = pd.DataFrame({
        "user": rng.integers(0, 60, n),
        "ts": pd.to_datetime(rng.integers(0, 10**9, n), unit="s"),
        "v": rng.integers(0, 2000, n) / 100.0,
    })
    out = (rfm_segment_counts(
        ray.data.from_pandas(df).repartition(4), "user", "ts", "v")
        .to_pandas())
    # brute force
    u = df.assign(
        cents=np.floor(df["v"] * 100 + 0.5).astype(np.int64),
        ts_us=df["ts"].astype("datetime64[us]").astype(np.int64),
    ).groupby("user").agg(rec=("ts_us", "max"), freq=("ts_us", "size"),
                          mon=("cents", "sum"))

    def cuts(x):
        v = np.sort(x.to_numpy())
        return [v[max(int(np.ceil(q * len(v))) - 1, 0)]
                for q in (0.25, 0.5, 0.75)]

    want = {}
    cr, cf, cm = cuts(u["rec"]), cuts(u["freq"]), cuts(u["mon"])
    for _, r in u.iterrows():
        key = (sum(r["rec"] > c for c in cr),
               sum(r["freq"] > c for c in cf),
               sum(r["mon"] > c for c in cm))
        want[key] = want.get(key, 0) + 1
    got = {(r.r_bucket, r.f_bucket, r.m_bucket): r.n_users
           for r in out.itertuples()}
    assert got == want
    assert sum(got.values()) == len(u)


def test_grouped_spearman_matches_pandas(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import grouped_spearman

    n = 400
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], n),
        "x": rng.integers(0, 30, n),   # small domain => heavy ties
        "y": rng.integers(0, 30, n),
    })
    df["y"] = df["y"] + df["x"] // 2
    out = grouped_spearman(ray.data.from_pandas(df).repartition(4),
                           "k", "x", "y").set_index("k")
    for k, g in df.groupby("k"):
        want = g["x"].rank().corr(g["y"].rank())  # pandas spearman w/ ties
        assert abs(out.loc[k, "spearman_rho"] - want) < 1e-12


def test_cusum_alarm_counts(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import cusum_alarm_counts

    n = 300
    df = pd.DataFrame({
        "k": ["s"] * n,
        "ts": pd.to_datetime(np.arange(n), unit="s"),
        "eid": np.arange(n, dtype=np.int64),
        "v": np.full(n, 10.0),
    })
    df.loc[150:, "v"] = 20.0  # level shift at i=150
    out = cusum_alarm_counts(
        ray.data.from_pandas(df).repartition(3),
        "k", "ts", "eid", "v", drift_cents=1200, h_cents=2000,
    ).to_pandas().iloc[0]
    # brute: c-drift = -200 before, +800 after
    c = np.floor(df["v"].to_numpy() * 100 + 0.5).astype(np.int64) - 1200
    s = np.cumsum(c)
    cus = s - np.minimum.accumulate(np.minimum(s, 0))
    assert out["n_rows"] == n
    assert out["n_alarms"] == int((cus > 2000).sum())
    assert out["max_cusum"] == int(cus.max())
    assert out["n_alarms"] > 0


def test_exact_jaccard_matrix(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.distinct import exact_jaccard_matrix

    n = 600
    df = pd.DataFrame({
        "t": rng.choice(["a", "b", "c"], n),
        "u": rng.integers(0, 80, n),
    })
    out = exact_jaccard_matrix(
        ray.data.from_pandas(df).repartition(4), "t", "u")
    sets = {t: set(g["u"]) for t, g in df.groupby("t")}
    assert len(out) == 3
    for r in out.itertuples():
        A, B = sets[r.set_a], sets[r.set_b]
        assert r.n_a == len(A) and r.n_b == len(B)
        assert r.n_both == len(A & B)
        assert r.jaccard == len(A & B) / len(A | B)


def test_fuzzy_cluster_stats(ray_session):
    import ray
    from t_digest_ray.stages.fuzzy import fuzzy_cluster_stats

    # chain: aa - ab - bb  (aa~ab, ab~bb, aa!~bb)  plus isolated: xyz
    vocab = pd.DataFrame({
        "head": ["aa", "ab", "bb", "xyz", "qq", "qr"],
        "cnt": np.array([5, 3, 2, 7, 1, 1], dtype=np.int64),
    })
    out = fuzzy_cluster_stats(ray.data.from_pandas(vocab), "head", "cnt")
    got = {r.label: (r.n_heads, r.sum_docs) for r in out.itertuples()}
    assert got == {"aa": (3, 10), "qq": (2, 2)}  # xyz isolated -> absent


def test_hash_split_counts(ray_session):
    import ray
    from t_digest_ray.functions.hashing import splitmix64
    from t_digest_ray.pipelines.curation import hash_split_counts

    n = 400
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "lang": np.where(np.arange(n) % 2 == 0, "en", "fr"),
        "n_chars": np.arange(n, dtype=np.int64) * 3,
    })
    out = (hash_split_counts(
        ray.data.from_pandas(df).repartition(4),
        "doc_id", "lang", "n_chars", test_rate=0.2)
        .to_pandas())
    thr = np.uint64(int(0.2 * 2.0 ** 64))
    h = splitmix64(df["doc_id"].to_numpy().astype(np.uint64))
    df["split"] = np.where(h < thr, "test", "train")
    want = (df.groupby(["lang", "split"])
            .agg(n_docs=("doc_id", "size"), sum_stat=("n_chars", "sum")))
    got = out.set_index(["lang", "split"])
    assert len(got) == len(want)
    for idx, w in want.iterrows():
        assert got.loc[idx, "n_docs"] == w["n_docs"]
        assert got.loc[idx, "sum_stat"] == w["sum_stat"]
    # disjoint + complete by construction
    assert out["n_docs"].sum() == n


def test_top_distinct_value_rows(ray_session):
    import ray
    from t_digest_ray.pipelines.stats import top_distinct_value_rows

    df = pd.DataFrame({
        "k": ["a"] * 6 + ["b"] * 4,
        "rid": np.arange(10, dtype=np.int64),
        "v": np.array([9, 9, 7, 5, 3, 1, 4, 4, 4, 2], dtype=np.int64),
    })
    out = (top_distinct_value_rows(
        ray.data.from_pandas(df).repartition(3), "k", "v", "rid", k=2)
        .to_pandas())
    # a: top-2 distinct {9,7} -> rids 0,1,2 ; b: {4,2} -> all rids
    assert sorted(out["rid"]) == [0, 1, 2, 6, 7, 8, 9]


def test_psi_bin_report(ray_session, rng):
    import math

    import ray
    from t_digest_ray.pipelines.stats import psi_bin_report

    n = 1000
    df = pd.DataFrame({
        "k": rng.choice(["ref", "cmp"], n),
        "v": rng.integers(0, 1000, n) / 10.0,
    })
    df.loc[df["k"] == "cmp", "v"] *= 1.5  # drift
    out = psi_bin_report(ray.data.from_pandas(df).repartition(4),
                         "k", "v", "ref", "cmp")
    assert len(out) == 10
    assert out["ref_cnt"].sum() == (df["k"] == "ref").sum()
    assert out["cmp_cnt"].sum() == (df["k"] == "cmp").sum()
    # brute psi on one bin
    rv = np.sort(df.loc[df["k"] == "ref", "v"].to_numpy())
    cuts = [rv[max(int(np.ceil(q * len(rv))) - 1, 0)]
            for q in [i / 10 for i in range(1, 10)]]
    row = out.iloc[0]
    p = row["ref_cnt"] / out["ref_cnt"].sum()
    q_ = row["cmp_cnt"] / out["cmp_cnt"].sum()
    want = (p - q_) * math.log(p / q_) if row["ref_cnt"] and row["cmp_cnt"] else 0.0
    assert abs(row["psi_term"] - want) < 1e-12
    assert out["psi_term"].sum() > 0.05  # drift detected


def test_neyman_allocation(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import neyman_allocation

    n = 900
    df = pd.DataFrame({
        "k": rng.choice(["lo", "mid", "hi"], n),
        "v": rng.integers(0, 100, n) / 1.0,
    })
    # make "hi" much more variable -> it should get a larger share
    df.loc[df["k"] == "hi", "v"] *= 50
    out = neyman_allocation(ray.data.from_pandas(df).repartition(4),
                            "k", "v", total_n=200).set_index("k")
    assert out["alloc"].sum() == 200
    assert (out["alloc"] >= 0).all()
    assert out.loc["hi", "alloc"] > out.loc["lo", "alloc"]
    # allocation tracks N_h * S_h
    for k, g in df.groupby("k"):
        cents = np.floor(g["v"].to_numpy() * 100 + 0.5)
        w = len(cents) * cents.std(ddof=1)
        assert abs(out.loc[k, "raw_alloc"]
                   - 200 * w / sum(
                       len(gg) * np.floor(gg["v"].to_numpy() * 100
                                          + 0.5).std(ddof=1)
                       for _, gg in df.groupby("k"))) < 1e-6


def test_moving_frame_sums(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.windows import moving_frame_sums

    n = 300
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], n),
        "ts": pd.to_datetime(rng.integers(0, 10**7, n), unit="s"),
        "eid": np.arange(n, dtype=np.int64),
        "v": rng.integers(0, 500, n) / 100.0,
    })
    out = (moving_frame_sums(
        ray.data.from_pandas(df).repartition(4),
        "k", "ts", "eid", "v", frame=5)
        .to_pandas().set_index("eid"))
    for k, g in df.groupby("k"):
        g = g.sort_values(["ts", "eid"])
        cents = np.floor(g["v"].to_numpy() * 100 + 0.5).astype(np.int64)
        roll = pd.Series(cents).rolling(5, min_periods=1).sum()
        for eid, want in zip(g["eid"], roll):
            assert out.loc[eid, "frame_sum_cents"] == int(want)


def test_period_growth(ray_session):
    import ray
    from t_digest_ray.pipelines.windows import period_growth

    df = pd.DataFrame({
        "ts": pd.to_datetime(["2024-01-05", "2024-01-20", "2024-02-10",
                              "2024-03-01", "2024-03-30"]),
        "v": [10.0, 20.0, 15.0, 30.0, 30.0],
    })
    out = period_growth(ray.data.from_pandas(df), "ts", "v")
    got = {r.period: (r.cur_cents, r.prev_cents, r.growth)
           for r in out.itertuples()}
    assert got == {"2024-02": (1500, 3000, 0.5),
                   "2024-03": (6000, 1500, 4.0)}


def test_chi2_independence_cells(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import chi2_independence_cells

    n = 800
    df = pd.DataFrame({
        "r": rng.choice(["a", "b", "c"], n),
        "c": rng.choice(["x", "y"], n),
    })
    out = chi2_independence_cells(
        ray.data.from_pandas(df).repartition(4), "r", "c")
    ct = pd.crosstab(df["r"], df["c"])
    for row in out.itertuples():
        o = ct.loc[row.r, row.c]
        e = ct.loc[row.r].sum() * ct[row.c].sum() / n
        assert row.observed == o
        assert abs(row.expected - e) < 1e-9
        assert abs(row.chi2_term - (o - e) ** 2 / e) < 1e-9
    assert out["observed"].sum() == n


def test_embedding_norm_stats(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.clustering import embedding_norm_stats

    n, d = 120, 16
    emb = rng.normal(size=(n, d)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(n),
                       "embedding": [list(map(float, r)) for r in emb]})
    out = (embedding_norm_stats(
        ray.data.from_pandas(df).repartition(3), "embedding")
        .to_pandas().iloc[0])
    sq = emb * emb
    norms = np.sqrt(np.cumsum(sq.astype(np.float64), axis=1)[:, -1])
    v = np.sort(norms)
    assert out["n"] == n
    assert out["min_norm"] == v[0] and out["max_norm"] == v[-1]
    assert out["p50"] == v[int(np.ceil(0.5 * n)) - 1]


def test_embedding_norm_stats_disc_rank_matches_duckdb(ray_session, rng):
    """A caller's q goes through the exact integer rank: at q=0.55 over 100
    norms DuckDB's quantile_disc picks the 55th, not the 56th."""
    import duckdb
    import ray
    from t_digest_ray.pipelines.clustering import embedding_norm_stats

    n, d = 100, 8
    emb = rng.normal(size=(n, d)).astype(np.float32)
    df = pd.DataFrame({"embedding": [list(map(float, r)) for r in emb]})
    out = (embedding_norm_stats(ray.data.from_pandas(df), "embedding",
                                qs=(0.55,)).to_pandas().iloc[0])
    norms = pd.DataFrame({"nrm": np.sqrt(np.cumsum(
        (emb * emb).astype(np.float64), axis=1)[:, -1])})
    con = duckdb.connect()
    con.register("t", norms)
    want = con.execute(
        "SELECT quantile_disc(nrm, 0.55) FROM t").fetchone()[0]
    assert want == np.sort(norms["nrm"])[54]
    assert out["p55"] == want


def test_entry_exit_type_counts(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.windows import entry_exit_type_counts

    n = 500
    df = pd.DataFrame({
        "user": rng.integers(0, 40, n),
        "ts": pd.to_datetime(rng.integers(0, 10**7, n), unit="s"),
        "eid": np.arange(n, dtype=np.int64),
        "t": rng.choice(["a", "b", "c"], n),
    })
    out = (entry_exit_type_counts(
        ray.data.from_pandas(df).repartition(5),
        "user", "ts", "eid", "t")
        .to_pandas())
    got = {(r.first_type, r.last_type): r.n_users
           for r in out.itertuples()}
    want = {}
    for _, g in df.sort_values(["ts", "eid"]).groupby("user"):
        k = (g["t"].iloc[0], g["t"].iloc[-1])
        want[k] = want.get(k, 0) + 1
    assert got == want


def test_topk_other_rollup(ray_session):
    import ray
    from t_digest_ray.pipelines.relational import topk_other_rollup

    df = pd.DataFrame({
        "k": ["a"] * 10 + ["b"] * 3,
        "s": ["x", "x", "x", "y", "y", "z", "z", "w", "w", "w",
              "p", "q", "q"],
    })
    out = (topk_other_rollup(ray.data.from_pandas(df).repartition(3),
                             "k", "s", k=2)
           .to_pandas())
    a = out[out["k"] == "a"].set_index("category")
    # a: w:3,x:3,y:2,z:2 -> top2 = w,x (tie count desc, name asc); OTHER=4
    assert a.loc["w", "rank"] == 1 and a.loc["x", "rank"] == 2
    assert a.loc["OTHER", "cnt"] == 4 and a.loc["OTHER", "rank"] == 0
    b = out[out["k"] == "b"].set_index("category")
    assert b.loc["q", "rank"] == 1 and b.loc["p", "rank"] == 2
    assert "OTHER" not in b.index


def test_distinct_breadth_histogram(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.distinct import distinct_breadth_histogram

    n = 600
    df = pd.DataFrame({"u": rng.integers(0, 70, n),
                       "t": rng.choice(list("abcd"), n)})
    out = (distinct_breadth_histogram(
        ray.data.from_pandas(df).repartition(4), "u", "t")
        .to_pandas())
    want = (df.drop_duplicates().groupby("u").size()
            .value_counts().to_dict())
    got = {r.n_types: r.n_members for r in out.itertuples()}
    assert got == want


def test_mann_whitney_u(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import mann_whitney_u

    n = 500
    df = pd.DataFrame({
        "k": rng.choice(["x", "y", "z"], n),
        "v": (rng.integers(0, 40, n) / 4.0),  # heavy ties
    })
    df.loc[df["k"] == "y", "v"] += 1.0
    out = mann_whitney_u(ray.data.from_pandas(df).repartition(4),
                         "k", "v", "x", "y").iloc[0]
    a = df.loc[df["k"] == "x", "v"].to_numpy()
    b = df.loc[df["k"] == "y", "v"].to_numpy()
    comb = np.concatenate([a, b])
    ranks = pd.Series(comb).rank().to_numpy()  # average ranks
    r_a = ranks[:len(a)].sum()
    u_a = r_a - len(a) * (len(a) + 1) / 2
    assert out["n_a"] == len(a) and out["n_b"] == len(b)
    assert out["u2_a"] == int(round(2 * u_a))
    # y is shifted up -> a's ranks low -> strongly negative z
    assert out["z"] < -3


def test_kendall_tau_b(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import kendall_tau_b

    n = 250
    df = pd.DataFrame({
        "x": rng.integers(0, 15, n),   # heavy ties
        "y": rng.integers(0, 12, n),
    })
    df["y"] = df["y"] + df["x"] // 3
    out = kendall_tau_b(ray.data.from_pandas(df).repartition(4),
                        "x", "y").iloc[0]
    # brute force pairwise
    x, y = df["x"].to_numpy(), df["y"].to_numpy()
    C = D = 0
    for i in range(n):
        for j in range(i + 1, n):
            s = np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
            C += s > 0
            D += s < 0
    assert out["concordant"] == C and out["discordant"] == D
    n0 = n * (n - 1) // 2
    n1 = sum(c * (c - 1) // 2 for c in pd.Series(x).value_counts())
    n2 = sum(c * (c - 1) // 2 for c in pd.Series(y).value_counts())
    want = (C - D) / np.sqrt(float(n0 - n1) * float(n0 - n2))
    assert abs(out["tau_b"] - want) < 1e-12
    assert out["tau_b"] > 0.2  # induced positive association


def test_vocab_richness(ray_session):
    import ray
    from t_digest_ray.pipelines.textstats import vocab_richness

    docs = pd.DataFrame({
        "lang": ["en", "en", "fr"],
        "text": ["a b a c", "b a d", "x y x"],
    })
    out = (vocab_richness(ray.data.from_pandas(docs).repartition(2),
                          "text", "lang").to_pandas().set_index("lang"))
    # en: tokens a:3 b:2 c:1 d:1 -> N=7 V=4 V1=2, sum cnt^2=9+4+1+1=15
    assert out.loc["en", "n_tokens"] == 7
    assert out.loc["en", "n_vocab"] == 4
    assert out.loc["en", "n_hapax"] == 2
    assert abs(out.loc["en", "yule_k"] - 1e4 * (15 - 7) / 49) < 1e-9
    # fr: x:2 y:1 -> N=3 V=2 V1=1
    assert out.loc["fr", "n_vocab"] == 2 and out.loc["fr", "n_hapax"] == 1


def test_fano_burstiness(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.windows import fano_burstiness

    n = 600
    df = pd.DataFrame({
        "k": rng.choice(["p", "q"], n),
        "ts": pd.to_datetime(rng.integers(0, 3600 * 50, n), unit="s"),
    })
    out = (fano_burstiness(ray.data.from_pandas(df).repartition(4),
                           "k", "ts", window_s=3600)
           .to_pandas().set_index("k"))
    for k, g in df.groupby("k"):
        hours = (g["ts"].astype("datetime64[us]").astype(np.int64)
                 // (3600 * 10**6))
        c = hours.value_counts().to_numpy()
        fano = c.var(ddof=1) / c.mean()
        assert out.loc[k, "n_windows"] == len(c)
        assert out.loc[k, "n_events"] == len(g)
        assert abs(out.loc[k, "fano"] - fano) < 1e-12


def test_mann_whitney_identities(ray_session, rng):
    """U_a + U_b == n_a·n_b (doubled: u2_a + u2_b == 2·n_a·n_b) and the
    z statistic flips sign when the groups swap."""
    import ray
    from t_digest_ray.pipelines.stats import mann_whitney_u

    df = pd.DataFrame({
        "k": rng.choice(["x", "y"], 300),
        "v": rng.integers(0, 20, 300) / 2.0,
    })
    d = ray.data.from_pandas(df).repartition(3)
    ab = mann_whitney_u(d, "k", "v", "x", "y").iloc[0]
    ba = mann_whitney_u(d, "k", "v", "y", "x").iloc[0]
    n_a, n_b = int(ab["n_a"]), int(ab["n_b"])
    assert int(ab["u2_a"]) + int(ba["u2_a"]) == 2 * n_a * n_b
    assert abs(ab["z"] + ba["z"]) < 1e-12


def test_kendall_identities(ray_session, rng):
    """tau in [-1, 1]; negating y negates tau exactly; a strictly
    monotone distinct mapping gives tau == 1."""
    import ray
    from t_digest_ray.pipelines.stats import kendall_tau_b

    df = pd.DataFrame({"x": rng.permutation(80).astype(np.int64)})
    df["y"] = 3 * df["x"] + 1
    d = ray.data.from_pandas(df).repartition(3)
    perfect = kendall_tau_b(d, "x", "y").iloc[0]
    assert perfect["tau_b"] == 1.0 and perfect["discordant"] == 0

    df2 = pd.DataFrame({"x": rng.integers(0, 10, 200),
                        "y": rng.integers(0, 10, 200)})
    df2["yneg"] = -df2["y"]
    d2 = ray.data.from_pandas(df2).repartition(3)
    t1 = kendall_tau_b(d2, "x", "y").iloc[0]
    t2 = kendall_tau_b(d2, "x", "yneg").iloc[0]
    assert -1.0 <= t1["tau_b"] <= 1.0
    assert t1["concordant"] == t2["discordant"]
    assert t1["discordant"] == t2["concordant"]
    assert abs(t1["tau_b"] + t2["tau_b"]) < 1e-12


def test_percent_rank_bounds_and_monotone(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import grouped_percent_rank

    df = pd.DataFrame({"k": ["g"] * 300,
                       "v": rng.integers(0, 40, 300) / 4.0})
    out = (grouped_percent_rank(
        ray.data.from_pandas(df).repartition(3), "k", "v")
        .to_pandas().sort_values("v"))
    pr = out["pct_rank"].to_numpy()
    assert pr[0] == 0.0
    assert np.all(np.diff(pr) > 0)           # strictly monotone
    assert pr[-1] <= 1.0
    # counts re-sum to n
    assert out["cnt"].sum() == 300


def test_quantile_cont_monotone(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import grouped_quantile_cont

    df = pd.DataFrame({"k": ["g"] * 250,
                       "v": rng.normal(50, 10, 250).round(2)})
    qs = (0.05, 0.25, 0.5, 0.75, 0.95)
    out = (grouped_quantile_cont(
        ray.data.from_pandas(df).repartition(3), "k", "v", qs)
        .to_pandas().iloc[0])
    vals = [out[f"cq{int(round(q * 100)):02d}"] for q in qs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert df["v"].min() <= vals[0] and vals[-1] <= df["v"].max()


def test_locf_counts_conserve(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.windows import locf_fill_stats

    n = 300
    df = pd.DataFrame({
        "u": rng.integers(0, 30, n),
        "ts": pd.to_datetime(rng.integers(0, 10**6, n), unit="s"),
        "eid": np.arange(n, dtype=np.int64),
        "k": rng.choice(["a", "b"], n),
        "v": rng.integers(0, 100, n).astype(float),
    })
    df.loc[df["eid"] % 2 == 0, "v"] = np.nan
    out = (locf_fill_stats(
        ray.data.from_pandas(df).repartition(4),
        "u", "ts", "eid", "v", "k").to_pandas())
    assert (out["n_missing"]
            == out["n_filled"] + out["n_unfilled"]).all()
    assert out["n_rows"].sum() == n
    assert out["n_missing"].sum() == (df["eid"] % 2 == 0).sum()


def test_weekday_hour_heatmap(ray_session):
    import ray
    from t_digest_ray.pipelines.windows import weekday_hour_heatmap

    # 1970-01-01 was a Thursday (dow=4 in the 0=Sunday convention)
    df = pd.DataFrame({
        "k": ["a", "a", "a", "b"],
        "ts": pd.to_datetime(["1970-01-01 00:30:00",   # Thu h0
                              "1970-01-01 23:10:00",   # Thu h23
                              "1970-01-04 05:00:00",   # Sun h5
                              "2024-01-01 12:00:00"]),  # Mon h12
    })
    out = (weekday_hour_heatmap(ray.data.from_pandas(df), "k", "ts")
           .to_pandas())
    got = {(r.k, r.weekday, r.hour): r.n_events
           for r in out.itertuples()}
    assert got == {("a", 4, 0): 1, ("a", 4, 23): 1,
                   ("a", 0, 5): 1, ("b", 1, 12): 1}


def test_event_streaks(ray_session):
    import ray
    from t_digest_ray.pipelines.windows import event_streaks

    # user 1: a a a b a  -> runs a(3), b(1), a(1)
    # user 2: b b        -> runs b(2)
    df = pd.DataFrame({
        "u": [1, 1, 1, 1, 1, 2, 2],
        "ts": pd.to_datetime(np.arange(7), unit="s"),
        "eid": np.arange(7, dtype=np.int64),
        "t": ["a", "a", "a", "b", "a", "b", "b"],
    })
    out = (event_streaks(ray.data.from_pandas(df).repartition(3),
                         "u", "ts", "eid", "t")
           .to_pandas().set_index("t"))
    assert out.loc["a", "n_runs"] == 2 and out.loc["a", "max_run"] == 3
    assert out.loc["a", "n_streaks"] == 1
    assert out.loc["b", "n_runs"] == 2 and out.loc["b", "max_run"] == 2
    assert out.loc["b", "n_streaks"] == 0


def test_compression_stats_signal():
    from t_digest_ray.functions.text import compression_stats

    texts = pd.Series([
        "the quick brown fox jumps over the lazy dog " * 20,  # prose-ish
        "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa" * 20,       # boilerplate
        "kq9x!zp2@vj8#wm4$ru7%tn3^yl6&bh1*gf5(dc0" * 20,       # noise
    ])
    out = compression_stats(texts)
    # deterministic across calls
    out2 = compression_stats(texts)
    assert (out["comp_bytes"] == out2["comp_bytes"]).all()
    # boilerplate < prose < noise in compression ratio
    assert out.loc[1, "comp_ratio"] < out.loc[0, "comp_ratio"] \
        < out.loc[2, "comp_ratio"]
    assert (out["raw_bytes"] == texts.str.len() ).all()  # ascii inputs


def test_hourly_autocorrelation(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.windows import hourly_autocorrelation

    # strongly alternating volumes -> negative lag-1 autocorrelation
    rows = []
    for h in range(48):
        for _ in range(20 if h % 2 == 0 else 3):
            rows.append(("a", h * 3600 + int(rng.integers(0, 3600))))
    df = pd.DataFrame(rows, columns=["k", "s"])
    df["ts"] = pd.to_datetime(df["s"], unit="s")
    out = (hourly_autocorrelation(
        ray.data.from_pandas(df[["k", "ts"]]).repartition(4), "k", "ts")
        .to_pandas().iloc[0])
    counts = df.groupby(df["s"] // 3600).size().to_numpy()
    want = np.corrcoef(counts[:-1], counts[1:])[0, 1]
    assert out["n_pairs"] == 47
    assert abs(out["lag1_r"] - want) < 1e-12
    assert out["lag1_r"] < -0.5


def test_session_duration_quantiles(ray_session):
    import ray
    from t_digest_ray.pipelines.windows import session_duration_quantiles

    # user 1: events at 0s,10s,20s | gap | 4000s        -> durs 20s, 0
    # user 2: 100s, 5000s                               -> durs 0, 0
    df = pd.DataFrame({
        "u": [1, 1, 1, 1, 2, 2],
        "ts": pd.to_datetime([0, 10, 20, 4000, 100, 5000], unit="s"),
        "eid": np.arange(6, dtype=np.int64),
    })
    out = (session_duration_quantiles(
        ray.data.from_pandas(df).repartition(3),
        "u", "ts", "eid", gap_s=1800)
        .to_pandas().iloc[0])
    assert out["n_sessions"] == 4
    assert out["max_dur"] == 20 * 10**6
    assert out["p50"] == 0
    assert out["p95"] == 20 * 10**6


def test_change_detection(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.heavy import change_detection

    # plant a huge change on key 7: many in half a, none in half b
    n = 2000
    keys = rng.integers(0, 50, n)
    half = rng.choice(["a", "b"], n)
    keys = np.concatenate([keys, np.full(300, 7)])
    half = np.concatenate([half, np.full(300, "a")])
    df = pd.DataFrame({"k": keys.astype(np.int64), "h": half})
    out = change_detection(
        ray.data.from_pandas(df).repartition(4), "k", "h", "a", "b",
        k=5)
    # exact deltas
    ca = df[df["h"] == "a"]["k"].value_counts()
    cb = df[df["h"] == "b"]["k"].value_counts()
    deltas = {k: int(ca.get(k, 0)) - int(cb.get(k, 0))
              for k in set(df["k"])}
    want = sorted(deltas.items(),
                  key=lambda kv: (-abs(kv[1]), kv[0]))[:5]
    got = list(zip(out["k"], out["delta"]))
    assert got == want
    assert out["within_bound"].all()
    assert out.iloc[0]["k"] == 7  # the planted change wins


def test_k_anonymity_audit(ray_session):
    import ray
    from t_digest_ray.pipelines.curation import k_anonymity_audit

    df = pd.DataFrame({
        "a": ["x"] * 7 + ["y"] * 2 + ["z"],
        "b": [1] * 7 + [2] * 2 + [3],
    })
    out = k_anonymity_audit(
        ray.data.from_pandas(df).repartition(3), ["a", "b"], k=5).iloc[0]
    assert out["n_groups"] == 3
    assert out["n_small_groups"] == 2       # y(2) and z(1) < 5
    assert out["n_rows_at_risk"] == 3
    assert out["n_rows"] == 10


def test_top_session_paths(ray_session):
    import ray
    from t_digest_ray.pipelines.windows import top_session_paths

    # user 1: a,b,c,d (one session) | gap | e  -> paths "a>b>c", "e"
    # user 2: a,b (one session)              -> "a>b"
    df = pd.DataFrame({
        "u": [1, 1, 1, 1, 1, 2, 2],
        "ts": pd.to_datetime([0, 10, 20, 30, 9000, 5, 15], unit="s"),
        "eid": np.arange(7, dtype=np.int64),
        "t": ["a", "b", "c", "d", "e", "a", "b"],
    })
    out = (top_session_paths(
        ray.data.from_pandas(df).repartition(3),
        "u", "ts", "eid", "t", gap_s=1800, depth=3, k=10)
        .to_pandas())
    got = dict(zip(out["path"], out["n_sessions"]))
    assert got == {"a>b>c": 1, "e": 1, "a>b": 1}


def test_pearson_bignum_overflow_path(ray_session, rng):
    """Values near 2^31 make per-batch x*y sums overflow int64; the
    limb-split exchange (ADVICE r4 fix) must still fold exactly."""
    import ray
    from t_digest_ray.pipelines.stats import grouped_pearson

    n = 2000
    base = rng.integers(1, 2**31, n, dtype=np.int64)
    df = pd.DataFrame({
        "k": ["g"] * n,
        "x": base,
        "y": base + rng.integers(0, 2**20, n, dtype=np.int64),
    })
    out = grouped_pearson(ray.data.from_pandas(df).repartition(4),
                          "k", "x", "y").iloc[0]
    # exact bignum reference fold
    import math
    xs = [int(v) for v in df["x"]]
    ys = [int(v) for v in df["y"]]
    sx, sy = sum(xs), sum(ys)
    sxy = sum(a * b for a, b in zip(xs, ys))
    sxx = sum(a * a for a in xs)
    syy = sum(b * b for b in ys)
    num = n * sxy - sx * sy
    dx = n * sxx - sx * sx
    dy = n * syy - sy * sy
    want = float(num) / math.sqrt(float(dx) * float(dy))
    assert out["n_rows"] == n
    assert out["pearson_r"] == want          # bit-identical fold
    assert out["pearson_r"] > 0.99           # near-linear relation


def test_spearman_matches_scipyless_reference(ray_session, rng):
    """Spearman over wide-magnitude ints still exact after the limb fix
    (doubled ranks route through the same grouped_pearson fold)."""
    import ray
    from t_digest_ray.pipelines.stats import grouped_spearman

    n = 500
    df = pd.DataFrame({
        "k": ["g"] * n,
        "x": rng.integers(0, 50, n).astype(np.int64),
        "y": rng.integers(0, 40, n).astype(np.int64),
    })
    df["y"] = df["y"] + df["x"]
    out = grouped_spearman(ray.data.from_pandas(df).repartition(4),
                           "k", "x", "y").iloc[0]
    rx = pd.Series(df["x"]).rank(method="average").to_numpy()
    ry = pd.Series(df["y"]).rank(method="average").to_numpy()
    want = np.corrcoef(rx, ry)[0, 1]
    assert abs(out["spearman_rho"] - want) < 1e-12


def test_welch_degenerate_groups(ray_session):
    """n<=1 in either group emits the deliberate t=0.0 convention
    instead of raising (ADVICE r4)."""
    import ray
    from t_digest_ray.pipelines.stats import welch_t_report

    df = pd.DataFrame({"k": ["a", "b", "b", "b"],
                       "v": [1.25, 2.5, 3.75, 5.0]})
    out = welch_t_report(ray.data.from_pandas(df).repartition(2),
                         "k", "v", "a", "b").iloc[0]
    assert out["n_a"] == 1 and out["n_b"] == 3
    assert out["t_stat"] == 0.0
    assert out["mean_a_cents"] == 125.0


def test_grouped_shape_moments_matches_numpy(ray_session, rng):
    import ray
    from t_digest_ray.pipelines.stats import grouped_shape_moments

    n = 500
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], n),
        "v": rng.integers(0, 50_000, n),  # large enough to force limbs
    })
    out = (grouped_shape_moments(ray.data.from_pandas(df).repartition(5),
                                 "k", "v").set_index("k"))
    for k, g in df.groupby("k"):
        x = g["v"].to_numpy(dtype=np.float64)
        m = x.mean()
        m2 = ((x - m) ** 2).mean()
        want_skew = ((x - m) ** 3).mean() / m2 ** 1.5
        want_kurt = ((x - m) ** 4).mean() / m2 ** 2 - 3.0
        assert out.loc[k, "n_rows"] == len(g)
        assert abs(out.loc[k, "skewness"] - want_skew) < 1e-9
        assert abs(out.loc[k, "excess_kurtosis"] - want_kurt) < 1e-9


def test_grouped_shape_moments_split_invariant_and_edge(ray_session, rng):
    """Any repartition yields bit-identical doubles (exact integer
    partials, bignum fold); constant and singleton keys report 0.0."""
    import ray
    from t_digest_ray.pipelines.stats import grouped_shape_moments

    df = pd.DataFrame({
        "k": ["c"] * 10 + ["s"] + list(rng.choice(["a", "b"], 300)),
        "v": [7] * 10 + [3] + list(rng.integers(0, 60_000, 300)),
    })
    a = grouped_shape_moments(ray.data.from_pandas(df).repartition(1),
                              "k", "v").sort_values("k")
    b = grouped_shape_moments(ray.data.from_pandas(df).repartition(13),
                              "k", "v").sort_values("k")
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))
    a = a.set_index("k")
    assert a.loc["c", "skewness"] == 0.0          # constant key
    assert a.loc["c", "excess_kurtosis"] == 0.0
    assert a.loc["s", "skewness"] == 0.0          # singleton key


def test_median_of_means_robust_and_invariant(ray_session, rng):
    """MoM shrugs off a gross outlier that wrecks the plain mean, and
    any repartition yields bit-identical output."""
    import ray
    from t_digest_ray.pipelines.stats import median_of_means

    n = 800
    df = pd.DataFrame({
        "id": np.arange(n, dtype=np.int64),
        "k": ["a"] * n,
        "v": rng.normal(100.0, 5.0, n).round(2),
    })
    df.loc[0, "v"] = 1e9  # one catastrophic outlier
    a = median_of_means(ray.data.from_pandas(df).repartition(7),
                        "id", "k", "v", n_buckets=16)
    b = median_of_means(ray.data.from_pandas(df).repartition(1),
                        "id", "k", "v", n_buckets=16)
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))
    row = a.iloc[0]
    assert row["n_rows"] == n and row["n_buckets_used"] == 16
    plain_mean = df["v"].mean()
    assert plain_mean > 1e6                       # wrecked by outlier
    assert 9000 < row["mom_mean"] < 11000         # cents: ~100 dollars
