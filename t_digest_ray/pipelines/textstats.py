"""Corpus-level token statistics and text-rewrite operators.

The inverted-index / vocabulary family of web-text curation ops
(complementing functions/text.py's per-row metrics):

- ``token_topk``          corpus vocabulary top-k by frequency
- ``token_df_stats``      per-token document/corpus frequency (TF-IDF base)
- ``dominant_term``       per-doc argmax-tf term + its global df
- ``regex_scrub_stats``   PII-style regex redaction audit per key
- ``scrub_text``          the actual redaction rewrite (doc_id, text)

Scale contract shared by the token aggregations: a document lives in
exactly ONE Arrow batch, so (token, doc)-level partials computed inside
``map_batches`` are globally exact and only vocabulary-sized rows ride
the shuffle — cost ~ distinct tokens per batch, never corpus tokens.
Tokenization is a single-space split with empty tokens dropped
(reproducible bit-for-bit by SQL ``string_split``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _token_doc_pairs(b: pa.Table, text_col: str, id_col: str):
    """Vectorized explode: (token, doc) pairs for one batch."""
    import pyarrow.compute as pc

    lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
    toks = pc.list_flatten(lists).to_pandas()
    docs = np.repeat(
        b[id_col].to_numpy(zero_copy_only=False),
        pc.list_value_length(lists).to_numpy(zero_copy_only=False))
    pairs = pd.DataFrame({"token": toks, "doc": docs})
    return pairs[pairs["token"] != ""]


def token_topk(ds, text_col: str, k: int, count_name: str = "cnt"):
    """Corpus token-frequency top-k with a deterministic
    (count desc, token asc) tie-break — the unnest-heavy aggregation
    shape. Per-batch split+count combiner (Arrow C kernels), tiny final
    sort."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern(
            b[text_col].combine_chunks(), " "))
        toks = toks.filter(pc.not_equal(toks, ""))
        vc = toks.value_counts()
        return pa.table({"token": vc.field("values"),
                         "partial": pc.cast(vc.field("counts"),
                                            pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("token")
              .aggregate(Sum("partial", alias_name=count_name)))
    return counts.sort([count_name, "token"],
                       descending=[True, False]).limit(k)


def bigram_topk(ds, text_col: str, k: int, count_name: str = "cnt"):
    """Corpus bigram-frequency top-k: adjacent-token pairs WITHIN each
    document (split arrays are never joined across docs), both tokens
    non-empty. Fully Arrow-vectorized — the pair array is two shifted
    slices of the flattened token array joined by
    ``binary_join_element_wise``; adjacency across document boundaries
    is masked with a repeat of the per-doc list lengths. Only
    bigram-vocabulary-sized partials ride the shuffle."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n = len(flat)
        if n < 2:
            return pa.table({"bigram": pa.array([], type=pa.string()),
                             "partial": pa.array([], type=pa.int64())})
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        same_doc = doc_idx[:-1] == doc_idx[1:]
        a = flat.slice(0, n - 1)
        c = flat.slice(1)
        nonempty = pc.and_(pc.not_equal(a, ""), pc.not_equal(c, ""))
        mask = pc.and_(nonempty, pa.array(same_doc))
        big = pc.binary_join_element_wise(a.filter(mask),
                                          c.filter(mask), " ")
        vc = big.value_counts()
        return pa.table({"bigram": vc.field("values"),
                         "partial": pc.cast(vc.field("counts"),
                                            pa.int64())})

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("bigram")
              .aggregate(Sum("partial", alias_name=count_name)))
    return counts.sort([count_name, "bigram"],
                       descending=[True, False]).limit(k)


def token_df_stats(ds, text_col: str, id_col: str):
    """Inverted-index posting statistics: per token its document
    frequency (``df``), corpus frequency (``cf``) and smallest posting
    id (``min_doc``) — the TF-IDF foundation."""
    from ray.data.aggregate import Min, Sum

    def partial(b: pa.Table) -> pa.Table:
        pairs = _token_doc_pairs(b, text_col, id_col)
        tf = (pairs.groupby(["token", "doc"], sort=False)
              .size().reset_index(name="tf"))
        agg = (tf.groupby("token", sort=False)
               .agg(df_part=("doc", "size"), cf_part=("tf", "sum"),
                    min_doc=("doc", "min")).reset_index())
        return pa.table({
            "token": pa.array(agg["token"], type=pa.string()),
            "df_part": pa.array(agg["df_part"].to_numpy()
                                .astype(np.int64)),
            "cf_part": pa.array(agg["cf_part"].to_numpy()
                                .astype(np.int64)),
            "min_doc": pa.array(agg["min_doc"].to_numpy()
                                .astype(np.int64))})

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("token")
           .aggregate(Sum("df_part", alias_name="df"),
                      Sum("cf_part", alias_name="cf"),
                      Min("min_doc", alias_name="min_doc")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("df", "cf", "min_doc"):
            df[c] = df[c].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def repetition_stats(ds, text_col: str, id_col: str,
                     max_tf_pct: int = 20):
    """Gopher-style repetition metrics per document (the repetition
    quality filter of LLM-corpus curation): total token count, count of
    the most-repeated token, count of the most-repeated in-doc bigram,
    and a ``repetitive`` flag (most-repeated token above
    ``max_tf_pct`` % of tokens — evaluated as an INTEGER
    cross-multiplication ``max_tf * 100 > n_tokens * pct`` so the flag
    is bit-reproducible in SQL). Fully per-batch local (a doc lives in
    one batch); emits one small row per document."""
    import pyarrow.compute as pc

    def per_batch(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        pairs = _token_doc_pairs(b, text_col, id_col)
        tf = (pairs.groupby(["doc", "token"], sort=False)
              .size().reset_index(name="c"))
        mt = (tf.groupby("doc", sort=False)["c"]
              .agg(n_tokens="sum", max_tf="max").reset_index())

        lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        n = len(flat)
        if n >= 2:
            a = flat.slice(0, n - 1)
            c = flat.slice(1)
            mask_np = doc_idx[:-1] == doc_idx[1:]
            mask = pc.and_(pc.and_(pc.not_equal(a, ""),
                                   pc.not_equal(c, "")),
                           pa.array(mask_np))
            big = pc.binary_join_element_wise(a.filter(mask),
                                              c.filter(mask), " ")
            bdf = pd.DataFrame({
                "doc": ids[doc_idx[:-1][mask.to_numpy(
                    zero_copy_only=False)]],
                "bigram": big.to_pandas()})
            btf = (bdf.groupby(["doc", "bigram"], sort=False)
                   .size().reset_index(name="c"))
            mb = (btf.groupby("doc", sort=False)["c"].max()
                  .rename("max_bigram_tf").reset_index())
        else:
            mb = pd.DataFrame({"doc": [], "max_bigram_tf": []})

        out = pd.DataFrame({id_col: ids})
        out = out.merge(mt.rename(columns={"doc": id_col}),
                        on=id_col, how="left")
        out = out.merge(mb.rename(columns={"doc": id_col}),
                        on=id_col, how="left")
        n_tok = out["n_tokens"].fillna(0).to_numpy(np.int64)
        max_tf = out["max_tf"].fillna(0).to_numpy(np.int64)
        max_b = out["max_bigram_tf"].fillna(0).to_numpy(np.int64)
        return pa.table({
            id_col: pa.array(ids.astype(np.int64)),
            "n_tokens": pa.array(n_tok),
            "max_tf": pa.array(max_tf),
            "max_bigram_tf": pa.array(max_b),
            "repetitive": pa.array(
                (max_tf * 100 > n_tok * max_tf_pct).astype(np.int64))})

    return ds.map_batches(per_batch, batch_format="pyarrow")


def dominant_term(ds, text_col: str, id_col: str):
    """Per-document dominant term (highest tf, token-asc tie-break)
    joined with that term's global document frequency — the
    broadcast-of-an-aggregate pattern: the vocabulary-sized df table
    from a first aggregation pass rides to every task inside the map
    function, put in the object store once; each batch then resolves its
    own documents fully locally (per-doc tf + one vectorized merge
    against the broadcast frame).

    Partitioning assumption: the vocabulary (DISTINCT token set — far
    smaller than the corpus) fits one node's heap; for an unbounded
    vocabulary the fallback is a ``hash_join`` on token."""
    dfreq = token_df_stats(ds, text_col, id_col) \
        .to_pandas()[["token", "df"]]

    def dominant(b: pa.Table) -> pa.Table:
        pairs = _token_doc_pairs(b, text_col, id_col) \
            .rename(columns={"token": "term", "doc": id_col})
        tf = (pairs.groupby([id_col, "term"], sort=False)
              .size().reset_index(name="tf"))
        top = (tf.sort_values([id_col, "tf", "term"],
                              ascending=[True, False, True],
                              kind="mergesort")
               .drop_duplicates(id_col))
        top = top.merge(dfreq.rename(columns={"token": "term"}),
                        on="term", how="left")
        return pa.table({
            id_col: pa.array(top[id_col].to_numpy()
                             .astype(np.int64)),
            "term": pa.array(top["term"], type=pa.string()),
            "tf": pa.array(top["tf"].to_numpy().astype(np.int64)),
            "df": pa.array(top["df"].to_numpy().astype(np.int64))})

    return ds.map_batches(dominant, batch_format="pyarrow")


def regex_scrub_stats(ds, text_col: str, key: str, pattern: str,
                      replacement: str = "<PII>"):
    """Redaction audit per key: docs touched, total matches, exact
    post-scrub character count. Vectorized Arrow RE2 kernels
    (count_substring_regex / replace_substring_regex) — reproducible by
    SQL regexp_extract_all / regexp_replace (RE2 on both sides)."""
    import pyarrow.compute as pc
    from ray.data.aggregate import Count, Sum

    def scrub(b: pa.Table) -> pa.Table:
        hits = pc.count_substring_regex(b[text_col], pattern)
        redacted = pc.replace_substring_regex(b[text_col], pattern,
                                              replacement)
        return pa.table({
            key: b[key],
            "n_hits": pc.cast(hits, pa.int64()),
            "touched": pc.cast(pc.greater(hits, 0), pa.int64()),
            "chars_after": pc.cast(pc.utf8_length(redacted),
                                   pa.int64())})

    return (ds.map_batches(scrub, batch_format="pyarrow")
            .groupby(key)
            .aggregate(Count(alias_name="n_docs"),
                       Sum("touched", alias_name="docs_touched"),
                       Sum("n_hits", alias_name="n_redactions"),
                       Sum("chars_after", alias_name="chars_after_scrub")))


def scrub_text(ds, text_col: str, id_col: str, pattern: str,
               replacement: str = "<PII>"):
    """The redaction rewrite itself: (id, scrubbed text, n_redactions)
    per row — the streaming map stage a real pipeline wires before its
    training-shard sink."""
    import pyarrow.compute as pc

    def scrub(b: pa.Table) -> pa.Table:
        hits = pc.count_substring_regex(b[text_col], pattern)
        return pa.table({
            id_col: b[id_col],
            text_col: pc.replace_substring_regex(b[text_col], pattern,
                                                 replacement),
            "n_redactions": pc.cast(hits, pa.int64())})

    return ds.map_batches(scrub, batch_format="pyarrow")


def _word_gram_hashes(texts: pa.ChunkedArray | pa.Array, n: int,
                      with_positions: bool = False):
    """uint64 hashes of word n-grams for an Arrow string column, fully
    vectorized: split → drop empty tokens → n shifted slices joined with
    one binary_join_element_wise → hash64. Returns ``(hashes, doc_of)``
    where ``doc_of[i]`` is the row index the i-th gram came from; with
    ``with_positions`` also the 0-based token offset of each gram within
    its document and the per-document non-empty token counts
    (``hashes, doc_of, pos, flens``).

    Gram identity is the literal space-joined token string, so a SQL
    oracle can reproduce the exact same gram set with
    ``array_to_string(tokens[i:i+n-1], ' ')``.
    """
    import pyarrow.compute as pc

    from ..functions.hashing import hash64

    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    lists = pc.split_pattern(texts, " ")
    toks = pc.list_flatten(lists)
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    mask = pc.not_equal(toks, "").to_numpy(zero_copy_only=False)
    n_docs = len(lens)
    doc_idx = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    flens = np.bincount(doc_idx[mask], minlength=n_docs)
    ftoks = toks.filter(pa.array(mask))
    m = len(ftoks)
    if m < n:
        empty = (np.empty(0, dtype=np.uint64),
                 np.empty(0, dtype=np.int64))
        if with_positions:
            return (*empty, np.empty(0, dtype=np.int64), flens)
        return empty
    import pyarrow.compute as pc2
    shifted = [ftoks.slice(j, m - n + 1) for j in range(n)]
    grams = pc2.binary_join_element_wise(*shifted, " ")
    # drop grams straddling a document boundary
    starts = np.concatenate(([0], np.cumsum(flens)))[:-1]
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64),
                       flens)[:m - n + 1]
    valid = (np.arange(m - n + 1) + n) <= (starts + flens)[doc_of]
    grams = grams.filter(pa.array(valid))
    hashes = hash64(grams.to_numpy(zero_copy_only=False))
    if with_positions:
        pos = np.arange(m - n + 1, dtype=np.int64)[valid] \
            - starts[doc_of[valid]]
        return hashes, doc_of[valid], pos, flens
    return hashes, doc_of[valid]


def benchmark_gram_set(texts, n: int) -> np.ndarray:
    """Sorted unique gram-hash array for the SMALL benchmark side of an
    n-gram decontamination pass (driver-side by design: eval benchmarks
    are KB–MB, the corpus is the 100-TB side)."""
    h, _ = _word_gram_hashes(pa.array(list(texts), type=pa.string()), n)
    return np.unique(h)


def ngram_contamination_counts(ds, bench_hashes_ref, n: int, key: str,
                               text_col: str = "text"):
    """Benchmark n-gram decontamination audit (the GPT-3/Llama 13-gram
    trick, here parameterized): a corpus doc is CONTAMINATED if it shares
    any word n-gram with the benchmark set. Emits per-key
    (n_docs, n_contaminated).

    Topology: the benchmark gram-hash set is broadcast once via
    ``ray.put`` (read zero-copy in every task); each batch computes its
    gram hashes vectorized and membership via ``np.isin`` against the
    sorted broadcast array; only O(keys) count rows leave the stage. No
    shuffle touches text.
    """
    import ray
    from ray.data.aggregate import Count, Sum

    def audit(b: pa.Table) -> pa.Table:
        bench = ray.get(bench_hashes_ref)
        gh, doc_of = _word_gram_hashes(b[text_col], n)
        hit = np.isin(gh, bench)  # bench is sorted; isin uses searchsorted
        contaminated = np.zeros(b.num_rows, dtype=bool)
        if len(gh):
            contaminated[np.unique(doc_of[hit])] = True
        return pa.table({
            key: b[key],
            "contaminated": pa.array(contaminated.astype(np.int64))})

    out = (ds.map_batches(audit, batch_format="pyarrow")
           .groupby(key)
           .aggregate(Count(alias_name="n_docs"),
                      Sum("contaminated", alias_name="n_contaminated")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["n_contaminated"] = df["n_contaminated"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def ngram_decontaminate_filter(ds, bench_hashes_ref, n: int,
                               text_col: str = "text"):
    """The decontamination REWRITE: drop every row sharing any word
    n-gram with the broadcast benchmark set, keep all columns — the
    stage a real curation pipeline wires before dedup/quality/packing
    (counts-only audit: ngram_contamination_counts)."""
    import ray

    def keep_clean(b: pa.Table) -> pa.Table:
        bench = ray.get(bench_hashes_ref)
        gh, doc_of = _word_gram_hashes(b[text_col], n)
        contaminated = np.zeros(b.num_rows, dtype=bool)
        if len(gh):
            hit = np.isin(gh, bench)
            contaminated[np.unique(doc_of[hit])] = True
        return b.filter(pa.array(~contaminated))

    return ds.map_batches(keep_clean, batch_format="pyarrow")


def json_int_field_stats(ds, json_col: str, field: str, key: str):
    """Per-key stats of an integer field extracted from a JSON string
    column — the semi-structured-props shape of an event pipeline.

    Extraction is a single compiled RE2 named-group regex
    (``"<field>":\\s*(?P<v>-?\\d+)``) via ``pyarrow.compute
    .extract_regex`` — zero per-row Python; rows whose JSON lacks the
    field are counted but excluded from the value stats, matching SQL
    ``json_extract``'s NULL semantics. Per-batch (key, v) value-counts
    combine first, so only value-DOMAIN-sized integer rows ride the
    shuffle; the finalize folds exact int64 sums per key.

    Output: key, n_rows, n_with_field, n_distinct, sum_v, min_v, max_v.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    pattern = '"' + field + '":\\s*(?P<v>-?\\d+)'

    def partial(b: pa.Table) -> pa.Table:
        kv = b[key].to_numpy(zero_copy_only=False)
        ex = pc.extract_regex(b[json_col].combine_chunks(), pattern)
        vals = pc.struct_field(ex, "v")
        have = pc.is_valid(vals).to_numpy(zero_copy_only=False)
        v = np.where(have,
                     pd.to_numeric(vals.to_pandas(), errors="coerce")
                     .fillna(0).to_numpy(),
                     0).astype(np.int64)
        df = pd.DataFrame({key: kv, "v": v, "have": have})
        g = (df.groupby([key, "v", "have"], as_index=False, sort=False)
             .size().rename(columns={"size": "partial"}))
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby([key, "v", "have"])
              .aggregate(Sum("partial", alias_name="cnt")))

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g["cnt"].to_numpy(dtype=np.int64)
        have = g["have"].to_numpy(dtype=bool)
        v = g["v"].to_numpy(dtype=np.int64)
        n_rows = int(cnt.sum())
        hv, hc = v[have], cnt[have]
        n_with = int(hc.sum())
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            "n_rows": np.array([n_rows], dtype=np.int64),
            "n_with_field": np.array([n_with], dtype=np.int64),
            "n_distinct": np.array([len(hv)], dtype=np.int64),
            "sum_v": np.array([int((hv * hc).sum()) if n_with else 0],
                              dtype=np.int64),
            "min_v": np.array([int(hv.min()) if n_with else 0],
                              dtype=np.int64),
            "max_v": np.array([int(hv.max()) if n_with else 0],
                              dtype=np.int64),
        })

    return counts.groupby(key).map_groups(finalize, batch_format="pandas")


def quality_rule_funnel(ds, text_col: str, key: str,
                        min_tok: int = 5, max_tok: int = 1000):
    """Gopher-style hard quality-rule funnel per key: for each of four
    integer-arithmetic document rules, how many docs FAIL it, plus how
    many pass all four. Rules (cross-multiplied so no floats exist
    anywhere — the SQL twin is exact):

      len    min_tok <= n_tok <= max_tok
      mwl    3 <= n_chars/n_tok <= 10    (3*n_tok <= n_chars <= 10*n_tok)
      alpha  alpha_ratio >= 0.6           (5*n_alpha >= 3*n_chars)
      digit  digit_ratio <= 0.2           (5*n_digit <= n_chars)

    Scale shape: one vectorized pandas-regex pass per batch, per-key
    int64 partial sums combine before the exchange — O(keys) rows on
    the shuffle, never documents.
    """
    from ray.data.aggregate import Sum

    from t_digest_ray.functions.text import token_count

    def partial(b: pa.Table) -> pa.Table:
        t = pd.Series(b[text_col].to_pylist()).fillna("")
        n_chars = t.str.len().to_numpy(dtype=np.int64)
        n_tok = token_count(t)
        n_alpha = t.str.count(r"[A-Za-z]").to_numpy(dtype=np.int64)
        n_digit = t.str.count(r"[0-9]").to_numpy(dtype=np.int64)
        ok_len = (n_tok >= min_tok) & (n_tok <= max_tok)
        ok_mwl = (3 * n_tok <= n_chars) & (n_chars <= 10 * n_tok)
        ok_alpha = 5 * n_alpha >= 3 * n_chars
        ok_digit = 5 * n_digit <= n_chars
        df = pd.DataFrame({
            key: b[key].to_numpy(zero_copy_only=False),
            "n_docs": np.int64(1),
            "fail_len": (~ok_len).astype(np.int64),
            "fail_mwl": (~ok_mwl).astype(np.int64),
            "fail_alpha": (~ok_alpha).astype(np.int64),
            "fail_digit": (~ok_digit).astype(np.int64),
            "pass_all": (ok_len & ok_mwl & ok_alpha
                         & ok_digit).astype(np.int64),
        })
        g = df.groupby(key, as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    cols = ["n_docs", "fail_len", "fail_mwl", "fail_alpha",
            "fail_digit", "pass_all"]
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(key)
           .aggregate(*[Sum(c, alias_name=c) for c in cols]))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        for c in cols:
            df[c] = df[c].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def token_cooccurrence(ds, text_col: str, id_col: str, k: int = 20):
    """Document co-occurrence counts between the corpus's top-k tokens
    (the PMI / association-mining basis): for every unordered pair of
    top tokens, in how many documents do both appear.

    Two-phase broadcast pattern: phase 1 computes the top-k vocabulary
    (count desc, token asc tie-break — deterministic and tiny) and
    broadcasts it; phase 2 re-scans, reduces each batch to distinct
    (doc, top-token) pairs, self-merges per doc (<= k tokens per doc,
    so <= k*(k-1)/2 pairs) and combines counts per batch — only
    k²-sized integer partials ride the exchange. A document lives in
    exactly one batch, so per-batch distinct is globally exact.
    """
    from ray.data.aggregate import Sum

    top = [r["token"]
           for r in token_topk(ds, text_col, k).take(k)]
    top_set = set(top)

    def partial(b: pa.Table) -> pa.Table:
        pairs = _token_doc_pairs(b, text_col, id_col)
        pairs = pairs[pairs["token"].isin(top_set)].drop_duplicates()
        m = pairs.merge(pairs, on="doc")
        m = m[m["token_x"] < m["token_y"]]
        g = (m.groupby(["token_x", "token_y"], as_index=False, sort=False)
             .size().rename(columns={"size": "partial",
                                     "token_x": "token_a",
                                     "token_y": "token_b"}))
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["token_a", "token_b"])
           .aggregate(Sum("partial", alias_name="n_docs_both")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["n_docs_both"] = df["n_docs_both"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def bm25_topk(ds, text_col: str, id_col: str, terms,
              k1: float = 1.2, b: float = 0.75, topk: int = 10):
    """Okapi BM25 top-k document ranking for a fixed term set — the IR
    scoring shape of a web-text engine.

    Two passes: pass 1 folds the corpus stats (N, Σdl, per-term df)
    from one-row-per-batch integer partials on the driver; pass 2
    broadcasts those few floats via closure, scores every document
    vectorized, reduces each batch to its LOCAL top-k by
    (score desc, id asc) — any global winner is a local winner under
    the same total order, so only topk×batches candidate rows reach the
    final exact sort+limit.

    Determinism: idf = ln((N - df + 0.5)/(df + 0.5) + 1) and the score
    expression are evaluated in a fixed parenthesization replicated by
    the SQL twin; ln is bit-identical across both engines (shared
    libm), and the per-term scores are added in fixed term order, so
    the final doubles hash-match.
    """
    import math

    import pyarrow.compute as pc

    terms = list(terms)

    def doc_feats(bt: pa.Table) -> pd.DataFrame:
        toks = pc.split_pattern(bt[text_col].combine_chunks(), " ")
        flat = pc.list_flatten(toks)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        lens = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        n_docs = len(lens)
        doc_idx = np.repeat(np.arange(n_docs), lens)
        emp = pc.equal(flat, "").to_numpy(zero_copy_only=False)
        dl = lens - np.bincount(doc_idx[emp], minlength=n_docs)
        out = {"dl": dl.astype(np.int64)}
        ft = flat.to_numpy(zero_copy_only=False)
        for t in terms:
            eq = ft == t
            out["tf_" + t] = np.bincount(
                doc_idx[eq], minlength=n_docs).astype(np.int64)
        df = pd.DataFrame(out)
        df[id_col] = bt[id_col].to_numpy(zero_copy_only=False)
        return df

    def stats_partial(bt: pa.Table) -> pa.Table:
        f = doc_feats(bt)
        row = {"n": np.array([len(f)], dtype=np.int64),
               "sumdl": np.array([f["dl"].sum()], dtype=np.int64)}
        for t in terms:
            row["df_" + t] = np.array([(f["tf_" + t] > 0).sum()],
                                      dtype=np.int64)
        return pa.table(row)

    parts = (ds.map_batches(stats_partial, batch_format="pyarrow")
             .to_pandas())
    n = int(parts["n"].sum())
    sumdl = int(parts["sumdl"].sum())
    avgdl = float(sumdl) / float(n)
    idf = {t: math.log((float(n) - float(int(parts["df_" + t].sum()))
                        + 0.5)
                       / (float(int(parts["df_" + t].sum())) + 0.5)
                       + 1.0)
           for t in terms}

    def score_local_topk(bt: pa.Table) -> pa.Table:
        f = doc_feats(bt)
        dl = f["dl"].to_numpy(dtype=np.float64)
        score = np.zeros(len(f), dtype=np.float64)
        for t in terms:  # fixed term order => fixed addition order
            tf = f["tf_" + t].to_numpy(dtype=np.float64)
            s = idf[t] * ((tf * (k1 + 1.0))
                          / (tf + k1 * ((1.0 - b) + b * (dl / avgdl))))
            score = score + s
        f = f.assign(bm25=score)[[id_col, "dl", "bm25"]]
        f = f.sort_values(["bm25", id_col],
                          ascending=[False, True]).head(topk)
        return pa.Table.from_pandas(f, preserve_index=False)

    return (ds.map_batches(score_local_topk, batch_format="pyarrow")
            .sort(["bm25", id_col], descending=[True, False])
            .limit(topk))


def lang_token_cosine(ds, text_col: str, key: str, k: int = 20):
    """Pairwise cosine similarity between per-key token-frequency
    vectors restricted to the corpus top-k vocabulary — "how similar do
    two languages / sources look through their word histograms".

    The vocabulary is broadcast (count desc, token asc tie-break);
    per-batch (key, token) integer counts combine before the exchange,
    so only keys×k rows ever shuffle, and the pair fold runs on that
    KB-sized table with exact integer dot products — the only doubles
    are the final dot/(sqrt*sqrt), fixed order, bit-identical to the
    HUGEINT SQL twin. Pairs with no shared vocabulary get cosine 0.
    """
    import math

    from ray.data.aggregate import Sum

    top_set = {r["token"]
               for r in token_topk(ds, text_col, k).take(k)}

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
        toks = pc.list_flatten(lists)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        keys = np.repeat(b[key].to_numpy(zero_copy_only=False), lens)
        tarr = toks.to_numpy(zero_copy_only=False)
        df = pd.DataFrame({key: keys, "token": tarr})
        df = df[df["token"].isin(top_set)]
        g = (df.groupby([key, "token"], as_index=False, sort=False)
             .size().rename(columns={"size": "partial"}))
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    vecs = (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key, "token"])
            .aggregate(Sum("partial", alias_name="cnt"))
            .to_pandas())  # keys×k rows — KB-sized by construction

    piv = vecs.pivot_table(index=key, columns="token", values="cnt",
                           aggfunc="sum", fill_value=0).astype(np.int64)
    keys_sorted = sorted(piv.index)
    rows = []
    for i, a in enumerate(keys_sorted):
        va = [int(x) for x in piv.loc[a]]
        na = sum(x * x for x in va)
        for b_ in keys_sorted[i + 1:]:
            vb = [int(x) for x in piv.loc[b_]]
            nb = sum(x * x for x in vb)
            dot = sum(x * y for x, y in zip(va, vb))
            cos = (float(dot) / (math.sqrt(float(na))
                                 * math.sqrt(float(nb)))
                   if na > 0 and nb > 0 else 0.0)
            rows.append({"key_a": a, "key_b": b_, "cosine": cos})
    return pd.DataFrame(rows)


def _key_token_counts(ds, text_col: str, key: str):
    """Exact per-(key, token) corpus counts: per-batch split+count
    partials (vocabulary-sized exchange, same one-doc-one-batch contract
    as token_df_stats) combined by a single groupby-sum. The shared
    front end of vocab_richness / token_entropy_stats /
    zipf_slope_stats."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
        toks = pc.list_flatten(lists)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        keys = np.repeat(b[key].to_numpy(zero_copy_only=False), lens)
        df = pd.DataFrame({key: keys,
                           "token": toks.to_numpy(zero_copy_only=False)})
        df = df[df["token"] != ""]
        g = df.groupby([key, "token"], as_index=False, sort=False).size()
        g = g.rename(columns={"size": "partial"})
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return (ds.map_batches(partial, batch_format="pyarrow")
            .groupby([key, "token"])
            .aggregate(Sum("partial", alias_name="cnt")))


def vocab_richness(ds, text_col: str, key: str):
    """Vocabulary-richness report per key: corpus token count N,
    vocabulary size V, hapax count V1 (tokens seen exactly once) and
    Yule's K = 10^4 · (Σ_m m²·V_m − N) / N² over the frequency
    spectrum — the classic lexical-diversity audit of a text corpus.

    Scale shape: per-batch (key, token) count partials combine
    (vocabulary-sized exchange, same contract as token_df_stats —
    a doc lives in one batch so partials are exact), then the spectrum
    fold (cnt → #tokens) reduces to at most |distinct counts| rows per
    key before the bignum driver fold. K is one fixed-order expression
    over exact integers — bit-identical to the SQL twin.
    """
    vocab = _key_token_counts(ds, text_col, key)

    def spectrum(g: pd.DataFrame) -> pd.DataFrame:
        cnt = g["cnt"].to_numpy(dtype=np.int64)
        n = int(cnt.sum())
        v = len(cnt)
        v1 = int((cnt == 1).sum())
        m2 = sum(int(c) * int(c) for c in cnt)     # Σ m²·V_m = Σ cnt²
        k = (10000.0 * float(m2 - n) / (float(n) * float(n))
             if n > 0 else 0.0)
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            "n_tokens": np.array([n], dtype=np.int64),
            "n_vocab": np.array([v], dtype=np.int64),
            "n_hapax": np.array([v1], dtype=np.int64),
            "yule_k": [k]})

    return vocab.groupby(key).map_groups(spectrum,
                                         batch_format="pandas")


def token_entropy_stats(ds, text_col: str, key: str):
    """Shannon token entropy per key — the corpus-diversity audit used
    to compare web-text sources (a low-entropy source is boilerplate-
    or template-heavy): H = ln(N) − (Σ c·ln c)/N over the exact
    per-(key, token) counts.

    Exactness contract: counts are exact integers; the only float fold
    is Σ c·ln(c), accumulated SEQUENTIALLY IN TOKEN-ASCENDING ORDER so
    the IEEE addition sequence is pinned — the DuckDB twin replays it
    with ``SUM(... ORDER BY token)`` (same ordered-aggregate device as
    the neyman_allocation oracle) and every double hashes identically.
    Scale shape: vocabulary-sized exchange, then a per-key fold over
    the domain-sized count table (same as vocab_richness)."""
    import math

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("token")
        cnt = g["cnt"].to_numpy(dtype=np.int64)
        n = int(cnt.sum())
        s = 0.0
        for c in cnt:
            c = float(c)
            s += c * math.log(c)
        ent = math.log(float(n)) - s / float(n) if n > 0 else 0.0
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            "n_tokens": np.array([n], dtype=np.int64),
            "n_vocab": np.array([len(cnt)], dtype=np.int64),
            "sum_clnc": [s],
            "entropy": [ent]})

    return (_key_token_counts(ds, text_col, key)
            .groupby(key).map_groups(fold, batch_format="pandas"))


def zipf_slope_stats(ds, text_col: str, key: str, k: int = 50):
    """Zipf rank-frequency slope per key: OLS fit of y = ln(count) on
    x = ln(rank) over the top-``k`` tokens (rank by count desc, token
    asc — deterministic tie-break). Natural web text runs near −1
    (Zipf 1949); a flat slope flags machine-generated or templated
    sources, so this is a standard corpus-quality screen.

    Exactness contract: ranks and counts are exact; the four OLS moment
    sums (Σx, Σy, Σxy, Σx²) are folded SEQUENTIALLY IN RANK ORDER
    1..k and the slope/intercept use one fixed parenthesization —
    the SQL twin replays them with ``SUM(... ORDER BY rk)`` over the
    identical ROW_NUMBER ranking, so the doubles hash bit-identically.
    Scale shape: vocabulary-sized exchange, k rows per key thereafter."""
    import math

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cnt", "token"],
                          ascending=[False, True]).head(k)
        cnt = g["cnt"].to_numpy(dtype=np.int64)
        m = len(cnt)
        sx = sy = sxy = sxx = 0.0
        for i, c in enumerate(cnt):
            x = math.log(float(i + 1))
            y = math.log(float(c))
            sx += x
            sy += y
            sxy += x * y
            sxx += x * x
        km = float(m)
        den = km * sxx - sx * sx
        if m >= 2 and den != 0.0:
            slope = (km * sxy - sx * sy) / den
            intercept = (sy - slope * sx) / km
        else:
            slope = 0.0
            intercept = 0.0
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            "n_top": np.array([m], dtype=np.int64),
            "zipf_slope": [slope],
            "zipf_intercept": [intercept]})

    return (_key_token_counts(ds, text_col, key)
            .groupby(key).map_groups(fold, batch_format="pandas"))


def heaps_law_stats(ds, text_col: str, id_col: str, key: str,
                    checkpoints: int = 8):
    """Heaps'-law vocabulary-growth fit per key: V(N) ≈ K·N^β, the
    classic sublinear vocabulary-vs-corpus-size law (β ≈ 0.4–0.6 for
    natural text; β near 1 flags random/spam content, β near 0 flags
    templates). The document order is pinned to ``id_col`` ascending so
    the growth curve is a pure function of the data, not of execution.

    Distribution shape — the sequential "scan docs, count new words"
    definition is re-expressed as two embarrassingly-parallel exact
    aggregations: (a) per (key, token) the FIRST document id (a
    groupby-min — a token enters the vocabulary exactly at its min doc),
    folded to per-(key, doc) new-token counts; (b) per (key, doc) total
    token counts. Both are vocabulary-/doc-bounded on the exchange; the
    cumulative curve, checkpoint selection (positions (i·n_docs)//C,
    i = 1..C, deduped) and the OLS fold of ln V on ln N then run inside
    a per-key ``map_groups`` over the doc-sized aggregate (per-key
    worker-side, not driver-side; at extreme per-key doc counts the
    same curve can be taken from a distributed window sum instead).
    Docs whose text has no non-empty token carry no rows on either side.

    Exactness contract: all counts exact int64; ln inputs are identical
    integers on both sides; the four OLS moment sums fold SEQUENTIALLY
    IN CHECKPOINT ORDER and the slope/intercept use the same fixed
    parenthesization as zipf_slope_stats, replayed by the SQL twin's
    ordered SUMs."""
    import math

    from ray.data.aggregate import Min, Sum

    def tok_pairs(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
        toks = pc.list_flatten(lists)
        if isinstance(toks, pa.ChunkedArray):
            toks = toks.combine_chunks()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        keys = np.repeat(b[key].to_numpy(zero_copy_only=False), lens)
        docs = np.repeat(b[id_col].to_numpy(zero_copy_only=False), lens)
        df = pd.DataFrame({key: keys, "doc": docs,
                           "token": toks.to_numpy(zero_copy_only=False)})
        return pa.Table.from_pandas(df[df["token"] != ""],
                                    preserve_index=False)

    pairs = ds.map_batches(tok_pairs, batch_format="pyarrow")

    # (a) vocabulary entry points: min doc per token, then new-token
    # counts per doc. Two narrow shuffles, nothing wider than the vocab.
    first = (pairs.groupby([key, "token"])
             .aggregate(Min("doc", alias_name="fd")))

    def vnew_partial(b: pa.Table) -> pa.Table:
        df = b.select([key, "fd"]).to_pandas()
        g = df.groupby([key, "fd"], as_index=False, sort=False).size()
        return pa.table({key: pa.array(g[key]),
                         "doc": pa.array(g["fd"].to_numpy(np.int64)),
                         "v_new": pa.array(g["size"].to_numpy(np.int64)),
                         "nt": pa.array(np.zeros(len(g), np.int64))})

    vnew = (first.map_batches(vnew_partial, batch_format="pyarrow")
            .groupby([key, "doc"])
            .aggregate(Sum("v_new", alias_name="v_new"),
                       Sum("nt", alias_name="nt")))

    # (b) per-doc token totals (a doc lives in one batch -> exact).
    def nt_partial(b: pa.Table) -> pa.Table:
        df = b.select([key, "doc"]).to_pandas()
        g = df.groupby([key, "doc"], as_index=False, sort=False).size()
        return pa.table({key: pa.array(g[key]),
                         "doc": pa.array(g["doc"].to_numpy(np.int64)),
                         "v_new": pa.array(np.zeros(len(g), np.int64)),
                         "nt": pa.array(g["size"].to_numpy(np.int64))})

    ntot = (pairs.map_batches(nt_partial, batch_format="pyarrow")
            .groupby([key, "doc"])
            .aggregate(Sum("v_new", alias_name="v_new"),
                       Sum("nt", alias_name="nt")))

    merged = (vnew.union(ntot).groupby([key, "doc"])
              .aggregate(Sum("v_new", alias_name="v_new"),
                         Sum("nt", alias_name="nt")))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc")
        cum_n = g["nt"].to_numpy(np.int64).cumsum()
        cum_v = g["v_new"].to_numpy(np.int64).cumsum()
        nd = len(g)
        pos = sorted({max(1, (i * nd) // checkpoints)
                      for i in range(1, checkpoints + 1)})
        sx = sy = sxy = sxx = 0.0
        for p in pos:
            x = math.log(float(cum_n[p - 1]))
            y = math.log(float(cum_v[p - 1]))
            sx += x
            sy += y
            sxy += x * y
            sxx += x * x
        m = float(len(pos))
        den = m * sxx - sx * sx
        if len(pos) >= 2 and den != 0.0:
            beta = (m * sxy - sx * sy) / den
            log_k = (sy - beta * sx) / m
        else:
            beta = 0.0
            log_k = 0.0
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            "n_docs": np.array([nd], dtype=np.int64),
            "n_tokens": np.array([int(cum_n[-1])], dtype=np.int64),
            "n_vocab": np.array([int(cum_v[-1])], dtype=np.int64),
            "n_points": np.array([len(pos)], dtype=np.int64),
            "heaps_beta": [beta],
            "heaps_log_k": [log_k]})

    return merged.groupby(key).map_groups(fold, batch_format="pandas")


def _span_window_fn(text_col: str, doc_id_col: str, n: int, buckets: int):
    """Per-batch (gram_hash, doc, pos, bucket) window rows — the shared
    emission stage of the ExactSubstr pipelines (stats + rewrite twins
    must stay in lockstep; see the token-conservation test)."""
    from ..functions.hashing import splitmix64

    def windows(b: pa.Table) -> pd.DataFrame:
        h, doc_of, pos, _ = _word_gram_hashes(b[text_col], n,
                                              with_positions=True)
        ids = b[doc_id_col].to_numpy(zero_copy_only=False)
        gh = h.view(np.int64)
        gid = ids[doc_of] if gh.size else np.empty(0, dtype=np.int64)
        bkt = (splitmix64(gh.view(np.uint64)) % np.uint64(buckets)) \
            .astype(np.int64) if gh.size else np.empty(0, dtype=np.int64)
        return pd.DataFrame({"gram": gh, "doc": gid, "pos": pos,
                             "bucket": bkt})

    return windows


def _dup_window_fn(buckets: int):
    """Per-gram-bucket fold: keep only windows whose gram occurs in
    >= 2 distinct docs, re-bucketed by doc (shared by stats + rewrite)."""
    from ..functions.hashing import splitmix64

    def dup_windows(g: pd.DataFrame) -> pd.DataFrame:
        nd = g.groupby("gram", sort=False)["doc"].transform("nunique")
        out = g.loc[nd.to_numpy() >= 2, ["doc", "pos"]]
        if len(out) == 0:
            return pd.DataFrame({"doc": pd.Series([], dtype=np.int64),
                                 "pos": pd.Series([], dtype=np.int64),
                                 "dbucket": pd.Series([], dtype=np.int64)})
        out = out.copy()
        out["dbucket"] = (splitmix64(out["doc"].to_numpy()
                                     .astype(np.uint64))
                          % np.uint64(buckets)).astype(np.int64)
        return out

    return dup_windows


def _nonempty_token_counts(b: pa.Table, text_col: str) -> np.ndarray:
    """Per-row non-empty token counts — split/mask/bincount only, no
    gram construction (cheap second corpus pass)."""
    import pyarrow.compute as pc

    lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
    toks = pc.list_flatten(lists)
    mask = pc.not_equal(toks, "").to_numpy(zero_copy_only=False)
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    doc_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    return np.bincount(doc_of[mask], minlength=len(lens))


def duplicate_span_report(ds, text_col: str = "text",
                          doc_id_col: str = "doc_id", key: str = "lang",
                          n: int = 10, n_rows: int | None = None):
    """Exact repeated-span (substring-level) dedup signal, the
    suffix-array dedup of Lee et al., "Deduplicating Training Data Makes
    Language Models Better" (ACL 2022), re-expressed as a hash-partitioned
    n-token-window job: every n-token window is keyed by its literal
    space-joined gram; a window is DUPLICATED iff its gram occurs in >= 2
    distinct documents (the cross-document repeated-substring criterion —
    the removable span set of the paper's ExactSubstr dedup at window
    granularity n).

    Per lang: documents with >= 1 window, total windows, duplicated
    windows, and documents containing any duplicated span.

    Topology (100-TB path): one map pass emits per-batch pre-combined
    (gram_hash u64, doc_id, cnt) rows — O(total tokens) fixed-width rows,
    the same asymptotic cost a distributed suffix array pays, no text on
    the wide exchange; grams are hash-BUCKETED (not one Ray group per
    gram — one group per distinct gram is pathological, see
    hash_bucketed_group_agg) and each bucket folds vectorized pandas
    groupbys: per-gram distinct-doc counts pick the duplicated grams, and
    the SAME fold re-aggregates per-doc total/dup window partials, so no
    second pass over the corpus. Per-doc partials combine through
    hash_bucketed_group_agg, re-join lang via the distributed equi-join,
    and the final per-lang rollup is KB-sized.

    Gram identity is the 64-bit hash of the literal gram string (same
    convention and collision analysis as dedup_exact); a SQL oracle
    reproduces the gram set via string_split + list slicing.
    """
    import pandas as pd
    from ray.data.aggregate import Count, Sum

    from ..functions.hashing import splitmix64
    from ..stages.aggregate import hash_bucketed_group_agg
    from ..stages.partitioning import cheap_row_count, coarse_bucket_count
    from .relational import hash_join

    if n_rows is None:
        n_rows = cheap_row_count(ds)
    # gram rows multiply docs by ~tokens/doc; size buckets for that
    buckets = coarse_bucket_count(n_rows=n_rows, fanout=64,
                                  rows_per_bucket=262144,
                                  what="duplicate_span_report")

    def gram_pairs(b: pa.Table) -> pd.DataFrame:
        h, doc_of = _word_gram_hashes(b[text_col], n)
        ids = b[doc_id_col].to_numpy(zero_copy_only=False)
        gid = ids[doc_of]
        gh = h.view(np.int64)
        if gh.size == 0:
            return pd.DataFrame({
                "gram": pd.Series([], dtype=np.int64),
                "doc": pd.Series([], dtype=np.int64),
                "cnt": pd.Series([], dtype=np.int64),
                "bucket": pd.Series([], dtype=np.int64)})
        order = np.lexsort((gid, gh))
        gh, gid = gh[order], gid[order]
        first = np.empty(gh.size, dtype=bool)
        first[0] = True
        first[1:] = (gh[1:] != gh[:-1]) | (gid[1:] != gid[:-1])
        starts = np.flatnonzero(first)
        cnt = np.diff(np.append(starts, gh.size)).astype(np.int64)
        gh, gid = gh[starts], gid[starts]
        bkt = (splitmix64(gh.view(np.uint64)) % np.uint64(buckets)) \
            .astype(np.int64)
        return pd.DataFrame({"gram": gh, "doc": gid, "cnt": cnt,
                             "bucket": bkt})

    def fold_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # combine per (gram, doc) across batches, then per-gram
        # distinct-doc counts pick the duplicated grams
        gd = (g.groupby(["gram", "doc"], sort=False)["cnt"].sum()
              .reset_index())
        ndocs = gd.groupby("gram", sort=False)["doc"].transform("nunique")
        dup = gd[ndocs.to_numpy() >= 2]
        total = gd.groupby("doc", sort=False)["cnt"].sum()
        dupw = dup.groupby("doc", sort=False)["cnt"].sum()
        out = total.to_frame("total_w")
        out["dup_w"] = dupw.reindex(out.index, fill_value=0)
        out = out.reset_index()
        out["dup_w"] = out["dup_w"].astype(np.int64)
        return out

    per_doc = hash_bucketed_group_agg(
        ds.map_batches(gram_pairs, batch_format="pyarrow")
          .groupby("bucket").map_groups(fold_bucket,
                                        batch_format="pandas"),
        ["doc"],
        {"total_windows": ("total_w", "sum"),
         "dup_windows": ("dup_w", "sum")},
        # the stream holds one row per (doc, gram-bucket touched), up to
        # ~64x the doc count — size the combine buckets for that fanout
        coarse=buckets)

    langs = ds.select_columns([doc_id_col, key]).map_batches(
        lambda b: pa.table({"doc": b[doc_id_col], key: b[key]}),
        batch_format="pyarrow")
    joined = hash_join(per_doc, langs, "doc",
                       ["total_windows", "dup_windows"], [key],
                       n_rows=n_rows,
                       types={"doc": pa.int64(),
                              "total_windows": pa.int64(),
                              "dup_windows": pa.int64(),
                              key: pa.string()})

    def flag(b: pa.Table) -> pa.Table:
        dup = b["dup_windows"].to_numpy(zero_copy_only=False)
        return pa.table({
            key: b[key],
            "total_windows": b["total_windows"],
            "dup_windows": b["dup_windows"],
            "has_dup": pa.array((dup > 0).astype(np.int64))})

    return (joined.map_batches(flag, batch_format="pyarrow")
            .groupby(key)
            .aggregate(Count(alias_name="n_docs"),
                       Sum("total_windows", alias_name="total_windows"),
                       Sum("dup_windows", alias_name="dup_windows"),
                       Sum("has_dup", alias_name="docs_with_dup")))


def drop_duplicate_span_stats(ds, text_col: str = "text",
                              doc_id_col: str = "doc_id",
                              key: str = "lang", n: int = 10,
                              n_rows: int | None = None):
    """The REMOVAL step of ExactSubstr dedup (Lee et al., ACL 2022): drop
    every token covered by at least one duplicated n-token window (a
    window is duplicated iff its literal gram occurs in >= 2 distinct
    documents). Per lang: document count, total non-empty tokens, tokens
    that removal drops (the union of covering windows — overlapping
    windows are not double-counted), and documents touched.

    Topology: pass 1 emits per-window fixed-width rows
    (gram_hash, doc, pos) bucketed BY GRAM; each gram bucket finds its
    duplicated grams (distinct-doc >= 2) and forwards only the dup
    windows' (doc, pos) rows re-bucketed BY DOC, so the second fold sees
    every dup window of a doc together and computes the interval-union
    coverage vectorized (sorted positions, per-gap min(n, delta) sweep).
    A second cheap map pass provides per-doc token totals + the lang
    label (one row per doc); the distributed LEFT equi-join fills
    docs with no duplicated span. Nothing wider than 8-byte-column rows
    ever shuffles, and no stage holds more than one bucket.
    """
    import pandas as pd

    from ray.data.aggregate import Count, Sum

    from ..stages.partitioning import cheap_row_count, coarse_bucket_count
    from .relational import hash_join

    if n_rows is None:
        n_rows = cheap_row_count(ds)
    buckets = coarse_bucket_count(n_rows=n_rows, fanout=64,
                                  rows_per_bucket=262144,
                                  what="drop_duplicate_span_stats")
    windows = _span_window_fn(text_col, doc_id_col, n, buckets)
    dup_windows = _dup_window_fn(buckets)

    def coverage(g: pd.DataFrame) -> pd.DataFrame:
        d = g["doc"].to_numpy(dtype=np.int64)
        p = g["pos"].to_numpy(dtype=np.int64)
        order = np.lexsort((p, d))
        d, p = d[order], p[order]
        new = np.empty(d.size, dtype=bool)
        new[0] = True
        new[1:] = d[1:] != d[:-1]
        prev = np.concatenate(([np.int64(0)], p[:-1]))
        contrib = np.where(new, np.int64(n),
                           np.minimum(p - prev, np.int64(n)))
        run = np.cumsum(new) - 1
        dropped = np.bincount(run, weights=contrib).astype(np.int64)
        return pd.DataFrame({"doc": d[new], "dropped": dropped})

    dropped = (ds.map_batches(windows, batch_format="pyarrow")
               .groupby("bucket").map_groups(dup_windows,
                                             batch_format="pandas")
               .groupby("dbucket").map_groups(coverage,
                                              batch_format="pandas"))

    def totals(b: pa.Table) -> pd.DataFrame:
        return pd.DataFrame({
            "doc": b[doc_id_col].to_numpy(zero_copy_only=False),
            key: b[key].to_pandas(),
            "n_tokens": _nonempty_token_counts(b, text_col)
            .astype(np.int64)})

    per_doc = hash_join(ds.map_batches(totals, batch_format="pyarrow"),
                        dropped, "doc", [key, "n_tokens"], ["dropped"],
                        n_rows=n_rows, how="left",
                        types={"doc": pa.int64(), key: pa.string(),
                               "n_tokens": pa.int64(),
                               "dropped": pa.int64()})

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        dr = df["dropped"].fillna(0).astype(np.int64)
        return pd.DataFrame({
            key: df[key], "n_tokens": df["n_tokens"].astype(np.int64),
            "dropped": dr,
            "touched": (dr > 0).astype(np.int64)})

    return (per_doc.map_batches(flag, batch_format="pandas")
            .groupby(key)
            .aggregate(Count(alias_name="n_docs"),
                       Sum("n_tokens", alias_name="tokens_total"),
                       Sum("dropped", alias_name="tokens_dropped"),
                       Sum("touched", alias_name="docs_touched")))


def drop_duplicate_spans_text(ds, text_col: str = "text",
                              doc_id_col: str = "doc_id", n: int = 10,
                              n_rows: int | None = None):
    """The rewrite form of ExactSubstr removal (Lee et al., ACL 2022):
    returns ``(doc_id, text, n_dropped)`` with every token covered by a
    duplicated n-token window removed (single-space rejoin of the
    surviving tokens — the same tokenization convention as the stats
    twin, so ``drop_duplicate_span_stats``'s ``tokens_dropped`` equals
    the sum of ``n_dropped`` here).

    Topology: identical gram-bucket dup detection as the stats twin;
    each doc's dup-window positions are packed into ONE compact
    comma-separated string in the doc-bucket fold (a join-safe scalar), LEFT-joined back to
    the corpus by doc id, and the rewrite touches only the joined rows
    (untouched docs pass through without re-tokenizing).
    """
    import pandas as pd

    from ..stages.partitioning import cheap_row_count, coarse_bucket_count
    from .relational import hash_join

    if n_rows is None:
        n_rows = cheap_row_count(ds)
    buckets = coarse_bucket_count(n_rows=n_rows, fanout=64,
                                  rows_per_bucket=262144,
                                  what="drop_duplicate_spans_text")
    windows = _span_window_fn(text_col, doc_id_col, n, buckets)
    dup_windows = _dup_window_fn(buckets)

    def pack_positions(g: pd.DataFrame) -> pd.DataFrame:
        d = g["doc"].to_numpy(dtype=np.int64)
        p = g["pos"].to_numpy(dtype=np.int64)
        order = np.lexsort((p, d))
        d, p = d[order], p[order]
        new = np.empty(d.size, dtype=bool)
        new[0] = True
        new[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], d.size)
        return pd.DataFrame({
            "doc": d[starts],
            "dup_pos": [",".join(map(str, p[s:e]))
                        for s, e in zip(starts, ends)]})

    dup_pos = (ds.map_batches(windows, batch_format="pyarrow")
               .groupby("bucket").map_groups(dup_windows,
                                             batch_format="pandas")
               .groupby("dbucket").map_groups(pack_positions,
                                              batch_format="pandas"))

    def rename_id(b: pa.Table) -> pa.Table:
        cols = {"doc": b[doc_id_col], text_col: b[text_col]}
        return pa.table(cols)

    joined = hash_join(ds.map_batches(rename_id, batch_format="pyarrow"),
                       dup_pos, "doc", [text_col], ["dup_pos"],
                       n_rows=n_rows, how="left",
                       types={"doc": pa.int64(), text_col: pa.string(),
                              "dup_pos": pa.string()})

    def rewrite(df: pd.DataFrame) -> pd.DataFrame:
        texts = df[text_col].to_numpy()
        blobs = df["dup_pos"].to_numpy()
        out_t = texts.copy()
        dropped = np.zeros(len(df), dtype=np.int64)
        for i, blob in enumerate(blobs):
            if not isinstance(blob, str) or not blob:
                continue
            starts = np.array(blob.split(","), dtype=np.int64)
            toks = [t for t in texts[i].split(" ") if t]
            covered = np.zeros(len(toks), dtype=bool)
            for s in starts:
                covered[s:s + n] = True
            out_t[i] = " ".join(t for t, c in zip(toks, covered) if not c)
            dropped[i] = int(covered.sum())
        return pd.DataFrame({doc_id_col: df["doc"].astype(np.int64),
                             text_col: out_t, "n_dropped": dropped})

    return joined.map_batches(rewrite, batch_format="pandas")


def nb_classifier_confusion(ds, text_col: str = "text", key: str = "lang",
                            n_buckets: int = 4096, alpha: float = 1.0):
    """Multinomial Naive Bayes over hashed unigram features, trained and
    evaluated distributed with EXACT-INTEGER sufficient statistics — the
    trained upgrade of the heuristic lang-ID in functions/text.py (and
    the fastText-style linear text classifier of corpus curation, e.g.
    quality/language routing).

    Train: one map pass emits per-batch (bucket, class) count partials;
    a ``groupby(bucket, class)`` sum produces the complete sufficient
    statistics (≤ n_buckets × classes rows — KB), which the driver
    pulls once and turns into a broadcast log-likelihood matrix
    ``logp[b, c] = ln((cnt[b,c]+a) / (tot[c]+a*B))`` plus log-priors.
    Predict (self-evaluation over the same corpus): per doc and class,
    score = log-prior + sum over tokens of logp[bucket(token), c] — an
    order-deterministic per-class bincount fold — and argmax with a
    deterministic smallest-class-name tie-break. Output: the confusion
    matrix ``(true class, predicted class, n_docs)`` in exact int64.

    Rows-only for the driver (the 64-bit feature hash has no SQL twin);
    the pytest twin replays training + prediction in pure Python.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..functions.hashing import hash64

    B = int(n_buckets)

    def _buckets(b: pa.Table):
        lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
        toks = pc.list_flatten(lists)
        mask = pc.not_equal(toks, "").to_numpy(zero_copy_only=False)
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc_of = np.repeat(np.arange(len(lens), dtype=np.int64),
                           lens)[mask]
        bkt = (hash64(toks.filter(pa.array(mask))
                      .to_numpy(zero_copy_only=False))
               % np.uint64(B)).astype(np.int64)
        return bkt, doc_of, len(lens)

    def train_partials(b: pa.Table) -> pd.DataFrame:
        bkt, doc_of, _ = _buckets(b)
        cls = b[key].to_pandas().to_numpy()[doc_of]
        df = pd.DataFrame({"bucket": bkt, "cls": cls})
        g = df.groupby(["bucket", "cls"], sort=False).size() \
            .reset_index(name="part")
        g["part"] = g["part"].astype(np.int64)
        # per-batch class doc counts ride along for the priors
        ids = pd.DataFrame({
            "bucket": np.full(b.num_rows, -1, dtype=np.int64),
            "cls": b[key].to_pandas(),
            "part": np.ones(b.num_rows, dtype=np.int64)})
        return pd.concat([g, ids], ignore_index=True)

    stats = (ds.map_batches(train_partials, batch_format="pyarrow")
             .groupby(["bucket", "cls"])
             .aggregate(Sum("part", alias_name="cnt"))
             .to_pandas())  # <= (B+1) * classes rows — KB by design
    classes = sorted(stats["cls"].unique())
    cidx = {c: i for i, c in enumerate(classes)}
    L = len(classes)
    cnt = np.zeros((B, L), dtype=np.int64)
    docs_per_cls = np.zeros(L, dtype=np.int64)
    for _, row in stats.iterrows():
        if row["bucket"] < 0:
            docs_per_cls[cidx[row["cls"]]] = row["cnt"]
        else:
            cnt[int(row["bucket"]), cidx[row["cls"]]] = row["cnt"]
    tot = cnt.sum(axis=0)
    logp = np.log((cnt + alpha) / (tot + alpha * B))
    logprior = np.log(docs_per_cls / docs_per_cls.sum())

    def predict(b: pa.Table) -> pd.DataFrame:
        bkt, doc_of, nd = _buckets(b)
        scores = np.tile(logprior, (nd, 1))
        for c in range(L):
            scores[:, c] += np.bincount(doc_of, weights=logp[bkt, c],
                                        minlength=nd)
        pred = np.argmax(scores, axis=1)  # first max = smallest class
        true = b[key].to_pandas().to_numpy()
        g = pd.DataFrame({
            "true_cls": true,
            "pred_cls": np.array(classes, dtype=object)[pred]})
        out = g.groupby(["true_cls", "pred_cls"], sort=False).size() \
            .reset_index(name="part")
        out["part"] = out["part"].astype(np.int64)
        return out

    return (ds.map_batches(predict, batch_format="pyarrow")
            .groupby(["true_cls", "pred_cls"])
            .aggregate(Sum("part", alias_name="n_docs")))


def _bitlen(x: np.ndarray) -> np.ndarray:
    """Exact bit length of positive int64 (< 2^53) via frexp — the
    integer-log2 both engines agree on (SQL: LENGTH(bin(x)))."""
    return np.frexp(x.astype(np.float64))[1].astype(np.int64)


def lm_surprise_stats(ds, text_col: str, lang_col: str):
    """Integer bigram-LM SURPRISE score per language — the CCNet-style
    perplexity quality signal made exactly reproducible: for each
    adjacent token pair the surprise is
    ``bitlen(c1(w1) + V) - bitlen(c12(w1,w2) + 1)`` — an integer-log2
    add-one-smoothed conditional ``-log2 P(w2 | w1)`` (within 1 bit),
    so per-lang sums are exact integers with a full SQL oracle
    (printf('%b') length), where a float log-prob sum would be
    accumulation-order-dependent.

    Dataflow: ONE corpus pass emits per-batch (lang, w1, bigram)
    combiner partials (the bigram_topk extraction — shifted slices,
    doc-boundary masked) and unigram partials; bigram totals derive
    from the aggregated (lang, bigram) table itself (a vocabulary-sized
    second groupby, never the corpus); the unigram table joins in by
    headword through the engine's own hash_join. No raw text on any
    exchange after the first combine.

    Returns (lang, n_bigrams, surprise_sum) — higher mean surprise =
    less template-like text.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from .relational import hash_join

    def bigram_partial(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
        flat = pc.list_flatten(lists)
        if isinstance(flat, pa.ChunkedArray):
            flat = flat.combine_chunks()
        n = len(flat)
        empty = pa.table({
            "lang": pa.array([], type=pa.string()),
            "w1": pa.array([], type=pa.string()),
            "bigram": pa.array([], type=pa.string()),
            "partial": pa.array([], type=pa.int64())})
        if n < 2:
            return empty
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens)), lens)
        same_doc = doc_idx[:-1] == doc_idx[1:]
        a = flat.slice(0, n - 1)
        c = flat.slice(1)
        nonempty = pc.and_(pc.not_equal(a, ""), pc.not_equal(c, ""))
        mask = pc.and_(nonempty, pa.array(same_doc))
        langs = b[lang_col].to_numpy(zero_copy_only=False)
        lang_per_pair = langs[doc_idx[:-1]][
            mask.to_numpy(zero_copy_only=False)]
        w1 = a.filter(mask)
        big = pc.binary_join_element_wise(w1, c.filter(mask), " ")
        df = pd.DataFrame({
            "lang": lang_per_pair,
            "w1": w1.to_numpy(zero_copy_only=False),
            "bigram": big.to_numpy(zero_copy_only=False)})
        g = (df.groupby(["lang", "w1", "bigram"], sort=False)
             .size().reset_index(name="partial"))
        return pa.table({
            "lang": pa.array(g["lang"]), "w1": pa.array(g["w1"]),
            "bigram": pa.array(g["bigram"]),
            "partial": pa.array(g["partial"].to_numpy(np.int64))})

    A = (ds.map_batches(bigram_partial, batch_format="pyarrow")
         .groupby(["lang", "w1", "bigram"])
         .aggregate(Sum("partial", alias_name="n_lw")))

    c12 = A.groupby("bigram").aggregate(Sum("n_lw", alias_name="c12"))

    def uni_partial(b: pa.Table) -> pa.Table:
        lists = pc.split_pattern(b[text_col].combine_chunks(), " ")
        flat = pc.list_flatten(lists)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = flat.value_counts()
        return pa.table({"w1": vc.field("values"),
                         "partial": pc.cast(vc.field("counts"),
                                            pa.int64())})

    c1 = (ds.map_batches(uni_partial, batch_format="pyarrow")
          .groupby("w1").aggregate(Sum("partial", alias_name="c1")))
    c1 = c1.materialize()                   # reused: count + join side
    v_size = c1.count()

    j1 = hash_join(A, c12, on="bigram", left_cols=["lang", "w1",
                                                   "n_lw"],
                   right_cols=["c12"],
                   types={"bigram": pa.string(), "lang": pa.string(),
                          "w1": pa.string(), "n_lw": pa.int64(),
                          "c12": pa.int64()})
    j2 = hash_join(j1, c1, on="w1",
                   left_cols=["lang", "n_lw", "c12"],
                   right_cols=["c1"],
                   types={"w1": pa.string(), "lang": pa.string(),
                          "n_lw": pa.int64(), "c12": pa.int64(),
                          "c1": pa.int64()})

    def score(b: pa.Table) -> pa.Table:
        n = b["n_lw"].to_numpy(zero_copy_only=False)
        s = (_bitlen(b["c1"].to_numpy(zero_copy_only=False) + v_size)
             - _bitlen(b["c12"].to_numpy(zero_copy_only=False) + 1))
        return pa.table({"lang": b["lang"],
                         "n_bigrams": pa.array(n),
                         "surprise": pa.array(n * s)})

    out = (j2.map_batches(score, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("n_bigrams", alias_name="n_bigrams"),
                      Sum("surprise", alias_name="surprise_sum")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["n_bigrams"] = df["n_bigrams"].astype(np.int64)
        df["surprise_sum"] = df["surprise_sum"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")
