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
Tokenization is ``functions.text.split_tokens``: a single-space split
with empty tokens dropped (reproducible bit-for-bit by SQL
``string_split``).

Every keyed step runs on the library's one analytics exchange,
``stages.aggregate.bucketed_map_groups``: per-batch integer partials
combine through ``hash_bucketed_group_agg``; the per-key folds (JSON
field stats, vocabulary richness, entropy, Zipf, Heaps) take whole
hash buckets of keys and sort each once with ``_key_runs``, keeping
their float sums in the order the SQL twins replay; the ExactSubstr
span operators key their window map (the ``project``) by gram, then
their duplicated windows by doc. A global top-k is the exchange's
one-bucket case over per-block head-ks, and ``dominant_term`` joins
each document's top term to the df table with ``relational.hash_join``
instead of pulling the vocabulary to the driver. Each operator counts
its source's rows once (``cheap_row_count``) and sizes every exchange
from that count, times ``_TOKEN_FANOUT`` for bigram and n-gram window
rows. A null key is one more key, as in SQL's GROUP BY.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.text import split_tokens, token_bigrams, token_count
from ..stages.aggregate import (_key_runs, bucketed_map_groups,
                                hash_bucketed_group_agg)
from ..stages.partitioning import cheap_row_count
from ..state.tdigest import _seg_cumsum
from .relational import hash_join

# Every exchange is sized by the rows that reach it. Per-doc rows, per-key
# partials and per-batch unigram counts (a batch's vocabulary grows
# sublinearly in its tokens) take the source's row count; an undercount
# only fills buckets fuller, and the folds' cost follows rows, not calls.
# Bigram and n-gram window rows are near-unique per token position, so a
# per-batch combine barely shrinks them: they take the count times the
# tokens per document (54 on average in the sf0.01 test corpus).
_TOKEN_FANOUT = 64


def _exploded(n_rows: int | None) -> int | None:
    """The row bound of a bigram or n-gram window explode of ``n_rows``
    source rows (None when the source count is unknown)."""
    return None if n_rows is None else n_rows * _TOKEN_FANOUT


def _summed(ds, partial, keys, out: str, n_rows: int | None):
    """``partial``'s per-batch int64 ``partial`` column summed per
    ``keys`` into ``out``, on the keyed exchange."""
    return hash_bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"), keys,
        {out: ("partial", "sum")}, n_rows=n_rows)


def _top_k(ds, order: dict, k: int, project=None):
    """The first ``k`` rows under ``order`` (``{column: ascending}``, a
    total order): a head-k of every block (of ``project``'s frame when
    given), then one head-k of those, the keyed exchange's one-bucket
    case. Any global winner is a winner of its own block."""
    cols, asc = list(order), list(order.values())

    def head(t) -> pd.DataFrame:
        df = t.to_pandas() if isinstance(t, pa.Table) else t
        return df.sort_values(cols, ascending=asc, kind="stable").head(k)

    return bucketed_map_groups(
        ds, [], head, n_buckets=1,
        project=head if project is None else lambda b: head(project(b)))


def _ln(x: np.ndarray) -> np.ndarray:
    """``math.log`` of each value, once per distinct value: libm's log,
    the one DuckDB's ``ln`` calls, where numpy's vectorized log may
    round differently."""
    u, inv = np.unique(np.asarray(x, dtype=np.float64), return_inverse=True)
    return np.array([math.log(v) for v in u.tolist()],
                    dtype=np.float64)[inv]


def _seq_sums(x: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The float sum of each run of ``lens`` values, added left to right
    as a Python loop would (``_seg_cumsum``); 0.0 for an empty run."""
    off = np.r_[0, np.cumsum(lens)]
    cs = np.r_[0.0, _seg_cumsum(x, off)]
    return np.where(lens > 0, cs[off[1:]], 0.0)


def _ols(x: np.ndarray, y: np.ndarray, lens: np.ndarray):
    """Per run of ``lens`` points, the OLS fit of y on x: the four moment
    sums folded in point order and one fixed parenthesization, as the SQL
    twins' ordered SUMs replay it. Returns (slope, intercept), both 0.0
    below two points or for a flat x."""
    sx, sy, sxy, sxx = (_seq_sums(v, lens) for v in (x, y, x * y, x * x))
    m = lens.astype(np.float64)
    den = m * sxx - sx * sx
    fit = (lens >= 2) & (den != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(fit, (m * sxy - sx * sy) / den, 0.0)
        return slope, np.where(fit, (sy - slope * sx) / m, 0.0)


def _run_cumsum(x: np.ndarray, starts: np.ndarray,
                runs: np.ndarray) -> np.ndarray:
    """Integer running sums of ``x``, restarted at each key run."""
    cs = np.cumsum(x)
    return cs - np.repeat(cs[starts] - x[starts], runs)


def _token_doc_pairs(b: pa.Table, text_col: str, id_col: str):
    """Vectorized explode: (token, doc) pairs for one batch."""
    toks, row = split_tokens(b[text_col])
    return pd.DataFrame({
        "token": toks.to_pandas(),
        "doc": b[id_col].to_numpy(zero_copy_only=False)[row]})


def _vocab_counts(ds, text_col: str, col: str, out: str,
                  n_rows: int | None):
    """Exact corpus count of every token, as ``(col, out)`` rows: one
    Arrow ``value_counts`` per batch, summed on the keyed exchange."""

    def partial(b: pa.Table) -> pa.Table:
        vc = split_tokens(b[text_col])[0].value_counts()
        return pa.table({col: vc.field("values"),
                         "partial": pc.cast(vc.field("counts"), pa.int64())})

    return _summed(ds, partial, [col], out, n_rows)


def token_topk(ds, text_col: str, k: int, count_name: str = "cnt"):
    """Corpus token-frequency top-k with a deterministic
    (count desc, token asc) tie-break — the unnest-heavy aggregation
    shape. Per-batch split+count combiner (Arrow C kernels), a
    vocabulary-sized count exchange, then a head-k per count block and
    one final head-k."""
    return _token_topk(ds, text_col, k, count_name, cheap_row_count(ds))


def _token_topk(ds, text_col: str, k: int, count_name: str,
                n_rows: int | None):
    """``token_topk`` with its exchange sized from a caller's count."""
    return _top_k(_vocab_counts(ds, text_col, "token", count_name, n_rows),
                  {count_name: False, "token": True}, k)


def bigram_topk(ds, text_col: str, k: int, count_name: str = "cnt"):
    """Corpus bigram-frequency top-k: adjacent-token pairs WITHIN each
    document (``functions.text.token_bigrams``: never across documents,
    both tokens non-empty), fully Arrow-vectorized. Only
    bigram-vocabulary-sized partials ride the shuffle; the top-k is the
    same two head-ks as ``token_topk``."""

    def partial(b: pa.Table) -> pa.Table:
        vc = token_bigrams(b[text_col])[1].value_counts()
        return pa.table({"bigram": vc.field("values"),
                         "partial": pc.cast(vc.field("counts"), pa.int64())})

    counts = _summed(ds, partial, ["bigram"], count_name,
                     _exploded(cheap_row_count(ds)))
    return _top_k(counts, {count_name: False, "bigram": True}, k)


def token_df_stats(ds, text_col: str, id_col: str):
    """Inverted-index posting statistics: per token its document
    frequency (``df``), corpus frequency (``cf``) and smallest posting
    id (``min_doc``) — the TF-IDF foundation."""
    return _token_df_stats(ds, text_col, id_col, cheap_row_count(ds))


def _token_df_stats(ds, text_col: str, id_col: str, n_rows: int | None):
    """``token_df_stats`` with its exchange sized from a caller's count."""

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

    return hash_bucketed_group_agg(
        ds.map_batches(partial, batch_format="pyarrow"), ["token"],
        {"df": ("df_part", "sum"), "cf": ("cf_part", "sum"),
         "min_doc": ("min_doc", "min")}, n_rows=n_rows)


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

    def per_batch(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False)
        pairs = _token_doc_pairs(b, text_col, id_col)
        tf = (pairs.groupby(["doc", "token"], sort=False)
              .size().reset_index(name="c"))
        mt = (tf.groupby("doc", sort=False)["c"]
              .agg(n_tokens="sum", max_tf="max").reset_index())

        _, big, row = token_bigrams(b[text_col])
        if len(row):
            bdf = pd.DataFrame({"doc": ids[row], "bigram": big.to_pandas()})
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
    joined with that term's global document frequency: each batch
    resolves its own documents' top terms locally (a doc lives in one
    batch), and one distributed equi-join (``relational.hash_join``) on
    the term attaches ``token_df_stats``' df. Nothing vocabulary-sized
    reaches the driver."""
    n_rows = cheap_row_count(ds)

    def dominant(b: pa.Table) -> pa.Table:
        pairs = _token_doc_pairs(b, text_col, id_col) \
            .rename(columns={"token": "term", "doc": id_col})
        tf = (pairs.groupby([id_col, "term"], sort=False)
              .size().reset_index(name="tf"))
        top = (tf.sort_values([id_col, "tf", "term"],
                              ascending=[True, False, True],
                              kind="mergesort")
               .drop_duplicates(id_col))
        return pa.table({
            id_col: pa.array(top[id_col].to_numpy().astype(np.int64)),
            "term": pa.array(top["term"], type=pa.string()),
            "tf": pa.array(top["tf"].to_numpy().astype(np.int64))})

    dfreq = _token_df_stats(ds, text_col, id_col, n_rows) \
        .rename_columns({"token": "term"})
    return hash_join(ds.map_batches(dominant, batch_format="pyarrow"),
                     dfreq, "term", [id_col, "tf"], ["df"], n_rows=n_rows,
                     types={id_col: pa.int64(), "term": pa.string(),
                            "tf": pa.int64(), "df": pa.int64()}) \
        .select_columns([id_col, "term", "tf", "df"])


def regex_scrub_stats(ds, text_col: str, key: str, pattern: str,
                      replacement: str = "<PII>"):
    """Redaction audit per key: docs touched, total matches, exact
    post-scrub character count. Vectorized Arrow RE2 kernels
    (count_substring_regex / replace_substring_regex) — reproducible by
    SQL regexp_extract_all / regexp_replace (RE2 on both sides)."""

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

    return hash_bucketed_group_agg(
        ds.map_batches(scrub, batch_format="pyarrow"), [key],
        {"n_docs": (key, "count"), "docs_touched": ("touched", "sum"),
         "n_redactions": ("n_hits", "sum"),
         "chars_after_scrub": ("chars_after", "sum")},
        n_rows=cheap_row_count(ds))


def scrub_text(ds, text_col: str, id_col: str, pattern: str,
               replacement: str = "<PII>"):
    """The redaction rewrite itself: (id, scrubbed text, n_redactions)
    per row — the streaming map stage a real pipeline wires before its
    training-shard sink."""

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
    from ..functions.hashing import hash64

    ftoks, doc_idx = split_tokens(texts)
    n_docs = len(texts)
    flens = np.bincount(doc_idx, minlength=n_docs)
    m = len(ftoks)
    if m < n:
        empty = (np.empty(0, dtype=np.uint64),
                 np.empty(0, dtype=np.int64))
        if with_positions:
            return (*empty, np.empty(0, dtype=np.int64), flens)
        return empty
    shifted = [ftoks.slice(j, m - n + 1) for j in range(n)]
    grams = pc.binary_join_element_wise(*shifted, " ")
    # drop grams straddling a document boundary
    starts = np.concatenate(([0], np.cumsum(flens)))[:-1]
    doc_of = doc_idx[:m - n + 1]
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

    return hash_bucketed_group_agg(
        ds.map_batches(audit, batch_format="pyarrow"), [key],
        {"n_docs": (key, "count"),
         "n_contaminated": ("contaminated", "sum")},
        n_rows=cheap_row_count(ds))


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
    (the exchange's ``project``) combine first, so only
    value-DOMAIN-sized integer rows ride the shuffle; each bucket folds
    exact int64 sums for all its keys with one ``_key_runs`` sort.

    Output: key, n_rows, n_with_field, n_distinct, sum_v, min_v, max_v.
    """
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
        g = (df.groupby([key, "v", "have"], as_index=False, sort=False,
                        dropna=False)
             .size().rename(columns={"size": "partial"}))
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        # per key: the rows without the field, then the values ascending
        k = g[key].to_numpy()
        have = g["have"].to_numpy(dtype=bool)
        v = g["v"].to_numpy(dtype=np.int64)
        order, starts, runs = _key_runs(k, have, v)
        have, v = have[order], v[order]
        cnt = g["partial"].to_numpy(dtype=np.int64)[order]
        hc = np.where(have, cnt, 0)
        first = np.zeros(len(v), dtype=bool)
        first[starts] = True
        first[1:] |= (v[1:] != v[:-1]) | ~have[:-1]
        n_have = np.add.reduceat(have.astype(np.int64), starts)
        last = starts + runs - 1
        return pd.DataFrame({
            key: k[order][starts],
            "n_rows": np.add.reduceat(cnt, starts),
            "n_with_field": np.add.reduceat(hc, starts),
            "n_distinct": np.add.reduceat((have & first).astype(np.int64),
                                          starts),
            "sum_v": np.add.reduceat(v * hc, starts),
            "min_v": np.where(n_have > 0,
                              v[np.minimum(last + 1 - n_have, last)], 0),
            "max_v": np.where(n_have > 0, v[last], 0)})

    return bucketed_map_groups(ds, [key], fold, project=partial,
                               n_rows=cheap_row_count(ds))


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
    def flags(b: pa.Table) -> pa.Table:
        t = pd.Series(b[text_col].to_pylist()).fillna("")
        n_chars = t.str.len().to_numpy(dtype=np.int64)
        n_tok = token_count(t)
        n_alpha = t.str.count(r"[A-Za-z]").to_numpy(dtype=np.int64)
        n_digit = t.str.count(r"[0-9]").to_numpy(dtype=np.int64)
        ok_len = (n_tok >= min_tok) & (n_tok <= max_tok)
        ok_mwl = (3 * n_tok <= n_chars) & (n_chars <= 10 * n_tok)
        ok_alpha = 5 * n_alpha >= 3 * n_chars
        ok_digit = 5 * n_digit <= n_chars
        return pa.table({
            key: b[key],
            "fail_len": (~ok_len).astype(np.int64),
            "fail_mwl": (~ok_mwl).astype(np.int64),
            "fail_alpha": (~ok_alpha).astype(np.int64),
            "fail_digit": (~ok_digit).astype(np.int64),
            "pass_all": (ok_len & ok_mwl & ok_alpha
                         & ok_digit).astype(np.int64)})

    return hash_bucketed_group_agg(
        ds.map_batches(flags, batch_format="pyarrow"), [key],
        {"n_docs": (key, "count"),
         **{c: (c, "sum") for c in ("fail_len", "fail_mwl", "fail_alpha",
                                    "fail_digit", "pass_all")}},
        n_rows=cheap_row_count(ds))


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
    n_rows = cheap_row_count(ds)
    top_set = {r["token"] for r in
               _token_topk(ds, text_col, k, "cnt", n_rows).take(k)}

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

    return _summed(ds, partial, ["token_a", "token_b"], "n_docs_both",
                   n_rows)


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
    final head-k (the keyed exchange's one-bucket case).

    Determinism: idf = ln((N - df + 0.5)/(df + 0.5) + 1) and the score
    expression are evaluated in a fixed parenthesization replicated by
    the SQL twin; ln is bit-identical across both engines (shared
    libm), and the per-term scores are added in fixed term order, so
    the final doubles hash-match.
    """
    terms = list(terms)

    def doc_feats(bt: pa.Table) -> pd.DataFrame:
        toks, row = split_tokens(bt[text_col])
        n_docs = bt.num_rows
        out = {"dl": np.bincount(row, minlength=n_docs).astype(np.int64)}
        ft = toks.to_numpy(zero_copy_only=False)
        for t in terms:
            out["tf_" + t] = np.bincount(
                row[ft == t], minlength=n_docs).astype(np.int64)
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

    def score(bt: pa.Table) -> pd.DataFrame:
        f = doc_feats(bt)
        dl = f["dl"].to_numpy(dtype=np.float64)
        s = np.zeros(len(f), dtype=np.float64)
        for t in terms:  # fixed term order => fixed addition order
            tf = f["tf_" + t].to_numpy(dtype=np.float64)
            s = s + idf[t] * ((tf * (k1 + 1.0))
                              / (tf + k1 * ((1.0 - b) + b * (dl / avgdl))))
        return f.assign(bm25=s)[[id_col, "dl", "bm25"]]

    return _top_k(ds, {"bm25": False, id_col: True}, topk, project=score)


def lang_token_cosine(ds, text_col: str, key: str, k: int = 20):
    """Pairwise cosine similarity between per-key token-frequency
    vectors restricted to the corpus top-k vocabulary — "how similar do
    two languages / sources look through their word histograms".

    The vocabulary is broadcast (count desc, token asc tie-break);
    per-batch (key, token) integer counts combine before the exchange,
    so only keys×k rows ever shuffle, and the pair fold runs on that
    KB-sized table with exact integer dot products — the only doubles
    are the final dot/(sqrt*sqrt), fixed order, bit-identical to the
    HUGEINT SQL twin. Pairs with no shared vocabulary get cosine 0; a
    null key pairs with no key (SQL's ``a.key < b.key`` is NULL).
    """
    n_rows = cheap_row_count(ds)
    top_set = {r["token"] for r in
               _token_topk(ds, text_col, k, "cnt", n_rows).take(k)}
    vecs = _key_token_counts(ds, text_col, key, n_rows,
                             vocab=top_set).to_pandas()  # keys×k rows

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


def _key_token_counts(ds, text_col: str, key: str, n_rows: int | None,
                      vocab=None):
    """Exact per-(key, token) corpus counts ``cnt`` (only the tokens in
    ``vocab`` when given): per-batch split+count partials (same
    one-doc-one-batch contract as token_df_stats) summed on the keyed
    exchange. The shared front end of lang_token_cosine, vocab_richness,
    token_entropy_stats and zipf_slope_stats."""

    def partial(b: pa.Table) -> pa.Table:
        toks, row = split_tokens(b[text_col])
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False)[row],
                           "token": toks.to_numpy(zero_copy_only=False)})
        if vocab is not None:
            df = df[df["token"].isin(vocab)]
        g = df.groupby([key, "token"], as_index=False, sort=False,
                       dropna=False).size()
        g = g.rename(columns={"size": "partial"})
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    return _summed(ds, partial, [key, "token"], "cnt", n_rows)


def _vocab_fold(ds, text_col: str, key: str, fold):
    """``fold`` over the exact per-(key, token) counts, every key's rows
    in one call and many keys per call."""
    n_rows = cheap_row_count(ds)
    return bucketed_map_groups(_key_token_counts(ds, text_col, key, n_rows),
                               [key], fold, n_rows=n_rows)


def vocab_richness(ds, text_col: str, key: str):
    """Vocabulary-richness report per key: corpus token count N,
    vocabulary size V, hapax count V1 (tokens seen exactly once) and
    Yule's K = 10^4 · (Σ_m m²·V_m − N) / N² over the frequency
    spectrum — the classic lexical-diversity audit of a text corpus.

    Scale shape: per-batch (key, token) count partials combine
    (vocabulary-sized exchange, same contract as token_df_stats —
    a doc lives in one batch so partials are exact), then one fold per
    bucket of keys over their count rows: Σ m²·V_m = Σ cnt² in Python
    integers. K is one fixed-order expression over exact integers —
    bit-identical to the SQL twin.
    """

    def spectrum(g: pd.DataFrame) -> pd.DataFrame:
        k = g[key].to_numpy()
        order, starts, runs = _key_runs(k)
        cnt = g["cnt"].to_numpy(dtype=np.int64)[order]
        n = np.add.reduceat(cnt, starts)
        m2 = np.add.reduceat(cnt.astype(object) ** 2, starts)
        nf = n.astype(np.float64)
        return pd.DataFrame({
            key: k[order][starts],
            "n_tokens": n,
            "n_vocab": runs,
            "n_hapax": np.add.reduceat((cnt == 1).astype(np.int64), starts),
            "yule_k": 10000.0 * (m2 - n).astype(np.float64) / (nf * nf)})

    return _vocab_fold(ds, text_col, key, spectrum)


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
    Scale shape: vocabulary-sized exchange, then a fold per bucket of
    keys over the domain-sized count table (same as vocab_richness)."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        k = g[key].to_numpy()
        order, starts, runs = _key_runs(k, g["token"].to_numpy())
        cnt = g["cnt"].to_numpy(dtype=np.int64)[order]
        c = cnt.astype(np.float64)
        s = _seq_sums(c * _ln(c), runs)
        n = np.add.reduceat(cnt, starts)
        return pd.DataFrame({
            key: k[order][starts],
            "n_tokens": n,
            "n_vocab": runs,
            "sum_clnc": s,
            "entropy": _ln(n) - s / n.astype(np.float64)})

    return _vocab_fold(ds, text_col, key, fold)


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

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        keys = g[key].to_numpy()
        cnt = g["cnt"].to_numpy(dtype=np.int64)
        order, starts, runs = _key_runs(keys, -cnt, g["token"].to_numpy())
        rank = np.arange(1, len(order) + 1) - np.repeat(starts, runs)
        top = rank <= k
        n_top = np.minimum(runs, k)
        slope, intercept = _ols(_ln(rank[top]), _ln(cnt[order][top]), n_top)
        return pd.DataFrame({
            key: keys[order][starts],
            "n_top": n_top,
            "zipf_slope": slope,
            "zipf_intercept": intercept})

    return _vocab_fold(ds, text_col, key, fold)


def heaps_law_stats(ds, text_col: str, id_col: str, key: str,
                    checkpoints: int = 8):
    """Heaps'-law vocabulary-growth fit per key: V(N) ≈ K·N^β, the
    classic sublinear vocabulary-vs-corpus-size law (β ≈ 0.4–0.6 for
    natural text; β near 1 flags random/spam content, β near 0 flags
    templates). The document order is pinned to ``id_col`` ascending so
    the growth curve is a pure function of the data, not of execution.

    Distribution shape — the sequential "scan docs, count new words"
    definition is re-expressed as three exchanges: (a) per (key, token)
    the FIRST document id (a groupby-min — a token enters the vocabulary
    exactly at its min doc); (b) one (key, doc) sum over the union of
    the new-token rows of (a) and the token rows of the corpus, giving
    each doc's new-token and total-token counts; (c) a per-key fold over
    that doc-sized table, many keys per call: the cumulative curves,
    checkpoint selection (positions (i·n_docs)//C, i = 1..C, deduped)
    and the OLS fold of ln V on ln N. Docs whose text has no non-empty
    token carry no rows.

    Exactness contract: all counts exact int64; ln inputs are identical
    integers on both sides; the four OLS moment sums fold SEQUENTIALLY
    IN CHECKPOINT ORDER and the slope/intercept use the same fixed
    parenthesization as zipf_slope_stats, replayed by the SQL twin's
    ordered SUMs."""
    n_rows = cheap_row_count(ds)

    def tok_pairs(b: pa.Table) -> pa.Table:
        toks, row = split_tokens(b[text_col])
        at = pa.array(row)
        return pa.table({key: b[key].take(at), "doc": b[id_col].take(at),
                         "token": toks})

    def counted(new: bool):
        def fn(b: pa.Table) -> pa.Table:
            one = pa.array(np.ones(b.num_rows, dtype=np.int64))
            zero = pa.array(np.zeros(b.num_rows, dtype=np.int64))
            return pa.table({key: b[key], "doc": b["doc"],
                             "v_new": one if new else zero,
                             "nt": zero if new else one})
        return fn

    pairs = ds.map_batches(tok_pairs, batch_format="pyarrow")
    first = hash_bucketed_group_agg(pairs, [key, "token"],
                                    {"doc": ("doc", "min")}, n_rows=n_rows)
    per_doc = hash_bucketed_group_agg(
        first.map_batches(counted(True), batch_format="pyarrow")
        .union(pairs.map_batches(counted(False), batch_format="pyarrow")),
        [key, "doc"], {"v_new": ("v_new", "sum"), "nt": ("nt", "sum")},
        n_rows=n_rows)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        keys = g[key].to_numpy()
        order, starts, nd = _key_runs(keys, g["doc"].to_numpy())
        cum_n, cum_v = (_run_cumsum(g[c].to_numpy(dtype=np.int64)[order],
                                    starts, nd) for c in ("nt", "v_new"))
        # checkpoint i of a key's nd docs: max(1, (i * nd) // C), deduped
        pos = np.maximum(1, np.arange(1, checkpoints + 1)
                         * nd[:, None] // checkpoints)
        keep = np.diff(pos, axis=1, prepend=0) != 0
        at = (starts[:, None] + pos - 1)[keep]
        n_points = keep.sum(axis=1)
        beta, log_k = _ols(_ln(cum_n[at]), _ln(cum_v[at]), n_points)
        last = starts + nd - 1
        return pd.DataFrame({
            key: keys[order][starts],
            "n_docs": nd,
            "n_tokens": cum_n[last],
            "n_vocab": cum_v[last],
            "n_points": n_points,
            "heaps_beta": beta,
            "heaps_log_k": log_k})

    return bucketed_map_groups(per_doc, [key], fold, n_rows=n_rows)


def _span_window_fn(text_col: str, doc_id_col: str, n: int):
    """Per-batch (gram_hash, doc, pos) window rows — the shared
    emission stage of the ExactSubstr pipelines (stats + rewrite twins
    must stay in lockstep; see the token-conservation test)."""

    def windows(b: pa.Table) -> pd.DataFrame:
        h, doc_of, pos, _ = _word_gram_hashes(b[text_col], n,
                                              with_positions=True)
        ids = b[doc_id_col].to_numpy(zero_copy_only=False)
        gh = h.view(np.int64)
        gid = ids[doc_of] if gh.size else np.empty(0, dtype=np.int64)
        return pd.DataFrame({"gram": gh, "doc": gid, "pos": pos})

    return windows


def _dup_windows(g: pd.DataFrame) -> pd.DataFrame:
    """One gram bucket's windows whose gram occurs in >= 2 distinct docs,
    as (doc, pos) rows."""
    nd = g.groupby("gram", sort=False)["doc"].transform("nunique")
    return g.loc[nd.to_numpy() >= 2, ["doc", "pos"]]


def _dup_span_fold(ds, text_col: str, doc_id_col: str, n: int, fn,
                   n_rows: int | None):
    """The ExactSubstr twins' two exchanges: the window map keyed by gram
    keeps the duplicated windows, then ``fn`` folds them keyed by doc —
    every dup window of a doc in one call, many docs per call."""
    grams = _exploded(n_rows)
    dup = bucketed_map_groups(ds, ["gram"], _dup_windows,
                              project=_span_window_fn(text_col, doc_id_col,
                                                      n),
                              n_rows=grams)
    return bucketed_map_groups(dup, ["doc"], fn, n_rows=grams)


def _nonempty_token_counts(b: pa.Table, text_col: str) -> np.ndarray:
    """Per-row non-empty token counts — split/mask/bincount only, no
    gram construction (cheap second corpus pass)."""
    return np.bincount(split_tokens(b[text_col])[1], minlength=b.num_rows)


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

    Topology (100-TB path): the exchange's ``project`` emits per-batch
    pre-combined (gram_hash, doc_id, cnt) rows — O(total tokens)
    fixed-width rows, the same asymptotic cost a distributed suffix array
    pays, no text on the wide exchange — keyed by gram, and each bucket
    of grams folds vectorized pandas groupbys: per-gram distinct-doc
    counts pick the duplicated grams, and the SAME fold re-aggregates
    per-doc total/dup window partials, so no second pass over the
    corpus. Per-doc partials combine through hash_bucketed_group_agg,
    re-join lang via the distributed equi-join, and the final per-lang
    rollup is KB-sized. ``n_rows`` (default: the source's metadata count)
    sizes every exchange, times ``_TOKEN_FANOUT`` for the window rows.

    Gram identity is the 64-bit hash of the literal gram string (same
    convention and collision analysis as dedup_exact); a SQL oracle
    reproduces the gram set via string_split + list slicing.
    """
    if n_rows is None:
        n_rows = cheap_row_count(ds)
    grams = _exploded(n_rows)

    def gram_pairs(b: pa.Table) -> pd.DataFrame:
        h, doc_of = _word_gram_hashes(b[text_col], n)
        ids = b[doc_id_col].to_numpy(zero_copy_only=False)
        gid = ids[doc_of]
        gh = h.view(np.int64)
        if gh.size == 0:
            return pd.DataFrame({
                "gram": pd.Series([], dtype=np.int64),
                "doc": pd.Series([], dtype=np.int64),
                "cnt": pd.Series([], dtype=np.int64)})
        order = np.lexsort((gid, gh))
        gh, gid = gh[order], gid[order]
        first = np.empty(gh.size, dtype=bool)
        first[0] = True
        first[1:] = (gh[1:] != gh[:-1]) | (gid[1:] != gid[:-1])
        starts = np.flatnonzero(first)
        cnt = np.diff(np.append(starts, gh.size)).astype(np.int64)
        return pd.DataFrame({"gram": gh[starts], "doc": gid[starts],
                             "cnt": cnt})

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
        bucketed_map_groups(ds, ["gram"], fold_bucket, project=gram_pairs,
                            n_rows=grams),
        ["doc"],
        {"total_windows": ("total_w", "sum"),
         "dup_windows": ("dup_w", "sum")},
        # one row per (doc, gram bucket touched), up to ~64x the docs
        n_rows=grams)

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

    return hash_bucketed_group_agg(
        joined.map_batches(flag, batch_format="pyarrow"), [key],
        {"n_docs": (key, "count"),
         "total_windows": ("total_windows", "sum"),
         "dup_windows": ("dup_windows", "sum"),
         "docs_with_dup": ("has_dup", "sum")}, n_rows=n_rows)


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

    Topology: the window map (gram_hash, doc, pos) is the ``project`` of
    an exchange keyed BY GRAM; each gram bucket finds its duplicated
    grams (distinct-doc >= 2) and forwards only the dup windows'
    (doc, pos) rows to an exchange keyed BY DOC, so the second fold sees
    every dup window of a doc together and computes the interval-union
    coverage vectorized (sorted positions, per-gap min(n, delta) sweep).
    A second cheap map pass provides per-doc token totals + the lang
    label (one row per doc); the distributed LEFT equi-join fills
    docs with no duplicated span. Nothing wider than 8-byte-column rows
    ever shuffles, and no stage holds more than one bucket.
    """
    if n_rows is None:
        n_rows = cheap_row_count(ds)

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

    dropped = _dup_span_fold(ds, text_col, doc_id_col, n, coverage, n_rows)

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

    return hash_bucketed_group_agg(
        per_doc.map_batches(flag, batch_format="pandas"), [key],
        {"n_docs": (key, "count"), "tokens_total": ("n_tokens", "sum"),
         "tokens_dropped": ("dropped", "sum"),
         "docs_touched": ("touched", "sum")}, n_rows=n_rows)


def drop_duplicate_spans_text(ds, text_col: str = "text",
                              doc_id_col: str = "doc_id", n: int = 10,
                              n_rows: int | None = None):
    """The rewrite form of ExactSubstr removal (Lee et al., ACL 2022):
    returns ``(doc_id, text, n_dropped)`` with every token covered by a
    duplicated n-token window removed (single-space rejoin of the
    surviving tokens — the same tokenization convention as the stats
    twin, so ``drop_duplicate_span_stats``'s ``tokens_dropped`` equals
    the sum of ``n_dropped`` here).

    Topology: the same gram-keyed dup detection as the stats twin; the
    doc-keyed fold packs each doc's dup-window positions into ONE
    compact comma-separated string (a join-safe scalar), LEFT-joined
    back to the corpus by doc id, and the rewrite touches only the
    joined rows (untouched docs pass through without re-tokenizing).
    """
    if n_rows is None:
        n_rows = cheap_row_count(ds)

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

    dup_pos = _dup_span_fold(ds, text_col, doc_id_col, n, pack_positions,
                             n_rows)

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
    their sum per (bucket, class) on the keyed exchange is the complete
    sufficient statistics (≤ n_buckets × classes rows — KB), which the
    driver pulls once and turns into a broadcast log-likelihood matrix
    ``logp[b, c] = ln((cnt[b,c]+a) / (tot[c]+a*B))`` plus log-priors.
    Predict (self-evaluation over the same corpus): per doc and class,
    score = log-prior + sum over tokens of logp[bucket(token), c] — an
    order-deterministic per-class bincount fold — and argmax with a
    deterministic smallest-class-name tie-break. Output: the confusion
    matrix ``(true class, predicted class, n_docs)`` in exact int64.
    Documents without a class (a null ``key``) neither train nor count.

    Rows-only for the driver (the 64-bit feature hash has no SQL twin);
    the pytest twin replays training + prediction in pure Python.
    """
    from ..functions.hashing import hash64

    B = int(n_buckets)

    def _buckets(b: pa.Table):
        toks, doc_of = split_tokens(b[text_col])
        bkt = (hash64(toks.to_numpy(zero_copy_only=False))
               % np.uint64(B)).astype(np.int64)
        return bkt, doc_of, b.num_rows

    def train_partials(b: pa.Table) -> pd.DataFrame:
        b = b.filter(pc.is_valid(b[key]))  # no label, nothing to learn
        bkt, doc_of, _ = _buckets(b)
        cls = b[key].to_pandas().to_numpy()[doc_of]
        df = pd.DataFrame({"bucket": bkt, "cls": cls})
        g = df.groupby(["bucket", "cls"], sort=False).size() \
            .reset_index(name="partial")
        g["partial"] = g["partial"].astype(np.int64)
        # per-batch class doc counts ride along for the priors
        ids = pd.DataFrame({
            "bucket": np.full(b.num_rows, -1, dtype=np.int64),
            "cls": b[key].to_pandas(),
            "partial": np.ones(b.num_rows, dtype=np.int64)})
        return pd.concat([g, ids], ignore_index=True)

    # <= (B+1) * classes rows — KB by design: one bucket
    stats = hash_bucketed_group_agg(
        ds.map_batches(train_partials, batch_format="pyarrow"),
        ["bucket", "cls"], {"cnt": ("partial", "sum")}, coarse=1).to_pandas()
    classes = sorted(stats["cls"].unique())
    L = len(classes)
    bucket = stats["bucket"].to_numpy()
    cls = stats["cls"].map({c: i for i, c in enumerate(classes)}).to_numpy()
    n = stats["cnt"].to_numpy()
    prior = bucket < 0
    cnt = np.zeros((B, L), dtype=np.int64)
    cnt[bucket[~prior], cls[~prior]] = n[~prior]
    docs_per_cls = np.zeros(L, dtype=np.int64)
    docs_per_cls[cls[prior]] = n[prior]
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
            .reset_index(name="partial")
        out["partial"] = out["partial"].astype(np.int64)
        return out

    # the confusion matrix has classes² rows: one bucket
    return hash_bucketed_group_agg(
        ds.map_batches(predict, batch_format="pyarrow"),
        ["true_cls", "pred_cls"], {"n_docs": ("partial", "sum")}, coarse=1)


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
    combiner partials (``functions.text.token_bigrams``, the bigram_topk
    extraction) and unigram partials; bigram totals derive from the
    aggregated (lang, bigram) table itself (a vocabulary-sized second
    exchange, never the corpus); the unigram table joins in by headword
    through the engine's own hash_join. No raw text on any exchange
    after the first combine.

    Returns (lang, n_bigrams, surprise_sum) — higher mean surprise =
    less template-like text.
    """
    n_rows = cheap_row_count(ds)
    bigrams = _exploded(n_rows)

    def bigram_partial(b: pa.Table) -> pa.Table:
        w1, big, row = token_bigrams(b[text_col])
        df = pd.DataFrame({
            "lang": b[lang_col].to_numpy(zero_copy_only=False)[row],
            "w1": w1.to_numpy(zero_copy_only=False),
            "bigram": big.to_numpy(zero_copy_only=False)})
        g = (df.groupby(["lang", "w1", "bigram"], sort=False, dropna=False)
             .size().reset_index(name="partial"))
        return pa.table({
            "lang": pa.array(g["lang"], type=pa.string()),
            "w1": pa.array(g["w1"], type=pa.string()),
            "bigram": pa.array(g["bigram"], type=pa.string()),
            "partial": pa.array(g["partial"].to_numpy(np.int64))})

    A = _summed(ds, bigram_partial, ["lang", "w1", "bigram"], "n_lw",
                bigrams)
    c12 = hash_bucketed_group_agg(A, ["bigram"], {"c12": ("n_lw", "sum")},
                                  n_rows=bigrams)
    c1 = _vocab_counts(ds, text_col, "w1", "c1", n_rows)
    c1 = c1.materialize()                   # reused: count + join side
    v_size = c1.count()

    j1 = hash_join(A, c12, on="bigram", left_cols=["lang", "w1",
                                                   "n_lw"],
                   right_cols=["c12"], n_rows=bigrams,
                   types={"bigram": pa.string(), "lang": pa.string(),
                          "w1": pa.string(), "n_lw": pa.int64(),
                          "c12": pa.int64()})
    j2 = hash_join(j1, c1, on="w1",
                   left_cols=["lang", "n_lw", "c12"],
                   right_cols=["c1"], n_rows=bigrams,
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

    return hash_bucketed_group_agg(
        j2.map_batches(score, batch_format="pyarrow"), ["lang"],
        {"n_bigrams": ("n_bigrams", "sum"),
         "surprise_sum": ("surprise", "sum")}, n_rows=n_rows)
