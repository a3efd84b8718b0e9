"""Heavy hitters: count-min sketch + per-partition candidate top-k.

Topology (SURVEY.md §7 "shuffles and their keys"):

1. ``map_batches``: per batch emit (a) a serialized CMS partial and (b) the
   batch's exact top-C candidate keys with their in-batch counts.
2. The CMS partials tree-merge (elementwise add) through the standard
   one-task fold; candidate rows aggregate by key with an exact Sum —
   both shuffles carry tiny pre-aggregated rows only.
3. Score the unioned candidate set against the merged global CMS; emit the
   top-k by estimated count with a deterministic (count desc, key asc)
   tie-break.

Guarantee: any key with true frequency > eps*N + (the smallest in-batch
count that missed every batch top-C) is found; CMS estimates never
underestimate, so reported counts are upper bounds within eps*N.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.countmin import CountMin
from ..state.protocol import SketchSpec
from ..stages.aggregate import sketch_by_key


def cms_spec(width: int = 2048, depth: int = 5) -> SketchSpec:
    return SketchSpec(
        name="countmin",
        factory=lambda: CountMin(width, depth),
        from_bytes=CountMin.from_bytes,
        summarize=lambda sk: {"total_weight": sk.n},
    )


def heavy_hitters(ds, key_col: str, k: int = 10,
                  candidates_per_batch: int = 64,
                  width: int = 2048, depth: int = 5,
                  batch_size: int | None = None):
    """Top-k most frequent values of ``key_col``.

    Returns a Dataset of rows (key_col, est_count: int64) of length <= k,
    sorted by (est_count desc, key asc).
    """
    from ..stages.aggregate import hash_bucketed_group_agg
    from ..stages.partitioning import cheap_row_count

    spec = cms_spec(width, depth)
    n_rows = cheap_row_count(ds)

    # 1a. CMS partials via the generic sketch topology
    cms_ds = sketch_by_key(ds, spec, key_col, None,
                           batch_size=batch_size)

    # 1b. per-batch candidate top-C with in-batch counts
    def candidates(batch: pa.Table) -> pa.Table:
        arr = batch[key_col].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(arr, return_counts=True)
        if len(uniq) > candidates_per_batch:
            top = np.argsort(counts, kind="stable")[::-1][:candidates_per_batch]
            uniq, counts = uniq[top], counts[top]
        return pa.table({key_col: pa.array(uniq),
                         "batch_count": pa.array(counts.astype(np.int64))})

    # one group per distinct candidate key (tens of millions at corpus
    # scale) — fold with the hash-bucketed vectorized combine. Candidate
    # rows <= candidates_per_batch per block; estimate blocks at ~128k
    # rows each (over-sizing buckets here would split the fold into
    # millions of tiny map_groups tasks, the very cost being avoided).
    cand_rows = (None if n_rows is None
                 else max(n_rows // 131072, 1) * candidates_per_batch)
    cand = hash_bucketed_group_agg(
        ds.map_batches(candidates, batch_format="pyarrow",
                       batch_size=batch_size),
        [key_col], {"seen_count": ("batch_count", "sum")},
        n_rows=cand_rows)

    # 2-3. score candidates against the merged global CMS inside Ray (the
    # candidate set can be large at corpus scale — it never lands on the
    # driver); the ~width*depth*8-byte CMS ships once with the map
    # function
    cms = CountMin.from_bytes(cms_ds.take(1)[0]["sketch"])

    def scorer(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        est = cms.estimate(keys)
        return pa.table({key_col: pa.array(keys),
                         "est_count": pa.array(est.astype(np.int64))})

    scored = cand.map_batches(scorer, batch_format="pyarrow")
    return (scored.sort(["est_count", key_col], descending=[True, False])
            .limit(k))


def heavy_hitters_mg(ds, key_col: str, k: int = 10, capacity: int = 256,
                     batch_size: int | None = None):
    """Top-k most frequent values of ``key_col`` via a Misra-Gries /
    SpaceSaving summary (state/mg.py) — the deterministic complement of
    the CMS path: the summary CARRIES its own candidate set, so there is
    no separate candidate stream or scoring pass, and the error bound
    (``true - est <= max_undercount <= n/(capacity+1)``) is deterministic
    and survives any merge tree (Agarwal et al.,
    "Mergeable Summaries", PODS 2012 §3).

    One scan, one KB-sized-row shuffle, one counter table out. Returns
    <= k rows ``(key_col, est_count, max_undercount)`` sorted by
    (est desc, key asc). With distinct keys <= capacity the counts are
    exact and ``max_undercount == 0``.
    """
    import pandas as pd

    from ..state.mg import MisraGries, mg_spec

    spec = mg_spec(capacity)
    merged = sketch_by_key(ds, spec, key_col, None, batch_size=batch_size)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        sk = MisraGries.from_bytes(df["sketch"].iloc[0])
        top = sk.topk(k)
        return pd.DataFrame({
            key_col: [t[0] for t in top],
            "est_count": np.array([t[1] for t in top], dtype=np.int64),
            "max_undercount": np.full(len(top), sk.max_undercount,
                                      dtype=np.int64),
        })

    # the merged dataset is ONE row; finalize is a trivial batch map
    return merged.map_batches(finalize, batch_format="pandas")


def join_size_estimate(ds_a, ds_b, value_col: str, width: int = 2048,
                       depth: int = 8, batch_size: int | None = None):
    """Equi-join size estimation via count-min inner product (Cormode,
    Muthukrishnan 2005 §4.2) — the query-optimizer cardinality primitive —
    gated against the EXACT join size computed in the same pass topology.

    Three tiny-result pipelines, no fact-scale driver materialization:

    * two global CMS sketches (one per input) through the standard
      partial -> canonical merge (KB rows on the exchange);
    * the exact ``sum_k f_a(k) * f_b(k)``: per-batch ``np.unique``
      combiners emit (key, count) rows, one union + groupby co-partitions
      both sides (shuffle carries distinct keys per batch, not rows),
      per-key products fold to one int64 per block and then one scalar.

    Returns a ONE-ROW pyarrow Table ``(exact_pairs, within_bound)`` where
    ``within_bound`` asserts ``exact <= est <= exact + eps * n_a * n_b``
    (eps = e/width, holds with prob 1 - e^-depth) — a sketch regression
    flips the flag and fails the value hash."""
    import math

    from ray.data.aggregate import Sum

    from ..state.countmin import CountMin

    spec = cms_spec(width, depth)

    # ONE keyed sketch pass builds both sketches (side = group key)
    # instead of two full pipeline executions over the inputs.
    def tag(side: str):
        def fn(b: pa.Table) -> pa.Table:
            return pa.table({
                value_col: b[value_col],
                "side": pa.array(np.repeat(side, len(b)))})
        return fn

    tagged_union = (ds_a.map_batches(tag("a"), batch_format="pyarrow")
                    .union(ds_b.map_batches(tag("b"),
                                            batch_format="pyarrow")))
    sketches = {r["key"]: r["sketch"]
                for r in sketch_by_key(tagged_union, spec, value_col,
                                       "side",
                                       batch_size=batch_size).take_all()}

    def count_fn(a_side: bool):
        def fn(batch: pa.Table) -> pa.Table:
            vals = batch[value_col].to_numpy(zero_copy_only=False)
            keys, cnt = np.unique(vals, return_counts=True)
            cnt = cnt.astype(np.int64)
            z = np.zeros(len(keys), dtype=np.int64)
            return pa.table({"k": pa.array(keys),
                             "ca": pa.array(cnt if a_side else z),
                             "cb": pa.array(z if a_side else cnt)})
        return fn

    per_key = (ds_a.map_batches(count_fn(True), batch_format="pyarrow")
               .union(ds_b.map_batches(count_fn(False),
                                       batch_format="pyarrow"))
               .groupby("k")
               .aggregate(Sum("ca", alias_name="ca"),
                          Sum("cb", alias_name="cb")))

    def prod_partial(batch: pa.Table) -> pa.Table:
        p = (batch["ca"].to_numpy(zero_copy_only=False)
             * batch["cb"].to_numpy(zero_copy_only=False))
        return pa.table({"p": pa.array([int(p.sum())], type=pa.int64())})

    exact = int(per_key.map_batches(prod_partial, batch_format="pyarrow")
                .sum("p") or 0)

    cm_a = CountMin.from_bytes(sketches["a"]) if "a" in sketches \
        else spec.factory()
    cm_b = CountMin.from_bytes(sketches["b"]) if "b" in sketches \
        else spec.factory()
    est = cm_a.inner_product(cm_b)
    slack = int(math.ceil(cm_a.epsilon * cm_a.n * cm_b.n))
    within = bool(exact <= est <= exact + slack)
    return pa.table({
        "exact_pairs": pa.array([exact], type=pa.int64()),
        "within_bound": pa.array([within], type=pa.bool_()),
    })


def countsketch_spec(width: int = 8192, depth: int = 5) -> SketchSpec:
    """SketchSpec for the signed Count-Sketch (state/countsketch.py)."""
    from ..state.countsketch import CountSketch
    return SketchSpec(
        name="countsketch",
        factory=lambda: CountSketch(width, depth),
        from_bytes=CountSketch.from_bytes,
    )


def exact_counts_table(ds, key_col: str, batch_size: int | None = None,
                       n_rows: int | None = None):
    """Exact per-key counts as a Dataset ``(key_col, exact_count)``:
    per-batch ``np.unique`` combiners -> hash-bucketed vectorized fold
    (cost ∝ rows, not groups). Shared by the Count-Sketch gate
    pipelines; materialized by callers that scan it twice."""
    from ..stages.aggregate import hash_bucketed_group_agg
    from ..stages.partitioning import cheap_row_count

    def batch_counts(batch: pa.Table) -> pa.Table:
        uniq, counts = np.unique(
            batch[key_col].to_numpy(zero_copy_only=False),
            return_counts=True)
        return pa.table({key_col: pa.array(uniq),
                         "batch_count": pa.array(counts.astype(np.int64))})

    return hash_bucketed_group_agg(
        ds.map_batches(batch_counts, batch_format="pyarrow",
                       batch_size=batch_size),
        [key_col], {"exact_count": ("batch_count", "sum")},
        n_rows=n_rows if n_rows is not None else cheap_row_count(ds))


def fold_f2(counts) -> int:
    """Exact second moment ``sum count^2`` (bignum per-block partials,
    one int64 per block on the final fold) from an exact-counts table."""

    def f2_partial(batch: pa.Table) -> pa.Table:
        c = batch["exact_count"].to_numpy(zero_copy_only=False)
        return pa.table({"f2": pa.array(
            [int((c.astype(object) ** 2).sum())], type=pa.int64())})

    return int(counts.map_batches(f2_partial, batch_format="pyarrow")
               .sum("f2") or 0)


def heavy_hitters_unbiased(ds, key_col: str, k: int = 5,
                           width: int = 8192, depth: int = 5,
                           batch_size: int | None = None):
    """Top-k frequencies, VALUE-CHECKED, gating the UNBIASED Count-Sketch
    point estimator (Charikar et al. 2002) — the third heavy-hitter path
    next to count-min (one-sided) and Misra-Gries (deterministic).

    Exact side (hash-matches ``COUNT(*) GROUP BY`` SQL): per-batch
    ``np.unique`` combiners -> hash-bucketed vectorized fold -> exact
    per-key counts; the top-k rows by (count desc, key asc) are emitted
    as ``(key, exact_count)``. Gate: the merged global Count-Sketch's
    median-of-signed-rows estimate for each emitted key must sit within
    the paper's Lemma-4 bound ``3 * sqrt(F2_res / width)`` of the exact
    count (F2_res = second moment of the OTHER keys, computed from the
    same exact counts table), driven to near-certainty by the median
    over ``depth`` rows. A hashing/merge regression flips
    ``within_bound`` and fails the driver's hash.

    Scale: raw values never shuffle — the CS pass moves KB sketch rows,
    the exact pass moves per-batch distinct (key, count) rows. The exact
    counts table (one row per distinct key) is materialized once because
    it feeds both the F2 fold and the top-k; it is post-aggregation,
    #distinct-keys-sized, never the input.
    """
    from ..state.countsketch import CountSketch

    spec = countsketch_spec(width, depth)
    cs_ds = sketch_by_key(ds, spec, key_col, None,
                          batch_size=batch_size)
    counts = exact_counts_table(ds, key_col,
                                batch_size=batch_size).materialize()
    f2 = fold_f2(counts)
    cs = CountSketch.from_bytes(cs_ds.take(1)[0]["sketch"])

    def gate(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        exact = batch["exact_count"].to_numpy(zero_copy_only=False)
        est = cs.estimate(keys)
        f2_res = np.maximum(f2 - exact.astype(np.float64) ** 2, 0.0)
        bound = 3.0 * np.sqrt(f2_res / cs.width)
        ok = np.abs(est - exact) <= bound + 1e-9
        return pa.table({
            key_col: pa.array(keys),
            "exact_count": pa.array(exact.astype(np.int64)),
            "within_bound": pa.array(ok),
        })

    return (counts.sort(["exact_count", key_col],
                        descending=[True, False]).limit(k)
            .map_batches(gate, batch_format="pyarrow"))


def join_size_unbiased(ds_a, ds_b, value_col: str, width: int = 8192,
                       depth: int = 5, batch_size: int | None = None):
    """Equi-join size estimation via the Count-Sketch inner product —
    the UNBIASED complement of ``join_size_estimate`` (count-min always
    over-estimates; the signed AMS-style product has E[est] = exact).

    Same one-pass topology as the CM variant: one keyed sketch pass
    builds both sketches, per-batch unique-count combiners + one
    co-partitioning groupby compute the exact ``sum_k f_a(k) f_b(k)``
    AND both second moments F2(a), F2(b) in the same fold. Returns a
    ONE-ROW table ``(exact_pairs, within_bound)`` where within_bound
    asserts ``|est - exact| <= 3 * sqrt(2 * F2(a) * F2(b) / width)``
    (3-sigma Chebyshev on the per-row AMS variance bound, made
    near-certain by the median over ``depth`` rows)."""
    import math

    from ray.data.aggregate import Sum

    from ..state.countsketch import CountSketch

    spec = countsketch_spec(width, depth)

    def tag(side: str):
        def fn(b: pa.Table) -> pa.Table:
            return pa.table({
                value_col: b[value_col],
                "side": pa.array(np.repeat(side, len(b)))})
        return fn

    tagged_union = (ds_a.map_batches(tag("a"), batch_format="pyarrow")
                    .union(ds_b.map_batches(tag("b"),
                                            batch_format="pyarrow")))
    sketches = {r["key"]: r["sketch"]
                for r in sketch_by_key(tagged_union, spec, value_col,
                                       "side",
                                       batch_size=batch_size).take_all()}

    def count_fn(a_side: bool):
        def fn(batch: pa.Table) -> pa.Table:
            vals = batch[value_col].to_numpy(zero_copy_only=False)
            keys, cnt = np.unique(vals, return_counts=True)
            cnt = cnt.astype(np.int64)
            z = np.zeros(len(keys), dtype=np.int64)
            return pa.table({"k": pa.array(keys),
                             "ca": pa.array(cnt if a_side else z),
                             "cb": pa.array(z if a_side else cnt)})
        return fn

    per_key = (ds_a.map_batches(count_fn(True), batch_format="pyarrow")
               .union(ds_b.map_batches(count_fn(False),
                                       batch_format="pyarrow"))
               .groupby("k")
               .aggregate(Sum("ca", alias_name="ca"),
                          Sum("cb", alias_name="cb")))

    # exact product + both second moments folded in one partial pass
    def moments_partial(batch: pa.Table) -> pa.Table:
        ca = batch["ca"].to_numpy(zero_copy_only=False).astype(object)
        cb = batch["cb"].to_numpy(zero_copy_only=False).astype(object)
        return pa.table({"p": pa.array([int((ca * cb).sum())],
                                       type=pa.int64()),
                         "f2a": pa.array([int((ca * ca).sum())],
                                         type=pa.int64()),
                         "f2b": pa.array([int((cb * cb).sum())],
                                         type=pa.int64())})

    parts = per_key.map_batches(moments_partial,
                                batch_format="pyarrow").materialize()
    exact = int(parts.sum("p") or 0)
    f2a = int(parts.sum("f2a") or 0)
    f2b = int(parts.sum("f2b") or 0)

    cs_a = CountSketch.from_bytes(sketches["a"]) if "a" in sketches \
        else spec.factory()
    cs_b = CountSketch.from_bytes(sketches["b"]) if "b" in sketches \
        else spec.factory()
    est = cs_a.inner_product(cs_b)
    slack = 3.0 * math.sqrt(2.0 * float(f2a) * float(f2b) / width)
    within = bool(abs(est - exact) <= slack + 1e-9)
    return pa.table({
        "exact_pairs": pa.array([exact], type=pa.int64()),
        "within_bound": pa.array([within], type=pa.bool_()),
    })


def second_moment_check(ds, key_col: str, width: int = 8192,
                        depth: int = 5, batch_size: int | None = None):
    """Second frequency moment F2 (self-join size) of ``key_col``, the
    AMS streaming primitive: one global Count-Sketch pass estimates F2
    as the median over rows of the squared-counter sums; the exact F2
    (sum over distinct keys of count^2, bignum fold) is computed by the
    same per-batch-unique + hash-bucketed topology and hash-matches SQL.
    within_bound asserts the 3-sigma AMS variance bound
    ``|est - F2| <= 3 * F2 * sqrt(2 / width)``. One-row output
    ``(f2_exact, within_bound)``."""
    import math

    from ..state.countsketch import CountSketch

    spec = countsketch_spec(width, depth)
    cs_row = sketch_by_key(ds, spec, key_col, None,
                           batch_size=batch_size).take(1)[0]
    est = CountSketch.from_bytes(cs_row["sketch"]).self_moment()
    f2 = fold_f2(exact_counts_table(ds, key_col, batch_size=batch_size))
    within = bool(abs(est - f2) <= 3.0 * f2 * math.sqrt(2.0 / width)
                  + 1e-9)
    return pa.table({
        "f2_exact": pa.array([f2], type=pa.int64()),
        "within_bound": pa.array([within], type=pa.bool_()),
    })


def change_detection(ds, key_col: str, half_col: str,
                     half_a, half_b, k: int = 10,
                     width: int = 2048, depth: int = 5,
                     n_rows: int | None = None):
    """Deltoid-style change detection (Cormode-Muthukrishnan): the keys
    whose counts changed most between two stream halves, exploiting
    COUNT-MIN LINEARITY — each half's CMS merges by pure counter
    addition, so the difference of the two merged sketches estimates
    every key's delta within eps·(N_a + N_b).

    Exact per-(key, half) counts ride the hash-bucketed combine (one
    two-column partial per key — cost ∝ distinct keys); the top-k by
    (|delta| desc, key asc) reduces per batch before the final sort.
    Output rows: key, cnt_a, cnt_b, delta (exact, value-hash-gateable)
    + within_bound asserting the SKETCH delta estimate sits inside the
    published bound (the oracle's constant-TRUE column).
    """
    from ..stages.aggregate import hash_bucketed_group_agg, sketch_by_key
    from ..state.countmin import CountMin

    spec = cms_spec(width, depth)

    def halves(b: pa.Table) -> pa.Table:
        hv = b[half_col].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({key_col: b[key_col]
                           .to_numpy(zero_copy_only=False)})
        df["cnt_a"] = (hv == half_a).astype(np.int64)
        df["cnt_b"] = (hv == half_b).astype(np.int64)
        g = df.groupby(key_col, as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    per_key = hash_bucketed_group_agg(
        ds.map_batches(halves, batch_format="pyarrow"),
        [key_col], {"cnt_a": ("cnt_a", "sum"),
                    "cnt_b": ("cnt_b", "sum")},
        n_rows=n_rows)

    def local_topk(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["cnt_a"] = df["cnt_a"].astype(np.int64)
        df["cnt_b"] = df["cnt_b"].astype(np.int64)
        df["delta"] = df["cnt_a"] - df["cnt_b"]
        df["absd"] = df["delta"].abs()
        df = df.sort_values(["absd", key_col],
                            ascending=[False, True]).head(k)
        return pa.Table.from_pandas(
            df[[key_col, "cnt_a", "cnt_b", "delta", "absd"]],
            preserve_index=False)

    top = (per_key.map_batches(local_topk, batch_format="pyarrow")
           .sort(["absd", key_col], descending=[True, False])
           .limit(k).to_pandas())

    # two merged sketches via the standard sketch topology (half = key)
    cms_rows = sketch_by_key(ds, spec, key_col, half_col).to_pandas()
    sk = {r["key"]: CountMin.from_bytes(r["sketch"])
          for _, r in cms_rows.iterrows()}
    cms_a, cms_b = sk[half_a], sk[half_b]
    keys = top[key_col].to_numpy()   # NATIVE dtype: hash64 must see the
    est_delta = (cms_a.estimate(keys).astype(np.int64)   # same type it
                 - cms_b.estimate(keys).astype(np.int64))  # updated with
    bound = int(np.ceil(cms_a.epsilon * (cms_a.n + cms_b.n)))
    within = np.abs(est_delta - top["delta"].to_numpy(dtype=np.int64)) \
        <= bound
    out = top[[key_col, "cnt_a", "cnt_b", "delta"]].copy()
    out["within_bound"] = within
    return out.reset_index(drop=True)
