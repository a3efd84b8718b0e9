"""Exact relational operators expressed Ray-Data-first.

These are the engine's SQL-expressible companions (FIXTURES.md §5): each has
a DuckDB oracle in ``__ray_entry__.oracle_sql`` and exercises a core Ray Data
primitive — groupby-aggregate, broadcast join, distinct, top-k — or the
analytics keyed exchange, ``stages.aggregate.bucketed_map_groups``. The hash
joins, the band join and every per-key operator (exact quantiles, IQR, MAD,
ordered collect, CDC snapshot, top-k/OTHER) run on that exchange: each call
folds one hash bucket of keys with one lexsort
(``stages.aggregate._key_runs``), never one Python call per key.
``exact_quantiles_by_key`` (through ``_cutpoints``, which
``pipelines/stats.py`` shares) is the distributed port of
the reference's exact oracle (Dist.java:47-60), matching DuckDB
``quantile_disc`` exactly: the value at 1-based rank ``ceil(q*n)`` of the
sorted group, in integer arithmetic (``selection._disc_rank``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.aggregate import _key_runs, bucketed_map_groups
from .quantiles import pct
from .selection import _disc_rank


def _round_col(df: pd.DataFrame, cols, nd: int = 4) -> pd.DataFrame:
    for c in cols:
        df[c] = df[c].round(nd)
    return df


def grouped_stats(ds, key: str, value: str, out_names: dict[str, str],
                  nd: int = 4):
    """count / sum / avg / min / max of ``value`` per ``key`` (exact)."""
    from ray.data.aggregate import Count, Max, Mean, Min, Sum

    out = ds.groupby(key).aggregate(
        Count(alias_name=out_names.get("count", "cnt")),
        Sum(value, alias_name=out_names.get("sum", "sum_v")),
        Mean(value, alias_name=out_names.get("avg", "avg_v")),
        Min(value, alias_name=out_names.get("min", "min_v")),
        Max(value, alias_name=out_names.get("max", "max_v")),
    )

    def rnd(df: pd.DataFrame) -> pd.DataFrame:
        return _round_col(df, [out_names.get("sum", "sum_v"),
                               out_names.get("avg", "avg_v")], nd)

    return out.map_batches(rnd, batch_format="pandas")


def exact_quantiles_by_key(ds, key: str, value: str,
                           qs=(0.25, 0.5, 0.75)):
    """Per-group exact quantiles (duckdb quantile_disc convention).

    One keyed exchange on ``key`` (``_cutpoints``). Groups must
    individually fit in a worker's heap — this is the exact small-scale
    oracle operator (Dist.java port), not the sketch path. Columns are
    named ``p{pct(q)}`` (``quantiles.pct``: 0.29 -> ``p29``).
    """
    return _cutpoints(ds, [key], [value], qs,
                      names=[f"p{pct(q)}" for q in qs])


def _cutpoints(ds, keys, values, qs, *, project=None, names=None):
    """Exact ``quantile_disc`` cutpoints of each ``values`` column at every
    ``q`` of ``qs``, one row per ``keys`` value (``[key]``, or ``[]`` for
    one global row), from one keyed exchange (``project`` runs in its
    map) whose buckets rank every key at once (``_rank_cuts``). The
    cutpoint columns follow (value, q) order and are named
    ``c0, c1, ...`` unless ``names`` gives one name each."""
    keys = list(keys)
    names = names or [f"c{i}" for i in range(len(values) * len(qs))]

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        out = {}
        for i, value in enumerate(values):
            order, starts, _, cuts = _rank_cuts(g, keys, value, qs)
            out.update({c: g[c].to_numpy()[order[starts]] for c in keys})
            out.update(zip(names[i * len(qs):(i + 1) * len(qs)], cuts))
        return pd.DataFrame(out)

    return bucketed_map_groups(ds, keys, fold, project=project,
                               n_buckets=None if keys else 1)


def _rank_cuts(g: pd.DataFrame, keys, value: str, qs):
    """One bucket's rows sorted by (``keys``, ``value``) with one lexsort
    (``keys`` is ``[key]`` or ``[]``): the row order, each key's first
    position and row count, and per q the float64 value at each key's
    1-based rank ``_disc_rank(q, n)``."""
    k = g[keys[0]].to_numpy() if keys else np.zeros(len(g), np.int8)
    order, starts, counts = _key_runs(k, g[value].to_numpy())
    v = g[value].to_numpy()[order]
    return order, starts, counts, [
        v[starts + _disc_rank(q, counts) - 1].astype(np.float64)
        for q in qs]


def dedup_exact(ds, content_col: str, id_col: str,
                n_rows: int | None = None):
    """Exact dedup: keep the row with the smallest id per distinct content.

    Scale path: hash the content inside ``map_batches`` (vectorized) so the
    shuffle key is a fixed-width uint64, then pick the min-id row per group
    via the hash-bucketed vectorized combine — there is one group per
    DISTINCT DOCUMENT (billions at 10^12 rows), so Ray's sort-based
    ``groupby.aggregate`` (~1 ms of Python per group) is pathological here.
    Returns (id, n_dupes) per kept row.
    """
    from ..functions.hashing import hash64
    from ..stages.aggregate import hash_bucketed_group_agg

    if n_rows is None:
        from ..stages.partitioning import cheap_row_count
        n_rows = cheap_row_count(ds)

    def add_hash(batch: pa.Table) -> pa.Table:
        h = hash64(batch[content_col].to_numpy(zero_copy_only=False))
        return pa.table({"content_hash": pa.array(h.astype(np.int64)),
                         id_col: batch[id_col]})

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    deduped = hash_bucketed_group_agg(
        hashed, ["content_hash"],
        {id_col: (id_col, "min"), "n_dupes": (id_col, "count")},
        n_rows=n_rows)
    return deduped.select_columns([id_col, "n_dupes"])


def cluster_size_histogram(ds, content_col: str,
                           n_rows: int | None = None):
    """Duplicate-cluster-size histogram: for each distinct content value,
    the cluster size (row count), then the number of clusters per size —
    the dedup-audit report ("how much of the corpus is 2×/3×/k×
    duplicated?").

    Topology: only the 8-byte content hash rides the wide shuffle
    (hash-bucketed vectorized combine, cost ∝ rows); the second groupby
    runs over O(distinct sizes) rows — a few dozen. Same content-hash
    identity convention as dedup_exact (64-bit collisions negligible and
    documented there).
    """
    from ray.data.aggregate import Count

    from ..functions.hashing import hash64
    from ..stages.aggregate import hash_bucketed_group_agg

    if n_rows is None:
        from ..stages.partitioning import cheap_row_count
        n_rows = cheap_row_count(ds)

    def add_hash(batch: pa.Table) -> pa.Table:
        h = hash64(batch[content_col].to_numpy(zero_copy_only=False))
        return pa.table({"content_hash": pa.array(h.astype(np.int64))})

    hashed = ds.map_batches(add_hash, batch_format="pyarrow")
    per_cluster = hash_bucketed_group_agg(
        hashed, ["content_hash"],
        {"cluster_size": ("content_hash", "count")},
        n_rows=n_rows)
    out = (per_cluster.groupby("cluster_size")
           .aggregate(Count(alias_name="n_clusters")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["cluster_size"] = df["cluster_size"].astype(np.int64)
        df["n_clusters"] = df["n_clusters"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def key_skew_report(ds, key: str, n_rows: int | None = None):
    """Shuffle-planning skew diagnostic: the distribution of group sizes
    for a prospective partition key — row count, distinct keys, max
    group size, exact disc p50/p90/p99 of group sizes, and the hottest
    key's share in ppm (integer arithmetic, order-independent). This is
    the measurement behind the engine's hot-key salting contracts
    (SURVEY §2.4: "skew-aware salting for hot languages/hosts").

    Topology: per-key counts via the hash-bucketed vectorized combine
    (cost ∝ rows); the quantile pass runs over one row PER DISTINCT KEY
    — a diagnostic-scale table (the same contract as the exact-oracle
    quantile path).
    """
    from ..stages.aggregate import hash_bucketed_group_agg

    if n_rows is None:
        from ..stages.partitioning import cheap_row_count
        n_rows = cheap_row_count(ds)

    counts = hash_bucketed_group_agg(
        ds.select_columns([key]), [key], {"cnt": (key, "count")},
        n_rows=n_rows)

    def summarize(df: pd.DataFrame) -> pd.DataFrame:
        c = np.sort(df["cnt"].to_numpy(dtype=np.int64))
        n_keys = len(c)
        total = int(c.sum())
        row = {"n_rows": [np.int64(total)],
               "n_keys": [np.int64(n_keys)],
               "max_count": [np.int64(c[-1])]}
        for q in (0.5, 0.9, 0.99):
            row[f"p{pct(q)}_count"] = [np.int64(
                c[_disc_rank(q, n_keys) - 1])]
        row["top_share_ppm"] = [np.int64(c[-1] * 1_000_000 // total)]
        return pd.DataFrame(row)

    # the counts table is one row per distinct key; fold it in one task
    return counts.repartition(1).map_batches(
        summarize, batch_format="pandas",
        batch_size=None)


def top_k_by_count(ds, key: str, k: int, count_name: str = "cnt"):
    """Top-k keys by row count with a deterministic (count desc, key asc)
    tie-break. Pre-aggregated per batch before the shuffle."""
    from ray.data.aggregate import Sum

    def partial_counts(batch: pa.Table) -> pa.Table:
        arr = batch[key].to_numpy(zero_copy_only=False)
        uniq, counts = np.unique(arr, return_counts=True)
        return pa.table({key: pa.array(uniq),
                         "partial": pa.array(counts.astype(np.int64))})

    counts = (ds.map_batches(partial_counts, batch_format="pyarrow")
              .groupby(key).aggregate(Sum("partial", alias_name=count_name)))
    # top-k of a tiny aggregate: sort then limit
    top = counts.sort([count_name, key], descending=[True, False]).limit(k)
    return top


def iqr_outlier_stats(ds, key: str, value: str, k: float = 1.5):
    """Tukey IQR outlier report per key: exact disc quantiles Q1/Q3, the
    group size and the count outside ``[Q1 - k*IQR, Q3 + k*IQR]``. The
    fence arithmetic is ONE float expression over the exact integer
    quantiles, so the counts are bit-reproducible in SQL. Per-group
    exact (oracle-scale op, same contract as exact_quantiles_by_key);
    the 100-TB path for the same filter is quantile sketches + a
    broadcast of the per-key fences. One keyed exchange on ``key``, one
    (key, value) sort per bucket."""

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        kv, v = g[key].to_numpy(), g[value].to_numpy()
        order, starts, counts = _key_runs(kv, v)
        v = v[order]
        q1 = v[starts + _disc_rank(0.25, counts) - 1].astype(np.float64)
        q3 = v[starts + _disc_rank(0.75, counts) - 1].astype(np.float64)
        iqr = q3 - q1
        lo, hi = q1 - k * iqr, q3 + k * iqr
        vf = v.astype(np.float64)
        out = (vf < np.repeat(lo, counts)) | (vf > np.repeat(hi, counts))
        return pd.DataFrame({
            key: kv[order[starts]], "q1": q1, "q3": q3,
            "n_total": counts.astype(np.int64),
            "n_outliers": np.add.reduceat(out.astype(np.int64), starts)})

    return bucketed_map_groups(ds, [key], fold)


def rollup_stats(ds, keys, value: str, all_label: str = "ALL"):
    """Hierarchical ROLLUP aggregate (count / sum / min / max of ``value``
    at every prefix level of ``keys``): the input is scanned ONCE for the
    finest (all-keys) level; every coarser level is derived by
    re-aggregating the finest result — counts/sums add, min/max of group
    min/max — which is KB-sized (one row per finest group), so the extra
    levels cost no second pass over the data. Rolled-up key columns carry
    ``all_label`` (the COALESCE convention of SQL GROUP BY ROLLUP).

    Partitioning assumption: the FINEST group count fits the driver for
    the derive step (same bound as any top-k/report consumer of the
    aggregate); the wide shuffle itself is the one Ray groupby.
    """
    from ray.data.aggregate import Count, Max, Min, Sum

    keys = list(keys)
    finest = (ds.groupby(keys)
              .aggregate(Count(alias_name="n_rows"),
                         Sum(value, alias_name="sum_v"),
                         Min(value, alias_name="min_v"),
                         Max(value, alias_name="max_v"))).to_pandas()
    finest["sum_v"] = finest["sum_v"].astype(np.int64)

    levels = [finest]
    for depth in range(len(keys) - 1, -1, -1):
        kept = keys[:depth]
        g = finest.groupby(kept, sort=False) if kept else finest
        agg = (g.agg(n_rows=("n_rows", "sum"), sum_v=("sum_v", "sum"),
                     min_v=("min_v", "min"), max_v=("max_v", "max"))
               if kept else pd.DataFrame({
                   "n_rows": [finest["n_rows"].sum()],
                   "sum_v": [finest["sum_v"].sum()],
                   "min_v": [finest["min_v"].min()],
                   "max_v": [finest["max_v"].max()]}))
        if kept:
            agg = agg.reset_index()
        for c in keys[depth:]:
            agg[c] = all_label
        levels.append(agg[keys + ["n_rows", "sum_v", "min_v", "max_v"]])

    out = pd.concat(levels, ignore_index=True)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["sum_v"] = out["sum_v"].astype(np.int64)
    return out


def cube_stats(ds, keys, value: str, all_label: str = "ALL"):
    """GROUP BY CUBE aggregate: every SUBSET of ``keys`` (2^k grouping
    sets), all derived from the single finest-level scan the same way as
    rollup_stats — counts/sums re-add, min/max re-fold over the KB-sized
    finest table, so the extra 2^k - 1 levels cost no second data pass.
    Same driver-side finest-group bound as rollup_stats.
    """
    from itertools import combinations

    from ray.data.aggregate import Count, Max, Min, Sum

    keys = list(keys)
    finest = (ds.groupby(keys)
              .aggregate(Count(alias_name="n_rows"),
                         Sum(value, alias_name="sum_v"),
                         Min(value, alias_name="min_v"),
                         Max(value, alias_name="max_v"))).to_pandas()
    finest["sum_v"] = finest["sum_v"].astype(np.int64)

    levels = []
    for r in range(len(keys), -1, -1):
        for kept in combinations(keys, r):
            kept = list(kept)
            if len(kept) == len(keys):
                agg = finest.copy()
            elif kept:
                agg = (finest.groupby(kept, sort=False)
                       .agg(n_rows=("n_rows", "sum"),
                            sum_v=("sum_v", "sum"),
                            min_v=("min_v", "min"),
                            max_v=("max_v", "max")).reset_index())
            else:
                agg = pd.DataFrame({
                    "n_rows": [finest["n_rows"].sum()],
                    "sum_v": [finest["sum_v"].sum()],
                    "min_v": [finest["min_v"].min()],
                    "max_v": [finest["max_v"].max()]})
            for c in keys:
                if c not in kept:
                    agg[c] = all_label
            levels.append(agg[keys + ["n_rows", "sum_v",
                                      "min_v", "max_v"]])

    out = pd.concat(levels, ignore_index=True)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    out["sum_v"] = out["sum_v"].astype(np.int64)
    return out


def mad_stats(ds, key: str, value: str):
    """Per-key MEDIAN ABSOLUTE DEVIATION (disc convention): the disc
    median, then the disc median of |x - median|, both in one fold per
    bucket of one keyed exchange (a (key, value) sort, then a
    (key, deviation) sort). Completes the robust-scale family alongside
    IQR fences and exact-moment z-scores; same heap-bound exact-oracle
    contract as exact_quantiles_by_key.
    """

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        kv, v = g[key].to_numpy(), g[value].to_numpy()
        order, starts, counts = _key_runs(kv, v)
        v = v[order]
        mid = starts + _disc_rank(0.5, counts) - 1
        med = v[mid].astype(np.float64)
        dev = np.abs(v.astype(np.float64) - np.repeat(med, counts))
        run = np.repeat(np.arange(len(starts)), counts)
        dev = dev[np.lexsort((dev, run))]
        return pd.DataFrame({key: kv[order[starts]],
                             "n": counts.astype(np.int64),
                             "median_v": med, "mad": dev[mid]})

    return bucketed_map_groups(ds, [key], fold)


def pivot_counts(ds, row_key: str, col_key: str, col_values,
                 prefix: str = "n_"):
    """Crosstab / PIVOT: per ``row_key`` one row with a count column per
    ``col_key`` value (the wide-report shape). One vectorized per-batch
    partial (rows × |col_values| int64 cells) rides the exchange; the
    pivot itself happens in the combiner, so no second shuffle and no
    per-row Python.
    """
    from ray.data.aggregate import Sum

    col_values = list(col_values)

    def partial(b: pa.Table) -> pa.Table:
        rk = b[row_key].to_numpy(zero_copy_only=False)
        ck = b[col_key].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({row_key: rk})
        for v in col_values:
            df[f"{prefix}{v}"] = (ck == v).astype(np.int64)
        g = df.groupby(row_key, as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    aggs = [Sum(f"{prefix}{v}", alias_name=f"{prefix}{v}")
            for v in col_values]
    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(row_key).aggregate(*aggs))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        for v in col_values:
            df[f"{prefix}{v}"] = df[f"{prefix}{v}"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def distinct_count_by_key(ds, key: str, value: str, out_name: str):
    """Exact count(distinct value) per key: dedup on (key, value) pairs
    inside each batch, then a global pair-dedup + count."""

    from ray.data.aggregate import Sum

    from ..stages.aggregate import hash_bucketed_group_agg

    def pairs(batch: pa.Table) -> pa.Table:
        t = batch.select([key, value])
        df = t.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    # pair dedup via the vectorized hash-bucketed aggregate (there is one
    # group per distinct value at scale — Ray's sort-based multi-column
    # aggregate pays ~1 ms of Python per group), then a per-key count of
    # the distinct pairs (vectorized partial + a tiny single-key Sum)
    deduped = hash_bucketed_group_agg(
        ds.map_batches(pairs, batch_format="pyarrow"),
        [key, value], {"_c": (key, "count")})

    def per_key_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key, sort=False).size()
        return pd.DataFrame({key: g.index, "_part": g.to_numpy()})

    return (deduped.map_batches(per_key_partial, batch_format="pandas")
            .groupby(key)
            .aggregate(Sum("_part", alias_name=out_name)))


def _column_types(types, *sides) -> dict:
    """The caller's ``types`` plus the Arrow type of every other column of
    each ``(ds, cols)`` side, read from ``ds.schema()``: a metadata read
    for parquet sources, but on a mapped/joined input it EXECUTES the
    upstream plan to produce a block, so explicit ``types`` skip it."""
    types = dict(types) if types else {}
    for ds, cols in sides:
        cols = [c for c in cols if c not in types]
        if not cols:
            continue
        sch = ds.schema()
        sch = getattr(sch, "base_schema", sch)
        if hasattr(sch, "field"):  # pyarrow schema (parquet-backed)
            types.update((c, sch.field(c).type) for c in cols)
        else:  # PandasBlockSchema: parallel names/types of numpy dtypes
            by_name = dict(zip(sch.names, sch.types))
            types.update((c, pa.string() if by_name[c] == object
                          else pa.from_numpy_dtype(by_name[c]))
                         for c in cols)
    return types


def _co_partition(left, right, on: str, left_cols, right_cols, types,
                  fn, coarse, n_rows):
    """Both sides of a join through ONE keyed exchange on ``on``: every
    row is tagged ``is_left`` (1 / 0), its key cast to ``types[on]`` and
    the other side's columns filled with typed nulls, so the union has one
    Arrow schema and both sides of a key reach the same call of ``fn``
    (the tagged union co-partitioned on the join key). ``coarse`` fixes
    the bucket count; otherwise it follows ``n_rows``, by default the sum
    of both sides' metadata row counts."""
    from ..stages.partitioning import cheap_row_count

    if coarse is None and n_rows is None:
        nl, nr = cheap_row_count(left), cheap_row_count(right)
        n_rows = None if None in (nl, nr) else nl + nr

    def tag(side: int, own_cols):
        def fn(batch: pa.Table) -> pa.Table:
            n = batch.num_rows
            cols = {on: batch[on].cast(types[on]),
                    "is_left": pa.array(np.full(n, side, dtype=np.int8))}
            for c in left_cols + right_cols:
                cols[c] = (batch[c] if c in own_cols
                           else pa.nulls(n, type=types[c]))
            return pa.table(cols)
        return fn

    tagged = (left.map_batches(tag(1, left_cols), batch_format="pyarrow")
              .union(right.select_columns([on] + right_cols)
                     .map_batches(tag(0, right_cols),
                                  batch_format="pyarrow")))
    return bucketed_map_groups(tagged, [on], fn, n_rows=n_rows,
                               n_buckets=coarse)


def hash_join(left, right, on: str, left_cols, right_cols,
              coarse: int | None = None, n_rows: int | None = None,
              types: dict | None = None, how: str = "inner"):
    """Distributed hash equi-join (``how`` = "inner", "left" or
    "full") of two Datasets on ``on``.

    LEFT/FULL join: unmatched rows survive with the other side's
    columns null (the per-bucket merge emits them via ``from_pandas``
    null conversion), so a downstream COALESCE/fillna sees proper Arrow
    nulls, not NaN-coerced floats. FULL OUTER works per bucket because
    hash co-partitioning sends BOTH sides of any key to the same
    bucket — a key absent from one side is absent from that bucket's
    side exactly.

    Ray Data (2.49) has no native join; this is the shuffle join the
    engine uses when NEITHER side fits in memory (use
    ``broadcast_join_count`` / a plasma lookup when one side is a
    dimension table). Both sides are tagged and co-partitioned on ``on``
    in ONE keyed exchange (``stages.aggregate.bucketed_map_groups``);
    each bucket is then a vectorized pandas merge. Same topology as
    ``windows.asof_join``.

    Partitioning assumption (documented contract): one bucket's rows
    from both sides must fit in a worker's heap — ``coarse`` (the bucket
    count) scales with the combined metadata row count (~256k
    rows/bucket). A pathological hot key (one key = whole dataset) needs
    pre-aggregation before the join, same as any hash-partitioned engine.

    Returns columns ``[on] + left_cols + right_cols``. Rows ride the
    shuffle with the other side's columns as nulls and both keys cast to
    the output key type (one unified Arrow schema for the union).

    ``types`` (optional): explicit ``{col: pyarrow.DataType}`` for the
    output columns; the key's type defaults to the left side's. Pass it
    whenever an input is a mapped/joined Dataset: ``Dataset.schema()`` on
    those EXECUTES the upstream plan to produce a block (for a
    join-of-joins input that re-runs the whole upstream shuffle), whereas
    on parquet-backed reads it is a metadata lookup.
    """
    if how not in ("inner", "left", "full"):
        raise ValueError(
            f"how must be 'inner', 'left' or 'full', got {how!r}")
    pd_how = {"inner": "inner", "left": "left", "full": "outer"}[how]
    left_cols = list(left_cols)
    right_cols = list(right_cols)
    types = _column_types(types, (left, [on] + left_cols),
                          (right, right_cols))

    # the inner join drops every null, but the union's null-padding made
    # pandas promote int columns to float64 inside each bucket frame —
    # emit Arrow with the declared source types so the output is
    # type-stable (joins compose: this output may be the next join's
    # hash-key input, where float64 vs int64 keys would silently miss)
    out_fields = [(on, types[on])] + [(c, types[c])
                                      for c in left_cols + right_cols]
    out_schema = pa.schema(out_fields)

    def bucket_join(g: pd.DataFrame) -> pa.Table:
        l = g[g["is_left"] == 1][[on] + left_cols]
        r = g[g["is_left"] == 0][[on] + right_cols]
        j = l.merge(r, on=on, how=pd_how)
        if how == "inner":
            return pa.table({c: pa.array(j[c].to_numpy(), type=t)
                             for c, t in out_fields},
                            schema=out_schema)
        # left/full join: unmatched columns are NaN in the merged
        # frame; from_pandas converts them to typed Arrow nulls (a
        # plain to_numpy() would coerce int columns to float64)
        return pa.table({c: pa.array(j[c], type=t, from_pandas=True)
                         for c, t in out_fields},
                        schema=out_schema)

    return _co_partition(left, right, on, left_cols, right_cols, types,
                         bucket_join, coarse, n_rows)


def hash_semi_anti_join(left, right, on: str, left_cols,
                        anti: bool = False,
                        coarse: int | None = None,
                        n_rows: int | None = None,
                        types: dict | None = None):
    """Distributed semi (``anti=False``) or anti (``anti=True``) equi-join:
    keep left rows whose ``on`` key does / does not appear in ``right``.

    The training-data use is eval decontamination: ``right`` is the
    contamination list (e.g. normalized-text hashes of an eval set),
    ``left`` the corpus, ``anti=True`` keeps the clean rows. Same
    one-exchange co-partition on ``on`` as ``hash_join`` (``coarse``
    buckets), but the right side ships ONLY its key column and each
    bucket is one vectorized ``isin`` — no pair blowup, output rows <=
    left rows, so a hot key cannot explode the join (unlike inner join,
    where it must be pre-aggregated). Use ``distinct.bloom_semi_join``
    instead when an approximate prefilter + local verify beats a full
    shuffle.

    Returns left's ``[on] + left_cols`` with source types preserved.
    """
    left_cols = list(left_cols)
    types = _column_types(types, (left, [on] + left_cols))
    out_fields = [(on, types[on])] + [(c, types[c]) for c in left_cols]
    out_schema = pa.schema(out_fields)

    def bucket_filter(g: pd.DataFrame) -> pa.Table:
        is_l = g["is_left"].to_numpy() == 1
        lhs = g.loc[is_l]
        hit = lhs[on].isin(g.loc[~is_l, on]).to_numpy()
        keep = lhs.loc[~hit if anti else hit]
        return pa.table({c: pa.array(keep[c].to_numpy(), type=t)
                         for c, t in out_fields}, schema=out_schema)

    return _co_partition(left, right, on, left_cols, [], types,
                         bucket_filter, coarse, n_rows)


def broadcast_join_count(ds, small_df: pd.DataFrame, left_key: str,
                         right_key: str, label_col: str,
                         value: str, out_names: dict[str, str],
                         nd: int = 4):
    """Broadcast hash join (small side shipped once with the map function)
    followed by a grouped count/avg — the no-shuffle join pattern for
    dimension tables."""
    # Broadcast the small side ONCE as sorted parallel arrays and resolve
    # per batch with a vectorized searchsorted + Arrow take — no
    # per-element Python dict lookups.
    order = np.argsort(small_df[right_key].to_numpy(), kind="stable")
    keys_sorted = np.ascontiguousarray(
        small_df[right_key].to_numpy()[order])
    labels_sorted = pa.array(
        [str(x) for x in small_df[label_col].to_numpy()[order]],
        type=pa.string())

    def joiner(batch: pa.Table) -> pa.Table:
        keys = batch[left_key].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(keys_sorted, keys)
        pos_c = np.minimum(pos, len(keys_sorted) - 1)
        hit = keys_sorted[pos_c] == keys
        labels = labels_sorted.take(
            pa.array(np.where(hit, pos_c, 0), type=pa.int64()))
        if not hit.all():
            labels = pc.if_else(pa.array(hit), labels,
                                pa.scalar(None, type=pa.string()))
        return batch.append_column(label_col, labels)

    joined = ds.map_batches(joiner, batch_format="pyarrow")
    return grouped_stats(joined, label_col, value, out_names, nd)


def range_join_count(left, right, left_val: str, right_val: str,
                     delta_units: int, grid: float = 1e6,
                     out_div: int | None = None,
                     out_name: str = "bucket"):
    """Distributed RANGE (band) join pair-count: pairs (a, b) with
    ``|q(a) - q(b)| <= delta_units`` where ``q(x) = floor(x*grid + 0.5)``
    — tolerance matching on an exact integer grid, so the predicate has
    no float-boundary ambiguity and an exact SQL oracle.

    Topology (the operator Ray Data lacks natively): quantize both
    sides; the LEFT row lives in bucket ``q // delta_units`` only, the
    RIGHT row is replicated to buckets {k-1, k, k+1} — every qualifying
    pair co-locates in exactly the left row's bucket (bucket width =
    the band width), nothing is double-counted. One keyed exchange on
    the band co-partitions both sides; each call holds many bands, and
    ``q + 2 * delta_units * band`` gives every band its own disjoint
    range of one int64 sort key (a band's rights lie in
    [(band-1)d, (band+2)d), its lefts in [band*d, (band+1)d)), so the
    call sorts its rights once and every left counts its matches with
    two vectorized searchsorted probes — O((nL + nR) log nR) per call,
    never an all-pairs materialization. Per-bucket partial counts
    (grouped by ``q // out_div``) ride the second tiny shuffle.

    Partitioning assumption (same contract as ``hash_join``): one value
    band's rows must fit a worker. A pathological value distribution
    (everything inside one band) needs a salted two-level count.
    """
    from ray.data.aggregate import Sum

    from ..stages.partitioning import cheap_row_count

    if out_div is None:
        out_div = delta_units * 200

    def quant(col: str, is_left: bool):
        def fn(b: pa.Table) -> pa.Table:
            v = b[col].to_numpy(zero_copy_only=False)
            q = np.floor(v * grid + 0.5).astype(np.int64)
            k = q // np.int64(delta_units)
            if is_left:
                return pa.table({"bkt": pa.array(k), "q": pa.array(q),
                                 "is_left": pa.array(
                                     np.ones(len(q), dtype=np.int8))})
            reps = np.concatenate([k - 1, k, k + 1])
            return pa.table({"bkt": pa.array(reps),
                             "q": pa.array(np.tile(q, 3)),
                             "is_left": pa.array(
                                 np.zeros(3 * len(q), dtype=np.int8))})
        return fn

    tagged = (left.map_batches(quant(left_val, True),
                               batch_format="pyarrow")
              .union(right.map_batches(quant(right_val, False),
                                       batch_format="pyarrow")))

    def bucket_count(g: pd.DataFrame) -> pa.Table:
        is_l = g["is_left"].to_numpy() == 1
        q = g["q"].to_numpy()
        c = q + np.int64(2 * delta_units) * g["bkt"].to_numpy()
        cl, cr = c[is_l], np.sort(c[~is_l])
        if not len(cl) or not len(cr):
            return pa.table({out_name: pa.array([], type=pa.int64()),
                             "_n": pa.array([], type=pa.int64())})
        lo = np.searchsorted(cr, cl - delta_units, side="left")
        hi = np.searchsorted(cr, cl + delta_units, side="right")
        n = (hi - lo).astype(np.int64)
        keys = q[is_l] // np.int64(out_div)
        uk, inv = np.unique(keys, return_inverse=True)
        sums = np.zeros(len(uk), dtype=np.int64)
        np.add.at(sums, inv, n)
        return pa.table({out_name: pa.array(uk), "_n": pa.array(sums)})

    nl, nr = cheap_row_count(left), cheap_row_count(right)
    partial = bucketed_map_groups(
        tagged, ["bkt"], bucket_count,
        n_rows=None if None in (nl, nr) else nl + 3 * nr)
    out = partial.groupby(out_name).aggregate(
        Sum("_n", alias_name="n_pairs"))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["n_pairs"] > 0].copy()
        df["n_pairs"] = df["n_pairs"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def topk_other_rollup(ds, key: str, sub: str, k: int = 2):
    """Reporting rollup: per key the top-k sub-categories by count
    (count desc, sub asc tie-break) each with their rank, plus ONE
    'OTHER' row aggregating every remaining sub-category (emitted only
    when something remains). Counts combine per batch; one keyed
    exchange on ``key`` sums them per (key, sub) and ranks every key of
    a bucket with one sort.
    """

    def partial(b: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False),
                           sub: b[sub].to_numpy(zero_copy_only=False)})
        g = df.groupby([key, sub], as_index=False, sort=False).size()
        return g.rename(columns={"size": "partial"})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby([key, sub], as_index=False, sort=False)["partial"].sum()
        kv, sv = c[key].to_numpy(), c[sub].to_numpy()
        cnt = c["partial"].to_numpy(dtype=np.int64)
        order, starts, counts = _key_runs(kv, -cnt, sv)
        rank = np.arange(len(order)) - np.repeat(starts, counts)
        top = order[rank < k]
        rest = np.add.reduceat(np.where(rank < k, 0, cnt[order]), starts)
        more = counts > k
        return pd.DataFrame({
            key: np.r_[kv[top], kv[order[starts]][more]],
            "category": np.r_[sv[top], np.full(more.sum(), "OTHER",
                                               dtype=object)],
            "cnt": np.r_[cnt[top], rest[more]],
            "rank": np.r_[rank[rank < k] + 1,
                          np.zeros(more.sum(), dtype=np.int64)]})

    return bucketed_map_groups(ds, [key], fold, project=partial)


def latest_snapshot_stats(ds, key_col: str, ts_col: str, seq_col: str,
                          op_col: str, attr_col: str, cents_col: str,
                          delete_op: str = "D"):
    """CDC changelog compaction to the LATEST SNAPSHOT — the
    merge-on-read operator of lakehouse table formats (upsert rows and
    delete tombstones keyed by ``key_col``, ordered by
    ``(ts, seq)``): the surviving state per key is its last change,
    dropped entirely if that change is a tombstone. Reports per-attr
    live-row counts and exact integer cents sums.

    Topology: a per-batch COMPACTING partial first (lexsort by
    (key, ts, seq), keep each key's last row — a batch of B changes
    shrinks to <= distinct keys before anything shuffles; at 100 TB the
    changelog is heavily key-repetitive so this is the dominant
    reduction), then ONE keyed exchange on the key whose fold takes every
    key's last change with the same sort, then a tiny groupby on attr.
    Only (key, t, seq, op, attr, cents) fixed-width cells ever ride the
    exchange — payloads would join back by key afterwards in a real
    apply.
    """
    from ray.data.aggregate import Count, Sum

    def compact(b: pa.Table) -> pa.Table:
        k = b[key_col].to_numpy(zero_copy_only=False)
        t = b[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        s = b[seq_col].to_numpy(zero_copy_only=False)
        order, starts, counts = _key_runs(k, t, s)
        take = order[starts + counts - 1]
        return pa.table({
            key_col: pa.array(k[take]),
            "_t": pa.array(t[take]),
            seq_col: pa.array(s[take]),
            op_col: b[op_col].take(pa.array(take)),
            attr_col: b[attr_col].take(pa.array(take)),
            cents_col: b[cents_col].take(pa.array(take))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        order, starts, counts = _key_runs(g[key_col].to_numpy(),
                                          g["_t"].to_numpy(),
                                          g[seq_col].to_numpy())
        last = g.iloc[order[starts + counts - 1]]
        return last.loc[last[op_col] != delete_op, [attr_col, cents_col]]

    live = bucketed_map_groups(ds, [key_col], fold, project=compact)
    out = live.groupby(attr_col).aggregate(
        Count(alias_name="n_keys"),
        Sum(cents_col, alias_name="sum_cents"))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["n_keys"] = df["n_keys"].astype(np.int64)
        df["sum_cents"] = df["sum_cents"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def ordered_collect(ds, key: str, order_col: str, tie_col: str,
                    payload_col: str, k: int = 5,
                    out_name: str = "collected"):
    """Distributed ORDERED COLLECT / string_agg: per key, the first
    ``k`` payloads by ``(order_col, tie_col)`` joined with commas —
    the "first five pages a user visited" shape. The collect itself is
    the easy part; the point is the TRUNCATING partial: each batch
    keeps only its local top-k rows per key (lexsort + group-head
    take, vectorized), so at most ``k x keys`` short rows reach the
    shuffle no matter how many events a hot key has — an unbounded
    ``collect_list`` is the classic OOM; this one is bounded by
    construction.

    Returns (key, n_collected, collected). Deterministic for a total
    (order, tie) order; value-hash oracle via SQL
    ``string_agg(... ORDER BY ...)`` over a row_number window.
    """

    def partial(b: pa.Table) -> pa.Table:
        order, starts, counts = _key_runs(
            *(b[c].to_numpy(zero_copy_only=False)
              for c in (key, order_col, tie_col)))
        # rank within key group; keep rank < k
        rank = np.arange(len(order)) - np.repeat(starts, counts)
        take = pa.array(order[rank < k])
        return b.select([key, order_col, tie_col, payload_col]).take(take)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        kv = g[key].to_numpy()
        order, starts, counts = _key_runs(kv, g[order_col].to_numpy(),
                                          g[tie_col].to_numpy())
        n = np.minimum(counts, k)
        pay = g[payload_col].to_numpy()[order]
        return pd.DataFrame({
            key: kv[order[starts]],
            "n_collected": n.astype(np.int64),
            out_name: [",".join(map(str, pay[s:s + c]))
                       for s, c in zip(starts, n)]})

    return bucketed_map_groups(ds, [key], fold, project=partial)


def unpivot(ds, id_cols: list[str], value_cols: list[str],
            name_col: str = "metric", value_col: str = "value"):
    """UNPIVOT / melt (wide -> long): each input row becomes
    len(value_cols) rows (id_cols, metric-name, value). Purely
    row-local — a map_batches with zero shuffle, so it composes freely
    at any scale; the SQL twin is the UNION ALL expansion."""

    def melt(b: pa.Table) -> pa.Table:
        n = len(b)
        k = len(value_cols)
        cols = {}
        for c in id_cols:
            cols[c] = pa.concat_arrays(
                [b[c].combine_chunks()] * k)
        names = np.repeat(np.array(value_cols, dtype=object), n)
        # interleave per-metric blocks: metric m's block holds all rows
        cols[name_col] = pa.array(names, type=pa.string())
        vals = np.concatenate(
            [b[c].to_numpy(zero_copy_only=False).astype(np.int64)
             for c in value_cols])
        cols[value_col] = pa.array(vals, type=pa.int64())
        return pa.table(cols)

    return ds.map_batches(melt, batch_format="pyarrow")


def ratio_to_report(ds, key: str, value: str,
                    out_name: str = "share_ppm"):
    """RATIO_TO_REPORT analytic: each key's exact cents sum plus its
    floor-ppm share of the grand total — one groupby for the per-key
    sums, the KB-sized aggregate folded on the driver (grand total =
    Python-int sum, immune to float order)."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        v = b[value].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({key: b[key].to_numpy(
            zero_copy_only=False), "s": cents, "n": 1})
        g = df.groupby(key, as_index=False, sort=False).sum()
        g["s"] = g["s"].astype(np.int64)
        g["n"] = g["n"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(key)
           .aggregate(Sum("n", alias_name="n_rows"),
                      Sum("s", alias_name="sum_cents"))
           .to_pandas())
    total = sum(int(x) for x in agg["sum_cents"])
    agg["n_rows"] = agg["n_rows"].astype(np.int64)
    agg["sum_cents"] = agg["sum_cents"].astype(np.int64)
    agg[out_name] = np.array(
        [int(x) * 10**6 // total if total > 0 else 0
         for x in agg["sum_cents"]], dtype=np.int64)
    return agg.sort_values(key).reset_index(drop=True)
