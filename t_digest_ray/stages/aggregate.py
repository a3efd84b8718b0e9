"""Ray Data wiring for mergeable sketches.

The scalable topology (SURVEY.md §3, the Ray re-architecture of
MergingDigest.add(List) / MegaMergeTest's partial->merge pattern):

    ds.map_batches(partial_fn, batch_format="pyarrow")     # map-side combine:
        -> rows (key, salt, sketch: binary, n: float64)    #   one sketch per
                                                           #   (task x key)
    .groupby([key, salt]).map_groups(merge)                # level-1 merge
    .groupby(key).map_groups(merge)                        # level-2 merge
    .map_batches(summarize)                                # query stage

Every partial sketch in the library comes from ONE accumulator,
``KeyedSketches``: the generic ``make_partial_fn``, the fused pages flagship
(``pipelines.quantiles.make_fused_partials``), the checkpointed per-file
partials (``pipelines.checkpoint.run_checkpointed``) and hand-built
single-row partials all feed it batches and flush its wire rows. It groups
each batch once, on Arrow dictionary codes, for every metric.

Raw values never shuffle — only serialized sketches (KBs per row), which is
what makes the wide step cheap at 10^12 rows. The salt level bounds the fan-in
of any single merge task for hot keys ("en" at 40% of a web corpus): level-1
fan-in ~ #batches/num_salts, level-2 fan-in = num_salts. Sketch merges are
associative, so the two-level tree gives the same answer (within the
sketch's published bound) as a flat merge — property-tested in
tests/test_ray_aggregate.py.

The merges are canonical one-shot N-way merges (concat all centroid arrays,
one sort, one cluster pass — MergingDigest.java:314-357 semantics), so the
result is independent of the order Ray delivers the partial rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64
from ..state.protocol import SketchSpec

SKETCH_COL = "sketch"
COUNT_COL = "n"
KEY_COL = "key"
SALT_COL = "salt"
METRIC_COL = "metric"

_GLOBAL_KEY = ""  # constant key used when aggregating without a group key


class KeyedSketches:
    """Running per-(metric, key) sketches, fed one batch at a time: the
    library's single map-side combine.

    ``add`` groups a batch once for all its metrics: the key column is
    dictionary-encoded to int32 codes, one stable argsort of the codes and
    ``np.bincount`` bounds split every metric's values (and the weights)
    by key. Within a key the values keep their input order, so each sketch
    sees exactly what a per-key filter of the batch would give it. A batch
    visits its keys in sorted order; states, and so the flushed rows, keep
    the order they were first seen in.

    Instances live inside one task: the flushed rows depend only on the
    rows that task added, which keeps tasks stateless and
    retry-deterministic.
    """

    def __init__(self, spec: SketchSpec, key_name: str = KEY_COL,
                 with_metric: bool = False):
        self._spec = spec
        self._key_name = key_name  # for error messages only
        self._with_metric = with_metric
        self._key_type = pa.string()
        self._acc: dict = {}  # (metric, key) -> [sketch, n]

    def add(self, keys, values: dict, weights=None) -> None:
        """Update the sketches with one batch of Arrow columns: ``keys``,
        or None for the global key ""; ``values`` maps metric name -> value
        column; ``weights`` is optional per-row."""
        w = None if weights is None else weights.to_numpy(zero_copy_only=False)
        order, groups = None, [(_GLOBAL_KEY, 0, None)]
        if keys is not None:
            col = keys.combine_chunks() \
                if isinstance(keys, pa.ChunkedArray) else keys
            if col.null_count:
                raise ValueError(
                    f"group key column {self._key_name!r} has "
                    f"{col.null_count} null value(s); fill or filter them "
                    "before sketching")
            enc = pc.dictionary_encode(col)
            self._key_type = enc.type.value_type
            codes = enc.indices.to_numpy(zero_copy_only=False)
            order = np.argsort(codes, kind="stable")
            bounds = np.concatenate(([0], np.cumsum(
                np.bincount(codes, minlength=len(enc.dictionary)))))
            uniq = enc.dictionary.to_pylist()
            groups = [(uniq[c], bounds[c], bounds[c + 1])
                      for c in pc.sort_indices(enc.dictionary).to_pylist()
                      if bounds[c + 1] > bounds[c]]
            if w is not None:
                w = w[order]
        for metric, vals in values.items():
            vals = vals.to_numpy(zero_copy_only=False)
            if order is not None:
                vals = vals[order]
            for k, lo, hi in groups:
                acc = self._acc.get((metric, k))
                if acc is None:
                    acc = self._acc[(metric, k)] = [self._spec.factory(), 0.0]
                part = vals[lo:hi]
                acc[0].update_batch(part, None if w is None else w[lo:hi])
                acc[1] += float(len(part))

    def items(self):
        """``((metric, key), [sketch, n])`` pairs in first-seen order."""
        return self._acc.items()

    def flush(self, num_salts: int) -> pa.Table:
        """Wire rows ``(key, salt, sketch, n[, metric])``, one per
        (metric, key). The salt is content-derived, so a retried task
        lands in the same level-1 merge group. With no rows added the
        table is empty but keeps the full wire schema."""
        items = list(self._acc.items())
        blobs = [sk.to_bytes() for _, (sk, _n) in items]
        salts = (hash64(np.asarray(blobs, dtype=object))
                 % np.uint64(max(num_salts, 1))).astype(np.int32)
        cols = {
            KEY_COL: pa.array([k for (_m, k), _ in items],
                              type=self._key_type),
            SALT_COL: pa.array(salts, type=pa.int32()),
            SKETCH_COL: pa.array(blobs, type=pa.binary()),
            COUNT_COL: pa.array([n for _, (_sk, n) in items],
                                type=pa.float64()),
        }
        if self._with_metric:
            cols[METRIC_COL] = pa.array([m for (m, _k), _ in items],
                                        type=pa.string())
        return pa.table(cols)


def make_partial_fn(spec: SketchSpec, value_col: str,
                    key: str | None = None,
                    weight_col: str | None = None,
                    num_salts: int = 8):
    """Build the map-side combine: one serialized sketch per (batch, key),
    through ``KeyedSketches``.

    Stateless by design — each batch independently becomes <= #keys tiny
    rows, so tasks are cheap, elastic and retry-deterministic (the sketch of
    a batch depends only on the batch's content).
    """

    def fn(batch: pa.Table) -> pa.Table:
        acc = KeyedSketches(spec, key or KEY_COL)
        acc.add(None if key is None else batch[key],
                {value_col: batch[value_col]},
                None if weight_col is None else batch[weight_col])
        return acc.flush(num_salts)

    return fn


def _merge_group(spec: SketchSpec, carry: tuple[str, ...] = (KEY_COL,)):
    """A map_groups body: N partial rows for one group -> 1 row; ``carry``
    lists the group-identity columns copied through."""

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        merged = spec.merge_bytes(list(g[SKETCH_COL]))
        out = {c: [g[c].iloc[0]] for c in carry}
        out[SKETCH_COL] = [merged.to_bytes()]
        out[COUNT_COL] = [float(g[COUNT_COL].sum())]
        return pd.DataFrame(out)

    return merge


def _merge_tree(partials, spec: SketchSpec, group: tuple[str, ...],
                num_salts: int, coalesce_blocks: int):
    """Two-level canonical merge of partial rows grouped on ``group``."""
    if coalesce_blocks:
        partials = partials.repartition(coalesce_blocks)
    merge = _merge_group(spec, carry=group)
    if num_salts > 1:
        partials = partials.groupby([*group, SALT_COL]).map_groups(
            merge, batch_format="pandas")
    return partials.groupby(list(group)).map_groups(
        merge, batch_format="pandas")


def merge_partials(partials, spec: SketchSpec, num_salts: int = 8,
                   coalesce_blocks: int = 16):
    """The wide half of the pipeline: partial sketch rows
    ``(key, salt, sketch, n)`` -> two-level canonical merge -> one row per
    key. Public so callers that produce partial rows themselves (e.g. a
    generator that sketches in-task) reuse the exact same merge topology.

    ``coalesce_blocks``: the partial rows are KB-sized but inherit the
    input's block COUNT; Ray's sort-based groupby spawns tasks per input
    block, so hundreds of near-empty blocks would pay seconds of pure task
    overhead (measured: 16 s of shuffle on 800 rows from 100 blocks vs <1 s
    coalesced). Repartitioning the tiny rows first makes the wide step cost
    proportional to the data, not to the upstream block count.
    """
    return _merge_tree(partials, spec, (KEY_COL,), num_salts,
                       coalesce_blocks)


def merge_multi_partials(partials, spec: SketchSpec, num_salts: int = 8,
                         coalesce_blocks: int = 16):
    """merge_partials for multi-metric partial rows (METRIC_COL carried)."""
    return _merge_tree(partials, spec, (METRIC_COL, KEY_COL), num_salts,
                       coalesce_blocks)


def sketch_by_key(ds, spec: SketchSpec, value_col: str,
                  key: str | None = None,
                  weight_col: str | None = None,
                  num_salts: int = 8,
                  batch_size: int | None = None,
                  coalesce_blocks: int = 16):
    """Full pipeline: partials -> two-level canonical merge.

    Returns a Dataset of rows ``(key, sketch: binary, n: float64)`` — one per
    group (a single row with key "" when ``key is None``).
    """
    partials = ds.map_batches(
        make_partial_fn(spec, value_col, key, weight_col, num_salts),
        batch_format="pyarrow", batch_size=batch_size)
    return merge_partials(partials, spec, num_salts=num_salts,
                          coalesce_blocks=coalesce_blocks)


def summarize(ds, spec: SketchSpec, key_name: str = KEY_COL):
    """Query stage: expand each merged sketch row into result columns.

    The iterrows loop is deliberate: the input is the MERGED sketch table
    (one row per key — tens of rows), never per-batch partials; do not
    reuse this on row-counts proportional to the data."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, r in df.iterrows():
            sk = spec.from_bytes(r[SKETCH_COL])
            out = {key_name: r[KEY_COL], COUNT_COL: r[COUNT_COL]}
            out.update(spec.summarize(sk))
            rows.append(out)
        return pd.DataFrame(rows)

    return ds.map_batches(fn, batch_format="pandas")


def sketch_aggregate_fn(spec: SketchSpec, value_col: str,
                        name: str | None = None):
    """Adapter: any Sketch -> a Ray Data ``AggregateFn`` over ``value_col``.

    The accumulator is the sketch's byte encoding (Arrow-friendly), so this
    composes with ``Dataset.aggregate`` / ``groupby().aggregate`` directly.
    ``sketch_by_key`` is preferred for big inputs because its map-side
    combine pre-shrinks the shuffle; this adapter is the drop-in generic
    form (mirrors the UDAF contract in SURVEY.md §1.2). ``value_col`` is
    required: under groupby the accumulated block also carries the key
    column, so guessing a column would silently sketch the keys.
    """
    from ray.data.aggregate import AggregateFn

    def accumulate_block(acc: bytes, block) -> bytes:
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        sk = spec.from_bytes(acc)
        vals = tbl[value_col].to_numpy(zero_copy_only=False)
        sk.update_batch(vals)
        return sk.to_bytes()

    return AggregateFn(
        init=lambda k: spec.factory().to_bytes(),
        merge=lambda a, b: spec.merge_bytes([a, b]).to_bytes(),
        accumulate_block=accumulate_block,
        finalize=lambda a: a,
        name=name or f"{spec.name}({value_col})",
    )


def hash_bucketed_group_agg(ds, group_cols, aggs: dict,
                            coarse: int | None = None,
                            n_rows: int | None = None):
    """Vectorized many-group aggregation: per-batch pandas partials +
    hash-bucketed vectorized combine.

    Ray's sort-based ``groupby(cols).aggregate(...)`` pays ~1 ms of
    Python per DISTINCT GROUP (measured 170 s for 200k groups on this
    box) — fine for tens of groups, pathological for pair-dedup-shaped
    outputs with one group per candidate pair. This helper keeps every
    step vectorized: each batch is pre-aggregated with a C-level pandas
    groupby (map-side combine), partial rows are hash-bucketed on the
    group key, and each bucket folds its partials with one more pandas
    groupby — cost scales with ROWS, not groups, and no group's data
    spans two tasks.

    ``aggs`` maps ``out_name -> (value_col, how)`` with how in
    ``count | sum | min | max`` (count ignores value_col). Returns a
    Dataset of one row per distinct ``group_cols`` combination.
    """
    import pandas as pd
    import pyarrow as pa

    from ..functions.hashing import hash64, splitmix64
    from .partitioning import coarse_bucket_count

    if coarse is None:
        coarse = coarse_bucket_count(ds, n_rows=n_rows,
                                     rows_per_bucket=262144,
                                     what="hash_bucketed_group_agg")
    group_cols = list(group_cols)
    # partial aggregation per batch; 'count' partials combine by sum
    part_how = {o: (c, {"count": "sum"}.get(h, h))
                for o, (c, h) in aggs.items()}

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(group_cols, sort=False)
        outs = {}
        for out, (col, how) in aggs.items():
            outs[out] = (g.size() if how == "count"
                         else g[col].agg(how))
        p = pd.DataFrame(outs).reset_index()
        h = np.zeros(len(p), dtype=np.uint64)
        for c in group_cols:
            with np.errstate(over="ignore"):
                h = splitmix64(h ^ hash64(p[c].to_numpy()))
        p["_gbucket"] = (h % np.uint64(coarse)).astype(np.int32)
        return p

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(group_cols, sort=False)
        outs = {out: g[out].agg(how)
                for out, (_c, how) in part_how.items()}
        return pd.DataFrame(outs).reset_index()

    return (ds.map_batches(partial, batch_format="pandas")
            .groupby("_gbucket")
            .map_groups(combine, batch_format="pandas"))
