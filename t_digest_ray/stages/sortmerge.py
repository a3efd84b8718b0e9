"""Range-partitioned sort-merge equi-join — the fourth join strategy.

The repo's join matrix, one strategy per data shape:

  broadcast      (relational.broadcast_join_count) — dimension side fits
                 one worker, shipped once via ray.put;
  hash shuffle   (relational.hash_join) — both sides big, one
                 union+groupby co-partition, unordered output;
  storage-bucket (stages/bucketed.py) — both sides big AND the join
                 repeats: pay one partitioned write, join with zero
                 runtime exchange;
  SORT-MERGE     (this module) — both sides big and the consumer wants
                 KEY-ORDERED output (merge-ops, range scans, grouped
                 writes downstream): range-partition both sides on
                 EQUI-DEPTH key boundaries, merge each range with a
                 two-pointer sorted join.

Boundary selection reuses the counting-pass selection machinery
(pipelines/selection.py): the n−1 equi-depth quantiles of the left
key are found without collecting anything, so range buckets carry
near-equal LEFT mass even under heavy key skew — the classic failing
mode of naive range partitioning. Bucket assignment is
``searchsorted(boundaries, key, side='left')`` on both sides (the same
rule, so co-partitioning is exact), and the per-bucket merge is a
vectorized sorted searchsorted-expand (duplicates on both sides
multiply, as in any inner join).

Output property the hash join cannot give: within every bucket rows
are emitted key-sorted, and bucket b's keys all precede bucket b+1's —
a total key order across the output block stream.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def sort_merge_join(left, right, on: str, left_cols, right_cols,
                    n_ranges: int = 8, types: dict | None = None):
    """Inner sort-merge join of two Datasets on an int64 key ``on``.
    Returns columns ``[on] + left_cols + right_cols``, key-ordered
    within and across range buckets."""
    from ..pipelines.quantiles import pct
    from ..pipelines.selection import selection_quantiles_by_key

    left_cols = list(left_cols)
    right_cols = list(right_cols)

    # equi-depth boundaries of the LEFT key via counting passes
    def keyed(b: pa.Table) -> pa.Table:
        return pa.table({"_all": pa.array(["all"] * len(b),
                                          type=pa.string()),
                         on: b[on]})

    qs = tuple(i / n_ranges for i in range(1, n_ranges))
    qt = selection_quantiles_by_key(left.map_batches(
        keyed, batch_format="pyarrow"), "_all", on, qs=qs,
        already_cents=True)
    bounds = np.array([int(qt[f"p{pct(q)}_cents"].iloc[0])
                       for q in qs], dtype=np.int64)

    types = dict(types) if types else {}
    for d, cs in ((left, [on] + left_cols), (right, right_cols)):
        cs = [c for c in cs if c not in types]
        if not cs:
            continue
        sch = d.schema()
        sch = getattr(sch, "base_schema", sch)
        if hasattr(sch, "field"):
            for c in cs:
                types[c] = sch.field(c).type
        else:
            by = dict(zip(sch.names, sch.types))
            for c in cs:
                t = by[c]
                types[c] = (pa.string() if t == object
                            else pa.from_numpy_dtype(t))

    def tag(side: int, own_cols):
        def fn(b: pa.Table) -> pa.Table:
            k = b[on].to_numpy(zero_copy_only=False)
            n = len(k)
            cols = {
                "rbucket": pa.array(
                    np.searchsorted(bounds, k, side="left")
                    .astype(np.int32)),
                on: b[on],
                "is_left": pa.array(np.full(n, side, dtype=np.int8)),
            }
            for c in left_cols + right_cols:
                cols[c] = (b[c] if c in own_cols
                           else pa.nulls(n, type=types[c]))
            return pa.table(cols)
        return fn

    tagged = (left.map_batches(tag(1, left_cols), batch_format="pyarrow")
              .union(right.map_batches(tag(0, right_cols),
                                       batch_format="pyarrow")))

    out_fields = [(on, types[on])] + [(c, types[c])
                                      for c in left_cols + right_cols]
    out_schema = pa.schema(out_fields)

    def merge_range(g: pd.DataFrame) -> pa.Table:
        l = (g[g["is_left"] == 1][[on] + left_cols]
             .sort_values(on, kind="stable"))
        r = (g[g["is_left"] == 0][[on] + right_cols]
             .sort_values(on, kind="stable"))
        lk = l[on].to_numpy()
        rk = r[on].to_numpy()
        # two-pointer merge, vectorized: for every left row, the run of
        # equal right keys [lo, hi); duplicates multiply
        lo = np.searchsorted(rk, lk, side="left")
        hi = np.searchsorted(rk, lk, side="right")
        cnt = hi - lo
        li = np.repeat(np.arange(len(lk)), cnt)
        starts = np.repeat(lo, cnt)
        # offset within each run: position minus the run's first slot
        runpos = np.arange(len(li)) - np.repeat(
            np.concatenate(([0], np.cumsum(cnt)[:-1])), cnt)
        ri = starts + runpos
        cols = {on: pa.array(lk[li], type=types[on])}
        for c in left_cols:
            cols[c] = pa.array(l[c].to_numpy()[li], type=types[c])
        for c in right_cols:
            cols[c] = pa.array(r[c].to_numpy()[ri], type=types[c])
        return pa.table(cols, schema=out_schema)

    return tagged.groupby("rbucket").map_groups(merge_range,
                                                batch_format="pandas")
