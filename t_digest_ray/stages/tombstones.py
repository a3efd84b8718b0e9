"""Positional delete vectors (merge-on-read deletes).

The deletion half of the lakehouse write path (Iceberg positional
deletes / Delta deletion vectors), complementing the CDC upsert
compaction in relational.latest_snapshot_stats: deletes are written as
a small SIDE FILE of deleted row ids — the base data is never
rewritten — and every subsequent scan applies the vector at read time.
Deleting 0.1% of a 100 TB table costs a KB-scale write instead of a
100 TB rewrite; a later compaction (stages/compaction) folds vectors
into the base when they accumulate.

Scan-side application is budget-switched like every small-side lookup
in this repo (stages/dedup.py:386): a vector within ``broadcast_budget``
ids (16 MB at the default) rides inside the map function, which Ray
puts in the object store once per operator (sorted array, searchsorted
membership — vectorized); a larger vector falls back to the
hash-partitioned anti join (relational.hash_semi_anti_join), which
never materializes either side.

The write is idempotent and atomic: ``deletes.parquet`` and its
``_SUCCESS`` marker go to a tmp sibling directory that is renamed into
place, so a write that dies halfway leaves nothing under ``dest``. The
vector is stored sorted so readers can binary-search it directly.
"""

from __future__ import annotations

import os
import shutil
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa

_DEFAULT_BROADCAST_BUDGET = 2_000_000


def write_delete_vector(dest: str, ids: np.ndarray,
                        id_col: str = "row_id") -> str:
    """Persist a sorted delete vector under ``dest/`` (idempotent)."""
    import pyarrow.parquet as pq

    if os.path.exists(os.path.join(dest, "_SUCCESS")):
        return dest
    tmp = f"{os.path.normpath(dest)}.tmp-{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp)
    arr = np.sort(np.unique(np.asarray(ids, dtype=np.int64)))
    pq.write_table(pa.table({id_col: pa.array(arr)}),
                   os.path.join(tmp, "deletes.parquet"))
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok")
    shutil.rmtree(dest, ignore_errors=True)  # a failed attempt's leftovers
    os.rename(tmp, dest)
    return dest


def read_delete_vector(dest: str, id_col: str = "row_id") -> np.ndarray:
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(dest, "deletes.parquet"),
                      columns=[id_col])
    return t[id_col].to_numpy(zero_copy_only=False)


def scan_with_deletes(ds, id_col: str, delete_dir: str,
                      broadcast_budget: int = _DEFAULT_BROADCAST_BUDGET):
    """Apply a positional delete vector at read time: rows whose
    ``id_col`` appears in the vector never leave the scan. Returns the
    filtered Dataset (all input columns)."""
    vec = read_delete_vector(delete_dir)
    if len(vec) <= broadcast_budget:
        def apply_deletes(b: pa.Table) -> pa.Table:
            ids = b[id_col].to_numpy(zero_copy_only=False)
            pos = np.clip(np.searchsorted(vec, ids), 0,
                          max(len(vec) - 1, 0))
            deleted = (np.zeros(len(ids), dtype=bool) if not len(vec)
                       else vec[pos] == ids)
            return b.filter(pa.array(~deleted))

        return ds.map_batches(apply_deletes, batch_format="pyarrow")

    # oversized vector: hash-partitioned anti join, nothing broadcast
    import ray.data as rd

    from ..pipelines.relational import hash_semi_anti_join

    sch = ds.schema()
    sch = getattr(sch, "base_schema", sch)
    cols = [c for c in sch.names if c != id_col]
    dv = rd.from_pandas(pd.DataFrame({id_col: vec}))
    return hash_semi_anti_join(ds, dv, id_col, cols, anti=True)
