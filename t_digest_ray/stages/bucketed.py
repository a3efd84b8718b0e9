"""Storage-bucketed (shuffle-free) joins.

The technique that makes REPEATED fact-fact joins affordable at 100 TB:
pay one hash-partitioned write per table, then every subsequent join on
that key is a union of B independent per-bucket joins with NO runtime
exchange — the analogue of Hive/Iceberg bucketed tables and Spark's
storage-partitioned join. The reference has no joins at all
(SURVEY.md §2.4); this is engine infrastructure the graft adds.

Layout contract: ``<root>/<name>-<tag>/b=<i>/*.parquet`` where
``tag = sha1(normalized inputs | key | n_buckets | columns)`` (the same
full-path cache discipline as sources/warc.py:46 — ADVICE r4 item 1) and
bucket ``i = splitmix64(key) % n_buckets``. The table is written to a tmp
sibling with its ``_SUCCESS`` marker and renamed into place: partial writes
are invisible, re-runs skip finished tables — the resumable-output
contract.

The join itself: for each bucket, the probe side streams through
``map_batches`` tasks that each load the matching build-side bucket
from storage (never via the driver, never shipped per batch). Memory
per task = one bucket of the build side — sized by ``n_buckets``,
independent of cluster width. A task holds no CPU beyond its call, so
the B unioned branches cannot starve each other of CPUs.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa

from ..functions.hashing import splitmix64

_BUCKET_ROOT = "/tmp/tdr_buckets"


def _bucket_dir(root: str, name: str, sf_dir: str, key: str,
                n_buckets: int, columns: list[str]) -> str:
    tag = hashlib.sha1(
        f"{os.path.normpath(sf_dir)}|{key}|{n_buckets}|"
        f"{','.join(columns)}".encode()).hexdigest()[:10]
    return os.path.join(root, f"{name}-{tag}")


def write_partitioned(ds, dest: str, tag=None,
                      partition_col: str | None = None) -> str:
    """Write ``ds`` (through ``ds.map_batches(tag)`` when ``tag`` is
    given) as parquet under ``dest``, partitioned on ``partition_col``
    when one is given, atomically and idempotently.

    Skipped when ``dest/_SUCCESS`` exists. Otherwise the files and the
    marker go to a tmp sibling directory that is renamed into place, so
    the files of a run that died before its marker never join the layout
    (Ray names files per write: a rerun into ``dest`` itself would add a
    second set beside them)."""
    if os.path.exists(os.path.join(dest, "_SUCCESS")):
        return dest
    tmp = f"{os.path.normpath(dest)}.tmp-{uuid.uuid4().hex[:8]}"
    if tag is not None:
        ds = ds.map_batches(tag, batch_format="pyarrow")
    ds.write_parquet(tmp, partition_cols=[partition_col] if partition_col
                     else None)
    os.makedirs(tmp, exist_ok=True)  # an empty write may make no directory
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok")
    shutil.rmtree(dest, ignore_errors=True)  # a failed attempt's leftovers
    os.rename(tmp, dest)
    return dest


def write_bucketed(ds, dest: str, key: str, n_buckets: int) -> str:
    """Hash-bucket ``ds`` by ``key`` into ``dest/b=<i>/`` partitioned
    parquet (``write_partitioned``: atomic, skipped when
    ``dest/_SUCCESS`` exists)."""

    def tag(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False).astype(np.uint64)
        bkt = (splitmix64(k) % np.uint64(n_buckets)).astype(np.int32)
        return b.append_column("b", pa.array(bkt))

    return write_partitioned(ds, dest, tag, "b")


def _bucket_lookup(batch: pa.Table, build_dir: str, bucket: int,
                   probe_key: str, build_key: str,
                   build_cols: list[str]) -> pa.Table:
    """Inner-join one probe batch against build-side bucket ``bucket``,
    read from storage inside the task (storage-partitioned join: no
    shuffle, no driver materialization, no per-batch ship). The build
    side must be UNIQUE on its key (a PK/dimension side) — asserted at
    load."""
    import pyarrow.dataset as pads
    path = os.path.join(build_dir, f"b={bucket}")
    if os.path.isdir(path):
        t = pads.dataset(path, format="parquet").to_table(
            columns=[build_key] + build_cols)
    else:                             # empty bucket on the build side
        t = pa.table({c: pa.array([], type=pa.int64())
                      for c in [build_key] + build_cols})
    keys = t[build_key].to_numpy(zero_copy_only=False)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    assert len(np.unique(keys)) == len(keys), \
        "bucketed_join build side must be unique on its key"
    probe = batch[probe_key].to_numpy(zero_copy_only=False)
    pos = np.searchsorted(keys, probe)
    pos = np.clip(pos, 0, max(len(keys) - 1, 0))
    hit = np.zeros(len(probe), dtype=bool) if not len(keys) \
        else keys[pos] == probe
    out = batch.filter(pa.array(hit))
    take = pa.array(order[pos[hit]])
    for c in build_cols:
        out = out.append_column(c, t[c].take(take))
    return out


def bucketed_join(probe_sf_dir: str, probe_table: str, build_sf_dir: str,
                  build_table: str, probe_key: str, build_key: str,
                  probe_cols: list[str], build_cols: list[str],
                  n_buckets: int = 8, root: str = _BUCKET_ROOT):
    """Bucket both tables once (cached), then join bucket-by-bucket with
    zero shuffle. Returns one Dataset: the union of B per-bucket joins,
    each an independent streaming sub-pipeline (failed buckets retry
    alone — the resumable unit is the bucket)."""
    import ray.data

    def load(sf_dir, table, k, cols):
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, f"{table}.parquet"),
            columns=[k] + cols)
        dest = _bucket_dir(root, table, sf_dir, k, n_buckets, cols)
        return write_bucketed(ds, dest, k, n_buckets)

    probe_dir = load(probe_sf_dir, probe_table, probe_key, probe_cols)
    build_dir = load(build_sf_dir, build_table, build_key, build_cols)

    parts = []
    for i in range(n_buckets):
        pdir = os.path.join(probe_dir, f"b={i}")
        if not os.path.isdir(pdir):   # empty bucket on the probe side
            continue
        p = ray.data.read_parquet(pdir,
                                  columns=[probe_key] + probe_cols)
        parts.append(p.map_batches(
            _bucket_lookup, batch_format="pyarrow",
            fn_kwargs={
                "build_dir": build_dir, "bucket": i,
                "probe_key": probe_key, "build_key": build_key,
                "build_cols": build_cols}))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out
