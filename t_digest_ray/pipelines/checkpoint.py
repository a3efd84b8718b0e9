"""Checkpointed, resumable sketch aggregation (SURVEY.md §4 "checkpoint /
resume"; north_star: "a killed run resumes without recomputing completed
partitions").

Layout
------
One parquet file per completed input partition::

    {ckpt_dir}/part-{partition_id}.parquet

with rows ``(partition_id, input_path, key, sketch: binary, n: float64,
n_rows: int64, wall_ms: float64, spec_name, engine_version)`` — the
serialized per-key partial sketches of that partition plus lineage + metrics.
``partition_id`` is a stable content-independent id derived from the input
path, so retries and re-runs map to the same file.

Execution
---------
Still a streaming Ray Data pipeline (NOT a driver loop): a dataset OF FILES,
one task per cluster CPU, each taking its share of the incomplete files in
turn::

    from_items(incomplete files)
      -> map_batches(per file: read -> per-key sketches -> atomic write,
                     batch_size=ceil(files / CPUs))
      -> tiny ack rows, one per file

Each partition's sketch is computed *inside one task* with a fixed reader
chunking (``ParquetFile.iter_batches(batch_size)``), so it is a pure
function of that file's bytes — independent of which other files are in the
run, of Ray's block layout, and of retries. This is what makes a resumed
run byte-identical to a clean run (verified by SIGKILL-mid-run + resume: an
earlier design that built partials in global ``map_batches`` and merged per
partition produced plan-dependent batch boundaries and only
within-tolerance — not byte — equality).

Atomicity: each partition's file is written to ``.tmp-{uuid}`` and
``os.rename``d into place — a killed run leaves only complete files plus
ignorable tmp garbage, so resume = "list part-*.parquet, skip those ids".
The final answer is a second tiny pipeline over the checkpoint rows
(canonical merge by key, the analogue of the reference's one-shot
``MergingDigest.add(List)``, MergingDigest.java:314-357).

At 100 TB: partitions are input files (~1 GB each), the checkpoint rows are
KBs per partition, and the resume scan is a metadata-only directory listing.
"""

from __future__ import annotations

import os
import time
import uuid
from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..stages.aggregate import KeyedSketches, merge_partials, summarize
from ..stages.partitioning import cluster_cpus
from ..state.protocol import SketchSpec

ENGINE_VERSION = "0.1.0"

# Partition-id scheme version, stamped into every checkpoint dir. The id
# format changed once (basename -> basename-pathhash); resuming a dir
# written under another scheme would silently reprocess every file under
# new ids and then double-count both generations at finalize (ADVICE r02)
# — so mismatched / unstamped non-empty dirs are refused, never migrated
# silently.
CKPT_FORMAT = "pid-basename-pathhash-v2"
_FORMAT_FILE = "CKPT_FORMAT"

CKPT_SCHEMA_COLS = ["partition_id", "input_path", "key", "sketch", "n",
                    "n_rows", "wall_ms", "spec_name", "engine_version"]


def _check_format(ckpt_dir: str, create: bool) -> None:
    """Verify the dir's stamped partition-id scheme matches this code.

    ``create=True`` stamps a fresh/unstamped-and-empty dir; a dir that
    already holds part files without a stamp predates the marker and is
    refused (its ids cannot be trusted to match the current scheme)."""
    marker = os.path.join(ckpt_dir, _FORMAT_FILE)
    if os.path.exists(marker):
        with open(marker) as f:
            found = f.read().strip()
        if found != CKPT_FORMAT:
            raise ValueError(
                f"checkpoint dir {ckpt_dir} was written with partition-id "
                f"scheme {found!r}; this engine uses {CKPT_FORMAT!r}. "
                "Resuming would re-run every file under new ids and "
                "double-count at finalize — use a fresh ckpt_dir.")
        return
    has_parts = any(f.startswith("part-") and f.endswith(".parquet")
                    for f in os.listdir(ckpt_dir)) \
        if os.path.isdir(ckpt_dir) else False
    if has_parts:
        raise ValueError(
            f"checkpoint dir {ckpt_dir} has part files but no "
            f"{_FORMAT_FILE} marker (written before format versioning); "
            "refusing to resume — use a fresh ckpt_dir.")
    if create:
        tmp = f"{marker}.tmp-{uuid.uuid4().hex[:8]}"
        with open(tmp, "w") as f:
            f.write(CKPT_FORMAT + "\n")
        os.rename(tmp, marker)


def partition_id_for(path: str) -> str:
    """Stable id for an input file: basename without extension plus a short
    hash of the normalized full path. The hash disambiguates the standard
    sharded layout ``dir1/part-0.parquet`` vs ``dir2/part-0.parquet`` (same
    basename, different shards) while staying content-independent, so
    retries and re-runs of the same path land on the same id."""
    import hashlib

    base = os.path.basename(path).rsplit(".", 1)[0]
    digest = hashlib.sha1(os.path.normpath(path).encode()).hexdigest()[:8]
    return f"{base}-{digest}"


def _part_file(ckpt_dir: str, pid: str) -> str:
    return os.path.join(ckpt_dir, f"part-{pid}.parquet")


def completed_partitions(ckpt_dir: str) -> set[str]:
    """partition_ids with a finished checkpoint file."""
    if not os.path.isdir(ckpt_dir):
        return set()
    out = set()
    for f in os.listdir(ckpt_dir):
        if f.startswith("part-") and f.endswith(".parquet"):
            out.add(f[len("part-"):-len(".parquet")])
    return out


def _atomic_write(table: pa.Table, dest: str) -> None:
    tmp = f"{dest}.tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp)
    os.rename(tmp, dest)


@dataclass
class CheckpointRun:
    """Result of one driver invocation of ``run_checkpointed``."""

    ckpt_dir: str
    n_partitions: int
    n_completed_before: int
    n_processed: int


def run_checkpointed(input_files: list[str], spec: SketchSpec,
                     value_col: str, key: str | None, ckpt_dir: str,
                     batch_size: int = 65536,
                     read_columns: list[str] | None = None) -> CheckpointRun:
    """Process every input file not yet checkpointed; idempotent.

    Call again after a crash — completed partitions are skipped by the
    directory listing, in-flight ones were never renamed into place.
    """
    import ray.data as rd

    os.makedirs(ckpt_dir, exist_ok=True)
    _check_format(ckpt_dir, create=True)
    done = completed_partitions(ckpt_dir)
    todo = [f for f in input_files if partition_id_for(f) not in done]
    if not todo:
        return CheckpointRun(ckpt_dir, len(input_files), len(done), 0)

    if read_columns is None:
        read_columns = [value_col] if key is None else [value_col, key]
    cols = list(read_columns)

    def process_file(batch: pa.Table) -> pa.Table:
        acks = []
        for path in batch["path"].to_pylist():
            t0 = time.perf_counter()
            pf = pq.ParquetFile(path)
            acc = KeyedSketches(spec, key or "key")
            n_rows = 0
            # fixed chunking (a pure function of the file) keeps the result
            # independent of the global plan / retries / other files
            for rb in pf.iter_batches(batch_size=batch_size, columns=cols):
                n_rows += rb.num_rows
                acc.add(None if key is None else rb.column(key),
                        {value_col: rb.column(value_col)})
            part = acc.flush().sort_by("key")
            pid = partition_id_for(path)
            m = part.num_rows
            wall = (time.perf_counter() - t0) * 1000
            # a zero-row input file still writes a schema-correct empty
            # part, so the partition counts as done (otherwise resume
            # re-hits and re-fails it forever)
            table = pa.table({
                "partition_id": pa.array([pid] * m, pa.string()),
                "input_path": pa.array([path] * m, pa.string()),
                "key": part["key"],
                "sketch": part["sketch"],
                "n": part["n"],
                "n_rows": pa.array([n_rows] * m, pa.int64()),
                "wall_ms": pa.array([wall / max(m, 1)] * m, pa.float64()),
                "spec_name": pa.array([spec.name] * m, pa.string()),
                "engine_version": pa.array([ENGINE_VERSION] * m, pa.string()),
            })
            _atomic_write(table, _part_file(ckpt_dir, pid))
            acks.append((pid, m))
        return pa.table({
            "partition_id": pa.array([a[0] for a in acks]),
            "n_keys": pa.array([a[1] for a in acks], type=pa.int64()),
        })

    # one task per CPU, so Ray's fixed cost per task is paid once per CPU
    ds = rd.from_items([{"path": f} for f in todo])
    acks = ds.map_batches(process_file, batch_format="pyarrow",
                          batch_size=-(-len(todo) // cluster_cpus()))
    n_processed = acks.count()
    return CheckpointRun(ckpt_dir, len(input_files), len(done), n_processed)


def finalize_checkpointed(ckpt_dir: str, spec: SketchSpec,
                          key_name: str = "key", raw: bool = False):
    """Merge all checkpointed partition sketches into final per-key results.

    Returns a Ray Dataset of summary rows (same shape as
    ``pipelines.quantiles`` outputs), or — with ``raw=True`` — the merged
    sketch rows ``(key, sketch, n)`` before summarization (for validation
    pipelines that need the sketch itself). The input here is tiny — one
    row per (partition, key) — so this is a metadata-scale pipeline.
    """
    import ray.data as rd

    _check_format(ckpt_dir, create=False)
    files = [_part_file(ckpt_dir, pid)
             for pid in sorted(completed_partitions(ckpt_dir))]
    if not files:
        raise FileNotFoundError(f"no checkpoints in {ckpt_dir}")
    ds = rd.read_parquet(files, columns=["key", "sketch", "n"])
    merged = merge_partials(ds, spec)
    if raw:
        return merged
    return summarize(merged, spec, key_name=key_name)


def checkpoint_manifest(ckpt_dir: str) -> pd.DataFrame:
    """Lineage + metrics across all completed partitions (driver-side)."""
    files = [_part_file(ckpt_dir, pid)
             for pid in sorted(completed_partitions(ckpt_dir))]
    if not files:
        return pd.DataFrame(columns=CKPT_SCHEMA_COLS)
    return pq.read_table(files).to_pandas()


def resumable_map_write(input_files: list[str], transform_fn, out_dir: str,
                        columns: list[str] | None = None,
                        reader_batch_size: int = 65536):
    """Generic resumable partitioned map sink: ``transform_fn`` over each
    input parquet file, one output partition per input file, finished
    partitions skipped on re-run (the row-transform analogue of
    ``run_checkpointed``; north_star "a killed run resumes without
    recomputing completed partitions" for map-style jobs, not just sketch
    aggregation).

    Layout: ``{out_dir}/part-{partition_id}.parquet`` with the same stable
    path-derived partition ids and the same atomicity contract (tmp file +
    ``os.rename``; a killed run leaves only complete partitions). Each
    partition streams through its file in ``reader_batch_size``-row chunks
    — ``transform_fn: pa.Table -> pa.Table`` is applied per chunk and the
    output is appended to one ParquetWriter, so worker memory is bounded
    by the chunk, never the file.

    Still a Ray Data pipeline (a dataset OF incomplete files, one task
    each), so the work distributes, retries map to the same partition id,
    and the returned ack rows ``(partition_id, input_path, n_rows,
    wall_ms)`` are a tiny Dataset the caller can count or persist.
    """
    import ray.data as rd

    os.makedirs(out_dir, exist_ok=True)
    _check_format(out_dir, create=True)
    done = completed_partitions(out_dir)
    todo = [f for f in input_files if partition_id_for(f) not in done]

    if not todo:
        return rd.from_items([])

    def process_file(batch: pa.Table) -> pa.Table:
        path = batch["path"][0].as_py()
        pid = partition_id_for(path)
        dest = _part_file(out_dir, pid)
        tmp = f"{dest}.tmp-{uuid.uuid4().hex[:8]}"
        t0 = time.monotonic()
        pf = pq.ParquetFile(path)
        writer = None
        n_out = 0
        try:
            for chunk in pf.iter_batches(batch_size=reader_batch_size,
                                         columns=columns):
                out = transform_fn(pa.Table.from_batches([chunk]))
                if writer is None:
                    writer = pq.ParquetWriter(tmp, out.schema)
                writer.write_table(out)
                n_out += out.num_rows
            if writer is None:  # empty input: emit the transformed schema
                sch = pf.schema_arrow
                if columns is not None:
                    sch = pa.schema([sch.field(c) for c in columns])
                out = transform_fn(sch.empty_table())
                writer = pq.ParquetWriter(tmp, out.schema)
                writer.write_table(out)
        finally:
            if writer is not None:
                writer.close()
        os.rename(tmp, dest)
        return pa.table({
            "partition_id": [pid],
            "input_path": [path],
            "n_rows": pa.array([n_out], type=pa.int64()),
            "wall_ms": pa.array([(time.monotonic() - t0) * 1e3]),
        })

    files_ds = rd.from_items([{"path": f} for f in sorted(todo)])
    return files_ds.map_batches(process_file, batch_size=1,
                                batch_format="pyarrow")


def resumable_text_write(input_files: list[str], out_dir: str,
                         fmt: str = "jsonl",
                         transform_fn=None,
                         columns: list[str] | None = None,
                         reader_batch_size: int = 65536):
    """Resumable partitioned TEXT export (the CSV/JSONL sink twin of
    ``resumable_map_write``; reference parity: the Java driver's CSV
    result sink, IIDgenerator.java write paths): one ``part-{pid}.csv``
    / ``.jsonl`` per input parquet file, finished partitions skipped on
    re-run, tmp + ``os.rename`` atomicity.

    Chunk-streamed: Arrow CSVWriter appends record batches (header once);
    JSONL appends pandas ``to_json(lines=True)`` chunk bytes — worker
    memory is bounded by the chunk, never the file. ``transform_fn``
    (optional, ``pa.Table -> pa.Table``) runs per chunk before
    serialization.
    """
    import ray.data as rd

    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"fmt must be 'jsonl' or 'csv', got {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    _check_format(out_dir, create=True)
    ext = f".{fmt}"
    done = {f[len("part-"):-len(ext)] for f in os.listdir(out_dir)
            if f.startswith("part-") and f.endswith(ext)}
    todo = [f for f in input_files if partition_id_for(f) not in done]
    if not todo:
        return rd.from_items([])

    def process_file(batch: pa.Table) -> pa.Table:
        from pyarrow import csv as pacsv

        path = batch["path"][0].as_py()
        pid = partition_id_for(path)
        dest = os.path.join(out_dir, f"part-{pid}{ext}")
        tmp = f"{dest}.tmp-{uuid.uuid4().hex[:8]}"
        t0 = time.monotonic()
        pf = pq.ParquetFile(path)
        n_out = 0
        writer = None
        try:
            with open(tmp, "wb") as sink:
                for chunk in pf.iter_batches(
                        batch_size=reader_batch_size, columns=columns):
                    out = pa.Table.from_batches([chunk])
                    if transform_fn is not None:
                        out = transform_fn(out)
                    if fmt == "csv":
                        if writer is None:
                            writer = pacsv.CSVWriter(sink, out.schema)
                        writer.write(out)
                    elif out.num_rows:
                        # lines=True emits no trailing newline — append
                        # one so the next chunk starts a fresh record
                        data = out.to_pandas().to_json(
                            orient="records", lines=True)
                        sink.write(data.encode("utf-8"))
                        if not data.endswith("\n"):
                            sink.write(b"\n")
                    n_out += out.num_rows
                if writer is not None:
                    writer.close()
                    writer = None
        finally:
            if writer is not None:
                writer.close()
        os.rename(tmp, dest)
        return pa.table({
            "partition_id": [pid],
            "input_path": [path],
            "n_rows": pa.array([n_out], type=pa.int64()),
            "wall_ms": pa.array([(time.monotonic() - t0) * 1e3]),
        })

    files_ds = rd.from_items([{"path": f} for f in sorted(todo)])
    return files_ds.map_batches(process_file, batch_size=1,
                                batch_format="pyarrow")


PACK_FORMAT_FILE = "PACK_FORMAT"


def write_packed_shards(ds, order_col: str, weight_col: str, budget: int,
                        out_dir: str, carry_cols: tuple[str, ...] = (),
                        shards_per_partition: int = 64,
                        n_buckets: int | None = None,
                        order_range: tuple[int, int] | None = None):
    """Resumable training-shard writer: no-straddle pack (see
    ``curation.greedy_pack_shards``) + one parquet partition per
    ``shards_per_partition`` consecutive shards, finished partitions
    skipped on re-run.

    The packing is bit-deterministic at any parallelism, so a re-run
    recomputes the identical shard assignment and only writes the
    partitions a killed run didn't finish (tmp + ``os.rename``
    atomicity: a partition either exists complete or not at all). The
    packing PARAMETERS are stamped into ``{out_dir}/PACK_FORMAT`` —
    resuming with a different budget / partition width would silently
    interleave two incompatible layouts, so a mismatch is refused (same
    contract as the sketch checkpoint's format marker).

    Returns a tiny ack Dataset ``(partition_id, n_rows, n_shards,
    wall_ms)`` — one row per partition written THIS run.
    """
    from .curation import greedy_pack_shards

    spp = int(shards_per_partition)
    fmt = f"packed-shards-v1 budget={int(budget)} spp={spp}"
    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, PACK_FORMAT_FILE)
    if os.path.exists(marker):
        with open(marker) as f:
            found = f.read().strip()
        if found != fmt:
            raise ValueError(
                f"pack dir {out_dir} was written as {found!r}; this call "
                f"is {fmt!r}. Mixing layouts would interleave incompatible "
                "shards — use a fresh out_dir.")
    else:
        if any(f.startswith("part-") and f.endswith(".parquet")
               for f in os.listdir(out_dir)):
            raise ValueError(
                f"pack dir {out_dir} has part files but no "
                f"{PACK_FORMAT_FILE} marker; refusing to resume.")
        with open(marker, "w") as f:
            f.write(fmt + "\n")

    done = np.sort(np.array(
        [int(f[5:-8]) for f in os.listdir(out_dir)
         if f.startswith("part-") and f.endswith(".parquet")],
        dtype=np.int64))

    packed = greedy_pack_shards(ds, order_col, weight_col, budget,
                                carry_cols=carry_cols, n_buckets=n_buckets,
                                order_range=order_range)

    def tag_and_skip(batch: pa.Table) -> pa.Table:
        pid = (batch["shard_id"].to_numpy(zero_copy_only=False)
               // spp).astype(np.int64)
        batch = batch.append_column("_pid", pa.array(pid))
        if len(done):
            batch = batch.filter(pa.array(~np.isin(pid, done)))
        return batch

    cols = [order_col, *carry_cols, weight_col, "shard_id"]

    def write_group(g) -> pa.Table:
        t0 = time.monotonic()
        pid = int(g["_pid"].iloc[0])
        dest = os.path.join(out_dir, f"part-{pid:09d}.parquet")
        if os.path.exists(dest):            # raced re-run already wrote it
            return pa.table({"partition_id": pa.array([], type=pa.int64()),
                             "n_rows": pa.array([], type=pa.int64()),
                             "n_shards": pa.array([], type=pa.int64()),
                             "wall_ms": pa.array([], type=pa.float64())})
        g = g.sort_values(order_col, kind="stable")
        tmp = f"{dest}.tmp-{uuid.uuid4().hex[:8]}"
        pq.write_table(pa.Table.from_pandas(g[cols], preserve_index=False),
                       tmp)
        os.rename(tmp, dest)
        return pa.table({
            "partition_id": pa.array([pid], type=pa.int64()),
            "n_rows": pa.array([len(g)], type=pa.int64()),
            "n_shards": pa.array([g["shard_id"].nunique()],
                                 type=pa.int64()),
            "wall_ms": pa.array([(time.monotonic() - t0) * 1e3]),
        })

    return (packed.map_batches(tag_and_skip, batch_format="pyarrow")
            .groupby("_pid")
            .map_groups(write_group, batch_format="pandas"))


SORT_FORMAT_FILE = "SORT_FORMAT"


def sorted_range_write(ds, value_col: str, out_dir: str,
                       n_partitions: int,
                       carry_cols: tuple[str, ...] = (),
                       compression: float = 200.0):
    """Globally-sorted resumable partitioned sink (the TeraSort shape):
    t-digest cutpoints range-partition the rows into ~equal disjoint
    value ranges, each range is sorted locally and written as one atomic
    parquet partition — reading ``part-0000.., part-0001..`` in order
    yields the full dataset in global ``value_col`` order, with no
    all-to-all sort of the data (only KB sketch rows shuffle for the
    cutpoints; the rows move ONCE, to their range).

    Resume correctness: the digest (and so the cutpoints) is merge-order
    dependent, so a re-run must not recompute it — the cutpoints are
    STAMPED into ``{out_dir}/SORT_FORMAT`` (exact float64s via JSON
    repr round-trip) on the first run and REUSED on resume; finished
    partitions are skipped, so partition boundaries stay aligned.
    Mismatched value_col / n_partitions is refused.

    Returns an ack Dataset ``(partition_id, n_rows, vmin, vmax,
    wall_ms)`` — one row per partition written THIS run.
    """
    import json

    from .curation import quantile_range_partition, range_cutpoints

    os.makedirs(out_dir, exist_ok=True)
    marker = os.path.join(out_dir, SORT_FORMAT_FILE)
    n_partitions = int(n_partitions)
    if os.path.exists(marker):
        with open(marker) as f:
            m = json.load(f)
        if m["value_col"] != value_col or \
                int(m["n_partitions"]) != n_partitions or \
                tuple(m.get("carry_cols", ())) != tuple(carry_cols):
            raise ValueError(
                f"sort dir {out_dir} was written for "
                f"({m['value_col']!r}, {m['n_partitions']}, "
                f"{tuple(m.get('carry_cols', ()))}); this call is "
                f"({value_col!r}, {n_partitions}, {tuple(carry_cols)}) "
                "— use a fresh out_dir.")
        cuts = np.array(m["cutpoints"], dtype=np.float64)
    else:
        if any(f.startswith("part-") and f.endswith(".parquet")
               for f in os.listdir(out_dir)):
            raise ValueError(
                f"sort dir {out_dir} has part files but no "
                f"{SORT_FORMAT_FILE} manifest; refusing to resume.")
        cuts = range_cutpoints(ds, value_col, n_partitions,
                               compression=compression)
        with open(marker, "w") as f:
            json.dump({"value_col": value_col,
                       "n_partitions": n_partitions,
                       "carry_cols": list(carry_cols),
                       "cutpoints": list(map(float, cuts))}, f)

    done = np.sort(np.array(
        [int(f[5:-8]) for f in os.listdir(out_dir)
         if f.startswith("part-") and f.endswith(".parquet")],
        dtype=np.int64))

    assigned = quantile_range_partition(
        ds, value_col, n_partitions, cuts=cuts)

    def skip_done(batch: pa.Table) -> pa.Table:
        if not len(done):
            return batch
        pid = batch["partition_id"].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(~np.isin(pid, done)))

    cols = [value_col, *carry_cols]

    def write_group(g) -> pa.Table:
        t0 = time.monotonic()
        pid = int(g["partition_id"].iloc[0])
        dest = os.path.join(out_dir, f"part-{pid:06d}.parquet")
        if os.path.exists(dest):
            return pa.table({"partition_id": pa.array([], type=pa.int64()),
                             "n_rows": pa.array([], type=pa.int64()),
                             "vmin": pa.array([], type=pa.float64()),
                             "vmax": pa.array([], type=pa.float64()),
                             "wall_ms": pa.array([], type=pa.float64())})
        g = g.sort_values(value_col, kind="stable")
        tmp = f"{dest}.tmp-{uuid.uuid4().hex[:8]}"
        pq.write_table(pa.Table.from_pandas(g[cols], preserve_index=False),
                       tmp)
        os.rename(tmp, dest)
        v = g[value_col].to_numpy()
        return pa.table({
            "partition_id": pa.array([pid], type=pa.int64()),
            "n_rows": pa.array([len(g)], type=pa.int64()),
            "vmin": pa.array([float(v[0])]),
            "vmax": pa.array([float(v[-1])]),
            "wall_ms": pa.array([(time.monotonic() - t0) * 1e3]),
        })

    return (assigned.map_batches(skip_done, batch_format="pyarrow")
            .groupby("partition_id")
            .map_groups(write_group, batch_format="pandas"))


def compact_shards(src_dir: str, dest_dir: str, target_files: int,
                   key: str, mix_cols: list[str]):
    """SMALL-FILE COMPACTION — the lakehouse maintenance operator:
    streaming-rewrite a directory of tiny parquet shards into
    ``target_files`` well-sized files (repartition + write, atomic and
    skipped once ``_SUCCESS`` exists: ``bucketed.write_partitioned``),
    then PROVE content equality with the order-invariant
    per-key table fingerprint (validation.table_fingerprint) of source
    vs destination — compaction must be a pure layout change, and the
    commutative checksum is exactly the tool that can certify that
    without sorting either side.

    Returns one pandas row per key: (key, n_rows, cs_hi, cs_lo,
    checksum_match, files_reduced)."""
    import os

    import ray.data as rd

    from ..stages.bucketed import write_partitioned
    from .validation import table_fingerprint

    src = rd.read_parquet(src_dir)
    write_partitioned(src.repartition(target_files), dest_dir)

    before = table_fingerprint(src, key, mix_cols).to_pandas()
    after = table_fingerprint(
        rd.read_parquet(dest_dir), key, mix_cols).to_pandas()

    n_src = len([f for f in os.listdir(src_dir)
                 if f.endswith(".parquet")])
    n_dst = len([f for f in os.listdir(dest_dir)
                 if f.endswith(".parquet")])
    m = before.merge(after, on=key, suffixes=("", "_a"))
    m["checksum_match"] = ((m["n_rows"] == m["n_rows_a"])
                           & (m["cs_hi"] == m["cs_hi_a"])
                           & (m["cs_lo"] == m["cs_lo_a"]))
    m["files_reduced"] = bool(n_dst <= max(target_files, 1)
                              and n_dst <= n_src)
    return m[[key, "n_rows", "cs_hi", "cs_lo", "checksum_match",
              "files_reduced"]]


def incremental_view_refresh(ds, key: str, ts_col: str, value: str,
                             base_days: int, cache_root: str,
                             cache_tag: str) -> pd.DataFrame:
    """Incremental materialized-view maintenance for a distributive
    aggregate (per-key COUNT + SUM of cents): the BASE window (epoch
    day < min_day + ``base_days``) is aggregated once and PERSISTED
    (atomic ``_SUCCESS`` directory, the checkpoint discipline); every
    refresh aggregates only the DELTA window and folds it into the
    stored base — the view maintenance identity of distributive
    aggregates (count/sum merge by addition), which is why a daily
    refresh over 100 TB touches one day, not the table.

    Proof-carrying output: the merged view is compared against a full
    recompute in-row (``matches_full`` must be 1 everywhere) — the same
    gate style as compaction_fingerprint_check. Returns one row per
    key: n_rows, sum_cents, matches_full."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    from ray.data.aggregate import Sum

    def parts(lo_day: int | None, hi_day: int | None):
        def fn(b: pa.Table) -> pa.Table:
            ts = b[ts_col].combine_chunks()
            us = pc.cast(pc.cast(ts, pa.timestamp("us")),
                         pa.int64()).to_numpy(zero_copy_only=False)
            day = us // 86_400_000_000
            v = b[value].to_numpy(zero_copy_only=False)
            cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
            m = np.ones(len(day), dtype=bool)
            if lo_day is not None:
                m &= day >= lo_day
            if hi_day is not None:
                m &= day < hi_day
            df = pd.DataFrame({key: b[key].to_numpy(
                zero_copy_only=False)[m], "s": cents[m], "n": 1})
            g = df.groupby(key, as_index=False, sort=False).sum()
            g["s"] = g["s"].astype(np.int64)
            g["n"] = g["n"].astype(np.int64)
            return pa.Table.from_pandas(g, preserve_index=False)
        return fn

    def agg(lo, hi) -> pd.DataFrame:
        out = (ds.map_batches(parts(lo, hi), batch_format="pyarrow")
               .groupby(key)
               .aggregate(Sum("n", alias_name="n"),
                          Sum("s", alias_name="s"))
               .to_pandas())
        out["n"] = out["n"].astype(np.int64)
        out["s"] = out["s"].astype(np.int64)
        return out

    # split day from the data's own min (one cheap metadata-ish pass)
    def day_only(b: pa.Table) -> pa.Table:
        ts = b[ts_col].combine_chunks()
        us = pc.cast(pc.cast(ts, pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"d": pa.array(us // 86_400_000_000)})

    min_day = int(ds.map_batches(day_only,
                                 batch_format="pyarrow").min("d"))
    split = min_day + base_days

    base_dir = os.path.join(cache_root, f"ivm-{cache_tag}")
    marker = os.path.join(base_dir, "_SUCCESS")
    base_file = os.path.join(base_dir, "base.parquet")
    if not os.path.exists(marker):
        os.makedirs(base_dir, exist_ok=True)
        base = agg(None, split)
        pq.write_table(pa.Table.from_pandas(base,
                                            preserve_index=False),
                       base_file)
        with open(marker, "w") as f:
            f.write("ok")
    base = pq.read_table(base_file).to_pandas()

    delta = agg(split, None)
    merged = (pd.concat([base, delta], ignore_index=True)
              .groupby(key, as_index=False, sort=True).sum())

    full = agg(None, None).sort_values(key).reset_index(drop=True)
    merged = merged.sort_values(key).reset_index(drop=True)
    ok = ((merged[key] == full[key]).all()
          and (merged["n"] == full["n"]).all()
          and (merged["s"] == full["s"]).all())
    merged = merged.rename(columns={"n": "n_rows", "s": "sum_cents"})
    merged["matches_full"] = np.int64(1 if ok else 0)
    for c in ("n_rows", "sum_cents", "matches_full"):
        merged[c] = merged[c].astype(np.int64)
    return merged
