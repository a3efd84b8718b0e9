"""Task and bucket sizing from metadata, never from Ray's defaults.

Map tasks: ``rows_per_task`` sizes the map-side combines, and
``read_parquet_per_file`` the registry reader, from source metadata only
— one task per input file, capped at ``MAX_ROWS_PER_TASK`` rows:

    rows per task = min(ceil(metadata rows / input files), 65,536)

Each task flushes one KB-sized sketch per key, so the partial rows and
the fold's fan-in grow with the task count; Ray's default read splits a
file into several blocks and so several tasks (``SplitBlocks(10)`` on an
8-file, 100k-page read: 80 tasks where 8 do). ``read_parquet_per_file``
turns the same number into ``override_num_blocks``, which keeps one
block per small file so Ray fuses the read with the next
``map_batches``. The cap splits large files again, unfused: with one
block for the 600k-row sf0.1 lineitem file, ``bench.py``'s
``q1_pricing_summary`` took 8.8 s against 3.6 s with the cap's ten
(medians of 5 and 6 runs, 8 Ray CPUs on one vCPU). The rule uses the
mean file size, so it bounds a task's rows only when the files are
about equal in size. Neither reads the CPU count.

Hash buckets: several operators group by ``hash(key) % n_buckets`` and
run one vectorized Python call per bucket: every analytics operator that goes
through ``stages.aggregate.bucketed_map_groups`` (the windows.py
per-user operators, graph.py's undirected operators, relational.py's
joins and per-key operators, stats.py's value-count, cutpoint and
per-key scan folds, curation.py's and textstats.py's keyed steps,
``hash_bucketed_group_agg``), plus dedup LSH banding
and embedding near-dup, which still bucket by hand. Each call
materializes one bucket as a pandas frame, so the bucket count must grow
with the input: a fixed count means a bucket holds ``input/constant`` rows and
OOMs at 100x scale.

``coarse_bucket_count`` derives the count from the input row count when
it is cheaply known (parquet / range sources expose metadata row counts
without executing the pipeline) or from an explicit ``n_rows`` hint:

    n_buckets = clamp(ceil(n_rows * fanout / rows_per_bucket),
                      min_buckets, max_buckets)

Per-group memory bound: with hash-uniform keys, the expected bucket is
``rows_per_bucket`` rows, so the group's pandas frame is about
``rows_per_bucket * bytes_per_row`` — callers pick ``rows_per_bucket``
such that this stays in the tens of MB (worker-heap scale, and under
this environment's ~32 MB allocator-recycling threshold). Hot-key skew
can exceed the expectation by the size of the hottest single key (e.g.
one LSH bucket of identical documents); that part is inherent to the
algorithm, not the bucket count.

When the row count is unknown (post-transform dataset, no hint), the
helper falls back to ``min_buckets`` — fine for tests and small jobs; at
real scale callers must pass ``n_rows`` (the job driver knows its input
size) and the fallback is logged. ``bucketed_map_groups`` floors a
known-size input at the cluster's CPU count (``cluster_cpus``), so a
small input pays a few pandas calls, not 256, and keeps the 256 floor
for an unknown size; dedup and ANN keep the 256 default.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa

logger = logging.getLogger(__name__)

# Modest floor so small jobs still spread over the cluster; bounded above
# so the groupby shuffle does not explode into millions of tiny blocks.
DEFAULT_MIN_BUCKETS = 256
DEFAULT_MAX_BUCKETS = 1 << 20
# One map task's row cap: the block size run_checkpointed and
# synthetic_pages_quantiles use.
MAX_ROWS_PER_TASK = 65536


def cheap_row_count(ds) -> int | None:
    """Row count from source metadata only (never executes the pipeline).

    Works for ``read_parquet`` / ``range`` datasets; returns None once a
    transform has been applied (Ray no longer knows the count)."""
    try:
        return ds._meta_count()
    except Exception:
        return None


def _task_rows(n_rows, n_files) -> int | None:
    """The rule: ``min(ceil(n_rows / n_files), MAX_ROWS_PER_TASK)``."""
    if not n_rows or not n_files:
        return None
    return min(-(-n_rows // n_files), MAX_ROWS_PER_TASK)


def rows_per_task(ds) -> int | None:
    """Rows per map task from source metadata only: the input's mean rows
    per file, capped at ``MAX_ROWS_PER_TASK``. None unless the dataset is
    a file read Ray still has metadata for (a transformed dataset,
    ``from_items``, ``from_arrow`` or ``range`` give None)."""
    try:
        n_files = len(ds.input_files())
    except Exception:
        return None
    return _task_rows(cheap_row_count(ds), n_files)


def read_parquet_per_file(paths, columns=None):
    """``rd.read_parquet`` with ``override_num_blocks`` from the files'
    parquet footers: ``ceil(rows / _task_rows)`` blocks, one per file when
    the files' mean is at most ``MAX_ROWS_PER_TASK`` rows. Ray splits
    every file by the same factor, so a file far above the mean gets
    blocks above the cap. The footers come from pyarrow, not from Ray's
    metadata, so the read is built once; an unreadable listing falls
    back to Ray's default split."""
    import pyarrow.parquet as pq
    import ray.data as rd

    try:
        frags = pq.ParquetDataset(paths).fragments
        n_rows = sum(f.metadata.num_rows for f in frags)
    except Exception:
        frags, n_rows = [], 0
    per_task = _task_rows(n_rows, len(frags))
    return rd.read_parquet(
        paths, columns=columns,
        override_num_blocks=None if per_task is None
        else -(-n_rows // per_task))


def coarse_bucket_count(ds=None, *, n_rows: int | None = None,
                        rows_per_bucket: int = 65536, fanout: int = 1,
                        min_buckets: int = DEFAULT_MIN_BUCKETS,
                        max_buckets: int = DEFAULT_MAX_BUCKETS,
                        what: str = "bucketed map_groups") -> int:
    """Bucket count targeting ``rows_per_bucket`` rows per group.

    ``fanout`` is the operator's row multiplication between the counted
    input and the grouped stream (e.g. LSH bands explode each doc into
    ``bands`` rows). Precedence: explicit ``n_rows``, then source
    metadata, then the ``min_buckets`` fallback (logged)."""
    if n_rows is None and ds is not None:
        n_rows = cheap_row_count(ds)
    if n_rows is None:
        logger.info(
            "%s: input row count unknown; using %d coarse buckets "
            "(pass n_rows for large inputs)", what, min_buckets)
        return min_buckets
    grouped_rows = max(int(n_rows), 0) * max(int(fanout), 1)
    n = -(-grouped_rows // max(int(rows_per_bucket), 1))  # ceil
    return int(min(max(n, min_buckets), max_buckets))


def cluster_cpus() -> int:
    """The running cluster's CPU count, or 8 before Ray is up."""
    import ray

    if not ray.is_initialized():
        return 8
    return int(ray.cluster_resources().get("CPU", 8))


def zorder_interleave(a: np.ndarray, b: np.ndarray,
                      bits: int = 8) -> np.ndarray:
    """Morton/Z-order bit interleave of two ``bits``-wide non-negative
    ints: ``z = sum_k ((a>>k & 1) << (2k+1) | (b>>k & 1) << (2k))``.
    Vectorized per bit; the multi-column clustering key behind
    Delta/Iceberg ``ZORDER BY`` — rows close in (a, b) land close in z,
    so contiguous z-ranges give 2-D data-skipping that a lexicographic
    sort cannot."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    z = np.zeros(len(a), dtype=np.int64)
    for k in range(bits):
        z |= ((a >> k) & 1) << (2 * k + 1)
        z |= ((b >> k) & 1) << (2 * k)
    return z


def zorder_partition_report(ds, a_col: str, b_col: str, bits: int = 8,
                            n_partitions: int = 16):
    """Z-ORDER CLUSTERING AUDIT: interleave two ``bits``-wide integer
    dimensions into a Morton key, split its range into ``n_partitions``
    equal-width z-ranges (a pure function of z — no sampling pass), and
    report each partition's row count and per-dimension min/max spans.
    Narrow spans on BOTH dimensions are what make the layout prunable
    for 2-D predicates — the audit a writer runs before committing a
    clustered table layout.

    One streaming pass: per-batch partials (n_partitions rows) ->
    ``groupby(partition)`` of fixed-width integers. Fully deterministic,
    value-hash checkable (the oracle replays the interleave as a shift
    expression)."""
    from ray.data.aggregate import Max, Min, Sum

    shift = 2 * bits - max(int(n_partitions - 1).bit_length(), 1)

    def partial(batch: pa.Table) -> pa.Table:
        a = batch[a_col].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[b_col].to_numpy(zero_copy_only=False).astype(np.int64)
        z = zorder_interleave(a, b, bits)
        part = z >> shift
        order = np.argsort(part, kind="stable")
        p, a, b = part[order], a[order], b[order]
        starts = np.flatnonzero(
            np.concatenate([[True], p[1:] != p[:-1]]))
        ends = np.append(starts[1:], len(p))
        return pa.table({
            "partition": pa.array(p[starts]),
            "n_rows": pa.array(ends - starts),
            "a_min": pa.array(np.minimum.reduceat(a, starts)),
            "a_max": pa.array(np.maximum.reduceat(a, starts)),
            "b_min": pa.array(np.minimum.reduceat(b, starts)),
            "b_max": pa.array(np.maximum.reduceat(b, starts))})

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("partition")
           .aggregate(Sum("n_rows", alias_name="n_rows"),
                      Min("a_min", alias_name="a_min"),
                      Max("a_max", alias_name="a_max"),
                      Min("b_min", alias_name="b_min"),
                      Max("b_max", alias_name="b_max")))

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({c: b[c].cast(pa.int64()) for c in
                         ("partition", "n_rows", "a_min", "a_max",
                          "b_min", "b_max")})

    return out.map_batches(fin, batch_format="pyarrow")
