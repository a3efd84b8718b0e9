"""Ray Data wiring for mergeable sketches.

The scalable topology (SURVEY.md §3, the Ray re-architecture of
MergingDigest.add(List) / MegaMergeTest's partial->merge pattern):

    ds.map_batches(partial_fn, batch_format="pyarrow")     # map-side combine:
        -> rows (key, sketch: binary, n: float64)          #   one sketch per
                                                           #   (task x key)
    .repartition(1).map_batches(fold, batch_size=None)     # the one exchange
    .map_batches(summarize)                                # query stage

Every partial sketch in the library comes from ONE accumulator,
``KeyedSketches``: the generic ``make_partial_fn``, the fused pages flagship
(``pipelines.quantiles.make_fused_partials``), the checkpointed per-file
partials (``pipelines.checkpoint.run_checkpointed``) and hand-built
single-row partials all feed it batches and flush its wire rows. It groups
each batch once, on Arrow dictionary codes, for every metric. For a plain
t-digest it keeps each key's raw values while they fit the digest's temp
buffer (what the digest itself would hold) and encodes every such key in
one pass at flush; a key that would pass the buffer, or gets weights,
replays its values into a ``TDigest`` and stays one.

Raw values never shuffle — only serialized sketches (KBs per row), so the
partial rows number (tasks x keys) and one task folds them all: every key's
partials go through ONE canonical N-way merge (concat all centroid arrays,
one sort, one cluster pass — MergingDigest.java:314-357 semantics). The
fold visits each key's partials in sorted byte order, so the result is a
function of the partial rows alone, never of the order Ray delivers them.
For t-digests the fold and the query stage are batched over keys
(``protocol.merge_bytes_many`` / ``summarize_many``: one segmented merge
and encode for every key; one compress and, for ``tdigest_spec``'s
quantiles and trimmed means, one segmented read for every summary), byte
for byte and value for value what the per-key calls give; other sketches
keep the per-key loop.

The analytics operators share the other exchange, ``bucketed_map_groups``:
raw rows hash-bucketed on typed key columns, one vectorized pandas fold per
bucket, most of them sorting the bucket once with ``_key_runs``. Its users
are ``hash_bucketed_group_agg``, the per-user operators in
``pipelines/windows.py``, the undirected half of ``pipelines/graph.py``,
``pipelines/relational.py`` (the hash, semi/anti and band joins and every
per-key operator there), ``pipelines/stats.py`` (the value-count and
cutpoint folds and every per-key scan there),
``pipelines/curation.py`` (the head-k samplers, the shard packers on
their order-range buckets, the line dedup and every per-key audit there)
and ``pipelines/textstats.py`` (the token, bigram and n-gram count
exchanges, the per-key vocabulary folds, the ExactSubstr gram and doc
exchanges and the global top-ks).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..state.protocol import SketchSpec, merge_bytes_many, summarize_many
from ..state.tdigest import (_buffer_cap, _plain_like, _seg_sort,
                             _unit_bytes, reject_nonfinite)
from .partitioning import (DEFAULT_MIN_BUCKETS, cheap_row_count,
                           cluster_cpus, coarse_bucket_count, rows_per_task)

SKETCH_COL = "sketch"
COUNT_COL = "n"
KEY_COL = "key"
METRIC_COL = "metric"
BUCKET_COL = "_bucket"  # bucketed_map_groups' sort key: bucket, hash bits
ROWS_PER_BUCKET = 262144  # ~10 MB pandas frame per bucket at ~40 B/row

_GLOBAL_KEY = ""  # constant key used when aggregating without a group key


class KeyedSketches:
    """Running per-(metric, key) sketches, fed one batch at a time: the
    library's single map-side combine.

    ``add`` groups a batch once for all its metrics: the key column is
    dictionary-encoded to int32 codes, one stable argsort of the codes and
    ``np.bincount`` bounds split every metric's values (and the weights)
    by key. Within a key the values keep their input order, so each sketch
    sees exactly what a per-key filter of the batch would give it. A batch
    visits its keys in sorted order; the flushed rows keep the order their
    (metric, key) was first seen in.

    For a plain t-digest spec (``tdigest._plain_like``) a key starts as a
    raw run: the value slices it was given, kept while their total fits
    the digest's temp buffer (``_buffer_cap``, 1,005 points at
    compression 100). Until the buffer fills, ``update_batch`` only
    appends to it, so those slices are the digest's whole state. A key
    that would pass the buffer, gets a slice of a whole buffer (the
    digest's bulk path) or gets weights becomes a sketch: a fresh
    ``spec.factory()`` replays its slices in order, one ``update_batch``
    each, which gives the state the per-key calls would have given, and
    the key stays a sketch. ``flush`` encodes every raw run at once (one
    sort on (key, value), then ``tdigest._unit_bytes``), so the common
    path builds no per-key object; a run holding a -0.0 replays and
    takes ``to_bytes()``. Other specs (KLL, priority, ...) make every key
    a sketch at once. A task holds at most one buffer of raw values per
    key.

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
        self._like = _plain_like(spec)
        # a raw run fits the digest's temp buffer and the unit table
        self._cap = 0 if self._like is None else min(
            self._like._temp_mean.size,
            _buffer_cap(self._like.public_compression))
        self._keys = None  # key values, by key id (first seen)
        self._metrics: dict = {}  # metric -> (id, key id -> slot or -1)
        # one slot per (metric, key), in first-seen order
        self._slot_metric = np.empty(0, dtype=np.int64)
        self._slot_key = np.empty(0, dtype=np.int64)
        self._n = np.empty(0, dtype=np.float64)
        self._raw = np.empty(0, dtype=np.int64)  # raw points; -1: sketch
        self._sketches: dict = {}  # slot -> sketch
        self._runs: list = []  # (values, slot per segment, segment lengths)

    def add(self, keys, values: dict, weights=None) -> None:
        """Update the sketches with one batch of Arrow columns: ``keys``,
        or None for the global key ""; ``values`` maps metric name -> value
        column; ``weights`` is optional per-row."""
        w = None if weights is None else weights.to_numpy(zero_copy_only=False)
        order = None
        if keys is None:
            rows = len(next(iter(values.values()))) if values else 0
            dictionary = pa.array([_GLOBAL_KEY])
            counts = np.array([rows], dtype=np.int64)
            by_key = np.zeros(1, dtype=np.int64)
        else:
            col = keys.combine_chunks() \
                if isinstance(keys, pa.ChunkedArray) else keys
            if col.null_count:
                raise ValueError(
                    f"group key column {self._key_name!r} has "
                    f"{col.null_count} null value(s); fill or filter them "
                    "before sketching")
            enc = pc.dictionary_encode(col)
            self._key_type = enc.type.value_type
            dictionary = enc.dictionary
            codes = enc.indices.to_numpy(zero_copy_only=False)
            # a stable sort of 16-bit codes is a radix sort
            order = np.argsort(codes.astype(np.uint16) if len(dictionary)
                               <= 1 << 16 else codes, kind="stable")
            counts = np.bincount(codes, minlength=len(dictionary))
            by_key = pc.sort_indices(dictionary).to_numpy()
            by_key = by_key[counts[by_key] > 0]
            if w is not None:
                w = w[order]
        key_ids = self._key_ids(dictionary)
        # segments in code order, which is the order of the sorted values
        segs = np.flatnonzero(counts > 0) if order is not None \
            else np.zeros(1, dtype=np.int64)
        lens = counts[segs]
        for metric, vals in values.items():
            vals = vals.to_numpy(zero_copy_only=False)
            if order is not None:
                vals = vals[order]
            slot_of_code = np.empty(len(dictionary), dtype=np.int64)
            slot_of_code[by_key] = self._slots(metric, key_ids[by_key])
            slots = slot_of_code[segs]
            self._n[slots] += lens
            self._update(slots, lens, vals, w)

    def _key_ids(self, dictionary: pa.Array) -> np.ndarray:
        """Each dictionary value's key id; new values get the next ids."""
        if self._keys is None:
            self._keys = dictionary
            return np.arange(len(dictionary))
        if dictionary.type != self._keys.type:
            dictionary = dictionary.cast(self._keys.type)
        ids = pc.index_in(dictionary, value_set=self._keys) \
            .fill_null(-1).to_numpy().astype(np.int64)
        new = ids < 0
        if new.any():
            ids[new] = len(self._keys) + np.arange(int(new.sum()))
            self._keys = pa.concat_arrays([self._keys,
                                         dictionary.filter(pa.array(new))])
        return ids

    def _slots(self, metric: str, key_ids: np.ndarray) -> np.ndarray:
        """The slots of ``metric`` at ``key_ids``; unseen pairs get new
        slots in ``key_ids`` order."""
        mid, slot_of = self._metrics.get(metric, (len(self._metrics), None))
        if slot_of is None or slot_of.size < len(self._keys):
            grown = np.full(len(self._keys), -1, dtype=np.int64)
            if slot_of is not None:
                grown[:slot_of.size] = slot_of
            slot_of = grown
        self._metrics[metric] = (mid, slot_of)
        slots = slot_of[key_ids]
        new = slots < 0
        if new.any():
            k = int(new.sum())
            slots[new] = self._n.size + np.arange(k)
            slot_of[key_ids[new]] = slots[new]
            self._slot_metric = np.append(self._slot_metric,
                                          np.full(k, mid))
            self._slot_key = np.append(self._slot_key, key_ids[new])
            self._n = np.append(self._n, np.zeros(k))
            self._raw = np.append(self._raw, np.zeros(k, dtype=np.int64))
        return slots

    def _update(self, slots, lens, vals, w) -> None:
        """One metric's segments (values grouped by slot, in ``slots``
        order) onto raw runs or sketches."""
        raw = self._raw[slots] >= 0
        total = self._raw[slots] + lens
        grow = raw & ((w is not None) | (lens == 0) | (lens >= self._cap)
                      | (total > self._cap))
        if grow.any():
            self._replay(slots[grow])
        keep = raw & ~grow
        if keep.any():
            run = np.asarray(vals, dtype=np.float64)
            if not keep.all():
                run = run[np.repeat(keep, lens)]
            reject_nonfinite(run.min(), run.max())  # as update_batch does
            self._raw[slots[keep]] = total[keep]
            self._runs.append((run, slots[keep], lens[keep]))
        ends = np.cumsum(lens)
        for s, a, b in zip(slots[~keep].tolist(), (ends - lens)[~keep].tolist(),
                           ends[~keep].tolist()):
            self._sketches[s].update_batch(
                vals[a:b], None if w is None else w[a:b])

    def _replayed(self, slots: np.ndarray) -> dict:
        """slot -> a fresh ``spec.factory()`` sketch fed the slot's raw
        slices in the order they came: what the per-key calls built."""
        out = {s: self._spec.factory() for s in slots.tolist()}
        pending = np.zeros(self._n.size, dtype=bool)
        pending[slots] = True
        for run, ss, ls in self._runs:
            ends = np.cumsum(ls)
            for i in np.flatnonzero(pending[ss]).tolist():
                out[int(ss[i])].update_batch(run[ends[i] - ls[i]:ends[i]])
        return out

    def _replay(self, slots: np.ndarray) -> None:
        """Raw runs become sketches for good."""
        self._sketches.update(self._replayed(slots))
        self._raw[slots] = -1

    def _run_values(self):
        """The raw runs' values grouped by slot and sorted within each
        slot, each slot's offsets into them and the slots in that order; a
        run holding a -0.0 replays first."""
        if not self._runs:
            return np.empty(0), np.empty(0, dtype=np.int64), np.zeros(1)
        vals, slots, lens = (np.concatenate(c) for c in zip(*self._runs))
        owner = np.repeat(slots, lens)
        live = self._raw[owner] > 0  # runs of later sketches are dead
        neg0 = live & (vals == 0.0) & np.signbit(vals)
        if neg0.any():
            self._replay(np.unique(owner[neg0]))
            live = self._raw[owner] > 0
        if len(self._runs) != 1 or not live.all():
            # a stable (radix, for 16-bit slots) sort on the slot
            ids = owner.astype(np.uint16) if self._n.size <= 1 << 16 \
                else owner
            order = np.argsort(ids[live], kind="stable")
            vals = vals[live][order]
            slots = np.flatnonzero(self._raw > 0)
            lens = self._raw[slots]
        off = np.concatenate(([0], np.cumsum(lens)))
        return _seg_sort(vals, off), slots.astype(np.int64), off

    def items(self):
        """``((metric, key), (sketch, n))`` pairs in first-seen order; a
        raw run shows as the sketch its replay gives."""
        metrics = {mid: m for m, (mid, _s) in self._metrics.items()}
        keys = [] if self._keys is None else \
            self._keys.take(pa.array(self._slot_key)).to_pylist()
        replayed = self._replayed(np.flatnonzero(self._raw >= 0))
        for s, (mid, k) in enumerate(zip(self._slot_metric.tolist(), keys)):
            sk = replayed[s] if s in replayed else self._sketches[s]
            yield (metrics[mid], k), (sk, float(self._n[s]))

    def flush(self) -> pa.Table:
        """Wire rows ``(key, sketch, n[, metric])``, one per (metric, key).
        With no rows added the table is empty but keeps the full wire
        schema."""
        vals, raw, off = self._run_values()
        sketches = [self._sketches[s].to_bytes()
                    for s in np.flatnonzero(self._raw < 0).tolist()]
        sketch = pa.array(sketches, type=pa.binary())
        if raw.size:
            like = self._like
            # raw rows first, then the sketches; take puts them in slot order
            place = np.empty(self._n.size, dtype=np.int64)
            place[raw] = np.arange(raw.size)
            place[self._raw < 0] = raw.size + np.arange(len(sketches))
            sketch = pa.concat_arrays([
                _unit_bytes(vals, off, like.scale, like.public_compression),
                sketch]).take(pa.array(place))
        keys = pa.array([], type=self._key_type) if self._keys is None \
            else self._keys.take(pa.array(self._slot_key)).cast(self._key_type)
        cols = {KEY_COL: keys, SKETCH_COL: sketch,
                COUNT_COL: pa.array(self._n, type=pa.float64())}
        if self._with_metric:
            names = sorted(self._metrics, key=lambda m: self._metrics[m][0])
            cols[METRIC_COL] = pa.array(names, type=pa.string()).take(
                pa.array(self._slot_metric))
        return pa.table(cols)


def make_partial_fn(spec: SketchSpec, value_col: str,
                    key: str | None = None,
                    weight_col: str | None = None,
                    num_salts: int | None = None):
    """Build the map-side combine: one serialized sketch per (batch, key),
    through ``KeyedSketches``.

    Stateless by design — each batch independently becomes <= #keys tiny
    rows, so tasks are cheap, elastic and retry-deterministic (the sketch of
    a batch depends only on the batch's content). ``num_salts`` is accepted
    and ignored: the merge has no salt level.
    """

    def fn(batch: pa.Table) -> pa.Table:
        acc = KeyedSketches(spec, key or KEY_COL)
        acc.add(None if key is None else batch[key],
                {value_col: batch[value_col]},
                None if weight_col is None else batch[weight_col])
        return acc.flush()

    return fn


def _fold(partials, spec: SketchSpec, group: tuple[str, ...]):
    """Partial rows -> one merged row ``(*group, sketch, n)`` per distinct
    ``group`` value, in sorted group order, from one task: every partial
    row meets in one block and each group's sketches go through one
    ``spec.merge_bytes`` (``protocol.merge_bytes_many``: t-digest groups
    merge in one batched pass). The group columns keep their Arrow
    types."""
    sort = [(c, "ascending") for c in (*group, SKETCH_COL)]

    def fold(tbl: pa.Table) -> pa.Table:
        agg = tbl.sort_by(sort).group_by(list(group), use_threads=False) \
            .aggregate([(SKETCH_COL, "list"), (COUNT_COL, "sum")])
        merged = merge_bytes_many(spec, agg[f"{SKETCH_COL}_list"])
        return pa.table({**{c: agg[c] for c in group},
                         SKETCH_COL: pa.array(merged, type=pa.binary()),
                         COUNT_COL: agg[f"{COUNT_COL}_sum"]})

    return partials.repartition(1).map_batches(
        fold, batch_size=None, batch_format="pyarrow")


def merge_partials(partials, spec: SketchSpec, num_salts: int | None = None):
    """The wide half of the pipeline: partial sketch rows
    ``(key, sketch, n)`` -> one canonical merge per key -> one row per key.
    Public so callers that produce partial rows themselves (e.g. a
    generator that sketches in-task) reuse the exact same merge.

    One task folds every partial row. This assumes the partial rows fit
    one task comfortably: they number (tasks x keys) at a few KB each —
    320 rows on a 100k-page, 8-file flagship run (one task per file, see
    ``partitioning.rows_per_task``), 6,400 on a 16-file, 400-key
    checkpointed run. Inputs with millions of (task, key) partials would
    need a bucketed fold instead. ``num_salts`` is accepted and ignored:
    the merge has no salt level.
    """
    return _fold(partials, spec, (KEY_COL,))


def merge_multi_partials(partials, spec: SketchSpec,
                         num_salts: int | None = None):
    """merge_partials for multi-metric partial rows (METRIC_COL carried);
    ``num_salts`` is accepted and ignored."""
    return _fold(partials, spec, (METRIC_COL, KEY_COL))


def sketch_by_key(ds, spec: SketchSpec, value_col: str,
                  key: str | None = None,
                  weight_col: str | None = None,
                  batch_size: int | None = None):
    """Full pipeline: partials -> one canonical merge per key.

    Returns a Dataset of rows ``(key, sketch: binary, n: float64)`` — one per
    group (a single row with key "" when ``key is None``). Without a
    ``batch_size`` a file read runs one partial task per file
    (``partitioning.rows_per_task``).
    """
    if batch_size is None:
        batch_size = rows_per_task(ds)
    partials = ds.map_batches(
        make_partial_fn(spec, value_col, key, weight_col),
        batch_format="pyarrow", batch_size=batch_size)
    return merge_partials(partials, spec)


def summarize(ds, spec: SketchSpec, key_name: str = KEY_COL):
    """Query stage: expand each merged sketch row into result columns,
    ``spec.summarize(spec.from_bytes(sketch))`` per row
    (``protocol.summarize_many``: a t-digest spec's summaries share one
    batched compress). The input is the MERGED sketch table (one row per
    key), never per-batch partials."""

    def fn(df: pd.DataFrame) -> pd.DataFrame:
        summaries = summarize_many(spec, df[SKETCH_COL].tolist())
        return pd.DataFrame([{key_name: k, COUNT_COL: n, **s} for k, n, s in
                             zip(df[KEY_COL].tolist(),
                                 df[COUNT_COL].tolist(), summaries)])

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


def _arrow(t) -> pa.Table:
    """A pandas frame or Arrow table as an Arrow table without schema
    metadata: Ray's ``groupby().aggregate()`` runs ~15x slower on pandas
    blocks (46k rows, 180 groups, Ray 2.49 on one vCPU: 15 s vs 0.8 s),
    and a schema carrying pandas' metadata dict (a frame's, or a parquet
    file's written from pandas) is unhashable ("Failed to hash the
    schemas")."""
    if isinstance(t, pd.DataFrame):
        t = pa.Table.from_pandas(t, preserve_index=False)
    return t.replace_schema_metadata()


def _key_runs(keys: np.ndarray, *by: np.ndarray):
    """One bucket's rows sorted by ``(keys, *by)`` with one lexsort:
    returns the row order, each key's first position in that order and
    each key's row count. A null key (None or NaN) is one key, after
    every value."""
    if keys.dtype.kind in "Of":
        keys = pd.factorize(keys, sort=True, use_na_sentinel=False)[0]
    order = np.lexsort((*reversed(by), keys))
    ks = keys[order]
    starts = np.flatnonzero(np.r_[len(ks) > 0, ks[1:] != ks[:-1]])
    return order, starts, np.diff(np.r_[starts, len(ks)])


def _keyed_pandas(t: pa.Table, keys) -> pd.DataFrame:
    """``t`` as a pandas frame whose integer key columns with nulls keep
    their Arrow type (NumPy would make them floats), so a groupby gives
    the null one group and the other keys back as integers."""
    df = t.to_pandas()
    for k in keys:
        c = t[k]
        if c.null_count and pa.types.is_integer(c.type):
            df[k] = c.to_pandas(types_mapper=pd.ArrowDtype)
    return df


def _typed_keys(t: pa.Table, schema: pa.Schema, keys) -> pa.Table:
    """``t`` with each key column that pandas turned into floats (an
    all-null key, an int key with a null) cast back to its type in
    ``schema``."""
    for k in keys:
        if k not in schema.names or k not in t.column_names:
            continue
        want, c = schema.field(k).type, t[k]
        if c.type != want and (pa.types.is_null(c.type)
                               or pa.types.is_floating(c.type)) and (
                c.null_count == len(c) or pa.types.is_integer(want)):
            t = t.set_column(t.column_names.index(k), k, c.cast(want))
    return t


def _key_hash(col) -> np.ndarray:
    """``hash64`` of an Arrow key column with every null hashed alike,
    the valid values hashed as their own type whether or not the block
    holds a null (NumPy turns an int column with nulls into floats)."""
    from ..functions.hashing import hash64

    if not col.null_count:
        return hash64(col.to_numpy(zero_copy_only=False))
    h = np.zeros(len(col), dtype=np.uint64)
    valid = col.is_valid().to_numpy(zero_copy_only=False)
    h[valid] = hash64(col.drop_null().to_numpy(zero_copy_only=False))
    return h


def bucketed_map_groups(ds, keys, fn, *, project=None,
                        n_rows: int | None = None,
                        n_buckets: int | None = None):
    """The keyed exchange for analytics operators: every row with the same
    ``keys`` reaches ONE call of ``fn``, and each call folds a whole hash
    bucket of keys with vectorized code.

    ``project`` (pyarrow batch -> pyarrow table or pandas frame, optional)
    runs in the same ``map_batches`` that adds the bucket column, so the
    bucket count still comes from the source's metadata row count; pass
    ``n_rows`` when the caller already knows the input size (e.g. a union
    of two sources). The count is ``coarse_bucket_count`` at
    ``ROWS_PER_BUCKET`` rows per bucket unless ``n_buckets`` fixes it; a
    known size floors it at one bucket per cluster CPU, an unknown one at
    ``coarse_bucket_count``'s 256 (a small floor would put ``input / CPUs``
    rows of a large derived input in one bucket). The
    bucket is a splitmix64 chain over ``hash64`` of each typed key column,
    so composite keys never pack into strings, and a null is one key.
    ``fn`` gets one pandas frame per bucket without the bucket column
    (an integer key column with nulls as ``pd.ArrowDtype``) and returns a
    pandas frame or pyarrow table whose key columns keep their type; the
    exchange and the result are Arrow blocks.

    The exchange is one Ray sort on the bucket, then the top bits of the
    key hash, and one ``fn`` call per bucket run of each sorted block. A
    bucket whose keys straddle two of Ray's sort partitions takes one call
    in each, every key whole. The hash bits give Ray's sampled partition
    bounds many distinct values, so a partition is empty (and logs a
    schema-less block) only when the input holds fewer distinct keys than
    Ray has sort partitions. One bucket (a global fold such as a top-k)
    skips the sort: ``repartition(1)`` and one call.

    Partitioning contract: a key's rows never span two calls, so a call's
    rows are bounded by ~ROWS_PER_BUCKET plus the hottest key's rows.
    """
    from ..functions.hashing import splitmix64

    keys = list(keys)
    if n_buckets is None:
        if n_rows is None:
            n_rows = cheap_row_count(ds)
        n_buckets = coarse_bucket_count(
            n_rows=n_rows, rows_per_bucket=ROWS_PER_BUCKET,
            min_buckets=(DEFAULT_MIN_BUCKETS if n_rows is None
                         else cluster_cpus()),
            what=getattr(fn, "__qualname__", "bucketed_map_groups"))
    nb = np.uint64(n_buckets)

    def add_bucket(batch: pa.Table) -> pa.Table:
        t = (_arrow(batch) if project is None else
             _typed_keys(_arrow(project(batch)), batch.schema, keys))
        h = np.zeros(t.num_rows, dtype=np.uint64)
        for k in keys:
            h = splitmix64(h ^ _key_hash(t[k]))
        # sort key: the bucket, then the key hash's top 32 bits
        return t.append_column(BUCKET_COL, pa.array(
            ((h % nb) << np.uint64(32) | h >> np.uint64(32)).astype(np.int64)))

    def per_bucket(block: pa.Table):
        if block.num_rows == 0:
            return
        b = block[BUCKET_COL].to_numpy() >> 32
        block = block.drop([BUCKET_COL])
        starts = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
        for lo, hi in zip(starts, np.r_[starts[1:], len(b)]):
            yield _typed_keys(_arrow(fn(_keyed_pandas(
                block.slice(lo, hi - lo), keys))), block.schema, keys)

    tagged = ds.map_batches(add_bucket, batch_format="pyarrow")
    return (tagged.repartition(1) if n_buckets == 1
            else tagged.sort(BUCKET_COL)).map_batches(
        per_bucket, batch_size=None, batch_format="pyarrow")


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
    groupby (map-side combine), and ``bucketed_map_groups`` hands each
    bucket of partial rows to one more pandas groupby — cost scales with
    ROWS, not groups, and no group's data spans two tasks.

    ``aggs`` maps ``out_name -> (value_col, how)`` with how in
    ``count | sum | min | max`` (count ignores value_col). Returns a
    Dataset of one row per distinct ``group_cols`` combination, a null
    key included (SQL's GROUP BY). The
    combine sorts each bucket's partial rows on the group, then the
    partial columns, so a float sum does not depend on the order in
    which Ray delivers the partials.
    """
    group_cols = list(group_cols)
    # partial aggregation per batch; 'count' partials combine by sum
    part_how = {o: (c, {"count": "sum"}.get(h, h))
                for o, (c, h) in aggs.items()}

    def partial(batch: pa.Table) -> pd.DataFrame:
        g = _keyed_pandas(batch, group_cols).groupby(
            group_cols, sort=False, dropna=False)
        outs = {}
        for out, (col, how) in aggs.items():
            outs[out] = (g.size() if how == "count"
                         else g[col].agg(how))
        return pd.DataFrame(outs).reset_index()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(group_cols + list(part_how), kind="stable")
        g = df.groupby(group_cols, sort=False, dropna=False)
        outs = {out: g[out].agg(how)
                for out, (_c, how) in part_how.items()}
        return pd.DataFrame(outs).reset_index()

    return bucketed_map_groups(ds, group_cols, combine, project=partial,
                               n_rows=n_rows, n_buckets=coarse)
