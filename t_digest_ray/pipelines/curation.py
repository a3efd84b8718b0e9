"""Training-data curation operators: deterministic sampling, token-budget
shard packing, and text-normalization dedup.

These are the corpus-side operations a pretraining-data pipeline runs after
dedup/quality filtering (the reference engine's sketches answer "what does
the corpus look like"; these decide "what goes into the training run"):

* ``prefix_sum_shards``   — EXACT distributed prefix-sum over a defined
  order, used to greedily pack documents into fixed-token-budget training
  shards. Two-level topology (per-bucket sums -> driver exclusive prefix ->
  broadcast bases), the additive twin of ``windows.watermark_flags``'
  prefix-max: the wide state that crosses tasks is ONE float per bucket,
  so the driver holds #buckets rows, never data. Layout-independent —
  identical shard ids at any parallelism (the SURVEY §4 invariant).
* ``stratified_sample``   — per-key deterministic top-k by a splitmix64
  hash of the row id: a reproducible "random" k-per-stratum sample that
  needs no RNG state, survives retries, and is order/parallelism
  independent (splitmix64 is a bijection on uint64, so ranks are total
  and tie-free for distinct ids). Combiner topology: each batch keeps at
  most k rows per key, so the shuffle carries <= k * keys_per_block rows,
  never the corpus.
* ``bernoulli_sample``    — deterministic hash-rate row sampling
  (``splitmix64(id) < rate * 2^64``): the standard reproducible corpus
  downsample / train-eval split. Pure per-batch filter, no shuffle.
* ``add_normalized_hash`` — canonicalize text (NFC-agnostic ASCII rules:
  lowercase, collapse ``\\s+`` to one space, strip) and attach a stable
  64-bit hash of the canonical form, the key for normalization-aware
  exact dedup (catches whitespace/case mirror copies that byte-exact
  dedup misses). All Arrow C kernels (RE2), no Python per row.

All hashes come from ``functions.hashing.splitmix64`` and are reproducible
in ANSI SQL with 128-bit integer arithmetic — every operator here is graded
against a DuckDB oracle, including the "random" samplers.

Every keyed step runs on the library's one analytics exchange,
``stages.aggregate.bucketed_map_groups`` (directly or through
``hash_bucketed_group_agg``): the map that makes the rows (a per-batch
head-k, a doc→line explode, an order-range bucket) is its ``project``,
so rows are partitioned where they are produced, and each call folds a
whole hash bucket of keys with one ``_key_runs`` sort — several strata,
documents, line hashes or order ranges per call, never one pandas call
per key. The global top-k of ``dsir_importance_stats`` is its
one-bucket case.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64, splitmix64
from ..functions.text import split_tokens
from ..stages.aggregate import (_key_runs, bucketed_map_groups,
                                hash_bucketed_group_agg)
from ..stages.partitioning import cheap_row_count, coarse_bucket_count

# docs explode into ~tens of lines each before the line-hash exchange
_LINE_FANOUT = 64


# ---------------------------------------------------------------------------
# token-budget shard packing (exact distributed prefix sum)
# ---------------------------------------------------------------------------

def _order_ranges(ds, order_col: str, weight_col: str, carry_cols,
                  n_buckets: int | None, order_range, what: str):
    """The contiguous ``order_col`` ranges both shard packers exchange on.

    Returns ``(project, n_buckets, n_rows)``: ``project(batch,
    carry=True)`` gives rows ``(bucket, order_col, weight_col[,
    *carry_cols])`` with int64 order and weight and raises on a negative
    weight; ``n_rows`` is the input's row count when known (counted with
    the order range, else from metadata), the exchange's size hint."""
    n_rows = cheap_row_count(ds)
    if order_range is not None:
        lo, hi = int(order_range[0]), int(order_range[1])
    else:
        from ray.data.aggregate import Count, Max, Min
        rng = ds.aggregate(Min(order_col, alias_name="lo"),
                           Max(order_col, alias_name="hi"),
                           Count(alias_name="n"))
        lo, hi, n_rows = int(rng["lo"]), int(rng["hi"]), int(rng["n"])
    if n_buckets is None:
        n_buckets = coarse_bucket_count(n_rows=n_rows,
                                        rows_per_bucket=262144, what=what)
    width = -(-max(hi - lo + 1, 1) // n_buckets)

    def project(batch: pa.Table, carry: bool = True) -> pa.Table:
        o = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(w) and w.min() < 0:
            raise ValueError(f"{what}: negative weight")
        cols = {
            "bucket": pa.array(((o - lo) // width).astype(np.int32)),
            order_col: pa.array(o),
            weight_col: pa.array(w),
        }
        for c in carry_cols if carry else ():
            cols[c] = batch[c]
        return pa.table(cols)

    return project, n_buckets, n_rows


def _sorted_runs(g: pd.DataFrame, key: str, by: str):
    """One exchange call's rows sorted by ``(key, by)`` (``_key_runs``):
    the sorted frame, each key's first position and its row count."""
    order, starts, counts = _key_runs(g[key].to_numpy(), g[by].to_numpy())
    return g.iloc[order].reset_index(drop=True), starts, counts


def prefix_sum_shards(ds, order_col: str, weight_col: str, budget: int,
                      carry_cols: tuple[str, ...] = (),
                      n_buckets: int | None = None,
                      order_range: tuple[int, int] | None = None):
    """Pack rows into fixed-capacity shards by exact prefix sum.

    Rows are taken in ``order_col`` order; row i with weight w_i starts at
    offset ``S_i = sum(w_j for j < i)`` (the exclusive prefix sum) and is
    assigned ``shard_id = S_i // budget`` — the deterministic greedy
    packing a sequence-packing / shard-writing stage uses (a row may
    straddle a boundary; every shard holds ~``budget`` weight). Equivalent
    SQL: ``(SUM(w) OVER (ORDER BY order_col) - w) // budget``.

    Distribution (exact at any parallelism): rows are bucketed by
    contiguous ``order_col`` ranges; a per-bucket weight-sum table (KBs)
    is reduced on the driver into exclusive prefix bases ``B[b] = sum of
    all buckets < b`` and broadcast; the keyed exchange on the range
    bucket then sorts each call's rows by (bucket, ``order_col``) and adds
    each bucket's in-bucket exclusive cumsum to ``B[b]``. One shuffle of
    (order, weight, carry) rows, one tiny driver table — same two-level
    shape as ``windows.watermark_flags`` (prefix-max), with ``+`` instead
    of ``max``.

    Weights must be non-negative integers (token counts); sums are exact
    int64 (a 100 TB corpus is ~2.5e13 tokens, 18 bits of headroom).

    Returns rows ``(order_col, *carry_cols, weight_col, offset, shard_id)``.
    """
    import ray

    project, n_buckets, n_rows = _order_ranges(
        ds, order_col, weight_col, carry_cols, n_buckets, order_range,
        "prefix_sum_shards")

    # level 1: per-bucket weight sums -> driver exclusive prefix sum.
    bucket_sum = hash_bucketed_group_agg(
        ds.map_batches(lambda b: project(b, carry=False),
                       batch_format="pyarrow"),
        ["bucket"], {"w_sum": (weight_col, "sum")},
        n_rows=n_buckets).to_pandas().sort_values("bucket")
    sums = bucket_sum["w_sum"].to_numpy(dtype=np.int64)
    base_ref = ray.put((bucket_sum["bucket"].to_numpy(),
                        np.cumsum(np.r_[np.int64(0), sums[:-1]])))
    budget = int(budget)

    def bucket_pack(g: pd.DataFrame) -> pd.DataFrame:
        ids, bases = ray.get(base_ref)
        g, starts, counts = _sorted_runs(g, "bucket", order_col)
        w = g[weight_col].to_numpy(dtype=np.int64)
        base = bases[np.searchsorted(ids, g["bucket"].to_numpy()[starts])]
        # exclusive in-bucket cumsum + cross-bucket base
        excl = np.cumsum(w) - w
        offset = excl + np.repeat(base - excl[starts], counts)
        return g[[order_col, *carry_cols, weight_col]].assign(
            offset=offset, shard_id=offset // budget)

    return bucketed_map_groups(ds, ["bucket"], bucket_pack, project=project,
                               n_rows=n_rows)


# ---------------------------------------------------------------------------
# no-straddle (greedy bin) shard packing
# ---------------------------------------------------------------------------

def _pack_jump(P: np.ndarray, budget: int) -> np.ndarray:
    """``e[i]``: exclusive end of a FRESH shard starting at doc i, given the
    inclusive prefix-sum array ``P`` (``P[0] = 0``, length m+1): the largest
    k with ``P[k] - P[i] <= budget``. Oversize docs (w > budget) become
    singleton shards (``e = i + 1``)."""
    m = len(P) - 1
    e = np.searchsorted(P, P[:-1] + budget, side="right") - 1
    return np.maximum(e, np.arange(1, m + 1, dtype=np.int64))


def _walk_shards(jump: np.ndarray, out: np.ndarray, pos: int, t: int):
    """Fill ``out[pos:]`` with shard ids ``t + 1, t + 2, ...`` along the
    jump graph: one step per SHARD, not per row."""
    while pos < len(out):
        t += 1
        end = int(jump[pos])
        out[pos:end] = t
        pos = end


def _fresh_pack_summary(P: np.ndarray, budget: int):
    """For every start index i: ``K[i]`` = number of shards a fresh greedy
    pack of docs ``i..m`` uses, and ``last[i]`` = start index of its LAST
    (still-open) shard — computed for ALL i at once by vectorized binary
    lifting over the jump graph (absorbing at m), O(m log m) numpy, no
    Python per row. ``K[m] = 0``."""
    m = len(P) - 1
    jump = np.empty(m + 1, dtype=np.int64)
    if m:
        jump[:m] = _pack_jump(P, budget)
    jump[m] = m
    tables = [jump]
    while not (tables[-1][:-1] == m).all() and len(tables) < 64:
        t = tables[-1]
        tables.append(t[t])
    pos = np.arange(m + 1, dtype=np.int64)
    K = np.zeros(m + 1, dtype=np.int64)
    for lvl in range(len(tables) - 1, -1, -1):
        cand = tables[lvl][pos]
        take = cand < m
        K[take] += np.int64(1) << lvl
        pos[take] = cand[take]
    # after the descent, one final jump from ``pos`` reaches m
    K += (np.arange(m + 1) < m).astype(np.int64)
    return K, pos


def _lead_summary(bucket: int, w: np.ndarray, budget: int) -> pd.DataFrame:
    """One range bucket's packing function (pass A of
    ``greedy_pack_shards``): for each cut j up to the end of the bucket's
    first fresh shard, the lead prefix sum and the shard count and final
    fill of a fresh pack of the rest."""
    m = len(w)
    P = np.concatenate(([np.int64(0)], np.cumsum(w)))
    K, last = _fresh_pack_summary(P, budget)
    j0 = int(_pack_jump(P, budget)[0]) if m else 0
    sl = slice(0, j0 + 1)
    F = np.where(np.arange(m + 1)[sl] < m, P[m] - P[last[sl]], np.int64(0))
    return pd.DataFrame({
        "bucket": np.full(j0 + 1, bucket, dtype=np.int32),
        "j": np.arange(j0 + 1, dtype=np.int64),
        "p": P[sl],            # lead prefix sums
        "k": K[sl],            # fresh-pack shard count from cut j
        "f": F,                # fresh-pack final fill from cut j
        "m": np.full(j0 + 1, m, dtype=np.int64),
        "tot": np.full(j0 + 1, P[m], dtype=np.int64),
    })


def greedy_pack_shards(ds, order_col: str, weight_col: str, budget: int,
                       carry_cols: tuple[str, ...] = (),
                       n_buckets: int | None = None,
                       order_range: tuple[int, int] | None = None):
    """NO-STRADDLE shard packing: rows in ``order_col`` order fill a shard
    until the next row would exceed ``budget``, which then OPENS a new
    shard — no row spans a boundary (the sequence-packing rule real
    training-shard writers use; contrast ``prefix_sum_shards`` where a row
    may straddle). Semantics are exactly the sequential scan::

        shard, fill = 0, 0                  # shard 0 starts open+empty
        for w in weights:                   # in order_col order
            if fill + w > budget: shard += 1; fill = w
            else:                 fill += w

    (an oversize row w > budget gets a singleton shard).

    This recurrence is inherently sequential, but a contiguous run's
    effect is a composable FUNCTION of the incoming fill: given fill f,
    the first ``j(f)`` rows extend the open shard (``j(f)`` = largest j
    with ``P[j] <= budget - f``), and everything after packs FRESH —
    independent of f. So each order-range bucket ships a compact summary
    (lead prefix sums of its first fresh shard — at most the rows one
    shard can hold — plus fresh-pack shard counts / final fills for each
    possible cut, via binary lifting), the driver folds the per-bucket
    functions left-to-right, broadcasts each bucket's (open-shard index,
    incoming fill), and a second pass assigns ids. Both passes are keyed
    exchanges on the range bucket; a call takes its range buckets one
    at a time in ``_key_runs`` order. EXACT at any parallelism / batch
    layout.

    Driver memory bound: the fold holds ``O(n_buckets x rows_per_shard)``
    summary rows (each bucket ships at most one shard's worth of lead
    prefix sums). At 10^12 rows / 256k-row buckets / ~10 docs per shard
    that is ~40M small rows — raise ``rows_per_bucket`` via ``n_buckets``
    if shards hold many tiny docs. Pass A's binary-lifting scratch is
    ``O(rows_per_bucket x log2(rows_per_bucket))`` int64 per range bucket
    (~40 MB at the 262144 default), which also caps the useful bucket
    size.

    Returns rows ``(order_col, *carry_cols, weight_col, shard_id)``.
    """
    import ray

    project, _, n_rows = _order_ranges(
        ds, order_col, weight_col, carry_cols, n_buckets, order_range,
        "greedy_pack_shards")
    budget = int(budget)

    # pass A (narrow: bucket/order/weight only): per-bucket function summary
    def summarize(g: pd.DataFrame) -> pd.DataFrame:
        g, starts, counts = _sorted_runs(g, "bucket", order_col)
        w = g[weight_col].to_numpy(dtype=np.int64)
        return pd.concat([_lead_summary(int(b), w[s:s + m], budget)
                          for b, s, m in zip(g["bucket"].to_numpy()[starts],
                                             starts, counts)],
                         ignore_index=True)

    summary = bucketed_map_groups(
        ds, ["bucket"], summarize, project=lambda b: project(b, carry=False),
        n_rows=n_rows).to_pandas()

    # driver fold: evaluate each bucket's function at its incoming fill
    meta = {}
    base, fill = 0, 0
    for b, g in summary.sort_values(["bucket", "j"]).groupby(
            "bucket", sort=True):
        meta[int(b)] = (base, fill)
        P_s = g["p"].to_numpy()
        m = int(g["m"].iloc[0])
        j = max(int(np.searchsorted(P_s, budget - fill, side="right")) - 1,
                0)
        if j == m:                      # whole bucket extends the open shard
            fill += int(g["tot"].iloc[0])
        else:
            base += int(g["k"].to_numpy()[j])
            fill = int(g["f"].to_numpy()[j])
    meta_ref = ray.put(meta)

    # pass B: re-sort each bucket, assign ids from (open-shard base, fill)
    def assign(g: pd.DataFrame) -> pd.DataFrame:
        bmeta = ray.get(meta_ref)
        g, starts, counts = _sorted_runs(g, "bucket", order_col)
        w = g[weight_col].to_numpy(dtype=np.int64)
        shard = np.empty(len(w), dtype=np.int64)
        for b, s, m in zip(g["bucket"].to_numpy()[starts], starts, counts):
            base_, fill_ = bmeta[int(b)]
            P = np.concatenate(([np.int64(0)], np.cumsum(w[s:s + m])))
            j = max(int(np.searchsorted(P, budget - fill_, side="right"))
                    - 1, 0)
            shard[s:s + j] = base_
            _walk_shards(_pack_jump(P, budget), shard[s:s + m], j, base_)
        return g[[order_col, *carry_cols, weight_col]].assign(shard_id=shard)

    return bucketed_map_groups(ds, ["bucket"], assign, project=project,
                               n_rows=n_rows)


def greedy_pack_by_key(ds, key_col: str, order_col: str, weight_col: str,
                       budget: int, carry_cols: tuple[str, ...] = ()):
    """Per-key no-straddle packing: each key (lang / source / host) packs
    its own shard sequence fresh — the usual layout when training shards
    must be homogeneous per stratum. Embarrassingly parallel (one keyed
    exchange on ``key_col``, no cross-task state, no driver fold): each
    call sorts its keys once by (key, ``order_col``) and walks the same
    jump graph as ``greedy_pack_shards``, cut at every key's end, one
    step per SHARD, not per row.

    Partitioning assumption (the keyed exchange's): one key's rows fit in
    a worker's heap. Returns rows
    ``(key_col, order_col, *carry_cols, weight_col, shard_id)`` with
    shard ids local to the key (0-based).
    """
    budget = int(budget)
    cols = [key_col, order_col, *carry_cols, weight_col]

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g, starts, counts = _sorted_runs(g, key_col, order_col)
        w = g[weight_col].to_numpy(dtype=np.int64)
        if len(w) and w.min() < 0:
            raise ValueError("greedy_pack_by_key: negative weight")
        P = np.concatenate(([np.int64(0)], np.cumsum(w)))
        jump = np.minimum(_pack_jump(P, budget),
                          np.repeat(starts + counts, counts))
        shard = np.empty(len(w), dtype=np.int64)
        for s, m in zip(starts, counts):
            _walk_shards(jump[s:s + m] - s, shard[s:s + m], 0, -1)
        return g[cols].assign(shard_id=shard)

    return bucketed_map_groups(ds, [key_col], pack,
                               project=lambda b: b.select(cols))


# ---------------------------------------------------------------------------
# deterministic samplers
# ---------------------------------------------------------------------------

def _mix(ids: np.ndarray, seed: int) -> np.ndarray:
    """splitmix64 of the id (seed folded in by xor before mixing)."""
    x = ids.astype(np.uint64)
    if seed:
        x = x ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return splitmix64(x)


def _head_k_by_key(ds, key_col: str, cols, rank, k: int):
    """The first ``k`` rows of each ``key_col`` value in ``rank`` order,
    columns ``cols``. ``rank(frame)`` gives the np.lexsort keys (last
    primary) that totally order a key's rows, before the key itself.

    Combiner topology: the head-k runs once per batch as the keyed
    exchange's projection, so the shuffle moves at most
    ``k * keys_per_block`` rows, and once more per bucket, which holds
    whole keys: ``k * #blocks`` rows per key regardless of corpus size."""
    cols = list(cols)

    def head_k(df: pd.DataFrame) -> pd.DataFrame:
        keys = df[key_col].to_numpy()
        return df.iloc[_head_k_per_run((*rank(df), keys), keys, k)][cols]

    return bucketed_map_groups(
        ds, [key_col], head_k,
        project=lambda b: head_k(b.select(cols).to_pandas()))


def stratified_sample(ds, key_col: str, id_col: str, k: int,
                      carry_cols: tuple[str, ...] = (), seed: int = 0):
    """Deterministic k-per-stratum sample: the k rows with the SMALLEST
    ``splitmix64(id)`` per key — uniform over each stratum (the mix is a
    fixed bijection of the id space), yet fully reproducible: no RNG
    state, identical output at any parallelism, batch layout, or retry.

    Combiner topology (``_head_k_by_key``): each batch locally keeps its
    k smallest hashes per key (one vectorized lexsort + positional
    head-k, no Python per group), so the shuffle moves at most
    ``k * keys_per_block`` rows; the final per-key top-k runs in
    ``hash(key)``-bucketed groups whose size is bounded by
    ``k * #blocks`` regardless of corpus size.

    Returns rows ``(key_col, id_col, *carry_cols)``.
    """
    return _head_k_by_key(
        ds, key_col, [key_col, id_col, *carry_cols],
        lambda df: (_mix(df[id_col].to_numpy().astype(np.uint64), seed),),
        int(k))


def _head_k_per_run(sort_keys: tuple[np.ndarray, ...],
                    run_keys: np.ndarray, k: int) -> np.ndarray:
    """Indices of the first k rows of each key run after sorting by
    ``sort_keys`` (np.lexsort order: last key is primary). One C lexsort +
    run-length arithmetic — no Python per group."""
    order = np.lexsort(sort_keys)
    ks = run_keys[order]
    run_start = np.r_[0, np.flatnonzero(ks[1:] != ks[:-1]) + 1]
    rank = np.arange(len(ks)) - np.repeat(
        run_start, np.diff(np.r_[run_start, len(ks)]))
    return order[rank < k]


def topk_per_key(ds, key_col: str, value_col: str, id_col: str, k: int,
                 largest: bool = True,
                 carry_cols: tuple[str, ...] = ()):
    """Exact top-k rows per key by ``value_col`` (ties broken by smallest
    ``id_col`` — total order, so the result is unique and
    layout-independent). The quota/selection primitive of corpus curation:
    "keep the k highest-quality documents per host/stratum".

    Same combiner topology as ``stratified_sample`` (``_head_k_by_key``):
    each batch locally keeps its k best rows per key (one vectorized
    lexsort), so the shuffle carries at most ``k * keys_per_block`` rows;
    the final per-key top-k runs in hash(key)-bucketed groups bounded by
    ``k * #blocks``.

    Returns rows ``(key_col, id_col, value_col, *carry_cols)``.
    """

    def rank(df: pd.DataFrame):
        vals = df[value_col].to_numpy()
        if largest:
            if vals.dtype.kind == "u":  # negation would wrap unsigned
                vals = vals.astype(np.int64)
            vals = -vals
        return df[id_col].to_numpy(), vals

    return _head_k_by_key(ds, key_col,
                          [key_col, id_col, value_col, *carry_cols], rank,
                          int(k))


def weighted_mixture(ds, key_col: str, id_col: str, rates: dict,
                     default_rate: float = 0.0, seed: int = 0):
    """Deterministic per-stratum mixture sampling: keep a row of stratum s
    iff ``splitmix64(id) < rates[s] * 2^64`` — the dataset-mixing
    primitive ("30% of web, 100% of wiki, 5% of logs") as one reproducible
    per-batch filter. No shuffle, no RNG state; disjoint thresholds nest,
    so raising a stratum's rate strictly grows its keep-set (monotone
    remixing). Strata absent from ``rates`` use ``default_rate``."""
    thresholds = {key: np.uint64(min(int(float(r) * 2.0 ** 64),
                                     2 ** 64 - 1))
                  for key, r in rates.items()}
    default_thr = np.uint64(min(int(float(default_rate) * 2.0 ** 64),
                                2 ** 64 - 1))

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = _mix(ids.astype(np.uint64), seed)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        thr = np.full(len(keys), default_thr, dtype=np.uint64)
        for key, t in thresholds.items():
            thr[keys == key] = t
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(keep, batch_format="pyarrow")


def bernoulli_sample(ds, id_col: str, rate: float, seed: int = 0):
    """Deterministic Bernoulli(rate) row sample: keep iff
    ``splitmix64(id) < rate * 2^64``. The standard reproducible corpus
    downsample (and, with disjoint hash ranges, a train/eval split that
    cannot leak). Pure per-batch Arrow filter — no shuffle, no RNG state,
    exact same keep-set at any parallelism.
    """
    threshold = np.uint64(min(int(rate * 2.0 ** 64), 2 ** 64 - 1))

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        h = _mix(ids.astype(np.uint64), seed)
        return batch.filter(pa.array(h < threshold))

    return ds.map_batches(keep, batch_format="pyarrow")


def weighted_bernoulli_sample(ds, id_col: str, weight_col: str, num: int,
                              log2_den: int = 20, seed: int = 0):
    """Deterministic weight-proportional row sample: keep row iff
    ``splitmix64(id) < w * num / 2^log2_den * 2^64`` — inclusion
    probability ``min(1, w * num / 2^log2_den)``, the quality- or
    length-weighted corpus downsample (weight = quality score grid,
    token count, ...). The rate is a dyadic rational so the threshold is
    EXACT integer arithmetic on both sides of the oracle (uint64 shifts
    here, UHUGEINT products in SQL — no float rounding to disagree on a
    boundary row). Pure per-batch filter: no shuffle, no RNG state,
    identical keep-set at any parallelism.

    Requires non-negative integer weights with ``w * num < 2^62``.
    """
    num = int(num)
    den = 1 << int(log2_den)
    shift = np.uint64(64 - int(log2_den))

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        w = batch[weight_col].to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        if len(w) and w.min() < 0:
            raise ValueError("weighted_bernoulli_sample: negative weight")
        h = _mix(ids.astype(np.uint64), seed)
        wn = w * num
        always = wn >= den                       # probability clamps at 1
        thr = np.minimum(wn, den - 1).astype(np.uint64) << shift
        return batch.filter(pa.array(always | (h < thr)))

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# sketch-apply: quantile-based range partitioning
# ---------------------------------------------------------------------------

def range_cutpoints(ds, value_col: str, n_partitions: int,
                    compression: float = 200.0) -> np.ndarray:
    """The ``n_partitions - 1`` t-digest quantile cutpoints of
    ``value_col`` (pass 1 of quantile_range_partition, exposed so sinks
    can persist them: the digest is merge-order dependent, so a resumed
    run must REUSE stored cutpoints rather than recompute)."""
    from ..stages.aggregate import sketch_by_key
    from .quantiles import tdigest_spec

    n_partitions = int(n_partitions)
    spec = tdigest_spec(compression)
    merged = sketch_by_key(ds, spec, value_col, None)
    row = merged.take_all()[0]
    sk = spec.from_bytes(row["sketch"])
    sk.compress()
    return np.array([sk.quantile(i / n_partitions)
                     for i in range(1, n_partitions)], dtype=np.float64)


def quantile_range_partition(ds, value_col: str, n_partitions: int,
                             compression: float = 200.0,
                             out_col: str = "partition_id",
                             cuts: np.ndarray | None = None):
    """Assign each row a balanced range-partition id by t-digest quantile
    cutpoints — the TeraSort/balanced-sort primitive: partition 100 TB by
    a skewed key into ~equal parts without sorting it first.

    Two streaming passes (inherent to sample-then-partition): pass 1
    builds ONE global t-digest of ``value_col`` (the engine's partial ->
    merge topology; only KB sketch rows shuffle), the driver
    extracts ``n_partitions - 1`` quantile cutpoints (a ~KB array, shipped
    in the task closure); pass 2 is a pure per-batch ``searchsorted``.
    Partition sizes are balanced within the digest's rank-error bound
    (q-weighted for K_2, tightest at the tails) PLUS the mass of any
    single repeated value straddling a cutpoint — ties all land in one
    partition by design (ranges must be disjoint).

    The input must be re-executable (parquet-backed or cached); pass 2
    re-reads it rather than materializing it. Pass precomputed ``cuts``
    (e.g. from a sink manifest) to skip pass 1 entirely.
    """
    if cuts is None:
        cuts = range_cutpoints(ds, value_col, n_partitions,
                               compression=compression)
    cuts = np.asarray(cuts, dtype=np.float64)

    def assign(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False)
        pid = np.searchsorted(cuts, v, side="right")
        return batch.append_column(out_col,
                                   pa.array(pid.astype(np.int32)))

    return ds.map_batches(assign, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# normalization-aware exact dedup
# ---------------------------------------------------------------------------

def normalize_expr(col: pa.ChunkedArray | pa.Array):
    """Canonical text form, all Arrow C kernels (RE2): lowercase, collapse
    every ``\\s+`` run to a single space, trim outer spaces. Matches the
    DuckDB expression ``trim(regexp_replace(lower(x), '\\s+', ' ', 'g'))``
    (both engines run RE2, so the ``\\s`` class is identical)."""
    x = pc.utf8_lower(col)
    x = pc.replace_substring_regex(x, r"\s+", " ")
    return pc.utf8_trim(x, " ")


def add_normalized_hash(ds, text_col: str, out_col: str = "norm_h"):
    """Attach a stable uint64 hash of the normalized text — the join/dedup
    key for normalization-aware exact dedup. Only this 8-byte column (plus
    whatever the caller selects) ever needs to ride a shuffle; the text
    stays columnar in its source blocks."""

    def fn(batch: pa.Table) -> pa.Table:
        norm = normalize_expr(batch[text_col])
        h = hash64(norm.to_numpy(zero_copy_only=False))
        return batch.append_column(out_col, pa.array(h.astype(np.uint64)))

    return ds.map_batches(fn, batch_format="pyarrow")


def normalized_distinct_by_key(ds, text_col: str, key_col: str,
                               out_name: str = "n_distinct"):
    """Per-key exact distinct count of NORMALIZED text: how many unique
    documents each stratum holds once case/whitespace mirrors collapse.
    Shuffles only (key, hash) pairs — the ``distinct_count_by_key``
    topology over the normalized hash."""
    from .relational import distinct_count_by_key

    with_h = add_normalized_hash(ds, text_col)
    return distinct_count_by_key(
        with_h.select_columns([key_col, "norm_h"]), key_col, "norm_h",
        out_name)


def _explode_lines(b: pa.Table, text_col: str, carry_col: str, sep: str,
                   with_line: bool = False) -> pa.Table:
    """Vectorized doc→line explode of one batch, splitting its text once:
    one row per line with the doc's ``carry_col`` repeated —
    ``(carry_col, line_h: uint64->int64, line_len, line_idx[, line])``.
    Line identity is the literal separator-split segment, so SQL's
    string_split reproduces the exact same line set."""
    lists = pc.split_pattern(b[text_col].combine_chunks(), sep)
    lines = pc.list_flatten(lists)
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    rep = np.repeat(np.arange(len(lens)), lens)
    # within-doc position, for order-preserving rebuilds
    starts = np.concatenate(([0], np.cumsum(lens)))[:-1]
    cols = {
        carry_col: b[carry_col].take(pa.array(rep)),
        "line_h": pa.array(
            hash64(lines.to_numpy(zero_copy_only=False)).astype(np.int64)),
        "line_len": pa.array(pc.utf8_length(lines)
                             .to_numpy(zero_copy_only=False).astype(np.int64)),
        "line_idx": pa.array((np.arange(len(rep)) - starts[rep])
                             .astype(np.int64)),
    }
    if with_line:
        cols["line"] = lines
    return pa.table(cols)


def _mark_duplicate_lines(ds, text_col: str, carry_col: str, sep: str,
                          min_dup: int, n_rows: int | None, fold,
                          with_line: bool = False):
    """The line-hash exchange both line-dedup operators share: docs
    explode into lines in its projection (``_explode_lines``), every
    occurrence of a line meets in one call, and ``fold(g, dup)`` gets the
    call's line rows with ``dup`` marking those whose global occurrence
    count reaches ``min_dup``. ``n_rows`` counts documents (None when
    unknown); the exchange sizes for ``_LINE_FANOUT`` lines each."""

    def mark(g: pd.DataFrame):
        order, _, counts = _key_runs(g["line_h"].to_numpy())
        dup = np.empty(len(g), dtype=bool)
        dup[order] = np.repeat(counts >= min_dup, counts)
        return fold(g, dup)

    return bucketed_map_groups(
        ds, ["line_h"], mark,
        project=lambda b: _explode_lines(b, text_col, carry_col, sep,
                                         with_line),
        n_rows=None if n_rows is None else n_rows * _LINE_FANOUT)


def line_dedup_stats(ds, text_col: str, key_col: str, sep: str = ". ",
                     min_dup: int = 2, n_rows: int | None = None):
    """C4-style cross-document LINE dedup audit: explode docs into
    separator-split lines, count each distinct line's global occurrences,
    and report per key how many line instances are duplicated
    (occurrence count >= min_dup) and how many characters survive if
    duplicated lines are dropped.

    ONE wide shuffle: exploded (key, line_h, line_len) rows co-partition
    on the 8-byte line hash (``_mark_duplicate_lines``, cost ∝ line
    instances); the count-and-mark happens inside each bucket, and only
    O(keys) partial rows leave it, summed per key by
    ``hash_bucketed_group_agg``. No broadcast of the duplicate set — it
    never materializes anywhere.
    """
    if n_rows is None:
        n_rows = cheap_row_count(ds)

    def per_key(g: pd.DataFrame, dup: np.ndarray) -> pd.DataFrame:
        out = pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            "n_lines": np.int64(1),
            "n_dup_lines": dup.astype(np.int64),
            "chars_kept": np.where(dup, 0, g["line_len"].to_numpy())
            .astype(np.int64)})
        return out.groupby(key_col, as_index=False, sort=False).sum()

    partials = _mark_duplicate_lines(ds, text_col, key_col, sep, min_dup,
                                     n_rows, per_key)
    return hash_bucketed_group_agg(
        partials, [key_col],
        {c: (c, "sum") for c in ("n_lines", "n_dup_lines", "chars_kept")},
        n_rows=n_rows)


def drop_duplicate_lines(ds, text_col: str, id_col: str,
                         sep: str = ". ", min_dup: int = 2,
                         n_rows: int | None = None):
    """The C4 line-dedup REWRITE: remove every line whose global
    occurrence count reaches ``min_dup`` and rebuild each document in
    original line order. Returns (id, text, n_dropped).

    Two keyed exchanges, both ∝ line instances (inherent for a rewrite —
    the lines ARE the output): co-partition on the line hash to mark
    duplicates (``_mark_duplicate_lines``), then regroup by document,
    where each call sorts its documents' lines once by (doc, line_idx)
    and joins every document's kept lines with one Arrow kernel. The
    duplicate set itself never materializes.
    """
    if n_rows is None:
        n_rows = cheap_row_count(ds)
    marked = _mark_duplicate_lines(
        ds, text_col, id_col, sep, min_dup, n_rows,
        lambda g, dup: g[[id_col, "line_idx", "line"]].assign(_dup=dup),
        with_line=True)

    def rebuild(g: pd.DataFrame) -> pa.Table:
        g, starts, counts = _sorted_runs(g, id_col, "line_idx")
        keep = ~g["_dup"].to_numpy(dtype=bool)
        kept = np.add.reduceat(keep.astype(np.int64), starts)
        lines = pa.ListArray.from_arrays(
            pa.array(np.r_[0, np.cumsum(kept)].astype(np.int32)),
            pa.array(g["line"].to_numpy()[keep], type=pa.string()))
        return pa.table({id_col: g[id_col].to_numpy()[starts],
                         text_col: pc.binary_join(lines, sep),
                         "n_dropped": counts - kept})

    return bucketed_map_groups(
        marked, [id_col], rebuild,
        n_rows=None if n_rows is None else n_rows * _LINE_FANOUT)


def priority_sample_subset_check(ds, key_col: str, k: int = 512,
                                 mod: int = 3, residue: int = 0,
                                 batch_size: int | None = None,
                                 n_rows: int | None = None):
    """Priority-sampling weighted sample (state/priority.py, Duffield-
    Lund-Thorup JACM 2007) gated against exact subset sums, VALUE-CHECKED.

    Weight of a key = its exact row count (an integer, so the exact side
    hash-matches SQL COUNT filters bit-for-bit). Topology:

    1. exact per-key counts via the hash-bucketed vectorized combine —
       the ONE shuffle; each key lands in exactly one output block, the
       disjointness the priority-sample merge contract requires;
    2. one PrioritySample partial per counts block (KB rows), folded
       through the standard merge — the merged sample is
       IDENTICAL to a single-machine sample because priorities are
       splitmix64-derived from keys (layout-invariant by construction);
    3. gate: the sample's subset-sum estimate for the predicate
       ``key % mod == residue`` and its total estimate must both sit
       within ``5 * W_total / sqrt(k - 1)`` of the exact answers
       (Chebyshev on the near-optimal priority-sampling variance
       bound, Szegedy 2006).

    Output: one row ``(n_keys, subset_exact, total_exact,
    within_bound)`` — the three exact columns hash-match
    ``COUNT(DISTINCT ..)`` / filtered-COUNT SQL.
    """
    from ..stages.aggregate import SKETCH_COL, KeyedSketches, merge_partials
    from ..state.priority import PrioritySample
    from ..state.protocol import SketchSpec

    def batch_counts(b: pa.Table) -> pa.Table:
        uniq, cnt = np.unique(b[key_col].to_numpy(zero_copy_only=False),
                              return_counts=True)
        return pa.table({key_col: pa.array(uniq),
                         "cnt": pa.array(cnt.astype(np.int64))})

    counts = hash_bucketed_group_agg(
        ds.map_batches(batch_counts, batch_format="pyarrow",
                       batch_size=batch_size),
        [key_col], {"cnt": ("cnt", "sum")}, n_rows=n_rows).materialize()

    spec = SketchSpec(name="priority",
                      factory=lambda: PrioritySample(k),
                      from_bytes=PrioritySample.from_bytes)

    def partial(b: pa.Table) -> pa.Table:
        acc = KeyedSketches(spec)
        acc.add(None, {key_col: b[key_col]}, pc.cast(b["cnt"], pa.float64()))
        return acc.flush()

    merged_row = merge_partials(
        counts.map_batches(partial, batch_format="pyarrow"),
        spec).take(1)[0]
    sample = PrioritySample.from_bytes(merged_row[SKETCH_COL])

    # exact side, distributed over the counts table
    def exact_partial(b: pa.Table) -> pa.Table:
        keys = b[key_col].to_numpy(zero_copy_only=False)
        cnt = b["cnt"].to_numpy(zero_copy_only=False)
        in_sub = (keys.astype(np.int64) % mod) == residue
        return pa.table({
            "n_keys": pa.array([len(keys)], type=pa.int64()),
            "sub": pa.array([int(cnt[in_sub].sum())], type=pa.int64()),
            "tot": pa.array([int(cnt.sum())], type=pa.int64())})

    ex = counts.map_batches(exact_partial,
                            batch_format="pyarrow").materialize()
    n_keys = int(ex.sum("n_keys") or 0)
    subset_exact = int(ex.sum("sub") or 0)
    total_exact = int(ex.sum("tot") or 0)

    bound = 5.0 * float(total_exact) / np.sqrt(max(k - 1, 1))
    est_sub = sample.subset_sum(
        lambda ks: np.array([int(x) % mod == residue for x in ks]))
    est_tot = sample.total_estimate()
    ok = (abs(est_sub - subset_exact) <= bound
          and abs(est_tot - total_exact) <= bound)
    return pa.table({
        "n_keys": pa.array([n_keys], type=pa.int64()),
        "subset_exact": pa.array([subset_exact], type=pa.int64()),
        "total_exact": pa.array([total_exact], type=pa.int64()),
        "within_bound": pa.array([bool(ok)], type=pa.bool_()),
    })


def hash_split_counts(ds, id_col: str, key: str, stat_col: str,
                      test_rate: float = 0.2, seed: int = 0):
    """Deterministic leak-free train/test split audit: every row lands
    in 'test' iff ``splitmix64(id) < test_rate * 2^64`` else 'train'
    (disjoint by construction — the complement of bernoulli_sample's
    keep-set), and the op reports per (key, split) row counts and an
    exact int64 sum of ``stat_col``. Pure per-batch labelling + the
    ``hash_bucketed_group_agg`` combine; only (keys × 2) integer rows
    per batch ride the exchange, so it takes no input row count (a
    metadata count of a parquet read written from pandas logs Ray's
    "Failed to hash the schemas").
    """
    threshold = np.uint64(min(int(test_rate * 2.0 ** 64), 2 ** 64 - 1))

    def label(batch: pa.Table) -> pa.Table:
        h = _mix(batch[id_col].to_numpy(zero_copy_only=False)
                 .astype(np.uint64), seed)
        return pa.table({
            key: batch[key],
            "split": pa.array(np.where(h < threshold, "test", "train")),
            "sum_stat": pa.array(batch[stat_col].to_numpy(
                zero_copy_only=False).astype(np.int64))})

    return hash_bucketed_group_agg(
        ds.map_batches(label, batch_format="pyarrow"), [key, "split"],
        {"n_docs": (key, "count"), "sum_stat": ("sum_stat", "sum")})


def k_anonymity_audit(ds, qi_cols, k: int = 5):
    """Privacy-hygiene audit: treating ``qi_cols`` as a quasi-identifier
    tuple, how many equivalence classes exist, how many are smaller
    than ``k`` (re-identifiable under k-anonymity), and how many rows
    sit in those at-risk classes. Per-batch QI counts combine first
    (``hash_bucketed_group_agg``), so only equivalence-class-sized
    integer rows ride the exchange; the fold emits one row.
    """
    qi_cols = list(qi_cols)
    classes = hash_bucketed_group_agg(
        ds.select_columns(qi_cols), qi_cols, {"cnt": (qi_cols[0], "count")},
        n_rows=cheap_row_count(ds))

    def summarize_batch(b: pa.Table) -> pa.Table:
        cnt = b["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        small = cnt < k
        return pa.table({
            "n_groups": pa.array([len(cnt)], type=pa.int64()),
            "n_small_groups": pa.array([int(small.sum())],
                                       type=pa.int64()),
            "n_rows_at_risk": pa.array([int(cnt[small].sum())],
                                       type=pa.int64()),
            "n_rows": pa.array([int(cnt.sum())], type=pa.int64()),
        })

    folded = (classes.map_batches(summarize_batch,
                                  batch_format="pyarrow").to_pandas())
    out = folded.sum()
    return pd.DataFrame({c: np.array([int(out[c])], dtype=np.int64)
                         for c in ("n_groups", "n_small_groups",
                                   "n_rows_at_risk", "n_rows")})


def dsir_importance_stats(ds, text_col: str = "text",
                          doc_id_col: str = "doc_id", key: str = "lang",
                          target_group: str = "en",
                          n_buckets: int = 4096, k: int = 100,
                          alpha: float = 1.0, seed: int = 7):
    """DSIR — Data Selection with Importance Resampling (Xie et al.,
    NeurIPS 2023) — over hashed unigram features, selecting the k raw
    documents whose token distribution best matches a target slice
    (here: the ``key == target_group`` documents, so the op is
    self-contained).

    Pass 1 (two KB-sized aggregates in one map): per-batch partial
    counts of token-hash buckets for the TARGET slice and for ALL docs
    -> ``hash_bucketed_group_agg`` sum per bucket -> the driver pulls the
    ``n_buckets``-row table and broadcasts the per-bucket log-ratio
        lam[b] = ln((T[b]+a) / (T_tot+a*B)) - ln((R[b]+a) / (R_tot+a*B)).
    Pass 2: per-doc importance log-weight = sum over its tokens of
    lam[bucket(token)] (deterministic: a doc's tokens are contiguous in
    one batch and the bincount fold runs in index order), then
    Gumbel-top-k sampling — selection key = logw + Gumbel(u(doc_id))
    with u a splitmix64 uniform of the doc id, so the draw is
    reproducible and layout-invariant. The top-k runs with the same
    per-batch-combiner topology as ``topk_per_key`` (at most k rows per
    batch survive to the final fold, the keyed exchange's one-bucket
    case).

    Returns a pandas DataFrame, one row per ``key`` group:
    ``(key, n_docs, n_selected)``. The feature hash (splitmix64 family)
    has no SQL equivalent, so the graded entry is rows-only; the pytest
    twin replays the whole path in pure Python.
    """
    B = int(n_buckets)
    n_rows = cheap_row_count(ds)

    def token_buckets(b: pa.Table):
        toks, doc_of = split_tokens(b[text_col])
        return (hash64(toks.to_numpy(zero_copy_only=False))
                % np.uint64(B)).astype(np.int64), doc_of

    def bucket_partials(b: pa.Table) -> pd.DataFrame:
        bkt, doc_of = token_buckets(b)
        is_tgt = (b[key].to_numpy(zero_copy_only=False)
                  == target_group)[doc_of]
        r_cnt = np.bincount(bkt, minlength=B)
        t_cnt = np.bincount(bkt[is_tgt], minlength=B)
        nz = (r_cnt > 0) | (t_cnt > 0)
        return pd.DataFrame({
            "bucket": np.flatnonzero(nz).astype(np.int64),
            "t_part": t_cnt[nz].astype(np.int64),
            "r_part": r_cnt[nz].astype(np.int64)})

    counts = hash_bucketed_group_agg(
        ds.map_batches(bucket_partials, batch_format="pyarrow"), ["bucket"],
        {"t_cnt": ("t_part", "sum"), "r_cnt": ("r_part", "sum")},
        n_rows=n_rows).to_pandas()  # <= n_buckets rows — KB-sized by design
    t = np.zeros(B, dtype=np.int64)
    r = np.zeros(B, dtype=np.int64)
    t[counts["bucket"].to_numpy()] = counts["t_cnt"].to_numpy()
    r[counts["bucket"].to_numpy()] = counts["r_cnt"].to_numpy()
    t_tot, r_tot = int(t.sum()), int(r.sum())
    lam = (np.log((t + alpha) / (t_tot + alpha * B))
           - np.log((r + alpha) / (r_tot + alpha * B)))

    def score_and_keep(b: pa.Table) -> pd.DataFrame:
        bkt, doc_of = token_buckets(b)
        logw = np.bincount(doc_of, weights=lam[bkt], minlength=b.num_rows)
        ids = b[doc_id_col].to_numpy(zero_copy_only=False)
        u = (splitmix64(ids.astype(np.uint64)
                        ^ np.uint64(seed)).astype(np.float64)
             + 1.0) / 18446744073709551618.0
        skey = logw - np.log(-np.log(u))
        kv = b[key].to_pandas()
        # local combiner: only this batch's k best survive the fold
        order = np.lexsort((ids, -skey))[:k]
        return pd.DataFrame({"doc": ids[order],
                             "skey": skey[order],
                             key: kv.iloc[order].to_numpy()})

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        order = np.lexsort((g["doc"].to_numpy(),
                            -g["skey"].to_numpy()))[:k]
        return g.iloc[order][["doc", "skey", key]]

    selected = bucketed_map_groups(ds, [], final_topk,
                                   project=score_and_keep,
                                   n_buckets=1).to_pandas()  # k rows
    n_docs = hash_bucketed_group_agg(
        ds.select_columns([key]), [key], {"n_docs": (key, "count")},
        n_rows=n_rows).to_pandas()
    sel = (selected.groupby(key).size().rename("n_selected")
           .reset_index())
    out = n_docs.merge(sel, on=key, how="left")
    out["n_selected"] = out["n_selected"].fillna(0).astype(np.int64)
    out["n_docs"] = out["n_docs"].astype(np.int64)
    return out.sort_values(key).reset_index(drop=True)


def canonical_url_report(ds, url_col: str):
    """Crawl URL-canonicalization dedup report: canonicalize every URL
    (functions/url.canonicalize_urls — the fixed RE2 rewrite sequence:
    fragment, case, www., :80, utm_* params, separator repair, trailing
    slash), then per canonical HOST report page count, exact distinct
    canonical URLs, and the duplicate count the canonicalization
    exposed. Canonical/host derivation is one vectorized Arrow pass, and
    each batch counts its own (host, canon) pairs, so only unique pairs
    per batch reach ONE keyed exchange on host, whose calls give every
    host's page count and distinct canonical URLs together.

    Output: (host, n_pages, n_canonical, n_dup) per host.
    """
    from ..functions.url import canonicalize_urls, url_host

    def pair_counts(b: pa.Table) -> pd.DataFrame:
        c = canonicalize_urls(b[url_col])
        pairs = pd.DataFrame({"host": url_host(c).to_numpy(
            zero_copy_only=False), "canon": c.to_numpy(zero_copy_only=False)})
        return pairs.groupby(["host", "canon"], as_index=False,
                             sort=False).size()

    def per_host(g: pd.DataFrame) -> pd.DataFrame:
        pages = g.groupby(["host", "canon"], sort=False)["size"].sum() \
            .groupby(level="host", sort=False)
        return pd.DataFrame({"n_pages": pages.sum(),
                             "n_canonical": pages.size()}).reset_index()

    out = bucketed_map_groups(ds, ["host"], per_host,
                              project=pair_counts).to_pandas()
    out["n_dup"] = out["n_pages"] - out["n_canonical"]
    return out.sort_values("host").reset_index(drop=True)
