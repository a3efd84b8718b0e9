"""Temporal operators: tumbling/sliding windows, as-of join, sessionization.

The reference has no window/join operators (SURVEY.md §2.4 — "categories the
reference has no instance of"); a training-data engine needs them, so they
are built Ray-Data-first here:

* ``tumbling_window``  — truncated-timestamp grouping via the vectorized
  hash-bucketed aggregate (per-batch pandas partials = map-side combine;
  group counts scale with the time span, so the shuffle carries partial
  rows, never per-group Python).
* ``sliding_window``   — each row is exploded to its size/step windows
  inside ``map_batches`` (vectorized repeat), then the same groupby.
* ``asof_join``        — most recent right row with ``r.ts <= l.ts`` per
  key: both sides are tagged and co-partitioned by key, so only one
  shuffle of the two inputs happens and the per-bucket merge is a sorted
  cumulative-count lookup, not a nested loop.
* ``sessionize``       — per-user session segmentation with a gap rule,
  detected vectorized on each (user, ts)-sorted bucket.

Every per-user (or per-key) operator runs on ONE exchange,
``stages.aggregate.bucketed_map_groups``: all rows of a key land in one
call, which folds a whole hash bucket of keys with vectorized code (one
sort, boundary masks, ``reduceat``), so the Python cost scales with
buckets, never with users; bucket size stays bounded because #keys per
bucket ~ #keys / buckets and per-row state is O(1).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.aggregate import bucketed_map_groups, hash_bucketed_group_agg
from .quantiles import pct


def _epoch_us(col: pa.ChunkedArray) -> np.ndarray:
    """Microseconds since epoch regardless of the column's timestamp unit
    (timestamp[ns] input would otherwise be silently read 1000x off)."""
    if pa.types.is_timestamp(col.type) and col.type.unit != "us":
        col = col.cast(pa.timestamp("us", col.type.tz))
    return col.cast(pa.int64()).to_numpy(zero_copy_only=False)


def _epoch_s(col: pa.ChunkedArray) -> np.ndarray:
    return (_epoch_us(col) // 1_000_000).astype(np.int64)


def _by_user(user_col: str, ts_col: str, *carry: str):
    """Projection for the per-user operators: the user, the event time as
    integer ``ts_us``, and the ``carry`` columns."""

    def project(b: pa.Table) -> pa.Table:
        cols = {user_col: b[user_col],
                "ts_us": pa.array(_epoch_us(b[ts_col]))}
        for c in carry:
            cols[c] = b[c]
        return pa.table(cols)

    return project


def _user_days(user_col: str, ts_col: str):
    """Projection to the batch's distinct (user, epoch day) rows."""

    def project(b: pa.Table) -> pa.Table:
        return (pa.table({user_col: b[user_col],
                          "day": pa.array(_epoch_s(b[ts_col]) // 86400)})
                .group_by([user_col, "day"]).aggregate([]))

    return project


def _user_order(g: pd.DataFrame, user_col: str, tie_col: str | None = None):
    """Sort one bucket by (user, ts[, tie]); returns it and the mask of
    each user's first row."""
    g = g.sort_values([user_col, "ts_us"] + ([tie_col] if tie_col else []),
                      kind="stable")
    users = g[user_col].to_numpy()
    return g, np.r_[True, users[1:] != users[:-1]]


def _session_starts(g: pd.DataFrame, user_col: str, gap_s: int,
                    tie_col: str | None = None):
    """The gap rule on one bucket: after ``_user_order``, a row starts a
    session when it is the user's first or comes more than ``gap_s``
    after the user's previous event. Returns (g, new_user, is_start)."""
    g, new_user = _user_order(g, user_col, tie_col)
    ts = g["ts_us"].to_numpy(dtype=np.int64)
    return g, new_user, new_user | np.r_[True, np.diff(ts) > gap_s * 1_000_000]


def tumbling_window(ds, ts_col: str, window_s: int, key: str | None = None,
                    value_col: str | None = None):
    """Per-(window, key) count and optional value sum; window_start_s is the
    epoch-second start of the tumbling window."""

    def assign(batch: pa.Table) -> pa.Table:
        secs = _epoch_s(batch[ts_col])
        ws = (secs // window_s) * window_s
        cols = {"window_start_s": pa.array(ws)}
        if key:
            cols[key] = batch[key]
        if value_col:
            cols[value_col] = batch[value_col]
        return pa.table(cols)

    assigned = ds.map_batches(assign, batch_format="pyarrow")
    group = ["window_start_s"] + ([key] if key else [])
    # one group per (window, key): group counts scale with the time span,
    # so use the vectorized hash-bucketed aggregate (per-batch pandas
    # partials double as the map-side combine) instead of Ray's
    # sort-based aggregate, which pays ~1 ms of Python per group
    aggs = {"cnt": ("window_start_s", "count")}
    if value_col:
        aggs["sum_value"] = (value_col, "sum")
    return hash_bucketed_group_agg(assigned, group, aggs)


def sliding_window(ds, ts_col: str, size_s: int, step_s: int,
                   key: str | None = None):
    """Sliding windows on a step grid: a row at time t belongs to every
    window start in (t - size, t] on multiples of step."""

    assert size_s % step_s == 0, "size must be a multiple of step"
    k = size_s // step_s

    def explode(batch: pa.Table) -> pa.Table:
        secs = _epoch_s(batch[ts_col])
        base = (secs // step_s) * step_s
        n = len(secs)
        starts = np.repeat(base, k) - np.tile(
            np.arange(k, dtype=np.int64) * step_s, n)
        keep = starts > np.repeat(secs, k) - size_s
        cols = {"window_start_s": pa.array(starts[keep])}
        if key:
            karr = batch[key].to_numpy(zero_copy_only=False)
            cols[key] = pa.array(np.repeat(karr, k)[keep])
        return pa.table(cols)

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    group = ["window_start_s"] + ([key] if key else [])
    # vectorized many-group aggregate (see tumbling_window)
    return hash_bucketed_group_agg(
        exploded, group, {"cnt": ("window_start_s", "count")})


def asof_join(left, right, key_col: str, ts_col: str,
              left_id: str, right_id: str):
    """For each left row, the most recent right row with ``r.ts <= l.ts``
    and the same key (inner: lefts with no prior right are dropped).

    Returns rows (left_id, right_id as ``prior_id``, gap_s). One shuffle:
    both tagged sides co-partition on the key, with the bucket count
    sized from the two sources' combined metadata row count.
    """
    from ..stages.partitioning import cheap_row_count

    def tag(side: int, id_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({
                key_col: batch[key_col],
                "ts_us": pa.array(_epoch_us(batch[ts_col])),
                "row_id": batch[id_col],
                "is_left": pa.array(np.full(batch.num_rows, side,
                                            dtype=np.int8)),
            })
        return fn

    tagged = (left.map_batches(tag(1, left_id), batch_format="pyarrow")
              .union(right.map_batches(tag(0, right_id),
                                       batch_format="pyarrow")))

    def bucket_asof(g: pd.DataFrame) -> pd.DataFrame:
        # sort: key runs, time ascending, rights before lefts on ties
        # (a right at exactly l.ts qualifies); row_id last so ties among
        # equal (key, ts) rights resolve the same way regardless of Ray's
        # block delivery order (parallelism invariance)
        g = g.sort_values([key_col, "ts_us", "is_left", "row_id"],
                          kind="stable").reset_index(drop=True)
        keys = g[key_col].to_numpy()
        is_left = g["is_left"].to_numpy() == 1
        ts = g["ts_us"].to_numpy()
        rid = g["row_id"].to_numpy()
        run_start = np.r_[True, keys[1:] != keys[:-1]]
        # cumulative #rights seen, reset at run starts
        rights_cum = np.cumsum(~is_left)
        run_base = np.where(run_start, rights_cum - (~is_left).astype(int), 0)
        run_base = np.maximum.accumulate(np.where(run_start, run_base, -1))
        n_rights_before = rights_cum - run_base - (~is_left).astype(int)
        right_positions = np.flatnonzero(~is_left)
        out_mask = is_left & (n_rights_before > 0)
        # the (n_rights_before)-th right overall within this run:
        # global index into right_positions = run_base + n_before - 1
        sel = (run_base + n_rights_before - 1)[out_mask]
        prior = right_positions[sel]
        return pd.DataFrame({
            left_id: rid[out_mask],
            "prior_id": rid[prior],
            "gap_s": ((ts[out_mask] - ts[prior])
                      // 1_000_000).astype(np.int64),
        })

    nl, nr = cheap_row_count(left), cheap_row_count(right)
    return bucketed_map_groups(tagged, [key_col], bucket_asof,
                               n_rows=None if None in (nl, nr) else nl + nr)


def watermark_flags(ds, ts_col: str, order_col: str, lateness_s: int,
                    carry_cols: tuple[str, ...] = (),
                    n_buckets: int | None = None,
                    order_range: tuple[int, int] | None = None,
                    emit_wm: bool = False):
    """Streaming watermark semantics on a batch log (event-time vs arrival
    order): flag each event as on-time or late.

    An event arriving at position ``order_col`` sees watermark
    ``wm = max(event time of all STRICTLY earlier arrivals)``; it is late
    iff ``ts < wm - lateness_s`` — the standard allowed-lateness rule a
    streaming engine applies before closing windows, reproduced exactly on
    the replayable log.

    Distributed as a two-level prefix-max, layout-independent (exact at
    any parallelism): arrivals are bucketed by contiguous ``order_col``
    ranges; a tiny per-bucket max-ts table is reduced on the driver into
    prefix maxima ``P[b] = max ts of buckets < b`` and broadcast; each
    bucket group then sorts by arrival and combines ``P[b]`` with its
    in-bucket running max. One shuffle of (order, ts, carry) rows; the
    driver holds one row per bucket.

    Returns rows ``(order_col, *carry_cols, on_time: bool)``.

    ``order_range=(lo, hi)`` (inclusive) skips the min/max pre-pass when
    the caller already knows the arrival-key range (e.g. dense event ids)
    — the input is then scanned twice (bucket-max pass + flag pass)
    instead of three times.
    """
    import ray

    from ..stages.partitioning import coarse_bucket_count

    if n_buckets is None:
        n_buckets = coarse_bucket_count(ds, rows_per_bucket=262144,
                                        what="watermark_flags")

    # order-value range -> contiguous buckets (layout-independent)
    if order_range is not None:
        lo, hi = int(order_range[0]), int(order_range[1])
    else:
        from ray.data.aggregate import Max as AggMax
        from ray.data.aggregate import Min as AggMin
        rng = ds.aggregate(AggMin(order_col, alias_name="lo"),
                           AggMax(order_col, alias_name="hi"))
        lo, hi = int(rng["lo"]), int(rng["hi"])
    span = max(hi - lo + 1, 1)
    width = -(-span // n_buckets)

    def project(batch: pa.Table) -> pa.Table:
        o = batch[order_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cols = {
            "bucket": pa.array(((o - lo) // width).astype(np.int32)),
            order_col: pa.array(o),
            "ts_us": pa.array(_epoch_us(batch[ts_col])),
        }
        for c in carry_cols:
            cols[c] = batch[c]
        return pa.table(cols)

    projected = ds.map_batches(project, batch_format="pyarrow")

    # level 1: tiny per-bucket max-ts table -> driver prefix-max. Folded
    # with the vectorized hash-bucketed combine: up to 2^20 buckets means
    # up to 2^20 GROUPS, where Ray's sort-based aggregate pays ~1 ms of
    # Python each; the combine's per-batch partial also shrinks the
    # shuffle to <= n_buckets rows per block.
    bucket_max = hash_bucketed_group_agg(
        projected.select_columns(["bucket", "ts_us"]), ["bucket"],
        {"max_ts": ("ts_us", "max")}, n_rows=n_buckets).to_pandas()
    bucket_max = bucket_max.sort_values("bucket")
    # P[b] = max ts of all buckets before b: cummax shifted by one
    maxima = bucket_max["max_ts"].to_numpy(dtype=np.float64)
    shifted = np.maximum.accumulate(np.r_[-np.inf, maxima[:-1]])
    prefix = dict(zip(bucket_max["bucket"].astype(int), shifted))
    prefix_ref = ray.put(prefix)
    late_us = int(lateness_s) * 1_000_000

    def bucket_flags(g: pd.DataFrame) -> pd.DataFrame:
        p = ray.get(prefix_ref)
        g = g.sort_values(order_col, kind="stable")
        ts = g["ts_us"].to_numpy(dtype=np.float64)
        base = p.get(int(g["bucket"].iloc[0]), -np.inf)
        # strictly-preceding running max: shift by one, seed with P[b]
        run = np.maximum.accumulate(np.r_[base, ts[:-1]])
        wm = np.maximum(run, base)
        out = {order_col: g[order_col].to_numpy()}
        for c in carry_cols:
            out[c] = g[c].to_numpy()
        out["on_time"] = ts >= wm - late_us
        if emit_wm:
            # per-event watermark (max ts over strictly earlier arrivals;
            # -inf for the globally first arrival) + the event time, for
            # consumers applying their own close rules (window finalize)
            out["wm_us"] = wm
            out["ts_us"] = ts
        return pd.DataFrame(out)

    return projected.groupby("bucket").map_groups(bucket_flags,
                                                  batch_format="pandas")


def watermarked_window_split(ds, ts_col: str, order_col: str,
                             value_col: str, window_s: int, lateness_s: int,
                             key_col: str | None = None,
                             n_buckets: int | None = None,
                             order_range: tuple[int, int] | None = None):
    """Streaming window-close semantics on the replayable log: a tumbling
    window ``[ws, ws + window_s)`` is CLOSED once the watermark passes
    ``ws + window_s + lateness_s``; an event whose window was already
    closed at its arrival is dropped (the standard allowed-lateness
    finalize rule — what a streaming engine does between
    ``watermark_flags`` and emitting window aggregates).

    Returns one row per event: ``(wkey, value_col, acc_i, drop_i)`` with
    ``wkey = "<window_start_s>|<key>"`` (or just the window start when
    ``key_col`` is None) — accepted rows feed any sketch/aggregate
    pipeline keyed on ``wkey``; ``drop_i`` sums to the per-window
    late-dropped count. Distribution: the exact two-level prefix-max of
    ``watermark_flags`` plus one stateless vectorized classify pass.
    """
    carry = (value_col,) + ((key_col,) if key_col else ())
    flags = watermark_flags(ds, ts_col, order_col, lateness_s=lateness_s,
                            carry_cols=carry, n_buckets=n_buckets,
                            order_range=order_range, emit_wm=True)
    win_us = int(window_s) * 1_000_000
    late_us = int(lateness_s) * 1_000_000

    def classify(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["ts_us"].to_numpy(dtype=np.int64)
        wm = df["wm_us"].to_numpy(dtype=np.float64)
        ws = (ts // win_us) * win_us
        closed = wm > (ws + win_us + late_us).astype(np.float64)
        wkey = (ws // 1_000_000).astype(np.int64).astype("U")
        if key_col is not None:
            wkey = np.char.add(np.char.add(wkey, "|"),
                               df[key_col].to_numpy().astype("U"))
        return pd.DataFrame({
            "wkey": wkey,
            value_col: df[value_col].to_numpy(),
            "acc_i": (~closed).astype(np.int64),
            "drop_i": closed.astype(np.int64),
        })

    return flags.map_batches(classify, batch_format="pandas")


def sessionize(ds, user_col: str, ts_col: str, gap_s: int):
    """Per-user session counts under a gap rule: a new session starts when
    the time since the user's previous event exceeds ``gap_s``.
    Returns rows (user_col, n_sessions)."""

    def bucket_sessions(g: pd.DataFrame) -> pd.DataFrame:
        g, new_user, is_start = _session_starts(g, user_col, gap_s)
        # one row per user, not per event: the bucket holds ALL of a
        # user's rows, so its total is complete and no second aggregate
        # runs
        firsts = np.flatnonzero(new_user)
        return pd.DataFrame({
            user_col: g[user_col].to_numpy()[firsts],
            "n_sessions": np.add.reduceat(is_start.astype(np.int64),
                                          firsts)})

    return bucketed_map_groups(ds, [user_col], bucket_sessions,
                               project=_by_user(user_col, ts_col))


def windowed_join_count(left, right, key_col: str, ts_col: str,
                        window_s: int, out_count: str = "n_pairs"):
    """Stream-stream WINDOWED equi-join pair count: for each key, count
    (left, right) event pairs with ``0 <= t_right - t_left <= window_s``
    — "purchases within an hour after a click", the interval-join
    primitive of streaming engines. Exact integer microsecond arithmetic
    (no float time math), so the count has an exact SQL oracle.

    Topology (the band-join pattern of ``relational.range_join_count``
    lifted to a composite key): left rows live in their own
    (key, t // W) bucket; right rows replicate to time buckets
    {j-1, j} so every directional pair co-locates exactly once in the
    left row's bucket. ONE union+groupby co-partitions both streams;
    within a bucket the rights are sorted once and each left counts its
    window with two searchsorted probes. Skew: a hot key spreads over
    its time buckets — only a key that is ALSO temporally concentrated
    inside one window width lands in one task (then pre-aggregate or
    salt, same contract as hash_join).

    Returns (key_col, n_pairs) per key with at least one pair.
    """
    from ray.data.aggregate import Sum

    w_us = np.int64(int(window_s) * 1_000_000)

    def quant(is_left: bool):
        def fn(b: pa.Table) -> pa.Table:
            t = _epoch_us(b[ts_col])
            k = t // w_us
            keys = b[key_col].to_numpy(zero_copy_only=False)
            if is_left:
                return pa.table({
                    key_col: pa.array(keys), "tbkt": pa.array(k),
                    "t": pa.array(t),
                    "is_left": pa.array(np.ones(len(t), dtype=np.int8))})
            return pa.table({
                key_col: pa.array(np.tile(keys, 2)),
                "tbkt": pa.array(np.concatenate([k - 1, k])),
                "t": pa.array(np.tile(t, 2)),
                "is_left": pa.array(np.zeros(2 * len(t), dtype=np.int8))})
        return fn

    tagged = (left.map_batches(quant(True), batch_format="pyarrow")
              .union(right.map_batches(quant(False),
                                       batch_format="pyarrow")))

    def bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        is_l = g["is_left"].to_numpy() == 1
        tl = g["t"].to_numpy()[is_l]
        tr = np.sort(g["t"].to_numpy()[~is_l])
        n = 0
        if len(tl) and len(tr):
            lo = np.searchsorted(tr, tl, side="left")
            hi = np.searchsorted(tr, tl + w_us, side="right")
            n = int((hi - lo).sum())
        head = g[key_col].iloc[:1] if n > 0 else g[key_col].iloc[:0]
        return pd.DataFrame({
            key_col: head.reset_index(drop=True),
            "_n": np.full(len(head), n, dtype=np.int64)})

    partial = tagged.groupby([key_col, "tbkt"]).map_groups(
        bucket_count, batch_format="pandas")
    out = partial.groupby(key_col).aggregate(
        Sum("_n", alias_name=out_count))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[out_count] > 0].copy()
        df[out_count] = df[out_count].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def retention_cohorts(ds, user_col: str, ts_col: str, deltas=(1, 7)):
    """Cohort retention matrix: for each activity day and each delta in
    ``deltas``, how many of that day's active users were active again
    exactly ``delta`` days later — the classic day-1/day-7 retention
    report.

    Topology: per-batch-distinct (user, day) rows (8-byte pairs on the one
    wide shuffle) co-locate by user; each bucket looks its (user,
    day + delta) pairs up in its own (user, day) set and emits
    (day, delta) partial counts; the final groupby runs over
    (day, delta) — calendar-sized. No step touches raw events twice.
    """
    from ray.data.aggregate import Sum

    deltas = [int(d) for d in deltas]

    def bucket_retention(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        users, days = g[user_col].to_numpy(), g["day"].to_numpy(np.int64)
        active = pd.MultiIndex.from_arrays([users, days])
        parts = [pd.DataFrame({
            "day": days, "delta": np.int64(d), "active": np.int64(1),
            "retained": pd.MultiIndex.from_arrays([users, days + d])
            .isin(active).astype(np.int64)}) for d in deltas]
        return (pd.concat(parts, ignore_index=True)
                .groupby(["day", "delta"], as_index=False, sort=False)
                .sum())

    out = (bucketed_map_groups(ds, [user_col], bucket_retention,
                               project=_user_days(user_col, ts_col))
           .groupby(["day", "delta"])
           .aggregate(Sum("active", alias_name="n_active"),
                      Sum("retained", alias_name="n_retained")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("day", "delta", "n_active", "n_retained"):
            df[c] = df[c].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def funnel_counts(ds, user_col: str, ts_col: str, type_col: str,
                  steps):
    """Ordered multi-step funnel: how many users complete step 1, then
    step 2 STRICTLY AFTER their first step-1 event, then step 3 strictly
    after that, ... (the product-analytics conversion funnel; timestamps
    compared with ``>`` so the convention is SQL-reproducible).

    Each user's events co-locate once; each bucket runs the funnel for
    all its users at once, one vectorized pass per step (the per-user
    min over masked timestamps of the users still in the funnel), and
    emits one row of step counts; the final fold is a single sum.
    Returns ONE row ``(n_step1, ..., n_stepK)``.
    """
    from ray.data.aggregate import Sum

    steps = list(steps)
    cols = [f"n_step{i}" for i in range(1, len(steps) + 1)]

    def bucket_funnel(g: pd.DataFrame) -> pd.DataFrame:
        users = g[user_col].to_numpy()
        ts = g["ts_us"].to_numpy(np.int64)
        et = g[type_col].to_numpy()
        # reached: each funnel user's time of the last step reached; users
        # who left the funnel read as +inf, so no later event is after it
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        reached = pd.Series(lo, index=pd.unique(users))
        counts = {}
        for c, s in zip(cols, steps):
            after = ts > reached.reindex(users, fill_value=hi).to_numpy()
            m = (et == s) & after
            reached = pd.Series(ts[m]).groupby(users[m]).min()
            counts[c] = [np.int64(len(reached))]
        return pd.DataFrame(counts)

    out = (bucketed_map_groups(ds, [user_col], bucket_funnel,
                               project=_by_user(user_col, ts_col, type_col))
           .aggregate(*[Sum(c, alias_name=c) for c in cols]))
    return pd.DataFrame({c: [np.int64(out[c])] for c in cols})


def transition_counts(ds, user_col: str, ts_col: str, tie_col: str,
                      type_col: str):
    """First-order event-sequence transition matrix (the Markov-chain /
    session-flow report): per user, consecutive (prev_type, next_type)
    pairs under (ts, tie) order, counted globally. Each user's events
    co-locate once; each bucket emits its PAIR COUNTS (≤ |types|² rows);
    the final groupby is |types|²-sized.
    """
    from ray.data.aggregate import Sum

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g, new_user = _user_order(g, user_col, tie_col)
        et = g[type_col].to_numpy()
        same = ~new_user[1:]
        return (pd.DataFrame({"prev_type": et[:-1][same],
                              "next_type": et[1:][same]})
                .groupby(["prev_type", "next_type"], as_index=False,
                         sort=False).size()
                .rename(columns={"size": "partial"}))

    out = (bucketed_map_groups(ds, [user_col], bucket_pairs,
                               project=_by_user(user_col, ts_col, tie_col,
                                                type_col))
           .groupby(["prev_type", "next_type"])
           .aggregate(Sum("partial", alias_name="n")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["n"] = df["n"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def locf_fill_stats(ds, user_col: str, ts_col: str, tie_col: str,
                    value_col: str, key_col: str):
    """Last-observation-carried-forward imputation audit: every NULL
    value is filled with the user's most recent non-null earlier value
    (order ``ts_col``, then ``tie_col``); per ``key_col`` the op reports
    how many rows were missing, how many could be filled, how many had
    no prior observation, and the exact integer-cents sum of the filled
    values — the SQL twin is LAST_VALUE(v IGNORE NULLS).

    Scale shape: one co-partition of users (same contract as
    sessionize: all rows of a user in one group), a fully vectorized
    maximum.accumulate fill inside the bucket (no per-row Python), and
    only O(keys) integer partial rows on the second exchange.
    """
    from ray.data.aggregate import Sum

    def bucket_fill(g: pd.DataFrame) -> pd.DataFrame:
        g, new_user = _user_order(g, user_col, tie_col)
        v = g[value_col].to_numpy(dtype=np.float64)  # NULL -> NaN
        n = len(g)
        valid = ~np.isnan(v)
        uid = np.cumsum(new_user) - 1
        last = np.maximum.accumulate(np.where(valid, np.arange(n), -1))
        ok = (last >= 0) & (uid[np.maximum(last, 0)] == uid)
        missing = ~valid
        filled = missing & ok
        cents = np.zeros(n, dtype=np.int64)
        fsrc = v[np.maximum(last, 0)]
        cents[filled] = np.floor(
            fsrc[filled] * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            "n_rows": np.int64(1),
            "n_missing": missing.astype(np.int64),
            "n_filled": filled.astype(np.int64),
            "n_unfilled": (missing & ~ok).astype(np.int64),
            "sum_filled_cents": cents,
        })
        return df.groupby(key_col, as_index=False, sort=False).sum()

    cols = ["n_rows", "n_missing", "n_filled", "n_unfilled",
            "sum_filled_cents"]
    out = (bucketed_map_groups(ds, [user_col], bucket_fill,
                               project=_by_user(user_col, ts_col, tie_col,
                                                value_col, key_col))
           .groupby(key_col)
           .aggregate(*[Sum(c, alias_name=c) for c in cols]))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        for c in cols:
            df[c] = df[c].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def moving_frame_sums(ds, key: str, ts_col: str, tie_col: str,
                      value: str, frame: int = 5):
    """Per-key rolling ROWS-frame sum: for every event, the exact
    integer-cents sum of the current row and the previous ``frame-1``
    rows of the same key in (ts, tie) order — the SQL
    ``ROWS BETWEEN n PRECEDING AND CURRENT ROW`` analytic frame (the
    row-count complement of the time-window family above).

    Scale shape: per-key co-location (one sort per group), then a
    vectorized cumulative-sum difference — no per-row Python; output is
    one row per event, exact int64.
    """
    import pyarrow.compute as pc

    def project(b: pa.Table) -> pa.Table:
        x = b[value].to_numpy(zero_copy_only=False).astype(np.float64)
        cents = np.floor(x * 100.0 + 0.5).astype(np.int64)
        return pa.table({key: b[key],
                         "ts_us": pc.cast(b[ts_col].combine_chunks(),
                                          pa.int64()),
                         tie_col: b[tie_col],
                         "cents": pa.array(cents)})

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts_us", tie_col], kind="stable")
        c = g[tie_col].to_numpy()
        cs = np.concatenate(([0], np.cumsum(
            g["cents"].to_numpy(dtype=np.int64))))
        lo = np.maximum(np.arange(len(g)) - (frame - 1), 0)
        fs = cs[np.arange(1, len(g) + 1)] - cs[lo]
        return pd.DataFrame({key: g[key].to_numpy(),
                             tie_col: c,
                             "frame_sum_cents": fs.astype(np.int64)})

    return (ds.map_batches(project, batch_format="pyarrow")
            .groupby(key)
            .map_groups(scan, batch_format="pandas"))


def moving_frame_extrema(ds, key: str, ts_col: str, tie_col: str,
                         value: str, frame: int = 5):
    """Per-key rolling ROWS-frame MAX/MIN (and their range) of integer
    cents over the current row and the previous ``frame-1`` rows in
    (ts, tie) order — the sliding-extrema analytic
    (``MAX(v) OVER (... ROWS BETWEEN n PRECEDING AND CURRENT ROW)``),
    the per-event volatility primitive.

    Scale shape: identical to moving_frame_sums — per-key co-location,
    then a vectorized strided-window reduction (O(n·frame) branch-free
    numpy; the O(n) monotonic-deque variant only pays off at frames
    orders of magnitude wider than analytic frames ever are). Exact
    int64 output, one row per event.
    """
    import pyarrow.compute as pc

    def project(b: pa.Table) -> pa.Table:
        x = b[value].to_numpy(zero_copy_only=False).astype(np.float64)
        cents = np.floor(x * 100.0 + 0.5).astype(np.int64)
        return pa.table({key: b[key],
                         "ts_us": pc.cast(b[ts_col].combine_chunks(),
                                          pa.int64()),
                         tie_col: b[tie_col],
                         "cents": pa.array(cents)})

    from numpy.lib.stride_tricks import sliding_window_view

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts_us", tie_col], kind="stable")
        v = g["cents"].to_numpy(dtype=np.int64)
        lo_pad = np.full(frame - 1, np.iinfo(np.int64).min)
        hi_pad = np.full(frame - 1, np.iinfo(np.int64).max)
        mx = sliding_window_view(
            np.concatenate([lo_pad, v]), frame).max(axis=1)
        mn = sliding_window_view(
            np.concatenate([hi_pad, v]), frame).min(axis=1)
        return pd.DataFrame({key: g[key].to_numpy(),
                             tie_col: g[tie_col].to_numpy(),
                             "frame_max_cents": mx.astype(np.int64),
                             "frame_min_cents": mn.astype(np.int64),
                             "frame_range_cents":
                                 (mx - mn).astype(np.int64)})

    return (ds.map_batches(project, batch_format="pyarrow")
            .groupby(key)
            .map_groups(scan, batch_format="pandas"))


def period_growth(ds, ts_col: str, value: str, fmt: str = "%Y-%m"):
    """Period-over-period revenue growth: exact integer-cents sums per
    calendar period (strftime bucket), then each period paired with its
    predecessor and the growth ratio cur/prev (an int-exact double) —
    the aggregated-LAG reporting shape. Periods with no predecessor are
    omitted, matching SQL LAG's NULL row filter.

    Scale shape: per-batch period partials combine (O(periods) rows on
    the exchange); the LAG pairing runs on the aggregated calendar-
    sized table.
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        ts = pd.Series(b[ts_col].to_pandas())
        per = ts.dt.strftime(fmt)
        x = b[value].to_numpy(zero_copy_only=False).astype(np.float64)
        cents = np.floor(x * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({"period": per, "partial": cents})
        g = df.groupby("period", as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("period")
           .aggregate(Sum("partial", alias_name="cur_cents"))
           .to_pandas())  # calendar-sized
    agg = agg.sort_values("period").reset_index(drop=True)
    cur = agg["cur_cents"].to_numpy(dtype=np.int64)
    out = pd.DataFrame({
        "period": agg["period"].to_numpy()[1:],
        "cur_cents": cur[1:],
        "prev_cents": cur[:-1],
        "growth": cur[1:].astype(np.float64)
        / cur[:-1].astype(np.float64),
    })
    return out.reset_index(drop=True)


def entry_exit_type_counts(ds, user_col: str, ts_col: str, tie_col: str,
                           type_col: str):
    """Entry/exit analysis: for every user, the type of their FIRST and
    LAST event ((ts, tie) lexicographic arg-min/arg-max), counted per
    (first_type, last_type) pair — the landing/exit-page report shape.

    Scale shape: per-batch reduce to one (user, min-cand, max-cand) row
    per user per batch (arg-min/max is associative), a co-partition of
    users resolves the global winners vectorized, and only
    |types|²-sized pair counts ride the final exchange.
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame({
            user_col: b[user_col].to_numpy(zero_copy_only=False),
            "ts_us": _epoch_us(b[ts_col]),
            tie_col: b[tie_col].to_numpy(zero_copy_only=False),
            type_col: b[type_col].to_numpy(zero_copy_only=False),
        }).sort_values([user_col, "ts_us", tie_col], kind="stable")
        first = df.drop_duplicates(user_col, keep="first")
        last = df.drop_duplicates(user_col, keep="last")
        return pd.DataFrame({
            user_col: first[user_col].to_numpy(),
            "f_ts": first["ts_us"].to_numpy(),
            "f_tie": first[tie_col].to_numpy(),
            "first_type": first[type_col].to_numpy(),
            "l_ts": last["ts_us"].to_numpy(),
            "l_tie": last[tie_col].to_numpy(),
            "last_type": last[type_col].to_numpy(),
        })

    def bucket_resolve(g: pd.DataFrame) -> pd.DataFrame:
        gf = (g.sort_values([user_col, "f_ts", "f_tie"], kind="stable")
              .drop_duplicates(user_col, keep="first"))
        gl = (g.sort_values([user_col, "l_ts", "l_tie"], kind="stable")
              .drop_duplicates(user_col, keep="last"))
        pair = pd.DataFrame({
            "first_type": gf["first_type"].to_numpy(),
            "last_type": gl.set_index(user_col)
            .loc[gf[user_col], "last_type"].to_numpy()})
        out = (pair.groupby(["first_type", "last_type"],
                            as_index=False, sort=False).size()
               .rename(columns={"size": "partial"}))
        out["partial"] = out["partial"].astype(np.int64)
        return out

    out = (bucketed_map_groups(ds, [user_col], bucket_resolve,
                               project=partial)
           .groupby(["first_type", "last_type"])
           .aggregate(Sum("partial", alias_name="n_users")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["n_users"] = df["n_users"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def fano_burstiness(ds, key: str, ts_col: str, window_s: int = 3600):
    """Burstiness report per key: the Fano factor (sample variance /
    mean) of per-window event counts over NONEMPTY tumbling windows —
    ~1 for a Poisson arrival process, >1 for bursty traffic. Counts
    per (key, window) combine per batch (time-span-sized exchange);
    the moment fold runs on that aggregated table with exact integers
    and one fixed-order float expression, bit-identical to the HUGEINT
    SQL twin.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    us = np.int64(window_s) * np.int64(1_000_000)

    def partial(b: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(b[ts_col].combine_chunks(),
                             pa.timestamp("us")),
                     pa.int64()).to_numpy()
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False),
                           "w": ts // us})
        g = df.groupby([key, "w"], as_index=False, sort=False).size()
        g = g.rename(columns={"size": "partial"})
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    wc = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby([key, "w"])
          .aggregate(Sum("partial", alias_name="c")))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        c = g["c"].to_numpy(dtype=np.int64)
        nw = len(c)
        sc = sum(int(x) for x in c)
        ss = sum(int(x) * int(x) for x in c)
        if nw > 1 and sc > 0:
            var = float(nw * ss - sc * sc) / float(nw * (nw - 1))
            fano = var / (float(sc) / float(nw))
        else:
            fano = 0.0
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            "n_windows": np.array([nw], dtype=np.int64),
            "n_events": np.array([sc], dtype=np.int64),
            "fano": [fano]})

    return wc.groupby(key).map_groups(fold, batch_format="pandas")


def weekday_hour_heatmap(ds, key: str, ts_col: str):
    """Calendar heatmap: event counts per (key, weekday, hour-of-day),
    weekday 0=Sunday..6=Saturday (the SQL dayofweek convention; derived
    as (epoch_days + 4) % 7 since 1970-01-01 was a Thursday). Pure
    integer arithmetic on the µs timestamps; at most keys×7×24 count
    rows ride the exchange.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    DAY_US = np.int64(86_400_000_000)
    HOUR_US = np.int64(3_600_000_000)

    def partial(b: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(b[ts_col].combine_chunks(),
                             pa.timestamp("us")),
                     pa.int64()).to_numpy()
        days = ts // DAY_US
        df = pd.DataFrame({
            key: b[key].to_numpy(zero_copy_only=False),
            "weekday": (days + 4) % 7,
            "hour": (ts % DAY_US) // HOUR_US})
        g = df.groupby([key, "weekday", "hour"], as_index=False,
                       sort=False).size()
        g = g.rename(columns={"size": "partial"})
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby([key, "weekday", "hour"])
           .aggregate(Sum("partial", alias_name="n_events")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("weekday", "hour", "n_events"):
            df[c] = df[c].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def event_streaks(ds, user_col: str, ts_col: str, tie_col: str,
                  type_col: str):
    """Gaps-and-islands: maximal runs of the SAME event type within
    each user's (ts, tie)-ordered stream, reported per type as the
    number of runs, the longest run, and the count of runs of length
    >= 3 (a "streak"). Per-user co-location, vectorized run-boundary
    detection, only |types|-sized integer rows on the final exchange —
    the distributed form of the SQL gaps-and-islands ROW_NUMBER-
    difference pattern.
    """
    from ray.data.aggregate import Max, Sum

    def bucket_runs(g: pd.DataFrame) -> pd.DataFrame:
        g, new_user = _user_order(g, user_col, tie_col)
        types = g[type_col].to_numpy()
        new_run = new_user | np.r_[True, types[1:] != types[:-1]]
        lens = np.bincount(np.cumsum(new_run) - 1)
        df = pd.DataFrame({type_col: types[new_run],
                           "n_runs": np.int64(1),
                           "max_run": lens.astype(np.int64),
                           "n_streaks": (lens >= 3).astype(np.int64)})
        return df.groupby(type_col, as_index=False, sort=False).agg(
            n_runs=("n_runs", "sum"), max_run=("max_run", "max"),
            n_streaks=("n_streaks", "sum"))

    out = (bucketed_map_groups(ds, [user_col], bucket_runs,
                               project=_by_user(user_col, ts_col, tie_col,
                                                type_col))
           .groupby(type_col)
           .aggregate(Sum("n_runs", alias_name="n_runs"),
                      Max("max_run", alias_name="max_run"),
                      Sum("n_streaks", alias_name="n_streaks")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("n_runs", "max_run", "n_streaks"):
            df[c] = df[c].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def hourly_autocorrelation(ds, key: str, ts_col: str,
                           window_s: int = 3600):
    """Lag-1 autocorrelation of per-window event volumes per key —
    "does a busy hour predict the next hour" — Pearson over the integer
    (count_h, count_{h+1}) pairs of consecutive PRESENT windows.
    Window counts combine per batch (time-span-sized exchange); the
    pairing + bignum moment fold runs per key on that aggregated table
    with a fixed-order float expression, bit-identical to the HUGEINT
    self-join SQL twin. Output: key, n_pairs, lag1_r.
    """
    import math

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    us = np.int64(window_s) * np.int64(1_000_000)

    def partial(b: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(b[ts_col].combine_chunks(),
                             pa.timestamp("us")),
                     pa.int64()).to_numpy()
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False),
                           "w": ts // us})
        g = df.groupby([key, "w"], as_index=False, sort=False).size()
        g = g.rename(columns={"size": "partial"})
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    wc = (ds.map_batches(partial, batch_format="pyarrow")
          .groupby([key, "w"])
          .aggregate(Sum("partial", alias_name="c")))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("w")
        w = g["w"].to_numpy(dtype=np.int64)
        c = g["c"].to_numpy(dtype=np.int64)
        consec = w[1:] == w[:-1] + 1
        x = c[:-1][consec]
        y = c[1:][consec]
        n = len(x)
        if n > 1:
            sx = sum(int(v) for v in x)
            sy = sum(int(v) for v in y)
            sxy = sum(int(a) * int(b) for a, b in zip(x, y))
            sxx = sum(int(v) * int(v) for v in x)
            syy = sum(int(v) * int(v) for v in y)
            dx = n * sxx - sx * sx
            dy = n * syy - sy * sy
            r = (float(n * sxy - sx * sy)
                 / math.sqrt(float(dx) * float(dy))
                 if dx > 0 and dy > 0 else 0.0)
        else:
            r = 0.0
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            "n_pairs": np.array([n], dtype=np.int64),
            "lag1_r": [r]})

    return wc.groupby(key).map_groups(fold, batch_format="pandas")


def session_duration_quantiles(ds, user_col: str, ts_col: str,
                               tie_col: str, gap_s: int = 1800,
                               qs=(0.25, 0.5, 0.75, 0.95)):
    """Session-duration distribution: sessions form per user under the
    inactivity-gap rule (same convention as sessionize); each session's
    duration is last−first event time in exact integer µs (0 for
    singletons), and the op reports the global session count, disc
    quantiles (exact integer rank ceil(q·n), as SQL ``quantile_disc``)
    and max duration.

    Scale shape: user co-location, vectorized per-session first/last
    inside the bucket, one duration row per session out; the final
    disc-quantile gather follows the exact-path contract (sketch swap-in
    at 100 TB).
    """
    from .selection import _disc_rank

    def bucket_durations(g: pd.DataFrame) -> pd.DataFrame:
        g, _, is_start = _session_starts(g, user_col, gap_s, tie_col)
        ts = g["ts_us"].to_numpy(dtype=np.int64)
        starts = np.flatnonzero(is_start)
        ends = np.r_[starts[1:] - 1, len(ts) - 1]
        return pd.DataFrame({"dur_us": ts[ends] - ts[starts]})

    durs = bucketed_map_groups(ds, [user_col], bucket_durations,
                               project=_by_user(user_col, ts_col, tie_col))

    def add_g(b: pa.Table) -> pa.Table:
        return b.append_column("g", pa.array(["g"] * len(b)))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g["dur_us"].to_numpy(dtype=np.int64))
        n = len(v)
        row = {"n_sessions": np.array([n], dtype=np.int64)}
        for q in qs:
            row[f"p{pct(q)}"] = np.array([v[_disc_rank(q, n) - 1]],
                                               dtype=np.int64)
        row["max_dur"] = np.array([v[-1]], dtype=np.int64)
        return pd.DataFrame(row)

    return (durs.map_batches(add_g, batch_format="pyarrow")
            .groupby("g").map_groups(fold, batch_format="pandas"))


def top_session_paths(ds, user_col: str, ts_col: str, tie_col: str,
                      type_col: str, gap_s: int = 1800,
                      depth: int = 3, k: int = 10):
    """Clickstream path mining: the top-k session-opening paths — the
    first ``depth`` event types of each gap-rule session joined with
    '>' — by session count (count desc, path asc tie-break).

    Scale shape: user co-location, vectorized session-start detection
    and positional path assembly (no per-event Python), path counts
    combine per bucket, then a tiny global top-k.
    """
    from ray.data.aggregate import Sum

    def bucket_paths(g: pd.DataFrame) -> pd.DataFrame:
        g, _, is_start = _session_starts(g, user_col, gap_s, tie_col)
        types = g[type_col].to_numpy()
        starts = np.flatnonzero(is_start)
        lens = np.diff(np.r_[starts, len(g)])
        paths = types[starts].astype(object)
        for d in range(1, depth):
            has = lens > d
            paths[has] = paths[has] + ">" + types[starts[has] + d]
        df = pd.DataFrame({"path": paths})
        df["partial"] = np.int64(1)
        return df.groupby("path", as_index=False, sort=False).sum()

    counts = (bucketed_map_groups(ds, [user_col], bucket_paths,
                                  project=_by_user(user_col, ts_col,
                                                   tie_col, type_col))
              .groupby("path")
              .aggregate(Sum("partial", alias_name="n_sessions")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["n_sessions"] = df["n_sessions"].astype(np.int64)
        return df

    return (counts.map_batches(fin, batch_format="pandas")
            .sort(["n_sessions", "path"], descending=[True, False])
            .limit(k))


def dgim_window_report(ds, key: str, ts_col: str,
                       window_s: int = 7 * 86400):
    """DGIM sliding-window counting sketch (Datar-Gionis-Indyk-Motwani,
    SIAM J. Comput. 2002; the MMDS ch.4 formulation with at most TWO
    buckets per size): estimate the number of events in the trailing
    ``window_s`` seconds per key using O(log^2 W) state, guaranteed
    relative error <= 50%.

    The online maintenance (each arrival adds a size-1 bucket; three
    buckets of a size merge the two oldest into the next power of two)
    is a lazy binary counter with digits {1,2} — its end state after N
    arrivals is exactly the BIJECTIVE BASE-2 representation of N. That
    makes the final bucket layout a closed-form function of N, so the
    whole sketch vectorizes: per key, sort ts descending, take digits
    d_j of N (d_j buckets of size 2^j, newest first), bucket timestamps
    are the stream values at the exclusive-cumsum offsets, and the
    estimate counts every in-window bucket fully except HALF of the
    oldest straddling one. Deterministic — no hashing, no seeds — so
    the estimate itself is value-checked bit-for-bit by a recursive-CTE
    SQL twin replaying the same decomposition.

    Topology: per-key co-partition (groupby().map_groups) — the same
    per-key-stream-fits-a-task assumption as sessions/streaks; only
    (key, ts) pairs shuffle. Output one row per key:
    (key, n_total, n_buckets, n_window_exact, dgim_estimate,
    within_bound) with within_bound asserting the published 50% bound.
    """
    import pyarrow.compute as pc

    w_us = np.int64(window_s) * np.int64(1_000_000)

    def to_us(b: pa.Table) -> pa.Table:
        ts = pc.cast(pc.cast(b[ts_col].combine_chunks(),
                             pa.timestamp("us")), pa.int64())
        return pa.table({key: b[key], "ts_us": ts})

    def _bij2_digits(n: int) -> list[int]:
        d = []
        while n > 0:
            dig = ((n - 1) % 2) + 1
            d.append(dig)
            n = (n - dig) // 2
        return d

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        ts = np.sort(g["ts_us"].to_numpy(np.int64))[::-1]
        n = len(ts)
        digits = _bij2_digits(n)
        sizes = np.concatenate([
            np.full(dj, 1 << j, dtype=np.int64)
            for j, dj in enumerate(digits)]) if digits else \
            np.empty(0, dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(sizes)[:-1])) \
            if len(sizes) else np.empty(0, dtype=np.int64)
        bucket_ts = ts[offsets]
        cutoff = ts[0] - w_us if n else np.int64(0)
        k = int((bucket_ts > cutoff).sum())   # prefix: ts decreasing
        if k > 0:
            est = (float(int(sizes[:k].sum()))
                   - float(int(sizes[k - 1])) / 2.0)
        else:
            est = 0.0
        exact = int((ts > cutoff).sum())
        within = bool(abs(est - float(exact)) <= 0.5 * exact + 1e-9)
        return pd.DataFrame({
            key: [g[key].iloc[0]],
            "n_total": np.array([n], dtype=np.int64),
            "n_buckets": np.array([len(sizes)], dtype=np.int64),
            "n_window_exact": np.array([exact], dtype=np.int64),
            "dgim_estimate": [est],
            "within_bound": [within]})

    return (ds.map_batches(to_us, batch_format="pyarrow")
            .groupby(key).map_groups(fold, batch_format="pandas"))


def interval_overlap_join(left, right, key_col: str, ts_col: str,
                          dur_col: str, bucket_s: int,
                          out_count: str = "n_pairs"):
    """Distributed INTERVAL OVERLAP join: per key, count (left, right)
    pairs whose half-open intervals ``[ts, ts + dur)`` intersect
    (``s_a < e_b AND s_b < e_a``) — the room-booking / session-collision
    operator that neither Ray Data nor most SQL engines distribute
    natively (the reference has no join at all; this extends the band
    join of relational.range_join_count from points to extents).

    Topology: the time axis is chunked into ``bucket_s`` buckets and
    BOTH sides replicate each interval to every bucket it spans
    (replication factor ``dur/bucket + 1`` — bounded by construction,
    never data-dependent fan-out). Each overlapping pair is counted in
    exactly one bucket, the one owning ``max(s_a, s_b)`` (which always
    lies inside both intervals' spans, so both rows are present there).
    Within a (key, bucket) group the count is four 1-D searchsorted
    probes per left row against the sorted right starts/ends — no
    pairwise materialization:

      * left starts in this bucket: rights with ``s_b <= s_a`` overlap
        iff ``e_b > s_a`` → ``#{s_b <= s_a} - #{e_b <= s_a}``; rights
        with ``s_a < s_b < min(e_a, bucket_end)`` overlap and are owned
        here unconditionally.
      * left starts earlier: only rights with
        ``bucket_start <= s_b < min(e_a, bucket_end)`` are owned here
        (``e_b > s_b >= bucket_start > s_a`` makes overlap automatic).

    All time math is exact integer microseconds, so the per-key pair
    count has an exact SQL inequality-join oracle. Skew: a hot key
    spreads across its time buckets; only a key temporally concentrated
    within one bucket width lands in one task (salt or shrink bucket_s).
    Returns (key_col, n_pairs) for keys with at least one pair.
    """
    from ray.data.aggregate import Sum

    b_us = np.int64(int(bucket_s) * 1_000_000)

    def explode(is_left: bool):
        def fn(b: pa.Table) -> pa.Table:
            s = _epoch_us(b[ts_col])
            d = b[dur_col].to_numpy(zero_copy_only=False).astype(np.int64)
            e = s + d
            k0 = s // b_us
            k1 = (e - 1) // b_us          # inclusive last spanned bucket
            reps = (k1 - k0 + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(s)), reps)
            # bucket index for each replica: k0[i] + offset within run
            off = np.arange(reps.sum(), dtype=np.int64) - np.repeat(
                np.cumsum(reps) - reps, reps)
            keys = b[key_col].to_numpy(zero_copy_only=False)[idx]
            return pa.table({
                key_col: pa.array(keys),
                "tbkt": pa.array(k0[idx] + off),
                "s": pa.array(s[idx]), "e": pa.array(e[idx]),
                "is_left": pa.array(np.full(len(idx),
                                            1 if is_left else 0,
                                            dtype=np.int8))})
        return fn

    tagged = (left.map_batches(explode(True), batch_format="pyarrow")
              .union(right.map_batches(explode(False),
                                       batch_format="pyarrow")))

    def bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        j = np.int64(g["tbkt"].iloc[0])
        lo_b, hi_b = j * b_us, (j + 1) * b_us
        is_l = g["is_left"].to_numpy() == 1
        sa = g["s"].to_numpy(np.int64)[is_l]
        ea = g["e"].to_numpy(np.int64)[is_l]
        sb = np.sort(g["s"].to_numpy(np.int64)[~is_l])
        eb = np.sort(g["e"].to_numpy(np.int64)[~is_l])
        n = 0
        if len(sa) and len(sb):
            cap = np.minimum(ea, hi_b)
            own = sa >= lo_b                 # left start owned by bucket j
            # rights with s_b <= s_a that still overlap (e_b > s_a):
            n_le = (np.searchsorted(sb, sa[own], side="right")
                    - np.searchsorted(eb, sa[own], side="right"))
            # rights starting after s_a (or after bucket start), owned here:
            lo_edge = np.where(own, sa, np.full(len(sa), lo_b))
            n_gt = (np.searchsorted(sb, cap, side="left")
                    - np.searchsorted(sb, lo_edge, side="right"))
            # non-owned lefts: lo_edge = lo_b with side="right" is wrong
            # only if some s_b == lo_b should count — fix by side="left"
            # for the non-owned case:
            n_gt_fix = (np.searchsorted(sb, lo_edge[~own], side="left")
                        - np.searchsorted(sb, lo_edge[~own], side="right"))
            n = int(n_le.sum()) + int(n_gt.sum()) - int(n_gt_fix.sum())
        head = g[key_col].iloc[:1] if n > 0 else g[key_col].iloc[:0]
        return pd.DataFrame({
            key_col: head.reset_index(drop=True),
            "_n": np.full(len(head), n, dtype=np.int64)})

    partial = tagged.groupby([key_col, "tbkt"]).map_groups(
        bucket_count, batch_format="pandas")
    out = partial.groupby(key_col).aggregate(
        Sum("_n", alias_name=out_count))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df[out_count] > 0].copy()
        df[out_count] = df[out_count].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def sequence_pattern_counts(ds, key: str, order_col: str, tie_col: str,
                            type_col: str, code_map: dict[str, str],
                            patterns: dict[str, str],
                            max_events: int = 200):
    """MATCH_RECOGNIZE-lite: per key, encode the (order, tie)-sorted
    event-type sequence as a character string (one char per type via
    ``code_map``; unknown types are dropped) and count keys whose
    sequence matches each regex in ``patterns`` (RE2-safe subset:
    literals, classes, ``* + ? |`` — both engines use leftmost search
    semantics). The row-pattern-matching operator of streaming SQL
    (MATCH_RECOGNIZE), expressed as collect + vectorized regex.

    Scale contract: sequences are TRUNCATED to the first ``max_events``
    events by the same bounded partial as ``relational.ordered_collect``
    (k x keys rows on the shuffle); a pattern over a longer horizon
    needs a streaming NFA state per key instead — documented limit, not
    a silent one.

    Returns one row per pattern: (pattern, n_keys_matched, n_keys).
    """
    import re

    compiled = {name: re.compile(rx) for name, rx in patterns.items()}

    def partial(b: pa.Table) -> pa.Table:
        kv = b[key].to_numpy(zero_copy_only=False)
        o = b[order_col].to_numpy(zero_copy_only=False)
        t = b[tie_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((t, o, kv))
        ks = kv[order]
        starts = np.flatnonzero(
            np.concatenate([[True], ks[1:] != ks[:-1]]))
        rank = np.arange(len(ks)) - np.repeat(
            starts, np.diff(np.append(starts, len(ks))))
        take = order[rank < max_events]
        return pa.table({
            key: b[key].take(pa.array(take)),
            order_col: b[order_col].take(pa.array(take)),
            tie_col: b[tie_col].take(pa.array(take)),
            type_col: b[type_col].take(pa.array(take))})

    def per_key(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([order_col, tie_col]).head(max_events)
        seq = "".join(code_map.get(v, "") for v in g[type_col])
        row = {key: [g[key].iloc[0]]}
        for name, rx in compiled.items():
            row[name] = [bool(rx.search(seq))]
        return pd.DataFrame(row)

    flags = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby(key).map_groups(per_key, batch_format="pandas"))

    df = flags.to_pandas()
    n_keys = len(df)
    return pd.DataFrame({
        "pattern": list(patterns),
        "n_keys_matched": np.array(
            [int(df[name].sum()) for name in patterns],
            dtype=np.int64),
        "n_keys": np.full(len(patterns), n_keys, dtype=np.int64)})


def ohlc_bars(ds, ts_col: str, tie_col: str, value_col: str,
              window_s: int, key: str):
    """Per-(key, tumbling window) OHLC bars: open/close are the value at
    the lexicographic (ts, tie) min/max inside the window, high/low the
    value extremes, n the event count. Open/high/low/close are SELECTED
    input values (never arithmetic), so results are bit-exact against an
    ordered-aggregate SQL oracle (``first(v ORDER BY ts, tie)``).

    Scale shape: each map batch collapses to ONE partial row per
    (key, window) carrying the candidate open/close rows and extremes —
    only O(groups) ~72-byte rows reach the exchange regardless of input
    size; the fold re-selects by the same (ts, tie) order in buckets of
    (key, window), so the result is block-layout- and merge-order-
    invariant (the tie column must be unique per row).
    """

    def partial(b: pa.Table) -> pd.DataFrame:
        us = _epoch_us(b[ts_col])
        ws = ((us // 1_000_000) // window_s) * window_s
        df = pd.DataFrame({
            key: b[key].to_numpy(zero_copy_only=False),
            "window_start_s": ws,
            "us": us,
            "tie": b[tie_col].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "v": b[value_col].to_numpy(zero_copy_only=False)})
        # stable (us, tie) sort makes groupby first/last the in-window
        # open/close candidates for this block
        df = df.sort_values(["us", "tie"], kind="stable")
        g = df.groupby([key, "window_start_s"], sort=False, as_index=False)
        out = g.agg(o_us=("us", "first"), o_tie=("tie", "first"),
                    open_v=("v", "first"),
                    c_us=("us", "last"), c_tie=("tie", "last"),
                    close_v=("v", "last"),
                    high_v=("v", "max"), low_v=("v", "min"),
                    n_events=("v", "size"))
        out["n_events"] = out["n_events"].astype(np.int64)
        return out

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        grp = [key, "window_start_s"]
        by_open = g.sort_values(["o_us", "o_tie"], kind="stable")
        by_close = g.sort_values(["c_us", "c_tie"], kind="stable")
        return pd.concat([
            by_open.groupby(grp)["open_v"].first(),
            g.groupby(grp).agg(high_v=("high_v", "max"),
                               low_v=("low_v", "min")),
            by_close.groupby(grp)["close_v"].last(),
            g.groupby(grp)["n_events"].sum()], axis=1).reset_index()

    return bucketed_map_groups(ds, [key, "window_start_s"], fold,
                               project=partial)


def association_rules(ds, user_col: str, ts_col: str, type_col: str):
    """Market-basket association rules over (user, epoch-day) baskets:
    for every ordered item pair a→b, exact support / confidence / lift
    in scaled ppm integers —

        conf_ppm(a→b) = n_both·10⁶ // n_a
        lift_ppm(a→b) = n_both·N·10⁶ // (n_a·n_b)

    (floor math both engines). The shuffle carries per-batch-distinct
    (user, day, item) rows only; baskets co-locate on the typed
    (user, day) key and each bucket counts its baskets' items and item
    pairs at once with one self-join. Returns one row per ordered pair
    with n_both > 0."""
    from ray.data.aggregate import Sum

    def to_basket_item(b: pa.Table) -> pa.Table:
        return (pa.table({
            user_col: b[user_col],
            "day": pa.array(_epoch_s(b[ts_col]) // 86400),
            "item": pa.array(b[type_col].to_numpy(zero_copy_only=False)
                             .astype(str), type=pa.string())})
            .group_by([user_col, "day", "item"]).aggregate([]))

    def basket_counts(g: pd.DataFrame) -> pd.DataFrame:
        # rows (a, b, n): n baskets hold both a < b; a == b rows count
        # the baskets holding a, and their n_min the baskets whose
        # smallest item is a, which sums to the number of baskets
        basket = [user_col, "day"]
        g = g.drop_duplicates()
        g = g.assign(is_min=g["item"]
                     == g.groupby(basket)["item"].transform("min"))
        p = g.merge(g[basket + ["item"]], on=basket, suffixes=("", "_b"))
        p = p[p["item"] <= p["item_b"]]
        return (pd.DataFrame({
            "a": p["item"], "b": p["item_b"], "n": np.int64(1),
            "n_min": (p["is_min"] & (p["item"] == p["item_b"]))
            .astype(np.int64)})
            .groupby(["a", "b"], as_index=False, sort=False).sum())

    counts = (bucketed_map_groups(ds, [user_col, "day"], basket_counts,
                                  project=to_basket_item)
              .groupby(["a", "b"])
              .aggregate(Sum("n", alias_name="n"),
                         Sum("n_min", alias_name="n_min"))
              .to_pandas())  # |items|²-sized
    n_baskets = int(counts["n_min"].sum())
    singles: dict[str, int] = {}
    both: dict[tuple[str, str], int] = {}
    for a, b, n in zip(counts["a"], counts["b"], counts["n"]):
        if a == b:
            singles[a] = int(n)
        else:
            both[(a, b)] = int(n)

    SCALE = 10**6
    rows = []
    for (a, b), nb in sorted(both.items()):
        for x, y in ((a, b), (b, a)):
            rows.append({
                "antecedent": x, "consequent": y,
                "n_both": nb,
                "conf_ppm": nb * SCALE // singles[x],
                "lift_ppm": (nb * n_baskets * SCALE
                             // (singles[x] * singles[y]))})
    out = pd.DataFrame(sorted(rows, key=lambda r: (r["antecedent"],
                                                   r["consequent"])))
    for c in ("n_both", "conf_ppm", "lift_ppm"):
        out[c] = out[c].astype(np.int64)
    return out


def first_last_day_counts(ds, user_col: str, ts_col: str):
    """Growth accounting: per epoch-day, how many users appear for the
    FIRST time (acquisition) and for the LAST time (churn-as-of-now).
    Per-batch-distinct (user, day) rows co-locate by user; each bucket
    takes its users' first/last days and counts them per day, so only
    the day-domain table reaches the driver — the new-vs-returning
    primitive under every growth dashboard. All-integer,
    layout-invariant."""
    from ray.data.aggregate import Sum

    def bucket_days(g: pd.DataFrame) -> pd.DataFrame:
        span = g.groupby(user_col)["day"].agg(["min", "max"])
        first = span["min"].value_counts().rename("n_new")
        last = span["max"].value_counts().rename("n_last_seen")
        out = pd.concat([first, last], axis=1).fillna(0)
        return out.rename_axis("day").reset_index().astype(np.int64)

    out = (bucketed_map_groups(ds, [user_col], bucket_days,
                               project=_user_days(user_col, ts_col))
           .groupby("day")
           .aggregate(Sum("n_new", alias_name="n_new"),
                      Sum("n_last_seen", alias_name="n_last_seen"))
           .to_pandas())
    out = out.sort_values("day").reset_index(drop=True)
    for c in ("day", "n_new", "n_last_seen"):
        out[c] = out[c].astype(np.int64)
    return out


def kaplan_meier_lifetimes(ds, user_col: str, ts_col: str,
                           scale: int = 10**9) -> pd.DataFrame:
    """Kaplan-Meier survival estimate over user LIFETIMES (days between
    first and last activity), right-censored at the observation edge:
    a user whose last activity falls on the corpus's final day is
    censored (still alive), everyone else's lifetime ended. The
    survival curve is the exact INTEGER cascade

        S(t_k) = S(t_{k-1}) · (n_k − d_k) // n_k,  S(0−) = scale

    over distinct event times ascending (n_k = at-risk count = users
    with lifetime ≥ t_k, d_k = deaths at t_k) — floor at every step, so
    the curve is bit-identical to a recursive-CTE HUGEINT oracle and at
    any parallelism.

    Scale shape: per-batch-distinct (user, day) rows co-locate by user;
    each bucket counts its users per (lifetime, last day) with every
    last day below the bucket's own latest clamped to one day before
    it — censoring only asks whether a last day IS the final day, and
    a day below any bucket's latest is not — so the driver gets a
    day-domain (t, last day, count) table and runs the cascade on it.
    Returns one row per distinct event time: t_days, n_at_risk,
    d_events, surv_scaled."""
    from ray.data.aggregate import Sum

    def bucket_lifetimes(g: pd.DataFrame) -> pd.DataFrame:
        span = g.groupby(user_col)["day"].agg(["min", "max"])
        ld = span["max"].to_numpy(np.int64)
        latest = ld.max()
        return (pd.DataFrame({
            "t": ld - span["min"].to_numpy(np.int64),
            "ld": np.where(ld == latest, latest, latest - 1),
            "n": np.int64(1)})
            .groupby(["t", "ld"], as_index=False, sort=False).sum())

    per = (bucketed_map_groups(ds, [user_col], bucket_lifetimes,
                               project=_user_days(user_col, ts_col))
           .groupby(["t", "ld"]).aggregate(Sum("n", alias_name="n"))
           .to_pandas())
    end_day = int(per["ld"].max())
    per["d"] = np.where(per["ld"] < end_day, per["n"], 0)
    total = int(per["n"].sum())
    # day-domain table: deaths and total finishers per lifetime t
    per_t = (per.groupby("t").agg(d=("d", "sum"), all_t=("n", "sum"))
             .reset_index().sort_values("t"))
    finished_before = 0
    rows = []
    s = scale
    for _, r in per_t.iterrows():
        t, d = int(r["t"]), int(r["d"])
        n_risk = total - finished_before
        if d > 0:
            s = s * (n_risk - d) // n_risk
            rows.append({"t_days": t, "n_at_risk": n_risk,
                         "d_events": d, "surv_scaled": s})
        finished_before += int(r["all_t"])
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


def ses_daily_forecast(ds, ts_col: str, value: str,
                       alpha_num: int = 1,
                       alpha_den: int = 4) -> pd.DataFrame:
    """Simple exponential smoothing over the daily cents totals — the
    forecasting primitive — in EXACT integer arithmetic: with
    α = alpha_num/alpha_den the level update is the floor cascade

        s_t = (alpha_num·x_t + (alpha_den−alpha_num)·s_{t-1})
              // alpha_den,     s_first = x_first

    over calendar days ascending (missing days carry x_t = 0 — the
    convention both engines share), so the smoothed series and the
    one-step-ahead forecast errors are bit-identical to a
    recursive-CTE HUGEINT oracle at any parallelism.

    Scale shape: daily totals are a day-domain-sized aggregate (one
    combiner groupby); the cascade touches ≤ days integers. Returns
    one row per calendar day: day, actual_cents, smoothed_cents (the
    level AFTER seeing the day), forecast_cents (the level BEFORE —
    yesterday's smoothed value; equal to actual on the first day),
    abs_err_cents."""
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        day = (_epoch_s(b[ts_col]) // 86400).astype(np.int64)
        v = b[value].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        df = pd.DataFrame({"day": day, "s": cents})
        g = df.groupby("day", as_index=False, sort=False).sum()
        g["s"] = g["s"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    daily = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("day").aggregate(Sum("s", alias_name="s"))
             .to_pandas().sort_values("day").reset_index(drop=True))
    days = daily["day"].to_numpy(dtype=np.int64)
    totals = dict(zip(days.tolist(),
                      [int(x) for x in daily["s"]]))
    lo, hi = int(days.min()), int(days.max())

    rows = []
    s = None
    for d in range(lo, hi + 1):
        x = totals.get(d, 0)
        if s is None:
            s_new = x
            fc = x
        else:
            fc = s
            s_new = (alpha_num * x
                     + (alpha_den - alpha_num) * s) // alpha_den
        rows.append({"day": d, "actual_cents": x,
                     "smoothed_cents": s_new,
                     "forecast_cents": fc,
                     "abs_err_cents": abs(x - fc)})
        s = s_new
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


def peak_concurrency(ds, user_col: str, ts_col: str,
                     gap_s: int = 1800) -> pd.DataFrame:
    """Peak concurrent sessions — the capacity-planning number: derive
    gap-rule session intervals per user (closed [start, end]; ties at
    one instant count a session ending and another starting as
    concurrent), then run the classic ENDPOINT SWEEP (+1 at start, −1
    after end) as a TWO-LEVEL distributed prefix: per-day buckets each
    sweep their own sorted endpoints locally and report (Σdelta,
    max-prefix); the driver folds day bases with an exclusive prefix
    sum — the additive twin of the watermark prefix-max, max over
    buckets of base + local-max. Exact integers, layout-invariant.

    Returns one row: n_sessions, peak_concurrency, peak_day."""

    def session_endpoints(g: pd.DataFrame) -> pd.DataFrame:
        g, _, is_start = _session_starts(g, user_col, gap_s)
        ts = g["ts_us"].to_numpy()
        starts = ts[is_start]
        # session end = ts of the row BEFORE the next session start
        next_start = np.r_[np.flatnonzero(is_start)[1:], len(ts)]
        ends = ts[next_start - 1]
        return pd.DataFrame({
            "t": np.concatenate([starts, ends]),
            "delta": np.concatenate([
                np.ones(len(starts), dtype=np.int64),
                np.full(len(ends), -1, dtype=np.int64)])})

    endpoints = bucketed_map_groups(ds, [user_col], session_endpoints,
                                    project=_by_user(user_col, ts_col))

    def day_sweep(g: pd.DataFrame) -> pd.DataFrame:
        # sort (t asc, delta DESC): a start at instant t is counted
        # before the end at t — closed-interval concurrency
        g = g.sort_values(["t", "delta"],
                          ascending=[True, False], kind="stable")
        cum = g["delta"].to_numpy().cumsum()
        return pd.DataFrame({
            "day": [int(g["day"].iloc[0])],
            "sum_delta": [int(cum[-1])],
            "max_prefix": [int(cum.max())],
            "n_starts": [int((g["delta"].to_numpy() == 1).sum())]})

    def add_day(b: pa.Table) -> pa.Table:
        t = b["t"].to_numpy(zero_copy_only=False)
        return b.append_column("day", pa.array(
            (t // 86_400_000_000).astype(np.int64)))

    per_day = (endpoints.map_batches(add_day, batch_format="pyarrow")
               .groupby("day").map_groups(day_sweep,
                                          batch_format="pandas")
               .to_pandas().sort_values("day").reset_index(drop=True))

    base = 0
    peak, peak_day, n_sessions = 0, 0, 0
    for _, r in per_day.iterrows():
        local = base + int(r["max_prefix"])
        if local > peak:
            peak, peak_day = local, int(r["day"])
        base += int(r["sum_delta"])
        n_sessions += int(r["n_starts"])
    return pd.DataFrame({
        "n_sessions": pd.Series([n_sessions], dtype=np.int64),
        "peak_concurrency": pd.Series([peak], dtype=np.int64),
        "peak_day": pd.Series([peak_day], dtype=np.int64)})
