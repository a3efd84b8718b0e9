"""Exact statistics over Ray Data: moments, ranks, cutpoints and per-key
scans, each reproducible bit-for-bit by a DuckDB oracle.

Three shapes, none of which pulls data rows to the driver:

- Moment sums (``grouped_linear_fit``, ``grouped_pearson``,
  ``grouped_shape_moments``, ``grouped_zscore_outliers``,
  ``welch_t_report``, ``median_of_means``, ...): one vectorized per-batch
  partial of integer sums, folded in Python ints so the final doubles are
  bit-identical regardless of block arrival order.
- Everything keyed runs on ONE exchange,
  ``stages.aggregate.bucketed_map_groups``, with the partial computed in
  the map that makes the rows (``project=``) and one vectorized fold per
  hash bucket of keys, never one Python call per key:
  ``_value_count_fold`` (per-key distinct-value counts: percent rank,
  Gini, quantile_cont, mode, Chao1, Simpson, Spearman ranks, dense-rank
  top values), the cutpoint fold ``relational._rank_cuts`` (exact
  ``quantile_disc`` cutpoints; threshold, bucket and winsorize counts
  are taken in the same bucket, RFM and PSI gather their cuts globally
  through ``relational._cutpoints``) and the per-key scans
  (inter-arrival gaps, CUSUM, Hill, Theil-Sen, Pareto frontier, global
  rank), each sorting its bucket once with ``_key_runs``. Composite
  keys are typed columns, never packed strings.
- Broadcast second passes: a cutpoint or rank table small enough to
  travel by closure, then a streaming vectorized filter/count.

Every disc rank is ``selection._disc_rank`` (exact integer ``ceil(q*n)``),
the rank DuckDB's ``quantile_disc`` uses (Dist.java's exact-oracle
discipline).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.aggregate import _key_runs, bucketed_map_groups
from ..stages.partitioning import cheap_row_count
from .relational import _cutpoints, _rank_cuts
from .selection import _disc_rank


def _cents(x: np.ndarray) -> np.ndarray:
    """Money -> integer cents, floor(x*100 + 0.5) (SQL ROUND half-up)."""
    return np.floor(x.astype(np.float64) * 100.0 + 0.5).astype(np.int64)


def grouped_linear_fit(ds, key: str, x_col: str, y_col: str):
    """Per-key ordinary-least-squares fit y = slope*x + intercept over two
    INTEGER columns, computed from exact integer moment sums
    (n, Σx, Σy, Σxy, Σx²).

    Topology: one vectorized per-batch partial (O(groups-per-batch) rows
    ride the exchange), then a driver-side exact combine with Python
    arbitrary-precision ints — the partial table is KB-sized (batches ×
    groups), and promoting the combine to bignum makes the op immune to
    Σx² overflow at 10^12-row scale where an int64 tree-sum would wrap.
    The final slope/intercept doubles are derived from the exact integer
    sums with a fixed IEEE expression order, so they are bit-identical
    to a SQL oracle computing the same expression over HUGEINT sums.
    """

    def partial(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False)})
        df["n"] = np.int64(1)
        df["sx"] = x
        df["sy"] = y
        df["sxy"] = x * y
        df["sxx"] = x * x
        g = df.groupby(key, as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    # KB-sized combiner output: one row per (batch, group). The driver
    # fold below is over that tiny table, not over data rows.
    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    rows = []
    for k, g in parts.groupby(key, sort=True):
        # Python ints: exact at any scale (no Σx² wrap at 10^12 rows).
        n = int(g["n"].sum())
        sx = sum(int(v) for v in g["sx"])
        sy = sum(int(v) for v in g["sy"])
        sxy = sum(int(v) for v in g["sxy"])
        sxx = sum(int(v) for v in g["sxx"])
        num = n * sxy - sx * sy
        den = n * sxx - sx * sx
        # fixed IEEE order: round each exact int to double, then divide
        # (matches CAST(num AS DOUBLE)/CAST(den AS DOUBLE) in SQL)
        slope = float(num) / float(den)
        intercept = (float(sy) - slope * float(sx)) / float(n)
        rows.append({key: k, "n_rows": np.int64(n),
                     "slope": slope, "intercept": intercept})
    return pd.DataFrame(rows)


def threshold_exceed_counts(ds, key: str, value: str, q: float = 0.99,
                            thr_name: str = "p99",
                            count_name: str = "n_above"):
    """Per-key anomaly count: the exact disc-quantile cutpoint of each key
    and the count of its rows with ``value > cut``.

    One keyed exchange (the exact-oracle quantile path: per-group sort,
    groups must fit a worker heap — same contract as
    exact_quantiles_by_key): each bucket ranks every key's sorted values
    (``_rank_cuts``) and counts the values above the cut in the same
    pass, so no cutpoint table travels back through the driver. The
    100-TB swap-in is a t-digest cutpoint broadcast into a streaming
    filter-count.
    """

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        order, starts, counts, (thr,) = _rank_cuts(g, [key], value, (q,))
        v = g[value].to_numpy(dtype=np.float64)[order]
        above = (v > np.repeat(thr, counts)).astype(np.int64)
        return pd.DataFrame({key: g[key].to_numpy()[order[starts]],
                             thr_name: thr,
                             count_name: np.add.reduceat(above, starts)})

    return bucketed_map_groups(ds, [key], fold)


def interarrival_gaps(ds, user_col: str, ts_col: str, tie_col: str,
                      carry_col: str):
    """Per-user event inter-arrival gaps in exact integer microseconds —
    the distributed LAG(ts) OVER (PARTITION BY user ORDER BY ts, tie)
    shape. Each gap row carries ``carry_col`` of the LATER event.

    Scale contract: one user's events fit a worker heap (true for web
    event streams); the keyed exchange sends each user's rows to one
    bucket once, each bucket sorts by (user, ts, tie) once, and only
    (carry, gap_us) pairs leave the stage.
    """

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        ts = g[ts_col].to_numpy()
        order, starts, _ = _key_runs(g[user_col].to_numpy(), ts,
                                     g[tie_col].to_numpy())
        us = ts[order].astype("datetime64[us]").astype(np.int64)
        later = np.ones(len(order), dtype=bool)
        later[starts] = False  # a user's first event has no gap
        return pd.DataFrame({
            carry_col: g[carry_col].to_numpy()[order][later],
            "gap_us": np.diff(us, prepend=0)[later]})

    return bucketed_map_groups(ds, [user_col], fold)


def grouped_zscore_outliers(ds, key: str, x_col: str, z: float = 3.0):
    """Per-key z-score outlier report from EXACT integer moments: n, mean,
    sample std (derived from exact Σx/Σx² with a fixed IEEE expression
    order — reproducible in SQL from HUGEINT sums, unlike a float
    accumulating AVG/STDDEV), and the count of rows with
    ``|x - mean| > z * std`` via a broadcast-threshold second pass.

    Same two-pass topology as threshold_exceed_counts; both passes ship
    only O(groups) rows.
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False)})
        df["n"] = np.int64(1)
        df["sx"] = x
        df["sxx"] = x * x
        g = df.groupby(key, as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    keys, means, stds, ns = [], [], [], []
    for k, g in parts.groupby(key, sort=True):
        n = int(g["n"].sum())
        sx = sum(int(v) for v in g["sx"])
        sxx = sum(int(v) for v in g["sxx"])
        mean = float(sx) / float(n)
        # sample variance from exact ints: (nΣx² - (Σx)²) / (n(n-1))
        std = float(np.sqrt(float(n * sxx - sx * sx)
                            / (float(n) * float(n - 1))))
        keys.append(k)
        means.append(mean)
        stds.append(std)
        ns.append(n)
    karr = np.asarray(keys)
    marr = np.asarray(means)
    sarr = np.asarray(stds)

    def count_out(b: pa.Table) -> pa.Table:
        kv = b[key].to_numpy(zero_copy_only=False)
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.float64)
        codes = pd.Categorical(kv, categories=karr).codes
        out = np.abs(x - marr[codes]) > z * sarr[codes]
        # zero rows kept per present key: stable batch output schema
        df = pd.DataFrame({key: kv, "partial": out.astype(np.int64)})
        g = df.groupby(key, as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (ds.map_batches(count_out, batch_format="pyarrow")
              .groupby(key)
              .aggregate(Sum("partial", alias_name="n_outliers"))
              .to_pandas().set_index(key)["n_outliers"])

    return pd.DataFrame({
        key: karr, "n_rows": np.asarray(ns, dtype=np.int64),
        "mean": marr, "std": sarr,
        "n_outliers": np.asarray(
            [int(counts.get(k, 0)) for k in karr], dtype=np.int64)})


def quantile_bucket_counts(ds, key: str, x_col: str,
                           qs=tuple(i / 10 for i in range(1, 10))):
    """Per-key quantile-bucket feature assignment, audited as counts:
    exact disc cutpoints per key, each row assigned
    ``bucket = #{cutpoints < x}``, emitted as (key, bucket, n_rows) — the
    percentile-feature / equi-depth bucketing primitive of ML feature
    pipelines. One keyed exchange: each bucket ranks every key's values
    at once (``_rank_cuts``) and counts the (key, bucket) pairs.

    The strict-< bucket rule makes the assignment value-deterministic
    (ties never straddle), so a SQL twin counting ``x > cutpoint``
    reproduces it exactly.
    """

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        order, starts, counts, cuts = _rank_cuts(g, [key], x_col, qs)
        x = g[x_col].to_numpy(dtype=np.float64)[order]
        row_cuts = np.repeat(np.column_stack(cuts), counts, axis=0)
        bucket = (row_cuts < x[:, None]).sum(axis=1).astype(np.int64)
        df = pd.DataFrame({key: g[key].to_numpy()[order], "bucket": bucket})
        return df.groupby([key, "bucket"], sort=False).size() \
            .reset_index(name="n_rows")

    return bucketed_map_groups(ds, [key], fold)


def _frontier_mask(x: np.ndarray, y: np.ndarray,
                   keys: np.ndarray | None = None) -> np.ndarray:
    """Boolean mask of the 2-D Pareto frontier, maximizing both arrays,
    of each ``keys`` value (all rows together when ``keys`` is None).

    A point survives iff no other point of its key is >= in both
    coordinates and strictly greater in at least one; duplicate (x, y)
    points all survive together (neither dominates the other).
    Vectorized: sort by (key, x desc, y desc), a row survives iff its y
    equals the max y of its (key, distinct-x) group AND that max strictly
    exceeds the running max y of every strictly-larger x of the key.
    """
    n = len(x)
    if n == 0:
        return np.zeros(0, dtype=bool)
    k = np.zeros(n, dtype=np.int8) if keys is None else keys
    order = np.lexsort((-y, -x, k))
    ks, xs, ys = k[order], x[order], y[order]
    new_k = np.r_[True, ks[1:] != ks[:-1]]
    new_x = new_k | np.r_[True, xs[1:] != xs[:-1]]
    grp = np.cumsum(new_x) - 1
    heads = np.flatnonzero(new_x)
    grp_max_y = ys[heads]                          # ys sorted desc in-group
    run_max = pd.Series(grp_max_y).groupby(
        np.cumsum(new_k)[heads]).cummax().to_numpy()
    prev_max = np.r_[-np.inf, run_max[:-1]]
    prev_max[new_k[heads]] = -np.inf               # a key's largest x
    keep_sorted = (ys == grp_max_y[grp]) & (grp_max_y[grp] > prev_max[grp])
    mask = np.zeros(n, dtype=bool)
    mask[order] = keep_sorted
    return mask


def grouped_pareto_frontier(ds, key: str, x_col: str, y_col: str,
                            id_col: str):
    """Per-key 2-D Pareto frontier (skyline), maximizing both columns.

    Scale shape: the frontier is MERGEABLE — frontier(A ∪ B) ==
    frontier(frontier(A) ∪ frontier(B)) — so every Arrow batch is first
    reduced to its local per-key frontier (O(frontier) rows out, usually
    a handful) and only those survivors ride the shuffle into the exact
    per-key finalize (one keyed exchange; both the per-batch prune and
    each bucket's finalize mask every key at once). No all-pairs
    comparison exists anywhere; the SQL equivalent's NOT EXISTS
    anti-join is O(n²).
    """
    cols = [key, id_col, x_col, y_col]

    def partial(b: pa.Table) -> pa.Table:
        keep = _frontier_mask(
            b[x_col].to_numpy(zero_copy_only=False).astype(np.float64),
            b[y_col].to_numpy(zero_copy_only=False).astype(np.float64),
            b[key].to_numpy(zero_copy_only=False))
        return b.select(cols).filter(pa.array(keep))

    def finalize(g: pd.DataFrame) -> pd.DataFrame:
        m = _frontier_mask(g[x_col].to_numpy(dtype=np.float64),
                           g[y_col].to_numpy(dtype=np.float64),
                           g[key].to_numpy())
        return g.loc[m, cols]

    return bucketed_map_groups(ds, [key], finalize, project=partial)


def _value_count_fold(ds, keys, value: str, finalize, cast=None):
    """Per-key distinct-value counts through one keyed exchange on the
    typed ``keys`` columns: each batch counts its (keys, value) pairs in
    the map that reads it (``cast`` maps the value column first), and
    each bucket sums the partial counts and calls
    ``finalize(k, v, c, starts, n_vals, *more_keys)`` once with its pairs
    sorted by (keys, value) — ``k`` the first key column, ``c`` the pair
    counts, ``starts`` / ``n_vals`` each key's first pair and number of
    distinct values, then any further key columns — to build the rows of
    every key in the bucket at once.

    Only value-DOMAIN-sized rows ride the shuffle (e.g. price cents in a
    fixed range), never one row per input row."""
    keys = list(keys)

    def partial(b: pa.Table) -> pd.DataFrame:
        v = b[value].to_numpy(zero_copy_only=False)
        df = pd.DataFrame({**{c: b[c].to_numpy(zero_copy_only=False)
                              for c in keys},
                           value: v if cast is None else cast(v)})
        return df.groupby([*keys, value], sort=False).size() \
            .reset_index(name="_cnt")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby([*keys, value])["_cnt"].sum()
        _, starts, n_vals = _key_runs(pd.factorize(s.index.droplevel(-1))[0])
        k, *more = [s.index.get_level_values(i).to_numpy()
                    for i in range(len(keys))]
        return finalize(k, s.index.get_level_values(-1).to_numpy(),
                        s.to_numpy(dtype=np.int64), starts, n_vals, *more)

    return bucketed_map_groups(ds, keys, fold, project=partial)


def _within_key_below(c: np.ndarray, starts: np.ndarray,
                      n_vals: np.ndarray) -> np.ndarray:
    """Per sorted (key, value) pair: the rows of its key with a strictly
    smaller value (the exclusive cumulative count within the key)."""
    below = np.cumsum(c) - c
    return below - np.repeat(below[starts], n_vals)


def grouped_percent_rank(ds, key: str, value: str,
                         cnt_name: str = "cnt",
                         pr_name: str = "pct_rank"):
    """Exact empirical PERCENT_RANK per distinct (key, value):
    (#rows with a strictly smaller value in the key) / (n_key - 1) —
    the SQL window PERCENT_RANK() carried by every row of that value
    (0.0 when the key has a single row, matching the standard).

    Scale shape: the value-count fold (``_value_count_fold``); the
    prefix-sum finalize runs over each bucket's aggregated table. Both
    divisions are int-exact doubles (counts < 2^53), so the floats are
    bit-identical to the SQL window oracle.
    """

    def finalize(k, v, c, starts, n_vals):
        n = np.repeat(np.add.reduceat(c, starts), n_vals)
        pr = np.zeros(len(c), dtype=np.float64)
        np.divide(_within_key_below(c, starts, n_vals).astype(np.float64),
                  (n - 1).astype(np.float64), out=pr, where=n > 1)
        return pd.DataFrame({key: k, value: v, cnt_name: c, pr_name: pr})

    return _value_count_fold(ds, [key], value, finalize)


def grouped_gini(ds, key: str, value: str,
                 out_name: str = "gini"):
    """Exact per-key Gini coefficient of a money column, computed on
    integer cents so every accumulation is exact.

    Formula (population Gini over sorted x_1..x_n):
        G = 2*Σ(i*x_i) / (n*Σx) - (n+1)/n
    evaluated blockwise over the aggregated (key, cents, count) table:
    a run of c equal values v ending at cumulative rank R contributes
    v*c*(2R - c + 1) to 2*Σ(i*x_i).

    Scale shape: the cents value-count fold; the finalize sums Python
    bignums (no int64 overflow at any scale) for every key of a bucket
    at once. The two final divisions convert the same exact integers to
    double on both engines, so the float is bit-identical to the HUGEINT
    SQL oracle.
    """

    def finalize(k, v, c, starts, n_vals):
        vo, co = v.astype(object), c.astype(object)
        s = np.add.reduceat(vo * co, starts)
        two_ranksum = np.add.reduceat(        # 2R - c + 1 = 2*below + c + 1
            vo * co * (2 * _within_key_below(c, starts, n_vals) + c + 1),
            starts)
        n = np.add.reduceat(c, starts)
        ok = s != 0                                    # n > 0 always
        gini = np.zeros(len(starts), dtype=np.float64)
        gini[ok] = (two_ranksum[ok].astype(np.float64)
                    / (n[ok] * s[ok]).astype(np.float64)
                    - (n[ok] + 1).astype(np.float64)
                    / n[ok].astype(np.float64))
        return pd.DataFrame({key: k[starts], "n": n,
                             "sum_cents": s.astype(np.int64),
                             out_name: gini})

    return _value_count_fold(ds, [key], value, finalize, cast=_cents)


def grouped_quantile_cont(ds, key: str, value: str,
                          qs=(0.01, 0.25, 0.5, 0.75, 0.9, 0.99)):
    """Exact linearly-interpolated quantiles per key — the SQL
    ``quantile_cont`` convention: position h = (n-1)*q,
    result = x[floor(h)]*(1-frac) + x[floor(h)+1]*frac, evaluated
    against the aggregated (key, value, count) table via cumulative
    counts + searchsorted, never materializing the sorted multiset.
    Matches DuckDB's quantile_cont bit-for-bit (the complement of the
    repo's quantile_disc convention — this is the interpolation the
    reference's Dist.java/t-digest quantile() path uses between
    centroids).

    Scale shape: identical to grouped_percent_rank — the value-count
    fold, every key of a bucket interpolated at once.
    """

    def finalize(k, v, c, starts, n_vals):
        v = v.astype(np.float64)
        cum = np.cumsum(c)              # strictly increasing: c >= 1
        base = cum[starts] - c[starts]  # rows of the bucket's earlier keys
        n = np.add.reduceat(c, starts)
        row = {key: k[starts], "n": n}
        for q in qs:
            h = (n - 1) * float(q)
            lo = np.floor(h).astype(np.int64)
            frac = h - lo
            j_lo = np.searchsorted(cum, base + lo + 1, side="left")
            j_hi = np.searchsorted(cum, base + np.minimum(lo + 1, n - 1) + 1,
                                   side="left")
            row[f"cq{int(round(q * 100)):02d}"] = (
                v[j_lo] * (1.0 - frac) + v[j_hi] * frac)
        return pd.DataFrame(row)

    return _value_count_fold(ds, [key], value, finalize)


def benford_first_digit_counts(ds, key: str, value: str):
    """Benford's-law audit: count of rows per (key, leading digit of
    the integer-cents value), digits 1-9 (zero-cent rows excluded) —
    the classic data-quality / anomaly screen. Pure integer: the
    leading digit comes from the decimal string of the cents, so the
    SQL twin (substr of CAST AS VARCHAR) is exact. Per-batch combine;
    at most 9×keys rows ride the exchange.
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        cents = _cents(b[value].to_numpy(zero_copy_only=False))
        kv = b[key].to_numpy(zero_copy_only=False)
        keep = cents > 0
        first = (pd.Series(cents[keep]).astype(str).str[0]
                 .astype(np.int64).to_numpy())
        df = pd.DataFrame({key: kv[keep], "digit": first})
        df["partial"] = np.int64(1)
        g = df.groupby([key, "digit"], as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby([key, "digit"])
           .aggregate(Sum("partial", alias_name="n_rows")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["digit"] = df["digit"].astype(np.int64)
        df["n_rows"] = df["n_rows"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def grouped_mode(ds, key: str, value: str):
    """Deterministic per-key MODE: the most frequent value, ties broken
    by smallest value — plus its count and the key's distinct-value
    count. Runs on the value-count fold; one row per key comes out.
    """

    def finalize(k, v, c, starts, n_vals):
        best = np.lexsort((v, -c, k))[starts]  # count desc, value asc
        return pd.DataFrame({key: k[starts], "mode_value": v[best],
                             "mode_count": c[best], "n_distinct": n_vals})

    return _value_count_fold(ds, [key], value, finalize)


def grouped_pearson(ds, key: str, x_col: str, y_col: str):
    """Per-key Pearson correlation over two INTEGER columns from exact
    integer moment sums (n, Σx, Σy, Σxy, Σx², Σy²) — the correlation
    twin of grouped_linear_fit, same topology: one vectorized per-batch
    partial, KB-sized combiner table, driver-side bignum fold.

        r = (nΣxy − ΣxΣy) / sqrt((nΣx² − (Σx)²) · (nΣy² − (Σy)²))

    Fixed IEEE order — round each exact int to double, multiply the two
    denominator doubles, one sqrt, one divide — so r is bit-identical
    to the HUGEINT SQL oracle computing the same expression.

    Overflow safety (ADVICE r4): the second-order moments (Σxy, Σx²,
    Σy²) ride the exchange as TWO int64 limb columns (value = hi·2⁶² +
    lo, floor-div split, exact for |v| < 2¹²⁵). Each batch checks
    max|x|·max|y|·len ≤ 2⁶² and uses vectorized int64 products when
    provably safe (the common case: chars/tokens), else falls back to
    Python-int products — so Spearman's doubled ranks (≈2n per key)
    never silently wrap no matter the per-key row count.
    """
    import math

    _LIMB = 1 << 62
    _MOMS = ("sxy", "sxx", "syy")

    def _split(col):
        """Exact (hi, lo) limb split of a Python-int/array column."""
        hi = [int(v) // _LIMB for v in col]
        lo = [int(v) % _LIMB for v in col]
        return (np.array(hi, dtype=np.int64),
                np.array(lo, dtype=np.int64))

    def partial(b: pa.Table) -> pa.Table:
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ax = int(np.abs(x).max()) if len(x) else 0
        ay = int(np.abs(y).max()) if len(y) else 0
        n_b = max(len(x), 1)
        safe = (ax * ay * n_b < _LIMB and ax * ax * n_b < _LIMB
                and ay * ay * n_b < _LIMB)
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False)})
        df["n"] = np.int64(1)
        df["sx"] = x
        df["sy"] = y
        if safe:
            df["sxy"] = x * y
            df["sxx"] = x * x
            df["syy"] = y * y
        else:
            xo = x.astype(object)
            yo = y.astype(object)
            df["sxy"] = xo * yo
            df["sxx"] = xo * xo
            df["syy"] = yo * yo
        g = df.groupby(key, as_index=False, sort=False).sum()
        out = {key: g[key].to_numpy(),
               "n": g["n"].to_numpy(dtype=np.int64),
               "sx": g["sx"].to_numpy(dtype=np.int64),
               "sy": g["sy"].to_numpy(dtype=np.int64)}
        for m in _MOMS:
            hi, lo = _split(g[m])
            out[f"{m}_hi"] = hi
            out[f"{m}_lo"] = lo
        return pa.table(out)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    rows = []
    for k, g in parts.groupby(key, sort=True):
        n = int(g["n"].sum())
        sx = sum(int(v) for v in g["sx"])
        sy = sum(int(v) for v in g["sy"])

        def bigsum(m, g=g):
            return (sum(int(v) for v in g[f"{m}_hi"]) * _LIMB
                    + sum(int(v) for v in g[f"{m}_lo"]))

        sxy = bigsum("sxy")
        sxx = bigsum("sxx")
        syy = bigsum("syy")
        num = n * sxy - sx * sy
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        r = (float(num) / math.sqrt(float(dx) * float(dy))
             if dx > 0 and dy > 0 else 0.0)
        rows.append({key: k, "n_rows": np.int64(n), "pearson_r": r})
    return pd.DataFrame(rows)


def winsorized_mean_stats(ds, key: str, value: str,
                          q_lo: float = 0.05, q_hi: float = 0.95):
    """Per-key winsorized sum/count of a money column: exact
    disc-quantile cutpoints, then every value clamped to
    [cut_lo, cut_hi] in integer-cents space and summed exactly, both in
    the same bucket fold of one keyed exchange (same contract as
    threshold_exceed_counts). Output: n, n_clamped,
    winsorized_sum_cents — the robust mean is the exact ratio, left to
    the consumer so the row stays all-integer.
    """

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        order, starts, counts, (lo, hi) = _rank_cuts(g, [key], value,
                                                     (q_lo, q_hi))
        v = g[value].to_numpy(dtype=np.float64)[order]
        lo, hi = np.repeat(lo, counts), np.repeat(hi, counts)
        clamped = np.minimum(np.maximum(_cents(v), _cents(lo)), _cents(hi))
        was = ((v < lo) | (v > hi)).astype(np.int64)
        return pd.DataFrame({
            key: g[key].to_numpy()[order[starts]], "n": counts,
            "n_clamped": np.add.reduceat(was, starts),
            "winsorized_sum_cents": np.add.reduceat(clamped, starts)})

    return bucketed_map_groups(ds, [key], fold)


def welch_t_report(ds, key: str, value: str, group_a, group_b):
    """Welch's two-sample t statistic comparing a money column between
    two key groups, from exact integer-cents moments (n, Σc, Σc²):

        t = (m_a − m_b) / sqrt(v_a/n_a + v_b/n_b),
        m = Σc/n,  v = (nΣc² − (Σc)²) / (n(n−1))

    One vectorized filtered partial per batch (two int64 rows ride the
    exchange per batch), bignum driver fold, fixed IEEE expression
    order — every output double is bit-identical to the HUGEINT SQL
    oracle. Output: one row (n_a, n_b, mean_a, mean_b, t_stat).
    """
    import math

    def partial(b: pa.Table) -> pa.Table:
        kv = b[key].to_numpy(zero_copy_only=False)
        cents = _cents(b[value].to_numpy(zero_copy_only=False))
        rows = {"grp": [], "n": [], "s": [], "ss": []}
        for name, grp in (("a", group_a), ("b", group_b)):
            m = kv == grp
            c = cents[m]
            rows["grp"].append(name)
            rows["n"].append(np.int64(m.sum()))
            rows["s"].append(np.int64(c.sum()))
            rows["ss"].append(np.int64((c * c).sum()))
        return pa.table({"grp": pa.array(rows["grp"]),
                         "n": pa.array(rows["n"], type=pa.int64()),
                         "s": pa.array(rows["s"], type=pa.int64()),
                         "ss": pa.array(rows["ss"], type=pa.int64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    def fold(g):
        sub = parts[parts["grp"] == g]
        return (int(sub["n"].sum()), sum(int(v) for v in sub["s"]),
                sum(int(v) for v in sub["ss"]))

    na, sa, ssa = fold("a")
    nb, sb, ssb = fold("b")
    # Degenerate-group guard (ADVICE r4): with n<=1 the sample variance
    # is undefined — emit the deliberate 0.0 convention used by the
    # other folds (grouped_pearson, fano) instead of raising.
    ma = float(sa) / float(na) if na > 0 else 0.0
    mb = float(sb) / float(nb) if nb > 0 else 0.0
    if na > 1 and nb > 1:
        va = float(na * ssa - sa * sa) / float(na * (na - 1))
        vb = float(nb * ssb - sb * sb) / float(nb * (nb - 1))
        se = math.sqrt(va / float(na) + vb / float(nb))
        t = (ma - mb) / se if se > 0.0 else 0.0
    else:
        t = 0.0
    return pd.DataFrame({
        "n_a": np.array([na], dtype=np.int64),
        "n_b": np.array([nb], dtype=np.int64),
        "mean_a_cents": [ma], "mean_b_cents": [mb], "t_stat": [t]})


def rfm_segment_counts(ds, user_col: str, ts_col: str, value: str):
    """RFM segmentation: per-user Recency (max event time), Frequency
    (event count) and Monetary (exact cents sum) are each bucketed by
    their own exact quartile cutpoints (strict-< rule: bucket =
    #{cutpoint < x}, the convention of quantile_bucket_counts), and the
    op reports user counts per (r, f, m) bucket triple — at most 64
    rows out.

    Scale shape: the per-user rollup is one vectorized hash aggregate
    (O(users) rows, the unavoidable width of any per-user feature);
    the 9 quartile cutpoints come from ONE global gather of that table
    (``_cutpoints`` with no key; the exact-path contract: the gathered
    table must fit a worker heap, the 100-TB swap-in is a sketch
    cutpoint) and broadcast by closure into a combine pass that ships
    only bucket-triple counts.
    """
    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    from ..stages.aggregate import hash_bucketed_group_agg

    metrics = ("rec", "freq", "mon")
    qs = (0.25, 0.5, 0.75)

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            user_col: b[user_col],
            "ts_us": pc.cast(b[ts_col].combine_chunks(), pa.int64()),
            "cents": pa.array(_cents(
                b[value].to_numpy(zero_copy_only=False)))})

    users = hash_bucketed_group_agg(
        ds.map_batches(project, batch_format="pyarrow"), [user_col],
        {"rec": ("ts_us", "max"), "freq": ("ts_us", "count"),
         "mon": ("cents", "sum")}, n_rows=cheap_row_count(ds)).materialize()
    cuts = dict(zip(metrics, _cutpoints(users, [], metrics, qs).to_pandas()
                    .iloc[0].to_numpy(dtype=np.float64).reshape(3, -1)))

    def bucketize(b: pa.Table) -> pa.Table:
        out = {}
        for metric, name in zip(metrics,
                                ("r_bucket", "f_bucket", "m_bucket")):
            x = b[metric].to_numpy(zero_copy_only=False).astype(
                np.float64)
            out[name] = (x[:, None] > cuts[metric][None, :]).sum(
                axis=1).astype(np.int64)
        df = pd.DataFrame(out)
        df["partial"] = np.int64(1)
        g = df.groupby(["r_bucket", "f_bucket", "m_bucket"],
                       as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    out = (users.map_batches(bucketize, batch_format="pyarrow")
           .groupby(["r_bucket", "f_bucket", "m_bucket"])
           .aggregate(Sum("partial", alias_name="n_users")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        for c in ("r_bucket", "f_bucket", "m_bucket", "n_users"):
            df[c] = df[c].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def grouped_spearman(ds, key: str, x_col: str, y_col: str):
    """Per-key Spearman rank correlation of two INTEGER columns, exact
    under ties: each value is replaced by its DOUBLED average rank
    (2R − c + 1, an integer — the same blockwise identity the Gini fold
    uses), and Pearson is computed over the integer rank pairs (rank
    scaling cancels), reusing grouped_pearson's bignum moment fold.

    Scale shape: pass 1 aggregates the per-key value DOMAIN of x and y
    in ONE value-count fold on the typed (key, axis) columns
    (domain-sized tables to the driver), builds the rank maps, and
    broadcasts them by closure; pass 2 attaches the doubled ranks
    vectorized (searchsorted) and folds six integer moments. Doubles are
    bit-identical to the HUGEINT window-function SQL oracle.
    """

    def stack(b: pa.Table) -> pa.Table:   # x rows (_axis 0), y rows (1)
        kv = b[key].to_numpy(zero_copy_only=False)
        return pa.table({
            key: np.concatenate([kv, kv]),
            "_axis": np.repeat(np.int8([0, 1]), len(kv)),
            "_v": np.concatenate([
                b[c].to_numpy(zero_copy_only=False).astype(np.int64)
                for c in (x_col, y_col)])})

    def finalize(k, v, c, starts, n_vals, axis):
        return pd.DataFrame({
            key: k, "_axis": axis, "_v": v,
            "dr": 2 * _within_key_below(c, starts, n_vals) + c + 1})

    dom = _value_count_fold(ds.map_batches(stack, batch_format="pyarrow"),
                            [key, "_axis"], "_v", finalize).to_pandas()
    mx, my = {}, {}
    for (k, axis), g in dom.groupby([key, "_axis"]):
        (my if axis else mx)[k] = (g["_v"].to_numpy(dtype=np.int64),
                                   g["dr"].to_numpy(dtype=np.int64))

    def attach(b: pa.Table) -> pa.Table:
        kv = b[key].to_numpy(zero_copy_only=False)
        x = b[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        drx = np.empty(len(kv), dtype=np.int64)
        dry = np.empty(len(kv), dtype=np.int64)
        for k in pd.unique(kv):
            m = kv == k
            vx, rx = mx[k]
            vy, ry = my[k]
            drx[m] = rx[np.searchsorted(vx, x[m])]
            dry[m] = ry[np.searchsorted(vy, y[m])]
        return pa.table({key: pa.array(kv),
                         "drx": pa.array(drx), "dry": pa.array(dry)})

    out = grouped_pearson(ds.map_batches(attach, batch_format="pyarrow"),
                          key, "drx", "dry")
    return out.rename(columns={"pearson_r": "spearman_rho"})


def cusum_alarm_counts(ds, key: str, ts_col: str, tie_col: str,
                       value: str, drift_cents: int, h_cents: int):
    """One-sided CUSUM change-point scan per key over the time-ordered
    value stream, in exact integer cents:

        S_i = Σ_{j<=i} (c_j − drift);  CUSUM_i = S_i − min_{j<=i} S_j
        alarm at i when CUSUM_i > h

    Output per key: n_rows, n_alarms, max_cusum — all int64, replayed
    exactly by a SUM/MIN window-function SQL twin. Scale shape: one
    keyed exchange; each bucket sorts by (key, ts, tie) once and scans
    every key with segmented cumulative sums/minima (the sequential scan
    is inherent to CUSUM; no per-row Python), one 3-int row per key out.
    """
    import pyarrow.compute as pc

    def project(b: pa.Table) -> pa.Table:
        return pa.table({key: b[key],
                         "ts_us": pc.cast(b[ts_col].combine_chunks(),
                                          pa.int64()),
                         tie_col: b[tie_col],
                         "cents": pa.array(_cents(
                             b[value].to_numpy(zero_copy_only=False)))})

    def scan(g: pd.DataFrame) -> pd.DataFrame:
        k = g[key].to_numpy()
        order, starts, counts = _key_runs(k, g["ts_us"].to_numpy(),
                                          g[tie_col].to_numpy())
        seg = np.repeat(np.arange(len(starts)), counts)
        c = g["cents"].to_numpy(dtype=np.int64)[order]
        s = pd.Series(c - np.int64(drift_cents)).groupby(seg).cumsum()
        run_min = np.minimum(s, 0).groupby(seg).cummin()
        cusum = (s - run_min).to_numpy()
        return pd.DataFrame({
            key: k[order[starts]],
            "n_rows": counts,
            "n_alarms": np.add.reduceat(
                (cusum > h_cents).astype(np.int64), starts),
            "max_cusum": np.maximum.reduceat(cusum, starts)})

    return bucketed_map_groups(ds, [key], scan, project=project)


def top_distinct_value_rows(ds, key: str, value: str, id_col: str,
                            k: int = 3):
    """DENSE_RANK semantics: every row whose value is among the top-k
    DISTINCT values of its key (ties all included — the complement of
    the ROW_NUMBER top-n operator). The per-key top-k value sets come
    from the domain-sized value-count fold and broadcast by
    closure into a pure per-batch membership filter — no row-level
    shuffle at all.
    """

    def finalize(kv, v, c, starts, n_vals):
        rank = np.arange(len(v)) - np.repeat(starts, n_vals)  # value asc
        top = rank >= np.repeat(n_vals - k, n_vals)
        return pd.DataFrame({key: kv[top], value: v[top]})

    dom = _value_count_fold(ds, [key], value, finalize,
                            cast=lambda v: v.astype(np.int64)).to_pandas()
    tops = {kk: set(g[value]) for kk, g in dom.groupby(key)}

    def filt(b: pa.Table) -> pa.Table:
        kv = b[key].to_numpy(zero_copy_only=False)
        v = b[value].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = np.fromiter((vv in tops[kk]
                            for kk, vv in zip(kv, v)),
                           dtype=bool, count=len(kv))
        return b.select([key, id_col, value]).filter(pa.array(keep))

    return ds.map_batches(filt, batch_format="pyarrow")


def psi_bin_report(ds, key: str, value: str, ref_group, cmp_group,
                   n_bins: int = 10):
    """Population-stability-index drift report between two key groups,
    binned by the REFERENCE group's exact ``quantile_disc`` cutpoints
    at q = 1/n_bins, ..., (n_bins-1)/n_bins (one global gather,
    ``_cutpoints``; strict-< rule, same as quantile_bucket_counts).
    Output one row per bin:
    reference and comparison counts plus that bin's PSI term
        (p − q) * ln(p / q),  p = ref share, q = cmp share
    (0.0 when either count is zero — documented convention; the total
    is the consumer's sum so no cross-engine float-order exists).
    All shares/logs derive from exact int64 counts in a fixed
    expression order — bit-identical to the SQL twin.
    """
    import math

    from ray.data.aggregate import Sum

    qs = tuple((i + 1) / n_bins for i in range(n_bins - 1))

    def ref_vals(b: pa.Table) -> pa.Table:
        m = pa.array(b[key].to_numpy(zero_copy_only=False) == ref_group)
        return b.select([value]).filter(m)

    cuts = _cutpoints(ds, [], [value], qs, project=ref_vals).to_pandas() \
        .iloc[0].to_numpy(dtype=np.float64)

    def bucketize(b: pa.Table) -> pa.Table:
        kv = b[key].to_numpy(zero_copy_only=False)
        keep = (kv == ref_group) | (kv == cmp_group)
        kv = kv[keep]
        x = b[value].to_numpy(zero_copy_only=False).astype(
            np.float64)[keep]
        bins = (x[:, None] > cuts[None, :]).sum(axis=1).astype(np.int64)
        df = pd.DataFrame({"bin": bins,
                           "is_ref": (kv == ref_group)})
        df["partial"] = np.int64(1)
        g = df.groupby(["bin", "is_ref"], as_index=False,
                       sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    counts = (ds.map_batches(bucketize, batch_format="pyarrow")
              .groupby(["bin", "is_ref"])
              .aggregate(Sum("partial", alias_name="cnt"))
              .to_pandas())  # <= 2*n_bins rows

    ref = {int(r["bin"]): int(r["cnt"])
           for _, r in counts[counts["is_ref"]].iterrows()}
    cmp_ = {int(r["bin"]): int(r["cnt"])
            for _, r in counts[~counts["is_ref"]].iterrows()}
    n_ref = sum(ref.values())
    n_cmp = sum(cmp_.values())
    rows = []
    for b_ in range(n_bins):
        p_cnt = ref.get(b_, 0)
        q_cnt = cmp_.get(b_, 0)
        if p_cnt > 0 and q_cnt > 0:
            p = float(p_cnt) / float(n_ref)
            q = float(q_cnt) / float(n_cmp)
            term = (p - q) * math.log(p / q)
        else:
            term = 0.0
        rows.append({"bin": np.int64(b_),
                     "ref_cnt": np.int64(p_cnt),
                     "cmp_cnt": np.int64(q_cnt),
                     "psi_term": term})
    return pd.DataFrame(rows)


def neyman_allocation(ds, stratum: str, value: str, total_n: int):
    """Neyman optimal sample-size allocation across strata:
    ``alloc_h ∝ N_h · S_h`` (stratum size × sample std of the cents),
    integerized by largest-remainder rounding (floor everything, then
    +1 by largest fractional part, ties to the smaller stratum name) so
    the allocations sum exactly to ``total_n`` — the survey-sampling
    design step of a stratified corpus sample.

    Determinism: moments are exact integer cents (bignum fold); the
    float chain (std → weight → share) uses a fixed expression order,
    and the cross-stratum weight total is folded in sorted-stratum
    order — replayed in SQL by an ORDER BY ordered aggregate, so every
    double and therefore every integer allocation is bit-identical.
    """
    import math

    def partial(b: pa.Table) -> pa.Table:
        cents = _cents(b[value].to_numpy(zero_copy_only=False))
        df = pd.DataFrame({stratum: b[stratum]
                           .to_numpy(zero_copy_only=False)})
        df["n"] = np.int64(1)
        df["s"] = cents
        df["ss"] = cents * cents
        g = df.groupby(stratum, as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    strata = []
    for k, g in parts.groupby(stratum, sort=True):
        n = int(g["n"].sum())
        sm = sum(int(v) for v in g["s"])
        ss = sum(int(v) for v in g["ss"])
        if n > 1:
            sd = math.sqrt(float(n * ss - sm * sm)
                           / float(n * (n - 1)))
            wt = float(n) * sd
        else:
            wt = 0.0
        strata.append((k, n, wt))

    tot = 0.0
    for _, _, wt in strata:      # sorted-stratum order — SQL ORDER BY
        tot = tot + wt
    rows = []
    for k, n, wt in strata:
        # tot==0 guard (ADVICE r4): every stratum degenerate (n<=1 or
        # zero variance) — allocate 0 deliberately instead of dividing
        # by zero; largest-remainder then spreads total_n by name order.
        raw = (float(total_n) * wt) / tot if tot > 0.0 else 0.0
        rows.append({stratum: k, "n_rows": np.int64(n),
                     "raw_alloc": raw,
                     "base": int(math.floor(raw)),
                     "frac": raw - math.floor(raw)})
    rem = total_n - sum(r["base"] for r in rows)
    order = sorted(range(len(rows)),
                   key=lambda i: (-rows[i]["frac"], rows[i][stratum]))
    for pos, i in enumerate(order):
        rows[i]["alloc"] = np.int64(rows[i]["base"]
                                    + (1 if pos < rem else 0))
    out = pd.DataFrame(rows)[[stratum, "n_rows", "raw_alloc", "alloc"]]
    return out.reset_index(drop=True)


def chi2_independence_cells(ds, row_key: str, col_key: str):
    """Chi-square independence test between two categorical columns,
    reported per contingency cell: observed count, expected count under
    independence (row_total * col_total / n, an int-exact double) and
    the cell's chi² term (O − E)²/E in a fixed expression order — the
    total statistic is the consumer's sum, so no cross-engine
    float-order exists (same convention as psi_bin_report).

    Scale shape: per-batch (row, col) counts combine; only
    contingency-table-sized integer rows ride the exchange, and the
    margin fold runs on that table.
    """
    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            row_key: b[row_key].to_numpy(zero_copy_only=False),
            col_key: b[col_key].to_numpy(zero_copy_only=False)})
        g = df.groupby([row_key, col_key], as_index=False,
                       sort=False).size()
        g = g.rename(columns={"size": "partial"})
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    cells = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby([row_key, col_key])
             .aggregate(Sum("partial", alias_name="observed"))
             .to_pandas())  # contingency-table-sized
    cells["observed"] = cells["observed"].astype(np.int64)
    row_tot = cells.groupby(row_key)["observed"].sum()
    col_tot = cells.groupby(col_key)["observed"].sum()
    n = int(cells["observed"].sum())
    rows = []
    for _, r in cells.iterrows():
        o = int(r["observed"])
        e = (float(int(row_tot[r[row_key]]))
             * float(int(col_tot[r[col_key]]))) / float(n)
        term = ((float(o) - e) * (float(o) - e)) / e
        rows.append({row_key: r[row_key], col_key: r[col_key],
                     "observed": np.int64(o), "expected": e,
                     "chi2_term": term})
    out = pd.DataFrame(rows).sort_values([row_key, col_key])
    return out.reset_index(drop=True)


def mann_whitney_u(ds, key: str, value: str, group_a, group_b):
    """Mann-Whitney U rank-sum test comparing a value column between
    two key groups, exact under ties: doubled average ranks
    (2R − c + 1) over the COMBINED value domain, per-group rank sums as
    exact integers, and the tie-corrected normal approximation

        z = (U − n_a·n_b/2) / sqrt(n_a·n_b/12 ·
              ((n+1) − Σ(t³−t)/(n(n−1))))

    with every float derived from exact bignum integers in a fixed
    expression order. Only value-DOMAIN-sized (value, group, count)
    rows ride the exchange. Output one row:
    (n_a, n_b, u2_a — DOUBLED U, int-exact — and z).
    """
    import math

    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        kv = b[key].to_numpy(zero_copy_only=False)
        keep = (kv == group_a) | (kv == group_b)
        df = pd.DataFrame({
            value: b[value].to_numpy(zero_copy_only=False)[keep],
            "is_a": (kv[keep] == group_a)})
        g = df.groupby([value, "is_a"], as_index=False, sort=False).size()
        g = g.rename(columns={"size": "partial"})
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    dom = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby([value, "is_a"])
           .aggregate(Sum("partial", alias_name="cnt"))
           .to_pandas())  # combined value domain
    piv = (dom.pivot_table(index=value, columns="is_a", values="cnt",
                           aggfunc="sum", fill_value=0)
           .sort_index())
    ca = piv[True].to_numpy(dtype=np.int64) if True in piv else \
        np.zeros(len(piv), dtype=np.int64)
    cb = piv[False].to_numpy(dtype=np.int64) if False in piv else \
        np.zeros(len(piv), dtype=np.int64)
    t = ca + cb
    n_a, n_b = int(ca.sum()), int(cb.sum())
    n = n_a + n_b
    cum = np.cumsum(t)
    dr = 2 * cum - t + 1                     # doubled average ranks
    r2_a = sum(int(d) * int(c) for d, c in zip(dr, ca))  # bignum
    u2_a = r2_a - n_a * (n_a + 1)            # doubled U for group a
    tie = sum(int(x) ** 3 - int(x) for x in t)
    mean2 = n_a * n_b                        # doubled mean = n_a n_b
    var = (float(n_a) * float(n_b) / 12.0
           * (float(n + 1) - float(tie) / float(n * (n - 1))))
    z = ((float(u2_a) - float(mean2)) / 2.0) / math.sqrt(var) \
        if var > 0 else 0.0
    return pd.DataFrame({
        "n_a": np.array([n_a], dtype=np.int64),
        "n_b": np.array([n_b], dtype=np.int64),
        "u2_a": np.array([u2_a], dtype=np.int64),
        "z": [z]})


def kendall_tau_b(ds, x_col: str, y_col: str):
    """Kendall's tau-b rank correlation of two INTEGER columns, exact
    under ties: concordant/discordant pair counts computed by a strict
    2-D suffix sum over the JOINT value-domain contingency table
    (never over row pairs), tie terms from the margins, and

        tau_b = (C − D) / sqrt((n0 − n1)(n0 − n2)),  n0 = n(n−1)/2

    with bignum integer counts and one fixed-order float expression —
    bit-identical to an O(n²) SIGN-product SQL oracle. Scale shape:
    per-batch joint value counts combine (domain²-bounded, never rows);
    the driver fold is a SPARSE x-ordered Fenwick sweep touching only
    the nonzero (x, y, cnt) cells — O(nnz·log|Y|) time, O(|Y|) memory
    (ADVICE r4: no dense |X|×|Y| matrix, no object suffix-sum array),
    with Python-int C/D accumulators so pair counts never wrap.
    """
    import math

    from ray.data.aggregate import Sum

    def partial(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "x": b[x_col].to_numpy(zero_copy_only=False)
            .astype(np.int64),
            "y": b[y_col].to_numpy(zero_copy_only=False)
            .astype(np.int64)})
        g = df.groupby(["x", "y"], as_index=False, sort=False).size()
        g = g.rename(columns={"size": "partial"})
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    dom = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["x", "y"])
           .aggregate(Sum("partial", alias_name="cnt"))
           .to_pandas())
    dom = dom.sort_values(["x", "y"], kind="stable")
    xv = dom["x"].to_numpy(dtype=np.int64)
    yv = dom["y"].to_numpy(dtype=np.int64)
    cv = dom["cnt"].to_numpy(dtype=np.int64)
    ys = np.sort(np.unique(yv))
    yi = np.searchsorted(ys, yv)          # 0-based y code per cell

    # Fenwick over y codes holding Python-int counts of all cells in
    # STRICTLY smaller x groups; sweep x groups in increasing order.
    tree = [0] * (len(ys) + 1)

    def bit_add(i: int, v: int) -> None:
        i += 1
        while i <= len(ys):
            tree[i] += v
            i += i & (-i)

    def bit_prefix(i: int) -> int:        # Σ codes <= i (i may be -1)
        s = 0
        i += 1
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s

    C = 0
    D = 0
    seen = 0                              # rows in smaller x groups
    i0 = 0
    nnz = len(xv)
    while i0 < nnz:
        i1 = i0
        while i1 < nnz and xv[i1] == xv[i0]:
            i1 += 1
        for j in range(i0, i1):           # query before inserting group
            c = int(cv[j])
            less_less = bit_prefix(int(yi[j]) - 1)   # x'<x, y'<y
            less_le = bit_prefix(int(yi[j]))         # x'<x, y'<=y
            C += c * less_less
            D += c * (seen - less_le)                # x'<x, y'>y
        for j in range(i0, i1):
            c = int(cv[j])
            bit_add(int(yi[j]), c)
            seen += c
        i0 = i1

    n = int(cv.sum())
    row_tot = dom.groupby("x", sort=False)["cnt"].sum()
    col_tot = dom.groupby("y", sort=False)["cnt"].sum()
    n0 = n * (n - 1) // 2
    n1 = sum(int(t) * (int(t) - 1) // 2 for t in row_tot)
    n2 = sum(int(t) * (int(t) - 1) // 2 for t in col_tot)
    denom = math.sqrt(float(n0 - n1) * float(n0 - n2))
    tau = float(C - D) / denom if denom > 0 else 0.0
    return pd.DataFrame({
        "n_rows": np.array([n], dtype=np.int64),
        "concordant": np.array([C], dtype=np.int64),
        "discordant": np.array([D], dtype=np.int64),
        "tau_b": [tau]})


def mutual_information_report(ds, key_a: str, key_b: str):
    """Mutual information (and the three Shannon entropies) between two
    categorical columns from their EXACT contingency table — the
    information-theoretic sibling of the chi-square independence cells:
    how many nats knowing one column tells you about the other (0 =
    independent). The classic corpus audit for lang-vs-source skew.

    Scale shape: one groupby-count over (a, b) — the contingency table
    is |A|×|B|-bounded, tiny next to the data — then a driver fold.
    Exactness contract: all counts exact int64; each term uses only
    ln(exact integer) combined in ONE fixed parenthesization,
    n/N · (ln n − ln ra − ln cb + ln N), and the folds accumulate
    SEQUENTIALLY in (a asc, b asc) order — replayed by the SQL twin's
    SUM(... ORDER BY a, b), so the doubles hash identically."""
    import math

    from ray.data.aggregate import Count

    cells = (ds.select_columns([key_a, key_b]).groupby([key_a, key_b])
             .aggregate(Count(alias_name="n")).to_pandas())
    cells = cells.sort_values([key_a, key_b]).reset_index(drop=True)
    n_tot = int(cells["n"].sum())
    row_t = cells.groupby(key_a)["n"].sum().to_dict()
    col_t = cells.groupby(key_b)["n"].sum().to_dict()

    ln_n = math.log(float(n_tot)) if n_tot > 0 else 0.0
    mi = 0.0
    h_joint = 0.0
    for _, r in cells.iterrows():
        n = float(int(r["n"]))
        p = n / float(n_tot)
        mi += p * (math.log(n) - math.log(float(row_t[r[key_a]]))
                   - math.log(float(col_t[r[key_b]])) + ln_n)
        h_joint += p * (ln_n - math.log(n))
    h_a = 0.0
    for a in sorted(row_t):
        p = float(row_t[a]) / float(n_tot)
        h_a += p * (ln_n - math.log(float(row_t[a])))
    h_b = 0.0
    for b in sorted(col_t):
        p = float(col_t[b]) / float(n_tot)
        h_b += p * (ln_n - math.log(float(col_t[b])))
    return pd.DataFrame({
        "n_rows": np.array([n_tot], dtype=np.int64),
        "n_cells": np.array([len(cells)], dtype=np.int64),
        "h_a": [h_a], "h_b": [h_b], "h_joint": [h_joint],
        "mutual_info": [mi]})


def hill_tail_index(ds, key: str, value: str, k: int = 100):
    """Hill estimator of the Pareto tail index per key over the top-k
    order statistics of the integer-cents value (Hill 1975): with
    x₍₁₎ ≥ … ≥ x₍ₖ₎ ≥ x₍ₖ₊₁₎ the estimate of 1/α is
    (Σᵢ ln x₍ᵢ₎)/k − ln x₍ₖ₊₁₎ — the standard heavy-tail screen for
    value / length distributions. Zero- and negative-cent rows are
    excluded (ln requires positive support).

    Scale shape: per-batch per-key local top-(k+1) prune (one sort), so
    at most (k+1)·batches rows per key ride the one keyed exchange; each
    key's first row also carries the batch's positive-row count, so the
    exact count needs no second pass. Each bucket sorts once and takes
    every key's global top-(k+1). Boundary ties are harmless — the
    top-k MULTISET is unique even when the rank order is not. The ln sum
    folds in rank order (value desc); the SQL twin replays it with
    ROW_NUMBER + SUM(... ORDER BY rk)."""
    import math

    def partial(b: pa.Table) -> pd.DataFrame:
        cents = _cents(b[value].to_numpy(zero_copy_only=False))
        keep = cents > 0
        kv, cts = b[key].to_numpy(zero_copy_only=False)[keep], cents[keep]
        order, starts, counts = _key_runs(kv, -cts)
        rank = np.arange(len(order)) - np.repeat(starts, counts)
        n_pos = np.zeros(len(order), dtype=np.int64)
        n_pos[starts] = counts
        top = rank <= k
        return pd.DataFrame({key: kv[order][top], "cts": cts[order][top],
                             "n_pos": n_pos[top]})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        kv = g[key].to_numpy()
        cts = g["cts"].to_numpy(dtype=np.int64)
        order, starts, counts = _key_runs(kv, -cts)
        n_pos = np.add.reduceat(g["n_pos"].to_numpy(dtype=np.int64)[order],
                                starts)
        cts = cts[order]
        k_eff = np.minimum(k, n_pos - 1)        # n_pos >= 1
        xb = np.zeros(len(starts), dtype=np.int64)
        inv = np.zeros(len(starts), dtype=np.float64)
        for i in np.flatnonzero(k_eff):
            top = cts[starts[i]:starts[i] + k_eff[i] + 1]
            s = 0.0
            for x in top[:-1]:
                s += math.log(float(x))
            xb[i] = top[-1]
            inv[i] = s / float(k_eff[i]) - math.log(float(xb[i]))
        return pd.DataFrame({key: kv[order[starts]], "n_pos": n_pos,
                             "k_eff": k_eff, "x_boundary_cents": xb,
                             "hill_inv_alpha": inv})

    return bucketed_map_groups(ds, [key], fold, project=partial)


def grouped_shape_moments(ds, key: str, value: str):
    """Per-key skewness and excess kurtosis of an INTEGER column from
    exact integer power sums (n, S1..S4) — the shape-statistics sibling
    of grouped_pearson above, same topology: one vectorized per-batch
    partial, KB-sized exchange, driver-side bignum fold.

    With the exact integer central-moment combinations

        M2 = n*S2 - S1^2                      (n^2 * m2)
        M3 = n^2*S3 - 3n*S1*S2 + 2*S1^3       (n^3 * m3)
        M4 = n^3*S4 - 4n^2*S1*S3
             + 6n*S1^2*S2 - 3*S1^4            (n^4 * m4)

    the n-powers cancel in the population shape ratios:

        skewness        g1 = M3 / M2^(3/2)
        excess kurtosis g2 = M4 / M2^2 - 3

    Fixed IEEE order — round each exact int to double, M2^(3/2) as
    sqrt(m2d)*m2d, one divide — bit-identical to the HUGEINT SQL oracle
    computing the same expression (oracle HUGEINT headroom: requires
    n^3*S4 < 2^127, true for |v| <= 10^5 up to ~10^8 rows/key; the Ray
    side is bignum-exact at any scale). Keys with M2 = 0 (constant or
    n < 2) report 0.0 by convention.

    Output: one row per key ``(key, n_rows, skewness, excess_kurtosis)``.
    """
    import math

    _LIMB = 1 << 62
    _MOMS = ("s2", "s3", "s4")

    def _split(col):
        hi = [int(v) // _LIMB for v in col]
        lo = [int(v) % _LIMB for v in col]
        return (np.array(hi, dtype=np.int64),
                np.array(lo, dtype=np.int64))

    def partial(b: pa.Table) -> pa.Table:
        v = b[value].to_numpy(zero_copy_only=False).astype(np.int64)
        av = int(np.abs(v).max()) if len(v) else 0
        n_b = max(len(v), 1)
        safe = av ** 4 * n_b < _LIMB
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False)})
        df["n"] = np.int64(1)
        df["s1"] = v
        if safe:
            df["s2"] = v * v
            df["s3"] = v * v * v
            df["s4"] = (v * v) * (v * v)
        else:
            vo = v.astype(object)
            df["s2"] = vo * vo
            df["s3"] = vo * vo * vo
            df["s4"] = (vo * vo) * (vo * vo)
        g = df.groupby(key, as_index=False, sort=False).sum()
        out = {key: g[key].to_numpy(),
               "n": g["n"].to_numpy(dtype=np.int64),
               "s1": g["s1"].to_numpy(dtype=np.int64)}
        for m in _MOMS:
            hi, lo = _split(g[m])
            out[f"{m}_hi"] = hi
            out[f"{m}_lo"] = lo
        return pa.table(out)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()

    rows = []
    for k, g in parts.groupby(key, sort=True):
        n = int(g["n"].sum())
        s1 = sum(int(v) for v in g["s1"])

        def bigsum(m, g=g):
            return (sum(int(v) for v in g[f"{m}_hi"]) * _LIMB
                    + sum(int(v) for v in g[f"{m}_lo"]))

        s2 = bigsum("s2")
        s3 = bigsum("s3")
        s4 = bigsum("s4")
        m2 = n * s2 - s1 * s1
        m3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1 ** 3
        m4 = (n ** 3 * s4 - 4 * n * n * s1 * s3
              + 6 * n * s1 * s1 * s2 - 3 * s1 ** 4)
        if m2 > 0:
            m2d = float(m2)
            skew = float(m3) / (math.sqrt(m2d) * m2d)
            kurt = float(m4) / (m2d * m2d) - 3.0
        else:
            skew = 0.0
            kurt = 0.0
        rows.append({key: k, "n_rows": np.int64(n),
                     "skewness": skew, "excess_kurtosis": kurt})
    return pd.DataFrame(rows)


def median_of_means(ds, id_col: str, key: str, value: str,
                    n_buckets: int = 16):
    """Per-key MEDIAN-OF-MEANS robust mean estimator of a money column:
    every row lands in bucket ``splitmix64(id) % n_buckets``
    (deterministic, layout-invariant — same mixer as the train/test
    split), each bucket's mean is the exact-integer cents sum over its
    exact count (ONE double divide), and the estimate is the
    quantile_disc-convention median (rank ``_disc_rank(0.5, m)``) of the
    present buckets' means — the classic heavy-tail-robust estimator
    (Nemirovsky-Yudin; Lerasle-Oliveira survey).

    Exchange: keys x n_buckets integer rows. Driver fold: keys-sized.
    Output: (key, n_rows, n_buckets_used, mom_mean) — bit-identical to
    the UHUGEINT-mixer DuckDB oracle computing the same expression.
    """
    from ray.data.aggregate import Sum

    from ..functions.hashing import splitmix64

    def partial(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.uint64)
        bucket = (splitmix64(ids) % np.uint64(n_buckets)).astype(np.int64)
        cents = _cents(b[value].to_numpy(zero_copy_only=False))
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False),
                           "bucket": bucket, "n": np.int64(1),
                           "s": cents})
        g = df.groupby([key, "bucket"], as_index=False, sort=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    g = (ds.map_batches(partial, batch_format="pyarrow")
         .groupby([key, "bucket"])
         .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
         .to_pandas())

    rows = []
    for k, grp in g.groupby(key, sort=True):
        means = np.sort(grp["s"].to_numpy(np.float64)
                        / grp["n"].to_numpy(np.float64))
        m = len(means)
        rows.append({key: k,
                     "n_rows": np.int64(int(grp["n"].sum())),
                     "n_buckets_used": np.int64(m),
                     "mom_mean": float(means[_disc_rank(0.5, m) - 1])})
    return pd.DataFrame(rows)


def theil_sen_by_key(ds, key: str, x_col: str, y_col: str, id_col: str,
                     m: int = 40) -> pd.DataFrame:
    """Per-key Theil–Sen robust line fit (median of pairwise slopes —
    Sen 1968; 29.3% breakdown vs OLS's 0%) over a DETERMINISTIC capped
    sample: the ``m`` rows with the smallest ``id_col`` per key, i.e.
    ``ROW_NUMBER() OVER (PARTITION BY key ORDER BY id) <= m`` — the
    same SQL-replayable capping convention as the co-activity graph.
    The cap is what makes the O(m²) pairwise-slope enumeration
    scale-safe: it is a fixed constant regardless of key size.

    Distributed shape: per-batch partial top-m (smallest ids) shrinks
    the shuffle to ≤ m rows per key per block; one keyed exchange, each
    bucket sorts by (key, id) once and each key enumerates the C(m,2)
    pairs of its ≤ m survivors vectorized. Pairs with equal x are
    skipped (vertical). Slope = lower-median (quantile_disc, rank
    ``_disc_rank(0.5, n)``) of the pairwise-slope doubles; intercept =
    lower-median of the per-row residuals y − slope·x under that slope —
    both single fixed IEEE expressions, so DuckDB replays them
    bit-for-bit from the same capped sample.

    Returns one row per key: n_used, n_pairs, ts_slope, ts_intercept
    (slope/intercept 0.0 when every pair is vertical)."""

    def partial(b: pa.Table) -> pd.DataFrame:
        df = pd.DataFrame({
            key: b[key].to_numpy(zero_copy_only=False),
            "_id": b[id_col].to_numpy(zero_copy_only=False),
            "_x": b[x_col].to_numpy(zero_copy_only=False),
            "_y": b[y_col].to_numpy(zero_copy_only=False)})
        return (df.sort_values("_id", kind="stable")
                .groupby(key, sort=False).head(m))

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        kv = g[key].to_numpy()
        order, starts, counts = _key_runs(kv, g["_id"].to_numpy())
        xs = g["_x"].to_numpy(dtype=np.float64)[order]
        ys = g["_y"].to_numpy(dtype=np.float64)[order]
        n_used = np.minimum(counts, m)
        n_pairs = np.zeros(len(starts), dtype=np.int64)
        slope = np.zeros(len(starts), dtype=np.float64)
        inter = np.zeros(len(starts), dtype=np.float64)
        for t, (lo, n) in enumerate(zip(starts, n_used)):
            x, y = xs[lo:lo + n], ys[lo:lo + n]
            i, j = np.triu_indices(n, k=1)
            dx = x[j] - x[i]
            keep = dx != 0.0
            n_pairs[t] = keep.sum()
            if n_pairs[t]:
                s = np.sort((y[j][keep] - y[i][keep]) / dx[keep])
                slope[t] = s[_disc_rank(0.5, n_pairs[t]) - 1]
                r = np.sort(y - slope[t] * x)
                inter[t] = r[_disc_rank(0.5, n) - 1]
        return pd.DataFrame({key: kv[order[starts]], "n_used": n_used,
                             "n_pairs": n_pairs, "ts_slope": slope,
                             "ts_intercept": inter})

    return bucketed_map_groups(ds, [key], fold, project=partial).to_pandas()


def global_desc_rank(ds, value: str, id_col: str):
    """Exact global ROW_NUMBER over (``value`` DESC, ``id`` ASC)
    without a global sort: the value-DOMAIN count table (bounded by
    distinct values, not rows — the percent_rank contract) yields each
    value's greater-than prefix via one broadcast suffix-sum, and one
    keyed exchange on the value assigns within-tie positions by id order
    (each bucket sorts by (value, id) once).
    Returns a Dataset (id_col, r) with r exactly the window
    ROW_NUMBER."""
    from ray.data.aggregate import Count

    counts = (ds.groupby(value).aggregate(Count(alias_name="c"))
              .to_pandas().sort_values(value))
    vals = counts[value].to_numpy()
    c = counts["c"].to_numpy(dtype=np.int64)
    gt = c.sum() - np.cumsum(c)        # rows with a strictly larger value

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        v, ids = g[value].to_numpy(), g[id_col].to_numpy()
        order, starts, n_ties = _key_runs(v, ids)
        tie_pos = np.arange(len(order)) - np.repeat(starts, n_ties)
        base = gt[np.searchsorted(vals, v[order])]
        return pd.DataFrame({id_col: ids[order],
                             "r": (base + tie_pos + 1).astype(np.int64)})

    return bucketed_map_groups(ds, [value], fold, n_rows=int(c.sum()))


def rrf_fused_topk(ds, id_col: str, value_a: str, value_b: str,
                   k: int = 10, rrf_k: int = 60) -> pd.DataFrame:
    """Reciprocal-rank fusion (Cormack et al. SIGIR'09) of the two
    rankings (value_a DESC, id) and (value_b DESC, id):
    ``rrf = 1/(rrf_k + r_a) + 1/(rrf_k + r_b)`` in that fixed IEEE
    order, top-k by (rrf DESC, id ASC). Ranks come from
    global_desc_rank (no global sort); the fuse is one keyed exchange on
    id over the union of both rank tables (the id keeps the input's
    type), each bucket joins its ids and keeps its local top-k, so only
    k·buckets candidate rows reach the driver."""

    def ranked(col: str, side: int):
        def tag(b: pa.Table) -> pa.Table:
            return pa.table({id_col: b[id_col], "r": b["r"],
                             "side": pa.array(np.full(b.num_rows, side,
                                                      dtype=np.int8))})
        return global_desc_rank(ds.select_columns([id_col, col]), col,
                                id_col).map_batches(tag,
                                                    batch_format="pyarrow")

    def fuse(g: pd.DataFrame) -> pd.DataFrame:
        a = g.loc[g["side"] == 0, [id_col, "r"]].rename(columns={"r": "ra"})
        b = g.loc[g["side"] == 1, [id_col, "r"]].rename(columns={"r": "rb"})
        df = a.merge(b, on=id_col)
        df["rrf"] = (1.0 / (rrf_k + df["ra"].to_numpy())
                     + 1.0 / (rrf_k + df["rb"].to_numpy()))
        return df.sort_values(["rrf", id_col],
                              ascending=[False, True]).head(k)

    n = cheap_row_count(ds)
    cand = bucketed_map_groups(ranked(value_a, 0).union(ranked(value_b, 1)),
                               [id_col], fuse,
                               n_rows=None if n is None else 2 * n).to_pandas()
    out = (cand.sort_values(["rrf", id_col], ascending=[False, True])
           .head(k).reset_index(drop=True))
    out["ra"] = out["ra"].astype(np.int64)
    out["rb"] = out["rb"].astype(np.int64)
    return out


def hour_anova(ds, key: str, ts_col: str, value: str) -> pd.DataFrame:
    """One-way ANOVA of value cents on the hour-of-day factor — the
    seasonality-strength statistic (R² = fraction of variance explained
    by the hour grouping), computed EXACTLY in scaled integers so both
    engines agree bit-for-bit:

        U   = (N·S2 − S1²)·10⁶ // N                    (SST × 10⁶)
        ssw = Σ_h (n_h·s2_h − s1_h²)·10⁶ // n_h        (SSW × 10⁶)
        var_total_ppm6  = (N·S2 − S1²)·10⁶ // N²
        var_within_ppm6 = ssw // N
        r2_ppm          = (U − ssw)·10⁶ // U           (0 if U = 0)

    All divisions are floors on non-negative integers (Python // ==
    DuckDB HUGEINT //). Per-(key, hour) partials, grouped on the typed
    key and hour columns, ride the exchange as n / s1 int64 plus the
    second moment as TWO int64 limbs
    (hi·2⁶² + lo — the grouped_pearson overflow discipline, ADVICE r4);
    the driver fold runs Python bignums, the oracle HUGEINT."""
    from ray.data.aggregate import Sum

    _LIMB = 1 << 62

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        cents = _cents(b[value].to_numpy(zero_copy_only=False))
        ts = b[ts_col].combine_chunks()
        us = pc.cast(pc.cast(ts, pa.timestamp("us")),
                     pa.int64()).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False),
                           "hour": (us // 3_600_000_000) % 24})
        df["n"] = np.int64(1)
        df["s1"] = cents
        amax = int(np.abs(cents).max()) if len(cents) else 0
        if amax * amax * max(len(cents), 1) < _LIMB:
            sq = cents * cents
        else:
            co = cents.astype(object)
            sq = co * co
        df["sq"] = sq
        g = df.groupby([key, "hour"], as_index=False, sort=False).sum()
        hi = np.array([int(x) // _LIMB for x in g["sq"]],
                      dtype=np.int64)
        lo = np.array([int(x) % _LIMB for x in g["sq"]],
                      dtype=np.int64)
        return pa.table({key: pa.array(g[key]),
                         "hour": pa.array(g["hour"].astype(np.int64)),
                         "n": pa.array(g["n"].astype(np.int64)),
                         "s1": pa.array(g["s1"].astype(np.int64)),
                         "hi": pa.array(hi), "lo": pa.array(lo)})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby([key, "hour"])
           .aggregate(Sum("n", alias_name="n"),
                      Sum("s1", alias_name="s1"),
                      Sum("hi", alias_name="hi"),
                      Sum("lo", alias_name="lo"))
           .to_pandas())

    SCALE = 10**6
    rows = []
    for kval, g in agg.groupby(key, sort=True):
        n_h = [int(x) for x in g["n"]]
        s1_h = [int(x) for x in g["s1"]]
        s2_h = [int(h) * _LIMB + int(lo)
                for h, lo in zip(g["hi"], g["lo"])]
        N = sum(n_h)
        S1 = sum(s1_h)
        S2 = sum(s2_h)
        U = (N * S2 - S1 * S1) * SCALE // N
        ssw = sum((n * s2 - s1 * s1) * SCALE // n
                  for n, s1, s2 in zip(n_h, s1_h, s2_h))
        rows.append({
            key: kval,
            "n_rows": N,
            "n_hours": len(n_h),
            "var_total_ppm6": (N * S2 - S1 * S1) * SCALE // (N * N),
            "var_within_ppm6": ssw // N,
            "r2_ppm": (U - ssw) * SCALE // U if U > 0 else 0})
    out = pd.DataFrame(rows)
    for c in out.columns:
        if c != key:
            out[c] = out[c].astype(np.int64)
    return out


def bootstrap_mean_ci(ds, key: str, id_col: str, value: str,
                      n_reps: int = 100) -> pd.DataFrame:
    """Distributed ONLINE BOOTSTRAP confidence interval for the per-key
    mean (Oza-Russell binomial-multiplier bootstrap — the
    embarrassingly-parallel resampling used when the data cannot be
    collected): replicate b reweights every row by
    w = bit0 + bit1 of splitmix64(id + b·1000003) ∈ {0,1,2}
    (mean 1, variance 1/2 — the Binomial(2,½) surrogate for Poisson(1)
    multipliers), so each replicate's weighted mean is computed in the
    SAME single pass as all others, with only (key × n_reps) integer
    partials on the exchange. Everything is hash-deterministic, so the
    "random" CI is value-hash checkable: the oracle replays the mixer
    in UHUGEINT and the disc-quantile pick.

    Returns per key: n_rows, mean_cents (exact-int double), ci_lo /
    ci_hi (2.5% / 97.5% disc quantiles of the replicate means). The
    partials are grouped on the typed (key, rep) columns; rep -1 carries
    each key's point totals."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import splitmix64

    reps = np.arange(n_reps, dtype=np.uint64)

    def partial(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
        v = b[value].to_numpy(zero_copy_only=False)
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        k = b[key].to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            h = splitmix64(ids[:, None]
                           + reps[None, :] * np.uint64(1000003))
        w = ((h & np.uint64(1))
             + ((h >> np.uint64(1)) & np.uint64(1))).astype(np.int64)
        rows = []
        for kv in pd.unique(k):
            m = k == kv
            wm = w[m]
            rows.append(pd.DataFrame({
                key: kv, "rep": np.arange(n_reps, dtype=np.int64),
                "nw": wm.sum(axis=0),
                "sw": (wm * cents[m, None]).sum(axis=0),
                "n": np.int64(0), "s": np.int64(0)}))
            rows.append(pd.DataFrame({          # rep -1: the point totals
                key: [kv], "rep": [np.int64(-1)],
                "nw": [np.int64(0)], "sw": [np.int64(0)],
                "n": [np.int64(int(m.sum()))],
                "s": [np.int64(int(cents[m].sum()))]}))
        return pa.Table.from_pandas(pd.concat(rows, ignore_index=True),
                                    preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby([key, "rep"])
           .aggregate(Sum("nw", alias_name="nw"),
                      Sum("sw", alias_name="sw"),
                      Sum("n", alias_name="n"),
                      Sum("s", alias_name="s"))
           .to_pandas())

    rows = []
    for kv, g in agg.groupby(key, sort=True):
        pt = g[g["rep"] == -1]
        n = int(pt["n"].iloc[0])
        s = int(pt["s"].iloc[0])
        means = np.sort(np.array(
            [float(int(sw)) / float(int(nw))
             for nw, sw in zip(g.loc[g["rep"] >= 0, "nw"],
                               g.loc[g["rep"] >= 0, "sw"])
             if int(nw) > 0]))
        nb = len(means)
        lo = means[_disc_rank(0.025, nb) - 1]
        hi = means[_disc_rank(0.975, nb) - 1]
        rows.append({key: kv, "n_rows": n,
                     "mean_cents": float(s) / float(n),
                     "ci_lo": float(lo), "ci_hi": float(hi)})
    out = pd.DataFrame(rows)
    out["n_rows"] = out["n_rows"].astype(np.int64)
    return out


def permutation_test_means(ds, key: str, id_col: str, value: str,
                           group_a, group_b,
                           n_reps: int = 200) -> pd.DataFrame:
    """Distributed PERMUTATION TEST for the difference of two group
    means, the exact-randomization complement of welch_t_report:
    replicate b relabels every row by one splitmix64 bit (a 50/50
    shuffle of the pooled sample), and the null distribution of
    mean(A')−mean(B') is computed for ALL replicates in one pass — the
    per-batch emission is (rep, n_a, s_a) integer partials plus pooled
    totals, nothing else. Hash-determinism makes the p-value itself
    value-hash checkable (UHUGEINT mixer replay).

    Returns one row: n_a, n_b, obs_diff, n_extreme (replicates with
    |null diff| ≥ |observed|), p_ppm = n_extreme·10⁶ // n_reps."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import splitmix64

    reps = np.arange(n_reps, dtype=np.uint64)

    def partial(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        m = (k == group_a) | (k == group_b)
        if not m.any():
            return pa.table({"rep": pa.array([], type=pa.int64()),
                             "na": pa.array([], type=pa.int64()),
                             "sa": pa.array([], type=pa.int64()),
                             "oa": pa.array([], type=pa.int64()),
                             "osa": pa.array([], type=pa.int64()),
                             "ot": pa.array([], type=pa.int64()),
                             "ost": pa.array([], type=pa.int64())})
        ids = b[id_col].to_numpy(zero_copy_only=False)[m] \
            .astype(np.uint64)
        v = b[value].to_numpy(zero_copy_only=False)[m]
        cents = np.floor(v * 100.0 + 0.5).astype(np.int64)
        is_a = (k[m] == group_a)
        with np.errstate(over="ignore"):
            h = splitmix64(ids[:, None]
                           + reps[None, :] * np.uint64(9176))
        bit = (h & np.uint64(1)).astype(bool)
        na = bit.sum(axis=0).astype(np.int64)
        sa = (bit * cents[:, None]).sum(axis=0).astype(np.int64)
        n = len(cents)
        out = pd.DataFrame({
            "rep": np.arange(n_reps, dtype=np.int64),
            "na": na, "sa": sa,
            "oa": np.int64(0), "osa": np.int64(0),
            "ot": np.int64(0), "ost": np.int64(0)})
        obs = pd.DataFrame({
            "rep": [np.int64(-1)], "na": [np.int64(0)],
            "sa": [np.int64(0)],
            "oa": [np.int64(int(is_a.sum()))],
            "osa": [np.int64(int(cents[is_a].sum()))],
            "ot": [np.int64(n)],
            "ost": [np.int64(int(cents.sum()))]})
        return pa.Table.from_pandas(pd.concat([out, obs],
                                              ignore_index=True),
                                    preserve_index=False)

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby("rep")
           .aggregate(Sum("na", alias_name="na"),
                      Sum("sa", alias_name="sa"),
                      Sum("oa", alias_name="oa"),
                      Sum("osa", alias_name="osa"),
                      Sum("ot", alias_name="ot"),
                      Sum("ost", alias_name="ost"))
           .to_pandas())
    obs = agg[agg["rep"] == -1].iloc[0]
    n_a, s_a = int(obs["oa"]), int(obs["osa"])
    n_t, s_t = int(obs["ot"]), int(obs["ost"])
    n_b, s_b = n_t - n_a, s_t - s_a
    obs_diff = float(s_a) / float(n_a) - float(s_b) / float(n_b)

    null = agg[agg["rep"] >= 0]
    n_extreme = 0
    for na, sa in zip(null["na"], null["sa"]):
        na, sa = int(na), int(sa)
        nb, sb = n_t - na, s_t - sa
        if na == 0 or nb == 0:
            continue
        d = float(sa) / float(na) - float(sb) / float(nb)
        if abs(d) >= abs(obs_diff):
            n_extreme += 1
    return pd.DataFrame({
        "n_a": pd.Series([n_a], dtype=np.int64),
        "n_b": pd.Series([n_b], dtype=np.int64),
        "obs_diff": pd.Series([obs_diff]),
        "n_extreme": pd.Series([n_extreme], dtype=np.int64),
        "p_ppm": pd.Series([n_extreme * 10**6 // n_reps],
                           dtype=np.int64)})


def chao1_richness(ds, key: str, item_col: str) -> pd.DataFrame:
    """Chao1 species-richness estimator per key (Chao 1984) — how many
    DISTINCT items exist beyond the ones observed, from the abundance
    of rare items:  chao1 = D + f1·(f1−1) / (2·(f2+1))  (the
    bias-corrected form, defined even when f2 = 0). Exact integer
    abundance counts come from the value-count fold (item-domain-sized
    rows on the exchange); the closing expression is Python-int floor
    math both engines share. Returns per key: n_obs (D), f1, f2,
    chao1_milli (×1000 floor — all-integer output)."""

    def finalize(k, v, c, starts, n_vals):
        f1 = np.add.reduceat((c == 1).astype(np.int64), starts)
        f2 = np.add.reduceat((c == 2).astype(np.int64), starts)
        f1o = f1.astype(object)
        chao_milli = n_vals * 1000 + f1o * (f1o - 1) * 1000 // (2 * (f2 + 1))
        return pd.DataFrame({key: k[starts], "n_obs": n_vals, "f1": f1,
                             "f2": f2,
                             "chao1_milli": chao_milli.astype(np.int64)})

    return _value_count_fold(ds, [key], item_col, finalize)


def simpson_diversity(ds, key: str, item_col: str) -> pd.DataFrame:
    """Unbiased Simpson concentration per key —
    λ = Σ c_i(c_i−1) / (N(N−1)), the probability two draws WITHOUT
    replacement are the same item — reported as exact floor-ppm
    integers along with Gini-Simpson diversity 10⁶−λ_ppm. The
    value-count fold (item-domain-sized) is the only exchange; every
    closing op is Python-int floor math shared with the oracle."""

    def finalize(k, v, c, starts, n_vals):
        co = c.astype(object)
        num = np.add.reduceat(co * (co - 1), starts)
        n = np.add.reduceat(co, starts)
        lam = np.where(n > 1, num * 10**6 // np.maximum(n * (n - 1), 1), 0)
        return pd.DataFrame({key: k[starts], "n_rows": n.astype(np.int64),
                             "n_items": n_vals,
                             "simpson_ppm": lam.astype(np.int64),
                             "gini_simpson_ppm": (10**6 - lam)
                             .astype(np.int64)})

    return _value_count_fold(ds, [key], item_col, finalize)
