"""Exact distributed quantiles by iterative histogram selection.

``relational.exact_quantiles_by_key`` is the small-scale oracle: it
collects each group into one worker (documented contract). This module
is its SCALE-PATH twin — distributed selection by counting, the
engine-room version of "median of a terabyte without sorting it":
exact per-key quantiles where NO pass ever moves values, only
fixed-size count tables.

    pass 0   per-key (min, max, count) — one native groupby aggregate;
    pass i   every unresolved (key, q) state owns an integer range
             [lo, hi] known to contain its target rank. One map_batches
             pass histograms each state's in-range values into
             ``n_bins`` equal integer sub-ranges (counts only,
             ≤ states × n_bins int64 cells on the exchange, folded by a
             native groupby-Sum); the driver walks the cumulative
             counts to find the sub-range holding the rank and recurses
             into it. Once a range is at most ``n_bins`` wide each
             nonzero bin corresponds to exactly one integer value, so
             the rank lands on an exact value with no row collected.

Convergence: each pass shrinks every unresolved range by ×n_bins, so
passes = ceil(log_{n_bins}(domain width)). Integer cents spanning 10^9
resolve in ≤ 4 passes at the default 512 bins. Skew-proof: a hot key
costs counting time, never memory — the exchange is always
states × n_bins rows regardless of data layout or duplication.

Values are integer CENTS (``floor(value·100 + 0.5)``, the repo-wide
convention) so bin arithmetic is pure floor-div integer math —
bit-identical at any parallelism, and the result is EXACTLY DuckDB's
``quantile_disc`` (rank = ceil(q·n), 1-based) on the same cents. The rank
is integer arithmetic on q read as the short fraction it was written as
(0.07 -> 7/100), as DuckDB does for a decimal q: in floats 0.07·100 is
7.000000000000001 and its ceil would be one rank too high.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa

from .quantiles import pct


def _to_cents(col: pa.ChunkedArray) -> np.ndarray:
    v = col.to_numpy(zero_copy_only=False).astype(np.float64)
    return np.floor(v * 100.0 + 0.5).astype(np.int64)


def _disc_rank(q: float, n):
    """1-based quantile_disc rank ceil(q·n), exact: ``q`` as the nearest
    fraction with a denominator up to 10^6. ``n`` is a count, or an int64
    array of per-key counts ranked all at once."""
    f = Fraction(q).limit_denominator()
    r = (f.numerator * n + f.denominator - 1) // f.denominator
    return np.maximum(r, 1) if isinstance(r, np.ndarray) else max(r, 1)


def selection_quantiles_by_key(ds, key: str, value: str,
                               qs=(0.25, 0.5, 0.75, 0.99),
                               n_bins: int = 512,
                               max_passes: int = 8,
                               already_cents: bool = False
                               ) -> pd.DataFrame:
    """Exact per-key quantile_disc of ``value`` cents via counting
    passes only (see module docstring). Returns one row per key:
    ``n_rows`` plus one ``p{100q}_cents`` int64 column per q.
    ``already_cents``: the value column is already int64 cents (skip
    the dollars→cents projection)."""
    from ray.data.aggregate import Count, Max, Min, Sum

    def cents_batch(b: pa.Table) -> pa.Table:
        v = (b[value].to_numpy(zero_copy_only=False).astype(np.int64)
             if already_cents else _to_cents(b[value]))
        return pa.table({key: b[key],
                         "v": pa.array(v, type=pa.int64())})

    cds = ds.map_batches(cents_batch, batch_format="pyarrow")

    ext = (cds.groupby(key)
           .aggregate(Min("v", alias_name="lo"),
                      Max("v", alias_name="hi"),
                      Count(alias_name="n"))
           .to_pandas())

    # state table: one row per (key, q), narrowed pass by pass.
    states: list[dict] = []
    for _, r in ext.iterrows():
        n = int(r["n"])
        lo, hi = int(r["lo"]), int(r["hi"])
        for q in qs:
            states.append({
                "key": r[key], "q": q,
                # 1-based target rank within the state's CURRENT range;
                # starts as the global quantile_disc rank.
                "rank": _disc_rank(q, n),
                "lo": lo, "hi": hi,
                "answer": lo if lo == hi else None})

    def histogram_pass(active: list[dict]) -> np.ndarray:
        """One counting pass: per-state n_bins histogram, returned as a
        dense (len(active), n_bins) int64 matrix. The exchange holds
        only composite (state·n_bins + bin, partial count) rows."""
        lows = np.array([s["lo"] for s in active], dtype=np.int64)
        highs = np.array([s["hi"] for s in active], dtype=np.int64)
        keys = [s["key"] for s in active]
        n_states = len(active)

        def partial(b: pa.Table) -> pa.Table:
            kcol = b[key].to_numpy(zero_copy_only=False)
            v = b["v"].to_numpy(zero_copy_only=False)
            out = np.zeros((n_states, n_bins), dtype=np.int64)
            for i in range(n_states):
                m = ((kcol == keys[i]) & (v >= lows[i])
                     & (v <= highs[i]))
                if not m.any():
                    continue
                width = highs[i] - lows[i] + 1
                bins = ((v[m] - lows[i]) * n_bins) // width
                out[i] += np.bincount(bins, minlength=n_bins)
            nz_s, nz_b = np.nonzero(out)
            return pa.table({
                "sb": pa.array(nz_s.astype(np.int64) * n_bins + nz_b),
                "cnt": pa.array(out[nz_s, nz_b])})

        folded = (cds.map_batches(partial, batch_format="pyarrow")
                  .groupby("sb").aggregate(Sum("cnt", alias_name="cnt"))
                  .to_pandas())
        hist = np.zeros((n_states, n_bins), dtype=np.int64)
        if len(folded):
            sb = folded["sb"].to_numpy()
            hist[sb // n_bins, sb % n_bins] = folded["cnt"].to_numpy()
        return hist

    for _ in range(max_passes):
        active = [s for s in states if s["answer"] is None]
        if not active:
            break
        hist = histogram_pass(active)
        for i, s in enumerate(active):
            width = s["hi"] - s["lo"] + 1
            cum = np.cumsum(hist[i])
            j = int(np.searchsorted(cum, s["rank"], side="left"))
            below = int(cum[j - 1]) if j > 0 else 0
            # smallest/largest integer mapping to bin j under
            # bin(v) = ((v - lo)·n_bins) // width
            v_lo = s["lo"] + (j * width + n_bins - 1) // n_bins
            v_hi = s["lo"] + ((j + 1) * width - 1) // n_bins
            if width <= n_bins:
                # each nonzero bin covers exactly one integer value
                s["answer"] = int(v_lo)
            else:
                s["rank"] -= below
                s["lo"], s["hi"] = v_lo, v_hi
                if s["lo"] == s["hi"]:
                    s["answer"] = int(s["lo"])

    unresolved = [s for s in states if s["answer"] is None]
    if unresolved:
        raise RuntimeError(
            f"selection quantiles did not converge in {max_passes} "
            f"passes for {len(unresolved)} states")

    rows: dict = {}
    for _, r in ext.iterrows():
        rows[r[key]] = {key: r[key], "n_rows": int(r["n"])}
    for s in states:
        rows[s["key"]][f"p{pct(s['q'])}_cents"] = s["answer"]
    out = pd.DataFrame(sorted(rows.values(), key=lambda d: str(d[key])))
    for c in out.columns:
        if c != key:
            out[c] = out[c].astype(np.int64)
    return out.reset_index(drop=True)


def weighted_selection_quantiles_by_key(ds, key: str, value: str,
                                        weight: str,
                                        qs=((1, 2), (9, 10)),
                                        n_bins: int = 512,
                                        max_passes: int = 8
                                        ) -> pd.DataFrame:
    """Exact per-key WEIGHTED quantiles of an integer ``value`` column
    by the same counting-pass selection as selection_quantiles_by_key,
    with histograms summing integer ``weight`` mass instead of row
    counts — e.g. "the document length at which half the corpus TOKENS
    sit", the curation-side mass median.

    ``qs`` are exact rationals (num, den): the target is the smallest
    value v with cum_weight(≤ v) ≥ ceil(num·W/den), evaluated as the
    all-integer comparison den·cw ≥ num·W — no float rank anywhere, so
    the result is bit-identical to the SQL cumulative-window oracle at
    any weight scale. Returns one row per key: ``total_weight`` plus
    one ``wp{round(100·num/den)}`` int64 column per q."""
    from ray.data.aggregate import Max, Min, Sum

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            key: b[key],
            "v": pa.array(b[value].to_numpy(zero_copy_only=False)
                          .astype(np.int64)),
            "w": pa.array(b[weight].to_numpy(zero_copy_only=False)
                          .astype(np.int64))})

    cds = ds.map_batches(project, batch_format="pyarrow")

    ext = (cds.groupby(key)
           .aggregate(Min("v", alias_name="lo"),
                      Max("v", alias_name="hi"),
                      Sum("w", alias_name="tw"))
           .to_pandas())

    states: list[dict] = []
    for _, r in ext.iterrows():
        tw = int(r["tw"])
        lo, hi = int(r["lo"]), int(r["hi"])
        for num, den in qs:
            states.append({
                "key": r[key], "num": num, "den": den,
                "target": (num * tw + den - 1) // den,  # ceil(num·W/den)
                "lo": lo, "hi": hi,
                "answer": lo if lo == hi else None})

    def histogram_pass(active: list[dict]) -> np.ndarray:
        lows = np.array([s["lo"] for s in active], dtype=np.int64)
        highs = np.array([s["hi"] for s in active], dtype=np.int64)
        keys = [s["key"] for s in active]
        n_states = len(active)

        def partial(b: pa.Table) -> pa.Table:
            kcol = b[key].to_numpy(zero_copy_only=False)
            v = b["v"].to_numpy(zero_copy_only=False)
            w = b["w"].to_numpy(zero_copy_only=False)
            out = np.zeros((n_states, n_bins), dtype=np.int64)
            for i in range(n_states):
                m = ((kcol == keys[i]) & (v >= lows[i])
                     & (v <= highs[i]))
                if not m.any():
                    continue
                width = highs[i] - lows[i] + 1
                bins = ((v[m] - lows[i]) * n_bins) // width
                np.add.at(out[i], bins, w[m])
            nz_s, nz_b = np.nonzero(out)
            return pa.table({
                "sb": pa.array(nz_s.astype(np.int64) * n_bins + nz_b),
                "cnt": pa.array(out[nz_s, nz_b])})

        from ray.data.aggregate import Sum as _Sum
        folded = (cds.map_batches(partial, batch_format="pyarrow")
                  .groupby("sb").aggregate(_Sum("cnt", alias_name="cnt"))
                  .to_pandas())
        hist = np.zeros((n_states, n_bins), dtype=np.int64)
        if len(folded):
            sb = folded["sb"].to_numpy()
            hist[sb // n_bins, sb % n_bins] = folded["cnt"].to_numpy()
        return hist

    for _ in range(max_passes):
        active = [s for s in states if s["answer"] is None]
        if not active:
            break
        hist = histogram_pass(active)
        for i, s in enumerate(active):
            width = s["hi"] - s["lo"] + 1
            cum = np.cumsum(hist[i])
            j = int(np.searchsorted(cum, s["target"], side="left"))
            below = int(cum[j - 1]) if j > 0 else 0
            v_lo = s["lo"] + (j * width + n_bins - 1) // n_bins
            v_hi = s["lo"] + ((j + 1) * width - 1) // n_bins
            if width <= n_bins:
                s["answer"] = int(v_lo)
            else:
                s["target"] -= below
                s["lo"], s["hi"] = v_lo, v_hi
                if s["lo"] == s["hi"]:
                    s["answer"] = int(s["lo"])

    unresolved = [s for s in states if s["answer"] is None]
    if unresolved:
        raise RuntimeError(
            f"weighted selection did not converge in {max_passes} "
            f"passes for {len(unresolved)} states")

    rows: dict = {}
    for _, r in ext.iterrows():
        rows[r[key]] = {key: r[key], "total_weight": int(r["tw"])}
    for s in states:
        name = f"wp{round(100 * s['num'] / s['den'])}"
        rows[s["key"]][name] = s["answer"]
    out = pd.DataFrame(sorted(rows.values(), key=lambda d: str(d[key])))
    for c in out.columns:
        if c != key:
            out[c] = out[c].astype(np.int64)
    return out.reset_index(drop=True)


def selection_mad_by_key(ds, key: str, value: str, n_bins: int = 512,
                         max_passes: int = 8) -> pd.DataFrame:
    """Per-key MEDIAN ABSOLUTE DEVIATION at scale — the counting-pass
    twin of relational.mad_stats (which collects each group): pass set
    1 finds the exact cents median by selection; pass set 2 runs the
    SAME selection over the derived |v − median(key)| integers (medians
    broadcast via closure, a handful of ints). No group ever
    materializes; both passes are exact floor-div integer math, so the
    result is bit-identical to the quantile_disc-over-deviations SQL
    oracle at any parallelism.

    Returns one row per key: n_rows, median_cents, mad_cents."""
    med = selection_quantiles_by_key(ds, key, value, qs=(0.5,),
                                     n_bins=n_bins,
                                     max_passes=max_passes)
    med_map = {k: int(v) for k, v in zip(med[key], med["p50_cents"])}

    def dev_batch(b: pa.Table) -> pa.Table:
        k = b[key].to_numpy(zero_copy_only=False)
        v = _to_cents(b[value])
        meds = np.array([med_map[x] for x in k], dtype=np.int64)
        return pa.table({key: b[key],
                         "dv": pa.array(np.abs(v - meds),
                                        type=pa.int64())})

    dds = ds.map_batches(dev_batch, batch_format="pyarrow")
    mad = selection_quantiles_by_key(dds, key, "dv", qs=(0.5,),
                                     n_bins=n_bins,
                                     max_passes=max_passes,
                                     already_cents=True)
    out = med.merge(mad.rename(columns={"p50_cents": "mad_cents"})
                    [[key, "mad_cents"]], on=key)
    out = out.rename(columns={"p50_cents": "median_cents"})
    return out[[key, "n_rows", "median_cents", "mad_cents"]]


def equidepth_histogram(ds, value: str, n_buckets: int = 10,
                        n_bins: int = 512,
                        max_passes: int = 8) -> pd.DataFrame:
    """GLOBAL equi-depth histogram of ``value`` cents — the
    query-optimizer statistic (selectivity estimation wants equal-mass
    buckets, not equal-width ones): bucket boundaries are the exact
    quantile_disc values at i/n_buckets found by counting-pass
    selection, then ONE more counting pass takes each bucket's exact
    row count (a batch's contribution is a searchsorted + bincount —
    n_buckets int64 cells on the exchange).

    Bucket rule, shared verbatim with the SQL twin: row v belongs to
    bucket ``#{boundaries b < v}`` clipped to the last bucket, i.e.
    boundary values CLOSE their bucket (v == b_i lands below b_i). Returns n_buckets all-integer
    rows: bucket, upper_cents (the bucket's inclusive upper edge; the
    global max for the last), n_rows."""
    from ray.data.aggregate import Sum

    def keyed(b: pa.Table) -> pa.Table:
        return pa.table({"_all": pa.array(["all"] * len(b),
                                          type=pa.string()),
                         value: b[value]})

    kds = ds.map_batches(keyed, batch_format="pyarrow")
    qs = tuple(i / n_buckets for i in range(1, n_buckets))
    qt = selection_quantiles_by_key(kds, "_all", value, qs=qs,
                                    n_bins=n_bins,
                                    max_passes=max_passes)
    bounds = np.array(
        [int(qt[f"p{pct(q)}_cents"].iloc[0]) for q in qs],
        dtype=np.int64)

    def partial(b: pa.Table) -> pa.Table:
        v = _to_cents(b[value])
        idx = np.minimum(np.searchsorted(bounds, v, side="left"),
                         n_buckets - 1)
        cnt = np.bincount(idx, minlength=n_buckets)
        return pa.table({"bucket": pa.array(np.arange(n_buckets,
                                                      dtype=np.int64)),
                         "n": pa.array(cnt.astype(np.int64))})

    counts = (kds.map_batches(
        lambda b: partial(b), batch_format="pyarrow")
        .groupby("bucket").aggregate(Sum("n", alias_name="n_rows"))
        .to_pandas().sort_values("bucket").reset_index(drop=True))

    gmax = int(_to_cents_max(kds, value))
    upper = np.concatenate([bounds, [gmax]])
    counts["upper_cents"] = upper.astype(np.int64)
    counts["n_rows"] = counts["n_rows"].astype(np.int64)
    counts["bucket"] = counts["bucket"].astype(np.int64)
    return counts[["bucket", "upper_cents", "n_rows"]]


def _to_cents_max(cds, value: str) -> int:
    from ray.data.aggregate import Max

    def c(b: pa.Table) -> pa.Table:
        return pa.table({"v": pa.array(_to_cents(b[value]))})

    out = cds.map_batches(c, batch_format="pyarrow").aggregate(
        Max("v", alias_name="m"))
    return int(out["m"])
