"""In-row bound validation of approximate sketches against exact twins.

VERDICT r01 item 6: the driver's correctness gate can only value-check
deterministic outputs, so a sketch query whose output is the estimate
itself is forever "rows-only". These validation pipelines re-shape such
queries into *value-checked* form (the bound-comparison pattern of the
reference's AccuracyTest.java:137-149):

    output = (key, exact deterministic columns ..., within_bound: bool)

The exact columns (quantile_disc values, distinct counts, group counts)
hash-match a DuckDB oracle bit-for-bit; ``within_bound`` asserts — in the
same run — that the sketch's estimate lies inside the algorithm's
published error bound of the exact answer. A sketch regression flips
``within_bound`` to False and the driver's hash check fails, so the
"approximate" query is now a hard gate, not a rows-only smoke test.

Scale note: the exact twin is an oracle-scale computation (per-group sort
/ exact distinct). These validation queries run at test scale; the pure
sketch pipelines in ``pipelines.quantiles`` / ``pipelines.distinct``
remain the 100-TB path.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.aggregate import sketch_by_key
from ..state.protocol import SketchSpec
from .quantiles import pct
from .selection import _disc_rank


def _disc_index(q: float, n: int) -> int:
    """duckdb quantile_disc convention: the value at 0-based index
    ``ceil(q*n) - 1``, with the exact integer rank of ``_disc_rank`` (a
    float ``q*n`` rounds 0.55*100 up to rank 56, DuckDB's rank is 55)."""
    return _disc_rank(q, n) - 1


def quantile_bound_check(ds, value_col: str, key: str, spec: SketchSpec,
                         qs=(0.25, 0.5, 0.75), rank_bound=0.015,
                         batch_size: int | None = None,
                         key_name: str | None = None,
                         merged_rows: pd.DataFrame | None = None):
    """Exact per-key quantiles + a sketch-within-bound flag.

    Returns a Dataset of rows ``(key, n, p{q}..., within_bound)`` where the
    p-columns are exact quantile_disc values (hash-checkable vs DuckDB) and
    ``within_bound`` is True iff, for every q, the EMPIRICAL RANK INTERVAL
    of the sketch's quantile estimate (``[#<est, #<=est]/n`` — an interval
    because of ties) overlaps ``[q - b, q + b]`` with
    ``b = max(rank_bound, 2.5/n)`` (the floor covers the data's own rank
    resolution: in a gap/tie the interpolated value's empirical rank snaps
    to one side, so positions below ~2.5 ranks are unresolvable) — AND the sketch's total weight equals the exact
    row count.

    ``rank_bound`` is a float or a callable ``q -> bound`` (for sketches
    with rank-dependent error like ReqSketch). ``merged_rows`` lets a
    caller reuse already-merged sketch rows (e.g. the checkpoint
    pipeline's output) instead of re-running sketch_by_key.
    """
    key_name = key_name or key
    bound_at = rank_bound if callable(rank_bound) else (lambda q: rank_bound)
    if merged_rows is None:
        merged_rows = sketch_by_key(ds, spec, value_col, key,
                                    batch_size=batch_size).to_pandas()
    sk_bytes = {r["key"]: (r["sketch"], float(r["n"]))
                for _, r in merged_rows.iterrows()}

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g[value_col].to_numpy())
        n = len(v)
        kval = g[key].iloc[0]
        row: dict = {key_name: [kval], "n": [np.int64(n)]}
        ok = kval in sk_bytes
        sk = spec.from_bytes(sk_bytes[kval][0]) if ok else None
        if ok:
            ok = sk_bytes[kval][1] == float(n)
        for q in qs:
            exact_v = float(v[_disc_index(q, n)])
            row[f"p{pct(q)}"] = [exact_v]
            if ok:
                b = max(bound_at(q), 2.5 / n)
                est = float(sk.quantile(q))
                r_lo = np.searchsorted(v, est, side="left") / n
                r_hi = np.searchsorted(v, est, side="right") / n
                ok = (r_lo <= q + b) and (r_hi >= q - b)
        row["within_bound"] = [bool(ok)]
        return pd.DataFrame(row)

    return ds.groupby(key).map_groups(per_group, batch_format="pandas")


def relative_quantile_bound_check(ds, value_col: str, key: str,
                                  alpha: float = 0.01,
                                  max_bins: int = 2048,
                                  qs=(0.25, 0.5, 0.75),
                                  batch_size: int | None = None,
                                  key_name: str | None = None):
    """Exact per-key quantiles + a DDSketch VALUE-relative-error gate.

    The rank-error sketches (t-digest / KLL / REQ) gate through
    ``quantile_bound_check``'s empirical-rank interval; DDSketch's
    published guarantee (Masson et al., VLDB 2019, Thm 1) is different —
    ``|est - x_rank| <= alpha * |x_rank|`` against the true order
    statistic — so this gate compares VALUES: for every q the merged
    sketch's estimate must sit within ``alpha`` relative error of the
    exact quantile_disc value (rank ``ceil(q*n) - 1``, the library-wide
    disc convention), and the sketch's total weight must equal the exact
    row count. Output ``(key, n, p{q}..., within_bound)`` — the p-columns
    are the exact values and hash-match DuckDB; a bucketing/merge
    regression flips ``within_bound``.

    Requires no collapse to have triggered in the graded run (max_bins
    sized generously); collapsed low buckets would lose the guarantee
    for the lowest quantiles only (paper Thm 3).
    """
    from ..state.ddsketch import DDSketch

    key_name = key_name or key
    spec = SketchSpec(
        name="ddsketch",
        factory=lambda: DDSketch(alpha, max_bins),
        from_bytes=DDSketch.from_bytes,
    )
    merged_rows = sketch_by_key(ds, spec, value_col, key,
                                batch_size=batch_size).to_pandas()
    sk_bytes = {r["key"]: (r["sketch"], float(r["n"]))
                for _, r in merged_rows.iterrows()}

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g[value_col].to_numpy())
        n = len(v)
        kval = g[key].iloc[0]
        row: dict = {key_name: [kval], "n": [np.int64(n)]}
        ok = kval in sk_bytes
        sk = spec.from_bytes(sk_bytes[kval][0]) if ok else None
        if ok:
            ok = sk_bytes[kval][1] == float(n)
        for q in qs:
            exact_v = float(v[_disc_index(q, n)])
            row[f"p{pct(q)}"] = [exact_v]
            if ok:
                est = float(sk.quantile(q))
                ok = (math.isfinite(est)
                      and abs(est - exact_v)
                      <= alpha * abs(exact_v) + 1e-9)
        row["within_bound"] = [bool(ok)]
        return pd.DataFrame(row)

    return ds.groupby(key).map_groups(per_group, batch_format="pandas")


def trimmed_mean_bound_check(ds, value_col: str, key: str,
                             spec: SketchSpec,
                             trim: float = 0.1,
                             rank_bound: float = 0.015,
                             batch_size: int | None = None,
                             merged_rows: pd.DataFrame | None = None):
    """Exact per-key symmetric trimmed stats + a digest bound flag.

    Exact side (hash-checkable vs a SQL ROW_NUMBER window): drop
    ``floor(n*trim)`` ranked values at EACH end — the drop count is the
    same IEEE double expression the SQL oracle computes (one multiply +
    floor; deriving the top cut from ``1-trim`` instead can disagree by
    one rank because ``n*(1-t) != n - n*t`` in floats) — then emit the
    surviving count, the exact int64 sum (requires integer-valued
    data), and ``trimmed_mean`` as ONE IEEE double division of those
    two ints — bit-identical across engines.

    Gate: the merged digest's ``trimmed_mean(trim, 1-trim)`` (t-digest
    centroid-mass integration, state/tdigest.py) must sit within
    ``2 * max(rank_bound, 2.5/n) * n * (max - min) / trim_count`` of
    the exact trimmed mean — the worst-case mean shift from misplacing
    eps*n mass across the two window edges — AND the sketch's total
    weight must equal the exact row count. A digest regression flips
    ``within_bound`` and fails the driver's hash.
    """
    bad = float("nan")
    if merged_rows is None:
        merged_rows = sketch_by_key(ds, spec, value_col, key,
                                    batch_size=batch_size).to_pandas()
    sk_bytes = {r["key"]: (r["sketch"], float(r["n"]))
                for _, r in merged_rows.iterrows()}

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g[value_col].to_numpy())
        n = len(v)
        kval = g[key].iloc[0]
        drop = int(math.floor(n * trim))
        window = v[drop:n - drop]
        tc = len(window)
        tsum = int(window.astype(np.int64).sum())
        tmean = float(np.float64(tsum) / np.float64(max(tc, 1)))
        ok = kval in sk_bytes and tc > 0
        if ok:
            raw, sk_n = sk_bytes[kval]
            ok = sk_n == float(n)
            if ok:
                est = spec.from_bytes(raw).trimmed_mean(trim, 1.0 - trim)
                b = max(rank_bound, 2.5 / n)
                bound = 2.0 * b * n * float(v[-1] - v[0]) / tc
                ok = math.isfinite(est) and abs(est - tmean) <= bound
        return pd.DataFrame({key: [kval], "n": [np.int64(n)],
                             "trim_count": [np.int64(tc)],
                             "trim_sum": [np.int64(tsum)],
                             "trimmed_mean": [tmean if tc else bad],
                             "within_bound": [bool(ok)]})

    return ds.groupby(key).map_groups(per_group, batch_format="pandas")


def cdf_bound_check(ds, value_col: str, key: str, spec: SketchSpec,
                    thresholds, cdf_bound: float = 0.015,
                    batch_size: int | None = None,
                    key_name: str | None = None) -> pd.DataFrame:
    """Exact #<=t counts per key + sketch-cdf-within-bound flag.

    The rank-query dual of ``quantile_bound_check`` (the north star names
    CDF queries explicitly; reference semantics: TDigest.java cdf +
    Dist.java:35-45 exact cdf). Returns pandas rows
    ``(key, n, le_0 ... le_{len(thresholds)-1}, within_bound)`` where
    ``le_i`` is the EXACT count of rows with value <= thresholds[i]
    (hash-matches ``SUM(CASE WHEN v <= t THEN 1 ELSE 0 END)`` in DuckDB)
    and ``within_bound`` asserts the merged sketch's ``cdf(t)`` lies
    within ``max(cdf_bound, 2.5/n)`` of the empirical cdf INTERVAL
    ``[#<t, #<=t]/n`` for every threshold (an interval because the
    reference's cdf uses the tie-midpoint convention) — AND the sketch's
    total weight equals the exact row count.

    Scale shape: exact counts are per-batch vectorized partials summed in
    a tiny groupby (never a per-row shuffle); the merged sketch rows and
    the per-key count table are both O(#keys) driver-side.
    """
    import pyarrow as pa

    from ray.data.aggregate import Sum

    key_name = key_name or key
    t_arr = np.asarray(thresholds, dtype=np.float64)
    merged = sketch_by_key(ds, spec, value_col, key,
                           batch_size=batch_size).to_pandas()
    sk_by_key = {r["key"]: (r["sketch"], float(r["n"]))
                 for _, r in merged.iterrows()}

    def partials(batch: pa.Table) -> pa.Table:
        k_np = batch[key].to_numpy(zero_copy_only=False)
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        order = np.argsort(k_np, kind="stable")
        uniq, starts = np.unique(k_np[order], return_index=True)
        vs = v[order]
        cols = {key: pa.array(uniq),
                "n_part": pa.array(np.diff(np.append(
                    starts, len(vs))).astype(np.int64))}
        for i, t in enumerate(t_arr):
            cols[f"le_{i}"] = pa.array(np.add.reduceat(
                (vs <= t).astype(np.int64), starts))
            cols[f"lt_{i}"] = pa.array(np.add.reduceat(
                (vs < t).astype(np.int64), starts))
        return pa.table(cols)

    agg_cols = (["n_part"]
                + [f"le_{i}" for i in range(len(t_arr))]
                + [f"lt_{i}" for i in range(len(t_arr))])
    counts = (ds.map_batches(partials, batch_format="pyarrow")
              .groupby(key)
              .aggregate(*[Sum(c, alias_name=c) for c in agg_cols])
              .to_pandas())

    out_rows = []
    for _, r in counts.iterrows():
        kval = r[key]
        n = int(r["n_part"])
        row = {key_name: kval, "n": np.int64(n)}
        ok = kval in sk_by_key
        if ok:
            blob, sk_n = sk_by_key[kval]
            ok = sk_n == float(n)
            sk = spec.from_bytes(blob)
            est_fn = sk.cdf if hasattr(sk, "cdf") else sk.rank
        for i, t in enumerate(t_arr):
            le, lt = int(r[f"le_{i}"]), int(r[f"lt_{i}"])
            row[f"le_{i}"] = np.int64(le)
            if ok:
                b = max(cdf_bound, 2.5 / n)
                est = float(est_fn(float(t)))
                ok = (est <= le / n + b) and (est >= lt / n - b)
        row["within_bound"] = bool(ok)
        out_rows.append(row)
    return pd.DataFrame(out_rows)


def distinct_bound_check(ds, value_col: str, key: str, p: int = 14,
                         sigma: float = 3.0, count_name: str = "n_distinct",
                         key_name: str | None = None,
                         abs_floor: float = 0.0) -> pd.DataFrame:
    """Exact distinct count per key + HLL-within-bound flag.

    Returns pandas rows ``(key, n_distinct, within_bound)``: the exact
    count hash-matches ``COUNT(DISTINCT ...)``; ``within_bound`` asserts
    the HLL estimate is within ``sigma * 1.04/sqrt(2^p)`` relative error
    (the standard HLL error bound; sigma=3 is a ~99.7% envelope).

    ``abs_floor``: absolute error allowance for SMALL groups (n << 2^p),
    where the estimate comes from linear counting over the empty-register
    count — an integer, so one register collision shifts the estimate by
    ~1 regardless of the relative bound. Keys with tens of distinct
    values (e.g. per-hour windows) need ``abs_floor≈3``; the default 0
    keeps the strict envelope for large groups."""
    from .distinct import distinct_by_key
    from .relational import distinct_count_by_key

    key_name = key_name or key
    est = distinct_by_key(ds, value_col, key, p=p,
                          key_name=key_name).to_pandas()
    exact = distinct_count_by_key(ds, key, value_col,
                                  count_name).to_pandas()
    est_by_key = dict(zip(est[key_name], est["distinct_estimate"]))
    rel_bound = sigma * 1.04 / math.sqrt(2 ** p)
    out = exact.rename(columns={key: key_name}).copy()
    exact_n = out[count_name].to_numpy(dtype=np.float64)
    est_n = np.array([est_by_key.get(k, np.nan)
                      for k in out[key_name]], dtype=np.float64)
    ok = np.abs(est_n - exact_n) <= np.maximum(
        rel_bound * np.maximum(exact_n, 1.0), abs_floor)
    out["within_bound"] = ok & np.isfinite(est_n)
    out[count_name] = out[count_name].astype(np.int64)
    return out[[key_name, count_name, "within_bound"]]


def drift_no_change_check(ds_a, ds_b, value_col: str, key: str,
                          ks_alpha_c: float = 1.95,
                          digest_cdf_err: float = 0.03,
                          compression: float = 200.0,
                          key_name: str = "key") -> pd.DataFrame:
    """Exact per-side counts + a no-drift flag for same-distribution halves.

    Returns pandas rows ``(key, n_a, n_b, no_drift)``. The counts
    hash-match SQL; ``no_drift`` asserts the SCALED two-sample KS statistic
    (``state.compare.ks`` returns ``D * sqrt(n_a*n_b/(n_a+n_b))``,
    Comparison.java convention) stays under
    ``c + digest_cdf_err * sqrt(n_a*n_b/(n_a+n_b))`` — the alpha=0.001
    critical value (c=1.95) plus the digests' own cdf-error contribution
    (two merged digests each within the 0.015 merge cdf bound). Both sides
    are halves of the same distribution, so a drift-detector false positive
    (or a digest regression) fails the gate."""
    from .drift import drift_by_key

    d = drift_by_key(ds_a, ds_b, value_col, key, compression=compression,
                     key_name=key_name).to_pandas()
    n_a = d["n_a"].to_numpy(dtype=np.float64)
    n_b = d["n_b"].to_numpy(dtype=np.float64)
    n_h = n_a * n_b / np.maximum(n_a + n_b, 1.0)
    crit = ks_alpha_c + digest_cdf_err * np.sqrt(n_h)
    ks_v = d["ks"].to_numpy(dtype=np.float64)
    out = pd.DataFrame({
        key_name: d[key_name],
        "n_a": n_a.astype(np.int64),
        "n_b": n_b.astype(np.int64),
        "no_drift": np.isfinite(ks_v) & (ks_v <= crit),
    })
    return out


def weighted_quantile_bound_check(ds, value_col: str, weight_col: str,
                                  key: str, spec: SketchSpec,
                                  qs=(0.25, 0.5, 0.75),
                                  rank_bound: float = 0.015,
                                  batch_size: int | None = None):
    """WEIGHTED quantiles, value-checked: exact weighted disc quantiles
    per key + a within_bound flag for the distributed WEIGHTED t-digest
    (the reference's ``add(x, w)`` path, TDigest.java:92 /
    MergingDigest.java:175-191, exercised through sketch_by_key's
    weight_col plumbing).

    Exact weighted disc quantile: sort by value, cumulative weight; the
    smallest value whose cumulative weight reaches ``q * W``. With
    integral float weights both the cumsum and the ``q * W`` threshold
    are reproducible doubles, so the wp-columns hash-match a SQL window
    oracle bit-for-bit. ``within_bound`` asserts the sketch estimate's
    WEIGHTED empirical rank interval overlaps ``[q - b, q + b]`` and the
    sketch's total weight equals the exact Σw.
    """
    bound_at = rank_bound if callable(rank_bound) else (lambda q: rank_bound)
    merged = sketch_by_key(ds, spec, value_col, key,
                           weight_col=weight_col,
                           batch_size=batch_size).to_pandas()
    sk_bytes = {r["key"]: r["sketch"] for _, r in merged.iterrows()}

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g[value_col].to_numpy(), kind="stable")
        v = g[value_col].to_numpy()[order]
        w = g[weight_col].to_numpy(dtype=np.float64)[order]
        cw = np.cumsum(w)
        W = float(cw[-1])
        n = len(v)
        kval = g[key].iloc[0]
        row: dict = {key: [kval], "n": [np.int64(n)]}
        ok = kval in sk_bytes
        sk = spec.from_bytes(sk_bytes[kval]) if ok else None
        if ok:
            ok = float(sk.size) == W
        for q in qs:
            thr = q * W
            idx = int(np.searchsorted(cw, thr, side="left"))
            row[f"wp{pct(q)}"] = [float(v[min(idx, n - 1)])]
            if ok:
                b = max(bound_at(q), 2.5 / n)
                est = float(sk.quantile(q))
                lo = int(np.searchsorted(v, est, side="left"))
                hi = int(np.searchsorted(v, est, side="right"))
                r_lo = (cw[lo - 1] / W) if lo else 0.0
                r_hi = (cw[hi - 1] / W) if hi else 0.0
                ok = (r_lo <= q + b) and (r_hi >= q - b)
        row["within_bound"] = [bool(ok)]
        return pd.DataFrame(row)

    return ds.groupby(key).map_groups(per_group, batch_format="pandas")


def turnstile_quantile_bound_check(stream_ds, net_ds, value_col: str,
                                   op_col: str, key: str, k: int = 200,
                                   qs=(0.25, 0.5, 0.75),
                                   bound_mult: float = 3.0,
                                   batch_size: int | None = None):
    """TURNSTILE (insert+delete) quantiles, value-checked: the KLL±
    paired sketch (state/kllpm.py, VLDB 2021 construction) is built
    distributedly from the ±1-op stream through the standard
    sketch_by_key plumbing (op column rides weight_col), then gated
    against exact disc quantiles of the NET multiset: within_bound
    asserts the estimate's empirical net-rank interval overlaps
    ``[q - b, q + b]`` with ``b = bound_mult * net_rank_bound`` (the
    published KLL rank error scaled by n_abs/n_net, the KLL± regime)
    AND the sketch's net count equals the exact net row count (exact
    integer counters).
    """
    from ..state.kllpm import KllPM
    from ..state.protocol import SketchSpec

    spec = SketchSpec(
        name="kllpm",
        factory=lambda: KllPM(k),
        from_bytes=lambda b: KllPM.from_bytes(b),
        summarize=lambda sk: {"n_net": sk.size},
    )
    merged = sketch_by_key(stream_ds, spec, value_col, key,
                           weight_col=op_col,
                           batch_size=batch_size).to_pandas()
    sk_bytes = {r["key"]: r["sketch"] for _, r in merged.iterrows()}

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g[value_col].to_numpy())
        n = len(v)
        kval = g[key].iloc[0]
        row: dict = {key: [kval], "n": [np.int64(n)]}
        ok = kval in sk_bytes
        sk = KllPM.from_bytes(sk_bytes[kval]) if ok else None
        if ok:
            ok = float(sk.size) == float(n)
        for q in qs:
            row[f"p{pct(q)}"] = [float(v[_disc_index(q, n)])]
            if ok:
                b = max(bound_mult * sk.net_rank_bound(), 2.5 / n)
                est = float(sk.quantile(q))
                r_lo = np.searchsorted(v, est, side="left") / n
                r_hi = np.searchsorted(v, est, side="right") / n
                ok = (r_lo <= q + b) and (r_hi >= q - b)
        row["within_bound"] = [bool(ok)]
        return pd.DataFrame(row)

    return net_ds.groupby(key).map_groups(per_group,
                                          batch_format="pandas")


def kmv_distinct_bound_check(ds, value_col: str, key: str,
                             k: int = 1024, sigma: float = 3.0,
                             count_name: str = "n_distinct"):
    """Exact distinct count per key + KMV/Theta-within-bound flag
    (state/kmv.py, Beyer et al. 2007): the bottom-k estimate must sit
    within ``sigma / sqrt(k-2)`` relative error — and is EXACT (equal)
    for groups below k distinct values, which the gate also enforces."""
    from ..state.kmv import KmvSketch
    from ..state.protocol import SketchSpec
    from .relational import distinct_count_by_key

    spec = SketchSpec(name="kmv", factory=lambda: KmvSketch(k),
                      from_bytes=KmvSketch.from_bytes)
    merged = sketch_by_key(ds, spec, value_col, key).to_pandas()
    sk_by_key = {r["key"]: KmvSketch.from_bytes(r["sketch"])
                 for _, r in merged.iterrows()}
    exact = distinct_count_by_key(ds, key, value_col,
                                  count_name).to_pandas()
    rel = sigma / math.sqrt(k - 2)
    oks = []
    for _, r in exact.iterrows():
        sk = sk_by_key.get(r[key])
        if sk is None:
            oks.append(False)
            continue
        est = sk.distinct_estimate()
        n = float(r[count_name])
        oks.append(est == n if sk.is_exact
                   else abs(est - n) <= rel * max(n, 1.0))
    exact[count_name] = exact[count_name].astype(np.int64)
    exact["within_bound"] = oks
    return exact[[key, count_name, "within_bound"]]


def kmv_overlap_bound_check(ds, value_col: str, key: str,
                            key_a, key_b, k: int = 2048,
                            sigma: float = 3.0):
    """Set-overlap estimation between two key groups' value sets via
    KMV/Theta bottom-k union semantics, gated against EXACT counts: one
    row ``(n_a, n_b, n_intersect, within_bound)`` where the exact
    columns hash-match SQL and within_bound asserts the KMV Jaccard and
    intersection estimates sit inside sigma/sqrt(k-2)-derived envelopes
    (× union size for the intersection). This is the estimator HLL
    inclusion-exclusion can't give unbiased."""
    import pyarrow.compute as pc

    from ..state.kmv import KmvSketch
    from ..state.protocol import SketchSpec
    from .relational import distinct_count_by_key

    both = ds.map_batches(
        lambda b: b.filter(pc.is_in(b[key],
                                    pa.array([key_a, key_b]))),
        batch_format="pyarrow")
    spec = SketchSpec(name="kmv", factory=lambda: KmvSketch(k),
                      from_bytes=KmvSketch.from_bytes)
    merged = sketch_by_key(both, spec, value_col, key).to_pandas()
    sks = {r["key"]: KmvSketch.from_bytes(r["sketch"])
           for _, r in merged.iterrows()}

    # exact side: distinct per group + exact intersection via one
    # co-partitioned presence fold (value-hash rides the shuffle)
    from ray.data.aggregate import Max, Sum

    def presence(b: pa.Table) -> pa.Table:
        import pandas as pd2
        kv = b[key].to_numpy(zero_copy_only=False)
        df = pd2.DataFrame({
            "v": b[value_col].to_numpy(zero_copy_only=False),
            "in_a": (kv == key_a).astype(np.int64),
            "in_b": (kv == key_b).astype(np.int64)})
        g = df.groupby("v", as_index=False, sort=False).max()
        return pa.Table.from_pandas(g, preserve_index=False)

    pres = (both.map_batches(presence, batch_format="pyarrow")
            .groupby("v").aggregate(Max("in_a", alias_name="a"),
                                    Max("in_b", alias_name="b")))

    def inter_partial(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_a": pa.array([int(a.sum())], type=pa.int64()),
            "n_b": pa.array([int(bb.sum())], type=pa.int64()),
            "n_i": pa.array([int((a & bb).sum())], type=pa.int64())})

    tot = pres.map_batches(inter_partial,
                           batch_format="pyarrow").to_pandas().sum()
    n_a, n_b, n_i = int(tot["n_a"]), int(tot["n_b"]), int(tot["n_i"])
    n_u = n_a + n_b - n_i

    ok = key_a in sks and key_b in sks
    if ok:
        A, B = sks[key_a], sks[key_b]
        rel = sigma / math.sqrt(k - 2)
        j_true = n_i / max(n_u, 1)
        # Jaccard error ~ binomial over the union's bottom-k sample
        j_bound = sigma * math.sqrt(max(j_true * (1 - j_true), 0.25 / k)
                                    / k) + rel * j_true
        ok = abs(A.jaccard(B) - j_true) <= j_bound + 1.0 / k
        ok = ok and abs(A.intersection_estimate(B) - n_i) \
            <= (j_bound + rel) * max(n_u, 1.0) + 3.0
    return pd.DataFrame({
        "n_a": [np.int64(n_a)], "n_b": [np.int64(n_b)],
        "n_intersect": [np.int64(n_i)], "within_bound": [bool(ok)]})


def kmv_difference_bound_check(ds, value_col: str, key: str,
                               key_a, key_b, k: int = 2048,
                               sigma: float = 4.0):
    """Theta-style A-not-B set difference between two key groups' value
    sets (state/kmv.KmvSketch.difference_estimate), gated against the
    EXACT counts: one row ``(n_a, n_b, n_a_not_b, within_bound)`` whose
    exact columns hash-match SQL. Gate: each distinct item of A\\B below
    the union threshold is a Bernoulli(theta~(k-1)/U) sample, so the
    estimator's sd is <= sqrt(D * U / (k-1)); within_bound allows
    sigma of that plus a small absolute floor. Reuses
    kmv_overlap_bound_check's exact presence fold."""
    import pyarrow.compute as pc

    from ..state.kmv import KmvSketch
    from ..state.protocol import SketchSpec

    both = ds.map_batches(
        lambda b: b.filter(pc.is_in(b[key],
                                    pa.array([key_a, key_b]))),
        batch_format="pyarrow")
    spec = SketchSpec(name="kmv", factory=lambda: KmvSketch(k),
                      from_bytes=KmvSketch.from_bytes)
    merged = sketch_by_key(both, spec, value_col, key).to_pandas()
    sks = {r["key"]: KmvSketch.from_bytes(r["sketch"])
           for _, r in merged.iterrows()}

    from ray.data.aggregate import Max

    def presence(b: pa.Table) -> pa.Table:
        import pandas as pd2
        kv = b[key].to_numpy(zero_copy_only=False)
        df = pd2.DataFrame({
            "v": b[value_col].to_numpy(zero_copy_only=False),
            "in_a": (kv == key_a).astype(np.int64),
            "in_b": (kv == key_b).astype(np.int64)})
        g = df.groupby("v", as_index=False, sort=False).max()
        return pa.Table.from_pandas(g, preserve_index=False)

    pres = (both.map_batches(presence, batch_format="pyarrow")
            .groupby("v").aggregate(Max("in_a", alias_name="a"),
                                    Max("in_b", alias_name="b")))

    def diff_partial(b: pa.Table) -> pa.Table:
        a = b["a"].to_numpy(zero_copy_only=False)
        bb = b["b"].to_numpy(zero_copy_only=False)
        return pa.table({
            "n_a": pa.array([int(a.sum())], type=pa.int64()),
            "n_b": pa.array([int(bb.sum())], type=pa.int64()),
            "n_d": pa.array([int((a & (1 - bb)).sum())],
                            type=pa.int64())})

    tot = pres.map_batches(diff_partial,
                           batch_format="pyarrow").to_pandas().sum()
    n_a, n_b, n_d = int(tot["n_a"]), int(tot["n_b"]), int(tot["n_d"])
    n_u = n_a + n_b - (n_a - n_d)  # |A∪B| = |B| + |A\B|

    ok = key_a in sks and key_b in sks
    if ok:
        est = sks[key_a].difference_estimate(sks[key_b])
        bound = sigma * math.sqrt(max(n_d, 1.0) * max(n_u, 1.0)
                                  / (k - 1)) + 3.0
        ok = abs(est - n_d) <= bound
    return pd.DataFrame({
        "n_a": [np.int64(n_a)], "n_b": [np.int64(n_b)],
        "n_a_not_b": [np.int64(n_d)], "within_bound": [bool(ok)]})


def pmf_bound_check(ds, value_col: str, key: str, split_points,
                    k: int = 200, batch_size: int | None = None):
    """Exact per-(key, bucket) PMF + a KLL getPMF bound flag.

    The exact side buckets every row by
    ``j = #{split points <= value}`` (the getPmfOrCdf:973-984 convention:
    bucket j holds sp[j-1] <= v < sp[j]) with a vectorized per-batch
    count partial — hash-checkable vs a SQL CASE/searchsorted twin. The
    merged per-key KLL sketch's :meth:`KllSketch.pmf` estimate for the
    same bucket must sit within the published DOUBLE-sided bound
    ``2.446/k^0.9433`` (KllDoublesSketch.java:109-117 PMF guarantee,
    :528-538 constants) of the exact mass, and the sketch's total weight
    must equal the exact count — else ``within_bound`` flips and the
    driver's hash check fails.

    Output: one row per (key, bucket) —
    ``(key, bucket: int64, exact_cnt: int64, within_bound: bool)``.
    Scale shape: rows never shuffle (count partials combine per batch;
    sketches merge in one canonical fold); the final comparison
    joins two key-count-sized tables on the driver.
    """
    from ray.data.aggregate import Sum

    from ..state.kll import KllSketch

    sp = np.ascontiguousarray(split_points, dtype=np.float64)
    n_buckets = sp.size + 1
    eps = KllSketch.normalized_rank_error(k, pmf=True)

    def bucket_partial(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False)
        j = np.searchsorted(sp, v.astype(np.float64), side="right")
        df = pd.DataFrame({key: b[key].to_numpy(zero_copy_only=False),
                           "bucket": j.astype(np.int64)})
        g = df.groupby([key, "bucket"], as_index=False, sort=False).size()
        g = g.rename(columns={"size": "partial"})
        g["partial"] = g["partial"].astype(np.int64)
        return pa.Table.from_pandas(g, preserve_index=False)

    exact = (ds.map_batches(bucket_partial, batch_format="pyarrow")
             .groupby([key, "bucket"])
             .aggregate(Sum("partial", alias_name="exact_cnt"))
             .to_pandas())

    spec = SketchSpec(name="kll",
                      factory=lambda: KllSketch(k),
                      from_bytes=KllSketch.from_bytes)
    merged = sketch_by_key(ds, spec, value_col, key,
                           batch_size=batch_size).to_pandas()
    est = {}
    for _, r in merged.iterrows():
        sk = KllSketch.from_bytes(r["sketch"])
        est[r["key"]] = (sk.pmf(sp), sk.n, float(r["n"]))

    n_by_key = exact.groupby(key)["exact_cnt"].sum()
    rows = []
    for _, r in exact.iterrows():
        kv = r[key]
        bkt = int(r["bucket"])
        cnt = int(r["exact_cnt"])
        n_key = int(n_by_key[kv])
        ok = kv in est
        if ok:
            pmf_vec, sk_n, part_n = est[kv]
            ok = (sk_n == n_key and part_n == float(n_key)
                  and 0 <= bkt < n_buckets
                  and abs(float(pmf_vec[bkt]) - cnt / float(n_key))
                  <= eps)
        rows.append({key: kv, "bucket": np.int64(bkt),
                     "exact_cnt": np.int64(cnt),
                     "within_bound": bool(ok)})
    return pd.DataFrame(rows)


def scale_function_gate(ds, value_col: str = "value",
                        qs=(0.25, 0.5, 0.75), rank_bound: float = 0.02,
                        compression: float = 200.0):
    """Every scale function (SURVEY §2.1 #8), graded end-to-end.

    One ``map_batches`` pass builds ELEVEN t-digests per batch — one per
    registered scale function (ScaleFunction.java's K_0..K_3 family plus
    the GLUED / FAST / QUADRATIC / NO_NORM variants) — then a
    ``groupby(scale_fn)`` canonical merge produces one distributed digest
    per variant over the SAME column. Output rows
    ``(scale_fn, n, p25, p50, p75, within_bound)``: the p-columns are the
    exact quantile_disc values (identical across rows — the data is the
    same; they hash-match a DuckDB oracle), and ``within_bound`` asserts
    the variant's merged digest puts each estimate inside the empirical
    rank interval ``q ± max(rank_bound, 2.5/n)`` AND preserved total
    weight — so a regression in any one scale function's k/q/normalizer
    math flips its own row.

    Validation-scale: the exact twin sorts the full column in one task.
    """
    from ..state.scale_functions import SCALE_FUNCTIONS
    from ..state.tdigest import TDigest

    names = sorted(SCALE_FUNCTIONS)

    def partial(batch: pa.Table) -> pd.DataFrame:
        x = batch[value_col].to_numpy(zero_copy_only=False) \
            .astype(np.float64)
        out: dict = {"scale_fn": [], "sketch": [], "n": []}
        for nm in names:
            d = TDigest(compression, scale=nm)
            d.update_batch(x)
            out["scale_fn"].append(nm)
            out["sketch"].append(d.to_bytes())
            out["n"].append(float(x.size))
        return pd.DataFrame(out)

    def merge_group(g: pd.DataFrame) -> pd.DataFrame:
        nm = g["scale_fn"].iloc[0]
        base = TDigest(compression, scale=nm)
        base.merge(*[TDigest.from_bytes(b, scale=nm) for b in g["sketch"]])
        return pd.DataFrame({"scale_fn": [nm], "sketch": [base.to_bytes()],
                             "n": [float(g["n"].sum())]})

    merged = (ds.map_batches(partial, batch_format="pyarrow")
                .groupby("scale_fn")
                .map_groups(merge_group, batch_format="pandas")).to_pandas()
    sk_by_name = {r["scale_fn"]: (r["sketch"], float(r["n"]))
                  for _, r in merged.iterrows()}
    from ..state.tdigest import TDigest as _TD

    def gate(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g[value_col].to_numpy())
        n = len(v)
        rows: dict = {"scale_fn": [], "n": [],
                      **{f"p{pct(q)}": [] for q in qs},
                      "within_bound": []}
        for nm in names:
            ok = nm in sk_by_name
            sk = _TD.from_bytes(sk_by_name[nm][0], scale=nm) if ok else None
            if ok:
                ok = sk_by_name[nm][1] == float(n)
            rows["scale_fn"].append(nm)
            rows["n"].append(np.int64(n))
            for q in qs:
                rows[f"p{pct(q)}"].append(float(v[_disc_index(q, n)]))
                if ok:
                    b = max(rank_bound, 2.5 / n)
                    est = float(sk.quantile(q))
                    r_lo = np.searchsorted(v, est, side="left") / n
                    r_hi = np.searchsorted(v, est, side="right") / n
                    ok = (r_lo <= q + b) and (r_hi >= q - b)
            rows["within_bound"].append(bool(ok))
        return pd.DataFrame(rows)

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        batch["_g"] = np.int64(0)
        return batch

    return (ds.select_columns([value_col])
              .map_batches(tag, batch_format="pandas")
              .groupby("_g").map_groups(gate, batch_format="pandas"))


def recording_provenance_check(ds, value_col: str, key: str,
                               compression: float = 100.0,
                               qs=(0.25, 0.5, 0.75)):
    """Record-all-data mode (SURVEY §2.1 #17), graded end-to-end.

    Runs ``RecordingDigest`` per key through the REAL distributed
    partial → merge topology (the recorded multiset rides the
    recording-aware byte encoding across the exchange), then per key
    verifies the recorded multiset is EXACTLY the group's values
    (reference record-all-data semantics: TDigest.java:206 /
    Centroid.java:121-151 keep every sample beside the centroids).
    Output ``(key, n, p25, p50, p75, provenance_intact)`` where the
    p-columns are quantile_disc values computed FROM THE RECORDED
    PAYLOAD — a serde/merge regression shifts the hashed values, and
    ``provenance_intact`` additionally asserts multiset equality and
    digest-weight agreement in-row.
    """
    from ..state.tdigest import RecordingDigest

    spec = SketchSpec(
        name="recording",
        factory=lambda: RecordingDigest(compression),
        from_bytes=RecordingDigest.from_bytes,
    )
    merged_rows = sketch_by_key(ds, spec, value_col, key).to_pandas()
    sk_bytes = {r["key"]: (r["sketch"], float(r["n"]))
                for _, r in merged_rows.iterrows()}

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        v = np.sort(g[value_col].to_numpy().astype(np.float64))
        n = len(v)
        kval = g[key].iloc[0]
        ok = kval in sk_bytes
        rec = np.empty(0, dtype=np.float64)
        if ok:
            sk = spec.from_bytes(sk_bytes[kval][0])
            rec = sk.recorded()
            ok = (sk_bytes[kval][1] == float(n)
                  and float(sk.size) == float(n)
                  and np.array_equal(rec, v))
        src = rec if rec.size == n and n > 0 else v
        row: dict = {key: [kval], "n": [np.int64(n)]}
        for q in qs:
            row[f"p{pct(q)}"] = [float(src[_disc_index(q, n)])]
        row["provenance_intact"] = [bool(ok)]
        return pd.DataFrame(row)

    return ds.groupby(key).map_groups(per_group, batch_format="pandas")


def sparse_hll_equivalence_check(ds, value_col: str, key: str,
                                 p: int = 14, sigma: float = 3.0,
                                 count_name: str = "n_distinct",
                                 key_name: str | None = None
                                 ) -> pd.DataFrame:
    """Exact distinct count per key + TWO gates on the SPARSE HLL path
    (state/hll.SparseHyperLogLog): ``sparse_equals_dense`` asserts the
    sparse representation's estimate is BIT-EQUAL to the dense sketch
    built over the same column (the sparse form is the same register
    file in a cheaper container — any drift is a bug, not statistics),
    and ``within_bound`` asserts the shared estimate sits inside the
    ``sigma * 1.04/sqrt(2^p)`` envelope of the exact count. The sparse
    rows on the shuffle are ``min(5 * touched_registers, 2**p)`` bytes —
    the whole point for high-cardinality group keys."""
    from ..state.protocol import SketchSpec
    from ..stages.aggregate import sketch_by_key, summarize
    from ..state.hll import SparseHyperLogLog
    from .distinct import distinct_by_key
    from .relational import distinct_count_by_key

    key_name = key_name or key
    sparse_spec = SketchSpec(
        name="hll_sparse",
        factory=lambda: SparseHyperLogLog(p),
        from_bytes=SparseHyperLogLog.from_bytes,
        summarize=lambda sk: {"distinct_estimate": float(sk.estimate())},
    )
    sp = summarize(sketch_by_key(ds, sparse_spec, value_col, key),
                   sparse_spec, key_name=key_name).to_pandas()
    dn = distinct_by_key(ds, value_col, key, p=p,
                         key_name=key_name).to_pandas()
    exact = distinct_count_by_key(ds, key, value_col,
                                  count_name).to_pandas()

    sp_by_key = dict(zip(sp[key_name], sp["distinct_estimate"]))
    dn_by_key = dict(zip(dn[key_name], dn["distinct_estimate"]))
    rel_bound = sigma * 1.04 / math.sqrt(2 ** p)
    out = exact.rename(columns={key: key_name}).copy()
    exact_n = out[count_name].to_numpy(dtype=np.float64)
    sp_n = np.array([sp_by_key.get(k, np.nan) for k in out[key_name]])
    dn_n = np.array([dn_by_key.get(k, np.nan) for k in out[key_name]])
    out["sparse_equals_dense"] = (sp_n == dn_n) & np.isfinite(sp_n)
    out["within_bound"] = (np.abs(sp_n - exact_n)
                           <= rel_bound * np.maximum(exact_n, 1.0)) \
        & np.isfinite(sp_n)
    out[count_name] = out[count_name].astype(np.int64)
    return out[[key_name, count_name, "sparse_equals_dense",
                "within_bound"]]


def table_fingerprint(ds, key: str, mix_cols: list[str],
                      mults: list[int] | None = None):
    """ORDER-INVARIANT content fingerprint per key — the anti-entropy /
    replication-reconciliation primitive: two copies of a table (across
    clusters, formats, or a migration) agree iff their per-key
    (row count, checksum) tables agree, with no sort and no row
    transfer. Each row mixes its integer columns into one 64-bit input
    ``x = sum(col_i * mult_i) mod 2^64``, finalizes with splitmix64,
    and the per-key CHECKSUM is the sum of finalized hashes mod 2^64 —
    commutative/associative, so block layout, parallelism and merge
    order cannot change it. Per-batch partials shuffle only
    (key, n, checksum) cells.

    Returns (key, n_rows, cs_hi, cs_lo): the uint64 checksum split into
    two BIGINT-safe halves so a SQL oracle can hash-match it exactly.
    """
    from ray.data.aggregate import Sum

    from ..functions.hashing import splitmix64

    mults = mults or [1000003 ** i for i in range(1, len(mix_cols) + 1)]

    def partial(b: pa.Table) -> pa.Table:
        x = np.zeros(len(b), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for c, m in zip(mix_cols, mults):
                col = b[c].to_numpy(zero_copy_only=False) \
                    .astype(np.int64).astype(np.uint64)
                x += col * np.uint64(m & 0xFFFFFFFFFFFFFFFF)
        h = splitmix64(x)
        kv = b[key].to_numpy(zero_copy_only=False)
        order = np.argsort(kv, kind="stable")
        ks = kv[order]
        starts = np.flatnonzero(
            np.concatenate([[True], ks[1:] != ks[:-1]]))
        ends = np.append(starts[1:], len(ks))
        with np.errstate(over="ignore"):
            sums = np.add.reduceat(h[order], starts)
        return pa.table({
            key: pa.array(ks[starts]),
            "n_rows": pa.array((ends - starts).astype(np.int64)),
            "cs_hi": pa.array(
                (sums >> np.uint64(32)).astype(np.int64)),
            "cs_lo": pa.array(
                (sums & np.uint64(0xFFFFFFFF)).astype(np.int64))})

    agg = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(key)
           .aggregate(Sum("n_rows", alias_name="n_rows"),
                      Sum("cs_hi", alias_name="hi_sum"),
                      Sum("cs_lo", alias_name="lo_sum")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        # re-fold the partial halves into the exact mod-2^64 checksum
        total = (df["hi_sum"].astype(object) * (1 << 32)
                 + df["lo_sum"].astype(object)) % (1 << 64)
        df["cs_hi"] = (total // (1 << 32)).astype(np.int64)
        df["cs_lo"] = (total % (1 << 32)).astype(np.int64)
        df["n_rows"] = df["n_rows"].astype(np.int64)
        return df[[key, "n_rows", "cs_hi", "cs_lo"]]

    return agg.map_batches(fin, batch_format="pandas")


def quantile_family_report(ds, value_col: str, key: str,
                           qs=(0.25, 0.5, 0.75)):
    """ONE graded run certifying the whole quantile-sketch FAMILY side
    by side — the reference repo's comparison-study shape
    (SpeedComparison.java / IIDgenerator) as a distributed query:
    t-digest, KLL, ReqSketch, GK and q-digest each build through the
    same partial/merge topology over the same column and each must put
    every quantile estimate inside ITS OWN published rank bound
    (rank-dependent for Req, eps for GK, log-universe resolution for
    q-digest). Exact quantile columns hash-match the SQL oracle; the
    per-sketch gates ride in-row.

    Returns (sketch, key, n, p25/p50/p75, within_bound) — one row per
    (sketch, key).
    """
    from .quantiles import (
        gk_spec,
        kll_spec,
        qdigest_spec,
        req_spec,
        tdigest_spec,
    )

    kll_k = 200
    req_k = 12
    family = [
        ("tdigest", tdigest_spec(200.0), 0.015),
        ("kll", kll_spec(kll_k), 3 * 2.296 / kll_k ** 0.9723),
        ("req", req_spec(req_k),
         lambda q: max(3 * (0.0512 / 3) ** 0.5 / req_k
                       * max(1.0 - q, q) * 8, 0.02)),
        ("gk", gk_spec(eps=0.01), 0.02),
        ("qdigest", qdigest_spec(k=2048, log_universe=20), 0.02),
    ]
    frames = []
    for name, spec, bound in family:
        part = quantile_bound_check(ds, value_col, key, spec, qs=qs,
                                    rank_bound=bound)
        df = part.to_pandas() if hasattr(part, "to_pandas") else part
        df.insert(0, "sketch", name)
        frames.append(df)
    out = pd.concat(frames, ignore_index=True)
    out["n"] = out["n"].astype(np.int64)
    return out
