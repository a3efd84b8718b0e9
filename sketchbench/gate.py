"""Correctness gate: compare a job's per-key quantile rows with exact answers.

The exact answers are the sorted input values per key, computed with numpy /
pyarrow from the generated inputs. A job fails the gate on a wrong key set, a
wrong per-key count, a wrong min/max, or a rank error above ``RANK_TOL``.
"""

from __future__ import annotations

import numpy as np

# the tolerance of the repo's own Ray aggregation test (tests/test_ray_aggregate.py)
RANK_TOL = 0.015


def rank_error(sorted_vals: np.ndarray, q: float, est: float,
               integral: bool = False) -> float:
    """Distance from ``q`` to the ranks the exact data gives ``est``.

    Every rank in [F(est-), F(est)] is a rank of ``est`` (ties make F a step
    function), so the error is 0 when ``q`` lies in that interval. On integer
    data a non-integer estimate lies between two grid points and may be read
    as either, so the interval runs from F(floor(est)-) to F(ceil(est)).
    """
    n = len(sorted_vals)
    lo_x, hi_x = (np.floor(est), np.ceil(est)) if integral else (est, est)
    lo = np.searchsorted(sorted_vals, lo_x, side="left") / n
    hi = np.searchsorted(sorted_vals, hi_x, side="right") / n
    if lo <= q <= hi:
        return 0.0
    return float(min(abs(q - lo), abs(q - hi)))


def check_quantiles(result, exact, key_col: str, qcols: dict) -> tuple[float, list]:
    """Gate one job's results.

    ``result``: metric -> DataFrame with ``key_col``, ``n``, the quantile
    columns, ``min`` and ``max``. ``exact``: metric -> {key: sorted values}.
    ``qcols``: quantile column name -> q. Returns ``(max_rank_err,
    problems)``; the job passes when ``problems`` is empty.
    """
    worst = 0.0
    problems = []
    for metric, want in exact.items():
        df = result.get(metric)
        if df is None:
            problems.append(f"{metric}: no result")
            continue
        got_keys = list(df[key_col])
        if len(got_keys) != len(set(got_keys)) or set(got_keys) != set(want):
            problems.append(f"{metric}: key set differs "
                            f"({len(got_keys)} rows, {len(want)} keys)")
            continue
        integral = all(np.array_equal(v, np.round(v)) for v in want.values())
        for row in df.itertuples(index=False):
            row = row._asdict()
            vals = want[row[key_col]]
            if row["n"] != len(vals):
                problems.append(f"{metric}/{row[key_col]}: n {row['n']} != {len(vals)}")
            if row["min"] != vals[0] or row["max"] != vals[-1]:
                problems.append(f"{metric}/{row[key_col]}: min/max differ")
            for col, q in qcols.items():
                err = rank_error(vals, q, row[col], integral)
                worst = max(worst, err)
                if err > RANK_TOL:
                    problems.append(f"{metric}/{row[key_col]} {col}: "
                                    f"rank error {err:.4f}")
    return worst, problems


def check_same_bytes(raw_rows, reference: dict) -> list:
    """Compare merged sketch rows ``(key, sketch)`` with the bytes of an
    uninterrupted run; returns the problems found."""
    got = dict(zip(raw_rows["key"], raw_rows["sketch"]))
    if set(got) != set(reference):
        return [f"sketch key set differs ({len(got)} vs {len(reference)})"]
    bad = [k for k, b in got.items() if bytes(b) != reference[k]]
    return [f"{len(bad)} sketches differ from the uninterrupted run"] if bad else []
