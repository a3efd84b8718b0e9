"""Distributed selection quantiles (pipelines/selection.py): exact
quantile_disc parity with per-group sorting, convergence over wide
domains, skew and single-value edge cases."""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest


def _disc(vals, q):
    """DuckDB's own quantile_disc; ``q`` goes in as a decimal literal,
    which DuckDB ranks in exact integer arithmetic."""
    con = duckdb.connect()
    con.register("t", pd.DataFrame({"v": np.asarray(vals, dtype=np.int64)}))
    return int(con.execute(
        f"SELECT quantile_disc(v, {q!r}) FROM t").fetchone()[0])


def _run(df, qs, n_bins=512, max_passes=8):
    import ray.data as rd

    from t_digest_ray.pipelines.selection import selection_quantiles_by_key

    return selection_quantiles_by_key(
        rd.from_pandas(df), "k", "value", qs=qs, n_bins=n_bins,
        max_passes=max_passes)


def test_matches_sorted_oracle(ray_session, rng):
    vals = rng.integers(0, 10_000_000, size=5000)  # cents
    df = pd.DataFrame({"k": np.where(np.arange(5000) % 3 == 0, "a", "b"),
                       "value": vals / 100.0})
    out = _run(df, qs=(0.25, 0.5, 0.75, 0.99)).set_index("k")
    for k in ("a", "b"):
        cents = np.floor(
            df[df["k"] == k]["value"].to_numpy() * 100 + 0.5).astype(int)
        for q in (0.25, 0.5, 0.75, 0.99):
            assert int(out.loc[k, f"p{int(q*100)}_cents"]) == _disc(cents, q)


def test_rank_exact_where_float_q_times_n_rounds_up(ray_session, rng):
    # in floats q·100 lands just above the integer rank for these q
    # (0.07·100 = 7.000000000000001), so ceil(q·n) is one rank too high
    qs = (0.07, 0.14, 0.28, 0.55, 0.56)
    cents = rng.permutation(100) * 7 + 3
    out = _run(pd.DataFrame({"k": ["a"] * 100, "value": cents / 100.0}),
               qs=qs)
    for q in qs:
        assert int(out[f"p{int(q * 100)}_cents"].iloc[0]) == _disc(cents, q)


def test_wide_domain_needs_multiple_passes(ray_session, rng):
    # domain >> n_bins² at n_bins=8 forces ≥3 narrowing passes.
    vals = rng.integers(0, 2_000_000, size=2000)
    df = pd.DataFrame({"k": ["x"] * 2000, "value": vals / 100.0})
    out = _run(df, qs=(0.5,), n_bins=8)
    cents = np.floor(df["value"].to_numpy() * 100 + 0.5).astype(int)
    assert int(out["p50_cents"].iloc[0]) == _disc(cents, 0.5)


def test_hot_duplicate_value(ray_session):
    # 90% of rows are one value: the rank lands inside the hot bin.
    vals = np.concatenate([np.full(900, 4242), np.arange(100)])
    df = pd.DataFrame({"k": ["h"] * 1000, "value": vals / 100.0})
    out = _run(df, qs=(0.25, 0.5, 0.9))
    assert int(out["p50_cents"].iloc[0]) == 4242
    assert int(out["p25_cents"].iloc[0]) == _disc(vals, 0.25)


def test_single_value_key(ray_session):
    df = pd.DataFrame({"k": ["z"] * 7, "value": [1.23] * 7})
    out = _run(df, qs=(0.5, 0.99))
    assert int(out["p50_cents"].iloc[0]) == 123
    assert int(out["p99_cents"].iloc[0]) == 123
    assert int(out["n_rows"].iloc[0]) == 7


def test_nonconvergence_raises(ray_session, rng):
    vals = rng.integers(0, 2_000_000, size=500)
    df = pd.DataFrame({"k": ["x"] * 500, "value": vals / 100.0})
    with pytest.raises(RuntimeError):
        _run(df, qs=(0.5,), n_bins=4, max_passes=1)


def test_config_route_selection_quantiles(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    out = run_job(JobConfig(
        pipeline="selection_quantiles",
        input="/root/testdata/sf0.001/events.parquet",
        key="event_type", value_col="value",
        columns=["event_type", "value"],
        params={"qs": (0.5,)})).to_pandas()
    assert {"event_type", "n_rows", "p50_cents"} == set(out.columns)
    assert (out["n_rows"] > 0).all()


def test_weighted_median_hand(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.selection import (
        weighted_selection_quantiles_by_key,
    )

    # values 1..4 with weights 1,1,5,1: W=8, median target ceil(8/2)=4
    # -> cumw 1,2,7,8 -> first v with 2*cw>=W is 3.
    df = pd.DataFrame({"k": ["a"] * 4, "v": [1, 2, 3, 4],
                       "w": [1, 1, 5, 1]})
    out = weighted_selection_quantiles_by_key(
        rd.from_pandas(df), "k", "v", "w", qs=((1, 2),))
    assert int(out["wp50"].iloc[0]) == 3
    assert int(out["total_weight"].iloc[0]) == 8


def test_weighted_matches_bruteforce(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.selection import (
        weighted_selection_quantiles_by_key,
    )

    n = 3000
    df = pd.DataFrame({"k": rng.choice(["a", "b"], size=n),
                       "v": rng.integers(0, 5_000_000, size=n),
                       "w": rng.integers(0, 9, size=n)})
    out = weighted_selection_quantiles_by_key(
        rd.from_pandas(df), "k", "v", "w",
        qs=((1, 2), (9, 10))).set_index("k")
    for k in ("a", "b"):
        g = df[df["k"] == k].sort_values("v")
        cw = g["w"].cumsum().to_numpy()
        W = int(cw[-1])
        for (num, den), col in (((1, 2), "wp50"), ((9, 10), "wp90")):
            expect = int(g["v"].to_numpy()[
                np.argmax(den * cw >= num * W)])
            assert int(out.loc[k, col]) == expect


def test_weighted_zero_weight_rows_ignored(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.selection import (
        weighted_selection_quantiles_by_key,
    )

    # zero-weight values never become the answer even when they sit at
    # the rank boundary.
    df = pd.DataFrame({"k": ["z"] * 4, "v": [1, 2, 3, 10],
                       "w": [1, 0, 1, 0]})
    out = weighted_selection_quantiles_by_key(
        rd.from_pandas(df), "k", "v", "w", qs=((1, 2), (9, 10)))
    assert int(out["wp50"].iloc[0]) == 1
    assert int(out["wp90"].iloc[0]) == 3


def test_selection_mad_matches_group_collect(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.selection import selection_mad_by_key

    n = 2000
    df = pd.DataFrame({"k": rng.choice(["a", "b"], size=n),
                       "value": rng.integers(0, 300000, size=n) / 100.0})
    out = selection_mad_by_key(rd.from_pandas(df), "k", "value") \
        .set_index("k")
    for k in ("a", "b"):
        cents = np.floor(
            df[df["k"] == k]["value"].to_numpy() * 100 + 0.5
        ).astype(np.int64)
        med = _disc(cents, 0.5)
        mad = _disc(np.abs(cents - med), 0.5)
        assert int(out.loc[k, "median_cents"]) == med
        assert int(out.loc[k, "mad_cents"]) == mad


def test_equidepth_histogram_masses(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.selection import equidepth_histogram

    vals = rng.integers(0, 1_000_000, size=5000) / 100.0
    out = equidepth_histogram(
        rd.from_pandas(pd.DataFrame({"value": vals})), "value",
        n_buckets=10)
    assert len(out) == 10
    assert int(out["n_rows"].sum()) == 5000
    # equal-mass within rounding of the disc convention
    assert out["n_rows"].max() - out["n_rows"].min() <= 2
    # upper edges are non-decreasing and end at the true max
    u = out["upper_cents"].to_numpy()
    assert (np.diff(u) >= 0).all()
    cents = np.floor(vals * 100 + 0.5).astype(np.int64)
    assert int(u[-1]) == int(cents.max())


def test_equidepth_heavy_duplicate_value(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.selection import equidepth_histogram

    # one value is 80% of the mass: several boundaries collapse onto
    # it; the duplicate-boundary buckets must come out empty, all mass
    # in the value's closing bucket.
    vals = np.concatenate([np.full(800, 42.0), np.arange(200) / 100.0])
    out = equidepth_histogram(
        rd.from_pandas(pd.DataFrame({"value": vals})), "value",
        n_buckets=10)
    assert int(out["n_rows"].sum()) == 1000
    hot = out[out["upper_cents"] == 4200]
    assert int(hot["n_rows"].max()) >= 800
    assert (out["n_rows"] == 0).sum() >= 5
