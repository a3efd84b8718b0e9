"""hash_join (pipelines/relational.py): the distributed co-partitioned
equi-join — inner semantics, duplicate keys (per-key cartesian), unmatched
rows dropped, and bucket-count invariance."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from t_digest_ray.pipelines.relational import hash_join


@pytest.fixture(scope="module")
def join_inputs(ray_session):
    import ray

    rng = np.random.default_rng(7)
    left = pd.DataFrame({
        "k": rng.integers(0, 50, 400).astype(np.int64),
        "lv": np.arange(400, dtype=np.float64),
    })
    # keys 0..39 on the right (10..49 unmatched on part of left),
    # with duplicates so some joins are per-key cartesian
    right = pd.DataFrame({
        "k": np.concatenate([np.arange(40), np.arange(0, 20)])
            .astype(np.int64),
        "rv": np.arange(60, dtype=np.int64),
    })
    return left, right


def _expected(left, right):
    return (left.merge(right, on="k", how="inner")
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True))


def test_hash_join_matches_pandas(join_inputs, ray_session):
    import ray

    left, right = join_inputs
    got = hash_join(ray.data.from_pandas(left).repartition(4),
                    ray.data.from_pandas(right).repartition(3),
                    on="k", left_cols=["lv"], right_cols=["rv"]) \
        .to_pandas().sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    want = _expected(left, right)
    pd.testing.assert_frame_equal(
        got[["k", "lv", "rv"]].astype({"rv": np.int64}),
        want[["k", "lv", "rv"]])


def test_hash_left_join_matches_pandas(join_inputs, ray_session):
    import ray

    left, right = join_inputs
    got = hash_join(ray.data.from_pandas(left).repartition(4),
                    ray.data.from_pandas(right).repartition(3),
                    on="k", left_cols=["lv"], right_cols=["rv"],
                    how="left").to_pandas() \
        .sort_values(["k", "lv", "rv"]).reset_index(drop=True)
    want = (left.merge(right, on="k", how="left")
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    # unmatched left rows survive (keys 40..49 have no right match)
    assert len(got) == len(want) > len(_expected(left, right))
    assert got["rv"].isna().to_numpy().sum() \
        == want["rv"].isna().to_numpy().sum() > 0
    # rv keeps its INTEGER dtype with nulls (typed Arrow nulls, not a
    # NaN-coerced float column)
    matched = got[got["rv"].notna()]
    pd.testing.assert_frame_equal(
        matched.reset_index(drop=True)[["k", "lv"]],
        want[want["rv"].notna()].reset_index(drop=True)[["k", "lv"]])
    assert (matched["rv"].to_numpy(dtype=np.int64)
            == want.loc[want["rv"].notna(), "rv"]
            .to_numpy(dtype=np.int64)).all()


def test_hash_join_rejects_unknown_how(join_inputs, ray_session):
    import ray

    left, right = join_inputs
    with pytest.raises(ValueError, match="how"):
        hash_join(ray.data.from_pandas(left),
                  ray.data.from_pandas(right),
                  on="k", left_cols=["lv"], right_cols=["rv"],
                  how="outer")


def test_hash_join_bucket_invariance(join_inputs, ray_session):
    import ray

    left, right = join_inputs
    outs = []
    for coarse in (1, 7):
        outs.append(hash_join(
            ray.data.from_pandas(left).repartition(2),
            ray.data.from_pandas(right),
            on="k", left_cols=["lv"], right_cols=["rv"], coarse=coarse)
            .to_pandas().sort_values(["k", "lv", "rv"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


@pytest.mark.parametrize("anti", [False, True])
def test_hash_semi_anti_join(ray_session, anti):
    import ray

    from t_digest_ray.pipelines.relational import hash_semi_anti_join

    left = pa.table({"k": pa.array([1, 2, 3, 4, 2], type=pa.int64()),
                     "v": ["a", "b", "c", "d", "e"]})
    right = pa.table({"k": pa.array([2, 4, 4, 9], type=pa.int64()),
                      "junk": [0.0, 1.0, 2.0, 3.0]})
    out = hash_semi_anti_join(ray.data.from_arrow(left),
                              ray.data.from_arrow(right), "k", ["v"],
                              anti=anti, coarse=3).to_pandas()
    got = set(map(tuple, out[["k", "v"]].itertuples(index=False)))
    want = ({(1, "a"), (3, "c")} if anti
            else {(2, "b"), (4, "d"), (2, "e")})
    assert got == want
    # key dtype preserved (no float64 promotion from the union's nulls)
    assert out["k"].dtype == np.int64


def test_q5_shape_matches_duckdb(ray_session):
    """The Q5 composition (two hash joins + broadcast dimension lookup +
    same-nation filter) reproduces DuckDB's answer exactly at sf0.001."""
    import duckdb

    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    got = e.queries()["q5_local_supplier_revenue"](sf).to_pandas()
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "supplier", "nation",
              "region"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(e.oracle_sql()["q5_local_supplier_revenue"]).df()
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  want.reset_index(drop=True))


def test_q10_shape_matches_duckdb(ray_session):
    """Q10 composition (two hash joins + per-customer fold + broadcast
    nation + top-20) with per-item integer-cents revenue — exact at any
    accumulation order."""
    import duckdb

    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    got = e.queries()["q10_returned_item_revenue"](sf).to_pandas() \
        .reset_index(drop=True)
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(e.oracle_sql()["q10_returned_item_revenue"]).df() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_q7_shape_matches_duckdb(ray_session):
    """Q7 composition (two-dimensional dimension filter through the fact
    chain, cross-nation post-join filter) reproduces DuckDB exactly."""
    import duckdb

    import __ray_entry__ as e

    sf = "/root/testdata/sf0.001"
    got = e.queries()["q7_nation_volume"](sf).to_pandas() \
        .reset_index(drop=True)
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "supplier", "nation"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(e.oracle_sql()["q7_nation_volume"]).df() \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)


def test_range_join_matches_bruteforce(ray_session):
    """Band join counts equal the all-pairs brute force, including band
    boundaries (|qa - qb| == delta_units exactly) and bucket edges."""
    import ray.data as rd

    from t_digest_ray.pipelines.relational import range_join_count

    rng = np.random.default_rng(11)
    a = rng.uniform(0, 30, 700)
    b = rng.uniform(0, 30, 600)
    # force exact-boundary and bucket-edge cases onto the grid
    a = np.concatenate([a, [1.0, 2.0, 2.5, 10.0]])
    b = np.concatenate([b, [1.5, 2.5, 3.0, 9.5]])
    delta_units, grid = 500_000, 1e6

    qa = np.floor(a * grid + 0.5).astype(np.int64)
    qb = np.floor(b * grid + 0.5).astype(np.int64)
    match = np.abs(qa[:, None] - qb[None, :]) <= delta_units
    keys = qa // np.int64(delta_units * 200)
    want = (pd.DataFrame({"bucket": keys, "n": match.sum(axis=1)})
            .groupby("bucket")["n"].sum())
    want = want[want > 0]

    out = range_join_count(
        rd.from_pandas(pd.DataFrame({"v": a})).repartition(5),
        rd.from_pandas(pd.DataFrame({"v": b})).repartition(3),
        "v", "v", delta_units=delta_units).to_pandas()
    got = out.set_index("bucket")["n_pairs"].sort_index()
    pd.testing.assert_series_equal(got, want.astype(np.int64),
                                   check_names=False)


def test_cube_stats_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from t_digest_ray.pipelines.relational import cube_stats

    rng = np.random.default_rng(6)
    df = pd.DataFrame({
        "a": rng.choice(["x", "y"], 300),
        "b": rng.choice(["p", "q", "r"], 300),
        "v": rng.integers(0, 100, 300).astype(np.int64)})
    out = cube_stats(rd.from_pandas(df).repartition(4), ["a", "b"], "v")
    # 2^2 grouping sets: finest (6 rows) + by a (2) + by b (3) + total (1)
    assert len(out) == 6 + 2 + 3 + 1
    tot = out[(out.a == "ALL") & (out.b == "ALL")].iloc[0]
    assert tot["n_rows"] == 300 and tot["sum_v"] == df["v"].sum()
    by_a = out[(out.a == "x") & (out.b == "ALL")].iloc[0]
    g = df[df.a == "x"]["v"]
    assert by_a["n_rows"] == len(g) and by_a["min_v"] == g.min()


def test_pivot_counts_matches_crosstab(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from t_digest_ray.pipelines.relational import pivot_counts

    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "r": rng.choice(["m", "n"], 500),
        "c": rng.choice(["u", "v", "w"], 500)})
    out = (pivot_counts(rd.from_pandas(df).repartition(4), "r", "c",
                        ["u", "v", "w"])
           .to_pandas().set_index("r").sort_index())
    want = pd.crosstab(df["r"], df["c"])
    for r in ("m", "n"):
        for c in ("u", "v", "w"):
            assert out.loc[r, f"n_{c}"] == want.loc[r, c]


def test_mad_stats_matches_numpy(ray_session):
    import math

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from t_digest_ray.pipelines.relational import mad_stats

    rng = np.random.default_rng(13)
    df = pd.DataFrame({"k": rng.choice(["a", "b"], 2000),
                       "v": rng.normal(10, 3, 2000)})
    out = mad_stats(rd.from_pandas(df).repartition(5), "k", "v") \
        .to_pandas().set_index("k")
    for k, g in df.groupby("k"):
        v = np.sort(g["v"].to_numpy())
        med = v[max(int(math.ceil(0.5 * len(v))) - 1, 0)]
        dev = np.sort(np.abs(g["v"].to_numpy() - med))
        mad = dev[max(int(math.ceil(0.5 * len(dev))) - 1, 0)]
        assert out.loc[k, "median_v"] == med
        assert out.loc[k, "mad"] == mad


def test_latest_snapshot_stats_cdc(ray_session):
    """Upsert/delete changelog compaction: delete-then-reinsert
    survives, insert-then-delete disappears, (ts, seq) tie-break is by
    seq, and the per-batch compacting partial cannot change the
    answer across repartitionings."""
    import ray.data as rd

    from t_digest_ray.pipelines.relational import latest_snapshot_stats

    base = pd.Timestamp("2025-06-01")
    rows = [
        # key 1: upsert then tombstone -> gone
        (1, base, 1, "U", "a", 100),
        (1, base + pd.Timedelta("1h"), 2, "D", "a", 0),
        # key 2: tombstone then re-insert -> lives with latest attr
        (2, base, 3, "D", "a", 0),
        (2, base + pd.Timedelta("2h"), 4, "U", "b", 250),
        # key 3: same ts, higher seq wins
        (3, base, 5, "U", "a", 10),
        (3, base, 6, "U", "b", 20),
        # key 4: plain single upsert
        (4, base + pd.Timedelta("3h"), 7, "U", "b", 40),
    ]
    df = pd.DataFrame(rows, columns=["k", "ts", "seq", "op", "attr",
                                     "cents"])
    for n_parts in (1, 4):
        out = latest_snapshot_stats(
            rd.from_pandas(df).repartition(n_parts),
            "k", "ts", "seq", "op", "attr", "cents").to_pandas()
        got = out.sort_values("attr").reset_index(drop=True)
        assert got["attr"].tolist() == ["b"]
        assert got["n_keys"].tolist() == [3]
        assert got["sum_cents"].tolist() == [250 + 20 + 40]


def test_bucketed_join_storage_partitioned(ray_session, tmp_path):
    """Storage-bucketed join equals the pandas merge, its bucketed
    write is idempotent (re-run hits the _SUCCESS cache), and probe
    keys with no build match drop out."""
    import os

    import ray.data as rd

    from t_digest_ray.stages.bucketed import bucketed_join, write_bucketed

    rng = np.random.default_rng(7)
    build = pd.DataFrame({"bk": np.arange(40, dtype=np.int64),
                          "attr": [f"a{i % 3}" for i in range(40)]})
    probe = pd.DataFrame({
        "pk": rng.integers(0, 60, 500).astype(np.int64),  # 1/3 miss
        "v": rng.integers(0, 100, 500).astype(np.int64)})

    sf = tmp_path / "sf"
    sf.mkdir()
    import pyarrow.parquet as pq
    pq.write_table(pa.Table.from_pandas(probe), sf / "probe.parquet")
    pq.write_table(pa.Table.from_pandas(build), sf / "build.parquet")

    out = bucketed_join(str(sf), "probe", str(sf), "build",
                        probe_key="pk", build_key="bk",
                        probe_cols=["v"], build_cols=["attr"],
                        n_buckets=4, root=str(tmp_path / "bkts"))
    got = (out.to_pandas().sort_values(["pk", "v"])
           .reset_index(drop=True))
    want = (probe.merge(build, left_on="pk", right_on="bk")
            [["pk", "v", "attr"]].sort_values(["pk", "v"])
            .reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["pk", "v", "attr"]], want)

    # idempotent: the bucket dirs carry _SUCCESS and a second call skips
    roots = os.listdir(tmp_path / "bkts")
    assert len(roots) == 2
    for r in roots:
        assert os.path.exists(tmp_path / "bkts" / r / "_SUCCESS")
    d = str(tmp_path / "bkts" / roots[0])
    mtime = os.path.getmtime(d + "/_SUCCESS")
    assert write_bucketed(None, d, "x", 4) == d   # ds unused on skip
    assert os.path.getmtime(d + "/_SUCCESS") == mtime


def test_write_bucketed_rerun_after_lost_marker(ray_session, tmp_path):
    """A write whose _SUCCESS marker never landed is redone in full: the
    rerun replaces the first run's files instead of adding a second set."""
    import os

    import pyarrow.dataset as pads
    import ray.data as rd

    from t_digest_ray.stages.bucketed import write_bucketed

    ds = rd.from_pandas(pd.DataFrame({"x": np.arange(1000, dtype=np.int64)}))
    dest = str(tmp_path / "bkt")

    def files():
        return sorted(os.path.relpath(os.path.join(r, f), dest)
                      for r, _, fs in os.walk(dest)
                      for f in fs if f.endswith(".parquet"))

    write_bucketed(ds, dest, "x", 4)
    first = files()
    os.remove(os.path.join(dest, "_SUCCESS"))  # the run "died" here
    write_bucketed(ds, dest, "x", 4)
    assert os.path.exists(os.path.join(dest, "_SUCCESS"))
    assert len(files()) == len(first)
    assert pads.dataset(dest, format="parquet").count_rows() == 1000
    assert not [f for f in os.listdir(tmp_path) if ".tmp-" in f]


def test_zorder_interleave_and_report(ray_session):
    """Morton interleave matches the bit-by-bit definition, and the
    partition report's spans prove 2-D locality: every equal-width
    z-range at bits=4/n=4 confines BOTH dimensions to a half-range."""
    import ray.data as rd

    from t_digest_ray.stages.partitioning import (
        zorder_interleave,
        zorder_partition_report,
    )

    a = np.array([0b1010, 0b0001, 0b1111], dtype=np.int64)
    b = np.array([0b0101, 0b0010, 0b1111], dtype=np.int64)
    z = zorder_interleave(a, b, bits=4)
    def ref(x, y):
        out = 0
        for k in range(4):
            out |= ((x >> k) & 1) << (2 * k + 1)
            out |= ((y >> k) & 1) << (2 * k)
        return out
    np.testing.assert_array_equal(z, [ref(x, y) for x, y in zip(a, b)])

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"a": rng.integers(0, 16, 2000),
                       "b": rng.integers(0, 16, 2000)})
    rep = zorder_partition_report(
        rd.from_pandas(df).repartition(4), "a", "b",
        bits=4, n_partitions=4).to_pandas()
    assert rep["n_rows"].sum() == 2000
    # top 2 z-bits = (a's top bit, b's top bit): each partition pins
    # both dimensions to one half of their range
    for _, r in rep.iterrows():
        assert r["a_max"] - r["a_min"] <= 7
        assert r["b_max"] - r["b_min"] <= 7


def test_hash_join_full_outer(ray_session):
    """FULL OUTER hash join keeps unmatched keys from both sides with
    typed nulls, matching the pandas outer merge."""
    import ray.data as rd

    from t_digest_ray.pipelines.relational import hash_join

    l = pd.DataFrame({"k": np.array([1, 2, 3], dtype=np.int64),
                      "lv": np.array([10, 20, 30], dtype=np.int64)})
    r = pd.DataFrame({"k": np.array([2, 3, 4], dtype=np.int64),
                      "rv": np.array([200, 300, 400], dtype=np.int64)})
    out = hash_join(rd.from_pandas(l).repartition(2),
                    rd.from_pandas(r).repartition(2),
                    on="k", left_cols=["lv"], right_cols=["rv"],
                    types={"k": pa.int64(), "lv": pa.int64(),
                           "rv": pa.int64()},
                    how="full").to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert out["k"].tolist() == [1, 2, 3, 4]
    assert out["lv"].tolist()[:3] == [10, 20, 30]
    assert pd.isna(out["lv"].iloc[3])
    assert pd.isna(out["rv"].iloc[0])
    assert out["rv"].tolist()[1:] == [200, 300, 400]


def test_ordered_collect_truncating_partial(ray_session):
    """Ordered collect matches pandas, k-truncates per key, and is
    layout-invariant (partials keep local top-k only)."""
    import ray.data as rd

    from t_digest_ray.pipelines.relational import ordered_collect

    rng = np.random.default_rng(2)
    n = 500
    df = pd.DataFrame({
        "k": rng.integers(0, 6, n).astype(np.int64),
        "o": rng.permutation(n).astype(np.int64),
        "t": np.arange(n, dtype=np.int64),
        "p": [f"x{i % 13}" for i in range(n)]})
    want = (df.sort_values(["k", "o", "t"]).groupby("k")
            .head(3).groupby("k")["p"]
            .agg(",".join).rename("collected").reset_index())
    for parts in (1, 8):
        got = (ordered_collect(rd.from_pandas(df).repartition(parts),
                               "k", "o", "t", "p", k=3)
               .to_pandas().sort_values("k").reset_index(drop=True))
        assert (got["n_collected"] == 3).all()
        pd.testing.assert_series_equal(got["collected"],
                                       want["collected"],
                                       check_names=False)


def test_unpivot_roundtrip_counts(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.relational import unpivot

    df = pd.DataFrame({"k": ["a", "b"],
                       "m1": np.array([1, 2], dtype=np.int64),
                       "m2": np.array([10, 20], dtype=np.int64)})
    out = unpivot(rd.from_pandas(df), ["k"], ["m1", "m2"]).to_pandas()
    assert len(out) == 4
    got = {(r["k"], r["metric"]): int(r["value"])
           for _, r in out.iterrows()}
    assert got == {("a", "m1"): 1, ("b", "m1"): 2,
                   ("a", "m2"): 10, ("b", "m2"): 20}


def test_ratio_to_report_shares_sum_close_to_unit(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.relational import ratio_to_report

    df = pd.DataFrame({"k": rng.choice(list("abc"), 300),
                       "value": rng.integers(0, 1000, 300) / 100.0})
    out = ratio_to_report(rd.from_pandas(df), "k", "value")
    total = out["sum_cents"].sum()
    # floor shares: sum <= 1e6, within 1 ppm per key of exact
    assert out["share_ppm"].sum() <= 10**6
    assert out["share_ppm"].sum() >= 10**6 - len(out)
    for _, r in out.iterrows():
        assert int(r["share_ppm"]) == int(r["sum_cents"]) * 10**6 // int(total)


def test_exact_quantiles_by_key_exact_rank_vs_duckdb(ray_session):
    """q=0.55 and q=0.07 over 1..100: ceil(q*n) in floats is 56 and 8,
    the exact ranks are 55 and 7 (DuckDB quantile_disc)."""
    import duckdb
    import ray.data as rd

    from t_digest_ray.pipelines.relational import exact_quantiles_by_key

    df = pd.DataFrame({"k": np.zeros(100, dtype=np.int64),
                       "v": np.random.default_rng(3).permutation(100) + 1})
    got = exact_quantiles_by_key(rd.from_pandas(df).repartition(4), "k",
                                 "v", qs=(0.55, 0.07)).to_pandas().iloc[0]
    con = duckdb.connect()
    con.register("d", df)
    want = con.execute("SELECT quantile_disc(v, 0.55), "
                       "quantile_disc(v, 0.07) FROM d").fetchone()
    assert (got["p55"], got["p7"]) == want == (55, 7)


def test_quantile_names_a_point_apart_are_distinct(ray_session):
    """0.29 * 100 is 28.999999999999996, so ``p{int(q * 100)}`` named
    q=0.29 ``p28`` and q=0.57 ``p56``, and each collided with its
    neighbour; ``quantiles.pct`` names them p28/p29 and p57/p58, each with
    its own DuckDB ``quantile_disc``, and keeps every default q's name."""
    import duckdb
    import ray.data as rd

    from t_digest_ray.pipelines.quantiles import DEFAULT_QS, pct
    from t_digest_ray.pipelines.relational import exact_quantiles_by_key

    qs = (0.28, 0.29, 0.57, 0.58)
    assert [pct(q) for q in qs] == [28, 29, 57, 58]
    for q in (*DEFAULT_QS, 0.5, 0.9, 0.99, *(i / 8 for i in range(1, 8)),
              0.999):
        assert pct(q) == int(q * 100), q
    df = pd.DataFrame({"k": np.zeros(100, dtype=np.int64),
                       "v": np.random.default_rng(4).permutation(100) + 1})
    got = exact_quantiles_by_key(rd.from_pandas(df), "k", "v",
                                 qs=qs).to_pandas().iloc[0]
    con = duckdb.connect()
    con.register("d", df)
    want = con.execute("SELECT " + ", ".join(
        f"quantile_disc(v, {q})" for q in qs) + " FROM d").fetchone()
    assert tuple(got[f"p{pct(q)}"] for q in qs) == want == (28, 29, 57, 58)


@pytest.mark.parametrize("how", ["inner", "semi", "anti"])
def test_hash_joins_mixed_key_widths(ray_session, how):
    """An int32 left key meets an int64 right key: both sides are cast to
    the resolved key type (the left's), the rows equal pandas, and the
    output key keeps that type."""
    import ray.data as rd

    from t_digest_ray.pipelines.relational import hash_semi_anti_join

    rng = np.random.default_rng(5)
    left = pa.table({"k": pa.array(rng.integers(0, 60, 300), pa.int32()),
                     "lv": pa.array(np.arange(300, dtype=np.int64))})
    right = pa.table({"k": pa.array(np.r_[np.arange(40), np.arange(20)],
                                    pa.int64()),
                      "rv": pa.array(np.arange(60, dtype=np.int64))})
    l_ds = rd.from_arrow(left).repartition(3)
    r_ds = rd.from_arrow(right).repartition(2)
    ldf, rdf = left.to_pandas(), right.to_pandas()
    if how == "inner":
        out = hash_join(l_ds, r_ds, "k", ["lv"], ["rv"]).materialize()
        want = ldf.astype({"k": np.int64}).merge(rdf, on="k")
        cols = ["k", "lv", "rv"]
    else:
        out = hash_semi_anti_join(l_ds, r_ds, "k", ["lv"],
                                  anti=how == "anti").materialize()
        hit = ldf["k"].isin(rdf["k"])
        want = ldf[~hit if how == "anti" else hit]
        cols = ["k", "lv"]
    sch = out.schema()
    assert dict(zip(sch.names, sch.types))["k"] == pa.int32()
    got = out.to_pandas()[cols].astype(np.int64)
    pd.testing.assert_frame_equal(
        got.sort_values(cols).reset_index(drop=True),
        want[cols].astype(np.int64).sort_values(cols)
        .reset_index(drop=True))


def test_per_key_operators_many_keys_per_bucket(ray_session):
    """2,000 int64 keys over 7 blocks, so each bucket's fold holds many
    keys: every per-key operator equals its DuckDB query."""
    import duckdb
    import ray.data as rd

    from scripts.check_correctness import canon
    from t_digest_ray.pipelines.relational import (
        exact_quantiles_by_key, iqr_outlier_stats, latest_snapshot_stats,
        mad_stats, ordered_collect, topk_other_rollup)

    rng = np.random.default_rng(17)
    n_keys, n = 2000, 14000
    k = np.r_[np.arange(n_keys), rng.integers(0, n_keys, n - n_keys)]
    df = pd.DataFrame({
        "k": rng.permutation(k).astype(np.int64),
        "v": rng.integers(-50, 50, n).astype(np.int64),
        "o": rng.integers(0, 5, n).astype(np.int64),
        "t": rng.permutation(n).astype(np.int64),
        "p": [f"p{i % 37}" for i in range(n)],
        "s": rng.choice(["a", "b", "c", "d", "e"], n),
        "ts": pd.to_datetime(rng.integers(0, 50, n), unit="s"),
        "op": rng.choice(["U", "U", "D"], n),
        "attr": rng.choice(["x", "y", "z"], n),
        "cents": rng.integers(0, 10**6, n).astype(np.int64)})
    con = duckdb.connect()
    con.register("d", df)

    def ds():
        return rd.from_pandas(df).repartition(7)

    cases = {
        "quantiles": (
            exact_quantiles_by_key(ds(), "k", "v"),
            "SELECT k, quantile_disc(v, 0.25)::DOUBLE p25, "
            "quantile_disc(v, 0.5)::DOUBLE p50, "
            "quantile_disc(v, 0.75)::DOUBLE p75 FROM d GROUP BY k"),
        "iqr": (
            iqr_outlier_stats(ds(), "k", "v"),
            "WITH q AS (SELECT k, quantile_disc(v, 0.25)::DOUBLE q1, "
            "quantile_disc(v, 0.75)::DOUBLE q3 FROM d GROUP BY k) "
            "SELECT k, q1, q3, count(*) n_total, "
            "count(*) FILTER (WHERE v < q1 - 1.5 * (q3 - q1) "
            "OR v > q3 + 1.5 * (q3 - q1)) n_outliers "
            "FROM d JOIN q USING (k) GROUP BY k, q1, q3"),
        "mad": (
            mad_stats(ds(), "k", "v"),
            "WITH m AS (SELECT k, quantile_disc(v, 0.5)::DOUBLE median_v, "
            "count(*) n FROM d GROUP BY k) "
            "SELECT k, n, median_v, "
            "quantile_disc(abs(v - median_v), 0.5) mad "
            "FROM d JOIN m USING (k) GROUP BY k, n, median_v"),
        "collect": (
            ordered_collect(ds(), "k", "o", "t", "p", k=3),
            "SELECT k, count(*) n_collected, "
            "string_agg(p, ',' ORDER BY o, t) collected FROM ("
            "SELECT *, row_number() OVER (PARTITION BY k ORDER BY o, t) rn "
            "FROM d) WHERE rn <= 3 GROUP BY k"),
        "snapshot": (
            latest_snapshot_stats(ds(), "k", "ts", "t", "op", "attr",
                                  "cents"),
            "SELECT attr, count(*) n_keys, sum(cents)::BIGINT sum_cents "
            "FROM (SELECT *, row_number() OVER (PARTITION BY k "
            "ORDER BY ts DESC, t DESC) rn FROM d) "
            "WHERE rn = 1 AND op <> 'D' GROUP BY attr"),
        "topk": (
            topk_other_rollup(ds(), "k", "s", k=2),
            "WITH r AS (SELECT k, s, count(*) cnt, row_number() OVER ("
            "PARTITION BY k ORDER BY count(*) DESC, s) rn "
            "FROM d GROUP BY k, s) "
            "SELECT k, s category, cnt, rn rank FROM r WHERE rn <= 2 "
            "UNION ALL SELECT k, 'OTHER', sum(cnt)::BIGINT, 0 "
            "FROM r WHERE rn > 2 GROUP BY k"),
    }
    for name, (got, sql) in cases.items():
        want = con.execute(sql).df()
        got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
        if name != "snapshot":
            assert got["k"].nunique() == n_keys, name
        pd.testing.assert_frame_equal(canon(got), canon(want),
                                      check_dtype=False, obj=name)
