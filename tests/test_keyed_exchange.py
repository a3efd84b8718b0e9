"""The keyed exchange (stages/aggregate.bucketed_map_groups) and the
windows.py operators built on it: typed multi-column keys, whole keys per
call, exact disc ranks, and item names that contain the old '|' packing
separator."""

from __future__ import annotations

import numpy as np
import pandas as pd


def test_bucketed_map_groups_keeps_each_typed_key_whole(ray_session):
    import ray

    from t_digest_ray.stages.aggregate import BUCKET_COL, bucketed_map_groups

    # ("a|b", "c") and ("a", "b|c") pack to the same '|' string but are
    # different typed keys
    df = pd.DataFrame({
        "k1": ["a|b", "a", "x"] * 400,
        "k2": ["c", "b|c", "y"] * 400,
        "n": np.arange(1200, dtype=np.int64) % 7,
    })

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        assert BUCKET_COL not in g.columns
        return (g.groupby(["k1", "k2"], as_index=False)
                .agg(rows=("n", "size"), total=("n", "sum")))

    out = bucketed_map_groups(
        ray.data.from_pandas(df).repartition(7), ["k1", "k2"], fold,
        n_buckets=3).to_pandas()
    assert BUCKET_COL not in out.columns
    # one output row per key: no key's rows reached two calls
    assert len(out) == 3
    want = df.groupby(["k1", "k2"]).agg(rows=("n", "size"),
                                        total=("n", "sum"))
    got = out.set_index(["k1", "k2"]).sort_index()
    pd.testing.assert_frame_equal(got, want.sort_index(),
                                  check_dtype=False)


def test_bucketed_map_groups_projects_before_bucketing(ray_session):
    import pyarrow as pa
    import ray

    from t_digest_ray.stages.aggregate import bucketed_map_groups

    def project(b: pa.Table) -> pa.Table:
        return pa.table({"key": pa.array(
            b["id"].to_numpy() % 5), "one": pa.array(
            np.ones(b.num_rows, dtype=np.int64))})

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("key", as_index=False)["one"].sum()

    out = (bucketed_map_groups(ray.data.range(1000), ["key"], fold,
                               project=project)
           .to_pandas().set_index("key")["one"])
    assert out.sort_index().tolist() == [200] * 5


def test_session_duration_quantiles_exact_rank_vs_duckdb(ray_session):
    """q=0.07 over 100 sessions: ceil(0.07*100) in floats is 8, the
    exact rank is 7 (DuckDB quantile_disc)."""
    import duckdb
    import ray

    from t_digest_ray.pipelines.windows import session_duration_quantiles

    n = 100
    durs = (np.random.default_rng(5).permutation(n) + 1) * 10  # seconds
    df = pd.DataFrame({
        "u": np.repeat(np.arange(n), 2),
        "ts": pd.to_datetime(np.column_stack(
            [np.zeros(n, dtype=np.int64), durs]).ravel(), unit="s"),
        "eid": np.arange(2 * n, dtype=np.int64),
    })
    out = (session_duration_quantiles(
        ray.data.from_pandas(df).repartition(4), "u", "ts", "eid",
        gap_s=10**6, qs=(0.07,)).to_pandas().iloc[0])
    con = duckdb.connect()
    con.register("d", pd.DataFrame({"dur_us": durs * 10**6}))
    want = con.execute(
        "SELECT quantile_disc(dur_us, 0.07) FROM d").fetchone()[0]
    assert out["n_sessions"] == n
    assert int(out["p7"]) == int(want) == 70 * 10**6


def test_association_rules_item_names_with_pipe(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.windows import association_rules

    # baskets: u1/day0 {x|y, z}, u2/day0 {z}
    df = pd.DataFrame({
        "u": [1, 1, 2],
        "ts": pd.to_datetime([10, 20, 30], unit="s"),
        "t": ["x|y", "z", "z"]})
    out = association_rules(rd.from_pandas(df), "u", "ts", "t") \
        .set_index(["antecedent", "consequent"])
    assert sorted(out.index) == [("x|y", "z"), ("z", "x|y")]
    assert int(out.loc[("x|y", "z"), "n_both"]) == 1
    assert int(out.loc[("x|y", "z"), "conf_ppm"]) == 10**6
    assert int(out.loc[("z", "x|y"), "conf_ppm"]) == 10**6 // 2
    # support x|y = 1, z = 2, N = 2 baskets
    assert int(out.loc[("x|y", "z"), "lift_ppm"]) == 2 * 10**6 // 2


def test_hash_bucketed_group_agg_float_sum_ignores_block_order(ray_session):
    """1e16 + 1.0 - 1e16 rounds differently in different orders; one
    value per block, the six block orders must give one sum."""
    import itertools

    import pyarrow as pa
    import ray

    from t_digest_ray.stages.aggregate import hash_bucketed_group_agg

    sums = set()
    for order in itertools.permutations([1e16, 1.0, -1e16]):
        ds = ray.data.from_arrow([pa.table({"k": ["x"], "v": [v]})
                                  for v in order])
        out = hash_bucketed_group_agg(ds, ["k"], {"s": ("v", "sum")},
                                      coarse=1).to_pandas()
        assert len(out) == 1
        sums.add(float(out["s"].iloc[0]))
    assert len(sums) == 1, sums


def test_hash_bucketed_group_agg_keeps_null_keys(ray_session):
    """A null key is one group (SQL's GROUP BY), and an int key lands in
    one bucket whether or not its block also holds a null (NumPy turns an
    int column with nulls into floats, which hash differently)."""
    import pyarrow as pa
    import ray

    from t_digest_ray.stages.aggregate import hash_bucketed_group_agg

    n = 2000
    k = [None if i < 600 and i % 13 == 0 else i % 97 for i in range(n)]
    t = pa.table({"k": pa.array(k, pa.int64()),
                  "s": pa.array([f"s{i % 5}" if i % 11 else None
                                 for i in range(n)], pa.string()),
                  "v": pa.array(np.arange(n, dtype=np.int64))})
    ds = ray.data.from_arrow([t.slice(i, 100) for i in range(0, n, 100)])
    df = t.to_pandas()
    for cols in (["k"], ["s"], ["k", "s"]):
        out = hash_bucketed_group_agg(ds, cols, {"sv": ("v", "sum"),
                                                 "n": ("v", "count")},
                                      coarse=16)
        blocks = [b for b in ray.get(out.to_arrow_refs()) if b.num_rows]
        assert {b.schema.field(c).type for b in blocks for c in cols} \
            == {t.schema.field(c).type for c in cols}, cols
        got = pa.concat_tables(blocks).to_pylist()
        want = list(df.groupby(cols, dropna=False)["v"]
                    .agg(["sum", "size"]).reset_index()
                    .itertuples(index=False))
        assert len(got) == len(want), cols
        assert {tuple(r[c] for c in cols): (r["sv"], r["n"]) for r in got} \
            == {tuple(None if pd.isna(x) else int(x) if c == "k" else x
                      for c, x in zip(cols, w[:-2])): (w[-2], w[-1])
                for w in want}, cols


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_bucket_count_does_not_change_per_key_results(ray_session):
    """A key's rows never span two buckets and the combine sorts partials
    before summing, so 4 and 256 buckets give identical frames."""
    import ray

    from t_digest_ray.stages.aggregate import (_key_runs,
                                               bucketed_map_groups,
                                               hash_bucketed_group_agg)

    rng = np.random.default_rng(7)
    n = 6_000
    df = pd.DataFrame({
        "k": rng.integers(0, 300, n).astype(np.int64),
        "tag": rng.choice(["a", "b|c", "d"], n),
        "v": rng.standard_normal(n) * 1e6,
        "ts": rng.permutation(n).astype(np.int64)})
    ds = ray.data.from_pandas(df).repartition(7)

    def agg(coarse):
        return _canon(hash_bucketed_group_agg(
            ds, ["k", "tag"], {"rows": ("v", "count"), "s": ("v", "sum"),
                               "lo": ("v", "min")},
            coarse=coarse).to_pandas())

    def first_last(g: pd.DataFrame) -> pd.DataFrame:
        k = g["k"].to_numpy()
        order, starts, counts = _key_runs(k, g["ts"].to_numpy())
        v = g["v"].to_numpy()[order]
        return pd.DataFrame({"k": k[order][starts], "first": v[starts],
                             "last": v[starts + counts - 1],
                             "s": np.add.reduceat(v, starts)})

    def runs(nb):
        return _canon(bucketed_map_groups(ds, ["k"], first_last,
                                          n_buckets=nb).to_pandas())

    pd.testing.assert_frame_equal(agg(4), agg(256))
    pd.testing.assert_frame_equal(runs(4), runs(256))
    assert len(runs(4)) == df["k"].nunique()


def test_bucketed_map_groups_floor_is_the_cluster_cpu_count(ray_session):
    """A small input of known size gets one bucket per cluster CPU, not
    256 pandas calls; an input of unknown size keeps the 256 floor. Each
    call reports itself as one row."""
    import ray

    from t_digest_ray.stages.aggregate import bucketed_map_groups

    def calls(ds) -> pd.DataFrame:
        return bucketed_map_groups(
            ds, ["k"], lambda g: pd.DataFrame({"keys": [len(g)]})).to_pandas()

    ds = ray.data.from_pandas(pd.DataFrame(
        {"k": np.arange(2_000, dtype=np.int64)}))
    out = calls(ds)
    assert len(out) == int(ray.cluster_resources()["CPU"])
    assert out["keys"].sum() == 2_000
    # 2,000 keys leave ~0.1 of 256 buckets empty on average
    out = calls(ds.map_batches(lambda b: b))
    assert 250 <= len(out) <= 256
    assert out["keys"].sum() == 2_000


def test_bucketed_map_groups_drops_pandas_schema_metadata(ray_session,
                                                         tmp_path):
    """A parquet file written from pandas carries pandas' metadata dict;
    no block of the exchange may carry it, or Ray's reducers log "Failed
    to hash the schemas" (an unhashable dict). Ray also logs it once per
    read when the read's metadata is first computed; ``count()`` does
    that before the handler listens, so only the exchange is checked."""
    import logging

    import pyarrow as pa
    import ray

    from t_digest_ray.stages.aggregate import bucketed_map_groups

    path = str(tmp_path / "pandas.parquet")
    pd.DataFrame({"k": np.arange(3_000) % 50,
                  "v": np.arange(3_000, dtype=np.float64)}).to_parquet(path)

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return g.groupby("k", as_index=False)["v"].sum()

    def as_is(b: pa.Table) -> pa.Table:
        return b

    messages = []

    class Catch(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    handler = Catch(level=logging.WARNING)
    log = logging.getLogger("ray.data")
    for project in (None, as_is):
        ds = ray.data.read_parquet(path)
        assert ds.count() == 3_000
        log.addHandler(handler)
        try:
            out = bucketed_map_groups(ds, ["k"], fold,
                                      project=project).to_pandas()
        finally:
            log.removeHandler(handler)
        assert len(out) == 50
    assert not [m for m in messages if "Failed to hash the schemas" in m]
