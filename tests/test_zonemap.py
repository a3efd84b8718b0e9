"""Zone-map pruned scans (stages/zonemap.py): layout idempotence,
footer-statistics fidelity, pruning correctness (skipped zones cannot
match), and full-scan equality of the pruned aggregate."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd


def _mk(tmpdir, vals):
    df = pd.DataFrame({"value": np.asarray(vals, dtype=np.float64)})
    path = os.path.join(tmpdir, "events.parquet")
    df.to_parquet(path, index=False)
    return tmpdir


def test_pruned_scan_equals_full_scan(ray_session, tmp_path, rng):
    from t_digest_ray.stages.zonemap import pruned_range_agg

    vals = rng.integers(0, 100000, 4000) / 100.0
    sf = _mk(str(tmp_path), vals)
    root = str(tmp_path / "zm")
    out = pruned_range_agg(sf, "events", "value", n_zones=8, root=root)
    cents = np.floor(vals * 100 + 0.5).astype(np.int64)
    gmin, gmax = int(cents.min()), int(cents.max())
    w = gmax - gmin + 1
    qlo, qhi = gmin + w // 10, gmin + (3 * w) // 10
    m = (cents >= qlo) & (cents <= qhi)
    assert int(out["sum_cents"].iloc[0]) == int(cents[m].sum())
    assert int(out["n_rows"].iloc[0]) == int(m.sum())
    assert 0 < int(out["zones_read"].iloc[0]) \
        <= int(out["zones_total"].iloc[0])
    # the pruned scan must actually skip zones on this uniform layout
    assert int(out["zones_read"].iloc[0]) \
        < int(out["zones_total"].iloc[0])


def test_zone_map_footer_stats_match_actual(ray_session, tmp_path, rng):
    import ray.data as rd

    from t_digest_ray.stages.zonemap import (_to_cents,
                                             write_range_layout,
                                             zone_map_from_footers)

    vals = rng.integers(0, 5000, 1000) / 100.0
    sf = _mk(str(tmp_path), vals)
    cents = np.floor(vals * 100 + 0.5).astype(np.int64)
    gmin, gmax = int(cents.min()), int(cents.max())
    dest = str(tmp_path / "layout")
    ds = rd.read_parquet(os.path.join(sf, "events.parquet"))
    import pyarrow as pa

    def c(b):
        return pa.table({"value": pa.array(_to_cents(b["value"]))})

    write_range_layout(ds.map_batches(c, batch_format="pyarrow"),
                       dest, "value", gmin, gmax, 4)
    zm = zone_map_from_footers(dest, "value")
    w = gmax - gmin + 1
    zones = ((cents - gmin) * 4) // w
    for _, r in zm.iterrows():
        zc = cents[zones == r["zone"]]
        assert int(r["zmin"]) == int(zc.min())
        assert int(r["zmax"]) == int(zc.max())
        assert int(r["n_rows"]) == len(zc)
    assert int(zm["n_rows"].sum()) == len(cents)
    # idempotent: second write is a no-op (marker present)
    assert os.path.exists(os.path.join(dest, "_SUCCESS"))
    write_range_layout(ds, dest, "value", gmin, gmax, 4)


def test_stray_part_file_does_not_join_layout(ray_session, tmp_path, rng):
    """A failed earlier write left a part file in the layout directory
    without ``_SUCCESS``: the rewrite replaces the directory atomically,
    so neither the zone map nor the pruned scan sees that file."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from t_digest_ray.stages.zonemap import _layout_dir, pruned_range_agg

    vals = rng.integers(0, 100000, 4000) / 100.0
    sf = _mk(str(tmp_path), vals)
    cents = np.floor(vals * 100 + 0.5).astype(np.int64)
    gmin, gmax = int(cents.min()), int(cents.max())
    w = gmax - gmin + 1
    qlo, qhi = gmin + w // 10, gmin + (3 * w) // 10
    m = (cents >= qlo) & (cents <= qhi)

    root = str(tmp_path / "zm")
    stray = os.path.join(_layout_dir(root, "events", sf, "value", 8), "v=0")
    os.makedirs(stray)
    pq.write_table(pa.table({"value": pa.array([qlo] * 50,
                                               type=pa.int64())}),
                   os.path.join(stray, "stray.parquet"))

    out = pruned_range_agg(sf, "events", "value", n_zones=8, root=root)
    assert int(out["sum_cents"].iloc[0]) == int(cents[m].sum())
    assert int(out["n_rows"].iloc[0]) == int(m.sum())


def test_zone_map_without_footer_statistics(ray_session, tmp_path, rng):
    """Files written with ``write_statistics=False`` have no min/max in
    their footers; the zone map falls back to reading the column and
    comes out the same."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from t_digest_ray.stages.zonemap import (_to_cents,
                                             write_range_layout,
                                             zone_map_from_footers)

    vals = rng.integers(0, 5000, 1000) / 100.0
    sf = _mk(str(tmp_path), vals)
    cents = np.floor(vals * 100 + 0.5).astype(np.int64)
    dest = str(tmp_path / "layout")
    ds = rd.read_parquet(os.path.join(sf, "events.parquet"))

    def c(b):
        return pa.table({"value": pa.array(_to_cents(b["value"]))})

    write_range_layout(ds.map_batches(c, batch_format="pyarrow"), dest,
                       "value", int(cents.min()), int(cents.max()), 4)
    want = zone_map_from_footers(dest, "value")

    zdir = os.path.join(dest, "v=0")
    for f in os.listdir(zdir):
        path = os.path.join(zdir, f)
        pq.write_table(pq.ParquetFile(path).read(), path,
                       write_statistics=False)
        st = pq.ParquetFile(path).metadata.row_group(0).column(0).statistics
        assert st is None or not st.has_min_max
    pd.testing.assert_frame_equal(zone_map_from_footers(dest, "value"),
                                  want)
