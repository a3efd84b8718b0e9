"""Zone-map (min/max statistics) pruned range scans.

The storage-side half of "prune at the read": lay a table out in value
RANGES (one partition directory per range — the Iceberg/Delta file-
layout shape), collect per-zone min/max statistics FROM THE PARQUET
FOOTERS (a metadata-only pass, no data read), and answer range
predicates by reading only the zones whose [min, max] envelope
intersects the query — the engine feature that turns a 100 TB scan
into a few-GB scan for selective predicates.

Layout + cache discipline mirror stages/bucketed.py: dest =
``<root>/<table>-<tag>/v=<zone>/*.parquet`` with
``tag = sha1(normalized sf_dir | table | column | n_zones)``, written
to a tmp sibling and renamed into place with its ``_SUCCESS`` marker
(atomic, resumable writes). Zone assignment is
the fixed integer rule ``zone = ((cents − gmin)·n_zones) // width`` so
a SQL oracle can replay BOTH the layout and the pruning decision: the
zone map's min/max are the zones' actual minima/maxima, which the
oracle recomputes with a groupby on the same rule.

Everything reported is exact integers: the pruned-scan aggregate
equals the full-scan aggregate by construction (pruning only skips
zones that cannot match), and (zones_read, zones_total) document the
I/O saving.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa

from .bucketed import write_partitioned

_ZM_ROOT = "/tmp/tdr_zonemaps"


def _to_cents(col: pa.ChunkedArray) -> np.ndarray:
    v = col.to_numpy(zero_copy_only=False).astype(np.float64)
    return np.floor(v * 100.0 + 0.5).astype(np.int64)


def _layout_dir(root: str, table: str, sf_dir: str, column: str,
                n_zones: int) -> str:
    tag = hashlib.sha1(
        f"{os.path.normpath(sf_dir)}|{table}|{column}|{n_zones}"
        .encode()).hexdigest()[:10]
    return os.path.join(root, f"{table}-{tag}")


def write_range_layout(ds, dest: str, value_col: str, gmin: int,
                       gmax: int, n_zones: int) -> str:
    """Write ``ds`` (with an integer-cents ``value_col``) partitioned
    into ``n_zones`` value ranges under ``dest/v=<zone>/``. Idempotent
    via the ``_SUCCESS`` marker and atomic (``bucketed.write_partitioned``):
    files a failed attempt left in ``dest`` never join the layout."""
    width = gmax - gmin + 1

    def tag(b: pa.Table) -> pa.Table:
        v = b[value_col].to_numpy(zero_copy_only=False)
        z = ((v - gmin) * n_zones) // width
        return b.append_column("v", pa.array(z.astype(np.int32)))

    return write_partitioned(ds, dest, tag, "v")


def _file_min_max(path: str, value_col: str):
    """(n_rows, min, max) of ``value_col`` in one parquet file from its
    footer; a footer without min/max statistics falls back to reading
    the column."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(path)
    md = pf.metadata
    if md.num_rows == 0:
        return 0, None, None
    stats = [rg.column(c).statistics
             for rg in map(md.row_group, range(md.num_row_groups))
             if rg.num_rows
             for c in range(rg.num_columns)
             if rg.column(c).path_in_schema == value_col]
    if stats and all(st is not None and st.has_min_max for st in stats):
        return (md.num_rows, min(st.min for st in stats),
                max(st.max for st in stats))
    mm = pc.min_max(pf.read(columns=[value_col]).column(0))
    return md.num_rows, mm["min"].as_py(), mm["max"].as_py()


def zone_map_from_footers(dest: str, value_col: str) -> pd.DataFrame:
    """Per-zone min/max/row-count read from the parquet FOOTERS only —
    the statistics pass costs metadata I/O, never data I/O (a file
    written without statistics costs one column read)."""
    rows = []
    for d in sorted(os.listdir(dest)):
        if not d.startswith("v="):
            continue
        zdir = os.path.join(dest, d)
        zmin, zmax, n = None, None, 0
        for f in sorted(os.listdir(zdir)):
            if not f.endswith(".parquet"):
                continue
            fn, fmin, fmax = _file_min_max(os.path.join(zdir, f), value_col)
            n += fn
            if fmin is not None:
                zmin = fmin if zmin is None else min(zmin, fmin)
                zmax = fmax if zmax is None else max(zmax, fmax)
        if n > 0:
            rows.append({"zone": int(d[2:]), "zmin": int(zmin),
                         "zmax": int(zmax), "n_rows": int(n)})
    return pd.DataFrame(rows).sort_values("zone").reset_index(drop=True)


def pruned_range_agg(sf_dir: str, table: str, value_col: str,
                     n_zones: int = 16,
                     root: str = _ZM_ROOT) -> pd.DataFrame:
    """End-to-end zone-map demo over ``<sf_dir>/<table>.parquet``:

      1. one aggregate pass finds the global cents [gmin, gmax];
      2. the table is written (once, cached) into n_zones value ranges;
      3. the zone map is built from parquet footers (metadata only);
      4. the deterministic query range [gmin + W//10, gmin + 3W//10]
         is answered by scanning ONLY the zones whose stats envelope
         intersects it.

    Returns one all-integer row: sum/count of matching cents plus
    zones_read / zones_total — value-hash-checkable because the oracle
    replays the zone rule, the actual per-zone min/max, and the same
    pruning predicate."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    src = os.path.join(sf_dir, f"{table}.parquet")
    base = rd.read_parquet(src, columns=[value_col])

    def cents(b: pa.Table) -> pa.Table:
        return pa.table({value_col: pa.array(_to_cents(b[value_col]),
                                             type=pa.int64())})

    cds = base.map_batches(cents, batch_format="pyarrow")
    ext = (cds.aggregate(Min(value_col, alias_name="lo"),
                         Max(value_col, alias_name="hi")))
    gmin, gmax = int(ext["lo"]), int(ext["hi"])
    width = gmax - gmin + 1
    q_lo = gmin + width // 10
    q_hi = gmin + (3 * width) // 10

    dest = _layout_dir(root, table, sf_dir, value_col, n_zones)
    write_range_layout(cds, dest, value_col, gmin, gmax, n_zones)
    zmap = zone_map_from_footers(dest, value_col)

    keep = zmap[(zmap["zmax"] >= q_lo) & (zmap["zmin"] <= q_hi)]
    zones_total, zones_read = len(zmap), len(keep)

    paths = [os.path.join(dest, f"v={int(z)}", f)
             for z in keep["zone"]
             for f in sorted(os.listdir(os.path.join(dest,
                                                     f"v={int(z)}")))
             if f.endswith(".parquet")]
    if paths:
        pruned = rd.read_parquet(paths, columns=[value_col])

        def in_range(b: pa.Table) -> pa.Table:
            v = b[value_col].to_numpy(zero_copy_only=False)
            m = (v >= q_lo) & (v <= q_hi)
            return pa.table({
                "s": pa.array([int(v[m].sum())], type=pa.int64()),
                "n": pa.array([int(m.sum())], type=pa.int64())})

        from ray.data.aggregate import Sum
        agg = (pruned.map_batches(in_range, batch_format="pyarrow")
               .aggregate(Sum("s", alias_name="s"),
                          Sum("n", alias_name="n")))
        total = int(agg["s"] or 0)
        n_rows = int(agg["n"] or 0)
    else:
        total, n_rows = 0, 0

    return pd.DataFrame({
        "sum_cents": pd.Series([total], dtype=np.int64),
        "n_rows": pd.Series([n_rows], dtype=np.int64),
        "zones_read": pd.Series([zones_read], dtype=np.int64),
        "zones_total": pd.Series([zones_total], dtype=np.int64)})
