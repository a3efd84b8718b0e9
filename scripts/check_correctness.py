"""Local mimic of the driver's correctness gate.

Runs every ``queries()`` entry at sf0.01, converts the result to pandas,
runs the matching ``oracle_sql()`` in DuckDB over the same parquet views,
then compares row count, schema (column names sorted) and values
(order-insensitive: rows sorted by all columns). Exact equality for
ints/strings; float columns require exact equality too, because the
contract engineers them to be reproducible (rounded cents / actual data
elements).

Usage: python scripts/check_correctness.py [--blocks N] [sf_dir]
       [query_name ...]

``--blocks N`` reads every table as N blocks instead of the registry
reader's one block per file, so a sweep checks that the answers do not
depend on the read layout.
"""

from __future__ import annotations

import sys
from pathlib import Path

import duckdb
import numpy as np
import pandas as pd

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def main() -> int:
    import os
    blocks = None
    if "--blocks" in sys.argv:
        i = sys.argv.index("--blocks")
        blocks = int(sys.argv[i + 1])
        del sys.argv[i:i + 2]
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import ray
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
                 include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False

    # the checkout this script lives in, so a copy of another commit
    # imports its own code
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    import __ray_entry__ as e
    if blocks is not None:
        def split_read(sf_dir, table, columns=None):
            return ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                         columns=columns,
                                         override_num_blocks=blocks)
        e._read = split_read

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    qs = e.queries()
    only = set(sys.argv[2:])
    if only:
        qs = {k: v for k, v in qs.items() if k in only}
    oracles = e.oracle_sql()
    failures = 0
    import time
    for name, fn in qs.items():
        t0 = time.perf_counter()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as ex:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        q_sec = time.perf_counter() - t0
        if name not in oracles:
            print(f"ok   {name}: rows-only [{q_sec:.1f}s] ({len(got)} rows, "
                  f"cols={list(got.columns)})")
            continue
        want = canon(con.execute(oracles[name]).fetchdf())
        if list(got.columns) != list(want.columns):
            print(f"FAIL {name}: columns {list(got.columns)} != {list(want.columns)}")
            failures += 1
            continue
        if len(got) != len(want):
            print(f"FAIL {name}: rows {len(got)} != {len(want)}")
            failures += 1
            continue
        bad = []
        dtype_bad = []
        for c in got.columns:
            a, b = got[c].to_numpy(), want[c].to_numpy()
            # Driver-strict: the driver's value-hash is TYPED, so an
            # int64 engine column vs a float64/HUGEINT oracle column is a
            # hash mismatch even when numerically equal (r3 failure mode:
            # DuckDB SUM(BIGINT) -> HUGEINT -> float64 via fetchdf).
            # Fail on any dtype-kind or width difference except str-vs-str.
            if a.dtype == object:
                a = a.astype(str)
            if b.dtype == object:
                b = b.astype(str)
            if a.dtype.kind == "U" and b.dtype.kind == "U":
                pass  # strings: width is storage detail, kinds match
            elif a.dtype.kind == "M" and b.dtype.kind == "M":
                a = a.astype("datetime64[ns]")
                b = b.astype("datetime64[ns]")
            elif a.dtype != b.dtype:
                dtype_bad.append((c, str(got[c].dtype), str(want[c].dtype)))
                continue
            if not np.array_equal(a, b):
                bad.append(c)
        if dtype_bad:
            print(f"FAIL {name}: dtype mismatch (driver hash is typed): "
                  + ", ".join(f"{c} got={ga} want={wa}"
                              for c, ga, wa in dtype_bad))
            failures += 1
            continue
        if bad:
            print(f"FAIL {name}: value mismatch in columns {bad}")
            for c in bad[:2]:
                mism = got[c] != want[c]
                print(f"   {c}: got {got[c][mism].head(3).tolist()} "
                      f"want {want[c][mism].head(3).tolist()}")
            failures += 1
        else:
            print(f"PASS {name}: {len(got)} rows hash-equal "
                  f"[{q_sec:.1f}s]")
    print(f"\n{len(qs) - failures}/{len(qs)} ok")
    return 1 if failures else 0


if __name__ == "__main__":
    rc = main()
    import ray
    ray.shutdown()
    sys.exit(rc)
