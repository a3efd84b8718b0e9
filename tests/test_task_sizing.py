"""Map tasks sized from parquet metadata: one partial task per input file,
up to a mean of 65,536 rows (stages/partitioning.rows_per_task and
read_parquet_per_file), for the map-side combines and the registry
reader."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _op_stats(ds, op: str) -> str:
    """The ``Dataset.stats()`` section of the operator named ``op``."""
    sections = re.split(r"\n(?=Operator \d+ )", ds.stats())
    hits = [s for s in sections
            if re.match(rf"Operator \d+ (.*->)?{re.escape(op)}[:\s]", s)]
    assert len(hits) == 1, ds.stats()
    return hits[0]


def _tasks(ds, op: str) -> int:
    return int(re.search(r"(\d+) tasks executed", _op_stats(ds, op))[1])


def _rows_out(ds, op: str) -> int:
    return int(re.search(r"Output num rows per block: .*?(\d+) total",
                         _op_stats(ds, op))[1])


def _write_files(d, tables) -> str:
    d.mkdir()
    for i, t in enumerate(tables):
        pq.write_table(t, str(d / f"part-{i}.parquet"))
    return str(d)


def test_rows_per_task_from_parquet_metadata(ray_session, tmp_path):
    import ray.data as rd

    from t_digest_ray.stages.partitioning import (MAX_ROWS_PER_TASK,
                                                  rows_per_task)

    three = _write_files(tmp_path / "three", [
        pa.table({"x": np.arange(3_000)}) for _ in range(3)])
    big = _write_files(tmp_path / "big", [
        pa.table({"x": np.arange(200_000)})])
    assert rows_per_task(rd.read_parquet(three)) == 3_000
    assert MAX_ROWS_PER_TASK == 65_536
    assert rows_per_task(rd.read_parquet(big)) == 65_536
    assert rows_per_task(rd.from_items([{"x": 1}] * 10)) is None
    assert rows_per_task(
        rd.read_parquet(three).map_batches(lambda b: b)) is None


def test_read_parquet_per_file_blocks(ray_session, tmp_path):
    """One block per file, and a file above the cap split into
    ``ceil(rows / 65,536)`` blocks."""
    from t_digest_ray.stages.partitioning import read_parquet_per_file

    three = _write_files(tmp_path / "three", [
        pa.table({"x": np.arange(3_000)}) for _ in range(3)])
    big = _write_files(tmp_path / "big", [
        pa.table({"x": np.arange(200_000)})])
    ds = read_parquet_per_file(three).materialize()
    assert (ds.num_blocks(), ds.count()) == (3, 9_000)
    ds = read_parquet_per_file(big, columns=["x"]).materialize()
    assert (ds.num_blocks(), ds.count()) == (4, 200_000)


def test_pages_quantiles_runs_one_task_per_file(ray_session, tmp_path):
    import ray.data as rd

    from t_digest_ray.pipelines.quantiles import pages_quantiles
    from t_digest_ray.sources.pages import generate_pages_batch

    tables = [generate_pages_batch(np.arange(i * 2_500, (i + 1) * 2_500,
                                             dtype=np.uint64))
              for i in range(4)]
    path = _write_files(tmp_path / "pages", tables)

    res = pages_quantiles(rd.read_parquet(path),
                          value_cols=("text_length",))["text_length"]
    a = res.to_pandas().sort_values("lang").reset_index(drop=True)
    assert _tasks(res, "MapBatches(fused)") == 4

    b = pages_quantiles(rd.from_arrow(tables), value_cols=("text_length",))[
        "text_length"].to_pandas().sort_values("lang").reset_index(drop=True)
    assert a["lang"].tolist() == b["lang"].tolist()
    assert (a["n"] == b["n"]).all()
    assert np.allclose(a["q50"], b["q50"], rtol=0.02)
    assert np.allclose(a["min"], b["min"]) and np.allclose(a["max"], b["max"])


def test_sketch_by_key_one_task_per_file_unless_batch_size(ray_session,
                                                           tmp_path):
    """Without ``batch_size`` each file is one batch, so one global
    partial row per file; an explicit ``batch_size`` still wins."""
    import ray.data as rd

    from t_digest_ray.pipelines.quantiles import tdigest_spec
    from t_digest_ray.stages.aggregate import sketch_by_key

    rng = np.random.default_rng(3)
    path = _write_files(tmp_path / "vals", [
        pa.table({"v": rng.standard_normal(2_500)}) for _ in range(4)])
    spec = tdigest_spec()

    merged = sketch_by_key(rd.read_parquet(path), spec, "v").materialize()
    assert merged.take_all()[0]["n"] == 10_000.0
    assert _rows_out(merged, "MapBatches(fn)") == 4

    merged = sketch_by_key(rd.read_parquet(path), spec, "v",
                           batch_size=1_000).materialize()
    assert merged.take_all()[0]["n"] == 10_000.0
    assert _rows_out(merged, "MapBatches(fn)") >= 10
