"""Checkpoint/resume: killed-run resume skips completed partitions and the
final sketches are byte-identical to a clean single run (north_star
requirement; determinism via the canonical concat-sort-merge)."""

from __future__ import annotations

import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from t_digest_ray.pipelines.checkpoint import (
    checkpoint_manifest, completed_partitions, finalize_checkpointed,
    partition_id_for, run_checkpointed)
from t_digest_ray.pipelines.quantiles import tdigest_spec


@pytest.fixture(scope="module")
def sharded_docs(tmp_path_factory):
    """documents sf0.001 split into 6 parquet shards."""
    root = tmp_path_factory.mktemp("shards")
    t = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                      columns=["lang", "n_chars"])
    n = t.num_rows
    step = (n + 5) // 6
    files = []
    for i in range(6):
        part = t.slice(i * step, step)
        if part.num_rows == 0:
            continue
        f = str(root / f"shard-{i:03d}.parquet")
        pq.write_table(part, f)
        files.append(f)
    return files


def _final_bytes(ckpt_dir, spec):
    """key -> merged sketch bytes over all checkpoint rows (driver-side)."""
    m = checkpoint_manifest(ckpt_dir)
    out = {}
    for k, sub in m.groupby("key"):
        out[k] = spec.merge_bytes(list(sub["sketch"])).to_bytes()
    return out


def test_clean_run_and_resume_identical(ray_session, sharded_docs, tmp_path):
    spec = tdigest_spec(100)

    # clean single run
    clean_dir = str(tmp_path / "clean")
    r = run_checkpointed(sharded_docs, spec, "n_chars", "lang", clean_dir)
    assert r.n_processed == len(sharded_docs)
    assert completed_partitions(clean_dir) == \
        {partition_id_for(f) for f in sharded_docs}

    # "killed" run: only 3 partitions got through before the crash
    resume_dir = str(tmp_path / "resume")
    r1 = run_checkpointed(sharded_docs[:3], spec, "n_chars", "lang",
                          resume_dir)
    assert r1.n_processed == 3
    mtimes = {f: os.path.getmtime(os.path.join(resume_dir, f))
              for f in os.listdir(resume_dir)}

    # resume with the FULL input list: completed partitions are skipped
    r2 = run_checkpointed(sharded_docs, spec, "n_chars", "lang", resume_dir)
    assert r2.n_completed_before == 3
    assert r2.n_processed == len(sharded_docs) - 3
    for f, mt in mtimes.items():
        assert os.path.getmtime(os.path.join(resume_dir, f)) == mt, \
            f"completed partition {f} was recomputed"

    # final sketch bytes identical to the clean run, per key
    assert _final_bytes(resume_dir, spec) == _final_bytes(clean_dir, spec)

    # idempotent: nothing left to do
    r3 = run_checkpointed(sharded_docs, spec, "n_chars", "lang", resume_dir)
    assert r3.n_processed == 0


def test_finalize_and_manifest(ray_session, sharded_docs, tmp_path):
    spec = tdigest_spec(100)
    ckpt = str(tmp_path / "ck")
    run_checkpointed(sharded_docs, spec, "n_chars", "lang", ckpt)

    out = finalize_checkpointed(ckpt, spec, key_name="lang").to_pandas()
    langs = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                          columns=["lang"]).column("lang").to_pandas()
    assert set(out["lang"]) == set(langs.unique())
    # totals survive the partition round-trip exactly
    assert int(out["n"].sum()) == len(langs)
    assert (out["q50"] > 0).all()

    m = checkpoint_manifest(ckpt)
    assert set(m["partition_id"]) == {partition_id_for(f)
                                     for f in sharded_docs}
    assert (m["spec_name"] == "tdigest").all()
    # per-partition row counts in the lineage sum to the table size
    per_part = m.drop_duplicates("partition_id")["n_rows"].sum()
    assert int(per_part) == len(langs)
    assert (m["wall_ms"] >= 0).all()


def test_tmp_garbage_ignored(ray_session, sharded_docs, tmp_path):
    """A leftover tmp file from a kill mid-write must not count as done."""
    spec = tdigest_spec(100)
    ckpt = str(tmp_path / "g")
    os.makedirs(ckpt)
    with open(os.path.join(ckpt, "part-shard-000.parquet.tmp-dead"), "wb") \
            as f:
        f.write(b"garbage")
    assert completed_partitions(ckpt) == set()
    r = run_checkpointed(sharded_docs, spec, "n_chars", "lang", ckpt)
    assert r.n_processed == len(sharded_docs)


def test_partition_id_distinct_across_directories():
    """Same basename in different shard directories must map to distinct
    partition ids (ADVICE r01: dir1/part-0.parquet vs dir2/part-0.parquet
    collided, silently skipping the second file on resume)."""
    a = partition_id_for("/data/dir1/part-0.parquet")
    b = partition_id_for("/data/dir2/part-0.parquet")
    assert a != b
    # stable across repeat calls and trivial path normalization
    assert a == partition_id_for("/data/dir1/part-0.parquet")
    assert a == partition_id_for("/data/dir1//part-0.parquet")


def test_same_basename_shards_both_processed(ray_session, tmp_path):
    """End-to-end regression for the partition-id collision (ADVICE r01):
    dir1/part-0.parquet and dir2/part-0.parquet must BOTH be processed."""
    import numpy as np
    import pyarrow as pa

    from t_digest_ray.pipelines.quantiles import tdigest_spec

    d1 = tmp_path / "dir1"; d1.mkdir()
    d2 = tmp_path / "dir2"; d2.mkdir()
    t1 = pa.table({"k": ["a"] * 100, "v": np.arange(100.0)})
    t2 = pa.table({"k": ["a"] * 50, "v": np.arange(1000.0, 1050.0)})
    pq.write_table(t1, d1 / "part-0.parquet")
    pq.write_table(t2, d2 / "part-0.parquet")

    ckpt = str(tmp_path / "ckpt")
    spec = tdigest_spec(100)
    files = [str(d1 / "part-0.parquet"), str(d2 / "part-0.parquet")]
    run = run_checkpointed(files, spec, "v", "k", ckpt)
    assert run.n_processed == 2
    assert len(completed_partitions(ckpt)) == 2
    out = finalize_checkpointed(ckpt, spec, key_name="k").to_pandas()
    assert out["n"].iloc[0] == 150.0  # both shards' rows counted


def test_format_marker_stamped_and_mismatch_refused(ray_session, tmp_path,
                                                    sharded_docs):
    """Partition-id scheme versioning (ADVICE r02): fresh dirs get a
    CKPT_FORMAT stamp; dirs from another scheme (or pre-marker dirs that
    already hold part files) are refused instead of silently double-counted
    at finalize."""
    import pytest as _pytest

    from t_digest_ray.pipelines.checkpoint import (CKPT_FORMAT, _FORMAT_FILE,
                                                   run_checkpointed)
    from t_digest_ray.pipelines.quantiles import tdigest_spec

    spec = tdigest_spec(100)

    # fresh run stamps the marker
    d = str(tmp_path / "fresh")
    run_checkpointed(sharded_docs[:2], spec, "n_chars", "lang", d)
    with open(os.path.join(d, _FORMAT_FILE)) as f:
        assert f.read().strip() == CKPT_FORMAT
    # resuming the same dir is fine
    run_checkpointed(sharded_docs, spec, "n_chars", "lang", d)
    assert len(completed_partitions(d)) == len(sharded_docs)
    finalize_checkpointed(d, spec)

    # a dir stamped with a DIFFERENT scheme is refused
    d2 = str(tmp_path / "other")
    os.makedirs(d2)
    with open(os.path.join(d2, _FORMAT_FILE), "w") as f:
        f.write("pid-basename-v1\n")
    with _pytest.raises(ValueError, match="scheme"):
        run_checkpointed(sharded_docs, spec, "n_chars", "lang", d2)

    # a pre-marker dir that already holds part files is refused too
    d3 = str(tmp_path / "legacy")
    os.makedirs(d3)
    a_part = next(f for f in sorted(os.listdir(d)) if f.startswith("part-"))
    shutil.copy(os.path.join(d, a_part),
                os.path.join(d3, "part-oldid.parquet"))
    with _pytest.raises(ValueError, match="marker"):
        run_checkpointed(sharded_docs, spec, "n_chars", "lang", d3)
    with _pytest.raises(ValueError, match="marker"):
        finalize_checkpointed(d3, spec)


def test_resumable_map_write_skips_completed(ray_session, tmp_path):
    """Generic map sink: finished partitions are skipped on re-run; resumed
    output equals a clean full run."""
    import pyarrow.parquet as pq_

    from t_digest_ray.pipelines.checkpoint import (completed_partitions,
                                                   partition_id_for,
                                                   resumable_map_write)

    ins = []
    for i in range(3):
        p = str(tmp_path / f"in-{i}.parquet")
        pq_.write_table(pa.table({"x": pa.array(range(i * 10, i * 10 + 5),
                                                type=pa.int64())}), p)
        ins.append(p)
    out_dir = str(tmp_path / "out")

    def double(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        return t.append_column("x2", pc.multiply(t["x"], 2))

    acks = resumable_map_write(ins, double, out_dir).to_pandas()
    assert len(acks) == 3 and acks["n_rows"].sum() == 15
    assert completed_partitions(out_dir) == {partition_id_for(p)
                                             for p in ins}

    # full re-run: nothing to do
    again = resumable_map_write(ins, double, out_dir).to_pandas()
    assert len(again) == 0

    # lose one partition, add a new input: exactly those two get processed
    lost = partition_id_for(ins[1])
    (tmp_path / "out" / f"part-{lost}.parquet").unlink()
    p3 = str(tmp_path / "in-3.parquet")
    pq_.write_table(pa.table({"x": pa.array([100], type=pa.int64())}), p3)
    ins.append(p3)
    resumed = resumable_map_write(ins, double, out_dir).to_pandas()
    assert set(resumed["partition_id"]) == {lost, partition_id_for(p3)}

    import glob
    got = pq_.read_table(sorted(glob.glob(f"{out_dir}/part-*.parquet"))) \
        .to_pandas().sort_values("x")
    assert got["x"].tolist() == sorted(list(range(0, 5))
                                       + list(range(10, 15))
                                       + list(range(20, 25)) + [100])
    assert (got["x2"].to_numpy() == got["x"].to_numpy() * 2).all()
    # no tmp garbage after clean completion
    assert not glob.glob(f"{out_dir}/*.tmp-*")


def test_resumable_text_write_jsonl_and_csv(ray_session, tmp_path):
    """Text export sink: JSONL/CSV shards round-trip the data, chunked
    appends don't glue records, finished partitions skip on re-run and a
    lost partition is rewritten byte-identical."""
    import json

    import pyarrow.parquet as pq_

    from t_digest_ray.pipelines.checkpoint import (partition_id_for,
                                                   resumable_text_write)

    ins = []
    for i in range(2):
        p = str(tmp_path / f"in-{i}.parquet")
        pq_.write_table(pa.table({
            "doc_id": pa.array(range(i * 100, i * 100 + 50),
                               type=pa.int64()),
            "text": pa.array([f"w{j} body" for j in range(50)])}), p)
        ins.append(p)

    jdir = str(tmp_path / "jsonl")
    acks = resumable_text_write(ins, jdir, fmt="jsonl",
                                reader_batch_size=7).to_pandas()
    assert len(acks) == 2 and acks["n_rows"].sum() == 100
    rows = []
    for f in sorted((tmp_path / "jsonl").glob("part-*.jsonl")):
        for line in f.read_text().splitlines():
            rows.append(json.loads(line))
    assert sorted(r["doc_id"] for r in rows) == sorted(
        list(range(0, 50)) + list(range(100, 150)))
    assert all(r["text"].endswith(" body") for r in rows)

    # re-run: nothing to do; lost partition rewritten byte-identical
    assert len(resumable_text_write(ins, jdir, fmt="jsonl",
                                    reader_batch_size=7).to_pandas()) == 0
    lost = tmp_path / "jsonl" / f"part-{partition_id_for(ins[0])}.jsonl"
    before = lost.read_bytes()
    lost.unlink()
    again = resumable_text_write(ins, jdir, fmt="jsonl",
                                 reader_batch_size=7).to_pandas()
    assert set(again["partition_id"]) == {partition_id_for(ins[0])}
    assert lost.read_bytes() == before

    cdir = str(tmp_path / "csv")
    acks = resumable_text_write(ins, cdir, fmt="csv",
                                columns=["doc_id"],
                                reader_batch_size=13).to_pandas()
    assert acks["n_rows"].sum() == 100
    from pyarrow import csv as pacsv
    got = pa.concat_tables([
        pacsv.read_csv(str(f))
        for f in sorted((tmp_path / "csv").glob("part-*.csv"))])
    assert got.num_rows == 100 and got.column_names == ["doc_id"]
    assert sorted(got["doc_id"].to_pylist()) == sorted(
        list(range(0, 50)) + list(range(100, 150)))

    import pytest as _pytest
    with _pytest.raises(ValueError, match="fmt"):
        resumable_text_write(ins, str(tmp_path / "x"), fmt="tsv")


def test_write_packed_shards_resumable(ray_session, tmp_path):
    """Pack -> partitioned shard write: a re-run after losing partitions
    rewrites ONLY the missing ones (others untouched), the full read-back
    equals a clean one-shot write, and parameter drift is refused."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray

    from t_digest_ray.pipelines.checkpoint import write_packed_shards

    rng = np.random.default_rng(17)
    n = 4000
    t = pa.table({"oid": pa.array(np.arange(n, dtype=np.int64)),
                  "w": pa.array(rng.integers(1, 200, n).astype(np.int64))})
    out_dir = str(tmp_path / "packs")
    ds = ray.data.from_arrow(t).repartition(4)
    acks = write_packed_shards(ds, "oid", "w", budget=512,
                               out_dir=out_dir,
                               shards_per_partition=16).to_pandas()
    assert acks["n_rows"].sum() == n
    parts = sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))
    assert len(parts) == len(acks)

    import pyarrow.parquet as pq

    def read_all():
        fs = sorted(os.path.join(out_dir, f) for f in os.listdir(out_dir)
                    if f.endswith(".parquet"))
        return pa.concat_tables([pq.read_table(f) for f in fs]) \
            .to_pandas().sort_values("oid").reset_index(drop=True)

    full = read_all()

    # lose two partitions; record the others' mtimes
    for victim in parts[1:3]:
        os.unlink(os.path.join(out_dir, victim))
    mtimes = {f: os.path.getmtime(os.path.join(out_dir, f))
              for f in parts if f not in parts[1:3]}
    acks2 = write_packed_shards(ds, "oid", "w", budget=512,
                                out_dir=out_dir,
                                shards_per_partition=16).to_pandas()
    assert sorted(acks2["partition_id"]) == [
        int(v[5:-8]) for v in parts[1:3]]
    for f, m in mtimes.items():
        assert os.path.getmtime(os.path.join(out_dir, f)) == m
    pd.testing.assert_frame_equal(read_all(), full)
    # fully-complete resume is a clean no-op (empty ack dataset)
    acks3 = write_packed_shards(ds, "oid", "w", budget=512,
                                out_dir=out_dir,
                                shards_per_partition=16).to_pandas()
    assert len(acks3) == 0

    with pytest.raises(ValueError, match="packed-shards"):
        write_packed_shards(ds, "oid", "w", budget=1024, out_dir=out_dir,
                            shards_per_partition=16)


def test_sorted_range_write_global_order_and_resume(ray_session, tmp_path):
    """Range-partitioned sort sink: part files in id order read back as the
    globally sorted dataset; resume reuses STORED cutpoints so a rewritten
    partition is byte-identical; param drift is refused."""
    import numpy as np
    import pyarrow as pa
    import ray

    from t_digest_ray.pipelines.checkpoint import sorted_range_write

    rng = np.random.default_rng(41)
    vals = rng.lognormal(0.0, 2.0, 30000)  # heavy skew
    t = pa.table({"value": pa.array(vals),
                  "rid": pa.array(np.arange(30000, dtype=np.int64))})
    out_dir = str(tmp_path / "sorted")
    ds = ray.data.from_arrow(t).repartition(6)
    acks = sorted_range_write(ds, "value", out_dir, n_partitions=8,
                              carry_cols=("rid",)).to_pandas()
    assert acks["n_rows"].sum() == 30000
    assert len(acks) == 8
    # disjoint, ordered ranges; balanced within digest error
    a = acks.sort_values("partition_id").reset_index(drop=True)
    assert (a["vmax"].to_numpy()[:-1] <= a["vmin"].to_numpy()[1:]).all()
    assert np.abs(a["n_rows"].to_numpy() / 30000 - 1 / 8).max() <= 0.03

    def read_concat():
        fs = sorted(f for f in os.listdir(out_dir) if f.endswith(".parquet"))
        return pa.concat_tables([pq.read_table(os.path.join(out_dir, f))
                                 for f in fs])

    full = read_concat()
    v = full["value"].to_numpy()
    assert (np.diff(v) >= 0).all()          # global order
    assert sorted(full["rid"].to_pylist()) == list(range(30000))

    # lose one partition; resume rewrites ONLY it, byte-identical
    victim = sorted(f for f in os.listdir(out_dir)
                    if f.endswith(".parquet"))[3]
    old_bytes = open(os.path.join(out_dir, victim), "rb").read()
    os.unlink(os.path.join(out_dir, victim))
    acks2 = sorted_range_write(ds, "value", out_dir, n_partitions=8,
                               carry_cols=("rid",)).to_pandas()
    assert list(acks2["partition_id"]) == [3]
    # content identical (cutpoints reused from the manifest)
    new = pq.read_table(os.path.join(out_dir, victim))
    old = pq.read_table(pa.BufferReader(old_bytes))
    assert new.equals(old)

    # fully-complete resume is a clean no-op (empty ack dataset)
    acks3 = sorted_range_write(ds, "value", out_dir, n_partitions=8,
                               carry_cols=("rid",)).to_pandas()
    assert len(acks3) == 0

    with pytest.raises(ValueError, match="sort dir"):
        sorted_range_write(ds, "value", out_dir, n_partitions=4,
                           carry_cols=("rid",))
    with pytest.raises(ValueError, match="sort dir"):
        sorted_range_write(ds, "value", out_dir, n_partitions=8)


def test_compact_shards_preserves_content(ray_session, tmp_path):
    """Compaction reduces file count, preserves every per-key
    fingerprint, and is idempotent via the _SUCCESS marker."""
    import os

    import numpy as np
    import ray.data as rd

    from t_digest_ray.pipelines.checkpoint import compact_shards

    rng = np.random.default_rng(53)
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], 2000),
        "u": rng.integers(0, 1 << 30, 2000).astype(np.int64),
        "c": rng.integers(0, 10**6, 2000).astype(np.int64)})
    src = tmp_path / "src"
    dst = tmp_path / "dst"
    src.mkdir(); dst.mkdir()
    rd.from_pandas(df).repartition(10).write_parquet(str(src))
    assert len([f for f in os.listdir(src)
                if f.endswith(".parquet")]) == 10

    out = compact_shards(str(src), str(dst), 3, "k", ["u", "c"])
    assert out["checksum_match"].all()
    assert out["files_reduced"].all()
    assert out["n_rows"].sum() == 2000

    mtime = os.path.getmtime(dst / "_SUCCESS")
    out2 = compact_shards(str(src), str(dst), 3, "k", ["u", "c"])
    assert os.path.getmtime(dst / "_SUCCESS") == mtime  # skipped write
    pd.testing.assert_frame_equal(
        out.sort_values("k").reset_index(drop=True),
        out2.sort_values("k").reset_index(drop=True))


def test_compact_shards_rerun_after_lost_marker(ray_session, tmp_path):
    """A compaction whose _SUCCESS marker never landed is redone in full:
    the rerun replaces the first run's files instead of adding a second
    set beside them."""
    import os

    import numpy as np
    import ray.data as rd

    from t_digest_ray.pipelines.checkpoint import compact_shards

    rng = np.random.default_rng(59)
    df = pd.DataFrame({"k": rng.choice(["a", "b", "c"], 1500),
                       "u": rng.integers(0, 1 << 30, 1500),
                       "c": rng.integers(0, 10**6, 1500)})
    src, dst = tmp_path / "src", tmp_path / "dst"
    rd.from_pandas(df).repartition(8).write_parquet(str(src))

    def files():
        return sorted(f for f in os.listdir(dst) if f.endswith(".parquet"))

    compact_shards(str(src), str(dst), 3, "k", ["u", "c"])
    first = files()
    os.remove(dst / "_SUCCESS")  # the run "died" here
    out = compact_shards(str(src), str(dst), 3, "k", ["u", "c"])
    assert os.path.exists(dst / "_SUCCESS")
    assert len(files()) == len(first) <= 3
    assert out["files_reduced"].all() and out["checksum_match"].all()
    assert out["n_rows"].sum() == 1500
    assert not [f for f in os.listdir(tmp_path) if ".tmp-" in f]


def test_ivm_refresh_merges_base_and_delta(ray_session, tmp_path, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.checkpoint import incremental_view_refresh

    n = 2000
    df = pd.DataFrame({
        "k": rng.choice(["a", "b"], size=n),
        "ts": pd.to_datetime(rng.integers(0, 40 * 86400, n), unit="s"),
        "value": rng.integers(0, 10000, n) / 100.0})
    ds = rd.from_pandas(df)
    out1 = incremental_view_refresh(ds, "k", "ts", "value",
                                    base_days=20,
                                    cache_root=str(tmp_path),
                                    cache_tag="t1")
    assert (out1["matches_full"] == 1).all()
    cents = np.floor(df["value"].to_numpy() * 100 + 0.5).astype(np.int64)
    for k in ("a", "b"):
        m = (df["k"] == k).to_numpy()
        row = out1[out1["k"] == k]
        assert int(row["n_rows"].iloc[0]) == int(m.sum())
        assert int(row["sum_cents"].iloc[0]) == int(cents[m].sum())
    # second refresh reuses the persisted base (marker present)
    import os
    assert os.path.exists(str(tmp_path / "ivm-t1" / "_SUCCESS"))
    out2 = incremental_view_refresh(ds, "k", "ts", "value",
                                    base_days=20,
                                    cache_root=str(tmp_path),
                                    cache_tag="t1")
    pd.testing.assert_frame_equal(out1, out2)


def test_ivm_detects_new_delta_rows(ray_session, tmp_path, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.checkpoint import incremental_view_refresh

    df = pd.DataFrame({
        "k": ["a"] * 100,
        "ts": pd.to_datetime(np.arange(100) * 86400 // 4, unit="s"),
        "value": np.full(100, 1.0)})
    incremental_view_refresh(rd.from_pandas(df), "k", "ts", "value",
                             base_days=10, cache_root=str(tmp_path),
                             cache_tag="t2")
    # append delta-window rows only: base stays frozen, merge must
    # still equal the full recompute over the NEW dataset
    extra = pd.DataFrame({
        "k": ["a"] * 50,
        "ts": pd.to_datetime(np.full(50, 20 * 86400), unit="s"),
        "value": np.full(50, 2.0)})
    ds2 = rd.from_pandas(pd.concat([df, extra], ignore_index=True))
    out = incremental_view_refresh(ds2, "k", "ts", "value",
                                   base_days=10,
                                   cache_root=str(tmp_path),
                                   cache_tag="t2")
    assert (out["matches_full"] == 1).all()
    assert int(out["n_rows"].iloc[0]) == 150
