"""Pipelines finish on a one-CPU cluster.

Each map is a task map, so no stage holds a CPU between calls: a
one-CPU cluster runs ``heavy_hitters`` and a ``bucketed_join`` whose
bucket count exceeds the CPUs to the end. The run goes in a subprocess
with its own ``ray.init(num_cpus=1)`` (the session fixture's cluster has
4 CPUs) under a timeout, and its whole process group is killed if it
hangs.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

REPO = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import json, sys
import numpy as np, pandas as pd, ray, ray.data as rd

ray.init(address="local", num_cpus=1, include_dashboard=False,
         object_store_memory=100 * 1024 ** 2, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
from t_digest_ray.pipelines.heavy import heavy_hitters
from t_digest_ray.stages.bucketed import bucketed_join

sf, root = sys.argv[1], sys.argv[2]
# key i occurs 20 - i times, shuffled over 4 blocks
keys = np.repeat(np.arange(20), np.arange(20, 0, -1)).astype(np.int64)
df = pd.DataFrame({"k": np.random.default_rng(3).permutation(keys)})
hh = heavy_hitters(rd.from_pandas(np.array_split(df, 4)), "k",
                   k=3).to_pandas()
joined = bucketed_join(sf, "probe", sf, "build", probe_key="pk",
                       build_key="bk", probe_cols=["v"],
                       build_cols=["attr"], n_buckets=4,
                       root=root).to_pandas()
print(json.dumps({
    "hh": hh[["k", "est_count"]].values.tolist(),
    "join": joined[["pk", "v", "attr"]].sort_values(["pk", "v"])
    .values.tolist()}))
ray.shutdown()
"""


def test_heavy_hitters_and_bucketed_join_finish_on_one_cpu(tmp_path):
    rng = np.random.default_rng(7)
    build = pd.DataFrame({"bk": np.arange(40, dtype=np.int64),
                          "attr": [f"a{i % 3}" for i in range(40)]})
    probe = pd.DataFrame({
        "pk": rng.integers(0, 60, 300).astype(np.int64),
        "v": rng.integers(0, 100, 300).astype(np.int64)})
    sf = tmp_path / "sf"
    sf.mkdir()
    pq.write_table(pa.Table.from_pandas(probe), sf / "probe.parquet")
    pq.write_table(pa.Table.from_pandas(build), sf / "build.parquet")

    env = dict(os.environ, PYTHONPATH=str(REPO))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, str(sf), str(tmp_path / "bkts")],
        cwd=str(REPO), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError("one-CPU run did not finish in 90 s")
    assert proc.returncode == 0, err[-2000:]
    got = json.loads(out.strip().splitlines()[-1])

    assert got["hh"] == [[0, 20], [1, 19], [2, 18]]
    want = (probe.merge(build, left_on="pk", right_on="bk")
            [["pk", "v", "attr"]].sort_values(["pk", "v"]))
    assert got["join"] == want.values.tolist()


_CKPT_SCRIPT = r"""
import json, os, sys
import pyarrow.parquet as pq, ray, ray.data as rd

ray.init(address="local", num_cpus=1, include_dashboard=False,
         object_store_memory=100 * 1024 ** 2, logging_level="ERROR")
rd.DataContext.get_current().enable_progress_bars = False
from t_digest_ray.pipelines.checkpoint import (partition_id_for,
                                               run_checkpointed)
from t_digest_ray.pipelines.quantiles import tdigest_spec

files, root = sys.argv[1:-1], sys.argv[-1]
spec = tdigest_spec()
packed = run_checkpointed(files, spec, "v", "k", f"{root}/packed")
for f in files:  # the reference: one run, so one task, per file
    run_checkpointed([f], spec, "v", "k", f"{root}/single")
lost = files[1::2]
for f in lost:
    os.remove(f"{root}/packed/part-{partition_id_for(f)}.parquet")
resumed = run_checkpointed(files, spec, "v", "k", f"{root}/packed")
print(json.dumps({"processed": [packed.n_processed, resumed.n_processed],
                  "lost": len(lost)}))
ray.shutdown()
"""


def test_checkpoint_packs_files_per_cpu_byte_identical(tmp_path):
    """At one CPU ``run_checkpointed`` runs its files in one task, and
    every part holds the rows a one-file run writes (all columns but the
    timing ``wall_ms``), sketch bytes included; a resume after losing
    half the parts reprocesses exactly those."""
    rng = np.random.default_rng(11)
    files = []
    for i in range(5):
        n = int(rng.integers(500, 3000))
        path = tmp_path / f"in-{i}.parquet"
        pq.write_table(pa.table({
            "k": pa.array([f"u{j}" for j in rng.integers(0, 40, n)]),
            "v": rng.lognormal(0, 1, n)}), path)
        files.append(str(path))
    env = dict(os.environ, PYTHONPATH=str(REPO))
    proc = subprocess.Popen(
        [sys.executable, "-c", _CKPT_SCRIPT, *files, str(tmp_path)],
        cwd=str(REPO), env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=90)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError("one-CPU checkpoint run did not finish in 90 s")
    assert proc.returncode == 0, err[-2000:]
    got = json.loads(out.strip().splitlines()[-1])
    assert got["processed"] == [5, got["lost"]] and got["lost"] == 2

    def parts(d):
        return {p.name: pq.read_table(p).drop(["wall_ms"])
                for p in sorted((tmp_path / d).glob("part-*.parquet"))}

    packed, single = parts("packed"), parts("single")
    assert list(packed) == list(single) and len(packed) == 5
    for name, t in single.items():
        assert packed[name].equals(t), name
