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
