"""KLL± turnstile sketch (state/kllpm.py) and its validation gate."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from t_digest_ray.state.kllpm import KllPM


@pytest.fixture(scope="module")
def turnstile_data():
    rng = np.random.default_rng(3)
    vals = rng.normal(100, 20, 40000)
    del_mask = rng.random(40000) < 0.2
    return vals, del_mask


def test_kllpm_net_quantiles_within_bound(turnstile_data):
    vals, del_mask = turnstile_data
    sk = KllPM(200)
    sk.update_batch(vals)
    sk.update_batch(vals[del_mask], -np.ones(int(del_mask.sum())))
    net = np.sort(vals[~del_mask])
    assert sk.size == len(net)
    assert sk.n_abs == len(vals) + int(del_mask.sum())
    for q in (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        est = sk.quantile(q)
        r = np.searchsorted(net, est) / len(net)
        assert abs(r - q) <= sk.net_rank_bound(), (q, abs(r - q))


def test_kllpm_merge_matches_single_and_roundtrips(turnstile_data):
    vals, del_mask = turnstile_data
    parts = []
    for sl in (slice(0, 13000), slice(13000, 27000), slice(27000, None)):
        sk = KllPM(200)
        v, m = vals[sl], del_mask[sl]
        sk.update_batch(v)
        sk.update_batch(v[m], -np.ones(int(m.sum())))
        parts.append(sk)
    merged = KllPM(200).merge(*parts)
    assert merged.size == int((~del_mask).sum())
    rt = KllPM.from_bytes(merged.to_bytes())
    for q in (0.1, 0.5, 0.9):
        assert rt.quantile(q) == merged.quantile(q)
    net = np.sort(vals[~del_mask])
    for q in (0.1, 0.5, 0.9):
        r = np.searchsorted(net, merged.quantile(q)) / len(net)
        assert abs(r - q) <= merged.net_rank_bound()


def test_kllpm_rank_is_net(turnstile_data):
    vals, del_mask = turnstile_data
    sk = KllPM(200)
    sk.update_batch(vals)
    sk.update_batch(vals[del_mask], -np.ones(int(del_mask.sum())))
    net = np.sort(vals[~del_mask])
    x = float(np.median(net))
    exact = np.searchsorted(net, x, side="left") / len(net)
    assert abs(sk.rank(x) - exact) <= sk.net_rank_bound()


def test_turnstile_gate_trips_when_deletes_ignored(ray_session):
    """Feeding the op column as all-inserts (the regression the gate
    exists for) must flip within_bound: the net count check fails."""
    import ray.data as rd

    from t_digest_ray.pipelines.validation import (
        turnstile_quantile_bound_check)

    rng = np.random.default_rng(8)
    df = pd.DataFrame({"k": ["a"] * 6000,
                       "x": rng.normal(50, 10, 6000)})
    dele = df.sample(frac=0.25, random_state=1)
    stream_ok = pd.concat([df.assign(op=1), dele.assign(op=-1)])
    net = df.drop(dele.index)

    good = turnstile_quantile_bound_check(
        rd.from_pandas(stream_ok).repartition(4),
        rd.from_pandas(net).repartition(4), "x", "op", "k") \
        .to_pandas()
    assert good["within_bound"].all()

    stream_bad = stream_ok.assign(op=1)  # deletions dropped on the floor
    bad = turnstile_quantile_bound_check(
        rd.from_pandas(stream_bad).repartition(4),
        rd.from_pandas(net).repartition(4), "x", "op", "k") \
        .to_pandas()
    assert not bad["within_bound"].any()


def test_config_route_turnstile(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import pyarrow as pa

    from t_digest_ray.config import JobConfig, run_job

    rng = np.random.default_rng(12)
    vals = rng.normal(10, 2, 5000)
    dele = rng.random(5000) < 0.3
    df = pd.concat([
        pd.DataFrame({"k": "g", "x": vals, "op": 1}),
        pd.DataFrame({"k": "g", "x": vals[dele], "op": -1})])
    path = str(tmp_path / "stream.parquet")
    pq.write_table(pa.Table.from_pandas(df, preserve_index=False), path)

    out = run_job(JobConfig(pipeline="turnstile", input=path,
                            columns=["k", "x", "op"],
                            key="k", value_col="x",
                            params={"k": 200})) \
        .to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["n_net"] == int((~dele).sum())
    net = np.sort(vals[~dele])
    rk = np.searchsorted(net, r["q50"]) / len(net)
    assert abs(rk - 0.5) < 0.05
