"""Distributed k-means (pipelines/clustering.py): exactness, determinism
across parallelism, planted-cluster recovery."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from t_digest_ray.pipelines.clustering import (GRID, assign_ids,
                                               centroid_update,
                                               kmeans_cluster_stats,
                                               kmeans_fit_predict)

SF = "/root/testdata/sf0.001"


def _emb_ds(ray, rows):
    import ray.data as rd
    return rd.from_arrow(pa.table(rows))


def test_assign_ids_exact_and_tie_break():
    q = np.array([[0, 0], [10, 0], [5, 0]], dtype=np.int64)
    cents = np.array([[0, 0], [10, 0]], dtype=np.int64)
    a = assign_ids(q, cents)
    # midpoint (5,0) is equidistant -> smallest cluster id wins
    assert a.tolist() == [0, 1, 0]


def test_assign_ids_matches_bruteforce(rng):
    q = rng.integers(-GRID, GRID, size=(200, 16)).astype(np.int64)
    c = rng.integers(-GRID, GRID, size=(7, 16)).astype(np.int64)
    d2 = ((q[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
    assert np.array_equal(assign_ids(q, c), np.argmin(d2, axis=1))


def test_centroid_update_half_up_and_empty():
    sums = np.array([[7], [-7], [0]], dtype=np.int64)
    counts = np.array([2, 2, 0], dtype=np.int64)
    prev = np.array([[100], [100], [42]], dtype=np.int64)
    out = centroid_update(sums, counts, prev)
    # 7/2 = 3.5 -> 4 (half-up); -7/2 = -3.5 -> -3 (half-up = toward +inf)
    assert out[:, 0].tolist() == [4, -3, 42]


def test_kmeans_planted_recovery(ray_session):
    """Three well-separated planted blobs must be recovered exactly and
    deterministically regardless of row order."""
    rng = np.random.default_rng(7)
    centers = np.array([[-0.4] * 8, [0.0] * 8, [0.4] * 8])
    rows_id, rows_emb, truth = [], [], []
    for i in range(240):
        g = i % 3
        rows_id.append(i)
        truth.append(g)
        rows_emb.append((centers[g]
                         + rng.normal(0, 0.01, size=8)).astype(np.float32))
    ds = _emb_ds(ray_session, {
        "vec_id": pa.array(rows_id, type=pa.int64()),
        "embedding": pa.array([list(map(float, e)) for e in rows_emb],
                              type=pa.list_(pa.float32()))})
    assigned, cents = kmeans_fit_predict(
        ds, "embedding", "vec_id", k=3, dim=8, iters=5)
    df = assigned.to_pandas().sort_values("vec_id").reset_index(drop=True)
    # each planted blob maps to exactly one cluster id (a bijection)
    tab = pd.crosstab(pd.Series(truth), df["cluster"])
    assert (tab.to_numpy() > 0).sum() == 3
    assert sorted(tab.max(axis=1)) == [80, 80, 80]
    # recovered centroids sit on the planted grid points within noise
    means = np.sort(cents[:, 0]) / GRID
    assert np.allclose(means, [-0.4, 0.0, 0.4], atol=0.01)


def test_kmeans_prototypes_are_closest(ray_session):
    """Prototype selection returns exactly the m smallest distances per
    cluster, verified against a brute-force recompute of the full
    assignment."""
    import ray.data as rd
    from t_digest_ray.pipelines.clustering import kmeans_prototypes

    ds = rd.read_parquet(f"{SF}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    m = 5
    protos = kmeans_prototypes(ds, "embedding", "vec_id",
                               k=4, dim=64, iters=2, m=m).to_pandas()
    assigned, _ = kmeans_fit_predict(
        rd.read_parquet(f"{SF}/embeddings.parquet",
                        columns=["vec_id", "embedding"]),
        "embedding", "vec_id", k=4, dim=64, iters=2)
    full = assigned.to_pandas()
    for c, grp in full.groupby("cluster"):
        want = (grp.sort_values(["d2", "vec_id"]).head(m)
                [["vec_id", "d2"]].reset_index(drop=True))
        got = (protos[protos["cluster_id"] == c]
               .sort_values(["d2", "vec_id"])[["vec_id", "d2"]]
               .reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want)


def test_kmeans_stats_parallelism_invariant(ray_session):
    """Identical value surface at different block layouts (the project's
    north-star determinism invariant) on the real embeddings table."""
    import ray.data as rd

    def run(parallelism):
        ds = rd.read_parquet(f"{SF}/embeddings.parquet",
                             columns=["vec_id", "embedding"],
                             override_num_blocks=parallelism)
        out = kmeans_cluster_stats(ds, "embedding", "vec_id",
                                   k=4, dim=64, iters=2)
        return (out.to_pandas().sort_values("cluster_id")
                .reset_index(drop=True))

    a, b = run(1), run(7)
    pd.testing.assert_frame_equal(a, b)
    assert a["n_vecs"].sum() == 500
    assert a["sum_id"].dtype == np.int64


def test_kmeans_spill_path_identical(ray_session, tmp_path):
    """Forcing materialize_budget_rows below the corpus size routes the
    quantized table through the parquet spill path; assignments and
    centroids must be bit-identical to the materialize path (VERDICT r4
    item 3 budget switch)."""
    rng = np.random.default_rng(11)
    n = 180
    ds_rows = {
        "vec_id": pa.array(list(range(n)), type=pa.int64()),
        "embedding": pa.array(
            [list(map(float, rng.normal(0, 0.3, 6))) for _ in range(n)],
            type=pa.list_(pa.float32()))}
    ds1 = _emb_ds(ray_session, ds_rows)
    ds2 = _emb_ds(ray_session, ds_rows)
    a_mat, c_mat = kmeans_fit_predict(ds1, "embedding", "vec_id",
                                      k=4, dim=6, iters=3)
    a_sp, c_sp = kmeans_fit_predict(
        ds2, "embedding", "vec_id", k=4, dim=6, iters=3,
        materialize_budget_rows=10,
        spill_dir=str(tmp_path / "kmeans_spill"))
    assert np.array_equal(c_mat, c_sp)
    d1 = a_mat.to_pandas().sort_values("vec_id").reset_index(drop=True)
    d2 = a_sp.to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert d1.equals(d2)
    import os
    assert os.listdir(tmp_path / "kmeans_spill")  # spill actually used


def test_kmeans_spill_dir_reused_across_calls(ray_session, tmp_path):
    """Two spilled runs on one caller-given ``spill_dir``: the second
    reads back only its own part files, so each id is assigned once and
    the answer equals the first run's."""
    rng = np.random.default_rng(3)
    n = 60
    rows = {
        "vec_id": pa.array(list(range(n)), type=pa.int64()),
        "embedding": pa.array(
            [list(map(float, rng.normal(0, 0.3, 4))) for _ in range(n)],
            type=pa.list_(pa.float32()))}
    spill = str(tmp_path / "spill")
    outs = []
    for _ in range(2):
        assigned, _ = kmeans_fit_predict(
            _emb_ds(ray_session, rows), "embedding", "vec_id", k=3, dim=4,
            iters=2, materialize_budget_rows=0, spill_dir=spill)
        outs.append(assigned.to_pandas().sort_values("vec_id")
                    .reset_index(drop=True))
    assert outs[1]["vec_id"].tolist() == list(range(n))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_embedding_diversity_exact_small_case(ray_session):
    """Hand-checkable 3-vector case: identical vectors give avg cos 1.0
    (up to grid quantization), orthogonal give 0; singleton key -> 0.0."""
    import pandas as pd
    import ray

    from t_digest_ray.pipelines.clustering import embedding_diversity

    dim = 4
    e1 = [1.0, 0.0, 0.0, 0.0]
    e2 = [0.0, 1.0, 0.0, 0.0]
    df = pd.DataFrame({
        "label": [0, 0, 1, 1, 2],
        "embedding": [e1, e1, e1, e2, e1],
    })
    ds = ray.data.from_pandas(df)
    out = embedding_diversity(ds, "embedding", "label", dim=dim)
    out = out.set_index("label")
    assert out.loc[0, "avg_pairwise_cos"] == 1.0   # identical pair
    assert out.loc[1, "avg_pairwise_cos"] == 0.0   # orthogonal pair
    assert out.loc[2, "avg_pairwise_cos"] == 0.0   # singleton convention
    assert out.loc[0, "n_vecs"] == 2


def test_embedding_diversity_batch_split_invariant(ray_session, rng):
    """The exact-integer contract: any batch split yields the identical
    doubles (partials are exact, fold is bignum)."""
    import pandas as pd
    import ray

    from t_digest_ray.pipelines.clustering import embedding_diversity

    n, dim = 300, 8
    emb = rng.normal(size=(n, dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    df = pd.DataFrame({"label": rng.integers(0, 5, n),
                       "embedding": list(emb)})
    ds = ray.data.from_pandas(df)
    a = embedding_diversity(ds, "embedding", "label", dim=dim,
                            batch_size=17).sort_values("label")
    b = embedding_diversity(ds, "embedding", "label", dim=dim,
                            batch_size=300).sort_values("label")
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))
    # sanity: unit vectors -> avg pairwise cos in [-1, 1]
    assert a["avg_pairwise_cos"].between(-1.0, 1.0).all()


def test_scalar_quantization_stats_exact(ray_session):
    """Int8 quantization stats match a local numpy replay, including a
    planted constant dimension (codes to 0) and exact-extreme values,
    at two parallelism levels."""
    import ray.data as rd

    from t_digest_ray.pipelines.clustering import scalar_quantization_stats

    rng = np.random.default_rng(17)
    n, d = 400, 8
    x = rng.normal(size=(n, d)).astype(np.float32)
    x[:, 3] = 1.25                       # constant dim -> code 0
    lab = (np.arange(n) % 5).astype(np.int32)
    df = pd.DataFrame({"embedding": list(x), "label": lab})

    xd = x.astype(np.float64)
    mn, mx = xd.min(0), xd.max(0)
    span = mx - mn
    scale = np.where(span > 0, 255.0 / np.where(span > 0, span, 1.0), 0.0)
    code = np.clip(np.floor((xd - mn) * scale + 0.5), 0, 255) \
        .astype(np.int64)
    want = (pd.DataFrame({"label": lab,
                          "sum_codes": code.sum(1),
                          "n_extreme": ((code == 0) | (code == 255))
                          .sum(1).astype(np.int64)})
            .groupby("label").sum().reset_index())

    for parts in (1, 5):
        ds = rd.from_pandas(df).repartition(parts)
        got = (scalar_quantization_stats(ds, "embedding", "label")
               .to_pandas().sort_values("label").reset_index(drop=True))
        assert (got["n_vals"] == d * n // 5).all()
        pd.testing.assert_series_equal(
            got["sum_codes"], want["sum_codes"], check_names=False)
        pd.testing.assert_series_equal(
            got["n_extreme"], want["n_extreme"], check_names=False)


def test_pq_codebook_stats_local_replay(ray_session):
    """PQ block codebooks match a local numpy replay of the same
    exact-grid Lloyd runs per sub-vector, at two parallelism levels."""
    import ray.data as rd

    from t_digest_ray.pipelines.clustering import (
        GRID,
        assign_ids,
        centroid_update,
        pq_codebook_stats,
    )

    rng = np.random.default_rng(31)
    n, dim, blocks, k, iters = 120, 8, 2, 4, 2
    x = rng.normal(size=(n, dim)).astype(np.float32)
    ids = np.arange(n, dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": list(x)})

    sub = dim // blocks
    q = np.floor(x.astype(np.float64) * GRID + 0.5).astype(np.int64)
    want = {}
    for b in range(blocks):
        qb = q[:, b * sub:(b + 1) * sub]
        cents = qb[:k].copy()           # k smallest ids are 0..k-1
        for _ in range(iters):
            a = assign_ids(qb, cents)
            sums = np.zeros((k, sub), dtype=np.int64)
            cnts = np.zeros(k, dtype=np.int64)
            np.add.at(sums, a, qb)
            np.add.at(cnts, a, 1)
            cents = centroid_update(sums, cnts, cents)
        a = assign_ids(qb, cents)
        for c in range(k):
            m = a == c
            if m.any():
                want[(b, c)] = (int(m.sum()), int(ids[m].sum()))

    for parts in (1, 4):
        ds = rd.from_pandas(df).repartition(parts)
        got = (pq_codebook_stats(ds, "embedding", "vec_id", dim=dim,
                                 n_blocks=blocks, k=k, iters=iters)
               .to_pandas())
        got_map = {(r.block, r.code): (r.n_vecs, r.sum_id)
                   for r in got.itertuples()}
        assert got_map == want


def test_jl_projection_stats_local_replay(ray_session):
    """JL ±1 projection stats match the local integer replay and are
    layout-invariant; the sign matrix regenerates identically."""
    import ray.data as rd

    from t_digest_ray.functions.hashing import splitmix64
    from t_digest_ray.pipelines.clustering import GRID, jl_projection_stats

    rng = np.random.default_rng(37)
    n, dim = 200, 8
    x = rng.normal(size=(n, dim)).astype(np.float32)
    lab = (np.arange(n) % 4).astype(np.int32)
    df = pd.DataFrame({"embedding": list(x), "label": lab})

    ij = (np.arange(dim, dtype=np.uint64)[:, None] * np.uint64(131)
          + np.arange(16, dtype=np.uint64)[None, :] * np.uint64(17)
          + np.uint64(12345))
    r = np.where(splitmix64(ij.ravel()).reshape(dim, 16)
                 >> np.uint64(63) == 1, 1, -1).astype(np.int64)
    q = np.floor(x.astype(np.float64) * GRID + 0.5).astype(np.int64)
    p = q @ r

    for parts in (1, 6):
        got = (jl_projection_stats(
            rd.from_pandas(df).repartition(parts), "embedding", "label",
            dim=dim, proj_dim=16).to_pandas()
            .sort_values("label").reset_index(drop=True))
        for j in range(3):
            want_sa = pd.Series(np.abs(p[:, j])).groupby(lab).sum()
            want_np = pd.Series((p[:, j] > 0).astype(int)) \
                .groupby(lab).sum()
            np.testing.assert_array_equal(
                got[f"sum_abs_p{j}"].to_numpy(), want_sa.to_numpy())
            np.testing.assert_array_equal(
                got[f"n_pos_p{j}"].to_numpy(), want_np.to_numpy())


def test_pq_adc_topk_matches_local_replay(ray_session):
    """ADC search matches the local replay (codes, LUT, sum), with the
    min-id query vector and (distance, id) tie-breaks."""
    import ray.data as rd

    from t_digest_ray.pipelines.clustering import (
        GRID,
        assign_ids,
        centroid_update,
        pq_adc_topk,
    )

    rng = np.random.default_rng(43)
    n, dim, blocks, k, iters, top = 90, 8, 2, 4, 2, 7
    x = rng.normal(size=(n, dim)).astype(np.float32)
    ids = np.arange(100, 100 + n, dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": list(x)})

    sub = dim // blocks
    q = np.floor(x.astype(np.float64) * GRID + 0.5).astype(np.int64)
    qv = q[0]                                  # min id row
    dist = np.zeros(n, dtype=np.int64)
    for b in range(blocks):
        qb = q[:, b * sub:(b + 1) * sub]
        cents = qb[:k].copy()
        for _ in range(iters):
            a = assign_ids(qb, cents)
            sums = np.zeros((k, sub), dtype=np.int64)
            cnts = np.zeros(k, dtype=np.int64)
            np.add.at(sums, a, qb)
            np.add.at(cnts, a, 1)
            cents = centroid_update(sums, cnts, cents)
        a = assign_ids(qb, cents)
        diff = qv[b * sub:(b + 1) * sub][None, :] - cents
        lut = np.einsum("kd,kd->k", diff, diff)
        dist += lut[a]
    order = np.lexsort((ids, dist))[:top]

    got = pq_adc_topk(rd.from_pandas(df).repartition(3),
                      "embedding", "vec_id", dim=dim, n_blocks=blocks,
                      k=k, iters=iters, top=top)
    np.testing.assert_array_equal(got["vec_id"].to_numpy(), ids[order])
    np.testing.assert_array_equal(got["adc_d2"].to_numpy(),
                                  dist[order])


def test_gram_power_iteration_known_direction(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.clustering import gram_power_iteration

    # quantization normalizes each dim to [0,255], so magnitude alone
    # cannot dominate; a dim whose CODES sit at 255 for almost every
    # row (one outlier pins the min) carries the largest Gram mass and
    # the eigenvector must load on dim 1 (1-based) hardest.
    n, d = 300, 8
    X = rng.uniform(0.0, 1.0, (n, d)).astype(np.float32)
    X[:, 0] = 1.0
    X[0, 0] = 0.0
    df = pd.DataFrame({"embedding": [row for row in X]})
    out = gram_power_iteration(rd.from_pandas(df), "embedding",
                               rounds=3, top=3)
    assert int(out["dim"].iloc[0]) == 1
    assert int(out["v_scaled"].iloc[0]) == 10**6
    assert int(out["eig_scaled"].iloc[0]) > 0


def test_gram_power_iteration_layout_invariant(ray_session, rng):
    import ray.data as rd

    from t_digest_ray.pipelines.clustering import gram_power_iteration

    n, d = 200, 6
    X = rng.standard_normal((n, d)).astype(np.float32)
    df = pd.DataFrame({"embedding": [row for row in X]})
    a = gram_power_iteration(rd.from_pandas(df), "embedding", top=6)
    b = gram_power_iteration(rd.from_pandas(df).repartition(13),
                             "embedding", top=6)
    pd.testing.assert_frame_equal(a, b)
