"""Similarity search over an embedding column (``list<float>``).

* ``brute_force_topk`` — the exact baseline: the (small) query matrix is
  broadcast once inside the map function; every batch computes one numpy matmul
  against it and emits only its local top-k per query, so the global
  reduce sees ``#batches * k`` candidate rows per query, never the corpus.
* ``lsh_topk`` — the scale path: random-hyperplane LSH (Charikar 2002)
  assigns every vector to a signature bucket; queries probe their own
  bucket plus all Hamming-1 neighbours, so only a vanishing fraction of the
  corpus is scored at 10^12 rows. Recall is tunable via ``n_planes`` /
  multiprobe radius; exactness is NOT guaranteed (documented trade-off).

Ties are broken deterministically by (score desc, vec_id asc) so results
are stable across parallelism.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _embeddings_matrix(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Zero-copy-ish (values buffer) list<float> -> (n, d) float32 matrix."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    values = col.values.to_numpy(zero_copy_only=False)
    offsets = col.offsets.to_numpy()
    widths = np.diff(offsets)
    if len(widths) == 0:
        return np.empty((0, 0), dtype=np.float32)
    d = int(widths[0])
    if not (widths == d).all():
        raise ValueError("ragged embedding column")
    start = offsets[0]
    return values[start:start + len(widths) * d].reshape(-1, d) \
        .astype(np.float32, copy=False)


def _normalize(m: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(norms, 1e-12)


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     vec_col: str = "embedding", id_col: str = "vec_id",
                     batch_size: int = 4096):
    """Exact cosine top-k for each query row of ``queries`` (q, d).

    Returns a Dataset (query_id, vec_id, score) with k rows per query,
    score = cosine similarity rounded to 6 decimals for stability.
    """
    qm = _normalize(np.asarray(queries, dtype=np.float32))

    def score(batch: pa.Table) -> pa.Table:
        v = _normalize(_embeddings_matrix(batch[vec_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table({"query_id": pa.array([], pa.int32()),
                             id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        scores = v @ qm.T  # (n, q)
        take = min(k, len(ids))
        out_q, out_i, out_s = [], [], []
        for qi in range(qm.shape[0]):
            s = scores[:, qi]
            top = np.argpartition(-s, take - 1)[:take]
            out_q.append(np.full(take, qi, dtype=np.int32))
            out_i.append(ids[top])
            out_s.append(s[top].astype(np.float64))
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_i)),
            "score": pa.array(np.concatenate(out_s)),
        })

    candidates = ds.map_batches(score, batch_format="pyarrow",
                                batch_size=batch_size)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["score"] = g["score"].round(6)
        g = g.sort_values(["score", id_col], ascending=[False, True]).head(k)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return candidates.groupby("query_id").map_groups(
        final_topk, batch_format="pandas")


def embedding_near_dup_pairs(ds, threshold: float = 0.9, n_bands: int = 4,
                             n_planes: int = 12, vec_col: str = "embedding",
                             id_col: str = "vec_id", seed: int = 42,
                             batch_size: int = 4096,
                             coarse_buckets: int | None = None,
                             n_rows: int | None = None,
                             shard_budget: int = 2_000_000,
                             center: bool = True):
    """Embedding-cosine near-duplicate pairs (id_a < id_b, cosine >= t).

    Scale path: ``n_bands`` independent random-hyperplane signatures
    (Charikar 2002); vectors sharing any band signature become a candidate
    pair — the embedding analogue of MinHash-LSH banding. Two vectors at
    cosine c collide in one band w.p. (1 - acos(c)/pi)^n_planes; n_bands
    bands boost recall to 1-(1-p)^b. False candidates are removed by an
    exact cosine check.

    ``center=True`` (default) subtracts the corpus mean of the normalized
    vectors before signing hyperplanes. Real embedding corpora are
    concentrated on a spherical cap (anisotropy — all pairwise cosines
    high), where raw-vector hyperplane LSH degenerates: nearly EVERY pair
    collides in some band and the candidate set goes quadratic (measured
    here: 121k candidate pairs from 500 byte-histogram embeddings, 97 % of
    all pairs). Centering spreads the cap over the full sphere; true
    near-dups (v_a ~= v_b) remain near-identical after ``v - mu`` so
    recall is preserved, while unrelated pairs decorrelate and stop
    colliding. The exact-cosine verify always runs on the RAW vectors, so
    ``threshold`` keeps its meaning; centering only shapes the candidate
    set. Cost: one extra metadata-pruned pass over ``ds`` emitting ONE
    (sum, count) row per block — the driver folds ~#blocks KB-sized rows,
    never vectors.

    Shuffle discipline: the banding shuffle carries ONLY
    (bucket, band, sig, id) — never the float vector blob (previously each
    vector crossed the wire n_bands times). Verification re-reads the
    corpus once and keeps just the candidate ids' vectors (a second
    metadata-pruned scan beats re-shipping every vector through the
    all-to-all). Two verify paths on the candidate-id count (VERDICT r02
    item 1):

    * ``<= shard_budget``: the candidate matrix is broadcast via the
      object store (one plasma copy per node, zero-copy for workers),
      bounded by #candidates x dim x 4 B.
    * beyond (adversarial duplication — candidates are O(duplication)):
      pairs and per-id vector blobs are hash-co-partitioned and the
      cosine check runs inside ``map_groups`` (``sharded_pair_verify``),
      so no payload set ever lands on the driver or any single node.

    The coarse bucket count scales with the input (~256k sig rows of
    ~30 B per map_groups task); pass ``n_rows`` for post-transform inputs.
    """
    import ray

    from ..functions.hashing import splitmix64
    from .partitioning import coarse_bucket_count

    if coarse_buckets is None:
        coarse_buckets = coarse_bucket_count(
            ds, n_rows=n_rows, rows_per_bucket=262144, fanout=n_bands,
            what="embedding_near_dup_pairs")

    mu = None
    if center:
        def vec_sum(batch: pa.Table) -> pa.Table:
            v = _normalize(_embeddings_matrix(batch[vec_col]))
            if v.ndim != 2 or len(v) == 0:
                return pa.table({"s": pa.array([], pa.binary()),
                                 "n": pa.array([], pa.int64())})
            return pa.table({
                "s": pa.array([v.sum(axis=0, dtype=np.float64)
                               .astype("<f8").tobytes()]),
                "n": pa.array([len(v)], pa.int64())})

        parts = ds.map_batches(vec_sum, batch_format="pyarrow").to_pandas()
        if len(parts) and parts["n"].sum() > 0:
            tot = np.sum([np.frombuffer(b, dtype=np.float64)
                          for b in parts["s"]], axis=0)
            mu = (tot / parts["n"].sum()).astype(np.float32)

    rng = np.random.default_rng(seed)
    # planes for all bands at once; dim discovered on first batch
    state = ray.put((rng.standard_normal((n_bands * n_planes, 4096))
                     .astype(np.float32), mu))

    def signatures(batch: pa.Table) -> pa.Table:
        v = _normalize(_embeddings_matrix(batch[vec_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        n, d = v.shape if v.ndim == 2 else (0, 0)
        if n == 0:
            return pa.table({"bucket": pa.array([], pa.int32()),
                             "band": pa.array([], pa.int32()),
                             "sig": pa.array([], pa.int64()),
                             id_col: pa.array([], pa.int64())})
        all_planes, mu_w = ray.get(state)
        if mu_w is not None:
            v = _normalize(v - mu_w[:d])
        planes = all_planes[:, :d]
        out_b, out_s, out_i = [], [], []
        for b in range(n_bands):
            p = planes[b * n_planes:(b + 1) * n_planes]
            sig = _plane_signatures(v, p)
            out_b.append(np.full(n, b, dtype=np.int32))
            out_s.append(sig)
            out_i.append(ids)
        band = np.concatenate(out_b)
        sig = np.concatenate(out_s)
        with np.errstate(over="ignore"):
            h = splitmix64(sig.astype(np.uint64)
                           ^ (band.astype(np.uint64) << np.uint64(56)))
        return pa.table({
            "bucket": pa.array((h % np.uint64(coarse_buckets))
                               .astype(np.int32)),
            "band": pa.array(band),
            "sig": pa.array(sig),
            id_col: pa.array(np.concatenate(out_i)),
        })

    exploded = ds.map_batches(signatures, batch_format="pyarrow",
                              batch_size=batch_size)

    def bucket_candidates(g: pd.DataFrame) -> pd.DataFrame:
        if len(g) < 2:
            return pd.DataFrame({"id_a": [], "id_b": []})
        g = g.sort_values(["band", "sig", id_col], kind="stable")
        key = (g["band"].to_numpy().astype(np.int64) << 56) \
            ^ g["sig"].to_numpy().astype(np.int64)
        ids = g[id_col].to_numpy()
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        bounds = np.append(starts, len(key))
        out_a, out_b = [], []
        for s, e in zip(bounds[:-1], bounds[1:]):
            if e - s < 2:
                continue
            run = ids[s:e]
            ii, jj = np.triu_indices(e - s, k=1)
            a = np.minimum(run[ii], run[jj])
            b = np.maximum(run[ii], run[jj])
            keep = a != b
            out_a.append(a[keep])
            out_b.append(b[keep])
        if not out_a:
            return pd.DataFrame({"id_a": [], "id_b": []})
        return pd.DataFrame({"id_a": np.concatenate(out_a),
                             "id_b": np.concatenate(out_b)})

    from .aggregate import hash_bucketed_group_agg

    # dedup repeated pairs (several bands can surface the same pair) with
    # the vectorized hash-bucketed aggregate — Ray's sort-based
    # multi-column aggregate pays ~1 ms of Python per distinct pair.
    # Then materialize: the pair table is consumed three times
    # (distinct-id gather, the verify map, and — sharded path — the pair
    # co-partition); without this the whole signature shuffle re-executes
    # per consumer. LSH-bounded pair rows are a small result and
    # object-store blocks spill if a pathological corpus inflates them.
    raw_pairs = (exploded.groupby("bucket")
                 .map_groups(bucket_candidates, batch_format="pandas"))
    cand = hash_bucketed_group_agg(
        raw_pairs, ["id_a", "id_b"],
        {"_n": ("id_a", "count")}).materialize()

    # gather the candidate ids' vectors with one more pruned corpus pass
    from .dedup import distinct_pair_ids, sharded_pair_verify

    cand_ids = np.sort(
        distinct_pair_ids(cand).to_pandas()["id"].to_numpy())
    n_cand = len(cand_ids)
    if n_cand == 0:
        import ray.data as rd
        return rd.from_pandas(pd.DataFrame(
            {"id_a": pd.Series([], dtype=np.int64),
             "id_b": pd.Series([], dtype=np.int64),
             "cosine": pd.Series([], dtype=np.float64)}))
    cand_ref = ray.put(cand_ids)

    def gather(batch: pa.Table) -> pa.Table:
        wanted = ray.get(cand_ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(wanted, ids)
        pos[pos >= len(wanted)] = 0
        mask = wanted[pos] == ids
        if not mask.any():
            return pa.table({"id": pa.array([], pa.int64()),
                             "payload": pa.array([], pa.binary())})
        v = _normalize(_embeddings_matrix(batch[vec_col]))[mask]
        return pa.table({
            "id": pa.array(ids[mask].astype(np.int64)),
            "payload": pa.array([row.astype("<f4").tobytes() for row in v],
                                type=pa.binary()),
        })

    payloads = ds.map_batches(gather, batch_format="pyarrow")

    if n_cand <= shard_budget:
        vec_pd = payloads.to_pandas()
        lut_ids = vec_pd["id"].to_numpy()
        order = np.argsort(lut_ids)
        lut_ids = lut_ids[order]
        lut_mat = np.stack([np.frombuffer(b, dtype=np.float32)
                            for b in vec_pd["payload"].to_numpy()[order]]) \
            if len(vec_pd) else np.empty((0, 0), np.float32)
        lut_ref = ray.put((lut_ids, lut_mat))

        def verify(batch: pa.Table) -> pa.Table:
            ids_sorted, mat = ray.get(lut_ref)
            a = batch["id_a"].to_numpy(zero_copy_only=False)
            b = batch["id_b"].to_numpy(zero_copy_only=False)
            va = mat[np.searchsorted(ids_sorted, a)]
            vb = mat[np.searchsorted(ids_sorted, b)]
            cos = np.einsum("ij,ij->i", va, vb).astype(np.float64)
            keep = cos >= threshold
            return pa.table({
                "id_a": pa.array(a[keep]),
                "id_b": pa.array(b[keep]),
                "cosine": pa.array(cos[keep]),
            })

        return cand.map_batches(verify, batch_format="pyarrow")

    # sharded path: vector blobs stay distributed end to end
    nb_i = coarse_bucket_count(n_rows=n_cand, rows_per_bucket=65536,
                               what="embedding verify ibuckets")
    nb_v = coarse_bucket_count(n_rows=n_cand, rows_per_bucket=16384,
                               fanout=4, what="embedding verify vbuckets")

    def pair_fn(pdf: pd.DataFrame, lut: dict) -> pd.DataFrame:
        empty = pd.DataFrame({"id_a": pd.Series([], dtype=np.int64),
                              "id_b": pd.Series([], dtype=np.int64),
                              "cosine": pd.Series([], dtype=np.float64)})
        if len(pdf) == 0:
            return empty
        a = pdf["id_a"].to_numpy(dtype=np.int64)
        b = pdf["id_b"].to_numpy(dtype=np.int64)
        va = np.stack([np.frombuffer(lut[x], dtype=np.float32) for x in a])
        vb = np.stack([np.frombuffer(lut[y], dtype=np.float32) for y in b])
        cos = np.einsum("ij,ij->i", va, vb).astype(np.float64)
        keep = cos >= threshold
        if not keep.any():
            return empty
        return pd.DataFrame({"id_a": a[keep], "id_b": b[keep],
                             "cosine": cos[keep]})

    return sharded_pair_verify(cand.select_columns(["id_a", "id_b"]),
                               payloads, pair_fn, {}, nb_v, nb_i)


def _plane_signatures(v: np.ndarray, planes: np.ndarray) -> np.ndarray:
    bits = (v @ planes.T) > 0  # (n, p)
    out = np.zeros(len(v), dtype=np.int64)
    for i in range(planes.shape[0]):
        out |= bits[:, i].astype(np.int64) << i
    return out


def lsh_topk(ds, queries: np.ndarray, k: int = 10, n_planes: int = 8,
             vec_col: str = "embedding", id_col: str = "vec_id",
             seed: int = 42, batch_size: int = 4096):
    """Approximate cosine top-k: score only vectors whose hyperplane
    signature is within Hamming distance 1 of the query's signature."""
    qm = _normalize(np.asarray(queries, dtype=np.float32))
    d = qm.shape[1]
    planes = np.random.default_rng(seed).normal(size=(n_planes, d)) \
        .astype(np.float32)
    qsig = _plane_signatures(qm, planes)
    # multiprobe: own bucket + all hamming-1 buckets per query
    probes = {int(s) for s in qsig}
    for s in qsig:
        for b in range(n_planes):
            probes.add(int(s) ^ (1 << b))
    probes = np.asarray(sorted(probes))

    def score(batch: pa.Table) -> pa.Table:
        v = _normalize(_embeddings_matrix(batch[vec_col]))
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        empty = pa.table({"query_id": pa.array([], pa.int32()),
                          id_col: pa.array([], pa.int64()),
                          "score": pa.array([], pa.float64())})
        if len(ids) == 0:
            return empty
        sig = _plane_signatures(v, planes)
        mask = np.isin(sig, probes)
        if not mask.any():
            return empty
        v, ids, sig = v[mask], ids[mask], sig[mask]
        scores = v @ qm.T
        take = min(k, len(ids))
        out_q, out_i, out_s = [], [], []
        for qi in range(qm.shape[0]):
            # only vectors within hamming-1 of this query's signature
            ham = np.zeros(len(sig), dtype=bool)
            s0 = qsig[qi]
            ham |= sig == s0
            for b in range(planes.shape[0]):
                ham |= sig == (s0 ^ (1 << b))
            if not ham.any():
                continue
            s = np.where(ham, scores[:, qi], -np.inf)
            t = min(take, int(ham.sum()))
            top = np.argpartition(-s, t - 1)[:t]
            top = top[np.isfinite(s[top])]
            out_q.append(np.full(len(top), qi, dtype=np.int32))
            out_i.append(ids[top])
            out_s.append(s[top].astype(np.float64))
        if not out_q:
            return empty
        return pa.table({
            "query_id": pa.array(np.concatenate(out_q)),
            id_col: pa.array(np.concatenate(out_i)),
            "score": pa.array(np.concatenate(out_s)),
        })

    candidates = ds.map_batches(score, batch_format="pyarrow",
                                batch_size=batch_size)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["score"] = g["score"].round(6)
        g = g.sort_values(["score", id_col], ascending=[False, True]).head(k)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g

    return candidates.groupby("query_id").map_groups(
        final_topk, batch_format="pandas")
