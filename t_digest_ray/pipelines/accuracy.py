"""Accuracy-experiment harness — the IIDgenerator port (SURVEY.md §2.3 #33,
reference entry point B: IIDgenerator.java:129-303).

Methodology reproduced: T independent trials; each streams N generated
samples into every sketch under test, computes the signed rank error
``est_rank - true_rank`` (duplicate-aware true-rank interval, cf.
IIDgenerator.java:217-230) at ``n_ranks`` evenly spaced probe ranks, and
pushes each error into that probe's **error-KLL** (IIDgenerator.java:142-149
allocates one KLL per rank). The output table reports the median and
2.5/97.5 percentile envelope of the error distribution per (sketch, rank).

Ray-first: trials are a Dataset of seeds fanned out with ``map_batches``;
the error-KLL collection is the library's own ``kll_quantiles_by_key``
pipeline over the (sketch, rank) composite key — the harness is a self-test
of the library on itself.

Generators follow IIDgenerator.java:315-345: uniform, normal,
exponential(lambda), loguniform(maxExp), loguniform^2, clustered; all
counter-based (seed = f(global_seed, trial)) so results are independent of
scheduling.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

DISTRIBUTIONS = ("uniform", "normal", "exponential", "loguniform",
                 "loguniform2", "clustered")


def generate(dist: str, n: int, seed: int, max_exp: float = 6.0) -> np.ndarray:
    """IIDgenerator.java:315-345 generator family; ``max_exp`` is the
    loguniform exponent range (the swept parameter of the VaryingMaxExp
    driver, LoguniformWithVaryingMaxExpGenerator.java:93-250)."""
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        return rng.uniform(0.0, 1.0, n)
    if dist == "normal":
        return rng.normal(0.0, 1.0, n)
    if dist == "exponential":
        return rng.exponential(1.0, n)
    if dist == "loguniform":
        return 10.0 ** rng.uniform(0.0, max_exp, n)
    if dist == "loguniform2":
        u = rng.uniform(0.0, max_exp, n)
        return 10.0 ** (u * u / max_exp)
    if dist == "clustered":
        centers = rng.uniform(0.0, 1.0, 10)
        return (centers[rng.integers(0, 10, n)]
                + rng.normal(0.0, 1e-4, n))
    raise ValueError(f"unknown distribution {dist!r}")


def _make_sketches(compression: float, kll_k: int, req_k: int) -> dict:
    from ..state.kll import KllSketch
    from ..state.req import ReqSketch
    from ..state.tdigest import TDigest

    return {
        "tdigest": TDigest(compression),
        "kll": KllSketch(kll_k),
        "req": ReqSketch(req_k),
    }


def _trial_errors(dist: str, n: int, trial: int, n_ranks: int,
                  compression: float, kll_k: int, req_k: int,
                  chunks: int, base_seed: int,
                  max_exp: float = 6.0,
                  turnstile_frac: float = 0.0,
                  ddsketch_alpha: float = 0.0) -> pd.DataFrame:
    data = generate(dist, n, base_seed + trial, max_exp)
    sketches = _make_sketches(compression, kll_k, req_k)
    for chunk in np.array_split(data, chunks):
        for sk in sketches.values():
            sk.update_batch(chunk)
    pm = del_mask = None
    if turnstile_frac > 0.0:
        # KLL± leg: delete a deterministic fraction of the inserted
        # stream (splitmix-derived mask, trial-seeded) and measure the
        # net-distribution rank error like the other sketches
        from ..functions.hashing import splitmix64
        from ..state.kllpm import KllPM

        pm = KllPM(kll_k)
        idx = np.arange(n, dtype=np.uint64) \
            + np.uint64((base_seed + trial) & 0xFFFFFFFF)
        del_mask = (splitmix64(idx).astype(np.float64)
                    < turnstile_frac * 2.0 ** 64)
        for chunk, mchunk in zip(np.array_split(data, chunks),
                                 np.array_split(del_mask, chunks)):
            pm.update_batch(chunk)
            if mchunk.any():
                pm.update_batch(chunk[mchunk],
                                -np.ones(int(mchunk.sum())))
    s = np.sort(data)
    qs = np.linspace(0.0, 1.0, n_ranks)
    items = s[np.minimum((qs * (n - 1)).astype(np.int64), n - 1)]
    # duplicate-aware true rank interval of each probe item
    lo = np.searchsorted(s, items, side="left") / n
    hi = np.searchsorted(s, items, side="right") / n
    rows = []
    for name, sk in sketches.items():
        if name == "tdigest":
            sk.compress()
            est = sk.cdf_batch(items)
        elif name == "req":
            est = sk.rank_batch(items)
        else:
            est = np.array([sk.rank(x) for x in items])
        # signed error, zero when inside the true-rank interval
        err = np.where(est < lo, est - lo, np.where(est > hi, est - hi, 0.0))
        rows.append(pd.DataFrame({
            "sketch": name,
            "rank": np.round(qs, 6),
            "err": err,
        }))
    if ddsketch_alpha > 0.0:
        # DDSketch leg: its published contract is VALUE-relative (not
        # rank) error, so this leg's ``err`` column is the signed
        # relative value error vs the true order statistic at the
        # sketch's own disc rank convention — the envelope to assert is
        # |err| <= alpha for every probe (Masson et al. 2019, Thm 1)
        from ..state.ddsketch import DDSketch

        dd = DDSketch(ddsketch_alpha)
        for chunk in np.array_split(data, chunks):
            dd.update_batch(chunk)
        idx_d = np.maximum(np.ceil(qs * n).astype(np.int64) - 1, 0)
        true_v = s[np.minimum(idx_d, n - 1)]
        est_v = np.array([dd.quantile(q) for q in qs])
        denom = np.maximum(np.abs(true_v), 1e-300)
        rows.append(pd.DataFrame({
            "sketch": "ddsketch",
            "rank": np.round(qs, 6),
            "err": (est_v - true_v) / denom,
        }))
    if pm is not None:
        s_net = np.sort(data[~del_mask])
        n_net = len(s_net)
        items_n = s_net[np.minimum((qs * (n_net - 1)).astype(np.int64),
                                   n_net - 1)]
        lo_n = np.searchsorted(s_net, items_n, side="left") / n_net
        hi_n = np.searchsorted(s_net, items_n, side="right") / n_net
        est = np.array([pm.rank(x) for x in items_n])
        err = np.where(est < lo_n, est - lo_n,
                       np.where(est > hi_n, est - hi_n, 0.0))
        rows.append(pd.DataFrame({
            "sketch": "kllpm",
            "rank": np.round(qs, 6),
            "err": err,
        }))
    return pd.concat(rows, ignore_index=True)


def accuracy_experiment(dist: str = "uniform", n: int = 1 << 16,
                        trials: int = 16, n_ranks: int = 51,
                        compression: float = 100.0, kll_k: int = 200,
                        req_k: int = 12, chunks: int = 16,
                        base_seed: int = 20_240_101, err_kll_k: int = 200,
                        max_exp: float = 6.0,
                        turnstile_frac: float = 0.0,
                        ddsketch_alpha: float = 0.0):
    """Run the experiment; returns a Ray Dataset with one row per
    (sketch, rank): err_median / err_lo / err_hi / err_max columns.
    The ``ddsketch`` rows (when ddsketch_alpha > 0) carry VALUE-relative
    errors, the others rank errors — compare each against its own
    published bound."""
    import ray.data as rd

    from .quantiles import kll_quantiles_by_key

    ds = rd.range(trials)

    def run(batch: pa.Table) -> pa.Table:
        frames = [
            _trial_errors(dist, n, int(t), n_ranks, compression, kll_k,
                          req_k, chunks, base_seed, max_exp,
                          turnstile_frac, ddsketch_alpha)
            for t in batch["id"].to_pylist()]
        out = pd.concat(frames, ignore_index=True)
        out["probe"] = out["sketch"] + "@" + out["rank"].map("{:.6f}".format)
        return pa.Table.from_pandas(out[["probe", "err"]],
                                    preserve_index=False)

    errs = ds.map_batches(run, batch_format="pyarrow", batch_size=1)
    # error distribution per probe, collected into error-KLLs
    summary = kll_quantiles_by_key(errs, "err", "probe", k=err_kll_k,
                                   qs=(0.025, 0.5, 0.975), key_name="probe")

    def split_probe(df: pd.DataFrame) -> pd.DataFrame:
        parts = df["probe"].str.split("@", expand=True)
        out = pd.DataFrame({
            "sketch": parts[0],
            "rank": parts[1].astype(float),
            "err_lo": df["q2_5"].to_numpy(),
            "err_median": df["q50"].to_numpy(),
            "err_hi": df["q97_5"].to_numpy(),
            "err_max": np.maximum(np.abs(df["min"].to_numpy()),
                                  np.abs(df["max"].to_numpy())),
        })
        return out

    return summary.map_batches(split_probe, batch_format="pandas")
