"""Approximate distinct counting (HLL) and membership (Bloom) pipelines."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..state.bloom import BloomFilter
from ..state.hll import HyperLogLog
from ..state.protocol import SketchSpec
from ..stages.aggregate import sketch_by_key, summarize


def hll_spec(p: int = 14) -> SketchSpec:
    return SketchSpec(
        name="hll",
        factory=lambda: HyperLogLog(p),
        from_bytes=HyperLogLog.from_bytes,
        summarize=lambda sk: {"distinct_estimate": float(sk.estimate())},
    )


def distinct_by_key(ds, value_col: str, key: str | None = None, p: int = 14,
                    batch_size: int | None = None,
                    key_name: str | None = None):
    """Approximate count(distinct value_col) per key via HLL register-max
    merges (global single row when key is None)."""
    spec = hll_spec(p)
    merged = sketch_by_key(ds, spec, value_col, key,
                           batch_size=batch_size)
    return summarize(merged, spec, key_name=key_name or (key or "key"))


def bloom_spec(n_bits: int = 1 << 20, k: int = 7) -> SketchSpec:
    return SketchSpec(
        name="bloom",
        factory=lambda: BloomFilter(n_bits, k),
        from_bytes=BloomFilter.from_bytes,
        summarize=lambda sk: {"n_added": sk.n_added,
                              "fill_ratio": sk.fill_ratio()},
    )


def build_bloom(ds, value_col: str, n_bits: int = 1 << 20, k: int = 7,
                batch_size: int | None = None) -> BloomFilter:
    """Build one Bloom filter over a column via the partial/merge topology
    and return the materialized filter (small: m/8 bytes)."""
    spec = bloom_spec(n_bits, k)
    merged = sketch_by_key(ds, spec, value_col, None,
                           batch_size=batch_size)
    row = merged.take(1)[0]
    return BloomFilter.from_bytes(row["sketch"])


def bloom_semi_join(probe_ds, bloom: BloomFilter, probe_col: str,
                    exact_keys=None):
    """Filter probe rows whose ``probe_col`` is (probably) in the filter.

    The Bloom prefilter ships once with the map function and drops
    non-members with zero false negatives; pass ``exact_keys`` (a set, also broadcast) to
    verify survivors and make the semi-join exact — the standard
    filter-then-verify pattern for distributed semi joins.
    """
    keys = None if exact_keys is None else np.asarray(sorted(exact_keys))

    def probe(batch: pa.Table) -> pa.Table:
        vals = batch[probe_col].to_numpy(zero_copy_only=False)
        mask = bloom.contains(vals)
        if keys is not None and mask.any():
            idx = np.searchsorted(keys, vals[mask])
            idx = np.clip(idx, 0, len(keys) - 1)
            exact = keys[idx] == vals[mask]
            m = mask.copy()
            m[np.flatnonzero(mask)[~exact]] = False
            mask = m
        return batch.filter(pa.array(mask))

    return probe_ds.map_batches(probe, batch_format="pyarrow")


def hll_set_algebra_gate(ds_a, ds_b, value_col: str, p: int = 14,
                         sigma: float = 3.0,
                         batch_size: int | None = None):
    """HLL set algebra — union by register-max merge, intersection by
    inclusion-exclusion — gated against the EXACT distributed counts.

    One keyed sketch pass builds both side sketches (side = group key);
    the union sketch is their mergeable register max (the property the
    north-star requires of every sketch), and ``|A ∩ B| ≈ est(A) +
    est(B) - est(A ∪ B)``. The exact side: per-batch (value, in_a, in_b)
    presence partials co-partition on the value (distinct values per
    batch ride the shuffle, not rows), per-key Max folds membership,
    per-block partial sums fold to two scalars.

    Returns a ONE-ROW pyarrow Table ``(n_union, n_intersect,
    union_within, intersect_within)``: exact counts hash-check; the
    flags assert the estimates sit inside sigma * 1.04/sqrt(2^p)
    relative envelopes (x3 union-sized terms for inclusion-exclusion),
    so a register/merge regression flips a flag and fails the hash."""
    from ray.data.aggregate import Max, Sum

    from ..state.hll import HyperLogLog

    spec = hll_spec(p)

    def tag(side: str):
        def fn(b: pa.Table) -> pa.Table:
            return pa.table({
                value_col: b[value_col],
                "side": pa.array(np.repeat(side, len(b)))})
        return fn

    tagged = (ds_a.map_batches(tag("a"), batch_format="pyarrow")
              .union(ds_b.map_batches(tag("b"), batch_format="pyarrow")))
    sketches = {r["key"]: HyperLogLog.from_bytes(r["sketch"])
                for r in sketch_by_key(tagged, spec, value_col, "side",
                                       batch_size=batch_size).take_all()}
    hll_a = sketches.get("a", HyperLogLog(p))
    hll_b = sketches.get("b", HyperLogLog(p))
    est_a, est_b = hll_a.estimate(), hll_b.estimate()
    est_union = HyperLogLog(p).merge(hll_a, hll_b).estimate()
    est_inter = est_a + est_b - est_union

    def presence(a_side: bool):
        def fn(b: pa.Table) -> pa.Table:
            vals = np.unique(b[value_col].to_numpy(zero_copy_only=False))
            one = np.ones(len(vals), dtype=np.int64)
            zero = np.zeros(len(vals), dtype=np.int64)
            return pa.table({value_col: pa.array(vals),
                             "in_a": pa.array(one if a_side else zero),
                             "in_b": pa.array(zero if a_side else one)})
        return fn

    members = (ds_a.map_batches(presence(True), batch_format="pyarrow")
               .union(ds_b.map_batches(presence(False),
                                       batch_format="pyarrow"))
               .groupby(value_col)
               .aggregate(Max("in_a", alias_name="in_a"),
                          Max("in_b", alias_name="in_b")))

    def fold(b: pa.Table) -> pa.Table:
        ia = b["in_a"].to_numpy(zero_copy_only=False)
        ib = b["in_b"].to_numpy(zero_copy_only=False)
        return pa.table({"u": pa.array([len(b)], type=pa.int64()),
                         "i": pa.array([int((ia * ib).sum())],
                                       type=pa.int64())})

    # ONE aggregate execution for both scalars (two .sum() calls would
    # re-run the whole exact pipeline twice)
    totals = (members.map_batches(fold, batch_format="pyarrow")
              .aggregate(Sum("u", alias_name="u"),
                         Sum("i", alias_name="i")))
    n_union = int(totals["u"] or 0)
    n_inter = int(totals["i"] or 0)

    rel = sigma * 1.04 / np.sqrt(2.0 ** p)
    union_ok = abs(est_union - n_union) <= rel * max(n_union, 1)
    inter_ok = abs(est_inter - n_inter) <= 3 * rel * max(n_union, 1)
    return pa.table({
        "n_union": pa.array([n_union], type=pa.int64()),
        "n_intersect": pa.array([n_inter], type=pa.int64()),
        "union_within": pa.array([bool(union_ok)]),
        "intersect_within": pa.array([bool(inter_ok)]),
    })


_BLOOM_INDEX_MAGIC = b"TDRBLOOM1\n"


def save_bloom_index(bloom: BloomFilter, path: str) -> None:
    """Persist a Bloom filter for CROSS-RUN incremental dedup (filter a
    new crawl against a historical corpus without a join). Atomic
    tmp+rename with a format magic, same durability contract as the
    checkpoint sinks (pipelines/checkpoint.py)."""
    import os

    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as f:
        f.write(_BLOOM_INDEX_MAGIC)
        f.write(bloom.to_bytes())
    os.replace(tmp, path)


def load_bloom_index(path: str) -> BloomFilter:
    with open(path, "rb") as f:
        buf = f.read()
    if not buf.startswith(_BLOOM_INDEX_MAGIC):
        raise ValueError(f"{path} is not a bloom index (bad magic)")
    return BloomFilter.from_bytes(buf[len(_BLOOM_INDEX_MAGIC):])


def incremental_dedup_counts(new_ds, bloom: BloomFilter,
                             member_hashes: np.ndarray, value_col: str,
                             key: str, sigma: float = 3.0):
    """Incremental-crawl dedup audit, value-checked: per key, the new
    corpus's row count and its EXACT already-seen count (8-byte-hash
    membership against the historical corpus — SQL-reproducible), plus
    ``within_bound`` asserting the PERSISTED Bloom index behaves: zero
    false negatives (every exact member is a Bloom hit, a hard
    guarantee) and false positives within a sigma envelope of the
    filter's fill-derived rate.

    Topology: the Bloom bitset and the sorted member-hash array are
    shipped once with the map function; one vectorized pass emits O(keys) count
    rows. The 100-TB path drops the exact array and keeps only the
    KB–MB bitset — the envelope then comes from fpp alone.
    """
    from ray.data.aggregate import Count, Sum

    from ..functions.hashing import hash64

    members = np.sort(np.asarray(member_hashes, dtype=np.uint64))

    def audit(b: pa.Table) -> pa.Table:
        vals = b[value_col].to_numpy(zero_copy_only=False)
        hits = bloom.contains(vals)
        member = np.isin(hash64(vals), members)
        return pa.table({
            key: b[key],
            "member": pa.array(member.astype(np.int64)),
            "bloom_hit": pa.array(hits.astype(np.int64)),
            # a member the Bloom filter missed = false negative,
            # impossible for a correct filter
            "false_neg": pa.array((member & ~hits).astype(np.int64)),
        })

    out = (new_ds.map_batches(audit, batch_format="pyarrow")
           .groupby(key)
           .aggregate(Count(alias_name="n_docs"),
                      Sum("member", alias_name="n_members"),
                      Sum("bloom_hit", alias_name="_hits"),
                      Sum("false_neg", alias_name="_fn")))

    fpp = bloom.fpp_estimate()

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_docs"].to_numpy(dtype=np.float64)
        mem = df["n_members"].to_numpy(dtype=np.float64)
        fp = df["_hits"].to_numpy(dtype=np.float64) - mem
        n_nonmem = n - mem
        envelope = (n_nonmem * fpp
                    + sigma * np.sqrt(np.maximum(
                        n_nonmem * fpp * (1 - fpp), 0.0)) + 3.0)
        ok = (df["_fn"].to_numpy() == 0) & (fp >= 0) & (fp <= envelope)
        return pd.DataFrame({
            key: df[key],
            "n_docs": df["n_docs"].astype(np.int64),
            "n_members": df["n_members"].astype(np.int64),
            "within_bound": ok,
        })

    return out.map_batches(fin, batch_format="pandas")


def exact_jaccard_matrix(ds, set_col: str, member_col: str):
    """Exact pairwise Jaccard similarity between the member sets of
    every pair of set keys (e.g. which users each event type touched) —
    the exact twin of the KMV overlap estimator.

    Scale shape: per-batch distinct (set, member) pairs combine first,
    then one hash-bucket co-partition of MEMBERS; inside a bucket each
    member contributes its |sets|²/2 co-presence pairs (|sets| is tiny —
    the number of distinct set keys), so only pair-count integer
    partials ride the second exchange. Set sizes fold from the same
    distinct pass. jaccard = |A∩B| / (|A|+|B|−|A∩B|), an int-exact
    double.
    """
    from ray.data.aggregate import Sum

    from ..functions.hashing import hash64

    def distinct_pairs(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            set_col: b[set_col].to_numpy(zero_copy_only=False),
            member_col: b[member_col].to_numpy(zero_copy_only=False),
        }).drop_duplicates()
        df["bucket"] = (hash64(df[member_col].to_numpy())
                        % np.uint64(256)).astype(np.int32)
        return pa.Table.from_pandas(df, preserve_index=False)

    def bucket_fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([set_col, member_col])
        sizes = (g.groupby(set_col, as_index=False, sort=False).size()
                 .rename(columns={"size": "sz", set_col: "s"}))
        m = g.merge(g, on=member_col)
        m = m[m[set_col + "_x"] < m[set_col + "_y"]]
        inter = (m.groupby([set_col + "_x", set_col + "_y"],
                           as_index=False, sort=False).size()
                 .rename(columns={"size": "n_both",
                                  set_col + "_x": "set_a",
                                  set_col + "_y": "set_b"}))
        # one frame, tagged rows: set sizes ride as (s, s) self-pairs
        szrow = pd.DataFrame({"set_a": sizes["s"], "set_b": sizes["s"],
                              "n_both": sizes["sz"]})
        out = pd.concat([inter, szrow], ignore_index=True)
        out["n_both"] = out["n_both"].astype(np.int64)
        return out

    folded = (ds.map_batches(distinct_pairs, batch_format="pyarrow")
              .groupby("bucket")
              .map_groups(bucket_fold, batch_format="pandas")
              .groupby(["set_a", "set_b"])
              .aggregate(Sum("n_both", alias_name="n_both"))
              .to_pandas())  # |sets|² rows — tiny by construction

    sizes = {r["set_a"]: int(r["n_both"])
             for _, r in folded.iterrows() if r["set_a"] == r["set_b"]}
    rows = []
    for _, r in folded.iterrows():
        a, b_ = r["set_a"], r["set_b"]
        if a == b_:
            continue
        nb = int(r["n_both"])
        na, nbb = sizes[a], sizes[b_]
        union = na + nbb - nb
        rows.append({"set_a": a, "set_b": b_,
                     "n_a": np.int64(na), "n_b": np.int64(nbb),
                     "n_both": np.int64(nb),
                     "jaccard": float(nb) / float(union)})
    out = pd.DataFrame(rows).sort_values(["set_a", "set_b"])
    return out.reset_index(drop=True)


def distinct_breadth_histogram(ds, member_col: str, item_col: str):
    """Breadth histogram: how many members touch exactly k distinct
    items (e.g. users by number of distinct event types used). One
    member-hash co-partition makes per-batch-distinct (member, item)
    pairs globally distinct inside the bucket; per-member counts reduce
    there too, so only (breadth, count) integer rows — at most
    |items| + 1 of them — ride the final exchange.
    """
    from ray.data.aggregate import Sum

    from ..functions.hashing import hash64

    def distinct_pairs(b: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            member_col: b[member_col].to_numpy(zero_copy_only=False),
            item_col: b[item_col].to_numpy(zero_copy_only=False),
        }).drop_duplicates()
        df["bucket"] = (hash64(df[member_col].to_numpy())
                        % np.uint64(256)).astype(np.int32)
        return pa.Table.from_pandas(df, preserve_index=False)

    def bucket_fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([member_col, item_col])
        per = (g.groupby(member_col, as_index=False, sort=False).size()
               .rename(columns={"size": "n_types"}))
        out = (per.groupby("n_types", as_index=False, sort=False).size()
               .rename(columns={"size": "partial"}))
        out["n_types"] = out["n_types"].astype(np.int64)
        out["partial"] = out["partial"].astype(np.int64)
        return out

    out = (ds.map_batches(distinct_pairs, batch_format="pyarrow")
           .groupby("bucket")
           .map_groups(bucket_fold, batch_format="pandas")
           .groupby("n_types")
           .aggregate(Sum("partial", alias_name="n_members")))

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        df["n_types"] = df["n_types"].astype(np.int64)
        df["n_members"] = df["n_members"].astype(np.int64)
        return df

    return out.map_batches(fin, batch_format="pandas")


def cuckoo_spec(n_buckets: int = 1 << 14) -> SketchSpec:
    from ..state.cuckoo import CuckooFilter
    return SketchSpec(
        name="cuckoo",
        factory=lambda: CuckooFilter(n_buckets),
        from_bytes=CuckooFilter.from_bytes,
        summarize=lambda sk: {"n_items": sk.n_items,
                              "load_factor": sk.load_factor()},
    )


def cuckoo_membership_report(build_ds, delete_ds, probe_ds,
                             build_col: str, delete_col: str,
                             probe_col: str, n_buckets: int = 1 << 14):
    """Deletable membership via a CUCKOO filter (state/cuckoo.py) — the
    retract path a Bloom filter cannot take: keys stream in through the
    partial/merge sketch topology, the delete set retracts its keys
    from the merged filter, and the probe side is filtered by a
    broadcast of the (KB-sized) final filter.

    The report row is VALUE-CHECKABLE: n_probed and n_members are exact
    (the delete/live sets are key-DIMENSION-bounded, same broadcast
    budget as the Bloom verify path), and the sketch behavior rides as
    in-row gates — no_false_negatives (guaranteed by construction up to
    16-bit entry collisions) and fp_within_bound (the published
    2*SLOTS/2^16 per-probe bound with 10x slack + an absolute floor).
    """
    from ..state.cuckoo import CuckooFilter

    spec = cuckoo_spec(n_buckets)
    merged = sketch_by_key(build_ds, spec, build_col, None)
    ck = CuckooFilter.from_bytes(merged.take(1)[0]["sketch"])

    build_keys = np.asarray(build_ds.unique(build_col))
    del_keys = np.asarray(delete_ds.unique(delete_col))
    d = np.intersect1d(build_keys, del_keys)   # only retract inserted
    ck.delete_batch(d)
    live = np.setdiff1d(build_keys, d)          # sorted

    def probe(b: pa.Table) -> pa.Table:
        vals = b[probe_col].to_numpy(zero_copy_only=False)
        passed = ck.contains(vals)
        idx = np.searchsorted(live, vals)
        idx = np.clip(idx, 0, max(len(live) - 1, 0))
        member = np.zeros(len(vals), dtype=bool) \
            if not len(live) else live[idx] == vals
        return pa.table({
            "n_probed": pa.array([len(vals)], type=pa.int64()),
            "n_members": pa.array([int(member.sum())],
                                  type=pa.int64()),
            "n_pass": pa.array([int(passed.sum())],
                               type=pa.int64()),
            "n_fn": pa.array([int((member & ~passed).sum())],
                             type=pa.int64())})

    parts = probe_ds.map_batches(probe, batch_format="pyarrow")

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        n_probed = int(df["n_probed"].sum())
        n_members = int(df["n_members"].sum())
        n_pass = int(df["n_pass"].sum())
        n_fn = int(df["n_fn"].sum())
        bound = max(5.0, 10.0 * n_probed * ck.fp_rate_bound())
        return pd.DataFrame({
            "n_probed": np.array([n_probed], dtype=np.int64),
            "n_members": np.array([n_members], dtype=np.int64),
            "no_false_negatives": [n_fn == 0 and not ck.overflowed],
            "fp_within_bound": [(n_pass - n_members) <= bound]})

    return fin(parts.to_pandas())
