"""Layers 1-3 of the reference test strategy for the t-digest (SURVEY.md §5).

Layer 1: deterministic edge cases with hand-computable expectations
         (TDigestTest.java:252-296, 510-537, 633-704, 917-933).
Layer 2: seeded distribution tests with the reference's tolerances
         (TDigestTest.java:558-631: cdf err <= 0.08, quantile round-trip
         err <= 0.012, centroid count <= compression, weight-sum invariant).
Layer 3: merge/distribution-equivalence (AccuracyTest.java:29-176: split
         into 2..100 parts, merge, |q err| < 0.015 abs / 0.4 rel;
         merge-order permutation invariance).
"""

import numpy as np
import pytest

from t_digest_ray.state.exact import exact_cdf, exact_quantile
from t_digest_ray.state.scale_functions import K_0, K_1, K_2, K_2_GLUED, K_3
from t_digest_ray.state.tdigest import TDigest

# ------------------------------------------------------------------- layer 1


def test_empty_digest_nan():
    d = TDigest(100)
    assert np.isnan(d.quantile(0.5))
    assert np.isnan(d.cdf(1.0))
    assert d.size == 0


def test_nan_rejected():
    d = TDigest(100)
    with pytest.raises(ValueError):
        d.update(float("nan"))
    with pytest.raises(ValueError):
        d.update_batch(np.array([1.0, np.nan]))


def test_infinity_rejected_on_every_update_path():
    """One infinite point made the middle quantiles NaN (every later
    cluster mean became inf - inf); it is rejected like NaN on the
    buffered path, the bulk path and a KeyedSketches raw run."""
    import pyarrow as pa

    from t_digest_ray.pipelines.quantiles import tdigest_spec
    from t_digest_ray.stages.aggregate import KeyedSketches

    for x in (np.r_[np.arange(50.0), -np.inf],     # buffered
              np.r_[np.arange(5000.0), np.inf]):   # bulk
        d = TDigest(100)
        with pytest.raises(ValueError, match="infinite"):
            d.update_batch(x)
    acc = KeyedSketches(tdigest_spec())
    with pytest.raises(ValueError, match="infinite"):
        acc.add(pa.array(["a"] * 51),
                {"v": pa.array(np.r_[np.arange(50.0), -np.inf])})


def test_bad_q_rejected():
    d = TDigest(100)
    d.update(1.0)
    with pytest.raises(ValueError):
        d.quantile(1.5)
    with pytest.raises(ValueError):
        d.quantile(-0.1)
    with pytest.raises(ValueError):
        d.cdf(float("inf"))


def test_single_value():
    d = TDigest(100)
    d.update(42.0)
    for q in [0, 0.3, 0.5, 1]:
        assert d.quantile(q) == 42.0
    assert d.cdf(41) == 0.0
    assert d.cdf(43) == 1.0
    assert d.cdf(42) == 0.5


def test_two_values():
    d = TDigest(100)
    d.update_batch([1.0, 2.0])
    assert d.quantile(0.0) == 1.0
    assert d.quantile(1.0) == 2.0
    assert d.cdf(0.5) == 0.0
    assert d.cdf(2.5) == 1.0


def test_few_values_exact():
    """0-10 values: every point is a singleton centroid; quantiles must hit
    data points exactly (TDigestTest.java:510-537)."""
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        vals = np.round(rng.uniform(0, 10, n), 1)  # include duplicates
        d = TDigest(100)
        d.update_batch(vals)
        assert d.centroid_count == len(np.unique(vals)) or d.centroid_count <= n
        s = np.sort(vals)
        for q in [0.0, 0.01, 0.5, 0.99, 1.0]:
            est = d.quantile(q)
            # estimate must sit between neighbouring order statistics
            lo = exact_quantile(max(q - 1.0 / n, 0), s)[0]
            hi = exact_quantile(min(q + 1.0 / n, 1), s)[0]
            assert lo - 1e-9 <= est <= hi + 1e-9


def test_small_count_quantile():
    """{15,20,32,60} probing around rank boundaries (TDigestTest.java:284-296)."""
    d = TDigest(200)
    d.update_batch([15.0, 20.0, 32.0, 60.0])
    # all singletons: q in the middle hits values exactly
    assert d.quantile(0.0) == 15
    assert d.quantile(1.0) == 60
    for q, lo, hi in [(0.3, 15, 32), (0.5, 20, 32), (0.9, 32, 60)]:
        assert lo <= d.quantile(q) <= hi


def test_big_jump():
    """1..19 then 1_000_000 (TDigestTest.java:252-282)."""
    d = TDigest(100)
    d.update_batch(np.arange(1, 20, dtype=np.float64))
    d.update(1_000_000.0)
    assert d.quantile(0.89) == pytest.approx(18, abs=1)
    assert d.quantile(1.0) == 1_000_000.0
    # the jump must not drag mid quantiles
    assert d.quantile(0.5) == pytest.approx(10, abs=1.5)


def test_singleton_in_a_crowd():
    """10_000 x 10 plus one 20 (TDigestTest.java:917-933)."""
    d = TDigest(100)
    d.update_batch(np.full(10_000, 10.0))
    d.update(20.0)
    d.compress()
    assert d.quantile(0.5) == 10
    assert d.quantile(1.0) == 20
    assert d.max == 20
    # cdf at 20 ~ 1 - 0.5/n
    assert d.cdf(20.0) == pytest.approx(1 - 0.5 / 10_001, abs=1e-6)


def test_repeated_values():
    """Only 11 distinct values (TDigestTest.java:759-803): quantiles land on them."""
    rng = np.random.default_rng(11)
    vals = np.round(rng.uniform(0, 1, 100_000), 1)
    d = TDigest(100)
    d.update_batch(vals)
    for q in [0.1, 0.3, 0.5, 0.7, 0.9]:
        est = d.quantile(q)
        assert abs(est - round(est, 1)) < 0.05, f"q={q} est={est}"


def test_centroids_ordered_and_weights_sum():
    rng = np.random.default_rng(3)
    x = rng.normal(0, 1, 50_000)
    d = TDigest(100)
    d.update_batch(x)
    means, weights = d.centroids()
    assert np.all(np.diff(means) >= 0)
    assert weights.sum() == pytest.approx(50_000, abs=1e-6)
    assert weights[0] == 1 and weights[-1] == 1  # forced boundary singletons
    assert d.min == x.min() and d.max == x.max()


def test_monotonicity():
    """quantile and cdf are non-decreasing (TDigestTest.java:1054-1073)."""
    rng = np.random.default_rng(5)
    d = TDigest(100)
    d.update_batch(rng.uniform(0, 1, 100_000))
    qs = np.linspace(0, 1, 501)
    vals = d.quantile_batch(qs)
    assert np.all(np.diff(vals) >= -1e-12)
    xs = np.linspace(-0.1, 1.1, 501)
    cs = d.cdf_batch(xs)
    assert np.all(np.diff(cs) >= -1e-12)


def test_weighted_updates_match_repeats():
    """Weighted adds approximate the repeat-expanded stream (exact centroid
    layouts differ: the merge kernel treats the first/last incoming points as
    boundary singletons regardless of weight, as the reference's merge
    asserts weight[0]==1 do — MergingDigest.java:496-497)."""
    rng = np.random.default_rng(4)
    vals = np.sort(rng.uniform(0, 100, 2_000))
    weights = rng.integers(1, 6, 2_000).astype(np.float64)
    d1 = TDigest(100)
    d1.update_batch(vals, w=weights)
    d2 = TDigest(100)
    d2.update_batch(np.repeat(vals, weights.astype(np.int64)))
    assert d1.size == d2.size
    for q in [0.01, 0.1, 0.5, 0.9, 0.99]:
        assert d1.quantile(q) == pytest.approx(d2.quantile(q), abs=0.5)


def test_big_weights_median():
    """>1.5e9 total weight keeps median within 0.001 (BigCount.java:8-16)."""
    d = TDigest(100)
    vals = np.linspace(0, 1, 1001)
    d.update_batch(vals, w=np.full(1001, 2_000_000.0))
    assert d.size == pytest.approx(2.002e9)
    assert d.quantile(0.5) == pytest.approx(0.5, abs=0.001)


# ------------------------------------------------------------------- layer 2

DISTRIBUTIONS = {
    "uniform": lambda rng, n: rng.uniform(0, 1, n),
    "normal": lambda rng, n: rng.normal(0, 1, n),
    "gamma": lambda rng, n: rng.gamma(0.1, 0.1, n),
    "sequential": lambda rng, n: np.arange(n) * np.pi * 1e-5,
    "narrow_mixture": lambda rng, n: np.where(
        rng.uniform(size=n) < 0.5, rng.uniform(-1, 1, n), rng.normal(0, 1e-5, n)),
    "loguniform": lambda rng, n: 10 ** ((rng.uniform(size=n) - 0.5) * 20),
    "uniform_offset": lambda rng, n: rng.uniform(50, 51, n),
}


# compressions follow the reference's own choices: gamma runs at 200 and the
# narrow mixture at 400 (TDigestTest.java:725, 755); the rest at default 100
_DIST_COMPRESSION = {"gamma": 200, "narrow_mixture": 400, "loguniform": 400}


@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS), ids=str)
def test_distribution_accuracy(dist):
    """Port of runTest tolerances (TDigestTest.java:558-631): on 100k samples,
    cdf error <= 0.08 at probe quantiles; quantile->cdf round trip <= 0.012
    with < 3 soft errors > 0.005; centroid count <= compression."""
    compression = _DIST_COMPRESSION.get(dist, 100)
    rng = np.random.default_rng(42)
    x = DISTRIBUTIONS[dist](rng, 100_000)
    d = TDigest(compression)
    d.update_batch(x)
    d.compress()
    s = np.sort(x)
    assert d.size == pytest.approx(100_000)
    assert d.centroid_count <= compression
    qs = np.array([0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999])
    soft = 0
    for q in qs:
        ix = d.quantile(q)
        q_back = exact_cdf(ix, s)[0]
        err = abs(q_back - q)
        assert err <= 0.012, f"{dist} q={q} round-trip err {err}"
        if err > 0.005:
            soft += 1
        x_true = exact_quantile(q, s)[0]
        cdf_err = abs(d.cdf(x_true) - exact_cdf(x_true, s)[0])
        assert cdf_err <= 0.08, f"{dist} q={q} cdf err {cdf_err}"
    assert soft < 3


@pytest.mark.parametrize("scale", [K_1, K_2, K_3], ids=lambda s: s.name)
def test_scale_function_variants_accurate(scale):
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, 100_000)
    s = np.sort(x)
    d = TDigest(100, scale=scale)
    d.update_batch(x)
    d.compress()
    for q in [0.01, 0.5, 0.99]:
        assert abs(d.quantile(q) - exact_quantile(q, s)[0]) < 0.01
    assert d.check_weights() <= 2


def test_invariant_checker_passes():
    rng = np.random.default_rng(9)
    d = TDigest(100)
    d.update_batch(rng.normal(0, 1, 200_000))
    d.compress()
    assert d.check_weights() == 0


# ------------------------------------------------------------------- layer 3


@pytest.mark.parametrize("parts", [2, 5, 10, 20, 50, 100])
def test_merge_accuracy(parts):
    """AccuracyTest.java:29-176: round-robin split, merge, compare to oracle
    within abs 0.015 / rel 0.4."""
    rng = np.random.default_rng(42)
    x = rng.uniform(0, 1, 100_000)
    s = np.sort(x)
    subs = []
    for i in range(parts):
        d = TDigest(100)
        d.update_batch(x[i::parts])
        subs.append(d)
    merged = TDigest.merge_all(subs)
    merged.compress()
    assert merged.size == pytest.approx(100_000)
    for q in [0.001, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999]:
        est = merged.quantile(q)
        true = exact_quantile(q, s)[0]
        assert abs(est - true) < 0.015, f"parts={parts} q={q}"
        if true > 1e-9:
            assert abs(est - true) / true < 0.4 or abs(est - true) < 0.015
        cdf_err = abs(merged.cdf(true) - exact_cdf(true, s)[0])
        assert cdf_err < 0.015


def test_merge_order_invariance():
    """Canonical concat-sort-merge => result independent of argument order."""
    rng = np.random.default_rng(8)
    x = rng.normal(0, 1, 60_000)
    subs = []
    for i in range(12):
        d = TDigest(100)
        d.update_batch(x[i::12])
        subs.append(d)
    m1 = TDigest.merge_all(subs)
    perm = list(np.random.default_rng(0).permutation(12))
    m2 = TDigest.merge_all([subs[i] for i in perm])
    c1 = m1.centroids()
    c2 = m2.centroids()
    assert np.array_equal(c1[0], c2[0])
    assert np.array_equal(c1[1], c2[1])


def test_tree_merge_matches_flat_merge():
    """Tree-of-merges (groupby combine shape) stays within tolerance of the
    flat one-shot merge (MegaMergeTest.java:36-142 topology freedom)."""
    rng = np.random.default_rng(13)
    x = rng.uniform(0, 1, 100_000)
    s = np.sort(x)
    subs = []
    for i in range(64):
        d = TDigest(100)
        d.update_batch(x[i::64])
        subs.append(d)
    # binary tree reduce
    level = subs
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level), 2):
            pair = level[i:i + 2]
            nxt.append(TDigest.merge_all(pair))
        level = nxt
    tree = level[0]
    flat = TDigest.merge_all(subs)
    for q in [0.01, 0.5, 0.99]:
        true = exact_quantile(q, s)[0]
        assert abs(tree.quantile(q) - true) < 0.015
        assert abs(tree.quantile(q) - flat.quantile(q)) < 0.02


def test_mega_merge():
    """Stress: 2000 small digests merged in chunks (MegaMergeTest-style)."""
    rng = np.random.default_rng(21)
    digests = []
    total = 0
    for i in range(2000):
        d = TDigest(50)
        vals = rng.normal(0, 1, 150)
        d.update_batch(vals)
        total += 150
        digests.append(d)
    merged = TDigest.merge_all(digests)
    merged.compress()
    assert merged.size == total
    assert abs(merged.quantile(0.5)) < 0.05
    assert merged.centroid_count <= 50


def test_serde_roundtrip_exact():
    """digest -> bytes -> digest with centroid-exact equality
    (TDigestSerializationTest.java:80-91)."""
    rng = np.random.default_rng(17)
    d = TDigest(100)
    d.update_batch(rng.gamma(2, 3, 30_000))
    b = d.to_bytes()
    d2 = TDigest.from_bytes(b)
    m1, w1 = d.centroids()
    m2, w2 = d2.centroids()
    assert np.array_equal(m1, m2)
    assert np.array_equal(w1, w2)
    assert d2.min == d.min and d2.max == d.max
    assert d2.public_compression == d.public_compression
    # double round-trip is byte-identical
    assert d2.to_bytes() == b


_SECOND_PASS_MERGES = pytest.mark.xfail(
    strict=True, reason="Known defect: on K_0 and the glued scales a "
    "second (backwards) pass can merge two centroids")


@pytest.mark.parametrize("scale", [
    K_1, K_2, K_3,
    pytest.param(K_0, marks=_SECOND_PASS_MERGES),
    pytest.param(K_2_GLUED, marks=_SECOND_PASS_MERGES)])
def test_to_bytes_idempotent_and_round_trips(scale):
    """A second ``to_bytes`` re-merges (backwards) and must give the same
    bytes, and so must ``from_bytes -> to_bytes``: unit-weight and
    weighted digests, merged digests, ties and both sides of the temp
    buffer."""
    rng = np.random.default_rng(29)
    for comp, n in [(10, 50), (37, 1500), (100, 3), (100, 900),
                    (100, 5000), (250, 20_000)]:
        for weighted in (False, True):
            v = np.round(rng.lognormal(0, 2, n), 1)
            w = rng.integers(1, 51, n).astype(np.float64) if weighted \
                else None
            d = TDigest(comp, scale)
            d.update_batch(v, w)
            o = TDigest(comp, scale)
            o.update_batch(rng.normal(0, 1, 300))
            for dig in (d, TDigest.merge_all([d, o])):
                b = dig.to_bytes()
                assert dig.to_bytes() == b
                assert TDigest.from_bytes(b, scale).to_bytes() == b


def test_unit_table_walks_once_per_length(monkeypatch):
    """The scalar walk behind the unit-weight boundary table runs once per
    distinct (scale, compression, n), however many digests share it."""
    import pyarrow as pa

    from t_digest_ray.pipelines.quantiles import tdigest_spec
    from t_digest_ray.stages.aggregate import KeyedSketches
    from t_digest_ray.state import tdigest as td

    walked = []
    walk = td._walk
    monkeypatch.setattr(td, "_walk", lambda cumw, *a: (
        walked.append(cumw.size), walk(cumw, *a))[1])
    td._unit_starts.cache_clear()
    rng = np.random.default_rng(31)

    def fresh(n, comp=100, scale=K_2):
        d = TDigest(comp, scale)
        d.update_batch(rng.normal(0, 1, n))
        return d

    def flush(sizes):
        """One ``KeyedSketches`` batch of a key per size: its flush
        encodes every run in one pass."""
        keys = np.repeat(np.arange(len(sizes)), sizes)
        acc = KeyedSketches(tdigest_spec(100))
        acc.add(pa.array(keys), {"v": pa.array(rng.normal(0, 1, keys.size))})
        acc.flush()

    sizes = [5, 7, 5, 7, 7, 1, 2, 40]
    flush(sizes)
    assert sorted(walked) == [5, 7, 40]  # n <= 2 needs no walk
    flush(sizes)
    for n in sizes:
        fresh(n).to_bytes()
    assert sorted(walked) == [5, 7, 40]
    fresh(5, comp=50).to_bytes()
    fresh(5, scale=K_1).to_bytes()
    assert sorted(walked) == [5, 5, 5, 7, 40]
    td._unit_starts.cache_clear()


def test_serde_merge_equivalence():
    """Merging deserialized digests equals merging the originals."""
    rng = np.random.default_rng(19)
    x = rng.uniform(0, 1, 50_000)
    subs = []
    for i in range(10):
        d = TDigest(100)
        d.update_batch(x[i::10])
        subs.append(d)
    via_bytes = TDigest.merge_all(
        [TDigest.from_bytes(d.to_bytes()) for d in subs])
    direct = TDigest.merge_all([TDigest.from_bytes(d.to_bytes()) for d in subs])
    m1 = via_bytes.centroids()
    m2 = direct.centroids()
    assert np.array_equal(m1[0], m2[0])


def test_trimmed_mean():
    rng = np.random.default_rng(23)
    x = rng.normal(10, 2, 100_000)
    d = TDigest(100)
    d.update_batch(x)
    s = np.sort(x)
    lo, hi = int(0.1 * len(s)), int(0.9 * len(s))
    true = s[lo:hi].mean()
    assert d.trimmed_mean(0.1, 0.9) == pytest.approx(true, rel=0.01)
    assert d.trimmed_mean(0, 1) == pytest.approx(x.mean(), rel=0.01)


def _seeded_merges():
    """(spec, groups) pairs: 3,000 seeded merge groups of encoded digests
    over four scales and compressions: 1-6 blobs of 1-300 points each,
    some rounded (ties), some weighted."""
    from t_digest_ray.pipelines.quantiles import tdigest_spec

    rng = np.random.default_rng(20260)
    for comp, scale in [(100, K_2), (50, K_1), (200, K_0), (30, K_2_GLUED)]:
        spec = tdigest_spec(comp, scale)
        groups = []
        for _ in range(750):
            g = []
            for _ in range(int(rng.integers(1, 7))):
                n = int(rng.integers(1, 301))
                v = rng.lognormal(0, 1.5, n)
                if rng.random() < 0.3:
                    v = np.round(v, 1)
                d = spec.factory()
                d.update_batch(v, rng.integers(1, 20, n).astype(np.float64)
                               if rng.random() < 0.25 else None)
                g.append(d.to_bytes())
            groups.append(g)
        yield spec, groups


def test_merge_bytes_many_seeded_hash():
    """The batched fold's bytes on 3,000 seeded merges hash to what the
    per-group ``spec.merge_bytes(g).to_bytes()`` loop gave before the
    batched fold existed (same hash from that loop today)."""
    import hashlib

    from t_digest_ray.state.protocol import merge_bytes_many

    h = hashlib.sha256()
    for spec, groups in _seeded_merges():
        for b in merge_bytes_many(spec, groups):
            h.update(b)
    assert h.hexdigest() == (
        "5de638aa0b91085602d9cfd918beaf83cbc217fc4fbe1f967be9ab0b2f9ffac0")


def _summary_blobs(spec, rng) -> list[bytes]:
    """Encoded sketches for the summary tests: empty, one to three
    points, rounded ties, weighted merges, a large digest and, for a
    t-digest, SMALL-encoded, unsorted and other-compression blobs."""
    from t_digest_ray.state.protocol import merge_bytes_many

    out = []
    for n in (0, 1, 2, 3, 50, 5000):
        sk = spec.factory()
        if n:
            sk.update_batch(np.round(rng.lognormal(0, 1, n), 1))
        out.append(sk.to_bytes())
    out += merge_bytes_many(spec, [out[1:4], out[3:], out[:2]])
    if isinstance(spec.factory(), TDigest):
        d = TDigest(50)
        d.update_batch(rng.normal(0, 1, 700), rng.integers(1, 9, 700)
                       .astype(np.float64))
        out += [d.to_bytes(), d.to_small_bytes()]
        out.append(TDigest(100).to_bytes()[:28]
                   + np.array([3], dtype=">i4").tobytes()
                   + np.array([2, 5.0, 1, -1.0, 4, 0.5], dtype=">f8")
                   .tobytes())  # centroids out of order
    return out


@pytest.mark.parametrize("kind", ["trims", "no_minmax", "cdf", "kll",
                                  "decoder_scale"])
def test_summarize_many_matches_per_row(kind):
    """The batched summaries equal the per-row
    ``spec.summarize(spec.from_bytes(b))`` value for value (NaN-equal):
    t-digest quantiles with trims, without min/max, CDFs, a KLL spec
    through the per-row fallback, and a spec whose decoder's scale is not
    its factory's (the per-row fallback again: a compress at the
    factory's scale would give other values)."""
    import pandas as pd

    from t_digest_ray.pipelines.quantiles import (cdf_spec, kll_spec,
                                                  tdigest_spec)
    from t_digest_ray.state.protocol import SketchSpec, summarize_many

    spec = {"trims": lambda: tdigest_spec(
                100, qs=(0.001, 0.3, 0.5, 0.999),
                trims=((0.05, 0.95), (0.1, 0.9), (0.0, 1.0))),
            "no_minmax": lambda: tdigest_spec(37, K_3, include_minmax=False),
            "cdf": lambda: cdf_spec((-1.0, 0.0, 0.5, 3.0, 1e9)),
            "kll": lambda: kll_spec(64),
            "decoder_scale": lambda: SketchSpec(
                "tdigest", lambda: TDigest(100, K_2),
                lambda b: TDigest.from_bytes(b, K_3),
                tdigest_spec(100, K_3).summarize)}[kind]()
    blobs = _summary_blobs(spec, np.random.default_rng(61))
    want = [spec.summarize(spec.from_bytes(b)) for b in blobs]
    got = summarize_many(spec, blobs)
    pd.testing.assert_frame_equal(pd.DataFrame(got), pd.DataFrame(want),
                                  check_exact=True)
