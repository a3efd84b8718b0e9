"""Property-based tests (hypothesis): invariants that must hold for ANY
input, not just the seeded fixtures — weight conservation, quantile
monotonicity and range, merge equivalence, serde round trips, the
partial layer's bytes against the per-key path and the segmented
summaries against the per-digest reads."""

from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from t_digest_ray.state import scale_functions as sfn
from t_digest_ray.state import tdigest
from t_digest_ray.state.kll import KllSketch
from t_digest_ray.state.req import ReqSketch
from t_digest_ray.state.tdigest import TDigest, _buffer_cap

finite = st.floats(min_value=-1e12, max_value=1e12,
                   allow_nan=False, allow_infinity=False)
values = arrays(np.float64, st.integers(1, 400), elements=finite)


@settings(max_examples=40, deadline=None)
@given(values)
def test_tdigest_weight_and_range(v):
    d = TDigest(50)
    d.update_batch(v)
    d.compress()
    assert d.size == len(v)
    m, w = d.centroids()
    assert w.sum() == len(v)
    assert np.all(np.diff(m) >= 0)
    assert d.min == v.min() and d.max == v.max()
    qs = np.linspace(0, 1, 11)
    est = d.quantile_batch(qs)
    assert np.all(np.diff(est) >= -1e-9), "quantiles must be monotone"
    assert est[0] >= v.min() - 1e-9 and est[-1] <= v.max() + 1e-9


@settings(max_examples=25, deadline=None)
@given(values, st.integers(2, 6))
def test_tdigest_split_merge_equals_whole_weight(v, parts):
    subs = []
    for p in np.array_split(v, parts):
        d = TDigest(50)
        if len(p):
            d.update_batch(p)
        subs.append(d)
    merged = TDigest(50).merge(*subs)
    assert merged.size == len(v)
    if len(v):
        assert merged.min == v.min() and merged.max == v.max()


@settings(max_examples=25, deadline=None)
@given(values)
def test_tdigest_serde_identity(v):
    d = TDigest(50)
    d.update_batch(v)
    d.compress()
    d2 = TDigest.from_bytes(d.to_bytes())
    assert np.array_equal(d.quantile_batch(np.linspace(0, 1, 7)),
                          d2.quantile_batch(np.linspace(0, 1, 7)))


@settings(max_examples=25, deadline=None)
@given(values)
def test_kll_rank_bounds(v):
    sk = KllSketch(200)
    sk.update_batch(v)
    assert sk.n == len(v)
    s = np.sort(v)
    for q in (0.0, 0.5, 1.0):
        est = sk.quantile(q)
        assert s[0] <= est <= s[-1]
    # rank of min is at most eps; rank of max is ~1
    assert sk.rank(s[-1] + 1.0) == 1.0


@settings(max_examples=25, deadline=None)
@given(values)
def test_req_count_and_top_rank(v):
    sk = ReqSketch(k=12)
    sk.update_batch(v)
    assert sk.n == len(v)
    s = np.sort(v)
    assert sk.quantile(1.0) == s[-1]  # hra keeps the top exactly
    assert sk.min == s[0] and sk.max == s[-1]


@settings(max_examples=20, deadline=None)
@given(values, values)
def test_merge_commutative_weight(a, b):
    da, db = TDigest(50), TDigest(50)
    da.update_batch(a)
    db.update_batch(b)
    ab = TDigest(50).merge(TDigest.from_bytes(da.to_bytes()),
                           TDigest.from_bytes(db.to_bytes()))
    ba = TDigest(50).merge(TDigest.from_bytes(db.to_bytes()),
                           TDigest.from_bytes(da.to_bytes()))
    assert ab.size == ba.size == len(a) + len(b)
    # canonical merge: same centroids regardless of argument order
    ma, wa = ab.centroids()
    mb, wb = ba.centroids()
    assert np.array_equal(ma, mb) and np.array_equal(wa, wb)


def test_bpe_token_count_segments():
    """BPE-ish pre-tokenizer counts (contractions, space-prefixed word/
    digit runs, punctuation runs, residual whitespace)."""
    import pandas as pd

    from t_digest_ray.functions.text import bpe_token_count

    s = pd.Series(["I'll say don't, twice!", "abc123 def", None, ""])
    assert bpe_token_count(s).tolist() == [8, 3, 0, 0]


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                min_size=1, max_size=50, unique=True))
def test_splitmix64_sql_parity(ids):
    """The samplers' oracle trick: splitmix64 reproduced in DuckDB via
    UHUGEINT arithmetic must match the numpy kernel bit-exactly for any
    uint64 input (this is what makes the 'random' sampling queries
    value-hash checkable)."""
    import duckdb

    from t_digest_ray.functions.hashing import splitmix64

    want = splitmix64(np.array(ids, dtype=np.uint64))
    vals = ", ".join(f"({i})" for i in ids)
    m64 = "CAST(18446744073709551616 AS UHUGEINT)"
    got = duckdb.sql(f"""
        WITH ids(x) AS (SELECT * FROM (VALUES {vals}) t(x)),
        s0 AS (SELECT x, (CAST(x AS UHUGEINT)
                          + CAST(11400714819323198485 AS UHUGEINT))
                          % {m64} AS z FROM ids),
        s1 AS (SELECT x, (xor(z, z >> 30)
                          * CAST(13787848793156543929 AS UHUGEINT))
                          % {m64} AS z FROM s0),
        s2 AS (SELECT x, (xor(z, z >> 27)
                          * CAST(10723151780598845931 AS UHUGEINT))
                          % {m64} AS z FROM s1)
        SELECT x, xor(z, z >> 31) FROM s2
    """).fetchall()
    got_map = {int(x): int(h) for x, h in got}
    want_map = {int(i): int(w) for i, w in zip(ids, want)}
    assert got_map == want_map


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=5),
                          st.integers(min_value=-100, max_value=100),
                          st.integers(min_value=0, max_value=10**6)),
                min_size=1, max_size=120),
       st.integers(min_value=1, max_value=6))
def test_head_k_per_run_matches_pandas(rows, k):
    """The shared top-k kernel (stratified_sample / topk_per_key) equals
    pandas sort+head for any (key, value, id) multiset."""
    import pandas as pd

    from t_digest_ray.pipelines.curation import _head_k_per_run

    keys = np.array([r[0] for r in rows], dtype=np.int64)
    vals = np.array([r[1] for r in rows], dtype=np.int64)
    ids = np.array([r[2] for r in rows], dtype=np.int64)
    take = _head_k_per_run((ids, vals, keys), keys, k)
    got = sorted(zip(keys[take], vals[take], ids[take]))
    want = sorted(map(tuple, pd.DataFrame({"k": keys, "v": vals, "i": ids})
                      .sort_values(["k", "v", "i"]).groupby("k").head(k)
                      .itertuples(index=False)))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(arrays(np.int64, st.integers(0, 120),
              elements=st.integers(0, 50)),
       st.integers(1, 40))
def test_fresh_pack_summary_matches_sequential(w, budget):
    """Binary-lifting fresh-pack DP == the naive sequential scan for EVERY
    suffix start, any weights (zeros and oversize included)."""
    from t_digest_ray.pipelines.curation import (_fresh_pack_summary,
                                                 _pack_jump)

    P = np.concatenate(([np.int64(0)], np.cumsum(w)))
    K, last = _fresh_pack_summary(P, budget)
    m = len(w)

    def seq_fresh(i):
        # pack w[i:] starting a new empty shard; oversize -> singleton
        shards, fill, start, pos = 0, 0, i, i
        if i == m:
            return 0, i
        shards, fill, start = 1, 0, i
        for j in range(i, m):
            wj = int(w[j])
            if j > i and (fill + wj > budget or w[start] > budget):
                shards += 1
                start = j
                fill = wj
            else:
                fill += wj
        return shards, start

    for i in range(m + 1):
        ks, ls = seq_fresh(i)
        assert K[i] == ks, (i, list(w), budget)
        if i < m:
            assert last[i] == ls, (i, list(w), budget)
    # jump sanity: a fresh shard never exceeds budget unless singleton
    if m:
        e = _pack_jump(P, budget)
        for i in range(m):
            if e[i] > i + 1:
                assert P[e[i]] - P[i] <= budget


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.sampled_from(["aa", "b", "ccc", "dd", ""]),
                         min_size=0, max_size=12),
                min_size=1, max_size=8),
       st.integers(2, 4))
def test_word_gram_hashes_match_python_reference(docs_tokens, n):
    """Gram extraction must equal the obvious per-doc Python loop for
    ANY token layout (empties dropped, boundaries never straddled)."""
    import pyarrow as pa

    from t_digest_ray.functions.hashing import hash64
    from t_digest_ray.pipelines.textstats import _word_gram_hashes

    texts = [" ".join(toks) for toks in docs_tokens]
    h, doc_of = _word_gram_hashes(pa.array(texts, type=pa.string()), n)

    want_pairs = []
    for i, toks in enumerate(docs_tokens):
        toks = [t for t in toks if t]
        for j in range(len(toks) - n + 1):
            want_pairs.append((i, " ".join(toks[j:j + n])))
    got = sorted(zip(doc_of.tolist(), h.tolist()))
    want = sorted((i, int(hash64(np.array([g], dtype=object))[0]))
                  for i, g in want_pairs)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(values, st.floats(min_value=0.05, max_value=0.95))
def test_kllpm_pure_inserts_equals_plain_kll(v, q):
    """With no deletions KLL± must degenerate to the base KLL exactly
    (same seed, same stream -> same retained items -> same answer)."""
    from t_digest_ray.state.kllpm import KllPM

    base = KllSketch(200)
    base.update_batch(v)
    pm = KllPM(200)
    pm.update_batch(v)
    assert pm.size == base.n
    assert pm.quantile(q) == base.quantile(q)


@settings(max_examples=60, deadline=None)
@given(arrays(np.int64, st.integers(1, 120),
              elements=st.integers(0, 12)),
       arrays(np.int64, st.integers(1, 120),
              elements=st.integers(0, 12)))
def test_frontier_mask_properties(x, y):
    """Frontier invariants for ANY point set: non-empty, contains the
    max-x and max-y points, survivors mutually non-dominating, and
    merge-equivalence (frontier of frontiers == frontier of union)."""
    from t_digest_ray.pipelines.stats import _frontier_mask

    n = min(len(x), len(y))
    x, y = x[:n].astype(float), y[:n].astype(float)
    m = _frontier_mask(x, y)
    assert m.any()
    # the lexicographic (x, y) max point always survives
    best = np.lexsort((y, x))[-1]
    assert m[best]
    fx, fy = x[m], y[m]
    for i in range(len(fx)):
        dom = ((fx >= fx[i]) & (fy >= fy[i])
               & ((fx > fx[i]) | (fy > fy[i])))
        assert not dom.any()
    # mergeability
    h = n // 2
    ka, kb = _frontier_mask(x[:h], y[:h]), _frontier_mask(x[h:], y[h:])
    ux = np.concatenate([x[:h][ka], x[h:][kb]])
    uy = np.concatenate([y[:h][ka], y[h:][kb]])
    whole = sorted(zip(x[m], y[m]))
    merged = sorted(zip(ux[_frontier_mask(ux, uy)],
                        uy[_frontier_mask(ux, uy)]))
    assert whole == merged


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abc", max_size=7),
       st.text(alphabet="abc", max_size=7))
def test_within_one_edit_matches_dp_any_strings(a, b):
    from t_digest_ray.stages.fuzzy import within_one_edit

    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    assert within_one_edit(a, b) == (prev[-1] == 1)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcd", min_size=0, max_size=8),
       st.text(alphabet="abcd", min_size=0, max_size=8))
def test_deletion_blocking_complete_any_pair(a, b):
    """Any distance-1 pair shares a deletion variant (SymSpell
    completeness) — for arbitrary strings, not just fixtures."""
    from t_digest_ray.stages.fuzzy import _deletion_variants

    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    if prev[-1] == 1:
        assert set(_deletion_variants(a)) & set(_deletion_variants(b))


@settings(max_examples=40, deadline=None)
@given(arrays(np.int64, st.integers(2, 200),
              elements=st.integers(0, 50)))
def test_gini_range_and_translation(cents):
    """Gini of any non-negative sample lies in [0, 1); equal values give
    exactly 0; scaling by a positive constant leaves it unchanged."""
    from tests.test_analytics_ops import brute_gini

    if cents.sum() == 0:
        return
    g = brute_gini(cents)
    assert 0.0 <= g < 1.0
    assert abs(brute_gini(cents * 3) - g) < 1e-12
    eq = np.full(len(cents), 7)
    assert brute_gini(eq) == 0.0


# ---------------------------------------------------------- selection kernels


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**9, 10**9), st.integers(1, 10**9),
       st.integers(2, 512))
def test_selection_bin_inversion_identity(lo, width, n_bins):
    """The closed forms v_lo = lo + ceil(j·w/B) and
    v_hi = lo + ceil((j+1)·w/B) − 1 exactly characterize
    {v : ((v−lo)·B)//w == j} — the invariant the narrowing loop and
    the final exact-value resolution both rest on."""
    hi = lo + width - 1
    # probe a handful of values across the range
    probes = np.unique(np.clip(
        lo + np.array([0, 1, width // 3, width // 2, width - 1]),
        lo, hi))
    for v in probes:
        j = int(((int(v) - lo) * n_bins) // width)
        v_lo = lo + (j * width + n_bins - 1) // n_bins
        v_hi = lo + ((j + 1) * width - 1) // n_bins
        assert v_lo <= v <= v_hi
        # boundary values map outside bin j
        if v_lo - 1 >= lo:
            assert ((v_lo - 1 - lo) * n_bins) // width < j
        if v_hi + 1 <= hi:
            assert ((v_hi + 1 - lo) * n_bins) // width > j


@settings(max_examples=100, deadline=None)
@given(arrays(np.int64, st.integers(1, 60),
              elements=st.integers(0, 1000)),
       arrays(np.int64, st.integers(1, 60),
              elements=st.integers(0, 9)),
       st.tuples(st.integers(1, 99), st.just(100)))
def test_weighted_rank_rule_matches_cumsum(vals, wts, q):
    """smallest v with den·cumw(≤v) ≥ num·W  ==  the value at rank
    ceil(num·W/den) in the weight-expanded multiset (zero-weight
    values can never be the answer unless the whole mass is zero)."""
    n = min(len(vals), len(wts))
    vals, wts = vals[:n], wts[:n]
    W = int(wts.sum())
    if W == 0:
        return
    num, den = q
    order = np.argsort(vals, kind="stable")
    v_sorted, w_sorted = vals[order], wts[order]
    cw = np.cumsum(w_sorted)
    rule = int(v_sorted[np.argmax(den * cw >= num * W)])
    expanded = np.repeat(v_sorted, w_sorted)
    target = max(-(-num * W // den), 1)          # ceil
    oracle = int(expanded[target - 1])
    assert rule == oracle


SCALES = [sfn.K_0, sfn.K_1, sfn.K_2, sfn.K_3,
          sfn.K_1_GLUED, sfn.K_2_GLUED, sfn.K_3_GLUED]
KINDS = ["fresh", "rounded", "weighted", "merged", "backwards", "other"]


@st.composite
def digest_batches(draw):
    """Digests of one scale and compression: fresh unit-weight ones (the
    table's path) beside weighted points, centroids from a merge or a
    compress (the next pass runs backwards) and another compression, with
    ties, -0.0 and group sizes around the buffer."""
    scale = draw(st.sampled_from(SCALES))
    comp = draw(st.integers(10, 500))
    cap = _buffer_cap(float(comp))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    groups = draw(st.lists(st.tuples(
        st.one_of(st.sampled_from([0, 1, 2, 3, cap - 1, cap, cap + 1]),
                  st.integers(1, 300)),
        st.sampled_from(KINDS)), min_size=1, max_size=6))
    digests = []
    for n, kind in groups:
        d = TDigest(comp + (kind == "other"), scale)
        v = rng.normal(0, 1, n)
        if kind == "rounded":
            v = np.round(v, 1)  # ties, and -0.0 beside 0.0
        if kind == "weighted" and n:
            d.update_batch(v, rng.integers(1, 5, n).astype(np.float64))
        else:
            for part in np.array_split(v, 1 + n % 3):
                if part.size:
                    d.update_batch(part)
        if kind == "merged":
            o = TDigest(comp, scale)
            o.update_batch(rng.normal(0, 1, 20))
            d.merge(o)
        if kind == "backwards":
            d.compress()
            d.update_batch(rng.normal(0, 1, 5))
        digests.append(d)
    return digests


VALUE_KINDS = ["plain", "rounded", "neg_zero", "zero_extremes"]


@st.composite
def keyed_batches(draw):
    """A spec and the batches one task feeds ``KeyedSketches``: a plain
    t-digest at any scale and compression, or a KLL spec; int keys whose
    totals sit at the temp buffer's cap - 1, cap and cap + 1 or anywhere
    below; one batch or several chunks (a key's slice of a whole buffer
    takes ``update_batch``'s bulk path, a later slice past the buffer
    replays); ties, a -0.0 inside a run, 0.0 and -0.0 as a run's
    extremes; weighted batches; one or two metrics; the global key."""
    from t_digest_ray.pipelines.quantiles import kll_spec, tdigest_spec

    scale = draw(st.sampled_from(SCALES))
    comp = draw(st.integers(10, 300))
    kll = draw(st.integers(0, 5)) == 0
    spec = kll_spec(32) if kll else tdigest_spec(comp, scale)
    cap = _buffer_cap(float(comp))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sizes = draw(st.lists(st.one_of(
        st.sampled_from([1, 2, cap - 1, cap, cap + 1]),
        st.integers(1, 300)), min_size=1, max_size=6))
    keys = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    vals = np.empty(keys.size)
    for k, n in enumerate(sizes):
        v = rng.normal(0, 1, n)
        kind = VALUE_KINDS[rng.integers(len(VALUE_KINDS))]
        if kind == "rounded":
            v = np.round(v, 1)  # ties, and -0.0 beside 0.0
        elif kind == "neg_zero":
            v[rng.integers(0, n, 2)] = -0.0
        elif kind == "zero_extremes":
            v = np.abs(v) * rng.choice([-1, 1])
            v[rng.integers(0, n, 2)] = rng.choice([0.0, -0.0], 2)
        vals[keys == k] = v
    order = rng.permutation(keys.size)
    table = pa.table({"k": keys[order], "x": vals[order],
                      "y": rng.lognormal(0, 1, keys.size),
                      "w": rng.integers(1, 4, keys.size).astype(float)})
    cuts = np.sort(rng.integers(0, keys.size + 1,
                                draw(st.sampled_from([0, 0, 1, 2, 4]))))
    chunks = [table.slice(a, b - a)
              for a, b in zip(np.r_[0, cuts], np.r_[cuts, keys.size])]
    weighted = not kll and draw(st.integers(0, 4)) == 0
    return (spec, chunks, draw(st.sampled_from([("x",), ("x", "y")])),
            draw(st.sampled_from(["k", "k", None])), weighted)


def _per_key_rows(spec, chunks, metrics, key, weighted) -> list:
    """The rows the per-key object path gives: one fresh sketch per
    (metric, key), one ``update_batch`` per chunk with the key's values
    in input order, then ``to_bytes``; first-seen order, keys sorted
    within a chunk."""
    accs: dict = {}
    for c in chunks:
        w = c["w"].to_numpy() if weighted else None
        ks = np.zeros(c.num_rows, dtype=np.int64) if key is None \
            else c[key].to_numpy()
        for m in metrics:
            v = c[m].to_numpy()
            for k in (np.unique(ks) if c.num_rows or key else [0]):
                idx = np.flatnonzero(ks == k)
                acc = accs.setdefault((m, "" if key is None else int(k)),
                                      [spec.factory(), 0.0])
                acc[0].update_batch(v[idx], None if w is None else w[idx])
                acc[1] += float(idx.size)
    return [(m, k, sk.to_bytes(), n) for (m, k), (sk, n) in accs.items()]


@settings(max_examples=80, deadline=None)
@given(keyed_batches())
def test_flush_matches_per_key_path(case):
    """``KeyedSketches`` (raw runs, replay on overflow, the one-pass
    encode) flushes the rows of the per-key object path: same order,
    bytes and counts."""
    from t_digest_ray.stages.aggregate import KeyedSketches

    spec, chunks, metrics, key, weighted = case
    acc = KeyedSketches(spec, key or "key", with_metric=True)
    for c in chunks:
        acc.add(None if key is None else c[key], {m: c[m] for m in metrics},
                c["w"] if weighted else None)
    rows = acc.flush().to_pylist()
    assert [(r["metric"], r["key"], r["sketch"], r["n"]) for r in rows] \
        == _per_key_rows(spec, chunks, metrics, key, weighted)


@st.composite
def summary_cases(draw):
    """A quantile spec and encoded digests for the segmented summaries:
    any scale (K_0 and the glued ones too) and compression; q of 0 and 1,
    q near either tail (the tail interpolation) and anywhere; trims;
    digests of 0, 1, 2, 3 and many points, unit-weight (weight-1
    neighbours), with integer or fractional weights (running sums that
    round), rounded (ties) and merged; hand-made blobs of two
    centroids."""
    from t_digest_ray.pipelines.quantiles import tdigest_spec
    from t_digest_ray.state.protocol import merge_bytes_many

    scale = draw(st.sampled_from(SCALES))
    comp = draw(st.integers(10, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    qs = sorted({0.0, 1.0, 1e-4, 1 - 1e-4,
                 *draw(st.lists(st.floats(0, 1), max_size=4))})
    trims = draw(st.lists(st.tuples(st.floats(0, 0.5), st.floats(0.5, 1)),
                          max_size=2))
    spec = tdigest_spec(comp, scale, qs=qs, trims=trims,
                        include_minmax=draw(st.booleans()))
    blobs = []
    for n in draw(st.lists(st.sampled_from([0, 1, 2, 3, 7, 60, 2000]),
                           min_size=1, max_size=8)):
        d = spec.factory()
        if n:
            v = rng.lognormal(0, 1, n)
            if rng.random() < 0.3:
                v = np.round(v, 1)
            d.update_batch(v, [None, rng.integers(1, 4, n).astype(float),
                               rng.uniform(0.3, 3.0, n)][rng.integers(3)])
        blobs.append(d.to_bytes())
    blobs += merge_bytes_many(spec, [blobs, blobs[::2]])
    for w in ([1.0, 1.0], [1.0, 5.0], [4.0, 1.0], [3.0, 6.0], [0.7, 2.9]):
        blobs.append(_verbose_blob(np.sort(rng.normal(0, 1, 2)), w, comp))
    return spec, blobs


@settings(max_examples=80, deadline=None)
@given(summary_cases())
def test_segmented_summaries_match_per_digest(case):
    """``summarize_many`` (one segmented pass over every digest) gives
    each row's ``spec.summarize(spec.from_bytes(b))``: equal values, or
    both NaN, in the same columns."""
    from t_digest_ray.state.protocol import summarize_many

    spec, blobs = case
    want = [spec.summarize(spec.from_bytes(b)) for b in blobs]
    got = summarize_many(spec, blobs)
    assert [list(r) for r in got] == [list(r) for r in want]
    for g, w in zip(got, want):
        for c in w:
            assert g[c] == w[c] or (np.isnan(g[c]) and np.isnan(w[c])), c


@settings(max_examples=60, deadline=None)
@given(digest_batches())
def test_unit_weight_table_matches_scalar_walk(digests):
    """The cached unit-weight boundary table gives the bytes of the
    scalar walk, in either merge direction (a second ``to_bytes`` re-merges
    backwards)."""
    def encode(ds):
        ds = copy.deepcopy(ds)
        return [d.to_bytes() for d in ds] + [d.to_bytes() for d in ds]

    fast = encode(digests)
    with mock.patch.object(tdigest, "_buffer_cap", lambda c: 0):
        scalar = encode(digests)
    assert fast == scalar


WALK_SCALES = SCALES + [sfn.K_2_NO_NORM]


def _step_to(s: float, target: float) -> float:
    """A weight w with ``s + w == target`` in float64 (a running sum
    steps exactly onto ``target``), or the nearest try."""
    w = target - s
    for _ in range(8):
        miss = target - (s + w)
        if not miss:
            break
        w += miss
    return w


def _on_limits(rng, scale, comp: float) -> np.ndarray:
    """Weights whose running sum (``np.cumsum``, sequential) steps exactly
    onto the walk's own k-limits, computed with the total that sum ends
    on, so a limit one ulp off moves a cluster boundary."""
    total = float(rng.integers(50, 5000))
    norm = scale.normalizer(comp, total)
    s = float(rng.uniform(0.5, 2.0))
    w = [s]
    while len(w) < 400:
        lim = total * scale.q_scalar(
            scale.k_scalar(s / total, norm) + 1.0, norm)
        if not s < lim < total:
            break
        for x in sorted(rng.uniform(s, lim, rng.integers(0, 3)).tolist()):
            w.append(_step_to(s, x))
            s += w[-1]
        w.append(_step_to(s, lim))
        s += w[-1]
    w.append(_step_to(s, total))
    return np.array(w)


@st.composite
def weighted_lanes(draw):
    """Weights of many segments: one lane or hundreds, of different
    lengths, each lane with integer, float or unit weights, runs of
    weights too small to move the running sum (tied cumulative weights),
    or running sums that land on the walk's limits."""
    scale = draw(st.sampled_from(WALK_SCALES))
    comp = float(draw(st.integers(10, 500)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lanes = []
    for _ in range(draw(st.sampled_from([1, 2, 9, 300]))):
        kind = ["int", "float", "unit", "ties", "limits"][rng.integers(5)]
        n = int(rng.integers(3, 400))
        if kind == "limits":
            w = _on_limits(rng, scale, comp)
        elif kind == "int":
            w = rng.integers(1, 50, n).astype(np.float64)
        elif kind == "float":
            w = rng.lognormal(0, 1.5, n)
        elif kind == "unit":
            w = np.ones(n)
        else:
            w = np.where(rng.random(n) < 0.3, 1e-18,
                         rng.integers(1, 5, n).astype(np.float64))
        lanes.append(w)
    return scale, comp, lanes


@settings(max_examples=40, deadline=None)
@given(weighted_lanes())
def test_segmented_walk_matches_scalar_walk(case):
    """The lockstep walk over concatenated segments, on their per-segment
    running sums, gives every segment exactly the cluster starts of the
    scalar ``_walk`` on that segment's ``np.cumsum``."""
    scale, comp, lanes = case
    off = np.concatenate(([0], np.cumsum([w.size for w in lanes])))
    cumw = tdigest._seg_cumsum(np.concatenate(lanes), off)
    starts = tdigest._seg_walk(cumw, off, scale, comp)
    got = np.split(starts, np.searchsorted(starts, off[1:-1]))
    for w, a, s in zip(lanes, off.tolist(), got):
        assert (s - a).tolist() == tdigest._walk(np.cumsum(w), scale, comp)


def _verbose_blob(means, weights, comp, lo=None, hi=None) -> bytes:
    """A VERBOSE digest encoding written by hand."""
    import struct
    body = np.empty(2 * len(means), dtype=">f8")
    body[0::2] = weights
    body[1::2] = means
    return struct.pack(">idddi", tdigest.VERBOSE_ENCODING,
                       means[0] if lo is None else lo,
                       means[-1] if hi is None else hi,
                       float(comp), len(means)) + body.tobytes()


GROUP_KINDS = ["digests", "weighted", "rounded", "small", "empty", "none",
               "short", "unit", "zeros", "other_comp"]


@st.composite
def blob_groups(draw):
    """A spec and groups of encoded digests covering every branch of the
    batched fold: VERBOSE blobs from fresh, weighted and rounded digests
    (ties, -0.0 beside 0.0), SMALL and empty (n=0) blobs, None entries,
    merges of at most two points, all-unit-weight groups of cap - 1, cap
    and cap + 1 points (the temp buffer at the internal compression),
    header minima -0.0 and 0.0 in either order, and blobs encoded at
    another compression."""
    from t_digest_ray.pipelines.quantiles import tdigest_spec
    from t_digest_ray.state.protocol import SketchSpec

    scale = draw(st.sampled_from(SCALES))
    comp = draw(st.integers(10, 300))
    if draw(st.booleans()):
        spec = tdigest_spec(comp, scale)
    else:
        spec = SketchSpec(
            name="td", factory=lambda: TDigest(comp, scale,
                                               use_alternating=False),
            from_bytes=lambda b: TDigest.from_bytes(b, scale))
    cap = _buffer_cap(spec.factory().compression)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def blob(n, weighted=False, rounded=False, c=comp):
        d = TDigest(c, scale)
        if n:
            v = rng.lognormal(0, 1, n) * rng.choice([-1, 1], n)
            if rounded:
                v = np.round(v, 1)
            d.update_batch(v, rng.integers(1, 9, n).astype(np.float64)
                           if weighted else None)
        return d.to_bytes()

    groups = []
    for kind in draw(st.lists(st.sampled_from(GROUP_KINDS), min_size=1,
                              max_size=10)):
        k = int(rng.integers(1, 6))
        sizes = rng.integers(1, 400, k).tolist()
        if kind == "digests":
            g = [blob(n) for n in sizes]
        elif kind == "weighted":
            g = [blob(n, weighted=True) for n in sizes]
        elif kind == "rounded":
            g = [blob(n, rounded=True) for n in sizes]
        elif kind == "small":
            d = TDigest(comp, scale)
            d.update_batch(rng.normal(0, 1, 200))
            g = [blob(n) for n in sizes] + [d.to_small_bytes()]
        elif kind == "empty":
            g = [blob(0)] + [blob(n) for n in sizes[:int(rng.integers(0, 2))]]
        elif kind == "none":
            g = [blob(sizes[0]), None]
        elif kind == "short":
            g = [_verbose_blob(np.sort(rng.normal(0, 1, 1)), [3.0], comp),
                 blob(int(rng.integers(0, 2)))]
        elif kind == "unit":
            n = cap + int(rng.integers(-1, 2))
            parts = np.array_split(np.sort(np.round(rng.normal(0, 1, n), 2)),
                                   int(rng.integers(1, 4)))
            g = [_verbose_blob(p, np.ones(p.size), comp) for p in parts]
        elif kind == "zeros":
            a = _verbose_blob(np.array([-0.0, 1.0, 2.0]), np.ones(3), comp)
            b = _verbose_blob(np.array([0.0, 0.5, 3.0]), [1.0, 2.0, 1.0],
                              comp)
            g = [a, b] if rng.random() < 0.5 else [b, a]
        else:
            g = [blob(n, c=comp * 2) for n in sizes]
        groups.append(g)
    return spec, groups


@settings(max_examples=60, deadline=None)
@given(blob_groups())
def test_merge_bytes_many_matches_merge_bytes(case):
    from t_digest_ray.state.protocol import merge_bytes_many

    spec, groups = case
    want = [spec.merge_bytes(g).to_bytes() for g in groups]
    assert merge_bytes_many(spec, groups) == want
