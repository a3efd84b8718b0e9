"""Ray-level distributed equivalence tests (the layer-3 centerpiece,
SURVEY.md §5: groupby-aggregate vs driver-side loop, parallelism invariance,
byte-identical extraction per url at two parallelism levels)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from t_digest_ray.pipelines.quantiles import (kll_spec, make_fused_partials,
                                              pages_quantiles,
                                              quantiles_by_key,
                                              tdigest_spec)
from t_digest_ray.sources.pages import generate_pages_batch, synthetic_pages
from t_digest_ray.stages.aggregate import (KeyedSketches, make_partial_fn,
                                           sketch_aggregate_fn, sketch_by_key)
from t_digest_ray.stages.extract import ExtractText
from t_digest_ray.state.exact import exact_quantile
from t_digest_ray.state.tdigest import TDigest

N = 20_000


@pytest.fixture(scope="module")
def lineitem(ray_session):
    import ray.data as rd
    return rd.read_parquet("/root/testdata/sf0.01/lineitem.parquet",
                           columns=["l_returnflag", "l_extendedprice"])


def test_grouped_digest_matches_driver_loop(ray_session, lineitem):
    """Ray partial -> merge == driver-side single-digest within merge bounds
    (AccuracyTest.java:137-149 tolerances applied to the Ray topology)."""
    out = quantiles_by_key(lineitem, "l_extendedprice", "l_returnflag",
                           batch_size=4096).to_pandas()
    pdf = lineitem.to_pandas()
    for flag, grp in pdf.groupby("l_returnflag"):
        vals = np.sort(grp["l_extendedprice"].to_numpy())
        row = out[out.l_returnflag == flag].iloc[0]
        assert row["n"] == len(vals)
        for q in (0.25, 0.5, 0.75, 0.99):
            est = row[f"q{int(q * 100)}"]
            # rank error of the estimate (AccuracyTest.java:137-149 bound)
            rank_err = abs(np.searchsorted(vals, est) / len(vals) - q)
            assert rank_err < 0.015, f"{flag} q{q}: {est} rank err {rank_err}"
        assert row["min"] == vals[0] and row["max"] == vals[-1]


_FOLD_CASES = {
    "tdigest-string_keys": ("s", "x"),
    "tdigest-int64_keys": ("i", "x"),
    "hll-string_keys": ("s", "u"),
}


@pytest.mark.parametrize("case", list(_FOLD_CASES))
def test_fold_byte_identical_over_block_splits(ray_session, case):
    """One fixed set of partial rows, shuffled and split over 1 and over 7
    blocks, folds to the same bytes and n per key, equal to one in-process
    ``spec.merge_bytes`` per group over the rows in their original order;
    the key column keeps its Arrow type and comes out sorted."""
    import ray
    import ray.data as rd

    from t_digest_ray.pipelines.distinct import hll_spec
    from t_digest_ray.stages.aggregate import merge_partials

    key, value = _FOLD_CASES[case]
    spec = hll_spec(10) if case.startswith("hll") else tdigest_spec(100)
    rng = np.random.default_rng(17)
    n = 12_000
    names = np.asarray([f"k{j}" for j in range(9)], dtype=object)
    t = pa.table({
        "s": pa.array(names[rng.zipf(1.6, n) % 9], pa.string()),
        "i": pa.array(rng.integers(-4, 5, n), pa.int64()),
        "x": rng.lognormal(1.0, 1.0, n),
        "u": pa.array(rng.integers(0, 3000, n), pa.int64()),
    })
    fn = make_partial_fn(spec, value, key)
    parts = pa.concat_tables([fn(t.slice(off, 1000))
                              for off in range(0, n, 1000)])
    groups: dict = {}
    for r in parts.to_pylist():
        g = groups.setdefault(r["key"], [[], 0.0])
        g[0].append(r["sketch"])
        g[1] += r["n"]
    want = {k: (spec.merge_bytes(blobs).to_bytes(), cnt)
            for k, (blobs, cnt) in groups.items()}

    for n_blocks in (1, 7):
        shuffled = parts.take(rng.permutation(parts.num_rows))
        blocks = [shuffled.take(idx) for idx in
                  np.array_split(np.arange(parts.num_rows), n_blocks)]
        out = merge_partials(rd.from_arrow(blocks), spec).materialize()
        got = pa.concat_tables(ray.get(out.to_arrow_refs()))
        assert got.schema.field("key").type == t.schema.field(key).type
        assert got["key"].to_pylist() == sorted(want)
        assert {r["key"]: (r["sketch"], r["n"])
                for r in got.to_pylist()} == want


def test_global_aggregate_fn(ray_session):
    """The generic AggregateFn adapter on Dataset.aggregate."""
    import ray.data as rd
    rng = np.random.default_rng(0)
    vals = rng.uniform(0, 1, N)
    ds = rd.from_pandas(pd.DataFrame({"x": vals}))
    spec = tdigest_spec(100)
    agg = sketch_aggregate_fn(spec, "x", name="digest")
    res = ds.aggregate(agg)
    d = TDigest.from_bytes(res["digest"])
    assert d.size == N
    s = np.sort(vals)
    assert abs(d.quantile(0.5) - exact_quantile(0.5, s)[0]) < 0.015


def test_parallelism_invariance_of_extraction(ray_session):
    """Byte-identical extracted text per url at 2 vs 16 blocks (the per-row
    invariant from BASELINE.json input_hint)."""
    outs = {}
    for blocks in (2, 16):
        pages = synthetic_pages(2_000, parallelism=blocks)
        ext = pages.map_batches(ExtractText(), batch_format="pyarrow")
        df = ext.select_columns(["url", "text", "extracted_text"]).to_pandas()
        assert (df["text"] == df["extracted_text"]).all()
        outs[blocks] = df.sort_values("url").reset_index(drop=True)
    assert outs[2]["url"].tolist() == outs[16]["url"].tolist()
    assert outs[2]["extracted_text"].tolist() == outs[16]["extracted_text"].tolist()


def test_sketch_rows_deterministic_across_parallelism(ray_session):
    """Final merged sketch summaries identical at different block counts:
    partials are content-derived and merges canonical."""
    res = {}
    for blocks in (3, 12):
        pages = synthetic_pages(10_000, parallelism=blocks)
        out = pages_quantiles(
            pages, value_cols=("text_length",))["text_length"].to_pandas()
        res[blocks] = out.sort_values("lang").reset_index(drop=True)
    a, b = res[3], res[12]
    assert a["lang"].tolist() == b["lang"].tolist()
    assert (a["n"] == b["n"]).all()
    # batch boundaries differ so sketches differ slightly — but only within
    # the merge tolerance
    assert np.allclose(a["q50"], b["q50"], rtol=0.02)
    assert np.allclose(a["min"], b["min"]) and np.allclose(a["max"], b["max"])


def test_fused_synthetic_flagship_matches_staged(ray_session):
    """synthetic_pages_quantiles (generation fused into the chunk loop —
    the pages block never materializes, VERDICT r02 item 2) must compute
    the same answer as the staged synthetic_pages -> pages_quantiles
    path, exactly: both process identical 4k-row generation chunks, so
    the partials and the canonical merge are bit-equal."""
    from t_digest_ray.pipelines.quantiles import synthetic_pages_quantiles

    staged = pages_quantiles(synthetic_pages(10_000, parallelism=3),
                             value_cols=("text_length", "html_size"))[
        "html_size"].to_pandas().sort_values("lang").reset_index(drop=True)
    fused = synthetic_pages_quantiles(10_000,
                                      value_cols=("text_length",
                                                  "html_size"),
                                      rows_per_block=4096)["html_size"] \
        .to_pandas().sort_values("lang").reset_index(drop=True)
    assert staged["lang"].tolist() == fused["lang"].tolist()
    assert (staged["n"] == fused["n"]).all()
    assert np.allclose(staged["q50"], fused["q50"], rtol=0.02)
    assert np.allclose(staged["min"], fused["min"])
    assert np.allclose(staged["max"], fused["max"])


def test_weighted_sketch_by_key(ray_session):
    import ray.data as rd
    df = pd.DataFrame({
        "g": ["a"] * 100 + ["b"] * 100,
        "x": np.concatenate([np.arange(100.0), np.arange(100.0) * 2]),
        "w": np.concatenate([np.ones(100), np.full(100, 3.0)]),
    })
    ds = rd.from_pandas(df)
    spec = tdigest_spec(100)
    out = sketch_by_key(ds, spec, "x", "g", weight_col="w",
                        batch_size=64).to_pandas()
    assert set(out["key"]) == {"a", "b"}
    d = TDigest.from_bytes(
        out[out.key == "b"]["sketch"].iloc[0])
    assert d.size == 300.0


def test_hash_bucketed_group_agg_matches_pandas(ray_session):
    """The vectorized many-group aggregate equals pandas groupby for
    count/sum/min/max, at any bucket count."""
    import ray

    from t_digest_ray.stages.aggregate import hash_bucketed_group_agg

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "a": rng.integers(0, 300, 20_000).astype(np.int64),
        "b": rng.integers(0, 50, 20_000).astype(np.int64),
        "v": rng.normal(size=20_000),
    })
    want = (df.groupby(["a", "b"])
            .agg(n=("v", "size"), s=("v", "sum"),
                 lo=("v", "min"), hi=("v", "max"))
            .reset_index().sort_values(["a", "b"]).reset_index(drop=True))
    for coarse in (1, 64):
        got = hash_bucketed_group_agg(
            ray.data.from_pandas(df).repartition(5), ["a", "b"],
            {"n": ("v", "count"), "s": ("v", "sum"),
             "lo": ("v", "min"), "hi": ("v", "max")},
            coarse=coarse).to_pandas()
        got = got[["a", "b", "n", "s", "lo", "hi"]] \
            .sort_values(["a", "b"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            got.astype({"n": np.int64}), want.astype({"n": np.int64}))


def _argsort_partials(spec, chunks, metrics, key, weight):
    """Reference grouping: stable argsort over the key VALUES plus
    ``np.unique`` bounds, one fancy-indexed gather per key, sketches
    carried across chunks."""
    accs = {}
    for t in chunks:
        w = None if weight is None else t[weight].to_numpy()
        for m in metrics:
            vals = t[m].to_numpy()
            if key is None:
                groups = [("", np.arange(len(vals)))]
            else:
                karr = t[key].to_numpy(zero_copy_only=False)
                order = np.argsort(karr, kind="stable")
                uniq, starts = np.unique(karr[order], return_index=True)
                bounds = np.append(starts, len(karr))
                groups = [(k, order[bounds[i]:bounds[i + 1]])
                          for i, k in enumerate(uniq)]
            for k, idx in groups:
                acc = accs.setdefault((m, k), [spec.factory(), 0.0])
                acc[0].update_batch(vals[idx],
                                    None if w is None else w[idx])
                acc[1] += float(len(idx))
    return {mk: (sk.to_bytes(), n) for mk, (sk, n) in accs.items()}


_TD, _KLL = tdigest_spec(100), kll_spec(64)  # KLL: unit weights only


@pytest.mark.parametrize("spec,key,metrics,weight", [
    pytest.param(spec, *case, id=f"{name}-{spec.name}")
    for name, case, specs in (
        ("string_keys", ("s", ("x",), None), (_TD, _KLL)),
        ("int64_keys", ("i", ("x",), None), (_TD, _KLL)),
        ("weighted", ("s", ("x",), "w"), (_TD,)),
        ("global", (None, ("x",), None), (_TD, _KLL)),
        ("two_metrics", ("s", ("x", "y"), None), (_TD, _KLL)))
    for spec in specs])
def test_keyed_sketches_byte_identical_to_argsort_grouping(spec, key,
                                                           metrics, weight):
    """Grouping on dictionary codes hands every per-key sketch the same
    values in the same order as grouping on the key values, so each
    sketch's bytes and n are identical (KLL is order-sensitive)."""
    rng = np.random.default_rng(5)
    n = 6000
    names = np.asarray([f"k{j:02d}" for j in range(37)], dtype=object)
    t = pa.table({
        "s": pa.array(names[rng.zipf(1.5, n) % 37], pa.string()),
        "i": pa.array(rng.integers(-20, 20, n), pa.int64()),
        "x": rng.lognormal(1.0, 1.0, n),
        "y": rng.normal(size=n),
        "w": rng.uniform(0.5, 2.0, n),
    })
    chunks = [t.slice(off, 2500) for off in range(0, n, 2500)]
    acc = KeyedSketches(spec, key or "key", with_metric=True)
    for c in chunks:
        acc.add(None if key is None else c[key], {m: c[m] for m in metrics},
                None if weight is None else c[weight])
    want = _argsort_partials(spec, chunks, metrics, key, weight)
    assert {mk: n for mk, (_sk, n) in acc.items()} \
        == {mk: n for mk, (_b, n) in want.items()}
    rows = acc.flush().to_pylist()
    assert {(r["metric"], r["key"]): (r["sketch"], r["n"])
            for r in rows} == want


def test_null_group_key_raises(ray_session, tmp_path):
    import ray.data as rd

    from t_digest_ray.pipelines.checkpoint import run_checkpointed

    t = pa.table({"g": ["a", None, "b", "a"], "v": [1.0, 2.0, 3.0, 4.0]})
    msg = "group key column 'g' has 1 null"
    with pytest.raises(ValueError, match=msg):
        KeyedSketches(tdigest_spec(), "g").add(t["g"], {"v": t["v"]})
    # inside a Ray task the ValueError arrives wrapped in Ray's error
    with pytest.raises(Exception, match="ValueError: " + msg):
        quantiles_by_key(rd.from_arrow(t), "v", "g").to_pandas()
    pq.write_table(t, tmp_path / "in.parquet")
    with pytest.raises(Exception, match="ValueError: " + msg):
        run_checkpointed([str(tmp_path / "in.parquet")], tdigest_spec(),
                         "v", "g", str(tmp_path / "ckpt"))


def test_empty_partials_keep_wire_schema(ray_session):
    """A partial body that sees zero rows emits a zero-row table with the
    full wire schema, not a schema-less block."""
    import ray.data as rd

    wire = pa.schema([("key", pa.string()), ("sketch", pa.binary()),
                      ("n", pa.float64())])
    multi = wire.append(pa.field("metric", pa.string()))
    spec = tdigest_spec()
    fused = make_fused_partials(spec, ("text_length",), "lang")
    pages = generate_pages_batch(np.arange(3000, dtype=np.uint64))
    assert fused(pages.slice(0, 0)).schema == multi
    empty = pa.table({"g": pa.array([], pa.string()),
                      "x": pa.array([], pa.float64())})
    assert make_partial_fn(spec, "x", "g")(empty).schema == wire

    ds = rd.from_arrow([pages.slice(0, 0), pages, pages.slice(0, 0)])
    parts = ds.map_batches(fused, batch_format="pyarrow").materialize()
    assert parts.schema().names == multi.names
    got = pages_quantiles(
        ds, value_cols=("text_length",))["text_length"].to_pandas()
    want = pages_quantiles(
        rd.from_arrow(pages), value_cols=("text_length",))["text_length"] \
        .to_pandas()
    pd.testing.assert_frame_equal(
        got.sort_values("lang").reset_index(drop=True),
        want.sort_values("lang").reset_index(drop=True))


def test_summarize_yields_no_schema_less_blocks(ray_session):
    """Every block the query stage returns carries the result columns:
    the merge hands summarize no zero-row, schema-less blocks."""
    import ray
    import ray.data as rd

    rng = np.random.default_rng(3)
    t = pa.table({"g": [f"k{i % 8}" for i in range(4000)],
                  "v": rng.normal(size=4000)})
    out = quantiles_by_key(rd.from_arrow([t.slice(off, 500)
                                          for off in range(0, 4000, 500)]),
                           "v", "g")
    blocks = ray.get(out.to_pandas_refs())
    assert sum(len(b) for b in blocks) == 8
    assert all(len(b.columns) for b in blocks)


@pytest.mark.parametrize("key_type", [pa.string(), pa.int64()])
def test_summarize_rows_match_per_row_summaries(ray_session, key_type):
    """The query stage's rows are, column for column, the per-row
    ``spec.summarize(spec.from_bytes(sketch))`` with the key and count."""
    import ray.data as rd

    from t_digest_ray.stages.aggregate import summarize

    spec = tdigest_spec(qs=(0.1, 0.5, 0.9))
    rng = np.random.default_rng(7)
    blobs = []
    for n in (0, 1, 40, 3000):
        sk = spec.factory()
        if n:
            sk.update_batch(rng.normal(size=n))
        blobs.append(sk.to_bytes())
    merged = pa.table({"key": pa.array([3, 1, 2, 0]).cast(key_type),
                       "sketch": pa.array(blobs, pa.binary()),
                       "n": pa.array([0.0, 1.0, 40.0, 3000.0])})
    got = summarize(rd.from_arrow(merged), spec, key_name="g").to_pandas()
    want = pd.DataFrame([{"g": k, "n": n,
                          **spec.summarize(spec.from_bytes(b))}
                         for k, b, n in zip(merged["key"].to_pylist(), blobs,
                                            merged["n"].to_pylist())])
    pd.testing.assert_frame_equal(got, want, check_exact=True)
