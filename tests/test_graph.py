"""Integer PageRank / HITS (pipelines/graph.py): hand-computed fixtures,
conservation/normalization invariants, and the events-table composition.
Value-hash oracle parity against the unrolled-CTE HUGEINT SQL twin runs
in scripts/check_correctness."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from t_digest_ray.pipelines.graph import (PR_SCALE, integer_hits,
                                          integer_pagerank)


def _edges(rows):
    """rows: (src, dst, n)."""
    return pd.DataFrame({
        "prev_type": [r[0] for r in rows],
        "next_type": [r[1] for r in rows],
        "n": [r[2] for r in rows]})


def test_pagerank_two_node_cycle_hand_computed():
    # a<->b with equal weights: perfectly symmetric, ranks stay equal.
    out = integer_pagerank(_edges([("a", "b", 1), ("b", "a", 1)]),
                           ["a", "b"], iters=3)
    assert list(out["node"]) == ["a", "b"]
    ra, rb = int(out["pagerank"][0]), int(out["pagerank"][1])
    assert ra == rb
    # Symmetric 2-cycle is a fixed point: r = teleport + 85% of r0.
    r0 = PR_SCALE // 2
    expected = (15 * PR_SCALE) // 200 + (85 * r0) // 100
    assert ra == expected


def test_pagerank_sink_gets_more_than_source():
    # a -> b only: b accumulates a's mass, a keeps teleport only.
    out = integer_pagerank(_edges([("a", "b", 5)]), ["a", "b"], iters=3) \
        .set_index("node")
    assert int(out.loc["b", "pagerank"]) > int(out.loc["a", "pagerank"])
    # a has no inflow: rank(a) == teleport exactly after every round.
    assert int(out.loc["a", "pagerank"]) == (15 * PR_SCALE) // 200
    assert int(out.loc["a", "out_n"]) == 5
    assert int(out.loc["b", "in_n"]) == 5


def test_pagerank_isolated_node_keeps_teleport():
    out = integer_pagerank(_edges([("a", "b", 1)]), ["a", "b", "z"],
                           iters=2).set_index("node")
    assert int(out.loc["z", "pagerank"]) == (15 * PR_SCALE) // 300
    assert int(out.loc["z", "in_n"]) == 0
    assert int(out.loc["z", "out_n"]) == 0


def test_pagerank_matches_explicit_iteration():
    # Independent replay of the documented recurrence on a 3-node graph.
    edges = [("a", "b", 2), ("b", "c", 1), ("c", "a", 3), ("a", "c", 1)]
    nodes = ["a", "b", "c"]
    out_n = {"a": 3, "b": 1, "c": 3}
    rank = {v: PR_SCALE // 3 for v in nodes}
    teleport = (15 * PR_SCALE) // 300
    for _ in range(3):
        inflow = {v: 0 for v in nodes}
        for u, v, w in edges:
            inflow[v] += (rank[u] * w) // out_n[u]
        rank = {v: teleport + (85 * inflow[v]) // 100 for v in nodes}
    got = integer_pagerank(_edges(edges), nodes, iters=3).set_index("node")
    for v in nodes:
        assert int(got.loc[v, "pagerank"]) == rank[v]


def test_pagerank_empty():
    out = integer_pagerank(_edges([]), [], iters=3)
    assert len(out) == 0
    assert list(out.columns) == ["node", "pagerank", "out_n", "in_n"]


def test_hits_top_scores_exactly_scale():
    out = integer_hits(_edges([("a", "b", 3), ("a", "c", 1), ("b", "c", 2)]),
                       ["a", "b", "c"], iters=3)
    assert int(out["authority"].max()) == PR_SCALE
    assert int(out["hub"].max()) == PR_SCALE


def test_hits_star_graph():
    # Hub h points at 3 leaves: h is the unique hub, leaves are
    # authorities proportional to edge weight (max-normalized).
    out = integer_hits(_edges([("h", "x", 1), ("h", "y", 2), ("h", "z", 4)]),
                       ["h", "x", "y", "z"], iters=3).set_index("node")
    assert int(out.loc["h", "hub"]) == PR_SCALE
    assert int(out.loc["h", "authority"]) == 0
    assert int(out.loc["z", "authority"]) == PR_SCALE
    assert int(out.loc["y", "authority"]) == PR_SCALE // 2
    assert int(out.loc["x", "authority"]) == PR_SCALE // 4
    for leaf in "xyz":
        assert int(out.loc[leaf, "hub"]) == 0


def test_hits_no_edges_all_zero():
    out = integer_hits(_edges([]), ["a", "b"], iters=2)
    assert (out["authority"] == 0).all()
    assert (out["hub"] == 0).all()


def test_pagerank_from_events_composition(ray_session):
    import pyarrow as pa
    import ray

    from t_digest_ray.pipelines.graph import (hits_from_events,
                                              pagerank_from_events)

    # user 1: a -> b -> a; user 2: a -> b. Edges: a->b ×2, b->a ×1.
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 2, 2], type=pa.int64()),
        "ts": pa.array([1, 2, 3, 1, 2], type=pa.int64()),
        "event_id": pa.array([10, 11, 12, 20, 21], type=pa.int64()),
        "event_type": pa.array(["a", "b", "a", "a", "b"]),
    })
    ds = ray.data.from_arrow(t)
    pr = pagerank_from_events(ds, "user_id", "ts", "event_id",
                              "event_type", iters=3)
    expected = integer_pagerank(
        _edges([("a", "b", 2), ("b", "a", 1)]), ["a", "b"], iters=3)
    assert list(pr["event_type"]) == list(expected["node"])
    assert list(pr["pagerank"]) == list(expected["pagerank"])

    ht = hits_from_events(ds, "user_id", "ts", "event_id",
                          "event_type", iters=3)
    exp_h = integer_hits(_edges([("a", "b", 2), ("b", "a", 1)]),
                         ["a", "b"], iters=3)
    assert list(ht["authority"]) == list(exp_h["authority"])
    assert list(ht["hub"]) == list(exp_h["hub"])


def test_pagerank_hits_config_routes(ray_session):
    from t_digest_ray.config import JobConfig, run_job
    from t_digest_ray.pipelines.graph import (hits_from_events,
                                              pagerank_from_events)

    EVENTS = "/root/testdata/sf0.001/events.parquet"
    cols = ["user_id", "ts", "event_id", "event_type"]
    out = run_job(JobConfig(
        pipeline="pagerank", input=EVENTS, key="user_id",
        value_col="event_type", columns=cols,
        params={"iters": 2})).to_pandas()
    assert set(out.columns) == {"event_type", "pagerank", "out_n", "in_n"}
    import ray.data as rd
    direct = pagerank_from_events(
        rd.read_parquet(EVENTS, columns=cols),
        "user_id", "ts", "event_id", "event_type", iters=2)
    pd.testing.assert_frame_equal(
        out.sort_values("event_type").reset_index(drop=True),
        direct.sort_values("event_type").reset_index(drop=True))

    out = run_job(JobConfig(
        pipeline="hits", input=EVENTS, key="user_id",
        value_col="event_type", columns=cols,
        params={"iters": 2})).to_pandas()
    direct = hits_from_events(
        rd.read_parquet(EVENTS, columns=cols),
        "user_id", "ts", "event_id", "event_type", iters=2)
    pd.testing.assert_frame_equal(
        out.sort_values("event_type").reset_index(drop=True),
        direct.sort_values("event_type").reset_index(drop=True))


def test_markov_argmax_report_hand_computed():
    from t_digest_ray.pipelines.graph import markov_argmax_report

    # a -> {b:3, c:1}; b -> {a:2, c:2} (tie -> 'a' wins alphabetically).
    rep = markov_argmax_report(_edges(
        [("a", "b", 3), ("a", "c", 1), ("b", "a", 2), ("b", "c", 2)]))
    rep = rep.set_index("prev_type")
    assert rep.loc["a", "pred_type"] == "b"
    assert int(rep.loc["a", "n_correct"]) == 3
    assert int(rep.loc["a", "n_total"]) == 4
    assert rep.loc["b", "pred_type"] == "a"
    assert int(rep.loc["b", "n_correct"]) == 2
    assert int(rep.loc["b", "n_total"]) == 4


def test_markov_accuracy_from_events(ray_session):
    import pyarrow as pa
    import ray

    from t_digest_ray.pipelines.graph import markov_accuracy_from_events

    # user 1: a b a b  -> edges a->b x2, b->a x1
    t = pa.table({
        "user_id": pa.array([1, 1, 1, 1], type=pa.int64()),
        "ts": pa.array([1, 2, 3, 4], type=pa.int64()),
        "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
        "event_type": pa.array(["a", "b", "a", "b"]),
    })
    rep = markov_accuracy_from_events(
        ray.data.from_arrow(t), "user_id", "ts", "event_id",
        "event_type").set_index("prev_type")
    assert rep.loc["a", "pred_type"] == "b"
    assert int(rep.loc["a", "n_correct"]) == 2
    assert int(rep.loc["a", "n_total"]) == 2
    assert int(rep.loc["b", "n_total"]) == 1


def test_markov_entropy_zipf_config_routes(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    out = run_job(JobConfig(
        pipeline="markov_accuracy",
        input="/root/testdata/sf0.001/events.parquet", key="user_id",
        value_col="event_type",
        columns=["user_id", "ts", "event_id", "event_type"])).to_pandas()
    assert set(out.columns) == {"prev_type", "pred_type", "n_correct",
                                "n_total"}
    assert (out["n_correct"] <= out["n_total"]).all()

    out = run_job(JobConfig(
        pipeline="token_entropy",
        input="/root/testdata/sf0.001/documents.parquet", key="lang",
        value_col="text", columns=["lang", "text"])).to_pandas()
    assert set(out.columns) == {"lang", "n_tokens", "n_vocab",
                                "sum_clnc", "entropy"}
    assert (out["entropy"] > 0).all()

    out = run_job(JobConfig(
        pipeline="zipf_slope",
        input="/root/testdata/sf0.001/documents.parquet", key="lang",
        value_col="text", columns=["lang", "text"],
        params={"k": 30})).to_pandas()
    assert set(out.columns) == {"lang", "n_top", "zipf_slope",
                                "zipf_intercept"}
    assert (out["n_top"] == 30).all()
    assert (out["zipf_slope"] < 0).all()


def test_markov_conditional_entropy_hand_computed():
    import math

    from t_digest_ray.pipelines.graph import markov_conditional_entropy

    # a: two equally likely successors -> ln 2; b: deterministic -> 0.
    rep = markov_conditional_entropy(_edges(
        [("a", "b", 3), ("a", "c", 3), ("b", "a", 7)])) \
        .set_index("prev_type")
    assert abs(float(rep.loc["a", "cond_entropy"]) - math.log(2.0)) < 1e-12
    assert float(rep.loc["b", "cond_entropy"]) == 0.0
    assert int(rep.loc["a", "out_n"]) == 6
    assert int(rep.loc["a", "n_successors"]) == 2


def test_markov_entropy_mi_hill_config_routes(ray_session):
    from t_digest_ray.config import JobConfig, run_job

    out = run_job(JobConfig(
        pipeline="markov_entropy",
        input="/root/testdata/sf0.001/events.parquet", key="user_id",
        value_col="event_type",
        columns=["user_id", "ts", "event_id", "event_type"])).to_pandas()
    assert set(out.columns) == {"prev_type", "out_n", "n_successors",
                                "cond_entropy"}
    assert (out["cond_entropy"] >= 0).all()

    out = run_job(JobConfig(
        pipeline="mutual_info",
        input="/root/testdata/sf0.001/documents.parquet", key="lang",
        value_col="source", columns=["lang", "source"])).to_pandas()
    assert set(out.columns) == {"n_rows", "n_cells", "h_a", "h_b",
                                "h_joint", "mutual_info"}
    assert float(out["h_joint"][0]) <= \
        float(out["h_a"][0]) + float(out["h_b"][0]) + 1e-12

    out = run_job(JobConfig(
        pipeline="hill_tail",
        input="/root/testdata/sf0.001/events.parquet", key="event_type",
        value_col="value", columns=["event_type", "value"],
        params={"k": 50})).to_pandas()
    assert set(out.columns) == {"event_type", "n_pos", "k_eff",
                                "x_boundary_cents", "hill_inv_alpha"}
    assert (out["k_eff"] == 50).all()
    assert (out["hill_inv_alpha"] > 0).all()


# ---------------------------------------------------------------- triangles


def _edge_ds(pairs):
    import ray.data as rd
    return rd.from_pandas(pd.DataFrame({"u": [p[0] for p in pairs],
                                        "v": [p[1] for p in pairs]}))


def test_triangle_count_k4(ray_session):
    from t_digest_ray.pipelines.graph import triangle_count_report

    out = triangle_count_report(_edge_ds(
        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
         ("c", "d")]))
    assert out.values.tolist() == [[4, 6, 12, 4, 1000000]]


def test_triangle_count_path_has_none(ray_session):
    from t_digest_ray.pipelines.graph import triangle_count_report

    out = triangle_count_report(_edge_ds([("a", "b"), ("b", "c")]))
    assert out.values.tolist() == [[3, 2, 1, 0, 0]]


def test_triangle_count_bowtie(ray_session):
    # two triangles sharing vertex c: T=2, wedges = C(2,2)*4 + C(4,2).
    from t_digest_ray.pipelines.graph import triangle_count_report

    out = triangle_count_report(_edge_ds(
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"),
         ("d", "e")]))
    row = dict(zip(out.columns, out.values.tolist()[0]))
    assert row["n_vertices"] == 5
    assert row["n_edges"] == 6
    assert row["n_triangles"] == 2
    assert row["n_wedges"] == 4 * 1 + 6  # four deg-2 nodes + C(4,2)
    assert row["transitivity_ppm"] == (3 * 2 * 10**6) // 10


def test_triangle_count_integer_ids(ray_session):
    # native int64 endpoints: ordering must be numeric (10 > 2).
    from t_digest_ray.pipelines.graph import triangle_count_report

    out = triangle_count_report(_edge_ds([(2, 10), (2, 101), (10, 101)]))
    assert out["n_triangles"].iloc[0] == 1


def test_co_activity_cap_bounds_pairs(ray_session):
    # one hot bucket with 5 users, cap=3: only C(3,2)=3 edges among the
    # three SMALLEST ids survive.
    import ray.data as rd

    from t_digest_ray.pipelines.graph import co_activity_edges

    df = pd.DataFrame({
        "event_type": ["click"] * 5,
        "ts": pd.to_datetime([1_000_000] * 5, unit="s"),
        "user_id": np.array([50, 7, 23, 99, 4], dtype=np.int64)})
    edges = co_activity_edges(rd.from_pandas(df), "event_type", "ts",
                              "user_id", cap=3).to_pandas()
    got = sorted((int(u), int(v)) for u, v in zip(edges["u"], edges["v"]))
    assert got == [(4, 7), (4, 23), (7, 23)]


def test_co_activity_dedups_across_buckets(ray_session):
    # same pair active on two days: ONE edge.
    import ray.data as rd

    from t_digest_ray.pipelines.graph import co_activity_edges

    df = pd.DataFrame({
        "event_type": ["click"] * 2 + ["click"] * 2,
        "ts": pd.to_datetime([0, 0, 86400, 86400], unit="s"),
        "user_id": np.array([1, 2, 1, 2], dtype=np.int64)})
    edges = co_activity_edges(rd.from_pandas(df), "event_type", "ts",
                              "user_id", cap=12).to_pandas()
    assert len(edges) == 1


def test_config_route_triangle_count(ray_session):
    from t_digest_ray.config import JobConfig, run_job
    from t_digest_ray.pipelines.graph import triangle_count_from_events

    EVENTS = "/root/testdata/sf0.001/events.parquet"
    cols = ["event_type", "ts", "user_id"]
    out = run_job(JobConfig(
        pipeline="triangle_count", input=EVENTS, key="event_type",
        value_col="user_id", columns=cols,
        params={"cap": 6})).to_pandas()
    import ray.data as rd
    direct = triangle_count_from_events(
        rd.read_parquet(EVENTS, columns=cols),
        "event_type", "ts", "user_id", cap=6)
    pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                  direct.reset_index(drop=True))


def test_local_triangle_report_bowtie(ray_session):
    from t_digest_ray.pipelines.graph import local_triangle_report

    out = local_triangle_report(_edge_ds(
        [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("c", "e"),
         ("d", "e")]), k=10).set_index("node")
    assert int(out.loc["c", "n_triangles"]) == 2
    assert int(out.loc["c", "degree"]) == 4
    assert int(out.loc["c", "cc_ppm"]) == (2 * 2 * 10**6) // 12
    for n in "abde":
        assert int(out.loc[n, "n_triangles"]) == 1
        assert int(out.loc[n, "cc_ppm"]) == 10**6
    # top-k ordering: c first (most triangles), then a,b,d,e by name
    assert list(out.index) == ["c", "a", "b", "d", "e"]


def test_local_triangle_report_no_triangles(ray_session):
    from t_digest_ray.pipelines.graph import local_triangle_report

    out = local_triangle_report(_edge_ds([("a", "b"), ("b", "c")]), k=5)
    assert out["n_triangles"].sum() == 0
    assert (out["cc_ppm"] == 0).all()


def test_kcore_peels_pendant_keeps_triangle(ray_session):
    from t_digest_ray.pipelines.graph import kcore_report_from_edges

    out = kcore_report_from_edges(
        _edge_ds([("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")]),
        k=2, rounds=4)
    assert out["n_edges"].tolist() == [3, 3, 3, 3]
    assert out["n_nodes"].tolist() == [3, 3, 3, 3]
    assert out["converged"].tolist() == [0, 1, 1, 1]


def test_kcore_cascading_peel(ray_session):
    # chain of pendants: b-c-d path hanging off triangle; k=2 peels
    # d (deg 1), then c drops to deg 1 -> cascades over rounds.
    from t_digest_ray.pipelines.graph import kcore_report_from_edges

    out = kcore_report_from_edges(
        _edge_ds([("a", "b"), ("a", "x"), ("b", "x"),  # triangle
                  ("b", "c"), ("c", "d")]),            # tail
        k=2, rounds=4)
    assert out["n_edges"].tolist()[-1] == 3   # triangle survives
    assert out["converged"].iloc[-1] == 1
    # round 1 removed d's edge, round 2 removed c's edge
    assert out["n_edges"].tolist()[0] == 4
    assert out["n_edges"].tolist()[1] == 3


def test_kcore_empty_result(ray_session):
    from t_digest_ray.pipelines.graph import kcore_report_from_edges

    out = kcore_report_from_edges(_edge_ds([("a", "b"), ("b", "c")]),
                                  k=2, rounds=3)
    assert (out["n_edges"] == 0).all()
    assert (out["converged"] == 1).all()


def test_assortativity_star_is_minus_one(ray_session):
    from t_digest_ray.pipelines.graph import degree_assortativity

    out = degree_assortativity(_edge_ds(
        [("c", "a"), ("c", "b"), ("c", "d")]))
    assert int(out["n_edges"].iloc[0]) == 3
    assert abs(float(out["assortativity"].iloc[0]) + 1.0) < 1e-12


def test_assortativity_regular_graph_is_zero(ray_session):
    # every node has the same degree: zero variance -> 0.0 convention.
    from t_digest_ray.pipelines.graph import degree_assortativity

    out = degree_assortativity(_edge_ds(
        [("a", "b"), ("b", "c"), ("c", "a")]))
    assert float(out["assortativity"].iloc[0]) == 0.0


def test_edge_churn_counts(ray_session):
    from t_digest_ray.pipelines.graph import edge_churn

    a = _edge_ds([("a", "b"), ("b", "c"), ("c", "d")])
    b = _edge_ds([("b", "c"), ("c", "d"), ("d", "e"), ("e", "f")])
    out = edge_churn(a, b)
    assert out.values.tolist() == [[3, 4, 2, 2 * 10**6 // 5]]


def test_edge_churn_disjoint_and_identical(ray_session):
    from t_digest_ray.pipelines.graph import edge_churn

    a = _edge_ds([("a", "b")])
    assert edge_churn(a, _edge_ds([("x", "y")]))["jaccard_ppm"] \
        .iloc[0] == 0
    assert edge_churn(a, _edge_ds([("a", "b")]))["jaccard_ppm"] \
        .iloc[0] == 10**6


def test_triangle_count_random_graphs_vs_bruteforce(ray_session, rng):
    # several random graphs vs an O(n^3) reference — exercises the
    # full distributed path (degrees, orientation joins, wedge close)
    # on adversarially small/dense/sparse shapes.
    import itertools

    from t_digest_ray.pipelines.graph import triangle_count_report

    for trial in range(4):
        n = int(rng.integers(4, 11))
        p = float(rng.uniform(0.2, 0.8))
        nodes = [f"n{i}" for i in range(n)]
        pairs = [(a, b) for a, b in itertools.combinations(nodes, 2)
                 if rng.random() < p]
        if len(pairs) < 1:
            continue
        out = triangle_count_report(_edge_ds(pairs))
        es = set(pairs)
        t = sum(1 for a, b, c in itertools.combinations(nodes, 3)
                if (a, b) in es and (a, c) in es and (b, c) in es)
        assert int(out["n_triangles"].iloc[0]) == t, (pairs, trial)
        assert int(out["n_edges"].iloc[0]) == len(pairs)


# ------------------------------------------- '|' inside string node ids

# (a, b|c) is a wedge centered at x; (a|b, c) is an edge whose old
# '|'-packed key equals the wedge's, but the two are different pairs
_PIPE_EDGES = [("a", "x"), ("b|c", "x"), ("a|b", "c"), ("a", "y1"),
               ("a", "y2"), ("b|c", "y3"), ("b|c", "y4")]


def test_triangle_count_pipe_in_ids_closes_no_wedge(ray_session):
    from t_digest_ray.pipelines.graph import triangle_count_report

    out = triangle_count_report(_edge_ds(_PIPE_EDGES))
    assert int(out["n_triangles"].iloc[0]) == 0


def test_local_triangle_report_pipe_in_ids_credits_nobody(ray_session):
    from t_digest_ray.pipelines.graph import local_triangle_report

    out = local_triangle_report(_edge_ds(_PIPE_EDGES), k=20)
    assert len(out) == 9
    assert (out["n_triangles"] == 0).all()


def test_edge_churn_pipe_in_ids_keeps_edges_apart(ray_session):
    from t_digest_ray.pipelines.graph import edge_churn

    out = edge_churn(_edge_ds([("a|b", "c")]), _edge_ds([("a", "b|c")]))
    assert out.values.tolist() == [[1, 1, 0, 0]]


def test_co_activity_pipe_in_user_id(ray_session):
    import ray.data as rd

    from t_digest_ray.pipelines.graph import co_activity_edges

    df = pd.DataFrame({
        "event_type": ["click"] * 2,
        "ts": pd.to_datetime([0, 0], unit="s"),
        "user_id": ["a|b", "c"]})
    edges = co_activity_edges(rd.from_pandas(df), "event_type", "ts",
                              "user_id").to_pandas()
    assert list(zip(edges["u"], edges["v"])) == [("a|b", "c")]
