"""Graph analytics over distributed edge aggregation: integer PageRank / HITS.

Web-scale text engines need link-graph analytics (PageRank over the host
graph is the canonical example — Page et al. 1999; Kleinberg's HITS 1999
is the hubs/authorities twin). The Ray Data shape used here is the same
one every iterative algorithm in this repo uses (k-means in
clustering.py): the EDGE LIST is aggregated distributedly down to exact
int64 counts — an exchange bounded by |V|² rows, here |event types|² —
and the power iteration then runs on that tiny aggregate with PYTHON
INTEGER arithmetic, so the result is bit-identical at any parallelism
and exactly replayable by an unrolled-CTE HUGEINT SQL oracle. No float
summation (whose order Ray/DuckDB cannot pin) appears anywhere.

Integer PageRank convention (the SQL twin replays it verbatim):

    SCALE = 10**12, damping d = 85/100, fixed ``iters`` rounds
    r_0(v)     = SCALE // N
    inflow_t(v) = sum over edges u->v of (r_t(u) * n_uv) // out_n(u)
    r_{t+1}(v) = (15 * SCALE) // (100 * N) + (85 * inflow_t(v)) // 100

All divisions are floor divisions on non-negative integers (Python
``//`` == DuckDB ``//`` == HUGEINT arithmetic). Dangling mass (nodes
with no out-edges) is DROPPED, not redistributed — the simplest
convention, stated here because both sides must share it.

Integer HITS convention: authority/hub scores start at SCALE, each
round computes the raw weighted sums and re-normalizes by the round's
maximum via ``(x * SCALE) // max`` — keeping every intermediate below
~SCALE² · Σn, comfortably inside HUGEINT/Python-int range, and again
bit-identical everywhere.

At 100 TB the only full-data pass is the edge aggregation (in the
caller, e.g. windows.transition_counts — per-user pair counts, then a
|V|²-sized groupby); the iteration itself touches |V|² integers and is
free. For a host-level web graph (|V| in the millions) the identical
update rule runs as ``iters`` rounds of groupby-sum over the edge
Dataset instead of a driver loop — the convention is deliberately
expressible either way.

The undirected half (the capped co-activity projection, triangle counts,
local clustering, k-core peeling, degree assortativity, edge churn) runs
on the analytics keyed exchange, ``stages.aggregate.bucketed_map_groups``:
rows meet on TYPED key columns — ``(type, day)``, ``(u, v)``, ``src``,
``(a, b)``, ``node`` — in the endpoint column's own Arrow type, and each
hash bucket is one vectorized pandas fold. No key is packed into a
string, and no per-edge Python call or per-user driver pull remains.
Degrees and the (degree, id) orientation come from one helper,
``_degree_orient``; triangles from one more, ``_closed_wedges``.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.aggregate import bucketed_map_groups

PR_SCALE = 10**12
PR_DAMP_NUM = 85
PR_DAMP_DEN = 100


def integer_pagerank(edges: pd.DataFrame, nodes: list[str],
                     iters: int = 3, scale: int = PR_SCALE,
                     src_col: str = "prev_type", dst_col: str = "next_type",
                     n_col: str = "n") -> pd.DataFrame:
    """Exact-integer PageRank on an aggregated weighted edge list.

    ``edges`` is the small aggregate (one row per (src, dst) with an
    exact int64 multiplicity); ``nodes`` is the full vertex set (a
    superset of the edge endpoints — isolated vertices keep teleport
    mass only). Returns one row per node with the scaled rank after
    ``iters`` rounds plus its exact in/out edge weight.
    """
    n_nodes = len(nodes)
    if n_nodes == 0:
        return pd.DataFrame({"node": pd.Series([], dtype=object),
                             "pagerank": pd.Series([], dtype=np.int64),
                             "out_n": pd.Series([], dtype=np.int64),
                             "in_n": pd.Series([], dtype=np.int64)})

    srcs = [str(s) for s in edges[src_col]]
    dsts = [str(d) for d in edges[dst_col]]
    wts = [int(w) for w in edges[n_col]]

    out_n: dict[str, int] = {v: 0 for v in nodes}
    in_n: dict[str, int] = {v: 0 for v in nodes}
    for u, v, w in zip(srcs, dsts, wts):
        out_n[u] += w
        in_n[v] += w

    teleport = (15 * scale) // (PR_DAMP_DEN * n_nodes)
    rank: dict[str, int] = {v: scale // n_nodes for v in nodes}
    for _ in range(iters):
        inflow: dict[str, int] = {v: 0 for v in nodes}
        for u, v, w in zip(srcs, dsts, wts):
            inflow[v] += (rank[u] * w) // out_n[u]
        rank = {v: teleport + (PR_DAMP_NUM * inflow[v]) // PR_DAMP_DEN
                for v in nodes}

    order = sorted(nodes)
    return pd.DataFrame({
        "node": pd.Series(order, dtype=object),
        "pagerank": pd.Series([rank[v] for v in order], dtype=np.int64),
        "out_n": pd.Series([out_n[v] for v in order], dtype=np.int64),
        "in_n": pd.Series([in_n[v] for v in order], dtype=np.int64)})


def integer_hits(edges: pd.DataFrame, nodes: list[str],
                 iters: int = 3, scale: int = PR_SCALE,
                 src_col: str = "prev_type", dst_col: str = "next_type",
                 n_col: str = "n") -> pd.DataFrame:
    """Exact-integer HITS (hubs & authorities) on an aggregated edge list.

    Update rule per round, all floor-div integer arithmetic:

        a_raw(v) = sum over u->v of h(u) * n_uv
        a(v)     = (a_raw(v) * scale) // max_w a_raw(w)   (0 if max is 0)
        h_raw(u) = sum over u->v of a(v) * n_uv
        h(u)     = (h_raw(u) * scale) // max_w h_raw(w)

    Max-normalization (not L2) keeps the arithmetic exact; the top
    authority/hub always scores exactly ``scale``.
    """
    srcs = [str(s) for s in edges[src_col]]
    dsts = [str(d) for d in edges[dst_col]]
    wts = [int(w) for w in edges[n_col]]

    auth: dict[str, int] = {v: scale for v in nodes}
    hub: dict[str, int] = {v: scale for v in nodes}
    for _ in range(iters):
        a_raw: dict[str, int] = {v: 0 for v in nodes}
        for u, v, w in zip(srcs, dsts, wts):
            a_raw[v] += hub[u] * w
        a_max = max(a_raw.values(), default=0)
        auth = ({v: (a_raw[v] * scale) // a_max for v in nodes}
                if a_max > 0 else {v: 0 for v in nodes})
        h_raw: dict[str, int] = {v: 0 for v in nodes}
        for u, v, w in zip(srcs, dsts, wts):
            h_raw[u] += auth[v] * w
        h_max = max(h_raw.values(), default=0)
        hub = ({v: (h_raw[v] * scale) // h_max for v in nodes}
               if h_max > 0 else {v: 0 for v in nodes})

    order = sorted(nodes)
    return pd.DataFrame({
        "node": pd.Series(order, dtype=object),
        "authority": pd.Series([auth[v] for v in order], dtype=np.int64),
        "hub": pd.Series([hub[v] for v in order], dtype=np.int64)})


def markov_argmax_report(edges: pd.DataFrame,
                         src_col: str = "prev_type",
                         dst_col: str = "next_type",
                         n_col: str = "n") -> pd.DataFrame:
    """First-order Markov next-state predictor evaluated exactly in
    one pass over the aggregated edge list: for each source state the
    prediction is the argmax next state (count desc, state asc
    deterministic tie-break) and, because the edge counts ARE the
    empirical next-state distribution, the predictor's exact hit count
    is the predicted edge's own count — no second data pass needed.
    All-integer output, bit-identical at any parallelism."""
    rows = []
    for src, g in edges.groupby(src_col, sort=True):
        g = g.sort_values([n_col, dst_col], ascending=[False, True])
        rows.append((str(src), str(g[dst_col].iloc[0]),
                     int(g[n_col].iloc[0]), int(g[n_col].sum())))
    return pd.DataFrame({
        "prev_type": pd.Series([r[0] for r in rows], dtype=object),
        "pred_type": pd.Series([r[1] for r in rows], dtype=object),
        "n_correct": pd.Series([r[2] for r in rows], dtype=np.int64),
        "n_total": pd.Series([r[3] for r in rows], dtype=np.int64)})


def markov_conditional_entropy(edges: pd.DataFrame,
                               src_col: str = "prev_type",
                               dst_col: str = "next_type",
                               n_col: str = "n") -> pd.DataFrame:
    """Per-source conditional entropy of the empirical transition model,
    H(next | prev=u) = ln(out_u) − (Σ_v n_uv·ln n_uv)/out_u — how
    predictable each state's successor is (0 = deterministic chain,
    ln|types| = uniform). The weighted mean over sources is the Markov
    chain's entropy rate.

    Exactness: counts exact; the only float fold Σ n·ln n accumulates
    in dst-ascending order per source, replayed by the SQL twin's
    SUM(... ORDER BY dst); the closing expression uses one fixed
    parenthesization."""
    import math

    rows = []
    for src, g in edges.groupby(src_col, sort=True):
        g = g.sort_values(dst_col)
        cnt = [int(c) for c in g[n_col]]
        out_n = sum(cnt)
        s = 0.0
        for c in cnt:
            c = float(c)
            s += c * math.log(c)
        h = math.log(float(out_n)) - s / float(out_n)
        rows.append((str(src), out_n, len(cnt), h))
    return pd.DataFrame({
        "prev_type": pd.Series([r[0] for r in rows], dtype=object),
        "out_n": pd.Series([r[1] for r in rows], dtype=np.int64),
        "n_successors": pd.Series([r[2] for r in rows], dtype=np.int64),
        "cond_entropy": pd.Series([r[3] for r in rows])})


def markov_entropy_from_events(ds, user_col: str, ts_col: str,
                               tie_col: str, type_col: str) -> pd.DataFrame:
    """Conditional-entropy report over the events transition graph
    (see markov_accuracy_from_events for the aggregation shape)."""
    from .windows import transition_counts

    edges = transition_counts(ds, user_col, ts_col, tie_col,
                              type_col).to_pandas()
    return markov_conditional_entropy(edges)


def markov_accuracy_from_events(ds, user_col: str, ts_col: str,
                                tie_col: str, type_col: str) -> pd.DataFrame:
    """Markov next-event-type prediction report over the events table:
    distributed exact edge aggregation (windows.transition_counts),
    then the argmax evaluation on the |types|²-bounded aggregate."""
    from .windows import transition_counts

    edges = transition_counts(ds, user_col, ts_col, tie_col,
                              type_col).to_pandas()
    return markov_argmax_report(edges)


def _transition_graph(ds, user_col: str, ts_col: str, tie_col: str,
                      type_col: str) -> tuple[pd.DataFrame, list[str]]:
    """``(edges, nodes)`` of the events transition graph: the exact
    |types|²-bounded edge aggregate (windows.transition_counts — per-user
    pair counts) and the full distinct ``type_col`` domain, so types that
    never transition still carry teleport mass."""
    from ray.data.aggregate import Count

    from .windows import transition_counts

    edges = transition_counts(ds, user_col, ts_col, tie_col,
                              type_col).to_pandas()
    nodes_df = (ds.select_columns([type_col]).groupby(type_col)
                .aggregate(Count(alias_name="_c")).to_pandas())
    return edges, [str(v) for v in nodes_df[type_col]]


def pagerank_from_events(ds, user_col: str, ts_col: str, tie_col: str,
                         type_col: str, iters: int = 3) -> pd.DataFrame:
    """PageRank of event types under the observed per-user transition
    graph: distributed exact edge aggregation (``_transition_graph``),
    then the integer power iteration on the tiny aggregate."""
    edges, nodes = _transition_graph(ds, user_col, ts_col, tie_col,
                                     type_col)
    out = integer_pagerank(edges, nodes, iters=iters)
    return out.rename(columns={"node": type_col})


def hits_from_events(ds, user_col: str, ts_col: str, tie_col: str,
                     type_col: str, iters: int = 3) -> pd.DataFrame:
    """HITS hubs/authorities of event types on the same transition graph
    (see pagerank_from_events for the aggregation shape)."""
    edges, nodes = _transition_graph(ds, user_col, ts_col, tie_col,
                                     type_col)
    out = integer_hits(edges, nodes, iters=iters)
    return out.rename(columns={"node": type_col})


def _typed(df: pd.DataFrame, t: pa.DataType) -> pa.Table:
    """A fold's key columns as Arrow columns of type ``t``, so an empty
    result keeps the schema that the non-empty buckets have."""
    return pa.table({c: pa.array(df[c].to_numpy(), type=t)
                     for c in df.columns})


def _key_type(edges, col: str) -> pa.DataType:
    """Arrow type of an edge list's endpoint column (a metadata read on a
    materialized Dataset; pandas blocks report strings as ``object``)."""
    sch = edges.schema()
    t = dict(zip(sch.names, sch.types))[col]
    return pa.string() if t is object else t


def co_activity_edges(ds, type_col: str, ts_col: str, user_col: str,
                      cap: int = 12):
    """Bounded co-activity graph projection: an undirected edge links
    two users active in the same (event_type, epoch-day) bucket.

    Clique projection is the classic scale hazard (one hot bucket with
    B users emits B² pairs), so each bucket keeps only its ``cap``
    SMALLEST distinct user ids under the column's native ordering — a
    deterministic, SQL-replayable cap (``ROW_NUMBER() OVER (PARTITION
    BY bucket ORDER BY user ASC) <= cap``) that bounds the emission at
    C(cap,2) pairs per bucket no matter how hot the bucket is.

    Two keyed exchanges (``bucketed_map_groups``): the first, keyed on
    ``(type_col, day)``, carries per-batch-distinct (type, day, user)
    rows, never raw events, and each hash bucket emits its u < v pairs
    with one vectorized self-merge; the second, keyed on ``(u, v)``,
    drops duplicate pairs — cost bounded by buckets × C(cap,2), not by
    |users|². Returns a Dataset of DISTINCT canonical edges (u < v) in
    the user column's own Arrow type."""
    from .windows import _epoch_s

    def bucket_users(b: pa.Table) -> pa.Table:
        return (pa.table({type_col: b[type_col],
                          "day": pa.array(_epoch_s(b[ts_col]) // 86400),
                          "user": b[user_col]})
                .group_by([type_col, "day", "user"]).aggregate([]))

    def bucket_pairs(g: pd.DataFrame) -> pa.Table:
        user_t = pa.array(g["user"].iloc[:1]).type
        g = g.drop_duplicates().sort_values("user")
        kept = g[g.groupby([type_col, "day"]).cumcount() < cap]
        p = kept.merge(kept, on=[type_col, "day"])
        p = p.loc[p["user_x"] < p["user_y"], ["user_x", "user_y"]]
        return _typed(p.drop_duplicates().set_axis(["u", "v"], axis=1),
                      user_t)

    pairs = bucketed_map_groups(ds, [type_col, "day"], bucket_pairs,
                                project=bucket_users)
    return bucketed_map_groups(pairs, ["u", "v"],
                               pd.DataFrame.drop_duplicates)


def _degrees(edges, u_col: str = "u", v_col: str = "v"):
    """Degree table ``(node, dg)`` of an undirected edge list: one
    groupby-count over both endpoints, ``node`` in the endpoints' type."""
    from ray.data.aggregate import Count

    def endpoints(b: pa.Table) -> pa.Table:
        return pa.table({"node": pa.chunked_array(
            b[u_col].chunks + b[v_col].chunks, type=b[u_col].type)})

    return (edges.map_batches(endpoints, batch_format="pyarrow")
            .groupby("node").aggregate(Count(alias_name="dg")))


def _degree_orient(edges, u_col: str, v_col: str):
    """``(degrees, oriented)`` of a materialized undirected edge list:
    the degree table ``(node, dg)``, and every edge as ``(src, dst,
    d_src, d_dst)`` pointing from its lower-(degree, id) endpoint to the
    higher one. Each endpoint's degree arrives through one distributed
    hash join against the degree table — no broadcast: |V| does not fit
    a worker at web scale."""
    from .relational import hash_join

    key_t, int_t = _key_type(edges, u_col), pa.int64()
    degrees = _degrees(edges, u_col, v_col).materialize()
    du = degrees.map_batches(
        lambda b: pa.table({u_col: b["node"], "du": b["dg"]}),
        batch_format="pyarrow")
    j1 = hash_join(edges, du, on=u_col, left_cols=[v_col],
                   right_cols=["du"],
                   types={u_col: key_t, v_col: key_t, "du": int_t})
    dv = degrees.map_batches(
        lambda b: pa.table({v_col: b["node"], "dv": b["dg"]}),
        batch_format="pyarrow")
    j2 = hash_join(j1, dv, on=v_col, left_cols=[u_col, "du"],
                   right_cols=["dv"],
                   types={u_col: key_t, v_col: key_t,
                          "du": int_t, "dv": int_t})

    def orient(b: pa.Table) -> pa.Table:
        u, v, du_, dv_ = (b[c].to_numpy(zero_copy_only=False)
                          for c in (u_col, v_col, "du", "dv"))
        fwd = (du_ < dv_) | ((du_ == dv_) & (u < v))
        return pa.table({
            "src": pa.array(np.where(fwd, u, v), type=key_t),
            "dst": pa.array(np.where(fwd, v, u), type=key_t),
            "d_src": pa.array(np.where(fwd, du_, dv_), type=int_t),
            "d_dst": pa.array(np.where(fwd, dv_, du_), type=int_t)})

    return degrees, j2.map_batches(orient, batch_format="pyarrow")


def _closed_wedges(edges, oriented, u_col: str, v_col: str):
    """One ``(center, a, b)`` row per triangle of a distinct canonical
    (u < v) edge list: ``center`` is its lowest vertex in the oriented
    (degree, id) order and a < b the other two.

    Wedges are emitted per source over the ORIENTED adjacency (one
    bucketed self-merge on ``src``), bounded by O(m^1.5) total thanks to
    the degree ordering: a hub of degree d contributes no wedges as a
    source, its edges point INTO it. A wedge closes when its typed
    ``(a, b)`` is an edge: wedges and edges co-partition on ``(a, b)``
    in one keyed exchange over their union (Joins over UNION ALL), and
    each bucket semi-joins its wedges against its edges."""
    key_t = _key_type(edges, u_col)
    wedge_t = pa.schema([("center", key_t), ("a", key_t), ("b", key_t),
                         ("is_edge", pa.int8())])

    def src_wedges(g: pd.DataFrame) -> pa.Table:
        w = g.merge(g, on="src")
        w = w[w["dst_x"] < w["dst_y"]]
        return pa.table([w["src"].to_numpy(), w["dst_x"].to_numpy(),
                         w["dst_y"].to_numpy(),
                         np.zeros(len(w), dtype=np.int8)], schema=wedge_t)

    def edge_rows(b: pa.Table) -> pa.Table:
        return pa.table([b[u_col], b[u_col], b[v_col],
                         np.ones(b.num_rows, dtype=np.int8)],
                        schema=wedge_t)

    def close(g: pd.DataFrame) -> pa.Table:
        is_edge = g["is_edge"].to_numpy() == 1
        return _typed(g.loc[~is_edge, ["center", "a", "b"]].merge(
            g.loc[is_edge, ["a", "b"]].drop_duplicates(), on=["a", "b"]),
            key_t)

    wedges = bucketed_map_groups(oriented, ["src"], src_wedges,
                                 project=lambda b: b.select(["src", "dst"]))
    # materialized: consumers that read this five-shuffle chain lazily
    # ran 1.4-1.6x slower (sf0.01, Ray on 8 logical CPUs of one core)
    return bucketed_map_groups(
        wedges.union(edges.map_batches(edge_rows, batch_format="pyarrow")),
        ["a", "b"], close).materialize()


def triangle_count_report(edges, u_col: str = "u",
                          v_col: str = "v") -> pd.DataFrame:
    """Distributed exact triangle count over a distinct canonical edge
    list (u < v), the degree-ordered node-iterator of Suri &
    Vassilvitskii (WWW 2011) / Cohen (2009) composed from Ray Data
    primitives:

      1. degrees — one groupby-count over both endpoints;
      2. orient every edge from its lower-(degree, id) endpoint to the
         higher one (``_degree_orient``: two distributed hash joins);
      3. wedges and closure (``_closed_wedges``): per-source pair
         emission over the oriented adjacency, then wedges and edges
         co-partitioned on typed ``(a, b)`` keys; each triangle closes
         exactly one wedge.

    Returns one all-integer row: vertices, edges, wedges (Σ C(d,2) —
    the unordered count, for transitivity), triangles, and
    transitivity_ppm = (3·T·10⁶) // wedges (floor — exact integer).

    The edge list (already an aggregate, bounded far below the input)
    is materialized once because four downstream passes reuse it; at
    web scale the equivalent is a bucketed parquet spill of the edge
    table (stages/bucketed.py), same contract as k-means' budget gate
    (pipelines/clustering.py)."""
    edges = edges.materialize()
    degrees, oriented = _degree_orient(edges, u_col, v_col)
    n_vertices = int(degrees.count())
    n_edges = int(edges.count())

    def wedge_partial(b: pa.Table) -> pa.Table:
        d = b["dg"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"w": pa.array([int((d * (d - 1) // 2).sum())],
                                       type=pa.int64())})

    n_wedges = int(degrees.map_batches(
        wedge_partial, batch_format="pyarrow").sum("w") or 0)
    n_triangles = int(_closed_wedges(edges, oriented, u_col,
                                     v_col).count())

    trans_ppm = ((3 * n_triangles * 10**6) // n_wedges
                 if n_wedges > 0 else 0)
    return pd.DataFrame({
        "n_vertices": pd.Series([n_vertices], dtype=np.int64),
        "n_edges": pd.Series([n_edges], dtype=np.int64),
        "n_wedges": pd.Series([n_wedges], dtype=np.int64),
        "n_triangles": pd.Series([n_triangles], dtype=np.int64),
        "transitivity_ppm": pd.Series([trans_ppm], dtype=np.int64)})


def triangle_count_from_events(ds, type_col: str, ts_col: str,
                               user_col: str, cap: int = 12) -> pd.DataFrame:
    """Triangle census of the capped user co-activity graph (see
    co_activity_edges for the bounded projection and
    triangle_count_report for the degree-ordered count)."""
    return triangle_count_report(
        co_activity_edges(ds, type_col, ts_col, user_col, cap=cap))


def local_triangle_report(edges, u_col: str = "u", v_col: str = "v",
                          k: int = 10) -> pd.DataFrame:
    """Per-node triangle participation + local clustering coefficient
    over a distinct canonical edge list — the same degree-ordered
    machinery as triangle_count_report; each closed wedge ``(center, a,
    b)`` credits all three vertices. Output: the top-``k`` nodes by
    (triangles desc, str(node) asc) with exact degree, triangle count
    and cc_ppm = (2·t·10⁶) // (d·(d−1)) — the floor-integer local
    clustering coefficient.

    Credits and degree rows meet in one keyed exchange on the typed
    ``node``; each bucket returns its own top-``k``, so the driver ranks
    at most ``k`` × buckets rows. The string form of a node is only the
    tie-break, never a join key."""
    edges = edges.materialize()
    degrees, oriented = _degree_orient(edges, u_col, v_col)
    closed = _closed_wedges(edges, oriented, u_col, v_col)
    key_t = _key_type(edges, u_col)

    def credits(b: pa.Table) -> pa.Table:
        node = pa.chunked_array(b["center"].chunks + b["a"].chunks
                                + b["b"].chunks, type=key_t)
        return pa.table({"node": node,
                         "dg": np.zeros(len(node), dtype=np.int64),
                         "tri": np.ones(len(node), dtype=np.int64)})

    def degree_rows(b: pa.Table) -> pa.Table:
        return pa.table({"node": b["node"], "dg": b["dg"],
                         "tri": np.zeros(b.num_rows, dtype=np.int64)})

    def top_k(df: pd.DataFrame) -> pd.DataFrame:
        return (df.assign(_s=df["node"].astype(str))
                .sort_values(["n_triangles", "_s"], ascending=[False, True])
                .head(k).drop(columns="_s"))

    def bucket_top_k(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby("node", as_index=False, sort=False).sum()
        d, t = g["dg"].to_numpy(), g["tri"].to_numpy()
        denom = d * (d - 1)
        return top_k(pd.DataFrame({
            "node": g["node"], "degree": d, "n_triangles": t,
            "cc_ppm": np.where(denom > 0,
                               (2 * t * 10**6) // np.maximum(denom, 1),
                               0).astype(np.int64)}))

    # both inputs are materialized, so their counts are metadata reads
    tops = bucketed_map_groups(
        closed.map_batches(credits, batch_format="pyarrow").union(
            degrees.map_batches(degree_rows, batch_format="pyarrow")),
        ["node"], bucket_top_k,
        n_rows=3 * closed.count() + degrees.count())
    return top_k(tops.to_pandas()).reset_index(drop=True)


def local_clustering_from_events(ds, type_col: str, ts_col: str,
                                 user_col: str, cap: int = 12,
                                 k: int = 10) -> pd.DataFrame:
    """Top-k users by triangle participation in the capped co-activity
    graph (see co_activity_edges / local_triangle_report)."""
    return local_triangle_report(
        co_activity_edges(ds, type_col, ts_col, user_col, cap=cap), k=k)


def kcore_report_from_edges(edges, k: int = 3,
                            rounds: int = 4) -> pd.DataFrame:
    """k-core decomposition by iterative peeling (Seidman 1983,
    Batagelj–Zaversnik shape): each round drops nodes of degree < k and
    the edges touching them; the fixpoint is the k-core. Runs a FIXED
    ``rounds`` peels (the unrolled-iteration convention shared with the
    integer PageRank oracle) with early-exit bookkeeping: once the edge
    set stops shrinking the remaining rows repeat the converged state,
    and ``converged`` goes 1 — if it is 1 by the last row the reported
    subgraph IS the exact k-core.

    Scale shape per round: two hash semi-joins against the
    surviving-node set (the engine's co-partitioned semi-join — no
    broadcast of |V|) and one degree groupby-count of the surviving
    edges, whose row count is the round's ``n_nodes`` and whose rows
    the next round peels; the edge set only shrinks, so every round is
    cheaper than the last. Returns one row per round: round, n_nodes,
    n_edges, converged."""
    from .relational import hash_semi_anti_join

    cur = edges.materialize()
    degrees = _degrees(cur).materialize()
    rows: list[dict] = []
    prev_edges = None
    done = False
    for r in range(1, rounds + 1):
        if done:
            last = rows[-1]
            rows.append({"round": r, "n_nodes": last["n_nodes"],
                         "n_edges": last["n_edges"], "converged": 1})
            continue

        def keep(b: pa.Table) -> pa.Table:
            m = b["dg"].to_numpy(zero_copy_only=False) >= k
            return b.select(["node"]).filter(pa.array(m))

        surv = degrees.map_batches(keep, batch_format="pyarrow") \
            .materialize()

        su = surv.map_batches(lambda b: pa.table({"u": b["node"]}),
                              batch_format="pyarrow")
        e1 = hash_semi_anti_join(cur, su, "u", ["v"])
        sv = surv.map_batches(lambda b: pa.table({"v": b["node"]}),
                              batch_format="pyarrow")
        cur = hash_semi_anti_join(e1, sv, "v", ["u"]).materialize()

        n_edges = int(cur.count())
        n_nodes = 0
        if n_edges:
            degrees = _degrees(cur).materialize()
            n_nodes = int(degrees.count())
        conv = 1 if (prev_edges is not None
                     and n_edges == prev_edges) else 0
        if n_edges == 0:
            conv = 1
        rows.append({"round": r, "n_nodes": n_nodes,
                     "n_edges": n_edges, "converged": conv})
        if conv:
            done = True
        prev_edges = n_edges
    out = pd.DataFrame(rows)
    for c in out.columns:
        out[c] = out[c].astype(np.int64)
    return out


def kcore_from_events(ds, type_col: str, ts_col: str, user_col: str,
                      cap: int = 12, k: int = 3,
                      rounds: int = 4) -> pd.DataFrame:
    """k-core peeling over the capped co-activity graph."""
    return kcore_report_from_edges(
        co_activity_edges(ds, type_col, ts_col, user_col, cap=cap),
        k=k, rounds=rounds)


def degree_assortativity(edges, u_col: str = "u",
                         v_col: str = "v") -> pd.DataFrame:
    """Degree assortativity coefficient (Newman 2002): the Pearson
    correlation of endpoint degrees over all DIRECTED edge instances
    (each undirected edge contributes (du,dv) and (dv,du), making the
    statistic symmetric). Positive = hubs link hubs; negative =
    hub-and-spoke.

    Endpoint degrees come from triangle_count_report's orientation step
    (``_degree_orient``; the moments are symmetric in (du, dv), so the
    orientation does not change them). The moments are exact integer
    sums folded with Python bignums, and r is ONE fixed IEEE expression
    from those ints — the grouped_pearson exactness contract,
    bit-identical to the HUGEINT SQL oracle. Returns one row: n_edges,
    assortativity."""
    import math

    _, oriented = _degree_orient(edges.materialize(), u_col, v_col)

    def moments(b: pa.Table) -> pa.Table:
        x = b["d_src"].to_numpy(zero_copy_only=False).astype(np.int64)
        y = b["d_dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({
            "m": pa.array([len(x)], type=pa.int64()),
            "sx": pa.array([int(x.sum() + y.sum())], type=pa.int64()),
            "sxy": pa.array([int(2 * (x * y).sum())], type=pa.int64()),
            "sxx": pa.array([int((x * x).sum() + (y * y).sum())],
                            type=pa.int64())})

    mom = oriented.map_batches(moments, batch_format="pyarrow").to_pandas()
    n = 2 * int(mom["m"].sum())          # directed pair count
    sx = int(mom["sx"].sum())
    sxy = int(mom["sxy"].sum())
    sxx = int(mom["sxx"].sum())
    num = n * sxy - sx * sx
    den = n * sxx - sx * sx
    r = (float(num) / math.sqrt(float(den) * float(den))
         if den > 0 else 0.0)
    return pd.DataFrame({
        "n_edges": pd.Series([n // 2], dtype=np.int64),
        "assortativity": pd.Series([r])})


def edge_churn(edges_a, edges_b) -> pd.DataFrame:
    """Temporal graph churn between two edge snapshots: |A|, |B|,
    |A∩B| and the edge Jaccard (ppm floor) — how much of the graph
    survived the period boundary. One keyed exchange on the typed
    ``(u, v)`` over the side-tagged union; each bucket returns its
    ``(na, nb, nc)`` counts."""
    def tagged(side: int):
        def fn(b: pa.Table) -> pa.Table:
            return pa.table({"u": b["u"], "v": b["v"],
                             "in_a": np.full(b.num_rows, side == 0),
                             "in_b": np.full(b.num_rows, side == 1)})
        return fn

    def counts(g: pd.DataFrame) -> pd.DataFrame:
        f = g.groupby(["u", "v"], sort=False)[["in_a", "in_b"]].any()
        return pd.DataFrame({"na": [int(f["in_a"].sum())],
                             "nb": [int(f["in_b"].sum())],
                             "nc": [int((f["in_a"] & f["in_b"]).sum())]},
                            dtype=np.int64)

    mom = bucketed_map_groups(
        edges_a.map_batches(tagged(0), batch_format="pyarrow").union(
            edges_b.map_batches(tagged(1), batch_format="pyarrow")),
        ["u", "v"], counts).to_pandas()
    na, nb, nc = (int(mom["na"].sum()), int(mom["nb"].sum()),
                  int(mom["nc"].sum()))
    union = na + nb - nc
    return pd.DataFrame({
        "n_edges_a": pd.Series([na], dtype=np.int64),
        "n_edges_b": pd.Series([nb], dtype=np.int64),
        "n_common": pd.Series([nc], dtype=np.int64),
        "jaccard_ppm": pd.Series(
            [nc * 10**6 // union if union > 0 else 0],
            dtype=np.int64)})
