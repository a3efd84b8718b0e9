"""The three workloads: seeded inputs, exact answers, the job, its traced
recomposition and its in-process floor.

Every job calls the library's public functions exactly as a user would. The
traced recomposition makes the same calls with the same arguments but adds a
``.materialize()`` at each layer boundary, so each layer gets its own span.
The floor makes the same sketch calls in this process, without Ray.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from t_digest_ray.pipelines.checkpoint import (finalize_checkpointed,
                                               partition_id_for,
                                               run_checkpointed)
from t_digest_ray.pipelines.quantiles import (DEFAULT_QS, make_fused_partials,
                                              pages_quantiles, q_col,
                                              quantiles_by_key, tdigest_spec)
from t_digest_ray.sources.pages import generate_pages_batch
from t_digest_ray.stages.aggregate import (METRIC_COL, make_partial_fn,
                                           merge_multi_partials,
                                           merge_partials, summarize)
from t_digest_ray.stages.extract import ExtractText, derive_metrics

from gate import check_quantiles, check_same_bytes
from tracing import StateClock, stats_tasks, timed_spec

QCOLS = {q_col(q): q for q in DEFAULT_QS}
CHUNK = 4096     # pages_quantiles' default chunk_size
NUM_SALTS = 8    # the library default


def _sorted_by_key(keys: np.ndarray, vals: np.ndarray) -> dict:
    """key -> sorted values: the exact answer every quantile is checked on."""
    order = np.lexsort((vals, keys))
    ks, vs = keys[order], vals[order]
    uniq, starts = np.unique(ks, return_index=True)
    bounds = np.append(starts, len(ks))
    return {k: vs[bounds[i]:bounds[i + 1]] for i, k in enumerate(uniq)}


def _fold_partials(spec, table: pa.Table, group_cols) -> list[bytes]:
    """In-process canonical merge of partial rows, one merged sketch per
    group, through ``SketchSpec.merge_bytes`` as the exchange calls it."""
    return [spec.merge_bytes(list(g["sketch"])).to_bytes()
            for _, g in table.to_pandas().groupby(group_cols, sort=True)]


def _count_summarize(tr, job: str, outs: list) -> None:
    import ray
    blocks = [b for ds in outs for b in ray.get(ds.to_pandas_refs())]
    tr.count(job, **{"summarize.rows": sum(len(b) for b in blocks),
                     "summarize.empty_blocks":
                         sum(1 for b in blocks if len(b.columns) == 0)})


def _count_exchange(tr, job: str, parts, merged) -> None:
    tr.count(job, **{"exchange.tasks": stats_tasks(merged) - stats_tasks(parts),
                     "exchange.bytes": parts.size_bytes(),
                     "exchange.fan_in": parts.count() / max(merged.count(), 1)})


class Workload:
    """A seeded input set plus the job that runs over it."""

    name = ""
    key = "key"

    def __init__(self, seed: int, scale: float, work_dir: str):
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.dir = os.path.join(work_dir, "inputs")
        os.makedirs(self.dir, exist_ok=True)
        self.files: list[str] = []
        self.exact: dict = {}
        self.rows = 0
        self.spec = tdigest_spec()

    def _n(self, rows: int) -> int:
        return max(int(rows * self.scale), 50)

    def _write(self, table: pa.Table) -> None:
        path = os.path.join(self.dir, f"part-{len(self.files):03d}.parquet")
        pq.write_table(table, path)
        self.files.append(path)
        self.rows += table.num_rows

    def check(self, result) -> tuple[float, list]:
        return check_quantiles(result, self.exact, self.key, QCOLS)

    def prepare(self) -> None:
        """Work done once per run after Ray is up, outside every timing."""

    def cleanup_job(self, job: str) -> None:
        """Remove what one job left on disk (outside the timing)."""

    def layer_seconds(self, d: dict) -> dict:
        """Span durations of one traced job -> non-overlapping layer seconds."""
        return {k: d[k] for k in ("sources", "partial", "exchange", "summarize")}

    def _finish_floor(self, t: dict, tspec, merged: list[bytes],
                      clock: StateClock) -> dict:
        t0 = time.perf_counter()
        for b in merged:  # the per-row calls of stages.aggregate.summarize
            tspec.summarize(tspec.from_bytes(b))
        t["summarize"] = time.perf_counter() - t0
        clock.sizes = {
            "sketch_bytes": float(np.mean([len(b) for b in merged])),
            "centroids": float(np.mean([self.spec.from_bytes(b).centroid_count
                                        for b in merged]))}
        return t


# ----------------------------------------------------------------- events

class EventsDigest(Workload):
    """Zipf key over 8 event types, lognormal value; ``quantiles_by_key``."""

    name = "events_digest"
    key = "event_type"
    FILES, ROWS_PER_FILE = 16, 25_000
    TYPES = ["view", "click", "scroll", "hover", "search", "share", "cart",
             "buy"]

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self._n(self.ROWS_PER_FILE)
        names = np.asarray(self.TYPES, dtype=object)
        w = 1.0 / np.arange(1, len(names) + 1) ** 1.1
        all_k, all_v = [], []
        for _ in range(self.FILES):
            idx = rng.choice(len(names), size=n, p=w / w.sum())
            vals = rng.lognormal(3.0 + 0.25 * idx, 1.0)
            self._write(pa.table({"event_type": pa.array(names[idx], pa.string()),
                                  "value": vals}))
            all_k.append(names[idx])
            all_v.append(vals)
        self.exact = {"value": _sorted_by_key(np.concatenate(all_k),
                                              np.concatenate(all_v))}

    def _read(self):
        import ray.data as rd
        return rd.read_parquet(self.files, columns=["event_type", "value"])

    def job(self, job: str) -> dict:
        out = quantiles_by_key(self._read(), "value", "event_type")
        return {"value": out.to_pandas()}

    def traced_job(self, tr, job: str) -> dict:
        spec = self.spec
        with tr.span("sources", job):
            src = self._read().materialize()
        with tr.span("partial", job):
            parts = src.map_batches(
                make_partial_fn(spec, "value", "event_type", None, NUM_SALTS),
                batch_format="pyarrow").materialize()
        with tr.span("exchange", job):
            merged = merge_partials(parts, spec, num_salts=NUM_SALTS).materialize()
        with tr.span("summarize", job):
            out = summarize(merged, spec, key_name="event_type").materialize()
            df = out.to_pandas()
        n_src = src.count()
        tr.count(job, **{"sources.rows_out": n_src,
                         "sources.bytes_out": src.size_bytes(),
                         "partial.rows_in": n_src,
                         "partial.rows_out": parts.count(),
                         "partial.bytes_out": parts.size_bytes(),
                         "ray.tasks": stats_tasks(out)})
        _count_exchange(tr, job, parts, merged)
        _count_summarize(tr, job, [out])
        tr.keep_stats(job, out)
        return {"value": df}

    def floor(self, clock: StateClock) -> dict:
        spec = timed_spec(self.spec, clock)
        t = {}
        t0 = time.perf_counter()
        tables = [pq.read_table(f, columns=["event_type", "value"])
                  for f in self.files]
        t["sources"] = time.perf_counter() - t0
        fn = make_partial_fn(spec, "value", "event_type", None, NUM_SALTS)
        t0 = time.perf_counter()
        parts = pa.concat_tables([fn(tb) for tb in tables])
        t["partial"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        merged = _fold_partials(spec, parts, ["key"])
        t["exchange"] = time.perf_counter() - t0
        return self._finish_floor(t, spec, merged, clock)


# ------------------------------------------------------------------ pages

class PagesParquet(Workload):
    """Generated pages on parquet; ``read_parquet -> pages_quantiles``."""

    name = "pages_parquet"
    key = "lang"
    FILES, ROWS_PER_FILE = 8, 12_500
    METRICS = ("text_length", "html_size")

    def generate(self) -> None:
        n = self._n(self.ROWS_PER_FILE)
        base = np.uint64(self.seed) << np.uint64(32)  # seed-offset page ids
        langs, tl, hs = [], [], []
        for i in range(self.FILES):
            t = generate_pages_batch(
                base + np.arange(i * n, (i + 1) * n, dtype=np.uint64))
            self._write(t)
            langs.append(t["lang"].to_numpy(zero_copy_only=False))
            tl.append(pc.utf8_length(t["text"]).to_numpy().astype(np.float64))
            hs.append(pc.binary_length(t["html"]).to_numpy().astype(np.float64))
        k = np.concatenate(langs)
        self.exact = {"text_length": _sorted_by_key(k, np.concatenate(tl)),
                      "html_size": _sorted_by_key(k, np.concatenate(hs))}

    def _read(self):
        import ray.data as rd
        return rd.read_parquet(self.files)

    def job(self, job: str) -> dict:
        res = pages_quantiles(self._read(), value_cols=self.METRICS, key="lang")
        return {m: res[m].to_pandas() for m in self.METRICS}

    @staticmethod
    def _extract(batch: pa.Table) -> pa.Table:
        """What the fused stage does to each chunk before it sketches."""
        ex = ExtractText()
        return pa.concat_tables([derive_metrics(ex(batch.slice(off, CHUNK)))
                                 for off in range(0, batch.num_rows, CHUNK)])

    def layer_seconds(self, d: dict) -> dict:
        # the fused stage extracts again, so partial is its time beyond extract
        return {"sources": d["sources"], "extract": d["extract"],
                "partial": d["extract+partial"] - d["extract"],
                "exchange": d["exchange"], "summarize": d["summarize"]}

    def traced_job(self, tr, job: str) -> dict:
        spec = self.spec
        with tr.span("sources", job):
            src = self._read().materialize()
        with tr.span("extract", job):
            ext = src.map_batches(self._extract,
                                  batch_format="pyarrow").materialize()
        with tr.span("extract+partial", job):
            parts = src.map_batches(
                make_fused_partials(spec, self.METRICS, "lang", NUM_SALTS, CHUNK),
                batch_format="pyarrow").materialize()
        with tr.span("exchange", job):
            merged = merge_multi_partials(parts, spec,
                                          num_salts=NUM_SALTS).materialize()
        outs, res = [], {}
        with tr.span("summarize", job):
            for m in self.METRICS:
                sub = merged.filter(expr=f'{METRIC_COL} == "{m}"') \
                    .drop_columns([METRIC_COL])
                outs.append(summarize(sub, spec, key_name="lang").materialize())
                res[m] = outs[-1].to_pandas()
        n_src = src.count()
        tr.count(job, **{"sources.rows_out": n_src,
                         "sources.bytes_out": src.size_bytes(),
                         "extract.rows": ext.count(),
                         "partial.rows_in": n_src,
                         "partial.rows_out": parts.count(),
                         "partial.bytes_out": parts.size_bytes(),
                         "ray.tasks": stats_tasks(merged) + sum(
                             stats_tasks(o) - stats_tasks(merged) for o in outs)})
        _count_exchange(tr, job, parts, merged)
        _count_summarize(tr, job, outs)
        tr.keep_stats(job, outs[0])
        return res

    def floor(self, clock: StateClock) -> dict:
        spec = timed_spec(self.spec, clock)
        t = {}
        t0 = time.perf_counter()
        tables = [pq.read_table(f) for f in self.files]
        t["sources"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        for tb in tables:
            self._extract(tb)
        t["extract"] = time.perf_counter() - t0
        fused = make_fused_partials(spec, self.METRICS, "lang", NUM_SALTS, CHUNK)
        t0 = time.perf_counter()
        parts = pa.concat_tables([fused(tb) for tb in tables])
        t["partial"] = time.perf_counter() - t0 - t["extract"]
        t0 = time.perf_counter()
        merged = _fold_partials(spec, parts, [METRIC_COL, "key"])
        t["exchange"] = time.perf_counter() - t0
        return self._finish_floor(t, spec, merged, clock)


# ------------------------------------------------------------- checkpoint

class CkptResume(Workload):
    """run_checkpointed, lose a quarter of the parts, resume, finalize."""

    name = "ckpt_resume"
    key = "user"
    FILES, ROWS_PER_FILE, KEYS = 16, 40_000, 400
    BATCH = 65536  # run_checkpointed's default reader batch size

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        n = self._n(self.ROWS_PER_FILE)
        # at least 1600 rows per key: with fewer, the worst key's t-digest
        # rank error reaches the gate's tolerance on some seeds
        n_keys = max(min(self.KEYS, n * self.FILES // 1600), 4)
        names = np.asarray([f"user-{i:05d}" for i in range(n_keys)], dtype=object)
        all_k, all_v = [], []
        for _ in range(self.FILES):
            idx = rng.integers(0, n_keys, n)
            vals = rng.lognormal(4.0 + (idx % 7) * 0.1, 0.8)
            self._write(pa.table({"user": pa.array(names[idx], pa.string()),
                                  "value": vals}))
            all_k.append(names[idx])
            all_v.append(vals)
        self.exact = {"value": _sorted_by_key(np.concatenate(all_k),
                                              np.concatenate(all_v))}
        # the quarter of the parts a simulated kill loses, chosen by the seed
        self.lost = sorted(rng.choice(self.FILES, self.FILES // 4,
                                      replace=False).tolist())
        self.reference: dict = {}
        # a job reads every file once, then the lost quarter again
        self.rows_read = n * (self.FILES + len(self.lost))
        self.bytes_read = pq.read_table(self.files).nbytes * self.rows_read // self.rows

    def _ckpt_dir(self, job: str) -> str:
        return os.path.join(self.work_dir, "ckpt", job)

    def _run(self, d: str):
        return run_checkpointed(self.files, self.spec, "value", "user", d)

    def _lose_quarter(self, d: str) -> int:
        for i in self.lost:
            os.remove(os.path.join(
                d, f"part-{partition_id_for(self.files[i])}.parquet"))
        return len(self.lost)

    def prepare(self) -> None:
        """Sketch bytes of an uninterrupted run: the byte-identity reference."""
        d = self._ckpt_dir("reference")
        self._run(d)
        raw = finalize_checkpointed(d, self.spec, key_name="user",
                                    raw=True).to_pandas()
        self.reference = {k: bytes(b) for k, b in zip(raw["key"], raw["sketch"])}

    def job(self, job: str) -> dict:
        d = self._ckpt_dir(job)
        self._run(d)
        self._lose_quarter(d)
        self._run(d)
        merged = finalize_checkpointed(d, self.spec, key_name="user",
                                       raw=True).materialize()
        df = summarize(merged, self.spec, key_name="user").to_pandas()
        return {"value": df, "raw": merged.to_pandas()}

    def check(self, result) -> tuple[float, list]:
        err, problems = check_quantiles({"value": result["value"]}, self.exact,
                                        self.key, QCOLS)
        if self.reference:  # set-up jobs run before the reference exists
            problems += check_same_bytes(result["raw"], self.reference)
        return err, problems

    def cleanup_job(self, job: str) -> None:
        shutil.rmtree(self._ckpt_dir(job), ignore_errors=True)

    def layer_seconds(self, d: dict) -> dict:
        # process_file reads, sketches and writes inside run_checkpointed
        return {"partial": d["checkpoint.write"] + d["checkpoint.resume"],
                "lose_quarter": d["lose_quarter"],
                "exchange": d["exchange"], "summarize": d["summarize"]}

    def traced_job(self, tr, job: str) -> dict:
        d = self._ckpt_dir(job)
        with tr.span("checkpoint.write", job):
            self._run(d)
        parts = [os.path.join(d, f) for f in os.listdir(d) if f.startswith("part-")]
        written = sum(os.path.getsize(f) for f in parts)
        with tr.span("lose_quarter", job):
            lost = self._lose_quarter(d)
        with tr.span("checkpoint.resume", job):
            r = self._run(d)
        with tr.span("exchange", job):
            merged = finalize_checkpointed(d, self.spec, key_name="user",
                                           raw=True).materialize()
        with tr.span("summarize", job):
            out = summarize(merged, self.spec, key_name="user").materialize()
            df = out.to_pandas()
        rows = pq.read_table(parts, columns=["key", "sketch", "n"])
        raw = merged.to_pandas()
        tr.count(job, **{"sources.rows_out": self.rows_read,
                         "sources.bytes_out": self.bytes_read,
                         "checkpoint.bytes_written": written,
                         "checkpoint.reprocessed_ratio": r.n_processed / lost,
                         "partial.rows_in": self.rows_read,
                         "partial.rows_out": rows.num_rows,
                         "partial.bytes_out": written,
                         "exchange.tasks": stats_tasks(merged),
                         "exchange.bytes": rows.nbytes,
                         "exchange.fan_in": rows.num_rows / max(len(raw), 1),
                         "ray.tasks": stats_tasks(out)})
        _count_summarize(tr, job, [out])
        tr.keep_stats(job, out)
        return {"value": df, "raw": raw}

    def floor(self, clock: StateClock) -> dict:
        """process_file's calls in this process: read each file in fixed
        reader batches, one sketch per key, serialize, write the part; then
        the resumed quarter again, the merge and the summary."""
        spec = timed_spec(self.spec, clock)
        t = {"sources": 0.0, "partial": 0.0, "checkpoint.write": 0.0}
        out_dir = self._ckpt_dir("floor")
        os.makedirs(out_dir, exist_ok=True)
        rows = []
        redo = [self.files[i] for i in self.lost]
        for n_file, path in enumerate(self.files + redo):
            t0 = time.perf_counter()
            batches = list(pq.ParquetFile(path).iter_batches(
                batch_size=self.BATCH, columns=["value", "user"]))
            t1 = time.perf_counter()
            sketches = {}
            for rb in batches:
                vals = rb.column(0).to_numpy(zero_copy_only=False)
                karr = rb.column(1).to_numpy(zero_copy_only=False)
                order = np.argsort(karr, kind="stable")
                uniq, starts = np.unique(karr[order], return_index=True)
                bounds = np.append(starts, len(karr))
                for i, k in enumerate(uniq):
                    idx = order[bounds[i]:bounds[i + 1]]
                    sk = sketches.setdefault(k, [spec.factory(), 0])
                    sk[0].update_batch(vals[idx])
                    sk[1] += len(idx)
            keys = sorted(sketches)
            part = pa.table({"key": keys,
                             "sketch": pa.array([sketches[k][0].to_bytes()
                                                 for k in keys], pa.binary()),
                             "n": [float(sketches[k][1]) for k in keys]})
            t2 = time.perf_counter()
            pq.write_table(part, os.path.join(out_dir, f"part-{n_file}.parquet"))
            t3 = time.perf_counter()
            t["sources"] += t1 - t0
            t["partial"] += t2 - t1
            t["checkpoint.write"] += t3 - t2
            if n_file < len(self.files):
                rows.append(part)
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        merged = _fold_partials(spec, pa.concat_tables(rows), ["key"])
        t["exchange"] = time.perf_counter() - t0
        return self._finish_floor(t, spec, merged, clock)


WORKLOADS = {w.name: w for w in (EventsDigest, PagesParquet, CkptResume)}
