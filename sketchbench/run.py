"""Seeded, layer-by-layer benchmark of the t_digest_ray sketch pipelines.

Run from the repository root:

    python3 sketchbench/run.py --workload events_digest --seed 1 --seconds 12 --trace 0

Each run generates its inputs from ``--seed`` (parquet files under a work
directory in the repository root), computes the exact answers with
numpy/pyarrow, starts Ray with as many CPUs as ``nproc`` reports, and runs
the workload's job repeatedly for ``--seconds``. Every job's output is checked
against the exact answers. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The line before it is a report with the versions, the CPU
count, every job time and the correctness details. A traced run also writes
its spans, counts and layer shares to ``sketchbench/results/``.
See sketchbench/README.md for the workloads and the metric map.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("events_digest", "pages_parquet", "ckpt_resume")

N_SETUPS = 3                  # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 165             # no job starts or runs past this point of a run
JOB_TIMEOUT_S = 60            # a job running longer counts as failed
WATCHDOG_S = 172              # hard stop: kill every child and exit non-zero
OBJECT_STORE_BYTES = 512 * 2**20

END_TO_END = {"setup_s": "s", "job_s": "s", "rows_per_s": "rows/s",
              "peak_rss_mb": "MiB"}
PER_LAYER = {
    "sources.read_s": "s", "sources.rows_out": "count",
    "sources.bytes_out": "bytes",
    "partial.s": "s", "partial.rows_in": "count", "partial.rows_out": "count",
    "partial.bytes_out": "bytes",
    "exchange.s": "s", "exchange.tasks": "count", "exchange.bytes": "bytes",
    "exchange.fan_in": "count",
    "state.update_s": "s", "state.serde_s": "s", "state.merge_s": "s",
    "state.sketch_bytes": "bytes", "state.centroids": "count",
    "state.max_rank_err": "1",
    "summarize.s": "s", "summarize.rows": "count",
    "summarize.empty_blocks": "count",
    "floor.s": "s", "engine_overhead_s": "s", "ray.tasks": "count",
    "log.schema_warnings": "count", "trace.overhead_s": "s",
}
# measured on one workload only, so they are in the trace file, not PER_LAYER
WORKLOAD_ONLY = {
    "extract.s": "s", "extract.rows": "count",
    "checkpoint.write_s": "s", "checkpoint.resume_s": "s",
    "checkpoint.finalize_s": "s", "checkpoint.bytes_written": "bytes",
    "checkpoint.reprocessed_ratio": "1",
}


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout()


def _watchdog():
    from tracing import descendants
    print(f"sketchbench: run exceeded {WATCHDOG_S} s, stopping", file=sys.stderr)
    for p in descendants():
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    os._exit(3)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size multiplier (the self-test uses a tiny one)")
    return ap.parse_args(argv)


def _median(xs):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else float("nan")


class Runner:
    """Runs jobs under a timeout and gates every output."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.max_rank_err = 0.0
        self.problems: list[str] = []
        self.stopped = False  # set after a timeout: the engine may be wedged

    def run(self, job: str, tracer=None):
        """Run one job; returns its wall seconds, or None when it failed."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - T_START)
        if self.stopped or remaining < 5:
            self.stopped = True
            return None
        self.attempted += 1
        signal.setitimer(signal.ITIMER_REAL, min(JOB_TIMEOUT_S, remaining))
        try:
            t0 = time.perf_counter()
            if tracer is None:
                result = self.wl.job(job)
            else:
                with tracer.span("job", job):
                    result = self.wl.traced_job(tracer, job)
            dt = time.perf_counter() - t0
        except JobTimeout:
            return self._fail(job, "timeout", stop=True)
        except Exception:  # a failed job is counted, the run goes on
            return self._fail(job, traceback.format_exc(limit=3))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            err, problems = self.wl.check(result)
        except Exception:
            err, problems = 0.0, [traceback.format_exc(limit=3)]
        finally:
            self.wl.cleanup_job(job)
        self.max_rank_err = max(self.max_rank_err, err)
        if problems:
            return self._fail(job, "; ".join(problems[:3]))
        return dt

    def _fail(self, job, why, stop=False):
        self.failed += 1
        self.problems.append(f"{job}: {why}")
        self.stopped = self.stopped or stop
        self.wl.cleanup_job(job)
        return None


class Cluster:
    """Starts and stops the local Ray instance the jobs run on."""

    def __init__(self, work_dir: str, num_cpus: int):
        self.num_cpus = num_cpus
        temp = os.path.join(work_dir, "r")
        # Ray puts "/session_<date>_<pid>/sockets/plasma_store" (64 bytes)
        # under the temp dir, and a socket path must fit in 107 bytes; a
        # longer checkout path leaves Ray on its default temp dir
        self.temp_dir = temp if len(temp) <= 43 else None
        self.logs_dir = None

    def start(self):
        import ray
        from ray.data import DataContext

        kw = {"_temp_dir": self.temp_dir} if self.temp_dir else {}
        ray.init(address="local", num_cpus=self.num_cpus,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, log_to_driver=False,
                 logging_level="ERROR", **kw)
        DataContext.get_current().enable_progress_bars = False
        try:
            self.logs_dir = ray._private.worker._global_node.get_logs_dir_path()
        except AttributeError:
            self.logs_dir = None

    def stop(self):
        import ray

        from tracing import stop_descendants
        if ray.is_initialized():
            ray.shutdown()
        stop_descendants()


def _setup_seconds(cluster, runner, n, import_s):
    """import time + median over ``n`` cold starts of (ray.init + first job)."""
    times = []
    for i in range(n):
        t0 = time.perf_counter()
        cluster.start()
        runner.run(f"setup-{i}")
        times.append(time.perf_counter() - t0)
        if i < n - 1:
            cluster.stop()
    return import_s + statistics.median(times), times


def run_untraced(args, wl, cluster, runner, counter, import_s):
    from tracing import LogScan, descendants, peak_rss_mib, reset_peak_rss

    setup_s, setups = _setup_seconds(cluster, runner, N_SETUPS, import_s)
    wl.prepare()
    reset_peak_rss([os.getpid()] + descendants())
    logs = LogScan(cluster.logs_dir)
    logs.mark()
    warn0 = counter.n
    times = []
    t_begin = time.perf_counter()
    while time.perf_counter() - t_begin < args.seconds and not runner.stopped:
        times.append(runner.run(f"job-{len(times)}"))
    peak = peak_rss_mib([os.getpid()] + descendants())
    ok = [t for t in times if t is not None]
    job_s = _median(ok)
    metrics = {"setup_s": setup_s, "job_s": job_s,
               "rows_per_s": wl.rows / job_s if ok else float("nan"),
               "peak_rss_mb": peak}
    extra = {"setup_runs_s": setups, "job_times_s": times,
             "log.schema_warnings": (counter.n - warn0 + logs.count())
             / max(len(times), 1)}
    return metrics, extra


def run_traced(args, wl, cluster, runner, counter, import_s):
    from tracing import LogScan, StateClock, Tracer

    _setup_seconds(cluster, runner, 1, import_s)
    wl.prepare()
    tr = Tracer()
    logs = LogScan(cluster.logs_dir)
    untraced, traced, warnings = [], [], []
    t_begin = time.perf_counter()
    while not runner.stopped and (
            len(traced) < 2 or time.perf_counter() - t_begin < args.seconds):
        logs.mark()
        warn0 = counter.n
        untraced.append(runner.run(f"job-{len(untraced)}"))
        warnings.append(counter.n - warn0 + logs.count())
        job = f"traced-{len(traced)}"
        if runner.run(job, tracer=tr) is not None:
            traced.append(job)
    clocks, floors = [], []
    for _ in range(2):
        clocks.append(StateClock())
        floors.append(wl.floor(clocks[-1]))
    if not traced:
        return {}, {"error": "no traced job completed"}

    layers = [wl.layer_seconds(tr.durations(j)) for j in traced]
    layer_s = {k: _median(d[k] for d in layers) for k in layers[0]}
    counts = {k: _median(tr.counts[j].get(k) for j in traced)
              for k in tr.counts[traced[0]]}
    floor = {k: _median(f[k] for f in floors) for k in floors[0]}
    floor_s = _median(sum(f.values()) for f in floors)
    job_s = _median(untraced)
    traced_total = _median(tr.durations(j)["job"] for j in traced)
    state = {f"state.{what}_s": _median(c.s[what] for c in clocks)
             for what in ("update", "serde", "merge")}
    m = {**counts, **state,
         "sources.read_s": layer_s.get("sources", floor["sources"]),
         "partial.s": layer_s["partial"],
         "exchange.s": layer_s["exchange"],
         "summarize.s": layer_s["summarize"],
         "state.sketch_bytes": clocks[-1].sizes["sketch_bytes"],
         "state.centroids": clocks[-1].sizes["centroids"],
         "state.max_rank_err": runner.max_rank_err,
         "floor.s": floor_s,
         "engine_overhead_s": _median(sum(d.values()) for d in layers) - floor_s,
         "log.schema_warnings": _median(warnings),
         "trace.overhead_s": traced_total - job_s}
    if "extract" in layer_s:
        m["extract.s"] = layer_s["extract"]
    if "checkpoint.write" in tr.durations(traced[0]):
        d = [tr.durations(j) for j in traced]
        m["checkpoint.write_s"] = _median(x["checkpoint.write"] for x in d)
        m["checkpoint.resume_s"] = _median(x["checkpoint.resume"] for x in d)
        m["checkpoint.finalize_s"] = layer_s["exchange"] + layer_s["summarize"]
    shares = {k: v / job_s for k, v in layer_s.items()}
    shares["state (in-process floor)"] = sum(state.values()) / job_s
    trace = {"workload": wl.name, "seed": args.seed, "job_s": job_s,
             "traced_job_s": traced_total, "untraced_job_times_s": untraced,
             "layer_s": layer_s, "share_of_job_s": shares,
             "floor_s_by_layer": floor, "floor_runs": floors,
             "metrics": {k: m[k] for k in sorted(m)},
             "spans": tr.spans, "counts": tr.counts,
             "dataset_stats": tr.stats}
    return m, trace


def _nproc() -> int:
    """CPUs as ``nproc`` counts them (it honours OMP_NUM_THREADS)."""
    import subprocess
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True,
                                  timeout=10).stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return len(os.sched_getaffinity(0))


def _versions():
    import numpy
    import pyarrow
    import ray
    return {"ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "numpy": numpy.__version__, "python": sys.version.split()[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "t_digest_ray")):
        print(f"sketchbench: no t_digest_ray package in {ROOT}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    watchdog = threading.Timer(WATCHDOG_S - (time.perf_counter() - T_START),
                               _watchdog)
    watchdog.daemon = True
    watchdog.start()
    signal.signal(signal.SIGALRM, _on_alarm)
    # on SIGTERM unwind through the cleanup below, which stops Ray's processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    # Ray workers import the library and these modules from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, HERE, os.environ.get("PYTHONPATH")) if p)
    sys.path[:0] = [ROOT, HERE]

    from tracing import SchemaWarningCounter
    from workloads import WORKLOADS
    import ray.data  # noqa: F401  (part of the measured import time)
    import_s = time.perf_counter() - T_START

    num_cpus = _nproc()
    work_dir = os.path.join(ROOT, ".sbw", str(os.getpid()))
    counter = SchemaWarningCounter().install()
    cluster = Cluster(work_dir, num_cpus)
    try:
        t0 = time.perf_counter()
        wl = WORKLOADS[args.workload](args.seed, args.scale, work_dir)
        wl.generate()
        gen_s = time.perf_counter() - t0
        runner = Runner(wl)
        run = run_traced if args.trace else run_untraced
        metrics, extra = run(args, wl, cluster, runner, counter, import_s)
    finally:
        cluster.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass
    watchdog.cancel()

    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "num_cpus": num_cpus,
              "cpus_available": len(os.sched_getaffinity(0)), **_versions(),
              "input_rows": wl.rows, "input_files": len(wl.files),
              "generate_s": gen_s, "attempted": runner.attempted,
              "failed": runner.failed,
              "failed_frac": runner.failed / max(runner.attempted, 1),
              "max_rank_err": runner.max_rank_err,
              "problems": runner.problems[:5]}
    if args.trace:
        out_dir = os.path.join(HERE, "results")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        extra.update(report)
        with open(path, "w") as f:
            json.dump(extra, f, indent=1, default=float)
        report["trace_file"] = os.path.relpath(path, ROOT)
        names = PER_LAYER
    else:
        report.update(extra)
        names = END_TO_END
    report["metrics"] = {k: {"value": v, "unit": (END_TO_END | PER_LAYER |
                                                  WORKLOAD_ONLY).get(k, "")}
                         for k, v in metrics.items()}
    print(json.dumps(report, default=float))
    final = {"correct": runner.attempted > 0 and runner.failed == 0,
             "attempted": max(runner.attempted, 1),
             "failed": runner.failed if runner.attempted else 1,
             "metrics": {k: {"value": metrics.get(k, float("nan")), "unit": u}
                         for k, u in names.items()}}
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
