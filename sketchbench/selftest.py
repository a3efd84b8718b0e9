"""Self-test of the benchmark at tiny input sizes.

    python3 sketchbench/selftest.py

1. Runs ``run.py`` on every workload (also those BENCHMARK.json leaves
   out), untraced and traced, at a tiny
   ``--scale`` and asserts that the last line carries every metric of
   BENCHMARK.json with its unit, and that every job passed the gate.
2. Runs each workload's job once in this process and asserts that the
   correctness gate passes the real result and fails it once perturbed: one
   quantile shifted, one count changed, one key dropped, and for
   ``ckpt_resume`` one sketch byte flipped.

Takes a few minutes on one CPU; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.04"


def check_cli(bench: dict) -> None:
    from run import WORKLOAD_NAMES

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in bench[key]}
        for name in WORKLOAD_NAMES:
            cmd = bench["command"] + ["--workload", name, "--seed", "7",
                                      "--seconds", "1", "--trace", str(trace),
                                      "--scale", SCALE]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=300)
            assert p.returncode == 0, (cmd, p.stderr[-2000:])
            last = json.loads(p.stdout.strip().splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
            assert last["correct"] and last["failed"] == 0, p.stdout[-2000:]
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == want, (name, trace, got, want)
            for k, v in last["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)
            print(f"ok  cli  {name:14s} trace={trace}", flush=True)


def _shift_quantile(result: dict) -> dict:
    out = {m: df.copy() for m, df in result.items()}
    df = out[next(iter(out))]
    df.loc[df.index[0], "q50"] = df.loc[df.index[0], "q90"]
    return out


def _change_count(result: dict) -> dict:
    out = {m: df.copy() for m, df in result.items()}
    df = out[next(iter(out))]
    df.loc[df.index[0], "n"] += 1
    return out


def _drop_key(result: dict) -> dict:
    out = {m: df.copy() for m, df in result.items()}
    m = next(iter(out))
    out[m] = out[m].iloc[1:]
    return out


def _flip_sketch_byte(result: dict) -> dict:
    out = dict(result)
    raw = result["raw"].copy()
    b = bytearray(raw.loc[raw.index[0], "sketch"])
    b[-1] ^= 1
    raw.at[raw.index[0], "sketch"] = bytes(b)
    out["raw"] = raw
    return out


def check_gate() -> None:
    from run import Cluster
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".sbw-selftest-") as work:
        cluster = Cluster(work, 1)
        cluster.start()
        try:
            for name, cls in WORKLOADS.items():
                wl = cls(7, float(SCALE), os.path.join(work, name))
                wl.generate()
                wl.prepare()
                result = wl.job("selftest")
                err, problems = wl.check(result)
                assert not problems, (name, problems)
                perturbations = [_shift_quantile, _change_count, _drop_key]
                if "raw" in result:
                    perturbations.append(_flip_sketch_byte)
                for perturb in perturbations:
                    _, problems = wl.check(perturb(result))
                    assert problems, (name, perturb.__name__)
                wl.cleanup_job("selftest")
                print(f"ok  gate {name:14s} max_rank_err={err:.4f}, "
                      f"{len(perturbations)} perturbations caught", flush=True)
        finally:
            cluster.stop()


def main() -> int:
    sys.path[:0] = [ROOT, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, HERE, os.environ.get("PYTHONPATH")) if p)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_gate()
    check_cli(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
