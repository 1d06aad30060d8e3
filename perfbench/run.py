"""dpmod benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median of
several fresh interpreters importing dpmod and generating the inputs), then
``wall_s``, ``cpu_s`` (medians per study), ``peak_rss_mb``, ``solved_frac``
and ``value_ratio`` from one workload process that runs studies in a closed
loop for about S seconds.  With ``--trace 1`` it runs a warm-up study, a
traced and an untraced study, a single-thread pass (dpmod pool and BLAS both at one thread)
and kernel probes, reports the per-layer metrics and writes every span to
``.perfbench_work/trace-<workload>-seed<N>.json``.

Every invocation checks the outputs (see ``work.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  The line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("sequence_spike_t2", "compute_spike_t3", "geometry_t3", "oracle_tiny")
SETUP_SPAWNS = 7       # setup_s is the median of this many fresh interpreters
BUDGET_S = 170.0       # whole invocation, child processes included
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + BUDGET_S
        self.scratch = os.path.join(root, ".perfbench_work", f"{workload}-seed{seed}-{os.getpid()}")

    def env(self, serial=False):
        """Child environment: dpmod from this checkout's src.

        By default dpmod picks its own pool size and BLAS keeps its own
        settings; ``serial`` pins both to one thread.
        """
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("DPMOD_THREADS", None)
        if serial:
            for key in ("DPMOD_THREADS",) + BLAS_THREAD_VARS:
                env[key] = "1"
        return env

    def argv(self, mode, tag, seconds=None):
        argv = [sys.executable, os.path.join(HERE, "work.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode,
                "--dir", os.path.join(self.scratch, tag)]
        if seconds is not None:
            argv += ["--seconds", str(seconds)]
        return argv

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget exhausted")
        return left

    def setup_seconds(self, tag):
        """Wall time from process start until the child has its inputs ready."""
        t0 = time.perf_counter()
        with subprocess.Popen(self.argv("setup", tag), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, cwd=self.root,
                              env=self.env()) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            try:
                _, err = proc.communicate(timeout=self.remaining())
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("setup child timed out") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"setup child failed ({proc.returncode}): {err.strip()[-2000:]}")
        return elapsed

    def child(self, mode, tag, seconds=None, serial=False):
        """Run a workload child to completion; returns its JSON line."""
        try:
            proc = subprocess.run(self.argv(mode, tag, seconds), capture_output=True, text=True,
                                  cwd=self.root, env=self.env(serial), timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child timed out") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        return json.loads(lines[-1])


def end_to_end(runner, seconds):
    setups = [runner.setup_seconds(f"setup-{k}") for k in range(SETUP_SPAWNS)]
    out = runner.child("measure", "measure", seconds=seconds)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(out["walls"]),
        "cpu_s": statistics.median(out["cpus"]),
        "peak_rss_mb": out["peak_rss_mb"],
        "solved_frac": 1.0 - out["failed"] / out["attempted"],   # 1 - fail_frac
        "value_ratio": 1.0 - out["shortfall"],                  # 1 - value_shortfall
    }
    out["studies"] = len(out["walls"])
    return out, metrics


def per_layer(runner):
    out = runner.child("trace", "trace")
    metrics = dict(out["metrics"])
    metrics["util.workers"] = out["env"]["worker_count"]
    metrics["util.serial_wall_s"] = runner.child("serial", "serial", serial=True)["wall"]
    path = os.path.join(runner.root, ".perfbench_work",
                        f"trace-{runner.workload}-seed{runner.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": runner.workload, "seed": runner.seed, "env": out["env"],
                   "metrics": metrics, "spans": out["spans"]}, fh, indent=1)
    out["trace_file"] = os.path.relpath(path, runner.root)
    return out, metrics


def declared_metrics(root, trace):
    """{name: unit} of the metrics BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dpmod", "__init__.py")):
        print("error: run from the repository root (src/dpmod not found)", file=sys.stderr)
        return 2
    units = declared_metrics(root, args.trace)
    runner = Runner(root, args.workload, args.seed)
    os.makedirs(runner.scratch)
    try:
        if args.trace:
            out, metrics = per_layer(runner)
        else:
            out, metrics = end_to_end(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.scratch, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: measured metrics {sorted(set(metrics) ^ set(units))} differ from "
              "BENCHMARK.json", file=sys.stderr)
        return 1

    for message in out["errors"]:
        print(f"check failed: {message}", file=sys.stderr)
    info = {k: out[k] for k in ("env", "studies", "trace_file") if k in out}
    print(json.dumps(info))
    print(json.dumps({
        "correct": not out["errors"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
