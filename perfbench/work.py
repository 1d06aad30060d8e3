"""Workloads of the dpmod benchmark, run one per fresh interpreter.

``perfbench/run.py`` starts this file with ``src`` on ``PYTHONPATH``:

    python3 perfbench/work.py --workload NAME --seed N --mode MODE --dir DIR [--seconds S]

MODE is one of

* ``setup``   import dpmod, generate the workload's inputs, print one line;
* ``measure`` run studies in a closed loop (one at a time) for about S
  seconds, at least ``min_studies`` of them, check every output and print
  one JSON line with per-study wall and CPU times;
* ``trace``   a warm-up study, a traced study and an untraced one, kernel
  probes, the same checks, and a JSON line holding the spans and the
  per-layer metrics;
* ``serial``  one untraced study (the caller pins dpmod's pool and BLAS to
  one thread).

Every workload drives dpmod only through the CLI (``dpmod.cli.main``) and the
public API, looked up as module attributes at call time so the tracer in
``spans.py`` sees each call.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np

import dpmod
from dpmod import cli, families, geodesic, oracle, solver, util
from dpmod.errors import NonConvergedError
from dpmod.mesh import build_mesh
from dpmod.metric import MetricField

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# Correctness gate.  Every solver or oracle value is attained by a feasible
# point, so it is a lower bound: a more accurate program may raise a value
# but must not lower it.  VALUE_RTOL is ten times the solver's default
# stage_rtol, room for re-ordered floating point in a faster kernel.
VALUE_RTOL = 1e-4
RESIDUAL_TOL = 1e-9    # extremals are rescaled to unit gauge: round-off only
ORACLE_RTOL = 1e-2     # solver vs brute force, as in the acceptance test
MATCH_RTOL = 1e-9      # deterministic functionals (no solver) vs reference


class Gate:
    """Counts attempted and failed operations and collects check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.shortfall = 0.0   # largest relative drop of a value below its reference

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)
        return ok

    def operation(self, ok, message):
        self.attempted += 1
        if not self.expect(ok, message):
            self.failed += 1

    def value(self, got, ref, what):
        got = float(got)
        drop = max(0.0, (ref - got) / ref)
        self.shortfall = max(self.shortfall, drop)
        self.expect(drop <= VALUE_RTOL,
                    f"{what}: {got!r} is {drop:.3g} (relative) below the reference {ref!r}")

    def match(self, got, ref, what):
        self.expect(abs(got - ref) <= MATCH_RTOL * abs(ref),
                    f"{what}: {got!r} differs from the reference {ref!r}")

    def residuals(self, energy, holder, what):
        self.expect(energy <= RESIDUAL_TOL and holder <= RESIDUAL_TOL,
                    f"{what}: residuals {energy!r}, {holder!r} exceed round-off")


def run_cli(args):
    """``dpmod <args>`` in this process; returns the exit code."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def same_files(a, b):
    """True when directories a and b hold the same file names and bytes."""
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    for name in names:
        with open(os.path.join(a, name), "rb") as fa, open(os.path.join(b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def render_config(items):
    return "".join(f"{key} = {value}\n" for key, value in items)


class Workload:
    """One study type.  ``study`` is the timed unit; inputs come from setup."""

    name = ""
    min_studies = 2          # CLI workloads rerun to check byte-identical outputs
    span = staticmethod(lambda name: contextlib.nullcontext())

    def __init__(self, seed, workdir, reference):
        self.seed = seed
        self.workdir = workdir
        self.out = os.path.join(workdir, "out")
        self.ref = reference.get(self.name, {}) if reference else {}
        os.makedirs(workdir, exist_ok=True)

    def write_config(self, name, items):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(render_config(items))
        return path

    def cli_study(self, *commands):
        """Run CLI commands in order; returns their exit codes."""
        return [run_cli([kind, "--config", cfg, "--out", self.out, "--seed", str(self.seed)])
                for kind, cfg in commands]

    def check_reruns(self, gate, dirs):
        for k, d in enumerate(dirs[1:], start=1):
            gate.expect(same_files(dirs[0], d), f"study {k} outputs differ from study 0")

    def check(self, gate, records, dirs):
        raise NotImplementedError

    def probe_instance(self):
        """(mesh, g, g0, p) at which the solver kernels are probed."""
        raise NotImplementedError


# -- sequence_spike_t2 ---------------------------------------------------------

SEQUENCE = dict(n=2, resolution=8, p=7.0, D=2.0, j_list=tuple(range(1, 9)))


class SequenceSpike(Workload):
    """README sequence study: 8x8 torus spike, j = 1..8, 4 corner pairs."""

    name = "sequence_spike_t2"

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.config = self.write_config("sequence.cfg", [
            ("kind", "sequence"), ("family", "spike"), ("n", SEQUENCE["n"]),
            ("resolution", SEQUENCE["resolution"]), ("torus", "true"),
            ("p", SEQUENCE["p"]), ("D", SEQUENCE["D"]), ("j_list", "1..8"),
            ("pairs", "corner-pairs"),
        ])
        # the seed picks the family member whose solves are re-checked
        self.check_j = int(np.random.default_rng(seed).integers(1, 9))

    def study(self):
        return {"rc": self.cli_study(("sequence", self.config))}

    def api_setup(self):
        """The study's base (mesh, g0) and GaugeParams, built through the public API."""
        base = families.make_flat(SEQUENCE["n"], SEQUENCE["resolution"], torus=True)
        mesh, g0 = base
        dm0 = geodesic.all_pairs_distances(mesh, g0)
        params = solver.GaugeParams.build(mesh, dm0, p=SEQUENCE["p"], D=SEQUENCE["D"])
        return base, params

    def check(self, gate, records, dirs):
        pairs = [tuple(pq) for pq in self.ref["pairs"]]
        solves = len(pairs) * (1 + len(SEQUENCE["j_list"]))
        for k, rec in enumerate(records):
            for _ in range(solves):
                gate.operation(rec["rc"] == [0], f"study {k}: sequence exit codes {rec['rc']}")
        self.check_reruns(gate, dirs)
        rows = read_csv(os.path.join(dirs[0], "sequence.csv"))
        if not gate.expect([int(r["j"]) for r in rows] == list(SEQUENCE["j_list"]),
                           "sequence.csv rows do not cover j = 1..8"):
            return
        for row in rows:
            for key in ("I_g", "I_inv", "I_eta", "I_33"):
                gate.match(float(row[key]), self.ref["functionals"][row["j"]][key],
                           f"j = {row['j']} {key}")

        # Re-solve the baseline and one member through the public API: the
        # values must not drop below the reference and must reproduce the
        # CSV's discrepancy for that member.
        base, params = self.api_setup()
        mesh, g0 = base
        j = self.check_j
        g_j = families.make_spike_sequence(base, j)
        values = {}
        for label, g, refs in (("baseline", g0, self.ref["baseline"]),
                               (f"j={j}", g_j, self.ref["members"][str(j)])):
            outcomes = solver.distance_matrix(pairs, g, g0, params)
            vals = []
            for oc, ref in zip(outcomes, refs):
                r = oc.result
                ok = r is not None and r.converged
                gate.operation(ok, f"{label} pair ({oc.x}, {oc.y}): {oc.error}")
                if r is None:
                    continue
                gate.residuals(r.energy_residual, r.holder_residual, f"{label} pair ({oc.x}, {oc.y})")
                gate.value(r.value, ref["value"], f"{label} pair ({oc.x}, {oc.y})")
                vals.append(r.value)
            values[label] = np.array(vals)
        if all(v.size == len(pairs) for v in values.values()):
            base_vals = values["baseline"]
            disc = float(np.max(np.abs(values[f"j={j}"] - base_vals) / base_vals))
            csv_disc = float(rows[j - 1]["sup_pair_discrepancy"])
            gate.expect(abs(disc - csv_disc) <= 1e-9 * max(1.0, disc),
                        f"j = {j}: CSV discrepancy {csv_disc!r} != API discrepancy {disc!r}")

    def probe_instance(self):
        base = families.make_flat(SEQUENCE["n"], SEQUENCE["resolution"], torus=True)
        return base[0], families.make_spike_sequence(base, 1), base[1], SEQUENCE["p"]


# -- compute_spike_t3 ----------------------------------------------------------

class ComputeSpike(Workload):
    """``compute`` on the 6^3 torus spike (j = 2, p = 10, D = auto), 7 corner pairs."""

    name = "compute_spike_t3"

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.config = self.write_config("compute.cfg", [
            ("kind", "compute"), ("family", "spike"), ("n", 3), ("resolution", 6),
            ("torus", "true"), ("j", 2), ("p", 10), ("D", "auto"),
            ("pairs", "corner-pairs"),
        ])

    def study(self):
        return {"rc": self.cli_study(("compute", self.config))}

    def check(self, gate, records, dirs):
        refs = self.ref["rows"]
        for k, rec in enumerate(records):
            gate.expect(rec["rc"] == [0], f"study {k}: compute exit codes {rec['rc']}")
        self.check_reruns(gate, dirs)
        for d in dirs:
            rows = read_csv(os.path.join(d, "compute.csv"))
            gate.expect(len(rows) == len(refs), f"compute.csv has {len(rows)} rows, expected {len(refs)}")
            for row, ref in zip(rows, refs):
                what = f"pair ({row['x']}, {row['y']})"
                if not gate.expect((int(row["x"]), int(row["y"])) == (ref["x"], ref["y"]),
                                   f"{what}: expected pair ({ref['x']}, {ref['y']})"):
                    continue
                gate.operation(row["converged"] == "true", f"{what}: not converged")
                gate.residuals(float(row["energy_residual"]), float(row["holder_residual"]), what)
                gate.value(float(row["value"]), ref["value"], what)

    def probe_instance(self):
        base = families.make_flat(3, 6, torus=True)
        return base[0], families.make_spike_sequence(base, 2), base[1], 10.0


# -- geometry_t3 ---------------------------------------------------------------

class GeometryT3(Workload):
    """``gen`` of a 10^3 torus spike, then ``class-check`` of the written files."""

    name = "geometry_t3"

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        self.gen_config = self.write_config("gen.cfg", [
            ("kind", "gen"), ("family", "spike"), ("n", 3), ("resolution", 10),
            ("torus", "true"), ("j", 2),
        ])
        self.check_config = self.write_config("class_check.cfg", [
            ("kind", "class-check"),
            ("mesh", os.path.join(self.out, "mesh.txt")),
            ("metric", os.path.join(self.out, "metric.txt")),
            ("metric0", os.path.join(self.out, "metric0.txt")),
            ("q1", 4), ("q2", 4), ("V1", 100), ("V2", 100), ("diam_bound", 10),
        ])

    def study(self):
        return {"rc": self.cli_study(("gen", self.gen_config), ("class-check", self.check_config))}

    def check(self, gate, records, dirs):
        for k, rec in enumerate(records):
            for kind, rc in zip(("gen", "class-check"), rec["rc"]):
                gate.operation(rc == 0, f"study {k}: {kind} exited {rc}")
        self.check_reruns(gate, dirs)
        names = set(os.listdir(dirs[0]))
        want = {"mesh.txt", "metric.txt", "metric0.txt", "family.jsonl", "class_check.txt"}
        if not gate.expect(want <= names, f"missing outputs {sorted(want - names)}"):
            return
        with open(os.path.join(dirs[0], "class_check.txt")) as fh:
            text = fh.read()
        measured = [float(m) for m in re.findall(r"measured = (\S+)", text)]
        refs = self.ref["class_check"]
        if gate.expect(len(measured) == len(refs), "class_check.txt lacks measured values"):
            for got, (key, ref) in zip(measured, refs.items()):
                gate.match(got, ref, f"class-check {key}")
        gate.expect("verdict: member" in text, "class-check verdict is not 'member'")

    def probe_instance(self):
        base = families.make_flat(3, 10, torus=True)
        return base[0], families.make_spike_sequence(base, 2), base[1], 10.0


# -- oracle_tiny ---------------------------------------------------------------

ORACLE_SHAPES = ("chain4", "chain5", "chain6", "strip4", "strip6")
ORACLE_POOL = 6            # instances per shape with stored references
ORACLE_POOL_SEED = 20260818


def _random_spd(rng, num_cells, n, cond_max):
    """Random SPD tensors with condition number <= cond_max (acceptance-test draw)."""
    out = np.empty((num_cells, n, n))
    for c in range(num_cells):
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        cond = rng.uniform(1.0, cond_max)
        lo, hi = 1.0 / np.sqrt(cond), np.sqrt(cond)
        eig = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
        eig[0], eig[-1] = lo, hi
        out[c] = (Q * (rng.uniform(0.5, 2.0) * eig)) @ Q.T
    return out


def _strip(nx, jitter, rng):
    """Triangulated nx x 1 strip with jittered vertices."""
    verts = np.array([[i, j] for j in range(2) for i in range(nx + 1)], dtype=float)
    verts += rng.uniform(-jitter, jitter, size=verts.shape)
    cells = []
    for i in range(nx):
        a, b, c, d = i, i + 1, i + nx + 1, i + nx + 2
        cells += [(a, b, d), (a, d, c)]
    return build_mesh(verts, np.array(cells))


def oracle_instance(shape, index):
    """Pool instance ``index`` of a shape, drawn as the brute-force acceptance test draws.

    Returns (mesh, g, g0, p, cap_factor); the cap is cap_factor / d_g0(x, y)^t.
    """
    rng = np.random.default_rng([ORACLE_POOL_SEED, ORACLE_SHAPES.index(shape), index])
    if shape.startswith("chain"):
        nodes = int(shape[len("chain"):])
        pos = np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.2, size=nodes - 1))])
        mesh = build_mesh(pos.reshape(-1, 1),
                          np.column_stack([np.arange(nodes - 1), np.arange(1, nodes)]))
    elif shape == "strip4":
        mesh = _strip(1, 0.25, rng)
    else:
        mesh = _strip(2, 0.2, rng)
    n = mesh.dim
    g = MetricField(mesh, _random_spd(rng, mesh.num_cells, n, 20.0))
    g0 = MetricField(mesh, _random_spd(rng, mesh.num_cells, n, 4.0))
    p = float(rng.uniform(n + 0.5, 12.0))
    cap_factor = float(10.0 ** rng.uniform(-0.8, 0.8)) * 0.5
    return mesh, g, g0, p, cap_factor


def solve_oracle_instance(mesh, g, g0, p, cap_factor):
    """Solver and brute-force oracle on one instance; returns (result, converged, oracle value)."""
    dm0 = geodesic.all_pairs_distances(mesh, g0)
    x, y = 0, mesh.num_nodes - 1
    D = cap_factor / dm0[x, y] ** ((p - mesh.dim) / p)
    params = solver.GaugeParams.build(mesh, dm0, p=p, D=D)
    try:
        result, converged = solver.solve_dp(x, y, g, g0, params), True
    except NonConvergedError as exc:
        result, converged = exc.result, False
    return result, converged, oracle.brute_force_dp(x, y, g, g0, params)


class OracleTiny(Workload):
    """One pool instance per shape, picked by the seed; solver and brute force on each."""

    name = "oracle_tiny"
    min_studies = 1   # no CLI outputs to compare; one study is about 20 s

    def __init__(self, seed, workdir, reference):
        super().__init__(seed, workdir, reference)
        picks = np.random.default_rng(seed).integers(ORACLE_POOL, size=len(ORACLE_SHAPES))
        self.instances = [(shape, int(i), oracle_instance(shape, int(i)))
                          for shape, i in zip(ORACLE_SHAPES, picks)]

    def study(self):
        out = []
        for shape, index, inst in self.instances:
            with self.span("bench.oracle_instance"):
                r, converged, truth = solve_oracle_instance(*inst)
            out.append({"key": f"{shape}/{index}", "value": r.value, "converged": converged,
                        "energy_residual": r.energy_residual,
                        "holder_residual": r.holder_residual, "oracle": truth})
        return out

    def check(self, gate, records, dirs):
        for rec in records:
            for inst in rec:
                key = inst["key"]
                ref = self.ref["pool"][key]
                agree = abs(inst["value"] - inst["oracle"]) <= ORACLE_RTOL * inst["oracle"]
                gate.operation(inst["converged"] and agree,
                               f"{key}: solver {inst['value']!r} vs oracle {inst['oracle']!r}"
                               f" (converged {inst['converged']})")
                gate.residuals(inst["energy_residual"], inst["holder_residual"], key)
                gate.value(inst["value"], ref["value"], f"{key} solver")
                gate.value(inst["oracle"], ref["oracle"], f"{key} oracle")

    def probe_instance(self):
        mesh, g, g0, p, _ = self.instances[-1][2]
        return mesh, g, g0, p


WORKLOADS = {cls.name: cls for cls in (SequenceSpike, ComputeSpike, GeometryT3, OracleTiny)}


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def environment():
    blas = numpy_blas()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "worker_count": util.worker_count(),
        "DPMOD_THREADS": os.environ.get("DPMOD_THREADS", "unset"),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "dpmod": dpmod.__version__,
        "machine": platform.machine(),
    }


def numpy_blas():
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def timed_study(wl, k):
    """Run study k into a fresh output directory; returns (wall, cpu, record, dir)."""
    shutil.rmtree(wl.out, ignore_errors=True)
    t0, c0 = time.perf_counter(), time.process_time()
    record = wl.study()
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    kept = None
    if os.path.isdir(wl.out):
        kept = os.path.join(wl.workdir, f"study-{k}")
        os.rename(wl.out, kept)
    return wall, cpu, record, kept


def checked(wl, records, dirs):
    """Run the workload's correctness gate; returns its counts and failures."""
    gate = Gate()
    try:
        wl.check(gate, records, dirs)
    except Exception:  # a missing or malformed output fails the gate, not the run
        gate.operation(False, traceback.format_exc(limit=2))
    return {"attempted": gate.attempted, "failed": gate.failed,
            "errors": gate.errors[:20], "shortfall": gate.shortfall}


def measure(wl, seconds):
    walls, cpus, records, dirs = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, cpu, record, kept = timed_study(wl, len(walls))
        walls.append(wall)
        cpus.append(cpu)
        records.append(record)
        dirs.append(kept)
        elapsed = time.perf_counter() - start
        # closed loop: stop before a study that would end past the budget
        if len(walls) >= wl.min_studies and elapsed + statistics.median(walls) > seconds:
            break
    return {"walls": walls, "cpus": cpus,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **checked(wl, records, dirs)}


def traced(wl, seed):
    from spans import Tracer, layer_metrics, probe_kernels

    # The first study of a process pays one-off costs (allocation, caches),
    # so it only warms up; the overhead compares the traced study with the
    # untraced one that follows it.
    _, _, rec0, dir0 = timed_study(wl, 0)
    tracer = Tracer()
    wl.span = tracer.span
    with tracer.installed():
        with tracer.span("bench.study"):
            traced_wall, _, rec1, dir1 = timed_study(wl, 1)
    del wl.span
    untraced_wall, _, rec2, dir2 = timed_study(wl, 2)
    metrics = layer_metrics(tracer.spans)
    metrics.update(probe_kernels(*wl.probe_instance(), seed=seed))
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.spans"] = len(tracer.spans)
    return {"metrics": metrics, "spans": tracer.export(),
            **checked(wl, [rec0, rec1, rec2], [dir0, dir1, dir2])}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "serial"))
    ap.add_argument("--dir", required=True, help="scratch directory for inputs and outputs")
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload](args.seed, args.dir, load_reference())
    if args.mode == "setup":
        print("ready", flush=True)
        return 0
    if args.mode == "measure":
        out = measure(wl, args.seconds)
    elif args.mode == "trace":
        out = traced(wl, args.seed)
    else:
        out = {"wall": timed_study(wl, 0)[0]}
    out["env"] = environment()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
