"""Experiment runners behind the CLI.

Each runner takes a parsed :class:`~dpmod.config.ExperimentConfig`, writes its
CSV/SVG/text outputs into the configured directory, and returns a
:class:`RunResult` with the exit code.  Everything is deterministic for a
fixed config + seed: floats are serialized with ``repr`` (shortest
round-trip), rows keep the configured order, files are written after all
solves of a run, and no output embeds a timestamp.  Every CSV row echoes the
config hash.

Exit codes: 0 success, 1 input error (raised as exceptions; the CLI maps
them), 2 solver non-convergence or a failed scaling check.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .errors import DpmodError, ParseError
from .families import (
    FAMILY_NAMES,
    FamilySpec,
    make_conformal_constant,
    make_flat,
    make_oscillation_sequence,
    make_spike_sequence,
)
from .geodesic import all_pairs_distances
from .mesh import find_node, read_mesh, write_mesh
from .metric import (
    ClassParams,
    MetricField,
    check_class_membership,
    hypothesis_functionals,
    read_metric,
    scale_metric,
    write_metric,
)
from .plot import plot_from_csv
from .solver import GaugeParams, distance_matrix

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NONCONVERGED = 2

DEFAULT_LAMBDAS = (0.5, 1.0, 2.0, 4.0)
DEFAULT_J_RANGE = tuple(range(1, 9))

COMPUTE_HEADER = ("x", "y", "p", "D", "value", "active_constraint", "iters",
                  "energy_residual", "holder_residual", "converged", "config_hash")
SWEEP_HEADER = ("p", "value", "d_graph", "gap", "config_hash")
SEQUENCE_HEADER = ("j", "I_g", "I_inv", "I_eta", "I_33",
                   "sup_pair_discrepancy", "config_hash")
SCALING_HEADER = ("lambda", "lhs", "rhs", "rel_err", "config_hash")


@dataclass
class RunResult:
    exit_code: int
    files: list = field(default_factory=list)
    summary: str = ""


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _require(cfg, key, getter):
    value = getter(key)
    if value is None:
        cfg._fail(key, "is required for this experiment kind")
    return value


def _check_kind(cfg, kind):
    stated = cfg.get_str("kind")
    if stated is not None and stated != kind:
        cfg._fail("kind", f"config says {stated!r} but the {kind!r} subcommand was run")


def _out_path(cfg, name):
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


# -- geometry assembly -------------------------------------------------------

_SEQUENCE_FAMILIES = ("flat", "conformal-constant", "spike", "oscillation")


def _family_base(cfg):
    """The flat (mesh, g0) pair, once every generator key is checked."""
    n = _require(cfg, "n", cfg.get_int)
    resolution = _require(cfg, "resolution", cfg.get_int)
    torus = cfg.get_bool("torus", False)
    if n not in (1, 2, 3):
        cfg._fail("n", f"dimension must be 1..3, got {n}")
    if resolution < 2:
        cfg._fail("resolution", "must be at least 2 cells per axis")
    _check_family_values(cfg, n)
    return make_flat(n, resolution, torus)


def _check_family_values(cfg, n):
    family = cfg.get_str("family")
    if family not in FAMILY_NAMES:
        cfg._fail("family", f"unknown family {family!r}")
    for key in ("conformal_c", "scale"):
        v = cfg.get_float(key)
        if v is not None and not v > 0:
            cfg._fail(key, f"must be positive, got {v}")
    A = cfg.get_float("amplitude")
    if A is not None and not A >= 0:
        cfg._fail("amplitude", f"must be >= 0, got {A}")
    r = cfg.get_float("radius")
    if r is not None and not 0 < r < 0.5:
        cfg._fail("radius", f"must lie in (0, 0.5), half the box extent, got {r}")
    center = cfg.get_floats("center")
    if center is not None and len(center) != n:
        cfg._fail("center", f"needs {n} coordinate(s) for n = {n}, got {len(center)}")
    profile = cfg.get_str("profile", "ball")
    if profile not in ("ball", "tube") or (profile == "tube" and n != 3):
        cfg._fail("profile", f"must be 'ball', or 'tube' on a 3-D mesh, got {profile!r}")
    if cfg.get_int("j", 1) < 1:
        cfg._fail("j", "sequence index must be >= 1")
    if any(j < 1 for j in cfg.get_int_list("j_list", [])):
        cfg._fail("j_list", "indices must be >= 1")


def _family_field(cfg, base, j):
    """The family's j-th metric over the flat base (j ignored where static)."""
    family = cfg.get_str("family")
    mesh, g0 = base
    if family == "flat":
        return g0
    if family == "conformal-constant":
        return make_conformal_constant(base, _require(cfg, "conformal_c", cfg.get_float))
    if family == "spike":
        return make_spike_sequence(
            base, j,
            A_j=cfg.get_float("amplitude"),
            r_j=cfg.get_float("radius"),
            center=cfg.get_floats("center"),
            profile=cfg.get_str("profile", "ball"),
        )
    if family == "oscillation":
        return make_oscillation_sequence(base, j, cfg.get_int("resolution"))
    cfg._fail("family", f"{family!r} is not usable here")


def _scaled_pair(cfg, base):
    """(lambda^2 g, lambda^2 g0), with g = c^2 g0 where conformal_c is set."""
    _, g0 = base
    lam = _require(cfg, "scale", cfg.get_float)
    g = g0 if "conformal_c" not in cfg \
        else make_conformal_constant(base, cfg.get_float("conformal_c"))
    return scale_metric(g, lam), scale_metric(g0, lam)


def _geometry(cfg, need_family=False):
    """(mesh, g, g0) from files or a generator family."""
    has_mesh, has_family = "mesh" in cfg, "family" in cfg
    if has_mesh and has_family:
        cfg._fail("family", "give either mesh/metric files or a family, not both")
    if need_family and not has_family:
        cfg._fail("family", "this experiment kind needs a generator family")

    if has_mesh:
        mesh = read_mesh(cfg.get_str("mesh"))
        g = read_metric(cfg.get_str("metric"), mesh) if "metric" in cfg \
            else MetricField.identity(mesh)
        g0 = read_metric(cfg.get_str("metric0"), mesh) if "metric0" in cfg \
            else MetricField.identity(mesh)
        return mesh, g, g0
    if not has_family:
        cfg._fail("kind", "config needs either mesh = <file> or family = <name>")

    family = cfg.get_str("family")
    base = _family_base(cfg)
    mesh, g0 = base
    if family == "scaled":
        return (mesh, *_scaled_pair(cfg, base))
    if family in ("spike", "oscillation"):
        j = _require(cfg, "j", cfg.get_int)
        return mesh, _family_field(cfg, base, j), g0
    return mesh, _family_field(cfg, base, 1), g0


# -- pair resolution ----------------------------------------------------------

def _two_torsion_nodes(mesh):
    points = [()]
    for _ in range(mesh.dim):
        points = [pt + (c,) for pt in points for c in (0.0, 0.5)]
    nodes = []
    for pt in points:
        try:
            nodes.append(find_node(mesh, pt))
        except DpmodError as exc:
            raise ParseError(
                f"corner-pairs needs a vertex at {pt}: {exc}") from exc
    return nodes


def _corner_pairs(mesh):
    """Half-period vertex pairs: the far pairs every flat torus possesses.

    n = 1: the single antipodal pair.  n = 2: the two half-period axis pairs
    from the origin plus the two diagonals.  n = 3: origin to each of the
    seven half-period points.
    """
    nodes = _two_torsion_nodes(mesh)
    if mesh.dim == 1:
        return [(nodes[0], nodes[1])]
    if mesh.dim == 2:
        origin, half_y, half_x, diag = nodes  # (0,0), (0,.5), (.5,0), (.5,.5)
        return [(origin, half_y), (origin, half_x), (origin, diag), (half_y, half_x)]
    return [(nodes[0], other) for other in nodes[1:]]


def _resolve_pairs(cfg, mesh, *, required=True):
    spec = cfg.get_str("pairs")
    if spec is None:
        if required:
            cfg._fail("pairs", "is required for this experiment kind")
        return []
    spec = spec.strip()
    if spec == "":
        return []
    if spec == "corner-pairs":
        return _corner_pairs(mesh)
    if spec.startswith("random-"):
        try:
            k = int(spec[len("random-"):])
        except ValueError:
            cfg._fail("pairs", f"expected random-<count>, got {spec!r}")
        N = mesh.num_nodes
        if k < 1 or k > N * (N - 1) // 2:
            cfg._fail("pairs", f"random pair count {k} out of range for {N} nodes")
        rng = np.random.default_rng(cfg.seed)
        seen, pairs = set(), []
        while len(pairs) < k:
            x, y = (int(v) for v in rng.integers(0, N, size=2))
            if x == y:
                continue
            key = (min(x, y), max(x, y))
            if key in seen:
                continue
            seen.add(key)
            pairs.append((x, y))
        return pairs
    pairs = []
    for tok in spec.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            xs, ys = tok.split("-")
            x, y = int(xs), int(ys)
        except ValueError:
            cfg._fail("pairs", f"expected <node>-<node> entries, got {tok!r}")
        if not (0 <= x < mesh.num_nodes and 0 <= y < mesh.num_nodes):
            cfg._fail("pairs", f"pair {tok!r} outside 0..{mesh.num_nodes - 1}")
        if x == y:
            cfg._fail("pairs", f"pair {tok!r} joins a node to itself")
        pairs.append((x, y))
    return pairs


# -- shared solve plumbing ----------------------------------------------------

def _resolve_D(cfg, p, mesh, g, dm0, *, sequence=False, diam_g=None):
    """Explicit D, or the diameter-based default.

    Default: D = diam(g) / diam(g0)^t from graph diameters.  Sequence
    studies use the g0-only variant diam(g0)^(1-t) so D does not depend on
    the sequence index.
    """
    raw = cfg.get_str("D", "auto")
    if raw not in ("auto", "inf"):
        D = cfg.get_float("D")
        if not D > 0:
            cfg._fail("D", f"must be positive (or auto/inf), got {raw!r}")
        return D
    if raw == "inf":
        return math.inf
    t = (p - mesh.dim) / p
    diam0 = dm0.diameter()
    if sequence:
        return diam0 ** (1.0 - t)
    if diam_g is None:
        diam_g = all_pairs_distances(mesh, g).diameter()
    return diam_g / diam0 ** t


def _params(cfg, mesh, dm0, p, D):
    return GaugeParams.build(mesh, dm0, p=p, D=D,
                             pair_radius=cfg.get_float("pair_radius"))


def _collect(outcomes):
    """Results in configured order; input-shaped failures abort the run."""
    results, worst = [], EXIT_OK
    for oc in outcomes:
        if oc.result is None:
            raise DpmodError(f"pair ({oc.x}, {oc.y}) failed: {oc.error}")
        if not oc.result.converged:
            worst = EXIT_NONCONVERGED
        results.append(oc.result)
    return results, worst


# -- runners ------------------------------------------------------------------

def run_compute(cfg):
    """One modified-distance solve per configured pair."""
    _check_kind(cfg, "compute")
    mesh, g, g0 = _geometry(cfg)
    dm0 = all_pairs_distances(mesh, g0)
    pairs = _resolve_pairs(cfg, mesh)
    p = _require(cfg, "p", cfg.get_float)
    D = _resolve_D(cfg, p, mesh, g, dm0)
    h = cfg.hash()
    rows, code = [], EXIT_OK
    if pairs:
        params = _params(cfg, mesh, dm0, p, D)
        results, code = _collect(distance_matrix(pairs, g, g0, params))
        rows = [
            (r.x, r.y, r.p, r.D, r.value, r.active_constraint, r.iterations,
             r.energy_residual, r.holder_residual, r.converged, h)
            for r in results
        ]
    path = _out_path(cfg, "compute.csv")
    _write_csv(path, COMPUTE_HEADER, rows)
    bad = sum(1 for r in rows if r[9] is False)
    return RunResult(code, [path],
                     f"{len(rows)} pair(s) solved, {bad} non-converged")


def run_p_sweep(cfg):
    """Solve the first configured pair over an ascending list of p values."""
    _check_kind(cfg, "sweep-p")
    mesh, g, g0 = _geometry(cfg)
    dm0 = all_pairs_distances(mesh, g0)
    pairs = _resolve_pairs(cfg, mesh)
    if not pairs:
        cfg._fail("pairs", "sweep-p needs at least one pair (the first is used)")
    x, y = pairs[0]
    p_list = _require(cfg, "p_list", cfg.get_float_list)
    n = mesh.dim
    for a, b in zip(p_list, p_list[1:]):
        if not b > a:
            cfg._fail("p_list", "must be strictly ascending")
    if p_list[0] <= n or p_list[-1] > 128:
        cfg._fail("p_list", f"entries must lie in (n, 128] with n = {n}")
    dm_g = all_pairs_distances(mesh, g)
    d_graph = dm_g[x, y]
    diam_g = dm_g.diameter()
    h = cfg.hash()

    outcomes = []
    for p in p_list:
        D = _resolve_D(cfg, p, mesh, g, dm0, diam_g=diam_g)
        outcomes += distance_matrix([(x, y)], g, g0, _params(cfg, mesh, dm0, p, D))
    results, code = _collect(outcomes)
    rows = [
        (r.p, r.value, d_graph, abs(r.value - d_graph), h)
        for r in results
    ]
    path = _out_path(cfg, "sweep.csv")
    _write_csv(path, SWEEP_HEADER, rows)
    svg = _out_path(cfg, "sweep.svg")
    plot_from_csv(path, "p", ["value", "d_graph"], svg,
                  title=f"distance vs p, pair ({x}, {y})", ylabel="distance")
    return RunResult(code, [path, svg], f"{len(rows)} p value(s), pair ({x}, {y})")


def run_sequence_study(cfg):
    """Hypothesis functionals and pair discrepancies along a metric family.

    For each j: the four integral functionals of g_j against g0, and the sup
    over the configured pairs of |d^D(g_j) - d^D(g0)| / d^D(g0).  D is fixed
    across j (explicit, or the g0-based default).
    """
    _check_kind(cfg, "sequence")
    family = _require(cfg, "family", cfg.get_str)
    if family not in _SEQUENCE_FAMILIES:
        cfg._fail("family", f"sequence studies support {_SEQUENCE_FAMILIES}")
    base = _family_base(cfg)
    mesh, g0 = base
    n = mesh.dim
    p = cfg.get_float("p", float(3 * n + 1))
    if not p > 3 * n:
        if cfg.get_bool("allow_low_p"):
            print(f"warning: p = {p:g} is not above 3n = {3 * n}; "
                  "convergence along the family is not guaranteed", file=sys.stderr)
        else:
            cfg._fail("p", f"sequence studies need p > 3n = {3 * n} "
                           "(set allow_low_p = true to override)")
    j_list = cfg.get_int_list("j_list", list(DEFAULT_J_RANGE))
    if not j_list:
        cfg._fail("j_list", "needs at least one index")
    dm0 = all_pairs_distances(mesh, g0)
    pairs = _resolve_pairs(cfg, mesh)
    if not pairs:
        cfg._fail("pairs", "sequence studies need a non-empty pair set")
    D = _resolve_D(cfg, p, mesh, g0, dm0, sequence=True)
    params = _params(cfg, mesh, dm0, p, D)

    base_results, code = _collect(distance_matrix(pairs, g0, g0, params))
    base_vals = np.array([r.value for r in base_results])
    h = cfg.hash()
    rows = []
    for j in j_list:
        g_j = _family_field(cfg, base, j)
        results, worst = _collect(distance_matrix(pairs, g_j, g0, params))
        code = max(code, worst)
        vals = np.array([r.value for r in results])
        disc = float(np.max(np.abs(vals - base_vals) / base_vals))
        rep = hypothesis_functionals(g_j, g0, p)
        rows.append((j, rep.I_g, rep.I_inv, rep.I_eta, rep.I_33, disc, h))
    path = _out_path(cfg, "sequence.csv")
    _write_csv(path, SEQUENCE_HEADER, rows)
    svg = _out_path(cfg, "sequence.svg")
    plot_from_csv(path, "j", ["I_inv", "sup_pair_discrepancy"], svg,
                  title=f"{family} family, p = {p:g}, D = {D:g}", ylabel="value")
    return RunResult(code, [path, svg],
                     f"{len(j_list)} index(es) x {len(pairs)} pair(s)")


def run_scaling_check(cfg):
    """Verify d^D(lam^2 g, lam^2 g0) = lam^((p-n)/p) d^D(g, g0) numerically."""
    _check_kind(cfg, "scaling")
    mesh, g, g0 = _geometry(cfg)
    dm0 = all_pairs_distances(mesh, g0)
    pairs = _resolve_pairs(cfg, mesh)
    if not pairs:
        cfg._fail("pairs", "scaling checks need at least one pair (the first is used)")
    x, y = pairs[0]
    p = _require(cfg, "p", cfg.get_float)
    lambdas = cfg.get_float_list("lambda_list", list(DEFAULT_LAMBDAS))
    if any(not lam > 0 for lam in lambdas):
        cfg._fail("lambda_list", "scale factors must be positive")
    t = (p - mesh.dim) / p
    D = _resolve_D(cfg, p, mesh, g, dm0)
    params = _params(cfg, mesh, dm0, p, D)
    base_results, code = _collect(distance_matrix([(x, y)], g, g0, params))
    rhs = base_results[0].value

    outcomes = []
    for lam in lambdas:
        g_l, g0_l = scale_metric(g, lam), scale_metric(g0, lam)
        dm_l = all_pairs_distances(mesh, g0_l)
        outcomes += distance_matrix([(x, y)], g_l, g0_l, _params(cfg, mesh, dm_l, p, D))
    results, worst = _collect(outcomes)
    code = max(code, worst)
    h = cfg.hash()
    rows, failed = [], []
    for lam, res in zip(lambdas, results):
        lhs = res.value
        rel_err = abs(lhs - lam ** t * rhs) / lhs
        if rel_err > 1e-4:
            failed.append(lam)
        rows.append((lam, lhs, rhs, rel_err, h))
    path = _out_path(cfg, "scaling.csv")
    _write_csv(path, SCALING_HEADER, rows)
    if failed:
        code = EXIT_NONCONVERGED
        summary = f"scaling law violated beyond 1e-4 at lambda = {failed}"
    else:
        summary = f"scaling law holds to 1e-4 for {len(lambdas)} factor(s)"
    return RunResult(code, [path], summary)


def run_class_check(cfg):
    """Measure class functionals of g over g0 and compare with the bounds."""
    _check_kind(cfg, "class-check")
    mesh, g, g0 = _geometry(cfg)
    bounds = {key: _require(cfg, key, cfg.get_float)
              for key in ("q1", "q2", "V1", "V2", "diam_bound")}
    for key, v in bounds.items():
        low = 1 if key in ("q1", "q2") else 0
        if not v > low:
            cfg._fail(key, f"must exceed {low}, got {v}")
    params = ClassParams(*bounds.values())
    report = check_class_membership(g, g0, params)
    items = [
        ("(1) mass norm", report.norm_g, "V1", params.V1),
        ("(2) inverse norm", report.norm_ginv, "V2", params.V2),
        ("(3) diameter", report.diam_g, "diam_bound", params.D),
    ]
    lines = [f"class-check report  (config_hash = {cfg.hash()})"]
    violated = []
    for name, measured, bname, bound in items:
        ok = measured <= bound
        if not ok:
            violated.append(name)
        lines.append(f"{name:17s} measured = {repr(float(measured)):24s} "
                     f"bound {bname} = {repr(float(bound)):24s} "
                     f"{'ok' if ok else 'VIOLATED'}")
    verdict = "member" if report.member else f"NOT a member ({', '.join(violated)})"
    lines.append(f"verdict: {verdict}")
    text = "\n".join(lines) + "\n"
    path = _out_path(cfg, "class_check.txt")
    with open(path, "w") as fh:
        fh.write(text)
    print(text, end="")
    return RunResult(EXIT_OK, [path], f"verdict: {verdict}")


def run_gen(cfg):
    """Write mesh/metric files plus a JSON-lines provenance record."""
    _check_kind(cfg, "gen")
    family = _require(cfg, "family", cfg.get_str)
    base = _family_base(cfg)
    mesh, g0 = base
    n = mesh.dim
    resolution = cfg.get_int("resolution")
    torus = cfg.get_bool("torus", False)
    h = cfg.hash()
    files, records = [], []

    def emit(name, fld, spec):
        path = _out_path(cfg, name)
        write_metric(fld, path)
        files.append(path)
        rec = json.loads(spec.to_json())
        rec.update(file=name, seed=cfg.seed, config_hash=h)
        records.append(json.dumps(rec, sort_keys=True))

    mesh_path = _out_path(cfg, "mesh.txt")
    write_mesh(mesh, mesh_path)
    files.append(mesh_path)

    common = dict(n=n, resolution=resolution, torus=torus,
                  center=cfg.get_floats("center"),
                  profile=cfg.get_str("profile", "ball"))
    if family == "scaled":
        g, g0_s = _scaled_pair(cfg, base)
        lam = cfg.get_float("scale")
        emit("metric.txt", g, FamilySpec("scaled", scale=lam,
                                         conformal=cfg.get_float("conformal_c"), **common))
        emit("metric0.txt", g0_s, FamilySpec("scaled", scale=lam, **common))
    else:
        emit("metric0.txt", g0, FamilySpec("flat", **common))
        if family == "flat":
            emit("metric.txt", g0, FamilySpec("flat", **common))
        elif family in ("spike", "oscillation") and "j_list" in cfg:
            for j in cfg.get_int_list("j_list"):
                spec = FamilySpec(family, j=j,
                                  amplitude=cfg.get_float("amplitude"),
                                  radius=cfg.get_float("radius"), **common)
                emit(f"metric_j{j}.txt", _family_field(cfg, base, j), spec)
        else:
            j = cfg.get_int("j", 1)
            spec = FamilySpec(family, j=j if family in ("spike", "oscillation") else None,
                              amplitude=cfg.get_float("amplitude"),
                              radius=cfg.get_float("radius"),
                              conformal=cfg.get_float("conformal_c"), **common)
            emit("metric.txt", _family_field(cfg, base, j), spec)

    jsonl = _out_path(cfg, "family.jsonl")
    with open(jsonl, "w") as fh:
        fh.write("\n".join(records) + ("\n" if records else ""))
    files.append(jsonl)
    return RunResult(EXIT_OK, files, f"{len(records)} field(s) generated")


RUNNERS = {
    "gen": run_gen,
    "compute": run_compute,
    "sweep-p": run_p_sweep,
    "sequence": run_sequence_study,
    "scaling": run_scaling_check,
    "class-check": run_class_check,
}
