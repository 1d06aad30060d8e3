"""Experiment runners behind the CLI.

:func:`run` checks a parsed :class:`~dpmod.config.ExperimentConfig` against
the subcommand and the keys it reads, then hands it to that kind's runner.
Each runner writes its CSV/SVG/text outputs into the configured directory and
returns a :class:`RunResult` with the exit code.  Everything is deterministic
for a fixed config + seed: floats are serialized with ``repr`` (shortest
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
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DpmodError, ParseError
from .families import FAMILY_READS, FamilySpec, FamilyValueError, make_flat
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
from .plot import render_line_chart
from .solver import P_CAP, GaugeParams, distance_matrix

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


def _write_svg(path, header, rows, x_col, y_cols, title, ylabel):
    """Chart columns of CSV rows against ``x_col``, with the floats the CSV holds."""
    def column(name):
        return [float(row[header.index(name)]) for row in rows]

    with open(path, "w") as fh:
        fh.write(render_line_chart([(col, column(x_col), column(col)) for col in y_cols],
                                   title=title, xlabel=x_col, ylabel=ylabel))


def _require(cfg, key, getter):
    value = getter(key)
    if value is None:
        cfg._fail(key, "is required for this experiment kind")
    return value


def _out_path(cfg, name):
    os.makedirs(cfg.out, exist_ok=True)
    return os.path.join(cfg.out, name)


# -- geometry assembly -------------------------------------------------------

_SEQUENCE_FAMILIES = ("flat", "conformal-constant", "spike", "oscillation")


def _family(cfg, j, j_key="j"):
    """The configured family member at index j, checked; j came from ``j_key``."""
    family = _require(cfg, "family", cfg.get_str)
    n = _require(cfg, "n", cfg.get_int)
    resolution = _require(cfg, "resolution", cfg.get_int)
    if family == "conformal-constant":
        _require(cfg, "conformal_c", cfg.get_float)
    if family == "scaled":
        _require(cfg, "scale", cfg.get_float)
    try:
        return FamilySpec(family, n, resolution, torus=cfg.get_bool("torus", False), j=j,
                          amplitude=cfg.get_float("amplitude"),
                          radius=cfg.get_float("radius"), scale=cfg.get_float("scale"),
                          conformal=cfg.get_float("conformal_c"),
                          center=cfg.get_float_list("center"),
                          profile=cfg.get_str("profile", "ball"))
    except FamilyValueError as exc:
        cfg._fail(j_key if exc.key == "j" else exc.key, exc.message)


def _geometry(cfg):
    """(mesh, g, g0) from files or a generator family."""
    if "mesh" in cfg:
        mesh = read_mesh(cfg.get_str("mesh"))
        g = read_metric(cfg.get_str("metric"), mesh) if "metric" in cfg \
            else MetricField.identity(mesh)
        g0 = read_metric(cfg.get_str("metric0"), mesh) if "metric0" in cfg \
            else MetricField.identity(mesh)
        return mesh, g, g0
    if "family" not in cfg:
        cfg._fail("kind", "config needs either mesh = <file> or family = <name>")

    reads_j = "j" in FAMILY_READS.get(cfg.get_str("family"), ())
    spec = _family(cfg, _require(cfg, "j", cfg.get_int) if reads_j else None)
    base = make_flat(spec.n, spec.resolution, spec.torus)
    return (base[0], *spec.metrics(base))


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


def _resolve_pairs(cfg, mesh):
    spec = _require(cfg, "pairs", cfg.get_str).strip()
    if spec == "":
        return []
    if spec == "corner-pairs":
        try:
            return _corner_pairs(mesh)
        except ParseError as exc:
            cfg._fail("pairs", str(exc))
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


def _exponent(cfg, n):
    p = _require(cfg, "p", cfg.get_float)
    if not p > n:
        cfg._fail("p", f"must exceed the dimension n = {n}, got {p}")
    if not p <= P_CAP:
        cfg._fail("p", f"is capped at {P_CAP:g}, got {p}")
    return p


def _collect(batches):
    """Solve (pairs, g, g0, params) batches in order: each one's results, and the exit code.

    A pair that fails outright aborts the run as an input error; one that
    stops short of convergence makes the exit code 2.
    """
    solved, code = [], EXIT_OK
    for pairs, g, g0, params in batches:
        results = []
        for oc in distance_matrix(pairs, g, g0, params):
            if oc.result is None:
                raise DpmodError(f"pair ({oc.x}, {oc.y}) failed: {oc.error}")
            if not oc.result.converged:
                code = EXIT_NONCONVERGED
            results.append(oc.result)
        solved.append(results)
    return solved, code


# -- runners ------------------------------------------------------------------

def run_compute(cfg):
    """One modified-distance solve per configured pair."""
    mesh, g, g0 = _geometry(cfg)
    dm0 = all_pairs_distances(mesh, g0)
    pairs = _resolve_pairs(cfg, mesh)
    p = _exponent(cfg, mesh.dim)
    D = _resolve_D(cfg, p, mesh, g, dm0)
    h = cfg.hash()
    rows, code = [], EXIT_OK
    if pairs:
        (results,), code = _collect([(pairs, g, g0, GaugeParams.build(mesh, dm0, p, D))])
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
    mesh, g, g0 = _geometry(cfg)
    dm0 = all_pairs_distances(mesh, g0)
    pairs = _resolve_pairs(cfg, mesh)
    if not pairs:
        cfg._fail("pairs", "sweep-p needs at least one pair (the first is used)")
    x, y = pairs[0]
    p_list = _require(cfg, "p_list", cfg.get_float_list)
    if not p_list:
        cfg._fail("p_list", "needs at least one exponent")
    n = mesh.dim
    if any(not b > a for a, b in zip(p_list, p_list[1:])):
        cfg._fail("p_list", "must be strictly ascending")
    if not all(n < p <= P_CAP for p in p_list):
        cfg._fail("p_list", f"entries must lie in (n, {P_CAP:g}] with n = {n}")
    dm_g = all_pairs_distances(mesh, g)
    d_graph = dm_g[x, y]
    diam_g = dm_g.diameter()
    h = cfg.hash()
    Ds = (_resolve_D(cfg, p, mesh, g, dm0, diam_g=diam_g) for p in p_list)
    solved, code = _collect(([(x, y)], g, g0, GaugeParams.build(mesh, dm0, p, D))
                            for p, D in zip(p_list, Ds))
    rows = [(r.p, r.value, d_graph, abs(r.value - d_graph), h) for (r,) in solved]
    path = _out_path(cfg, "sweep.csv")
    _write_csv(path, SWEEP_HEADER, rows)
    svg = _out_path(cfg, "sweep.svg")
    _write_svg(svg, SWEEP_HEADER, rows, "p", ["value", "d_graph"],
               title=f"distance vs p, pair ({x}, {y})", ylabel="distance")
    return RunResult(code, [path, svg], f"{len(rows)} p value(s), pair ({x}, {y})")


def run_sequence_study(cfg):
    """Hypothesis functionals and pair discrepancies along a metric family.

    For each j: the four integral functionals of g_j against g0, and the sup
    over the configured pairs of |d^D(g_j) - d^D(g0)| / d^D(g0).  D is fixed
    across j (explicit, or the g0-based default).
    """
    family = _require(cfg, "family", cfg.get_str)
    if family not in _SEQUENCE_FAMILIES:
        cfg._fail("family", f"sequence studies support {_SEQUENCE_FAMILIES}")
    j_list = cfg.get_int_list("j_list", list(DEFAULT_J_RANGE))
    if not j_list:
        cfg._fail("j_list", "needs at least one index")
    specs = [_family(cfg, j, "j_list") for j in j_list]
    base = make_flat(specs[0].n, specs[0].resolution, specs[0].torus)
    mesh, g0 = base
    n = mesh.dim
    p = _exponent(cfg, n) if "p" in cfg else float(3 * n + 1)
    if not p > 3 * n:
        if cfg.get_bool("allow_low_p"):
            print(f"warning: p = {p:g} is not above 3n = {3 * n}; "
                  "convergence along the family is not guaranteed", file=sys.stderr)
        else:
            cfg._fail("p", f"sequence studies need p > 3n = {3 * n} "
                           "(set allow_low_p = true to override)")
    dm0 = all_pairs_distances(mesh, g0)
    pairs = _resolve_pairs(cfg, mesh)
    if not pairs:
        cfg._fail("pairs", "sequence studies need a non-empty pair set")
    D = _resolve_D(cfg, p, mesh, g0, dm0, sequence=True)
    params = GaugeParams.build(mesh, dm0, p, D)
    # equal specs (every member of a family that reads no j) are measured once,
    # and a member whose field is g0 itself reuses the baseline solve
    distinct = [spec for i, spec in enumerate(specs) if spec not in specs[:i]]
    fields = [spec.metrics(base)[0] for spec in distinct]
    moved = [g for g in fields if g is not g0]
    (base_results, *solved), code = _collect((pairs, g, g0, params) for g in [g0, *moved])
    solved = iter(solved)
    base_vals = np.array([r.value for r in base_results])
    measured = []
    for g_j in fields:
        results = base_results if g_j is g0 else next(solved)
        vals = np.array([r.value for r in results])
        disc = float(np.max(np.abs(vals - base_vals) / base_vals))
        rep = hypothesis_functionals(g_j, g0, p)
        measured.append((rep.I_g, rep.I_inv, rep.I_eta, rep.I_33, disc))
    h = cfg.hash()
    rows = [(j, *measured[distinct.index(spec)], h) for j, spec in zip(j_list, specs)]
    path = _out_path(cfg, "sequence.csv")
    _write_csv(path, SEQUENCE_HEADER, rows)
    svg = _out_path(cfg, "sequence.svg")
    _write_svg(svg, SEQUENCE_HEADER, rows, "j", ["I_inv", "sup_pair_discrepancy"],
               title=f"{family} family, p = {p:g}, D = {D:g}", ylabel="value")
    return RunResult(code, [path, svg],
                     f"{len(j_list)} index(es) x {len(pairs)} pair(s)")


def run_scaling_check(cfg):
    """Verify d^D(lam^2 g, lam^2 g0) = lam^((p-n)/p) d^D(g, g0) numerically."""
    mesh, g, g0 = _geometry(cfg)
    dm0 = all_pairs_distances(mesh, g0)
    pairs = _resolve_pairs(cfg, mesh)
    if not pairs:
        cfg._fail("pairs", "scaling checks need at least one pair (the first is used)")
    x, y = pairs[0]
    p = _exponent(cfg, mesh.dim)
    lambdas = cfg.get_float_list("lambda_list", list(DEFAULT_LAMBDAS))
    if not lambdas:
        cfg._fail("lambda_list", "needs at least one scale factor")
    if any(not lam > 0 for lam in lambdas):
        cfg._fail("lambda_list", "scale factors must be positive")
    if any(math.isinf(lam) for lam in lambdas):
        cfg._fail("lambda_list", "scale factors must be finite")
    t = (p - mesh.dim) / p
    D = _resolve_D(cfg, p, mesh, g, dm0)

    def batches():
        # one scale factor's distances at a time
        yield [(x, y)], g, g0, GaugeParams.build(mesh, dm0, p, D)
        for lam in lambdas:
            g_l, g0_l = scale_metric(g, lam), scale_metric(g0, lam)
            dm0_l = all_pairs_distances(mesh, g0_l)
            yield [(x, y)], g_l, g0_l, GaugeParams.build(mesh, dm0_l, p, D)

    ([base], *solved), code = _collect(batches())
    rhs = base.value
    h = cfg.hash()
    rows, failed = [], []
    for lam, (res,) in zip(lambdas, solved):
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
    """Write mesh/metric files plus a JSON-lines provenance record.

    Each file's record is the spec that built it, which holds only the
    values its family reads.  ``metric0.txt`` is the flat background
    (rescaled for ``scaled``); a spike or oscillation ``j_list`` writes one
    ``metric_j<j>.txt`` per index.
    """
    reads_j = "j" in FAMILY_READS.get(cfg.get_str("family"), ()) and "j_list" not in cfg
    spec = _family(cfg, _require(cfg, "j", cfg.get_int) if reads_j else None)
    base = make_flat(spec.n, spec.resolution, spec.torus)
    mesh = base[0]
    background = replace(spec, conformal=None) if spec.family == "scaled" \
        else replace(spec, family="flat")
    if "j_list" in cfg:
        members = [(f"metric_j{j}.txt", _family(cfg, j, "j_list"))
                   for j in cfg.get_int_list("j_list")]
    else:
        members = [("metric.txt", spec)]
    fields = [(name, rec.metrics(base)[0], rec)
              for name, rec in [("metric0.txt", background), *members]]

    h = cfg.hash()
    mesh_path = _out_path(cfg, "mesh.txt")
    write_mesh(mesh, mesh_path)
    files, records = [mesh_path], []
    for name, fld, rec in fields:
        path = _out_path(cfg, name)
        write_metric(fld, path)
        files.append(path)
        record = {key: v for key, v in vars(rec).items() if v is not None}
        record.update(file=name, seed=cfg.seed, config_hash=h)
        records.append(json.dumps(record, sort_keys=True))

    jsonl = _out_path(cfg, "family.jsonl")
    with open(jsonl, "w") as fh:
        fh.write("\n".join(records) + "\n")
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


def run(kind, cfg):
    """Run ``kind`` on ``cfg``; a config naming another kind or an unread key fails first."""
    stated = cfg.get_str("kind")
    if stated is not None and stated != kind:
        cfg._fail("kind", f"config says {stated!r} but the {kind!r} subcommand was run")
    cfg.check_reads(kind)
    return RUNNERS[kind](cfg)
