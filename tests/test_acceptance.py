"""End-to-end acceptance checks for the capped-distance solver.

Each test pins one advertised guarantee of the package with its tolerance
and a wall-clock budget:

1. scale equivariance of the computed distance,
2. the cap is never exceeded on randomized instances,
3. agreement with the brute-force oracle on tiny meshes, and of the
   closed-form cap-bound screen with the barrier,
4. agreement with the 1-D closed forms on long chains,
5. the large-p trend toward the graph distance (1-D and 2-D),
6. the localized-family discrepancy trend and its negative control,
7. bulk tensor-algebra inequalities,
8. pseudometric axioms of the computed distance,
9. byte-identical experiment outputs for a fixed config and seed,
10. the matrix-free Newton path on a 1 000-node solve.
"""

import itertools
import math
import time

import numpy as np

from conftest import (
    barrier_result,
    chain_mesh,
    det_wrt_g0,
    random_metric,
    random_spd_tensors,
    strip_mesh,
    tensor_norm_wrt,
)
from dpmod import cli
from dpmod.config import parse_config
from dpmod.errors import NonConvergedError
from dpmod.experiments import run_compute, run_p_sweep, run_scaling_check, run_sequence_study
from dpmod.families import make_conformal_constant, make_flat
from dpmod.geodesic import all_pairs_distances
from dpmod.metric import MetricField, generalized_eigenvalues, norm_g_wrt_g0, norm_ginv_wrt_g0
from dpmod.oracle import analytic_1d_dp, brute_force_dp
from dpmod.solver import GaugeParams, distance_matrix, solve_dp


def _write_config(path, text):
    path.write_text(text)
    return str(path)


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# -- 1. scale equivariance ----------------------------------------------------

def test_scaling_law(tmp_path):
    """Scaling g and g0 by lam^2 scales the distance by lam^((p-n)/p).

    Checked to 1e-4 relative for lam in {0.5, 1, 2, 4} and p in {4, 8} on a
    1-D 32-cell interval and a 2-D 8x8 torus, both carrying a localized
    non-flat metric.  Budget: one minute.
    """
    start = time.monotonic()
    geometries = (
        "n = 1\nresolution = 32\npairs = 0-32\n",
        "n = 2\nresolution = 8\ntorus = true\npairs = corner-pairs\n",
    )
    for k, geometry in enumerate(geometries):
        for p in (4, 8):
            config = _write_config(
                tmp_path / f"scaling_{k}_{p}.cfg",
                f"kind = scaling\nfamily = spike\nj = 1\n{geometry}"
                f"p = {p}\nlambda_list = 0.5, 1, 2, 4\nseed = 1\n"
                f"out = {tmp_path / f'scaling_out_{k}_{p}'}\n",
            )
            result = run_scaling_check(parse_config(config))
            assert result.exit_code == 0
            rows = _read_csv(result.files[0])
            assert len(rows) == 4
            assert all(float(row["rel_err"]) <= 1e-4 for row in rows)
    assert time.monotonic() - start <= 60.0


# -- 2. the cap is a hard upper bound -----------------------------------------

def test_holder_cap_bound():
    """value <= D * d_g0(x, y)^t + 1e-6 on 200 randomized instances.

    Random SPD cell metrics for both g and g0 (condition number <= 100),
    random p and cap, chains and 2-D boxes/tori.  The bound must hold no
    matter which constraint is active.  Budget: five minutes.
    """
    start = time.monotonic()
    rng = np.random.default_rng(20260818)
    cap_active = 0
    for trial in range(200):
        if trial % 2 == 0:
            nodes = int(rng.integers(4, 10))
            pos = np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.2, 1.0, size=nodes - 1))])
            mesh = chain_mesh(pos)
        else:
            resolution = int(rng.integers(2, 4))
            mesh, _ = make_flat(2, resolution, torus=bool(rng.integers(0, 2)))
        n = mesh.dim
        g = random_metric(rng, mesh, cond_max=100.0)
        g0 = random_metric(rng, mesh, cond_max=100.0)
        dm0 = all_pairs_distances(mesh, g0)
        x, y = 0, mesh.num_nodes - 1
        p = float(rng.uniform(n + 0.3, 20.0))
        t = (p - n) / p
        D = float(10.0 ** rng.uniform(-1.3, 1.0))
        params = GaugeParams.build(mesh, dm0, p=p, D=D)
        try:
            result = solve_dp(x, y, g, g0, params)
            value = result.value
            cap_active += result.active_constraint != "energy-bound"
        except NonConvergedError as exc:  # the bound must hold regardless
            value = exc.result.value
        assert value <= D * dm0[x, y] ** t + 1e-6
    assert cap_active >= 50  # the draw covers the binding regime
    assert time.monotonic() - start <= 300.0


# -- 3. brute-force oracle agreement ------------------------------------------

def _tiny_draws():
    """The 50 tiny random instances of the oracle agreement tests.

    Meshes have at most 5 free vertices (1-D chains with 4-6 nodes, 2-D
    strips with 4 or 6 nodes), random metrics on both slots, random p and a
    cap drawn to cover slack, binding, and tied regimes.  Yields
    (g, g0, params, x, y).
    """
    rng = np.random.default_rng(20260818)
    for trial in range(50):
        if trial % 5 < 3:
            nodes = int(rng.integers(4, 7))
            pos = np.concatenate(
                [[0.0], np.cumsum(rng.uniform(0.3, 1.2, size=nodes - 1))])
            mesh = chain_mesh(pos)
        elif trial % 5 < 4:
            mesh = strip_mesh(1, 1, jitter=0.25, rng=rng)
        else:
            mesh = strip_mesh(2, 1, jitter=0.2, rng=rng)
        n = mesh.dim
        g = random_metric(rng, mesh, cond_max=20.0)
        g0 = random_metric(rng, mesh, cond_max=4.0)
        p = float(rng.uniform(n + 0.5, 12.0))
        dm0 = all_pairs_distances(mesh, g0)
        x, y = 0, mesh.num_nodes - 1
        t = (p - n) / p
        D = float(10.0 ** rng.uniform(-0.8, 0.8)) / dm0[x, y] ** t * 0.5
        yield g, g0, GaugeParams.build(mesh, dm0, p=p, D=D), x, y


def test_solver_matches_brute_force():
    """Solver vs dense grid search within 1% on 50 tiny random instances.

    The instances are those of ``_tiny_draws``.  Budget: five minutes.
    """
    start = time.monotonic()
    for g, g0, params, x, y in _tiny_draws():
        value = solve_dp(x, y, g, g0, params).value
        truth = brute_force_dp(x, y, g, g0, params)
        assert abs(value - truth) <= 1e-2 * truth
    assert time.monotonic() - start <= 300.0


def test_cap_screen_matches_barrier():
    """The closed-form cap-bound screen agrees with the barrier.

    On the instances of ``_tiny_draws``, every pair the screen settles
    (0 centerings, not energy-bound) is solved again by the barrier rounds
    from the same start.  The screen's value is the cap D d_g0(x, y)^t of
    the pair itself, an upper bound, up to its gauge tolerance: it is never
    above the cap and not below the barrier's value beyond the barrier's
    1e-10 gap.  Budget: five minutes.
    """
    start = time.monotonic()
    settled = 0
    for g, g0, params, x, y in _tiny_draws():
        result = solve_dp(x, y, g, g0, params)
        if result.stages or result.active_constraint == "energy-bound":
            continue
        settled += 1
        barrier, stages, converged = barrier_result(g, params, x, y)
        assert converged and stages >= 1
        assert result.value >= barrier * (1.0 - 1e-10)
        assert result.value <= params.D * params.d0[x, y] ** params.t
    assert settled >= 40   # 47 of the 50 draws are cap-bound
    assert time.monotonic() - start <= 300.0


# -- 4. 1-D closed forms -------------------------------------------------------

def test_chain_closed_forms():
    """64-cell chains match the analytic value within 2% in both regimes.

    Densities a in {1, 2, piecewise (1, 3)} with g0 = g, p in {2, 4, 8}.
    With a slack cap the value is (integral of a)^((p-1)/p); with
    D = 0.3 * that, the cap branch D * len_g0^t applies and the analytic
    oracle confirms no interior pair violates its bound.  Budget: one
    minute.
    """
    start = time.monotonic()
    mesh, _ = make_flat(1, 64, torus=False)
    lengths = np.full(64, 1.0 / 64.0)
    profiles = (
        np.ones(64),
        np.full(64, 2.0),
        np.where(np.arange(64) < 32, 1.0, 3.0),
    )
    for a in profiles:
        g = MetricField(mesh, (a ** 2).reshape(-1, 1, 1))
        dm0 = all_pairs_distances(mesh, g)
        ell = float((a * lengths).sum())
        for p in (2.0, 4.0, 8.0):
            unconstrained = ell ** ((p - 1) / p)
            for D in (10.0, 0.3 * unconstrained):
                truth, clean = analytic_1d_dp(a, lengths, p, D)
                assert clean
                params = GaugeParams.build(mesh, dm0, p=p, D=D)
                value = solve_dp(0, 64, g, g, params).value
                assert abs(value - truth) <= 2e-2 * truth
    assert time.monotonic() - start <= 60.0


# -- 5. large-p trend ----------------------------------------------------------

def test_large_p_approaches_graph_distance(tmp_path):
    """The computed distance climbs toward the graph distance as p grows.

    1-D, a = 2 on the unit interval: values match 2^((p-1)/p) within 2% for
    p in {2, ..., 64} and increase toward d_g = 2.  2-D flat 16x16 torus,
    half-period pair: the gap to d_g at p = 64 is no larger than at p = 8
    and ends at or below 5%.  Budget: ten minutes.
    """
    start = time.monotonic()

    config = _write_config(
        tmp_path / "sweep1d.cfg",
        "kind = sweep-p\nfamily = conformal-constant\nconformal_c = 2\n"
        "n = 1\nresolution = 64\npairs = 0-64\n"
        "p_list = 2, 4, 8, 16, 32, 64\nseed = 1\n"
        f"out = {tmp_path / 'sweep1d'}\n",
    )
    result = run_p_sweep(parse_config(config))
    assert result.exit_code == 0
    rows = _read_csv(result.files[0])
    values = [float(row["value"]) for row in rows]
    for row in rows:
        p = float(row["p"])
        closed = 2.0 ** ((p - 1.0) / p)
        assert abs(float(row["value"]) - closed) <= 2e-2 * closed
    assert all(b > a for a, b in zip(values, values[1:]))
    assert all(float(row["d_graph"]) == 2.0 for row in rows)
    assert values[-1] < 2.0

    config = _write_config(
        tmp_path / "sweep2d.cfg",
        "kind = sweep-p\nfamily = flat\nn = 2\nresolution = 16\ntorus = true\n"
        "pairs = corner-pairs\np_list = 8, 64\nseed = 1\n"
        f"out = {tmp_path / 'sweep2d'}\n",
    )
    result = run_p_sweep(parse_config(config))
    assert result.exit_code == 0
    rows = _read_csv(result.files[0])
    assert [float(row["p"]) for row in rows] == [8.0, 64.0]
    d_graph = float(rows[0]["d_graph"])
    gaps = [float(row["gap"]) / d_graph for row in rows]
    assert gaps[1] <= gaps[0]
    assert gaps[1] <= 5e-2
    assert time.monotonic() - start <= 600.0


# -- 6. localized-family trend and negative control ----------------------------

def test_localized_family_trend_and_negative_control(tmp_path):
    """Shrinking localized bumps stop affecting the distance; checkerboards don't.

    Both families run on the 8x8 torus at p = 7 with D = 2 over the four
    half-period pairs, j = 1..8.  For the localized family the inverse-
    difference integral decreases strictly, the sup-pair discrepancy
    decreases, and the final discrepancy is at most 5% of the flat-metric
    value.  The equal-volume checkerboard control keeps a discrepancy at
    least three times the localized family's final one.  Budget: fifteen
    minutes.
    """
    start = time.monotonic()
    rows = {}
    for family in ("spike", "oscillation"):
        config = _write_config(
            tmp_path / f"{family}.cfg",
            f"kind = sequence\nfamily = {family}\nn = 2\nresolution = 8\n"
            "torus = true\np = 7\nD = 2.0\nj_list = 1..8\n"
            f"pairs = corner-pairs\nseed = 1\nout = {tmp_path / family}\n",
        )
        result = run_sequence_study(parse_config(config))
        assert result.exit_code == 0
        rows[family] = _read_csv(result.files[0])
        assert [int(row["j"]) for row in rows[family]] == list(range(1, 9))

    i_inv = [float(row["I_inv"]) for row in rows["spike"]]
    disc = [float(row["sup_pair_discrepancy"]) for row in rows["spike"]]
    assert all(b < a for a, b in zip(i_inv, i_inv[1:]))
    assert all(b < a for a, b in zip(disc, disc[1:]))
    assert disc[-1] <= 5e-2

    control = [float(row["sup_pair_discrepancy"]) for row in rows["oscillation"]]
    assert control[-1] >= 3.0 * disc[-1]
    assert time.monotonic() - start <= 900.0


# -- 7. tensor-algebra inequalities --------------------------------------------

def test_tensor_inequalities_hold_in_bulk():
    """Four pointwise tensor facts hold over >= 1e4 random cells per dimension.

    (a) |g^-1|_h = |h|_g: to 1e-10 absolute for condition numbers <= 10 and
        to 1e-10 relative for condition numbers <= 100;
    (b) omega(grad f, grad f) <= |omega|_g * |grad f|_g^2 + 1e-10;
    (c) det(g)_g0 <= n^(-n/2) * |g|_g0^n (one-ulp headroom: n = 1 is the
        equality case of the mean inequality);
    (d) the snowflake bound | |a|^t - |b|^t | <= |a - b|^t + 1e-12.
    Budget: thirty seconds.
    """
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for n, resolution, torus in ((1, 10000, False), (2, 71, True), (3, 13, True)):
        mesh, _ = make_flat(n, resolution, torus)
        cells = mesh.num_cells
        assert cells >= 10_000

        g = MetricField(mesh, random_spd_tensors(rng, cells, n, cond_max=10.0))
        h = MetricField(mesh, random_spd_tensors(rng, cells, n, cond_max=10.0))
        lhs = norm_ginv_wrt_g0(generalized_eigenvalues(g, h))
        rhs = tensor_norm_wrt(h.tensors, g)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10

        g_hard = MetricField(mesh, random_spd_tensors(rng, cells, n, cond_max=100.0))
        h_hard = MetricField(mesh, random_spd_tensors(rng, cells, n, cond_max=100.0))
        lhs = norm_ginv_wrt_g0(generalized_eigenvalues(g_hard, h_hard))
        rhs = tensor_norm_wrt(h_hard.tensors, g_hard)
        assert np.max(np.abs(lhs - rhs) / rhs) <= 1e-10

        raw = rng.normal(size=(cells, n, n))
        omega = 0.5 * (raw + raw.transpose(0, 2, 1))
        df = rng.normal(size=(cells, n))
        grad = np.einsum("cij,cj->ci", g.inverses(), df)
        quad = np.einsum("ci,cij,cj->c", grad, omega, grad)
        grad_sq = np.einsum("ci,ci->c", df, grad)
        assert np.max(quad - tensor_norm_wrt(omega, g) * grad_sq) <= 1e-10

        lam2 = generalized_eigenvalues(g_hard, h_hard)
        det = det_wrt_g0(lam2)
        bound = n ** (-n / 2.0) * norm_g_wrt_g0(lam2) ** n
        assert np.all(det <= bound * (1.0 + 1e-15))

    a = rng.uniform(0.0, 10.0, size=30000)
    b = rng.uniform(0.0, 10.0, size=30000)
    t = rng.uniform(1e-6, 1.0, size=30000)
    t[:100] = 1.0            # metric case
    b[100:200] = a[100:200]  # coincident points
    assert np.max(np.abs(a ** t - b ** t) - np.abs(a - b) ** t) <= 1e-12
    assert time.monotonic() - start <= 30.0


# -- 8. pseudometric axioms -----------------------------------------------------

def test_computed_distance_is_pseudometric():
    """Symmetry to 1e-6 and triangle inequality to 2e-5 on a 6-vertex mesh.

    All ordered pairs are solved in three cap regimes (slack, tied, and
    binding) so the axioms are exercised whichever constraint is active.
    Budget: two minutes.
    """
    start = time.monotonic()
    rng = np.random.default_rng(20260818)
    mesh = strip_mesh(2, 1, jitter=0.15, rng=rng)
    g = random_metric(rng, mesh, cond_max=10.0)
    g0 = random_metric(rng, mesh, cond_max=3.0)
    dm0 = all_pairs_distances(mesh, g0)
    nodes = mesh.num_nodes
    pairs = [(u, v) for u in range(nodes) for v in range(nodes) if u != v]
    for cap in (0.7, 0.9, 1.5):
        params = GaugeParams.build(mesh, dm0, p=3.0, D=cap)
        dist = np.zeros((nodes, nodes))
        for outcome in distance_matrix(pairs, g, g0, params):
            assert outcome.result is not None and outcome.result.converged
            dist[outcome.x, outcome.y] = outcome.result.value
        assert np.max(np.abs(dist - dist.T)) <= 1e-6
        worst = max(dist[u, w] - dist[u, v] - dist[v, w]
                    for u, v, w in itertools.permutations(range(nodes), 3))
        assert worst <= 2e-5
    assert time.monotonic() - start <= 120.0


# -- 9. byte-identical outputs ---------------------------------------------------

def test_outputs_are_byte_deterministic(tmp_path):
    """Every experiment kind rerun with a fixed seed reproduces every output byte.

    Covers the generated field files, JSON-lines records, CSVs, SVG plots,
    and the class-membership report.
    """
    configs = {
        "gen": ("kind = gen\nfamily = spike\nn = 2\nresolution = 4\n"
                "torus = true\nj_list = 1, 2\nseed = 11\n"),
        "compute": ("kind = compute\nfamily = conformal-constant\n"
                    "conformal_c = 2\nn = 1\nresolution = 8\ntorus = true\n"
                    "pairs = random-3\np = 2.5\nseed = 7\n"),
        "sweep-p": ("kind = sweep-p\nfamily = conformal-constant\n"
                    "conformal_c = 2\nn = 1\nresolution = 8\ntorus = true\n"
                    "pairs = 0-4\np_list = 2, 4\nseed = 3\n"),
        "sequence": ("kind = sequence\nfamily = spike\nn = 1\nresolution = 8\n"
                     "torus = true\np = 4\nj_list = 1, 2\n"
                     "pairs = corner-pairs\nseed = 5\n"),
        "scaling": ("kind = scaling\nfamily = flat\nn = 1\nresolution = 4\n"
                    "pairs = 0-2\np = 2\nlambda_list = 1, 2\nseed = 9\n"),
        "class-check": ("kind = class-check\nfamily = conformal-constant\n"
                        "conformal_c = 2\nn = 2\nresolution = 2\n"
                        "q1 = 2\nq2 = 2\nV1 = 6\nV2 = 0.5\ndiam_bound = 4.5\n"
                        "seed = 13\n"),
    }
    for kind, text in configs.items():
        config = _write_config(tmp_path / f"{kind}.cfg", text)
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{kind}_{run}"
            assert cli.main([kind, "--config", config, "--out", str(out)]) == 0
            outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        first, second = outputs
        assert first.keys() == second.keys() and len(first) > 0
        for name in first:
            assert first[name] == second[name], f"{kind}: {name} differs between runs"


# -- 10. matrix-free Newton at scale ------------------------------------------------

def test_cg_newton_at_scale(tmp_path):
    """A 10^3 torus spike (j = 2, p = 10, D = auto) solved through ``compute``.

    At 1 000 nodes every Newton system, of the energy solve and of the
    barrier, takes matrix-free CG steps.  Pair 0-500 is energy-bound and
    pair 0-555 ends with both terms tied; each converges at or above the
    value of the dense solver that preceded CG, to 1e-12 relative (values
    are lower bounds).  Budget: one minute.
    """
    start = time.monotonic()
    config = _write_config(
        tmp_path / "scale.cfg",
        "kind = compute\nfamily = spike\nn = 3\nresolution = 10\ntorus = true\n"
        f"j = 2\np = 10\nD = auto\npairs = 0-500, 0-555\nout = {tmp_path / 'scale'}\n",
    )
    result = run_compute(parse_config(config))
    assert result.exit_code == 0
    rows = _read_csv(result.files[0])
    dense = {"500": ("energy-bound", 0.7053825139032259), "555": ("both", 1.8574093334239525)}
    assert [row["y"] for row in rows] == list(dense)
    for row in rows:
        label, value = dense[row["y"]]
        assert row["converged"] == "true" and row["active_constraint"] == label
        assert float(row["value"]) >= value * (1.0 - 1e-12)
    assert time.monotonic() - start <= 60.0
