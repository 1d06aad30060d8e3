"""Continuation solver: closed-form matches, cap behavior, feasibility, errors."""

import math

import numpy as np
import pytest

from dpmod.errors import (
    MeshMismatchError,
    NonConvergedError,
    SameVertexError,
    SolverError,
    ZeroDistancePairError,
)
from dpmod import solver, util
from dpmod.families import make_conformal_constant, make_flat, make_spike_sequence
from dpmod.geodesic import all_pairs_distances
from dpmod.metric import MetricField, scale_metric
from dpmod.solver import (
    GaugeParams,
    distance_matrix,
    energy_p,
    holder_seminorm,
    solve_dp,
    solve_dp_unmodified,
)

from conftest import chain_mesh, random_metric, strip_mesh


@pytest.fixture(scope="module")
def chain16():
    mesh, g0 = make_flat(1, 16, torus=False)
    return mesh, g0, all_pairs_distances(mesh, g0)


# -- energy and seminorm ------------------------------------------------------

def test_energy_examples():
    mesh = chain_mesh([0.0, 1.0])
    g = MetricField.constant(mesh, np.array([[4.0]]))   # a = 2
    assert energy_p(np.array([0.0, 1.0]), g, 3.0) == pytest.approx(0.25, abs=1e-15)
    assert energy_p(np.array([1.5, 1.5]), g, 3.0) == 0.0
    sq, g0 = make_flat(2, 4, torus=False)
    f = sq.verts[:, 0]                                   # f = x, box: node = vert
    for p in (2.0, 5.0):
        assert energy_p(f, g0, p) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(SolverError):
        energy_p(f, g0, 1.0)


def test_holder_seminorm_hand_value(chain16):
    mesh, g0, dm0 = chain16
    params = GaugeParams.build(mesh, dm0, p=2.0, D=1.0)
    f = np.zeros(mesh.num_nodes)
    f[-1] = 1.0   # jump over the last cell: |delta| / (1/16)^(1/2) = 4
    assert holder_seminorm(f, params) == pytest.approx(4.0, rel=1e-12)


# -- parameter validation -----------------------------------------------------

def test_build_validation(chain16):
    mesh, g0, dm0 = chain16
    with pytest.raises(SolverError):
        GaugeParams.build(mesh, dm0, p=1.0, D=1.0)       # p <= n
    with pytest.raises(SolverError):
        GaugeParams.build(mesh, dm0, p=129.0, D=1.0)     # above the cap
    with pytest.raises(SolverError):
        GaugeParams.build(mesh, dm0, p=2.0, D=0.0)
    with pytest.raises(MeshMismatchError):
        GaugeParams.build(mesh, np.zeros((3, 3)), p=2.0, D=1.0)
    params = GaugeParams.build(mesh, dm0, p=4.0, D=2.0, pair_radius=0.25)
    assert params.t == pytest.approx(0.75)
    kept = params.d0[params.iu, params.iv]
    assert kept.max() <= 0.25


def test_solve_input_errors(chain16):
    mesh, g0, dm0 = chain16
    params = GaugeParams.build(mesh, dm0, p=2.0, D=1.0)
    with pytest.raises(SameVertexError):
        solve_dp(3, 3, g0, g0, params)
    with pytest.raises(SolverError):
        solve_dp(0, 99, g0, g0, params)
    inf_params = GaugeParams.build(mesh, dm0, p=2.0, D=math.inf)
    with pytest.raises(SolverError):
        solve_dp(0, 16, g0, g0, inf_params)   # must use solve_dp_unmodified
    other_mesh, other_g0 = make_flat(1, 4, torus=False)
    with pytest.raises(MeshMismatchError):
        solve_dp(0, 16, other_g0, g0, params)
    with pytest.raises(MeshMismatchError):
        solve_dp(0, 16, g0, other_g0, params)


def test_zero_distance_pair_rejected():
    mesh = chain_mesh([0.0, 1.0, 2.0])
    dm = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    dm[0, 2] = dm[2, 0] = 0.0
    with pytest.raises(ZeroDistancePairError):
        GaugeParams.build(mesh, dm, p=2.0, D=1.0)


# -- closed-form matches ------------------------------------------------------

@pytest.mark.parametrize("p", [2.0, 4.0])
def test_flat_chain_identity(chain16, p):
    mesh, g0, dm0 = chain16
    params = GaugeParams.build(mesh, dm0, p=p, D=10.0)
    res = solve_dp(0, 16, g0, g0, params)
    assert res.value == pytest.approx(1.0, rel=1e-7)
    assert res.converged
    assert res.active_constraint == "energy-bound"


def test_conformal_chain_closed_form(chain16):
    mesh, g0, dm0 = chain16
    g = make_conformal_constant((mesh, g0), 3.0)
    for p in (2.0, 8.0):
        params = GaugeParams.build(mesh, dm0, p=p, D=50.0)
        res = solve_dp(0, 16, g, g0, params)
        assert res.value == pytest.approx(3.0 ** ((p - 1) / p), rel=1e-7)


def test_cap_is_exact(chain16):
    mesh, g0, dm0 = chain16
    g = make_conformal_constant((mesh, g0), 2.0)
    params = GaugeParams.build(mesh, dm0, p=2.0, D=0.25)
    res = solve_dp(0, 16, g, g0, params)
    assert res.value == pytest.approx(0.25 * dm0[0, 16] ** 0.5, abs=1e-12)
    assert res.active_constraint == "holder-bound"


def test_cap_monotone_in_D(chain16):
    mesh, g0, dm0 = chain16
    g = make_conformal_constant((mesh, g0), 2.0)
    values = []
    for D in (0.2, 0.5, 1.0, 2.0, 10.0):
        params = GaugeParams.build(mesh, dm0, p=2.0, D=D)
        values.append(solve_dp(0, 16, g, g0, params).value)
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))
    # large-D limit agrees with the unmodified distance
    params_inf = GaugeParams.build(mesh, dm0, p=2.0, D=math.inf)
    free = solve_dp_unmodified(0, 16, g, params_inf).value
    assert values[-1] == pytest.approx(free, rel=1e-6)


def test_capped_value_never_exceeds_cap(rng, chain16):
    mesh, g0, dm0 = chain16
    g = random_metric(rng, mesh, cond_max=20.0)
    for D in (0.1, 0.7, 3.0):
        params = GaugeParams.build(mesh, dm0, p=3.0, D=D)
        res = solve_dp(2, 11, g, g0, params)
        assert res.value <= D * dm0[2, 11] ** params.t + 1e-9


def test_extremal_is_feasible_and_attains(chain16):
    mesh, g0, dm0 = chain16
    g = make_conformal_constant((mesh, g0), 2.0)
    params = GaugeParams.build(mesh, dm0, p=4.0, D=1.2)
    res = solve_dp(0, 16, g, g0, params)
    f = res.extremal
    assert f[0] - f[16] == pytest.approx(res.value, rel=1e-12)
    assert energy_p(f, g, 4.0) <= 1.0 + 1e-6
    assert holder_seminorm(f, params) <= params.D * (1.0 + 1e-6)
    assert res.energy_residual <= 1e-6
    assert res.holder_residual <= 1e-6
    assert res.gauge_value == pytest.approx(1.0 / res.value, rel=1e-12)


def test_scale_equivariance(chain16):
    # power-of-two rescale follows the identical iterate path; only the final
    # sigma^t map differs, so agreement is a couple of ulps, not 1e-4-ish
    mesh, g0, dm0 = chain16
    g = make_conformal_constant((mesh, g0), 2.0)
    p, D, lam = 4.0, 1.5, 2.0
    params = GaugeParams.build(mesh, dm0, p=p, D=D)
    base = solve_dp(0, 16, g, g0, params)
    g_l, g0_l = scale_metric(g, lam), scale_metric(g0, lam)
    dm_l = all_pairs_distances(mesh, g0_l)
    params_l = GaugeParams.build(mesh, dm_l, p=p, D=D)
    scaled = solve_dp(0, 16, g_l, g0_l, params_l)
    t = (p - 1.0) / p
    assert scaled.value == pytest.approx(lam ** t * base.value, rel=1e-13)
    assert scaled.iterations == base.iterations
    assert scaled.stages == base.stages


def test_lower_bound_property(chain16):
    # computed values are feasible-candidate bounds: never above the truth
    mesh, g0, dm0 = chain16
    params = GaugeParams.build(mesh, dm0, p=2.0, D=10.0)
    res = solve_dp(0, 16, g0, g0, params)
    assert res.value <= 1.0 + 1e-9


# -- 2-D sanity ---------------------------------------------------------------

def test_2d_unmodified_vs_large_cap():
    mesh, g0 = make_flat(2, 6, torus=True)
    dm0 = all_pairs_distances(mesh, g0)
    x, y = 0, mesh.num_nodes // 2
    params_inf = GaugeParams.build(mesh, dm0, p=6.0, D=math.inf)
    params_big = GaugeParams.build(mesh, dm0, p=6.0, D=50.0)
    v_inf = solve_dp_unmodified(x, y, g0, params_inf).value
    v_big = solve_dp(x, y, g0, g0, params_big).value
    assert v_big == pytest.approx(v_inf, rel=1e-5)
    # frozen band for this instance: the integral energy bound is laxer than
    # a pointwise gradient bound, so a sub-unit-length pair lands above the
    # graph distance, yet below its snowflaked power d0^t (t = (p-n)/p < 1)
    assert dm0[x, y] < v_inf < dm0[x, y] ** params_inf.t


# -- smoothed objective -------------------------------------------------------

def _reference_phi(mesh, g, dm0, x, y, p, D, f, beta, s):
    """phi_beta(f)/s written out plainly: per-cell df^T G^-1 df on the
    sigma-normalized instance, then the two nested log-sum-exps."""
    sigma = dm0[x, y]
    Ghat = g.tensors / sigma ** 2
    df = np.einsum("cij,cj->ci", mesh.gradient_operator(), f[mesh.cells_nodes])
    q = np.einsum("ci,cij,cj->c", df, np.linalg.inv(Ghat), df)
    w = np.sqrt(np.linalg.det(Ghat)) * mesh.volumes
    a1 = (w * q ** (p / 2.0)).sum() ** (1.0 / p) / s
    if math.isinf(D):
        return a1
    iu, iv = np.triu_indices(mesh.num_nodes, k=1)
    z = (f[iu] - f[iv]) / (dm0[iu, iv] / sigma) ** ((p - mesh.dim) / p) / s
    both = np.concatenate([z, -z])
    h = both.max() + np.log(np.exp(beta * (both - both.max())).sum()) / beta
    a = np.array([a1, h / D])
    return a.max() + np.log(np.exp(beta * (a - a.max())).sum()) / beta


@pytest.fixture(scope="module", params=[2, 3], ids=["torus2d", "torus3d"])
def spike_instance(request):
    n = request.param
    base = make_flat(n, 6 if n == 2 else 3, torus=True)
    mesh, g0 = base
    g = make_spike_sequence(base, 1)
    return mesh, g, g0, all_pairs_distances(mesh, g0)


@pytest.mark.parametrize("cap", ["tied", "inf"])
@pytest.mark.parametrize("beta", [10.0, 640.0])
@pytest.mark.parametrize("s", [0.37, 1.0, 2.5])
def test_smoothed_gradient_matches_central_differences(spike_instance, cap, beta, s):
    # "tied" picks D = H(f)/A(f), so both gauge terms carry weight at every beta
    mesh, g, g0, dm0 = spike_instance
    p, x, y = 7.0, 0, mesh.num_nodes // 2
    f = np.random.default_rng(7).uniform(0.0, 1.0, mesh.num_nodes)
    f[x], f[y] = 1.0, 0.0
    D = math.inf
    if cap == "tied":
        _, A, H = solver._Gauge(g, GaugeParams.build(mesh, dm0, p=p, D=1.0), x, y).gauge(f)
        D = H / A
    params = GaugeParams.build(mesh, dm0, p=p, D=D)
    gauge = solver._Gauge(g, params, x, y)
    phi, grad = gauge.smoothed(f, beta, s)
    assert gauge.smoothed(f, beta, s, need_grad=False) == phi
    want = _reference_phi(mesh, g, dm0.dist, x, y, p, D, f, beta, s)
    assert phi == pytest.approx(want, rel=1e-14)
    h = 1e-6
    fd = np.zeros_like(f)
    for k in range(mesh.num_nodes):
        if k in (x, y):
            continue
        e = np.zeros_like(f)
        e[k] = h
        fd[k] = (gauge.smoothed(f + e, beta, s, need_grad=False)
                 - gauge.smoothed(f - e, beta, s, need_grad=False)) / (2.0 * h)
    assert grad[x] == grad[y] == 0.0
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def test_backtrack_stalls_are_counted(monkeypatch, chain16):
    mesh, g0, dm0 = chain16
    params = GaugeParams.build(mesh, dm0, p=2.0, D=1.0)
    assert solve_dp(0, 16, g0, g0, params).backtrack_stalls == 0
    smoothed = solver._Gauge.smoothed

    def no_decrease(self, f, beta, s, need_grad=True):
        # the value path never shows sufficient decrease: every stage stalls
        return smoothed(self, f, beta, s) if need_grad else math.inf

    monkeypatch.setattr(solver._Gauge, "smoothed", no_decrease)
    res = solve_dp(0, 16, g0, g0, params)
    assert res.stages >= 1
    assert res.backtrack_stalls == res.stages


# -- batch driver -------------------------------------------------------------

def test_distance_matrix_records_failures(chain16):
    mesh, g0, dm0 = chain16
    params = GaugeParams.build(mesh, dm0, p=2.0, D=1.0)
    outcomes = distance_matrix([(0, 8), (3, 3), (0, 16)], g0, g0, params)
    assert [oc.error for oc in outcomes] == [None, "SameVertex", None]
    res = outcomes[0].result
    assert res.converged
    assert res.beta_final == params.beta0 * params.beta_growth ** (res.stages - 1)
    assert outcomes[1].result is None


def test_distance_matrix_pool_matches_serial(chain16, monkeypatch):
    mesh, g0, dm0 = chain16
    g = make_conformal_constant((mesh, g0), 1.5)
    params = GaugeParams.build(mesh, dm0, p=3.0, D=1.0)
    pairs = [(0, 8), (3, 3), (16, 0), (5, 11), (2, 14)]
    pooled_calls = []

    def spy(fn, items):
        pooled_calls.append(len(items))
        return util.parallel_map(fn, items)

    monkeypatch.setattr(util, "worker_count", lambda: 2)
    monkeypatch.setattr(solver, "parallel_map", spy)
    runs = {}
    for gate in (0, 10 ** 9):
        monkeypatch.setattr(solver, "_POOL_MIN_PAIRS", gate)
        runs[gate] = distance_matrix(pairs, g, g0, params)
    assert pooled_calls == [len(pairs)]     # only the gate-0 run used the pool
    pooled, serial = runs[0], runs[10 ** 9]
    assert [(oc.x, oc.y) for oc in pooled] == pairs
    assert [(oc.x, oc.y) for oc in serial] == pairs
    for a, b in zip(pooled, serial):
        assert a.error == b.error
        if b.result is None:
            assert a.result is None
            continue
        assert a.result.value == b.result.value
        np.testing.assert_array_equal(a.result.extremal, b.result.extremal)
    assert serial[1].error == "SameVertex"


def test_nonconverged_carries_partial_result(chain16):
    mesh, g0, dm0 = chain16
    params = GaugeParams.build(mesh, dm0, p=2.0, D=1.0, max_stages=1)
    with pytest.raises(NonConvergedError) as err:
        solve_dp(0, 16, g0, g0, params)
    partial = err.value.result
    assert partial is not None and not partial.converged
    assert partial.stages == 1
    assert partial.beta_final == params.beta0   # the beta the only stage ran at
    # the batch driver downgrades it to a recorded outcome
    oc = distance_matrix([(0, 16)], g0, g0, params)[0]
    assert oc.error == "NonConverged" and oc.result is not None


# -- pseudometric smoke (tight version lives in the acceptance suite) ---------

def test_symmetry_is_exact(rng):
    # both orientations run the identical canonical solve, so the values are
    # bitwise equal and the extremal flips sign
    mesh = strip_mesh(2, 1)
    g = random_metric(rng, mesh, cond_max=10.0)
    g0 = MetricField.identity(mesh)
    dm0 = all_pairs_distances(mesh, g0)
    params = GaugeParams.build(mesh, dm0, p=4.0, D=2.0)
    a = solve_dp(0, 5, g, g0, params)
    b = solve_dp(5, 0, g, g0, params)
    assert a.value == b.value
    assert (a.x, a.y, b.x, b.y) == (0, 5, 5, 0)
    np.testing.assert_array_equal(a.extremal, -b.extremal)
    assert b.extremal[5] - b.extremal[0] == pytest.approx(b.value, rel=1e-12)
