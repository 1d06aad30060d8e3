"""Newton screen and barrier solver: closed forms, cap behavior, feasibility, errors."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpmod.errors import (
    MeshMismatchError,
    NonConvergedError,
    SameVertexError,
    SolverError,
    ZeroDistancePairError,
)
from dpmod import solver
from dpmod.families import make_conformal_constant, make_flat, make_spike_sequence
from dpmod.geodesic import DistanceMatrix, all_pairs_distances
from dpmod.metric import MetricField, scale_metric
from dpmod.solver import (
    GaugeParams,
    distance_matrix,
    energy_p,
    holder_seminorm,
    solve_dp,
)

from conftest import barrier_result, chain_mesh, random_metric, strip_mesh


@pytest.fixture(scope="module")
def chain16():
    mesh, g0 = make_flat(1, 16, torus=False)
    return mesh, g0, all_pairs_distances(mesh, g0)


@pytest.fixture
def steps(request, monkeypatch):
    """The Newton step solver: "auto" picks it by system size, "cg" sends
    every system through matrix-free CG (used indirectly by parametrize)."""
    if request.param == "cg":
        monkeypatch.setattr(solver, "_CG_MIN_FREE", 0)
    return request.param


def _under_cg(cases, case_id, forced):
    """Each case with the step solver picked by size, then the ``forced``
    ones again through CG, their ids suffixed -cg."""
    return ([pytest.param(c, "auto", id=case_id(c)) for c in cases]
            + [pytest.param(c, "cg", id=case_id(c) + "-cg") for c in cases if forced(c)])


def _dense_value(monkeypatch, solve):
    """The value of ``solve()`` with every system on the dense path."""
    with monkeypatch.context() as m:
        m.setattr(solver, "_CG_MIN_FREE", math.inf)
        return solve().value


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


@pytest.mark.parametrize("which", ["t2", "t3"])
def test_pair_powers_kept_bitwise(spike8, spike_t3, which):
    # params.dt is d0(u, v)^t bitwise in the order of (iu, iv), and
    # holder_seminorm's division by it gives the bits of powering the gathered pairs
    if which == "t2":
        params = GaugeParams.build(spike8[0], spike8[3], p=7.0, D=2.0)
    else:
        params = spike_t3[3]
    dt = params.d0[params.iu, params.iv] ** params.t
    assert params.dt.shape == params.iu.shape == params.iv.shape
    assert params.dt.tobytes() == dt.tobytes()
    rng = np.random.default_rng(7)
    for _ in range(3):
        f = rng.standard_normal(params.mesh.num_nodes)
        assert holder_seminorm(f, params) == float((np.abs(f[params.iu] - f[params.iv]) / dt).max())


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
        GaugeParams.build(mesh, DistanceMatrix(mesh, np.zeros((3, 3))), p=2.0, D=1.0)
    params = GaugeParams.build(mesh, dm0, p=4.0, D=2.0)
    assert params.t == pytest.approx(0.75)
    assert params.iu.size == 17 * 16 // 2               # every node pair


def test_build_rejects_distances_of_another_mesh():
    # a 16-node chain's distances have the shape of the 4x4 torus's; taken
    # for the torus's they gave pair 0-5 the value 0.13687381066422014
    torus, g0 = make_flat(2, 4, torus=True)
    dm_chain = all_pairs_distances(*make_flat(1, 15, torus=False))
    with pytest.raises(MeshMismatchError):
        GaugeParams.build(torus, dm_chain, p=7.0, D=0.3)
    params = GaugeParams.build(torus, all_pairs_distances(torus, g0), p=7.0, D=0.3)
    assert solve_dp(0, 5, g0, g0, params).value == pytest.approx(0.14275427295159296,
                                                                  rel=1e-9)


@pytest.mark.parametrize("n, R", [(1, 1), (1, 2), (1, 6), (2, 7), (3, 5)],
                         ids=["N2", "N3", "N7", "N64", "N216"])
def test_gauge_xy_indexes_the_pair(n, R):
    # the closed-form index of (x, y) among the upper-triangle pairs
    mesh, g0 = make_flat(n, R, torus=False)
    params = GaugeParams.build(mesh, all_pairs_distances(mesh, g0), p=n + 1.0, D=1.0)
    N = mesh.num_nodes
    pairs = list(zip(*np.triu_indices(N, k=1)))
    if N > 7:
        pairs = pairs[:N] + pairs[-N:] + pairs[::97]
    f = np.random.default_rng(N).standard_normal(N)
    for x, y in pairs:
        gauge = solver._Gauge(g0, params, x, y)
        xy = gauge.xy
        assert (params.iu[xy], params.iv[xy]) == (x, y)
        # the pair's own coefficient is exactly 1, so its ratio is f(x) - f(y)
        assert gauge.inv_dt[xy] == 1.0
        assert gauge.ratios(f)[xy] == f[x] - f[y]


def test_solve_input_errors(chain16):
    mesh, g0, dm0 = chain16
    params = GaugeParams.build(mesh, dm0, p=2.0, D=1.0)
    with pytest.raises(SameVertexError):
        solve_dp(3, 3, g0, g0, params)
    with pytest.raises(SolverError):
        solve_dp(0, 99, g0, g0, params)
    # D = inf is no input error: the Newton energy solve is the answer
    res = solve_dp(0, 16, g0, g0, GaugeParams.build(mesh, dm0, p=2.0, D=math.inf))
    assert res.active_constraint == "energy-bound" and res.stages == 0
    assert res.converged and res.holder_residual == 0.0
    assert res.value == pytest.approx(1.0, rel=1e-7)
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
        GaugeParams.build(mesh, DistanceMatrix(mesh, dm), p=2.0, D=1.0)


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
    free = solve_dp(0, 16, g, None, params_inf).value
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
    v_inf = solve_dp(x, y, g0, None, params_inf).value
    v_big = solve_dp(x, y, g0, g0, params_big).value
    assert v_big == pytest.approx(v_inf, rel=1e-5)
    # frozen band for this instance: the integral energy bound is laxer than
    # a pointwise gradient bound, so a sub-unit-length pair lands above the
    # graph distance, yet below its snowflaked power d0^t (t = (p-n)/p < 1)
    assert dm0[x, y] < v_inf < dm0[x, y] ** params_inf.t


# -- barrier objective -------------------------------------------------------

def _reference_barrier(mesh, g, dm0, x, y, p, D, t, u, v, f):
    """F_t(f) written out plainly: per-cell df^T G^-1 df on the
    sigma-normalized instance, A = E_p^{1/p}, and the pair logs over (u, v)."""
    sigma = dm0[x, y]
    Ghat = g.tensors / sigma ** 2
    df = np.einsum("cij,cj->ci", mesh.gradient_operator(), f[mesh.cells_nodes])
    q = np.einsum("ci,cij,cj->c", df, np.linalg.inv(Ghat), df)
    w = np.sqrt(np.linalg.det(Ghat)) * mesh.volumes
    A = (w * q ** (p / 2.0)).sum() ** (1.0 / p)
    z = (f[u] - f[v]) / (dm0[u, v] / sigma) ** ((p - mesh.dim) / p)
    return -t * f[x] - np.log(1.0 - A) - np.log(D - z).sum() - np.log(D + z).sum()


def _barrier_at(gauge, W, f):
    """f's one evaluation in a centering, as _barrier_system takes it."""
    return (*gauge.cells(f), W.ratios(f))


@pytest.fixture(scope="module", params=[2, 3], ids=["torus2d", "torus3d"])
def spike_instance(request):
    n = request.param
    base = make_flat(n, 6 if n == 2 else 3, torus=True)
    mesh, g0 = base
    g = make_spike_sequence(base, 1)
    return mesh, g, g0, all_pairs_distances(mesh, g0)


@pytest.mark.parametrize("cap", ["tied", "inf"])
@pytest.mark.parametrize("t", [10.0, 640.0])
@pytest.mark.parametrize("s", [0.37, 1.0, 2.5])
def test_barrier_gradient_matches_central_differences(spike_instance, cap, t, s):
    # the barrier F_t is the smooth surrogate of the capped problem with
    # weight t; s sets the depth A(f) = s/3, "tied" picks D = H/A over W
    # (both constraints equally slack) and "inf" has D = inf, so W is empty
    mesh, g, g0, dm0 = spike_instance
    p, x, y = 7.0, 0, mesh.num_nodes // 2
    f = np.random.default_rng(7).uniform(0.0, 1.0, mesh.num_nodes)
    f[x], f[y] = 1.0, 0.0
    D = math.inf
    if cap == "tied":
        D = 1.0
    gauge = solver._Gauge(g, GaugeParams.build(mesh, dm0, p=p, D=D), x, y)
    f *= (s / 3.0) / gauge.energy(f)
    idx = np.array([], dtype=int)
    if cap == "tied":
        z = gauge.ratios(f)
        idx = np.union1d(np.argsort(-np.abs(z), kind="stable")[:solver._SEED_PAIRS], [gauge.xy])
        gauge.D = np.abs(z[idx]).max() / gauge.energy(f)
    slot = solver._free_slots(f.size, [y])          # x is free in the barrier
    free = np.flatnonzero(slot < slot.max())         # the free nodes, in slot order
    W = solver._WorkingSet(gauge, idx, slot)
    assert W.m == 1 + 2 * idx.size
    grad = solver._barrier_system(gauge, _barrier_at(gauge, W, f), t, W, slot)[0][:-1]

    def F(h):
        return _reference_barrier(mesh, g, dm0.dist, x, y, p, gauge.D, t, W.u, W.v, h)

    h = 1e-6
    fd = np.empty(free.size)
    for k, node in enumerate(free):
        e = np.zeros_like(f)
        e[node] = h
        fd[k] = (F(f + e) - F(f - e)) / (2.0 * h)
    assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(fd)


def _interior_barrier(gauge, num_nodes):
    """A seeded f strictly inside the barrier of ``gauge``, with its free slots
    and working set; gauge.D is reset so that every pair is at most 0.8 D."""
    y = gauge.fixed[1]
    f = np.random.default_rng(7).uniform(0.0, 1.0, num_nodes)
    f[y] = 0.0
    f *= 0.5 / gauge.energy(f)                      # A = 1/2: strictly inside
    z = gauge.ratios(f)
    gauge.D = 1.25 * np.abs(z).max()
    # W: the 8 largest ratios, (x, y), and every pair through y (dump slot)
    through_y = np.flatnonzero((gauge.iu == y) | (gauge.iv == y))[:5]
    idx = np.union1d(np.argsort(-np.abs(z))[:8], np.append(through_y, gauge.xy))
    slot = solver._free_slots(f.size, [y])          # x is free in the barrier
    return f, slot, solver._WorkingSet(gauge, idx, slot)


BARRIER_CASES = pytest.mark.parametrize(
    "case", [(2, 2.5), (2, 7.0), (2, 128.0), (3, 4.0), (3, 10.0), (3, 128.0)],
    ids=lambda c: f"torus{c[0]}d-p{c[1]:g}")


def _barrier_case(case):
    """(mesh, g, dm0, gauge) of a spike torus of dimension n at exponent p, pair 0-N/2."""
    n, p = case
    base = make_flat(n, 6 if n == 2 else 3, torus=True)
    mesh, g0 = base
    g = make_spike_sequence(base, 1)
    dm0 = all_pairs_distances(mesh, g0)
    gauge = solver._Gauge(g, GaugeParams.build(mesh, dm0, p=p, D=1.0), 0, mesh.num_nodes // 2)
    return mesh, g, dm0, gauge


@BARRIER_CASES
def test_barrier_derivatives_match_central_differences(case):
    mesh, g, dm0, gauge = _barrier_case(case)
    p = case[1]
    x, y, t = 0, mesh.num_nodes // 2, 10.0
    f, slot, W = _interior_barrier(gauge, mesh.num_nodes)
    free = np.flatnonzero(slot < slot.max())         # the free nodes, in slot order

    def F(h):
        return _reference_barrier(mesh, g, dm0.dist, x, y, p, gauge.D, t, W.u, W.v, h)

    def grad_at(h):
        return solver._barrier_system(gauge, _barrier_at(gauge, W, h), t, W, slot)[0][:-1]

    grad, op = solver._barrier_system(gauge, _barrier_at(gauge, W, f), t, W, slot)
    grad, gE = grad[:-1], op.gE[:-1]
    hess = op.matrix() + op.c2 * np.outer(gE, gE)
    h = 1e-6
    fd_grad = np.empty(free.size)
    fd_hess = np.empty((free.size, free.size))
    for k, node in enumerate(free):
        e = np.zeros_like(f)
        e[node] = h
        fd_grad[k] = (F(f + e) - F(f - e)) / (2.0 * h)
        fd_hess[:, k] = (grad_at(f + e) - grad_at(f - e)) / (2.0 * h)
    assert np.linalg.norm(grad - fd_grad) <= 1e-6 * np.linalg.norm(fd_grad)
    assert np.linalg.norm(hess - fd_hess) <= 1e-6 * np.linalg.norm(fd_hess)
    np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12 * np.abs(hess).max())


@BARRIER_CASES
def test_barrier_slack_is_the_gauge_slack(monkeypatch, case):
    # every system of a centering is built from its point's one evaluation:
    # its A is bitwise the gauge's, which the line search accepts only below
    # 1, so every step's slack 1 - A is positive, and its z is W.ratios of
    # that point; the pass a centering returns is its f's
    mesh, g, dm0, gauge = _barrier_case(case)
    f, slot, W = _interior_barrier(gauge, mesh.num_nodes)
    passes, systems = [], []
    real_cells, real_system = solver._Gauge.cells, solver._barrier_system

    def cells(self, h):
        passes.append((h, real_cells(self, h)))
        return passes[-1][1]

    def system(instance, at, *args):
        systems.append(at)
        return real_system(instance, at, *args)
    monkeypatch.setattr(solver._Gauge, "cells", cells)
    monkeypatch.setattr(solver, "_barrier_system", system)
    f, last, steps, centered = solver._center(gauge, f, _barrier_at(gauge, W, f), 10.0, W, slot)
    monkeypatch.undo()
    assert centered and len(systems) >= 2
    for at in systems:
        (h,) = [h for h, out in passes if out[0] is at[0]]
        assert at[4] == gauge.energy(h) < 1.0
        assert np.array_equal(at[5], W.ratios(h))
    assert last[4] == gauge.energy(f) and np.array_equal(last[5], W.ratios(f))


def test_barrier_step_takes_one_cell_pass(monkeypatch, spike8):
    # a centering evaluates each point once: its start (handed in) and each
    # line-search trial strictly inside W's bounds get one _cell_energy
    # pass, and no system makes one.  A step's W.ratios calls are, in order,
    # the direction's and then one per trial
    mesh, g, g0, dm0 = spike8
    gauge = solver._Gauge(g, GaugeParams.build(mesh, dm0, p=7.0, D=1.0), 0, 36)
    f, slot, W = _interior_barrier(gauge, mesh.num_nodes)
    calls = {"cells": 0, "systems": 0, "inside": 0}
    phase = [None]
    real_cells, real_system = solver._cell_energy, solver._barrier_system
    real_ratios = solver._WorkingSet.ratios

    def cell_energy(*args):
        calls["cells"] += 1
        return real_cells(*args)

    def system(*args):
        calls["systems"] += 1
        phase[0] = None
        out = real_system(*args)
        phase[0] = "direction"
        return out

    def ratios(self, h):
        z = real_ratios(self, h)
        if phase[0] == "direction":
            phase[0] = "trials"
        elif phase[0] == "trials":
            calls["inside"] += bool(np.abs(z).max() < gauge.D)
        return z
    monkeypatch.setattr(solver, "_cell_energy", cell_energy)
    monkeypatch.setattr(solver, "_barrier_system", system)
    monkeypatch.setattr(solver._WorkingSet, "ratios", ratios)
    _, _, steps, centered = solver._center(gauge, f, _barrier_at(gauge, W, f), 10.0, W, slot)
    assert centered and steps >= 2 and calls["systems"] in (steps, steps + 1)
    assert calls["cells"] == 1 + calls["inside"]


def _step_system(gauge, num_nodes, stage):
    """The free gradient (slot space) and Hessian operator of one Newton step
    of ``stage``: the energy solve at a seeded f, or the barrier (t = 10) at
    the seeded interior point of :func:`_interior_barrier`."""
    if stage == "energy":
        x, y = gauge.fixed
        f = np.random.default_rng(11).uniform(0.0, 1.0, num_nodes)
        f[x], f[y] = 1.0, 0.0
        slot = solver._free_slots(f.size, gauge.fixed)
        return _energy_step(f, (gauge.nodes, gauge.forms, gauge.w, gauge.p), slot)[1:]
    f, slot, W = _interior_barrier(gauge, num_nodes)
    return solver._barrier_system(gauge, _barrier_at(gauge, W, f), 10.0, W, slot)


@pytest.mark.parametrize("stage", ["energy", "barrier"])
def test_cg_step_matches_dense_step(monkeypatch, spike_instance, stage):
    # at a tight residual, the matrix-free operator and PCG reproduce the
    # dense Newton step of the same system; a wrong operator term would only
    # slow Newton down, which the solved values alone would not show
    mesh, g, g0, dm0 = spike_instance
    x, y = 0, mesh.num_nodes // 2
    gauge = solver._Gauge(g, GaugeParams.build(mesh, dm0, p=7.0, D=1.0), x, y)

    def step():
        grad, op = _step_system(gauge, mesh.num_nodes, stage)
        d = op.solve(-grad, 1e-14)
        return -float(grad @ d), d
    lam2, d = step()
    monkeypatch.setattr(solver, "_CG_MIN_FREE", 0)
    lam2_cg, d_cg = step()
    assert lam2_cg == pytest.approx(lam2, rel=1e-10)
    assert np.linalg.norm(d_cg - d) <= 1e-6 * np.linalg.norm(d)
    assert d_cg[-1] == 0.0                           # the dump slot of the pinned nodes


@pytest.mark.parametrize("stage", ["energy", "barrier"])
def test_operator_product_matches_matrix(spike_instance, stage):
    # the matrix-free product CG applies is the matrix the dense solve
    # assembles, plus the barrier's rank-one term; W has pairs through y,
    # whose terms land in the dump slot, and the dump entry stays 0
    mesh, g, g0, dm0 = spike_instance
    x, y = 0, mesh.num_nodes // 2
    gauge = solver._Gauge(g, GaugeParams.build(mesh, dm0, p=7.0, D=1.0), x, y)
    _, op = _step_system(gauge, mesh.num_nodes, stage)
    if stage == "barrier":
        assert (op.W.ends == op.k - 1).any()
        rank_one = op.c2 * np.outer(op.gE[:-1], op.gE[:-1])
    else:
        rank_one = 0.0
    op.prepare()
    matrix = op.matrix() + rank_one
    rng = np.random.default_rng(3)
    for _ in range(5):
        d = rng.standard_normal(op.k)
        d[-1] = 0.0
        out = op(d)
        want = matrix @ d[:-1]
        assert np.linalg.norm(out[:-1] - want) <= 1e-12 * np.linalg.norm(want)
        assert out[-1] == 0.0


def _step_solvers(monkeypatch, gauge, num_nodes):
    """{stage: (free nodes, the solvers that ran on the whole free system)}.

    The CG barrier step also solves its small block preconditioner dense;
    that call is not on the whole system and is left out."""
    calls = []
    real_pcg, real_dense = solver._pcg, solver._dense_solve

    def pcg(op, b, rtol):
        calls.append(("cg", b.size - 1))
        return real_pcg(op, b, rtol)

    def dense(a, b, what):
        calls.append(("dense", a.shape[0]))
        return real_dense(a, b, what)

    monkeypatch.setattr(solver, "_pcg", pcg)
    monkeypatch.setattr(solver, "_dense_solve", dense)
    used = {}
    for stage in ("energy", "barrier"):
        calls.clear()
        grad, op = _step_system(gauge, num_nodes, stage)
        op.solve(-grad, 1e-6)                       # the tolerance does not pick the solver
        used[stage] = (op.k - 1, [kind for kind, size in calls if size == op.k - 1])
    return used


@pytest.mark.parametrize("shape", ["chain201", "spike8", "spike_t3"])
def test_step_solver_size_rule(monkeypatch, shape, spike8, spike_t3):
    # one comparison with _CG_MIN_FREE picks the step solver; the energy
    # step pins x and y, the barrier step y alone
    if shape == "chain201":
        mesh, g = make_flat(1, solver._CG_MIN_FREE, torus=False)
        assert mesh.num_nodes == solver._CG_MIN_FREE + 1
        params = GaugeParams.build(mesh, all_pairs_distances(mesh, g), p=4.0, D=1.0)
        x, y = 0, mesh.num_nodes - 1
        want = {"energy": (199, ["dense"]), "barrier": (200, ["cg"])}
    elif shape == "spike8":                         # as in the README sequence study
        mesh, g, g0, dm0 = spike8
        params = GaugeParams.build(mesh, dm0, p=7.0, D=2.0)
        x, y = 0, 36
        want = {"energy": (62, ["dense"]), "barrier": (63, ["dense"])}
    else:                                           # as in the 6^3 compute study
        mesh, g, g0, params = spike_t3
        x, y = 0, 129
        want = {"energy": (214, ["cg"]), "barrier": (215, ["cg"])}
    gauge = solver._Gauge(g, params, x, y)
    assert _step_solvers(monkeypatch, gauge, mesh.num_nodes) == want


# -- Newton energy solve --------------------------------------------------------

def _energy_step(f, args, slot):
    """E^(f) and the energy Newton system at f, built from f's one cell pass."""
    cells = solver._energy_hat(f, *args)
    return (cells[0], *solver._energy_system(cells, args, slot))


def _check_energy_derivs(gauge, p, f):
    slot = solver._free_slots(f.size, gauge.fixed)
    free = np.flatnonzero(slot < slot.max())
    args = (gauge.nodes, gauge.forms, gauge.w, p)
    E, grad, op = _energy_step(f, args, slot)
    grad, hess = grad[:-1], op.matrix()              # drop the dump entry
    A = solver._norm_terms(solver._cell_energy(f, *args[:2])[1], *args[2:])[2]
    assert E == pytest.approx(A ** p, rel=1e-12)
    h = 1e-6
    fd_grad = np.empty(free.size)
    fd_hess = np.empty((free.size, free.size))
    for k, node in enumerate(free):
        e = np.zeros_like(f)
        e[node] = h
        Ep, gp, _ = _energy_step(f + e, args, slot)
        Em, gm, _ = _energy_step(f - e, args, slot)
        fd_grad[k] = (Ep - Em) / (2.0 * h)
        fd_hess[:, k] = (gp[:-1] - gm[:-1]) / (2.0 * h)
    assert np.linalg.norm(grad - fd_grad) <= 1e-6 * np.linalg.norm(fd_grad)
    assert np.linalg.norm(hess - fd_hess) <= 1e-6 * np.linalg.norm(fd_hess)
    np.testing.assert_allclose(hess, hess.T, rtol=1e-12, atol=1e-12 * np.abs(hess).max())


@pytest.mark.parametrize("p", [2.5, 7.0, 128.0])
def test_newton_derivatives_match_central_differences(spike_instance, p):
    # the forms do not depend on p, so the gauge is built at a p valid in 3-D
    mesh, g, g0, dm0 = spike_instance
    x, y = 0, mesh.num_nodes // 2
    gauge = solver._Gauge(g, GaugeParams.build(mesh, dm0, p=7.0, D=math.inf), x, y)
    f = np.random.default_rng(11).uniform(0.0, 1.0, mesh.num_nodes)
    f[x], f[y] = 1.0, 0.0
    _check_energy_derivs(gauge, p, f)


def test_newton_derivatives_below_p2_on_chain(chain16):
    mesh, g0, dm0 = chain16
    g = random_metric(np.random.default_rng(5), mesh, cond_max=10.0)
    gauge = solver._Gauge(g, GaugeParams.build(mesh, dm0, p=1.5, D=math.inf), 2, 13)
    f = np.random.default_rng(12).uniform(0.0, 1.0, mesh.num_nodes)
    f[2], f[13] = 1.0, 0.0
    _check_energy_derivs(gauge, 1.5, f)


@pytest.fixture(scope="module")
def spike8():
    base = make_flat(2, 8, torus=True)
    mesh, g0 = base
    return mesh, make_spike_sequence(base, 1), g0, all_pairs_distances(mesh, g0)


# D = inf solve_dp values of the smoothed FISTA path that preceded the
# Newton solve (float.hex): the conformal chain (c = 2) pair 0-16 and the
# 8x8 spike (j = 1) pair 0-36; both are lower bounds, so higher is better
FISTA_UNMODIFIED = {
    ("chain", 1.5): "0x1.428a2f98d61dep+0",
    ("chain", 2.0): "0x1.6a09e667f26e7p+0",
    ("chain", 7.0): "0x1.cfbb031a74167p+0",
    ("chain", 128.0): "0x1.fd3c22b8f7102p+0",
    ("spike8", 2.5): "0x1.e37d54567198dp-1",
    ("spike8", 7.0): "0x1.09fd7860e78a0p+0",
    ("spike8", 16.0): "0x1.1346e0ace5597p+0",
    ("spike8", 32.0): "0x1.15ff84ade6fe8p+0",
    ("spike8", 64.0): "0x1.166f2b2822ee0p+0",
    ("spike8", 128.0): "0x1.160cc7dd3d003p+0",
}


@pytest.mark.parametrize("case, steps", _under_cg(sorted(FISTA_UNMODIFIED),
                                                   lambda c: f"{c[0]}-p{c[1]:g}",
                                                   lambda c: c[0] == "spike8"),
                         indirect=["steps"])
def test_newton_unmodified_not_below_fista(monkeypatch, case, steps, chain16, spike8):
    name, p = case
    if name == "chain":
        mesh, g0, dm0 = chain16
        g, x, y = make_conformal_constant((mesh, g0), 2.0), 0, 16
    else:
        mesh, g, g0, dm0 = spike8
        x, y = 0, 36
    params = GaugeParams.build(mesh, dm0, p=p, D=math.inf)
    res = solve_dp(x, y, g, None, params)
    if steps == "cg":
        dense = _dense_value(monkeypatch, lambda: solve_dp(x, y, g, None, params))
        assert res.value == pytest.approx(dense, rel=1e-12)
    assert res.converged and res.stages == 0
    assert res.active_constraint == "energy-bound"
    assert 1 <= res.iterations <= 100
    assert res.value >= float.fromhex(FISTA_UNMODIFIED[case]) * (1.0 - 1e-12)
    if name == "chain":   # closed form c^{(p-1)/p} for the unit chain
        assert res.value == pytest.approx(2.0 ** ((p - 1.0) / p), rel=1e-12)


def test_two_node_chain_has_no_free_nodes(recwarn):
    mesh = chain_mesh([0.0, 1.0])
    g = MetricField.constant(mesh, np.array([[4.0]]))      # conformal c = 2
    dm0 = all_pairs_distances(mesh, MetricField.identity(mesh))
    res = solve_dp(1, 0, g, None, GaugeParams.build(mesh, dm0, p=3.0, D=math.inf))
    assert res.converged and res.iterations == 0
    assert res.value == pytest.approx(2.0 ** (2.0 / 3.0), rel=1e-15)
    assert not recwarn.list


def test_screened_solve_ignores_stage_budget(monkeypatch, chain16):
    mesh, g0, dm0 = chain16
    g = make_conformal_constant((mesh, g0), 2.0)
    monkeypatch.setattr(solver, "_MAX_CENTERINGS", 1)
    params = GaugeParams.build(mesh, dm0, p=2.0, D=10.0)
    res = solve_dp(0, 16, g, g0, params)
    assert res.active_constraint == "energy-bound"
    assert res.converged and res.stages == 0
    assert res.value == pytest.approx(2.0 ** 0.5, rel=1e-12)


def test_energy_bound_solve_takes_one_pair_pass(monkeypatch, spike8):
    # the screen's gauge is the one pass over all pairs of an energy-bound
    # solve: the start needs no gauge check, (x, y) having coefficient 1
    mesh, g, g0, dm0 = spike8
    calls = []
    real = solver._Gauge.ratios

    def ratios(self, f):
        calls.append(f.size)
        return real(self, f)
    monkeypatch.setattr(solver._Gauge, "ratios", ratios)
    res = solve_dp(0, 36, g, g0, GaugeParams.build(mesh, dm0, p=7.0, D=2.0))
    assert res.active_constraint == "energy-bound" and res.stages == 0
    assert len(calls) == 1


@pytest.mark.parametrize("p, D, restarts", [(7.0, 1.35, 0), (32.0, 1.35, 2)])
def test_barrier_solve_takes_one_pair_pass_per_centering(monkeypatch, spike8, p, D, restarts):
    # four passes over all pairs before the barrier (the screen's gauge of
    # f*, whose ratios also seed W, and the three cap candidates), then one
    # after each centering, from which a new round and the result take Phi
    mesh, g, g0, dm0 = spike8
    calls, rounds = [], []
    real_ratios, real_set = solver._Gauge.ratios, solver._WorkingSet.__init__

    def ratios(self, f):
        calls.append(f.size)
        return real_ratios(self, f)

    def working_set(self, *args):
        rounds.append(args[1].size)
        real_set(self, *args)
    monkeypatch.setattr(solver._Gauge, "ratios", ratios)
    monkeypatch.setattr(solver._WorkingSet, "__init__", working_set)
    res = solve_dp(0, 36, g, g0, GaugeParams.build(mesh, dm0, p=p, D=D))
    assert res.converged and res.stages >= 2 and len(rounds) == 1 + restarts
    assert len(calls) == 4 + res.stages


@pytest.mark.parametrize("p, D, restarts", [(7.0, 1.35, 0), (32.0, 1.35, 2)])
def test_barrier_rounds_take_one_cell_pass_per_point(monkeypatch, spike8, p, D, restarts):
    # the barrier makes one _cell_energy pass at each round's start and one
    # per line-search trial strictly inside W's bounds: a continuation
    # centering starts from the pass its predecessor ended with.  A step's
    # W.ratios calls are, in order, the direction's and then one per trial
    mesh, g, g0, dm0 = spike8
    calls = {"cells": 0, "rounds": 0, "inside": 0}
    barrier, phase = [], [None]
    real_cells, real_rounds = solver._cell_energy, solver._barrier_rounds
    real_set, real_system = solver._WorkingSet.__init__, solver._barrier_system
    real_ratios = solver._WorkingSet.ratios

    def cell_energy(*args):
        calls["cells"] += 1
        return real_cells(*args)

    def barrier_rounds(*args):
        barrier.append(calls["cells"])
        out = real_rounds(*args)
        barrier.append(calls["cells"])
        return out

    def working_set(self, *args):
        calls["rounds"] += 1
        phase[0] = None
        real_set(self, *args)

    def system(*args):
        phase[0] = None
        out = real_system(*args)
        phase[0] = "direction"
        return out

    def ratios(self, h):
        z = real_ratios(self, h)
        if phase[0] == "direction":
            phase[0] = "trials"
        elif phase[0] == "trials":
            calls["inside"] += bool(np.abs(z).max() < D)
        return z
    monkeypatch.setattr(solver, "_cell_energy", cell_energy)
    monkeypatch.setattr(solver, "_barrier_rounds", barrier_rounds)
    monkeypatch.setattr(solver._WorkingSet, "__init__", working_set)
    monkeypatch.setattr(solver, "_barrier_system", system)
    monkeypatch.setattr(solver._WorkingSet, "ratios", ratios)
    res = solve_dp(0, 36, g, g0, GaugeParams.build(mesh, dm0, p=p, D=D))
    assert res.converged and res.stages > calls["rounds"] == 1 + restarts
    assert barrier[1] - barrier[0] == calls["rounds"] + calls["inside"]


def test_newton_energy_takes_one_cell_pass_per_point(monkeypatch, spike8):
    # the energy solve evaluates each point once: one unscaled pass at the
    # start sets the forms' scale, then the start and each line-search trial
    # get one pass of E^, and no system makes one
    mesh, g, g0, dm0 = spike8
    gauge = solver._Gauge(g, GaugeParams.build(mesh, dm0, p=7.0, D=math.inf), 0, 36)
    points, calls = [], []
    real_cells, real_hat = solver._cell_energy, solver._energy_hat

    def cell_energy(*args):
        calls.append(args[0].size)
        return real_cells(*args)

    def energy_hat(f, *args):
        points.append(f)
        return real_hat(f, *args)
    monkeypatch.setattr(solver, "_cell_energy", cell_energy)
    monkeypatch.setattr(solver, "_energy_hat", energy_hat)
    _, steps, converged = solver._newton_energy(gauge, gauge.start())
    trials = len({id(f) for f in points}) - 1       # every point but the start
    assert converged and steps >= 2 and trials >= steps
    assert len(calls) == 2 + trials


def test_newton_step_cap(monkeypatch, chain16):
    # out of Newton steps: the uncapped solve raises with its partial
    # result, and the capped solve runs the barrier from the partial f*
    mesh, g0, dm0 = chain16
    g = make_conformal_constant((mesh, g0), 2.0)
    monkeypatch.setattr(solver, "_NEWTON_MAX_STEPS", 1)
    with pytest.raises(NonConvergedError) as err:
        solve_dp(0, 16, g, None, GaugeParams.build(mesh, dm0, p=7.0, D=math.inf))
    partial = err.value.result
    assert not partial.converged and partial.stages == 0 and partial.iterations == 1
    assert partial.value <= 2.0 ** (6.0 / 7.0)
    res = solve_dp(0, 16, g, g0, GaugeParams.build(mesh, dm0, p=7.0, D=10.0))
    assert res.converged and res.stages >= 2 and res.iterations > 1
    assert res.value == pytest.approx(2.0 ** (6.0 / 7.0), rel=1e-5)


@pytest.fixture(scope="module")
def spike_t3():
    """6^3 torus spike (j = 2) at p = 10 with the default cap D = auto."""
    base = make_flat(3, 6, torus=True)
    mesh, g0 = base
    g = make_spike_sequence(base, 2)
    dm0 = all_pairs_distances(mesh, g0)
    D = all_pairs_distances(mesh, g).diameter() / dm0.diameter() ** 0.7
    return mesh, g, g0, GaugeParams.build(mesh, dm0, p=10.0, D=D)


# capped values of the smoothed FISTA path that preceded the barrier
# (float.hex), keyed (j, p, D, y) for pair 0-y of the 8x8 spike and "t3" for
# pair 0-129 of the 6^3 spike; values are lower bounds, so higher is better.
# The p = 128 cases are where a barrier on E instead of A fell short.
FISTA_CAPPED = {
    (1, 7.0, 1.35, 36): "0x1.08dac7ae14cdcp+0",
    (1, 32.0, 1.35, 36): "0x1.ca6dcead868f7p-1",
    (1, 128.0, 1.0, 4): "0x1.02c9a3e778061p-1",
    (1, 128.0, 1.35, 4): "0x1.040ca4197bf38p-1",
    (4, 128.0, 1.35, 4): "0x1.03ef6c1d46760p-1",
    (4, 32.0, 2.0, 36): "0x1.d375ecf29bb4ap-1",
    "t3": "0x1.a7e5f74988392p+0",
}


@pytest.mark.parametrize("case, steps", _under_cg(
    list(FISTA_CAPPED), lambda c: c if c == "t3" else "j{}-p{:g}-D{:g}-0-{}".format(*c),
    lambda c: True), indirect=["steps"])
def test_capped_value_not_below_fista(monkeypatch, case, steps, spike8, spike_t3):
    if case == "t3":
        # fails the screen (H/D ~ 1.19 A) and ends with both terms tied
        mesh, g, g0, params = spike_t3
        y = 129
    else:
        j, p, D, y = case
        mesh, _, g0, dm0 = spike8
        g = make_spike_sequence((mesh, g0), j)
        params = GaugeParams.build(mesh, dm0, p=p, D=D)
    res = solve_dp(0, y, g, g0, params)
    if case == "t3":
        assert res.active_constraint == "both"
        assert res.value >= 1.65585500
    if steps == "cg":
        dense = _dense_value(monkeypatch, lambda: solve_dp(0, y, g, g0, params))
        assert res.value == pytest.approx(dense, rel=1e-12)
    assert res.converged
    assert res.value >= float.fromhex(FISTA_CAPPED[case]) * (1.0 - 1e-12)


def test_tight_cap_at_p128(spike8):
    # a cap far below the energy bound starts the barrier at A ~ 1e-3, where
    # E^ = A^128 underflows unless it is evaluated at a rescaled point.  The
    # cap-bound screen settles the pair in closed form, so the barrier is
    # run directly from the same start
    mesh, g, g0, dm0 = spike8
    params = GaugeParams.build(mesh, dm0, p=128.0, D=1e-3)
    res = solve_dp(0, 36, g, g0, params)
    assert res.converged and res.active_constraint == "holder-bound"
    assert res.stages == 0
    assert res.value == pytest.approx(1e-3 * dm0[0, 36] ** params.t, rel=1e-12)
    value, stages, converged = barrier_result(g, params, 0, 36)
    assert converged and stages >= 1
    assert value == pytest.approx(1e-3 * dm0[0, 36] ** params.t, rel=1e-12)


def test_newton_stops_at_round_off(spike8):
    # at p = 128 the decrement of pair 0-4 stalls just above 1e-14 E^ while
    # Armijo halves every step; its mirror pair 0-32 converges outright
    mesh, g, g0, dm0 = spike8
    params = GaugeParams.build(mesh, dm0, p=128.0, D=math.inf)
    a = solve_dp(0, 4, g, None, params)
    b = solve_dp(0, 32, g, None, params)
    assert a.converged and b.converged
    assert a.iterations < solver._NEWTON_MAX_STEPS
    assert a.value == pytest.approx(b.value, rel=1e-12)


def test_capped_pair_below_p2(chain16):
    # p = 1.5 < 2: the energy is not twice differentiable where q_c = 0;
    # the cap binds, and the value is the cap's, not the uncapped screen's
    mesh, g0, dm0 = chain16
    g = make_conformal_constant((mesh, g0), 2.0)
    res = solve_dp(3, 11, g, g0, GaugeParams.build(mesh, dm0, p=1.5, D=0.9))
    assert res.converged
    assert res.active_constraint == "holder-bound"
    assert res.value == pytest.approx(0.71433, abs=1e-5)


_BLAS_SCRIPT = """
from dpmod.families import make_flat, make_spike_sequence
from dpmod.geodesic import all_pairs_distances
from dpmod.solver import GaugeParams, solve_dp
base = make_flat(3, 6, torus=True)
mesh, g0 = base
g = make_spike_sequence(base, 2)
dm0 = all_pairs_distances(mesh, g0)
D = all_pairs_distances(mesh, g).diameter() / dm0.diameter() ** 0.7
params = GaugeParams.build(mesh, dm0, p=10.0, D=D)
for y in (108, 126, 3, 129):
    res = solve_dp(0, y, g, g0, params)
    assert (res.stages == 0) == (y != 129), y   # 0-129 runs the barrier
    print(res.value.hex(), res.extremal.tobytes().hex())
"""


def _screened_run(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", _BLAS_SCRIPT], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    return [line.split() for line in out.stdout.splitlines()]


def test_screened_values_stable_across_blas_threads():
    one, two, two_again = _screened_run(1), _screened_run(2), _screened_run(2)
    assert len(one) == 4
    assert two == two_again                  # reruns are bitwise equal
    for (v1, _), (v2, _) in zip(one, two):
        assert float.fromhex(v2) == pytest.approx(float.fromhex(v1), rel=1e-12)


def test_largest_matches_stable_argsort():
    # the barrier's seed set: the m largest entries, ties to the lowest index,
    # as a stable argsort of -a takes them; few distinct levels plant ties
    # across the m-th place, and -0.0 ties with 0.0
    rng = np.random.default_rng(5)
    for size in (0, 1, 7, 8, 9, 40, 1000):
        for levels in (1, 2, 3, 10, 0):
            a = rng.integers(0, levels, size).astype(float) if levels else rng.uniform(size=size)
            if levels == 1:
                a[::2] = -0.0
            for m in (1, 8):
                want = np.sort(np.argsort(-a, kind="stable")[:m])
                np.testing.assert_array_equal(np.sort(solver._largest(a, m)), want)


# -- batch driver -------------------------------------------------------------

def test_distance_matrix_records_failures(monkeypatch, chain16):
    mesh, g0, dm0 = chain16
    params = GaugeParams.build(mesh, dm0, p=2.0, D=1.0)
    # one call per pair to solve_dp, looked up on the module at call time:
    # the benchmark's tracer counts solves by wrapping that name
    real, calls = solver.solve_dp, []

    def counting(*args):
        calls.append(args[:2])
        return real(*args)

    monkeypatch.setattr(solver, "solve_dp", counting)
    outcomes = distance_matrix([(0, 8), (3, 3), (0, 16)], g0, g0, params)
    assert calls == [(0, 8), (3, 3), (0, 16)]
    assert [oc.error for oc in outcomes] == [None, "SameVertex", None]
    assert outcomes[0].result.converged
    assert outcomes[1].result is None


# pair 0-36 of the 8x8 spike (j = 1) at p = 7, D = 1.35 ends with both
# terms tied: neither screen settles it, so it runs the barrier
_BARRIER_P, _BARRIER_D, _BARRIER_Y = 7.0, 1.35, 36


@pytest.mark.parametrize("stage, steps", _under_cg(["energy", "barrier"], str, lambda c: True),
                         indirect=["steps"])
def test_singular_system_is_recorded_per_pair(monkeypatch, spike8, stage, steps):
    # a singular Newton system surfaces as SolverError.  Dense: the energy
    # step solves for one right-hand side, the barrier step for two.  CG: an
    # operator with no curvature, in the energy solve or in the barrier only
    mesh, g, g0, dm0 = spike8
    params = GaugeParams.build(mesh, dm0, p=_BARRIER_P, D=_BARRIER_D)
    if steps == "cg":
        op = solver._CellOperator if stage == "energy" else solver._BarrierOperator
        monkeypatch.setattr(op, "__call__", lambda self, d: np.zeros_like(d))
        message = "CG direction of curvature 0.0"
    else:
        real_solve, ndim = np.linalg.solve, 1 if stage == "energy" else 2

        def solve(a, b):
            if np.ndim(b) == ndim:
                raise np.linalg.LinAlgError("Singular matrix")
            return real_solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve)
        message = "Singular matrix"
    with pytest.raises(SolverError, match=f"^{stage} Newton step: {message}$"):
        solve_dp(0, _BARRIER_Y, g, g0, params)
    (oc,) = distance_matrix([(0, _BARRIER_Y)], g, g0, params)
    assert oc.result is None and oc.error == f"SolverError: {stage} Newton step: {message}"


@pytest.mark.parametrize("budget, D, stages, iterations, value", [
    ("_ARMIJO_HALVINGS", math.inf, 0, 0, "0x1.b0fc5f9db7d05p-1"),
    ("_MAX_CENTER_STEPS", 1.35, 1, 9, "0x1.0476a7eb68638p+0")])
def test_give_up_paths_return_the_last_point(monkeypatch, spike8, budget, D, stages,
                                              iterations, value):
    # with no halvings the energy solve's first line search runs out, and
    # with one step per centering the first centering ends uncentered: each
    # raises with its last point, rescaled to unit gauge
    mesh, g, g0, dm0 = spike8
    monkeypatch.setattr(solver, budget, 1 if stages else 0)
    with pytest.raises(NonConvergedError) as err:
        solve_dp(0, _BARRIER_Y, g, g0, GaugeParams.build(mesh, dm0, p=_BARRIER_P, D=D))
    partial = err.value.result
    assert not partial.converged
    assert (partial.stages, partial.iterations) == (stages, iterations)
    assert partial.value.hex() == value
    assert partial.energy_residual <= 1e-12 and partial.holder_residual <= 1e-12


def test_nonconverged_carries_partial_result(monkeypatch, spike8):
    mesh, g, g0, dm0 = spike8
    monkeypatch.setattr(solver, "_MAX_CENTERINGS", 1)
    params = GaugeParams.build(mesh, dm0, p=_BARRIER_P, D=_BARRIER_D)
    with pytest.raises(NonConvergedError) as err:
        solve_dp(0, _BARRIER_Y, g, g0, params)
    partial = err.value.result
    assert partial is not None and not partial.converged
    assert partial.stages == 1                  # one centering, gap still 1e-3
    assert str(err.value) == ("barrier stopped after 1 centerings without reaching "
                              f"its gap target: last value {partial.value:.6g}")
    # the reversed query runs the same canonical solve: same message, x and y
    # swapped, extremal negated
    with pytest.raises(NonConvergedError) as back:
        solve_dp(_BARRIER_Y, 0, g, g0, params)
    flipped = back.value.result
    assert str(back.value) == str(err.value)
    assert (flipped.x, flipped.y, flipped.value) == (_BARRIER_Y, 0, partial.value)
    assert not flipped.converged and flipped.stages == 1
    np.testing.assert_array_equal(flipped.extremal, -partial.extremal)
    # the batch driver downgrades it to a recorded outcome
    oc = distance_matrix([(0, _BARRIER_Y)], g, g0, params)[0]
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
