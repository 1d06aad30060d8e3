"""Closed-form and grid oracles: agreement, cap behavior, validation."""

import math

import numpy as np
import pytest

from dpmod import oracle
from dpmod.errors import MeshMismatchError, OracleError
from dpmod.geodesic import DistanceMatrix, all_pairs_distances
from dpmod.metric import MetricField
from dpmod.oracle import MAX_ORACLE_NODES, analytic_1d_dp, brute_force_dp
from dpmod.solver import GaugeParams

from conftest import chain_mesh, random_metric, strip_mesh


def _chain_setup(densities, p, D):
    """5-node unit chain with per-cell density a (g = a^2), identity g0."""
    a = np.asarray(densities, dtype=float)
    pos = np.linspace(0.0, 1.0, a.size + 1)
    mesh = chain_mesh(pos)
    g = MetricField(mesh, (a ** 2)[:, None, None])
    g0 = MetricField.identity(mesh)
    dm0 = all_pairs_distances(mesh, g0)
    params = GaugeParams.build(mesh, dm0, p=p, D=D)
    return mesh, a, np.diff(pos), g, g0, params


# -- analytic oracle ----------------------------------------------------------

@pytest.mark.parametrize("p", [2.0, 4.0, 8.0])
def test_analytic_uncapped_closed_forms(p):
    t = (p - 1.0) / p
    lengths = np.full(16, 1.0 / 16.0)
    value, clean = analytic_1d_dp(np.ones(16), lengths, p, 10.0)
    assert clean and value == pytest.approx(1.0, rel=1e-14)
    value, clean = analytic_1d_dp(np.full(16, 2.0), lengths, p, 10.0)
    assert clean and value == pytest.approx(2.0 ** t, rel=1e-14)
    mixed = np.where(np.arange(16) % 2 == 0, 1.0, 3.0)   # mean density 2
    value, clean = analytic_1d_dp(mixed, lengths, p, 10.0)
    assert clean and value == pytest.approx(2.0 ** t, rel=1e-14)


def test_analytic_cap_branch():
    p, D = 2.0, 0.3
    lengths = np.full(8, 0.125)
    a = np.full(8, 2.0)
    value, clean = analytic_1d_dp(a, lengths, p, D)
    # a0 defaults to a, so the cap is D * (total g-length)^t
    assert value == pytest.approx(D * 2.0 ** 0.5, rel=1e-14)
    assert clean   # the scaled linear profile still meets every interior bound


def test_analytic_flags_interior_violation():
    # a thin near-zero background cell makes its Holder bound unsatisfiable
    a = np.ones(3)
    a0 = np.array([1.0, 1e-6, 1.0])
    value, clean = analytic_1d_dp(a, np.full(3, 1.0 / 3.0), 2.0, 10.0, a0=a0)
    assert value == pytest.approx(1.0, rel=1e-14)   # uncapped branch
    assert not clean


def test_analytic_validation():
    good = np.ones(4)
    lens = np.full(4, 0.25)
    with pytest.raises(OracleError):
        analytic_1d_dp(good, lens, 1.0, 1.0)            # p <= 1
    with pytest.raises(OracleError):
        analytic_1d_dp(np.ones(0), np.ones(0), 2.0, 1.0)
    with pytest.raises(OracleError):
        analytic_1d_dp(np.array([1.0, -1.0, 1.0, 1.0]), lens, 2.0, 1.0)
    with pytest.raises(OracleError):
        analytic_1d_dp(good, lens[:-1], 2.0, 1.0)       # shape mismatch
    with pytest.raises(OracleError):
        analytic_1d_dp(good, lens, 2.0, 1.0, a0=np.ones(3))


# -- grid oracle --------------------------------------------------------------

def test_brute_matches_analytic_uncapped():
    mesh, a, lengths, g, g0, params = _chain_setup([1.0, 2.0, 1.0, 2.0], p=3.0, D=5.0)
    truth, clean = analytic_1d_dp(a, lengths, 3.0, 5.0, a0=np.ones(4))
    assert clean
    got = brute_force_dp(4, 0, g, g0, params)
    assert got == pytest.approx(truth, rel=3e-3)
    assert got <= truth * (1 + 1e-9)   # grid candidates are feasible: no overshoot


def test_brute_matches_analytic_capped():
    mesh, a, lengths, g, g0, params = _chain_setup([2.0, 2.0, 2.0, 2.0], p=2.0, D=0.5)
    truth, clean = analytic_1d_dp(a, lengths, 2.0, 0.5, a0=np.ones(4))
    assert clean and truth == pytest.approx(0.5, rel=1e-14)
    got = brute_force_dp(4, 0, g, g0, params)
    assert got == pytest.approx(truth, rel=3e-3)


def test_brute_monotone_in_cap():
    values = []
    for D in (0.2, 0.6, 2.0):
        _, _, _, g, g0, params = _chain_setup([1.5, 1.0, 2.0, 1.0], p=2.5, D=D)
        values.append(brute_force_dp(4, 0, g, g0, params))
    assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9


def test_brute_hits_cap_when_energy_is_slack():
    _, _, _, g, g0, params = _chain_setup([1.0, 1.0, 1.0, 1.0], p=2.0, D=0.2)
    got = brute_force_dp(4, 0, g, g0, params)
    assert got == pytest.approx(0.2, abs=2e-3 * 0.2)


def test_brute_interior_source():
    # x strictly inside the chain: spend all energy on the cells up to x
    mesh, a, lengths, g, g0, params = _chain_setup([1.0, 1.0, 1.0, 1.0], p=2.0, D=9.0)
    truth, clean = analytic_1d_dp(a[:2], lengths[:2], 2.0, 9.0, a0=np.ones(2))
    assert clean
    got = brute_force_dp(2, 0, g, g0, params)
    assert got == pytest.approx(truth, rel=3e-3)


def test_brute_validation():
    _, _, _, g, g0, params = _chain_setup([1.0] * 4, p=2.0, D=1.0)
    with pytest.raises(OracleError):
        brute_force_dp(3, 3, g, g0, params)
    inf_params = GaugeParams.build(params.mesh, DistanceMatrix(params.mesh, params.d0),
                                   p=2.0, D=math.inf)
    with pytest.raises(OracleError):
        brute_force_dp(4, 0, g, g0, inf_params)
    # fields of another mesh, as solve_dp rejects them: a g of one used to
    # be read on params' cells, and a g0 of one was ignored
    other = _chain_setup([1.0, 2.0, 1.0, 2.0], p=2.0, D=1.0)[3]
    for fields in ((other, g0), (g, other)):
        with pytest.raises(MeshMismatchError):
            brute_force_dp(4, 0, *fields, params)
    big_mesh = chain_mesh(np.linspace(0.0, 1.0, MAX_ORACLE_NODES + 2))
    big_g0 = MetricField.identity(big_mesh)
    big_params = GaugeParams.build(
        big_mesh, all_pairs_distances(big_mesh, big_g0), p=2.0, D=1.0
    )
    with pytest.raises(OracleError):
        brute_force_dp(0, MAX_ORACLE_NODES + 1, big_g0, big_g0, big_params)


def _random_instance(mesh, rng, p, D):
    g = random_metric(rng, mesh, cond_max=20.0)
    g0 = random_metric(rng, mesh, cond_max=4.0)
    return g, g0, GaugeParams.build(mesh, all_pairs_distances(mesh, g0), p=p, D=D)


def _strip6():
    rng = np.random.default_rng(11)
    mesh = strip_mesh(2, 1, jitter=0.2, rng=rng)
    return (0, 5) + _random_instance(mesh, rng, p=5.0, D=0.8)


def _chain6():
    rng = np.random.default_rng(12)
    mesh = chain_mesh(np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.2, size=5))]))
    return (0, 5) + _random_instance(mesh, rng, p=4.0, D=1.5)


def _interior_chain():
    _, _, _, g, g0, params = _chain_setup([1.0, 1.0, 1.0, 1.0], p=2.0, D=9.0)
    return 2, 0, g, g0, params


def _strip6_reversed():
    x, y, g, g0, params = _strip6()
    return y, x, g, g0, params


def _strip6_inner():
    # min(x, y) > 0: x's grid axis is moved to the front
    _, _, g, g0, params = _strip6()
    return 1, 3, g, g0, params


def _capped_chain6():
    rng = np.random.default_rng(23)
    mesh = chain_mesh(np.concatenate([[0.0], np.cumsum(rng.uniform(0.3, 1.2, size=5))]))
    return (0, 5) + _random_instance(mesh, rng, p=4.0, D=0.3)


@pytest.mark.parametrize("build, bits", [
    (_strip6, "0x1.79c7b8d82e81ap+0"),
    (_chain6, "0x1.b14b4950b77edp+1"),
    (_interior_chain, "0x1.6a05e751076b5p-1"),
    (_strip6_reversed, "0x1.79c7b8d82e81ap+0"),
    (_capped_chain6, "0x1.1c55d763cf3a9p+0"),
    (_strip6_inner, "0x1.10a35ed26b98ap+0"),
], ids=["strip6", "chain6", "interior_chain", "strip6_reversed", "capped_chain6",
        "strip6_inner"])
def test_brute_pinned_bits(build, bits):
    # exact values of the dense per-point search this oracle replaced: the
    # separable search keeps each point's arithmetic and the first-max order.
    # Both orientations run as (min, max), so the interior chain is the full
    # C-order scan of (0, 2) and the reversed strip keeps the forward bits;
    # the capped chain was taken from the full scan, before blocks were
    # pruned by their f(x) bound: its Holder masks alone empty the block
    # above the optimum in every refinement round; the inner strip pair was
    # taken before x's axis was put first
    assert brute_force_dp(*build()).hex() == bits


@pytest.mark.parametrize("build", [_strip6, _chain6, _interior_chain, _strip6_reversed,
                                   _capped_chain6, _strip6_inner],
                         ids=["strip6", "chain6", "interior_chain", "strip6_reversed",
                              "capped_chain6", "strip6_inner"])
def test_brute_bits_independent_of_block_size(build, monkeypatch):
    # a block never spans two values of x (grid axis 0).  10_000 points per
    # block cuts each x-slice of a five-axis refinement grid into 21 blocks
    # of one bound, which meet the tie rule across blocks; 2^23 holds every
    # x-slice in one block, as the default block size does for these grids
    args = build()
    want = brute_force_dp(*args).hex()
    for chunk in (10_000, 1 << 23):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        assert brute_force_dp(*args).hex() == want


@pytest.mark.parametrize("build", [_strip6, _chain6, _interior_chain, _capped_chain6,
                                   _strip6_inner],
                         ids=["strip6", "chain6", "interior_chain", "capped_chain6",
                              "strip6_inner"])
def test_brute_symmetric_bitwise(build):
    # the value is symmetric, and the oracle, like the solver, runs one
    # orientation for both
    x, y, g, g0, params = build()
    assert brute_force_dp(x, y, g, g0, params).hex() == brute_force_dp(y, x, g, g0, params).hex()
