"""Metric fields, pencil norms, class functionals, metric file format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmod.errors import (
    MeshMismatchError,
    MetricError,
    NotSPDError,
    ParseError,
)
from dpmod import geodesic
from dpmod.families import make_flat
from dpmod.metric import (
    ClassParams,
    MetricField,
    check_class_membership,
    generalized_eigenvalues,
    hypothesis_functionals,
    integral_wrt,
    inverse_difference_norm,
    lq_norm,
    norm_g_wrt_g0,
    norm_ginv_wrt_g0,
    read_metric,
    scale_metric,
    write_metric,
)

from conftest import chain_mesh, det_wrt_g0, random_metric, random_spd_tensors, tensor_norm_wrt


# -- field validation ---------------------------------------------------------

def test_metric_field_validation():
    mesh, _ = make_flat(2, 2, torus=False)
    C = mesh.num_cells
    with pytest.raises(MeshMismatchError):
        MetricField(mesh, np.broadcast_to(np.eye(2), (C + 1, 2, 2)).copy())
    asym = np.broadcast_to(np.array([[1.0, 0.5], [0.0, 1.0]]), (C, 2, 2)).copy()
    with pytest.raises(MetricError):
        MetricField(mesh, asym)
    neg = np.broadcast_to(np.diag([1.0, -1.0]), (C, 2, 2)).copy()
    with pytest.raises(NotSPDError):
        MetricField(mesh, neg)
    nanfield = np.broadcast_to(np.eye(2), (C, 2, 2)).copy()
    nanfield[0, 0, 0] = np.nan
    with pytest.raises(MetricError):
        MetricField(mesh, nanfield)


def test_scale_metric():
    mesh, g0 = make_flat(2, 2, torus=True)
    g2 = scale_metric(g0, 2.0)
    assert np.array_equal(g2.tensors, 4.0 * g0.tensors)
    with pytest.raises(ValueError):
        scale_metric(g0, 0.0)
    with pytest.raises(ValueError):
        scale_metric(g0, -1.0)


# -- pencil -------------------------------------------------------------------

def test_pencil_example():
    mesh, _ = make_flat(2, 2, torus=True)
    g0 = MetricField.constant(mesh, np.diag([2.0, 2.0]))
    g = MetricField.constant(mesh, np.diag([4.0, 9.0]))
    lam2 = generalized_eigenvalues(g, g0)
    assert np.allclose(lam2, [2.0, 4.5], atol=1e-14)
    assert np.allclose(norm_g_wrt_g0(lam2), np.sqrt(4.0 + 4.5 ** 2), atol=1e-12)
    assert np.allclose(
        norm_ginv_wrt_g0(lam2), np.sqrt(0.25 + 4.5 ** -2), atol=1e-12
    )


def test_pencil_det_consistency(rng):
    mesh, _ = make_flat(2, 3, torus=True)
    g = random_metric(rng, mesh)
    g0 = random_metric(rng, mesh)
    lam2 = generalized_eigenvalues(g, g0)
    want = np.linalg.det(g.tensors) / np.linalg.det(g0.tensors)
    got = det_wrt_g0(lam2)
    assert np.abs(got / want - 1.0).max() < 1e-9
    assert lam2.min() > 0.0


def test_pencil_identity_norms():
    mesh, g0 = make_flat(3, 2, torus=True)
    lam2 = generalized_eigenvalues(g0, g0)
    assert np.allclose(norm_g_wrt_g0(lam2), np.sqrt(3.0), atol=1e-12)
    assert np.allclose(tensor_norm_wrt(g0.tensors, g0), np.sqrt(3.0), atol=1e-12)


# -- tensor-algebra invariants (vectorized random trials) ---------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_duality_norm(rng, n):
    res = {1: 400, 2: 15, 3: 6}[n]
    mesh, _ = make_flat(n, res, torus=True)
    g = random_metric(rng, mesh)
    h = random_metric(rng, mesh)
    lhs = norm_ginv_wrt_g0(generalized_eigenvalues(g, h))   # |g^-1|_h
    rhs = norm_g_wrt_g0(generalized_eigenvalues(h, g))      # |h|_g
    assert np.abs(lhs - rhs).max() < 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_cauchy_schwarz_pairing(rng, n):
    mesh, _ = make_flat(n, {2: 15, 3: 6}[n], torus=True)
    g = random_metric(rng, mesh)
    diff = (random_spd_tensors(rng, mesh.num_cells, n, cond_max=50.0)
            - random_spd_tensors(rng, mesh.num_cells, n, cond_max=50.0))
    omega = 0.5 * (diff + diff.transpose(0, 2, 1))
    norms = tensor_norm_wrt(omega, g)
    for c in range(0, mesh.num_cells, 7):
        df = rng.normal(size=n)
        Gi = np.linalg.inv(g.tensors[c])
        v = Gi @ df                                  # gradient vector of df
        pairing = abs(v @ omega[c] @ v)
        grad2 = df @ v                               # |grad f|_g^2 = df^T G^-1 df
        assert pairing <= norms[c] * grad2 + 1e-10


@pytest.mark.parametrize("n", [1, 2, 3])
def test_determinant_bound(rng, n):
    mesh, _ = make_flat(n, {1: 400, 2: 15, 3: 6}[n], torus=True)
    g = random_metric(rng, mesh)
    g0 = random_metric(rng, mesh)
    lam2 = generalized_eigenvalues(g, g0)
    lhs = det_wrt_g0(lam2)
    rhs = n ** (-n / 2.0) * norm_g_wrt_g0(lam2) ** n
    assert np.all(lhs <= rhs * (1.0 + 1e-12) + 1e-12)


@given(
    a=st.floats(-1e6, 1e6, allow_nan=False),
    b=st.floats(-1e6, 1e6, allow_nan=False),
    t=st.floats(0.01, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_snowflake_reverse_triangle(a, b, t):
    lhs = abs(abs(a) ** t - abs(b) ** t)
    rhs = abs(a - b) ** t
    assert lhs <= rhs + 1e-12 * max(1.0, rhs)


# -- integrals ----------------------------------------------------------------

def test_lq_norm_homogeneity_and_errors(rng):
    mesh, g0 = make_flat(2, 4, torus=True)
    field = rng.uniform(0.1, 2.0, size=mesh.num_cells)
    for s in (0.5, 1.0, 3.5):
        assert lq_norm(7.0 * field, s, g0) == pytest.approx(
            7.0 * lq_norm(field, s, g0), rel=1e-12
        )
    with pytest.raises(ValueError):
        lq_norm(field, 0.0, g0)
    with pytest.raises(MeshMismatchError):
        lq_norm(field[:-1], 1.0, g0)


def test_integral_is_volume_weighted():
    mesh, g0 = make_flat(2, 4, torus=True)
    ones = np.ones(mesh.num_cells)
    assert integral_wrt(ones, g0) == pytest.approx(1.0, abs=1e-12)
    g4 = scale_metric(g0, 2.0)   # sqrt(det) = 4 in 2-D
    assert integral_wrt(ones, g4) == pytest.approx(4.0, abs=1e-12)


# -- hypothesis functionals ---------------------------------------------------

def test_conformal_closed_forms():
    c, p = 2.0, 7.0
    mesh, g0 = make_flat(2, 8, torus=True)
    g = scale_metric(g0, c)
    rep = hypothesis_functionals(g, g0, p)
    # |g|_{g0} = sqrt(2) c^2 per cell; n/2 = 1; unit g0-volume
    assert rep.I_g == pytest.approx(np.sqrt(2.0) * c ** 2, rel=1e-12)
    # |g^-1 - g0^-1|_{g0} = sqrt(2) |c^-2 - 1|, exponent n(p-1)/2 = 6
    diff = np.sqrt(2.0) * abs(c ** -2 - 1.0)
    assert rep.I_inv == pytest.approx(diff ** 6, rel=1e-12)
    # inner exponent p/(2(p-1)) times outer (p-1)/p collapses to 1/2
    assert rep.I_33 == pytest.approx(np.sqrt(diff), rel=1e-12)
    eta = 5.0 * 2.0 / 12.0
    want_eta = (np.sqrt(2.0) * c ** -2) ** (2.0 * eta / (p - eta))
    assert rep.I_eta == pytest.approx(want_eta, rel=1e-12)


def test_inverse_difference_zero_iff_equal(rng):
    mesh, _ = make_flat(2, 3, torus=True)
    g0 = random_metric(rng, mesh)
    rep = hypothesis_functionals(g0, g0, 7.0)
    assert rep.I_inv <= 1e-28
    assert np.abs(inverse_difference_norm(g0, g0)).max() < 1e-14
    g = MetricField(mesh, g0.tensors * 1.01)
    assert hypothesis_functionals(g, g0, 7.0).I_inv > 0.0


def test_hypothesis_functionals_validation():
    mesh, g0 = make_flat(2, 2, torus=True)
    with pytest.raises(ValueError):
        hypothesis_functionals(g0, g0, 2.0)   # p must exceed n
    rep = hypothesis_functionals(g0, g0, 3.0)
    assert min(rep.I_g, rep.I_eta) >= 0.0


def test_hypothesis_diameter_is_lazy(monkeypatch):
    # the sequence study reads only the integrals: no all-pairs shortest paths
    mesh, g0 = make_flat(2, 2, torus=True)
    calls = []
    monkeypatch.setattr(geodesic, "all_pairs_distances", lambda *a: calls.append(a))
    hypothesis_functionals(g0, g0, 3.0)
    assert calls == []


# -- class membership ---------------------------------------------------------

def test_class_params_validation():
    with pytest.raises(ValueError):
        ClassParams(q1=1.0, q2=2.0, V1=1.0, V2=1.0, D=1.0)
    with pytest.raises(ValueError):
        ClassParams(q1=2.0, q2=2.0, V1=-1.0, V2=1.0, D=1.0)


def test_class_membership_verdicts():
    mesh, g0 = make_flat(2, 4, torus=True)
    params = ClassParams(q1=2.0, q2=2.0, V1=2.0, V2=2.0, D=1.0)
    rep = check_class_membership(g0, g0, params)
    # |I|_{g0} = sqrt(2) pointwise; unit volume; diameter ~0.707
    assert rep.member
    assert rep.norm_g == pytest.approx(np.sqrt(2.0), rel=1e-12)
    assert rep.norm_ginv == pytest.approx(np.sqrt(2.0), rel=1e-12)
    tight = ClassParams(q1=2.0, q2=2.0, V1=2.0, V2=2.0, D=0.5)
    assert not check_class_membership(g0, g0, tight).member


# -- file format --------------------------------------------------------------

def test_metric_roundtrip(tmp_path, rng):
    mesh, _ = make_flat(2, 3, torus=True)
    g = random_metric(rng, mesh)
    path = tmp_path / "g.txt"
    write_metric(g, path)
    back = read_metric(path, mesh)
    assert np.array_equal(back.tensors, g.tensors)


def test_metric_roundtrip_3d(tmp_path, rng):
    mesh, _ = make_flat(3, 2, torus=True)
    g = random_metric(rng, mesh, cond_max=10.0)
    path = tmp_path / "g.txt"
    write_metric(g, path)
    assert np.array_equal(read_metric(path, mesh).tensors, g.tensors)


def _write_metric_per_entry(field, path):
    """Reference writer: one repr(float(...)) call per tensor entry."""
    n = field.mesh.dim
    idx = [(i, j) for i in range(n) for j in range(i, n)]
    lines = [f"dpmetric v1 {n} {field.mesh.num_cells}"]
    for G in field.tensors:
        lines.append(" ".join(repr(float(G[i, j])) for i, j in idx))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("n", [2, 3])
def test_write_metric_bytes_match_per_entry_loop(tmp_path, rng, n):
    mesh, _ = make_flat(n, 3, torus=True)
    g = random_metric(rng, mesh, cond_max=50.0)
    fast, slow = tmp_path / "fast.txt", tmp_path / "slow.txt"
    write_metric(g, fast)
    _write_metric_per_entry(g, slow)
    assert fast.read_bytes() == slow.read_bytes()
    assert np.array_equal(read_metric(fast, mesh).tensors, g.tensors)


def _metric_parse_error(tmp_path, mesh, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_metric(path, mesh)
    return err.value


def test_read_metric_errors(tmp_path):
    mesh, _ = make_flat(1, 2, torus=False)   # 2 cells, n = 1
    err = _metric_parse_error(tmp_path, mesh, "dpmetric v2 1 2\n1.0\n1.0\n")
    assert err.line == 1
    err = _metric_parse_error(tmp_path, mesh, "dpmetric v1 2 2\n1.0 0.0 1.0\n1.0 0.0 1.0\n")
    assert "dimension" in str(err) or err.line == 1
    err = _metric_parse_error(tmp_path, mesh, "dpmetric v1 1 3\n1.0\n1.0\n1.0\n")
    assert isinstance(err, ParseError)       # cell-count mismatch with mesh
    err = _metric_parse_error(tmp_path, mesh, "dpmetric v1 1 2\n1.0 2.0\n1.0\n")
    assert err.line == 2                      # wrong entry arity
    err = _metric_parse_error(tmp_path, mesh, "dpmetric v1 1 2\nxx\n1.0\n")
    assert err.line == 2
    err = _metric_parse_error(tmp_path, mesh, "dpmetric v1 1 2\n1.0\n")
    assert "expected 2 cell rows, got 1" in str(err)
    err = _metric_parse_error(tmp_path, mesh, "dpmetric v1 1 2\n1.0\n-1.0\n")
    assert "cell 1 tensor is not SPD" in str(err)
