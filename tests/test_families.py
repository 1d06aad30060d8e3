"""Generator families: schedules, field shapes, and measured functionals."""

import json

import numpy as np
import pytest

from dpmod import cli
from dpmod.errors import MeshError
from dpmod.families import (
    FAMILY_NAMES,
    SPIKE_A0,
    SPIKE_EPS,
    SPIKE_R0,
    FamilySpec,
    make_conformal_constant,
    make_flat,
    make_oscillation_sequence,
    make_spike_sequence,
    spike_schedule,
)
from dpmod.mesh import build_mesh
from dpmod.metric import MetricField, hypothesis_functionals

from conftest import strip_mesh


# -- flat bases ---------------------------------------------------------------

@pytest.mark.parametrize(
    "n,res,nodes,cells",
    [(1, 8, 9, 8), (2, 4, 25, 32), (3, 2, 27, 48)],
)
def test_flat_box_counts(n, res, nodes, cells):
    mesh, g0 = make_flat(n, res, torus=False)
    assert mesh.num_nodes == nodes
    assert mesh.num_cells == cells
    assert mesh.volumes.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.array_equal(g0.tensors[0], np.eye(n))


@pytest.mark.parametrize("n,res,nodes", [(1, 8, 8), (2, 4, 16), (3, 2, 8)])
def test_flat_torus_gluing(n, res, nodes):
    mesh, _ = make_flat(n, res, torus=True)
    assert mesh.num_nodes == nodes       # seams glued: res^n distinct nodes
    assert mesh.volumes.sum() == pytest.approx(1.0, rel=1e-12)


def test_flat_rejects_bad_dimension():
    with pytest.raises(MeshError):
        make_flat(4, 2)


# -- spec record --------------------------------------------------------------

def test_family_spec_validation():
    ok = FamilySpec("spike", 2, 8, torus=True, j=3)
    assert ok.profile == "ball"
    with pytest.raises(ValueError):
        FamilySpec("vortex", 2, 8)
    with pytest.raises(ValueError):
        FamilySpec("flat", 4, 8)
    with pytest.raises(ValueError):
        FamilySpec("flat", 2, 1)
    with pytest.raises(ValueError):
        FamilySpec("spike", 2, 8, j=0)
    with pytest.raises(ValueError):
        FamilySpec("spike", 2, 8, radius=0.0)
    with pytest.raises(ValueError):
        FamilySpec("spike", 2, 8, profile="cone")
    FamilySpec("spike", 2, 8, amplitude=0.0)   # zero amplitude is allowed


GEN_SPIKE = dict(family="spike", n="2", resolution="4", torus="true", j="1")


@pytest.mark.parametrize("key,spec,spike,config", [
    pytest.param("family", dict(family="vortex"), None, dict(family="vortex"), id="family"),
    pytest.param("n", dict(n=4), None, dict(n="4"), id="n"),
    pytest.param("resolution", dict(resolution=1), None, dict(resolution="1"),
                 id="resolution"),
    pytest.param("j", dict(j=0), dict(j=0), dict(j="0"), id="j"),
    pytest.param("conformal_c", dict(family="conformal-constant", conformal=-2.0), None,
                 dict(family="conformal-constant", conformal_c="-2", j=None), id="conformal_c"),
    pytest.param("scale", dict(family="scaled", scale=0.0), None,
                 dict(family="scaled", scale="0", j=None), id="scale"),
    pytest.param("amplitude", dict(amplitude=-1.0), dict(A_j=-1.0), dict(amplitude="-1"),
                 id="amplitude-negative"),
    pytest.param("amplitude", dict(amplitude=np.inf), dict(A_j=np.inf),
                 dict(amplitude="inf"), id="amplitude-inf"),
    pytest.param("radius", dict(radius=0.7), dict(r_j=0.7), dict(radius="0.7"),
                 id="radius-beyond-half"),
    pytest.param("radius", dict(radius=0.0), dict(r_j=0.0), dict(radius="0"), id="radius-0"),
    pytest.param("center", dict(center=(0.5,)), dict(center=(0.5,)), dict(center="0.5"),
                 id="center"),
    pytest.param("center", dict(center=(1.45, 0.5)), dict(center=(1.45, 0.5)),
                 dict(center="1.45, 0.5"), id="center-outside-chart"),
    pytest.param("profile", dict(profile="tube"), dict(profile="tube"),
                 dict(profile="tube"), id="profile-tube-2d"),
    pytest.param("profile", dict(profile="cone"), dict(profile="cone"),
                 dict(profile="cone"), id="profile-cone"),
])
def test_one_rule_everywhere(tmp_path, capsys, key, spec, spike, config):
    # the library and both CLI family paths reject the same value, naming the
    # same config key
    with pytest.raises(ValueError) as err:
        FamilySpec(**(dict(family="spike", n=2, resolution=8, j=1) | spec))
    assert err.value.key == key
    if spike is not None:
        with pytest.raises(ValueError) as err:
            make_spike_sequence(make_flat(2, 4, torus=True), **(dict(j=1) | spike))
        assert err.value.key == key
    path = tmp_path / "run.cfg"
    # a None in ``config`` drops that key of GEN_SPIKE
    path.write_text("".join(f"{k} = {v}\n" for k, v in (GEN_SPIKE | config).items()
                            if v is not None))
    for kind in ("gen", "compute"):
        assert cli.main([kind, "--config", str(path), "--out", str(tmp_path / kind)]) == 1
        assert f"config key {key!r}" in capsys.readouterr().err


def test_family_spec_json_round(tmp_path):
    # gen's provenance record of a member is its spec's values, keys sorted
    config = tmp_path / "gen.cfg"
    config.write_text("family = spike\nn = 2\nresolution = 8\ntorus = true\nj = 2\n"
                      "center = 0.5, 0.5\n")
    assert cli.main(["gen", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    line = (tmp_path / "out" / "family.jsonl").read_text().splitlines()[1]
    d = json.loads(line)
    assert d["family"] == "spike" and d["center"] == [0.5, 0.5] and d["j"] == 2
    assert list(d) == sorted(d)
    assert set(FAMILY_NAMES) == {
        "flat", "conformal-constant", "spike", "oscillation", "scaled"
    }


# -- spike family -------------------------------------------------------------

def test_spike_schedule_formula():
    for n in (1, 2, 3):
        for j in (1, 4, 8):
            A, r = spike_schedule(n, j)
            assert A == SPIKE_A0[n] * j
            assert r == SPIKE_R0 * float(j) ** -(1.0 + SPIKE_EPS[n])
    # schedule radii stay inside the half-extent bound over the studied range
    assert all(0 < spike_schedule(n, j)[1] < 0.5 for n in (1, 2, 3) for j in range(1, 9))


def test_spike_zero_amplitude_is_background():
    base = make_flat(2, 8, torus=True)
    g = make_spike_sequence(base, 1, A_j=0.0)
    assert np.array_equal(g.tensors, base[1].tensors)


def test_spike_is_conformal_and_localized():
    base = make_flat(2, 8, torus=True)
    mesh, g0 = base
    g = make_spike_sequence(base, 1)
    A, r = spike_schedule(2, 1)
    bary = mesh.verts[mesh.cells].mean(axis=1)
    d = np.linalg.norm(bary - 0.5, axis=1)
    phi = 1.0 + A * np.maximum(0.0, 1.0 - d / r)
    assert np.allclose(g.tensors, g0.tensors * (phi ** 2)[:, None, None])
    far = d >= r
    assert far.any() and np.array_equal(g.tensors[far], g0.tensors[far])
    near = d < r
    assert near.any() and (np.linalg.eigvalsh(g.tensors[near]) > 1.0).all()


def test_spike_validation():
    base = make_flat(2, 8, torus=True)
    with pytest.raises(ValueError):
        make_spike_sequence(base, 0)
    with pytest.raises(ValueError):
        make_spike_sequence(base, 1, A_j=-1.0)
    with pytest.raises(ValueError):
        make_spike_sequence(base, 1, r_j=0.6)    # beyond half extent
    with pytest.raises(ValueError):
        make_spike_sequence(base, 1, profile="tube")   # tube is 3-D only
    with pytest.raises(ValueError):
        make_spike_sequence(base, 1, profile="cone")


def test_spike_center_wraps_on_a_torus():
    # a center near the seam raises as many cells as the midpoint, on both
    # sides of the seam; on a box the spike is cut there.  A center outside
    # the unit chart used to raise no cell at all, and is now rejected
    torus = make_flat(2, 8, torus=True)
    bary = torus[0].verts[torus[0].cells].mean(axis=1)

    def raised(base, center):
        return make_spike_sequence(base, 1, center=center).tensors[:, 0, 0] > 1.0

    seam = raised(torus, (0.95, 0.5))
    assert seam.sum() == raised(torus, (0.5, 0.5)).sum() == 82
    assert (bary[seam, 0] < 0.25).any() and (bary[seam, 0] > 0.75).any()
    assert raised(make_flat(2, 8, torus=False), (0.95, 0.5)).sum() == 47
    with pytest.raises(ValueError) as err:
        make_spike_sequence(torus, 1, center=(1.45, 0.5))
    assert err.value.key == "center"


def _raised_and_distance(mesh, center, r, wrap):
    """The cells a spike of radius r at ``center`` raises, and the ones whose
    barycenters lie within r, wrapping the axes in ``wrap`` by their extent."""
    raised = make_spike_sequence((mesh, MetricField.identity(mesh)), 1, r_j=r,
                                 center=center).tensors[:, 0, 0] > 1.0
    bary = mesh.verts[mesh.cells].mean(axis=1)
    gap = np.abs(bary - center)
    extent = mesh.verts.max(axis=0) - mesh.verts.min(axis=0)
    gap[:, wrap] = np.minimum(gap[:, wrap], extent[wrap] - gap[:, wrap])
    return raised, np.linalg.norm(gap, axis=1) < r


def test_spike_wraps_only_glued_axes():
    # an 8x8 cylinder glues x alone: a spike at the lower edge is cut there,
    # not wrapped to the upper edge (7 cells above y = 0.5 used to be raised)
    box, _ = make_flat(2, 8, torus=False)
    v = box.verts
    ends = [np.flatnonzero((v[:, 0] == x) & (v[:, 1] == y))[0]
            for y in np.unique(v[:, 1]) for x in (1.0, 0.0)]
    cylinder = build_mesh(v, box.cells, np.reshape(ends, (-1, 2)))
    raised, near = _raised_and_distance(cylinder, (0.5, 0.02), 0.45, [0])
    assert not raised[cylinder.verts[cylinder.cells].mean(axis=1)[:, 1] > 0.5].any()
    assert near.sum() > 0 and np.array_equal(raised, near)


def test_spike_wraps_by_the_glue_period():
    # a torus of period 2 wraps at 2, not 1: r = 0.3 at its centre raises
    # the 8 cells within r (32 used to be raised)
    torus, _ = make_flat(2, 8, torus=True)
    doubled = build_mesh(2.0 * torus.verts, torus.cells, torus.ident)
    raised, near = _raised_and_distance(doubled, (1.0, 1.0), 0.3, [0, 1])
    assert raised.sum() == near.sum() == 8
    assert np.array_equal(raised, near)


def test_spike_center_is_checked_per_axis():
    # on a [0, 2] x [0, 1] torus y = 1.8 lies outside the chart (15 cells
    # used to be raised); the default center is the per-axis midpoint
    torus, _ = make_flat(2, 8, torus=True)
    wide = build_mesh(torus.verts * [2.0, 1.0], torus.cells, torus.ident)
    base = (wide, MetricField.identity(wide))
    with pytest.raises(ValueError) as err:
        make_spike_sequence(base, 1, center=(1.0, 1.8))
    assert err.value.key == "center" and "the chart [0, 2] x [0, 1]" in str(err.value)
    assert np.array_equal(make_spike_sequence(base, 1).tensors,
                          make_spike_sequence(base, 1, center=(1.0, 0.5)).tensors)


def test_spike_radius_is_checked_per_axis():
    # on a [0, 2]^2 torus r = 0.7 lies below half of every extent (it used
    # to be rejected as beyond half the unit box) and raises the cells within r
    torus, _ = make_flat(2, 8, torus=True)
    doubled = build_mesh(2.0 * torus.verts, torus.cells, torus.ident)
    raised, near = _raised_and_distance(doubled, (1.0, 1.0), 0.7, [0, 1])
    assert near.sum() > 8 and np.array_equal(raised, near)


def test_spike_tube_profile_is_axis_supported():
    base = make_flat(3, 4, torus=True)
    mesh, g0 = base
    g = make_spike_sequence(base, 2, profile="tube")
    bary = mesh.verts[mesh.cells].mean(axis=1)
    _, r = spike_schedule(3, 2)
    axis_far = np.linalg.norm(bary[:, :2] - 0.5, axis=1) >= r
    assert np.array_equal(g.tensors[axis_far], g0.tensors[axis_far])
    # cells near the axis are modified at every height, unlike the ball
    near = ~axis_far
    assert len(set(np.round(bary[near, 2], 9))) > 1


@pytest.mark.parametrize(
    "n,res,p,ig_bound",
    [(1, 64, 4.0, 2.2), (2, 8, 7.0, 3.3), (3, 6, 10.0, 70.0)],
)
def test_spike_inverse_difference_strictly_decreases(n, res, p, ig_bound):
    """The headline sequence property on each reference mesh."""
    base = make_flat(n, res, torus=True)
    vals, igs = [], []
    for j in range(1, 9):
        rep = hypothesis_functionals(make_spike_sequence(base, j), base[1], p)
        vals.append(rep.I_inv)
        igs.append(rep.I_g)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert max(igs) < ig_bound            # mass integral stays bounded
    assert vals[-1] < 0.25 * vals[0]      # substantial decay by j = 8


# -- oscillation family -------------------------------------------------------

def test_oscillation_negative_control():
    base = make_flat(2, 8, torus=True)
    reps = [
        hypothesis_functionals(make_oscillation_sequence(base, j), base[1], 7.0)
        for j in (1, 2, 4, 8)
    ]
    ref = reps[0].I_inv
    assert ref > 0
    for rep in reps[1:]:
        assert rep.I_inv == pytest.approx(ref, rel=1e-12)   # does not vanish


def test_oscillation_cell_values():
    base = make_flat(2, 2, torus=True)
    g = make_oscillation_sequence(base, 1)
    factors = sorted(g.tensors[:, 0, 0])
    assert factors == [0.25] * 4 + [4.0] * 4
    # multiset of cell tensors is j-independent
    g2 = make_oscillation_sequence(make_flat(2, 8, torus=True), 3)
    vals, counts = np.unique(g2.tensors[:, 0, 0], return_counts=True)
    assert list(vals) == [0.25, 4.0] and counts[0] == counts[1] == 64


def test_oscillation_squares_follow_the_chart():
    # on a [0, 2]^2 torus every j gives the unit torus's pattern (each index
    # used to be floor(2 x R), the pattern of another j)
    torus, g0 = make_flat(2, 8, torus=True)
    doubled = build_mesh(2.0 * torus.verts, torus.cells, torus.ident)
    for j in range(1, 5):
        unit = make_oscillation_sequence((torus, g0), j).tensors
        wide = make_oscillation_sequence((doubled, MetricField.identity(doubled)), j).tensors
        assert np.array_equal(wide, unit)


def test_oscillation_validation():
    with pytest.raises(MeshError):
        make_oscillation_sequence(make_flat(1, 8, torus=True), 1)
    with pytest.raises(ValueError):
        make_oscillation_sequence(make_flat(2, 8, torus=True), 0)
    with pytest.raises(ValueError):                  # a 1 x 1 grid: resolution below 2
        make_oscillation_sequence(make_flat(2, 1, torus=False), 1)
    strip = strip_mesh(3, 1)                         # 6 cells: no R x R grid
    with pytest.raises(MeshError):
        make_oscillation_sequence((strip, MetricField.identity(strip)), 1)


# -- conformal ----------------------------------------------------------------

def test_conformal_constant_scales_tensors():
    base = make_flat(2, 4, torus=False)
    g = make_conformal_constant(base, 3.0)
    assert np.allclose(g.tensors, 9.0 * base[1].tensors)

