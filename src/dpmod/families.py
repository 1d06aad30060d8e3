"""Generators for the example metric families used by the experiments.

All families are built over a flat unit box or torus with G0 = I:

* ``flat``                the background itself
* ``conformal-constant``  G = c^2 I
* ``spike``               a conformal bump g_j = phi_j^2 g0 shrinking with j
* ``oscillation``         a 1/4 I vs 4 I checkerboard that never settles
                          (negative control: its inverse-difference integral
                          does not vanish)
* ``scaled``              (lambda^2 g, lambda^2 g0) pairs for homogeneity checks

The flat base is a grid of R^n cubes of side 1/R, one builder for n = 1, 2
and 3.  Grid vertex (i_0, .., i_{n-1}) is chart vertex
i_0 + (R+1) i_1 + (R+1)^2 i_2, so the first axis runs fastest.  Each cube
is split into the n! Kuhn simplices: one per order of the axes, with
vertices the cube's lower corner and the corners reached by stepping along
the axes in that order.  Cubes are numbered like their lower corners and
simplices by ``itertools.permutations``.  A torus keeps every seam vertex
in the chart and glues each vertex on an upper face to its copy on the
opposite lower face, as sorted ``ident`` pairs.

The spike is the conformal stand-in for thin-bubble/neck sequences: the
pointwise metric blows up (amplitude A_j = SPIKE_A0 * j) while the support
shrinks fast enough (radius r_j = SPIKE_R0 * j^-(1+eps_n)) that the mass
integral stays bounded over the run and the inverse-difference integral
decreases to 0.  Topology change is deliberately not modeled.

The schedule constants below are measured, not derived.  In the continuum
any eps >= 0 with A_j = j works, but on a coarse mesh the field is sampled
at cell barycenters, which quantizes the spike support: once the support
stabilizes on the innermost ring of cells, a bare A_j = j schedule pushes
the (saturating) integrand of I_inv back up, and a radius decaying at
eps >= 0 empties the support entirely before j = 8.  The shipped constants
(per-dimension amplitude prefactor SPIKE_A0, slightly slow radius decay
eps_n < 0, SPIKE_R0 = 0.45 to respect the half-extent bound) pre-saturate
the amplitude and keep the innermost ring populated with decaying weight,
so the measured I_inv is strictly decreasing over j = 1..8 on the
reference meshes (unit tori: 64 cells for n = 1, 8x8 for n = 2, 6x6x6 for
n = 3, grid-vertex center; see tests/test_families.py).  Generators expose
the fields and measured functionals; nothing is promised beyond the
measured range.

Spike profiles use the chart euclidean distance to the center (``ball``) or
to the vertical axis through it (``tube``, the 3-D line-supported variant),
evaluated at cell barycenters; along each glued axis the coordinate
difference is taken to the nearest image.  The center must lie in the chart.

A :class:`FamilySpec` describes one family member and builds its fields
with ``FamilySpec.metrics``; it keeps only the values its family reads
(``FAMILY_READS``), so it doubles as the field's provenance record.  Family
values have one check, ``_check_values``, which ``FamilySpec``,
``make_spike_sequence`` and ``make_oscillation_sequence`` all call.  Its :class:`FamilyValueError`
names the config key of the bad value, so the experiment runners report it
as an error in that key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .errors import MeshError
from .mesh import build_mesh
from .metric import MetricField, scale_metric

SPIKE_A0 = {1: 2.0, 2: 2.0, 3: 8.0}
SPIKE_R0 = 0.45
SPIKE_EPS = {1: -0.1, 2: -0.05, 3: -0.3}

# the spec values each family reads; FamilySpec drops the others
FAMILY_READS = {
    "flat": (),
    "conformal-constant": ("conformal",),
    "spike": ("j", "amplitude", "radius", "center", "profile"),
    "oscillation": ("j",),
    "scaled": ("scale", "conformal"),
}
FAMILY_NAMES = tuple(FAMILY_READS)


class FamilyValueError(ValueError):
    """A family value out of range; ``key`` is the config key that sets it."""

    def __init__(self, key, message):
        super().__init__(f"{key} {message}")
        self.key = key
        self.message = message


def _check_values(family, n, resolution=None, j=None, amplitude=None, radius=None,
                  scale=None, conformal=None, center=None, profile=None, chart=(0.0, 1.0)):
    """The one check of family values; None means not given.

    ``chart`` = (lo, hi) bounds the coordinates of ``center``, per axis or
    for all axes alike: the unit chart of the family bases unless a spike is
    built on another mesh.  ``radius`` lies below half the chart's smallest
    extent (of its first two axes for a tube).

    Raises :class:`FamilyValueError` naming the config key of the first bad
    value.
    """
    lo, hi = np.ravel(chart[0]), np.ravel(chart[1])
    half = 0.5 * (hi - lo)[:2 if profile == "tube" else None].min()
    spans = [f"[{a:g}, {b:g}]" for a, b in np.broadcast(lo, hi)]
    box = spans[0] if len(set(spans)) == 1 else " x ".join(spans)
    for key, ok, message in (
        ("family", family in FAMILY_NAMES,
         f"must be one of {', '.join(FAMILY_NAMES)}, got {family!r}"),
        ("n", n in (1, 2, 3), f"dimension must be 1..3, got {n}"),
        ("n", family != "oscillation" or n == 2, f"must be 2 for the oscillation family, got {n}"),
        ("resolution", resolution is None or resolution >= 2,
         "must be at least 2 cells per axis"),
        ("j", j is None or j >= 1, f"sequence index must be >= 1, got {j}"),
        ("conformal_c", conformal is None or 0 < conformal < math.inf,
         f"must be positive and finite, got {conformal}"),
        ("scale", scale is None or 0 < scale < math.inf,
         f"must be positive and finite, got {scale}"),
        ("amplitude", amplitude is None or 0 <= amplitude < math.inf,
         f"must be >= 0 and finite, got {amplitude}"),
        ("radius", radius is None or 0 < radius < half,
         f"must lie in (0, {half:g}), half the box extent, got {radius}"),
        ("center", center is None or np.shape(center) == (n,),
         f"needs {n} coordinates for n = {n}, got shape {np.shape(center)}"),
        ("center", center is None or np.isfinite(center).all(),
         f"coordinates must be finite, got {center}"),
        # every row is evaluated first: a center of the wrong shape skips
        # this one and fails the shape row above
        ("center", center is None or np.shape(center) != (n,)
         or bool(((lo <= np.asarray(center)) & (np.asarray(center) <= hi)).all()),
         f"coordinates must lie in the chart {box}, got {center}"),
        ("profile", profile in (None, "ball") or (profile == "tube" and n == 3),
         f"must be 'ball', or 'tube' on a 3-D mesh, got {profile!r}"),
    ):
        if not ok:
            raise FamilyValueError(key, message)


@dataclass
class FamilySpec:
    """One generated field: the family, its flat base and its values.

    ``metrics(make_flat(n, resolution, torus))`` builds the field; the spec
    is also the field's provenance record.  Every value is checked; those
    its family does not read are then set to None.
    """

    family: str
    n: int
    resolution: int
    torus: bool = False
    j: int | None = None
    amplitude: float | None = None
    radius: float | None = None
    scale: float | None = None
    conformal: float | None = None
    center: list | tuple | None = None
    profile: str | None = "ball"

    def __post_init__(self):
        _check_values(self.family, self.n, self.resolution, self.j, self.amplitude,
                      self.radius, self.scale, self.conformal, self.center, self.profile)
        for name in ("j", "amplitude", "radius", "scale", "conformal", "center", "profile"):
            if name not in FAMILY_READS[self.family]:
                setattr(self, name, None)

    def metrics(self, base):
        """(g, g0) over ``base``; g0 is the background, rescaled for ``scaled``."""
        _, g0 = base
        if self.family == "flat":
            return g0, g0
        if self.family == "conformal-constant":
            return make_conformal_constant(base, self.conformal), g0
        if self.family == "spike":
            return make_spike_sequence(base, self.j, A_j=self.amplitude, r_j=self.radius,
                                       center=self.center, profile=self.profile), g0
        if self.family == "oscillation":
            return make_oscillation_sequence(base, self.j), g0
        g = g0 if self.conformal is None else make_conformal_constant(base, self.conformal)
        return scale_metric(g, self.scale), scale_metric(g0, self.scale)


def spike_schedule(n, j):
    """Default (A_j, r_j) for the spike family in dimension n."""
    return SPIKE_A0[n] * float(j), SPIKE_R0 * float(j) ** -(1.0 + SPIKE_EPS[n])


# -- flat boxes and tori ----------------------------------------------------

def make_flat(n, resolution, torus=False):
    """Unit box/torus mesh at the given per-axis resolution, with G = I."""
    if n not in (1, 2, 3):
        raise MeshError(f"dimension must be 1..3, got {n}")
    R = resolution
    grid = np.indices((R + 1,) * n).reshape(n, -1)[::-1]    # (n, V), axis 0 fastest
    verts = np.linspace(0.0, 1.0, R + 1)[grid].T
    stride = (R + 1) ** np.arange(n)
    # Kuhn simplex of an axis order: the partial sums of its strides
    paths = np.array([[0, *np.cumsum(stride[list(order)])]
                      for order in permutations(range(n))])
    lower = np.flatnonzero((grid < R).all(axis=0))          # cube lower corners
    cells = (lower[:, None, None] + paths).reshape(-1, n + 1)
    ident = None
    if torus:
        upper = [np.flatnonzero(grid[a] == R) for a in range(n)]
        ident = np.unique(np.concatenate(
            [np.column_stack([u, u - R * stride[a]]) for a, u in enumerate(upper)]), axis=0)
    mesh = build_mesh(verts, cells, ident)
    return mesh, MetricField.identity(mesh)


# -- derived families -------------------------------------------------------

def _barycenters(mesh):
    return mesh.verts[mesh.cells].mean(axis=1)


def make_spike_sequence(base, j, A_j=None, r_j=None, center=None, profile="ball"):
    """Conformal spike g_j = phi_j^2 g0, phi_j = 1 + A_j max(0, 1 - d/r_j).

    d is the chart euclidean distance from the cell barycenter to ``center``
    (profile 'ball') or to the axis through ``center`` along the last
    coordinate (profile 'tube', n = 3).  Each coordinate of ``center`` lies
    in its axis's range of vertex coordinates ([0, 1] on a family base), and
    r_j below half the smallest extent (of the first two axes for a tube);
    along each glued axis (all of a ``make_flat`` torus) d is measured to
    the nearest image of the center, so a spike near a seam wraps across it.
    Defaults: the documented schedule ``spike_schedule(n, j)`` and center =
    the per-axis midpoint of the chart.
    """
    mesh, g0 = base
    chart = mesh.verts.min(axis=0), mesh.verts.max(axis=0)
    _check_values("spike", mesh.dim, j=j, amplitude=A_j, radius=r_j, center=center,
                  profile=profile, chart=chart)
    sched_A, sched_r = spike_schedule(mesh.dim, j)
    A = sched_A if A_j is None else float(A_j)
    r = sched_r if r_j is None else float(r_j)
    center = 0.5 * (chart[0] + chart[1]) if center is None else np.asarray(center, dtype=float)
    bary = _barycenters(mesh)
    # each axis wraps with period its glue displacement, 0 (no wrap) if not glued
    period = np.abs(np.diff(mesh.verts[mesh.ident], axis=1)).max(axis=(0, 1), initial=0.0)
    if profile == "tube":
        bary, center, period = bary[:, :2], center[:2], period[:2]
    gap = np.abs(bary - center)
    gap = np.where(period > 0.0, np.minimum(gap, period - gap), gap)   # the nearest image
    d = np.linalg.norm(gap, axis=1)
    phi = 1.0 + A * np.maximum(0.0, 1.0 - d / r)
    return MetricField(mesh, g0.tensors * (phi ** 2)[:, None, None])


def make_conformal_constant(base, c):
    """G -> c^2 G on every cell."""
    _, g0 = base
    return scale_metric(g0, c)


def make_oscillation_sequence(base, j):
    """Checkerboard of 1/4 I and 4 I squares at frequency j (n = 2).

    ``base`` is a flat grid ``make_flat(2, R, torus)``; R is read from its
    2 R^2 cells.  Blocks of b = R // (2j) squares (clamped to divisors,
    minimum 1) alternate between the two values; both triangles of a square
    share its value.  Squares are counted over each axis's range of vertex
    coordinates ([0, 1] on a family base).  The cell-value multiset is the same for every j, so the
    inverse-difference integral of this family is exactly j-independent —
    the hypothesis it is built to violate.
    """
    mesh, g0 = base
    if mesh.dim != 2:
        raise MeshError("oscillation family is 2-D")
    R = math.isqrt(mesh.num_cells // 2)
    if 2 * R * R != mesh.num_cells:
        raise MeshError(f"oscillation family needs a flat R x R grid, got {mesh.num_cells} cells")
    _check_values("oscillation", mesh.dim, resolution=R, j=j)
    b = R // (2 * j)
    if b < 1 or R % b != 0:
        b = 1
    lo, hi = mesh.verts.min(axis=0), mesh.verts.max(axis=0)
    ix, iy = np.floor((_barycenters(mesh) - lo) / (hi - lo) * R).astype(int).T
    parity = ((ix // b) + (iy // b)) % 2
    factor = np.where(parity == 0, 0.25, 4.0)
    return MetricField(mesh, g0.tensors * factor[:, None, None])
