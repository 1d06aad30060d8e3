"""Generators for the example metric families used by the experiments.

All families are built over a flat unit box or torus with G0 = I:

* ``flat``                the background itself
* ``conformal-constant``  G = c^2 I
* ``spike``               a conformal bump g_j = phi_j^2 g0 shrinking with j
* ``oscillation``         a 1/4 I vs 4 I checkerboard that never settles
                          (negative control: its inverse-difference integral
                          does not vanish)
* ``scaled``              (lambda^2 g, lambda^2 g0) pairs for homogeneity checks

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
evaluated at cell barycenters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError
from .mesh import build_mesh
from .metric import MetricField, scale_metric

SPIKE_A0 = {1: 2.0, 2: 2.0, 3: 8.0}
SPIKE_R0 = 0.45
SPIKE_EPS = {1: -0.1, 2: -0.05, 3: -0.3}

FAMILY_NAMES = ("flat", "conformal-constant", "spike", "oscillation", "scaled")


@dataclass
class FamilySpec:
    """Provenance record for one generated field."""

    family: str
    n: int
    resolution: int
    torus: bool = False
    j: int | None = None
    amplitude: float | None = None
    radius: float | None = None
    scale: float | None = None
    conformal: float | None = None
    center: tuple | None = None
    profile: str = "ball"

    def __post_init__(self):
        if self.family not in FAMILY_NAMES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension must be 1..3, got {self.n}")
        if self.resolution < 2:
            raise ValueError("resolution must be at least 2 cells per axis")
        if self.j is not None and self.j < 1:
            raise ValueError("sequence index j must be >= 1")
        for name in ("amplitude", "radius", "scale", "conformal"):
            v = getattr(self, name)
            if v is not None and not v > 0 and not (name == "amplitude" and v == 0):
                raise ValueError(f"{name} must be positive, got {v}")
        if self.profile not in ("ball", "tube"):
            raise ValueError(f"profile must be 'ball' or 'tube', got {self.profile!r}")

    def to_json(self):
        d = {k: v for k, v in self.__dict__.items() if v is not None}
        if "center" in d:
            d["center"] = list(d["center"])
        return json.dumps(d, sort_keys=True)


def spike_schedule(n, j):
    """Default (A_j, r_j) for the spike family in dimension n."""
    return SPIKE_A0[n] * float(j), SPIKE_R0 * float(j) ** -(1.0 + SPIKE_EPS[n])


# -- flat boxes and tori ----------------------------------------------------

def _flat_1d(resolution, torus):
    verts = np.linspace(0.0, 1.0, resolution + 1).reshape(-1, 1)
    cells = np.array([[i, i + 1] for i in range(resolution)], dtype=np.int64)
    ident = [[resolution, 0]] if torus else None
    return build_mesh(verts, cells, ident)


def _flat_2d(resolution, torus):
    R = resolution
    coords = np.linspace(0.0, 1.0, R + 1)
    verts = np.array([[x, y] for y in coords for x in coords])
    vid = lambda i, j: j * (R + 1) + i
    cells = []
    for j in range(R):
        for i in range(R):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            cells += [[a, b, c], [a, c, d]]
    ident = None
    if torus:
        ident = []
        for k in range(R + 1):
            ident.append([vid(R, k), vid(0, k)])   # right seam -> left
            ident.append([vid(k, R), vid(k, 0)])   # top seam -> bottom
    return build_mesh(verts, np.array(cells, dtype=np.int64), ident)


# Kuhn split of the unit cube into 6 tetrahedra along vertex paths
_KUHN_PATHS = [
    (0, 1, 3, 7), (0, 1, 5, 7), (0, 2, 3, 7),
    (0, 2, 6, 7), (0, 4, 5, 7), (0, 4, 6, 7),
]


def _flat_3d(resolution, torus):
    R = resolution
    coords = np.linspace(0.0, 1.0, R + 1)
    verts = np.array([[x, y, z] for z in coords for y in coords for x in coords])
    vid = lambda i, j, k: (k * (R + 1) + j) * (R + 1) + i
    cells = []
    for k in range(R):
        for j in range(R):
            for i in range(R):
                corner = [
                    vid(i + (b & 1), j + ((b >> 1) & 1), k + ((b >> 2) & 1))
                    for b in range(8)
                ]
                for path in _KUHN_PATHS:
                    cells.append([corner[b] for b in path])
    ident = None
    if torus:
        pairs = set()
        for j in range(R + 1):
            for k in range(R + 1):
                pairs.add((vid(R, j, k), vid(0, j, k)))
        for i in range(R + 1):
            for k in range(R + 1):
                pairs.add((vid(i, R, k), vid(i, 0, k)))
        for i in range(R + 1):
            for j in range(R + 1):
                pairs.add((vid(i, j, R), vid(i, j, 0)))
        ident = sorted(pairs)
    return build_mesh(verts, np.array(cells, dtype=np.int64), ident)


def make_flat(n, resolution, torus=False):
    """Unit box/torus mesh at the given per-axis resolution, with G = I."""
    if n == 1:
        mesh = _flat_1d(resolution, torus)
    elif n == 2:
        mesh = _flat_2d(resolution, torus)
    elif n == 3:
        mesh = _flat_3d(resolution, torus)
    else:
        raise MeshError(f"dimension must be 1..3, got {n}")
    return mesh, MetricField.identity(mesh)


# -- derived families -------------------------------------------------------

def _barycenters(mesh):
    return mesh.verts[mesh.cells].mean(axis=1)


def make_spike_sequence(base, j, A_j=None, r_j=None, center=None, profile="ball"):
    """Conformal spike g_j = phi_j^2 g0, phi_j = 1 + A_j max(0, 1 - d/r_j).

    d is the chart euclidean distance from the cell barycenter to ``center``
    (profile 'ball') or to the axis through ``center`` along the last
    coordinate (profile 'tube', n = 3).  Defaults: the documented schedule
    ``spike_schedule(n, j)`` and center = box midpoint.
    """
    mesh, g0 = base
    if not j >= 1:
        raise ValueError(f"sequence index j must be >= 1, got {j}")
    sched_A, sched_r = spike_schedule(mesh.dim, j)
    A = sched_A if A_j is None else float(A_j)
    r = sched_r if r_j is None else float(r_j)
    if A < 0:
        raise ValueError(f"amplitude must be >= 0, got {A}")
    if not 0 < r < 0.5:
        raise ValueError(f"radius must lie in (0, half extent), got {r}")
    if center is None:
        center = np.full(mesh.dim, 0.5)
    center = np.asarray(center, dtype=float)
    bary = _barycenters(mesh)
    if profile == "ball":
        d = np.linalg.norm(bary - center, axis=1)
    elif profile == "tube":
        if mesh.dim != 3:
            raise ValueError("tube profile requires a 3-D mesh")
        d = np.linalg.norm(bary[:, :2] - center[:2], axis=1)
    else:
        raise ValueError(f"profile must be 'ball' or 'tube', got {profile!r}")
    phi = 1.0 + A * np.maximum(0.0, 1.0 - d / r)
    return MetricField(mesh, g0.tensors * (phi ** 2)[:, None, None])


def make_conformal_constant(base, c):
    """G -> c^2 G on every cell."""
    _, g0 = base
    return scale_metric(g0, c)


def make_oscillation_sequence(base, j, resolution):
    """Checkerboard of 1/4 I and 4 I squares at frequency j (n = 2).

    Blocks of b = resolution // (2j) squares (clamped to divisors, minimum 1)
    alternate between the two values; both triangles of a square share its
    value.  The cell-value multiset is the same for every j, so the
    inverse-difference integral of this family is exactly j-independent —
    the hypothesis it is built to violate.
    """
    mesh, g0 = base
    if mesh.dim != 2:
        raise MeshError("oscillation family is 2-D")
    if j < 1:
        raise ValueError(f"sequence index j must be >= 1, got {j}")
    R = int(resolution)
    b = R // (2 * j)
    if b < 1 or R % b != 0:
        b = 1
    bary = _barycenters(mesh)
    ix = np.floor(bary[:, 0] * R).astype(int)
    iy = np.floor(bary[:, 1] * R).astype(int)
    parity = ((ix // b) + (iy // b)) % 2
    factor = np.where(parity == 0, 0.25, 4.0)
    return MetricField(mesh, g0.tensors * factor[:, None, None])
