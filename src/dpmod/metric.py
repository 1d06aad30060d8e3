"""Per-cell metric fields and the functionals the class and hypothesis checks use.

Metrics are piecewise constant: one SPD matrix per cell, expressed in chart
coordinates.  All integrals over the mesh are therefore exact finite sums
(field value ^ exponent x sqrt(det G0) x euclidean cell volume), which keeps
the scaling and homogeneity identities exact instead of quadrature-limited.

Conventions
-----------
* ``generalized_eigenvalues(g, g0)`` returns the (C, n) array of per-cell
  ascending eigenvalues lam_i^2 of the pencil (G, G0) — i.e. of G0^-1 G —
  computed by Cholesky reduction (G0 = L L^T, then eigh on L^-1 G L^-T) so
  ill-conditioned backgrounds stay stable.
* norms of SPD fields, from that array: |g|_{g0} = sqrt(sum lam_i^4) and
  |g^-1|_{g0} = sqrt(sum lam_i^-4).
* the difference of inverse metrics is not SPD; its norm is the
  frame-invariant g0-Frobenius norm |T|_{g0} = ||G0^{1/2} T G0^{1/2}||_F.
* ``lq_norm(field, s, g0)`` = (sum field^s sqrt(det G0) vol)^{1/s}.

File format ``dpmetric v1``::

    dpmetric v1 <n> <num_cells>
    <g11> <g12> ... <gnn>     # upper triangle, row-major, one cell per line

``#`` starts a comment.  ``read_metric`` takes its lines from
``mesh._read_records``, the reader it shares with ``read_mesh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geodesic
from .errors import MeshMismatchError, MetricError, NotSPDError, ParseError
from .mesh import _read_records

_ETA_FACTOR = 5.0 / 12.0  # eta = 5n/12 in the inverse-integrability exponent


def _check_symmetric(tensors, tol=1e-12):
    asym = np.abs(tensors - tensors.transpose(0, 2, 1)).max(axis=(1, 2))
    scale = np.maximum(1.0, np.abs(tensors).max(axis=(1, 2)))
    bad = np.nonzero(asym > tol * scale)[0]
    if bad.size:
        raise MetricError(f"cell {bad[0]} tensor is not symmetric (|A-A^T| = {asym[bad[0]]:.3g})")


class MetricField:
    """Per-cell SPD metric tensors (smallest eigenvalue > 1e-10)."""

    def __init__(self, mesh, tensors):
        tensors = np.asarray(tensors, dtype=float)
        n = mesh.dim
        if tensors.shape != (mesh.num_cells, n, n):
            raise MeshMismatchError(
                f"tensors must be ({mesh.num_cells}, {n}, {n}), got {tensors.shape}"
            )
        if not np.all(np.isfinite(tensors)):
            raise MetricError("tensor entries must be finite")
        _check_symmetric(tensors)
        self.mesh = mesh
        self.tensors = 0.5 * (tensors + tensors.transpose(0, 2, 1))
        ev = np.linalg.eigvalsh(self.tensors)
        if ev[:, 0].min() <= 1e-10:
            bad = int(np.argmin(ev[:, 0]))
            raise NotSPDError(
                f"cell {bad} tensor is not SPD (min eigenvalue {ev[bad, 0]:.3g})"
            )

    @classmethod
    def constant(cls, mesh, matrix):
        matrix = np.asarray(matrix, dtype=float)
        return cls(mesh, np.broadcast_to(matrix, (mesh.num_cells,) + matrix.shape).copy())

    @classmethod
    def identity(cls, mesh):
        return cls.constant(mesh, np.eye(mesh.dim))

    def inverses(self):
        return np.linalg.inv(self.tensors)

    def sqrt_dets(self):
        return np.sqrt(np.linalg.det(self.tensors))


@dataclass
class ClassParams:
    """Bounds cutting out a compactness class of metrics over a fixed g0."""

    q1: float
    q2: float
    V1: float
    V2: float
    D: float

    def __post_init__(self):
        if not (self.q1 > 1 and self.q2 > 1):
            raise ValueError("class exponents must satisfy q1, q2 > 1")
        if not (self.V1 > 0 and self.V2 > 0 and self.D > 0):
            raise ValueError("class bounds must be positive")


@dataclass
class ClassReport:
    member: bool
    norm_g: float
    norm_ginv: float
    diam_g: float


@dataclass
class HypothesisReport:
    """The integral quantities controlling distance convergence.

    I_g     : integral of |g_j|_{g0}^{n/2} dV_{g0}          (must stay bounded)
    I_inv   : integral of |g_j^-1 - g0^-1|_{g0}^{n(p-1)/2}  (must tend to 0)
    I_eta   : integral of |g_j^-1|_{g0}^{n·eta/(p-eta)}, eta = 5n/12
    I_33    : (integral of |g_j^-1 - g0^-1|_{g0}^{p/(2(p-1))})^{(p-1)/p}
    """

    I_g: float
    I_inv: float
    I_eta: float
    I_33: float


def _same_mesh(a, b):
    if a.mesh is not b.mesh:
        raise MeshMismatchError("fields live on different meshes")


def generalized_eigenvalues(g, g0):
    """(C, n) per-cell ascending eigenvalues lam_i^2 of the pencil (G, G0)."""
    _same_mesh(g, g0)
    L = np.linalg.cholesky(g0.tensors)
    M = np.linalg.solve(L, g.tensors)                                # L^-1 G
    M = np.linalg.solve(L, M.transpose(0, 2, 1)).transpose(0, 2, 1)  # ... L^-T
    lam2 = np.linalg.eigvalsh(0.5 * (M + M.transpose(0, 2, 1)))
    if lam2.min() <= 0:
        raise NotSPDError("pencil produced a nonpositive eigenvalue")
    return lam2


def norm_g_wrt_g0(lam2):
    """Per-cell |g|_{g0} = sqrt(sum lam_i^4), from the pencil eigenvalues lam2."""
    return np.sqrt((lam2 ** 2).sum(axis=1))


def norm_ginv_wrt_g0(lam2):
    """Per-cell |g^-1|_{g0} = sqrt(sum lam_i^-4), from the pencil eigenvalues lam2."""
    return np.sqrt((lam2 ** -2).sum(axis=1))


def inverse_difference_norm(g, g0):
    """Per-cell |g^-1 - g0^-1|_{g0} = ||G0^{1/2} (G^-1 - G0^-1) G0^{1/2}||_F."""
    _same_mesh(g, g0)
    T = g.inverses() - g0.inverses()
    M = np.einsum("cij,cjk->cik", g0.tensors, T)   # G0 T
    return np.sqrt(np.einsum("cij,cji->c", M, M))  # tr((G0 T)^2), T symmetric


def lq_norm(field, s, g0):
    """(sum_cells field_c^s sqrt(det G0_c) vol_c)^{1/s}; field must be >= 0."""
    if not s > 0:
        raise ValueError(f"exponent must be positive, got {s}")
    field = np.asarray(field, dtype=float)
    if field.shape != (g0.mesh.num_cells,):
        raise MeshMismatchError("scalar field and metric disagree on cell count")
    weights = g0.sqrt_dets() * g0.mesh.volumes
    return float((field ** s * weights).sum() ** (1.0 / s))


def integral_wrt(field, g0):
    """Plain integral of a per-cell scalar field against dV_{g0}."""
    field = np.asarray(field, dtype=float)
    return float((field * g0.sqrt_dets() * g0.mesh.volumes).sum())


def check_class_membership(g, g0, params):
    """Measure the class functionals of g over g0 and compare with bounds."""
    _same_mesh(g, g0)
    lam2 = generalized_eigenvalues(g, g0)
    norm_g = lq_norm(norm_g_wrt_g0(lam2), params.q1 / 2.0, g0)
    norm_ginv = lq_norm(norm_ginv_wrt_g0(lam2), params.q2 / 2.0, g0)
    diam_g = geodesic.all_pairs_distances(g.mesh, g).diameter()
    member = norm_g <= params.V1 and norm_ginv <= params.V2 and diam_g <= params.D
    return ClassReport(member, norm_g, norm_ginv, diam_g)


def hypothesis_functionals(g_j, g0, p):
    """Evaluate the convergence-theorem integrals for one metric against g0."""
    _same_mesh(g_j, g0)
    n = g_j.mesh.dim
    if not p > n:
        raise ValueError(f"exponent p must exceed the dimension n = {n}, got p = {p}")
    lam2 = generalized_eigenvalues(g_j, g0)
    diff = inverse_difference_norm(g_j, g0)
    eta = _ETA_FACTOR * n
    I_g = integral_wrt(norm_g_wrt_g0(lam2) ** (n / 2.0), g0)
    I_inv = integral_wrt(diff ** (n * (p - 1) / 2.0), g0)
    I_eta = integral_wrt(norm_ginv_wrt_g0(lam2) ** (n * eta / (p - eta)), g0)
    I_33 = integral_wrt(diff ** (p / (2.0 * (p - 1))), g0) ** ((p - 1) / p)
    return HypothesisReport(I_g, I_inv, I_eta, I_33)


def scale_metric(g, lam):
    """The metric lam^2 g (every cell matrix multiplied by lam^2)."""
    if not lam > 0:
        raise ValueError(f"scale factor must be positive, got {lam}")
    return MetricField(g.mesh, g.tensors * lam ** 2)


# -- file format ----------------------------------------------------------

def write_metric(field, path):
    """One line per cell: the upper triangle, row-major, each entry as repr."""
    n = field.mesh.dim
    iu, ju = np.triu_indices(n)
    lines = [f"dpmetric v1 {n} {field.mesh.num_cells}"]
    lines += [" ".join(map(repr, row)) for row in field.tensors[:, iu, ju].tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_metric(path, mesh):
    line, (n, num_cells), records = _read_records(path, "dpmetric", ("n", "num_cells"))
    if n != mesh.dim:
        raise ParseError(f"metric dimension {n} does not match mesh dimension {mesh.dim}",
                         path, line)
    if num_cells != mesh.num_cells:
        raise ParseError(f"metric has {num_cells} cells, mesh has {mesh.num_cells}",
                         path, line)
    iu, ju = np.triu_indices(n)
    rows = []
    for lineno, tokens in records:
        if len(tokens) != iu.size:
            raise ParseError(f"cell row needs {iu.size} entries, got {len(tokens)}",
                             path, lineno)
        try:
            rows.append([float(x) for x in tokens])
        except ValueError:
            raise ParseError(f"bad number in {' '.join(tokens)!r}", path, lineno) from None
    if len(rows) != mesh.num_cells:
        raise ParseError(f"expected {mesh.num_cells} cell rows, got {len(rows)}", path)
    vals = np.array(rows, dtype=float).reshape(len(rows), iu.size)
    tensors = np.empty((len(rows), n, n))
    tensors[:, iu, ju] = vals
    tensors[:, ju, iu] = vals
    try:
        return MetricField(mesh, tensors)
    except MetricError as exc:
        raise ParseError(str(exc), path) from exc
