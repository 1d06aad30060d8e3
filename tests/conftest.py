"""Shared helpers: deterministic random geometry, tiny reference meshes,
uniform refinement, the tensor functionals that only tests evaluate, and
the solver's barrier rounds run past its cap-bound screen."""

import numpy as np
import pytest

from dpmod import solver
from dpmod.errors import MeshError
from dpmod.mesh import build_mesh
from dpmod.metric import MetricField


def barrier_result(g, params, x, y):
    """(value, centerings, converged) of the barrier rounds on pair x < y.

    They start from the Newton screen's extremal, as in ``solve_dp`` when
    neither screen settles the pair, and the value is rescaled as
    ``solve_dp`` rescales it; the cap-bound screen is skipped.
    """
    gauge = solver._Gauge(g, params, x, y)
    f, _, _ = solver._newton_energy(gauge, gauge.start())
    r = gauge.ratios(f)
    f, terms, _, stages, converged = solver._barrier_rounds(
        gauge, f, gauge.terms(gauge.energy(f), r)[0], r)
    return gauge.sigma ** params.t * ((f[x] - f[y]) / terms[0]), stages, converged


def random_spd_tensors(rng, num_cells, n, cond_max=100.0, scale_lo=0.5, scale_hi=2.0):
    """(C, n, n) random SPD matrices with condition number <= cond_max."""
    out = np.empty((num_cells, n, n))
    for c in range(num_cells):
        A = rng.normal(size=(n, n))
        Q, _ = np.linalg.qr(A)
        cond = rng.uniform(1.0, cond_max)
        # eigenvalues spread symmetrically about a random overall scale
        lo, hi = 1.0 / np.sqrt(cond), np.sqrt(cond)
        eig = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
        eig[0], eig[-1] = lo, hi  # hit the condition number exactly
        scale = rng.uniform(scale_lo, scale_hi)
        out[c] = (Q * (scale * eig)) @ Q.T
    return out


def random_metric(rng, mesh, cond_max=100.0, scale_lo=0.5, scale_hi=2.0):
    return MetricField(
        mesh, random_spd_tensors(rng, mesh.num_cells, mesh.dim, cond_max,
                                 scale_lo, scale_hi)
    )


def chain_mesh(positions):
    """1-D mesh with the given strictly increasing vertex coordinates."""
    positions = np.asarray(positions, dtype=float)
    verts = positions.reshape(-1, 1)
    cells = np.column_stack([np.arange(len(positions) - 1),
                             np.arange(1, len(positions))])
    return build_mesh(verts, cells)


def strip_mesh(nx, ny=1, jitter=0.0, rng=None):
    """Triangulated (nx x ny)-square strip on [0,nx]x[0,ny], NE diagonals.

    jitter displaces interior-chart vertices by up to ``jitter`` (< 0.29
    keeps every triangle non-degenerate).
    """
    verts = np.array([[i, j] for j in range(ny + 1) for i in range(nx + 1)],
                     dtype=float)
    if jitter:
        verts = verts + rng.uniform(-jitter, jitter, size=verts.shape)
    cells = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b, c, d = a + 1, a + nx + 1, a + nx + 2
            cells += [(a, b, d), (a, d, c)]
    return build_mesh(verts, np.array(cells))



# -- uniform subdivision ---------------------------------------------------

# tetrahedron -> 4 corner tets + central octahedron split along the
# m(0,2)-m(1,3) diagonal; indices into (v0..v3, m01, m02, m03, m12, m13, m23)
_TET_CHILDREN = [
    (0, 4, 5, 6),
    (4, 1, 7, 8),
    (5, 7, 2, 9),
    (6, 8, 9, 3),
    (4, 5, 6, 8),
    (4, 5, 7, 8),
    (5, 6, 8, 9),
    (5, 7, 8, 9),
]


def uniform_subdivide(mesh):
    """One round of uniform refinement (1-D halving, tri->4, tet->8).

    Meshes with identifications are not supported (refine generated tori by
    regenerating at a higher resolution instead).
    """
    if mesh.ident.size:
        raise MeshError("uniform_subdivide does not support identified meshes")
    n = mesh.dim
    verts = [tuple(v) for v in mesh.verts]
    index = {v: i for i, v in enumerate(verts)}

    def midpoint(a, b):
        m = tuple((mesh.verts[a] + mesh.verts[b]) / 2.0)
        if m not in index:
            index[m] = len(verts)
            verts.append(m)
        return index[m]

    new_cells = []
    for cell in mesh.cells:
        if n == 1:
            a, b = cell
            m = midpoint(a, b)
            new_cells += [(a, m), (m, b)]
        elif n == 2:
            a, b, c = cell
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_cells += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        else:
            ids = list(cell) + [
                midpoint(cell[0], cell[1]),
                midpoint(cell[0], cell[2]),
                midpoint(cell[0], cell[3]),
                midpoint(cell[1], cell[2]),
                midpoint(cell[1], cell[3]),
                midpoint(cell[2], cell[3]),
            ]
            new_cells += [tuple(ids[k] for k in child) for child in _TET_CHILDREN]
    return build_mesh(np.array(verts, dtype=float), np.array(new_cells, dtype=np.int64))


# -- tensor functionals, the independent side of the pencil norms ------------

def det_wrt_g0(lam2):
    """Per-cell det(g)_{g0} = prod lam_i^2 = det(G)/det(G0), from the (C, n)
    pencil eigenvalues of ``metric.generalized_eigenvalues``."""
    return lam2.prod(axis=1)


def tensor_norm_wrt(omega, g):
    """Per-cell norm |omega|_g = ||G^{-1/2} Omega G^{-1/2}||_F of a (0,2) field.

    ``omega`` is a (C, n, n) array of symmetric, not necessarily definite,
    tensors.  Equals sqrt(tr(G^-1 Omega G^-1 Omega)); for omega = g.tensors
    it gives sqrt(n).
    """
    Gi = g.inverses()
    M = np.einsum("cij,cjk->cik", Gi, omega)
    return np.sqrt(np.einsum("cij,cji->c", M, M))


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)
